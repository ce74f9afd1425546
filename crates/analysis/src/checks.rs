//! Model certification: the invariants `l2fuzz-analyze` gates CI on.
//!
//! Four families of checks run against the explored model:
//!
//! 1. **Mask parity** — the computed reachable sets must equal the claimed
//!    `REACHABLE_FROM_INITIATOR` / `REACHABLE_FROM_INITIATOR_LE` masks in
//!    both directions (no unprovable claim, no undocumented reachability).
//! 2. **Witness replay** — every computed witness must replay through
//!    [`StateMachine::advance`](l2cap::state::StateMachine::advance) and
//!    visit its state.
//! 3. **Plan validity** — every reachable state must have a guide plan
//!    whose prelude replays to its parking state and whose target is either
//!    visited by the prelude or one job-valid command from the park.
//! 4. **Table liveness** — dead transition rows (handling rows of states
//!    the machine can never rest in) and BR/EDR↔LE accept/reject
//!    asymmetries must match [`Allowlist::default`] *exactly*: a flagged
//!    row without an allowlist entry is a violation, and so is a stale
//!    allowlist entry that no longer corresponds to a flagged row.

use btcore::LinkType;
use l2cap::code::CommandCode;
use l2cap::state::{spec_transition, Action, ChannelState};
use serde::Serialize;

use crate::model::{link_model, Witness};
use crate::plan::{fuzz_plans, link_name, validate_plan, FuzzPlan};

/// A violated invariant; any of these fails the analyzer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Violation {
    /// The check family that fired.
    pub check: String,
    /// Human-readable description of the violated invariant.
    pub detail: String,
}

/// A transition-table row whose source state the machine can never rest
/// in, so the row can never execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub struct DeadRow {
    /// The transport whose table arm carries the row.
    pub link: LinkType,
    /// The row's source state.
    pub state: ChannelState,
    /// The row's command.
    pub code: CommandCode,
}

/// How a table arm treats a command, coarsened to the classes the
/// asymmetry check compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ActionClass {
    /// The command is served (a response or self-initiated request).
    Accept,
    /// The command is silently consumed.
    Ignore,
    /// The command draws a Command Reject.
    Reject,
}

impl ActionClass {
    fn of(action: Action) -> ActionClass {
        match action {
            Action::Respond(_) | Action::Initiate(_) => ActionClass::Accept,
            Action::Ignore => ActionClass::Ignore,
            Action::Reject(_) => ActionClass::Reject,
        }
    }
}

/// A command both transports consider valid, served differently by the
/// two table arms in a state both transports can rest in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Asymmetry {
    /// The state both transports rest in.
    pub state: ChannelState,
    /// The command treated differently.
    pub code: CommandCode,
    /// How the BR/EDR arm treats it.
    pub bredr: ActionClass,
    /// How the LE arm treats it.
    pub le: ActionClass,
}

/// The pinned-intentional findings: dead rows and asymmetries the repo
/// keeps deliberately, each justified by a comment at the flagged site in
/// `crates/l2cap/src/state.rs`.  The analyzer requires the flagged set and
/// this list to match exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allowlist {
    /// Dead rows pinned intentional.
    pub dead_rows: Vec<DeadRow>,
    /// Cross-arm asymmetries pinned intentional.
    pub asymmetries: Vec<(ChannelState, CommandCode)>,
}

impl Allowlist {
    /// An allowlist that pins nothing — every dead row and asymmetry in
    /// the model becomes a violation.  Useful to enumerate the full set.
    pub fn empty() -> Self {
        Allowlist {
            dead_rows: Vec::new(),
            asymmetries: Vec::new(),
        }
    }
}

impl Default for Allowlist {
    fn default() -> Self {
        use ChannelState as S;
        use CommandCode as C;
        Allowlist {
            // The paper's Table II rows for states an initiator only passes
            // through; kept verbatim for defensive completeness (see the
            // "Dead rows, pinned intentional" comment in state.rs).
            dead_rows: vec![
                DeadRow {
                    link: LinkType::BrEdr,
                    state: S::WaitConnect,
                    code: C::ConnectionRequest,
                },
                DeadRow {
                    link: LinkType::BrEdr,
                    state: S::WaitCreate,
                    code: C::CreateChannelRequest,
                },
                DeadRow {
                    link: LinkType::BrEdr,
                    state: S::WaitDisconnect,
                    code: C::DisconnectionRequest,
                },
                DeadRow {
                    link: LinkType::BrEdr,
                    state: S::WaitMove,
                    code: C::MoveChannelRequest,
                },
                DeadRow {
                    link: LinkType::BrEdr,
                    state: S::WaitConfirmRsp,
                    code: C::MoveChannelConfirmationResponse,
                },
                DeadRow {
                    link: LinkType::Le,
                    state: S::WaitConnect,
                    code: C::LeCreditBasedConnectionRequest,
                },
                DeadRow {
                    link: LinkType::Le,
                    state: S::WaitConnect,
                    code: C::CreditBasedConnectionRequest,
                },
                DeadRow {
                    link: LinkType::Le,
                    state: S::WaitDisconnect,
                    code: C::DisconnectionRequest,
                },
            ],
            // The enhanced credit-based family is served only on LE (see
            // the "Cross-arm asymmetries, pinned intentional" note on
            // `spec_transition_le`).
            asymmetries: vec![
                (S::Closed, C::CreditBasedConnectionRequest),
                (S::Open, C::FlowControlCreditInd),
                (S::Open, C::CreditBasedReconfigureRequest),
                (S::Open, C::CreditBasedReconfigureResponse),
            ],
        }
    }
}

/// Returns `true` if the command's transition is the same stay-in-place
/// form in every state (the echo/information/reject noise rows, and the
/// wrong-transport rejections) — such rows carry no per-state intent and
/// are excluded from dead-row analysis.
fn state_independent(code: CommandCode, link: LinkType) -> bool {
    let reference = spec_transition(ChannelState::ALL[0], code, link);
    ChannelState::ALL.iter().all(|&s| {
        let t = spec_transition(s, code, link);
        t.next == s && t.passes_through.is_empty() && t.action == reference.action
    })
}

/// Returns `true` if the row does something state-specific: serves the
/// command, moves the machine, or passes through intermediate states.
fn is_intent_row(state: ChannelState, code: CommandCode, link: LinkType) -> bool {
    let t = spec_transition(state, code, link);
    matches!(t.action, Action::Respond(_) | Action::Initiate(_))
        || t.next != state
        || !t.passes_through.is_empty()
}

/// Computes every dead row of one table arm: intent rows whose source
/// state is not restable in *any* machine variant of that transport
/// (eager and non-eager on BR/EDR).
pub fn dead_rows(link: LinkType) -> Vec<DeadRow> {
    let restable = link_model(link).resting_union();
    let mut rows = Vec::new();
    for &state in &ChannelState::ALL {
        if restable.contains(&state) {
            continue;
        }
        for &code in &CommandCode::ALL {
            if state_independent(code, link) {
                continue;
            }
            if is_intent_row(state, code, link) {
                rows.push(DeadRow { link, state, code });
            }
        }
    }
    rows
}

/// Computes every cross-arm asymmetry: commands valid on both transports
/// that the two arms serve with different action classes, in states both
/// transports can rest in.
pub fn asymmetries() -> Vec<Asymmetry> {
    let bredr_restable = link_model(LinkType::BrEdr).resting_union();
    let le_restable = link_model(LinkType::Le).resting_union();
    let mut found = Vec::new();
    for &state in &ChannelState::ALL {
        if !bredr_restable.contains(&state) || !le_restable.contains(&state) {
            continue;
        }
        for &code in &CommandCode::ALL {
            if !code.valid_on(LinkType::BrEdr) || !code.valid_on(LinkType::Le) {
                continue;
            }
            let bredr = ActionClass::of(spec_transition(state, code, LinkType::BrEdr).action);
            let le = ActionClass::of(spec_transition(state, code, LinkType::Le).action);
            if bredr != le {
                found.push(Asymmetry {
                    state,
                    code,
                    bredr,
                    le,
                });
            }
        }
    }
    found
}

/// The full model-certification result.
#[derive(Debug, Clone, Serialize)]
pub struct ModelCheck {
    /// Reachable states per transport, with their minimal witnesses.
    pub witnesses: Vec<Witness>,
    /// Guide plans per transport.
    pub plans: Vec<FuzzPlan>,
    /// Every dead row found (all expected to be allowlisted).
    pub dead_rows: Vec<DeadRow>,
    /// Every asymmetry found (all expected to be allowlisted).
    pub asymmetries: Vec<Asymmetry>,
    /// Violated invariants; empty means the model certifies clean.
    pub violations: Vec<Violation>,
}

/// Runs every model-certification check against the given allowlist.
pub fn check_model(allowlist: &Allowlist) -> ModelCheck {
    let mut violations = Vec::new();
    let mut witnesses = Vec::new();
    let mut plans = Vec::new();

    for link in [LinkType::BrEdr, LinkType::Le] {
        let model = link_model(link);
        let computed = model.deployed.reachable();
        let claimed = ChannelState::initiator_walk(link);

        // 1. Mask parity, both directions.
        for &state in claimed {
            if !computed.contains(&state) {
                violations.push(Violation {
                    check: "mask-parity".into(),
                    detail: format!(
                        "{} mask claims {state} reachable but the model cannot prove it",
                        link_name(link)
                    ),
                });
            }
        }
        for &state in &computed {
            if !claimed.contains(&state) {
                violations.push(Violation {
                    check: "mask-parity".into(),
                    detail: format!(
                        "model reaches {state} on {} but the mask does not claim it",
                        link_name(link)
                    ),
                });
            }
        }

        // 2. Witness replay.
        for witness in model.deployed.witnesses.values() {
            if !witness.replay() {
                violations.push(Violation {
                    check: "witness-replay".into(),
                    detail: format!(
                        "{} witness for {} does not replay through StateMachine",
                        link_name(link),
                        witness.state
                    ),
                });
            }
            witnesses.push(witness.clone());
        }

        // 3. Plan validity.
        for &state in claimed {
            match fuzz_plans(link).get(&state) {
                None => violations.push(Violation {
                    check: "plan-validity".into(),
                    detail: format!(
                        "no guide plan for reachable state {state} on {}",
                        link_name(link)
                    ),
                }),
                Some(plan) => {
                    for problem in validate_plan(plan) {
                        violations.push(Violation {
                            check: "plan-validity".into(),
                            detail: problem,
                        });
                    }
                    plans.push(plan.clone());
                }
            }
        }
    }

    // 4. Table liveness vs. the allowlist, both directions.
    let mut all_dead = dead_rows(LinkType::BrEdr);
    all_dead.extend(dead_rows(LinkType::Le));
    for row in &all_dead {
        if !allowlist.dead_rows.contains(row) {
            violations.push(Violation {
                check: "dead-row".into(),
                detail: format!(
                    "dead transition row ({}, {}, {:?}) is not pinned in the allowlist",
                    link_name(row.link),
                    row.state,
                    row.code
                ),
            });
        }
    }
    for pinned in &allowlist.dead_rows {
        if !all_dead.contains(pinned) {
            violations.push(Violation {
                check: "dead-row".into(),
                detail: format!(
                    "stale allowlist entry: ({}, {}, {:?}) is no longer a dead row",
                    link_name(pinned.link),
                    pinned.state,
                    pinned.code
                ),
            });
        }
    }

    let found_asymmetries = asymmetries();
    for asym in &found_asymmetries {
        if !allowlist.asymmetries.contains(&(asym.state, asym.code)) {
            violations.push(Violation {
                check: "asymmetry".into(),
                detail: format!(
                    "cross-arm asymmetry at ({}, {:?}) — BR/EDR {:?} vs LE {:?} — is not \
                     pinned in the allowlist",
                    asym.state, asym.code, asym.bredr, asym.le
                ),
            });
        }
    }
    for &(state, code) in &allowlist.asymmetries {
        if !found_asymmetries
            .iter()
            .any(|a| a.state == state && a.code == code)
        {
            violations.push(Violation {
                check: "asymmetry".into(),
                detail: format!(
                    "stale allowlist entry: ({state}, {code:?}) is no longer asymmetric"
                ),
            });
        }
    }

    ModelCheck {
        witnesses,
        plans,
        dead_rows: all_dead,
        asymmetries: found_asymmetries,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_certifies_clean_with_the_default_allowlist() {
        let check = check_model(&Allowlist::default());
        assert!(
            check.violations.is_empty(),
            "unexpected violations: {:#?}",
            check.violations
        );
        // 13 BR/EDR + 5 LE witnesses and plans.
        assert_eq!(check.witnesses.len(), 18);
        assert_eq!(check.plans.len(), 18);
    }

    #[test]
    fn dead_rows_are_exactly_the_pinned_eight() {
        let mut all = dead_rows(LinkType::BrEdr);
        all.extend(dead_rows(LinkType::Le));
        assert_eq!(all.len(), 8, "dead rows: {all:#?}");
        let pinned = Allowlist::default().dead_rows;
        for row in &all {
            assert!(pinned.contains(row), "unpinned dead row {row:?}");
        }
    }

    #[test]
    fn asymmetries_are_exactly_the_enhanced_credit_family() {
        let found = asymmetries();
        assert_eq!(found.len(), 4, "asymmetries: {found:#?}");
        for asym in &found {
            assert_eq!(asym.bredr, ActionClass::Reject, "{asym:?}");
            assert_ne!(asym.le, ActionClass::Reject, "{asym:?}");
        }
    }

    #[test]
    fn an_empty_allowlist_fails_the_check() {
        let check = check_model(&Allowlist {
            dead_rows: Vec::new(),
            asymmetries: Vec::new(),
        });
        assert_eq!(check.violations.len(), 12);
    }

    #[test]
    fn stale_allowlist_entries_are_violations() {
        let mut allowlist = Allowlist::default();
        allowlist.dead_rows.push(DeadRow {
            link: LinkType::BrEdr,
            state: ChannelState::Open,
            code: CommandCode::ConfigureRequest,
        });
        let check = check_model(&allowlist);
        assert_eq!(check.violations.len(), 1);
        assert!(check.violations[0].detail.contains("stale"));
    }
}
