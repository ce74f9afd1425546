//! Guide-plan synthesis: deriving the state guide's driving sequences from
//! the computed witnesses.
//!
//! The fuzzer's state guide used to hand-maintain one command sequence per
//! initiator-reachable state.  This module derives those sequences from the
//! model instead: each [`FuzzPlan`] is built from the minimal witness of its
//! target state and a small, explicit parking policy, and the analyzer
//! verifies every plan against the machine (the prelude must replay to the
//! parking state, and the target must either be visited by the prelude or
//! be one job-valid command away from the park).
//!
//! ## Parking policy
//!
//! A witness proves reachability; a *plan* must additionally leave the
//! target somewhere useful to fuzz from.  Three rules bridge the gap:
//!
//! 1. **Connection-shaped jobs park closed.**  The closed and connection
//!    jobs are entered from `CLOSED` by the very connect commands the
//!    mutator sends, so the empty prelude is the anchor.  The creation job
//!    exercises its witness once (so `WAIT_CREATE` is visited) and tears
//!    the channel down again, because creation traffic is also sent against
//!    a closed channel.
//! 2. **Teardown jobs park open.**  A disconnection witness destroys the
//!    channel it proves reachability with, so the plan anchors at `OPEN` —
//!    every disconnection-job command sent from there passes through
//!    `WAIT_DISCONNECT` on the target.
//! 3. **Everything else follows its witness.**  The prelude is the longest
//!    prefix of the witness the guide can materialize as normal packets;
//!    the park is wherever that prefix rests.  If the full witness rests in
//!    the target state the plan is *at rest*; if the target is only passed
//!    through (`WAIT_SEND_CONFIG`, the LE `WAIT_CONFIG` dip) the plan is a
//!    *pass-through*; if the witness tail is not guide-sendable (e.g. the
//!    `WAIT_CONFIG_REQ_RSP` witness ends in a bare Command Reject, and the
//!    guide has no sender for Move Confirmation Requests) the trimmed plan
//!    parks one job-valid command short of the target.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use btcore::LinkType;
use l2cap::code::CommandCode;
use l2cap::jobs::{job_of, Job};
use l2cap::state::{ChannelState, StateMachine};
use serde::Serialize;

use crate::model::{link_model, step, Input, LinkModel, Witness};

/// The commands the state guide can materialize as normal driving packets
/// (each has a concrete sender on `StateGuide`).
pub const GUIDE_SENDABLE: [CommandCode; 8] = [
    CommandCode::ConnectionRequest,
    CommandCode::CreateChannelRequest,
    CommandCode::DisconnectionRequest,
    CommandCode::ConfigureRequest,
    CommandCode::ConfigureResponse,
    CommandCode::MoveChannelRequest,
    CommandCode::LeCreditBasedConnectionRequest,
    CommandCode::CreditBasedReconfigureRequest,
];

/// Returns `true` if the guide has a sender for this command.
pub fn guide_sendable(code: CommandCode) -> bool {
    GUIDE_SENDABLE.contains(&code)
}

/// How a plan relates its target state to its parking state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum PlanKind {
    /// No channel is opened; the mutator's own connect-shaped traffic
    /// enters the target state from `CLOSED`.
    ClosedFuzzing,
    /// The prelude exercises the target state once, then returns to
    /// `CLOSED` and fuzzes from there (the creation job).
    ExerciseThenClose,
    /// The prelude rests the target machine exactly in the target state.
    AtRest,
    /// The prelude visits the target state transiently and rests nearby.
    PassThrough,
    /// The prelude parks one job-valid command short of the target state.
    OneStepFromPark,
}

/// A verified driving sequence for one `(state, link)` pair: send
/// `prelude` (in order, as normal packets), ending with the target's
/// channel machine resting in `park`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct FuzzPlan {
    /// The state this plan drives toward.
    pub state: ChannelState,
    /// The transport the plan runs on.
    pub link: LinkType,
    /// Commands the guide sends, in order.
    pub prelude: Vec<CommandCode>,
    /// The state the target's machine rests in after the prelude.
    pub park: ChannelState,
    /// The relationship between `park` and `state`.
    pub kind: PlanKind,
}

impl FuzzPlan {
    /// `true` if the plan fuzzes without an open channel (the mutated
    /// packets themselves carry the connect-shaped traffic).
    pub fn parks_closed(&self) -> bool {
        self.park == ChannelState::Closed
    }

    /// Replays the prelude through a fresh production machine.
    pub fn replay_machine(&self) -> StateMachine {
        let mut machine = StateMachine::for_link(self.link);
        for &code in &self.prelude {
            machine.advance(code, true);
        }
        machine
    }
}

/// The guide-expressible prefix of a witness: its codes up to (not
/// including) the first input that is refused or has no guide sender.
fn sendable_prefix(witness: &Witness) -> Vec<CommandCode> {
    witness
        .inputs
        .iter()
        .take_while(|i| i.accept && guide_sendable(i.code))
        .map(|i| i.code)
        .collect()
}

/// The state a fresh machine rests in after sending `prelude`.
fn rest_after(link: LinkType, prelude: &[CommandCode]) -> ChannelState {
    let mut machine = StateMachine::for_link(link);
    for &code in prelude {
        machine.advance(code, true);
    }
    machine.state()
}

fn derive_plan(state: ChannelState, link: LinkType, model: &LinkModel) -> Option<FuzzPlan> {
    let witness = model.witness(state)?;
    match job_of(state) {
        // Rule 1: connect-shaped jobs fuzz against a closed channel.
        Job::Closed | Job::Connection => Some(FuzzPlan {
            state,
            link,
            prelude: Vec::new(),
            park: ChannelState::Closed,
            kind: PlanKind::ClosedFuzzing,
        }),
        Job::Creation => {
            let mut prelude = sendable_prefix(model.witness(ChannelState::WaitCreate)?);
            prelude.push(CommandCode::DisconnectionRequest);
            Some(FuzzPlan {
                state,
                link,
                prelude,
                park: ChannelState::Closed,
                kind: PlanKind::ExerciseThenClose,
            })
        }
        // Rule 2: teardown traffic needs a live channel; anchor at OPEN.
        Job::Disconnection => Some(FuzzPlan {
            state,
            link,
            prelude: sendable_prefix(model.witness(ChannelState::Open)?),
            park: ChannelState::Open,
            kind: PlanKind::OneStepFromPark,
        }),
        // Rule 3: follow the witness as far as the guide can express it.
        Job::Configuration | Job::Open | Job::Move => {
            let prelude = sendable_prefix(witness);
            let park = rest_after(link, &prelude);
            let kind = if prelude.len() < witness.inputs.len() {
                PlanKind::OneStepFromPark
            } else if park == state {
                PlanKind::AtRest
            } else {
                PlanKind::PassThrough
            };
            Some(FuzzPlan {
                state,
                link,
                prelude,
                park,
                kind,
            })
        }
    }
}

/// Every plan for the given transport, keyed by target state (computed
/// once per process; only initiator-reachable states have plans).
pub fn fuzz_plans(link: LinkType) -> &'static BTreeMap<ChannelState, FuzzPlan> {
    static BREDR: OnceLock<BTreeMap<ChannelState, FuzzPlan>> = OnceLock::new();
    static LE: OnceLock<BTreeMap<ChannelState, FuzzPlan>> = OnceLock::new();
    let build = move || {
        let model = link_model(link);
        ChannelState::ALL
            .iter()
            .filter_map(|&s| derive_plan(s, link, model).map(|p| (s, p)))
            .collect()
    };
    match link {
        LinkType::BrEdr => BREDR.get_or_init(build),
        LinkType::Le => LE.get_or_init(build),
    }
}

/// The verified driving plan for `(state, link)`, if the state is
/// initiator-reachable on that transport.  This is the API the fuzzer's
/// state guide executes — the hand-written per-state sequences it replaces
/// are certified equivalent by `tests/model_analysis.rs`.
pub fn fuzz_plan(state: ChannelState, link: LinkType) -> Option<&'static FuzzPlan> {
    fuzz_plans(link).get(&state)
}

/// Validates one plan against the machine; returns human-readable
/// problems (empty = valid).
pub fn validate_plan(plan: &FuzzPlan) -> Vec<String> {
    let mut problems = Vec::new();
    for &code in &plan.prelude {
        if !guide_sendable(code) {
            problems.push(format!(
                "{} plan for {} contains {code:?}, which the guide cannot send",
                link_name(plan.link),
                plan.state
            ));
        }
    }
    let machine = plan.replay_machine();
    if machine.state() != plan.park {
        problems.push(format!(
            "{} plan for {} rests in {} instead of its declared park {}",
            link_name(plan.link),
            plan.state,
            machine.state(),
            plan.park
        ));
        return problems;
    }
    let visited_by_prelude = machine.visited().contains(&plan.state);
    let one_step = job_of(plan.state)
        .generous_valid_commands_on(plan.link)
        .iter()
        .any(|&code| {
            let edge = step(
                plan.link,
                plan.link == LinkType::BrEdr,
                plan.park,
                Input::accepted(code),
            );
            edge.visited.contains(&plan.state) || edge.rest == plan.state
        });
    if !visited_by_prelude && !one_step {
        problems.push(format!(
            "{} plan for {} parks in {} but the target is neither visited by the \
             prelude nor one job-valid command away",
            link_name(plan.link),
            plan.state,
            plan.park
        ));
    }
    problems
}

pub(crate) fn link_name(link: LinkType) -> &'static str {
    match link {
        LinkType::BrEdr => "BR/EDR",
        LinkType::Le => "LE",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_reachable_state_has_a_valid_plan() {
        for link in [LinkType::BrEdr, LinkType::Le] {
            for state in ChannelState::ALL {
                let reachable = state.reachable_from_initiator_on(link);
                let plan = fuzz_plan(state, link);
                assert_eq!(plan.is_some(), reachable, "{state} on {link:?}");
                if let Some(plan) = plan {
                    assert!(
                        validate_plan(plan).is_empty(),
                        "{state} on {link:?}: {:?}",
                        validate_plan(plan)
                    );
                }
            }
        }
    }

    #[test]
    fn derived_plans_match_the_historical_guide_sequences() {
        use CommandCode as C;
        let seq = |state: ChannelState, link: LinkType| -> Vec<C> {
            fuzz_plan(state, link).expect("reachable").prelude.clone()
        };
        // BR/EDR (the hand-written `drive_to` sequences of PR 2–5).
        assert_eq!(seq(ChannelState::Closed, LinkType::BrEdr), vec![]);
        assert_eq!(seq(ChannelState::WaitConnect, LinkType::BrEdr), vec![]);
        assert_eq!(
            seq(ChannelState::WaitCreate, LinkType::BrEdr),
            vec![C::CreateChannelRequest, C::DisconnectionRequest]
        );
        assert_eq!(
            seq(ChannelState::WaitConfig, LinkType::BrEdr),
            vec![C::ConnectionRequest]
        );
        assert_eq!(
            seq(ChannelState::WaitConfigReqRsp, LinkType::BrEdr),
            vec![C::ConnectionRequest]
        );
        assert_eq!(
            seq(ChannelState::WaitConfigReq, LinkType::BrEdr),
            vec![C::ConnectionRequest, C::ConfigureResponse]
        );
        assert_eq!(
            seq(ChannelState::WaitConfigRsp, LinkType::BrEdr),
            vec![C::ConnectionRequest, C::ConfigureRequest]
        );
        assert_eq!(
            seq(ChannelState::WaitSendConfig, LinkType::BrEdr),
            vec![
                C::ConnectionRequest,
                C::ConfigureRequest,
                C::ConfigureResponse,
                C::ConfigureRequest
            ]
        );
        let open = vec![
            C::ConnectionRequest,
            C::ConfigureRequest,
            C::ConfigureResponse,
        ];
        assert_eq!(seq(ChannelState::Open, LinkType::BrEdr), open);
        assert_eq!(seq(ChannelState::WaitDisconnect, LinkType::BrEdr), open);
        let moved = vec![
            C::ConnectionRequest,
            C::ConfigureRequest,
            C::ConfigureResponse,
            C::MoveChannelRequest,
        ];
        assert_eq!(seq(ChannelState::WaitMove, LinkType::BrEdr), moved);
        assert_eq!(seq(ChannelState::WaitMoveConfirm, LinkType::BrEdr), moved);
        assert_eq!(seq(ChannelState::WaitConfirmRsp, LinkType::BrEdr), moved);
        // LE (the hand-written credit-based sequences the plans replaced).
        assert_eq!(seq(ChannelState::Closed, LinkType::Le), vec![]);
        assert_eq!(seq(ChannelState::WaitConnect, LinkType::Le), vec![]);
        assert_eq!(
            seq(ChannelState::WaitConfig, LinkType::Le),
            vec![
                C::LeCreditBasedConnectionRequest,
                C::CreditBasedReconfigureRequest
            ]
        );
        assert_eq!(
            seq(ChannelState::Open, LinkType::Le),
            vec![C::LeCreditBasedConnectionRequest]
        );
        assert_eq!(
            seq(ChannelState::WaitDisconnect, LinkType::Le),
            vec![C::LeCreditBasedConnectionRequest]
        );
    }

    #[test]
    fn plan_kinds_record_the_parking_relationship() {
        assert_eq!(
            fuzz_plan(ChannelState::Open, LinkType::BrEdr).unwrap().kind,
            PlanKind::AtRest
        );
        assert_eq!(
            fuzz_plan(ChannelState::WaitSendConfig, LinkType::BrEdr)
                .unwrap()
                .kind,
            PlanKind::PassThrough
        );
        assert_eq!(
            fuzz_plan(ChannelState::WaitConfigReqRsp, LinkType::BrEdr)
                .unwrap()
                .kind,
            PlanKind::OneStepFromPark
        );
        assert_eq!(
            fuzz_plan(ChannelState::WaitDisconnect, LinkType::Le)
                .unwrap()
                .kind,
            PlanKind::OneStepFromPark
        );
        assert!(!fuzz_plan(ChannelState::WaitConfig, LinkType::Le)
            .unwrap()
            .parks_closed());
    }
}
