//! Cross-crate certification of the protocol model checker.
//!
//! The `analysis` crate proves, by exhaustive search, every reachability
//! claim the rest of the workspace makes: the
//! `REACHABLE_FROM_INITIATOR` masks, the state guide's command sequences
//! (now *derived* from the computed witnesses), and the trigger states of
//! every seeded vulnerability.  These tests pin the proven facts at the
//! integration level — the analyzer runs against the same crates the
//! fuzzer ships — and drive each computed plan end to end against a
//! simulated device.

use std::collections::BTreeSet;

use analysis::{
    certify_vulnerabilities, check_model, fuzz_plans, run_lints, validate_plan, witness, witnesses,
    Allowlist, AnalysisReport,
};
use btcore::{FuzzRng, LinkType, Psm, SimClock};
use btstack::device::share;
use btstack::profiles::{DeviceProfile, ProfileId};
use hci::link::LinkConfig;
use hci::medium::{EventMedium, LinkHandle};
use l2cap::state::ChannelState;
use l2fuzz::guide::StateGuide;

// ---------------------------------------------------------------------------
// Reachability: the masks are theorems, not claims.

#[test]
fn bredr_mask_equals_the_computed_reachable_set() {
    let computed: BTreeSet<ChannelState> = witnesses(LinkType::BrEdr).keys().copied().collect();
    let claimed: BTreeSet<ChannelState> = ChannelState::REACHABLE_FROM_INITIATOR
        .iter()
        .copied()
        .collect();
    assert_eq!(computed.len(), 13, "the paper's 13 of 19 states");
    assert_eq!(computed, claimed);
}

#[test]
fn le_mask_equals_the_computed_reachable_set() {
    let computed: BTreeSet<ChannelState> = witnesses(LinkType::Le).keys().copied().collect();
    let claimed: BTreeSet<ChannelState> = ChannelState::REACHABLE_FROM_INITIATOR_LE
        .iter()
        .copied()
        .collect();
    assert_eq!(computed.len(), 5);
    assert_eq!(computed, claimed);
}

#[test]
fn every_witness_replays_to_its_claimed_state() {
    for link in [LinkType::BrEdr, LinkType::Le] {
        for (&state, w) in witnesses(link) {
            assert!(w.replay(), "witness for {state} on {link:?} must replay");
            assert_eq!(witness(state, link), Some(w));
        }
        for state in ChannelState::ALL {
            if !witnesses(link).contains_key(&state) {
                assert!(
                    witness(state, link).is_none(),
                    "{state} must have no witness on {link:?}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Plans: the guide's sequences are generated, valid, and executable.

#[test]
fn every_plan_validates_against_the_state_machine() {
    for link in [LinkType::BrEdr, LinkType::Le] {
        for plan in fuzz_plans(link).values() {
            let problems = validate_plan(plan);
            assert!(
                problems.is_empty(),
                "{:?}/{link:?}: {problems:?}",
                plan.state
            );
        }
    }
}

fn link_to(id: ProfileId) -> (btstack::device::SharedSimulatedDevice, LinkHandle) {
    let clock = SimClock::new();
    let mut air = EventMedium::new(clock.clone());
    let profile = DeviceProfile::table5(id);
    let (shared, adapter) = share(profile.build(clock.clone(), FuzzRng::seed_from(5)));
    air.register_shared(adapter);
    let link = air
        .connect(profile.addr, LinkConfig::ideal(), FuzzRng::seed_from(6))
        .expect("simulated link comes up");
    (shared, link)
}

#[test]
fn guide_executes_every_bredr_plan_against_a_simulated_device() {
    for state in ChannelState::ALL {
        let (_dev, mut link) = link_to(ProfileId::D2);
        let mut guide = StateGuide::new();
        let ctx = guide.drive_to(&mut link, Psm::SDP, state);
        if ChannelState::REACHABLE_FROM_INITIATOR.contains(&state) {
            let ctx = ctx.unwrap_or_else(|| panic!("plan for {state} must execute"));
            let plan = analysis::fuzz_plan(state, LinkType::BrEdr).expect("plan exists");
            assert_eq!(
                ctx.has_channel(),
                !plan.parks_closed(),
                "{state}: channel presence must match the plan's parking position"
            );
        } else {
            assert!(ctx.is_none(), "responder-only {state} must not be drivable");
        }
    }
}

#[test]
fn guide_executes_every_le_plan_against_a_simulated_device() {
    for state in ChannelState::ALL {
        let (_dev, mut link) = link_to(ProfileId::D9);
        let mut guide = StateGuide::new();
        let ctx = guide.drive_to(&mut link, Psm::EATT, state);
        if ChannelState::REACHABLE_FROM_INITIATOR_LE.contains(&state) {
            assert!(ctx.is_some(), "LE plan for {state} must execute");
        } else {
            assert!(ctx.is_none(), "{state} must not be drivable on LE");
        }
    }
}

// ---------------------------------------------------------------------------
// Vulnerability certificates: every seeded trigger state is provably
// reachable on every transport its profile serves.

#[test]
fn every_profile_vulnerability_carries_a_reachability_certificate() {
    let (certs, violations) = certify_vulnerabilities();
    assert!(violations.is_empty(), "{violations:#?}");
    let extended = DeviceProfile::extended();
    for profile in DeviceProfile::all().iter().chain(extended.iter()) {
        for vuln in profile.vulnerabilities() {
            let matching: Vec<_> = certs
                .iter()
                .filter(|c| c.profile == profile.id.to_string() && c.vuln_id == vuln.id)
                .collect();
            assert!(
                !matching.is_empty(),
                "{} / {} must be certified",
                profile.id,
                vuln.id
            );
            for cert in matching {
                assert!(!cert.entries.is_empty());
                for entry in &cert.entries {
                    assert!(entry.witness.replay());
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The gate itself: a clean repo certifies clean, end to end.

#[test]
fn analyzer_certifies_the_repository_clean() {
    let check = check_model(&Allowlist::default());
    assert!(check.violations.is_empty(), "{:#?}", check.violations);

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let lints = run_lints(root).expect("lint scan runs");
    let report = AnalysisReport::run(&Allowlist::default(), Some(lints));
    assert!(report.is_clean(), "{:#?}", report.problems());

    let json = serde_json::to_string_streamed(&report);
    let value: serde_json::Value =
        serde_json::from_str_streamed(&json).expect("report is valid JSON");
    assert_eq!(value.get("clean"), Some(&serde_json::Value::Bool(true)));
}
