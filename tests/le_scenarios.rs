//! Link-type scenarios: LE credit-based flows, enhanced reconfiguration and
//! ERTM option fuzzing, end to end.
//!
//! The first half mirrors `tests/state_machine_conformance.rs` for the LE
//! side of the two-sided transition table; the second half runs the extended
//! device profiles (LE-only wearable, dual-mode phone, ERTM-capable speaker)
//! through `Campaign::builder()` and checks the seeded vulnerabilities are
//! detected.  A regression test pins BR/EDR initiator coverage at exactly
//! the paper's 13 of 19 states so the new paths cannot perturb the
//! Fig. 10/11 numbers.

use btcore::LinkType;
use btstack::device::HostStatus;
use btstack::profiles::{DeviceProfile, ProfileId};
use l2cap::code::CommandCode;
use l2cap::state::{spec_transition, Action, ChannelState, StateMachine};
use l2fuzz::campaign::Campaign;
use l2fuzz::config::FuzzConfig;
use l2fuzz::fuzzer::TxBudget;
use l2fuzz::session::L2FuzzTool;
use service::digest::trace_digest;
use sniffer::StateCoverage;
use std::collections::BTreeSet;

// ---------------------------------------------------------------------------
// LE conformance: the credit-based flows as state-machine paths.

#[test]
fn le_credit_based_connect_reaches_open_through_wait_connect() {
    let mut sm = StateMachine::for_link(LinkType::Le);
    let r = sm.on_command(CommandCode::LeCreditBasedConnectionRequest, true);
    assert!(r.actions.contains(&Action::Respond(
        CommandCode::LeCreditBasedConnectionResponse
    )));
    assert!(r.visited.contains(&ChannelState::WaitConnect));
    assert_eq!(sm.state(), ChannelState::Open);
    // No configuration phase on LE: the channel never saw a config state.
    assert!(!sm.visited().contains(&ChannelState::WaitConfigReqRsp));
    assert!(!sm.visited().contains(&ChannelState::WaitConfig));
}

#[test]
fn enhanced_connect_and_reconfigure_pass_through_wait_config() {
    let mut sm = StateMachine::for_link(LinkType::Le);
    let r = sm.on_command(CommandCode::CreditBasedConnectionRequest, true);
    assert!(r
        .actions
        .contains(&Action::Respond(CommandCode::CreditBasedConnectionResponse)));
    assert_eq!(sm.state(), ChannelState::Open);

    let r = sm.on_command(CommandCode::CreditBasedReconfigureRequest, true);
    assert!(r.actions.contains(&Action::Respond(
        CommandCode::CreditBasedReconfigureResponse
    )));
    assert!(r.visited.contains(&ChannelState::WaitConfig));
    assert_eq!(sm.state(), ChannelState::Open);
}

#[test]
fn refused_le_connect_returns_to_closed_through_wait_connect() {
    let mut sm = StateMachine::for_link(LinkType::Le);
    let r = sm.on_command(CommandCode::LeCreditBasedConnectionRequest, false);
    assert_eq!(sm.state(), ChannelState::Closed);
    assert!(r.visited.contains(&ChannelState::WaitConnect));
    assert!(!sm.visited().contains(&ChannelState::Open));
}

#[test]
fn credit_indication_is_consumed_silently_on_an_open_channel() {
    let mut sm = StateMachine::for_link(LinkType::Le);
    sm.on_command(CommandCode::LeCreditBasedConnectionRequest, true);
    let r = sm.on_command(CommandCode::FlowControlCreditInd, true);
    assert_eq!(r.actions, vec![Action::Ignore]);
    assert_eq!(sm.state(), ChannelState::Open);
}

#[test]
fn the_two_sided_table_rejects_the_other_links_commands_symmetrically() {
    for state in ChannelState::ALL {
        // Classic-only commands on LE: command not understood, no movement.
        for code in [
            CommandCode::ConnectionRequest,
            CommandCode::ConfigureRequest,
            CommandCode::EchoRequest,
            CommandCode::InformationRequest,
            CommandCode::MoveChannelRequest,
        ] {
            let t = spec_transition(state, code, LinkType::Le);
            assert!(
                matches!(t.action, Action::Reject(_)),
                "{code} must be rejected on LE in {state}"
            );
            assert_eq!(t.next, state, "{code} must not move the channel");
        }
        // LE-only commands on BR/EDR: the mirror image.
        for code in [
            CommandCode::LeCreditBasedConnectionRequest,
            CommandCode::ConnectionParameterUpdateRequest,
        ] {
            let t = spec_transition(state, code, LinkType::BrEdr);
            assert!(
                matches!(t.action, Action::Reject(_)),
                "{code} must be rejected on BR/EDR in {state}"
            );
            assert_eq!(t.next, state);
        }
    }
}

#[test]
fn le_initiator_walk_covers_exactly_the_five_le_states() {
    let mut sm = StateMachine::for_link(LinkType::Le);
    // Refused connect (visits WAIT_CONNECT), then a real connect.
    sm.on_command(CommandCode::LeCreditBasedConnectionRequest, false);
    sm.on_command(CommandCode::LeCreditBasedConnectionRequest, true);
    // Credits, reconfigure, disconnect.
    sm.on_command(CommandCode::FlowControlCreditInd, true);
    sm.on_command(CommandCode::CreditBasedReconfigureRequest, true);
    sm.on_command(CommandCode::DisconnectionRequest, true);

    let visited: BTreeSet<ChannelState> = sm.visited().iter().copied().collect();
    let reachable: BTreeSet<ChannelState> = ChannelState::REACHABLE_FROM_INITIATOR_LE
        .iter()
        .copied()
        .collect();
    assert_eq!(visited, reachable);
    assert_eq!(visited.len(), 5);
    for s in visited {
        assert!(s.reachable_from_initiator_on(LinkType::Le));
    }
}

// ---------------------------------------------------------------------------
// End-to-end: the extended profiles through the campaign API.

#[test]
fn le_wearable_campaign_detects_the_seeded_credit_vulnerability() {
    let outcome = Campaign::builder()
        .target(DeviceProfile::table5(ProfileId::D9))
        .seed(51)
        .run()
        .expect("LE campaign runs")
        .into_single();
    assert!(
        outcome.report.vulnerable(),
        "the seeded credit-underflow DoS must be found"
    );
    assert_eq!(outcome.device.lock().status(), HostStatus::DosTerminated);
    let fired = outcome.device.lock().fired_vulnerabilities().to_vec();
    assert_eq!(fired[0].vuln.id, "SIM-ZEPHYR-LE-CREDIT-UNDERFLOW");
    let finding = &outcome.report.findings[0];
    assert_eq!(finding.evidence.description, "DoS");
    assert!(
        matches!(
            finding.command,
            CommandCode::LeCreditBasedConnectionRequest | CommandCode::FlowControlCreditInd
        ),
        "the finding must come from a credit-based command, got {}",
        finding.command
    );
    // Every state the LE session parked the target in is LE-reachable.
    for state in &outcome.report.states_tested {
        assert!(state.reachable_from_initiator_on(LinkType::Le));
    }
}

#[test]
fn dual_mode_phone_detects_the_spsm_confusion_crash() {
    let outcome = Campaign::builder()
        .target(DeviceProfile::table5(ProfileId::D10))
        .seed(52)
        .run()
        .expect("dual-mode campaign runs")
        .into_single();
    assert!(outcome.report.vulnerable());
    assert_eq!(outcome.device.lock().status(), HostStatus::Crashed);
    let fired = outcome.device.lock().fired_vulnerabilities().to_vec();
    assert_eq!(fired[0].vuln.id, "SIM-BLUEDROID-SPSM-OOB");
    assert_eq!(
        fired[0].vuln.trigger.commands,
        vec![CommandCode::CreditBasedConnectionRequest]
    );
    assert_eq!(outcome.report.findings[0].evidence.description, "Crash");
}

#[test]
fn ertm_option_mutation_finds_the_bluez_ertm_dos_on_bredr() {
    // With ERTM/streaming option mutation enabled, the seeded zero-window
    // defect of the BR/EDR speaker is found...
    let outcome = Campaign::builder()
        .target(DeviceProfile::table5(ProfileId::D11))
        .fuzzer(|| {
            Box::new(L2FuzzTool::detection(
                FuzzConfig::default().with_config_option_mutation(),
                3,
            ))
        })
        .seed(53)
        .run()
        .expect("ERTM campaign runs")
        .into_single();
    assert!(
        outcome.report.vulnerable(),
        "the seeded ERTM zero-window DoS must be found"
    );
    let fired = outcome.device.lock().fired_vulnerabilities().to_vec();
    assert_eq!(fired[0].vuln.id, "SIM-BLUEZ-ERTM-ZERO-WINDOW");

    // ...while the paper's default technique (application fields at their
    // defaults) cannot reach it: the defect needs a non-default option.
    let outcome = Campaign::builder()
        .target(DeviceProfile::table5(ProfileId::D11))
        .fuzzer(|| Box::new(L2FuzzTool::detection(FuzzConfig::default(), 3)))
        .seed(53)
        .run()
        .expect("default campaign runs")
        .into_single();
    assert!(
        !outcome.report.vulnerable(),
        "without option mutation the ERTM defect must stay hidden"
    );
}

#[test]
fn le_campaign_coverage_is_exactly_the_five_le_states() {
    // A budget-driven run with auto-restart exercises every LE state even
    // though the seeded vulnerability keeps firing.
    let outcome = Campaign::builder()
        .target(DeviceProfile::table5(ProfileId::D9))
        .fuzzer(|| Box::new(L2FuzzTool::new(FuzzConfig::budget_driven())))
        .budget(TxBudget::packets(1500))
        .auto_restart(true)
        .seed(54)
        .run()
        .expect("budget-driven LE campaign runs")
        .into_single();
    let states: BTreeSet<ChannelState> = outcome.report.states_tested.iter().copied().collect();
    assert_eq!(
        states,
        ChannelState::REACHABLE_FROM_INITIATOR_LE
            .iter()
            .copied()
            .collect::<BTreeSet<_>>()
    );
    let coverage = StateCoverage::from_trace_on(&outcome.trace, LinkType::Le);
    assert_eq!(
        coverage.count(),
        5,
        "LE coverage must be the five LE-reachable states, got {:?}",
        coverage.states()
    );
    for state in coverage.states() {
        assert!(state.reachable_from_initiator_on(LinkType::Le));
    }
}

#[test]
fn le_campaigns_replay_bit_for_bit_from_their_seed() {
    let run = || {
        Campaign::builder()
            .target(DeviceProfile::table5(ProfileId::D9))
            .seed(0x1E5EED)
            .run()
            .expect("campaign runs")
            .into_single()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.report, b.report);
    assert_eq!(a.report.to_json().unwrap(), b.report.to_json().unwrap());
    assert_eq!(a.trace.records(), b.trace.records());
}

// ---------------------------------------------------------------------------
// Regression: the new paths must not perturb the paper's BR/EDR numbers.

#[test]
fn single_initiator_packet_streams_match_the_pr4_medium_bit_for_bit() {
    // Captured from the synchronous-`AirMedium` tree (PR 4).  A BR/EDR
    // hardened target (runs to completion) and the LE wearable (ends in a
    // finding) cover both transports' full packet streams — timestamps,
    // directions and frame bytes.
    let bredr = Campaign::builder()
        .target(DeviceProfile::table5(ProfileId::D4))
        .seed(55)
        .run()
        .expect("BR/EDR campaign runs")
        .into_single();
    assert_eq!(
        trace_digest(&bredr.trace),
        0xD112_A572_9C41_AFAB,
        "BR/EDR packet stream diverged from the PR 4 medium"
    );
    let le = Campaign::builder()
        .target(DeviceProfile::table5(ProfileId::D9))
        .seed(51)
        .run()
        .expect("LE campaign runs")
        .into_single();
    assert_eq!(
        trace_digest(&le.trace),
        0x8F04_2506_2CC9_4CCC,
        "LE packet stream diverged from the PR 4 medium"
    );
}

#[test]
fn a_trivial_fault_plan_is_byte_identical_to_no_fault_layer_at_all() {
    // The PR 8 fault-injection layer sits in every link's deliver path.
    // `FaultPlan::none()` must be a true no-op: with the layer compiled in
    // and explicitly configured, both transports' packet streams still pin
    // the PR 4 digests bit for bit — timestamps, directions, frame bytes.
    let bredr = Campaign::builder()
        .target(DeviceProfile::table5(ProfileId::D4))
        .faults(l2fuzz::FaultPlan::none())
        .seed(55)
        .run()
        .expect("BR/EDR campaign runs")
        .into_single();
    assert_eq!(
        trace_digest(&bredr.trace),
        0xD112_A572_9C41_AFAB,
        "FaultPlan::none() perturbed the BR/EDR packet stream"
    );
    let le = Campaign::builder()
        .target(DeviceProfile::table5(ProfileId::D9))
        .faults(l2fuzz::FaultPlan::none())
        .seed(51)
        .run()
        .expect("LE campaign runs")
        .into_single();
    assert_eq!(
        trace_digest(&le.trace),
        0x8F04_2506_2CC9_4CCC,
        "FaultPlan::none() perturbed the LE packet stream"
    );
}

#[test]
fn bredr_initiator_coverage_stays_exactly_13_of_19() {
    // A hardened classic target lets the campaign run to completion; both
    // the session's own state list and the trace-inferred coverage must pin
    // the paper's 13 of 19 (Fig. 10/11).
    let outcome = Campaign::builder()
        .target(DeviceProfile::table5(ProfileId::D4))
        .seed(55)
        .run()
        .expect("campaign runs")
        .into_single();
    assert_eq!(outcome.report.states_tested.len(), 13);
    let coverage = StateCoverage::from_trace(&outcome.trace);
    assert_eq!(
        coverage.count(),
        13,
        "BR/EDR coverage must stay at the paper's 13/19, got {:?}",
        coverage.states()
    );
    let covered: BTreeSet<ChannelState> = coverage.states().into_iter().collect();
    let reachable: BTreeSet<ChannelState> = ChannelState::REACHABLE_FROM_INITIATOR
        .iter()
        .copied()
        .collect();
    assert_eq!(covered, reachable);
}
