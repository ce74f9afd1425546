//! Concurrent-connection scenarios over the event-driven medium.
//!
//! Three layers of guarantees:
//!
//! 1. **Device-side isolation** — every link slot gets its own L2CAP
//!    acceptor, so CID spaces never leak between links (a channel opened on
//!    one link is invisible — and its CIDs invalid — on another).
//! 2. **Campaign-level concurrency** — two initiators fuzz one target at
//!    once through `Campaign::builder().initiators_per_target(2)`, each
//!    driving a full session whose trace replays cleanly (coverage inference
//!    works per link, which a cross-talking interleave would break).
//! 3. **Dual transport** — one BR/EDR and one LE initiator fuzz the
//!    dual-mode D10 profile in a single campaign, and the seeded SPSM
//!    confusion vulnerability is detected end to end.

use btcore::{Cid, Identifier};
use btcore::{FuzzRng, LinkType, SimClock};
use btstack::device::{share, HostStatus};
use btstack::profiles::{DeviceProfile, ProfileId};
use hci::link::LinkConfig;
use hci::medium::{EventMedium, LinkSpec};
use l2cap::command::{Command, ConnectionRequest, DisconnectionRequest};
use l2cap::consts::ConnectionResult;
use l2cap::packet::{parse_signaling, signaling_frame};
use l2fuzz::campaign::{Campaign, SeedSweepExecutor};
use l2fuzz::config::FuzzConfig;
use l2fuzz::session::L2FuzzTool;
use sniffer::StateCoverage;

/// Sends one signalling command over a link and parses the first response.
fn exchange(link: &mut hci::medium::LinkHandle, id: u8, command: Command) -> Option<Command> {
    let frame = signaling_frame(Identifier(id), &command);
    let responses = link.send_frame(&frame);
    responses
        .first()
        .and_then(|f| parse_signaling(f).ok())
        .map(|p| p.command())
}

#[test]
fn cid_spaces_are_isolated_between_links() {
    let clock = SimClock::new();
    let mut medium = EventMedium::with_seed(clock.clone(), 7);
    let profile = DeviceProfile::table5(ProfileId::D4);
    let (_, adapter) = share(profile.build(clock.clone(), FuzzRng::seed_from(7)));
    medium.register_shared(adapter);

    // Link A opens a channel and leaves it open.
    let mut link_a = medium
        .connect_spec(
            LinkSpec::new(profile.addr, LinkConfig::ideal(), FuzzRng::seed_from(1))
                .with_clock(SimClock::new()),
        )
        .expect("link A connects");
    let scid = Cid(0x0040);
    let response = exchange(
        &mut link_a,
        1,
        Command::ConnectionRequest(ConnectionRequest {
            psm: btcore::Psm::SDP,
            scid,
        }),
    );
    let dcid_a = match response {
        Some(Command::ConnectionResponse(rsp)) => {
            assert_eq!(rsp.result, ConnectionResult::Success);
            rsp.dcid
        }
        other => panic!("link A expected a connection response, got {other:?}"),
    };
    // Link A is done driving traffic; a second initiator takes over.
    link_a.retire();

    let mut link_b = medium
        .connect_spec(
            LinkSpec::new(profile.addr, LinkConfig::ideal(), FuzzRng::seed_from(2))
                .with_clock(SimClock::new()),
        )
        .expect("link B connects");
    assert_ne!(link_a.slot(), link_b.slot());

    // Link A's channel does not exist in link B's CID space: disconnecting
    // it from link B is an invalid-CID reject, not a disconnection.
    let response = exchange(
        &mut link_b,
        2,
        Command::DisconnectionRequest(DisconnectionRequest { dcid: dcid_a, scid }),
    );
    assert!(
        matches!(response, Some(Command::CommandReject(_))),
        "link B must not see link A's channel, got {response:?}"
    );

    // And link B can open its own channel under the very same source CID.
    let response = exchange(
        &mut link_b,
        3,
        Command::ConnectionRequest(ConnectionRequest {
            psm: btcore::Psm::SDP,
            scid,
        }),
    );
    match response {
        Some(Command::ConnectionResponse(rsp)) => {
            assert_eq!(rsp.result, ConnectionResult::Success);
        }
        other => panic!("link B expected its own connection response, got {other:?}"),
    }
}

#[test]
fn two_initiators_interleave_without_crosstalk() {
    let outcome = Campaign::builder()
        .target(DeviceProfile::table5(ProfileId::D4))
        .initiators_per_target(2)
        .seed(0x2C0)
        .run()
        .expect("multi-initiator campaign runs")
        .into_single();
    assert_eq!(outcome.initiator_count(), 2);

    // Each initiator ran the full BR/EDR campaign on its own link...
    assert_eq!(outcome.report.states_tested.len(), 13);
    assert_eq!(outcome.secondary[0].report.states_tested.len(), 13);

    // ...and each link's trace replays to the paper's 13/19 coverage on its
    // own — a cross-talking interleave (responses landing on the wrong
    // link, channels clobbering each other) breaks coverage inference.
    assert_eq!(StateCoverage::from_trace(&outcome.trace).count(), 13);
    assert_eq!(
        StateCoverage::from_trace(&outcome.secondary[0].trace).count(),
        13
    );

    // The merged trace interleaves both links in virtual-time order.
    let merged = outcome.merged_trace();
    assert_eq!(
        merged.len(),
        outcome.trace.len() + outcome.secondary[0].trace.len()
    );
    let mut last = 0;
    for record in merged.records() {
        assert!(record.timestamp_micros >= last, "merged trace out of order");
        last = record.timestamp_micros;
    }
}

#[test]
fn dual_transport_campaign_detects_the_d10_vuln_end_to_end() {
    let outcome = Campaign::builder()
        .target(DeviceProfile::table5(ProfileId::D10))
        .dual_transport()
        .seed(0xD10)
        .run()
        .expect("dual-transport campaign runs")
        .into_single();

    // One BR/EDR and one LE initiator ran concurrently.
    assert_eq!(outcome.initiator_count(), 2);
    assert_eq!(outcome.report.target.link_type, LinkType::BrEdr);
    assert_eq!(outcome.secondary[0].link_type, LinkType::Le);
    assert_eq!(outcome.secondary[0].report.target.link_type, LinkType::Le);

    // The seeded SPSM confusion crash is found in this single campaign.
    assert!(
        outcome.any_vulnerable(),
        "the dual-transport campaign must detect the seeded vulnerability"
    );
    assert_eq!(outcome.device.lock().status(), HostStatus::Crashed);
    let fired = outcome.device.lock().fired_vulnerabilities().to_vec();
    assert_eq!(fired[0].vuln.id, "SIM-BLUEDROID-SPSM-OOB");

    // Each initiator's states stay within its own transport's reachable
    // set.
    for state in &outcome.secondary[0].report.states_tested {
        assert!(state.reachable_from_initiator_on(LinkType::Le));
    }
    for state in &outcome.report.states_tested {
        assert!(state.reachable_from_initiator_on(LinkType::BrEdr));
    }
}

#[test]
fn seed_sweep_detects_the_d9_credit_underflow() {
    // One short campaign per seed: individually each has a real chance of
    // missing the probability-gated credit-underflow trigger (at this
    // budget only 2 of the 8 seeds hit) — the sweep's independent tries
    // are what make detection reliable.
    let tight = || {
        let config = FuzzConfig {
            max_packets: 100,
            ..FuzzConfig::default()
        };
        Box::new(L2FuzzTool::detection(config, 1)) as Box<dyn l2fuzz::fuzzer::Fuzzer>
    };
    let outcome = Campaign::builder()
        .target(DeviceProfile::table5(ProfileId::D9))
        .fuzzer(tight)
        .executor(SeedSweepExecutor::derived(0x5EED, 8).with_threads(4))
        .run()
        .expect("seed sweep runs");

    assert_eq!(outcome.targets.len(), 8, "one campaign per sweep seed");
    let hits = outcome
        .targets
        .iter()
        .filter(|t| t.any_vulnerable())
        .count();
    assert!(
        hits >= 1,
        "the sweep must detect the D9 credit underflow on at least one seed"
    );
    assert!(
        hits < 8,
        "every seed hit — the sweep budget is too generous for this test \
         to demonstrate why sweeping matters"
    );
    for target in &outcome.targets {
        if target.any_vulnerable() {
            let fired = target.device.lock().fired_vulnerabilities().to_vec();
            assert_eq!(fired[0].vuln.id, "SIM-ZEPHYR-LE-CREDIT-UNDERFLOW");
        }
    }
}

/// A tool that dies immediately — stands in for any initiator-side bug.
struct PanickingFuzzer;

impl l2fuzz::fuzzer::Fuzzer for PanickingFuzzer {
    fn name(&self) -> &'static str {
        "panicker"
    }
    fn fuzz(
        &mut self,
        _ctx: &mut l2fuzz::fuzzer::FuzzCtx<'_>,
    ) -> Option<l2fuzz::report::FuzzReport> {
        panic!("injected initiator failure");
    }
}

#[test]
fn a_panicking_initiator_does_not_deadlock_the_campaign() {
    // The second initiator's tool panics on its own thread.  Its retire
    // guard must still pull the link out of the turnstile, so the healthy
    // initiator finishes (instead of waiting forever on a source that will
    // never advance) and the panic propagates out of `run()` — the test
    // completing at all is the deadlock-freedom assertion.
    let spawned = std::sync::atomic::AtomicUsize::new(0);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Campaign::builder()
            .target(DeviceProfile::table5(ProfileId::D4))
            .initiators_per_target(2)
            .fuzzer(move || {
                if spawned.fetch_add(1, std::sync::atomic::Ordering::Relaxed) == 0 {
                    Box::new(L2FuzzTool::detection(FuzzConfig::default(), 1))
                        as Box<dyn l2fuzz::fuzzer::Fuzzer>
                } else {
                    Box::new(PanickingFuzzer)
                }
            })
            .seed(4)
            .run()
    }));
    assert!(result.is_err(), "the initiator panic must propagate");
}
