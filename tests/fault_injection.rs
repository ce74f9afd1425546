//! Chaos campaigns end to end: deterministic fault injection at the medium,
//! fault-tolerant drivers above it.
//!
//! The PR 8 resilience layer must satisfy three end-to-end properties.
//! **Detection survives degradation**: the seeded vulnerabilities of the
//! BR/EDR phone (D2), the LE wearable (D9) and the dual-mode phone (D10)
//! are still found — with the device-side ground truth of a *fired*
//! vulnerability, not just a verdict — under ≥10% combined loss and
//! corruption.  **No false alarms**: a hardened-but-lossy target (D4) never
//! draws a DoS/Crash verdict, because the detector's ping retries
//! distinguish a lossy link from a dead target; disarming the retries
//! reintroduces the false verdicts, proving they are what carries the
//! property.  **Faulty schedules replay**: every chaos campaign is as
//! bit-for-bit reproducible as an ideal-link one, and budget campaigns
//! under every fault family at once hash to pinned trace digests.

use btstack::profiles::{DeviceProfile, ProfileId};
use l2fuzz::campaign::Campaign;
use l2fuzz::config::FuzzConfig;
use l2fuzz::session::L2FuzzTool;
use l2fuzz::{FaultPlan, Fuzzer, RetryPolicy, TxBudget};
use service::digest::trace_digest;

/// A detection campaign against `id` under `plan`, 5 rounds, default
/// (lossy-link) retry.
fn chaos_outcome(id: ProfileId, plan: FaultPlan, seed: u64) -> l2fuzz::campaign::TargetOutcome {
    Campaign::builder()
        .target(DeviceProfile::table5(id))
        .fuzzer(|| Box::new(L2FuzzTool::detection(FuzzConfig::default(), 5)))
        .faults(plan)
        .seed(seed)
        .run()
        .expect("chaos campaign runs")
        .into_single()
}

// ---------------------------------------------------------------------------
// Detection under combined loss + corruption, with device-side ground truth.

#[test]
fn bredr_phone_vuln_detected_under_combined_loss_and_corruption() {
    let outcome = chaos_outcome(ProfileId::D2, FaultPlan::degraded(0.10, 0.05), 3);
    assert!(outcome.report.vulnerable(), "D2 vuln lost to link faults");
    let fired = outcome.device.lock().fired_vulnerabilities().to_vec();
    assert!(
        !fired.is_empty(),
        "the verdict must come from a fired seeded vulnerability"
    );
}

#[test]
fn le_wearable_vuln_detected_under_combined_loss_and_corruption() {
    let outcome = chaos_outcome(ProfileId::D9, FaultPlan::degraded(0.10, 0.05), 2);
    assert!(outcome.report.vulnerable(), "D9 vuln lost to link faults");
    let fired = outcome.device.lock().fired_vulnerabilities().to_vec();
    assert_eq!(fired[0].vuln.id, "SIM-ZEPHYR-LE-CREDIT-UNDERFLOW");
}

#[test]
fn dual_mode_phone_vuln_detected_under_combined_loss_and_corruption() {
    let outcome = chaos_outcome(ProfileId::D10, FaultPlan::degraded(0.10, 0.05), 1);
    assert!(outcome.report.vulnerable(), "D10 vuln lost to link faults");
    let fired = outcome.device.lock().fired_vulnerabilities().to_vec();
    assert_eq!(fired[0].vuln.id, "SIM-BLUEDROID-SPSM-OOB");
}

// ---------------------------------------------------------------------------
// The chaos matrix: one fault family at a time, per transport.  Each cell
// must complete, stay deterministic, and keep finding the seeded vuln.

#[test]
fn chaos_matrix_loss_corrupt_stall_on_both_transports() {
    let plans = [
        ("loss", FaultPlan::none().with_loss(0.2)),
        ("corrupt", FaultPlan::none().with_corruption(0.15)),
        ("stall", FaultPlan::none().with_stall(0.02, 10_000)),
    ];
    for (fault, plan) in plans {
        for (transport, id) in [("BR/EDR", ProfileId::D2), ("LE", ProfileId::D9)] {
            let a = chaos_outcome(id, plan, 7);
            let b = chaos_outcome(id, plan, 7);
            assert_eq!(
                a.report.to_json().unwrap(),
                b.report.to_json().unwrap(),
                "{fault} × {transport}: chaos campaign must replay bit for bit"
            );
            assert!(
                a.report.vulnerable(),
                "{fault} × {transport}: seeded vuln lost to the fault"
            );
            assert!(
                !a.device.lock().fired_vulnerabilities().is_empty(),
                "{fault} × {transport}: verdict without a fired vulnerability"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Faulty streams are pinned, not only replayed: a rerun cannot notice a
// change that shifts every timestamp of the fault path the same way.

/// The first vulnerability a campaign fires, and the virtual time it fires
/// at.  The device reads the clock in the middle of an exchange, so the
/// timestamp pins the clock charges made before the device runs.
type FirstFired = Option<(&'static str, u64)>;

/// Each target with the digest and length of its trace, and its first
/// fired vulnerability.
const PINNED_FAULTY_TRACES: [(ProfileId, u64, usize, FirstFired); 3] = [
    (
        ProfileId::D2,
        0xe74e_ce53_d52b_ed26,
        4_738,
        Some(("SIM-BLUEDROID-L2C-NULLPTR", 2_655_808)),
    ),
    (ProfileId::D4, 0x58ca_fb2e_5cce_2b8a, 4_257, None),
    (
        ProfileId::D9,
        0xd21c_191e_451b_a8f3,
        4_591,
        Some(("SIM-ZEPHYR-LE-CREDIT-UNDERFLOW", 420_016)),
    ),
];

#[test]
fn faulty_budget_campaigns_replay_their_pinned_traces() {
    let plan = FaultPlan::degraded(0.2, 0.2)
        .with_duplication(0.1)
        .with_reorder(0.2)
        .with_stall(0.05, 10_000)
        .with_jitter(300);
    for (target, pinned, records, first_fired) in PINNED_FAULTY_TRACES {
        let outcome = Campaign::builder()
            .target(DeviceProfile::table5(target))
            .fuzzer(|| Box::new(L2FuzzTool::new(FuzzConfig::budget_driven())) as Box<dyn Fuzzer>)
            .budget(TxBudget::packets(3000))
            .auto_restart(true)
            .faults(plan)
            .seed(77)
            .run()
            .expect("faulty campaign runs")
            .into_single();
        let digest = trace_digest(&outcome.trace);
        assert_eq!(
            digest, pinned,
            "{target}: trace digest {digest:016x}, pinned {pinned:016x}"
        );
        assert_eq!(outcome.trace.len(), records, "{target}: trace length");
        let device = outcome.device.lock();
        let fired = device
            .fired_vulnerabilities()
            .first()
            .map(|f| (f.vuln.id.as_str(), f.timestamp_micros));
        assert_eq!(fired, first_fired, "{target}: first fired vulnerability");
    }
}

// ---------------------------------------------------------------------------
// False-DoS immunity: a hardened target on a lossy link stays Healthy, and
// it is the ping retries that make it so.

#[test]
fn hardened_lossy_target_draws_zero_false_dos_verdicts() {
    // D4 has no seeded vulnerabilities: any verdict against it is false.
    // 15% loss + 5% corruption, several seeds — the default lossy-link
    // retry policy must keep every campaign Healthy.
    for seed in 0u64..6 {
        let outcome = chaos_outcome(ProfileId::D4, FaultPlan::degraded(0.15, 0.05), seed);
        assert!(
            !outcome.report.vulnerable(),
            "seed {seed}: lossy link misdiagnosed as a dead target"
        );
        assert!(
            outcome.device.lock().fired_vulnerabilities().is_empty(),
            "hardened D4 cannot fire vulnerabilities"
        );
    }
}

#[test]
fn disarming_ping_retries_reintroduces_the_false_verdicts() {
    // The control experiment: same faulty link, retries explicitly off.
    // A single unanswered ping now counts as a dead target, so the lossy
    // link produces a false verdict — proving the retry policy (not luck)
    // is what carries `hardened_lossy_target_draws_zero_false_dos_verdicts`.
    let false_verdicts = (0u64..6)
        .filter(|&seed| {
            Campaign::builder()
                .target(DeviceProfile::table5(ProfileId::D4))
                .fuzzer(|| Box::new(L2FuzzTool::detection(FuzzConfig::default(), 5)))
                .faults(FaultPlan::degraded(0.15, 0.05))
                .retry(RetryPolicy::none())
                .seed(seed)
                .run()
                .expect("campaign runs")
                .into_single()
                .report
                .vulnerable()
        })
        .count();
    assert!(
        false_verdicts > 0,
        "without retries a 15%-loss link should masquerade as dead at least once"
    );
}

// ---------------------------------------------------------------------------
// Degradation costs time, not correctness.

#[test]
fn state_coverage_survives_a_degraded_link() {
    // The hardened D4 runs its full session on both links.  The guide's
    // retried preludes are what keep the walk complete: every one of the
    // paper's 13 BR/EDR states is still parked and tested at 10% loss + 5%
    // corruption, even though the faults visibly reshape the packet stream.
    let ideal = chaos_outcome(ProfileId::D4, FaultPlan::none(), 3);
    let faulty = chaos_outcome(ProfileId::D4, FaultPlan::degraded(0.10, 0.05), 3);
    assert!(!ideal.report.vulnerable());
    assert!(!faulty.report.vulnerable());
    assert_eq!(
        faulty.report.states_tested.len(),
        13,
        "retried preludes must keep BR/EDR coverage at 13 of 19 states"
    );
    assert_eq!(faulty.report.states_tested, ideal.report.states_tested);
    assert_ne!(
        faulty.report.packets_sent, ideal.report.packets_sent,
        "the fault plan should visibly reshape the campaign"
    );
}

#[test]
fn dump_read_failures_are_retried_across_checks() {
    // Half the crash-dump reads fail; the dump survives a failed read, so a
    // later detection check can still collect it.  The campaign stays
    // deterministic either way.
    let plan = FaultPlan::none().with_dump_read_failure(0.5);
    let a = chaos_outcome(ProfileId::D2, plan, 11);
    let b = chaos_outcome(ProfileId::D2, plan, 11);
    assert!(a.report.vulnerable());
    assert_eq!(a.report.to_json().unwrap(), b.report.to_json().unwrap());
}
