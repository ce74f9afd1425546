//! Asserted reproduction of the Table VI elapsed-time shape.
//!
//! The bench binaries only *print* the per-device detection times; this test
//! pins the relative ordering the simulation is built to preserve: devices
//! with few service ports and wide vulnerability triggers (D5, the AirPods)
//! fall over quickly, while the device with the most ports and the
//! narrowest trigger (D8, the BlueZ laptop) takes by far the longest — and
//! the three hardened devices never fall at all.

use bench::table6_survey;
use btstack::profiles::ProfileId;
use std::collections::HashMap;

#[test]
fn table6_elapsed_time_ordering_matches_the_paper_shape() {
    // Sharded across one worker per core — determinism is covered by
    // tests/deterministic_replay.rs, so the survey itself may as well run in
    // parallel.
    let survey = table6_survey(0x7AB6, 800);
    assert_eq!(survey.targets.len(), 8);

    let mut elapsed: HashMap<ProfileId, Option<u64>> = HashMap::new();
    for outcome in &survey.targets {
        let time = outcome.report.findings.first().map(|f| f.elapsed_secs);
        elapsed.insert(outcome.profile.id, time);
    }

    // Table VI: vulnerabilities on D1, D2, D3, D5 and D8; nothing on the
    // hardened D4, D6 and D7.
    for id in [
        ProfileId::D1,
        ProfileId::D2,
        ProfileId::D3,
        ProfileId::D5,
        ProfileId::D8,
    ] {
        assert!(
            elapsed[&id].is_some(),
            "{id}: the seeded vulnerability must be found"
        );
    }
    for id in [ProfileId::D4, ProfileId::D6, ProfileId::D7] {
        assert_eq!(elapsed[&id], None, "{id}: hardened device must survive");
    }

    let vulnerable: Vec<(ProfileId, u64)> = [
        ProfileId::D1,
        ProfileId::D2,
        ProfileId::D3,
        ProfileId::D5,
        ProfileId::D8,
    ]
    .into_iter()
    .map(|id| (id, elapsed[&id].unwrap()))
    .collect();

    // D5 (6 ports, widest trigger, lightest stack) is the fastest find.
    let d5 = elapsed[&ProfileId::D5].unwrap();
    for (id, secs) in &vulnerable {
        assert!(
            d5 <= *secs,
            "D5 ({d5} s) must be at least as fast as {id} ({secs} s)"
        );
    }

    // D8 (13 ports, trigger two orders of magnitude narrower, heaviest
    // stack) dominates every other detection time.
    let d8 = elapsed[&ProfileId::D8].unwrap();
    for (id, secs) in &vulnerable {
        if *id != ProfileId::D8 {
            assert!(
                d8 > *secs,
                "D8 ({d8} s) must be the slowest find, but {id} took {secs} s"
            );
        }
    }
}
