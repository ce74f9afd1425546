//! Table VI-style survey: run the L2Fuzz detection campaign against all eight
//! simulated devices and print whether (and how fast) each one falls over.
//!
//! The eight targets run as one campaign sharded across one worker thread
//! per core (`bench::table6_survey`, built on `Campaign::builder()` with
//! `.threads(n)`); each device lives in its own isolated environment, so
//! the results are bit-for-bit identical to a serial run of the same seed —
//! only the wall-clock time changes.
//!
//! Run with: `cargo run --example survey_all_devices` (set
//! `L2FUZZ_MAX_CAMPAIGNS` to bound the per-device effort).

use bench::table6_survey;

fn main() {
    let max_campaigns: usize = std::env::var("L2FUZZ_MAX_CAMPAIGNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(25);
    let outcome = table6_survey(77, max_campaigns);

    println!(
        "{:<5}{:<16}{:<7}{:<10}{:<12}{:<10}",
        "Dev", "Name", "Vuln?", "Kind", "Elapsed", "Packets"
    );
    for target in &outcome.targets {
        let report = &target.report;
        let (vuln, kind, elapsed) = match report.findings.first() {
            Some(f) => ("Yes", f.evidence.description.clone(), f.elapsed_display()),
            None => ("No", "-".to_owned(), "-".to_owned()),
        };
        println!(
            "{:<5}{:<16}{:<7}{:<10}{:<12}{:<10}",
            target.profile.id.to_string(),
            report.target.name,
            vuln,
            kind,
            elapsed,
            report.packets_sent
        );
    }
    println!(
        "\ncampaign elapsed (virtual, devices in parallel): {} s",
        outcome.elapsed.as_secs()
    );
}
