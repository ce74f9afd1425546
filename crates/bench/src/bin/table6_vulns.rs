//! Regenerates Table VI: vulnerability detection results of L2Fuzz on D1-D8.
//! The eight per-device campaigns run sharded across one worker thread per
//! core; results are identical to a serial run of the same seed.
use bench::table6_survey;

fn main() {
    let max_campaigns: usize = std::env::var("L2FUZZ_MAX_CAMPAIGNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(400);
    println!("Table VI — vulnerability detection results (simulated targets)");
    println!(
        "{:<5}{:<16}{:<8}{:<14}{:<14}",
        "Dev", "Name", "Vuln?", "Description", "Elapsed"
    );
    for outcome in table6_survey(1000, max_campaigns).targets {
        let id = outcome.profile.id;
        let report = &outcome.report;
        match report.findings.first() {
            Some(f) => println!(
                "{:<5}{:<16}{:<8}{:<14}{:<14}",
                id.to_string(),
                report.target.name,
                "Yes",
                f.evidence.description,
                f.elapsed_display()
            ),
            None => println!(
                "{:<5}{:<16}{:<8}{:<14}{:<14}",
                id.to_string(),
                report.target.name,
                "No",
                "N/A",
                "N/A"
            ),
        }
    }
}
