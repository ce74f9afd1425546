//! Fuzzing reports and log files.
//!
//! The original tool stores its fuzzing results in a log file; the
//! reproduction writes structured JSON reports with the same content: the
//! target's metadata, the scan results, every state that was tested, and one
//! entry per detected vulnerability with the packet that triggered it.

use btcore::clock::PaperDuration;
use btcore::DeviceMeta;
use l2cap::code::CommandCode;
use l2cap::jobs::Job;
use l2cap::state::ChannelState;
use serde::{Deserialize, Serialize};
use std::time::Duration;

use crate::detector::VulnerabilityEvidence;
use crate::scanner::ScanReport;

/// One detected vulnerability.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VulnerabilityFinding {
    /// State the target was in when the packet was sent.
    pub state: ChannelState,
    /// The state's job.
    pub job: Job,
    /// Command whose mutation triggered the finding.
    pub command: CommandCode,
    /// Hex dump of the malformed packet (C-frame bytes).
    pub packet_hex: String,
    /// The detection evidence.
    pub evidence: VulnerabilityEvidence,
    /// Virtual elapsed time from campaign start to detection, in seconds.
    pub elapsed_secs: u64,
}

impl VulnerabilityFinding {
    /// Formats the elapsed time the way Table VI prints it.
    pub fn elapsed_display(&self) -> String {
        PaperDuration(self.elapsed_secs).to_string()
    }
}

/// The full report of one fuzzing campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuzzReport {
    /// Fuzzer name.
    pub fuzzer: String,
    /// Target device metadata.
    pub target: DeviceMeta,
    /// The target-scanning results.
    pub scan: ScanReport,
    /// States the campaign parked the target in (in test order).
    pub states_tested: Vec<ChannelState>,
    /// Packets transmitted: normal state-transition packets, malformed
    /// test packets and liveness pings.  The scan's port probes are not
    /// counted here, although the campaign's
    /// [`TxBudget`](crate::fuzzer::TxBudget) counts them.
    pub packets_sent: u64,
    /// Malformed packets transmitted.
    pub malformed_sent: u64,
    /// Detected vulnerabilities.
    pub findings: Vec<VulnerabilityFinding>,
    /// Total virtual elapsed time in seconds.
    pub elapsed_secs: u64,
}

impl FuzzReport {
    /// Returns `true` if at least one vulnerability was found.
    pub fn vulnerable(&self) -> bool {
        !self.findings.is_empty()
    }

    /// Elapsed time to the first finding, if any, formatted like Table VI.
    pub fn time_to_first_finding(&self) -> Option<String> {
        self.findings.first().map(|f| f.elapsed_display())
    }

    /// Serializes the report as pretty-printed JSON (the reproduction's log
    /// file format), written through the streaming writer — the document is
    /// built straight into the output buffer, never as an owned `Value`
    /// tree.
    ///
    /// # Errors
    /// Kept for API stability; the streaming writer cannot fail for this
    /// type.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        Ok(serde_json::to_string_pretty_streamed(self))
    }

    /// Parses a report back from JSON through the streaming reader — the
    /// symmetric path to [`FuzzReport::to_json`], with no intermediate
    /// `Value` tree.
    ///
    /// # Errors
    /// Returns a `serde_json::Error` if the input is not a valid report.
    pub fn from_json(json: &str) -> Result<FuzzReport, serde_json::Error> {
        serde_json::from_str_streamed(json)
    }

    /// One-line Table VI-style row: `Vuln? / description / elapsed`.
    pub fn table6_row(&self) -> String {
        match self.findings.first() {
            Some(f) => format!(
                "{:<12} Vuln: Yes  ({})  elapsed {}",
                self.target.name,
                f.evidence.description,
                f.elapsed_display()
            ),
            None => format!("{:<12} Vuln: No", self.target.name),
        }
    }

    /// Total elapsed time as a [`Duration`].
    pub fn elapsed(&self) -> Duration {
        Duration::from_secs(self.elapsed_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::{PortProbe, PortStatus};
    use btcore::{BdAddr, ConnectionError, DeviceClass, Psm};

    fn sample_report(with_finding: bool) -> FuzzReport {
        let meta = DeviceMeta::new(
            BdAddr::new([1, 2, 3, 4, 5, 6]),
            "Pixel 3",
            DeviceClass::Smartphone,
        );
        let findings = if with_finding {
            vec![VulnerabilityFinding {
                state: ChannelState::WaitConfigReqRsp,
                job: Job::Configuration,
                command: CommandCode::ConfigureRequest,
                packet_hex: "04 06 08 00 8F 7B".to_owned(),
                evidence: VulnerabilityEvidence {
                    error: ConnectionError::Failed,
                    ping_failed: true,
                    crash_dump: true,
                    description: "DoS".to_owned(),
                },
                elapsed_secs: 85,
            }]
        } else {
            Vec::new()
        };
        FuzzReport {
            fuzzer: "L2Fuzz".to_owned(),
            target: meta.clone(),
            scan: ScanReport {
                meta,
                probes: vec![PortProbe {
                    psm: Psm::SDP,
                    status: PortStatus::OpenWithoutPairing,
                }],
                chosen_port: Some(Psm::SDP),
            },
            states_tested: vec![ChannelState::Closed, ChannelState::WaitConfigReqRsp],
            packets_sent: 1234,
            malformed_sent: 900,
            findings,
            elapsed_secs: 90,
        }
    }

    #[test]
    fn json_roundtrip() {
        let report = sample_report(true);
        let json = report.to_json().unwrap();
        let back = FuzzReport::from_json(&json).unwrap();
        assert_eq!(report, back);
        assert!(json.contains("Pixel 3"));
    }

    #[test]
    fn table6_row_shape() {
        let with = sample_report(true);
        assert!(with.vulnerable());
        assert!(with.table6_row().contains("Vuln: Yes"));
        assert!(with.table6_row().contains("DoS"));
        assert_eq!(with.time_to_first_finding().unwrap(), "1 m 25 s");

        let without = sample_report(false);
        assert!(!without.vulnerable());
        assert!(without.table6_row().contains("Vuln: No"));
        assert!(without.time_to_first_finding().is_none());
    }

    #[test]
    fn elapsed_conversion() {
        assert_eq!(sample_report(true).elapsed(), Duration::from_secs(90));
    }
}
