//! Reachability certificates for the seeded vulnerabilities.
//!
//! Every [`VulnerabilitySpec`] a device profile carries names the jobs and
//! commands that reach its defective code path.  The detector can only ever
//! find such a vulnerability if (a) at least one state of a triggering job
//! is initiator-reachable on a transport the device serves, and (b) at
//! least one triggering command is in the mutation set the session draws
//! from in that state (the job's generous valid commands).  This module
//! proves that for D1–D11: each certificate entry pairs a concrete
//! reachable state (with its minimal witness) and a concrete command the
//! mutator is allowed to send there.

use btcore::LinkType;
use btstack::profiles::DeviceProfile;
use btstack::vuln::VulnerabilitySpec;
use l2cap::code::CommandCode;
use l2cap::jobs::Job;
use l2cap::state::ChannelState;
use serde::Serialize;

use crate::checks::Violation;
use crate::model::{witness, Witness};
use crate::plan::link_name;

/// One provable way to trigger a vulnerability: a reachable state whose
/// job the trigger names, and a triggering command the mutator may send
/// in that state.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CertificateEntry {
    /// The reachable trigger state.
    pub state: ChannelState,
    /// The job the state belongs to.
    pub job: Job,
    /// A triggering command in the state's mutation set.
    pub command: CommandCode,
    /// The minimal witness sequence driving the target into `state`.
    pub witness: Witness,
}

/// The reachability certificate of one seeded vulnerability on one
/// transport of one device profile.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct VulnCertificate {
    /// The device carrying the vulnerability (D1–D11).
    pub profile: String,
    /// The vulnerability's stable identifier.
    pub vuln_id: String,
    /// The transport this certificate covers.
    pub link: LinkType,
    /// Every provable (state, command) trigger pair.
    pub entries: Vec<CertificateEntry>,
}

/// The commands of `spec`'s trigger that the mutator may send in states of
/// `job` on `link` (an empty trigger command list means "any command").
fn triggering_commands(spec: &VulnerabilitySpec, job: Job, link: LinkType) -> Vec<CommandCode> {
    job.generous_valid_commands_on(link)
        .into_iter()
        .filter(|c| spec.trigger.commands.is_empty() || spec.trigger.commands.contains(c))
        .collect()
}

/// Builds the certificate for one spec on one transport.
fn certify_on(
    profile: &DeviceProfile,
    spec: &VulnerabilitySpec,
    link: LinkType,
) -> VulnCertificate {
    let jobs: Vec<Job> = if spec.trigger.jobs.is_empty() {
        Job::ALL.to_vec()
    } else {
        spec.trigger.jobs.clone()
    };
    let mut entries = Vec::new();
    for job in jobs {
        let commands = triggering_commands(spec, job, link);
        if commands.is_empty() {
            continue;
        }
        for &state in job.states() {
            let Some(w) = witness(state, link) else {
                continue;
            };
            for &command in &commands {
                entries.push(CertificateEntry {
                    state,
                    job,
                    command,
                    witness: w.clone(),
                });
            }
        }
    }
    VulnCertificate {
        profile: profile.id.to_string(),
        vuln_id: spec.id.clone(),
        link,
        entries,
    }
}

/// The transports a profile serves: its campaign link plus, for dual-mode
/// devices, the other transport.
fn served_links(profile: &DeviceProfile) -> Vec<LinkType> {
    let mut links = vec![profile.link_type];
    if profile.dual_mode {
        links.push(match profile.link_type {
            LinkType::BrEdr => LinkType::Le,
            LinkType::Le => LinkType::BrEdr,
        });
    }
    links
}

/// Certifies every seeded vulnerability of every profile (D1–D8 plus the
/// extended D9–D11) on every transport the device serves.  Returns the
/// certificates and the violations (a certificate with no entries means
/// the campaign can never trigger that vulnerability on that transport).
pub fn certify_vulnerabilities() -> (Vec<VulnCertificate>, Vec<Violation>) {
    let mut certificates = Vec::new();
    let mut violations = Vec::new();
    let mut profiles = DeviceProfile::all();
    profiles.extend(DeviceProfile::extended());
    for profile in &profiles {
        for spec in profile.vulnerabilities() {
            for link in served_links(profile) {
                let cert = certify_on(profile, &spec, link);
                if cert.entries.is_empty() {
                    violations.push(Violation {
                        check: "vuln-certificate".into(),
                        detail: format!(
                            "{}: {} has no reachable trigger (state, command) pair on {}",
                            cert.profile,
                            cert.vuln_id,
                            link_name(link)
                        ),
                    });
                }
                certificates.push(cert);
            }
        }
    }
    (certificates, violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seeded_vulnerability_has_a_certificate() {
        let (certs, violations) = certify_vulnerabilities();
        assert!(violations.is_empty(), "{violations:#?}");
        assert!(!certs.is_empty());
        for cert in &certs {
            assert!(
                !cert.entries.is_empty(),
                "{} / {}",
                cert.profile,
                cert.vuln_id
            );
        }
    }

    #[test]
    fn certificates_replay_through_the_machine() {
        let (certs, _) = certify_vulnerabilities();
        for cert in &certs {
            for entry in &cert.entries {
                assert!(entry.witness.replay(), "{} / {}", cert.vuln_id, entry.state);
                assert_eq!(entry.witness.state, entry.state);
                assert_eq!(l2cap::jobs::job_of(entry.state), entry.job);
            }
        }
    }

    #[test]
    fn dual_mode_profiles_are_certified_on_both_transports() {
        let (certs, _) = certify_vulnerabilities();
        let d10: Vec<_> = certs.iter().filter(|c| c.profile == "D10").collect();
        assert!(d10.iter().any(|c| c.link == LinkType::Le));
        assert!(d10.iter().any(|c| c.link == LinkType::BrEdr));
    }

    #[test]
    fn le_only_wearable_is_certified_over_le() {
        let (certs, _) = certify_vulnerabilities();
        let d9: Vec<_> = certs.iter().filter(|c| c.profile == "D9").collect();
        assert!(!d9.is_empty());
        assert!(d9.iter().all(|c| c.link == LinkType::Le));
    }
}
