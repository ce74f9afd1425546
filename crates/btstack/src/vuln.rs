//! Seeded vulnerability specifications.
//!
//! Each simulated device carries zero or more [`VulnerabilitySpec`]s that
//! mirror the five zero-days of the paper's Table VI: a structural
//! [`Trigger`] describing which packets reach the defective code path (state
//! job, command, abnormal PSM, CID mismatch, appended garbage) and an
//! [`Effect`] describing what happens when it fires (Bluetooth denial of
//! service or a device crash, with or without a crash dump).
//!
//! The trigger additionally carries a *hit probability* modelling how narrow
//! the defective path is inside the vendor's application logic: the paper
//! observes that time-to-detection grows with the number of service ports and
//! the complexity of the Bluetooth applications (§IV-B), which is what this
//! knob reproduces (e.g. the BlueZ laptop takes hours while the AirPods take
//! seconds).

use l2cap::code::CommandCode;
use l2cap::jobs::Job;
use l2cap::state::ChannelState;

use crate::crashdump::CrashKind;

/// Per-packet facts the endpoint extracts before vulnerability matching.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketContext {
    /// Job of the channel state the packet was processed in.
    pub job: Job,
    /// Exact channel state the packet was processed in.
    pub state: ChannelState,
    /// The signalling command, if its code byte is defined.
    pub code: Option<CommandCode>,
    /// PSM value carried by the packet, if any.
    pub psm: Option<u16>,
    /// Channel-ID-in-payload values carried by the packet (SCID/DCID/ICID).
    pub cidp: l2cap::fields::CidpValues,
    /// `true` if every CIDP value matches a channel the device actually
    /// allocated.
    pub cidp_matches_allocation: bool,
    /// Number of bytes beyond the command's defined data fields (the
    /// garbage tail appended by the mutator).
    pub garbage_len: usize,
    /// `true` if the declared length fields agree with the bytes carried.
    pub length_consistent: bool,
    /// Simplified PSM carried by an LE credit-based command, if any.
    pub spsm: Option<u16>,
    /// Credit count carried by the packet (initial credits or a credit
    /// grant), if any.
    pub credits: Option<u16>,
    /// The retransmission-and-flow-control option carried by a configuration
    /// command, if any (the ERTM/streaming-mode fuzzing surface).
    pub rfc_option: Option<l2cap::options::RetransmissionConfig>,
}

/// Structural conditions under which a seeded vulnerability fires.
#[derive(Debug, Clone, PartialEq)]
pub struct Trigger {
    /// Jobs in which the defective code is reachable (empty = any job).
    pub jobs: Vec<Job>,
    /// Commands that reach the defective code (empty = any command).
    pub commands: Vec<CommandCode>,
    /// The packet must carry a garbage tail.
    pub requires_garbage: bool,
    /// The packet must carry a PSM from the abnormal space of Table IV.
    pub requires_abnormal_psm: bool,
    /// The packet must carry a CIDP value that does not match any allocated
    /// channel.
    pub requires_cidp_mismatch: bool,
    /// The packet must carry an SPSM outside the defined LE SPSM space.
    pub requires_abnormal_spsm: bool,
    /// The packet must carry a credit count from the abnormal classes
    /// (zero-credit stall or the overflow-prone upper half).
    pub requires_abnormal_credits: bool,
    /// The packet must carry a retransmission-and-flow-control option
    /// selecting ERTM or streaming mode with abnormal parameters (zero
    /// transmit window or an MPS below the minimum).
    pub requires_abnormal_ertm_option: bool,
    /// Probability that a structurally matching packet actually lands in the
    /// defective path (models application-logic complexity).
    pub hit_probability: f64,
}

impl Trigger {
    /// Returns `true` if the packet context satisfies every structural
    /// condition (the probabilistic part is rolled by the caller).
    pub fn matches(&self, ctx: &PacketContext) -> bool {
        if !self.jobs.is_empty() && !self.jobs.contains(&ctx.job) {
            return false;
        }
        if !self.commands.is_empty() {
            match ctx.code {
                Some(code) if self.commands.contains(&code) => {}
                _ => return false,
            }
        }
        if self.requires_garbage && ctx.garbage_len == 0 {
            return false;
        }
        if self.requires_abnormal_psm {
            match ctx.psm {
                Some(psm) if l2cap::ranges::is_abnormal_psm(psm) => {}
                _ => return false,
            }
        }
        if self.requires_cidp_mismatch && (ctx.cidp.is_empty() || ctx.cidp_matches_allocation) {
            return false;
        }
        if self.requires_abnormal_spsm {
            match ctx.spsm {
                Some(spsm) if l2cap::ranges::is_abnormal_spsm(spsm) => {}
                _ => return false,
            }
        }
        if self.requires_abnormal_credits {
            match ctx.credits {
                Some(credits) if l2cap::ranges::is_abnormal_credits(credits) => {}
                _ => return false,
            }
        }
        if self.requires_abnormal_ertm_option {
            match ctx.rfc_option {
                Some(rfc)
                    if matches!(rfc.mode, 3 | 4)
                        && (rfc.tx_window == 0 || l2cap::ranges::is_abnormal_le_mtu(rfc.mps)) => {}
                _ => return false,
            }
        }
        true
    }
}

/// What happens to the device when a vulnerability fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// The Bluetooth service terminates (denial of service); the rest of the
    /// device keeps running.
    DenialOfService,
    /// The device (or its Bluetooth subsystem) crashes outright.
    Crash,
}

/// A seeded vulnerability of a simulated device.
#[derive(Debug, Clone, PartialEq)]
pub struct VulnerabilitySpec {
    /// Stable identifier used in crash dumps and reports.
    pub id: String,
    /// Human-readable description.
    pub description: String,
    /// When it fires.
    pub trigger: Trigger,
    /// What it does.
    pub effect: Effect,
    /// What kind of crash artifact it leaves behind.
    pub crash_kind: CrashKind,
    /// Whether a crash dump is written when it fires.
    pub produces_dump: bool,
}

impl VulnerabilitySpec {
    /// The BlueDroid configuration-job null-pointer dereference of the
    /// paper's case study (§IV-E): a configuration-job command whose CIDP
    /// value ignores the device's allocation, with garbage appended, drives
    /// `l2c_csm_execute` into a null CCB.
    pub fn bluedroid_config_null_deref(hit_probability: f64) -> Self {
        VulnerabilitySpec {
            id: "SIM-BLUEDROID-L2C-NULLPTR".to_owned(),
            description: "null pointer dereference in l2c_csm_execute via unallocated CIDP \
                          with garbage in the configuration job (DoS)"
                .to_owned(),
            trigger: Trigger {
                jobs: vec![Job::Configuration],
                commands: vec![
                    CommandCode::ConfigureRequest,
                    CommandCode::ConfigureResponse,
                ],
                requires_garbage: true,
                requires_abnormal_psm: false,
                requires_cidp_mismatch: true,
                requires_abnormal_spsm: false,
                requires_abnormal_credits: false,
                requires_abnormal_ertm_option: false,
                hit_probability,
            },
            effect: Effect::DenialOfService,
            crash_kind: CrashKind::NullPointerDereference,
            produces_dump: true,
        }
    }

    /// The Galaxy 7 variant detected through a malformed Create Channel
    /// Request in the `WAIT_CREATE` state (§IV-E notes only L2Fuzz reaches
    /// it).
    pub fn bluedroid_create_channel_dos(hit_probability: f64) -> Self {
        VulnerabilitySpec {
            id: "SIM-BLUEDROID-CREATE-DOS".to_owned(),
            description: "denial of service via malformed Create Channel Request in the \
                          creation job"
                .to_owned(),
            trigger: Trigger {
                jobs: vec![Job::Closed, Job::Creation, Job::Configuration],
                commands: vec![CommandCode::CreateChannelRequest],
                requires_garbage: true,
                requires_abnormal_psm: false,
                requires_cidp_mismatch: false,
                requires_abnormal_spsm: false,
                requires_abnormal_credits: false,
                requires_abnormal_ertm_option: false,
                hit_probability,
            },
            effect: Effect::DenialOfService,
            crash_kind: CrashKind::NullPointerDereference,
            produces_dump: true,
        }
    }

    /// The AirPods firmware crash on a malicious PSM value (D5): the device
    /// terminates without any control.
    pub fn rtkit_psm_crash(hit_probability: f64) -> Self {
        VulnerabilitySpec {
            id: "SIM-RTKIT-PSM-CRASH".to_owned(),
            description: "uncontrolled firmware termination on abnormal PSM value".to_owned(),
            trigger: Trigger {
                jobs: vec![Job::Closed, Job::Open, Job::Connection],
                commands: vec![
                    CommandCode::ConnectionRequest,
                    CommandCode::CreateChannelRequest,
                ],
                requires_garbage: false,
                requires_abnormal_psm: true,
                requires_cidp_mismatch: false,
                requires_abnormal_spsm: false,
                requires_abnormal_credits: false,
                requires_abnormal_ertm_option: false,
                hit_probability,
            },
            effect: Effect::Crash,
            crash_kind: CrashKind::UncontrolledTermination,
            produces_dump: false,
        }
    }

    /// LE credit-accounting defect of the simulated LE-only wearable (D9): a
    /// credit-based connect or credit grant carrying an abnormal credit count
    /// (zero-credit stall or an overflow-prone grant) drives the stack's
    /// credit arithmetic into a signed underflow and the service exits.
    pub fn zephyr_credit_underflow_dos(hit_probability: f64) -> Self {
        VulnerabilitySpec {
            id: "SIM-ZEPHYR-LE-CREDIT-UNDERFLOW".to_owned(),
            description: "credit-accounting underflow on abnormal initial credits or credit \
                          grants over an LE credit-based channel (DoS)"
                .to_owned(),
            trigger: Trigger {
                jobs: vec![Job::Closed, Job::Connection, Job::Configuration, Job::Open],
                commands: vec![
                    CommandCode::LeCreditBasedConnectionRequest,
                    CommandCode::FlowControlCreditInd,
                ],
                requires_garbage: false,
                requires_abnormal_psm: false,
                requires_cidp_mismatch: false,
                requires_abnormal_spsm: false,
                requires_abnormal_credits: true,
                requires_abnormal_ertm_option: false,
                hit_probability,
            },
            effect: Effect::DenialOfService,
            crash_kind: CrashKind::NullPointerDereference,
            produces_dump: true,
        }
    }

    /// SPSM-confusion crash of the simulated dual-mode phone (D10): an
    /// enhanced credit-based connection request naming an SPSM outside the
    /// defined space, whose channel list ignores the device's allocations,
    /// indexes past the stack's registration table.  (The command's SCID
    /// list is variable-length, so a garbage-tail condition cannot apply —
    /// the CIDP mismatch is the malformed marker instead.)
    pub fn bluedroid_spsm_confusion_crash(hit_probability: f64) -> Self {
        VulnerabilitySpec {
            id: "SIM-BLUEDROID-SPSM-OOB".to_owned(),
            description: "out-of-bounds SPSM registration lookup on enhanced credit-based \
                          connect with undefined SPSM and unallocated CIDs (crash)"
                .to_owned(),
            trigger: Trigger {
                jobs: vec![Job::Closed, Job::Connection, Job::Open],
                commands: vec![CommandCode::CreditBasedConnectionRequest],
                requires_garbage: false,
                requires_abnormal_psm: false,
                requires_cidp_mismatch: true,
                requires_abnormal_spsm: true,
                requires_abnormal_credits: false,
                requires_abnormal_ertm_option: false,
                hit_probability,
            },
            effect: Effect::Crash,
            crash_kind: CrashKind::GeneralProtectionFault,
            produces_dump: true,
        }
    }

    /// ERTM mode-confusion defect of the simulated BlueZ speaker (D11): a
    /// Configuration Request selecting ERTM or streaming mode with a zero
    /// transmit window (or an impossible MPS) leaves the retransmission
    /// engine dividing by its window size.
    pub fn bluez_ertm_mode_confusion_dos(hit_probability: f64) -> Self {
        VulnerabilitySpec {
            id: "SIM-BLUEZ-ERTM-ZERO-WINDOW".to_owned(),
            description: "retransmission-engine division by a zero transmit window when ERTM/\
                          streaming mode is configured with abnormal parameters (DoS)"
                .to_owned(),
            trigger: Trigger {
                jobs: vec![Job::Configuration, Job::Open],
                commands: vec![CommandCode::ConfigureRequest],
                requires_garbage: false,
                requires_abnormal_psm: false,
                requires_cidp_mismatch: false,
                requires_abnormal_spsm: false,
                requires_abnormal_credits: false,
                requires_abnormal_ertm_option: true,
                hit_probability,
            },
            effect: Effect::DenialOfService,
            crash_kind: CrashKind::NullPointerDereference,
            produces_dump: true,
        }
    }

    /// The BlueZ laptop general-protection crash (D8): a narrow path deep in
    /// configuration handling, hence the very low hit probability and the
    /// hours-long time to detection in Table VI.
    pub fn bluez_general_protection(hit_probability: f64) -> Self {
        VulnerabilitySpec {
            id: "SIM-BLUEZ-GP-FAULT".to_owned(),
            description: "general protection fault in l2cap_recv_frame on malformed \
                          configuration traffic with oversized garbage"
                .to_owned(),
            trigger: Trigger {
                jobs: vec![Job::Configuration, Job::Open],
                commands: vec![
                    CommandCode::ConfigureRequest,
                    CommandCode::ConfigureResponse,
                ],
                requires_garbage: true,
                requires_abnormal_psm: false,
                requires_cidp_mismatch: true,
                requires_abnormal_spsm: false,
                requires_abnormal_credits: false,
                requires_abnormal_ertm_option: false,
                hit_probability,
            },
            effect: Effect::Crash,
            crash_kind: CrashKind::GeneralProtectionFault,
            produces_dump: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config_ctx() -> PacketContext {
        PacketContext {
            job: Job::Configuration,
            state: ChannelState::WaitConfigReqRsp,
            code: Some(CommandCode::ConfigureRequest),
            psm: None,
            cidp: l2cap::fields::CidpValues::from_slice(&[0x8F7B]),
            cidp_matches_allocation: false,
            garbage_len: 4,
            length_consistent: false,
            spsm: None,
            credits: None,
            rfc_option: None,
        }
    }

    #[test]
    fn case_study_packet_triggers_bluedroid_null_deref() {
        let vuln = VulnerabilitySpec::bluedroid_config_null_deref(1.0);
        assert!(vuln.trigger.matches(&config_ctx()));
        assert_eq!(vuln.effect, Effect::DenialOfService);
        assert!(vuln.produces_dump);
    }

    #[test]
    fn well_formed_config_request_does_not_trigger() {
        let vuln = VulnerabilitySpec::bluedroid_config_null_deref(1.0);
        let mut ctx = config_ctx();
        ctx.garbage_len = 0;
        ctx.cidp_matches_allocation = true;
        assert!(!vuln.trigger.matches(&ctx));
    }

    #[test]
    fn wrong_job_does_not_trigger() {
        let vuln = VulnerabilitySpec::bluedroid_config_null_deref(1.0);
        let mut ctx = config_ctx();
        ctx.job = Job::Open;
        assert!(!vuln.trigger.matches(&ctx));
    }

    #[test]
    fn garbage_required_for_null_deref() {
        let vuln = VulnerabilitySpec::bluedroid_config_null_deref(1.0);
        let mut ctx = config_ctx();
        ctx.garbage_len = 0;
        assert!(!vuln.trigger.matches(&ctx));
    }

    #[test]
    fn psm_crash_requires_abnormal_psm() {
        let vuln = VulnerabilitySpec::rtkit_psm_crash(1.0);
        let ctx = PacketContext {
            job: Job::Closed,
            state: ChannelState::Closed,
            code: Some(CommandCode::ConnectionRequest),
            psm: Some(0x0101),
            cidp: l2cap::fields::CidpValues::from_slice(&[0x0040]),
            cidp_matches_allocation: false,
            garbage_len: 0,
            length_consistent: true,
            spsm: None,
            credits: None,
            rfc_option: None,
        };
        assert!(vuln.trigger.matches(&ctx));
        let normal_psm = PacketContext {
            psm: Some(0x0001),
            ..ctx
        };
        assert!(!vuln.trigger.matches(&normal_psm));
        let no_psm = PacketContext {
            psm: None,
            ..normal_psm
        };
        assert!(!vuln.trigger.matches(&no_psm));
    }

    #[test]
    fn create_channel_vuln_matches_create_command_only() {
        let vuln = VulnerabilitySpec::bluedroid_create_channel_dos(1.0);
        let ctx = PacketContext {
            job: Job::Creation,
            state: ChannelState::WaitCreate,
            code: Some(CommandCode::CreateChannelRequest),
            psm: Some(0x0001),
            cidp: l2cap::fields::CidpValues::from_slice(&[0x0044]),
            cidp_matches_allocation: true,
            garbage_len: 8,
            length_consistent: false,
            spsm: None,
            credits: None,
            rfc_option: None,
        };
        assert!(vuln.trigger.matches(&ctx));
        let wrong_cmd = PacketContext {
            code: Some(CommandCode::ConnectionRequest),
            ..ctx
        };
        assert!(!vuln.trigger.matches(&wrong_cmd));
    }

    #[test]
    fn cidp_mismatch_condition_needs_a_cidp_value() {
        let vuln = VulnerabilitySpec::bluez_general_protection(1.0);
        let mut ctx = config_ctx();
        ctx.cidp = l2cap::fields::CidpValues::default();
        assert!(!vuln.trigger.matches(&ctx));
    }

    #[test]
    fn le_credit_vuln_requires_an_abnormal_credit_count() {
        let vuln = VulnerabilitySpec::zephyr_credit_underflow_dos(1.0);
        let ctx = PacketContext {
            job: Job::Closed,
            state: ChannelState::Closed,
            code: Some(CommandCode::LeCreditBasedConnectionRequest),
            psm: None,
            cidp: l2cap::fields::CidpValues::from_slice(&[0x0040]),
            cidp_matches_allocation: false,
            garbage_len: 0,
            length_consistent: true,
            spsm: Some(0x0080),
            credits: Some(0),
            rfc_option: None,
        };
        assert!(vuln.trigger.matches(&ctx), "zero credits must match");
        let overflow = PacketContext {
            credits: Some(0xFFFF),
            ..ctx.clone()
        };
        assert!(vuln.trigger.matches(&overflow), "overflow grant matches");
        let normal = PacketContext {
            credits: Some(8),
            ..ctx.clone()
        };
        assert!(!vuln.trigger.matches(&normal), "normal credits must not");
        let absent = PacketContext {
            credits: None,
            ..ctx
        };
        assert!(!vuln.trigger.matches(&absent));
    }

    #[test]
    fn spsm_confusion_vuln_requires_abnormal_spsm_and_cidp_mismatch() {
        let vuln = VulnerabilitySpec::bluedroid_spsm_confusion_crash(1.0);
        let ctx = PacketContext {
            job: Job::Closed,
            state: ChannelState::Closed,
            code: Some(CommandCode::CreditBasedConnectionRequest),
            psm: None,
            cidp: l2cap::fields::CidpValues::from_slice(&[0x0040]),
            cidp_matches_allocation: false,
            garbage_len: 0,
            length_consistent: true,
            spsm: Some(0x1234),
            credits: Some(8),
            rfc_option: None,
        };
        assert!(vuln.trigger.matches(&ctx));
        let defined_spsm = PacketContext {
            spsm: Some(0x0080),
            ..ctx.clone()
        };
        assert!(!vuln.trigger.matches(&defined_spsm));
        let allocated_cids = PacketContext {
            cidp_matches_allocation: true,
            ..ctx
        };
        assert!(!vuln.trigger.matches(&allocated_cids));
    }

    #[test]
    fn ertm_vuln_requires_an_abnormal_retransmission_option() {
        use l2cap::options::RetransmissionConfig;
        let vuln = VulnerabilitySpec::bluez_ertm_mode_confusion_dos(1.0);
        let abnormal = RetransmissionConfig {
            mode: 3,
            tx_window: 0,
            max_transmit: 1,
            retransmission_timeout: 2000,
            monitor_timeout: 12000,
            mps: 0,
        };
        let ctx = PacketContext {
            job: Job::Configuration,
            state: ChannelState::WaitConfigReqRsp,
            code: Some(CommandCode::ConfigureRequest),
            psm: None,
            cidp: l2cap::fields::CidpValues::from_slice(&[0x0040]),
            cidp_matches_allocation: true,
            garbage_len: 0,
            length_consistent: true,
            spsm: None,
            credits: None,
            rfc_option: Some(abnormal),
        };
        assert!(vuln.trigger.matches(&ctx));
        // A well-formed ERTM option (sane window and MPS) does not match.
        let sane = PacketContext {
            rfc_option: Some(RetransmissionConfig {
                tx_window: 8,
                mps: 1010,
                ..abnormal
            }),
            ..ctx.clone()
        };
        assert!(!vuln.trigger.matches(&sane));
        // Basic mode never matches, however broken the parameters.
        let basic = PacketContext {
            rfc_option: Some(RetransmissionConfig {
                mode: 0,
                ..abnormal
            }),
            ..ctx.clone()
        };
        assert!(!vuln.trigger.matches(&basic));
        let none = PacketContext {
            rfc_option: None,
            ..ctx
        };
        assert!(!vuln.trigger.matches(&none));
    }

    #[test]
    fn empty_job_and_command_lists_match_anything() {
        let trigger = Trigger {
            jobs: vec![],
            commands: vec![],
            requires_garbage: false,
            requires_abnormal_psm: false,
            requires_cidp_mismatch: false,
            requires_abnormal_spsm: false,
            requires_abnormal_credits: false,
            requires_abnormal_ertm_option: false,
            hit_probability: 1.0,
        };
        assert!(trigger.matches(&config_ctx()));
    }
}
