//! Phase 4 — vulnerability detecting (§III-E).
//!
//! After each malformed packet the detector checks three things, mirroring
//! the paper: (1) whether the exchange produced a connection-level error,
//! (2) whether an L2CAP ping (Echo Request) still succeeds, and (3) whether a
//! crash dump appeared on the device (collected out of band through the
//! [`TargetOracle`]).  *Connection Failed* means the Bluetooth service went
//! away (denial of service); the other errors indicate a crash.

use btcore::{Cid, ConnectionError, FrameBuf, Identifier, LinkType, PingOutcome, TargetOracle};
use hci::medium::LinkHandle;
use l2cap::code::CommandCode;
use l2cap::command::{Command, ConnectionParameterUpdateRequest, EchoRequest};
use l2cap::packet::{parse_signaling, signaling_frame, L2capFrame};
use serde::{Deserialize, Serialize};

use crate::retry::RetryPolicy;

/// Evidence collected when a test packet disturbed the target.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VulnerabilityEvidence {
    /// Connection-level error classification.
    pub error: ConnectionError,
    /// `true` if the L2CAP ping test failed.
    pub ping_failed: bool,
    /// `true` if a new crash dump was found on the device.
    pub crash_dump: bool,
    /// Human-readable classification ("DoS" / "Crash").
    pub description: String,
}

/// Verdict for one detection check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DetectionVerdict {
    /// The target still behaves normally.
    Healthy,
    /// The target was disturbed; evidence attached.
    Vulnerable(VulnerabilityEvidence),
}

impl DetectionVerdict {
    /// Returns `true` for the vulnerable verdict.
    pub fn is_vulnerable(&self) -> bool {
        matches!(self, DetectionVerdict::Vulnerable(_))
    }
}

/// The vulnerability detector.
#[derive(Debug)]
pub struct VulnerabilityDetector {
    next_ping_id: u8,
    pings_sent: u64,
    /// The liveness probe's C-frame, encoded once; each ping copies it
    /// under its own identifier.
    probe: FrameBuf,
    /// The code of the probe's answer.
    expected_code: CommandCode,
    retry: RetryPolicy,
}

impl VulnerabilityDetector {
    /// Creates a detector for a classic BR/EDR target.
    pub fn new() -> Self {
        VulnerabilityDetector::new_on(LinkType::BrEdr)
    }

    /// Creates a detector for a target on the given link type.  On an LE
    /// link — which has no Echo Request — the liveness probe is a
    /// Connection Parameter Update Request, which every LE acceptor
    /// answers.
    pub fn new_on(link: LinkType) -> Self {
        let (probe, expected_code) = if link == LinkType::Le {
            (
                Command::ConnectionParameterUpdateRequest(ConnectionParameterUpdateRequest {
                    interval_min: 6,
                    interval_max: 12,
                    latency: 0,
                    timeout: 200,
                }),
                CommandCode::ConnectionParameterUpdateResponse,
            )
        } else {
            (
                Command::EchoRequest(EchoRequest {
                    data: vec![0x4C, 0x32],
                }),
                CommandCode::EchoResponse,
            )
        };
        VulnerabilityDetector {
            next_ping_id: 0x70,
            pings_sent: 0,
            probe: signaling_frame(Identifier(0), &probe).payload,
            expected_code,
            retry: RetryPolicy::none(),
        }
    }

    /// Attaches a retry policy: an unanswered ping is retried with
    /// virtual-time backoff before the target is declared disturbed, so a
    /// lossy link does not masquerade as a dead target.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Number of ping packets this detector has sent.
    pub fn pings_sent(&self) -> u64 {
        self.pings_sent
    }

    /// Performs the liveness probe over the link: an L2CAP Echo Request on
    /// BR/EDR, a Connection Parameter Update Request on LE.
    pub fn ping(&mut self, link: &mut LinkHandle) -> bool {
        self.next_ping_id = if self.next_ping_id == 0xFF {
            0x70
        } else {
            self.next_ping_id + 1
        };
        self.pings_sent += 1;
        let c_frame = FrameBuf::build(|out| {
            out.extend_from_slice(&self.probe);
            // The C-frame's second byte is its identifier.
            out[1] = self.next_ping_id;
        });
        let responses = link.send_frame(&L2capFrame::new(Cid::SIGNALING, c_frame));
        // The answer is identified by its code byte alone.
        responses.iter().any(|f| {
            parse_signaling(f)
                .map(|p| p.code == self.expected_code.value())
                .unwrap_or(false)
        })
    }

    /// Runs the full detection check.
    ///
    /// `target_went_silent` should be `true` when the last test packet got no
    /// answer at all; a healthy target answers (or rejects) valid-command
    /// test packets, so silence is the first hint.  The optional `oracle`
    /// refines the verdict with service status and crash dumps.
    pub fn check(
        &mut self,
        link: &mut LinkHandle,
        oracle: Option<&mut dyn TargetOracle>,
        target_went_silent: bool,
    ) -> DetectionVerdict {
        // Fast path: the target answered and nothing suggests trouble.
        if !target_went_silent {
            return DetectionVerdict::Healthy;
        }

        // Ping test over the air, retried per the policy: only a target
        // that stays mute through every backed-off attempt counts as
        // disturbed.  With `RetryPolicy::none` this is a single ping — the
        // pre-resilience packet stream, byte for byte.
        let (retry, clock) = (self.retry, link.clock());
        if retry
            .run(&clock, || self.ping(link).then_some(()))
            .is_some()
        {
            return DetectionVerdict::Healthy;
        }

        // The ping failed: classify with the oracle when available.
        let (error, crash_dump) = match oracle {
            Some(oracle) => {
                let error = match oracle.ping() {
                    PingOutcome::Answered => ConnectionError::Timeout,
                    PingOutcome::Failed(e) => e,
                };
                (error, oracle.take_crash_dump())
            }
            None => (ConnectionError::Timeout, false),
        };
        let description = if error.indicates_dos() {
            "DoS"
        } else {
            "Crash"
        };
        DetectionVerdict::Vulnerable(VulnerabilityEvidence {
            error,
            ping_failed: true,
            crash_dump,
            description: description.to_owned(),
        })
    }
}

impl Default for VulnerabilityDetector {
    fn default() -> Self {
        VulnerabilityDetector::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btcore::{Cid, FuzzRng, Psm, SimClock};
    use btstack::device::{share, DeviceOracle, SharedSimulatedDevice};
    use btstack::profiles::{DeviceProfile, ProfileId};
    use hci::device::VirtualDevice;
    use hci::link::LinkConfig;
    use hci::medium::{EventMedium, LinkHandle};
    use l2cap::command::ConnectionRequest;
    use l2cap::packet::SignalingPacket;

    fn setup(id: ProfileId) -> (SharedSimulatedDevice, LinkHandle) {
        let clock = SimClock::new();
        let mut air = EventMedium::new(clock.clone());
        let profile = DeviceProfile::table5(id);
        let (shared, adapter) = share(profile.build(clock.clone(), FuzzRng::seed_from(9)));
        air.register_shared(adapter);
        let link = air
            .connect(profile.addr, LinkConfig::ideal(), FuzzRng::seed_from(10))
            .unwrap();
        (shared, link)
    }

    #[test]
    fn healthy_target_passes_the_ping_test() {
        let (_dev, mut link) = setup(ProfileId::D2);
        let mut det = VulnerabilityDetector::new();
        assert!(det.ping(&mut link));
        assert_eq!(det.check(&mut link, None, false), DetectionVerdict::Healthy);
        assert_eq!(det.check(&mut link, None, true), DetectionVerdict::Healthy);
        assert!(det.pings_sent() >= 1);
    }

    #[test]
    fn retry_policy_bounds_ping_attempts_and_burns_virtual_time() {
        use hci::fault::FaultPlan;
        use hci::link::LinkConfig as Cfg;
        let clock = SimClock::new();
        let mut air = EventMedium::new(clock.clone());
        let profile = DeviceProfile::table5(ProfileId::D2);
        let (_shared, adapter) = share(profile.build(clock.clone(), FuzzRng::seed_from(9)));
        air.register_shared(adapter);
        // Every frame is swallowed: the ping can never succeed, so the
        // detector must exhaust exactly `max_attempts` pings and give up.
        let config = Cfg::ideal().with_faults(FaultPlan::none().with_loss(1.0));
        let mut link = air
            .connect(profile.addr, config, FuzzRng::seed_from(10))
            .unwrap();
        let mut det = VulnerabilityDetector::new().with_retry(RetryPolicy::flat(3, 1_000));
        let before = link.clock().now_micros();
        let verdict = det.check(&mut link, None, true);
        assert!(verdict.is_vulnerable());
        assert_eq!(det.pings_sent(), 3);
        assert!(link.clock().now_micros() >= before + 2_000);
    }

    #[test]
    fn dos_is_detected_and_classified_with_the_oracle() {
        let (shared, mut link) = setup(ProfileId::D2);
        // Open a channel and send the case-study malformed packet so the
        // seeded DoS fires (hit probability is < 1, so repeat).
        let connect = signaling_frame(
            Identifier(1),
            &Command::ConnectionRequest(ConnectionRequest {
                psm: Psm::SDP,
                scid: Cid(0x0040),
            }),
        );
        link.send_frame(&connect);
        for i in 0..2_000u16 {
            if !shared.lock().bluetooth_alive() {
                break;
            }
            let packet = SignalingPacket {
                identifier: Identifier((i % 250 + 1) as u8),
                code: 0x04,
                declared_data_len: 8,
                data: vec![0x8F, 0x7B, 0, 0, 0, 0, 0, 0, 0xD2, 0x3A, 0x91, 0x0E].into(),
            };
            link.send_frame(&packet.into_frame());
        }
        assert!(
            !shared.lock().bluetooth_alive(),
            "the seeded DoS must eventually fire"
        );

        let mut oracle = DeviceOracle::new(shared);
        let mut det = VulnerabilityDetector::new();
        match det.check(&mut link, Some(&mut oracle), true) {
            DetectionVerdict::Vulnerable(ev) => {
                assert_eq!(ev.error, ConnectionError::Failed);
                assert!(ev.ping_failed);
                assert!(ev.crash_dump);
                assert_eq!(ev.description, "DoS");
            }
            DetectionVerdict::Healthy => panic!("detector must notice the DoS"),
        }
    }

    #[test]
    fn without_oracle_a_dead_target_is_reported_as_timeout() {
        let (shared, mut link) = setup(ProfileId::D5);
        // Abnormal-PSM connection requests crash the AirPods firmware.
        for i in 0..2_000u16 {
            if !shared.lock().bluetooth_alive() {
                break;
            }
            let frame = signaling_frame(
                Identifier((i % 250 + 1) as u8),
                &Command::ConnectionRequest(ConnectionRequest {
                    psm: Psm(0x0101),
                    scid: Cid(0x0040 + i),
                }),
            );
            link.send_frame(&frame);
        }
        assert!(!shared.lock().bluetooth_alive());
        let mut det = VulnerabilityDetector::new();
        match det.check(&mut link, None, true) {
            DetectionVerdict::Vulnerable(ev) => {
                assert_eq!(ev.error, ConnectionError::Timeout);
                assert!(!ev.crash_dump);
            }
            DetectionVerdict::Healthy => panic!("detector must notice the crash"),
        }
    }
}
