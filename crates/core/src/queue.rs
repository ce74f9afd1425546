//! The packet queue (Fig. 5).
//!
//! Every test packet goes out over the ACL link through [`send`], and the
//! target's answer is parsed into a compact [`SendOutcome`] the detector and
//! the fuzzing strategy consume.  Transmission is synchronous: each packet's
//! exchange completes before the next one is built, so nothing ever waits
//! in a queue.

use hci::medium::LinkHandle;
use l2cap::command::Command;
use l2cap::packet::{parse_signaling, SignalingPacket};

/// What happened when a test packet was transmitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendOutcome {
    /// Parsed commands the target answered with.
    pub responses: Vec<Command>,
    /// `true` if any answer was a Command Reject.
    pub rejected: bool,
    /// `true` if the target did not answer at all.
    pub silent: bool,
}

/// Sends one packet over the link and assembles its outcome.  The packet is
/// framed (for a small frame, without allocating) and stays the caller's.
pub fn send(link: &mut LinkHandle, packet: &SignalingPacket) -> SendOutcome {
    let frames = link.send_frame(&packet.to_frame());
    let responses: Vec<Command> = frames
        .iter()
        .filter_map(|f| parse_signaling(f).ok().map(|p| p.command()))
        .collect();
    let rejected = responses
        .iter()
        .any(|c| matches!(c, Command::CommandReject(_)));
    SendOutcome {
        silent: responses.is_empty(),
        rejected,
        responses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btcore::{Cid, FuzzRng, Identifier, Psm, SimClock};
    use btstack::device::share;
    use btstack::profiles::{DeviceProfile, ProfileId};
    use hci::link::LinkConfig;
    use hci::medium::EventMedium;
    use l2cap::command::ConnectionRequest;

    fn link() -> LinkHandle {
        let clock = SimClock::new();
        let mut air = EventMedium::new(clock.clone());
        let profile = DeviceProfile::table5(ProfileId::D2);
        let (_, adapter) = share(profile.build(clock.clone(), FuzzRng::seed_from(5)));
        air.register_shared(adapter);
        air.connect(profile.addr, LinkConfig::ideal(), FuzzRng::seed_from(6))
            .unwrap()
    }

    #[test]
    fn rejection_is_flagged() {
        let mut link = link();
        // Undefined command code gets "command not understood".
        let outcome = send(
            &mut link,
            &SignalingPacket::from_raw(Identifier(1), 0x7F, vec![]),
        );
        assert!(outcome.rejected);
    }

    #[test]
    fn send_now_returns_the_outcome_of_that_packet() {
        let mut link = link();
        let outcome = send(
            &mut link,
            &SignalingPacket::new(
                Identifier(3),
                Command::ConnectionRequest(ConnectionRequest {
                    psm: Psm::SDP,
                    scid: Cid(0x0040),
                }),
            ),
        );
        assert!(!outcome.silent);
        assert!(outcome
            .responses
            .iter()
            .any(|c| matches!(c, Command::ConnectionResponse(_))));
    }
}
