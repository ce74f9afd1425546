//! The packet queue (Fig. 5).
//!
//! Every test packet goes out over the ACL link through [`send`], and the
//! target's answer comes back as a compact [`SendOutcome`] the detector and
//! the fuzzing strategy consume.  Transmission is synchronous: each packet's
//! exchange completes before the next one is built, so nothing ever waits
//! in a queue.
//!
//! The outcome borrows the link's reply buffer instead of copying the
//! answers out, and [`send`] classifies them from their code bytes and
//! structure, read in place, without decoding a command, so a warmed-up
//! exchange makes no heap allocation.  Read an outcome before the link's
//! next exchange.

use hci::medium::LinkHandle;
use l2cap::code::CommandCode;
use l2cap::command::Command;
use l2cap::packet::{parse_signaling, L2capFrame, SignalingPacket, SignalingView};

/// What happened when a test packet was transmitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendOutcome<'a> {
    /// The frames the target answered with, in order: a view of the link's
    /// reply buffer, valid until the link's next exchange.
    pub responses: &'a [L2capFrame],
    /// `true` if any answer was a Command Reject.
    pub rejected: bool,
    /// `true` if no answer parsed as a C-frame.
    pub silent: bool,
}

impl<'a> SendOutcome<'a> {
    /// The answers that parse as C-frames, in order, each read in place:
    /// a view's data borrows its frame's payload in the link's reply
    /// buffer, with no copy.
    pub fn signaling(&self) -> impl Iterator<Item = SignalingView<'a>> + 'a {
        let responses = self.responses;
        responses.iter().filter_map(|f| parse_signaling(f).ok())
    }
}

/// Sends one packet over the link and classifies the answers.  The packet is
/// framed (for a small frame, without allocating) and stays the caller's.
///
/// An answer counts as a rejection when its code byte is Command Reject and
/// its payload has that command's structure, which is exactly when it would
/// decode to a typed `CommandReject`.
pub fn send<'a>(link: &'a mut LinkHandle, packet: &SignalingPacket) -> SendOutcome<'a> {
    let mut outcome = SendOutcome {
        responses: link.send_frame(&packet.to_frame()),
        rejected: false,
        silent: true,
    };
    for reply in outcome.signaling() {
        outcome.silent = false;
        outcome.rejected |= reply.code == CommandCode::CommandReject.value()
            && Command::structurally_valid(reply.code, reply.data);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guide::ChannelContext;
    use crate::mutator::CoreFieldMutator;
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
        assert!(!outcome.rejected);
        assert!(outcome
            .signaling()
            .any(|p| matches!(p.command(), Command::ConnectionResponse(_))));
    }

    #[test]
    fn classification_agrees_with_decoding_the_answers() {
        let mut link = link();
        let mut mutator = CoreFieldMutator::new(FuzzRng::seed_from(9));
        let ctx = ChannelContext::closed(Psm::SDP);
        let (mut rejected, mut answered) = (0, 0);
        for (i, code) in CommandCode::ALL.iter().cycle().take(400).enumerate() {
            let packet = mutator.mutate(*code, &ctx, Identifier((i % 250 + 1) as u8));
            let outcome = send(&mut link, &packet);
            let decoded: Vec<Command> = outcome.signaling().map(|p| p.command()).collect();
            assert_eq!(outcome.silent, decoded.is_empty());
            assert_eq!(
                outcome.rejected,
                decoded
                    .iter()
                    .any(|c| matches!(c, Command::CommandReject(_)))
            );
            rejected += usize::from(outcome.rejected);
            answered += usize::from(!outcome.silent);
        }
        assert!(0 < rejected && rejected < answered);
    }
}
