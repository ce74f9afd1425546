//! The packet queue (Fig. 5).
//!
//! Normal state-transition packets and malformed test packets flow through
//! one queue, are transmitted in order over the ACL link, and every target
//! answer is parsed into a compact [`SendOutcome`] the detector can consume.

use hci::medium::LinkHandle;
use l2cap::command::Command;
use l2cap::packet::{parse_signaling, SignalingPacket};

/// Whether a queued packet is a normal transition packet or a malformed test
/// packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// Normal packet used for state transition.
    Normal,
    /// Malformed packet generated by core-field mutation.
    Malformed,
}

/// One queued packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueuedPacket {
    /// The packet to transmit.
    pub packet: SignalingPacket,
    /// Its kind.
    pub kind: PacketKind,
}

/// What happened when a queued packet was transmitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendOutcome {
    /// The transmitted packet.
    pub packet: SignalingPacket,
    /// Its kind.
    pub kind: PacketKind,
    /// Parsed commands the target answered with.
    pub responses: Vec<Command>,
    /// `true` if any answer was a Command Reject.
    pub rejected: bool,
    /// `true` if the target did not answer at all.
    pub silent: bool,
}

/// FIFO packet queue over an ACL link.
#[derive(Debug, Default)]
pub struct PacketQueue {
    queue: Vec<QueuedPacket>,
    sent: u64,
}

impl PacketQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        PacketQueue::default()
    }

    /// Enqueues a normal state-transition packet.
    pub fn push_normal(&mut self, packet: SignalingPacket) {
        self.queue.push(QueuedPacket {
            packet,
            kind: PacketKind::Normal,
        });
    }

    /// Enqueues a malformed test packet.
    pub fn push_malformed(&mut self, packet: SignalingPacket) {
        self.queue.push(QueuedPacket {
            packet,
            kind: PacketKind::Malformed,
        });
    }

    /// Number of packets waiting to be sent.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Total packets transmitted through this queue.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Transmits every queued packet in order, returning one outcome per
    /// packet.  Transmission stops early (leaving the rest queued) when
    /// `budget` packets have been sent; a budget of `usize::MAX` sends
    /// everything.
    pub fn flush(&mut self, link: &mut LinkHandle, budget: usize) -> Vec<SendOutcome> {
        let to_send = budget.min(self.queue.len());
        let mut outcomes = Vec::with_capacity(to_send);
        // Drain without consuming the queue's allocation: the backing vector
        // keeps its capacity for the next batch.
        for queued in self.queue.drain(..to_send) {
            outcomes.push(Self::transmit_one(
                &mut self.sent,
                link,
                queued.packet,
                queued.kind,
            ));
        }
        outcomes
    }

    /// Sends one packet over the link and assembles its outcome.  This is the
    /// single transmission path both [`PacketQueue::flush`] and
    /// [`PacketQueue::send_now`] go through: the packet is framed (for a
    /// small frame, without allocating) and moved — not cloned — into the
    /// outcome.
    fn transmit_one(
        sent: &mut u64,
        link: &mut LinkHandle,
        packet: SignalingPacket,
        kind: PacketKind,
    ) -> SendOutcome {
        let frame = packet.to_frame();
        let frames = link.send_frame(&frame);
        *sent += 1;
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
            kind,
            packet,
        }
    }

    /// Convenience: send one packet immediately, bypassing the queue (any
    /// packets still queued are flushed first, preserving order).
    ///
    /// Takes the packet by reference — cloning a [`SignalingPacket`] never
    /// allocates, so the caller keeps its copy for free.
    pub fn send_now(
        &mut self,
        link: &mut LinkHandle,
        packet: &SignalingPacket,
        kind: PacketKind,
    ) -> SendOutcome {
        self.flush(link, usize::MAX);
        Self::transmit_one(&mut self.sent, link, packet.clone(), kind)
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
    use l2cap::command::{ConnectionRequest, EchoRequest};

    fn link() -> LinkHandle {
        let clock = SimClock::new();
        let mut air = EventMedium::new(clock.clone());
        let profile = DeviceProfile::table5(ProfileId::D2);
        let (_, adapter) = share(profile.build(clock.clone(), FuzzRng::seed_from(5)));
        air.register_shared(adapter);
        air.connect(profile.addr, LinkConfig::ideal(), FuzzRng::seed_from(6))
            .unwrap()
    }

    fn echo(id: u8) -> SignalingPacket {
        SignalingPacket::new(
            Identifier(id),
            Command::EchoRequest(EchoRequest { data: vec![id] }),
        )
    }

    #[test]
    fn flush_sends_in_order_and_collects_responses() {
        let mut link = link();
        let mut queue = PacketQueue::new();
        queue.push_normal(echo(1));
        queue.push_malformed(echo(2));
        assert_eq!(queue.pending(), 2);
        let outcomes = queue.flush(&mut link, usize::MAX);
        assert_eq!(outcomes.len(), 2);
        assert_eq!(queue.pending(), 0);
        assert_eq!(queue.sent(), 2);
        assert_eq!(outcomes[0].kind, PacketKind::Normal);
        assert_eq!(outcomes[1].kind, PacketKind::Malformed);
        assert!(outcomes.iter().all(|o| !o.silent && !o.rejected));
    }

    #[test]
    fn budget_limits_the_flush() {
        let mut link = link();
        let mut queue = PacketQueue::new();
        for i in 1..=5 {
            queue.push_normal(echo(i));
        }
        let outcomes = queue.flush(&mut link, 2);
        assert_eq!(outcomes.len(), 2);
        assert_eq!(queue.pending(), 3);
    }

    #[test]
    fn rejection_is_flagged() {
        let mut link = link();
        let mut queue = PacketQueue::new();
        // Undefined command code gets "command not understood".
        queue.push_malformed(SignalingPacket::from_raw(Identifier(1), 0x7F, vec![]));
        let outcomes = queue.flush(&mut link, usize::MAX);
        assert!(outcomes[0].rejected);
    }

    #[test]
    fn send_now_returns_the_outcome_of_that_packet() {
        let mut link = link();
        let mut queue = PacketQueue::new();
        let outcome = queue.send_now(
            &mut link,
            &SignalingPacket::new(
                Identifier(3),
                Command::ConnectionRequest(ConnectionRequest {
                    psm: Psm::SDP,
                    scid: Cid(0x0040),
                }),
            ),
            PacketKind::Normal,
        );
        assert!(!outcome.silent);
        assert!(outcome
            .responses
            .iter()
            .any(|c| matches!(c, Command::ConnectionResponse(_))));
    }
}
