//! Channel control blocks (CCBs) and CID allocation.
//!
//! Real stacks keep a `t_l2c_ccb`-style control block per L2CAP channel —
//! exactly the structure the paper's case study shows being dereferenced
//! through a null pointer (`l2c_csm_execute(t_l2c_ccb*, ...)`).  The
//! simulated acceptor keeps the equivalent here: one [`ChannelControlBlock`]
//! per channel with the local/remote CIDs, the PSM it was opened for and its
//! state machine.

use btcore::{Cid, LinkType, Psm};
use l2cap::state::StateMachine;

/// Identifier of one channel control block within a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CcbId(pub usize);

/// Per-channel bookkeeping of the simulated acceptor.
#[derive(Debug)]
pub struct ChannelControlBlock {
    /// The CID allocated locally (what the initiator must use as DCID).
    pub local_cid: Cid,
    /// The initiator's CID (what we use as DCID when talking back).
    pub remote_cid: Cid,
    /// The service port the channel was opened for.
    pub psm: Psm,
    /// The channel's protocol state machine.
    pub machine: StateMachine,
    /// Accumulated send credits the initiator has granted this channel
    /// (LE credit-based channels only; stays zero on basic-mode channels).
    /// Wider than `u16` so the overflow check can see past the wire limit.
    pub credits: u32,
}

impl ChannelControlBlock {
    /// Adds a credit grant to the channel's accumulated total and returns
    /// `true` if the total now exceeds 65535 — the condition under which the
    /// specification requires the channel to be disconnected.
    pub fn grant_credits(&mut self, grant: u16) -> bool {
        self.credits = self.credits.saturating_add(u32::from(grant));
        self.credits > u32::from(u16::MAX)
    }
}

/// The CCB table of one device: allocates local CIDs in the dynamic range and
/// resolves incoming CID references.
#[derive(Debug, Default)]
pub struct CcbTable {
    channels: Vec<ChannelControlBlock>,
    next_cid: u16,
    /// The visited-state masks of every released channel, ORed together.
    released_visited_mask: u32,
}

impl CcbTable {
    /// Creates an empty table; local CIDs are allocated from `0x0040` up.
    pub fn new() -> Self {
        CcbTable {
            channels: Vec::new(),
            next_cid: Cid::DYNAMIC_START.value(),
            released_visited_mask: 0,
        }
    }

    /// Number of live channels.
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// Returns `true` if no channels are open.
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// Allocates a new BR/EDR channel for `psm` with the initiator's
    /// `remote_cid`.  Returns the new block's id.
    pub fn allocate(&mut self, psm: Psm, remote_cid: Cid) -> CcbId {
        self.allocate_on(LinkType::BrEdr, psm, remote_cid, 0)
    }

    /// Allocates a new channel on the given link type, seeding the credit
    /// counter for LE credit-based channels.  Returns the new block's id.
    pub fn allocate_on(
        &mut self,
        link: LinkType,
        psm: Psm,
        remote_cid: Cid,
        initial_credits: u16,
    ) -> CcbId {
        let local_cid = Cid(self.next_cid);
        self.next_cid = self
            .next_cid
            .wrapping_add(1)
            .max(Cid::DYNAMIC_START.value());
        self.channels.push(ChannelControlBlock {
            local_cid,
            remote_cid,
            psm,
            machine: StateMachine::for_link(link),
            credits: u32::from(initial_credits),
        });
        CcbId(self.channels.len() - 1)
    }

    /// Releases the channel with the given local CID; returns `true` if it
    /// existed.  The table keeps the states the channel visited.
    pub fn release_by_local(&mut self, local_cid: Cid) -> bool {
        let before = self.channels.len();
        let released = &mut self.released_visited_mask;
        self.channels.retain(|c| {
            let keep = c.local_cid != local_cid;
            if !keep {
                *released |= c.machine.visited_mask();
            }
            keep
        });
        self.channels.len() != before
    }

    /// The states visited by every channel this table ever held, released
    /// ones included, as a [`StateMachine::visited_mask`].
    pub(crate) fn visited_mask(&self) -> u32 {
        self.channels
            .iter()
            .fold(self.released_visited_mask, |mask, c| {
                mask | c.machine.visited_mask()
            })
    }

    /// Looks up a channel by the CID we allocated (the DCID the initiator
    /// addresses).
    pub fn by_local(&mut self, local_cid: Cid) -> Option<&mut ChannelControlBlock> {
        self.channels.iter_mut().find(|c| c.local_cid == local_cid)
    }

    /// Looks up a channel by the initiator's CID (the SCID it announced).
    pub fn by_remote(&mut self, remote_cid: Cid) -> Option<&mut ChannelControlBlock> {
        self.channels
            .iter_mut()
            .find(|c| c.remote_cid == remote_cid)
    }

    /// Looks up a channel by either CID, preferring the local match.  This is
    /// the lenient resolution lenient stacks perform when a payload CID does
    /// not identify a channel exactly.
    pub fn by_any(&mut self, cid: Cid) -> Option<&mut ChannelControlBlock> {
        if self.channels.iter().any(|c| c.local_cid == cid) {
            return self.by_local(cid);
        }
        self.by_remote(cid)
    }

    /// Iterates over all channels.
    pub fn iter(&self) -> impl Iterator<Item = &ChannelControlBlock> {
        self.channels.iter()
    }

    /// Iterates mutably over all channels.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut ChannelControlBlock> {
        self.channels.iter_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_starts_in_dynamic_range_and_increments() {
        let mut table = CcbTable::new();
        table.allocate(Psm::SDP, Cid(0x0040));
        table.allocate(Psm::SDP, Cid(0x0041));
        let cids: Vec<Cid> = table.iter().map(|c| c.local_cid).collect();
        assert_eq!(cids, vec![Cid(0x0040), Cid(0x0041)]);
        assert!(cids.iter().all(|c| c.is_dynamic()));
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn lookup_by_local_remote_and_any() {
        let mut table = CcbTable::new();
        table.allocate(Psm::SDP, Cid(0x0077));
        assert!(table.by_local(Cid(0x0040)).is_some());
        assert!(table.by_remote(Cid(0x0077)).is_some());
        assert!(table.by_any(Cid(0x0040)).is_some());
        assert!(table.by_any(Cid(0x0077)).is_some());
        assert!(table.by_any(Cid(0x1234)).is_none());
        assert!(table.by_local(Cid(0x0077)).is_none());
    }

    #[test]
    fn release_removes_the_channel() {
        let mut table = CcbTable::new();
        table.allocate(Psm::SDP, Cid(0x0050));
        assert!(table.release_by_local(Cid(0x0040)));
        assert!(!table.release_by_local(Cid(0x0040)));
        assert!(table.is_empty());
    }

    #[test]
    fn le_allocation_tracks_credits_and_flags_overflow() {
        let mut table = CcbTable::new();
        table.allocate_on(LinkType::Le, Psm::EATT, Cid(0x0040), 10);
        let ccb = table.by_local(Cid(0x0040)).unwrap();
        assert_eq!(ccb.machine.link(), LinkType::Le);
        assert_eq!(ccb.credits, 10);
        assert!(!ccb.grant_credits(100));
        assert_eq!(ccb.credits, 110);
        // One oversized grant pushes the accumulated total past 65535.
        assert!(ccb.grant_credits(u16::MAX));
    }

    #[test]
    fn each_channel_has_its_own_state_machine() {
        let mut table = CcbTable::new();
        table.allocate(Psm::SDP, Cid(0x0060));
        table.allocate(Psm::AVDTP, Cid(0x0061));
        let states: Vec<_> = table.iter().map(|c| c.machine.state()).collect();
        assert_eq!(states.len(), 2);
    }
}
