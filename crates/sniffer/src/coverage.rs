//! Trace-replay state-coverage inference (paper §IV-D, Figs. 10–11).
//!
//! The paper measures how many of the 19 L2CAP states each fuzzer exercises
//! by analysing its packet trace with a protocol-reverse-engineering tool.
//! Here the equivalent is exact: the trace is replayed against the Bluetooth
//! 5.2 acceptor state machine (the same [`l2cap::state::StateMachine`] the
//! simulated targets run), creating one machine per channel the initiator
//! opens and feeding it every command addressed to it.  The union of states
//! visited by all machines is the fuzzer's state coverage.

use std::collections::BTreeSet;

use btcore::{Cid, LinkType};
use hci::link::Direction;
use l2cap::code::CommandCode;
use l2cap::command::Command;
use l2cap::packet::parse_signaling;
use l2cap::state::{ChannelState, StateMachine};

use crate::trace::Trace;

/// The set of L2CAP states a fuzzer's trace exercised on the target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateCoverage {
    covered: BTreeSet<ChannelState>,
}

impl StateCoverage {
    /// Replays a trace captured on a BR/EDR link and infers the covered
    /// states.
    pub fn from_trace(trace: &Trace) -> StateCoverage {
        StateCoverage::from_trace_on(trace, LinkType::BrEdr)
    }

    /// Replays a trace captured on a link of the given type.  The link type
    /// selects which side of the two-sided transition table the replay
    /// machines follow — an LE trace replays the credit-based channel flows.
    pub fn from_trace_on(trace: &Trace, link: LinkType) -> StateCoverage {
        let mut builder = CoverageBuilder::for_link(link);
        for record in trace.records() {
            builder.observe_frame(record.direction, &record.frame);
        }
        builder.finish()
    }

    /// The covered states in specification order.
    pub fn states(&self) -> Vec<ChannelState> {
        ChannelState::ALL
            .iter()
            .copied()
            .filter(|s| self.covered.contains(s))
            .collect()
    }

    /// Number of covered states (of 19).
    pub fn count(&self) -> usize {
        self.covered.len()
    }

    /// Returns `true` if the given state was covered.
    pub fn covers(&self, state: ChannelState) -> bool {
        self.covered.contains(&state)
    }

    /// Packs the covered-state set into a bitmask, one bit per
    /// [`ChannelState::ALL`] index (bit 0 = CLOSED).  Two traces that
    /// exercise the same states produce the same signature, which makes this
    /// the cheap half of the corpus dedup key ("Is Stateful Fuzzing Really
    /// Challenging?" uses exactly this clustering).
    pub fn signature(&self) -> u32 {
        ChannelState::ALL
            .iter()
            .enumerate()
            .filter(|(_, s)| self.covered.contains(s))
            .fold(0u32, |mask, (i, _)| mask | (1 << i))
    }

    /// Renders the Fig. 11-style matrix row: one `#` per covered state, `.`
    /// per uncovered state, in [`ChannelState::ALL`] order.
    pub fn matrix_row(&self) -> String {
        ChannelState::ALL
            .iter()
            .map(|s| if self.covered.contains(s) { '#' } else { '.' })
            .collect()
    }
}

/// Incremental state-coverage inference: records are fed one at a time (in
/// capture order) and the covered-state set is produced at the end.  The
/// single-pass trace analysis drives this alongside the metrics counters so
/// each record is parsed exactly once.
pub struct CoverageBuilder {
    link: LinkType,
    covered: BTreeSet<ChannelState>,
    /// One replay machine per channel, with an index from every CID seen on
    /// the wire (the initiator's SCID and the target's allocated DCID) to
    /// its machine — long traces open hundreds of channels, so the lookup
    /// must not scan them per record.
    channels: Vec<StateMachine>,
    cid_index: CidMap,
    /// Connection requests the target has not answered yet: the initiator
    /// CID announced and which connect-shaped command carried it.
    pending_connects: Vec<(u16, CommandCode)>,
    saw_tx_signaling: bool,
}

impl Default for CoverageBuilder {
    fn default() -> Self {
        CoverageBuilder::new()
    }
}

impl CoverageBuilder {
    /// Creates an empty builder for a BR/EDR trace.
    pub fn new() -> CoverageBuilder {
        CoverageBuilder::for_link(LinkType::BrEdr)
    }

    /// Creates an empty builder replaying against the given link type's side
    /// of the transition table.
    pub fn for_link(link: LinkType) -> CoverageBuilder {
        CoverageBuilder {
            link,
            covered: BTreeSet::new(),
            channels: Vec::new(),
            cid_index: CidMap::new(),
            pending_connects: Vec::new(),
            saw_tx_signaling: false,
        }
    }

    /// Feeds one captured frame (parsing its signalling payload internally).
    pub fn observe_frame(&mut self, direction: Direction, frame: &l2cap::packet::L2capFrame) {
        if !frame.cid.is_signaling() {
            return;
        }
        if direction == Direction::Tx {
            self.saw_tx_signaling = true;
        }
        if let Ok(packet) = parse_signaling(frame) {
            self.observe(direction, &packet);
        }
    }

    /// Feeds one already-parsed signalling record.  Callers must have
    /// reported non-parsing transmitted signalling frames through
    /// [`CoverageBuilder::observe_frame`] (or [`CoverageBuilder::saw_tx_signaling`])
    /// for the CLOSED-state rule to hold.
    pub fn observe(&mut self, direction: Direction, packet: &l2cap::packet::SignalingPacket) {
        let Some(code) = CommandCode::from_u8(packet.code) else {
            return;
        };
        // Only the four connect-shaped commands ever need their typed form;
        // every other record is replayed from code + core fields alone,
        // skipping command decoding (this runs per record of every trace).
        match direction {
            Direction::Tx => {
                let mut settled = false;
                if self.is_connect_shaped(code) {
                    match Command::decode_opt(packet.code, &packet.data) {
                        Some(Command::ConnectionRequest(req)) => {
                            self.pending_connects.push((req.scid.value(), code));
                            settled = true;
                        }
                        Some(Command::CreateChannelRequest(req)) => {
                            self.pending_connects.push((req.scid.value(), code));
                            settled = true;
                        }
                        Some(Command::LeCreditBasedConnectionRequest(req)) => {
                            self.pending_connects.push((req.scid.value(), code));
                            settled = true;
                        }
                        Some(Command::CreditBasedConnectionRequest(req)) => {
                            // An enhanced request opens several channels at
                            // once; the replay follows its first channel
                            // (one machine per exchange suffices for state
                            // coverage).
                            let scid = req.scids.first().map(|c| c.value()).unwrap_or(0);
                            self.pending_connects.push((scid, code));
                            settled = true;
                        }
                        _ => {}
                    }
                }
                if !settled {
                    // Link-level commands (echo/information on BR/EDR, the
                    // connection-parameter update on LE, rejects on both)
                    // are handled outside the channel state machines by
                    // every stack; only channel commands advance a machine.
                    let link_level = match self.link {
                        LinkType::BrEdr => matches!(
                            code,
                            CommandCode::EchoRequest
                                | CommandCode::EchoResponse
                                | CommandCode::InformationRequest
                                | CommandCode::InformationResponse
                                | CommandCode::CommandReject
                        ),
                        LinkType::Le => matches!(
                            code,
                            CommandCode::ConnectionParameterUpdateRequest
                                | CommandCode::ConnectionParameterUpdateResponse
                                | CommandCode::CommandReject
                        ),
                    };
                    if link_level {
                        return;
                    }
                    let core = l2cap::fields::extract_core_values(code, &packet.data);
                    let machine = resolve_machine(&mut self.channels, &self.cid_index, &core.cidp);
                    if let Some(machine) = machine {
                        machine.advance(code, true);
                    }
                }
            }
            Direction::Rx => {
                if self.is_connect_response(code) {
                    match Command::decode_opt(packet.code, &packet.data) {
                        Some(Command::ConnectionResponse(rsp)) => {
                            self.settle_connect(
                                Some(rsp.scid),
                                rsp.dcid,
                                rsp.result.is_refusal(),
                                CommandCode::ConnectionRequest,
                            );
                        }
                        Some(Command::CreateChannelResponse(rsp)) => {
                            self.settle_connect(
                                Some(rsp.scid),
                                rsp.dcid,
                                rsp.result.is_refusal(),
                                CommandCode::CreateChannelRequest,
                            );
                        }
                        // The LE responses do not echo the initiator CID, so
                        // they settle the oldest pending request of their
                        // kind.
                        Some(Command::LeCreditBasedConnectionResponse(rsp)) => {
                            self.settle_connect(
                                None,
                                rsp.dcid,
                                rsp.result != 0,
                                CommandCode::LeCreditBasedConnectionRequest,
                            );
                        }
                        Some(Command::CreditBasedConnectionResponse(rsp)) => {
                            let dcid = rsp.dcids.first().copied().unwrap_or(Cid::NULL);
                            self.settle_connect(
                                None,
                                dcid,
                                rsp.result != 0 && rsp.dcids.is_empty(),
                                CommandCode::CreditBasedConnectionRequest,
                            );
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    /// Returns `true` for the connect-shaped requests of this link type.
    fn is_connect_shaped(&self, code: CommandCode) -> bool {
        match self.link {
            LinkType::BrEdr => matches!(
                code,
                CommandCode::ConnectionRequest | CommandCode::CreateChannelRequest
            ),
            LinkType::Le => matches!(
                code,
                CommandCode::LeCreditBasedConnectionRequest
                    | CommandCode::CreditBasedConnectionRequest
            ),
        }
    }

    /// Returns `true` for the responses that settle a pending connect.
    fn is_connect_response(&self, code: CommandCode) -> bool {
        match self.link {
            LinkType::BrEdr => matches!(
                code,
                CommandCode::ConnectionResponse | CommandCode::CreateChannelResponse
            ),
            LinkType::Le => matches!(
                code,
                CommandCode::LeCreditBasedConnectionResponse
                    | CommandCode::CreditBasedConnectionResponse
            ),
        }
    }

    /// Settles a pending connect: a refusal walks a transient machine
    /// through the deciding state; a success opens a replay machine and
    /// indexes both CIDs of the exchange.  `scid` is `None` for the LE
    /// responses, which do not echo the initiator CID — the oldest pending
    /// request of `request_code`'s kind is matched instead.
    fn settle_connect(
        &mut self,
        scid: Option<Cid>,
        dcid: Cid,
        refused: bool,
        request_code: CommandCode,
    ) {
        let pos = self.pending_connects.iter().position(|(s, c)| {
            *c == request_code && scid.map(|scid| *s == scid.value()).unwrap_or(true)
        });
        let pending_scid = match pos {
            Some(pos) => Some(self.pending_connects.remove(pos).0),
            None => None,
        };
        if refused {
            // A refused request still exercises the deciding state on the
            // target.
            let mut machine = StateMachine::for_link(self.link);
            machine.advance(request_code, false);
            self.covered.extend(machine.visited().iter().copied());
            return;
        }
        let mut machine = StateMachine::for_link(self.link);
        machine.advance(request_code, true);
        let idx = self.channels.len();
        self.channels.push(machine);
        // First mapping wins: a reused CID keeps routing to the earliest
        // channel that carried it, exactly as an in-order list scan would.
        let scid = scid.map(|c| c.value()).or(pending_scid);
        if let Some(scid) = scid {
            self.cid_index.insert_first(scid, idx);
        }
        self.cid_index.insert_first(dcid.value(), idx);
    }

    /// Marks that at least one signalling frame was transmitted (exercising
    /// the CLOSED state), for callers feeding pre-parsed packets.
    pub fn saw_tx_signaling(&mut self) {
        self.saw_tx_signaling = true;
    }

    /// Packs the states covered *so far* into the same bitmask
    /// [`StateCoverage::signature`] produces, without consuming the builder.
    /// A feedback loop polls this after every transmitted packet to decide
    /// whether the packet reached anything new; the builder keeps replaying
    /// subsequent records as if the snapshot never happened.
    pub fn signature_snapshot(&self) -> u32 {
        let mut mask = ChannelState::ALL
            .iter()
            .enumerate()
            .filter(|(_, s)| self.covered.contains(s))
            .fold(0u32, |mask, (i, _)| mask | (1 << i));
        if self.saw_tx_signaling {
            mask |= 1 << ChannelState::Closed.index();
        }
        for machine in &self.channels {
            for state in machine.visited() {
                mask |= 1 << state.index();
            }
        }
        mask
    }

    /// Produces the covered-state set.
    pub fn finish(mut self) -> StateCoverage {
        // The CLOSED state is exercised as soon as any signalling packet is
        // sent at all.
        if self.saw_tx_signaling {
            self.covered.insert(ChannelState::Closed);
        }
        for machine in &self.channels {
            self.covered.extend(machine.visited().iter().copied());
        }
        StateCoverage {
            covered: self.covered,
        }
    }
}

/// Minimal open-addressing map from a 16-bit CID to a channel index, with
/// first-insert-wins semantics.  Replaying a long trace performs a handful of
/// lookups per record, so this avoids both `HashMap`'s SipHash cost and a
/// linear scan over hundreds of opened channels.
struct CidMap {
    // (cid, index) pairs; `index == u32::MAX` marks an empty slot.
    slots: Vec<(u16, u32)>,
    len: usize,
}

impl CidMap {
    const EMPTY: u32 = u32::MAX;

    fn new() -> CidMap {
        CidMap {
            slots: vec![(0, Self::EMPTY); 64],
            len: 0,
        }
    }

    fn bucket(&self, cid: u16) -> usize {
        // Fibonacci hashing; slot count is a power of two.
        (u64::from(cid).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & (self.slots.len() - 1)
    }

    fn get(&self, cid: u16) -> Option<usize> {
        let mut i = self.bucket(cid);
        loop {
            let (key, idx) = self.slots[i];
            if idx == Self::EMPTY {
                return None;
            }
            if key == cid {
                return Some(idx as usize);
            }
            i = (i + 1) & (self.slots.len() - 1);
        }
    }

    /// Inserts `cid -> index` unless the CID is already mapped (the earliest
    /// channel keeps owning a reused CID).
    fn insert_first(&mut self, cid: u16, index: usize) {
        if self.len * 2 >= self.slots.len() {
            self.grow();
        }
        let mut i = self.bucket(cid);
        loop {
            let (key, idx) = self.slots[i];
            if idx == Self::EMPTY {
                self.slots[i] = (cid, index as u32);
                self.len += 1;
                return;
            }
            if key == cid {
                return;
            }
            i = (i + 1) & (self.slots.len() - 1);
        }
    }

    fn grow(&mut self) {
        let old = std::mem::replace(&mut self.slots, vec![(0, Self::EMPTY); 0]);
        self.slots = vec![(0, Self::EMPTY); old.len() * 2];
        self.len = 0;
        for (key, idx) in old {
            if idx != Self::EMPTY {
                self.insert_first(key, idx as usize);
            }
        }
    }
}

fn resolve_machine<'a>(
    channels: &'a mut [StateMachine],
    cid_index: &CidMap,
    cidp: &[u16],
) -> Option<&'a mut StateMachine> {
    // Find a channel whose known CIDs intersect the packet's CIDP values
    // (first CIDP value wins, matching the old first-channel-in-open-order
    // scan because channel indices grow monotonically); otherwise fall back
    // to the most recently opened channel, mirroring the lenient routing of
    // real stacks.
    let idx = cidp
        .iter()
        .filter_map(|v| cid_index.get(*v))
        .min()
        .or_else(|| channels.len().checked_sub(1))?;
    Some(&mut channels[idx])
}

#[cfg(test)]
mod tests {
    use super::*;
    use btcore::{Identifier, Psm};
    use hci::link::PacketRecord;
    use l2cap::command::{
        ConfigureRequest, ConfigureResponse, ConnectionRequest, ConnectionResponse,
        DisconnectionRequest,
    };
    use l2cap::consts::{ConfigureResult, ConnectionResult};
    use l2cap::packet::signaling_frame;

    fn tx(ts: u64, cmd: Command) -> PacketRecord {
        PacketRecord {
            direction: Direction::Tx,
            timestamp_micros: ts,
            frame: signaling_frame(Identifier(1), &cmd),
        }
    }

    fn rx(ts: u64, cmd: Command) -> PacketRecord {
        PacketRecord {
            direction: Direction::Rx,
            timestamp_micros: ts,
            frame: signaling_frame(Identifier(1), &cmd),
        }
    }

    fn connect_exchange(scid: u16, dcid: u16, base_ts: u64) -> Vec<PacketRecord> {
        vec![
            tx(
                base_ts,
                Command::ConnectionRequest(ConnectionRequest {
                    psm: Psm::SDP,
                    scid: Cid(scid),
                }),
            ),
            rx(
                base_ts + 1,
                Command::ConnectionResponse(ConnectionResponse {
                    dcid: Cid(dcid),
                    scid: Cid(scid),
                    result: ConnectionResult::Success,
                    status: 0,
                }),
            ),
        ]
    }

    #[test]
    fn empty_trace_covers_nothing() {
        let cov = StateCoverage::from_trace(&Trace::new());
        assert_eq!(cov.count(), 0);
        assert_eq!(cov.matrix_row(), ".".repeat(19));
    }

    #[test]
    fn a_single_connect_covers_the_connection_path() {
        let trace = Trace::from_records(connect_exchange(0x0040, 0x0041, 0));
        let cov = StateCoverage::from_trace(&trace);
        assert!(cov.covers(ChannelState::Closed));
        assert!(cov.covers(ChannelState::WaitConnect));
        assert!(cov.covers(ChannelState::WaitConfig));
        assert!(!cov.covers(ChannelState::WaitConfigReqRsp));
        assert!(!cov.covers(ChannelState::Open));
        assert_eq!(cov.count(), 3);
    }

    #[test]
    fn full_handshake_and_disconnect_cover_seven_states() {
        let mut records = connect_exchange(0x0040, 0x0041, 0);
        records.push(tx(
            10,
            Command::ConfigureRequest(ConfigureRequest {
                dcid: Cid(0x0041),
                flags: 0,
                options: vec![],
            }),
        ));
        records.push(tx(
            20,
            Command::ConfigureResponse(ConfigureResponse {
                scid: Cid(0x0041),
                flags: 0,
                result: ConfigureResult::Success,
                options: vec![],
            }),
        ));
        records.push(tx(
            30,
            Command::DisconnectionRequest(DisconnectionRequest {
                dcid: Cid(0x0041),
                scid: Cid(0x0040),
            }),
        ));
        let cov = StateCoverage::from_trace(&Trace::from_records(records));
        assert!(cov.covers(ChannelState::Open));
        assert!(cov.covers(ChannelState::WaitDisconnect));
        assert!(cov.covers(ChannelState::WaitConfigRsp));
        assert_eq!(cov.count(), 7, "covered: {:?}", cov.states());
    }

    #[test]
    fn refused_connection_still_covers_wait_connect() {
        let records = vec![
            tx(
                0,
                Command::ConnectionRequest(ConnectionRequest {
                    psm: Psm(0x0F0F),
                    scid: Cid(0x0040),
                }),
            ),
            rx(
                1,
                Command::ConnectionResponse(ConnectionResponse {
                    dcid: Cid::NULL,
                    scid: Cid(0x0040),
                    result: ConnectionResult::RefusedPsmNotSupported,
                    status: 0,
                }),
            ),
        ];
        let cov = StateCoverage::from_trace(&Trace::from_records(records));
        assert!(cov.covers(ChannelState::Closed));
        assert!(cov.covers(ChannelState::WaitConnect));
        assert!(!cov.covers(ChannelState::WaitConfig));
        assert_eq!(cov.count(), 2);
    }

    #[test]
    fn signature_packs_one_bit_per_canonical_state() {
        assert_eq!(StateCoverage::from_trace(&Trace::new()).signature(), 0);
        let trace = Trace::from_records(connect_exchange(0x0040, 0x0041, 0));
        let cov = StateCoverage::from_trace(&trace);
        let mask = cov.signature();
        assert_eq!(mask.count_ones() as usize, cov.count());
        // CLOSED is bit 0 of the canonical ordering.
        assert_eq!(mask & 1, 1);
    }

    #[test]
    fn matrix_row_marks_covered_states() {
        let trace = Trace::from_records(connect_exchange(0x0040, 0x0041, 0));
        let cov = StateCoverage::from_trace(&trace);
        let row = cov.matrix_row();
        assert_eq!(row.len(), 19);
        assert_eq!(row.chars().filter(|c| *c == '#').count(), cov.count());
        // CLOSED is the first state in the canonical ordering.
        assert!(row.starts_with('#'));
    }
}
