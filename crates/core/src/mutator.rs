//! Phase 3 — core field mutating (§III-D, Algorithm 1, Fig. 7).
//!
//! For each command valid in the current state, the mutator builds packets
//! whose *fixed* and *dependent* fields are kept intact, whose *mutable
//! application* fields keep their default values, and whose *mutable core*
//! fields are replaced: PSM values are drawn from the abnormal ranges of
//! Table IV, channel-ID-in-payload values from the normal dynamic range while
//! deliberately ignoring what the target allocated.  Finally a bounded
//! garbage tail is appended without updating the dependent length fields —
//! exactly the mutation of the paper's Fig. 7 example.

use btcore::{Cid, FrameBuf, FrameWriter, FuzzRng, Identifier, LinkType};
use l2cap::code::CommandCode;
use l2cap::fields::{self, FieldClass, FieldName};
use l2cap::packet::{L2capFrame, SignalingPacket};
use l2cap::ranges;

use crate::guide::ChannelContext;

/// The core-field mutator.
///
/// Each test packet is written once, in place, as the C-frame payload of the
/// [`L2capFrame`] it is sent in ([`FrameBuf::build`]), so a steady-state
/// campaign performs no per-packet allocation or copy here.
#[derive(Debug)]
pub struct CoreFieldMutator {
    rng: FuzzRng,
    core_fields_only: bool,
    append_garbage: bool,
    max_garbage_len: usize,
    /// The transport the generated packets target.  On an LE link the
    /// credit-based channel fields (SPSM, MTU/MPS, credits) become the
    /// mutation surface alongside the core CIDP fields; on BR/EDR they stay
    /// at defaults, exactly as the paper's technique prescribes.
    link: LinkType,
    /// When set (BR/EDR only), Configuration Requests additionally carry a
    /// retransmission-and-flow-control option selecting ERTM or streaming
    /// mode with abnormal parameters.
    mutate_config_options: bool,
}

impl CoreFieldMutator {
    /// Creates a mutator following the paper's technique (BR/EDR link).
    pub fn new(rng: FuzzRng) -> Self {
        CoreFieldMutator {
            rng,
            core_fields_only: true,
            append_garbage: true,
            max_garbage_len: 16,
            link: LinkType::BrEdr,
            mutate_config_options: false,
        }
    }

    /// Creates a mutator with explicit ablation switches (see
    /// [`crate::config::FuzzConfig`]).
    pub fn with_options(
        rng: FuzzRng,
        core_fields_only: bool,
        append_garbage: bool,
        max_garbage_len: usize,
    ) -> Self {
        CoreFieldMutator {
            core_fields_only,
            append_garbage,
            max_garbage_len,
            ..CoreFieldMutator::new(rng)
        }
    }

    /// Sets the transport the generated packets target.
    pub fn set_link(&mut self, link: LinkType) {
        self.link = link;
    }

    /// Enables ERTM/streaming-mode option mutation on Configuration
    /// Requests (BR/EDR links only; a no-op on LE where the command does
    /// not exist).
    pub fn set_config_option_mutation(&mut self, enabled: bool) {
        self.mutate_config_options = enabled;
    }

    /// Builds one malformed packet for `code` in the given channel context
    /// (Algorithm 1, inner loop body), as the signalling frame it is sent
    /// in.
    pub fn mutate(
        &mut self,
        code: CommandCode,
        ctx: &ChannelContext,
        identifier: Identifier,
    ) -> L2capFrame {
        signaling(FrameBuf::build(|buf| {
            self.write_mutation(buf, code, ctx, identifier)
        }))
    }

    /// Writes the full C-frame of one mutated packet into `buf` (handed over
    /// empty): four zero header bytes patched at the end, then the data
    /// fields.
    fn write_mutation(
        &mut self,
        buf: &mut FrameWriter,
        code: CommandCode,
        ctx: &ChannelContext,
        identifier: Identifier,
    ) {
        let spec_len = fields::min_data_len(code);
        buf.resize(4 + spec_len, 0);
        {
            let data = &mut buf[4..];
            for spec in fields::data_field_layout(code) {
                let Some(width) = spec.len else { continue };
                if spec.offset + width > data.len() {
                    continue;
                }
                match spec.class() {
                    FieldClass::MutableCore => {
                        // PSM <- random(abnormal); CIDP <- random(normal
                        // range), ignoring the dynamically allocated value.
                        let value = if spec.name == FieldName::Psm {
                            ranges::random_abnormal_psm(&mut self.rng)
                        } else {
                            ranges::random_cidp(&mut self.rng)
                        };
                        write_field(data, spec.offset, width, value);
                    }
                    FieldClass::MutableApp => {
                        if self.link.is_le() && width == 2 {
                            // On an LE link the credit-based channel fields
                            // are the interesting mutation surface: SPSM
                            // from outside the defined space, credits from
                            // the zero-stall/overflow classes, MTU/MPS below
                            // the 23-octet minimum.  Other MA fields keep
                            // their defaults.
                            let value = match spec.name {
                                FieldName::Spsm => {
                                    Some(ranges::random_abnormal_spsm(&mut self.rng))
                                }
                                FieldName::Credit => {
                                    Some(ranges::random_abnormal_credits(&mut self.rng))
                                }
                                FieldName::Mtu | FieldName::Mps => {
                                    Some(ranges::random_abnormal_le_mtu(&mut self.rng))
                                }
                                _ => None,
                            };
                            if let Some(value) = value {
                                write_field(data, spec.offset, width, value);
                            } else if !self.core_fields_only {
                                let value = self.rng.next_u16();
                                write_field(data, spec.offset, width, value);
                            }
                        } else if self.core_fields_only {
                            // MA fields keep their default values (zeros
                            // encode "success"/"no flags"/"no info").
                        } else {
                            // Ablation: dumb mutation of application fields
                            // too.
                            let value = self.rng.next_u16();
                            write_field(data, spec.offset, width, value);
                        }
                    }
                    FieldClass::Fixed | FieldClass::Dependent => {
                        // Never mutated: fixed fields keep their constants
                        // and dependent fields are derived below.
                    }
                }
            }
            // Keep the remote channel plausible when the command addresses
            // an open channel and the context has one: half of the packets
            // reuse the real DCID so deeper handling is reached, the other
            // half keep the random value (ignoring allocation), mirroring
            // the paper's "normal range while ignoring dynamic allocation".
            if ctx.has_channel() && self.rng.chance(0.5) {
                if let Some(spec) = fields::cidp_fields(code).next() {
                    if let Some(width) = spec.len {
                        write_field(data, spec.offset, width, ctx.dcid.value());
                    }
                }
            }
        }

        // ERTM/streaming-mode option mutation: a Configuration Request on a
        // classic link additionally carries a retransmission-and-flow-control
        // option whose mode selects ERTM (3) or streaming (4) with a zero
        // transmit window and a zero MPS — the abnormal parameter classes
        // real retransmission engines choke on.  The declared length covers
        // the option, so the packet stays length-consistent and survives
        // strict stacks' sanity filters.
        if self.mutate_config_options && !self.link.is_le() && code == CommandCode::ConfigureRequest
        {
            let mode = if self.rng.chance(0.5) { 3 } else { 4 };
            let retransmission_timeout = self.rng.next_u16();
            let monitor_timeout = self.rng.next_u16();
            buf.extend_from_slice(&[0x04, 0x09, mode, 0x00, 0x01]);
            buf.extend_from_slice(&retransmission_timeout.to_le_bytes());
            buf.extend_from_slice(&monitor_timeout.to_le_bytes());
            buf.extend_from_slice(&0u16.to_le_bytes());
        }

        let spec_declared_len = (buf.len() - 4) as u16;
        if self.append_garbage && self.max_garbage_len > 0 {
            let garbage_len = self.rng.range_usize(1, self.max_garbage_len);
            // Fill the tail in place instead of materializing a temporary
            // `Vec<u8>` per packet (this is the mutation hot path).
            let start = buf.len();
            buf.resize(start + garbage_len, 0);
            self.rng.fill_bytes(&mut buf[start..]);
        }
        let declared_data_len = if self.core_fields_only {
            spec_declared_len
        } else {
            // Ablation: dumb mutation also corrupts the dependent length
            // field, which conforming stacks answer with "command not
            // understood".
            self.rng.next_u16()
        };

        // Patch the C-frame header so the buffer holds the complete wire
        // form.
        buf[0] = code.value();
        buf[1] = identifier.value();
        buf[2..4].copy_from_slice(&declared_data_len.to_le_bytes());
    }

    /// Generates `n` malformed packets for every command in `commands`
    /// (Algorithm 1), using `identifiers` starting at `first_identifier`.
    pub fn generate(
        &mut self,
        commands: &[CommandCode],
        n: usize,
        ctx: &ChannelContext,
        mut identifier: Identifier,
    ) -> Vec<L2capFrame> {
        let mut out = Vec::with_capacity(commands.len() * n);
        for code in commands {
            for _ in 0..n {
                out.push(self.mutate(*code, ctx, identifier));
                identifier = identifier.next();
            }
        }
        out
    }

    /// Corpus replay: re-sends a retained packet's wire form (the
    /// `code, identifier, length, data` layout of
    /// [`SignalingPacket::to_bytes`]) with every mutable-core field drawn
    /// afresh.  Application fields, option tails and the garbage bytes of
    /// the retained packet are preserved — the parts that earned the packet
    /// its place in the corpus — while the PSM/CIDP surface is re-randomized
    /// exactly as [`CoreFieldMutator::mutate`] would.
    pub fn resend_with_field_mutation(
        &mut self,
        wire: &[u8],
        ctx: &ChannelContext,
        identifier: Identifier,
    ) -> L2capFrame {
        rebuild_wire(wire, identifier, |buf| {
            let Some(code) = CommandCode::from_u8(buf[0]) else {
                return;
            };
            let data = &mut buf[4..];
            for spec in fields::data_field_layout(code) {
                let Some(width) = spec.len else { continue };
                if spec.offset + width > data.len() {
                    continue;
                }
                if spec.class() == FieldClass::MutableCore {
                    let value = if spec.name == FieldName::Psm {
                        ranges::random_abnormal_psm(&mut self.rng)
                    } else {
                        ranges::random_cidp(&mut self.rng)
                    };
                    write_field(data, spec.offset, width, value);
                }
            }
            // Same plausible-channel rule as `mutate`: half the resends aim
            // at the channel the guide actually opened.
            if ctx.has_channel() && self.rng.chance(0.5) {
                if let Some(spec) = fields::cidp_fields(code).next() {
                    if let Some(width) = spec.len {
                        if spec.offset + width <= data.len() {
                            write_field(data, spec.offset, width, ctx.dcid.value());
                        }
                    }
                }
            }
        })
    }

    /// Corpus havoc: stacks one to three structure-blind edits (corrupt a
    /// data byte, truncate the tail, extend with fresh garbage) onto a
    /// retained packet's wire form.  The declared length bytes are left as
    /// retained, so edits that change the physical length produce the
    /// length-inconsistent shapes real parsers trip over.
    pub fn havoc(&mut self, wire: &[u8], identifier: Identifier) -> L2capFrame {
        rebuild_wire(wire, identifier, |buf| {
            let edits = self.rng.range_usize(1, 3);
            for _ in 0..edits {
                match self.rng.range_usize(0, 2) {
                    0 if buf.len() > 4 => {
                        let pos = self.rng.range_usize(4, buf.len() - 1);
                        let flip = self.rng.next_u8();
                        buf[pos] ^= flip;
                    }
                    1 if buf.len() > 5 => {
                        let keep = self.rng.range_usize(5, buf.len() - 1);
                        buf.truncate(keep);
                    }
                    _ => {
                        let extra = self.rng.range_usize(1, self.max_garbage_len.max(1));
                        let start = buf.len();
                        buf.resize(start + extra, 0);
                        self.rng.fill_bytes(&mut buf[start..]);
                    }
                }
            }
        })
    }

    /// Corpus splice: the head of `a`'s data glued to the tail of `b`'s
    /// data, under `a`'s command code and declared length.  Crossing over
    /// two packets that each reached something keeps both halves'
    /// interesting bytes in play.
    pub fn splice(&mut self, a: &[u8], b: &[u8], identifier: Identifier) -> L2capFrame {
        rebuild_wire(&a[..a.len().min(4)], identifier, |buf| {
            let data_a = if a.len() > 4 { &a[4..] } else { &[][..] };
            let data_b = if b.len() > 4 { &b[4..] } else { &[][..] };
            let cut_a = self.rng.range_usize(0, data_a.len());
            let cut_b = self.rng.range_usize(0, data_b.len());
            buf.extend_from_slice(&data_a[..cut_a]);
            buf.extend_from_slice(&data_b[cut_b..]);
        })
    }

    /// Reproduces the paper's Fig. 7 worked example: the original, well-formed
    /// Configure Request and the mutated packet with DCID forced to `0x7B8F`
    /// and the garbage tail `D2 3A 91 0E`.
    pub fn fig7_example() -> (SignalingPacket, SignalingPacket) {
        let original = SignalingPacket {
            identifier: Identifier(0x06),
            code: CommandCode::ConfigureRequest.value(),
            declared_data_len: 0x0008,
            data: vec![0x40, 0x00, 0x00, 0x20, 0x01, 0x02, 0x00, 0x04].into(),
        };
        let mutated = SignalingPacket {
            identifier: Identifier(0x06),
            code: CommandCode::ConfigureRequest.value(),
            declared_data_len: 0x0008,
            data: vec![
                0x8F, 0x7B, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xD2, 0x3A, 0x91, 0x0E,
            ]
            .into(),
        };
        (original, mutated)
    }
}

/// Rebuilds a retained wire form: `head` padded to a full C-frame header,
/// then `edit`, then the fresh identifier stamped in (the steps the three
/// corpus operators share).
fn rebuild_wire(
    head: &[u8],
    identifier: Identifier,
    edit: impl FnOnce(&mut FrameWriter),
) -> L2capFrame {
    signaling(FrameBuf::build(|buf| {
        buf.extend_from_slice(head);
        if buf.len() < 4 {
            buf.resize(4, 0);
        }
        edit(buf);
        buf[1] = identifier.value();
    }))
}

/// Sends a finished C-frame (at least four bytes) on the signalling
/// channel, its payload length consistent.
fn signaling(c_frame: FrameBuf) -> L2capFrame {
    L2capFrame::new(Cid::SIGNALING, c_frame)
}

fn write_field(data: &mut [u8], offset: usize, width: usize, value: u16) {
    if width == 1 {
        data[offset] = value as u8;
    } else {
        let bytes = value.to_le_bytes();
        data[offset] = bytes[0];
        data[offset + 1] = bytes[1];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btcore::codec::hex_dump;
    use btcore::Psm;
    use l2cap::command::Command;
    use l2cap::jobs::Job;
    use l2cap::packet::{parse_signaling, SignalingView};

    fn mutator() -> CoreFieldMutator {
        CoreFieldMutator::new(FuzzRng::seed_from(42))
    }

    /// The C-frame a mutated packet's frame carries, read in place.
    fn view(frame: &L2capFrame) -> SignalingView<'_> {
        assert!(frame.cid.is_signaling() && frame.is_length_consistent());
        parse_signaling(frame).expect("a mutated packet is a whole C-frame")
    }

    fn ctx_with_channel() -> ChannelContext {
        ChannelContext {
            scid: Cid(0x0040),
            dcid: Cid(0x0041),
            psm: Psm::SDP,
        }
    }

    #[test]
    fn mutated_connection_request_has_abnormal_psm_and_garbage() {
        let mut m = mutator();
        for i in 0..200u8 {
            let frame = m.mutate(
                CommandCode::ConnectionRequest,
                &ChannelContext::closed(Psm::SDP),
                Identifier(i.max(1)),
            );
            let pkt = view(&frame);
            assert_eq!(pkt.code, 0x02);
            let core = fields::extract_core_values(CommandCode::ConnectionRequest, pkt.data);
            assert!(ranges::is_abnormal_psm(core.psm.unwrap()));
            assert!(core.cidp.iter().all(|c| ranges::is_cidp_range(*c)));
            assert!(pkt.garbage_len() > 0, "garbage must be appended");
            assert!(pkt.garbage_len() <= 16);
            // Dependent fields are preserved: declared length = spec length.
            assert_eq!(pkt.declared_data_len, 4);
        }
    }

    #[test]
    fn mutated_packets_are_classified_as_malformed() {
        let mut m = mutator();
        for code in Job::Configuration.valid_commands() {
            let frame = m.mutate(code, &ctx_with_channel(), Identifier(1));
            assert!(
                sniffer_is_malformed(view(&frame)),
                "{code} mutation must look malformed"
            );
        }
    }

    // Minimal local re-implementation of the sniffer's notion of malformed
    // (garbage, abnormal PSM or broken structure) to avoid a circular
    // dev-dependency.
    fn sniffer_is_malformed(pkt: SignalingView<'_>) -> bool {
        if pkt.garbage_len() > 0 || !pkt.is_length_consistent() {
            return true;
        }
        let Some(code) = CommandCode::from_u8(pkt.code) else {
            return true;
        };
        let core = fields::extract_core_values(code, pkt.data);
        core.psm.map(ranges::is_abnormal_psm).unwrap_or(false)
            || matches!(pkt.command(), Command::Raw { .. })
    }

    #[test]
    fn application_fields_keep_defaults_in_core_only_mode() {
        let mut m = mutator();
        let frame = m.mutate(
            CommandCode::ConnectionResponse,
            &ChannelContext::closed(Psm::SDP),
            Identifier(1),
        );
        // Result and status (offsets 4..8) stay at default zero.
        assert_eq!(&view(&frame).data[4..8], &[0, 0, 0, 0]);
    }

    #[test]
    fn dumb_mutation_corrupts_dependent_fields() {
        let mut m = CoreFieldMutator::with_options(FuzzRng::seed_from(1), false, true, 8);
        let mut saw_wrong_len = false;
        for i in 1..=50u8 {
            let frame = m.mutate(
                CommandCode::ConnectionRequest,
                &ChannelContext::closed(Psm::SDP),
                Identifier(i),
            );
            if usize::from(view(&frame).declared_data_len) != 4 {
                saw_wrong_len = true;
            }
        }
        assert!(
            saw_wrong_len,
            "dumb mutation must corrupt the DATA LEN field"
        );
    }

    #[test]
    fn no_garbage_when_disabled() {
        let mut m = CoreFieldMutator::with_options(FuzzRng::seed_from(1), true, false, 16);
        let frame = m.mutate(
            CommandCode::ConnectionRequest,
            &ChannelContext::closed(Psm::SDP),
            Identifier(1),
        );
        let pkt = view(&frame);
        assert_eq!(pkt.garbage_len(), 0);
        assert!(pkt.is_length_consistent());
    }

    #[test]
    fn generate_produces_n_packets_per_command() {
        let mut m = mutator();
        let cmds = Job::Move.valid_commands();
        let packets = m.generate(&cmds, 5, &ctx_with_channel(), Identifier(1));
        assert_eq!(packets.len(), cmds.len() * 5);
        // Identifiers are all valid and advance.
        assert!(packets.iter().all(|p| view(p).identifier.is_valid()));
    }

    #[test]
    fn some_config_mutations_reuse_the_real_dcid() {
        let mut m = mutator();
        let ctx = ctx_with_channel();
        let packets = m.generate(&[CommandCode::ConfigureRequest], 64, &ctx, Identifier(1));
        let reused = packets
            .iter()
            .filter(|p| {
                fields::extract_core_values(CommandCode::ConfigureRequest, view(p).data)
                    .cidp
                    .contains(&ctx.dcid.value())
            })
            .count();
        assert!(
            reused > 0,
            "some packets should target the allocated channel"
        );
        assert!(reused < 64, "some packets should ignore the allocation");
    }

    #[test]
    fn le_mutation_draws_the_credit_based_fields_from_the_abnormal_ranges() {
        let mut m = mutator();
        m.set_link(btcore::LinkType::Le);
        for i in 0..200u8 {
            let frame = m.mutate(
                CommandCode::LeCreditBasedConnectionRequest,
                &ChannelContext::closed(Psm::EATT),
                Identifier(i.max(1)),
            );
            let pkt = view(&frame);
            let le =
                fields::extract_le_values(CommandCode::LeCreditBasedConnectionRequest, pkt.data);
            assert!(ranges::is_abnormal_spsm(le.spsm.unwrap()));
            assert!(ranges::is_abnormal_credits(le.credits.unwrap()));
            assert!(ranges::is_abnormal_le_mtu(le.mtu.unwrap()));
            assert!(ranges::is_abnormal_le_mtu(le.mps.unwrap()));
            // The CIDP field is still mutated like any core field.
            let core =
                fields::extract_core_values(CommandCode::LeCreditBasedConnectionRequest, pkt.data);
            assert!(core.cidp.iter().all(|c| ranges::is_cidp_range(*c)));
            assert!(pkt.garbage_len() > 0);
        }
    }

    #[test]
    fn bredr_mutation_of_le_commands_leaves_application_fields_at_defaults() {
        // On a classic link the LE credit fields are plain MA fields and must
        // stay zero, byte-identical to the pre-link-aware mutator.
        let mut m = mutator();
        let frame = m.mutate(
            CommandCode::LeCreditBasedConnectionRequest,
            &ChannelContext::closed(Psm::SDP),
            Identifier(1),
        );
        let pkt = view(&frame);
        // SPSM (0..2), MTU (4..6), MPS (6..8), credits (8..10) all default.
        assert_eq!(&pkt.data[0..2], &[0, 0]);
        assert_eq!(&pkt.data[4..10], &[0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn config_option_mutation_appends_an_abnormal_ertm_option() {
        use l2cap::options::ConfigOption;
        let mut m = mutator();
        m.set_config_option_mutation(true);
        let mut saw_ertm = false;
        let mut saw_streaming = false;
        for i in 1..=64u8 {
            let frame = m.mutate(
                CommandCode::ConfigureRequest,
                &ctx_with_channel(),
                Identifier(i),
            );
            let rfc = ConfigOption::scan_rfc_option(&view(&frame).data[4..])
                .expect("mutated config request must carry an RFC option");
            assert!(matches!(rfc.mode, 3 | 4), "mode must be ERTM or streaming");
            assert_eq!(rfc.tx_window, 0, "transmit window must be abnormal");
            assert_eq!(rfc.mps, 0, "MPS must be abnormal");
            saw_ertm |= rfc.mode == 3;
            saw_streaming |= rfc.mode == 4;
        }
        assert!(saw_ertm && saw_streaming, "both modes must be drawn");
        // Disabled (the default), no option is appended.
        let mut m = mutator();
        let frame = m.mutate(
            CommandCode::ConfigureRequest,
            &ctx_with_channel(),
            Identifier(1),
        );
        assert_eq!(ConfigOption::scan_rfc_option(&view(&frame).data[4..]), None);
    }

    #[test]
    fn fig7_example_matches_the_paper_bytes() {
        let (original, mutated) = CoreFieldMutator::fig7_example();
        assert_eq!(
            hex_dump(&original.to_frame().to_bytes()),
            "0C 00 01 00 04 06 08 00 40 00 00 20 01 02 00 04"
        );
        // The mutation leaves the dependent PAYLOAD LEN field untouched as
        // well, so the on-air frame keeps declaring 12 payload bytes.
        let mutated_frame = L2capFrame {
            declared_payload_len: 0x000C,
            cid: Cid::SIGNALING,
            payload: mutated.to_bytes().into(),
        };
        assert_eq!(
            hex_dump(&mutated_frame.to_bytes()),
            "0C 00 01 00 04 06 08 00 8F 7B 00 00 00 00 00 00 D2 3A 91 0E"
        );
        assert_eq!(mutated.garbage_len(), 4);
    }
}
