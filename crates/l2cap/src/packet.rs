//! L2CAP framing (Fig. 3 of the paper).
//!
//! A transmitted L2CAP packet consists of the basic header — `PAYLOAD LEN`
//! and `HEADER CID` — followed by the payload; on the signalling channel
//! (CID `0x0001`) the payload is a C-frame carrying `CODE`, `ID`,
//! `DATA LEN` and the command's data fields.
//!
//! [`L2capFrame`], [`SignalingPacket`] and [`SignalingView`] keep the
//! *declared* length fields separate from the bytes actually carried.  This
//! matters for a fuzzer: the paper's mutation example (Fig. 7) appends
//! garbage to the tail of a Configure Request without touching the dependent
//! length fields, so a malformed packet routinely declares less data than it
//! carries.  The codec must be able to represent, emit and re-parse such
//! packets byte-exactly.
//!
//! A [`SignalingPacket`] owns its data and is what the fuzzers build and
//! transmit.  Every reader of received or captured signalling bytes — the
//! simulated acceptor, reply classification, the sniffer — gets a
//! [`SignalingView`] from [`parse_signaling`] instead: the C-frame read in
//! place, its data a borrow of the frame's payload, so reading a record
//! copies no bytes.

use btcore::{ByteReader, Cid, CodecError, FrameBuf, Identifier};
use serde::{Deserialize, Serialize};

use crate::command::Command;

/// Default signalling MTU (bytes) used by the simulated stacks and by the
/// garbage-length bound of core-field mutation.
pub const DEFAULT_SIGNALING_MTU: u16 = 672;

/// Minimum signalling MTU every implementation must support on ACL-U links.
pub const MIN_SIGNALING_MTU: u16 = 48;

/// Maximum size of an L2CAP payload (the `PAYLOAD LEN` field is 16 bits).
pub const MAX_PAYLOAD_LEN: usize = 65_535;

/// An L2CAP basic-header frame: declared payload length, channel ID and the
/// payload bytes actually present.
///
/// The payload is a [`FrameBuf`]: cloning a frame (for a tap record, a queue
/// outcome or a response fan-out) never allocates, and
/// [`L2capFrame::parse_buf`] yields a payload that is a view into the parsed
/// buffer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct L2capFrame {
    /// The `PAYLOAD LEN` field as transmitted (may disagree with
    /// `payload.len()` in malformed packets).
    pub declared_payload_len: u16,
    /// The `HEADER CID` field — `0x0001` for signalling traffic.
    pub cid: Cid,
    /// Payload bytes actually carried.
    pub payload: FrameBuf,
}

impl L2capFrame {
    /// Builds a well-formed frame whose declared length matches the payload.
    #[inline]
    pub fn new(cid: Cid, payload: impl Into<FrameBuf>) -> Self {
        let payload = payload.into();
        L2capFrame {
            declared_payload_len: payload.len() as u16,
            cid,
            payload,
        }
    }

    /// Returns `true` if the declared payload length matches the bytes
    /// actually carried.
    #[inline]
    pub fn is_length_consistent(&self) -> bool {
        usize::from(self.declared_payload_len) == self.payload.len()
    }

    /// Serializes the frame: declared length, CID, then the payload bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.payload.len());
        self.encode_into(&mut out);
        out
    }

    /// Serializes the frame into `out` (cleared first).  Lets transmit hot
    /// paths reuse one scratch buffer instead of allocating per frame.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(4 + self.payload.len());
        out.extend_from_slice(&self.declared_payload_len.to_le_bytes());
        out.extend_from_slice(&self.cid.value().to_le_bytes());
        out.extend_from_slice(&self.payload);
    }

    /// Parses a frame from raw bytes.  The payload is everything after the
    /// 4-byte basic header, regardless of the declared length.
    ///
    /// The payload bytes are copied; when the input already lives in a
    /// [`FrameBuf`], prefer [`L2capFrame::parse_buf`], which borrows them.
    ///
    /// # Errors
    /// Returns [`CodecError::UnexpectedEnd`] if fewer than four header bytes
    /// are present.
    pub fn parse(bytes: &[u8]) -> Result<L2capFrame, CodecError> {
        let mut r = ByteReader::new(bytes);
        let declared_payload_len = r.read_u16()?;
        let cid = Cid(r.read_u16()?);
        let payload = FrameBuf::copy_from_slice(r.read_rest());
        Ok(L2capFrame {
            declared_payload_len,
            cid,
            payload,
        })
    }

    /// View variant of [`L2capFrame::parse`]: the returned frame's payload
    /// is a slice of `bytes` (sharing its allocation when it has one).  The
    /// two parse paths are byte-for-byte equivalent on every input.
    ///
    /// # Errors
    /// Returns [`CodecError::UnexpectedEnd`] if fewer than four header bytes
    /// are present.
    pub fn parse_buf(bytes: &FrameBuf) -> Result<L2capFrame, CodecError> {
        let mut r = ByteReader::new(bytes);
        let declared_payload_len = r.read_u16()?;
        let cid = Cid(r.read_u16()?);
        Ok(L2capFrame {
            declared_payload_len,
            cid,
            payload: bytes.slice(4..),
        })
    }

    /// Total number of bytes this frame occupies on the air.
    #[inline]
    pub fn wire_len(&self) -> usize {
        4 + self.payload.len()
    }
}

/// A signalling C-frame payload: command code, identifier, declared data
/// length and the data-field bytes actually carried.
///
/// Like [`L2capFrame::payload`], the data field is a [`FrameBuf`], so cloning
/// a packet never allocates.  Readers of received bytes use the borrowing
/// [`SignalingView`] instead; [`SignalingPacket::view`] reads an owned packet
/// the same way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignalingPacket {
    /// The packet identifier matching responses to requests.
    pub identifier: Identifier,
    /// Raw command code byte.
    pub code: u8,
    /// The `DATA LEN` field as transmitted (may disagree with `data.len()`).
    pub declared_data_len: u16,
    /// Data-field bytes actually carried (including any appended garbage).
    pub data: FrameBuf,
}

impl SignalingPacket {
    /// Builds a well-formed signalling packet for `command`.  Its data is a
    /// view into the encoded C-frame, so framing it needs no second encoding.
    pub fn new(identifier: Identifier, command: Command) -> Self {
        let wire = encode_c_frame(identifier, &command);
        SignalingPacket {
            identifier,
            code: command.code_byte(),
            declared_data_len: (wire.len() - 4) as u16,
            data: wire.slice(4..),
        }
    }

    /// Builds a packet from raw parts, declaring exactly `data.len()`.
    pub fn from_raw(identifier: Identifier, code: u8, data: impl Into<FrameBuf>) -> Self {
        let data = data.into();
        SignalingPacket {
            identifier,
            code,
            declared_data_len: data.len() as u16,
            data,
        }
    }

    /// This packet read as a [`SignalingView`] of its own data.
    #[inline]
    pub fn view(&self) -> SignalingView<'_> {
        SignalingView {
            identifier: self.identifier,
            code: self.code,
            declared_data_len: self.declared_data_len,
            data: &self.data,
        }
    }

    /// Decodes the typed command carried by this packet (see
    /// [`SignalingView::command`]).
    pub fn command(&self) -> Command {
        self.view().command()
    }

    /// Returns `true` if the declared data length matches the data actually
    /// carried.
    #[inline]
    pub fn is_length_consistent(&self) -> bool {
        self.view().is_length_consistent()
    }

    /// The number of garbage bytes appended to this packet (see
    /// [`SignalingView::garbage_len`]).
    pub fn garbage_len(&self) -> usize {
        self.view().garbage_len()
    }

    /// Serializes the C-frame: code, identifier, declared length, data bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Serializes the C-frame into `out` (cleared first); the single
    /// serialization path every other encoder of this packet goes through.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(4 + self.data.len());
        out.push(self.code);
        out.push(self.identifier.value());
        out.extend_from_slice(&self.declared_data_len.to_le_bytes());
        out.extend_from_slice(&self.data);
    }

    /// Parses a C-frame from raw bytes into an owned packet: the data field
    /// is a copy of everything after the 4-byte command header, regardless
    /// of the declared length.  [`SignalingView::parse`] reads the same
    /// fields without copying.
    ///
    /// # Errors
    /// Returns [`CodecError::UnexpectedEnd`] if fewer than four header bytes
    /// are present.
    pub fn parse(bytes: &[u8]) -> Result<SignalingPacket, CodecError> {
        let view = SignalingView::parse(bytes)?;
        Ok(SignalingPacket {
            identifier: view.identifier,
            code: view.code,
            declared_data_len: view.declared_data_len,
            data: FrameBuf::copy_from_slice(view.data),
        })
    }

    /// Wraps this signalling packet in an L2CAP frame on the signalling
    /// channel, with consistent length fields.
    pub fn into_frame(self) -> L2capFrame {
        self.to_frame()
    }

    /// When this packet's data is a slice four bytes into a buffer whose
    /// preceding bytes are exactly the C-frame header the current field
    /// values encode to, returns that whole buffer: re-framing is then a
    /// widening of the data view, with no encoding.  This holds for every
    /// packet produced by [`SignalingPacket::new`] and for mutator output,
    /// unless a field was modified afterwards (the header comparison catches
    /// that and the caller falls back to encoding).
    fn cached_wire(&self) -> Option<FrameBuf> {
        let whole = self.data.widen_front(4)?;
        let header = &whole[..4];
        (header[0] == self.code
            && header[1] == self.identifier.value()
            && header[2..4] == self.declared_data_len.to_le_bytes())
        .then_some(whole)
    }

    /// Borrowing variant of [`SignalingPacket::into_frame`]: builds the frame
    /// without consuming the packet, and without encoding it again when the
    /// packet still carries its wire form (see [`SignalingPacket::new`]).
    /// This is the transmit hot path; it never allocates for a frame that
    /// fits inline.
    pub fn to_frame(&self) -> L2capFrame {
        let wire = self
            .cached_wire()
            .unwrap_or_else(|| FrameBuf::build(|out| self.encode_into(out)));
        L2capFrame::new(Cid::SIGNALING, wire)
    }

    /// Total number of bytes the C-frame occupies within the L2CAP payload.
    #[inline]
    pub fn wire_len(&self) -> usize {
        4 + self.data.len()
    }
}

/// A signalling C-frame read in place: the header fields of a
/// [`SignalingPacket`], with the data field borrowed from the bytes it was
/// parsed from.
///
/// Parsing a view copies nothing, so the per-packet readers — the simulated
/// acceptor, reply classification and every sniffer pass — read each C-frame
/// where it lies.  Like the owned packet, the view keeps the *declared* data
/// length separate from the data actually carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignalingView<'a> {
    /// The packet identifier matching responses to requests.
    pub identifier: Identifier,
    /// Raw command code byte.
    pub code: u8,
    /// The `DATA LEN` field as transmitted (may disagree with `data.len()`).
    pub declared_data_len: u16,
    /// Data-field bytes actually carried (including any appended garbage).
    pub data: &'a [u8],
}

impl<'a> SignalingView<'a> {
    /// Reads a C-frame in place; the data field is everything after the
    /// 4-byte command header, regardless of the declared length.
    ///
    /// # Errors
    /// Returns [`CodecError::UnexpectedEnd`] if fewer than four header bytes
    /// are present.
    #[inline]
    pub fn parse(bytes: &'a [u8]) -> Result<SignalingView<'a>, CodecError> {
        let mut r = ByteReader::new(bytes);
        let code = r.read_u8()?;
        let identifier = Identifier(r.read_u8()?);
        let declared_data_len = r.read_u16()?;
        Ok(SignalingView {
            identifier,
            code,
            declared_data_len,
            data: r.read_rest(),
        })
    }

    /// Returns `true` if the declared data length matches the data actually
    /// carried.
    #[inline]
    pub fn is_length_consistent(&self) -> bool {
        usize::from(self.declared_data_len) == self.data.len()
    }

    /// Estimates the number of garbage bytes appended to this packet: bytes
    /// beyond the command's defined fixed-size fields, or bytes beyond the
    /// declared data length, whichever detects more.  This mirrors how a
    /// receiving stack (and the trace analysis) recognises L2Fuzz's
    /// garbage-appending mutation, including on commands such as Configure
    /// Request whose last field is variable-length.
    pub fn garbage_len(&self) -> usize {
        let structural = crate::code::CommandCode::from_u8(self.code)
            .map(|code| crate::fields::garbage_len(code, self.data))
            .unwrap_or(0);
        let beyond_declared = self
            .data
            .len()
            .saturating_sub(usize::from(self.declared_data_len));
        structural.max(beyond_declared)
    }

    /// Total number of bytes the C-frame occupies within the L2CAP payload.
    pub fn wire_len(&self) -> usize {
        4 + self.data.len()
    }

    /// Decodes the typed command carried by this packet (never fails; see
    /// [`Command::decode`]).
    pub fn command(&self) -> Command {
        Command::decode(self.code, self.data)
    }
}

/// Builds the full signalling frame for a command in one call, skipping the
/// intermediate [`SignalingPacket`].
pub fn signaling_frame(identifier: Identifier, command: &Command) -> L2capFrame {
    L2capFrame::new(Cid::SIGNALING, encode_c_frame(identifier, command))
}

/// Encodes the whole C-frame — code, identifier, data length, data fields —
/// in one pass through the frame builder's scratch buffer.
fn encode_c_frame(identifier: Identifier, command: &Command) -> FrameBuf {
    FrameBuf::build(|buf| {
        buf.push(command.code_byte());
        buf.push(identifier.value());
        buf.extend_from_slice(&[0, 0]); // DATA LEN, patched once the length is known.
        command.encode_data_into(buf);
        let data_len = (buf.len() - 4) as u16;
        buf[2..4].copy_from_slice(&data_len.to_le_bytes());
    })
}

/// Reads the signalling packet of an L2CAP frame in place, if the frame is on
/// the signalling channel.  The returned view's data field borrows the
/// frame's payload: no byte is copied.
///
/// # Errors
/// Returns a [`CodecError`] if the frame is not on CID `0x0001` or its
/// payload is shorter than a C-frame header.
pub fn parse_signaling(frame: &L2capFrame) -> Result<SignalingView<'_>, CodecError> {
    if !frame.cid.is_signaling() {
        return Err(CodecError::InvalidValue {
            field: "header_cid".to_owned(),
            value: u64::from(frame.cid.value()),
        });
    }
    SignalingView::parse(&frame.payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{ConfigureRequest, ConnectionRequest};
    use crate::options::ConfigOption;
    use btcore::codec::hex_dump;
    use btcore::Psm;

    #[test]
    fn frame_roundtrip() {
        let frame = L2capFrame::new(Cid::SIGNALING, vec![0x08, 0x01, 0x00, 0x00]);
        let bytes = frame.to_bytes();
        let back = L2capFrame::parse(&bytes).unwrap();
        assert_eq!(frame, back);
        assert!(back.is_length_consistent());
        assert_eq!(back.wire_len(), bytes.len());
    }

    #[test]
    fn signaling_packet_roundtrip() {
        let cmd = Command::ConnectionRequest(ConnectionRequest {
            psm: Psm::SDP,
            scid: Cid(0x0040),
        });
        let pkt = SignalingPacket::new(Identifier(1), cmd.clone());
        let back = SignalingPacket::parse(&pkt.to_bytes()).unwrap();
        assert_eq!(pkt, back);
        assert_eq!(back.command(), cmd);
        assert!(back.is_length_consistent());
    }

    #[test]
    fn paper_fig7_original_packet_bytes() {
        // The well-formed Config Req of Fig. 7:
        // 0C 00 | 01 00 | 04 | 06 | 08 00 | 40 00 | 00 20 | 01 02 00 04
        let pkt = SignalingPacket {
            identifier: Identifier(0x06),
            code: 0x04,
            declared_data_len: 0x0008,
            data: vec![0x40, 0x00, 0x00, 0x20, 0x01, 0x02, 0x00, 0x04].into(),
        };
        let frame = L2capFrame::new(Cid::SIGNALING, pkt.to_bytes());
        assert_eq!(
            hex_dump(&frame.to_bytes()),
            "0C 00 01 00 04 06 08 00 40 00 00 20 01 02 00 04"
        );
    }

    #[test]
    fn malformed_packet_with_stale_lengths_roundtrips() {
        // The mutated Config Req of Fig. 7 keeps PAYLOAD LEN / DATA LEN at
        // their original values while the data grew by 4 garbage bytes.
        let pkt = SignalingPacket {
            identifier: Identifier(0x06),
            code: 0x04,
            declared_data_len: 0x0008,
            data: vec![
                0x8F, 0x7B, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xD2, 0x3A, 0x91, 0x0E,
            ]
            .into(),
        };
        assert!(!pkt.is_length_consistent());
        let frame = L2capFrame {
            declared_payload_len: 0x000C,
            cid: Cid::SIGNALING,
            payload: pkt.to_bytes().into(),
        };
        assert!(!frame.is_length_consistent());
        let wire = frame.to_bytes();
        assert_eq!(
            hex_dump(&wire),
            "0C 00 01 00 04 06 08 00 8F 7B 00 00 00 00 00 00 D2 3A 91 0E"
        );
        let back = L2capFrame::parse(&wire).unwrap();
        assert_eq!(back, frame);
        let sig = parse_signaling(&back).unwrap();
        assert_eq!(sig, pkt.view());
    }

    #[test]
    fn parse_signaling_rejects_non_signaling_cid() {
        let frame = L2capFrame::new(Cid(0x0040), vec![0x02, 0x01, 0x04, 0x00]);
        assert!(parse_signaling(&frame).is_err());
    }

    #[test]
    fn parse_requires_minimum_header() {
        assert!(L2capFrame::parse(&[0x01, 0x02, 0x03]).is_err());
        assert!(SignalingPacket::parse(&[0x01]).is_err());
        assert!(L2capFrame::parse(&[0x00, 0x00, 0x01, 0x00]).is_ok());
    }

    #[test]
    fn signaling_frame_helper_produces_consistent_lengths() {
        let cmd = Command::ConfigureRequest(ConfigureRequest {
            dcid: Cid(0x0040),
            flags: 0,
            options: vec![ConfigOption::Mtu(672)],
        });
        let frame = signaling_frame(Identifier(3), &cmd);
        assert!(frame.is_length_consistent());
        assert!(frame.cid.is_signaling());
        let sig = parse_signaling(&frame).unwrap();
        assert!(sig.is_length_consistent());
        assert_eq!(sig.command(), cmd);
        assert_eq!(sig.identifier, Identifier(3));
    }

    #[test]
    fn garbage_len_detects_both_kinds_of_tails() {
        // Fixed-size command with 4 extra bytes.
        let mut pkt = SignalingPacket::from_raw(Identifier(1), 0x02, vec![0x01, 0x00, 0x40, 0x00]);
        assert_eq!(pkt.garbage_len(), 0);
        let mut grown = pkt.data.to_vec();
        grown.extend_from_slice(&[1, 2, 3, 4]);
        pkt.data = grown.into();
        assert_eq!(pkt.garbage_len(), 4);

        // Variable-tail command (Config Req) with stale declared length, as
        // in the paper's Fig. 7 mutation.
        let pkt = SignalingPacket {
            identifier: Identifier(6),
            code: 0x04,
            declared_data_len: 8,
            data: vec![0x8F, 0x7B, 0, 0, 0, 0, 0, 0, 0xD2, 0x3A, 0x91, 0x0E].into(),
        };
        assert_eq!(pkt.garbage_len(), 4);

        // Well-formed Config Req with real options has no garbage.
        let cmd = Command::ConfigureRequest(ConfigureRequest {
            dcid: Cid(0x40),
            flags: 0,
            options: vec![ConfigOption::Mtu(672)],
        });
        assert_eq!(SignalingPacket::new(Identifier(2), cmd).garbage_len(), 0);
    }

    #[test]
    fn parse_buf_is_zero_copy_and_equivalent_to_parse() {
        // The Fig. 7 packet fits inline; the second carries an oversized
        // garbage tail and lives in a shared allocation.
        for garbage in [4, FrameBuf::INLINE_CAPACITY] {
            let mut data = vec![0x8F, 0x7B, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00];
            data.extend((0..garbage).map(|i| 0xD2 ^ i as u8));
            let pkt = SignalingPacket {
                identifier: Identifier(0x06),
                code: 0x04,
                declared_data_len: 0x0008,
                data: data.into(),
            };
            let wire = FrameBuf::from_vec(pkt.to_frame().to_bytes());
            let owned = L2capFrame::parse(&wire).unwrap();
            let shared = L2capFrame::parse_buf(&wire).unwrap();
            assert_eq!(owned, shared);
            let large = wire.len() > FrameBuf::INLINE_CAPACITY;
            assert_eq!(shared.payload.shares_storage_with(&wire), large);
            // The signalling layer reads the frame payload in place.
            let sig = parse_signaling(&shared).unwrap();
            assert_eq!(sig, pkt.view());
            assert!(std::ptr::eq(sig.data, &shared.payload[4..]));
        }
    }

    #[test]
    fn new_packets_and_helper_frames_carry_identical_wire_bytes() {
        let cmd = Command::ConfigureRequest(ConfigureRequest {
            dcid: Cid(0x0040),
            flags: 0,
            options: vec![ConfigOption::Mtu(672)],
        });
        let pkt = SignalingPacket::new(Identifier(9), cmd.clone());
        assert_eq!(pkt.data, cmd.encode_data());
        assert_eq!(pkt.to_frame(), signaling_frame(Identifier(9), &cmd));
        assert_eq!(pkt.to_frame().payload, pkt.to_bytes());
        // A packet edited after construction is encoded afresh.
        let mut edited = pkt.clone();
        edited.identifier = Identifier(10);
        assert_eq!(edited.to_frame().payload, edited.to_bytes());
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn constants_are_sane() {
        assert!(MIN_SIGNALING_MTU < DEFAULT_SIGNALING_MTU);
        assert_eq!(MAX_PAYLOAD_LEN, 0xFFFF);
    }
}
