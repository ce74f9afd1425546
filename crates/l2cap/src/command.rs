//! Typed signalling command payloads.
//!
//! Every one of the 26 Bluetooth 5.2 signalling commands has a typed struct
//! here; [`Command`] wraps them in one enum.  Decoding is *loss-tolerant*:
//! undefined codes or truncated payloads decode to [`Command::Raw`] instead of
//! failing, because a fuzzer (and a fuzzed target) must be able to represent
//! arbitrary byte blobs.  Trailing bytes beyond a command's defined data
//! fields — exactly what L2Fuzz's garbage-appending mutation produces — are
//! tolerated on decode, mirroring how lenient real stacks parse such packets.
//!
//! Each command's wire format is written once, as one row of the command
//! table below: its fields in wire order, each with its type and its Fig. 6
//! [`FieldName`].  The table generates the struct, the command's arms of the
//! encoder, of [`Command::decode_opt`] and of [`Command::structurally_valid`],
//! and its `const` layout, which
//! [`fields::data_field_layout`](crate::fields::data_field_layout) returns
//! and the per-packet field table of [`fields`](crate::fields) is derived
//! from.  How each field type is written, read and checked is written once
//! too, per type.

use btcore::{ByteReader, ByteSink, Cid, Psm};

use crate::code::CommandCode;
use crate::consts::{ConfigureResult, ConnectionResult, MoveResult, RejectReason};
use crate::fields::{FieldName, FieldSpec};
use crate::options::ConfigOption;

/// A field type of the command table: its width on the wire, and how one
/// value is written, read and checked in place.
///
/// `read` and `check` are always inlined: the decoder and the validity check
/// are one large match each, in which the compiler otherwise leaves them out
/// of line, a call per field that measured slower than the hand-written
/// arms the table replaced.
trait Wire: Sized {
    /// Bytes the field takes; `None` for a tail that runs to the end of the
    /// data.
    const WIDTH: Option<usize>;

    /// Appends the value.
    fn write(&self, w: &mut impl ByteSink);

    /// Reads one value; `None` if the bytes do not hold one.
    fn read(r: &mut ByteReader<'_>) -> Option<Self>;

    /// Whether [`Wire::read`] accepts the field at `*at`, found without
    /// allocating; moves `*at` past the field.  `data` holds at least the
    /// command's fixed fields, so only codes and option lists need reading.
    #[inline(always)]
    fn check(_data: &[u8], at: &mut usize) -> bool {
        *at += Self::WIDTH.unwrap_or(0);
        true
    }
}

impl Wire for u8 {
    const WIDTH: Option<usize> = Some(1);

    fn write(&self, w: &mut impl ByteSink) {
        w.write_u8(*self);
    }

    #[inline(always)]
    fn read(r: &mut ByteReader<'_>) -> Option<u8> {
        r.read_u8().ok()
    }
}

impl Wire for u16 {
    const WIDTH: Option<usize> = Some(2);

    fn write(&self, w: &mut impl ByteSink) {
        w.write_u16(*self);
    }

    #[inline(always)]
    fn read(r: &mut ByteReader<'_>) -> Option<u16> {
        r.read_u16().ok()
    }
}

/// The identifiers, which wrap their 16-bit value.
macro_rules! wire_id {
    ($($id:ident),+) => {$(
        impl Wire for $id {
            const WIDTH: Option<usize> = Some(2);

            fn write(&self, w: &mut impl ByteSink) {
                w.write_u16(self.value());
            }

            #[inline(always)]
            fn read(r: &mut ByteReader<'_>) -> Option<$id> {
                r.read_u16().ok().map($id)
            }
        }
    )+};
}

wire_id!(Cid, Psm);

/// The reason and result codes: a value the specification does not define
/// reads as nothing, which makes the whole payload [`Command::Raw`].
macro_rules! wire_code {
    ($($code:ident),+) => {$(
        impl Wire for $code {
            const WIDTH: Option<usize> = Some(2);

            fn write(&self, w: &mut impl ByteSink) {
                w.write_u16(self.value());
            }

            #[inline(always)]
            fn read(r: &mut ByteReader<'_>) -> Option<$code> {
                $code::from_u16(r.read_u16().ok()?)
            }

            #[inline(always)]
            fn check(data: &[u8], at: &mut usize) -> bool {
                let field = data.get(*at..*at + 2).and_then(|b| <[u8; 2]>::try_from(b).ok());
                *at += 2;
                field.map(u16::from_le_bytes).and_then($code::from_u16).is_some()
            }
        }
    )+};
}

wire_code!(RejectReason, ConnectionResult, ConfigureResult, MoveResult);

/// A tail of channel IDs; an odd last byte is dropped.
impl Wire for Vec<Cid> {
    const WIDTH: Option<usize> = None;

    fn write(&self, w: &mut impl ByteSink) {
        for cid in self {
            cid.write(w);
        }
    }

    #[inline(always)]
    fn read(r: &mut ByteReader<'_>) -> Option<Vec<Cid>> {
        let mut cids = Vec::with_capacity(r.remaining() / 2);
        while r.remaining() >= 2 {
            cids.push(Cid::read(r)?);
        }
        Some(cids)
    }
}

/// A tail of configuration options, which must not end in a truncated one.
impl Wire for Vec<ConfigOption> {
    const WIDTH: Option<usize> = None;

    fn write(&self, w: &mut impl ByteSink) {
        for option in self {
            option.encode(w);
        }
    }

    #[inline(always)]
    fn read(r: &mut ByteReader<'_>) -> Option<Vec<ConfigOption>> {
        ConfigOption::decode_all(r).ok()
    }

    #[inline(always)]
    fn check(data: &[u8], at: &mut usize) -> bool {
        data.get(*at..)
            .is_some_and(ConfigOption::all_structurally_valid)
    }
}

/// A tail of opaque bytes.
impl Wire for Vec<u8> {
    const WIDTH: Option<usize> = None;

    fn write(&self, w: &mut impl ByteSink) {
        w.write_bytes(self);
    }

    #[inline(always)]
    fn read(r: &mut ByteReader<'_>) -> Option<Vec<u8>> {
        Some(r.read_rest().to_vec())
    }
}

/// Lays out fields of the given names and widths one after another.
const fn lay_out<const N: usize>(fields: [(FieldName, Option<usize>); N]) -> [FieldSpec; N] {
    let mut out = [FieldSpec {
        name: FieldName::Data,
        offset: 0,
        len: None,
    }; N];
    let mut offset = 0;
    let mut i = 0;
    while i < N {
        let (name, len) = fields[i];
        out[i] = FieldSpec { name, offset, len };
        if let Some(len) = len {
            offset += len;
        }
        i += 1;
    }
    out
}

/// Expands the command table.  A row is a [`CommandCode`] variant with its
/// doc and any extra derives, then its fields in wire order, each written
/// `name: Type => FieldName` under its doc.  The expansion yields the row's
/// struct, a [`Command`] variant of the same name, and the row's arm of
/// every per-command match; each match is over [`CommandCode`], so a code
/// without a row does not compile.
macro_rules! commands {
    ($(
        $(#[doc = $doc:literal])*
        $(#[derive($($derive:ident),+)])?
        $name:ident {
            $(
                $(#[doc = $field_doc:literal])*
                $field:ident: $ty:ty => $field_name:ident,
            )+
        }
    )+) => {
        $(
            $(#[doc = $doc])*
            #[derive(Debug, Clone, PartialEq, Eq $($(, $derive)+)?)]
            pub struct $name {
                $(
                    $(#[doc = $field_doc])*
                    pub $field: $ty,
                )+
            }
        )+

        /// Any L2CAP signalling command, or an opaque blob when the payload
        /// does not decode as the structure its code implies.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum Command {
            $(
                $(#[doc = $doc])*
                $name($name),
            )+
            /// An undefined code or a payload that does not parse as its
            /// code's structure.
            Raw {
                /// Raw command code byte.
                code: u8,
                /// Raw data-field bytes.
                data: Vec<u8>,
            },
        }

        impl Command {
            /// Returns the command code, if the code byte is a defined
            /// Bluetooth 5.2 code (this is still `Some` for `Raw` commands
            /// whose code byte happens to be defined).
            pub fn code(&self) -> Option<CommandCode> {
                match self {
                    $(Command::$name(_) => Some(CommandCode::$name),)+
                    Command::Raw { code, .. } => CommandCode::from_u8(*code),
                }
            }

            /// Returns the raw code byte that would appear on the air.
            pub fn code_byte(&self) -> u8 {
                match self {
                    $(Command::$name(_) => CommandCode::$name.value(),)+
                    Command::Raw { code, .. } => *code,
                }
            }

            /// Appends the command's data fields to `w` — the one encoder of
            /// every command, shared by [`Command::encode_data`] (into a
            /// vector) and the frame builders (into the frame, in place).
            pub fn encode_data_into(&self, w: &mut impl ByteSink) {
                match self {
                    $(Command::$name(c) => {
                        $(c.$field.write(w);)+
                    })+
                    Command::Raw { data, .. } => w.write_bytes(data),
                }
            }

            /// Like [`Command::decode`], but returns `None` where `decode`
            /// would fall back to [`Command::Raw`] — avoiding the raw-data
            /// copy when the caller only needs to distinguish structured from
            /// unstructured payloads.
            pub fn decode_opt(code: u8, data: &[u8]) -> Option<Command> {
                let mut r = ByteReader::new(data);
                Some(match CommandCode::from_u8(code)? {
                    $(CommandCode::$name => Command::$name($name {
                        $($field: <$ty as Wire>::read(&mut r)?,)+
                    }),)+
                })
            }

            /// Returns `true` exactly when [`Command::decode`] would produce
            /// a typed (non-[`Command::Raw`]) command — i.e. the payload
            /// parses as `code`'s structure — without allocating anything:
            /// the command's minimum length (a constant read from the field
            /// table), then each reason or result code at its offset and the
            /// option walk.
            /// This is the classification hot path of the trace analysis:
            /// `tests/codec_properties.rs` asserts its equivalence with
            /// `decode` across generated inputs.
            pub fn structurally_valid(code: u8, data: &[u8]) -> bool {
                let Some(code) = CommandCode::from_u8(code) else {
                    return false;
                };
                let mut at = 0;
                match code {
                    $(CommandCode::$name => {
                        data.len() >= crate::fields::min_data_len(CommandCode::$name)
                            $(&& <$ty as Wire>::check(data, &mut at))+
                    })+
                }
            }
        }

        /// The data-field layout of `code`, laid out from its row's field
        /// widths at compile time.
        pub(crate) const fn layout(code: CommandCode) -> &'static [FieldSpec] {
            match code {
                $(CommandCode::$name => const {
                    &lay_out([$((FieldName::$field_name, <$ty as Wire>::WIDTH)),+])
                },)+
            }
        }
    };
}

commands! {
    /// Command Reject (`0x01`).
    CommandReject {
        /// Reject reason.
        reason: RejectReason => Reason,
        /// Optional reason data (actual MTU for MTU-exceeded, the two CIDs for
        /// invalid-CID).
        data: Vec<u8> => Data,
    }

    /// Connection Request (`0x02`): opens a channel to a service PSM.
    #[derive(Copy)]
    ConnectionRequest {
        /// Target service port.
        psm: Psm => Psm,
        /// Source channel ID chosen by the initiator.
        scid: Cid => Scid,
    }

    /// Connection Response (`0x03`).
    #[derive(Copy)]
    ConnectionResponse {
        /// Destination channel ID allocated by the responder.
        dcid: Cid => Dcid,
        /// Echo of the initiator's source channel ID.
        scid: Cid => Scid,
        /// Result code.
        result: ConnectionResult => Result,
        /// Status (only meaningful when result is pending).
        status: u16 => Status,
    }

    /// Configuration Request (`0x04`).
    ConfigureRequest {
        /// Destination channel ID (the peer's channel endpoint).
        dcid: Cid => Dcid,
        /// Continuation flags.
        flags: u16 => Flags,
        /// Requested configuration options.
        options: Vec<ConfigOption> => Options,
    }

    /// Configuration Response (`0x05`).
    ConfigureResponse {
        /// Source channel ID (the channel the response concerns).
        scid: Cid => Scid,
        /// Continuation flags.
        flags: u16 => Flags,
        /// Result code.
        result: ConfigureResult => Result,
        /// Agreed / counter-proposed options.
        options: Vec<ConfigOption> => Options,
    }

    /// Disconnection Request (`0x06`).
    #[derive(Copy)]
    DisconnectionRequest {
        /// Destination channel ID.
        dcid: Cid => Dcid,
        /// Source channel ID.
        scid: Cid => Scid,
    }

    /// Disconnection Response (`0x07`).
    #[derive(Copy)]
    DisconnectionResponse {
        /// Destination channel ID.
        dcid: Cid => Dcid,
        /// Source channel ID.
        scid: Cid => Scid,
    }

    /// Echo Request (`0x08`) — the L2CAP ping used by the detection phase.
    #[derive(Default)]
    EchoRequest {
        /// Optional echo payload.
        data: Vec<u8> => Data,
    }

    /// Echo Response (`0x09`).
    #[derive(Default)]
    EchoResponse {
        /// Echoed payload.
        data: Vec<u8> => Data,
    }

    /// Information Request (`0x0A`).
    #[derive(Copy)]
    InformationRequest {
        /// Requested information type.
        info_type: u16 => InfoType,
    }

    /// Information Response (`0x0B`).
    InformationResponse {
        /// Information type being answered.
        info_type: u16 => InfoType,
        /// Result (0 = success, 1 = not supported).
        result: u16 => Result,
        /// Type-specific data.
        data: Vec<u8> => Data,
    }

    /// Create Channel Request (`0x0C`) — AMP channel creation.
    #[derive(Copy)]
    CreateChannelRequest {
        /// Target service port.
        psm: Psm => Psm,
        /// Source channel ID.
        scid: Cid => Scid,
        /// Controller ID of the AMP controller to use (0 = BR/EDR).
        controller_id: u8 => ContId,
    }

    /// Create Channel Response (`0x0D`).
    #[derive(Copy)]
    CreateChannelResponse {
        /// Destination channel ID.
        dcid: Cid => Dcid,
        /// Source channel ID.
        scid: Cid => Scid,
        /// Result code (shares the connection-result code space).
        result: ConnectionResult => Result,
        /// Status.
        status: u16 => Status,
    }

    /// Move Channel Request (`0x0E`).
    #[derive(Copy)]
    MoveChannelRequest {
        /// Initiator channel ID of the channel to move.
        icid: Cid => Icid,
        /// Destination controller ID.
        dest_controller_id: u8 => ContId,
    }

    /// Move Channel Response (`0x0F`).
    #[derive(Copy)]
    MoveChannelResponse {
        /// Initiator channel ID.
        icid: Cid => Icid,
        /// Result code.
        result: MoveResult => Result,
    }

    /// Move Channel Confirmation Request (`0x10`).
    #[derive(Copy)]
    MoveChannelConfirmationRequest {
        /// Initiator channel ID.
        icid: Cid => Icid,
        /// Confirmation result (0 = success, 1 = failure).
        result: u16 => Result,
    }

    /// Move Channel Confirmation Response (`0x11`).
    #[derive(Copy)]
    MoveChannelConfirmationResponse {
        /// Initiator channel ID.
        icid: Cid => Icid,
    }

    /// Connection Parameter Update Request (`0x12`, LE only).
    #[derive(Copy)]
    ConnectionParameterUpdateRequest {
        /// Minimum connection interval.
        interval_min: u16 => Interval,
        /// Maximum connection interval.
        interval_max: u16 => Interval,
        /// Peripheral latency.
        latency: u16 => Latency,
        /// Supervision timeout multiplier.
        timeout: u16 => Timeout,
    }

    /// Connection Parameter Update Response (`0x13`, LE only).
    #[derive(Copy)]
    ConnectionParameterUpdateResponse {
        /// Result (0 = accepted, 1 = rejected).
        result: u16 => Result,
    }

    /// LE Credit Based Connection Request (`0x14`).
    #[derive(Copy)]
    LeCreditBasedConnectionRequest {
        /// Simplified PSM.
        spsm: u16 => Spsm,
        /// Source channel ID.
        scid: Cid => Scid,
        /// Maximum transmission unit.
        mtu: u16 => Mtu,
        /// Maximum PDU payload size.
        mps: u16 => Mps,
        /// Initial credits.
        initial_credits: u16 => Credit,
    }

    /// LE Credit Based Connection Response (`0x15`).
    #[derive(Copy)]
    LeCreditBasedConnectionResponse {
        /// Destination channel ID.
        dcid: Cid => Dcid,
        /// Maximum transmission unit.
        mtu: u16 => Mtu,
        /// Maximum PDU payload size.
        mps: u16 => Mps,
        /// Initial credits.
        initial_credits: u16 => Credit,
        /// Result code.
        result: u16 => Result,
    }

    /// Flow Control Credit Indication (`0x16`).
    #[derive(Copy)]
    FlowControlCreditInd {
        /// Channel receiving additional credits.
        cid: Cid => Scid,
        /// Number of credits granted.
        credits: u16 => Credit,
    }

    /// Credit Based Connection Request (`0x17`) — enhanced, up to five channels.
    CreditBasedConnectionRequest {
        /// Simplified PSM.
        spsm: u16 => Spsm,
        /// Maximum transmission unit.
        mtu: u16 => Mtu,
        /// Maximum PDU payload size.
        mps: u16 => Mps,
        /// Initial credits.
        initial_credits: u16 => Credit,
        /// Source channel IDs (one per requested channel).
        scids: Vec<Cid> => Scid,
    }

    /// Credit Based Connection Response (`0x18`).
    CreditBasedConnectionResponse {
        /// Maximum transmission unit.
        mtu: u16 => Mtu,
        /// Maximum PDU payload size.
        mps: u16 => Mps,
        /// Initial credits.
        initial_credits: u16 => Credit,
        /// Result code.
        result: u16 => Result,
        /// Destination channel IDs (one per accepted channel).
        dcids: Vec<Cid> => Dcid,
    }

    /// Credit Based Reconfigure Request (`0x19`).
    CreditBasedReconfigureRequest {
        /// New maximum transmission unit.
        mtu: u16 => Mtu,
        /// New maximum PDU payload size.
        mps: u16 => Mps,
        /// Channels being reconfigured.
        dcids: Vec<Cid> => Dcid,
    }

    /// Credit Based Reconfigure Response (`0x1A`).
    #[derive(Copy)]
    CreditBasedReconfigureResponse {
        /// Result code.
        result: u16 => Result,
    }
}

impl Command {
    /// Encodes the command's data fields (everything after the 4-byte
    /// code/identifier/length prefix).
    pub fn encode_data(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_data_into(&mut out);
        out
    }

    /// Decodes a command from its code byte and data fields.
    ///
    /// Never fails: unknown codes, truncated payloads, or undefined enum
    /// values fall back to [`Command::Raw`].  Trailing bytes beyond the
    /// structured fields (garbage appended by a fuzzer) are tolerated and
    /// dropped, as permissive real-world stacks do.
    pub fn decode(code: u8, data: &[u8]) -> Command {
        Self::decode_opt(code, data).unwrap_or_else(|| Command::Raw {
            code,
            data: data.to_vec(),
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One typed sample of each of the 26 commands, in code order.
    pub(crate) fn sample_commands() -> Vec<Command> {
        vec![
            Command::CommandReject(CommandReject {
                reason: RejectReason::InvalidCidInRequest,
                data: vec![0x40, 0x00, 0x41, 0x00],
            }),
            Command::ConnectionRequest(ConnectionRequest {
                psm: Psm::SDP,
                scid: Cid(0x0040),
            }),
            Command::ConnectionResponse(ConnectionResponse {
                dcid: Cid(0x0041),
                scid: Cid(0x0040),
                result: ConnectionResult::Success,
                status: 0,
            }),
            Command::ConfigureRequest(ConfigureRequest {
                dcid: Cid(0x0040),
                flags: 0,
                options: vec![ConfigOption::Mtu(672)],
            }),
            Command::ConfigureResponse(ConfigureResponse {
                scid: Cid(0x0040),
                flags: 0,
                result: ConfigureResult::Success,
                options: vec![],
            }),
            Command::DisconnectionRequest(DisconnectionRequest {
                dcid: Cid(0x0041),
                scid: Cid(0x0040),
            }),
            Command::DisconnectionResponse(DisconnectionResponse {
                dcid: Cid(0x0041),
                scid: Cid(0x0040),
            }),
            Command::EchoRequest(EchoRequest {
                data: vec![1, 2, 3],
            }),
            Command::EchoResponse(EchoResponse { data: vec![] }),
            Command::InformationRequest(InformationRequest { info_type: 2 }),
            Command::InformationResponse(InformationResponse {
                info_type: 2,
                result: 0,
                data: vec![0xF8, 0x02, 0x00, 0x00],
            }),
            Command::CreateChannelRequest(CreateChannelRequest {
                psm: Psm::SDP,
                scid: Cid(0x0042),
                controller_id: 1,
            }),
            Command::CreateChannelResponse(CreateChannelResponse {
                dcid: Cid(0x0043),
                scid: Cid(0x0042),
                result: ConnectionResult::Success,
                status: 0,
            }),
            Command::MoveChannelRequest(MoveChannelRequest {
                icid: Cid(0x0040),
                dest_controller_id: 1,
            }),
            Command::MoveChannelResponse(MoveChannelResponse {
                icid: Cid(0x0040),
                result: MoveResult::Success,
            }),
            Command::MoveChannelConfirmationRequest(MoveChannelConfirmationRequest {
                icid: Cid(0x0040),
                result: 0,
            }),
            Command::MoveChannelConfirmationResponse(MoveChannelConfirmationResponse {
                icid: Cid(0x0040),
            }),
            Command::ConnectionParameterUpdateRequest(ConnectionParameterUpdateRequest {
                interval_min: 6,
                interval_max: 12,
                latency: 0,
                timeout: 200,
            }),
            Command::ConnectionParameterUpdateResponse(ConnectionParameterUpdateResponse {
                result: 0,
            }),
            Command::LeCreditBasedConnectionRequest(LeCreditBasedConnectionRequest {
                spsm: 0x0080,
                scid: Cid(0x0040),
                mtu: 512,
                mps: 64,
                initial_credits: 10,
            }),
            Command::LeCreditBasedConnectionResponse(LeCreditBasedConnectionResponse {
                dcid: Cid(0x0041),
                mtu: 512,
                mps: 64,
                initial_credits: 10,
                result: 0,
            }),
            Command::FlowControlCreditInd(FlowControlCreditInd {
                cid: Cid(0x0040),
                credits: 5,
            }),
            Command::CreditBasedConnectionRequest(CreditBasedConnectionRequest {
                spsm: 0x0080,
                mtu: 512,
                mps: 64,
                initial_credits: 10,
                scids: vec![Cid(0x0040), Cid(0x0041)],
            }),
            Command::CreditBasedConnectionResponse(CreditBasedConnectionResponse {
                mtu: 512,
                mps: 64,
                initial_credits: 10,
                result: 0,
                dcids: vec![Cid(0x0050), Cid(0x0051)],
            }),
            Command::CreditBasedReconfigureRequest(CreditBasedReconfigureRequest {
                mtu: 1024,
                mps: 128,
                dcids: vec![Cid(0x0050)],
            }),
            Command::CreditBasedReconfigureResponse(CreditBasedReconfigureResponse { result: 0 }),
        ]
    }

    /// FNV-1a, folding `bytes` into `hash`.
    fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(hash, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// The codec's inputs: every code byte with seeded random data of 0..=64
    /// bytes, four draws per length; then for each sample its encoding,
    /// every prefix of it, the encoding with 1-8 seeded garbage bytes
    /// appended, and the encoding with each byte flipped in turn (its low
    /// bit, then all its bits), which walks result codes into other defined
    /// and undefined values.
    fn codec_corpus() -> Vec<(u8, Vec<u8>)> {
        let mut rng = btcore::FuzzRng::seed_from(0xC0DEC);
        let mut corpus = Vec::new();
        for code in 0..=u8::MAX {
            for len in 0..=64 {
                for _ in 0..4 {
                    corpus.push((code, rng.bytes(len)));
                }
            }
        }
        for cmd in sample_commands() {
            let (code, data) = (cmd.code_byte(), cmd.encode_data());
            for end in 0..=data.len() {
                corpus.push((code, data[..end].to_vec()));
            }
            for extra in 1..=8 {
                corpus.push((code, [data.clone(), rng.bytes(extra)].concat()));
            }
            for at in 0..data.len() {
                for mask in [0x01, 0xFF] {
                    let mut flipped = data.clone();
                    flipped[at] ^= mask;
                    corpus.push((code, flipped));
                }
            }
        }
        corpus
    }

    #[test]
    fn the_codec_agrees_with_itself_and_its_digest_is_pinned() {
        let mut hash = 0xCBF2_9CE4_8422_2325;
        let mut typed = 0;
        for (code, data) in codec_corpus() {
            let decoded = Command::decode_opt(code, &data);
            assert_eq!(
                Command::structurally_valid(code, &data),
                decoded.is_some(),
                "{code:#04x} {data:02x?}"
            );
            let reencoded = decoded.as_ref().map_or_else(Vec::new, |cmd| {
                let bytes = cmd.encode_data();
                assert_eq!(
                    &Command::decode(code, &bytes),
                    cmd,
                    "{code:#04x} {data:02x?}"
                );
                typed += 1;
                bytes
            });
            hash = fnv1a(
                hash,
                format!("{:?}", Command::decode(code, &data)).as_bytes(),
            );
            hash = fnv1a(hash, &[u8::from(decoded.is_some())]);
            hash = fnv1a(hash, &reencoded);
        }
        assert_eq!((typed, hash), (5366, 0xE2DD_BC23_2C98_1258));
    }

    /// Every command's data-field layout as `NAME@offset:width`, `*` marking
    /// a tail that runs to the end of the data.
    const LAYOUT_GOLDEN: &str = "\
Command Reject: REASON@0:2 DATA@2:*
Connect Req: PSM@0:2 SCID@2:2
Connect Rsp: DCID@0:2 SCID@2:2 RESULT@4:2 STATUS@6:2
Config Req: DCID@0:2 FLAGS@2:2 OPT@4:*
Config Rsp: SCID@0:2 FLAGS@2:2 RESULT@4:2 OPT@6:*
Disconnect Req: DCID@0:2 SCID@2:2
Disconnect Rsp: DCID@0:2 SCID@2:2
Echo Req: DATA@0:*
Echo Rsp: DATA@0:*
Info Req: TYPE@0:2
Info Rsp: TYPE@0:2 RESULT@2:2 DATA@4:*
Create Channel Req: PSM@0:2 SCID@2:2 CONT ID@4:1
Create Channel Rsp: DCID@0:2 SCID@2:2 RESULT@4:2 STATUS@6:2
Move Channel Req: ICID@0:2 CONT ID@2:1
Move Channel Rsp: ICID@0:2 RESULT@2:2
Move Channel Confirm Req: ICID@0:2 RESULT@2:2
Move Channel Confirm Rsp: ICID@0:2
Conn Param Update Req: INTERVAL@0:2 INTERVAL@2:2 LATENCY@4:2 TIMEOUT@6:2
Conn Param Update Rsp: RESULT@0:2
LE Credit Based Connect Req: SPSM@0:2 SCID@2:2 MTU@4:2 MPS@6:2 CREDIT@8:2
LE Credit Based Connect Rsp: DCID@0:2 MTU@2:2 MPS@4:2 CREDIT@6:2 RESULT@8:2
Flow Control Credit Ind: SCID@0:2 CREDIT@2:2
Credit Based Connect Req: SPSM@0:2 MTU@2:2 MPS@4:2 CREDIT@6:2 SCID@8:*
Credit Based Connect Rsp: MTU@0:2 MPS@2:2 CREDIT@4:2 RESULT@6:2 DCID@8:*
Credit Based Reconfigure Req: MTU@0:2 MPS@2:2 DCID@4:*
Credit Based Reconfigure Rsp: RESULT@0:2
";

    #[test]
    fn the_field_layouts_are_pinned() {
        let text: String = CommandCode::ALL
            .iter()
            .map(|&code| {
                let fields: Vec<String> = crate::fields::data_field_layout(code)
                    .iter()
                    .map(|s| match s.len {
                        Some(len) => format!(" {}@{}:{len}", s.name, s.offset),
                        None => format!(" {}@{}:*", s.name, s.offset),
                    })
                    .collect();
                format!("{}:{}\n", code.mnemonic(), fields.concat())
            })
            .collect();
        assert_eq!(text, LAYOUT_GOLDEN);
    }

    #[test]
    fn every_command_roundtrips() {
        let samples = sample_commands();
        assert_eq!(samples.len(), 26, "one sample per Bluetooth 5.2 command");
        for cmd in samples {
            let data = cmd.encode_data();
            let back = Command::decode(cmd.code_byte(), &data);
            assert_eq!(back, cmd, "roundtrip failed for {cmd:?}");
        }
    }

    #[test]
    fn connection_request_wire_format() {
        let cmd = Command::ConnectionRequest(ConnectionRequest {
            psm: Psm::SDP,
            scid: Cid(0x0040),
        });
        assert_eq!(cmd.encode_data(), vec![0x01, 0x00, 0x40, 0x00]);
        assert_eq!(cmd.code_byte(), 0x02);
    }

    #[test]
    fn unknown_code_decodes_to_raw() {
        let cmd = Command::decode(0x7F, &[1, 2, 3]);
        assert_eq!(
            cmd,
            Command::Raw {
                code: 0x7F,
                data: vec![1, 2, 3]
            }
        );
        assert_eq!(cmd.code(), None);
        assert_eq!(cmd.code_byte(), 0x7F);
    }

    #[test]
    fn truncated_payload_decodes_to_raw() {
        // Connection request needs 4 bytes of data.
        let cmd = Command::decode(0x02, &[0x01]);
        assert!(matches!(cmd, Command::Raw { code: 0x02, .. }));
    }

    #[test]
    fn undefined_result_code_decodes_to_raw() {
        // Connection response with result = 0x00FF (undefined).
        let data = [0x41, 0x00, 0x40, 0x00, 0xFF, 0x00, 0x00, 0x00];
        let cmd = Command::decode(0x03, &data);
        assert!(matches!(cmd, Command::Raw { .. }));
    }

    #[test]
    fn garbage_tail_is_tolerated_on_fixed_size_commands() {
        // A connection request with 4 garbage bytes appended still decodes;
        // this mirrors how L2Fuzz's garbage-appending packets are parsed.
        let mut data = vec![0x01, 0x00, 0x40, 0x00];
        data.extend_from_slice(&[0xD2, 0x3A, 0x91, 0x0E]);
        let cmd = Command::decode(0x02, &data);
        assert_eq!(
            cmd,
            Command::ConnectionRequest(ConnectionRequest {
                psm: Psm::SDP,
                scid: Cid(0x0040)
            })
        );
    }

    #[test]
    fn config_request_with_options_roundtrips() {
        let cmd = Command::ConfigureRequest(ConfigureRequest {
            dcid: Cid(0x0040),
            flags: 0x0001,
            options: vec![
                ConfigOption::Mtu(0x2000),
                ConfigOption::FlushTimeout(0xFFFF),
            ],
        });
        let data = cmd.encode_data();
        assert_eq!(Command::decode(0x04, &data), cmd);
    }

    #[test]
    fn credit_based_request_parses_multiple_scids() {
        let cmd = Command::CreditBasedConnectionRequest(CreditBasedConnectionRequest {
            spsm: 0x0080,
            mtu: 256,
            mps: 64,
            initial_credits: 1,
            scids: vec![
                Cid(0x0040),
                Cid(0x0041),
                Cid(0x0042),
                Cid(0x0043),
                Cid(0x0044),
            ],
        });
        let data = cmd.encode_data();
        match Command::decode(0x17, &data) {
            Command::CreditBasedConnectionRequest(c) => assert_eq!(c.scids.len(), 5),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn code_matches_code_byte_for_all_samples() {
        for cmd in sample_commands() {
            assert_eq!(cmd.code().unwrap().value(), cmd.code_byte());
        }
    }
}
