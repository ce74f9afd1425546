//! Typed signalling command payloads.
//!
//! Every one of the 26 Bluetooth 5.2 signalling commands has a typed struct
//! here; [`Command`] wraps them in one enum.  Decoding is *loss-tolerant*:
//! undefined codes or truncated payloads decode to [`Command::Raw`] instead of
//! failing, because a fuzzer (and a fuzzed target) must be able to represent
//! arbitrary byte blobs.  Trailing bytes beyond a command's defined data
//! fields — exactly what L2Fuzz's garbage-appending mutation produces — are
//! tolerated on decode, mirroring how lenient real stacks parse such packets.

use btcore::{ByteReader, ByteWriter, Cid, Psm};
use serde::{Deserialize, Serialize};

use crate::code::CommandCode;
use crate::consts::{ConfigureResult, ConnectionResult, MoveResult, RejectReason};
use crate::options::ConfigOption;

/// Command Reject (`0x01`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommandReject {
    /// Reject reason.
    pub reason: RejectReason,
    /// Optional reason data (actual MTU for MTU-exceeded, the two CIDs for
    /// invalid-CID).
    pub data: Vec<u8>,
}

/// Connection Request (`0x02`): opens a channel to a service PSM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConnectionRequest {
    /// Target service port.
    pub psm: Psm,
    /// Source channel ID chosen by the initiator.
    pub scid: Cid,
}

/// Connection Response (`0x03`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConnectionResponse {
    /// Destination channel ID allocated by the responder.
    pub dcid: Cid,
    /// Echo of the initiator's source channel ID.
    pub scid: Cid,
    /// Result code.
    pub result: ConnectionResult,
    /// Status (only meaningful when result is pending).
    pub status: u16,
}

/// Configuration Request (`0x04`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfigureRequest {
    /// Destination channel ID (the peer's channel endpoint).
    pub dcid: Cid,
    /// Continuation flags.
    pub flags: u16,
    /// Requested configuration options.
    pub options: Vec<ConfigOption>,
}

/// Configuration Response (`0x05`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfigureResponse {
    /// Source channel ID (the channel the response concerns).
    pub scid: Cid,
    /// Continuation flags.
    pub flags: u16,
    /// Result code.
    pub result: ConfigureResult,
    /// Agreed / counter-proposed options.
    pub options: Vec<ConfigOption>,
}

/// Disconnection Request (`0x06`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DisconnectionRequest {
    /// Destination channel ID.
    pub dcid: Cid,
    /// Source channel ID.
    pub scid: Cid,
}

/// Disconnection Response (`0x07`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DisconnectionResponse {
    /// Destination channel ID.
    pub dcid: Cid,
    /// Source channel ID.
    pub scid: Cid,
}

/// Echo Request (`0x08`) — the L2CAP ping used by the detection phase.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EchoRequest {
    /// Optional echo payload.
    pub data: Vec<u8>,
}

/// Echo Response (`0x09`).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EchoResponse {
    /// Echoed payload.
    pub data: Vec<u8>,
}

/// Information Request (`0x0A`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InformationRequest {
    /// Requested information type.
    pub info_type: u16,
}

/// Information Response (`0x0B`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InformationResponse {
    /// Information type being answered.
    pub info_type: u16,
    /// Result (0 = success, 1 = not supported).
    pub result: u16,
    /// Type-specific data.
    pub data: Vec<u8>,
}

/// Create Channel Request (`0x0C`) — AMP channel creation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CreateChannelRequest {
    /// Target service port.
    pub psm: Psm,
    /// Source channel ID.
    pub scid: Cid,
    /// Controller ID of the AMP controller to use (0 = BR/EDR).
    pub controller_id: u8,
}

/// Create Channel Response (`0x0D`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CreateChannelResponse {
    /// Destination channel ID.
    pub dcid: Cid,
    /// Source channel ID.
    pub scid: Cid,
    /// Result code (shares the connection-result code space).
    pub result: ConnectionResult,
    /// Status.
    pub status: u16,
}

/// Move Channel Request (`0x0E`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MoveChannelRequest {
    /// Initiator channel ID of the channel to move.
    pub icid: Cid,
    /// Destination controller ID.
    pub dest_controller_id: u8,
}

/// Move Channel Response (`0x0F`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MoveChannelResponse {
    /// Initiator channel ID.
    pub icid: Cid,
    /// Result code.
    pub result: MoveResult,
}

/// Move Channel Confirmation Request (`0x10`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MoveChannelConfirmationRequest {
    /// Initiator channel ID.
    pub icid: Cid,
    /// Confirmation result (0 = success, 1 = failure).
    pub result: u16,
}

/// Move Channel Confirmation Response (`0x11`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MoveChannelConfirmationResponse {
    /// Initiator channel ID.
    pub icid: Cid,
}

/// Connection Parameter Update Request (`0x12`, LE only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConnectionParameterUpdateRequest {
    /// Minimum connection interval.
    pub interval_min: u16,
    /// Maximum connection interval.
    pub interval_max: u16,
    /// Peripheral latency.
    pub latency: u16,
    /// Supervision timeout multiplier.
    pub timeout: u16,
}

/// Connection Parameter Update Response (`0x13`, LE only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConnectionParameterUpdateResponse {
    /// Result (0 = accepted, 1 = rejected).
    pub result: u16,
}

/// LE Credit Based Connection Request (`0x14`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LeCreditBasedConnectionRequest {
    /// Simplified PSM.
    pub spsm: u16,
    /// Source channel ID.
    pub scid: Cid,
    /// Maximum transmission unit.
    pub mtu: u16,
    /// Maximum PDU payload size.
    pub mps: u16,
    /// Initial credits.
    pub initial_credits: u16,
}

/// LE Credit Based Connection Response (`0x15`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LeCreditBasedConnectionResponse {
    /// Destination channel ID.
    pub dcid: Cid,
    /// Maximum transmission unit.
    pub mtu: u16,
    /// Maximum PDU payload size.
    pub mps: u16,
    /// Initial credits.
    pub initial_credits: u16,
    /// Result code.
    pub result: u16,
}

/// Flow Control Credit Indication (`0x16`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowControlCreditInd {
    /// Channel receiving additional credits.
    pub cid: Cid,
    /// Number of credits granted.
    pub credits: u16,
}

/// Credit Based Connection Request (`0x17`) — enhanced, up to five channels.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CreditBasedConnectionRequest {
    /// Simplified PSM.
    pub spsm: u16,
    /// Maximum transmission unit.
    pub mtu: u16,
    /// Maximum PDU payload size.
    pub mps: u16,
    /// Initial credits.
    pub initial_credits: u16,
    /// Source channel IDs (one per requested channel).
    pub scids: Vec<Cid>,
}

/// Credit Based Connection Response (`0x18`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CreditBasedConnectionResponse {
    /// Maximum transmission unit.
    pub mtu: u16,
    /// Maximum PDU payload size.
    pub mps: u16,
    /// Initial credits.
    pub initial_credits: u16,
    /// Result code.
    pub result: u16,
    /// Destination channel IDs (one per accepted channel).
    pub dcids: Vec<Cid>,
}

/// Credit Based Reconfigure Request (`0x19`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CreditBasedReconfigureRequest {
    /// New maximum transmission unit.
    pub mtu: u16,
    /// New maximum PDU payload size.
    pub mps: u16,
    /// Channels being reconfigured.
    pub dcids: Vec<Cid>,
}

/// Credit Based Reconfigure Response (`0x1A`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CreditBasedReconfigureResponse {
    /// Result code.
    pub result: u16,
}

/// Any L2CAP signalling command, or an opaque blob when the payload does not
/// decode as the structure its code implies.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Command {
    CommandReject(CommandReject),
    ConnectionRequest(ConnectionRequest),
    ConnectionResponse(ConnectionResponse),
    ConfigureRequest(ConfigureRequest),
    ConfigureResponse(ConfigureResponse),
    DisconnectionRequest(DisconnectionRequest),
    DisconnectionResponse(DisconnectionResponse),
    EchoRequest(EchoRequest),
    EchoResponse(EchoResponse),
    InformationRequest(InformationRequest),
    InformationResponse(InformationResponse),
    CreateChannelRequest(CreateChannelRequest),
    CreateChannelResponse(CreateChannelResponse),
    MoveChannelRequest(MoveChannelRequest),
    MoveChannelResponse(MoveChannelResponse),
    MoveChannelConfirmationRequest(MoveChannelConfirmationRequest),
    MoveChannelConfirmationResponse(MoveChannelConfirmationResponse),
    ConnectionParameterUpdateRequest(ConnectionParameterUpdateRequest),
    ConnectionParameterUpdateResponse(ConnectionParameterUpdateResponse),
    LeCreditBasedConnectionRequest(LeCreditBasedConnectionRequest),
    LeCreditBasedConnectionResponse(LeCreditBasedConnectionResponse),
    FlowControlCreditInd(FlowControlCreditInd),
    CreditBasedConnectionRequest(CreditBasedConnectionRequest),
    CreditBasedConnectionResponse(CreditBasedConnectionResponse),
    CreditBasedReconfigureRequest(CreditBasedReconfigureRequest),
    CreditBasedReconfigureResponse(CreditBasedReconfigureResponse),
    /// An undefined code or a payload that does not parse as its code's
    /// structure.
    Raw {
        /// Raw command code byte.
        code: u8,
        /// Raw data-field bytes.
        data: Vec<u8>,
    },
}

impl Command {
    /// Returns the command code, if the code byte is a defined Bluetooth 5.2
    /// code (this is still `Some` for `Raw` commands whose code byte happens
    /// to be defined).
    pub fn code(&self) -> Option<CommandCode> {
        Some(match self {
            Command::CommandReject(_) => CommandCode::CommandReject,
            Command::ConnectionRequest(_) => CommandCode::ConnectionRequest,
            Command::ConnectionResponse(_) => CommandCode::ConnectionResponse,
            Command::ConfigureRequest(_) => CommandCode::ConfigureRequest,
            Command::ConfigureResponse(_) => CommandCode::ConfigureResponse,
            Command::DisconnectionRequest(_) => CommandCode::DisconnectionRequest,
            Command::DisconnectionResponse(_) => CommandCode::DisconnectionResponse,
            Command::EchoRequest(_) => CommandCode::EchoRequest,
            Command::EchoResponse(_) => CommandCode::EchoResponse,
            Command::InformationRequest(_) => CommandCode::InformationRequest,
            Command::InformationResponse(_) => CommandCode::InformationResponse,
            Command::CreateChannelRequest(_) => CommandCode::CreateChannelRequest,
            Command::CreateChannelResponse(_) => CommandCode::CreateChannelResponse,
            Command::MoveChannelRequest(_) => CommandCode::MoveChannelRequest,
            Command::MoveChannelResponse(_) => CommandCode::MoveChannelResponse,
            Command::MoveChannelConfirmationRequest(_) => {
                CommandCode::MoveChannelConfirmationRequest
            }
            Command::MoveChannelConfirmationResponse(_) => {
                CommandCode::MoveChannelConfirmationResponse
            }
            Command::ConnectionParameterUpdateRequest(_) => {
                CommandCode::ConnectionParameterUpdateRequest
            }
            Command::ConnectionParameterUpdateResponse(_) => {
                CommandCode::ConnectionParameterUpdateResponse
            }
            Command::LeCreditBasedConnectionRequest(_) => {
                CommandCode::LeCreditBasedConnectionRequest
            }
            Command::LeCreditBasedConnectionResponse(_) => {
                CommandCode::LeCreditBasedConnectionResponse
            }
            Command::FlowControlCreditInd(_) => CommandCode::FlowControlCreditInd,
            Command::CreditBasedConnectionRequest(_) => CommandCode::CreditBasedConnectionRequest,
            Command::CreditBasedConnectionResponse(_) => CommandCode::CreditBasedConnectionResponse,
            Command::CreditBasedReconfigureRequest(_) => CommandCode::CreditBasedReconfigureRequest,
            Command::CreditBasedReconfigureResponse(_) => {
                CommandCode::CreditBasedReconfigureResponse
            }
            Command::Raw { code, .. } => return CommandCode::from_u8(*code),
        })
    }

    /// Returns the raw code byte that would appear on the air.
    pub fn code_byte(&self) -> u8 {
        match self {
            Command::Raw { code, .. } => *code,
            // analyzer: allow(panic) — every non-raw variant maps to a
            // defined CommandCode by construction of `code()`.
            other => other
                .code()
                .expect("non-raw commands always have a code")
                .value(),
        }
    }

    /// Encodes the command's data fields (everything after the 4-byte
    /// code/identifier/length prefix).
    pub fn encode_data(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_data_into(&mut out);
        out
    }

    /// Appends the command's data fields to `out` (which is *not* cleared) —
    /// the allocation-free encoding path shared by [`Command::encode_data`]
    /// and the frame builders.
    pub fn encode_data_into(&self, out: &mut Vec<u8>) {
        let mut w = ByteWriter::wrap(std::mem::take(out));
        match self {
            Command::CommandReject(c) => {
                w.write_u16(c.reason.value());
                w.write_bytes(&c.data);
            }
            Command::ConnectionRequest(c) => {
                w.write_u16(c.psm.value());
                w.write_u16(c.scid.value());
            }
            Command::ConnectionResponse(c) => {
                w.write_u16(c.dcid.value());
                w.write_u16(c.scid.value());
                w.write_u16(c.result.value());
                w.write_u16(c.status);
            }
            Command::ConfigureRequest(c) => {
                w.write_u16(c.dcid.value());
                w.write_u16(c.flags);
                for opt in &c.options {
                    opt.encode(&mut w);
                }
            }
            Command::ConfigureResponse(c) => {
                w.write_u16(c.scid.value());
                w.write_u16(c.flags);
                w.write_u16(c.result.value());
                for opt in &c.options {
                    opt.encode(&mut w);
                }
            }
            Command::DisconnectionRequest(c) => {
                w.write_u16(c.dcid.value());
                w.write_u16(c.scid.value());
            }
            Command::DisconnectionResponse(c) => {
                w.write_u16(c.dcid.value());
                w.write_u16(c.scid.value());
            }
            Command::EchoRequest(c) => w.write_bytes(&c.data),
            Command::EchoResponse(c) => w.write_bytes(&c.data),
            Command::InformationRequest(c) => w.write_u16(c.info_type),
            Command::InformationResponse(c) => {
                w.write_u16(c.info_type);
                w.write_u16(c.result);
                w.write_bytes(&c.data);
            }
            Command::CreateChannelRequest(c) => {
                w.write_u16(c.psm.value());
                w.write_u16(c.scid.value());
                w.write_u8(c.controller_id);
            }
            Command::CreateChannelResponse(c) => {
                w.write_u16(c.dcid.value());
                w.write_u16(c.scid.value());
                w.write_u16(c.result.value());
                w.write_u16(c.status);
            }
            Command::MoveChannelRequest(c) => {
                w.write_u16(c.icid.value());
                w.write_u8(c.dest_controller_id);
            }
            Command::MoveChannelResponse(c) => {
                w.write_u16(c.icid.value());
                w.write_u16(c.result.value());
            }
            Command::MoveChannelConfirmationRequest(c) => {
                w.write_u16(c.icid.value());
                w.write_u16(c.result);
            }
            Command::MoveChannelConfirmationResponse(c) => {
                w.write_u16(c.icid.value());
            }
            Command::ConnectionParameterUpdateRequest(c) => {
                w.write_u16(c.interval_min);
                w.write_u16(c.interval_max);
                w.write_u16(c.latency);
                w.write_u16(c.timeout);
            }
            Command::ConnectionParameterUpdateResponse(c) => w.write_u16(c.result),
            Command::LeCreditBasedConnectionRequest(c) => {
                w.write_u16(c.spsm);
                w.write_u16(c.scid.value());
                w.write_u16(c.mtu);
                w.write_u16(c.mps);
                w.write_u16(c.initial_credits);
            }
            Command::LeCreditBasedConnectionResponse(c) => {
                w.write_u16(c.dcid.value());
                w.write_u16(c.mtu);
                w.write_u16(c.mps);
                w.write_u16(c.initial_credits);
                w.write_u16(c.result);
            }
            Command::FlowControlCreditInd(c) => {
                w.write_u16(c.cid.value());
                w.write_u16(c.credits);
            }
            Command::CreditBasedConnectionRequest(c) => {
                w.write_u16(c.spsm);
                w.write_u16(c.mtu);
                w.write_u16(c.mps);
                w.write_u16(c.initial_credits);
                for scid in &c.scids {
                    w.write_u16(scid.value());
                }
            }
            Command::CreditBasedConnectionResponse(c) => {
                w.write_u16(c.mtu);
                w.write_u16(c.mps);
                w.write_u16(c.initial_credits);
                w.write_u16(c.result);
                for dcid in &c.dcids {
                    w.write_u16(dcid.value());
                }
            }
            Command::CreditBasedReconfigureRequest(c) => {
                w.write_u16(c.mtu);
                w.write_u16(c.mps);
                for dcid in &c.dcids {
                    w.write_u16(dcid.value());
                }
            }
            Command::CreditBasedReconfigureResponse(c) => w.write_u16(c.result),
            Command::Raw { data, .. } => w.write_bytes(data),
        }
        *out = w.into_bytes();
    }

    /// Decodes a command from its code byte and data fields.
    ///
    /// Never fails: unknown codes, truncated payloads, or undefined enum
    /// values fall back to [`Command::Raw`].  Trailing bytes beyond the
    /// structured fields (garbage appended by a fuzzer) are tolerated and
    /// dropped, as permissive real-world stacks do.
    pub fn decode(code: u8, data: &[u8]) -> Command {
        match Self::try_decode(code, data) {
            Some(cmd) => cmd,
            None => Command::Raw {
                code,
                data: data.to_vec(),
            },
        }
    }

    /// Like [`Command::decode`], but returns `None` where `decode` would fall
    /// back to [`Command::Raw`] — avoiding the raw-data copy when the caller
    /// only needs to distinguish structured from unstructured payloads.
    pub fn decode_opt(code: u8, data: &[u8]) -> Option<Command> {
        Self::try_decode(code, data)
    }

    /// Returns `true` exactly when [`Command::decode`] would produce a typed
    /// (non-[`Command::Raw`]) command — i.e. the payload parses as `code`'s
    /// structure — without allocating anything.  This is the classification
    /// hot path of the trace analysis: `tests/codec_properties.rs` asserts
    /// its equivalence with `decode` across generated inputs.
    pub fn structurally_valid(code: u8, data: &[u8]) -> bool {
        fn u16_at(data: &[u8], off: usize) -> Option<u16> {
            Some(u16::from_le_bytes([*data.get(off)?, *data.get(off + 1)?]))
        }
        let Some(code) = CommandCode::from_u8(code) else {
            return false;
        };
        match code {
            CommandCode::CommandReject => {
                u16_at(data, 0).and_then(RejectReason::from_u16).is_some()
            }
            CommandCode::ConnectionRequest
            | CommandCode::DisconnectionRequest
            | CommandCode::DisconnectionResponse => data.len() >= 4,
            CommandCode::ConnectionResponse | CommandCode::CreateChannelResponse => {
                data.len() >= 8
                    && u16_at(data, 4)
                        .and_then(ConnectionResult::from_u16)
                        .is_some()
            }
            CommandCode::ConfigureRequest => {
                data.len() >= 4 && ConfigOption::all_structurally_valid(&data[4..])
            }
            CommandCode::ConfigureResponse => {
                data.len() >= 6
                    && u16_at(data, 4)
                        .and_then(ConfigureResult::from_u16)
                        .is_some()
                    && ConfigOption::all_structurally_valid(&data[6..])
            }
            CommandCode::EchoRequest | CommandCode::EchoResponse => true,
            CommandCode::InformationRequest => data.len() >= 2,
            CommandCode::InformationResponse => data.len() >= 4,
            CommandCode::CreateChannelRequest => data.len() >= 5,
            CommandCode::MoveChannelRequest => data.len() >= 3,
            CommandCode::MoveChannelResponse => {
                data.len() >= 4 && u16_at(data, 2).and_then(MoveResult::from_u16).is_some()
            }
            CommandCode::MoveChannelConfirmationRequest => data.len() >= 4,
            CommandCode::MoveChannelConfirmationResponse => data.len() >= 2,
            CommandCode::ConnectionParameterUpdateRequest => data.len() >= 8,
            CommandCode::ConnectionParameterUpdateResponse => data.len() >= 2,
            CommandCode::LeCreditBasedConnectionRequest
            | CommandCode::LeCreditBasedConnectionResponse => data.len() >= 10,
            CommandCode::FlowControlCreditInd => data.len() >= 4,
            CommandCode::CreditBasedConnectionRequest
            | CommandCode::CreditBasedConnectionResponse => data.len() >= 8,
            CommandCode::CreditBasedReconfigureRequest => data.len() >= 4,
            CommandCode::CreditBasedReconfigureResponse => data.len() >= 2,
        }
    }

    fn try_decode(code: u8, data: &[u8]) -> Option<Command> {
        let code = CommandCode::from_u8(code)?;
        let mut r = ByteReader::new(data);
        let cmd = match code {
            CommandCode::CommandReject => Command::CommandReject(CommandReject {
                reason: RejectReason::from_u16(r.read_u16().ok()?)?,
                data: r.read_rest().to_vec(),
            }),
            CommandCode::ConnectionRequest => Command::ConnectionRequest(ConnectionRequest {
                psm: Psm(r.read_u16().ok()?),
                scid: Cid(r.read_u16().ok()?),
            }),
            CommandCode::ConnectionResponse => Command::ConnectionResponse(ConnectionResponse {
                dcid: Cid(r.read_u16().ok()?),
                scid: Cid(r.read_u16().ok()?),
                result: ConnectionResult::from_u16(r.read_u16().ok()?)?,
                status: r.read_u16().ok()?,
            }),
            CommandCode::ConfigureRequest => {
                let dcid = Cid(r.read_u16().ok()?);
                let flags = r.read_u16().ok()?;
                let options = ConfigOption::decode_all(&mut r).ok()?;
                Command::ConfigureRequest(ConfigureRequest {
                    dcid,
                    flags,
                    options,
                })
            }
            CommandCode::ConfigureResponse => {
                let scid = Cid(r.read_u16().ok()?);
                let flags = r.read_u16().ok()?;
                let result = ConfigureResult::from_u16(r.read_u16().ok()?)?;
                let options = ConfigOption::decode_all(&mut r).ok()?;
                Command::ConfigureResponse(ConfigureResponse {
                    scid,
                    flags,
                    result,
                    options,
                })
            }
            CommandCode::DisconnectionRequest => {
                Command::DisconnectionRequest(DisconnectionRequest {
                    dcid: Cid(r.read_u16().ok()?),
                    scid: Cid(r.read_u16().ok()?),
                })
            }
            CommandCode::DisconnectionResponse => {
                Command::DisconnectionResponse(DisconnectionResponse {
                    dcid: Cid(r.read_u16().ok()?),
                    scid: Cid(r.read_u16().ok()?),
                })
            }
            CommandCode::EchoRequest => Command::EchoRequest(EchoRequest {
                data: r.read_rest().to_vec(),
            }),
            CommandCode::EchoResponse => Command::EchoResponse(EchoResponse {
                data: r.read_rest().to_vec(),
            }),
            CommandCode::InformationRequest => Command::InformationRequest(InformationRequest {
                info_type: r.read_u16().ok()?,
            }),
            CommandCode::InformationResponse => Command::InformationResponse(InformationResponse {
                info_type: r.read_u16().ok()?,
                result: r.read_u16().ok()?,
                data: r.read_rest().to_vec(),
            }),
            CommandCode::CreateChannelRequest => {
                Command::CreateChannelRequest(CreateChannelRequest {
                    psm: Psm(r.read_u16().ok()?),
                    scid: Cid(r.read_u16().ok()?),
                    controller_id: r.read_u8().ok()?,
                })
            }
            CommandCode::CreateChannelResponse => {
                Command::CreateChannelResponse(CreateChannelResponse {
                    dcid: Cid(r.read_u16().ok()?),
                    scid: Cid(r.read_u16().ok()?),
                    result: ConnectionResult::from_u16(r.read_u16().ok()?)?,
                    status: r.read_u16().ok()?,
                })
            }
            CommandCode::MoveChannelRequest => Command::MoveChannelRequest(MoveChannelRequest {
                icid: Cid(r.read_u16().ok()?),
                dest_controller_id: r.read_u8().ok()?,
            }),
            CommandCode::MoveChannelResponse => Command::MoveChannelResponse(MoveChannelResponse {
                icid: Cid(r.read_u16().ok()?),
                result: MoveResult::from_u16(r.read_u16().ok()?)?,
            }),
            CommandCode::MoveChannelConfirmationRequest => {
                Command::MoveChannelConfirmationRequest(MoveChannelConfirmationRequest {
                    icid: Cid(r.read_u16().ok()?),
                    result: r.read_u16().ok()?,
                })
            }
            CommandCode::MoveChannelConfirmationResponse => {
                Command::MoveChannelConfirmationResponse(MoveChannelConfirmationResponse {
                    icid: Cid(r.read_u16().ok()?),
                })
            }
            CommandCode::ConnectionParameterUpdateRequest => {
                Command::ConnectionParameterUpdateRequest(ConnectionParameterUpdateRequest {
                    interval_min: r.read_u16().ok()?,
                    interval_max: r.read_u16().ok()?,
                    latency: r.read_u16().ok()?,
                    timeout: r.read_u16().ok()?,
                })
            }
            CommandCode::ConnectionParameterUpdateResponse => {
                Command::ConnectionParameterUpdateResponse(ConnectionParameterUpdateResponse {
                    result: r.read_u16().ok()?,
                })
            }
            CommandCode::LeCreditBasedConnectionRequest => {
                Command::LeCreditBasedConnectionRequest(LeCreditBasedConnectionRequest {
                    spsm: r.read_u16().ok()?,
                    scid: Cid(r.read_u16().ok()?),
                    mtu: r.read_u16().ok()?,
                    mps: r.read_u16().ok()?,
                    initial_credits: r.read_u16().ok()?,
                })
            }
            CommandCode::LeCreditBasedConnectionResponse => {
                Command::LeCreditBasedConnectionResponse(LeCreditBasedConnectionResponse {
                    dcid: Cid(r.read_u16().ok()?),
                    mtu: r.read_u16().ok()?,
                    mps: r.read_u16().ok()?,
                    initial_credits: r.read_u16().ok()?,
                    result: r.read_u16().ok()?,
                })
            }
            CommandCode::FlowControlCreditInd => {
                Command::FlowControlCreditInd(FlowControlCreditInd {
                    cid: Cid(r.read_u16().ok()?),
                    credits: r.read_u16().ok()?,
                })
            }
            CommandCode::CreditBasedConnectionRequest => {
                let spsm = r.read_u16().ok()?;
                let mtu = r.read_u16().ok()?;
                let mps = r.read_u16().ok()?;
                let initial_credits = r.read_u16().ok()?;
                let mut scids = Vec::new();
                while r.remaining() >= 2 {
                    scids.push(Cid(r.read_u16().ok()?));
                }
                Command::CreditBasedConnectionRequest(CreditBasedConnectionRequest {
                    spsm,
                    mtu,
                    mps,
                    initial_credits,
                    scids,
                })
            }
            CommandCode::CreditBasedConnectionResponse => {
                let mtu = r.read_u16().ok()?;
                let mps = r.read_u16().ok()?;
                let initial_credits = r.read_u16().ok()?;
                let result = r.read_u16().ok()?;
                let mut dcids = Vec::new();
                while r.remaining() >= 2 {
                    dcids.push(Cid(r.read_u16().ok()?));
                }
                Command::CreditBasedConnectionResponse(CreditBasedConnectionResponse {
                    mtu,
                    mps,
                    initial_credits,
                    result,
                    dcids,
                })
            }
            CommandCode::CreditBasedReconfigureRequest => {
                let mtu = r.read_u16().ok()?;
                let mps = r.read_u16().ok()?;
                let mut dcids = Vec::new();
                while r.remaining() >= 2 {
                    dcids.push(Cid(r.read_u16().ok()?));
                }
                Command::CreditBasedReconfigureRequest(CreditBasedReconfigureRequest {
                    mtu,
                    mps,
                    dcids,
                })
            }
            CommandCode::CreditBasedReconfigureResponse => {
                Command::CreditBasedReconfigureResponse(CreditBasedReconfigureResponse {
                    result: r.read_u16().ok()?,
                })
            }
        };
        Some(cmd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_commands() -> Vec<Command> {
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
