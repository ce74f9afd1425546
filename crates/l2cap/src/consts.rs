//! Result, status, reject-reason and information-type codes used in
//! signalling command payloads.

use std::fmt;

/// Reason codes carried by a Command Reject packet.
///
/// The paper's mutation design is built around avoiding exactly these
/// rejections: mutating fixed/dependent fields provokes *command not
/// understood*, an out-of-range CIDP provokes *invalid CID in request*, and a
/// garbage tail longer than the signalling MTU provokes *signaling MTU
/// exceeded* (§III-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum RejectReason {
    /// `0x0000` Command not understood.
    CommandNotUnderstood = 0x0000,
    /// `0x0001` Signaling MTU exceeded.
    SignalingMtuExceeded = 0x0001,
    /// `0x0002` Invalid CID in request.
    InvalidCidInRequest = 0x0002,
}

impl RejectReason {
    /// Converts a raw reason value, if defined.
    pub fn from_u16(v: u16) -> Option<RejectReason> {
        match v {
            0x0000 => Some(RejectReason::CommandNotUnderstood),
            0x0001 => Some(RejectReason::SignalingMtuExceeded),
            0x0002 => Some(RejectReason::InvalidCidInRequest),
            _ => None,
        }
    }

    /// Returns the on-air value.
    pub const fn value(&self) -> u16 {
        *self as u16
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RejectReason::CommandNotUnderstood => "command not understood",
            RejectReason::SignalingMtuExceeded => "signaling MTU exceeded",
            RejectReason::InvalidCidInRequest => "invalid CID in request",
        };
        f.write_str(s)
    }
}

/// Result codes for Connection Response and Create Channel Response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum ConnectionResult {
    /// `0x0000` Connection successful.
    Success = 0x0000,
    /// `0x0001` Connection pending.
    Pending = 0x0001,
    /// `0x0002` Connection refused – PSM not supported.
    RefusedPsmNotSupported = 0x0002,
    /// `0x0003` Connection refused – security block.
    RefusedSecurityBlock = 0x0003,
    /// `0x0004` Connection refused – no resources available.
    RefusedNoResources = 0x0004,
    /// `0x0006` Connection refused – invalid Source CID.
    RefusedInvalidScid = 0x0006,
    /// `0x0007` Connection refused – Source CID already allocated.
    RefusedScidInUse = 0x0007,
}

impl ConnectionResult {
    /// Converts a raw result value, if defined.
    pub fn from_u16(v: u16) -> Option<ConnectionResult> {
        match v {
            0x0000 => Some(ConnectionResult::Success),
            0x0001 => Some(ConnectionResult::Pending),
            0x0002 => Some(ConnectionResult::RefusedPsmNotSupported),
            0x0003 => Some(ConnectionResult::RefusedSecurityBlock),
            0x0004 => Some(ConnectionResult::RefusedNoResources),
            0x0006 => Some(ConnectionResult::RefusedInvalidScid),
            0x0007 => Some(ConnectionResult::RefusedScidInUse),
            _ => None,
        }
    }

    /// Returns the on-air value.
    pub const fn value(&self) -> u16 {
        *self as u16
    }

    /// Returns `true` if the result denies the connection.
    pub const fn is_refusal(&self) -> bool {
        !matches!(self, ConnectionResult::Success | ConnectionResult::Pending)
    }
}

impl fmt::Display for ConnectionResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ConnectionResult::Success => "success",
            ConnectionResult::Pending => "pending",
            ConnectionResult::RefusedPsmNotSupported => "refused: PSM not supported",
            ConnectionResult::RefusedSecurityBlock => "refused: security block",
            ConnectionResult::RefusedNoResources => "refused: no resources",
            ConnectionResult::RefusedInvalidScid => "refused: invalid source CID",
            ConnectionResult::RefusedScidInUse => "refused: source CID already allocated",
        };
        f.write_str(s)
    }
}

/// Result codes for Configuration Response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum ConfigureResult {
    /// `0x0000` Success.
    Success = 0x0000,
    /// `0x0001` Failure – unacceptable parameters.
    UnacceptableParameters = 0x0001,
    /// `0x0002` Failure – rejected (no reason provided).
    Rejected = 0x0002,
    /// `0x0003` Failure – unknown options.
    UnknownOptions = 0x0003,
    /// `0x0004` Pending.
    Pending = 0x0004,
    /// `0x0005` Failure – flow spec rejected.
    FlowSpecRejected = 0x0005,
}

impl ConfigureResult {
    /// Converts a raw result value, if defined.
    pub fn from_u16(v: u16) -> Option<ConfigureResult> {
        match v {
            0x0000 => Some(ConfigureResult::Success),
            0x0001 => Some(ConfigureResult::UnacceptableParameters),
            0x0002 => Some(ConfigureResult::Rejected),
            0x0003 => Some(ConfigureResult::UnknownOptions),
            0x0004 => Some(ConfigureResult::Pending),
            0x0005 => Some(ConfigureResult::FlowSpecRejected),
            _ => None,
        }
    }

    /// Returns the on-air value.
    pub const fn value(&self) -> u16 {
        *self as u16
    }

    /// Returns `true` if the configuration was not accepted.
    pub const fn is_failure(&self) -> bool {
        !matches!(self, ConfigureResult::Success | ConfigureResult::Pending)
    }
}

impl fmt::Display for ConfigureResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ConfigureResult::Success => "success",
            ConfigureResult::UnacceptableParameters => "failure: unacceptable parameters",
            ConfigureResult::Rejected => "failure: rejected",
            ConfigureResult::UnknownOptions => "failure: unknown options",
            ConfigureResult::Pending => "pending",
            ConfigureResult::FlowSpecRejected => "failure: flow spec rejected",
        };
        f.write_str(s)
    }
}

/// Result codes for Move Channel Response / Confirmation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum MoveResult {
    /// `0x0000` Move success / confirmed.
    Success = 0x0000,
    /// `0x0001` Move pending.
    Pending = 0x0001,
    /// `0x0002` Move refused – controller ID not supported.
    RefusedControllerNotSupported = 0x0002,
    /// `0x0003` Move refused – new controller ID is same as old.
    RefusedSameController = 0x0003,
    /// `0x0004` Move refused – configuration not supported.
    RefusedConfigNotSupported = 0x0004,
    /// `0x0005` Move refused – collision.
    RefusedCollision = 0x0005,
    /// `0x0006` Move refused – not allowed.
    RefusedNotAllowed = 0x0006,
}

impl MoveResult {
    /// Converts a raw result value, if defined.
    pub fn from_u16(v: u16) -> Option<MoveResult> {
        match v {
            0x0000 => Some(MoveResult::Success),
            0x0001 => Some(MoveResult::Pending),
            0x0002 => Some(MoveResult::RefusedControllerNotSupported),
            0x0003 => Some(MoveResult::RefusedSameController),
            0x0004 => Some(MoveResult::RefusedConfigNotSupported),
            0x0005 => Some(MoveResult::RefusedCollision),
            0x0006 => Some(MoveResult::RefusedNotAllowed),
            _ => None,
        }
    }

    /// Returns the on-air value.
    pub const fn value(&self) -> u16 {
        *self as u16
    }

    /// Returns `true` if the move was refused.
    pub const fn is_refusal(&self) -> bool {
        !matches!(self, MoveResult::Success | MoveResult::Pending)
    }
}

impl fmt::Display for MoveResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MoveResult::Success => "success",
            MoveResult::Pending => "pending",
            MoveResult::RefusedControllerNotSupported => "refused: controller ID not supported",
            MoveResult::RefusedSameController => "refused: same controller",
            MoveResult::RefusedConfigNotSupported => "refused: configuration not supported",
            MoveResult::RefusedCollision => "refused: collision",
            MoveResult::RefusedNotAllowed => "refused: not allowed",
        };
        f.write_str(s)
    }
}

/// Connection status codes carried alongside a `Pending` connection result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum ConnectionStatus {
    /// `0x0000` No further information available.
    NoInfo = 0x0000,
    /// `0x0001` Authentication pending.
    AuthenticationPending = 0x0001,
    /// `0x0002` Authorization pending.
    AuthorizationPending = 0x0002,
}

impl ConnectionStatus {
    /// Converts a raw status value, if defined.
    pub fn from_u16(v: u16) -> Option<ConnectionStatus> {
        match v {
            0x0000 => Some(ConnectionStatus::NoInfo),
            0x0001 => Some(ConnectionStatus::AuthenticationPending),
            0x0002 => Some(ConnectionStatus::AuthorizationPending),
            _ => None,
        }
    }

    /// Returns the on-air value.
    pub const fn value(&self) -> u16 {
        *self as u16
    }
}

/// Information request/response types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum InfoType {
    /// `0x0001` Connectionless MTU.
    ConnectionlessMtu = 0x0001,
    /// `0x0002` Extended features supported.
    ExtendedFeatures = 0x0002,
    /// `0x0003` Fixed channels supported.
    FixedChannels = 0x0003,
}

impl InfoType {
    /// Converts a raw information type, if defined.
    pub fn from_u16(v: u16) -> Option<InfoType> {
        match v {
            0x0001 => Some(InfoType::ConnectionlessMtu),
            0x0002 => Some(InfoType::ExtendedFeatures),
            0x0003 => Some(InfoType::FixedChannels),
            _ => None,
        }
    }

    /// Returns the on-air value.
    pub const fn value(&self) -> u16 {
        *self as u16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reject_reason_roundtrip_and_display() {
        for v in 0u16..=2 {
            let r = RejectReason::from_u16(v).unwrap();
            assert_eq!(r.value(), v);
        }
        assert_eq!(RejectReason::from_u16(3), None);
        assert_eq!(
            RejectReason::InvalidCidInRequest.to_string(),
            "invalid CID in request"
        );
        assert_eq!(
            RejectReason::SignalingMtuExceeded.to_string(),
            "signaling MTU exceeded"
        );
    }

    #[test]
    fn connection_result_refusals() {
        assert!(!ConnectionResult::Success.is_refusal());
        assert!(!ConnectionResult::Pending.is_refusal());
        assert!(ConnectionResult::RefusedPsmNotSupported.is_refusal());
        assert!(ConnectionResult::RefusedSecurityBlock.is_refusal());
        assert!(ConnectionResult::RefusedInvalidScid.is_refusal());
    }

    #[test]
    fn connection_result_roundtrip() {
        for v in [0x0000, 0x0001, 0x0002, 0x0003, 0x0004, 0x0006, 0x0007] {
            assert_eq!(ConnectionResult::from_u16(v).unwrap().value(), v);
        }
        assert_eq!(ConnectionResult::from_u16(0x0005), None);
        assert_eq!(ConnectionResult::from_u16(0x0008), None);
    }

    #[test]
    fn configure_result_roundtrip_and_failure() {
        for v in 0u16..=5 {
            let r = ConfigureResult::from_u16(v).unwrap();
            assert_eq!(r.value(), v);
        }
        assert!(ConfigureResult::UnacceptableParameters.is_failure());
        assert!(!ConfigureResult::Success.is_failure());
        assert!(!ConfigureResult::Pending.is_failure());
    }

    #[test]
    fn move_result_roundtrip() {
        for v in 0u16..=6 {
            assert_eq!(MoveResult::from_u16(v).unwrap().value(), v);
        }
        assert!(MoveResult::RefusedCollision.is_refusal());
        assert!(!MoveResult::Pending.is_refusal());
    }

    #[test]
    fn info_type_and_status_roundtrip() {
        for v in 1u16..=3 {
            assert_eq!(InfoType::from_u16(v).unwrap().value(), v);
        }
        assert_eq!(InfoType::from_u16(0), None);
        for v in 0u16..=2 {
            assert_eq!(ConnectionStatus::from_u16(v).unwrap().value(), v);
        }
        assert_eq!(ConnectionStatus::from_u16(3), None);
    }
}
