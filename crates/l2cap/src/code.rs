//! Signalling command codes.
//!
//! Bluetooth 5.2 defines 26 L2CAP signalling commands (§II-A of the paper).
//! [`CommandCode`] enumerates all of them with their on-air code values and
//! records which are requests vs responses, and which existed back in the
//! Bluetooth 2.1 era (the specification revision the baseline fuzzers were
//! written against — relevant to the state-coverage comparison in §IV-D).

use std::fmt;

use serde::{Deserialize, Serialize};

/// An L2CAP signalling command code (the `CODE` field of a C-frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum CommandCode {
    /// `0x01` Command Reject.
    CommandReject = 0x01,
    /// `0x02` Connection Request.
    ConnectionRequest = 0x02,
    /// `0x03` Connection Response.
    ConnectionResponse = 0x03,
    /// `0x04` Configuration Request.
    ConfigureRequest = 0x04,
    /// `0x05` Configuration Response.
    ConfigureResponse = 0x05,
    /// `0x06` Disconnection Request.
    DisconnectionRequest = 0x06,
    /// `0x07` Disconnection Response.
    DisconnectionResponse = 0x07,
    /// `0x08` Echo Request (the L2CAP "ping").
    EchoRequest = 0x08,
    /// `0x09` Echo Response.
    EchoResponse = 0x09,
    /// `0x0A` Information Request.
    InformationRequest = 0x0A,
    /// `0x0B` Information Response.
    InformationResponse = 0x0B,
    /// `0x0C` Create Channel Request (AMP).
    CreateChannelRequest = 0x0C,
    /// `0x0D` Create Channel Response (AMP).
    CreateChannelResponse = 0x0D,
    /// `0x0E` Move Channel Request (AMP).
    MoveChannelRequest = 0x0E,
    /// `0x0F` Move Channel Response (AMP).
    MoveChannelResponse = 0x0F,
    /// `0x10` Move Channel Confirmation Request (AMP).
    MoveChannelConfirmationRequest = 0x10,
    /// `0x11` Move Channel Confirmation Response (AMP).
    MoveChannelConfirmationResponse = 0x11,
    /// `0x12` Connection Parameter Update Request (LE).
    ConnectionParameterUpdateRequest = 0x12,
    /// `0x13` Connection Parameter Update Response (LE).
    ConnectionParameterUpdateResponse = 0x13,
    /// `0x14` LE Credit Based Connection Request.
    LeCreditBasedConnectionRequest = 0x14,
    /// `0x15` LE Credit Based Connection Response.
    LeCreditBasedConnectionResponse = 0x15,
    /// `0x16` Flow Control Credit Indication.
    FlowControlCreditInd = 0x16,
    /// `0x17` Credit Based Connection Request (enhanced, BR/EDR or LE).
    CreditBasedConnectionRequest = 0x17,
    /// `0x18` Credit Based Connection Response.
    CreditBasedConnectionResponse = 0x18,
    /// `0x19` Credit Based Reconfigure Request.
    CreditBasedReconfigureRequest = 0x19,
    /// `0x1A` Credit Based Reconfigure Response.
    CreditBasedReconfigureResponse = 0x1A,
}

impl CommandCode {
    /// All 26 Bluetooth 5.2 signalling command codes, in numeric order.
    pub const ALL: [CommandCode; 26] = [
        CommandCode::CommandReject,
        CommandCode::ConnectionRequest,
        CommandCode::ConnectionResponse,
        CommandCode::ConfigureRequest,
        CommandCode::ConfigureResponse,
        CommandCode::DisconnectionRequest,
        CommandCode::DisconnectionResponse,
        CommandCode::EchoRequest,
        CommandCode::EchoResponse,
        CommandCode::InformationRequest,
        CommandCode::InformationResponse,
        CommandCode::CreateChannelRequest,
        CommandCode::CreateChannelResponse,
        CommandCode::MoveChannelRequest,
        CommandCode::MoveChannelResponse,
        CommandCode::MoveChannelConfirmationRequest,
        CommandCode::MoveChannelConfirmationResponse,
        CommandCode::ConnectionParameterUpdateRequest,
        CommandCode::ConnectionParameterUpdateResponse,
        CommandCode::LeCreditBasedConnectionRequest,
        CommandCode::LeCreditBasedConnectionResponse,
        CommandCode::FlowControlCreditInd,
        CommandCode::CreditBasedConnectionRequest,
        CommandCode::CreditBasedConnectionResponse,
        CommandCode::CreditBasedReconfigureRequest,
        CommandCode::CreditBasedReconfigureResponse,
    ];

    /// Command codes that already existed in Bluetooth 2.1 + EDR (2007), the
    /// specification the legacy baseline fuzzers target (§IV-D).
    pub const BT_2_1: [CommandCode; 11] = [
        CommandCode::CommandReject,
        CommandCode::ConnectionRequest,
        CommandCode::ConnectionResponse,
        CommandCode::ConfigureRequest,
        CommandCode::ConfigureResponse,
        CommandCode::DisconnectionRequest,
        CommandCode::DisconnectionResponse,
        CommandCode::EchoRequest,
        CommandCode::EchoResponse,
        CommandCode::InformationRequest,
        CommandCode::InformationResponse,
    ];

    /// Converts a raw code byte into a [`CommandCode`], if defined.
    ///
    /// This sits on the per-packet classification hot path (every sniffed
    /// record and every endpoint dispatch goes through it), so it is a single
    /// indexed load into a 256-entry constant table rather than a scan over
    /// the 26 variants; `tests` assert the table agrees with the scan for
    /// every possible byte.
    #[inline]
    pub fn from_u8(v: u8) -> Option<CommandCode> {
        const LUT: [Option<CommandCode>; 256] = {
            let mut table = [None; 256];
            let mut i = 0;
            while i < CommandCode::ALL.len() {
                let code = CommandCode::ALL[i];
                table[code as u8 as usize] = Some(code);
                i += 1;
            }
            table
        };
        LUT[usize::from(v)]
    }

    /// Returns the on-air code value.
    pub const fn value(&self) -> u8 {
        *self as u8
    }

    /// Returns `true` for request-type commands (commands a peer is expected
    /// to answer), `false` for responses and indications.
    pub const fn is_request(&self) -> bool {
        matches!(
            self,
            CommandCode::ConnectionRequest
                | CommandCode::ConfigureRequest
                | CommandCode::DisconnectionRequest
                | CommandCode::EchoRequest
                | CommandCode::InformationRequest
                | CommandCode::CreateChannelRequest
                | CommandCode::MoveChannelRequest
                | CommandCode::MoveChannelConfirmationRequest
                | CommandCode::ConnectionParameterUpdateRequest
                | CommandCode::LeCreditBasedConnectionRequest
                | CommandCode::CreditBasedConnectionRequest
                | CommandCode::CreditBasedReconfigureRequest
        )
    }

    /// Returns `true` for response-type commands.
    pub const fn is_response(&self) -> bool {
        matches!(
            self,
            CommandCode::CommandReject
                | CommandCode::ConnectionResponse
                | CommandCode::ConfigureResponse
                | CommandCode::DisconnectionResponse
                | CommandCode::EchoResponse
                | CommandCode::InformationResponse
                | CommandCode::CreateChannelResponse
                | CommandCode::MoveChannelResponse
                | CommandCode::MoveChannelConfirmationResponse
                | CommandCode::ConnectionParameterUpdateResponse
                | CommandCode::LeCreditBasedConnectionResponse
                | CommandCode::CreditBasedConnectionResponse
                | CommandCode::CreditBasedReconfigureResponse
        )
    }

    /// For a request, returns the response code a conforming peer answers
    /// with; `None` for responses and indications.
    pub const fn expected_response(&self) -> Option<CommandCode> {
        match self {
            CommandCode::ConnectionRequest => Some(CommandCode::ConnectionResponse),
            CommandCode::ConfigureRequest => Some(CommandCode::ConfigureResponse),
            CommandCode::DisconnectionRequest => Some(CommandCode::DisconnectionResponse),
            CommandCode::EchoRequest => Some(CommandCode::EchoResponse),
            CommandCode::InformationRequest => Some(CommandCode::InformationResponse),
            CommandCode::CreateChannelRequest => Some(CommandCode::CreateChannelResponse),
            CommandCode::MoveChannelRequest => Some(CommandCode::MoveChannelResponse),
            CommandCode::MoveChannelConfirmationRequest => {
                Some(CommandCode::MoveChannelConfirmationResponse)
            }
            CommandCode::ConnectionParameterUpdateRequest => {
                Some(CommandCode::ConnectionParameterUpdateResponse)
            }
            CommandCode::LeCreditBasedConnectionRequest => {
                Some(CommandCode::LeCreditBasedConnectionResponse)
            }
            CommandCode::CreditBasedConnectionRequest => {
                Some(CommandCode::CreditBasedConnectionResponse)
            }
            CommandCode::CreditBasedReconfigureRequest => {
                Some(CommandCode::CreditBasedReconfigureResponse)
            }
            _ => None,
        }
    }

    /// Returns `true` if the command is only meaningful on LE links; the
    /// BR/EDR acceptor rejects these with "command not understood".
    pub const fn is_le_only(&self) -> bool {
        matches!(
            self,
            CommandCode::ConnectionParameterUpdateRequest
                | CommandCode::ConnectionParameterUpdateResponse
                | CommandCode::LeCreditBasedConnectionRequest
                | CommandCode::LeCreditBasedConnectionResponse
        )
    }

    /// Returns `true` if the command is only meaningful on classic BR/EDR
    /// (ACL-U) links; the LE acceptor rejects these with "command not
    /// understood", symmetrically to [`CommandCode::is_le_only`].
    ///
    /// These are connection establishment/configuration, echo, information
    /// and the AMP create/move family (`0x02–0x05`, `0x08–0x11`).  Command
    /// Reject, disconnection, the flow-control credit indication and the
    /// enhanced credit-based family (`0x16–0x1A`) are valid on both links.
    pub const fn is_classic_only(&self) -> bool {
        matches!(
            self,
            CommandCode::ConnectionRequest
                | CommandCode::ConnectionResponse
                | CommandCode::ConfigureRequest
                | CommandCode::ConfigureResponse
                | CommandCode::EchoRequest
                | CommandCode::EchoResponse
                | CommandCode::InformationRequest
                | CommandCode::InformationResponse
                | CommandCode::CreateChannelRequest
                | CommandCode::CreateChannelResponse
                | CommandCode::MoveChannelRequest
                | CommandCode::MoveChannelResponse
                | CommandCode::MoveChannelConfirmationRequest
                | CommandCode::MoveChannelConfirmationResponse
        )
    }

    /// Returns `true` if a spec-conformant acceptor on the given link type
    /// processes this command at all (rather than rejecting it as "command
    /// not understood" because it belongs to the other transport).
    pub const fn valid_on(&self, link: btcore::LinkType) -> bool {
        match link {
            btcore::LinkType::BrEdr => !self.is_le_only(),
            btcore::LinkType::Le => !self.is_classic_only(),
        }
    }

    /// Short mnemonic used in traces and reports (e.g. `Connect Req`).
    pub const fn mnemonic(&self) -> &'static str {
        match self {
            CommandCode::CommandReject => "Command Reject",
            CommandCode::ConnectionRequest => "Connect Req",
            CommandCode::ConnectionResponse => "Connect Rsp",
            CommandCode::ConfigureRequest => "Config Req",
            CommandCode::ConfigureResponse => "Config Rsp",
            CommandCode::DisconnectionRequest => "Disconnect Req",
            CommandCode::DisconnectionResponse => "Disconnect Rsp",
            CommandCode::EchoRequest => "Echo Req",
            CommandCode::EchoResponse => "Echo Rsp",
            CommandCode::InformationRequest => "Info Req",
            CommandCode::InformationResponse => "Info Rsp",
            CommandCode::CreateChannelRequest => "Create Channel Req",
            CommandCode::CreateChannelResponse => "Create Channel Rsp",
            CommandCode::MoveChannelRequest => "Move Channel Req",
            CommandCode::MoveChannelResponse => "Move Channel Rsp",
            CommandCode::MoveChannelConfirmationRequest => "Move Channel Confirm Req",
            CommandCode::MoveChannelConfirmationResponse => "Move Channel Confirm Rsp",
            CommandCode::ConnectionParameterUpdateRequest => "Conn Param Update Req",
            CommandCode::ConnectionParameterUpdateResponse => "Conn Param Update Rsp",
            CommandCode::LeCreditBasedConnectionRequest => "LE Credit Based Connect Req",
            CommandCode::LeCreditBasedConnectionResponse => "LE Credit Based Connect Rsp",
            CommandCode::FlowControlCreditInd => "Flow Control Credit Ind",
            CommandCode::CreditBasedConnectionRequest => "Credit Based Connect Req",
            CommandCode::CreditBasedConnectionResponse => "Credit Based Connect Rsp",
            CommandCode::CreditBasedReconfigureRequest => "Credit Based Reconfigure Req",
            CommandCode::CreditBasedReconfigureResponse => "Credit Based Reconfigure Rsp",
        }
    }
}

impl fmt::Display for CommandCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (0x{:02X})", self.mnemonic(), self.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_26_commands_in_bt_5_2() {
        assert_eq!(CommandCode::ALL.len(), 26);
        // All values are distinct and contiguous 0x01..=0x1A.
        let values: Vec<u8> = CommandCode::ALL.iter().map(|c| c.value()).collect();
        assert_eq!(values, (0x01..=0x1A).collect::<Vec<u8>>());
    }

    #[test]
    fn bt_2_1_subset_is_contained_in_5_2() {
        assert_eq!(CommandCode::BT_2_1.len(), 11);
        for c in CommandCode::BT_2_1 {
            assert!(CommandCode::ALL.contains(&c));
            assert!(c.value() <= 0x0B);
        }
    }

    #[test]
    fn from_u8_roundtrip() {
        for c in CommandCode::ALL {
            assert_eq!(CommandCode::from_u8(c.value()), Some(c));
        }
        assert_eq!(CommandCode::from_u8(0x00), None);
        assert_eq!(CommandCode::from_u8(0x1B), None);
        assert_eq!(CommandCode::from_u8(0xFF), None);
    }

    #[test]
    fn every_command_is_request_xor_response_except_indication() {
        for c in CommandCode::ALL {
            if c == CommandCode::FlowControlCreditInd {
                assert!(!c.is_request() && !c.is_response());
            } else {
                assert!(
                    c.is_request() ^ c.is_response(),
                    "{c} must be exactly one of req/rsp"
                );
            }
        }
    }

    #[test]
    fn every_request_has_a_response() {
        for c in CommandCode::ALL.iter().filter(|c| c.is_request()) {
            let rsp = c.expected_response().expect("request must have response");
            assert!(rsp.is_response());
            // Response code is request code + 1 for all BT 5.2 commands except
            // the credit-based reconfigure pair, where it also holds.
            assert_eq!(rsp.value(), c.value() + 1);
        }
    }

    #[test]
    fn responses_have_no_expected_response() {
        for c in CommandCode::ALL.iter().filter(|c| c.is_response()) {
            assert_eq!(c.expected_response(), None);
        }
    }

    #[test]
    fn le_only_commands() {
        assert!(CommandCode::LeCreditBasedConnectionRequest.is_le_only());
        assert!(CommandCode::ConnectionParameterUpdateRequest.is_le_only());
        assert!(!CommandCode::ConnectionRequest.is_le_only());
        assert!(!CommandCode::CreditBasedConnectionRequest.is_le_only());
    }

    #[test]
    fn from_u8_lookup_table_matches_a_linear_scan_for_every_byte() {
        for v in 0..=u8::MAX {
            let scanned = CommandCode::ALL.iter().copied().find(|c| *c as u8 == v);
            assert_eq!(
                CommandCode::from_u8(v),
                scanned,
                "lookup table diverges from linear scan at 0x{v:02X}"
            );
        }
    }

    #[test]
    fn link_validity_partitions_the_code_space() {
        use btcore::LinkType;
        for c in CommandCode::ALL {
            // No command is both LE-only and classic-only.
            assert!(!(c.is_le_only() && c.is_classic_only()), "{c} is both");
            assert_eq!(c.valid_on(LinkType::BrEdr), !c.is_le_only());
            assert_eq!(c.valid_on(LinkType::Le), !c.is_classic_only());
        }
        // The partition sizes: 4 LE-only, 14 classic-only, 8 on both links.
        let le_only = CommandCode::ALL.iter().filter(|c| c.is_le_only()).count();
        let classic = CommandCode::ALL
            .iter()
            .filter(|c| c.is_classic_only())
            .count();
        assert_eq!(le_only, 4);
        assert_eq!(classic, 14);
        assert_eq!(26 - le_only - classic, 8);
        // Spot checks for the shared family.
        for c in [
            CommandCode::CommandReject,
            CommandCode::DisconnectionRequest,
            CommandCode::FlowControlCreditInd,
            CommandCode::CreditBasedConnectionRequest,
            CommandCode::CreditBasedReconfigureResponse,
        ] {
            assert!(c.valid_on(LinkType::BrEdr) && c.valid_on(LinkType::Le));
        }
    }

    #[test]
    fn display_contains_mnemonic_and_code() {
        let s = CommandCode::ConnectionRequest.to_string();
        assert!(s.contains("Connect Req"));
        assert!(s.contains("0x02"));
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut names: Vec<&str> = CommandCode::ALL.iter().map(|c| c.mnemonic()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 26);
    }
}
