//! Packet classification: malformed transmissions and rejection responses.
//!
//! The MP and PR ratios of §IV-A are defined over two classifications that a
//! trace analyst can make from packet bytes alone:
//!
//! * a **malformed** transmitted packet carries malicious information — a
//!   garbage tail, inconsistent length fields, an abnormal PSM, an undefined
//!   command code, or a payload that does not parse as its code's structure;
//! * a **rejection** received packet is the target turning a packet down — an
//!   L2CAP Command Reject, or a response whose result code refuses the
//!   request (connection refused, configuration failed, move refused).

use l2cap::code::CommandCode;
use l2cap::command::Command;
use l2cap::fields::CoreFieldValues;
use l2cap::packet::{parse_signaling, L2capFrame, SignalingView};
use l2cap::ranges::is_abnormal_psm;

/// Returns `true` if a frame transmitted on a BR/EDR link should be counted
/// as a malformed packet.
pub fn is_malformed(frame: &L2capFrame) -> bool {
    is_malformed_on(frame, btcore::LinkType::BrEdr)
}

/// Link-aware variant of [`is_malformed`]: on an LE link the credit-based
/// fields (SPSM, credits) are additionally checked against their abnormal
/// ranges.
pub fn is_malformed_on(frame: &L2capFrame, link: btcore::LinkType) -> bool {
    if !frame.cid.is_signaling() {
        // Data traffic is out of scope for the signalling fuzzers compared in
        // the paper.
        return false;
    }
    if !frame.is_length_consistent() {
        return true;
    }
    let Ok(packet) = parse_signaling(frame) else {
        return true;
    };
    is_malformed_signaling_on(packet, link)
}

/// The signalling-layer half of [`is_malformed_on`], for callers that
/// already read the C-frame (the single-pass trace analysis reads each
/// record once and feeds every classifier from it).
///
/// The LE credit-range checks only apply on an LE link: on BR/EDR the same
/// byte positions are plain application fields that legitimately hold zero
/// (e.g. a default-valued LE-family packet a classic fuzzer sends just to be
/// rejected), so classifying them by LE rules would skew classic metrics.
pub fn is_malformed_signaling_on(packet: SignalingView<'_>, link: btcore::LinkType) -> bool {
    is_malformed_signaling_keeping_core(packet, link, &mut None)
}

/// [`is_malformed_signaling_on`], also leaving in `core` the core field
/// values it extracted, when it got that far, so that the single-pass
/// analysis hands them on to the coverage replay instead of extracting them
/// a second time.
pub(crate) fn is_malformed_signaling_keeping_core(
    packet: SignalingView<'_>,
    link: btcore::LinkType,
    core: &mut Option<CoreFieldValues>,
) -> bool {
    if !packet.is_length_consistent() || packet.garbage_len() > 0 {
        return true;
    }
    let Some(code) = CommandCode::from_u8(packet.code) else {
        return true;
    };
    // Structurally undecodable payload for a defined code (checked without
    // materializing the command — this runs per record of every trace).
    if !Command::structurally_valid(packet.code, packet.data) {
        return true;
    }
    // Abnormal PSM values (Table IV) are malicious by construction.
    let core = core.insert(l2cap::fields::extract_core_values(code, packet.data));
    if let Some(psm) = core.psm {
        if is_abnormal_psm(psm) {
            return true;
        }
    }
    // The LE credit-based analogues: an SPSM outside the defined space or a
    // credit count from the zero-stall/overflow classes.
    if link.is_le() {
        let le = l2cap::fields::extract_le_values(code, packet.data);
        if let Some(spsm) = le.spsm {
            if l2cap::ranges::is_abnormal_spsm(spsm) {
                return true;
            }
        }
        if let Some(credits) = le.credits {
            if l2cap::ranges::is_abnormal_credits(credits) {
                return true;
            }
        }
    }
    false
}

/// Returns `true` if a received frame is a rejection from the target.
pub fn is_rejection(frame: &L2capFrame) -> bool {
    if !frame.cid.is_signaling() {
        return false;
    }
    let Ok(packet) = parse_signaling(frame) else {
        return false;
    };
    is_rejection_signaling(packet)
}

/// The signalling-layer half of [`is_rejection`], for callers that already
/// read the C-frame.
pub fn is_rejection_signaling(packet: SignalingView<'_>) -> bool {
    // Only eight command kinds can ever express a rejection; everything else
    // skips decoding entirely (this runs per received record of every trace).
    match CommandCode::from_u8(packet.code) {
        Some(
            CommandCode::CommandReject
            | CommandCode::ConnectionResponse
            | CommandCode::CreateChannelResponse
            | CommandCode::ConfigureResponse
            | CommandCode::MoveChannelResponse
            | CommandCode::LeCreditBasedConnectionResponse
            | CommandCode::CreditBasedConnectionResponse
            | CommandCode::CreditBasedReconfigureResponse,
        ) => {}
        _ => return false,
    }
    match Command::decode_opt(packet.code, packet.data) {
        Some(cmd) => is_rejection_command(&cmd),
        None => false,
    }
}

/// The decoded-command half of [`is_rejection_signaling`].
fn is_rejection_command(cmd: &Command) -> bool {
    match cmd {
        Command::CommandReject(_) => true,
        Command::ConnectionResponse(rsp) => rsp.result.is_refusal(),
        Command::CreateChannelResponse(rsp) => rsp.result.is_refusal(),
        Command::ConfigureResponse(rsp) => rsp.result.is_failure(),
        Command::MoveChannelResponse(rsp) => rsp.result.is_refusal(),
        // The LE credit-based responses carry a plain result word: non-zero
        // refuses the request.
        Command::LeCreditBasedConnectionResponse(rsp) => rsp.result != 0,
        Command::CreditBasedConnectionResponse(rsp) => rsp.result != 0,
        Command::CreditBasedReconfigureResponse(rsp) => rsp.result != 0,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btcore::{Cid, Identifier, Psm};
    use l2cap::command::{
        CommandReject, ConfigureRequest, ConnectionRequest, ConnectionResponse, EchoRequest,
    };
    use l2cap::consts::{ConnectionResult, RejectReason};
    use l2cap::packet::{signaling_frame, SignalingPacket};

    #[test]
    fn well_formed_packets_are_not_malformed() {
        let frame = signaling_frame(
            Identifier(1),
            &Command::ConnectionRequest(ConnectionRequest {
                psm: Psm::SDP,
                scid: Cid(0x0040),
            }),
        );
        assert!(!is_malformed(&frame));
        let frame = signaling_frame(
            Identifier(2),
            &Command::EchoRequest(EchoRequest {
                data: vec![1, 2, 3],
            }),
        );
        assert!(!is_malformed(&frame));
        let frame = signaling_frame(
            Identifier(3),
            &Command::ConfigureRequest(ConfigureRequest {
                dcid: Cid(0x0040),
                flags: 0,
                options: vec![],
            }),
        );
        assert!(!is_malformed(&frame));
    }

    #[test]
    fn garbage_tail_is_malformed() {
        let packet = SignalingPacket {
            identifier: Identifier(6),
            code: 0x04,
            declared_data_len: 8,
            data: vec![0x8F, 0x7B, 0, 0, 0, 0, 0, 0, 0xD2, 0x3A, 0x91, 0x0E].into(),
        };
        assert!(is_malformed(&packet.to_frame()));
    }

    #[test]
    fn abnormal_psm_is_malformed() {
        let frame = signaling_frame(
            Identifier(1),
            &Command::ConnectionRequest(ConnectionRequest {
                psm: Psm(0x0101),
                scid: Cid(0x0040),
            }),
        );
        assert!(is_malformed(&frame));
    }

    #[test]
    fn undefined_code_and_broken_structure_are_malformed() {
        let frame = SignalingPacket::from_raw(Identifier(1), 0x7F, vec![1, 2]).to_frame();
        assert!(is_malformed(&frame));
        // Connection request with only one data byte.
        let frame = SignalingPacket::from_raw(Identifier(1), 0x02, vec![1]).to_frame();
        assert!(is_malformed(&frame));
    }

    #[test]
    fn inconsistent_frame_length_is_malformed() {
        let sig = SignalingPacket::new(
            Identifier(1),
            Command::EchoRequest(EchoRequest { data: vec![] }),
        );
        let frame = L2capFrame {
            declared_payload_len: 2,
            cid: Cid::SIGNALING,
            payload: sig.to_bytes().into(),
        };
        assert!(is_malformed(&frame));
    }

    #[test]
    fn data_frames_are_not_counted() {
        let frame = L2capFrame::new(Cid(0x0040), vec![0xFF; 32]);
        assert!(!is_malformed(&frame));
        assert!(!is_rejection(&frame));
    }

    #[test]
    fn le_credit_abnormalities_count_only_on_le_links() {
        use l2cap::command::LeCreditBasedConnectionRequest;
        // Zero credits and a zero SPSM: abnormal by LE rules, but on a
        // classic link the same bytes are inert application fields.
        let frame = signaling_frame(
            Identifier(1),
            &Command::LeCreditBasedConnectionRequest(LeCreditBasedConnectionRequest {
                spsm: 0,
                scid: Cid(0x0040),
                mtu: 512,
                mps: 64,
                initial_credits: 0,
            }),
        );
        assert!(is_malformed_on(&frame, btcore::LinkType::Le));
        assert!(!is_malformed_on(&frame, btcore::LinkType::BrEdr));
        assert!(!is_malformed(&frame), "BR/EDR classification is unchanged");
        // A well-formed LE connect is clean on both.
        let frame = signaling_frame(
            Identifier(2),
            &Command::LeCreditBasedConnectionRequest(LeCreditBasedConnectionRequest {
                spsm: 0x0080,
                scid: Cid(0x0040),
                mtu: 512,
                mps: 64,
                initial_credits: 8,
            }),
        );
        assert!(!is_malformed_on(&frame, btcore::LinkType::Le));
    }

    #[test]
    fn le_refusal_responses_are_rejections() {
        use l2cap::command::LeCreditBasedConnectionResponse;
        let refused = signaling_frame(
            Identifier(1),
            &Command::LeCreditBasedConnectionResponse(LeCreditBasedConnectionResponse {
                dcid: Cid::NULL,
                mtu: 512,
                mps: 64,
                initial_credits: 0,
                result: 0x0002,
            }),
        );
        assert!(is_rejection(&refused));
        let accepted = signaling_frame(
            Identifier(2),
            &Command::LeCreditBasedConnectionResponse(LeCreditBasedConnectionResponse {
                dcid: Cid(0x0041),
                mtu: 512,
                mps: 64,
                initial_credits: 8,
                result: 0,
            }),
        );
        assert!(!is_rejection(&accepted));
    }

    #[test]
    fn command_reject_is_a_rejection() {
        let frame = signaling_frame(
            Identifier(1),
            &Command::CommandReject(CommandReject {
                reason: RejectReason::InvalidCidInRequest,
                data: vec![],
            }),
        );
        assert!(is_rejection(&frame));
    }

    #[test]
    fn refused_connection_response_is_a_rejection_but_success_is_not() {
        let refused = signaling_frame(
            Identifier(1),
            &Command::ConnectionResponse(ConnectionResponse {
                dcid: Cid::NULL,
                scid: Cid(0x0040),
                result: ConnectionResult::RefusedPsmNotSupported,
                status: 0,
            }),
        );
        assert!(is_rejection(&refused));
        let success = signaling_frame(
            Identifier(1),
            &Command::ConnectionResponse(ConnectionResponse {
                dcid: Cid(0x0041),
                scid: Cid(0x0040),
                result: ConnectionResult::Success,
                status: 0,
            }),
        );
        assert!(!is_rejection(&success));
    }

    #[test]
    fn echo_response_is_not_a_rejection() {
        let frame = signaling_frame(
            Identifier(1),
            &Command::EchoResponse(l2cap::command::EchoResponse { data: vec![] }),
        );
        assert!(!is_rejection(&frame));
    }
}
