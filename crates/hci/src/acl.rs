//! HCI ACL data packets and L2CAP fragmentation/reassembly.
//!
//! The outermost layer of the paper's Fig. 3 frame is the HCI ACL data
//! packet: a packet-type byte, the 12-bit connection handle plus the
//! packet-boundary / broadcast flags, and a 16-bit data length.  L2CAP frames
//! larger than the controller's ACL buffer are fragmented across several ACL
//! packets and reassembled on the other side using the boundary flag.

use btcore::{ByteReader, ByteSink, CodecError, ConnectionHandle, FrameBuf};

/// HCI packet type byte for ACL data packets.
pub const ACL_DATA_PACKET_TYPE: u8 = 0x02;

/// Size of an ACL fragment used by the virtual controller (bytes of L2CAP
/// data per ACL packet).  Chosen to match a common controller buffer size.
pub const ACL_FRAGMENT_SIZE: usize = 1021;

/// Packet boundary flag of an ACL data packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundaryFlag {
    /// First fragment of a (possibly fragmented) L2CAP frame.
    FirstNonFlushable,
    /// Continuation fragment.
    Continuation,
    /// First fragment, flushable.
    FirstFlushable,
}

impl BoundaryFlag {
    /// Encodes the two-bit flag value.
    pub const fn bits(&self) -> u16 {
        match self {
            BoundaryFlag::FirstNonFlushable => 0b00,
            BoundaryFlag::Continuation => 0b01,
            BoundaryFlag::FirstFlushable => 0b10,
        }
    }

    /// Decodes the two-bit flag value.
    pub fn from_bits(bits: u16) -> Option<BoundaryFlag> {
        match bits & 0b11 {
            0b00 => Some(BoundaryFlag::FirstNonFlushable),
            0b01 => Some(BoundaryFlag::Continuation),
            0b10 => Some(BoundaryFlag::FirstFlushable),
            _ => None,
        }
    }

    /// Returns `true` for the two "first fragment" variants.
    pub const fn is_first(&self) -> bool {
        !matches!(self, BoundaryFlag::Continuation)
    }
}

/// One HCI ACL data packet.
///
/// The carried bytes are a [`FrameBuf`] view: a packet produced by
/// [`fragment`] slices its chunk out of the parent frame's buffer, sharing
/// the allocation of a frame too large to be held inline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AclPacket {
    /// Connection handle identifying the baseband link.
    pub handle: ConnectionHandle,
    /// Packet boundary flag.
    pub boundary: BoundaryFlag,
    /// Broadcast flag (0 = point-to-point).
    pub broadcast: u8,
    /// Carried bytes (a whole L2CAP frame or a fragment of one).
    pub data: FrameBuf,
}

impl AclPacket {
    /// Serializes the packet including the HCI packet-type byte.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Vec::with_capacity(5 + self.data.len());
        w.write_u8(ACL_DATA_PACKET_TYPE);
        let handle_and_flags = (self.handle.value() & 0x0FFF)
            | (self.boundary.bits() << 12)
            | ((u16::from(self.broadcast) & 0b11) << 14);
        w.write_u16(handle_and_flags);
        w.write_u16(self.data.len() as u16);
        w.write_bytes(&self.data);
        w
    }

    /// Parses an ACL packet from raw bytes.
    ///
    /// # Errors
    /// Returns a [`CodecError`] if the header is truncated, the packet type is
    /// not ACL data, or the declared length exceeds the available bytes.
    pub fn parse(bytes: &[u8]) -> Result<AclPacket, CodecError> {
        let mut r = ByteReader::new(bytes);
        let packet_type = r.read_u8()?;
        if packet_type != ACL_DATA_PACKET_TYPE {
            return Err(CodecError::InvalidValue {
                field: "hci_packet_type".to_owned(),
                value: u64::from(packet_type),
            });
        }
        let handle_and_flags = r.read_u16()?;
        let handle = ConnectionHandle(handle_and_flags & 0x0FFF);
        let boundary = BoundaryFlag::from_bits((handle_and_flags >> 12) & 0b11).ok_or(
            CodecError::InvalidValue {
                field: "packet_boundary_flag".to_owned(),
                value: u64::from((handle_and_flags >> 12) & 0b11),
            },
        )?;
        let broadcast = ((handle_and_flags >> 14) & 0b11) as u8;
        let len = r.read_u16()? as usize;
        if r.remaining() < len {
            return Err(CodecError::LengthMismatch {
                declared: len,
                actual: r.remaining(),
            });
        }
        let data = FrameBuf::copy_from_slice(r.read_bytes(len)?);
        Ok(AclPacket {
            handle,
            boundary,
            broadcast,
            data,
        })
    }
}

/// Splits an L2CAP frame's bytes into ACL fragments of at most
/// [`ACL_FRAGMENT_SIZE`] bytes each.
///
/// Every fragment's data is a slice of `l2cap_bytes`.  The fragments of a
/// frame above the inline capacity share its allocation, so no payload byte
/// is duplicated, regardless of the fragment count.
pub fn fragment(handle: ConnectionHandle, l2cap_bytes: &FrameBuf) -> Vec<AclPacket> {
    if l2cap_bytes.is_empty() {
        return vec![AclPacket {
            handle,
            boundary: BoundaryFlag::FirstNonFlushable,
            broadcast: 0,
            data: FrameBuf::new(),
        }];
    }
    (0..l2cap_bytes.len())
        .step_by(ACL_FRAGMENT_SIZE)
        .map(|start| AclPacket {
            handle,
            boundary: if start == 0 {
                BoundaryFlag::FirstNonFlushable
            } else {
                BoundaryFlag::Continuation
            },
            broadcast: 0,
            data: l2cap_bytes.slice(start..(start + ACL_FRAGMENT_SIZE).min(l2cap_bytes.len())),
        })
        .collect()
}

/// Reassembles a sequence of ACL fragments back into the L2CAP frame bytes.
///
/// A single-fragment sequence reassembles into the fragment's own buffer
/// (shared, when it is above the inline capacity).  Multi-fragment sequences
/// concatenate the chunks into one fresh buffer.
///
/// # Errors
/// Returns a [`CodecError`] if the sequence is empty, does not start with a
/// first-fragment, contains an unexpected first-fragment in the middle, or
/// mixes fragments of different connection handles.
pub fn reassemble(packets: &[AclPacket]) -> Result<FrameBuf, CodecError> {
    let first = packets.first().ok_or(CodecError::UnexpectedEnd {
        wanted: 1,
        available: 0,
    })?;
    if !first.boundary.is_first() {
        return Err(CodecError::InvalidValue {
            field: "packet_boundary_flag".to_owned(),
            value: u64::from(first.boundary.bits()),
        });
    }
    for p in &packets[1..] {
        if p.boundary.is_first() {
            return Err(CodecError::InvalidValue {
                field: "packet_boundary_flag".to_owned(),
                value: u64::from(p.boundary.bits()),
            });
        }
        if p.handle != first.handle {
            return Err(CodecError::InvalidValue {
                field: "connection_handle".to_owned(),
                value: u64::from(p.handle.value()),
            });
        }
    }
    if packets.len() == 1 {
        return Ok(first.data.clone());
    }
    Ok(FrameBuf::build(|out| {
        for p in packets {
            out.extend_from_slice(&p.data);
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acl_packet_roundtrip() {
        let pkt = AclPacket {
            handle: ConnectionHandle(0x0ABC),
            boundary: BoundaryFlag::FirstFlushable,
            broadcast: 0,
            data: vec![1, 2, 3, 4, 5].into(),
        };
        let bytes = pkt.to_bytes();
        assert_eq!(bytes[0], ACL_DATA_PACKET_TYPE);
        assert_eq!(AclPacket::parse(&bytes).unwrap(), pkt);
    }

    #[test]
    fn parse_rejects_wrong_packet_type() {
        let mut bytes = AclPacket {
            handle: ConnectionHandle(1),
            boundary: BoundaryFlag::Continuation,
            broadcast: 0,
            data: FrameBuf::new(),
        }
        .to_bytes();
        bytes[0] = 0x04; // HCI event packet
        assert!(AclPacket::parse(&bytes).is_err());
    }

    #[test]
    fn parse_rejects_truncated_data() {
        let mut bytes = AclPacket {
            handle: ConnectionHandle(1),
            boundary: BoundaryFlag::FirstNonFlushable,
            broadcast: 0,
            data: vec![9; 10].into(),
        }
        .to_bytes();
        bytes.truncate(bytes.len() - 3);
        assert!(matches!(
            AclPacket::parse(&bytes),
            Err(CodecError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn boundary_flag_bits_roundtrip() {
        for flag in [
            BoundaryFlag::FirstNonFlushable,
            BoundaryFlag::Continuation,
            BoundaryFlag::FirstFlushable,
        ] {
            assert_eq!(BoundaryFlag::from_bits(flag.bits()), Some(flag));
        }
        assert_eq!(BoundaryFlag::from_bits(0b11), None);
    }

    #[test]
    fn small_frame_is_a_single_fragment() {
        let frags = fragment(ConnectionHandle(7), &FrameBuf::from(vec![1, 2, 3]));
        assert_eq!(frags.len(), 1);
        assert!(frags[0].boundary.is_first());
        assert_eq!(reassemble(&frags).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn large_frame_fragments_and_reassembles() {
        let payload = FrameBuf::from_vec((0..4000u16).map(|i| (i % 251) as u8).collect());
        let frags = fragment(ConnectionHandle(7), &payload);
        assert_eq!(frags.len(), payload.len().div_ceil(ACL_FRAGMENT_SIZE));
        assert!(frags[0].boundary.is_first());
        assert!(frags[1..]
            .iter()
            .all(|f| f.boundary == BoundaryFlag::Continuation));
        assert_eq!(reassemble(&frags).unwrap(), payload);
    }

    #[test]
    fn empty_frame_still_produces_one_fragment() {
        let frags = fragment(ConnectionHandle(7), &FrameBuf::new());
        assert_eq!(frags.len(), 1);
        assert_eq!(reassemble(&frags).unwrap(), FrameBuf::new());
    }

    #[test]
    fn reassemble_rejects_bad_sequences() {
        assert!(reassemble(&[]).is_err());
        let continuation_only = vec![AclPacket {
            handle: ConnectionHandle(1),
            boundary: BoundaryFlag::Continuation,
            broadcast: 0,
            data: vec![1].into(),
        }];
        assert!(reassemble(&continuation_only).is_err());
        let two_firsts = vec![
            AclPacket {
                handle: ConnectionHandle(1),
                boundary: BoundaryFlag::FirstNonFlushable,
                broadcast: 0,
                data: vec![1].into(),
            },
            AclPacket {
                handle: ConnectionHandle(1),
                boundary: BoundaryFlag::FirstFlushable,
                broadcast: 0,
                data: vec![2].into(),
            },
        ];
        assert!(reassemble(&two_firsts).is_err());
        // A continuation from another link must not splice into this frame.
        let mut foreign = fragment(ConnectionHandle(1), &FrameBuf::from(vec![0x5A; 3000]));
        foreign[1].handle = ConnectionHandle(2);
        assert!(matches!(
            reassemble(&foreign),
            Err(CodecError::InvalidValue { field, value: 2 }) if field == "connection_handle"
        ));
    }
}
