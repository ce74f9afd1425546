//! Property-based tests over the packet codecs and mutation invariants.

use btcore::{ByteReader, ByteSink, Cid, FuzzRng, Identifier, Psm};
use l2cap::code::CommandCode;
use l2cap::packet::{parse_signaling, L2capFrame, SignalingPacket, SignalingView};
use l2fuzz::guide::ChannelContext;
use l2fuzz::mutator::CoreFieldMutator;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn l2cap_frames_roundtrip(declared in 0u16..=2048, cid in 0u16..=0xFFFF, payload in proptest::collection::vec(any::<u8>(), 0..256)) {
        let frame = L2capFrame { declared_payload_len: declared, cid: Cid(cid), payload: payload.into() };
        let back = L2capFrame::parse(&frame.to_bytes()).unwrap();
        prop_assert_eq!(frame, back);
    }

    #[test]
    fn zero_copy_parse_matches_the_owned_parse(declared in 0u16..=2048, cid in 0u16..=0xFFFF, payload in proptest::collection::vec(any::<u8>(), 0..256)) {
        // The shared-buffer parse path must be byte-for-byte equivalent to
        // the owned (copying) codec on every input frame.
        let frame = L2capFrame { declared_payload_len: declared, cid: Cid(cid), payload: payload.into() };
        let wire = btcore::FrameBuf::from_vec(frame.to_bytes());
        let owned = L2capFrame::parse(&wire).unwrap();
        let shared = L2capFrame::parse_buf(&wire).unwrap();
        prop_assert_eq!(&owned, &shared);
        prop_assert_eq!(owned.to_bytes(), shared.to_bytes());
        // Above the inline capacity the payload really is a view into the
        // parsed buffer's allocation (smaller buffers are copied by value).
        let large = wire.len() > btcore::FrameBuf::INLINE_CAPACITY;
        prop_assert_eq!(shared.payload.shares_storage_with(&wire), large);

        // Same equivalence one layer down, on the signalling C-frame: the
        // in-place view reads every field and verdict the owned parse does,
        // and a runt shorter than the C-frame header fails both the same way.
        for len in [0, 1, 2, 3, wire.len()] {
            let bytes = &wire[..len];
            let (owned, view) = (SignalingPacket::parse(bytes), SignalingView::parse(bytes));
            prop_assert_eq!(owned.is_err(), len < 4);
            match (owned, view) {
                (Ok(owned), Ok(view)) => {
                    prop_assert_eq!(owned.identifier, view.identifier);
                    prop_assert_eq!(owned.code, view.code);
                    prop_assert_eq!(owned.declared_data_len, view.declared_data_len);
                    prop_assert_eq!(owned.data.as_slice(), view.data);
                    prop_assert!(std::ptr::eq(view.data, &bytes[4..]));
                    prop_assert_eq!(owned.is_length_consistent(), view.is_length_consistent());
                    prop_assert_eq!(owned.garbage_len(), view.garbage_len());
                    prop_assert_eq!(owned.command(), view.command());
                }
                (owned, view) => prop_assert_eq!(owned.err(), view.err()),
            }
        }
    }

    #[test]
    fn fragmentation_is_zero_copy_and_byte_identical(extra in 0usize..64, fragments in 1usize..5, seed in any::<u64>()) {
        use hci::acl::{fragment, reassemble, ACL_FRAGMENT_SIZE};
        // Payload sizes straddling continuation boundaries: (n-1) full
        // fragments plus a partial/empty tail around the boundary.
        let len = (fragments - 1) * ACL_FRAGMENT_SIZE + extra;
        let mut rng = FuzzRng::seed_from(seed);
        let payload: Vec<u8> = (0..len).map(|_| rng.next_u16() as u8).collect();
        let frame = L2capFrame::new(Cid(0x0040), payload);
        let wire = btcore::FrameBuf::from_vec(frame.to_bytes());

        let frags = fragment(btcore::ConnectionHandle(7), &wire);
        prop_assert_eq!(frags.len(), wire.len().div_ceil(ACL_FRAGMENT_SIZE).max(1));
        // Every fragment of a frame above the inline capacity is a view into
        // the frame's buffer, first flag set exactly once, and the chunks are
        // the byte-exact windows.
        let large = wire.len() > btcore::FrameBuf::INLINE_CAPACITY;
        let mut offset = 0usize;
        for (i, frag) in frags.iter().enumerate() {
            prop_assert_eq!(frag.boundary.is_first(), i == 0);
            prop_assert_eq!(frag.data.shares_storage_with(&wire), large);
            prop_assert_eq!(frag.data.as_slice(), &wire[offset..(offset + ACL_FRAGMENT_SIZE).min(wire.len())]);
            offset += frag.data.len();
        }
        prop_assert_eq!(offset, wire.len());

        // Reassembly restores the exact wire bytes, and a large
        // single-fragment sequence reassembles without any copy.
        let back = reassemble(&frags).unwrap();
        prop_assert_eq!(back.as_slice(), wire.as_slice());
        if frags.len() == 1 {
            prop_assert_eq!(back.shares_storage_with(&wire), large);
        }
        let reparsed = L2capFrame::parse_buf(&back).unwrap();
        prop_assert_eq!(reparsed, frame);
    }

    #[test]
    fn structural_validity_matches_the_decoder(code in any::<u8>(), data in proptest::collection::vec(any::<u8>(), 0..48)) {
        // The allocation-free validator used by the trace classifiers must
        // agree exactly with where `Command::decode` falls back to `Raw`.
        let is_raw = matches!(
            l2cap::command::Command::decode(code, &data),
            l2cap::command::Command::Raw { .. }
        );
        prop_assert_eq!(l2cap::command::Command::structurally_valid(code, &data), !is_raw);
    }

    #[test]
    fn signaling_packets_roundtrip(code in any::<u8>(), id in 1u8..=255, declared in 0u16..=1024, data in proptest::collection::vec(any::<u8>(), 0..128)) {
        let pkt = SignalingPacket { identifier: Identifier(id), code, declared_data_len: declared, data: data.into() };
        let back = SignalingPacket::parse(&pkt.to_bytes()).unwrap();
        prop_assert_eq!(pkt, back);
    }

    #[test]
    fn command_decode_never_panics(code in any::<u8>(), data in proptest::collection::vec(any::<u8>(), 0..64)) {
        let cmd = l2cap::command::Command::decode(code, &data);
        // Re-encoding a decoded command always yields bytes parseable again.
        let re = cmd.encode_data();
        let _ = l2cap::command::Command::decode(cmd.code_byte(), &re);
    }

    #[test]
    fn byte_writer_reader_roundtrip(values in proptest::collection::vec(any::<u16>(), 0..64)) {
        let mut bytes = Vec::new();
        for v in &values {
            bytes.write_u16(*v);
        }
        let mut r = ByteReader::new(&bytes);
        for v in &values {
            prop_assert_eq!(r.read_u16().unwrap(), *v);
        }
        prop_assert!(r.is_empty());
    }

    #[test]
    fn mutated_packets_keep_core_field_invariants(seed in any::<u64>(), code_idx in 0usize..26, garbage in 1usize..32) {
        let code = CommandCode::ALL[code_idx];
        let mut mutator = CoreFieldMutator::with_options(FuzzRng::seed_from(seed), true, true, garbage);
        let ctx = ChannelContext { scid: Cid(0x0040), dcid: Cid(0x0041), psm: Psm::SDP };
        let frame = mutator.mutate(code, &ctx, Identifier(1));
        prop_assert!(frame.cid.is_signaling() && frame.is_length_consistent());
        let pkt = parse_signaling(&frame).unwrap();
        // The code byte is never mutated.
        prop_assert_eq!(pkt.code, code.value());
        // Any PSM carried is in the abnormal space of Table IV.
        let core = l2cap::fields::extract_core_values(code, pkt.data);
        if let Some(psm) = core.psm {
            prop_assert!(l2cap::ranges::is_abnormal_psm(psm));
        }
        // The declared data length never exceeds what is carried (garbage is
        // appended after the declared fields).
        prop_assert!(usize::from(pkt.declared_data_len) <= pkt.data.len());
        // Garbage stays within the configured bound.
        prop_assert!(pkt.garbage_len() <= garbage.max(l2cap::fields::min_data_len(code)) + garbage);
    }
}
