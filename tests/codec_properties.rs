//! Property-based tests over the packet codecs and mutation invariants.
//!
//! Each property runs [`CASES`] cases drawn from one `FuzzRng` seeded by the
//! property's name, so every run sees the same cases.  A failing case panics
//! with the property's name and case number after its assertion's message.

use std::panic::{catch_unwind, AssertUnwindSafe};

use btcore::{splitmix64, ByteReader, ByteSink, Cid, FuzzRng, Identifier, Psm};
use l2cap::code::CommandCode;
use l2cap::command::Command;
use l2cap::packet::{parse_signaling, L2capFrame, SignalingPacket, SignalingView};
use l2fuzz::guide::ChannelContext;
use l2fuzz::mutator::CoreFieldMutator;

/// Cases run per property.
const CASES: u32 = 128;

/// Runs `property` on [`CASES`] cases drawn from a generator seeded by
/// `name`, naming the property and the case if one fails.
fn check(name: &str, mut property: impl FnMut(&mut FuzzRng)) {
    let seed = name.bytes().fold(0, |h, b| splitmix64(h ^ u64::from(b)));
    let mut rng = FuzzRng::seed_from(seed);
    for case in 0..CASES {
        if catch_unwind(AssertUnwindSafe(|| property(&mut rng))).is_err() {
            panic!("property `{name}` failed at case {case} of {CASES}");
        }
    }
}

/// A byte vector of uniform length below `max_len`.
fn bytes_below(rng: &mut FuzzRng, max_len: usize) -> Vec<u8> {
    let len = rng.index(max_len);
    rng.bytes(len)
}

/// A frame declaring 0..=2048 payload bytes on any CID, carrying 0..256.
fn arbitrary_frame(rng: &mut FuzzRng) -> L2capFrame {
    L2capFrame {
        declared_payload_len: rng.range_u16(0, 2048),
        cid: Cid(rng.next_u16()),
        payload: bytes_below(rng, 256).into(),
    }
}

#[test]
fn l2cap_frames_roundtrip() {
    check("l2cap_frames_roundtrip", |rng| {
        let frame = arbitrary_frame(rng);
        let back = L2capFrame::parse(&frame.to_bytes()).unwrap();
        assert_eq!(frame, back);
    });
}

#[test]
fn zero_copy_parse_matches_the_owned_parse() {
    check("zero_copy_parse_matches_the_owned_parse", |rng| {
        // The shared-buffer parse path must be byte-for-byte equivalent to
        // the owned (copying) codec on every input frame.
        let frame = arbitrary_frame(rng);
        let wire = btcore::FrameBuf::from_vec(frame.to_bytes());
        let owned = L2capFrame::parse(&wire).unwrap();
        let shared = L2capFrame::parse_buf(&wire).unwrap();
        assert_eq!(&owned, &shared);
        assert_eq!(owned.to_bytes(), shared.to_bytes());
        // Above the inline capacity the payload really is a view into the
        // parsed buffer's allocation (smaller buffers are copied by value).
        let large = wire.len() > btcore::FrameBuf::INLINE_CAPACITY;
        assert_eq!(shared.payload.shares_storage_with(&wire), large);

        // Same equivalence one layer down, on the signalling C-frame: the
        // in-place view reads every field and verdict the owned parse does,
        // and a runt shorter than the C-frame header fails both the same way.
        for len in [0, 1, 2, 3, wire.len()] {
            let bytes = &wire[..len];
            let (owned, view) = (SignalingPacket::parse(bytes), SignalingView::parse(bytes));
            assert_eq!(owned.is_err(), len < 4);
            match (owned, view) {
                (Ok(owned), Ok(view)) => {
                    assert_eq!(owned.identifier, view.identifier);
                    assert_eq!(owned.code, view.code);
                    assert_eq!(owned.declared_data_len, view.declared_data_len);
                    assert_eq!(owned.data.as_slice(), view.data);
                    assert!(std::ptr::eq(view.data, &bytes[4..]));
                    assert_eq!(owned.is_length_consistent(), view.is_length_consistent());
                    assert_eq!(owned.garbage_len(), view.garbage_len());
                    assert_eq!(owned.command(), view.command());
                }
                (owned, view) => assert_eq!(owned.err(), view.err()),
            }
        }
    });
}

#[test]
fn fragmentation_is_zero_copy_and_byte_identical() {
    use hci::acl::{fragment, reassemble, ACL_FRAGMENT_SIZE};
    check("fragmentation_is_zero_copy_and_byte_identical", |rng| {
        // Payload sizes straddling continuation boundaries: (n-1) full
        // fragments plus a partial/empty tail around the boundary.
        let extra = rng.index(64);
        let fragments = rng.range_usize(1, 4);
        let len = (fragments - 1) * ACL_FRAGMENT_SIZE + extra;
        let frame = L2capFrame::new(Cid(0x0040), rng.fork(0).bytes(len));
        let wire = btcore::FrameBuf::from_vec(frame.to_bytes());

        let frags = fragment(btcore::ConnectionHandle(7), &wire);
        assert_eq!(frags.len(), wire.len().div_ceil(ACL_FRAGMENT_SIZE).max(1));
        // Every fragment of a frame above the inline capacity is a view into
        // the frame's buffer, first flag set exactly once, and the chunks are
        // the byte-exact windows.
        let large = wire.len() > btcore::FrameBuf::INLINE_CAPACITY;
        let mut offset = 0usize;
        for (i, frag) in frags.iter().enumerate() {
            assert_eq!(frag.boundary.is_first(), i == 0);
            assert_eq!(frag.data.shares_storage_with(&wire), large);
            let end = (offset + ACL_FRAGMENT_SIZE).min(wire.len());
            assert_eq!(frag.data.as_slice(), &wire[offset..end]);
            offset += frag.data.len();
        }
        assert_eq!(offset, wire.len());

        // Reassembly restores the exact wire bytes, and a large
        // single-fragment sequence reassembles without any copy.
        let back = reassemble(&frags).unwrap();
        assert_eq!(back.as_slice(), wire.as_slice());
        if frags.len() == 1 {
            assert_eq!(back.shares_storage_with(&wire), large);
        }
        let reparsed = L2capFrame::parse_buf(&back).unwrap();
        assert_eq!(reparsed, frame);
    });
}

#[test]
fn structural_validity_matches_the_decoder() {
    check("structural_validity_matches_the_decoder", |rng| {
        // The allocation-free validator used by the trace classifiers must
        // agree exactly with where `Command::decode` falls back to `Raw`.
        let code = rng.next_u8();
        let data = bytes_below(rng, 48);
        let is_raw = matches!(Command::decode(code, &data), Command::Raw { .. });
        assert_eq!(Command::structurally_valid(code, &data), !is_raw);
    });
}

#[test]
fn signaling_packets_roundtrip() {
    check("signaling_packets_roundtrip", |rng| {
        let pkt = SignalingPacket {
            identifier: Identifier(rng.range_u16(1, 255) as u8),
            code: rng.next_u8(),
            declared_data_len: rng.range_u16(0, 1024),
            data: bytes_below(rng, 128).into(),
        };
        let back = SignalingPacket::parse(&pkt.to_bytes()).unwrap();
        assert_eq!(pkt, back);
    });
}

#[test]
fn command_decode_never_panics() {
    check("command_decode_never_panics", |rng| {
        let code = rng.next_u8();
        let cmd = Command::decode(code, &bytes_below(rng, 64));
        // Re-encoding a decoded command always yields bytes parseable again.
        let _ = Command::decode(cmd.code_byte(), &cmd.encode_data());
    });
}

#[test]
fn byte_writer_reader_roundtrip() {
    check("byte_writer_reader_roundtrip", |rng| {
        let count = rng.index(64);
        let values: Vec<u16> = (0..count).map(|_| rng.next_u16()).collect();
        let mut bytes = Vec::new();
        for v in &values {
            bytes.write_u16(*v);
        }
        let mut r = ByteReader::new(&bytes);
        for v in &values {
            assert_eq!(r.read_u16().unwrap(), *v);
        }
        assert!(r.is_empty());
    });
}

#[test]
fn mutated_packets_keep_core_field_invariants() {
    check("mutated_packets_keep_core_field_invariants", |rng| {
        let code = *rng.pick(&CommandCode::ALL);
        let garbage = rng.range_usize(1, 31);
        let mut mutator = CoreFieldMutator::with_options(rng.fork(0), true, true, garbage);
        let ctx = ChannelContext {
            scid: Cid(0x0040),
            dcid: Cid(0x0041),
            psm: Psm::SDP,
        };
        let frame = mutator.mutate(code, &ctx, Identifier(1));
        assert!(frame.cid.is_signaling() && frame.is_length_consistent());
        let pkt = parse_signaling(&frame).unwrap();
        // The code byte is never mutated.
        assert_eq!(pkt.code, code.value());
        // Any PSM carried is in the abnormal space of Table IV.
        let core = l2cap::fields::extract_core_values(code, pkt.data);
        if let Some(psm) = core.psm {
            assert!(l2cap::ranges::is_abnormal_psm(psm));
        }
        // The declared data length never exceeds what is carried (garbage is
        // appended after the declared fields).
        assert!(usize::from(pkt.declared_data_len) <= pkt.data.len());
        // Garbage stays within the configured bound.
        assert!(pkt.garbage_len() <= garbage.max(l2cap::fields::min_data_len(code)) + garbage);
    });
}
