//! FNV-1a digests over campaign artifacts.
//!
//! Everything the checkpoint pins — a shard's committed result, a job's
//! report and trace, a crash dump's identity — is reduced to a 64-bit FNV-1a
//! digest.  The choice is deliberate: campaigns are bit-for-bit
//! deterministic, so equality of cheap non-cryptographic digests is exactly
//! as strong as equality of the artifacts themselves, and a resume
//! verification only needs to detect divergence, not adversaries.

use btstack::crashdump::CrashDump;
use hci::link::Direction;
use sniffer::Trace;

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Incremental 64-bit FNV-1a hasher.
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64 { state: FNV_BASIS }
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds one byte.
    pub fn write_u8(&mut self, b: u8) {
        self.write(&[b]);
    }

    /// Feeds a `u64` as its little-endian bytes.
    pub fn write_u64(&mut self, n: u64) {
        self.write(&n.to_le_bytes());
    }

    /// Feeds a string's bytes followed by an out-of-band terminator, so
    /// adjacent fields cannot alias (`"ab" + "c"` vs `"a" + "bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xFF]);
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Digest of raw bytes in one call.
pub fn digest_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Digest of a packet trace: direction, timestamp and wire bytes of every
/// record, in capture order (the same recipe the replay-determinism tests
/// pin).  The wire bytes are hashed in place — the basic header's two
/// little-endian fields, then the payload — rather than encoded first.
pub fn trace_digest(trace: &Trace) -> u64 {
    let mut h = Fnv64::new();
    for record in trace.records() {
        h.write_u8(match record.direction {
            Direction::Tx => 0,
            Direction::Rx => 1,
        });
        h.write_u64(record.timestamp_micros);
        let frame = &record.frame;
        h.write(&frame.declared_payload_len.to_le_bytes());
        h.write(&frame.cid.value().to_le_bytes());
        h.write(&frame.payload);
    }
    h.finish()
}

/// Digest of one crash dump's *identity*: what crashed and where, excluding
/// the virtual timestamp — two jobs tripping the same bug at different
/// virtual times must collide here, because this is the expensive half of
/// the corpus dedup key.
pub fn crash_dump_digest(dump: &CrashDump) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(&format!("{:?}", dump.kind));
    h.write_str(&dump.process);
    h.write_u64(dump.signal.map(u64::from).unwrap_or(u64::MAX));
    h.write_u64(dump.fault_address.unwrap_or(u64::MAX));
    h.write_str(&dump.top_frame);
    h.write_str(&dump.vuln_id);
    h.finish()
}

/// Combined identity digest of a job's crash dumps: the **set** of distinct
/// per-dump identities, sorted.  An auto-restarted target trips the same
/// vulnerability a seed-dependent number of times, so the multiset (or the
/// order) of dumps would split one bug into per-seed clusters; the set
/// collapses them.
pub fn crash_dumps_digest(dumps: &[CrashDump]) -> u64 {
    let mut identities: Vec<u64> = dumps.iter().map(crash_dump_digest).collect();
    identities.sort_unstable();
    identities.dedup();
    let mut h = Fnv64::new();
    for identity in identities {
        h.write_u64(identity);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_framing_prevents_aliasing() {
        let mut a = Fnv64::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv64::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn crash_dump_digest_ignores_the_timestamp() {
        let early = CrashDump::bluedroid_tombstone("CVE-TEST", 100);
        let late = CrashDump::bluedroid_tombstone("CVE-TEST", 999_999);
        assert_eq!(crash_dump_digest(&early), crash_dump_digest(&late));
        let other = CrashDump::bluedroid_tombstone("CVE-OTHER", 100);
        assert_ne!(crash_dump_digest(&early), crash_dump_digest(&other));
    }

    #[test]
    fn crash_dumps_digest_is_over_the_identity_set() {
        let one = vec![CrashDump::bluedroid_tombstone("CVE-TEST", 100)];
        let three = vec![
            CrashDump::bluedroid_tombstone("CVE-TEST", 100),
            CrashDump::bluedroid_tombstone("CVE-TEST", 250),
            CrashDump::bluedroid_tombstone("CVE-TEST", 999),
        ];
        assert_eq!(crash_dumps_digest(&one), crash_dumps_digest(&three));
        let other = vec![CrashDump::bluedroid_tombstone("CVE-OTHER", 100)];
        assert_ne!(crash_dumps_digest(&one), crash_dumps_digest(&other));
    }

    #[test]
    fn trace_digest_hashes_the_encoded_wire_form() {
        use btcore::Cid;
        use hci::link::PacketRecord;
        use l2cap::packet::L2capFrame;

        let mut malformed = L2capFrame::new(Cid::SIGNALING, vec![0x08, 0x01, 0x02]);
        malformed.declared_payload_len = 0x1234;
        let trace = Trace::from_records(vec![
            PacketRecord {
                direction: Direction::Tx,
                timestamp_micros: 7,
                frame: malformed,
            },
            PacketRecord {
                direction: Direction::Rx,
                timestamp_micros: 9,
                frame: L2capFrame::new(Cid::DYNAMIC_START, vec![0xFF; 40]),
            },
        ]);
        let mut encoded = Fnv64::new();
        for record in trace.records() {
            encoded.write_u8(u8::from(record.direction == Direction::Rx));
            encoded.write_u64(record.timestamp_micros);
            encoded.write(&record.frame.to_bytes());
        }
        assert_eq!(trace_digest(&trace), encoded.finish());
    }

    #[test]
    fn empty_trace_digest_is_the_basis() {
        assert_eq!(trace_digest(&Trace::new()), FNV_BASIS);
        assert_eq!(digest_bytes(b""), FNV_BASIS);
    }
}
