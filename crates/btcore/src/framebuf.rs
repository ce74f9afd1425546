//! Frame buffers: the byte container every packet layer shares.
//!
//! A [`FrameBuf`] of up to [`FrameBuf::INLINE_CAPACITY`] bytes keeps its
//! bytes inside the value.  Signalling frames are that small, so cloning a
//! frame into a tap record or slicing a C-frame out of it copies a few
//! dozen bytes and touches neither the heap nor an atomic.  Larger frames (MTU tests, multi-fragment
//! ACL) live in one `Arc<[u8]>`: their clones and slices share the bytes by
//! reference count, a minimal, dependency-free equivalent of `bytes::Bytes`.
//!
//! Encoders write each frame once, in place: [`FrameBuf::build`] hands them
//! a [`FrameWriter`] over the inline array the finished buffer keeps, so a
//! frame that fits inline is written straight into its own storage, with no
//! scratch buffer, copy or allocation.  Only a frame that outgrows the
//! array spills into a vector, copied into the frame's one shared
//! allocation when the build ends.
//!
//! # Example
//!
//! ```
//! use btcore::FrameBuf;
//!
//! let frame = FrameBuf::build(|out| {
//!     out.extend_from_slice(&[0x0C, 0x00, 0x00, 0x00]);
//!     // A length field patched once the bytes after it are written.
//!     out[2] = (out.len() - 2) as u8;
//! });
//! assert_eq!(frame, [0x0C, 0x00, 0x02, 0x00]);
//! assert_eq!(frame.slice(2..), [0x02, 0x00]);
//! ```

use std::fmt;
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// Where a [`FrameBuf`]'s bytes live, and the window of them it exposes.
#[derive(Clone)]
enum Repr {
    /// Up to [`FrameBuf::INLINE_CAPACITY`] bytes held in the value itself.
    Inline {
        start: u8,
        end: u8,
        bytes: [u8; FrameBuf::INLINE_CAPACITY],
    },
    /// Larger frames: one reference-counted allocation that every clone and
    /// slice shares.
    Shared {
        bytes: Arc<[u8]>,
        start: usize,
        end: usize,
    },
}

/// A cheaply-cloneable, sliceable byte buffer.
///
/// Small buffers are copied by value; large ones share one allocation, so
/// cloning and [slicing](FrameBuf::slice) never allocate.  Equality,
/// hashing and `Debug` go through [`as_slice`](FrameBuf::as_slice) and
/// behave exactly like the byte slice the view exposes, whichever
/// representation holds the bytes, so a `FrameBuf` field is a drop-in
/// replacement for a `Vec<u8>` payload in any packet struct.  Serialization
/// also reads only the view, but writes it as one lowercase hex string
/// rather than `Vec<u8>`'s array of numbers (see `btcore`'s `json` module).
#[derive(Clone)]
pub struct FrameBuf {
    repr: Repr,
}

impl FrameBuf {
    /// Buffers of up to this many bytes keep their bytes inline.  53 fills
    /// the value to 56 bytes and holds every signalling frame of the
    /// benchmark's campaigns; only rare feedback-engine havoc output grows
    /// past it and takes the shared path.
    pub const INLINE_CAPACITY: usize = 53;

    /// An empty buffer.
    pub const fn new() -> FrameBuf {
        FrameBuf {
            repr: Repr::Inline {
                start: 0,
                end: 0,
                bytes: [0; FrameBuf::INLINE_CAPACITY],
            },
        }
    }

    /// Takes the bytes of an owned vector (see
    /// [`FrameBuf::copy_from_slice`]).
    pub fn from_vec(data: Vec<u8>) -> FrameBuf {
        FrameBuf::copy_from_slice(&data)
    }

    /// Copies a byte slice: inline when it fits, otherwise into one fresh
    /// shared allocation.
    #[inline]
    pub fn copy_from_slice(bytes: &[u8]) -> FrameBuf {
        let len = bytes.len();
        let repr = if len <= FrameBuf::INLINE_CAPACITY {
            let mut inline = [0; FrameBuf::INLINE_CAPACITY];
            inline[..len].copy_from_slice(bytes);
            Repr::Inline {
                start: 0,
                end: len as u8,
                bytes: inline,
            }
        } else {
            Repr::Shared {
                bytes: Arc::from(bytes),
                start: 0,
                end: len,
            }
        };
        FrameBuf { repr }
    }

    /// Builds a buffer by letting `fill` write it through a [`FrameWriter`],
    /// handed over empty.
    ///
    /// The bytes land in the array the returned buffer keeps inline, so a
    /// frame of up to [`FrameBuf::INLINE_CAPACITY`] bytes is written once
    /// and never allocates; a larger one ends in one shared allocation.
    /// Each call owns its writer, so a `build` nested inside `fill` is
    /// independent of the outer one.
    #[inline]
    pub fn build(fill: impl FnOnce(&mut FrameWriter)) -> FrameBuf {
        let mut writer = FrameWriter {
            len: 0,
            inline: [0; FrameBuf::INLINE_CAPACITY],
            spill: None,
        };
        fill(&mut writer);
        writer.finish()
    }

    /// The bytes this view exposes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match &self.repr {
            Repr::Inline { start, end, bytes } => &bytes[usize::from(*start)..usize::from(*end)],
            Repr::Shared { bytes, start, end } => &bytes[*start..*end],
        }
    }

    /// Number of bytes in the view.
    #[inline]
    pub fn len(&self) -> usize {
        let (start, end) = self.window();
        end - start
    }

    /// Returns `true` when the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns a sub-view of this buffer; a large buffer's slice shares its
    /// allocation.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or inverted, matching slice
    /// indexing semantics.
    #[inline]
    pub fn slice(&self, range: impl RangeBounds<usize>) -> FrameBuf {
        let len = self.len();
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(
            start <= end && end <= len,
            "slice {start}..{end} out of bounds for FrameBuf of length {len}"
        );
        let (offset, _) = self.window();
        self.with_window(offset + start, offset + end)
    }

    /// Returns `true` when `self` and `other` are views into the same shared
    /// allocation (regardless of range), i.e. no bytes were copied between
    /// them.  Inline buffers hold their own bytes and never share.
    pub fn shares_storage_with(&self, other: &FrameBuf) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Shared { bytes: a, .. }, Repr::Shared { bytes: b, .. }) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// The exposed window, as offsets into the held bytes.
    #[inline]
    fn window(&self) -> (usize, usize) {
        match self.repr {
            Repr::Inline { start, end, .. } => (usize::from(start), usize::from(end)),
            Repr::Shared { start, end, .. } => (start, end),
        }
    }

    /// The same held bytes behind another window (within their bounds).
    #[inline]
    fn with_window(&self, start: usize, end: usize) -> FrameBuf {
        let repr = match &self.repr {
            Repr::Inline { bytes, .. } => Repr::Inline {
                start: start as u8,
                end: end as u8,
                bytes: *bytes,
            },
            Repr::Shared { bytes, .. } => Repr::Shared {
                bytes: bytes.clone(),
                start,
                end,
            },
        };
        FrameBuf { repr }
    }
}

impl Default for FrameBuf {
    fn default() -> Self {
        FrameBuf::new()
    }
}

/// The writer [`FrameBuf::build`] hands its closure: a byte vector's
/// appending and editing operations over the inline array of the buffer
/// being built.
///
/// It dereferences to the bytes written so far, so fields already written
/// can be patched by index.  A write that would take the frame past
/// [`FrameBuf::INLINE_CAPACITY`] moves the bytes into a vector, which keeps
/// every later write; a frame that is back within the capacity when the
/// build ends is stored inline all the same.
pub struct FrameWriter {
    /// The number of bytes written while the frame fits inline.
    len: usize,
    inline: [u8; FrameBuf::INLINE_CAPACITY],
    /// Every byte, once the frame has outgrown the inline array.
    spill: Option<Vec<u8>>,
}

impl FrameWriter {
    /// Appends one byte.
    #[inline]
    pub fn push(&mut self, byte: u8) {
        self.extend_from_slice(&[byte]);
    }

    /// Appends `bytes`.
    #[inline]
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        match &mut self.spill {
            Some(spill) => spill.extend_from_slice(bytes),
            None => {
                let end = self.len + bytes.len();
                match self.inline.get_mut(self.len..end) {
                    Some(tail) => {
                        tail.copy_from_slice(bytes);
                        self.len = end;
                    }
                    None => self.spill(end).extend_from_slice(bytes),
                }
            }
        }
    }

    /// Grows the frame to `len` bytes, filling with `value`, or shortens it
    /// to `len` bytes.
    #[inline]
    pub fn resize(&mut self, len: usize, value: u8) {
        match &mut self.spill {
            Some(spill) => spill.resize(len, value),
            None if len <= FrameBuf::INLINE_CAPACITY => {
                if let Some(tail) = self.inline.get_mut(self.len..len) {
                    tail.fill(value);
                }
                self.len = len;
            }
            None => self.spill(len).resize(len, value),
        }
    }

    /// Shortens the frame to `len` bytes; a no-op when it is not longer.
    #[inline]
    pub fn truncate(&mut self, len: usize) {
        match &mut self.spill {
            Some(spill) => spill.truncate(len),
            None => self.len = self.len.min(len),
        }
    }

    /// Moves the inline bytes into a vector with room for `len` bytes.
    #[cold]
    fn spill(&mut self, len: usize) -> &mut Vec<u8> {
        let mut spill = Vec::with_capacity(len.max(2 * FrameBuf::INLINE_CAPACITY));
        spill.extend_from_slice(&self.inline[..self.len]);
        self.spill.insert(spill)
    }

    /// The finished buffer: the inline array as written, or a copy of the
    /// spilled bytes (inline again if they fit).
    #[inline]
    fn finish(self) -> FrameBuf {
        match self.spill {
            None => FrameBuf {
                repr: Repr::Inline {
                    start: 0,
                    end: self.len as u8,
                    bytes: self.inline,
                },
            },
            Some(spill) => FrameBuf::copy_from_slice(&spill),
        }
    }
}

impl Deref for FrameWriter {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        match &self.spill {
            Some(spill) => spill,
            None => &self.inline[..self.len],
        }
    }
}

impl DerefMut for FrameWriter {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        match &mut self.spill {
            Some(spill) => spill,
            None => &mut self.inline[..self.len],
        }
    }
}

impl crate::codec::ByteSink for FrameWriter {
    #[inline]
    fn write_bytes(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

impl Deref for FrameBuf {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for FrameBuf {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for FrameBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl From<Vec<u8>> for FrameBuf {
    fn from(data: Vec<u8>) -> Self {
        FrameBuf::from_vec(data)
    }
}

impl From<&[u8]> for FrameBuf {
    fn from(bytes: &[u8]) -> Self {
        FrameBuf::copy_from_slice(bytes)
    }
}

impl<const N: usize> From<[u8; N]> for FrameBuf {
    fn from(bytes: [u8; N]) -> Self {
        FrameBuf::copy_from_slice(&bytes)
    }
}

impl PartialEq for FrameBuf {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for FrameBuf {}

impl PartialEq<[u8]> for FrameBuf {
    #[inline]
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for FrameBuf {
    #[inline]
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for FrameBuf {
    #[inline]
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<FrameBuf> for Vec<u8> {
    #[inline]
    fn eq(&self, other: &FrameBuf) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for FrameBuf {
    #[inline]
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl std::hash::Hash for FrameBuf {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    const N: usize = FrameBuf::INLINE_CAPACITY;

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 + 3) as u8).collect()
    }

    fn hash_of(buf: &FrameBuf) -> u64 {
        let mut hasher = DefaultHasher::new();
        buf.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn every_constructor_holds_the_bytes_at_lengths_around_the_inline_capacity() {
        for len in [0, 1, N - 1, N, N + 1, 600, 65_539] {
            let bytes = pattern(len);
            let copied = FrameBuf::copy_from_slice(&bytes);
            assert_eq!(copied.as_slice(), bytes.as_slice(), "len {len}");
            assert_eq!(copied.len(), len);
            assert_eq!(copied.is_empty(), len == 0);
            assert_eq!(FrameBuf::from_vec(bytes.clone()), copied);
            // Built in one write, byte by byte, through the `ByteSink`
            // encoders use, and as a resize patched by index.
            let built = [
                FrameBuf::build(|out| out.extend_from_slice(&bytes)),
                FrameBuf::build(|out| bytes.iter().for_each(|&b| out.push(b))),
                FrameBuf::build(|out| crate::codec::ByteSink::write_bytes(out, &bytes)),
                FrameBuf::build(|out| {
                    out.resize(len, 0);
                    out.copy_from_slice(&bytes);
                }),
            ];
            for buf in [&copied].into_iter().chain(&built) {
                assert_eq!(buf, &copied, "len {len}");
                // Only buffers above the inline capacity live in a shared
                // allocation.
                assert_eq!(is_shared(buf), len > N, "len {len}");
            }
        }
    }

    #[test]
    fn clones_and_slices_share_storage() {
        // Above the inline capacity, clones and slices are views into one
        // allocation.
        let buf = FrameBuf::from_vec(pattern(N + 10));
        let clone = buf.clone();
        let tail = buf.slice(2..);
        assert!(buf.shares_storage_with(&clone));
        assert!(buf.shares_storage_with(&tail));
        assert!(tail.slice(1..2).shares_storage_with(&buf));
        assert_eq!(tail.as_slice(), &pattern(N + 10)[2..]);
        // Inline buffers copy their bytes instead: equal, never shared.
        let small = FrameBuf::from_vec(vec![1, 2, 3, 4, 5]);
        let tail = small.slice(2..);
        assert!(!small.shares_storage_with(&small.clone()));
        assert!(!small.shares_storage_with(&tail));
        assert_eq!(small.clone(), small);
        assert_eq!(tail, [3, 4, 5]);
        assert_eq!(tail.slice(1..2), [4]);
        assert_eq!(small.len(), 5);
        assert!(!small.is_empty());
    }

    #[test]
    fn slices_work_in_both_representations() {
        for len in [8, N, N + 1, 300] {
            let bytes = pattern(len);
            let buf = FrameBuf::copy_from_slice(&bytes);
            let body = buf.slice(4..);
            assert_eq!(body.as_slice(), &bytes[4..], "len {len}");
            let inner = body.slice(1..3);
            assert_eq!(inner.as_slice(), &bytes[5..7]);
            assert!(buf.slice(len..).is_empty());
            assert_eq!(buf.slice(..=1).as_slice(), &bytes[..2]);
        }
    }

    #[test]
    fn equal_bytes_behave_alike_in_either_representation() {
        // The same ten bytes, once inline and once as a window into a shared
        // allocation.
        let big = FrameBuf::copy_from_slice(&pattern(100));
        let shared = big.slice(10..20);
        let inline = FrameBuf::copy_from_slice(&pattern(100)[10..20]);
        assert!(shared.shares_storage_with(&big));
        assert!(!inline.shares_storage_with(&shared));
        assert_eq!(inline, shared);
        assert_eq!(hash_of(&inline), hash_of(&shared));
        assert_eq!(format!("{inline:?}"), format!("{shared:?}"));
        assert_eq!(
            serde_json::to_string_streamed(&inline),
            serde_json::to_string_streamed(&shared)
        );
        assert_ne!(inline, big);
    }

    #[test]
    fn frame_buf_fits_in_one_cache_line() {
        // 53 inline bytes, their window and the representation tag; a
        // larger value would also grow every tap record that holds one.
        assert_eq!(std::mem::size_of::<FrameBuf>(), 56);
    }

    #[test]
    fn nested_builds_do_not_disturb_each_other() {
        let outer = FrameBuf::build(|out| {
            out.push(1);
            let inner = FrameBuf::build(|out| out.extend_from_slice(&[2, 3]));
            out.extend_from_slice(&inner);
            // An inner build that spills leaves the outer writer inline.
            let large = FrameBuf::build(|out| out.resize(N + 7, 0xEE));
            assert_eq!(large.len(), N + 7);
            out.push(4);
        });
        assert_eq!(outer, [1, 2, 3, 4]);
        assert!(!outer.shares_storage_with(&outer.clone()));
        // Every build starts from an empty writer.
        assert_eq!(FrameBuf::build(|out| out.push(9)), [9]);
    }

    /// Whether `buf` lives in a shared allocation rather than inline.
    fn is_shared(buf: &FrameBuf) -> bool {
        buf.shares_storage_with(&buf.clone())
    }

    #[test]
    fn writes_that_cross_the_inline_capacity_mid_build_keep_every_byte() {
        let bytes = pattern(3 * N);
        // Extend across the boundary, then patch bytes on both sides of it
        // and append after the spill.
        let built = FrameBuf::build(|out| {
            out.extend_from_slice(&bytes[..N - 2]);
            assert_eq!(out.len(), N - 2);
            out.extend_from_slice(&bytes[N - 2..N + 3]);
            assert_eq!(out.len(), N + 3);
            out[0] = 0xA0;
            out[N + 1] = 0xA1;
            out.push(0xA2);
        });
        let mut expected = bytes[..N + 3].to_vec();
        expected[0] = 0xA0;
        expected[N + 1] = 0xA1;
        expected.push(0xA2);
        assert_eq!(built, expected);
        assert!(is_shared(&built));

        // Resize up past the capacity, fill by index, then back down: the
        // finished buffer is inline again once it fits.
        for (up, down) in [(N + 1, N), (600, 10), (600, 0), (N + 1, N + 1)] {
            let built = FrameBuf::build(|out| {
                out.extend_from_slice(&[7, 8]);
                out.resize(up, 0x55);
                out[up - 1] = 0x66;
                assert_eq!(out[2..up - 1], vec![0x55; up - 3][..]);
                out.resize(down, 0);
            });
            let mut expected = vec![7, 8];
            expected.resize(up, 0x55);
            expected[up - 1] = 0x66;
            expected.truncate(down);
            assert_eq!(built, expected, "up {up}, down {down}");
            assert_eq!(is_shared(&built), down > N, "up {up}, down {down}");
        }

        // Truncate after a spill, then grow again; truncating never grows.
        let built = FrameBuf::build(|out| {
            out.extend_from_slice(&bytes[..2 * N]);
            out.truncate(5);
            out.truncate(9);
            assert_eq!(out.len(), 5);
            out.extend_from_slice(&[1, 2, 3]);
            out[5] ^= 0xFF;
        });
        let mut expected = bytes[..5].to_vec();
        expected.extend_from_slice(&[1 ^ 0xFF, 2, 3]);
        assert_eq!(built, expected);
        assert!(!is_shared(&built));

        // Inline resize down and up again re-fills the regrown bytes.
        let built = FrameBuf::build(|out| {
            out.extend_from_slice(&[9; 8]);
            out.resize(3, 0);
            out.resize(6, 4);
        });
        assert_eq!(built, [9, 9, 9, 4, 4, 4]);
    }

    #[test]
    fn equality_is_by_bytes_not_by_storage() {
        let a = FrameBuf::from_vec(vec![9, 9]);
        let b = FrameBuf::copy_from_slice(&[9, 9]);
        assert_eq!(a, b);
        assert!(!a.shares_storage_with(&b));
        assert_eq!(a, vec![9u8, 9]);
        assert_eq!(vec![9u8, 9], a);
        assert_eq!(a, [9u8, 9]);
    }

    #[test]
    fn empty_buffers_are_equal_whatever_built_them() {
        let a = FrameBuf::new();
        assert_eq!(a, FrameBuf::default());
        assert_eq!(a, FrameBuf::build(|_| {}));
        assert_eq!(a, FrameBuf::from_vec(pattern(N + 1)).slice(3..3));
        assert!(a.is_empty());
        assert_eq!(a.len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_slice_panics() {
        FrameBuf::from_vec(vec![1, 2]).slice(..3);
    }

    #[test]
    fn serializes_as_one_lowercase_hex_string() {
        let buf = FrameBuf::from_vec(vec![0x0C, 0x00, 0xFF, 0xA5]);
        let json = serde_json::to_string_streamed(&buf);
        assert_eq!(json, r#""0c00ffa5""#);
        let back: FrameBuf = serde_json::from_str_streamed(&json).unwrap();
        assert_eq!(back, buf);
        // Every byte value spells its own two digits.
        let every_byte: Vec<u8> = (0..=255).collect();
        let digits: String = every_byte.iter().map(|b| format!("{b:02x}")).collect();
        let json = serde_json::to_string_streamed(&FrameBuf::from_vec(every_byte.clone()));
        assert_eq!(json, format!("\"{digits}\""));
        let back: FrameBuf = serde_json::from_str_streamed(&json).unwrap();
        assert_eq!(back, every_byte);
    }

    #[test]
    fn debug_matches_slice_debug() {
        let buf = FrameBuf::from_vec(vec![1, 2]);
        assert_eq!(format!("{buf:?}"), "[1, 2]");
    }
}
