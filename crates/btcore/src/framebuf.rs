//! Frame buffers: the byte container every packet layer shares.
//!
//! A [`FrameBuf`] of up to [`FrameBuf::INLINE_CAPACITY`] bytes keeps its
//! bytes inside the value.  Signalling frames are that small, so cloning a
//! frame into a tap record or slicing a C-frame out of it copies a few
//! dozen bytes and touches neither the heap nor an atomic.  Larger frames (MTU tests, multi-fragment
//! ACL) live in one `Arc<[u8]>`: their clones and slices share the bytes by
//! reference count, a minimal, dependency-free equivalent of `bytes::Bytes`.
//!
//! Encoders fill the thread's reused scratch vector through
//! [`FrameBuf::build`] and copy the finished bytes in once, so building a
//! frame makes no allocation of its own.
//!
//! # Example
//!
//! ```
//! use btcore::FrameBuf;
//!
//! let frame = FrameBuf::build(|out| out.extend_from_slice(&[0x0C, 0x00, 0x01, 0x00]));
//! let payload = frame.slice(2..);
//! assert_eq!(payload, [0x01, 0x00]);
//! // A slice remembers the bytes before it: widening restores the frame.
//! assert_eq!(payload.widen_front(2), Some(frame));
//! ```

use std::cell::Cell;
use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
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

    /// Builds a buffer by letting `fill` write into the thread's reused
    /// scratch vector (handed over empty), then copies the bytes in once.
    ///
    /// The vector is taken out of its slot for the call and put back after
    /// rather than borrowed, so a `build` nested inside `fill` just starts
    /// from a fresh vector: the builder cannot panic.
    pub fn build(fill: impl FnOnce(&mut Vec<u8>)) -> FrameBuf {
        thread_local! {
            static SCRATCH: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
        }
        let mut scratch = SCRATCH.try_with(Cell::take).unwrap_or_default();
        scratch.clear();
        fill(&mut scratch);
        let frame = FrameBuf::copy_from_slice(&scratch);
        let _ = SCRATCH.try_with(|slot| slot.set(scratch));
        frame
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

    /// Returns a view widened by `n` bytes *before* this view's start, if the
    /// buffer holds them: the inverse of `slice(n..)`, in either
    /// representation.
    ///
    /// The extra bytes are whatever precedes the view in its buffer —
    /// meaningful only when the caller knows how the buffer was built (e.g. a
    /// packet body sliced out of a frame recovering the frame's header).
    #[inline]
    pub fn widen_front(&self, n: usize) -> Option<FrameBuf> {
        let (start, end) = self.window();
        start
            .checked_sub(n)
            .map(|start| self.with_window(start, end))
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
        for len in [0, 1, N, N + 1, 65_539] {
            let bytes = pattern(len);
            let copied = FrameBuf::copy_from_slice(&bytes);
            assert_eq!(copied.as_slice(), bytes.as_slice(), "len {len}");
            assert_eq!(copied.len(), len);
            assert_eq!(copied.is_empty(), len == 0);
            assert_eq!(FrameBuf::from_vec(bytes.clone()), copied);
            assert_eq!(FrameBuf::build(|out| out.extend_from_slice(&bytes)), copied);
            let clone = copied.clone();
            assert_eq!(clone, copied);
            // Only buffers above the inline capacity live in a shared
            // allocation.
            assert_eq!(clone.shares_storage_with(&copied), len > N, "len {len}");
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
    fn slice_and_widen_front_work_in_both_representations() {
        for len in [8, N, N + 1, 300] {
            let bytes = pattern(len);
            let buf = FrameBuf::copy_from_slice(&bytes);
            let body = buf.slice(4..);
            assert_eq!(body.as_slice(), &bytes[4..], "len {len}");
            assert_eq!(body.widen_front(4), Some(buf.clone()));
            assert_eq!(body.widen_front(2).unwrap().as_slice(), &bytes[2..]);
            assert_eq!(body.widen_front(5), None);
            let inner = body.slice(1..3);
            assert_eq!(inner.as_slice(), &bytes[5..7]);
            assert_eq!(inner.widen_front(5).unwrap().as_slice(), &bytes[..7]);
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
        assert!(std::mem::size_of::<FrameBuf>() <= 64);
    }

    #[test]
    fn nested_builds_do_not_disturb_each_other() {
        let outer = FrameBuf::build(|out| {
            out.push(1);
            let inner = FrameBuf::build(|out| out.extend_from_slice(&[2, 3]));
            out.extend_from_slice(&inner);
        });
        assert_eq!(outer, [1, 2, 3]);
        // The scratch vector comes back empty for the next build.
        assert_eq!(FrameBuf::build(|out| out.push(9)), [9]);
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
