//! Little-endian byte codec helpers.
//!
//! All Bluetooth host-stack multi-byte fields are transmitted little-endian,
//! so the packet codecs in the `l2cap` and `hci` crates are built on these
//! two small cursor types.  [`ByteReader`] is deliberately strict: every
//! short read is a [`CodecError`], never a panic, so malformed inputs surface
//! as values the fuzzing pipeline can reason about.

use std::fmt;

/// Error produced when decoding a packet from raw bytes fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the requested field could be read.
    UnexpectedEnd {
        /// Number of bytes requested.
        wanted: usize,
        /// Number of bytes that were available.
        available: usize,
    },
    /// A length field disagrees with the number of bytes actually present.
    LengthMismatch {
        /// Length announced by the packet.
        declared: usize,
        /// Length actually present.
        actual: usize,
    },
    /// A field carried a value that is not defined by the specification.
    InvalidValue {
        /// Name of the offending field.
        field: String,
        /// The raw value encountered.
        value: u64,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEnd { wanted, available } => {
                write!(
                    f,
                    "unexpected end of packet: wanted {wanted} bytes, {available} available"
                )
            }
            CodecError::LengthMismatch { declared, actual } => {
                write!(
                    f,
                    "length field mismatch: declared {declared}, actual {actual}"
                )
            }
            CodecError::InvalidValue { field, value } => {
                write!(f, "invalid value {value:#X} for field {field}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// A little-endian reading cursor over a byte slice.
///
/// # Example
///
/// ```
/// use btcore::ByteReader;
/// let mut r = ByteReader::new(&[0x01, 0x34, 0x12]);
/// assert_eq!(r.read_u8().unwrap(), 0x01);
/// assert_eq!(r.read_u16().unwrap(), 0x1234);
/// assert!(r.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `data`, positioned at the start.
    #[inline]
    pub fn new(data: &'a [u8]) -> Self {
        ByteReader { data, pos: 0 }
    }

    /// Number of bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Returns `true` when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current read offset from the start of the slice.
    pub fn position(&self) -> usize {
        self.pos
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEnd {
                wanted: n,
                available: self.remaining(),
            });
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    /// Returns [`CodecError::UnexpectedEnd`] if no bytes remain.
    #[inline]
    pub fn read_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    /// Returns [`CodecError::UnexpectedEnd`] if fewer than two bytes remain.
    #[inline]
    pub fn read_u16(&mut self) -> Result<u16, CodecError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    /// Returns [`CodecError::UnexpectedEnd`] if fewer than four bytes remain.
    #[inline]
    pub fn read_u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads exactly `n` bytes and returns them as a slice borrowed from the
    /// input.
    ///
    /// # Errors
    /// Returns [`CodecError::UnexpectedEnd`] if fewer than `n` bytes remain.
    #[inline]
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Consumes and returns all remaining bytes.
    #[inline]
    pub fn read_rest(&mut self) -> &'a [u8] {
        let rest = &self.data[self.pos..];
        self.pos = self.data.len();
        rest
    }

    /// Peeks at the next byte without consuming it, if any.
    #[inline]
    pub fn peek_u8(&self) -> Option<u8> {
        self.data.get(self.pos).copied()
    }
}

/// A growable little-endian byte writer.
///
/// # Example
///
/// ```
/// use btcore::ByteWriter;
/// let mut w = ByteWriter::new();
/// w.write_u8(0x02);
/// w.write_u16(0x0040);
/// assert_eq!(w.into_bytes(), vec![0x02, 0x40, 0x00]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter { buf: Vec::new() }
    }

    /// Creates a writer with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Wraps an existing vector; written bytes are appended after its current
    /// contents.  Lets encoders write into reused (e.g. scratch)
    /// buffers instead of allocating a fresh one per packet.
    pub fn wrap(buf: Vec<u8>) -> Self {
        ByteWriter { buf }
    }

    /// Appends one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16` in little-endian order.
    pub fn write_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` in little-endian order.
    pub fn write_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Returns a view of the bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer and returns the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Renders a byte slice as space-separated upper-case hex, the format the
/// paper uses in its packet figures (e.g. `0C 00 01 00 ...`).
pub fn hex_dump(bytes: &[u8]) -> String {
    bytes
        .iter()
        .map(|b| format!("{b:02X}"))
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_reads_little_endian() {
        let mut r = ByteReader::new(&[0x0C, 0x00, 0x01, 0x00, 0xAA]);
        assert_eq!(r.read_u16().unwrap(), 0x000C);
        assert_eq!(r.read_u16().unwrap(), 0x0001);
        assert_eq!(r.read_u8().unwrap(), 0xAA);
        assert!(r.is_empty());
    }

    #[test]
    fn reader_reports_short_reads() {
        let mut r = ByteReader::new(&[0x01]);
        let err = r.read_u16().unwrap_err();
        assert_eq!(
            err,
            CodecError::UnexpectedEnd {
                wanted: 2,
                available: 1
            }
        );
    }

    #[test]
    fn reader_u32_and_rest() {
        let mut r = ByteReader::new(&[0x78, 0x56, 0x34, 0x12, 0xDE, 0xAD]);
        assert_eq!(r.read_u32().unwrap(), 0x12345678);
        assert_eq!(r.read_rest(), &[0xDE, 0xAD]);
        assert_eq!(r.read_rest(), &[] as &[u8]);
    }

    #[test]
    fn reader_peek_does_not_consume() {
        let mut r = ByteReader::new(&[0x42]);
        assert_eq!(r.peek_u8(), Some(0x42));
        assert_eq!(r.read_u8().unwrap(), 0x42);
        assert_eq!(r.peek_u8(), None);
    }

    #[test]
    fn writer_roundtrips_with_reader() {
        let mut w = ByteWriter::new();
        w.write_u8(0x04);
        w.write_u16(0x0008);
        w.write_u32(0xDEADBEEF);
        w.write_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.read_u8().unwrap(), 0x04);
        assert_eq!(r.read_u16().unwrap(), 0x0008);
        assert_eq!(r.read_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.read_bytes(3).unwrap(), &[1, 2, 3]);
        assert!(r.is_empty());
    }

    #[test]
    fn hex_dump_matches_paper_style() {
        assert_eq!(hex_dump(&[0x0C, 0x00, 0x8F, 0x7B]), "0C 00 8F 7B");
        assert_eq!(hex_dump(&[]), "");
    }

    #[test]
    fn error_display() {
        let e = CodecError::LengthMismatch {
            declared: 8,
            actual: 4,
        };
        assert!(e.to_string().contains("declared 8"));
        let e = CodecError::InvalidValue {
            field: "code".to_owned(),
            value: 0xFF,
        };
        assert!(e.to_string().contains("code"));
    }
}
