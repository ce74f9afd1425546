//! Bluetooth device addresses (`BD_ADDR`) and organizationally unique
//! identifiers (OUI).
//!
//! The paper's *target scanning* phase (§III-B) records each device's MAC
//! address and OUI before any fuzzing starts; these are the types that carry
//! that metadata through the rest of the pipeline.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// A 48-bit Bluetooth device address.
///
/// Stored big-endian (as printed), i.e. `bytes()[0]` is the most significant
/// byte and the first octet of the textual `AA:BB:CC:DD:EE:FF` form.
///
/// # Example
///
/// ```
/// use btcore::BdAddr;
/// let a: BdAddr = "00:1A:7D:DA:71:13".parse().unwrap();
/// assert_eq!(a.to_string(), "00:1A:7D:DA:71:13");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct BdAddr([u8; 6]);

impl BdAddr {
    /// The all-zero address, used as a placeholder before discovery.
    pub const NULL: BdAddr = BdAddr([0; 6]);

    /// Creates an address from six big-endian bytes.
    pub const fn new(bytes: [u8; 6]) -> Self {
        BdAddr(bytes)
    }

    /// Returns the raw big-endian bytes of the address.
    pub const fn bytes(&self) -> [u8; 6] {
        self.0
    }

    /// Returns the vendor OUI (the three most significant octets).
    pub const fn oui(&self) -> Oui {
        Oui([self.0[0], self.0[1], self.0[2]])
    }

    /// Returns `true` if this is the all-zero placeholder address.
    pub fn is_null(&self) -> bool {
        self.0 == [0; 6]
    }
}

impl fmt::Display for BdAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02X}:{:02X}:{:02X}:{:02X}:{:02X}:{:02X}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

/// Error returned when parsing a [`BdAddr`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBdAddrError {
    input: String,
}

impl fmt::Display for ParseBdAddrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid bluetooth address syntax: {:?}", self.input)
    }
}

impl std::error::Error for ParseBdAddrError {}

impl FromStr for BdAddr {
    type Err = ParseBdAddrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseBdAddrError {
            input: s.to_owned(),
        };
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() != 6 {
            return Err(err());
        }
        let mut bytes = [0u8; 6];
        for (i, part) in parts.iter().enumerate() {
            if part.len() != 2 {
                return Err(err());
            }
            bytes[i] = u8::from_str_radix(part, 16).map_err(|_| err())?;
        }
        Ok(BdAddr(bytes))
    }
}

impl From<[u8; 6]> for BdAddr {
    fn from(bytes: [u8; 6]) -> Self {
        BdAddr(bytes)
    }
}

/// A 24-bit Organizationally Unique Identifier — the vendor prefix of a
/// [`BdAddr`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Oui([u8; 3]);

impl Oui {
    /// Creates an OUI from three big-endian bytes.
    pub const fn new(bytes: [u8; 3]) -> Self {
        Oui(bytes)
    }

    /// Returns the raw bytes of the OUI.
    pub const fn bytes(&self) -> [u8; 3] {
        self.0
    }
}

impl fmt::Display for Oui {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02X}:{:02X}:{:02X}", self.0[0], self.0[1], self.0[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        let text = "AA:BB:CC:11:22:33";
        let addr: BdAddr = text.parse().unwrap();
        assert_eq!(addr.to_string(), text);
        assert_eq!(addr.bytes(), [0xAA, 0xBB, 0xCC, 0x11, 0x22, 0x33]);
    }

    #[test]
    fn parse_accepts_lowercase() {
        let addr: BdAddr = "aa:bb:cc:dd:ee:ff".parse().unwrap();
        assert_eq!(addr.bytes(), [0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF]);
    }

    #[test]
    fn parse_rejects_wrong_group_count() {
        assert!("AA:BB:CC:11:22".parse::<BdAddr>().is_err());
        assert!("AA:BB:CC:11:22:33:44".parse::<BdAddr>().is_err());
    }

    #[test]
    fn parse_rejects_bad_hex() {
        assert!("GG:BB:CC:11:22:33".parse::<BdAddr>().is_err());
        assert!("A:BB:CC:11:22:333".parse::<BdAddr>().is_err());
    }

    #[test]
    fn oui_is_top_three_octets() {
        let addr = BdAddr::new([0x00, 0x1A, 0x7D, 0xDA, 0x71, 0x13]);
        assert_eq!(addr.oui(), Oui::new([0x00, 0x1A, 0x7D]));
        assert_eq!(addr.oui().to_string(), "00:1A:7D");
    }

    #[test]
    fn null_address() {
        assert!(BdAddr::NULL.is_null());
        assert!(!BdAddr::new([1, 0, 0, 0, 0, 0]).is_null());
    }

    #[test]
    fn error_display_mentions_input() {
        let err = "nonsense".parse::<BdAddr>().unwrap_err();
        assert!(err.to_string().contains("nonsense"));
    }

    #[test]
    fn serde_roundtrip() {
        let addr = BdAddr::new([1, 2, 3, 4, 5, 6]);
        let json = serde_json::to_string_streamed(&addr);
        assert_eq!(json, "[1,2,3,4,5,6]");
        let back: BdAddr = serde_json::from_str_streamed(&json).unwrap();
        assert_eq!(addr, back);
    }
}
