//! Shared Bluetooth vocabulary types for the L2Fuzz reproduction.
//!
//! This crate provides the small, dependency-free building blocks that every
//! other crate in the workspace uses:
//!
//! * [`BdAddr`], [`Oui`] — Bluetooth device addresses and vendor identifiers.
//! * [`Cid`], [`Psm`], [`ConnectionHandle`], [`Identifier`] — the L2CAP
//!   channel, port, link and signalling identifiers that the paper's *core
//!   field mutating* technique targets.
//! * [`codec`] — little-endian byte reader/writer used by every packet codec.
//! * [`FrameBuf`] — the cloneable, sliceable frame buffer every packet layer
//!   shares: small frames inline, large ones in one shared allocation.
//! * [`ConnectionError`] — the five connection-level error messages the
//!   paper's vulnerability-detection phase distinguishes (§III-E).
//! * [`SimClock`] — a deterministic virtual clock so "elapsed time" results
//!   (Table VI) are reproducible.
//! * [`FuzzRng`] — a seedable RNG wrapper so every fuzzing run is replayable.
//! * [`TargetOracle`] — the black-box observation interface (ping, crash-dump
//!   presence) the detector uses against a target device.
//!
//! # Example
//!
//! ```
//! use btcore::{BdAddr, Psm, Cid};
//!
//! let addr: BdAddr = "AA:BB:CC:11:22:33".parse().unwrap();
//! assert_eq!(addr.oui().to_string(), "AA:BB:CC");
//! assert!(Psm::SDP.is_valid());
//! assert!(Cid::SIGNALING.is_signaling());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod clock;
pub mod codec;
pub mod device;
pub mod error;
pub mod event;
pub mod framebuf;
pub mod ids;
pub mod json;
pub mod oracle;
pub mod rng;

pub use addr::{BdAddr, Oui, ParseBdAddrError};
pub use clock::SimClock;
pub use codec::{ByteReader, ByteWriter, CodecError};
pub use device::{DeviceClass, DeviceMeta, LinkSlot, LinkType};
pub use error::{BtError, ConnectionError};
pub use event::{EventScheduler, EventTicket, SourceId};
pub use framebuf::FrameBuf;
pub use ids::{Cid, ConnectionHandle, Identifier, Psm};
pub use oracle::{PingOutcome, TargetOracle};
pub use rng::{splitmix64, FuzzRng};
