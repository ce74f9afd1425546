//! Streaming JSON serialization for the vocabulary types.
//!
//! These mirror the derived `serde::Serialize` encodings byte for byte (the
//! equivalence is pinned by the report-path tests in the `l2fuzz` crate), so
//! reports and traces can be written through
//! [`serde_json::JsonStreamWriter`] without materializing a `Value` tree —
//! and read back through [`serde_json::JsonStreamReader`] the same way.

use serde_json::{Error, JsonStreamReader, JsonStreamWriter, StreamDeserialize, StreamSerialize};

use crate::addr::{BdAddr, Oui};
use crate::device::{DeviceClass, DeviceMeta, LinkSlot, LinkType};
use crate::error::ConnectionError;
use crate::framebuf::FrameBuf;
use crate::ids::{Cid, ConnectionHandle, Identifier, Psm};

serde_json::stream_unit_enum!(DeviceClass, LinkType, ConnectionError);
serde_json::stream_unit_enum_de!(DeviceClass, LinkType, ConnectionError);

impl StreamSerialize for BdAddr {
    fn stream(&self, w: &mut JsonStreamWriter) {
        self.bytes().stream(w);
    }
}

impl StreamSerialize for Oui {
    fn stream(&self, w: &mut JsonStreamWriter) {
        self.bytes().stream(w);
    }
}

impl StreamSerialize for DeviceMeta {
    fn stream(&self, w: &mut JsonStreamWriter) {
        w.begin_object()
            .field("addr", &self.addr)
            .field("name", &self.name)
            .field("class", &self.class)
            .field("oui", &self.oui)
            .field("link_type", &self.link_type)
            .end_object();
    }
}

impl StreamSerialize for Cid {
    fn stream(&self, w: &mut JsonStreamWriter) {
        w.u64(u64::from(self.0));
    }
}

impl StreamSerialize for Psm {
    fn stream(&self, w: &mut JsonStreamWriter) {
        w.u64(u64::from(self.0));
    }
}

impl StreamSerialize for Identifier {
    fn stream(&self, w: &mut JsonStreamWriter) {
        w.u64(u64::from(self.0));
    }
}

impl StreamSerialize for ConnectionHandle {
    fn stream(&self, w: &mut JsonStreamWriter) {
        w.u64(u64::from(self.0));
    }
}

impl StreamSerialize for LinkSlot {
    fn stream(&self, w: &mut JsonStreamWriter) {
        w.u64(u64::from(self.0));
    }
}

/// Streams exactly like `Vec<u8>` (a JSON array of numbers), matching the
/// tree-based `Serialize` impl.
impl StreamSerialize for FrameBuf {
    fn stream(&self, w: &mut JsonStreamWriter) {
        self.as_slice().stream(w);
    }
}

impl StreamDeserialize for BdAddr {
    fn stream_from(r: &mut JsonStreamReader<'_>) -> Result<Self, Error> {
        Ok(BdAddr::new(<[u8; 6]>::stream_from(r)?))
    }
}

impl StreamDeserialize for Oui {
    fn stream_from(r: &mut JsonStreamReader<'_>) -> Result<Self, Error> {
        Ok(Oui::new(<[u8; 3]>::stream_from(r)?))
    }
}

impl StreamDeserialize for DeviceMeta {
    fn stream_from(r: &mut JsonStreamReader<'_>) -> Result<Self, Error> {
        r.begin_object()?;
        let addr = r.key("addr")?.value()?;
        let name = r.key("name")?.value()?;
        let class = r.key("class")?.value()?;
        let oui = r.key("oui")?.value()?;
        let link_type = r.key("link_type")?.value()?;
        r.end_object()?;
        Ok(DeviceMeta {
            addr,
            name,
            class,
            oui,
            link_type,
        })
    }
}

impl StreamDeserialize for Cid {
    fn stream_from(r: &mut JsonStreamReader<'_>) -> Result<Self, Error> {
        Ok(Cid(u16::stream_from(r)?))
    }
}

impl StreamDeserialize for Psm {
    fn stream_from(r: &mut JsonStreamReader<'_>) -> Result<Self, Error> {
        Ok(Psm(u16::stream_from(r)?))
    }
}

impl StreamDeserialize for Identifier {
    fn stream_from(r: &mut JsonStreamReader<'_>) -> Result<Self, Error> {
        Ok(Identifier(u8::stream_from(r)?))
    }
}

impl StreamDeserialize for ConnectionHandle {
    fn stream_from(r: &mut JsonStreamReader<'_>) -> Result<Self, Error> {
        Ok(ConnectionHandle(u16::stream_from(r)?))
    }
}

impl StreamDeserialize for LinkSlot {
    fn stream_from(r: &mut JsonStreamReader<'_>) -> Result<Self, Error> {
        Ok(LinkSlot(u16::stream_from(r)?))
    }
}

impl StreamDeserialize for FrameBuf {
    fn stream_from(r: &mut JsonStreamReader<'_>) -> Result<Self, Error> {
        Ok(FrameBuf::from_vec(Vec::<u8>::stream_from(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::to_string_streamed;

    #[test]
    fn vocabulary_types_stream_like_their_derived_encodings() {
        let meta = DeviceMeta::new(
            BdAddr::new([0xF8, 0x0F, 0xF9, 1, 2, 3]),
            "Pixel 3",
            DeviceClass::Smartphone,
        )
        .with_link_type(LinkType::Le);
        assert_eq!(
            to_string_streamed(&meta),
            serde_json::to_string(&meta).unwrap()
        );
        let buf: FrameBuf = vec![1u8, 2, 250].into();
        assert_eq!(
            to_string_streamed(&buf),
            serde_json::to_string(&buf).unwrap()
        );
        for err in ConnectionError::ALL {
            assert_eq!(
                to_string_streamed(&err),
                serde_json::to_string(&err).unwrap()
            );
        }
        for class in [
            DeviceClass::Smartphone,
            DeviceClass::Tablet,
            DeviceClass::Computer,
            DeviceClass::Audio,
            DeviceClass::Wearable,
            DeviceClass::Peripheral,
            DeviceClass::Other,
        ] {
            assert_eq!(
                to_string_streamed(&class),
                serde_json::to_string(&class).unwrap()
            );
        }
        for link in LinkType::ALL {
            assert_eq!(
                to_string_streamed(&link),
                serde_json::to_string(&link).unwrap()
            );
        }
        assert_eq!(to_string_streamed(&Psm::SDP), "1");
        assert_eq!(to_string_streamed(&Cid(0x40)), "64");
    }

    #[test]
    fn vocabulary_types_round_trip_through_the_streaming_reader() {
        let meta = DeviceMeta::new(
            BdAddr::new([0xF8, 0x0F, 0xF9, 1, 2, 3]),
            "Pixel 3",
            DeviceClass::Smartphone,
        )
        .with_link_type(LinkType::Le);
        let json = to_string_streamed(&meta);
        let back: DeviceMeta = serde_json::from_str_streamed(&json).unwrap();
        assert_eq!(back, meta);
        assert_eq!(to_string_streamed(&back), json);

        let buf: FrameBuf = vec![1u8, 2, 250].into();
        let back: FrameBuf = serde_json::from_str_streamed(&to_string_streamed(&buf)).unwrap();
        assert_eq!(back.as_slice(), buf.as_slice());

        let err: ConnectionError = serde_json::from_str_streamed("\"Timeout\"").unwrap();
        assert_eq!(err, ConnectionError::Timeout);
        assert!(serde_json::from_str_streamed::<ConnectionError>("\"Bogus\"").is_err());
    }
}
