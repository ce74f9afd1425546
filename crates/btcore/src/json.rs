//! Streaming JSON for [`FrameBuf`], and the encoding tests of the
//! vocabulary types (whose impls are derived).
//!
//! A `FrameBuf` is not a derivable shape (its bytes live inline or in a
//! shared allocation), so it streams by hand: exactly like `Vec<u8>`, a JSON
//! array of numbers, so swapping a `Vec<u8>` field for a `FrameBuf` changes
//! no serialized artifact.

use serde_json::{Error, JsonStreamReader, JsonStreamWriter, StreamDeserialize, StreamSerialize};

use crate::framebuf::FrameBuf;

impl StreamSerialize for FrameBuf {
    fn stream(&self, w: &mut JsonStreamWriter) {
        self.as_slice().stream(w);
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
    use crate::addr::BdAddr;
    use crate::device::{DeviceClass, DeviceMeta, LinkType};
    use crate::error::ConnectionError;
    use crate::ids::{Cid, Psm};
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
            concat!(
                r#"{"addr":[248,15,249,1,2,3],"name":"Pixel 3","class":"Smartphone","#,
                r#""oui":[248,15,249],"link_type":"Le"}"#
            )
        );
        let buf: FrameBuf = vec![1u8, 2, 250].into();
        assert_eq!(to_string_streamed(&buf), "[1,2,250]");
        for err in ConnectionError::ALL {
            let json = to_string_streamed(&err);
            assert_eq!(json, format!("\"{err:?}\""));
            assert_eq!(
                serde_json::from_str_streamed::<ConnectionError>(&json).unwrap(),
                err
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
            let json = to_string_streamed(&class);
            assert_eq!(json, format!("\"{class:?}\""));
            assert_eq!(
                serde_json::from_str_streamed::<DeviceClass>(&json).unwrap(),
                class
            );
        }
        for link in LinkType::ALL {
            let json = to_string_streamed(&link);
            assert_eq!(json, format!("\"{link:?}\""));
            assert_eq!(
                serde_json::from_str_streamed::<LinkType>(&json).unwrap(),
                link
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
