//! Streaming JSON for [`FrameBuf`], and the encoding tests of the
//! vocabulary types (whose impls are derived).
//!
//! A `FrameBuf` is not a derivable shape (its bytes live inline or in a
//! shared allocation), so it streams by hand, as one string of lowercase
//! hex digits: the payload `[0x0c, 0x00, 0x01]` is `"0c0001"`.  Every frame
//! payload in a trace, a checkpoint journal or a report takes this form:
//! two characters per byte, where an array of numbers takes up to four in a
//! compact document and an indented line per byte in a pretty one.  The
//! reader accepts only that form, so what it reads re-serializes
//! byte-identically.  Plain `Vec<u8>` fields (a corpus entry's wire form, a
//! `BdAddr`, an OUI) keep the array form.
//!
//! Reading decodes each digit pair straight into the
//! [`FrameWriter`](crate::framebuf::FrameWriter) of a
//! [`FrameBuf::build`]: a payload of up to [`FrameBuf::INLINE_CAPACITY`]
//! bytes is written into the buffer's own inline array, with no
//! intermediate vector and no allocation.

use serde_json::{Error, JsonStreamReader, JsonStreamWriter, StreamDeserialize, StreamSerialize};

use crate::framebuf::FrameBuf;

impl StreamSerialize for FrameBuf {
    fn stream(&self, w: &mut JsonStreamWriter) {
        w.hex(self.as_slice());
    }
}

impl StreamDeserialize for FrameBuf {
    fn stream_from(r: &mut JsonStreamReader<'_>) -> Result<Self, Error> {
        let mut read = Ok(());
        let frame = FrameBuf::build(|out| read = r.hex_into(|b| out.push(b)));
        read.map(|()| frame)
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
        assert_eq!(to_string_streamed(&buf), r#""0102fa""#);
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

    #[test]
    fn payloads_other_than_lowercase_hex_pairs_are_typed_errors() {
        for (json, reason) in [
            (r#""0c0""#, "odd number of hex digits"),
            (r#""0g""#, "expected a lowercase hex digit, found `g`"),
            (r#""0C""#, "expected a lowercase hex digit, found `C`"),
            (
                "\"0\u{e9}\"",
                "expected a lowercase hex digit, found `\\xc3`",
            ),
            (r#""\u0030c""#, "escape sequence in a hex string"),
            (r#""0c\"""#, "escape sequence in a hex string"),
            ("[12,0]", "expected `\"`, found Some('[')"),
            ("null", "expected `\"`"),
            (r#""0c00"#, "unterminated string"),
            (r#""0c0"#, "unterminated string"),
            ("", "expected `\"`, found None"),
        ] {
            let err = serde_json::from_str_streamed::<FrameBuf>(json).expect_err(json);
            assert!(err.to_string().contains(reason), "{json}: {err}");
        }
        // The empty string is the empty payload.
        let empty: FrameBuf = serde_json::from_str_streamed(r#""""#).unwrap();
        assert!(empty.is_empty());
    }
}
