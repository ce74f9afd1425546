//! Streaming JSON serialization for the L2CAP report-path types, mirroring
//! the derived `serde::Serialize` encodings byte for byte — plus the
//! matching streaming deserializers for replay without a `Value` tree.

use serde_json::{Error, JsonStreamReader, JsonStreamWriter, StreamDeserialize, StreamSerialize};

use crate::code::CommandCode;
use crate::jobs::Job;
use crate::packet::L2capFrame;
use crate::state::ChannelState;

serde_json::stream_unit_enum!(CommandCode, Job, ChannelState);
serde_json::stream_unit_enum_de!(CommandCode, Job, ChannelState);

impl StreamSerialize for L2capFrame {
    fn stream(&self, w: &mut JsonStreamWriter) {
        w.begin_object()
            .field("declared_payload_len", &self.declared_payload_len)
            .field("cid", &self.cid)
            .field("payload", &self.payload)
            .end_object();
    }
}

impl StreamDeserialize for L2capFrame {
    fn stream_from(r: &mut JsonStreamReader<'_>) -> Result<Self, Error> {
        r.begin_object()?;
        let declared_payload_len = r.key("declared_payload_len")?.value()?;
        let cid = r.key("cid")?.value()?;
        let payload = r.key("payload")?.value()?;
        r.end_object()?;
        Ok(L2capFrame {
            declared_payload_len,
            cid,
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btcore::Cid;
    use serde_json::to_string_streamed;

    #[test]
    fn frame_and_enums_stream_like_their_derived_encodings() {
        let frame = L2capFrame::new(Cid::SIGNALING, vec![0x08, 0x01, 0x00, 0x00]);
        assert_eq!(
            to_string_streamed(&frame),
            serde_json::to_string(&frame).unwrap()
        );
        for state in ChannelState::ALL {
            assert_eq!(
                to_string_streamed(&state),
                serde_json::to_string(&state).unwrap()
            );
        }
        for code in CommandCode::ALL {
            assert_eq!(
                to_string_streamed(&code),
                serde_json::to_string(&code).unwrap()
            );
        }
        for job in Job::ALL {
            assert_eq!(
                to_string_streamed(&job),
                serde_json::to_string(&job).unwrap()
            );
        }
    }

    #[test]
    fn frame_and_enums_round_trip_through_the_streaming_reader() {
        let frame = L2capFrame::new(Cid::SIGNALING, vec![0x08, 0x01, 0x00, 0x00]);
        let json = to_string_streamed(&frame);
        let back: L2capFrame = serde_json::from_str_streamed(&json).unwrap();
        assert_eq!(back, frame);
        assert_eq!(to_string_streamed(&back), json);
        for state in ChannelState::ALL {
            let back: ChannelState =
                serde_json::from_str_streamed(&to_string_streamed(&state)).unwrap();
            assert_eq!(back, state);
        }
        let back: Job = serde_json::from_str_streamed("\"Configuration\"").unwrap();
        assert_eq!(back, Job::Configuration);
    }
}
