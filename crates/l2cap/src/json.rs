//! Encoding tests of the L2CAP types reports and traces persist (their
//! streaming JSON impls are derived).

#[cfg(test)]
mod tests {
    use crate::code::CommandCode;
    use crate::jobs::Job;
    use crate::packet::L2capFrame;
    use crate::state::ChannelState;
    use btcore::{Cid, FrameBuf};
    use serde_json::{to_string_pretty_streamed, to_string_streamed};

    #[test]
    fn frame_and_enums_stream_like_their_derived_encodings() {
        let frame = L2capFrame::new(Cid::SIGNALING, vec![0x08, 0x01, 0x00, 0x00]);
        assert_eq!(
            to_string_streamed(&frame),
            r#"{"declared_payload_len":4,"cid":1,"payload":"08010000"}"#
        );
        assert_eq!(
            to_string_pretty_streamed(&frame),
            "{\n  \"declared_payload_len\": 4,\n  \"cid\": 1,\n  \"payload\": \"08010000\"\n}"
        );
        for state in ChannelState::ALL {
            let json = to_string_streamed(&state);
            assert_eq!(json, format!("\"{state:?}\""));
            assert_eq!(
                serde_json::from_str_streamed::<ChannelState>(&json).unwrap(),
                state
            );
        }
        for code in CommandCode::ALL {
            let json = to_string_streamed(&code);
            assert_eq!(json, format!("\"{code:?}\""));
            assert_eq!(
                serde_json::from_str_streamed::<CommandCode>(&json).unwrap(),
                code
            );
        }
        for job in Job::ALL {
            let json = to_string_streamed(&job);
            assert_eq!(json, format!("\"{job:?}\""));
            assert_eq!(serde_json::from_str_streamed::<Job>(&json).unwrap(), job);
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

    #[test]
    fn frames_round_trip_through_both_writers_and_read_inline_up_to_the_capacity() {
        const N: usize = FrameBuf::INLINE_CAPACITY;
        for len in [0, 1, N, N + 1, 600] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let frame = L2capFrame::new(Cid::SIGNALING, payload);
            for json in [
                to_string_streamed(&frame),
                to_string_pretty_streamed(&frame),
            ] {
                let back: L2capFrame = serde_json::from_str_streamed(&json).unwrap();
                assert_eq!(back, frame, "len {len}");
                // Only a payload above the inline capacity reads into a
                // shared allocation, which its clones share.
                let shared = back.payload.shares_storage_with(&back.payload.clone());
                assert_eq!(shared, len > N, "len {len}");
            }
        }
    }
}
