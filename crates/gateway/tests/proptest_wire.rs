//! Hostile-input property tests for the `nsgp/1` decoder.
//!
//! Whatever bytes arrive, [`wire::read_frame`] ends in a frame or a
//! typed [`WireError`] — never a panic, never a payload past
//! [`wire::MAX_PAYLOAD`] — and [`wire::decode_output`] ends in an output
//! or an error message. Inputs: arbitrary byte streams, valid frames
//! truncated at every offset, and valid frames with one header field
//! mutated. Encoding then decoding gives back the same frame or output.

use nsai_gateway::wire::{self, Frame, Status, WireError, HEADER_LEN, MAGIC, MAX_PAYLOAD, VERSION};
use nsai_workloads::WorkloadOutput;
use proptest::prelude::*;

/// Raw draws for one frame: kind selector, id, aux fields, status index,
/// payload bytes.
type RawFrame = (u8, u64, u32, u32, usize, Vec<u8>);

fn any_raw_frame() -> impl Strategy<Value = RawFrame> {
    (
        0u8..3,
        0u64..=u64::MAX,
        0u32..=u32::MAX,
        0u32..=u32::MAX,
        0usize..Status::ALL.len(),
        prop::collection::vec(0u8..=255, 0..96),
    )
}

/// A valid frame of each kind. Goodbye messages stay ASCII so the
/// decoder's lossy UTF-8 conversion is the identity.
fn frame((kind, id, workload, deadline_us, status, payload): RawFrame) -> Frame {
    let status = Status::ALL[status];
    match kind {
        0 => Frame::Request {
            id,
            workload,
            deadline_us,
            case: id.rotate_left(17),
        },
        1 => Frame::Response {
            id,
            status,
            payload,
        },
        _ => Frame::Goodbye {
            status,
            message: payload.iter().map(|b| char::from(b'a' + b % 26)).collect(),
        },
    }
}

/// Decode every frame in `bytes`, checking the invariants each result
/// must satisfy; returns the frames read before the first error.
fn read_all(bytes: &[u8]) -> (Vec<Frame>, WireError) {
    let mut reader = bytes;
    let mut frames = Vec::new();
    loop {
        let before = reader.len();
        match wire::read_frame(&mut reader) {
            Ok(frame) => {
                // A frame consumes at least its header, so this loop ends.
                assert!(before - reader.len() >= HEADER_LEN);
                if let Frame::Response { payload, .. } = &frame {
                    assert!(payload.len() <= MAX_PAYLOAD as usize);
                }
                frames.push(frame);
            }
            Err(error) => {
                // `Closed` is reserved for a clean end at a frame boundary.
                assert_eq!(matches!(error, WireError::Closed), before == 0, "{error}");
                return (frames, error);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_decode_to_frames_or_typed_errors(
        bytes in prop::collection::vec(0u8..=255, 0..160),
        header in (prop::bool::ANY, 1u8..=3),
    ) {
        // Half the streams carry a plausible header start, so decoding
        // gets past the magic and version checks into the later fields.
        let mut bytes = bytes;
        if header.0 && bytes.len() >= 6 {
            bytes[..4].copy_from_slice(&MAGIC);
            bytes[4] = VERSION;
            bytes[5] = header.1;
        }
        read_all(&bytes);
    }

    #[test]
    fn frames_round_trip(raw in any_raw_frame()) {
        let frame = frame(raw);
        let bytes = wire::encode_frame(&frame).expect("payload under the cap");
        let (frames, end) = read_all(&bytes);
        prop_assert_eq!(frames, vec![frame]);
        prop_assert!(matches!(end, WireError::Closed));
    }

    #[test]
    fn truncation_at_every_offset_is_a_mid_frame_disconnect(raw in any_raw_frame()) {
        let bytes = wire::encode_frame(&frame(raw)).expect("payload under the cap");
        for cut in 1..bytes.len() {
            let result = wire::read_frame(&mut &bytes[..cut]);
            prop_assert!(
                matches!(result, Err(WireError::Disconnected(_))),
                "cut at {cut} of {}: {result:?}", bytes.len()
            );
        }
    }

    #[test]
    fn mutated_header_fields_are_typed_errors(
        raw in any_raw_frame(),
        field in 0u8..6,
        value in 0u32..=u32::MAX,
    ) {
        let original = frame(raw);
        let mut bytes = wire::encode_frame(&original).expect("payload under the cap");
        let payload_len = bytes.len() - HEADER_LEN;
        let result = match field {
            0 => {
                let at = value as usize % 4;
                bytes[at] = bytes[at].wrapping_add(1 + (value >> 8) as u8 % 255);
                wire::read_frame(&mut bytes.as_slice())
            }
            1 => {
                bytes[4] = VERSION.wrapping_add(1 + value as u8 % 255);
                wire::read_frame(&mut bytes.as_slice())
            }
            2 => {
                bytes[5] = value as u8;
                let result = wire::read_frame(&mut bytes.as_slice());
                if !(1..=3).contains(&bytes[5]) {
                    prop_assert!(matches!(result, Err(WireError::Malformed(_))), "{result:?}");
                }
                result
            }
            3 => {
                bytes[6] = value as u8;
                wire::read_frame(&mut bytes.as_slice())
            }
            4 => {
                bytes[7] = 1 + value as u8 % 255;
                wire::read_frame(&mut bytes.as_slice())
            }
            _ => {
                // Lengths past the cap, past the bytes present, or short.
                let len = match value % 3 {
                    0 => MAX_PAYLOAD + 1 + value / 3 % (u32::MAX - MAX_PAYLOAD),
                    1 => payload_len as u32 + 1 + value / 3 % MAX_PAYLOAD,
                    _ => (value / 3) % (payload_len as u32 + 1),
                };
                bytes[24..28].copy_from_slice(&len.to_le_bytes());
                let result = wire::read_frame(&mut bytes.as_slice());
                if len > MAX_PAYLOAD {
                    prop_assert!(matches!(result, Err(WireError::TooLarge(l)) if l == len));
                } else if len as usize > payload_len {
                    prop_assert!(matches!(result, Err(WireError::Disconnected(_))), "{result:?}");
                }
                result
            }
        };
        match field {
            0 | 1 | 4 => prop_assert!(
                matches!(result, Err(WireError::Malformed(_))),
                "field {field}: {result:?}"
            ),
            _ => prop_assert!(
                !matches!(result, Err(WireError::Closed)),
                "field {field}: {result:?}"
            ),
        }
    }

    #[test]
    fn arbitrary_output_payloads_decode_or_error(
        metrics in prop::collection::vec(("[a-z_]{1,12}", 0u64..=u64::MAX), 0..6),
        flip in (0usize..=usize::MAX, 0u8..=255),
        junk in prop::collection::vec(0u8..=255, 0..64),
    ) {
        let mut output = WorkloadOutput::new();
        for (name, bits) in &metrics {
            output.set(name.as_str(), f64::from_bits(*bits));
        }
        let bytes = wire::encode_output(&output);
        // Round trip, bitwise (NaN != NaN, so compare re-encodings too).
        let decoded = wire::decode_output(&bytes).expect("encoded output decodes");
        prop_assert_eq!(wire::encode_output(&decoded), bytes.clone());
        if output.metrics().all(|(_, v)| !v.is_nan()) {
            prop_assert_eq!(decoded, output);
        }
        // A corrupted encoding, and pure junk, decode or error; neither
        // panics.
        let mut corrupt = bytes;
        let at = flip.0 % corrupt.len();
        corrupt[at] ^= flip.1.max(1);
        let _ = wire::decode_output(&corrupt);
        let _ = wire::decode_output(&junk);
    }
}
