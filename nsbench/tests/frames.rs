//! Frame reassembly over arbitrary read boundaries.

use nsai_gateway::wire::{self, Frame, Status, WireError, HEADER_LEN, MAX_PAYLOAD};
use nsbench::loadgen::FrameBuffer;

fn frames() -> Vec<Frame> {
    vec![
        Frame::Response {
            id: 1,
            status: Status::Ok,
            payload: (0..200u8).collect(),
        },
        Frame::Response {
            id: 2,
            status: Status::QueueFull,
            payload: Vec::new(),
        },
        Frame::Response {
            id: 3,
            status: Status::WorkloadError,
            payload: b"bad case".to_vec(),
        },
        Frame::Goodbye {
            status: Status::ShuttingDown,
            message: "bye".to_string(),
        },
    ]
}

fn stream() -> Vec<u8> {
    frames()
        .iter()
        .flat_map(|f| wire::encode_frame(f).expect("encodable"))
        .collect()
}

fn drain(buffer: &mut FrameBuffer, out: &mut Vec<Frame>) {
    while let Some(frame) = buffer.next_frame().expect("well-formed stream") {
        out.push(frame);
    }
}

#[test]
fn concatenated_frames_decode_in_order() {
    let mut buffer = FrameBuffer::default();
    buffer.extend(&stream());
    let mut out = Vec::new();
    drain(&mut buffer, &mut out);
    assert_eq!(out, frames());
    assert_eq!(buffer.pending(), 0);
}

#[test]
fn a_split_at_every_byte_offset_decodes_the_same_frames() {
    let bytes = stream();
    for cut in 0..=bytes.len() {
        let mut buffer = FrameBuffer::default();
        let mut out = Vec::new();
        buffer.extend(&bytes[..cut]);
        drain(&mut buffer, &mut out);
        buffer.extend(&bytes[cut..]);
        drain(&mut buffer, &mut out);
        assert_eq!(out, frames(), "split at byte {cut}");
        assert_eq!(buffer.pending(), 0);
    }
}

#[test]
fn byte_at_a_time_delivery_decodes_the_same_frames() {
    let mut buffer = FrameBuffer::default();
    let mut out = Vec::new();
    for byte in stream() {
        buffer.extend(&[byte]);
        drain(&mut buffer, &mut out);
    }
    assert_eq!(out, frames());
}

#[test]
fn an_oversized_length_is_refused_before_its_payload_arrives() {
    let mut bytes = wire::encode_frame(&frames()[0]).expect("encodable");
    bytes[24..28].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
    let mut buffer = FrameBuffer::default();
    buffer.extend(&bytes[..HEADER_LEN]);
    assert!(matches!(buffer.next_frame(), Err(WireError::TooLarge(_))));
}
