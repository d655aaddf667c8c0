//! `nsgp/1` — the neuro-symbolic gateway protocol, version 1.
//!
//! A length-prefixed binary framing over any byte stream. Every frame
//! shares one 28-byte fixed header (all integers little-endian):
//!
//! | offset | size | field                                     |
//! |--------|------|-------------------------------------------|
//! | 0      | 4    | magic `"NSGP"` (`0x4E 0x53 0x47 0x50`)    |
//! | 4      | 1    | protocol version (`1`)                    |
//! | 5      | 1    | frame type ([`FrameType`])                |
//! | 6      | 1    | status ([`Status`]; `0` in requests)      |
//! | 7      | 1    | reserved (must be `0`)                    |
//! | 8      | 8    | request id (`0` in goodbye frames)        |
//! | 16     | 8    | aux (per-type, below)                     |
//! | 24     | 4    | payload length (≤ [`MAX_PAYLOAD`])        |
//! | 28     | n    | payload                                   |
//!
//! Frame kinds:
//!
//! - **Request** (client→server): `aux` packs the workload id in its
//!   low 32 bits and an optional relative deadline in microseconds
//!   (`0` = none, measured from server-side decode) in its high 32.
//!   The payload is the 8-byte little-endian case id.
//! - **Response** (server→client): `status` carries the outcome. An
//!   `Ok` payload is the [`encode_output`] serialization of the
//!   workload output — a canonical, bitwise-deterministic byte form,
//!   so "gateway-served equals direct execution" is checkable with
//!   `==` on bytes. Error statuses carry an optional UTF-8 message.
//! - **Goodbye** (server→client): a typed, connection-fatal error
//!   frame — malformed input, an oversized frame, or a shutting-down
//!   server. The payload is a human-readable reason; the server closes
//!   the connection right after writing it. A malformed frame is never
//!   answered with a panic or a silent drop: either a goodbye frame
//!   (decodable prefix) or a clean close (mid-frame disconnect).
//!
//! The hard frame-size cap ([`MAX_PAYLOAD`]) is enforced *before* the
//! payload is read, so a hostile length field cannot make the server
//! allocate or buffer unboundedly.

use nsai_workloads::WorkloadOutput;
use std::fmt;
use std::io::{self, Read, Write};

/// Frame magic: `"NSGP"`.
pub const MAGIC: [u8; 4] = *b"NSGP";
/// Protocol version this module speaks.
pub const VERSION: u8 = 1;
/// Hard cap on a frame's payload length, requests and responses alike.
/// Anything larger is rejected at the header, unread.
pub const MAX_PAYLOAD: u32 = 256 * 1024;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 28;

/// Frame kind discriminant (header byte 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// Client→server request.
    Request = 1,
    /// Server→client per-request response.
    Response = 2,
    /// Server→client connection-fatal typed error; the connection
    /// closes after this frame.
    Goodbye = 3,
}

impl FrameType {
    fn from_u8(raw: u8) -> Option<FrameType> {
        match raw {
            1 => Some(FrameType::Request),
            2 => Some(FrameType::Response),
            3 => Some(FrameType::Goodbye),
            _ => None,
        }
    }
}

/// Wire status codes (header byte 6). `0` is success; 1–3 mirror
/// [`nsai_serve::RejectCode`] exactly (the typed admission-rejection
/// catalog); 4–7 are serve-side request failures; 8 is gateway flow
/// control; 9–10 are protocol-level terminal conditions carried by
/// goodbye frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Status {
    /// Request completed; payload is the encoded workload output.
    Ok = 0,
    /// Admission queue full — transient backpressure, back off.
    QueueFull = 1,
    /// No such workload id/name on this server.
    UnknownWorkload = 2,
    /// Server is draining; no new work is admitted.
    ShuttingDown = 3,
    /// The request's deadline expired (gateway-side before submission,
    /// or serve-side in the queue).
    DeadlineExceeded = 4,
    /// The replica panicked while serving this request (contained).
    WorkerPanicked = 5,
    /// An abort-mode shutdown failed this request before dispatch.
    Aborted = 6,
    /// The workload returned an error; payload is its message.
    WorkloadError = 7,
    /// The connection's in-flight window is full — wire-level flow
    /// control; resubmit after responses drain.
    WindowExceeded = 8,
    /// The frame could not be decoded (bad magic/version/type/fields).
    BadFrame = 9,
    /// The frame declared a payload beyond [`MAX_PAYLOAD`].
    FrameTooLarge = 10,
}

impl Status {
    /// Every status, in wire-value order.
    pub const ALL: [Status; 11] = [
        Status::Ok,
        Status::QueueFull,
        Status::UnknownWorkload,
        Status::ShuttingDown,
        Status::DeadlineExceeded,
        Status::WorkerPanicked,
        Status::Aborted,
        Status::WorkloadError,
        Status::WindowExceeded,
        Status::BadFrame,
        Status::FrameTooLarge,
    ];

    /// The stable wire value.
    pub fn wire_code(self) -> u8 {
        self as u8
    }

    /// Decode a wire value.
    pub fn from_u8(raw: u8) -> Option<Status> {
        Status::ALL.into_iter().find(|s| s.wire_code() == raw)
    }

    /// The wire status for a typed admission rejection. Exhaustive over
    /// [`nsai_serve::RejectCode`]: a new rejection cause cannot be
    /// silently collapsed into an existing status.
    pub fn from_reject(code: nsai_serve::RejectCode) -> Status {
        match code {
            nsai_serve::RejectCode::QueueFull => Status::QueueFull,
            nsai_serve::RejectCode::UnknownWorkload => Status::UnknownWorkload,
            nsai_serve::RejectCode::ShuttingDown => Status::ShuttingDown,
        }
    }

    /// The wire status for a served-but-failed request. Exhaustive over
    /// [`nsai_serve::ServeError`] for the same reason as
    /// [`Status::from_reject`].
    pub fn from_serve_error(error: &nsai_serve::ServeError) -> Status {
        match error {
            nsai_serve::ServeError::Workload(_) => Status::WorkloadError,
            nsai_serve::ServeError::WorkerPanicked => Status::WorkerPanicked,
            nsai_serve::ServeError::DeadlineExceeded => Status::DeadlineExceeded,
            nsai_serve::ServeError::Aborted => Status::Aborted,
        }
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Status::Ok => "ok",
            Status::QueueFull => "queue-full",
            Status::UnknownWorkload => "unknown-workload",
            Status::ShuttingDown => "shutting-down",
            Status::DeadlineExceeded => "deadline-exceeded",
            Status::WorkerPanicked => "worker-panicked",
            Status::Aborted => "aborted",
            Status::WorkloadError => "workload-error",
            Status::WindowExceeded => "window-exceeded",
            Status::BadFrame => "bad-frame",
            Status::FrameTooLarge => "frame-too-large",
        };
        f.write_str(name)
    }
}

/// A decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client→server request.
    Request {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
        /// Index into the gateway's registered-workload table.
        workload: u32,
        /// Relative deadline in µs from server-side decode; `0` = none.
        deadline_us: u32,
        /// Episode selector.
        case: u64,
    },
    /// Server→client response.
    Response {
        /// The request id this answers.
        id: u64,
        /// Outcome.
        status: Status,
        /// Encoded output (`Ok`) or UTF-8 message (errors).
        payload: Vec<u8>,
    },
    /// Server→client connection-fatal error.
    Goodbye {
        /// Why the connection is closing.
        status: Status,
        /// Human-readable reason.
        message: String,
    },
}

/// Why a frame could not be read. [`WireError::Malformed`] and
/// [`WireError::TooLarge`] are *protocol* errors — the peer sent bytes
/// that cannot be `nsgp/1` — and are answered with a typed goodbye
/// frame; the rest are transport conditions.
#[derive(Debug)]
pub enum WireError {
    /// The stream closed cleanly at a frame boundary.
    Closed,
    /// The stream closed or failed mid-frame.
    Disconnected(io::Error),
    /// The header or payload violates the protocol; the message names
    /// the first violated field.
    Malformed(String),
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    TooLarge(u32),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Closed => f.write_str("connection closed"),
            WireError::Disconnected(e) => write!(f, "disconnected mid-frame: {e}"),
            WireError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
            WireError::TooLarge(len) => {
                write!(f, "frame payload {len} exceeds cap {MAX_PAYLOAD}")
            }
        }
    }
}

impl std::error::Error for WireError {}

fn read_exact_or(
    reader: &mut impl Read,
    buf: &mut [u8],
    at_boundary: bool,
) -> Result<(), WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if at_boundary && filled == 0 {
                    WireError::Closed
                } else {
                    WireError::Disconnected(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "stream ended mid-frame",
                    ))
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Disconnected(e)),
        }
    }
    Ok(())
}

/// Read one frame. Distinguishes a clean close at a frame boundary
/// ([`WireError::Closed`]) from a mid-frame disconnect, and rejects
/// oversized payloads before reading them.
///
/// # Errors
///
/// See [`WireError`].
pub fn read_frame(reader: &mut impl Read) -> Result<Frame, WireError> {
    let mut header = [0u8; HEADER_LEN];
    read_exact_or(reader, &mut header[..1], true)?;
    read_exact_or(reader, &mut header[1..], false)?;

    if header[..4] != MAGIC {
        return Err(WireError::Malformed(format!(
            "bad magic {:02x?} (want {:02x?})",
            &header[..4],
            MAGIC
        )));
    }
    if header[4] != VERSION {
        return Err(WireError::Malformed(format!(
            "unsupported version {} (this server speaks {VERSION})",
            header[4]
        )));
    }
    let Some(frame_type) = FrameType::from_u8(header[5]) else {
        return Err(WireError::Malformed(format!(
            "unknown frame type {}",
            header[5]
        )));
    };
    let status_raw = header[6];
    if header[7] != 0 {
        return Err(WireError::Malformed(format!(
            "reserved byte is {} (must be 0)",
            header[7]
        )));
    }
    let id = u64::from_le_bytes(header_field(&header, 8));
    let aux = u64::from_le_bytes(header_field(&header, 16));
    let len = u32::from_le_bytes(header_field(&header, 24));
    if len > MAX_PAYLOAD {
        return Err(WireError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_or(reader, &mut payload, false)?;

    match frame_type {
        FrameType::Request => {
            if status_raw != 0 {
                return Err(WireError::Malformed(format!(
                    "request carries status {status_raw} (must be 0)"
                )));
            }
            let Ok(case) = <[u8; 8]>::try_from(payload.as_slice()) else {
                return Err(WireError::Malformed(format!(
                    "request payload is {} bytes (want 8-byte case id)",
                    payload.len()
                )));
            };
            Ok(Frame::Request {
                id,
                workload: aux as u32,
                deadline_us: (aux >> 32) as u32,
                case: u64::from_le_bytes(case),
            })
        }
        FrameType::Response => {
            let Some(status) = Status::from_u8(status_raw) else {
                return Err(WireError::Malformed(format!(
                    "unknown response status {status_raw}"
                )));
            };
            Ok(Frame::Response {
                id,
                status,
                payload,
            })
        }
        FrameType::Goodbye => {
            let Some(status) = Status::from_u8(status_raw) else {
                return Err(WireError::Malformed(format!(
                    "unknown goodbye status {status_raw}"
                )));
            };
            Ok(Frame::Goodbye {
                status,
                message: String::from_utf8_lossy(&payload).into_owned(),
            })
        }
    }
}

/// The `N` header bytes starting at `at`, as an array. Every field sits
/// inside the fixed-size header, so no length check can fail.
fn header_field<const N: usize>(header: &[u8; HEADER_LEN], at: usize) -> [u8; N] {
    std::array::from_fn(|i| header[at + i])
}

fn header_bytes(
    frame_type: FrameType,
    status: u8,
    id: u64,
    aux: u64,
    len: u32,
) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&MAGIC);
    header[4] = VERSION;
    header[5] = frame_type as u8;
    header[6] = status;
    header[8..16].copy_from_slice(&id.to_le_bytes());
    header[16..24].copy_from_slice(&aux.to_le_bytes());
    header[24..28].copy_from_slice(&len.to_le_bytes());
    header
}

/// Serialize `frame` to bytes. Deterministic: equal frames encode to
/// equal bytes (the property the parity tests lean on).
///
/// # Errors
///
/// [`WireError::TooLarge`] when the payload exceeds [`MAX_PAYLOAD`].
pub fn encode_frame(frame: &Frame) -> Result<Vec<u8>, WireError> {
    let (frame_type, status, id, aux, payload): (FrameType, u8, u64, u64, &[u8]) = match frame {
        Frame::Request {
            id,
            workload,
            deadline_us,
            case,
        } => {
            let aux = u64::from(*workload) | (u64::from(*deadline_us) << 32);
            let case_bytes = case.to_le_bytes();
            let mut bytes = Vec::with_capacity(HEADER_LEN + 8);
            bytes.extend_from_slice(&header_bytes(FrameType::Request, 0, *id, aux, 8));
            bytes.extend_from_slice(&case_bytes);
            return Ok(bytes);
        }
        Frame::Response {
            id,
            status,
            payload,
        } => (FrameType::Response, status.wire_code(), *id, 0, payload),
        Frame::Goodbye { status, message } => (
            FrameType::Goodbye,
            status.wire_code(),
            0,
            0,
            message.as_bytes(),
        ),
    };
    let len = u32::try_from(payload.len()).map_err(|_| WireError::TooLarge(u32::MAX))?;
    if len > MAX_PAYLOAD {
        return Err(WireError::TooLarge(len));
    }
    let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
    bytes.extend_from_slice(&header_bytes(frame_type, status, id, aux, len));
    bytes.extend_from_slice(payload);
    Ok(bytes)
}

/// Encode and write one frame.
///
/// # Errors
///
/// [`WireError::TooLarge`] for an over-cap payload,
/// [`WireError::Disconnected`] for transport failures.
pub fn write_frame(writer: &mut impl Write, frame: &Frame) -> Result<(), WireError> {
    let bytes = encode_frame(frame)?;
    writer
        .write_all(&bytes)
        .and_then(|()| writer.flush())
        .map_err(WireError::Disconnected)
}

/// Canonical byte serialization of a [`WorkloadOutput`]: metric count,
/// then `(name length, name bytes, f64 bits)` per metric in the
/// output's own (sorted) iteration order, all little-endian. Lossless
/// (`f64::to_bits`) and deterministic, so two equal outputs always
/// encode to identical bytes — the unit of the gateway's bitwise
/// parity guarantee.
pub fn encode_output(output: &WorkloadOutput) -> Vec<u8> {
    let metrics: Vec<(&str, f64)> = output.metrics().collect();
    let mut bytes = Vec::with_capacity(4 + metrics.len() * 24);
    bytes.extend_from_slice(&(metrics.len() as u32).to_le_bytes());
    for (name, value) in metrics {
        bytes.extend_from_slice(&(name.len() as u16).to_le_bytes());
        bytes.extend_from_slice(name.as_bytes());
        bytes.extend_from_slice(&value.to_bits().to_le_bytes());
    }
    bytes
}

/// Inverse of [`encode_output`].
///
/// # Errors
///
/// A description of the first structural violation.
pub fn decode_output(bytes: &[u8]) -> Result<WorkloadOutput, String> {
    let take = |bytes: &[u8], at: usize, n: usize| -> Result<Vec<u8>, String> {
        bytes
            .get(at..at + n)
            .map(<[u8]>::to_vec)
            .ok_or_else(|| format!("output truncated at byte {at} (wanted {n} more)"))
    };
    let count = u32::from_le_bytes(
        take(bytes, 0, 4)?
            .try_into()
            .map_err(|_| "bad count".to_string())?,
    );
    let mut at = 4;
    let mut output = WorkloadOutput::new();
    for _ in 0..count {
        let name_len = u16::from_le_bytes(
            take(bytes, at, 2)?
                .try_into()
                .map_err(|_| "bad name length".to_string())?,
        ) as usize;
        at += 2;
        let name = String::from_utf8(take(bytes, at, name_len)?)
            .map_err(|e| format!("metric name is not UTF-8: {e}"))?;
        at += name_len;
        let bits = u64::from_le_bytes(
            take(bytes, at, 8)?
                .try_into()
                .map_err(|_| "bad value".to_string())?,
        );
        at += 8;
        output.set(name, f64::from_bits(bits));
    }
    if at != bytes.len() {
        return Err(format!(
            "{} trailing bytes after {count} metrics",
            bytes.len() - at
        ));
    }
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn frames_round_trip() {
        let frames = [
            Frame::Request {
                id: 7,
                workload: 3,
                deadline_us: 250_000,
                case: 0xDEAD_BEEF_0BAD_F00D,
            },
            Frame::Response {
                id: 7,
                status: Status::Ok,
                payload: vec![1, 2, 3],
            },
            Frame::Response {
                id: 9,
                status: Status::QueueFull,
                payload: Vec::new(),
            },
            Frame::Goodbye {
                status: Status::FrameTooLarge,
                message: "too big".to_string(),
            },
        ];
        for frame in &frames {
            let bytes = encode_frame(frame).expect("encodable");
            let decoded = read_frame(&mut bytes.as_slice()).expect("decodable");
            assert_eq!(&decoded, frame);
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let frame = Frame::Request {
            id: 1,
            workload: 0,
            deadline_us: 0,
            case: 42,
        };
        assert_eq!(encode_frame(&frame).unwrap(), encode_frame(&frame).unwrap());
    }

    #[test]
    fn statuses_are_unique_and_stable() {
        let codes: BTreeSet<u8> = Status::ALL.iter().map(|s| s.wire_code()).collect();
        assert_eq!(codes.len(), Status::ALL.len());
        for status in Status::ALL {
            assert_eq!(Status::from_u8(status.wire_code()), Some(status));
        }
        assert_eq!(Status::from_u8(200), None);
        // The serve RejectCode catalog maps injectively and onto the
        // matching wire values (1:1 with RejectCode::wire_code).
        let mapped: BTreeSet<u8> = nsai_serve::RejectCode::ALL
            .iter()
            .map(|c| Status::from_reject(*c).wire_code())
            .collect();
        assert_eq!(mapped.len(), nsai_serve::RejectCode::ALL.len());
        for code in nsai_serve::RejectCode::ALL {
            assert_eq!(Status::from_reject(code).wire_code(), code.wire_code());
        }
        // Serve-side failures map injectively too, and never onto a
        // rejection code.
        let serve_errors = [
            nsai_serve::ServeError::Workload("x".to_string()),
            nsai_serve::ServeError::WorkerPanicked,
            nsai_serve::ServeError::DeadlineExceeded,
            nsai_serve::ServeError::Aborted,
        ];
        let serve_codes: BTreeSet<u8> = serve_errors
            .iter()
            .map(|e| Status::from_serve_error(e).wire_code())
            .collect();
        assert_eq!(serve_codes.len(), serve_errors.len());
        assert!(serve_codes.is_disjoint(&mapped));
    }

    #[test]
    fn malformed_headers_are_typed_errors() {
        let good = encode_frame(&Frame::Request {
            id: 1,
            workload: 0,
            deadline_us: 0,
            case: 0,
        })
        .unwrap();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            read_frame(&mut bad_magic.as_slice()),
            Err(WireError::Malformed(_))
        ));

        let mut bad_version = good.clone();
        bad_version[4] = 9;
        assert!(matches!(
            read_frame(&mut bad_version.as_slice()),
            Err(WireError::Malformed(_))
        ));

        let mut bad_type = good.clone();
        bad_type[5] = 77;
        assert!(matches!(
            read_frame(&mut bad_type.as_slice()),
            Err(WireError::Malformed(_))
        ));

        let mut bad_reserved = good.clone();
        bad_reserved[7] = 1;
        assert!(matches!(
            read_frame(&mut bad_reserved.as_slice()),
            Err(WireError::Malformed(_))
        ));

        // A request whose payload is not exactly a case id.
        let mut short_payload = good.clone();
        short_payload[24..28].copy_from_slice(&3u32.to_le_bytes());
        short_payload.truncate(HEADER_LEN + 3);
        assert!(matches!(
            read_frame(&mut short_payload.as_slice()),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_frames_are_rejected_at_the_header() {
        let mut bytes = encode_frame(&Frame::Request {
            id: 1,
            workload: 0,
            deadline_us: 0,
            case: 0,
        })
        .unwrap();
        bytes[24..28].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        // No payload follows — the reader must reject on the declared
        // length alone, without trying to read (or allocate) it.
        bytes.truncate(HEADER_LEN);
        assert!(matches!(
            read_frame(&mut bytes.as_slice()),
            Err(WireError::TooLarge(_))
        ));
        // A length of exactly the cap is legal: the reader goes on to
        // read the (here missing) payload.
        bytes[24..28].copy_from_slice(&MAX_PAYLOAD.to_le_bytes());
        assert!(matches!(
            read_frame(&mut bytes.as_slice()),
            Err(WireError::Disconnected(_))
        ));
        // And the writer refuses to produce one.
        let frame = Frame::Response {
            id: 1,
            status: Status::Ok,
            payload: vec![0; MAX_PAYLOAD as usize + 1],
        };
        assert!(matches!(encode_frame(&frame), Err(WireError::TooLarge(_))));
    }

    #[test]
    fn close_at_boundary_vs_mid_frame() {
        assert!(matches!(
            read_frame(&mut [].as_slice()),
            Err(WireError::Closed)
        ));
        let good = encode_frame(&Frame::Request {
            id: 1,
            workload: 0,
            deadline_us: 0,
            case: 0,
        })
        .unwrap();
        for cut in [1, 4, HEADER_LEN - 1, HEADER_LEN + 2] {
            assert!(
                matches!(
                    read_frame(&mut &good[..cut]),
                    Err(WireError::Disconnected(_))
                ),
                "cut at {cut} should be a mid-frame disconnect"
            );
        }
    }

    #[test]
    fn output_codec_round_trips_bitwise() {
        let mut output = WorkloadOutput::new();
        output.set("accuracy", 0.987654321);
        output.set("iterations", 42.0);
        output.set("nan_guard", f64::NAN);
        output.set("neg_zero", -0.0);
        let bytes = encode_output(&output);
        let decoded = decode_output(&bytes).expect("decodable");
        // PartialEq on f64 fails for NaN; compare re-encoded bytes,
        // which is exactly the wire-parity criterion.
        assert_eq!(encode_output(&decoded), bytes);
        assert_eq!(bytes, encode_output(&output));

        assert_eq!(encode_output(&WorkloadOutput::new()), vec![0, 0, 0, 0]);
        assert!(decode_output(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_output(&[1, 0, 0, 0]).is_err());
    }
}
