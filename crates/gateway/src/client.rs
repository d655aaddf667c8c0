//! A blocking `nsgp/1` client over a [`TcpStream`].
//!
//! Two usage levels, in increasing rawness:
//!
//! - [`GatewayClient::call_raw`] (and [`GatewayClient::pipeline`])
//!   return the undecoded `(status, payload bytes)` pair, the unit of
//!   the bitwise-parity checks. On [`Status::Ok`] the payload decodes
//!   with [`wire::decode_output`].
//! - [`GatewayClient::send_bytes`] writes arbitrary bytes, for
//!   protocol tests that need to speak *wrong* `nsgp/1` on purpose.

use crate::wire::{self, Frame, Status, WireError};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// What one gateway round trip produced: the wire status plus the raw,
/// undecoded response payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawResponse {
    /// The request id the response carried (0 for goodbye frames).
    pub id: u64,
    /// Wire outcome.
    pub status: Status,
    /// Raw payload bytes: [`wire::encode_output`] bytes on `Ok`, a
    /// UTF-8 message otherwise.
    pub payload: Vec<u8>,
    /// `true` when the frame was a goodbye — the connection is dead.
    pub terminal: bool,
}

/// A blocking client for one gateway connection.
#[derive(Debug)]
pub struct GatewayClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    workload: u32,
    deadline_us: u32,
    next_id: u64,
}

impl GatewayClient {
    /// Connect to a gateway and address requests to wire workload id
    /// `workload`. The socket sets `TCP_NODELAY`, so a pipelined burst
    /// of [`GatewayClient::send_request`] frames does not wait behind
    /// Nagle's algorithm for the gateway's ACKs.
    ///
    /// # Errors
    ///
    /// Propagates connection, socket-option and stream-clone failures.
    pub fn connect(addr: SocketAddr, workload: u32) -> std::io::Result<GatewayClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(GatewayClient {
            reader,
            writer: BufWriter::new(stream),
            workload,
            deadline_us: 0,
            next_id: 0,
        })
    }

    /// Attach a relative per-request deadline (µs, measured from
    /// gateway-side decode) to every subsequent request. `0` clears it.
    pub fn with_deadline_us(mut self, deadline_us: u32) -> GatewayClient {
        self.deadline_us = deadline_us;
        self
    }

    /// Guard reads with a timeout so a protocol-test bug hangs for
    /// `timeout` instead of forever. `None` restores blocking reads.
    ///
    /// # Errors
    ///
    /// Propagates the underlying `set_read_timeout` failure.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Write one request frame (without waiting for its response) and
    /// return the id it carried. Pipelining is just calling this N
    /// times before reading N responses.
    ///
    /// # Errors
    ///
    /// Transport failures as [`WireError::Disconnected`].
    pub fn send_request(&mut self, case: u64) -> Result<u64, WireError> {
        self.next_id += 1;
        let id = self.next_id;
        wire::write_frame(
            &mut self.writer,
            &Frame::Request {
                id,
                workload: self.workload,
                deadline_us: self.deadline_us,
                case,
            },
        )?;
        Ok(id)
    }

    /// Write raw bytes on the connection — deliberately malformed
    /// frames for the protocol tests.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write failure.
    pub fn send_bytes(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Read the next server frame (response or goodbye).
    ///
    /// # Errors
    ///
    /// [`WireError`] on transport failure, or a malformed server frame
    /// (which would be a gateway bug).
    pub fn read_response(&mut self) -> Result<RawResponse, WireError> {
        match wire::read_frame(&mut self.reader)? {
            Frame::Response {
                id,
                status,
                payload,
            } => Ok(RawResponse {
                id,
                status,
                payload,
                terminal: false,
            }),
            Frame::Goodbye { status, message } => Ok(RawResponse {
                id: 0,
                status,
                payload: message.into_bytes(),
                terminal: true,
            }),
            Frame::Request { .. } => Err(WireError::Malformed(
                "server sent a request frame".to_string(),
            )),
        }
    }

    /// One full round trip: send `case`, read one frame.
    ///
    /// # Errors
    ///
    /// See [`GatewayClient::send_request`] / [`GatewayClient::read_response`].
    pub fn call_raw(&mut self, case: u64) -> Result<RawResponse, WireError> {
        self.send_request(case)?;
        self.read_response()
    }

    /// Pipelined sweep: write every case back-to-back, then read one
    /// frame per case (stopping early at a goodbye). Returns responses
    /// in arrival order — which the gateway guarantees is submission
    /// order.
    ///
    /// # Errors
    ///
    /// Transport failures; short output (fewer responses than cases)
    /// is *not* an error — it is what a mid-sweep goodbye looks like.
    pub fn pipeline(&mut self, cases: &[u64]) -> Result<Vec<RawResponse>, WireError> {
        for case in cases {
            self.send_request(*case)?;
        }
        let mut responses = Vec::with_capacity(cases.len());
        for _ in cases {
            let response = self.read_response()?;
            let terminal = response.terminal;
            responses.push(response);
            if terminal {
                break;
            }
        }
        Ok(responses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Ipv4Addr, TcpListener};

    #[test]
    fn connect_sets_nodelay() {
        // The kernel completes the handshake from the listen backlog, so
        // no gateway is needed to read the client's socket options.
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
        let client = GatewayClient::connect(listener.local_addr().expect("addr"), 0)
            .expect("client connects");
        assert!(client.writer.get_ref().nodelay().expect("read TCP_NODELAY"));
    }
}
