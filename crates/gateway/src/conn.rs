//! Per-connection protocol handling: a reader thread that decodes,
//! flow-controls, and submits, plus a responder thread that resolves
//! tickets and writes responses in submission order.
//!
//! The split buys pipelining: a client may write many request frames
//! back-to-back; the reader admits them into serve as fast as the
//! per-connection window allows while the responder streams answers
//! back. Responses are written in submission order (the responder
//! drains its channel FIFO), so a client can match responses to
//! requests positionally as well as by id.
//!
//! Failure discipline: **no panic crosses a connection-thread
//! boundary.** Every fallible step — decode, submit, ticket wait,
//! response write — is handled as a value; a protocol violation ends
//! the connection with a typed goodbye frame and a transport failure
//! ends it silently, but both paths run the same drain logic so window
//! accounting stays balanced.

use crate::metrics::GatewayMetrics;
use crate::server::{Shared, STATE_RUNNING};
use crate::wire::{self, Frame, Status, WireError};
use nsai_core::failpoint;
use nsai_core::metrics::WindowGauge;
use nsai_serve::{ServeError, Ticket};
use nsai_workloads::CaseInput;
use std::io::{BufReader, BufWriter};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A live connection: the original stream (kept for shutdown) and its
/// two service threads.
pub(crate) struct ConnHandle {
    stream: TcpStream,
    reader: JoinHandle<()>,
    responder: JoinHandle<()>,
}

impl ConnHandle {
    /// Both service threads have exited.
    pub(crate) fn is_finished(&self) -> bool {
        self.reader.is_finished() && self.responder.is_finished()
    }

    /// Shut down the underlying socket (affects both threads' clones).
    pub(crate) fn shutdown(&self, how: Shutdown) {
        let _ = self.stream.shutdown(how);
    }

    /// Join both threads, tolerating errors (a connection thread never
    /// panics by contract; a join error here would itself be the bug
    /// the loopback suite exists to catch).
    pub(crate) fn join(self) {
        let _ = self.reader.join();
        let _ = self.responder.join();
    }

    /// The accepted socket, for tests that read its options back.
    #[cfg(test)]
    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }
}

/// What the reader hands the responder, in submission order.
enum Item {
    /// An admitted request awaiting its serve response.
    Pending {
        id: u64,
        ticket: Ticket,
        received_at: Instant,
    },
    /// A request answered without touching serve (flow control,
    /// deadline expiry, admission rejection).
    Reject {
        id: u64,
        status: Status,
        message: String,
    },
    /// Terminal typed error; written after everything before it, then
    /// the connection closes.
    Goodbye { status: Status, message: String },
}

/// Spawn the reader/responder pair for one accepted connection.
///
/// # Errors
///
/// Propagates socket-option, stream-clone or thread-spawn failures; the
/// caller counts them as refused connections. A partially-spawned pair
/// is torn down before returning.
pub(crate) fn spawn(
    stream: TcpStream,
    shared: Arc<Shared>,
    conn_id: u64,
) -> std::io::Result<ConnHandle> {
    // Every response is one complete frame, written and flushed at once
    // (`wire::write_frame`). With Nagle's algorithm on, a response
    // written while the previous one is still unacknowledged waits for
    // the client's next request or its delayed-ACK timer.
    stream.set_nodelay(true)?;
    let (tx, rx) = mpsc::channel::<Item>();
    let window = Arc::new(WindowGauge::new());
    let read_half = stream.try_clone()?;
    let write_half = stream.try_clone()?;

    let reader = {
        let shared = Arc::clone(&shared);
        let window = Arc::clone(&window);
        std::thread::Builder::new()
            .name(format!("nsgw-read-{conn_id}"))
            .spawn(move || reader_loop(read_half, &shared, &window, &tx))?
    };
    let responder = {
        let shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name(format!("nsgw-write-{conn_id}"))
            .spawn(move || responder_loop(write_half, &shared, &window, &rx));
        match spawned {
            Ok(handle) => handle,
            Err(e) => {
                // The reader is already up; kill the socket so it exits,
                // then join it before surfacing the error.
                let _ = stream.shutdown(Shutdown::Both);
                let _ = reader.join();
                return Err(e);
            }
        }
    };
    shared.metrics.connections.raise(1);
    Ok(ConnHandle {
        stream,
        reader,
        responder,
    })
}

/// Decode frames and admit requests until the stream ends or a
/// protocol violation occurs. Returns by sending an optional goodbye
/// and dropping the channel sender, which lets the responder finish
/// everything already queued before closing.
fn reader_loop(stream: TcpStream, shared: &Shared, window: &WindowGauge, tx: &mpsc::Sender<Item>) {
    let _scope = shared.scope.enter();
    let metrics = &shared.metrics;
    let mut reader = BufReader::new(stream);

    let goodbye: Option<(Status, String)> = loop {
        let frame = match wire::read_frame(&mut reader) {
            Ok(frame) => frame,
            Err(WireError::Closed) => break None,
            Err(WireError::Disconnected(_)) => {
                metrics.conn_dropped.incr();
                break None;
            }
            Err(WireError::Malformed(msg)) => {
                metrics.decode_errors.incr();
                break Some((Status::BadFrame, msg));
            }
            Err(WireError::TooLarge(len)) => {
                metrics.decode_errors.incr();
                break Some((
                    Status::FrameTooLarge,
                    format!("payload {len} exceeds cap {}", wire::MAX_PAYLOAD),
                ));
            }
        };
        // Deadlines are measured from here; an armed `delay` on the
        // decode failpoint below therefore burns request budget, which
        // is how the deadline-expiry tests force the timing they need.
        let received_at = Instant::now();
        metrics.frames_in.incr();
        // Chaos site: `return_err` models a decode failure past header
        // validation (the typed-goodbye path); `delay` widens the
        // decode-to-submit window.
        if failpoint::fire("gateway::decode") {
            metrics.decode_errors.incr();
            break Some((
                Status::BadFrame,
                "failpoint gateway::decode: injected decode failure".to_string(),
            ));
        }
        let Frame::Request {
            id,
            workload,
            deadline_us,
            case,
        } = frame
        else {
            metrics.decode_errors.incr();
            break Some((
                Status::BadFrame,
                "clients may only send request frames".to_string(),
            ));
        };

        let item = if deadline_us > 0
            && received_at.elapsed() >= Duration::from_micros(u64::from(deadline_us))
        {
            metrics.expired.incr();
            Item::Reject {
                id,
                status: Status::DeadlineExceeded,
                message: format!("deadline of {deadline_us}us expired before submission"),
            }
        } else if window.level() >= shared.window_cap {
            metrics.window_rejected.incr();
            Item::Reject {
                id,
                status: Status::WindowExceeded,
                message: format!("in-flight window of {} is full", shared.window_cap),
            }
        } else if let Some(name) = shared.workloads.get(workload as usize) {
            match shared.server.submit(name, CaseInput::new(case)) {
                Ok(ticket) => {
                    window.raise(1);
                    metrics.in_flight.raise(1);
                    Item::Pending {
                        id,
                        ticket,
                        received_at,
                    }
                }
                Err(error) => Item::Reject {
                    id,
                    status: Status::from_reject(error.reject_code()),
                    message: error.to_string(),
                },
            }
        } else {
            Item::Reject {
                id,
                status: Status::UnknownWorkload,
                message: format!(
                    "workload id {workload} not registered ({} available)",
                    shared.workloads.len()
                ),
            }
        };
        if tx.send(item).is_err() {
            // Responder already gone (write failure); the window was
            // raised for a Pending that will never be drained there.
            break None;
        }
    };

    // A drain in progress turns a silent close into a typed one, so
    // clients can tell "server going away" from a network fault.
    let goodbye = goodbye.or_else(|| {
        (shared.state.load(Ordering::Acquire) != STATE_RUNNING)
            .then(|| (Status::ShuttingDown, "gateway is shutting down".to_string()))
    });
    if let Some((status, message)) = goodbye {
        let _ = tx.send(Item::Goodbye { status, message });
    }
}

/// Resolve and write responses in submission order until the reader
/// hangs up or a write fails. On a write failure the socket is shut
/// down (unblocking the reader) and the remaining queue is drained
/// without writing, so window accounting still balances.
fn responder_loop(
    stream: TcpStream,
    shared: &Shared,
    window: &WindowGauge,
    rx: &mpsc::Receiver<Item>,
) {
    let _scope = shared.scope.enter();
    let metrics = &shared.metrics;
    let mut writer = BufWriter::new(stream);
    let mut dead = false;

    for item in rx.iter() {
        if dead {
            discard(metrics, window, &item);
            continue;
        }
        match item {
            Item::Pending {
                id,
                ticket,
                received_at,
            } => {
                let response = ticket.wait();
                window.lower(1);
                metrics.in_flight.lower(1);
                let frame = match response {
                    Ok(output) => Frame::Response {
                        id,
                        status: Status::Ok,
                        payload: wire::encode_output(&output),
                    },
                    Err(error) => Frame::Response {
                        id,
                        status: Status::from_serve_error(&error),
                        payload: match error {
                            ServeError::Workload(msg) => msg.into_bytes(),
                            _ => Vec::new(),
                        },
                    },
                };
                if write_response(&mut writer, metrics, &frame) {
                    metrics
                        .wire_latency_us
                        .record(received_at.elapsed().as_micros() as u64);
                } else {
                    dead = true;
                }
            }
            Item::Reject {
                id,
                status,
                message,
            } => {
                let frame = Frame::Response {
                    id,
                    status,
                    payload: message.into_bytes(),
                };
                dead = !write_response(&mut writer, metrics, &frame);
            }
            Item::Goodbye { status, message } => {
                let _ = write_response(&mut writer, metrics, &Frame::Goodbye { status, message });
                dead = true;
            }
        }
    }
    let _ = writer.get_ref().shutdown(Shutdown::Both);
    metrics.connections.lower(1);
}

/// Balance the books for an item that will never be written.
fn discard(metrics: &GatewayMetrics, window: &WindowGauge, item: &Item) {
    if let Item::Pending { .. } = item {
        // The serve-side request still runs to completion; its response
        // is simply undeliverable. (Dropping the ticket is safe — serve
        // discards responses nobody waits for.)
        window.lower(1);
        metrics.in_flight.lower(1);
        metrics.conn_dropped.incr();
    }
}

/// Write one frame, firing the `gateway::write_response` chaos site
/// first. Returns `false` when the connection is dead (injected or real
/// write failure); the socket is already shut down in that case so the
/// reader unblocks too.
fn write_response(
    writer: &mut BufWriter<TcpStream>,
    metrics: &GatewayMetrics,
    frame: &Frame,
) -> bool {
    // Chaos site: `return_err` models a failed/partial response write —
    // the connection is torn down exactly as for a real transport error.
    let injected = failpoint::fire("gateway::write_response");
    if !injected && wire::write_frame(writer, frame).is_ok() {
        metrics.frames_out.incr();
        return true;
    }
    metrics.write_errors.incr();
    let _ = writer.get_ref().shutdown(Shutdown::Both);
    false
}
