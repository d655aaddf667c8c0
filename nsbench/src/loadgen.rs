//! The load generator: client connections, frame reassembly, and the open
//! and closed loops.
//!
//! At most two threads generate load. In an open loop the calling thread
//! sleeps until each request is due and writes its frame, and one receiver
//! thread waits on every connection with `poll(2)` and reassembles the
//! responses. A closed loop (and the warm-up) uses the same receiver code on
//! the calling thread. Sockets never get read timeouts: a timed-out read
//! makes the sender run late, which an open loop would then charge to the
//! program.

use crate::plan::Request;
use crate::spec::{Class, Spec};
use nsai_gateway::wire::{self, Frame, Status, WireError, HEADER_LEN, MAX_PAYLOAD};
use nsai_gateway::Gateway;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_short, c_ulong};
use std::time::{Duration, Instant};

/// Longest the load generator waits for any response before declaring
/// the program stalled.
const STALL_LIMIT: Duration = Duration::from_secs(30);
/// One `poll(2)` wait; bounds how late a stall is noticed.
const POLL_SLICE: Duration = Duration::from_millis(100);

/// The benchmark's clock.
pub fn now() -> Instant {
    // nsai-lint: allow(determinism): the benchmark measures wall-clock latency; no clock reading feeds back into what the program computes.
    Instant::now()
}

/// Reassembles `nsgp/1` frames from a byte stream read in arbitrary
/// pieces, using the 28-byte header's payload length, and decodes each
/// complete frame with [`wire::read_frame`].
#[derive(Debug, Default)]
pub struct FrameBuffer {
    bytes: Vec<u8>,
}

impl FrameBuffer {
    /// Append bytes read off the socket.
    pub fn extend(&mut self, chunk: &[u8]) {
        self.bytes.extend_from_slice(chunk);
    }

    /// The next complete frame, or `None` until more bytes arrive.
    ///
    /// # Errors
    ///
    /// The decoder's error for a malformed or oversized frame.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        let Some(len) = self.bytes.get(24..HEADER_LEN) else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(len.try_into().expect("4-byte slice"));
        if len > MAX_PAYLOAD {
            return Err(WireError::TooLarge(len));
        }
        let end = HEADER_LEN + len as usize;
        if self.bytes.len() < end {
            return Ok(None);
        }
        let frame = wire::read_frame(&mut &self.bytes[..end])?;
        self.bytes.drain(..end);
        Ok(Some(frame))
    }

    /// Bytes buffered but not yet part of a complete frame.
    pub fn pending(&self) -> usize {
        self.bytes.len()
    }
}

/// One response as read off a connection.
#[derive(Debug, Clone)]
struct Reply {
    /// Connection it arrived on.
    conn: usize,
    /// Request id it answers.
    id: u64,
    status: Status,
    /// Raw payload bytes.
    payload: Vec<u8>,
    /// When the bytes completing it were read, from the phase start.
    at: Duration,
}

/// One request and what came back for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// The request as planned.
    pub request: Request,
    /// When its frame was written, from the phase start.
    pub sent: Duration,
    /// When its response was read, from the phase start.
    pub received: Duration,
    /// Wire status of the response.
    pub status: Status,
    /// Raw response payload.
    pub payload: Vec<u8>,
}

impl Outcome {
    /// Client latency, from when the request was due.
    pub fn latency(&self) -> Duration {
        self.received.saturating_sub(self.request.due)
    }

    /// Whether the request succeeded.
    pub fn ok(&self) -> bool {
        self.status == Status::Ok
    }
}

/// The client side of a workload's connections.
#[derive(Debug)]
pub struct Connections {
    streams: Vec<TcpStream>,
    wire_ids: Vec<(Class, u32)>,
}

impl Connections {
    /// Open `spec`'s connections to `gateway`, with `TCP_NODELAY` set so
    /// client-side Nagle delay is not charged to the program.
    ///
    /// # Errors
    ///
    /// Connection failures, or a class the gateway does not serve.
    pub fn open(gateway: &Gateway, spec: &Spec) -> io::Result<Connections> {
        let streams = (0..spec.connections())
            .map(|_| {
                let stream = TcpStream::connect(gateway.local_addr())?;
                stream.set_nodelay(true)?;
                Ok(stream)
            })
            .collect::<io::Result<Vec<_>>>()?;
        let wire_ids = spec
            .classes()
            .map(|class| {
                gateway
                    .workload_id(class.name())
                    .map(|id| (class, id))
                    .ok_or_else(|| io::Error::other(format!("{} is not served", class.name())))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Connections { streams, wire_ids })
    }

    /// Write `request`'s frame on its connection.
    fn send(&self, request: &Request) -> io::Result<()> {
        let workload = self
            .wire_ids
            .iter()
            .find(|(class, _)| *class == request.class)
            .map(|(_, id)| *id)
            .expect("requests are drawn from the served classes");
        let frame = wire::encode_frame(&Frame::Request {
            id: request.id,
            workload,
            deadline_us: 0,
            case: request.case,
        })
        .map_err(io::Error::other)?;
        (&self.streams[request.conn]).write_all(&frame)
    }

    /// Cut every connection, waking a receiver blocked on them.
    fn shutdown(&self) {
        for stream in &self.streams {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x001;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Wait up to `timeout` until some of `streams` are readable (or hung up);
/// one flag per stream.
fn wait_readable(streams: &[TcpStream], timeout: Duration) -> io::Result<Vec<bool>> {
    let mut fds: Vec<PollFd> = streams
        .iter()
        .map(|stream| PollFd {
            fd: stream.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let timeout_ms = c_int::try_from(timeout.as_millis()).unwrap_or(c_int::MAX);
    // SAFETY: `fds` is an exclusively borrowed, initialized array of
    // `fds.len()` records with the C `struct pollfd` layout (`repr(C)`:
    // int, short, short), alive for the whole call. Each descriptor belongs
    // to a `TcpStream` in `streams`, which is borrowed for the call, so no
    // descriptor is closed or reused while poll(2) reads it.
    let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
    if ready < 0 {
        let error = io::Error::last_os_error();
        if error.kind() == io::ErrorKind::Interrupted {
            return Ok(vec![false; streams.len()]);
        }
        return Err(error);
    }
    Ok(fds.iter().map(|fd| fd.revents != 0).collect())
}

/// Reads responses off every connection of one phase.
struct Receiver<'a> {
    streams: &'a [TcpStream],
    buffers: Vec<FrameBuffer>,
    chunk: Vec<u8>,
    start: Instant,
}

impl<'a> Receiver<'a> {
    fn new(conns: &'a Connections, start: Instant) -> Self {
        Receiver {
            streams: &conns.streams,
            buffers: conns
                .streams
                .iter()
                .map(|_| FrameBuffer::default())
                .collect(),
            chunk: vec![0; 64 * 1024],
            start,
        }
    }

    /// Wait up to `timeout` for bytes and append every response they
    /// complete to `out`.
    fn poll_once(&mut self, timeout: Duration, out: &mut Vec<Reply>) -> io::Result<()> {
        let ready = wait_readable(self.streams, timeout)?;
        for conn in (0..self.streams.len()).filter(|&conn| ready[conn]) {
            let n = match (&self.streams[conn]).read(&mut self.chunk) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("gateway closed connection {conn}"),
                ));
            }
            let at = self.start.elapsed();
            self.buffers[conn].extend(&self.chunk[..n]);
            while let Some(frame) = self.buffers[conn].next_frame().map_err(io::Error::other)? {
                match frame {
                    Frame::Response {
                        id,
                        status,
                        payload,
                    } => out.push(Reply {
                        conn,
                        id,
                        status,
                        payload,
                        at,
                    }),
                    Frame::Goodbye { status, message } => {
                        return Err(io::Error::other(format!(
                            "gateway ended connection {conn}: {status}: {message}"
                        )))
                    }
                    Frame::Request { .. } => {
                        return Err(io::Error::other("gateway sent a request frame"))
                    }
                }
            }
        }
        Ok(())
    }

    /// Block until `expected` more responses have arrived.
    fn collect(&mut self, expected: usize, out: &mut Vec<Reply>) -> io::Result<()> {
        let target = out.len() + expected;
        let mut last_progress = self.start.elapsed();
        while out.len() < target {
            let before = out.len();
            self.poll_once(POLL_SLICE, out)?;
            let elapsed = self.start.elapsed();
            if out.len() > before {
                last_progress = elapsed;
            } else if elapsed - last_progress > STALL_LIMIT {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "no response for {STALL_LIMIT:?} with {} outstanding",
                        target - out.len()
                    ),
                ));
            }
        }
        Ok(())
    }
}

/// Pair each request with its reply by id. Request ids are 1-based
/// positions in `requests`, as every plan numbers them.
fn pair(requests: Vec<(Request, Duration)>, replies: Vec<Reply>) -> io::Result<Vec<Outcome>> {
    let mut slots: Vec<Option<Reply>> = vec![None; requests.len()];
    for reply in replies {
        let slot = usize::try_from(reply.id)
            .ok()
            .and_then(|id| id.checked_sub(1))
            .and_then(|index| slots.get_mut(index))
            .ok_or_else(|| io::Error::other(format!("response for unknown id {}", reply.id)))?;
        if slot.replace(reply).is_some() {
            return Err(io::Error::other("two responses for one request"));
        }
    }
    requests
        .into_iter()
        .zip(slots)
        .map(|((request, sent), reply)| {
            let reply = reply.ok_or_else(|| io::Error::other("request without a response"))?;
            if reply.conn != request.conn {
                return Err(io::Error::other(format!(
                    "response to request {} arrived on connection {} instead of {}",
                    request.id, reply.conn, request.conn
                )));
            }
            Ok(Outcome {
                request,
                sent,
                received: reply.at,
                status: reply.status,
                payload: reply.payload,
            })
        })
        .collect()
}

/// Send `plan` open loop: each request when it is due, regardless of
/// responses. `on_sent` is called with the count sent after each send.
/// Returns the outcomes in plan order.
///
/// # Errors
///
/// Transport or protocol failures, or a stalled program.
pub fn open_loop(
    conns: &Connections,
    plan: &[Request],
    on_sent: &dyn Fn(usize),
) -> io::Result<Vec<Outcome>> {
    let start = now();
    // nsai-lint: allow(pool-only-parallelism): the load generator's one receiver thread blocks in poll(2) on client sockets, which no tensor-pool worker may do.
    let (sent, replies) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            let mut replies = Vec::with_capacity(plan.len());
            Receiver::new(conns, start)
                .collect(plan.len(), &mut replies)
                .map(|()| replies)
        });
        let sent = send_on_schedule(conns, plan, start, on_sent);
        if sent.is_err() {
            conns.shutdown();
        }
        let replies = receiver.join().expect("receiver thread panicked");
        (sent, replies)
    });
    let sent = sent?;
    pair(plan.iter().copied().zip(sent).collect(), replies?)
}

fn send_on_schedule(
    conns: &Connections,
    plan: &[Request],
    start: Instant,
    on_sent: &dyn Fn(usize),
) -> io::Result<Vec<Duration>> {
    let mut sent = Vec::with_capacity(plan.len());
    for request in plan {
        let lag = start.elapsed();
        if request.due > lag {
            std::thread::sleep(request.due - lag);
        }
        sent.push(start.elapsed());
        conns.send(request)?;
        on_sent(sent.len());
    }
    Ok(sent)
}

/// Send `requests` one at a time, each after the previous response.
///
/// # Errors
///
/// Transport or protocol failures, or a stalled program.
pub fn call_each(conns: &Connections, requests: &[Request]) -> io::Result<Vec<Outcome>> {
    let start = now();
    let mut receiver = Receiver::new(conns, start);
    let mut sent = Vec::with_capacity(requests.len());
    let mut replies = Vec::with_capacity(requests.len());
    for request in requests {
        sent.push((*request, start.elapsed()));
        conns.send(request)?;
        receiver.collect(1, &mut replies)?;
    }
    pair(sent, replies)
}

/// One closed-loop client: send `spec`'s requests one at a time, each
/// due when the previous response arrives, until `window` has passed.
/// `on_sent` is called with the count sent after each send.
///
/// # Errors
///
/// Transport or protocol failures, or a stalled program.
pub fn closed_loop(
    conns: &Connections,
    spec: &Spec,
    seed: u64,
    window: Duration,
    on_sent: &dyn Fn(usize),
) -> io::Result<Vec<Outcome>> {
    let start = now();
    let mut receiver = Receiver::new(conns, start);
    let mut sent = Vec::new();
    let mut replies = Vec::new();
    while start.elapsed() < window {
        let due = start.elapsed();
        let request = spec.request(seed, sent.len(), due);
        sent.push((request, due));
        conns.send(&request)?;
        on_sent(sent.len());
        receiver.collect(1, &mut replies)?;
    }
    pair(sent, replies)
}
