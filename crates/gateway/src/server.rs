//! The gateway itself: a TCP accept loop in front of an owned
//! [`nsai_serve::Server`], plus coordinated two-layer shutdown.

use crate::conn::{self, ConnHandle};
use crate::metrics::{GatewayMetrics, GatewaySnapshot};
use crate::wire::{self, Frame, Status};
use nsai_core::failpoint;
use nsai_core::profile::Scope;
use nsai_serve::{Server, ShutdownMode};
use std::fmt;
use std::net::{Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Normal operation: accepting connections and admitting requests.
pub(crate) const STATE_RUNNING: u8 = 0;
/// Drain in progress: no new connections; in-flight work flushes.
pub(crate) const STATE_DRAINING: u8 = 1;
/// Abort in progress: everything tears down immediately.
pub(crate) const STATE_ABORTING: u8 = 2;

/// Gateway knobs. Copyable builder in the [`nsai_serve::ServeConfig`]
/// style:
///
/// ```
/// use nsai_gateway::GatewayConfig;
/// let config = GatewayConfig::default().window(8);
/// assert_eq!(config.window, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatewayConfig {
    /// Per-connection in-flight window: the number of admitted,
    /// unanswered requests one connection may have outstanding. Frames
    /// beyond it are answered `window_exceeded` without touching the
    /// serve queue — wire-level flow control that keeps one pipelining
    /// client from monopolizing admission.
    pub window: u32,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig { window: 32 }
    }
}

impl GatewayConfig {
    /// Set the per-connection in-flight window (min 1).
    pub fn window(mut self, window: u32) -> Self {
        self.window = window.max(1);
        self
    }
}

/// State shared by the accept loop and every connection thread.
pub(crate) struct Shared {
    /// The owned serving runtime requests are submitted to.
    pub(crate) server: Server,
    /// Registered workload names; the wire's `workload` id indexes this.
    pub(crate) workloads: Vec<String>,
    /// Gateway-level metrics.
    pub(crate) metrics: GatewayMetrics,
    /// Per-connection in-flight cap.
    pub(crate) window_cap: u32,
    /// One of the `STATE_*` constants.
    pub(crate) state: AtomicU8,
    /// Profiling context captured at [`Gateway::start`]; connection
    /// threads enter it so requests arriving over the wire trace into
    /// the same profiler as the thread that started the gateway.
    pub(crate) scope: Scope,
    /// Live connections, reaped lazily on accept and fully at shutdown.
    pub(crate) conns: parking_lot::Mutex<Vec<ConnHandle>>,
}

/// A TCP front-end over an owned [`Server`], speaking
/// [`nsgp/1`](crate::wire).
///
/// The gateway takes the serve runtime *by value*: shutdown is a
/// two-layer protocol (socket layer first, then serve) that only
/// composes safely when one owner sequences it. Use
/// [`Gateway::server`] for read access (metrics, workload names).
pub struct Gateway {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: parking_lot::Mutex<Option<JoinHandle<()>>>,
}

impl fmt::Debug for Gateway {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gateway")
            .field("local_addr", &self.local_addr)
            .field("window", &self.shared.window_cap)
            .field("state", &self.shared.state.load(Ordering::Acquire))
            .finish()
    }
}

impl Gateway {
    /// Bind a loopback listener on an ephemeral port and start
    /// accepting. The serve runtime must already be started; its
    /// registered workload names become the wire protocol's workload
    /// ids, in registration order.
    ///
    /// # Errors
    ///
    /// Propagates listener-bind and acceptor-spawn failures.
    pub fn start(server: Server, config: GatewayConfig) -> std::io::Result<Gateway> {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
        let local_addr = listener.local_addr()?;
        let workloads = server.workloads().into_iter().map(str::to_string).collect();
        let shared = Arc::new(Shared {
            server,
            workloads,
            metrics: GatewayMetrics::new(),
            window_cap: config.window.max(1),
            state: AtomicU8::new(STATE_RUNNING),
            scope: Scope::capture(),
            conns: parking_lot::Mutex::new(Vec::new()).with_label("gateway::server::conns"),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("nsgw-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        Ok(Gateway {
            shared,
            local_addr,
            acceptor: parking_lot::Mutex::new(Some(acceptor))
                .with_label("gateway::server::acceptor"),
        })
    }

    /// The bound address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Read access to the fronted serve runtime.
    pub fn server(&self) -> &Server {
        &self.shared.server
    }

    /// Live gateway metrics.
    pub fn metrics(&self) -> &GatewayMetrics {
        &self.shared.metrics
    }

    /// Frozen gateway metrics.
    pub fn metrics_snapshot(&self) -> GatewaySnapshot {
        self.shared.metrics.snapshot()
    }

    /// Workload names in wire-id order.
    pub fn workloads(&self) -> &[String] {
        &self.shared.workloads
    }

    /// Resolve a workload name to its wire id.
    pub fn workload_id(&self, name: &str) -> Option<u32> {
        self.shared
            .workloads
            .iter()
            .position(|w| w == name)
            .map(|i| i as u32)
    }

    /// Shut down the gateway and the serve runtime behind it.
    /// Idempotent; the second call is a no-op.
    ///
    /// - [`ShutdownMode::Drain`]: stop accepting, let every connection
    ///   flush its in-flight responses (serve keeps running until they
    ///   have), send each client a typed `shutting_down` goodbye, then
    ///   drain serve itself.
    /// - [`ShutdownMode::Abort`]: stop accepting, abort serve first
    ///   (resolving queued tickets as `aborted`), then cut every
    ///   connection immediately.
    pub fn shutdown(&self, mode: ShutdownMode) {
        let target = match mode {
            ShutdownMode::Drain => STATE_DRAINING,
            ShutdownMode::Abort => STATE_ABORTING,
        };
        if self
            .shared
            .state
            .compare_exchange(STATE_RUNNING, target, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return;
        }
        // Unblock the accept loop: it pops this throwaway connection,
        // observes the state change, and exits. A bind-then-connect on
        // loopback cannot block meaningfully; failure just means the
        // listener is already gone.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(acceptor) = self.acceptor.lock().take() {
            let _ = acceptor.join();
        }

        if mode == ShutdownMode::Abort {
            // Abort serve before touching connections so every pending
            // ticket resolves (as `aborted`) instead of blocking a
            // responder mid-drain.
            self.shared.server.shutdown(ShutdownMode::Abort);
        }
        let conns: Vec<ConnHandle> = std::mem::take(&mut *self.shared.conns.lock());
        for handle in &conns {
            handle.shutdown(match mode {
                // Half-close: readers see EOF and send the goodbye;
                // responders keep the write side to flush in-flight.
                ShutdownMode::Drain => Shutdown::Read,
                ShutdownMode::Abort => Shutdown::Both,
            });
        }
        for handle in conns {
            handle.join();
        }
        if mode == ShutdownMode::Drain {
            self.shared.server.shutdown(ShutdownMode::Drain);
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.shutdown(ShutdownMode::Abort);
    }
}

/// Accept connections until a shutdown poke. Runs on its own thread;
/// exits only via the state flag, never by panicking.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let _scope = shared.scope.enter();
    let mut next_conn_id = 0u64;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) => {
                if shared.state.load(Ordering::Acquire) != STATE_RUNNING {
                    return;
                }
                continue;
            }
        };
        if shared.state.load(Ordering::Acquire) != STATE_RUNNING {
            // The shutdown poke (or an unlucky late client, equivalent
            // from here): during a drain a typed goodbye beats a silent
            // reset — a client whose connect raced the drain gets the
            // same answer as an established idle one. The poke never
            // reads it, which is fine. Aborts still cut silently.
            if shared.state.load(Ordering::Acquire) == STATE_DRAINING {
                let mut stream = &stream;
                let _ = wire::write_frame(
                    &mut stream,
                    &Frame::Goodbye {
                        status: Status::ShuttingDown,
                        message: "gateway is shutting down".to_string(),
                    },
                );
            }
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        // Chaos site: `return_err` refuses the connection post-accept —
        // clients see an immediate close, the refused counter moves.
        if failpoint::fire("gateway::accept") {
            shared.metrics.refused.incr();
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        shared.metrics.accepted.incr();
        // Chaos site: `return_err` models the OS refusing the handler
        // threads — same client-visible outcome as a real spawn failure.
        let injected_spawn_failure = failpoint::fire("gateway::conn_spawn");
        let spawned = if injected_spawn_failure {
            Err(std::io::Error::new(
                std::io::ErrorKind::WouldBlock,
                "failpoint gateway::conn_spawn: injected spawn failure",
            ))
        } else {
            next_conn_id += 1;
            conn::spawn(stream, Arc::clone(shared), next_conn_id)
        };
        match spawned {
            Ok(handle) => {
                let mut conns = shared.conns.lock();
                // Lazy reap: drop handles whose threads already exited
                // (joining a finished thread is a no-op, and dropping a
                // JoinHandle merely detaches an already-dead thread).
                conns.retain(|c| !c.is_finished());
                conns.push(handle);
            }
            Err(_) => {
                shared.metrics.refused.incr();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GatewayClient;
    use nsai_serve::chaos::ChaosWorkload;
    use nsai_serve::ServeConfig;
    use std::time::{Duration, Instant};

    #[test]
    fn accepted_connections_set_nodelay() {
        let server = Server::builder(ServeConfig::default().workers(1))
            .register("chaos", || Box::new(ChaosWorkload))
            .start()
            .expect("serve starts");
        let gateway = Gateway::start(server, GatewayConfig::default()).expect("gateway starts");
        let _client = GatewayClient::connect(gateway.local_addr(), 0).expect("client connects");

        // The acceptor registers a connection right after spawning its
        // threads; wait for that rather than racing it.
        let deadline = Instant::now() + Duration::from_secs(10);
        let nodelay = loop {
            if let Some(handle) = gateway.shared.conns.lock().first() {
                break handle.stream().nodelay().expect("read TCP_NODELAY");
            }
            assert!(Instant::now() < deadline, "connection never registered");
            std::thread::sleep(Duration::from_millis(1));
        };
        assert!(
            nodelay,
            "the gateway's end of the connection must set TCP_NODELAY"
        );
        gateway.shutdown(ShutdownMode::Drain);
    }
}
