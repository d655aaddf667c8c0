//! Seeded load generators for latency–throughput sweeps.
//!
//! Two standard arrival disciplines:
//!
//! - **Open loop** ([`open_loop_poisson`]): Poisson arrivals at a fixed
//!   offered rate, submitted regardless of how the server keeps up —
//!   the discipline that exposes overload behaviour (queue growth,
//!   rejects, tail latency). Inter-arrival times are drawn from one
//!   seeded [`StdRng`], so the offered trace is reproducible.
//! - **Closed loop** ([`closed_loop`]): N clients, each submitting its
//!   next request only after the previous one completes (blocking on a
//!   full queue rather than shedding). Every request completes, with
//!   deterministic case ids — the discipline used by the determinism
//!   regression tests.

use crate::request::{Response, ServeError, Ticket};
use crate::server::{Server, SubmitError};
use nsai_workloads::CaseInput;
use rand::{Rng, SeedableRng, StdRng};
use std::time::{Duration, Instant};

/// What one open-loop run offered and what came back.
#[derive(Debug)]
pub struct OpenLoopRun {
    /// Requests the generator attempted to submit.
    pub offered: usize,
    /// Requests rejected at admission (queue full).
    pub rejected: usize,
    /// Requests refused because the server was shutting down.
    pub refused: usize,
    /// Responses of every admitted request, in submission order.
    pub responses: Vec<Response>,
    /// Wall-clock span from first submission attempt to last response.
    pub elapsed: Duration,
}

impl OpenLoopRun {
    /// Completed requests whose workload result was `Ok`.
    pub fn ok_count(&self) -> usize {
        self.responses.iter().filter(|r| r.is_ok()).count()
    }

    /// Goodput in completed-ok requests per second.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.ok_count() as f64 / secs
        }
    }
}

/// The Poisson arrival schedule `open_loop_poisson` offers: arrival
/// offsets from the start of the run, strictly increasing, all below
/// `duration`. Inter-arrival gaps are exponential draws from one seeded
/// [`StdRng`], so the schedule is a pure function of
/// `(rate_hz, duration, seed)` — identical across runs, machines, and
/// thread counts. The determinism regression suite asserts exactly that.
///
/// # Panics
///
/// When `rate_hz` is not positive.
pub fn poisson_schedule(rate_hz: f64, duration: Duration, seed: u64) -> Vec<Duration> {
    assert!(rate_hz > 0.0, "offered rate must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut arrivals = Vec::new();
    let mut next_arrival = Duration::ZERO;
    while next_arrival < duration {
        arrivals.push(next_arrival);
        let u: f64 = rng.gen();
        next_arrival += Duration::from_secs_f64(-(1.0 - u).ln() / rate_hz);
    }
    arrivals
}

/// Offer `workload` requests at `rate_hz` (Poisson arrivals, the
/// [`poisson_schedule`] trace) for `duration`, then wait for every
/// admitted request. Case ids are the arrival indices, so a given seed
/// and rate offer the same episode sequence every run; which of them are
/// admitted depends on server timing (that is the point of an open
/// loop).
pub fn open_loop_poisson(
    server: &Server,
    workload: &str,
    rate_hz: f64,
    duration: Duration,
    seed: u64,
) -> OpenLoopRun {
    let schedule = poisson_schedule(rate_hz, duration, seed);
    let started = Instant::now();
    let mut rejected = 0usize;
    let mut refused = 0usize;
    let mut tickets: Vec<Ticket> = Vec::new();

    for (index, arrival) in schedule.iter().enumerate() {
        let target = started + *arrival;
        let now = Instant::now();
        if target > now {
            std::thread::sleep(target - now);
        }
        match server.submit(workload, CaseInput::new(index as u64)) {
            Ok(ticket) => tickets.push(ticket),
            Err(SubmitError::QueueFull) => rejected += 1,
            Err(_) => refused += 1,
        }
    }

    let responses: Vec<Response> = tickets.iter().map(Ticket::wait).collect();
    OpenLoopRun {
        offered: schedule.len(),
        rejected,
        refused,
        responses,
        elapsed: started.elapsed(),
    }
}

/// One completed closed-loop request.
#[derive(Debug)]
pub struct ClosedLoopRecord {
    /// Which client issued it.
    pub client: usize,
    /// The case id it carried.
    pub case: u64,
    /// What came back.
    pub response: Response,
}

/// Run `clients` concurrent closed-loop clients, each submitting
/// `per_client` sequential requests directly to `server` with
/// [`Server::submit_blocking`] (blocking while the queue is full, so
/// nothing is shed). Client `c`'s `i`-th request carries case id
/// `case_base + (c * per_client + i)` — fully determined by the
/// arguments, independent of scheduling — and the returned records are
/// sorted by case id. With deterministic workloads this makes the
/// entire result set reproducible across worker counts.
pub fn closed_loop(
    server: &Server,
    workload: &str,
    clients: usize,
    per_client: usize,
    case_base: u64,
) -> Vec<ClosedLoopRecord> {
    let mut records: Vec<ClosedLoopRecord> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let mut mine = Vec::with_capacity(per_client);
                    for i in 0..per_client {
                        let case = case_base + (client * per_client + i) as u64;
                        // Only a zero-capacity queue or a shutdown refuses
                        // a blocking submit; both surface as an abort.
                        let response = server
                            .submit_blocking(workload, CaseInput::new(case))
                            .map_or(Err(ServeError::Aborted), |ticket| ticket.wait());
                        mine.push(ClosedLoopRecord {
                            client,
                            case,
                            response,
                        });
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    records.sort_by_key(|r| r.case);
    records
}
