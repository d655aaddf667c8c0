//! Seeded load generators.
//!
//! - **Open-loop schedule** ([`poisson_schedule`]): Poisson arrival
//!   offsets at a fixed offered rate, drawn from one seeded [`StdRng`],
//!   so an offered trace is reproducible (nsbench's open-loop mixes
//!   pace their sends by it).
//! - **Closed loop** ([`closed_loop`]): N clients, each submitting its
//!   next request only after the previous one completes (blocking on a
//!   full queue rather than shedding). Every request completes, with
//!   deterministic case ids — the discipline used by the determinism
//!   regression tests and the perf suite's serve sample.

use crate::request::{Response, ServeError};
use crate::server::Server;
use nsai_workloads::CaseInput;
use rand::{Rng, SeedableRng, StdRng};
use std::time::Duration;

/// A Poisson arrival schedule: arrival offsets from the start of a
/// run, strictly increasing, all below `duration`. Inter-arrival gaps are exponential draws from one seeded
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
