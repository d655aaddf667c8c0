//! The seeded request plan. Everything the program receives — when each
//! request is due, its class, its case id and its connection — is a pure
//! function of `(workload, seed, window)`.

use crate::spec::{Arrivals, Class, Spec, WARMUP_PER_CLASS};
use nsai_serve::loadgen::poisson_schedule;
use std::time::Duration;

/// One request the load generator sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Wire request id, unique within one phase (warm-up or window).
    pub id: u64,
    /// When the request is due, from the start of its phase. In a closed
    /// loop this is filled in when the request is sent.
    pub due: Duration,
    /// Request class.
    pub class: Class,
    /// Case id sent in the frame.
    pub case: u64,
    /// Index of the connection it is sent on.
    pub conn: usize,
}

/// Independent random streams drawn from one seed.
const CLASS_STREAM: u64 = 0x636c_6173_7300_0001;
const CASE_STREAM: u64 = 0x6361_7365_0000_0002;
const WARMUP_STREAM: u64 = 0x7761_726d_0000_0003;
const REPLAY_STREAM: u64 = 0x7265_706c_0000_0004;

/// SplitMix64 finalizer: a bijective mix with full avalanche.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `index`-th draw of `stream` under `seed`.
fn draw(seed: u64, stream: u64, index: u64) -> u64 {
    splitmix64(splitmix64(seed ^ stream).wrapping_add(index))
}

/// A draw mapped to `[0, 1)`.
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

impl Spec {
    /// The `index`-th request of a window (0-based), due at `due`.
    pub fn request(&self, seed: u64, index: usize, due: Duration) -> Request {
        let u = unit(draw(seed, CLASS_STREAM, index as u64));
        let mut acc = 0.0;
        let class = self
            .mix
            .iter()
            .find(|(_, share)| {
                acc += share;
                u < acc
            })
            .or(self.mix.last())
            .map(|(class, _)| *class)
            .expect("a mix has at least one class");
        Request {
            id: index as u64 + 1,
            due,
            class,
            case: draw(seed, CASE_STREAM, index as u64),
            conn: self.conn_of(index, class),
        }
    }

    /// The open-loop window plan: Poisson arrivals at the workload's rate
    /// for `window`. Empty for a closed loop, which draws requests as it
    /// goes with [`Spec::request`].
    pub fn open_plan(&self, seed: u64, window: Duration) -> Vec<Request> {
        let Arrivals::Open { rate_hz } = self.arrivals else {
            return Vec::new();
        };
        poisson_schedule(rate_hz, window, seed)
            .into_iter()
            .enumerate()
            .map(|(index, due)| self.request(seed, index, due))
            .collect()
    }

    /// Warm-up requests: [`WARMUP_PER_CLASS`] of each class, on that
    /// class's connections, with cases drawn apart from the window's.
    pub fn warmup_plan(&self, seed: u64) -> Vec<Request> {
        self.classes()
            .flat_map(|class| (0..WARMUP_PER_CLASS).map(move |k| (class, k)))
            .enumerate()
            .map(|(index, (class, k))| Request {
                id: index as u64 + 1,
                due: Duration::ZERO,
                class,
                case: draw(seed, WARMUP_STREAM, index as u64),
                conn: self.conn_of(k, class),
            })
            .collect()
    }
}

/// Case ids of the direct replay of `class` in a traced run.
pub fn replay_cases(seed: u64, class: Class, count: usize) -> Vec<u64> {
    let stream = REPLAY_STREAM ^ ((class as u64) << 32);
    (0..count as u64).map(|i| draw(seed, stream, i)).collect()
}
