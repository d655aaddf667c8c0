//! Memory usage tracking (Fig. 3b, Takeaway 4).
//!
//! The paper distinguishes two kinds of memory in neuro-symbolic workloads:
//!
//! - **transient tensor memory** — intermediates allocated and freed during
//!   computation; the symbolic components of PrAE/NVSA need *"large
//!   intermediate caching"*;
//! - **persistent storage** — model weights and VSA codebooks, which
//!   *"typically account for most memory storage"* (>90% in NVSA).
//!
//! [`MemoryTracker`] tracks both: instrumented allocations update live-byte
//! counts and phase-attributed high-water marks, while
//! [`MemoryTracker::register_storage`] records named persistent footprints.

use crate::taxonomy::Phase;
use serde::{Deserialize, Serialize};

/// A named persistent storage footprint (weights, codebooks, rule tables).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StorageEntry {
    /// Human-readable label, e.g. `"convnet.weights"` or `"nvsa.codebook"`.
    pub label: String,
    /// Footprint in bytes.
    pub bytes: u64,
    /// Phase that owns the storage.
    pub phase: Phase,
}

/// Tracks transient allocations and persistent storage registrations.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MemoryTracker {
    live: u64,
    high_water: u64,
    neural_high_water: u64,
    symbolic_high_water: u64,
    alloc_count: u64,
    alloc_bytes_total: u64,
    storage: Vec<StorageEntry>,
}

impl MemoryTracker {
    /// Fresh tracker with no recorded traffic.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a transient allocation of `bytes` attributed to `phase`.
    pub fn alloc(&mut self, bytes: u64, phase: Phase) {
        self.live += bytes;
        self.alloc_count += 1;
        self.alloc_bytes_total += bytes;
        if self.live > self.high_water {
            self.high_water = self.live;
        }
        let phase_hw = match phase {
            Phase::Neural => &mut self.neural_high_water,
            Phase::Symbolic => &mut self.symbolic_high_water,
        };
        if self.live > *phase_hw {
            *phase_hw = self.live;
        }
    }

    /// Record a transient release of `bytes`. Saturates at zero so an
    /// unbalanced dealloc (e.g. a tensor allocated before profiling began)
    /// cannot underflow the counter.
    pub fn dealloc(&mut self, bytes: u64) {
        self.live = self.live.saturating_sub(bytes);
    }

    /// Register a persistent storage footprint.
    pub fn register_storage(&mut self, label: &str, bytes: u64, phase: Phase) {
        self.storage.push(StorageEntry {
            label: label.to_owned(),
            bytes,
            phase,
        });
    }

    /// Bytes currently live (allocated and not yet freed).
    pub fn live_bytes(&self) -> u64 {
        self.live
    }

    /// Peak live bytes over the trace.
    pub fn high_water_bytes(&self) -> u64 {
        self.high_water
    }

    /// Peak live bytes observed while the given phase was performing
    /// allocations.
    pub fn phase_high_water(&self, phase: Phase) -> u64 {
        match phase {
            Phase::Neural => self.neural_high_water,
            Phase::Symbolic => self.symbolic_high_water,
        }
    }

    /// Number of transient allocations recorded.
    pub fn alloc_count(&self) -> u64 {
        self.alloc_count
    }

    /// Sum of all transient allocation sizes (allocation *traffic*, not peak
    /// residency).
    pub fn alloc_bytes_total(&self) -> u64 {
        self.alloc_bytes_total
    }

    /// All registered persistent storage entries.
    pub fn storage(&self) -> &[StorageEntry] {
        &self.storage
    }

    /// Total persistent storage bytes across all registrations.
    pub fn storage_bytes_total(&self) -> u64 {
        self.storage.iter().map(|s| s.bytes).sum()
    }

    /// Persistent storage bytes owned by `phase`.
    pub fn storage_bytes_for(&self, phase: Phase) -> u64 {
        self.storage
            .iter()
            .filter(|s| s.phase == phase)
            .map(|s| s.bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_water_tracks_peak_not_current() {
        let mut m = MemoryTracker::new();
        m.alloc(100, Phase::Neural);
        m.alloc(200, Phase::Neural);
        m.dealloc(250);
        m.alloc(10, Phase::Neural);
        assert_eq!(m.live_bytes(), 60);
        assert_eq!(m.high_water_bytes(), 300);
    }

    #[test]
    fn dealloc_saturates_at_zero() {
        let mut m = MemoryTracker::new();
        m.alloc(10, Phase::Neural);
        m.dealloc(100);
        assert_eq!(m.live_bytes(), 0);
    }

    #[test]
    fn phase_high_water_attribution() {
        let mut m = MemoryTracker::new();
        m.alloc(100, Phase::Neural);
        m.alloc(400, Phase::Symbolic);
        // Symbolic allocation drove the peak to 500 while symbolic was
        // allocating; neural only ever saw 100 live at its own allocations.
        assert_eq!(m.phase_high_water(Phase::Neural), 100);
        assert_eq!(m.phase_high_water(Phase::Symbolic), 500);
    }

    #[test]
    fn storage_registration_by_phase() {
        let mut m = MemoryTracker::new();
        m.register_storage("weights", 900, Phase::Neural);
        m.register_storage("codebook", 100, Phase::Symbolic);
        assert_eq!(m.storage_bytes_total(), 1000);
        assert_eq!(m.storage_bytes_for(Phase::Neural), 900);
        assert_eq!(m.storage_bytes_for(Phase::Symbolic), 100);
    }

    #[test]
    fn alloc_traffic_counters() {
        let mut m = MemoryTracker::new();
        m.alloc(4, Phase::Neural);
        m.alloc(8, Phase::Symbolic);
        m.dealloc(12);
        assert_eq!(m.alloc_count(), 2);
        assert_eq!(m.alloc_bytes_total(), 12);
    }
}
