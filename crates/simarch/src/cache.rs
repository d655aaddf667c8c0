//! A trace-driven, set-associative, LRU, multi-level cache simulator.
//!
//! This is the substitute for Nsight Compute's memory counters: kernel
//! address traces from [`crate::ktrace`] are replayed through an L1 → L2 →
//! DRAM hierarchy to obtain the hit rates and bandwidth figures of
//! Tab. IV.

use serde::{Deserialize, Serialize};

/// Configuration of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheLevelConfig {
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Line size in bytes (power of two).
    pub line_size: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheLevelConfig {
    /// Number of sets implied by the configuration.
    ///
    /// # Panics
    ///
    /// Panics if parameters are inconsistent (zero sizes, capacity not
    /// divisible by `line_size × ways`, or non-power-of-two line size).
    pub fn sets(&self) -> usize {
        assert!(
            self.line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(self.ways > 0 && self.capacity > 0, "sizes must be positive");
        let lines = self.capacity / self.line_size;
        assert!(
            lines.is_multiple_of(self.ways) && lines > 0,
            "capacity must be divisible by line_size * ways"
        );
        lines / self.ways
    }
}

/// One set-associative LRU cache level.
#[derive(Debug, Clone)]
struct CacheLevel {
    config: CacheLevelConfig,
    sets: usize,
    /// Per set: lines as (tag, last-use stamp). `u64::MAX` tag = invalid.
    lines: Vec<(u64, u64)>,
    clock: u64,
}

impl CacheLevel {
    fn new(config: CacheLevelConfig) -> Self {
        let sets = config.sets();
        CacheLevel {
            config,
            sets,
            lines: vec![(u64::MAX, 0); sets * config.ways],
            clock: 0,
        }
    }

    /// Access the line containing `addr`. Returns true on hit; on miss the
    /// line is installed with LRU eviction.
    fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let line_addr = addr / self.config.line_size as u64;
        let set = (line_addr % self.sets as u64) as usize;
        let tag = line_addr / self.sets as u64;
        let base = set * self.config.ways;
        let ways = &mut self.lines[base..base + self.config.ways];
        // Hit?
        for w in ways.iter_mut() {
            if w.0 == tag {
                w.1 = self.clock;
                return true;
            }
        }
        // Miss: install over LRU.
        let (victim_idx, _) = ways
            .iter()
            .enumerate()
            .min_by_key(|(_, (_, stamp))| *stamp)
            .expect("ways is non-empty");
        ways[victim_idx] = (tag, self.clock);
        false
    }
}

/// Aggregate statistics from a trace replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Total accesses issued.
    pub accesses: u64,
    /// Hits in L1.
    pub l1_hits: u64,
    /// Hits in L2 (after L1 miss).
    pub l2_hits: u64,
    /// Accesses served by DRAM.
    pub dram_accesses: u64,
    /// Bytes transferred from DRAM (line-granular).
    pub dram_bytes: u64,
    /// Bytes requested by the kernel (access-granular).
    pub requested_bytes: u64,
}

impl CacheStats {
    /// L1 hit rate in `[0, 1]` (0 for an empty trace).
    pub fn l1_hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.l1_hits as f64 / self.accesses as f64
        }
    }

    /// L2 hit rate among L1 misses in `[0, 1]`.
    pub fn l2_hit_rate(&self) -> f64 {
        let l1_misses = self.accesses - self.l1_hits;
        if l1_misses == 0 {
            0.0
        } else {
            self.l2_hits as f64 / l1_misses as f64
        }
    }
}

/// An L1 → L2 → DRAM hierarchy.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: CacheLevel,
    l2: CacheLevel,
    stats: CacheStats,
}

impl CacheHierarchy {
    /// Build a hierarchy from two level configurations.
    pub fn new(l1: CacheLevelConfig, l2: CacheLevelConfig) -> Self {
        CacheHierarchy {
            l1: CacheLevel::new(l1),
            l2: CacheLevel::new(l2),
            stats: CacheStats::default(),
        }
    }

    /// A GPU-SM-like hierarchy: 64 KiB L1 (128 B lines, 4-way) and 512 KiB
    /// L2 slice (128 B lines, 16-way) — scaled to the slice of the chip a
    /// single kernel's working set sees.
    pub fn gpu_like() -> Self {
        CacheHierarchy::new(
            CacheLevelConfig {
                capacity: 64 * 1024,
                line_size: 128,
                ways: 4,
            },
            CacheLevelConfig {
                capacity: 512 * 1024,
                line_size: 128,
                ways: 16,
            },
        )
    }

    /// Issue one `size`-byte access at `addr` (split across lines when it
    /// straddles a boundary).
    pub fn access(&mut self, addr: u64, size: u32) {
        let line = self.l1.config.line_size as u64;
        let mut a = addr;
        let end = addr + size as u64;
        while a < end {
            self.stats.accesses += 1;
            if self.l1.access(a) {
                self.stats.l1_hits += 1;
            } else if self.l2.access(a) {
                self.stats.l2_hits += 1;
            } else {
                self.stats.dram_accesses += 1;
                self.stats.dram_bytes += self.l2.config.line_size as u64;
            }
            a = (a / line + 1) * line;
        }
        self.stats.requested_bytes += size as u64;
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reset statistics (keeping cache contents).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheHierarchy {
        // L1: 4 lines of 64 B, 2-way (2 sets). L2: 16 lines, 4-way.
        CacheHierarchy::new(
            CacheLevelConfig {
                capacity: 256,
                line_size: 64,
                ways: 2,
            },
            CacheLevelConfig {
                capacity: 1024,
                line_size: 64,
                ways: 4,
            },
        )
    }

    #[test]
    fn config_set_math() {
        let c = CacheLevelConfig {
            capacity: 64 * 1024,
            line_size: 128,
            ways: 4,
        };
        assert_eq!(c.sets(), 128);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn config_validates_line_size() {
        let c = CacheLevelConfig {
            capacity: 256,
            line_size: 65,
            ways: 2,
        };
        let _ = c.sets();
    }

    #[test]
    fn repeated_access_hits_l1() {
        let mut h = tiny();
        h.access(0, 4);
        h.access(0, 4);
        h.access(4, 4); // same line
        let s = h.stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.l1_hits, 2);
        assert_eq!(s.dram_accesses, 1);
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        let mut h = tiny();
        h.access(60, 8); // crosses the 64-byte boundary
        assert_eq!(h.stats().accesses, 2);
    }

    #[test]
    fn lru_eviction_in_set() {
        let mut h = tiny();
        // Lines 0, 2, 4 map to set 0 (2 sets, line 64). 2-way: third evicts
        // the least recently used (line 0).
        h.access(0, 4);
        h.access(128, 4);
        h.access(256, 4); // evicts line 0 from L1
        h.reset_stats();
        h.access(0, 4); // L1 miss, L2 hit
        let s = h.stats();
        assert_eq!(s.l1_hits, 0);
        assert_eq!(s.l2_hits, 1);
    }

    #[test]
    fn lru_keeps_recently_used() {
        let mut h = tiny();
        h.access(0, 4);
        h.access(128, 4);
        h.access(0, 4); // refresh line 0
        h.access(256, 4); // evicts line 128, not line 0
        h.reset_stats();
        h.access(0, 4);
        assert_eq!(h.stats().l1_hits, 1);
    }

    #[test]
    fn streaming_misses_everywhere() {
        let mut h = tiny();
        for i in 0..64u64 {
            h.access(i * 64 * 17, 4); // strided far apart
        }
        let s = h.stats();
        assert!(s.l1_hit_rate() < 0.1);
        assert!(2 * s.dram_accesses > s.accesses, "{s:?}");
    }

    #[test]
    fn working_set_within_l2_hits_l2_on_second_pass() {
        let mut h = tiny();
        // 512 B working set: fits L2 (1 KiB), exceeds L1 (256 B).
        for pass in 0..2 {
            for i in 0..8u64 {
                h.access(i * 64, 4);
            }
            if pass == 0 {
                h.reset_stats();
            }
        }
        let s = h.stats();
        // Second pass: mostly L2 hits (L1 holds only the last 4 lines).
        assert!(s.l2_hits + s.l1_hits >= 7, "{s:?}");
        assert_eq!(s.dram_accesses, 0);
    }

    #[test]
    fn stats_rates_handle_empty() {
        let s = CacheStats::default();
        assert_eq!(s.l1_hit_rate(), 0.0);
        assert_eq!(s.l2_hit_rate(), 0.0);
    }
}
