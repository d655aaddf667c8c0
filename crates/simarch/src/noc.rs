//! Network-on-chip model (Recommendation 6).
//!
//! The paper's architecture-level recommendation is a *"heterogeneous or
//! reconfigurable neural/symbolic architecture with efficient
//! vector-symbolic units and high-bandwidth NoC"*. This module provides
//! the analytic mesh model needed to evaluate that recommendation: a 2-D
//! mesh with XY routing, per-hop latency, and link serialization, plus a
//! first-order model of offloading a symbolic operator across `n`
//! processing elements (scatter → compute → gather).

use serde::{Deserialize, Serialize};

/// A 2-D mesh NoC with XY dimension-order routing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeshNoc {
    width: usize,
    height: usize,
    /// Per-link bandwidth in GB/s.
    link_bw_gbps: f64,
    /// Per-hop router+link latency in nanoseconds.
    hop_latency_ns: f64,
}

/// A tile coordinate `(x, y)`.
pub type Tile = (usize, usize);

impl MeshNoc {
    /// Build a `width × height` mesh.
    ///
    /// # Panics
    ///
    /// Panics for degenerate parameters (zero extent, non-positive
    /// bandwidth or latency).
    pub fn new(width: usize, height: usize, link_bw_gbps: f64, hop_latency_ns: f64) -> Self {
        assert!(width > 0 && height > 0, "mesh extent must be positive");
        assert!(link_bw_gbps > 0.0, "link bandwidth must be positive");
        assert!(hop_latency_ns >= 0.0, "hop latency cannot be negative");
        MeshNoc {
            width,
            height,
            link_bw_gbps,
            hop_latency_ns,
        }
    }

    /// Number of tiles.
    pub fn tiles(&self) -> usize {
        self.width * self.height
    }

    /// XY-routing hop count between two tiles.
    ///
    /// # Panics
    ///
    /// Panics when either coordinate is outside the mesh.
    pub fn hops(&self, src: Tile, dst: Tile) -> usize {
        assert!(
            src.0 < self.width && src.1 < self.height,
            "src outside mesh"
        );
        assert!(
            dst.0 < self.width && dst.1 < self.height,
            "dst outside mesh"
        );
        src.0.abs_diff(dst.0) + src.1.abs_diff(dst.1)
    }

    /// First-order latency of offloading a symbolic operator of `flops`
    /// FLOPs over `bytes` of operand data across every tile of the mesh:
    /// scatter operand shards from tile (0,0), compute in parallel at
    /// `pe_gflops` per tile, gather result shards (assumed `bytes / 8`).
    ///
    /// This is the trade the paper's Recommendation 5/6 discussion
    /// weighs: parallel symbolic units help only when the NoC can feed
    /// them — for memory-bound operators, scatter/gather dominates as the
    /// mesh grows.
    pub fn offload_latency_ns(&self, flops: u64, bytes: u64, pe_gflops: f64) -> f64 {
        assert!(pe_gflops > 0.0, "PE throughput must be positive");
        let n = self.tiles() as f64;
        let shard = bytes as f64 / n;
        // Scatter: each shard travels from (0,0); serialization on the
        // root's links is the bottleneck — model as total bytes over the
        // root's outgoing bandwidth (up to 2 links from a corner).
        let root_links = 2.0f64.min(n - 1.0).max(1.0);
        let scatter = bytes as f64 / (self.link_bw_gbps * root_links)
            + self.hops((0, 0), (self.width - 1, self.height - 1)) as f64 * self.hop_latency_ns;
        let compute = flops as f64 / n / pe_gflops; // GFLOP/s == flops/ns
        let gather = (bytes as f64 / 8.0) / (self.link_bw_gbps * root_links)
            + self.hops((0, 0), (self.width - 1, self.height - 1)) as f64 * self.hop_latency_ns;
        let _ = shard;
        scatter + compute + gather
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hop_math_is_manhattan() {
        let mesh = MeshNoc::new(4, 4, 128.0, 1.0);
        assert_eq!(mesh.hops((0, 0), (3, 3)), 6);
        assert_eq!(mesh.hops((1, 2), (1, 2)), 0);
        assert_eq!(mesh.hops((3, 0), (0, 0)), 3);
    }

    #[test]
    #[should_panic(expected = "outside mesh")]
    fn hops_validates_coordinates() {
        let mesh = MeshNoc::new(2, 2, 128.0, 1.0);
        let _ = mesh.hops((0, 0), (2, 0));
    }

    #[test]
    fn compute_bound_offload_improves_with_mesh_size() {
        // Compute-heavy operator: more PEs help.
        let small = MeshNoc::new(2, 2, 128.0, 1.0);
        let large = MeshNoc::new(4, 4, 128.0, 1.0);
        let flops = 10_000_000_000;
        let bytes = 1_000_000;
        assert!(
            large.offload_latency_ns(flops, bytes, 1.0)
                < small.offload_latency_ns(flops, bytes, 1.0)
        );
    }

    #[test]
    fn memory_bound_offload_saturates() {
        // Bandwidth-heavy symbolic operator (1 flop per 12 bytes): growing
        // the mesh barely helps — scatter/gather dominates (the paper's
        // parallelism-scalability caution).
        let small = MeshNoc::new(2, 2, 128.0, 1.0);
        let large = MeshNoc::new(8, 8, 128.0, 1.0);
        let flops = 1_000;
        let bytes = 12_000_000;
        let t_small = small.offload_latency_ns(flops, bytes, 1.0);
        let t_large = large.offload_latency_ns(flops, bytes, 1.0);
        // Less than 2x gain from a 16x PE increase.
        assert!(t_large > t_small / 2.0, "small {t_small} large {t_large}");
    }

    #[test]
    #[should_panic(expected = "extent must be positive")]
    fn validates_extent() {
        let _ = MeshNoc::new(0, 4, 1.0, 1.0);
    }
}
