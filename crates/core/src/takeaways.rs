//! Programmatic checks of the paper's Takeaways 1–7.
//!
//! The paper distills its characterization into seven takeaways. Each
//! function here turns one takeaway into a *testable predicate* over
//! measured data, so the reproduction can assert — in CI, on every machine —
//! that the qualitative shape of the paper's findings holds, independent of
//! absolute timings. The integration test `tests/takeaways.rs` at the
//! workspace root runs all of them against full workload runs.
//!
//! The checks over [`Report`]s read work counters, never host wall
//! clock: phase shares and growth use bytes moved, operator mixes use
//! FLOPs. Counters repeat exactly on every host, load and kernel
//! implementation, so a faster kernel or a busy CI runner cannot flip a
//! check; host-time shares stay in the figures as reported numbers.

use crate::report::{share, Report};
use crate::roofline::{Bound, DeviceRoofline};
use crate::taxonomy::{OpCategory, Phase};

/// Outcome of one takeaway check.
#[derive(Debug, Clone, PartialEq)]
pub struct TakeawayResult {
    /// Takeaway number (1–7).
    pub id: u8,
    /// Whether the measured data supports the takeaway.
    pub passed: bool,
    /// Human-readable evidence.
    pub detail: String,
}

impl TakeawayResult {
    fn new(id: u8, passed: bool, detail: String) -> Self {
        Self { id, passed, detail }
    }
}

/// **Takeaway 1** — symbolic workloads are non-negligible and can bottleneck.
///
/// Passes when every report moves at least `min_symbolic_fraction` of its
/// bytes in the symbolic phase, and at least one workload is
/// symbolic-dominated (> 50%). The paper's measured symbolic shares of
/// runtime range from 26.8% (ZeroC) to 92.1% (NVSA).
///
/// Measure: [`Report::phase_bytes_fraction`]. Symbolic operators are
/// memory-bound (Takeaway 4), so the bytes they stream are their cost;
/// a FLOP share would all but erase them (ZeroC's symbolic phase does
/// well under 1% of its FLOPs).
pub fn check_symbolic_nonnegligible(
    reports: &[Report],
    min_symbolic_fraction: f64,
) -> TakeawayResult {
    let mut min_seen = f64::INFINITY;
    let mut max_seen: f64 = 0.0;
    for r in reports {
        let f = r.phase_bytes_fraction(Phase::Symbolic);
        min_seen = min_seen.min(f);
        max_seen = max_seen.max(f);
    }
    let passed = !reports.is_empty() && min_seen >= min_symbolic_fraction && max_seen > 0.5;
    TakeawayResult::new(
        1,
        passed,
        format!(
            "symbolic share of bytes moved across {} workloads: min {:.1}%, max {:.1}% \
             (threshold {:.1}%)",
            reports.len(),
            min_seen * 100.0,
            max_seen * 100.0,
            min_symbolic_fraction * 100.0
        ),
    )
}

/// **Takeaway 2** — with task size, the neural/symbolic ratio stays roughly
/// stable while total cost grows superlinearly.
///
/// `runs` pairs a task-size measure (e.g. RPM grid cells: 4 for 2×2, 9 for
/// 3×3) with the report at that size, and must be sorted ascending by size.
/// Stability means the symbolic fraction varies by at most
/// `max_ratio_drift` absolute; superlinear growth means cost grows faster
/// than the size ratio.
///
/// Measure: bytes moved, for both the fraction
/// ([`Report::phase_bytes_fraction`]) and the growth
/// ([`Report::total_bytes`]) — the measure of Takeaway 1, for the same
/// reason: the symbolic stages that grow with the task are memory-bound.
pub fn check_scalability(runs: &[(f64, Report)], max_ratio_drift: f64) -> TakeawayResult {
    if runs.len() < 2 {
        return TakeawayResult::new(2, false, "need at least two task sizes".into());
    }
    let fracs: Vec<f64> = runs
        .iter()
        .map(|(_, r)| r.phase_bytes_fraction(Phase::Symbolic))
        .collect();
    let drift = fracs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - fracs.iter().cloned().fold(f64::INFINITY, f64::min);

    let (s0, r0) = (&runs[0].0, &runs[0].1);
    let (s1, r1) = (&runs[runs.len() - 1].0, &runs[runs.len() - 1].1);
    let size_ratio = s1 / s0;
    let bytes_ratio = r1.total_bytes() as f64 / (r0.total_bytes() as f64).max(1.0);
    let passed = drift <= max_ratio_drift && bytes_ratio > size_ratio;
    TakeawayResult::new(
        2,
        passed,
        format!(
            "symbolic share of bytes drifts {:.1}pp (max {:.1}pp); bytes moved grew {:.2}x \
             for a {:.2}x size increase",
            drift * 100.0,
            max_ratio_drift * 100.0,
            bytes_ratio,
            size_ratio
        ),
    )
}

/// **Takeaway 3** — neural components are MatMul/Conv-dominated, symbolic
/// components are dominated by vector/element-wise + logical ("other") +
/// transform/movement operations.
///
/// Passes when, summed over all reports, MatMul+Conv perform the majority
/// of neural FLOPs, and the non-MatMul/Conv categories the majority of
/// symbolic FLOPs.
///
/// Measure: FLOPs per category ([`Report::category_flops_fraction`] is the
/// per-report form). The paper's MatMul/Conv claim is about compute; by
/// bytes, the neural phases' element-wise glue outweighs their GEMMs.
pub fn check_operator_mix(reports: &[Report]) -> TakeawayResult {
    let mut neural_mm_conv = 0u64;
    let mut neural_total = 0u64;
    let mut symbolic_mm_conv = 0u64;
    let mut symbolic_total = 0u64;
    for r in reports {
        neural_total += r.phase_flops(Phase::Neural);
        symbolic_total += r.phase_flops(Phase::Symbolic);
        for cat in [OpCategory::MatMul, OpCategory::Convolution] {
            neural_mm_conv += r.cell(Phase::Neural, cat).flops;
            symbolic_mm_conv += r.cell(Phase::Symbolic, cat).flops;
        }
    }
    let neural_share = share(neural_mm_conv as f64, neural_total as f64);
    let symbolic_share = share(symbolic_mm_conv as f64, symbolic_total as f64);
    let passed = neural_share > 0.5 && symbolic_share < 0.5;
    TakeawayResult::new(
        3,
        passed,
        format!(
            "MatMul+Conv share of FLOPs: neural {:.1}%, symbolic {:.1}%",
            neural_share * 100.0,
            symbolic_share * 100.0
        ),
    )
}

/// **Takeaway 4** — on a GPU-class roofline, symbolic aggregates are
/// memory-bound while neural aggregates are compute-bound.
///
/// Uses operational intensity against the ridge point (placement on the
/// x-axis is hardware-independent, which is what makes this check portable).
/// Passes when every report's symbolic intensity is below the ridge and the
/// majority of neural intensities are above `neural_min_fraction_of_ridge` ×
/// ridge (neural phases mix convolutions with cheap glue, so a small margin
/// below the ridge is tolerated via that factor).
pub fn check_roofline_bounds(
    reports: &[Report],
    device: &DeviceRoofline,
    neural_min_fraction_of_ridge: f64,
) -> TakeawayResult {
    let ridge = device.ridge_point();
    let mut symbolic_memory_bound = 0usize;
    let mut symbolic_counted = 0usize;
    let mut neural_high_intensity = 0usize;
    let mut neural_counted = 0usize;
    for r in reports {
        if let Some(i) = r.phase_intensity(Phase::Symbolic) {
            symbolic_counted += 1;
            if device.classify(i) == Bound::Memory {
                symbolic_memory_bound += 1;
            }
        }
        if let Some(i) = r.phase_intensity(Phase::Neural) {
            neural_counted += 1;
            if i >= ridge * neural_min_fraction_of_ridge {
                neural_high_intensity += 1;
            }
        }
    }
    let passed = symbolic_counted > 0
        && symbolic_memory_bound == symbolic_counted
        && neural_counted > 0
        && neural_high_intensity * 2 > neural_counted;
    TakeawayResult::new(
        4,
        passed,
        format!(
            "symbolic memory-bound: {symbolic_memory_bound}/{symbolic_counted}; neural at \
             >={:.0}% of ridge intensity: {neural_high_intensity}/{neural_counted} (ridge {ridge:.1} flop/B)",
            neural_min_fraction_of_ridge * 100.0
        ),
    )
}

/// **Takeaway 5** — symbolic operations lie on the critical path.
///
/// `critical_path_symbolic_fraction` comes from an operation-graph analysis
/// (see `nsai-simarch::opgraph`); the check passes when the symbolic share
/// of the critical path is at least `min_fraction`.
pub fn check_critical_path(
    workload: &str,
    critical_path_symbolic_fraction: f64,
    min_fraction: f64,
) -> TakeawayResult {
    let passed = critical_path_symbolic_fraction >= min_fraction;
    TakeawayResult::new(
        5,
        passed,
        format!(
            "{workload}: symbolic occupies {:.1}% of the critical path (threshold {:.1}%)",
            critical_path_symbolic_fraction * 100.0,
            min_fraction * 100.0
        ),
    )
}

/// **Takeaway 6** — symbolic kernels show low ALU utilization and cache
/// locality next to neural kernels.
///
/// Inputs are the Tab. IV-style utilization numbers in `[0, 1]` produced by
/// the cache/kernel simulator. Passes when the neural kernel's compute
/// throughput exceeds the symbolic kernel's by at least `min_gap`, and the
/// symbolic kernel's DRAM bandwidth utilization exceeds the neural one's.
pub fn check_hardware_inefficiency(
    neural_compute_util: f64,
    symbolic_compute_util: f64,
    neural_dram_util: f64,
    symbolic_dram_util: f64,
    min_gap: f64,
) -> TakeawayResult {
    let passed = neural_compute_util - symbolic_compute_util >= min_gap
        && symbolic_dram_util > neural_dram_util;
    TakeawayResult::new(
        6,
        passed,
        format!(
            "compute util: neural {:.1}% vs symbolic {:.1}%; DRAM util: neural {:.1}% vs symbolic {:.1}%",
            neural_compute_util * 100.0,
            symbolic_compute_util * 100.0,
            neural_dram_util * 100.0,
            symbolic_dram_util * 100.0
        ),
    )
}

/// **Takeaway 7** — vector-symbolic components show high unstructured
/// sparsity with variation across attributes.
///
/// `per_attribute_sparsity` maps attribute names to measured sparsity of
/// the symbolic ops for that attribute. Passes when every sparsity is at
/// least `min_sparsity` and the values are not all identical (variation).
pub fn check_sparsity(
    per_attribute_sparsity: &[(String, f64)],
    min_sparsity: f64,
) -> TakeawayResult {
    let all_high = !per_attribute_sparsity.is_empty()
        && per_attribute_sparsity
            .iter()
            .all(|(_, s)| *s >= min_sparsity);
    let min = per_attribute_sparsity
        .iter()
        .map(|(_, s)| *s)
        .fold(f64::INFINITY, f64::min);
    let max = per_attribute_sparsity
        .iter()
        .map(|(_, s)| *s)
        .fold(f64::NEG_INFINITY, f64::max);
    let varies = max - min > 1e-6;
    TakeawayResult::new(
        7,
        all_high && varies,
        format!(
            "sparsity over {} attributes in [{:.2}%, {:.2}%], threshold {:.0}%",
            per_attribute_sparsity.len(),
            min * 100.0,
            max * 100.0,
            min_sparsity * 100.0
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::OpEvent;
    use crate::memory::MemoryTracker;
    use std::time::Duration;

    /// A neural MatMul moving `neural_kb` KB at 100 flop/B and a symbolic
    /// element-wise op moving `symbolic_kb` KB at 0.005 flop/B. Both take
    /// no time: the checks read work alone.
    fn report_with(neural_kb: u64, symbolic_kb: u64, name: &str) -> Report {
        let events = vec![
            OpEvent {
                seq: 0,
                name: "sgemm".into(),
                category: OpCategory::MatMul,
                phase: Phase::Neural,
                duration: Duration::ZERO,
                flops: neural_kb * 100_000,
                bytes_read: neural_kb * 900,
                bytes_written: neural_kb * 100,
                output_elems: 10,
                output_nonzeros: 10,
            },
            OpEvent {
                seq: 1,
                name: "bind".into(),
                category: OpCategory::VectorElementwise,
                phase: Phase::Symbolic,
                duration: Duration::ZERO,
                flops: symbolic_kb * 5,
                bytes_read: symbolic_kb * 500,
                bytes_written: symbolic_kb * 500,
                output_elems: 10,
                output_nonzeros: 1,
            },
        ];
        Report::from_events(name.into(), &events, MemoryTracker::new())
    }

    #[test]
    fn takeaway1_passes_with_symbolic_dominated_workload() {
        let reports = vec![report_with(500, 500, "a"), report_with(100, 900, "b")];
        let res = check_symbolic_nonnegligible(&reports, 0.10);
        assert!(res.passed, "{}", res.detail);
    }

    #[test]
    fn takeaway1_fails_when_symbolic_tiny() {
        let reports = vec![report_with(990, 10, "a")];
        assert!(!check_symbolic_nonnegligible(&reports, 0.10).passed);
    }

    #[test]
    fn takeaway2_requires_superlinear_growth_and_stable_ratio() {
        let runs = vec![
            (4.0, report_with(100, 900, "s4")),
            (9.0, report_with(550, 4950, "s9")), // 5.5x bytes for 2.25x size
        ];
        let res = check_scalability(&runs, 0.10);
        assert!(res.passed, "{}", res.detail);

        let linear = vec![
            (4.0, report_with(100, 900, "s4")),
            (9.0, report_with(200, 1800, "s9")), // 2x bytes for 2.25x size
        ];
        assert!(!check_scalability(&linear, 0.10).passed);
    }

    #[test]
    fn takeaway2_rejects_single_run() {
        assert!(!check_scalability(&[(4.0, report_with(1, 1, "x"))], 0.1).passed);
    }

    #[test]
    fn takeaway3_checks_category_mix() {
        let reports = vec![report_with(500, 500, "a")];
        let res = check_operator_mix(&reports);
        assert!(res.passed, "{}", res.detail);
    }

    #[test]
    fn takeaway4_roofline_split() {
        let device = DeviceRoofline::new(13_450.0, 616.0).unwrap();
        // Neural intensity: 100 flop/B (> ridge 21.8).
        // Symbolic: 0.005 flop/B (memory-bound).
        let reports = vec![report_with(100, 100, "a")];
        let res = check_roofline_bounds(&reports, &device, 0.5);
        assert!(res.passed, "{}", res.detail);
    }

    #[test]
    fn takeaway5_threshold() {
        assert!(check_critical_path("nvsa", 0.9, 0.5).passed);
        assert!(!check_critical_path("nvsa", 0.3, 0.5).passed);
    }

    #[test]
    fn takeaway6_gap_and_dram() {
        assert!(check_hardware_inefficiency(0.95, 0.03, 0.15, 0.9, 0.5).passed);
        assert!(!check_hardware_inefficiency(0.95, 0.9, 0.15, 0.9, 0.5).passed);
        assert!(!check_hardware_inefficiency(0.95, 0.03, 0.95, 0.9, 0.5).passed);
    }

    #[test]
    fn takeaway7_sparsity_with_variation() {
        let data = vec![
            ("type".to_string(), 0.97),
            ("size".to_string(), 0.99),
            ("color".to_string(), 0.96),
        ];
        assert!(check_sparsity(&data, 0.95).passed);
        // No variation -> fail.
        let flat = vec![("a".to_string(), 0.97), ("b".to_string(), 0.97)];
        assert!(!check_sparsity(&flat, 0.95).passed);
        // Below threshold -> fail.
        let low = vec![("a".to_string(), 0.5), ("b".to_string(), 0.99)];
        assert!(!check_sparsity(&low, 0.95).passed);
        // Empty -> fail.
        assert!(!check_sparsity(&[], 0.95).passed);
    }
}
