//! Integration test: the paper's Takeaways 1–7, checked programmatically
//! against full profiled runs of all seven workloads — the repo's
//! "does the reproduction still reproduce?" gate.
//!
//! Every share asserted here is a share of work (bytes moved, or FLOPs
//! for the operator mix), never of host wall clock, so the checks read
//! the same on every host, under any load, and after any kernel speedup.

use neurosym::core::takeaways::*;
use neurosym::core::taxonomy::OpCategory;
use neurosym::core::taxonomy::Phase;
use neurosym::core::{Profiler, Report};
use neurosym::simarch::device::Device;
use neurosym::simarch::ktrace::{table_iv_metrics, KernelKind};
use neurosym::simarch::opgraph::OpGraph;
use neurosym::workloads::nvsa::{Nvsa, NvsaConfig};
use neurosym::workloads::perception::PerceptionMode;
use neurosym::workloads::{all_workloads_small, Workload};

fn collect_reports() -> Vec<Report> {
    all_workloads_small()
        .into_iter()
        .map(|mut w| {
            w.prepare()
                .unwrap_or_else(|e| panic!("{} prepare failed: {e}", w.name()));
            let profiler = Profiler::new();
            {
                let _active = profiler.activate();
                w.run()
                    .unwrap_or_else(|e| panic!("{} failed: {e}", w.name()));
            }
            profiler.report_for(w.name())
        })
        .collect()
}

#[test]
fn takeaways_1_through_7_hold() {
    let reports = collect_reports();

    // Takeaway 1 — symbolic is non-negligible everywhere and dominant
    // somewhere.
    let t1 = check_symbolic_nonnegligible(&reports, 0.005);
    assert!(t1.passed, "takeaway 1: {}", t1.detail);

    // Takeaway 2 — NVSA scales superlinearly with task size at a roughly
    // stable phase ratio.
    let run_nvsa = |grid: usize| {
        let mut nvsa = Nvsa::new(NvsaConfig {
            grid,
            dim: 2048,
            res: 16,
            mode: PerceptionMode::Oracle { noise: 0.05 },
            problems: 2,
            components: 1,
            seed: 42,
        });
        nvsa.prepare().expect("nvsa prepares");
        let profiler = Profiler::new();
        {
            let _active = profiler.activate();
            nvsa.run().expect("nvsa runs");
        }
        profiler.report_for("nvsa")
    };
    let runs = vec![(4.0, run_nvsa(2)), (9.0, run_nvsa(3))];
    let t2 = check_scalability(&runs, 0.20);
    assert!(t2.passed, "takeaway 2: {}", t2.detail);

    // Takeaway 3 — neural MatMul/Conv-dominated, symbolic not.
    let t3 = check_operator_mix(&reports);
    assert!(t3.passed, "takeaway 3: {}", t3.detail);

    // Takeaway 4 — symbolic memory-bound on the GPU roofline. At CI-scale
    // layer sizes the neural aggregates sit below the ridge in absolute
    // terms (real perception backbones are 10-100x larger), so the
    // portable form of the claim is: every symbolic point is memory-bound
    // and every neural point sits at much higher operational intensity.
    let rtx = Device::rtx_2080_ti().roofline();
    let t4 = check_roofline_bounds(&reports, &rtx, 0.02);
    assert!(t4.passed, "takeaway 4: {}", t4.detail);
    for r in &reports {
        // LNN is the paper's own exception: its "neural" side is the
        // compiled logic graph, itself vector/element-wise (Sec. V-B), so
        // the intensity separation applies to the six NN-fronted
        // workloads.
        if r.workload() == "lnn" {
            continue;
        }
        if let (Some(n), Some(s)) = (
            r.phase_intensity(Phase::Neural),
            r.phase_intensity(Phase::Symbolic),
        ) {
            assert!(
                n > 2.0 * s,
                "takeaway 4: {} neural OI {n:.2} not well above symbolic {s:.2}",
                r.workload()
            );
        }
    }

    // Takeaway 5 — symbolic sits on the critical path of the pipelined
    // workloads. Each stage costs the bytes it moves.
    for name in ["nvsa", "vsait", "prae"] {
        let report = reports.iter().find(|r| r.workload() == name).unwrap();
        let neural = report.phase_bytes(Phase::Neural) as f64;
        let symbolic = report.phase_bytes(Phase::Symbolic) as f64;
        let transfer = report.cell(Phase::Symbolic, OpCategory::DataMovement).bytes as f64;
        let graph = OpGraph::pipelined(
            neural,
            transfer,
            &[("reasoning", (symbolic - transfer).max(0.0))],
        );
        let stats = graph.analyze();
        let t5 = check_critical_path(name, stats.symbolic_critical_fraction(), 0.10);
        assert!(t5.passed, "takeaway 5: {}", t5.detail);
    }

    // Takeaway 6 — kernel-level inefficiency contrast (cache-simulated).
    let metrics = table_iv_metrics(2);
    let gemm = metrics
        .iter()
        .find(|m| m.kind == KernelKind::SgemmNn)
        .unwrap();
    let elem = metrics
        .iter()
        .find(|m| m.kind == KernelKind::VectorizedElem)
        .unwrap();
    let t6 = check_hardware_inefficiency(
        gemm.compute_throughput,
        elem.compute_throughput,
        gemm.dram_bw_utilization,
        elem.dram_bw_utilization,
        0.5,
    );
    assert!(t6.passed, "takeaway 6: {}", t6.detail);

    // Takeaway 7 — NVSA symbolic-module sparsity, high with variation.
    let mut nvsa = Nvsa::new(NvsaConfig {
        problems: 4,
        ..NvsaConfig::small()
    });
    {
        let profiler = Profiler::new();
        let _active = profiler.activate();
        nvsa.run().expect("nvsa runs");
    }
    let sparsity: Vec<(String, f64)> = nvsa
        .sparsity_records()
        .iter()
        .filter(|r| r.module == "pmf_to_vsa")
        .map(|r| (r.attribute.to_owned(), r.stats.sparsity()))
        .collect();
    let t7 = check_sparsity(&sparsity, 0.7);
    assert!(t7.passed, "takeaway 7: {}", t7.detail);
}

/// Fig. 2a's extreme, by share of bytes moved. By share of FLOPs NVSA
/// would lead outright, but the paper contrasts NVSA's share of time with
/// its much smaller share of FLOPs, so a FLOP share is not the paper's
/// measure; bytes are what its memory-bound symbolic phase pays.
#[test]
fn nvsa_is_the_symbolic_extreme() {
    let reports = collect_reports();
    let nvsa = reports.iter().find(|r| r.workload() == "nvsa").unwrap();
    let nvsa_share = nvsa.phase_bytes_fraction(Phase::Symbolic);
    for r in &reports {
        if r.workload() != "nvsa" {
            let share = r.phase_bytes_fraction(Phase::Symbolic);
            assert!(
                nvsa_share >= share - 0.05,
                "{} outranks nvsa: {share:.2} vs {nvsa_share:.2}",
                r.workload(),
            );
        }
    }
}
