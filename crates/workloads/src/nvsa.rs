//! NVSA — Neuro-Vector-Symbolic Architecture (Sec. III-D).
//!
//! The pipeline reproduced here follows Hersche et al.'s NVSA as the paper
//! describes it: a **neural frontend** transduces RPM panels into
//! per-attribute PMFs; a **symbolic backend** maps those PMFs into a
//! holographic vector space (PMF→VSA), abduces the governing rule per
//! attribute by *algebraic* operations on hypervectors (binding via
//! circular convolution implements value addition under fractional-power
//! encoding), executes the winning rule to predict the missing panel, and
//! decodes back to probability space (VSA→PMF) for answer selection.
//!
//! The backend is deliberately sequential — rule detection iterates rules
//! and attributes one after another — because that sequential,
//! computation-intensive reasoning procedure is exactly what the paper
//! identifies as NVSA's bottleneck (92.1% of runtime on an RTX 2080 Ti).

use crate::error::WorkloadError;
use crate::perception::{Perception, PerceptionMode};
use crate::workload::{CaseInput, Workload, WorkloadOutput};
use nsai_core::profile::phase_scope;
use nsai_core::taxonomy::{NsCategory, Phase};
use nsai_core::SparsityStats;
use nsai_data::rpm::{RpmGenerator, RpmProblem, ATTRIBUTES, ATTRIBUTE_CARDINALITIES};
use nsai_tensor::ops::movement::TransferDirection;
use nsai_tensor::Tensor;
use nsai_vsa::{Codebook, Hypervector};

/// Rule hypotheses the backend searches over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleKind {
    /// Value constant along the row.
    Constant,
    /// Value changes by a fixed delta.
    Progression(i32),
    /// Last value is sum (`true`) / difference (`false`) of the first two.
    Arithmetic(bool),
    /// Row permutes a fixed three-value set.
    DistributeThree,
}

impl RuleKind {
    /// The hypothesis space for a given row length.
    pub fn candidates(grid: usize) -> Vec<RuleKind> {
        let mut c = vec![
            RuleKind::Constant,
            RuleKind::Progression(1),
            RuleKind::Progression(-1),
            RuleKind::Progression(2),
        ];
        if grid >= 3 {
            c.push(RuleKind::Arithmetic(true));
            c.push(RuleKind::Arithmetic(false));
            c.push(RuleKind::DistributeThree);
        }
        c
    }

    /// Whether this hypothesis matches a generator rule (for the
    /// rule-detection-accuracy metric).
    pub fn matches(&self, rule: &nsai_data::rpm::Rule) -> bool {
        use nsai_data::rpm::Rule;
        match (self, rule) {
            (RuleKind::Constant, Rule::Constant) => true,
            (RuleKind::Progression(a), Rule::Progression(b)) => *a == *b,
            (RuleKind::Arithmetic(a), Rule::Arithmetic(b)) => *a == *b,
            (RuleKind::DistributeThree, Rule::DistributeThree) => true,
            _ => false,
        }
    }
}

/// Zero out probability mass below `eps` and renormalize — executed as
/// instrumented tensor kernels so the pruning shows up in the trace.
fn threshold_pmf(pmf: &[f32], eps: f32) -> Result<Vec<f32>, WorkloadError> {
    let t = Tensor::from_vec(pmf.to_vec(), &[pmf.len()])?;
    let mask = t.unary_op("threshold", move |v| if v >= eps { 1.0 } else { 0.0 });
    let pruned = t.mul(&mask)?.normalize_prob()?;
    Ok(pruned.data().to_vec())
}

/// One sparsity measurement of a symbolic module (Fig. 5 rows).
#[derive(Debug, Clone, PartialEq)]
pub struct SparsityRecord {
    /// Module name: `pmf_to_vsa`, `prob_compute`, or `vsa_to_pmf`.
    pub module: &'static str,
    /// Attribute the measurement belongs to.
    pub attribute: &'static str,
    /// Accumulated statistics.
    pub stats: SparsityStats,
}

/// NVSA configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NvsaConfig {
    /// RPM matrix side (2 or 3) — the Fig. 2c sweep parameter.
    pub grid: usize,
    /// Hypervector dimensionality (power of two).
    pub dim: usize,
    /// Panel rendering resolution.
    pub res: usize,
    /// Perception mode.
    pub mode: PerceptionMode,
    /// Problems per run.
    pub problems: usize,
    /// Independent rule components per problem (1 = RAVEN "Center";
    /// 2 = Left-Right-style configurations).
    pub components: usize,
    /// Generator/model seed.
    pub seed: u64,
}

impl NvsaConfig {
    /// Small config used by the cross-workload harnesses.
    pub fn small() -> Self {
        NvsaConfig {
            grid: 3,
            dim: 1024,
            res: 16,
            mode: PerceptionMode::Oracle { noise: 0.05 },
            problems: 2,
            components: 1,
            seed: 42,
        }
    }

    /// Paper-scale config: full NVSA hypervector dimensionality and a
    /// larger panel resolution. Minutes, not milliseconds — used only by
    /// the opt-in (`--ignored`) paper-scale test.
    #[cfg(test)]
    fn paper_scale() -> Self {
        NvsaConfig {
            grid: 3,
            dim: 8192,
            res: 32,
            mode: PerceptionMode::Oracle { noise: 0.05 },
            problems: 4,
            components: 2,
            seed: 42,
        }
    }
}

/// The NVSA workload.
#[derive(Debug)]
pub struct Nvsa {
    config: NvsaConfig,
    perception: Perception,
    /// Per-attribute fractional-power codebooks.
    codebooks: Vec<Codebook>,
    /// Per-attribute unitary bases (the `base^⊛δ` shift operators).
    bases: Vec<Hypervector>,
    sparsity: Vec<SparsityRecord>,
    prepared: bool,
}

impl Nvsa {
    /// Build the workload (codebooks are generated lazily in `prepare`).
    pub fn new(config: NvsaConfig) -> Self {
        let perception = Perception::new(config.mode, config.res, config.seed);
        Nvsa {
            config,
            perception,
            codebooks: Vec::new(),
            bases: Vec::new(),
            sparsity: Vec::new(),
            prepared: false,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &NvsaConfig {
        &self.config
    }

    /// Sparsity measurements accumulated by the last `run` (Fig. 5 data).
    pub fn sparsity_records(&self) -> &[SparsityRecord] {
        &self.sparsity
    }

    fn prepare_impl(&mut self) -> Result<(), WorkloadError> {
        if self.prepared {
            return Ok(());
        }
        self.perception.train(150, 40, self.config.seed)?;
        // Codebooks are symbolic-side storage (Takeaway 4's ">90% of
        // NVSA's memory footprint").
        let _sym = phase_scope(Phase::Symbolic);
        for (attr, (&name, &card)) in ATTRIBUTES
            .iter()
            .zip(ATTRIBUTE_CARDINALITIES.iter())
            .enumerate()
        {
            let base =
                Hypervector::random_unitary(self.config.dim, self.config.seed + 1000 + attr as u64);
            let symbols: Vec<String> = (0..card).map(|v| format!("{name}={v}")).collect();
            let symbol_refs: Vec<&str> = symbols.iter().map(String::as_str).collect();
            let cb = Codebook::fractional_power(name, &base, card, &symbol_refs)?;
            self.codebooks.push(cb);
            self.bases.push(base);
        }
        self.prepared = true;
        Ok(())
    }

    fn record_sparsity(&mut self, module: &'static str, attr: usize, values: &[f32]) {
        let stats = SparsityStats::of_slice_with_eps(values, 1e-3);
        match self
            .sparsity
            .iter_mut()
            .find(|r| r.module == module && r.attribute == ATTRIBUTES[attr])
        {
            Some(rec) => rec.stats.merge(stats),
            None => self.sparsity.push(SparsityRecord {
                module,
                attribute: ATTRIBUTES[attr],
                stats,
            }),
        }
    }

    /// Static storage footprints (Fig. 3b): perception weights are
    /// neural-side, codebooks symbolic-side.
    fn register_storage_footprints(&self) {
        {
            let _neural = phase_scope(Phase::Neural);
            nsai_core::profile::register_storage(
                "nvsa.perception.weights",
                self.perception.storage_bytes(),
            );
        }
        let _sym = phase_scope(Phase::Symbolic);
        for cb in &self.codebooks {
            nsai_core::profile::register_storage(
                &format!("nvsa.{}.codebook", cb.name()),
                cb.bytes(),
            );
        }
    }

    /// Argmax over the combined candidate log-likelihoods.
    fn select_answer(combined: &[f32]) -> usize {
        combined
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite scores"))
            .map(|(i, _)| i)
            .expect("candidates exist")
    }

    /// Final metrics of one episode.
    fn episode_output(
        correct: usize,
        rule_hits: usize,
        problems: usize,
        components: usize,
    ) -> WorkloadOutput {
        let mut out = WorkloadOutput::new();
        out.set("accuracy", correct as f64 / problems as f64);
        out.set(
            "rule_detection_accuracy",
            rule_hits as f64 / (problems * components * 5) as f64,
        );
        out
    }

    /// Predict a row's last element from its earlier elements under a rule
    /// hypothesis, in VSA space.
    fn predict(
        &self,
        rule: RuleKind,
        attr: usize,
        row: &[Hypervector],
        row0: &[Hypervector],
    ) -> Result<Hypervector, WorkloadError> {
        let base = &self.bases[attr];
        let prev = row.last().expect("rows are non-empty");
        Ok(match rule {
            RuleKind::Constant => prev.clone(),
            RuleKind::Progression(delta) => {
                let shift = base.conv_power(delta.unsigned_abs() as usize)?;
                if delta >= 0 {
                    prev.bind(&shift)?
                } else {
                    prev.unbind(&shift)?
                }
            }
            RuleKind::Arithmetic(add) => {
                let (a, b) = (&row[0], &row[1]);
                if add {
                    a.bind(b)?
                } else {
                    a.unbind(b)?
                }
            }
            RuleKind::DistributeThree => {
                // Superposition arithmetic: the missing member is the
                // row-0 value set minus the known members of this row.
                let mut acc = row0[0].as_tensor().clone();
                for hv in &row0[1..] {
                    acc = acc.add(hv.as_tensor())?;
                }
                for hv in row {
                    acc = acc.sub(hv.as_tensor())?;
                }
                Hypervector::from_tensor(nsai_vsa::VsaModel::Hrr, acc)?
            }
        })
    }

    /// Solve one component problem. Returns (per-candidate
    /// log-likelihoods, rule hits).
    fn solve(&mut self, problem: &RpmProblem) -> Result<(Vec<f32>, usize), WorkloadError> {
        // ---------------- Neural frontend ----------------
        let mut context_pmfs = Vec::with_capacity(problem.context().len());
        for panel in problem.context() {
            context_pmfs.push(self.perception.infer_pmfs(panel)?);
        }
        let mut candidate_pmfs = Vec::with_capacity(problem.candidates.len());
        for panel in &problem.candidates {
            candidate_pmfs.push(self.perception.infer_pmfs(panel)?);
        }
        self.solve_with_pmfs(problem, context_pmfs, candidate_pmfs)
    }

    /// The symbolic backend of [`Nvsa::solve`], taking already-perceived
    /// PMFs. Split out so a request batch can run one shared perception
    /// forward over every panel ([`Perception::infer_pmfs_batch`]) and
    /// feed the slices through here per problem.
    fn solve_with_pmfs(
        &mut self,
        problem: &RpmProblem,
        context_pmfs: Vec<Vec<Vec<f32>>>,
        candidate_pmfs: Vec<Vec<Vec<f32>>>,
    ) -> Result<(Vec<f32>, usize), WorkloadError> {
        let grid = problem.grid;
        // ---------------- Host→device boundary ----------------
        // The PMFs cross from the neural stage to the symbolic stage — on
        // the paper's testbed this is a CPU↔GPU transfer on the critical
        // path (Fig. 4).
        {
            let _sym = phase_scope(Phase::Symbolic);
            for pmfs in &context_pmfs {
                for pmf in pmfs {
                    let t = Tensor::from_vec(pmf.clone(), &[pmf.len()])?;
                    let _ = t.stage_transfer(TransferDirection::HostToDevice);
                }
            }
        }

        // ---------------- Symbolic backend ----------------
        let _sym = phase_scope(Phase::Symbolic);
        // Prune negligible probability mass before entering vector space:
        // this is what keeps the PMF→VSA transform sparse (Fig. 5) and the
        // superposition clean.
        let context_pmfs: Vec<Vec<Vec<f32>>> = context_pmfs
            .iter()
            .map(|pmfs| {
                pmfs.iter()
                    .map(|pmf| threshold_pmf(pmf, 0.02))
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<_, _>>()?;
        let mut predicted_pmfs: Vec<Vec<f32>> = Vec::with_capacity(5);
        let mut rule_hits = 0usize;
        for attr in 0..5 {
            // PMF -> VSA for every context panel.
            let mut encoded: Vec<Hypervector> = Vec::with_capacity(context_pmfs.len());
            for pmfs in &context_pmfs {
                self.record_sparsity("pmf_to_vsa", attr, &pmfs[attr]);
                encoded.push(self.codebooks[attr].encode_pmf(&pmfs[attr])?);
            }
            let rows: Vec<&[Hypervector]> = encoded.chunks(grid).collect();
            let row0_full: Vec<Hypervector> = rows[0].to_vec();

            // Probabilistic abduction intermediate: the joint PMF tensor
            // of the last row's known panels (the `prob_compute` module of
            // Fig. 5).
            {
                let last_known = &context_pmfs[(grid - 1) * grid];
                let second = context_pmfs
                    .get((grid - 1) * grid + 1)
                    .unwrap_or(&context_pmfs[(grid - 1) * grid]);
                let a = Tensor::from_vec(last_known[attr].clone(), &[last_known[attr].len()])?;
                let b = Tensor::from_vec(second[attr].clone(), &[second[attr].len()])?;
                let joint = a.outer(&b)?;
                self.record_sparsity("prob_compute", attr, joint.data());
            }

            // Sequential rule detection: score each hypothesis on the
            // complete rows.
            let mut best: (f32, RuleKind) = (f32::NEG_INFINITY, RuleKind::Constant);
            for rule in RuleKind::candidates(grid) {
                let mut score = 0.0f32;
                let mut scored_rows = 0usize;
                for row in rows.iter().take(grid - 1) {
                    let known = &row[..grid - 1];
                    let pred = self.predict(rule, attr, known, &row0_full)?;
                    score += pred.similarity(&row[grid - 1])?;
                    scored_rows += 1;
                }
                let score = score / scored_rows.max(1) as f32;
                if score > best.0 {
                    best = (score, rule);
                }
            }
            if best.1.matches(&problem.rules[attr]) {
                rule_hits += 1;
            }

            // Rule execution on the incomplete last row.
            let last_row_known = &rows[grid - 1][..grid - 1];
            let predicted = self.predict(best.1, attr, last_row_known, &row0_full)?;

            // VSA -> PMF, with cleanup: similarity readout against the
            // codebook carries crosstalk noise of order 1/sqrt(d), which
            // the cleanup stage prunes before execution.
            let pmf = threshold_pmf(&self.codebooks[attr].decode_pmf(&predicted)?, 0.05)?;
            self.record_sparsity("vsa_to_pmf", attr, &pmf);
            predicted_pmfs.push(pmf);
        }

        // Answer selection: log-likelihood of each candidate under the
        // predicted PMFs (executed in probability space).
        let mut lls = Vec::with_capacity(candidate_pmfs.len());
        for pmfs in &candidate_pmfs {
            let mut ll = 0.0f32;
            for attr in 0..5 {
                // Dot the candidate's perceived PMF with the prediction.
                let cand = Tensor::from_vec(pmfs[attr].clone(), &[pmfs[attr].len()])?;
                let pred =
                    Tensor::from_vec(predicted_pmfs[attr].clone(), &[predicted_pmfs[attr].len()])?;
                let agreement = cand.dot(&pred)?;
                ll += (agreement + 1e-6).ln();
            }
            lls.push(ll);
        }
        Ok((lls, rule_hits))
    }
}

impl Workload for Nvsa {
    fn name(&self) -> &'static str {
        "nvsa"
    }

    fn category(&self) -> NsCategory {
        NsCategory::NeuroPipeSymbolic
    }

    fn prepare(&mut self) -> Result<(), WorkloadError> {
        self.prepare_impl()
    }

    fn run_case(&mut self, input: &CaseInput) -> Result<WorkloadOutput, WorkloadError> {
        self.prepare()?;
        self.register_storage_footprints();
        self.sparsity.clear();
        let mut generator = RpmGenerator::new(input.derive_seed(self.config.seed + 7));
        let mut correct = 0usize;
        let mut rule_hits = 0usize;
        let problems = self.config.problems;
        let components = self.config.components.max(1);
        for _ in 0..problems {
            let parts = generator.generate_composite(self.config.grid, components);
            // Each component's evidence combines multiplicatively (log-sum)
            // over the shared candidate slots.
            let mut combined = vec![0.0f32; parts[0].candidates.len()];
            for part in &parts {
                let (lls, hits) = self.solve(part)?;
                for (acc, ll) in combined.iter_mut().zip(&lls) {
                    *acc += ll;
                }
                rule_hits += hits;
            }
            if Self::select_answer(&combined) == parts[0].answer {
                correct += 1;
            }
        }
        Ok(Self::episode_output(
            correct, rule_hits, problems, components,
        ))
    }

    /// Batched episodes share one neural forward: every panel of every
    /// problem of every request goes through a single
    /// [`Perception::infer_pmfs_batch`] call, then each problem's slice
    /// feeds the sequential symbolic backend. Per-panel PMFs are
    /// bitwise-identical to the per-case path, so each output matches the
    /// corresponding `run_case` exactly.
    fn run_batch(&mut self, inputs: &[CaseInput]) -> Vec<Result<WorkloadOutput, WorkloadError>> {
        if let Some(failed) = crate::workload::batch_failpoint("workloads::nvsa::run_batch", inputs)
        {
            return failed;
        }
        if inputs.len() <= 1 || self.prepare().is_err() {
            return inputs.iter().map(|i| self.run_case(i)).collect();
        }
        self.register_storage_footprints();
        self.sparsity.clear();
        let problems = self.config.problems;
        let components = self.config.components.max(1);
        // Generate every case's problems, flattening all panels into one
        // perception batch (context panels first, then candidates, per
        // part).
        let mut cases: Vec<Vec<Vec<RpmProblem>>> = Vec::with_capacity(inputs.len());
        let mut panels = Vec::new();
        for input in inputs {
            let mut generator = RpmGenerator::new(input.derive_seed(self.config.seed + 7));
            let case: Vec<Vec<RpmProblem>> = (0..problems)
                .map(|_| generator.generate_composite(self.config.grid, components))
                .collect();
            for parts in &case {
                for part in parts {
                    panels.extend_from_slice(part.context());
                    panels.extend_from_slice(&part.candidates);
                }
            }
            cases.push(case);
        }
        let all_pmfs = match self.perception.infer_pmfs_batch(&panels) {
            Ok(p) => p,
            // A perception failure would hit every case identically; let
            // the per-case path surface it per request.
            Err(_) => return inputs.iter().map(|i| self.run_case(i)).collect(),
        };
        let mut cursor = all_pmfs.into_iter();
        cases
            .into_iter()
            .map(|case| {
                let mut correct = 0usize;
                let mut rule_hits = 0usize;
                for parts in &case {
                    let mut combined = vec![0.0f32; parts[0].candidates.len()];
                    for part in parts {
                        let context_pmfs: Vec<_> =
                            cursor.by_ref().take(part.context().len()).collect();
                        let candidate_pmfs: Vec<_> =
                            cursor.by_ref().take(part.candidates.len()).collect();
                        let (lls, hits) =
                            self.solve_with_pmfs(part, context_pmfs, candidate_pmfs)?;
                        for (acc, ll) in combined.iter_mut().zip(&lls) {
                            *acc += ll;
                        }
                        rule_hits += hits;
                    }
                    if Self::select_answer(&combined) == parts[0].answer {
                        correct += 1;
                    }
                }
                Ok(Self::episode_output(
                    correct, rule_hits, problems, components,
                ))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsai_core::Profiler;

    fn oracle_config(grid: usize, problems: usize) -> NvsaConfig {
        NvsaConfig {
            grid,
            dim: 1024,
            res: 16,
            mode: PerceptionMode::Oracle { noise: 0.02 },
            problems,
            components: 1,
            seed: 11,
        }
    }

    #[test]
    fn solves_rpm_with_oracle_perception() {
        let mut nvsa = Nvsa::new(oracle_config(3, 4));
        let out = nvsa.run().unwrap();
        assert!(
            out.metric("accuracy").unwrap() >= 0.75,
            "accuracy {:?}",
            out.metric("accuracy")
        );
        assert!(
            out.metric("rule_detection_accuracy").unwrap() >= 0.6,
            "rules {:?}",
            out.metric("rule_detection_accuracy")
        );
    }

    #[test]
    fn solves_multi_component_problems() {
        // Two independent rule systems per problem (Left-Right-style
        // RAVEN configuration): evidence combines across components.
        let mut nvsa = Nvsa::new(NvsaConfig {
            components: 2,
            ..oracle_config(3, 3)
        });
        let out = nvsa.run().unwrap();
        assert!(
            out.metric("accuracy").unwrap() >= 0.66,
            "accuracy {:?}",
            out.metric("accuracy")
        );
    }

    #[test]
    fn solves_grid2_problems() {
        let mut nvsa = Nvsa::new(oracle_config(2, 4));
        let out = nvsa.run().unwrap();
        assert!(out.metric("accuracy").unwrap() >= 0.75);
    }

    #[test]
    #[ignore = "paper-scale run takes minutes; opt in with --ignored"]
    fn paper_scale_run_is_symbolic_dominated() {
        let mut nvsa = Nvsa::new(NvsaConfig::paper_scale());
        nvsa.prepare().unwrap();
        let profiler = Profiler::new();
        let out = {
            let _a = profiler.activate();
            nvsa.run().unwrap()
        };
        assert!(out.metric("accuracy").unwrap() >= 0.75);
        let report = profiler.report_for("nvsa");
        assert!(report.phase_fraction(Phase::Symbolic) > 0.8);
    }

    #[test]
    fn neural_perception_rule_detection_beats_chance() {
        // Full pipeline with *trained* perception (no oracle). The linear
        // probes on a small frozen ConvNet are far from the accuracy of
        // NVSA's trained ResNet frontend, so end-to-end answer selection
        // (which compounds attribute errors over 16 perceived panels) is
        // not the robust signal here — rule abduction is: it must beat
        // its 1-in-7 chance level clearly.
        let mut nvsa = Nvsa::new(NvsaConfig {
            grid: 3,
            dim: 1024,
            res: 16,
            mode: PerceptionMode::Neural,
            problems: 8,
            components: 1,
            seed: 13,
        });
        let out = nvsa.run().unwrap();
        let rules = out.metric("rule_detection_accuracy").unwrap();
        assert!(
            rules > 0.22,
            "rule detection {rules} not above chance (1/7)"
        );
    }

    #[test]
    fn symbolic_phase_dominates_runtime() {
        let mut nvsa = Nvsa::new(oracle_config(3, 1));
        nvsa.prepare().unwrap();
        let profiler = Profiler::new();
        {
            let _a = profiler.activate();
            let _ = nvsa.run().unwrap();
        }
        let report = profiler.report_for("nvsa");
        let sym = report.phase_fraction(Phase::Symbolic);
        assert!(sym > 0.5, "symbolic fraction {sym}");
    }

    #[test]
    fn sparsity_records_cover_modules_and_attributes() {
        let mut nvsa = Nvsa::new(oracle_config(3, 1));
        let _ = nvsa.run().unwrap();
        let records = nvsa.sparsity_records();
        for module in ["pmf_to_vsa", "prob_compute", "vsa_to_pmf"] {
            let count = records.iter().filter(|r| r.module == module).count();
            assert_eq!(count, 5, "module {module} missing attributes");
        }
        // Oracle PMFs are nearly one-hot: high sparsity as in Fig. 5.
        for r in records.iter().filter(|r| r.module == "pmf_to_vsa") {
            assert!(r.stats.sparsity() > 0.7, "{}: {}", r.attribute, r.stats);
        }
    }

    #[test]
    fn batch_outputs_match_per_case_runs() {
        // Trained (non-oracle) perception so the shared batched forward is
        // actually exercised; bitwise equality pins batching as a pure
        // scheduling optimization.
        let config = NvsaConfig {
            grid: 3,
            dim: 512,
            res: 16,
            mode: PerceptionMode::Neural,
            problems: 1,
            components: 1,
            seed: 21,
        };
        let mut batch_instance = Nvsa::new(config.clone());
        let mut single_instance = Nvsa::new(config);
        let inputs: Vec<CaseInput> = (0..3).map(CaseInput::new).collect();
        let batched = batch_instance.run_batch(&inputs);
        for (input, batched) in inputs.iter().zip(&batched) {
            let single = single_instance.run_case(input).unwrap();
            let batched = batched.as_ref().unwrap();
            for ((name, s), (_, b)) in single.metrics().zip(batched.metrics()) {
                assert_eq!(
                    s.to_bits(),
                    b.to_bits(),
                    "case {} metric {name}",
                    input.case
                );
            }
        }
    }

    #[test]
    fn case_zero_matches_legacy_run() {
        let mut a = Nvsa::new(oracle_config(3, 2));
        let mut b = Nvsa::new(oracle_config(3, 2));
        assert_eq!(a.run().unwrap(), b.run_case(&CaseInput::new(0)).unwrap());
        // Distinct cases draw distinct problem sets from the generator.
        let c5 = b.run_case(&CaseInput::new(5)).unwrap();
        let c5_again = b.run_case(&CaseInput::new(5)).unwrap();
        assert_eq!(c5, c5_again, "cases must be reproducible");
    }

    #[test]
    fn category_and_name() {
        let nvsa = Nvsa::new(NvsaConfig::small());
        assert_eq!(nvsa.name(), "nvsa");
        assert_eq!(nvsa.category(), NsCategory::NeuroPipeSymbolic);
    }
}
