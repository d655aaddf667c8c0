//! LNN — Logical Neural Network (Sec. III-B).
//!
//! LNN compiles logical formulas into a neuron graph with a one-to-one
//! correspondence between neurons and logical connectives, carries
//! `[lower, upper]` truth bounds instead of activations, and runs
//! **bidirectional** (omnidirectional) inference: an *upward* pass
//! evaluates each connective neuron from its children under Łukasiewicz
//! semantics, and a *downward* pass tightens children's bounds from
//! asserted formula truths. The upward pass is the neural component —
//! batched gather/element-wise tensor work over the neuron arrays — and
//! the downward pass plus theorem-prover queries form the symbolic
//! component, with the bound arrays copied between passes (the
//! bidirectional data movement the paper singles out for LNN).

use crate::error::WorkloadError;
use crate::workload::{CaseInput, Workload, WorkloadOutput};
use nsai_core::profile::{self, phase_scope, OpMeta};
use nsai_core::taxonomy::{NsCategory, OpCategory, Phase};
use nsai_data::logic_kb::{lnn_theory, university_kb, FormulaTree, UniversityConfig};
use nsai_logic::bounds::TruthBounds;
use nsai_logic::kb::{KnowledgeBase, Rule};
use nsai_logic::term::{Atom, Term};
use nsai_tensor::Tensor;
use std::collections::BTreeMap;

/// A neuron in the compiled graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Neuron {
    /// Proposition leaf (index into the proposition table).
    Leaf(usize),
    Not(usize),
    And(usize, usize),
    Or(usize, usize),
    Implies(usize, usize),
}

/// A connective kind the upward pass evaluates as one batch.
#[derive(Debug, Clone, Copy)]
enum Connective {
    Not,
    And,
    Or,
    Implies,
}

/// One connective's upward batch: its neuron ids in construction order
/// and their left and right children (a negation's only child is on
/// both sides).
#[derive(Debug)]
struct GatherPlan {
    kind: Connective,
    ids: Vec<usize>,
    left: Vec<usize>,
    right: Vec<usize>,
}

impl GatherPlan {
    /// The four plans, in the order the upward pass runs them.
    fn build(neurons: &[Neuron]) -> Vec<GatherPlan> {
        [
            Connective::Not,
            Connective::And,
            Connective::Or,
            Connective::Implies,
        ]
        .into_iter()
        .map(|kind| {
            let mut plan = GatherPlan {
                kind,
                ids: Vec::new(),
                left: Vec::new(),
                right: Vec::new(),
            };
            for (id, neuron) in neurons.iter().enumerate() {
                let children = match (kind, *neuron) {
                    (Connective::Not, Neuron::Not(a)) => (a, a),
                    (Connective::And, Neuron::And(a, b))
                    | (Connective::Or, Neuron::Or(a, b))
                    | (Connective::Implies, Neuron::Implies(a, b)) => (a, b),
                    _ => continue,
                };
                plan.ids.push(id);
                plan.left.push(children.0);
                plan.right.push(children.1);
            }
            plan
        })
        .collect()
    }
}

/// LNN configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LnnConfig {
    /// Number of propositions in the theory.
    pub propositions: usize,
    /// Number of formula trees.
    pub formulas: usize,
    /// Maximum formula depth.
    pub depth: usize,
    /// Maximum inference iterations.
    pub max_iterations: usize,
    /// Seed.
    pub seed: u64,
}

impl LnnConfig {
    /// Small config used by the cross-workload harnesses.
    pub fn small() -> Self {
        LnnConfig {
            propositions: 64,
            formulas: 96,
            depth: 6,
            max_iterations: 12,
            seed: 44,
        }
    }
}

/// The LNN workload.
#[derive(Debug)]
pub struct Lnn {
    config: LnnConfig,
    neurons: Vec<Neuron>,
    /// Per-neuron Łukasiewicz weights `(w_left, w_right, beta)`. The
    /// defaults `(1, 1, 1)` recover the unweighted connectives; lowering
    /// an input weight makes the neuron tolerant to that input's
    /// uncertainty — LNN's "weighted real-valued logic".
    weights: Vec<(f32, f32, f32)>,
    /// The upward pass's per-connective batches, built once.
    plans: Vec<GatherPlan>,
    roots: Vec<usize>,
    observations: Vec<(usize, f64)>,
    leaf_of_prop: BTreeMap<usize, usize>,
    /// The theorem prover's case-independent knowledge base, built once.
    kb: KnowledgeBase,
}

impl Lnn {
    /// Compile a random theory into the neuron graph.
    pub fn new(config: LnnConfig) -> Self {
        let theory = lnn_theory(
            config.propositions,
            config.formulas,
            config.depth,
            config.seed,
        );
        let mut neurons = Vec::new();
        let mut leaf_of_prop: BTreeMap<usize, usize> = BTreeMap::new();
        let mut roots = Vec::new();
        for formula in &theory.formulas {
            let root = compile(formula, &mut neurons, &mut leaf_of_prop);
            roots.push(root);
        }
        Lnn::assemble(config, neurons, roots, theory.observations, leaf_of_prop)
    }

    /// Build a replica's per-instance state around a compiled graph: unit
    /// weights, the gather plans and the theorem prover's KB.
    fn assemble(
        config: LnnConfig,
        neurons: Vec<Neuron>,
        roots: Vec<usize>,
        observations: Vec<(usize, f64)>,
        leaf_of_prop: BTreeMap<usize, usize>,
    ) -> Self {
        Lnn {
            config,
            weights: vec![(1.0, 1.0, 1.0); neurons.len()],
            plans: GatherPlan::build(&neurons),
            neurons,
            roots,
            observations,
            leaf_of_prop,
            kb: university_theory(config.seed),
        }
    }

    /// Override one neuron's Łukasiewicz weights `(w_left, w_right, beta)`.
    ///
    /// # Panics
    ///
    /// Panics for out-of-range ids or non-positive weights.
    #[cfg(test)]
    fn set_weights(&mut self, neuron: usize, w_left: f32, w_right: f32, beta: f32) {
        assert!(neuron < self.neurons.len(), "neuron id out of range");
        assert!(
            w_left > 0.0 && w_right > 0.0 && beta > 0.0,
            "weights must be positive"
        );
        self.weights[neuron] = (w_left, w_right, beta);
    }

    /// Upward pass, batched per connective type with tensor kernels.
    /// `lower`/`upper` are `[n, 1]` bound arrays. Returns the largest
    /// bound change.
    fn upward_pass(&self, lower: &mut Tensor, upper: &mut Tensor) -> Result<f32, WorkloadError> {
        let _neural = phase_scope(Phase::Neural);
        // Process in topological (construction) order so children are
        // fresh; batch each connective kind.
        let mut max_delta = 0.0f32;
        for plan in &self.plans {
            let ids = &plan.ids;
            if ids.is_empty() {
                continue;
            }
            let l_lo = lower.gather_rows(&plan.left)?;
            let l_hi = upper.gather_rows(&plan.left)?;
            let r_lo = lower.gather_rows(&plan.right)?;
            let r_hi = upper.gather_rows(&plan.right)?;
            // Per-neuron weight columns for this batch.
            let k = ids.len();
            let w_l = Tensor::from_vec(ids.iter().map(|&i| self.weights[i].0).collect(), &[k, 1])?;
            let w_r = Tensor::from_vec(ids.iter().map(|&i| self.weights[i].1).collect(), &[k, 1])?;
            let beta = Tensor::from_vec(ids.iter().map(|&i| self.weights[i].2).collect(), &[k, 1])?;
            // Weighted Łukasiewicz neurons (Riegel et al.):
            //   AND_w(a, b) = clamp(β − w_l(1−a) − w_r(1−b))
            //   OR_w(a, b)  = clamp(1 − β + w_l·a + w_r·b)
            //   a →_w b     = clamp(1 − β + w_l(1−a) + w_r·b)
            // Defaults (1, 1, 1) recover the unweighted forms.
            let and_w = |a: &Tensor, b: &Tensor| -> Result<Tensor, WorkloadError> {
                Ok(beta
                    .sub(&w_l.mul(&a.neg().add_scalar(1.0))?)?
                    .sub(&w_r.mul(&b.neg().add_scalar(1.0))?)?
                    .clamp(0.0, 1.0))
            };
            let or_w = |a: &Tensor, b: &Tensor| -> Result<Tensor, WorkloadError> {
                Ok(beta
                    .neg()
                    .add_scalar(1.0)
                    .add(&w_l.mul(a)?)?
                    .add(&w_r.mul(b)?)?
                    .clamp(0.0, 1.0))
            };
            let implies_w = |a: &Tensor, b: &Tensor| -> Result<Tensor, WorkloadError> {
                Ok(beta
                    .neg()
                    .add_scalar(1.0)
                    .add(&w_l.mul(&a.neg().add_scalar(1.0))?)?
                    .add(&w_r.mul(b)?)?
                    .clamp(0.0, 1.0))
            };
            let (new_lo, new_hi) = match plan.kind {
                Connective::Not => (l_hi.neg().add_scalar(1.0), l_lo.neg().add_scalar(1.0)),
                Connective::And => (and_w(&l_lo, &r_lo)?, and_w(&l_hi, &r_hi)?),
                Connective::Or => (or_w(&l_lo, &r_lo)?, or_w(&l_hi, &r_hi)?),
                // Implication is antitone in the antecedent: the lower
                // bound uses the antecedent's upper bound and vice versa.
                Connective::Implies => (implies_w(&l_hi, &r_lo)?, implies_w(&l_lo, &r_hi)?),
            };
            // Scatter back, tracking convergence.
            for (row, &id) in ids.iter().enumerate() {
                let delta = (lower.data()[id] - new_lo.data()[row]).abs()
                    + (upper.data()[id] - new_hi.data()[row]).abs();
                if delta > max_delta {
                    max_delta = delta;
                }
                lower.data_mut()[id] = new_lo.data()[row];
                upper.data_mut()[id] = new_hi.data()[row];
            }
        }
        Ok(max_delta)
    }

    /// Downward pass: assert each formula root true and tighten children.
    /// Returns the number of contradictions met.
    fn downward_pass(&self, lower: &mut Tensor, upper: &mut Tensor) -> usize {
        // Bidirectional dataflow: the bound arrays are staged back from
        // the neural pass before symbolic tightening (LNN's data-movement
        // signature).
        let _staged_lower = lower.duplicate();
        let _staged_upper = upper.duplicate();
        let (lo, hi) = (lower.data_mut(), upper.data_mut());
        let get = |lo: &[f32], hi: &[f32], id: usize| {
            let l = lo[id].clamp(0.0, 1.0);
            TruthBounds::new(f64::from(l), f64::from(hi[id].clamp(0.0, 1.0).max(l)))
                .expect("clamped bounds are valid")
        };
        profile::time_op_with("bound_tighten", OpCategory::Other, || {
            let mut contradictions = 0usize;
            let mut visited = 0u64;
            // Stack of (node, target bounds), shared by every root.
            let mut stack = Vec::new();
            for &root in &self.roots {
                stack.push((root, TruthBounds::proven_true()));
                while let Some((id, target)) = stack.pop() {
                    visited += 1;
                    let (tightened, contradiction) = get(lo, hi, id).tighten(&target);
                    if contradiction {
                        contradictions += 1;
                    }
                    lo[id] = tightened.lower() as f32;
                    hi[id] = tightened.upper() as f32;
                    match self.neurons[id] {
                        Neuron::Leaf(_) => {}
                        Neuron::Not(a) => {
                            stack.push((a, tightened.negate()));
                        }
                        Neuron::And(a, b) => {
                            let (ba, bb) = (get(lo, hi, a), get(lo, hi, b));
                            stack.push((a, TruthBounds::and_down(&tightened, &bb)));
                            stack.push((b, TruthBounds::and_down(&tightened, &ba)));
                        }
                        Neuron::Or(a, b) => {
                            let (ba, bb) = (get(lo, hi, a), get(lo, hi, b));
                            stack.push((a, TruthBounds::or_down(&tightened, &bb)));
                            stack.push((b, TruthBounds::or_down(&tightened, &ba)));
                        }
                        Neuron::Implies(a, b) => {
                            // Modus ponens tightens the consequent only; the
                            // antecedent keeps its bounds.
                            let ba = get(lo, hi, a);
                            stack.push((b, TruthBounds::modus_ponens(&tightened, &ba)));
                        }
                    }
                }
            }
            let meta = OpMeta::new()
                .flops(visited * 4)
                .bytes_read(visited * 16)
                .bytes_written(visited * 8)
                .output_elems(self.neurons.len() as u64);
            (contradictions, meta)
        })
    }

    /// The theorem-prover side: chase the replica's LUBM-flavoured KB
    /// with its derivation rules (run in the symbolic phase).
    fn theorem_prover(&self) -> usize {
        self.kb.forward_chain(4).len()
    }

    /// The observation set for one episode. Case 0 keeps the theory's own
    /// observations (the canonical pre-serving episode); other cases keep
    /// the observed propositions but resample their truth values from a
    /// per-case stream, so each request poses a distinct query against
    /// the same compiled neuron graph.
    fn case_observations(&self, input: &CaseInput) -> Vec<(usize, f64)> {
        if input.case == 0 {
            return self.observations.clone();
        }
        use rand::{Rng, SeedableRng, StdRng};
        let mut rng =
            StdRng::seed_from_u64(input.derive_seed(self.config.seed.wrapping_add(0x0B5)));
        self.observations
            .iter()
            .map(|&(prop, _)| (prop, f64::from(u8::from(rng.gen_bool(0.5)))))
            .collect()
    }

    /// Bidirectional inference for one episode. `derived` carries the
    /// theorem-prover fact count when the caller already chased the KB
    /// (the KB is case-independent, so a batch shares one chase);
    /// otherwise the chase runs here, after the bound loop, exactly as
    /// the standalone episode always has.
    fn infer_case(
        &mut self,
        input: &CaseInput,
        derived: Option<usize>,
    ) -> Result<WorkloadOutput, WorkloadError> {
        let n = self.neurons.len();
        let observations = self.case_observations(input);
        // Initialize bounds: unknown everywhere, observations pinned.
        let mut lower = Tensor::zeros(&[n, 1]);
        let mut upper = Tensor::ones(&[n, 1]);
        for &(prop, truth) in &observations {
            if let Some(&leaf) = self.leaf_of_prop.get(&prop) {
                lower.data_mut()[leaf] = truth as f32;
                upper.data_mut()[leaf] = truth as f32;
            }
        }

        let mut iterations = 0usize;
        let mut contradictions = 0usize;
        for _ in 0..self.config.max_iterations {
            iterations += 1;
            let delta_up = self.upward_pass(&mut lower, &mut upper)?;
            contradictions += {
                let _sym = phase_scope(Phase::Symbolic);
                self.downward_pass(&mut lower, &mut upper)
            };
            // Re-pin observations (they are ground truth).
            for &(prop, truth) in &observations {
                if let Some(&leaf) = self.leaf_of_prop.get(&prop) {
                    lower.data_mut()[leaf] = truth as f32;
                    upper.data_mut()[leaf] = truth as f32;
                }
            }
            if delta_up < 1e-6 {
                break;
            }
        }

        // Theorem-prover query load (symbolic), unless the batch already
        // chased the shared KB.
        let derived = match derived {
            Some(d) => d,
            None => {
                let _sym = phase_scope(Phase::Symbolic);
                self.theorem_prover()
            }
        };

        let resolved = (0..n)
            .filter(|&i| (upper.data()[i] - lower.data()[i]) < 0.05)
            .count();
        let mut out = WorkloadOutput::new();
        out.set("iterations", iterations as f64);
        out.set("neurons", n as f64);
        out.set("resolved_fraction", resolved as f64 / n as f64);
        out.set("contradictions", contradictions as f64);
        out.set("kb_derived_facts", derived as f64);
        Ok(out)
    }
}

/// The theorem prover's LUBM-flavoured knowledge base: one department's
/// facts and two join rules.
fn university_theory(seed: u64) -> KnowledgeBase {
    let uni = university_kb(
        UniversityConfig {
            departments: 1,
            professors_per_dept: 2,
            students_per_dept: 5,
            courses_per_dept: 3,
        },
        seed,
    );
    let mut kb = KnowledgeBase::new();
    for (p, e) in &uni.unary {
        kb.add_fact(Atom::prop1(p.clone(), e.clone()));
    }
    for (p, s, o) in &uni.binary {
        kb.add_fact(Atom::prop2(p.clone(), s.clone(), o.clone()));
    }
    // colleague(X, Y) :- works_for(X, D), works_for(Y, D).
    kb.add_rule(Rule::new(
        Atom::new("colleague", vec![Term::var("X"), Term::var("Y")]),
        vec![
            Atom::new("works_for", vec![Term::var("X"), Term::var("D")]),
            Atom::new("works_for", vec![Term::var("Y"), Term::var("D")]),
        ],
    ));
    // taught_by(S, P) :- enrolled(S, C), teaches(P, C).
    kb.add_rule(Rule::new(
        Atom::new("taught_by", vec![Term::var("S"), Term::var("P")]),
        vec![
            Atom::new("enrolled", vec![Term::var("S"), Term::var("C")]),
            Atom::new("teaches", vec![Term::var("P"), Term::var("C")]),
        ],
    ));
    kb
}

/// Flatten a formula tree into the neuron array, sharing leaves.
fn compile(
    formula: &FormulaTree,
    neurons: &mut Vec<Neuron>,
    leaf_of_prop: &mut BTreeMap<usize, usize>,
) -> usize {
    match formula {
        FormulaTree::Leaf(p) => *leaf_of_prop.entry(*p).or_insert_with(|| {
            neurons.push(Neuron::Leaf(*p));
            neurons.len() - 1
        }),
        FormulaTree::Not(a) => {
            let ca = compile(a, neurons, leaf_of_prop);
            neurons.push(Neuron::Not(ca));
            neurons.len() - 1
        }
        FormulaTree::And(a, b) => {
            let (ca, cb) = (
                compile(a, neurons, leaf_of_prop),
                compile(b, neurons, leaf_of_prop),
            );
            neurons.push(Neuron::And(ca, cb));
            neurons.len() - 1
        }
        FormulaTree::Or(a, b) => {
            let (ca, cb) = (
                compile(a, neurons, leaf_of_prop),
                compile(b, neurons, leaf_of_prop),
            );
            neurons.push(Neuron::Or(ca, cb));
            neurons.len() - 1
        }
        FormulaTree::Implies(a, b) => {
            let (ca, cb) = (
                compile(a, neurons, leaf_of_prop),
                compile(b, neurons, leaf_of_prop),
            );
            neurons.push(Neuron::Implies(ca, cb));
            neurons.len() - 1
        }
    }
}

impl Workload for Lnn {
    fn name(&self) -> &'static str {
        "lnn"
    }

    fn category(&self) -> NsCategory {
        NsCategory::NeuroSymbolicToNeuro
    }

    fn run_case(&mut self, input: &CaseInput) -> Result<WorkloadOutput, WorkloadError> {
        self.infer_case(input, None)
    }

    /// A batch shares one theorem-prover chase: the LUBM-style KB depends
    /// only on the workload configuration, not the episode, so its fact
    /// count is identical for every request in the batch — the outputs
    /// stay bitwise-equal to per-case runs while the symbolic chase cost
    /// is paid once.
    fn run_batch(&mut self, inputs: &[CaseInput]) -> Vec<Result<WorkloadOutput, WorkloadError>> {
        if let Some(failed) = crate::workload::batch_failpoint("workloads::lnn::run_batch", inputs)
        {
            return failed;
        }
        if inputs.len() <= 1 {
            return inputs.iter().map(|i| self.run_case(i)).collect();
        }
        let derived = {
            let _sym = phase_scope(Phase::Symbolic);
            self.theorem_prover()
        };
        inputs
            .iter()
            .map(|input| self.infer_case(input, Some(derived)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsai_core::Profiler;

    #[test]
    fn compiles_shared_leaves() {
        let lnn = Lnn::new(LnnConfig {
            propositions: 5,
            formulas: 10,
            depth: 4,
            max_iterations: 5,
            seed: 1,
        });
        // At most 5 leaf neurons despite 10 formulas.
        let leaves = lnn
            .neurons
            .iter()
            .filter(|n| matches!(n, Neuron::Leaf(_)))
            .count();
        assert!(leaves <= 5);
        assert_eq!(lnn.roots.len(), 10);
    }

    #[test]
    fn run_converges_and_resolves_some_bounds() {
        let mut lnn = Lnn::new(LnnConfig::small());
        let out = lnn.run().unwrap();
        assert!(out.metric("iterations").unwrap() >= 1.0);
        assert!(out.metric("resolved_fraction").unwrap() > 0.0);
        assert!(out.metric("kb_derived_facts").unwrap() > 15.0);
    }

    #[test]
    fn upward_pass_computes_lukasiewicz_and() {
        // Single formula: And(p0, p1) with p0=1, p1=1.
        let mut neurons = Vec::new();
        let mut leaves = BTreeMap::new();
        let tree = FormulaTree::And(
            Box::new(FormulaTree::Leaf(0)),
            Box::new(FormulaTree::Leaf(1)),
        );
        let root = compile(&tree, &mut neurons, &mut leaves);
        let lnn = Lnn::assemble(LnnConfig::small(), neurons, vec![root], vec![], leaves);
        let n = lnn.neurons.len();
        let mut lower = Tensor::zeros(&[n, 1]);
        let mut upper = Tensor::ones(&[n, 1]);
        lower.data_mut()[0] = 1.0;
        lower.data_mut()[1] = 1.0;
        lnn.upward_pass(&mut lower, &mut upper).unwrap();
        assert_eq!(lower.data()[root], 1.0);
        assert_eq!(upper.data()[root], 1.0);
    }

    #[test]
    fn weighted_and_tolerates_uncertain_input() {
        // AND(p0, p1) with p1 uncertain (0.5): unweighted gives 0.5; with
        // w_right lowered, the neuron tolerates the weak input — LNN's
        // "resilience to incomplete knowledge".
        let mut neurons = Vec::new();
        let mut leaves = BTreeMap::new();
        let tree = FormulaTree::And(
            Box::new(FormulaTree::Leaf(0)),
            Box::new(FormulaTree::Leaf(1)),
        );
        let root = compile(&tree, &mut neurons, &mut leaves);
        let mut lnn = Lnn::assemble(LnnConfig::small(), neurons, vec![root], vec![], leaves);
        let n = lnn.neurons.len();
        let run = |lnn: &Lnn| {
            let mut lower = Tensor::zeros(&[n, 1]);
            let mut upper = Tensor::ones(&[n, 1]);
            lower.data_mut()[0] = 1.0; // p0 true
            lower.data_mut()[1] = 0.5; // p1 at least 0.5
            upper.data_mut()[1] = 0.5; // ... and at most 0.5
            lnn.upward_pass(&mut lower, &mut upper).unwrap();
            lower.data()[root]
        };
        let unweighted = run(&lnn);
        assert!((unweighted - 0.5).abs() < 1e-6);
        lnn.set_weights(root, 1.0, 0.2, 1.0);
        let weighted = run(&lnn);
        assert!((weighted - 0.9).abs() < 1e-6, "weighted {weighted}");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn set_weights_validates() {
        let mut lnn = Lnn::new(LnnConfig::small());
        lnn.set_weights(0, 0.0, 1.0, 1.0);
    }

    #[test]
    fn both_phases_are_exercised() {
        let mut lnn = Lnn::new(LnnConfig::small());
        let profiler = Profiler::new();
        {
            let _a = profiler.activate();
            let _ = lnn.run().unwrap();
        }
        let report = profiler.report_for("lnn");
        let neural = report.phase_fraction(Phase::Neural);
        let symbolic = report.phase_fraction(Phase::Symbolic);
        assert!(neural > 0.05, "neural {neural}");
        assert!(symbolic > 0.05, "symbolic {symbolic}");
        // LNN's signature: data movement shows up in the trace.
        assert!(report
            .ops()
            .iter()
            .any(|o| o.category == OpCategory::DataMovement));
    }

    #[test]
    fn distinct_cases_pose_distinct_queries() {
        let mut lnn = Lnn::new(LnnConfig::small());
        let base = lnn.run_case(&CaseInput::new(0)).unwrap();
        let legacy = lnn.run().unwrap();
        assert_eq!(base, legacy, "run() must remain case 0");
        // Some other case resolves a different bound set (observation
        // truths are resampled per case).
        let differs = (1..6).any(|c| {
            let out = lnn.run_case(&CaseInput::new(c)).unwrap();
            out.metric("resolved_fraction") != base.metric("resolved_fraction")
                || out.metric("contradictions") != base.metric("contradictions")
        });
        assert!(differs, "cases 1..6 all matched case 0");
        // And each case is reproducible.
        let again = lnn.run_case(&CaseInput::new(3)).unwrap();
        let once = lnn.run_case(&CaseInput::new(3)).unwrap();
        assert_eq!(again, once);
    }

    #[test]
    fn batch_outputs_match_per_case_runs() {
        let mut batch_instance = Lnn::new(LnnConfig::small());
        let mut single_instance = Lnn::new(LnnConfig::small());
        let inputs: Vec<CaseInput> = (0..4).map(CaseInput::new).collect();
        let batched = batch_instance.run_batch(&inputs);
        assert_eq!(batched.len(), inputs.len());
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
    fn category_and_name() {
        let lnn = Lnn::new(LnnConfig::small());
        assert_eq!(lnn.name(), "lnn");
        assert_eq!(lnn.category(), NsCategory::NeuroSymbolicToNeuro);
    }
}
