//! LTN — Logic Tensor Network (Sec. III-C).
//!
//! LTN grounds first-order fuzzy logic onto data: predicates become neural
//! networks over feature vectors, connectives become fuzzy operations on
//! their outputs, and quantifiers become p-mean aggregations. Training
//! maximizes the satisfaction of a set of axioms. The neural component is
//! MLP-dominated (MatMul, the paper's LTN observation); the symbolic
//! component evaluates the fuzzy connectives and quantifier aggregations
//! over the whole grounding — dense element-wise tensor work (LTN is the
//! *dense* outlier in the paper's sparsity analysis, Fig. 5 discussion).

use crate::error::WorkloadError;
use crate::workload::{CaseInput, Workload, WorkloadOutput};
use nsai_core::profile::{self, phase_scope, OpMeta};
use nsai_core::taxonomy::{NsCategory, OpCategory, Phase};
use nsai_data::tabular::BlobDataset;
use nsai_logic::fuzzy::{exists_pmean, forall_pmean_error};
use nsai_nn::layer::Layer;
use nsai_nn::loss;
use nsai_nn::optim::Adam;
use nsai_nn::Mlp;
use nsai_tensor::Tensor;

/// LTN configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LtnConfig {
    /// Number of classes (= predicates).
    pub classes: usize,
    /// Points per class.
    pub per_class: usize,
    /// Feature dimensionality.
    pub dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// p-mean exponent for quantifiers.
    pub p: f64,
    /// Seed.
    pub seed: u64,
}

impl LtnConfig {
    /// Small config used by the cross-workload harnesses.
    pub fn small() -> Self {
        LtnConfig {
            classes: 3,
            per_class: 40,
            dim: 4,
            epochs: 30,
            p: 2.0,
            seed: 45,
        }
    }
}

/// The LTN workload.
#[derive(Debug)]
pub struct Ltn {
    config: LtnConfig,
    predicates: Vec<Mlp>,
    dataset: BlobDataset,
}

impl Ltn {
    /// Build predicate networks and the grounding dataset.
    pub fn new(config: LtnConfig) -> Self {
        // Wide hidden layers: LTN's grounding networks are the MLP-heavy
        // neural component the paper observes (MatMul-dominated).
        let predicates = (0..config.classes)
            .map(|c| {
                Mlp::new(
                    &[config.dim, 64, 64, 1],
                    config.seed.wrapping_add(c as u64 * 71),
                )
            })
            .collect();
        let dataset = BlobDataset::generate(
            config.classes,
            config.per_class,
            config.dim,
            0.5,
            config.seed,
        );
        Ltn {
            config,
            predicates,
            dataset,
        }
    }

    /// Evaluate every predicate on every point: returns per-predicate
    /// truth columns `[n]` in `[0, 1]` (neural phase).
    fn ground_predicates(&mut self) -> Result<Vec<Tensor>, WorkloadError> {
        let _neural = phase_scope(Phase::Neural);
        let n = self.dataset.len();
        let mut truths = Vec::with_capacity(self.predicates.len());
        for predicate in &mut self.predicates {
            let logits = predicate.forward(&self.dataset.features);
            let t = logits.sigmoid().reshape(&[n])?;
            truths.push(t);
        }
        Ok(truths)
    }

    /// Evaluate the axiom satisfaction levels (symbolic phase):
    ///
    /// 1. `∀x ∈ class_c : P_c(x)` — each predicate holds on its class.
    /// 2. `∀x ∈ class_c : ¬P_d(x)` for `d ≠ c` — mutual exclusion.
    /// 3. `∀x : ∃c : P_c(x)` — exhaustiveness.
    ///
    /// Returns the aggregate satisfaction in `[0, 1]`.
    fn axiom_satisfaction(&self, truths: &[Tensor]) -> Result<f64, WorkloadError> {
        let _sym = phase_scope(Phase::Symbolic);
        profile::time_op_with("fuzzy_aggregate", OpCategory::Other, || {
            let mut aggregated: u64 = 0;
            let sats = self.satisfaction_levels(truths, &mut aggregated);
            let levels = sats.as_ref().map_or(0, Vec::len) as u64;
            let meta = OpMeta::new()
                .flops(3 * aggregated)
                .bytes_read(aggregated * 8)
                .bytes_written(levels * 8)
                .output_elems(levels);
            let overall = sats.map(|sats| sats.iter().copied().sum::<f64>() / sats.len() as f64);
            (overall, meta)
        })
    }

    /// The satisfaction level of every axiom instance, in evaluation
    /// order. Adds the number of truth values aggregated to `aggregated`.
    fn satisfaction_levels(
        &self,
        truths: &[Tensor],
        aggregated: &mut u64,
    ) -> Result<Vec<f64>, WorkloadError> {
        let p = self.config.p;
        let mut sats: Vec<f64> = Vec::new();
        for c in 0..self.config.classes {
            let members: Vec<usize> = (0..self.dataset.len())
                .filter(|&i| self.dataset.labels[i] == c)
                .collect();
            // Axiom 1.
            let own: Vec<f64> = members
                .iter()
                .map(|&i| truths[c].data()[i] as f64)
                .collect();
            *aggregated += own.len() as u64;
            sats.push(forall_pmean_error(&own, p).map_err(WorkloadError::Logic)?);
            // Axiom 2 (fuzzy negation on the other predicates).
            for (d, truth_d) in truths.iter().enumerate().take(self.config.classes) {
                if d == c {
                    continue;
                }
                let other: Vec<f64> = members
                    .iter()
                    .map(|&i| 1.0 - truth_d.data()[i] as f64)
                    .collect();
                *aggregated += other.len() as u64;
                sats.push(forall_pmean_error(&other, p).map_err(WorkloadError::Logic)?);
            }
        }
        // Axiom 3: for each point, ∃c P_c(x); then ∀ over points.
        let mut exists_per_point = Vec::with_capacity(self.dataset.len());
        for i in 0..self.dataset.len() {
            let options: Vec<f64> = truths.iter().map(|t| t.data()[i] as f64).collect();
            *aggregated += options.len() as u64;
            exists_per_point.push(exists_pmean(&options, p).map_err(WorkloadError::Logic)?);
        }
        sats.push(forall_pmean_error(&exists_per_point, p).map_err(WorkloadError::Logic)?);

        // Axiom 4 (relational): ∀x,y: P_c(x) ∧ P_c(y) → same_class_c(x,y),
        // evaluated as fuzzy tensor algebra over all n² pairs — this is
        // LTN's grounding of binary predicates, and the dense element-wise
        // load of its symbolic phase.
        let n = self.dataset.len();
        let same_c: Vec<Tensor> = (0..self.config.classes)
            .map(|c| {
                let ind: Vec<f32> = (0..n)
                    .map(|i| {
                        if self.dataset.labels[i] == c {
                            1.0
                        } else {
                            0.0
                        }
                    })
                    .collect();
                let v = Tensor::from_vec(ind, &[n])?;
                v.outer(&v)
            })
            .collect::<Result<_, _>>()?;
        for (c, same) in same_c.iter().enumerate() {
            // Product-t-norm conjunction over pairs, residuated implication.
            let pair_and = truths[c].outer(&truths[c])?;
            // I(a, b) with b ∈ {0,1}: 1 − a·(1 − b).
            let truth = pair_and
                .mul(&same.neg().add_scalar(1.0))?
                .neg()
                .add_scalar(1.0);
            // ∀ over pairs with the p-mean error aggregator, tensorized:
            // 1 − mean((1 − t)^p)^(1/p).
            let err = truth.neg().add_scalar(1.0).powi(p as i32);
            let sat = 1.0 - (err.mean() as f64).powf(1.0 / p);
            *aggregated += (n * n) as u64;
            sats.push(sat);
        }

        Ok(sats)
    }

    /// Classification accuracy under argmax over predicates.
    fn accuracy(&self, truths: &[Tensor]) -> f64 {
        let mut correct = 0usize;
        for i in 0..self.dataset.len() {
            let pred = (0..truths.len())
                .max_by(|&a, &b| {
                    truths[a].data()[i]
                        .partial_cmp(&truths[b].data()[i])
                        .expect("finite")
                })
                .expect("non-empty");
            if pred == self.dataset.labels[i] {
                correct += 1;
            }
        }
        correct as f64 / self.dataset.len() as f64
    }
}

impl Workload for Ltn {
    fn name(&self) -> &'static str {
        "ltn"
    }

    fn category(&self) -> NsCategory {
        NsCategory::NeuroSubSymbolic
    }

    fn run_case(&mut self, input: &CaseInput) -> Result<WorkloadOutput, WorkloadError> {
        // An LTN episode trains the grounding from scratch. Re-derive the
        // predicate weights and the grounding dataset from the episode
        // seed so each case is self-contained: reproducible on any
        // replica, unaffected by whatever trained on this instance
        // before. Case 0 re-creates exactly the state `Ltn::new` built.
        let seed = input.derive_seed(self.config.seed);
        self.predicates = (0..self.config.classes)
            .map(|c| {
                Mlp::new(
                    &[self.config.dim, 64, 64, 1],
                    seed.wrapping_add(c as u64 * 71),
                )
            })
            .collect();
        self.dataset = BlobDataset::generate(
            self.config.classes,
            self.config.per_class,
            self.config.dim,
            0.5,
            seed,
        );
        {
            let _neural = phase_scope(Phase::Neural);
            let mut params = 0usize;
            for predicate in &mut self.predicates {
                params += predicate.param_count();
            }
            nsai_core::profile::register_storage("ltn.predicates", (params * 4) as u64);
        }
        let n = self.dataset.len();
        let classes = self.config.classes;
        // Per-predicate binary targets implied by axioms 1 and 2.
        let targets: Vec<Tensor> = (0..classes)
            .map(|c| {
                let data: Vec<f32> = (0..n)
                    .map(|i| {
                        if self.dataset.labels[i] == c {
                            1.0
                        } else {
                            0.0
                        }
                    })
                    .collect();
                Tensor::from_vec(data, &[n, 1])
            })
            .collect::<Result<_, _>>()?;

        let mut optimizers: Vec<Adam> = (0..classes).map(|_| Adam::new(0.02)).collect();
        let mut satisfaction = 0.0f64;
        for _ in 0..self.config.epochs {
            // Neural: grounding + gradient steps toward axiom satisfaction.
            {
                let _neural = phase_scope(Phase::Neural);
                for c in 0..classes {
                    let logits = self.predicates[c].forward(&self.dataset.features);
                    let probs = logits.sigmoid();
                    let (_, grad) = loss::bce(&probs, &targets[c])?;
                    // Chain through the sigmoid.
                    let dsig = probs.mul(&probs.neg().add_scalar(1.0))?;
                    let grad_logits = grad.mul(&dsig)?;
                    self.predicates[c].backward(&grad_logits);
                    optimizers[c].step(&mut self.predicates[c]);
                    self.predicates[c].zero_grad();
                }
            }
            // Symbolic: fuzzy semantics over the grounding.
            let truths = self.ground_predicates()?;
            satisfaction = self.axiom_satisfaction(&truths)?;
        }
        let truths = self.ground_predicates()?;
        let accuracy = self.accuracy(&truths);
        let mut out = WorkloadOutput::new();
        out.set("satisfaction", satisfaction);
        out.set("accuracy", accuracy);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsai_core::Profiler;

    #[test]
    fn training_satisfies_axioms_and_classifies() {
        let mut ltn = Ltn::new(LtnConfig::small());
        let out = ltn.run().unwrap();
        let sat = out.metric("satisfaction").unwrap();
        let acc = out.metric("accuracy").unwrap();
        assert!(sat > 0.7, "satisfaction {sat}");
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn satisfaction_improves_with_training() {
        let short = Ltn::new(LtnConfig {
            epochs: 1,
            ..LtnConfig::small()
        })
        .run()
        .unwrap()
        .metric("satisfaction")
        .unwrap();
        let long = Ltn::new(LtnConfig::small())
            .run()
            .unwrap()
            .metric("satisfaction")
            .unwrap();
        assert!(long > short, "long {long} vs short {short}");
    }

    #[test]
    fn neural_phase_is_matmul_dominated() {
        let mut ltn = Ltn::new(LtnConfig::small());
        let profiler = Profiler::new();
        {
            let _a = profiler.activate();
            let _ = ltn.run().unwrap();
        }
        let report = profiler.report_for("ltn");
        let matmul_share = report.category_fraction(Phase::Neural, OpCategory::MatMul);
        assert!(matmul_share > 0.3, "matmul share {matmul_share}");
        // Symbolic work exists.
        assert!(report.phase_fraction(Phase::Symbolic) > 0.02);
    }

    #[test]
    fn episodes_are_self_contained() {
        // Running twice on one instance gives bitwise-identical outputs
        // (each case retrains from its own seed), and matches a fresh
        // instance — the serving replica-independence contract.
        let mut a = Ltn::new(LtnConfig::small());
        let first = a.run_case(&CaseInput::new(0)).unwrap();
        let second = a.run_case(&CaseInput::new(0)).unwrap();
        assert_eq!(first, second);
        let mut b = Ltn::new(LtnConfig::small());
        assert_eq!(first, b.run().unwrap());
        // A different case trains a different episode.
        let other = a.run_case(&CaseInput::new(1)).unwrap();
        assert_ne!(first, other);
    }

    #[test]
    fn category_and_name() {
        let ltn = Ltn::new(LtnConfig::small());
        assert_eq!(ltn.name(), "ltn");
        assert_eq!(ltn.category(), NsCategory::NeuroSubSymbolic);
    }
}
