//! NLM — Neural Logic Machine (Sec. III-E).
//!
//! NLM is a multi-layer, multi-group architecture over predicate tensors:
//! unary predicates `[n, C₁]` and binary predicates `[n, n, C₂]` flow
//! through layers that (a) *wire* groups together — expansion
//! (unary→binary broadcast), reduction (binary→unary quantification),
//! permutation (argument transposition), and relational composition
//! (`∃k: p(i,k) ∧ q(k,j)`) — and (b) apply position-wise MLPs. The wiring
//! realizes the logic quantifiers (symbolic phase, data-transformation
//! heavy); the MLPs are the neural phase ("sequential tensor" in Tab. III).
//!
//! As in the paper's deployment, the machine is evaluated on family-graph
//! reasoning: trained on one family, tested on a larger unseen family —
//! reproducing NLM's lifted-rule generalization. The MLP mixers are frozen
//! random features; learning happens in a logistic head over the wired
//! features (which contain the exact relational compositions, so the
//! lifted rule `grandparent = parent ∘ parent` is representable).

use crate::error::WorkloadError;
use crate::workload::{CaseInput, Workload, WorkloadOutput};
use nsai_core::profile::phase_scope;
use nsai_core::taxonomy::{NsCategory, Phase};
use nsai_data::family::FamilyGraph;
use nsai_nn::layer::Layer;
use nsai_nn::linear::Linear;
use nsai_nn::loss;
use nsai_nn::optim::Adam;
use nsai_nn::Mlp;
use nsai_tensor::Tensor;

/// NLM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NlmConfig {
    /// People in the training family.
    pub train_people: usize,
    /// People in the held-out test family.
    pub test_people: usize,
    /// NLM depth (number of wiring+MLP layers).
    pub depth: usize,
    /// Head training epochs.
    pub epochs: usize,
    /// Seed.
    pub seed: u64,
}

impl NlmConfig {
    /// Small config used by the cross-workload harnesses.
    pub fn small() -> Self {
        NlmConfig {
            train_people: 14,
            test_people: 20,
            depth: 2,
            epochs: 120,
            seed: 46,
        }
    }
}

/// Wired + mixed features for one layer step.
#[derive(Debug)]
struct LayerState {
    /// Unary features `[n, cu]`.
    unary: Tensor,
    /// Binary features `[n, n, cb]`.
    binary: Tensor,
}

/// The NLM workload.
#[derive(Debug)]
pub struct Nlm {
    config: NlmConfig,
    mixers: Vec<Mlp>,
    head: Linear,
    head_in: usize,
    trained: bool,
}

impl Nlm {
    /// Build the machine (frozen mixers + untrained head).
    pub fn new(config: NlmConfig) -> Self {
        // Feature growth per layer is fixed by the wiring; the mixer keeps
        // channel width at 8.
        let mixers = (0..config.depth)
            .map(|i| Mlp::new(&[Self::wired_width(8), 16, 8], config.seed + i as u64 * 3))
            .collect();
        let head_in = Self::wired_width(8);
        Nlm {
            config,
            mixers,
            head: Linear::new(head_in, 1, config.seed + 99),
            head_in,
            trained: false,
        }
    }

    /// Channels after wiring a binary tensor of `c` channels.
    fn wired_width(c: usize) -> usize {
        // identity + transpose + composition + 2 expanded unary channels
        // (from the running 2-channel unary state) + 2 reduced channels.
        c + c + 1 + 2 + 2
    }

    /// Initial predicate state from a family graph.
    fn initial_state(family: &FamilyGraph) -> Result<LayerState, WorkloadError> {
        let n = family.len();
        let parent = family.parent_tensor().reshape(&[n, n, 1])?;
        // Pad binary channels to 8 with zeros (parent, parentᵀ handled by
        // wiring; remaining channels start empty).
        let zeros = Tensor::zeros(&[n, n, 7]);
        let binary = Tensor::concat(&[&parent, &zeros], 2)?;
        Ok(LayerState {
            unary: family.unary_tensor(),
            binary,
        })
    }

    /// One wiring step (symbolic): identity ‖ transpose ‖ composition ‖
    /// expansion ‖ reduction, concatenated along the channel axis.
    fn wire(state: &LayerState) -> Result<Tensor, WorkloadError> {
        let _sym = phase_scope(Phase::Symbolic);
        let n = state.binary.dims()[0];
        let c = state.binary.dims()[2];

        // Permutation group: transpose the argument order.
        let transposed = state.binary.permute_axes(&[1, 0, 2])?;

        // Relational composition on channel 0 (fuzzy ∃k: p(i,k) ∧ p(k,j)).
        let ch0 = state.binary.slice_axis(2, 0, 1)?.reshape(&[n, n])?;
        let composed = ch0.matmul(&ch0)?.clamp(0.0, 1.0).reshape(&[n, n, 1])?;

        // Expansion: broadcast unary properties along each argument.
        let u_rows = state.unary.slice_axis(1, 0, 1)?.reshape(&[n, 1, 1])?;
        let u_cols = state.unary.slice_axis(1, 0, 1)?.reshape(&[1, n, 1])?;
        let grid_zeros = Tensor::zeros(&[n, n, 1]);
        let expanded_i = grid_zeros.add(&u_rows)?;
        let expanded_j = grid_zeros.add(&u_cols)?;

        // Reduction: quantify the binary state over each argument, then
        // re-expand so every group has a binary view of the quantifiers.
        let reduced_exists = state.binary.slice_axis(2, 0, 1)?.reshape(&[n, n])?;
        let exists_out = reduced_exists.max_axis(1)?.reshape(&[n, 1, 1])?; // ∃j p(i,j)
        let exists_in = reduced_exists.max_axis(0)?.reshape(&[1, n, 1])?; // ∃i p(i,j)
        let red_i = grid_zeros.add(&exists_out)?;
        let red_j = grid_zeros.add(&exists_in)?;

        let wired = Tensor::concat(
            &[
                &state.binary,
                &transposed,
                &composed,
                &expanded_i,
                &expanded_j,
                &red_i,
                &red_j,
            ],
            2,
        )?;
        debug_assert_eq!(wired.dims()[2], Self::wired_width(c));
        Ok(wired)
    }

    /// One full layer: wiring (symbolic) then a position-wise MLP mixer
    /// (neural).
    fn layer(&mut self, index: usize, state: &LayerState) -> Result<LayerState, WorkloadError> {
        let wired = Self::wire(state)?;
        let n = wired.dims()[0];
        let cw = wired.dims()[2];
        let mixed = {
            let _neural = phase_scope(Phase::Neural);
            let flat = wired.reshape(&[n * n, cw])?;
            let out = self.mixers[index].forward(&flat);
            out.sigmoid().reshape(&[n, n, 8])?
        };
        // Unary state: reduce the mixed binary (symbolic quantification).
        let unary = {
            let _sym = phase_scope(Phase::Symbolic);
            let ch = mixed.slice_axis(2, 0, 2)?;
            let u = ch.max_axis(1)?; // [n, 2]
            u
        };
        Ok(LayerState {
            unary,
            binary: mixed,
        })
    }

    /// Run the stack and return the final *wired* features `[n·n, head_in]`
    /// the head reads (they retain the exact relational compositions).
    fn features(&mut self, family: &FamilyGraph) -> Result<Tensor, WorkloadError> {
        let mut state = Self::initial_state(family)?;
        for i in 0..self.config.depth {
            state = self.layer(i, &state)?;
        }
        let wired = Self::wire(&state)?;
        let n = family.len();
        // Also wire the *initial* relations so first-order facts survive
        // the depth (NLM keeps skip groups across arities).
        let init_wired = Self::wire(&Self::initial_state(family)?)?;
        let combined = {
            let _sym = phase_scope(Phase::Symbolic);
            Tensor::concat(&[&wired, &init_wired], 2)?
        };
        let c = combined.dims()[2];
        Ok(combined.reshape(&[n * n, c])?)
    }

    fn head_width(&self) -> usize {
        2 * self.head_in
    }
}

/// Balanced accuracy of 0/1 predictions against a 0/1 target.
fn balanced_accuracy(pred: &[f32], target: &[f32]) -> f64 {
    let (mut tp, mut tn, mut p, mut n) = (0usize, 0usize, 0usize, 0usize);
    for (y_hat, y) in pred.iter().zip(target) {
        if *y > 0.5 {
            p += 1;
            if *y_hat > 0.5 {
                tp += 1;
            }
        } else {
            n += 1;
            if *y_hat <= 0.5 {
                tn += 1;
            }
        }
    }
    let tpr = if p > 0 { tp as f64 / p as f64 } else { 1.0 };
    let tnr = if n > 0 { tn as f64 / n as f64 } else { 1.0 };
    (tpr + tnr) / 2.0
}

impl Nlm {
    /// Head training on the small family (setup; the paper's profiled
    /// runs are inference).
    fn prepare_impl(&mut self) -> Result<(), WorkloadError> {
        if self.trained {
            return Ok(());
        }
        self.head = Linear::new(self.head_width(), 1, self.config.seed + 99);
        let train_family = FamilyGraph::generate(self.config.train_people, self.config.seed);
        let features = self.features(&train_family)?;
        let n_train = self.config.train_people;
        let target = train_family
            .grandparent_tensor()
            .reshape(&[n_train * n_train, 1])?;
        let mut opt = Adam::new(0.05);
        for _ in 0..self.config.epochs {
            let logits = self.head.forward(&features);
            let probs = logits.sigmoid();
            let (_, grad) = loss::bce(&probs, &target)?;
            let dsig = probs.mul(&probs.neg().add_scalar(1.0))?;
            self.head.backward(&grad.mul(&dsig)?);
            opt.step(&mut self.head);
            self.head.zero_grad();
        }
        self.trained = true;
        Ok(())
    }
}

impl Workload for Nlm {
    fn name(&self) -> &'static str {
        "nlm"
    }

    fn category(&self) -> NsCategory {
        NsCategory::NeuroBracketSymbolic
    }

    fn prepare(&mut self) -> Result<(), WorkloadError> {
        self.prepare_impl()
    }

    fn run_case(&mut self, input: &CaseInput) -> Result<WorkloadOutput, WorkloadError> {
        self.prepare_impl()?;
        {
            let _neural = phase_scope(Phase::Neural);
            let mut params = self.head.param_count();
            for mixer in &mut self.mixers {
                params += mixer.param_count();
            }
            nsai_core::profile::register_storage("nlm.weights", (params * 4) as u64);
        }
        // The training family is part of the model (the head was fitted on
        // it); the episode varies which unseen family the lifted rule is
        // asked to generalize to.
        let train_family = FamilyGraph::generate(self.config.train_people, self.config.seed);
        let test_family = FamilyGraph::generate(
            self.config.test_people,
            input.derive_seed(self.config.seed + 1),
        );

        // ----- Inference on the training family -----
        let features = self.features(&train_family)?;
        let n_train = self.config.train_people;
        let target = train_family
            .grandparent_tensor()
            .reshape(&[n_train * n_train, 1])?;
        let train_predictions = {
            let _neural = phase_scope(Phase::Neural);
            self.head.forward(&features).sigmoid()
        };
        let train_acc = balanced_accuracy(train_predictions.data(), target.data());

        // ----- Generalize to the larger, unseen family -----
        let test_features = self.features(&test_family)?;
        let n_test = self.config.test_people;
        let test_target = test_family
            .grandparent_tensor()
            .reshape(&[n_test * n_test, 1])?;
        let predictions = {
            let _neural = phase_scope(Phase::Neural);
            self.head.forward(&test_features).sigmoid()
        };
        let test_acc = balanced_accuracy(predictions.data(), test_target.data());

        let mut out = WorkloadOutput::new();
        out.set("train_balanced_accuracy", train_acc);
        out.set("test_balanced_accuracy", test_acc);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsai_core::taxonomy::OpCategory;
    use nsai_core::Profiler;

    #[test]
    fn learns_grandparent_and_generalizes() {
        let mut nlm = Nlm::new(NlmConfig::small());
        let out = nlm.run().unwrap();
        let train = out.metric("train_balanced_accuracy").unwrap();
        let test = out.metric("test_balanced_accuracy").unwrap();
        assert!(train > 0.9, "train {train}");
        // The lifted rule transfers to the bigger unseen family.
        assert!(test > 0.85, "test {test}");
    }

    #[test]
    fn wiring_contains_exact_composition() {
        let family = FamilyGraph::generate(10, 5);
        let state = Nlm::initial_state(&family).unwrap();
        let wired = Nlm::wire(&state).unwrap();
        // Channel 16 is the composition (after 8 identity + 8 transpose).
        let n = family.len();
        let gp = family.grandparent_tensor();
        for i in 0..n {
            for j in 0..n {
                let comp = wired.at(&[i, j, 16]).unwrap();
                let expected = gp.at(&[i, j]).unwrap().min(1.0);
                assert_eq!(comp > 0.5, expected > 0.5, "mismatch at ({i},{j})");
            }
        }
    }

    #[test]
    fn symbolic_phase_contains_transform_work() {
        let mut nlm = Nlm::new(NlmConfig::small());
        // Training stays out of the profile, as in the Fig. 2a harness: it
        // is neural work the inference characterization does not include.
        nlm.prepare().unwrap();
        let profiler = Profiler::new();
        {
            let _a = profiler.activate();
            let _ = nlm.run().unwrap();
        }
        let report = profiler.report_for("nlm");
        let transform = report.cell(Phase::Symbolic, OpCategory::DataTransform);
        assert!(transform.invocations > 0, "no symbolic transforms recorded");
        let neural = report.phase_bytes_fraction(Phase::Neural);
        let symbolic = report.phase_bytes_fraction(Phase::Symbolic);
        assert!(neural > 0.1, "neural {neural}");
        assert!(symbolic > 0.1, "symbolic {symbolic}");
    }

    #[test]
    fn balanced_accuracy_math() {
        // Perfect predictions.
        assert_eq!(balanced_accuracy(&[1.0, 0.0], &[1.0, 0.0]), 1.0);
        // All-negative predictor on imbalanced data scores 0.5.
        assert_eq!(balanced_accuracy(&[0.0, 0.0, 0.0], &[1.0, 0.0, 0.0]), 0.5);
    }

    #[test]
    fn category_and_name() {
        let nlm = Nlm::new(NlmConfig::small());
        assert_eq!(nlm.name(), "nlm");
        assert_eq!(nlm.category(), NsCategory::NeuroBracketSymbolic);
    }
}
