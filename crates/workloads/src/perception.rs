//! The shared neural perception frontend of NVSA and PrAE.
//!
//! Both workloads start from the same structure (Sec. III-D/III-H): a
//! ConvNet maps each RPM panel to per-attribute probability mass functions
//! (PMFs). Two modes are provided:
//!
//! - [`PerceptionMode::Neural`] — a frozen random ConvNet with trained
//!   per-attribute linear heads (trained in [`Perception::train`] on
//!   procedurally generated panels). This is what benchmarks time.
//! - [`PerceptionMode::Oracle`] — runs the *same* neural compute (so the
//!   profile is identical) but returns near-one-hot PMFs derived from the
//!   generator's ground truth. Reasoning-correctness tests use this to
//!   isolate the symbolic backend.
//!
//! The ConvNet and linear heads run on the parallel kernels in
//! `nsai_tensor` (see `nsai_tensor::par`): convolution is plane-parallel
//! and the GEMMs are row-blocked. Because the decomposition is independent
//! of pool width, training trajectories and inference outputs are
//! bitwise-reproducible under any `NEUROSYM_THREADS` setting.

use crate::error::WorkloadError;
use nsai_core::profile::phase_scope;
use nsai_core::taxonomy::Phase;
use nsai_data::rpm::{Panel, RpmGenerator, ATTRIBUTE_CARDINALITIES};
use nsai_nn::conv_layer::ConvNet;
use nsai_nn::layer::Layer;
use nsai_nn::linear::Linear;
use nsai_nn::loss;
use nsai_nn::optim::Adam;
use nsai_tensor::Tensor;

/// How PMFs are produced from panels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PerceptionMode {
    /// Trained attribute heads on frozen conv features.
    Neural,
    /// Ground-truth PMFs (smoothed by `noise`), neural compute still runs.
    Oracle {
        /// Mass spread uniformly over non-true values, in `[0, 1)`.
        noise: f32,
    },
}

/// The panel → attribute-PMF frontend.
#[derive(Debug)]
pub struct Perception {
    mode: PerceptionMode,
    res: usize,
    convnet: ConvNet,
    heads: Vec<Linear>,
    /// Per-feature `(mean, 1/std)` of the frozen conv features, fitted on
    /// the training batch. Linear probes on raw ReLU features are
    /// ill-conditioned (non-zero mean, widely varying scales), so features
    /// are standardized before the heads in both training and inference.
    feature_norm: Option<(Tensor, Tensor)>,
    trained: bool,
}

impl Perception {
    /// Build a frontend for `res × res` panels.
    ///
    /// # Panics
    ///
    /// Panics if `res` is not a multiple of 4 and at least 16 (two 2×
    /// pooling stages must divide it).
    pub fn new(mode: PerceptionMode, res: usize, seed: u64) -> Self {
        assert!(
            res >= 16 && res.is_multiple_of(4),
            "resolution must be >= 16 and divisible by 4"
        );
        let convnet = ConvNet::new(&[(1, 8, 3, Some(2)), (8, 16, 3, Some(2))], seed);
        let feature_dim = 16 * (res / 4) * (res / 4);
        let heads = ATTRIBUTE_CARDINALITIES
            .iter()
            .enumerate()
            .map(|(i, &card)| Linear::new(feature_dim, card, seed.wrapping_add(31 + i as u64)))
            .collect();
        Perception {
            mode,
            res,
            convnet,
            heads,
            feature_norm: None,
            trained: false,
        }
    }

    /// Persistent weight footprint in bytes (conv stack + attribute
    /// heads) — registered by the owning workload at run time.
    pub fn storage_bytes(&self) -> u64 {
        let conv = (8 * 9 + 8) + (16 * 8 * 9 + 16);
        let feature_dim = 16 * (self.res / 4) * (self.res / 4);
        let heads: usize = ATTRIBUTE_CARDINALITIES
            .iter()
            .map(|&card| card * feature_dim + card)
            .sum();
        ((conv + heads) * 4) as u64
    }

    /// Train the per-attribute heads on `n_samples` random panels for
    /// `epochs` passes. Required before [`Perception::infer_pmfs`] in
    /// [`PerceptionMode::Neural`]; a no-op for the oracle mode.
    ///
    /// # Errors
    ///
    /// Propagates tensor errors from the training loop.
    pub fn train(
        &mut self,
        n_samples: usize,
        epochs: usize,
        seed: u64,
    ) -> Result<(), WorkloadError> {
        if matches!(self.mode, PerceptionMode::Oracle { .. }) {
            self.trained = true;
            return Ok(());
        }
        // Generate labeled panels directly from the attribute grammar.
        let mut generator = RpmGenerator::new(seed);
        let mut panels = Vec::with_capacity(n_samples);
        while panels.len() < n_samples {
            let p = generator.generate(3);
            panels.extend_from_slice(&p.matrix);
        }
        panels.truncate(n_samples);
        let images: Vec<Tensor> = panels
            .iter()
            .map(|p| p.render(self.res).reshape(&[1, 1, self.res, self.res]))
            .collect::<Result<_, _>>()?;
        let image_refs: Vec<&Tensor> = images.iter().collect();
        let batch = Tensor::concat(&image_refs, 0)?;
        let raw = self.convnet.extract(&batch);
        self.feature_norm = Some(feature_stats(&raw)?);
        let features = self.standardize(&raw)?;
        for (attr, head) in self.heads.iter_mut().enumerate() {
            let targets: Vec<usize> = panels.iter().map(|p| p.attributes()[attr]).collect();
            let mut opt = Adam::new(0.05);
            for _ in 0..epochs {
                let logits = head.forward(&features);
                let (_, grad) = loss::cross_entropy(&logits, &targets)?;
                head.backward(&grad);
                opt.step(head);
                head.zero_grad();
            }
        }
        self.trained = true;
        Ok(())
    }

    /// Standardize conv features with the statistics fitted at training
    /// time; identity before training (oracle mode never fits them).
    fn standardize(&self, features: &Tensor) -> Result<Tensor, WorkloadError> {
        match &self.feature_norm {
            Some((mean, inv_std)) => Ok(features.sub(mean)?.mul(inv_std)?),
            None => Ok(features.clone()),
        }
    }

    /// Map one panel to its five attribute PMFs. All tensor work runs
    /// under a neural phase scope.
    ///
    /// # Errors
    ///
    /// Propagates tensor errors; returns [`WorkloadError::Config`] if the
    /// neural mode is used untrained.
    pub fn infer_pmfs(&mut self, panel: &Panel) -> Result<Vec<Vec<f32>>, WorkloadError> {
        if matches!(self.mode, PerceptionMode::Neural) && !self.trained {
            return Err(WorkloadError::Config(
                "neural perception must be trained before inference".into(),
            ));
        }
        let _neural = phase_scope(Phase::Neural);
        let image = panel
            .render(self.res)
            .reshape(&[1, 1, self.res, self.res])?;
        let raw = self.convnet.extract(&image);
        let features = self.standardize(&raw)?;
        let mut pmfs = Vec::with_capacity(5);
        for (attr, head) in self.heads.iter_mut().enumerate() {
            let logits = head.forward(&features);
            let probs = logits.softmax()?;
            let pmf = match self.mode {
                PerceptionMode::Neural => probs.data().to_vec(),
                PerceptionMode::Oracle { noise } => {
                    let card = ATTRIBUTE_CARDINALITIES[attr];
                    let truth = panel.attributes()[attr];
                    let off = if card > 1 {
                        noise / (card - 1) as f32
                    } else {
                        0.0
                    };
                    (0..card)
                        .map(|v| if v == truth { 1.0 - noise } else { off })
                        .collect()
                }
            };
            pmfs.push(pmf);
        }
        Ok(pmfs)
    }

    /// Map a batch of panels to their attribute PMFs in one forward pass:
    /// a single concatenated ConvNet extraction and one GEMM per attribute
    /// head, instead of a full pipeline per panel. This is the shared-work
    /// payoff the serving micro-batcher exploits for NVSA and PrAE.
    ///
    /// Every stage is row-independent — convolution per image, feature
    /// standardization element-wise under `[1, d]` broadcast, the head
    /// GEMMs per output row, and softmax per row of the last dimension —
    /// so `out[i]` is bitwise-identical to `infer_pmfs(&panels[i])`
    /// regardless of batch composition (pinned by a test below).
    ///
    /// # Errors
    ///
    /// As [`Perception::infer_pmfs`].
    pub fn infer_pmfs_batch(
        &mut self,
        panels: &[Panel],
    ) -> Result<Vec<Vec<Vec<f32>>>, WorkloadError> {
        if panels.is_empty() {
            return Ok(Vec::new());
        }
        if matches!(self.mode, PerceptionMode::Neural) && !self.trained {
            return Err(WorkloadError::Config(
                "neural perception must be trained before inference".into(),
            ));
        }
        let _neural = phase_scope(Phase::Neural);
        // Extract conv features in panel chunks (one RPM problem's worth
        // of panels) rather than one giant concatenated batch.
        // Convolution, pooling, and flatten are all per-sample, so the
        // chunk size cannot change any bit of the output — but a full
        // serving batch of rendered panels blows the conv intermediates
        // (batch × panels × channels × res²) far past L2, which costs
        // more than the batching saves. Chunks keep the conv working set
        // bounded while the attribute heads below still see the whole
        // batch in one GEMM per head (weight reuse across every panel).
        const CONV_CHUNK: usize = 16;
        let feature_chunks: Vec<Tensor> = panels
            .chunks(CONV_CHUNK)
            .map(|chunk| -> Result<Tensor, WorkloadError> {
                let images: Vec<Tensor> = chunk
                    .iter()
                    .map(|p| p.render(self.res).reshape(&[1, 1, self.res, self.res]))
                    .collect::<Result<_, _>>()?;
                let image_refs: Vec<&Tensor> = images.iter().collect();
                Ok(self.convnet.extract(&Tensor::concat(&image_refs, 0)?))
            })
            .collect::<Result<_, _>>()?;
        let chunk_refs: Vec<&Tensor> = feature_chunks.iter().collect();
        let raw = Tensor::concat(&chunk_refs, 0)?;
        let features = self.standardize(&raw)?;
        let mut out = vec![Vec::with_capacity(5); panels.len()];
        for (attr, head) in self.heads.iter_mut().enumerate() {
            let logits = head.forward(&features);
            let probs = logits.softmax()?;
            let card = ATTRIBUTE_CARDINALITIES[attr];
            for (i, row) in probs.data().chunks_exact(card).enumerate() {
                let pmf = match self.mode {
                    PerceptionMode::Neural => row.to_vec(),
                    PerceptionMode::Oracle { noise } => {
                        let truth = panels[i].attributes()[attr];
                        let off = if card > 1 {
                            noise / (card - 1) as f32
                        } else {
                            0.0
                        };
                        (0..card)
                            .map(|v| if v == truth { 1.0 - noise } else { off })
                            .collect()
                    }
                };
                out[i].push(pmf);
            }
        }
        Ok(out)
    }
}

/// Per-column `(mean, 1/std)` of a `[n, d]` feature batch, for
/// standardizing linear-probe inputs. Stored as `[1, d]` tensors so they
/// broadcast over the batch dimension.
fn feature_stats(features: &Tensor) -> Result<(Tensor, Tensor), WorkloadError> {
    let dims = features.shape().dims();
    let (n, d) = (dims[0], dims[1]);
    let data = features.data();
    let mut mean = vec![0.0f32; d];
    for row in data.chunks_exact(d) {
        for (m, x) in mean.iter_mut().zip(row) {
            *m += x;
        }
    }
    for m in &mut mean {
        *m /= n as f32;
    }
    let mut var = vec![0.0f32; d];
    for row in data.chunks_exact(d) {
        for ((v, m), x) in var.iter_mut().zip(&mean).zip(row) {
            let c = x - m;
            *v += c * c;
        }
    }
    let inv_std: Vec<f32> = var
        .iter()
        .map(|v| 1.0 / ((v / n as f32).sqrt() + 1e-4))
        .collect();
    Ok((
        Tensor::from_vec(mean, &[1, d])?,
        Tensor::from_vec(inv_std, &[1, d])?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_pmfs_peak_at_ground_truth() {
        let mut p = Perception::new(PerceptionMode::Oracle { noise: 0.1 }, 16, 1);
        p.train(0, 0, 1).unwrap();
        let panel = Panel::from_attributes([3, 2, 1, 4, 7]);
        let pmfs = p.infer_pmfs(&panel).unwrap();
        assert_eq!(pmfs.len(), 5);
        for (attr, pmf) in pmfs.iter().enumerate() {
            assert_eq!(pmf.len(), ATTRIBUTE_CARDINALITIES[attr]);
            let sum: f32 = pmf.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "attr {attr} sum {sum}");
            let argmax = pmf
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            assert_eq!(argmax, panel.attributes()[attr]);
        }
    }

    #[test]
    fn neural_mode_requires_training() {
        let mut p = Perception::new(PerceptionMode::Neural, 16, 2);
        let panel = Panel::from_attributes([0, 0, 0, 0, 0]);
        assert!(matches!(
            p.infer_pmfs(&panel),
            Err(WorkloadError::Config(_))
        ));
    }

    /// Held-out classification accuracy of the trained heads, per
    /// attribute.
    fn head_accuracy(p: &mut Perception, n_samples: usize, seed: u64) -> Vec<f64> {
        let mut generator = RpmGenerator::new(seed);
        let mut panels = Vec::with_capacity(n_samples);
        while panels.len() < n_samples {
            panels.extend_from_slice(&generator.generate(3).matrix);
        }
        panels.truncate(n_samples);
        let mut correct = [0usize; 5];
        for panel in &panels {
            let pmfs = p.infer_pmfs(panel).unwrap();
            for (attr, pmf) in pmfs.iter().enumerate() {
                let argmax = pmf
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                if argmax == panel.attributes()[attr] {
                    correct[attr] += 1;
                }
            }
        }
        correct
            .iter()
            .map(|&c| c as f64 / panels.len() as f64)
            .collect()
    }

    #[test]
    fn trained_heads_beat_chance() {
        let mut p = Perception::new(PerceptionMode::Neural, 16, 3);
        p.train(200, 80, 7).unwrap();
        assert!(p.trained);
        let acc = head_accuracy(&mut p, 40, 99);
        // Chance levels are 1/9, 1/9, 1/5, 1/6, 1/10. Linear probes on a
        // small frozen ConvNet cannot master every attribute; require
        // clearly-above-chance on each.
        assert!(acc[0] > 0.3, "position accuracy {acc:?}"); // chance 0.11
        assert!(acc[1] > 0.18, "number accuracy {acc:?}"); // chance 0.11
        assert!(acc[3] > 0.25, "size accuracy {acc:?}"); // chance 0.17
        assert!(acc[4] > 0.15, "color accuracy {acc:?}"); // chance 0.10
    }

    #[test]
    fn batched_inference_is_bitwise_identical_to_single() {
        let mut p = Perception::new(PerceptionMode::Neural, 16, 5);
        p.train(60, 20, 11).unwrap();
        let mut generator = RpmGenerator::new(123);
        let problem = generator.generate(3);
        let panels: Vec<Panel> = problem
            .matrix
            .iter()
            .chain(problem.candidates.iter())
            .copied()
            .collect();
        let batched = p.infer_pmfs_batch(&panels).unwrap();
        assert_eq!(batched.len(), panels.len());
        for (i, panel) in panels.iter().enumerate() {
            let single = p.infer_pmfs(panel).unwrap();
            assert_eq!(single.len(), batched[i].len());
            for (attr, (s, b)) in single.iter().zip(&batched[i]).enumerate() {
                let s_bits: Vec<u32> = s.iter().map(|x| x.to_bits()).collect();
                let b_bits: Vec<u32> = b.iter().map(|x| x.to_bits()).collect();
                assert_eq!(s_bits, b_bits, "panel {i} attr {attr} diverged");
            }
        }
    }

    #[test]
    fn empty_batch_is_ok() {
        let mut p = Perception::new(PerceptionMode::Oracle { noise: 0.1 }, 16, 6);
        p.train(0, 0, 1).unwrap();
        assert!(p.infer_pmfs_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn inference_records_neural_events() {
        use nsai_core::Profiler;
        let mut p = Perception::new(PerceptionMode::Oracle { noise: 0.05 }, 16, 4);
        p.train(0, 0, 1).unwrap();
        let profiler = Profiler::new();
        {
            let _a = profiler.activate();
            let _ = p
                .infer_pmfs(&Panel::from_attributes([1, 1, 1, 1, 1]))
                .unwrap();
        }
        let events = profiler.events();
        assert!(events.iter().any(|e| e.name == "conv2d"));
        assert!(events.iter().all(|e| e.phase == Phase::Neural));
    }
}
