//! VSAIT — Unpaired image translation via vector-symbolic architectures
//! (Sec. III-F).
//!
//! VSAIT addresses semantic flipping by learning an *invertible* mapping in
//! a holographic vector space: images from the source and target domains
//! are encoded into random hyperspace with locality-sensitive hashing over
//! conv features; translation **unbinds** source-domain information and
//! **binds** target-domain information, and the same algebra run backwards
//! recovers the source content (cycle consistency — the property that
//! suppresses hallucinations).
//!
//! Neural phase: conv feature extraction (the paper's VSAIT is
//! conv-dominated). Symbolic phase: LSH projection and bind/unbind over
//! long bipolar hypervectors (element-wise, memory-bound).

use crate::error::WorkloadError;
use crate::workload::{CaseInput, Workload, WorkloadOutput};
use nsai_core::profile::phase_scope;
use nsai_core::taxonomy::{NsCategory, Phase};
use nsai_data::images::{Domain, DomainGenerator};
use nsai_nn::conv_layer::ConvNet;
use nsai_tensor::ops::movement::TransferDirection;
use nsai_tensor::Tensor;
use nsai_vsa::{Hypervector, LshEncoder};

/// VSAIT configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VsaitConfig {
    /// Image resolution.
    pub res: usize,
    /// Images per domain batch.
    pub batch: usize,
    /// Hypervector dimensionality.
    pub dim: usize,
    /// Seed.
    pub seed: u64,
}

impl VsaitConfig {
    /// Small config used by the cross-workload harnesses.
    pub fn small() -> Self {
        VsaitConfig {
            res: 32,
            batch: 6,
            dim: 4096,
            seed: 47,
        }
    }
}

/// The VSAIT workload.
#[derive(Debug)]
pub struct Vsait {
    config: VsaitConfig,
    encoder: ConvNet,
    feature_dim: usize,
    lsh: Option<LshEncoder>,
}

impl Vsait {
    /// Build the workload.
    ///
    /// # Panics
    ///
    /// Panics if `res` is not divisible by 4 (two pooling stages).
    pub fn new(config: VsaitConfig) -> Self {
        assert!(
            config.res.is_multiple_of(4),
            "resolution must be divisible by 4"
        );
        let encoder = ConvNet::new(&[(1, 8, 3, Some(2)), (8, 16, 3, Some(2))], config.seed);
        let feature_dim = 16 * (config.res / 4) * (config.res / 4);
        Vsait {
            config,
            encoder,
            feature_dim,
            lsh: None,
        }
    }

    fn lsh(&mut self) -> &LshEncoder {
        if self.lsh.is_none() {
            self.lsh = Some(LshEncoder::new(
                self.feature_dim,
                self.config.dim,
                self.config.seed + 5,
            ));
        }
        self.lsh.as_ref().expect("just initialized")
    }

    /// Encode a batch of images into hyperspace: conv features (neural)
    /// then LSH projection (symbolic).
    fn encode_batch(&mut self, batch: &Tensor) -> Result<Vec<Hypervector>, WorkloadError> {
        let features = {
            let _neural = phase_scope(Phase::Neural);
            self.encoder.extract(batch)
        };
        let _sym = phase_scope(Phase::Symbolic);
        // Features cross the neural→symbolic pipeline boundary.
        let staged = features.stage_transfer(TransferDirection::HostToDevice);
        // Ensure the LSH encoder exists before borrowing immutably.
        let _ = self.lsh();
        Ok(self
            .lsh
            .as_ref()
            .expect("initialized")
            .encode_batch(&staged)?)
    }
}

impl Workload for Vsait {
    fn name(&self) -> &'static str {
        "vsait"
    }

    fn category(&self) -> NsCategory {
        NsCategory::NeuroPipeSymbolic
    }

    /// One translation round trip.
    ///
    /// VSAIT's generative assumption is that a domain image's hyperspace
    /// representation factors as `content ⊛ domain_style`. The conv+LSH
    /// encoder extracts *content* vectors from real pixels; binding with
    /// the source style forms the source-domain representation; the
    /// translator **unbinds** source style and **binds** target style.
    /// Because bipolar binding is exactly invertible, content survives
    /// translation unchanged — the mechanism by which VSAIT suppresses
    /// semantic flipping — and every property below is measurable.
    fn run_case(&mut self, input: &CaseInput) -> Result<WorkloadOutput, WorkloadError> {
        // Static storage (Fig. 3b): conv encoder is neural; the LSH
        // projection into hyperspace is symbolic-side.
        {
            let _neural = phase_scope(Phase::Neural);
            let conv_params = (8 * 9 + 8) + (16 * 8 * 9 + 16);
            nsai_core::profile::register_storage("vsait.encoder.weights", (conv_params * 4) as u64);
        }
        {
            let _sym = phase_scope(Phase::Symbolic);
            nsai_core::profile::register_storage(
                "vsait.lsh.projection",
                (self.config.dim * self.feature_dim * 4) as u64,
            );
        }
        // The episode varies which image batches are translated; the
        // encoder, LSH projection, and domain styles are the fixed model.
        let mut generator =
            DomainGenerator::new(self.config.res, input.derive_seed(self.config.seed));
        let source_batch = generator.sample(Domain::Synthetic, self.config.batch);
        let target_batch = generator.sample(Domain::Textured, self.config.batch);

        // Content vectors from actual pixels (neural + LSH).
        let source_contents = self.encode_batch(&source_batch)?;
        let target_contents = self.encode_batch(&target_batch)?;

        let _sym = phase_scope(Phase::Symbolic);
        let source_style = Hypervector::random(
            nsai_vsa::VsaModel::Bipolar,
            self.config.dim,
            self.config.seed + 10,
        );
        let target_style = Hypervector::random(
            nsai_vsa::VsaModel::Bipolar,
            self.config.dim,
            self.config.seed + 11,
        );

        // Domain representations: content bound with domain style.
        let source_repr: Vec<Hypervector> = source_contents
            .iter()
            .map(|c| c.bind(&source_style))
            .collect::<Result<_, _>>()?;
        // Exercise the target side as well (discriminator food in the
        // original; here it feeds the retrieval distractors).
        let _target_repr: Vec<Hypervector> = target_contents
            .iter()
            .map(|c| c.bind(&target_style))
            .collect::<Result<_, _>>()?;

        let mut fidelity = 0.0f32;
        let mut cycle = 0.0f32;
        let mut retrieved = 0usize;
        for (i, x) in source_repr.iter().enumerate() {
            // Translate: unbind source info, bind target info.
            let y = x.unbind(&source_style)?.bind(&target_style)?;
            // Fidelity: the translated vector is the content re-expressed
            // in the target domain.
            let ideal = source_contents[i].bind(&target_style)?;
            fidelity += y.similarity(&ideal)?;
            // No hallucination: unbinding the target style retrieves the
            // original content among all batch contents.
            let recovered = y.unbind(&target_style)?;
            let mut best = (f32::NEG_INFINITY, 0usize);
            for (j, c) in source_contents.iter().enumerate() {
                let s = recovered.similarity(c)?;
                if s > best.0 {
                    best = (s, j);
                }
            }
            if best.1 == i {
                retrieved += 1;
            }
            // Cycle consistency: translating back reproduces the source
            // representation.
            let back = y.unbind(&target_style)?.bind(&source_style)?;
            cycle += back.similarity(x)?;
        }
        let n = source_repr.len() as f32;
        let mut out = WorkloadOutput::new();
        out.set("translation_fidelity", (fidelity / n) as f64);
        out.set("cycle_consistency", (cycle / n) as f64);
        out.set("semantic_retrieval_accuracy", retrieved as f64 / n as f64);
        out.set(
            "style_separation",
            1.0 - source_style.similarity(&target_style)?.abs() as f64,
        );
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsai_core::taxonomy::OpCategory;
    use nsai_core::Profiler;

    #[test]
    fn translation_is_cycle_consistent() {
        let mut vsait = Vsait::new(VsaitConfig::small());
        let out = vsait.run().unwrap();
        // Bipolar bind/unbind is exact: cycle similarity ≈ 1.
        assert!(
            out.metric("cycle_consistency").unwrap() > 0.99,
            "cycle {:?}",
            out.metric("cycle_consistency")
        );
    }

    #[test]
    fn translation_preserves_semantics() {
        let mut vsait = Vsait::new(VsaitConfig::small());
        let out = vsait.run().unwrap();
        // Exact bipolar algebra: fidelity ≈ 1 and every content is
        // retrieved after the round trip (no semantic flipping).
        assert!(
            out.metric("translation_fidelity").unwrap() > 0.99,
            "fidelity {:?}",
            out.metric("translation_fidelity")
        );
        assert!(
            out.metric("semantic_retrieval_accuracy").unwrap() > 0.99,
            "retrieval {:?}",
            out.metric("semantic_retrieval_accuracy")
        );
    }

    #[test]
    fn domains_are_separated_in_hyperspace() {
        let mut vsait = Vsait::new(VsaitConfig::small());
        let out = vsait.run().unwrap();
        assert!(out.metric("style_separation").unwrap() > 0.5);
    }

    #[test]
    fn neural_phase_is_convolution_heavy() {
        let mut vsait = Vsait::new(VsaitConfig::small());
        let profiler = Profiler::new();
        {
            let _a = profiler.activate();
            let _ = vsait.run().unwrap();
        }
        let report = profiler.report_for("vsait");
        let conv_share = report.category_flops_fraction(Phase::Neural, OpCategory::Convolution);
        assert!(conv_share > 0.5, "conv share {conv_share}");
        // The symbolic phase exists and contains element-wise VSA work.
        assert!(report.phase_bytes_fraction(Phase::Symbolic) > 0.1);
        let elem = report.cell(Phase::Symbolic, OpCategory::VectorElementwise);
        assert!(elem.invocations > 0);
    }

    #[test]
    fn category_and_name() {
        let vsait = Vsait::new(VsaitConfig::small());
        assert_eq!(vsait.name(), "vsait");
        assert_eq!(vsait.category(), NsCategory::NeuroPipeSymbolic);
    }
}
