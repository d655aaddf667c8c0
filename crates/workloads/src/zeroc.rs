//! ZeroC — Zero-shot concept recognition and acquisition (Sec. III-G).
//!
//! ZeroC represents each concept as a *graph* (constituent concepts as
//! nodes, relations as edges) paired with energy-based models (EBMs) that
//! score the concept's presence in an image. A new hierarchical concept is
//! recognized zero-shot by grounding its graph: assigning detected
//! primitive instances to nodes, summing constituent EBM energies plus
//! relation-consistency terms, and minimizing over assignments.
//!
//! Neural phase: the EBM ensemble — multi-scale template convolutions over
//! the image (conv-dominated and memory-heavy, matching the paper's
//! ZeroC profile: the *only* neural-dominated workload in Fig. 2a).
//! Symbolic phase: peak extraction and combinatorial graph grounding.

use crate::error::WorkloadError;
use crate::workload::{CaseInput, Workload, WorkloadOutput};
use nsai_core::profile::{self, phase_scope, OpMeta};
use nsai_core::taxonomy::{NsCategory, OpCategory, Phase};
use nsai_data::concepts::{
    concept_catalog, ConceptGenerator, ConceptGraph, ConceptScene, Primitive, Relation,
};
use nsai_tensor::ops::conv::Conv2dParams;
use nsai_tensor::Tensor;

/// A detected primitive instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Primitive kind.
    pub primitive: Primitive,
    /// Peak row.
    pub row: usize,
    /// Peak column.
    pub col: usize,
    /// Template scale that fired (≈ extent).
    pub scale: usize,
    /// Response strength (negative energy).
    pub response: f32,
}

/// ZeroC configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZeroCConfig {
    /// Scene resolution.
    pub res: usize,
    /// Scenes per concept in a run.
    pub scenes_per_concept: usize,
    /// Template scales in the EBM ensemble.
    pub scales: usize,
    /// Seed.
    pub seed: u64,
}

impl ZeroCConfig {
    /// Small config used by the cross-workload harnesses.
    pub fn small() -> Self {
        ZeroCConfig {
            res: 32,
            scenes_per_concept: 2,
            scales: 3,
            seed: 48,
        }
    }
}

/// The ZeroC workload.
#[derive(Debug)]
pub struct ZeroC {
    config: ZeroCConfig,
    /// Per (primitive, scale): a `[1, 1, k, k]` template kernel.
    templates: Vec<(Primitive, usize, Tensor)>,
}

impl ZeroC {
    /// Build the EBM template ensemble.
    pub fn new(config: ZeroCConfig) -> Self {
        let mut templates = Vec::new();
        for s in 0..config.scales {
            let k = config.res / 4 + s * (config.res / 8).max(1);
            for primitive in Primitive::ALL {
                templates.push((primitive, k, Self::template(primitive, k)));
            }
        }
        ZeroC { config, templates }
    }

    /// A normalized matched-filter template for a primitive at size `k`.
    fn template(primitive: Primitive, k: usize) -> Tensor {
        let mut t = Tensor::zeros(&[1, 1, k, k]);
        match primitive {
            Primitive::HLine => {
                let row = k / 2;
                for x in 0..k {
                    t.data_mut()[row * k + x] = 1.0;
                }
            }
            Primitive::VLine => {
                let col = k / 2;
                for y in 0..k {
                    t.data_mut()[y * k + col] = 1.0;
                }
            }
            Primitive::Rect => {
                for x in 0..k {
                    t.data_mut()[x] = 1.0;
                    t.data_mut()[(k - 1) * k + x] = 1.0;
                }
                for y in 0..k {
                    t.data_mut()[y * k] = 1.0;
                    t.data_mut()[y * k + k - 1] = 1.0;
                }
            }
        }
        // Zero-mean normalization so flat regions score zero and the
        // response is a true matched-filter energy.
        let mean = t.data().iter().sum::<f32>() / (k * k) as f32;
        let ink: f32 = t.data().iter().filter(|v| **v > 0.0).count() as f32;
        for v in t.data_mut() {
            *v = (*v - mean) / ink;
        }
        t
    }

    /// Run the EBM ensemble (neural): per template, the response map over
    /// the scene. Returns `(primitive, scale, map)` triples.
    fn response_maps(
        &self,
        image: &Tensor,
    ) -> Result<Vec<(Primitive, usize, Tensor)>, WorkloadError> {
        let _neural = phase_scope(Phase::Neural);
        let res = self.config.res;
        let batch = image.reshape(&[1, 1, res, res])?;
        let mut maps = Vec::with_capacity(self.templates.len());
        for (primitive, k, template) in &self.templates {
            let response = batch.conv2d(template, None, Conv2dParams::default())?;
            maps.push((*primitive, *k, response));
        }
        Ok(maps)
    }

    /// Extract the best detection per (primitive, scale) map, then keep
    /// the strongest `max_per_primitive` per primitive kind (symbolic).
    fn detect(
        &self,
        maps: &[(Primitive, usize, Tensor)],
        max_per_primitive: usize,
    ) -> Vec<Detection> {
        let _sym = phase_scope(Phase::Symbolic);
        profile::time_op_with("peak_extraction", OpCategory::Other, || {
            let mut scanned: u64 = 0;
            let mut by_primitive: Vec<(Primitive, Vec<Detection>)> =
                Primitive::ALL.iter().map(|p| (*p, Vec::new())).collect();
            for (primitive, k, map) in maps {
                let dims = map.dims();
                let (h, w) = (dims[2], dims[3]);
                // Top peaks with a crude spatial separation of k/2.
                let mut candidates: Vec<Detection> = Vec::new();
                for y in 0..h {
                    for x in 0..w {
                        scanned += 1;
                        let v = map.data()[y * w + x];
                        if v <= 0.2 {
                            continue;
                        }
                        candidates.push(Detection {
                            primitive: *primitive,
                            row: y,
                            col: x,
                            scale: *k,
                            response: v,
                        });
                    }
                }
                candidates.sort_by(|a, b| b.response.partial_cmp(&a.response).expect("finite"));
                let mut kept: Vec<Detection> = Vec::new();
                for c in candidates {
                    let sep = (*k / 2).max(2);
                    if kept
                        .iter()
                        .all(|d| d.row.abs_diff(c.row) >= sep || d.col.abs_diff(c.col) >= sep)
                    {
                        kept.push(c);
                    }
                    if kept.len() >= max_per_primitive {
                        break;
                    }
                }
                by_primitive
                    .iter_mut()
                    .find(|(p, _)| p == primitive)
                    .expect("all primitives present")
                    .1
                    .extend(kept);
            }
            let mut out = Vec::new();
            for (_, mut dets) in by_primitive {
                dets.sort_by(|a, b| b.response.partial_cmp(&a.response).expect("finite"));
                dets.truncate(max_per_primitive);
                out.extend(dets);
            }
            let meta = OpMeta::new()
                .flops(scanned)
                .bytes_read(scanned * 4)
                .bytes_written(out.len() as u64 * 24)
                .output_elems(out.len() as u64);
            (out, meta)
        })
    }

    /// Whether a relation holds between two detections.
    fn relation_holds(rel: Relation, a: &Detection, b: &Detection) -> bool {
        match rel {
            Relation::Parallel => a.primitive == b.primitive,
            Relation::Perpendicular => {
                matches!(
                    (a.primitive, b.primitive),
                    (Primitive::HLine, Primitive::VLine) | (Primitive::VLine, Primitive::HLine)
                )
            }
            Relation::Inside => {
                // a inside b's bounding box (template-centered boxes).
                let half_b = b.scale / 2 + 2;
                a.row + a.scale / 2 <= b.row + b.scale / 2 + half_b
                    && a.row + half_b >= b.row.saturating_sub(2)
                    && a.col.abs_diff(b.col) <= half_b
            }
        }
    }

    /// Ground a concept graph against detections: maximize node responses
    /// plus relation consistency over injective assignments (symbolic
    /// combinatorial search).
    fn ground(&self, concept: &ConceptGraph, detections: &[Detection]) -> f32 {
        let _sym = phase_scope(Phase::Symbolic);
        profile::time_op_with("graph_grounding", OpCategory::Other, || {
            let n = concept.nodes.len();
            let mut best = f32::NEG_INFINITY;
            // Candidate detections per node (matching primitive kind).
            let candidates: Vec<Vec<usize>> = concept
                .nodes
                .iter()
                .map(|p| {
                    detections
                        .iter()
                        .enumerate()
                        .filter(|(_, d)| d.primitive == *p)
                        .map(|(i, _)| i)
                        .collect()
                })
                .collect();
            // Exhaustive injective assignment (node counts are tiny).
            let mut assignment = vec![usize::MAX; n];
            fn recurse(
                node: usize,
                candidates: &[Vec<usize>],
                assignment: &mut Vec<usize>,
                detections: &[Detection],
                concept: &ConceptGraph,
                best: &mut f32,
            ) {
                let n = candidates.len();
                if node == n {
                    let mut score = 0.0f32;
                    for &d in assignment.iter() {
                        score += detections[d].response;
                    }
                    for &(a, b, rel) in &concept.edges {
                        if ZeroC::relation_holds(
                            rel,
                            &detections[assignment[a]],
                            &detections[assignment[b]],
                        ) {
                            score += 1.0;
                        } else {
                            score -= 1.0;
                        }
                    }
                    if score > *best {
                        *best = score;
                    }
                    return;
                }
                for &cand in &candidates[node] {
                    if assignment[..node].contains(&cand) {
                        continue;
                    }
                    assignment[node] = cand;
                    recurse(node + 1, candidates, assignment, detections, concept, best);
                    assignment[node] = usize::MAX;
                }
            }
            recurse(
                0,
                &candidates,
                &mut assignment,
                detections,
                concept,
                &mut best,
            );
            let assignments: u64 = candidates.iter().map(|c| c.len().max(1) as u64).product();
            let meta = OpMeta::new()
                .flops(assignments * (n as u64 + concept.edges.len() as u64))
                .bytes_read(assignments * 24)
                .bytes_written(4)
                .output_elems(1);
            (best, meta)
        })
    }

    /// Classify a scene among the catalog concepts (zero-shot).
    fn classify(&self, scene: &ConceptScene) -> Result<Option<String>, WorkloadError> {
        let maps = self.response_maps(&scene.image)?;
        let detections = self.detect(&maps, 3);
        let mut best: (f32, Option<String>) = (f32::NEG_INFINITY, None);
        for concept in concept_catalog() {
            let score = self.ground(&concept, &detections);
            if score > best.0 {
                best = (score, Some(concept.name.clone()));
            }
        }
        Ok(best.1)
    }
}

impl Workload for ZeroC {
    fn name(&self) -> &'static str {
        "zeroc"
    }

    fn category(&self) -> NsCategory {
        NsCategory::NeuroBracketSymbolic
    }

    fn run_case(&mut self, input: &CaseInput) -> Result<WorkloadOutput, WorkloadError> {
        {
            let _neural = phase_scope(Phase::Neural);
            let bytes: u64 = self.templates.iter().map(|(_, _, t)| t.bytes()).sum();
            profile::register_storage("zeroc.templates", bytes);
        }
        // The episode varies which scenes are drawn for each concept; the
        // primitive templates are the fixed model.
        let mut generator =
            ConceptGenerator::new(self.config.res, input.derive_seed(self.config.seed));
        let catalog = concept_catalog();
        let mut correct = 0usize;
        let mut total = 0usize;
        for concept in &catalog {
            for _ in 0..self.config.scenes_per_concept {
                let scene = generator.scene_for(concept);
                let predicted = self.classify(&scene)?;
                if predicted.as_deref() == Some(concept.name.as_str()) {
                    correct += 1;
                }
                total += 1;
            }
        }
        let mut out = WorkloadOutput::new();
        out.set("accuracy", correct as f64 / total as f64);
        out.set("concepts", catalog.len() as f64);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsai_core::taxonomy::OpCategory;
    use nsai_core::Profiler;

    #[test]
    fn recognizes_concepts_zero_shot() {
        let mut zeroc = ZeroC::new(ZeroCConfig::small());
        let out = zeroc.run().unwrap();
        let acc = out.metric("accuracy").unwrap();
        assert!(acc >= 0.5, "accuracy {acc}");
    }

    #[test]
    fn templates_fire_on_their_primitive() {
        let zeroc = ZeroC::new(ZeroCConfig::small());
        let mut generator = ConceptGenerator::new(32, 9);
        let catalog = concept_catalog();
        let scene = generator.scene_for(&catalog[0]); // parallel h-lines
        let maps = zeroc.response_maps(&scene.image).unwrap();
        let best_h = maps
            .iter()
            .filter(|(p, _, _)| *p == Primitive::HLine)
            .map(|(_, _, m)| m.max())
            .fold(f32::NEG_INFINITY, f32::max);
        let best_v = maps
            .iter()
            .filter(|(p, _, _)| *p == Primitive::VLine)
            .map(|(_, _, m)| m.max())
            .fold(f32::NEG_INFINITY, f32::max);
        assert!(best_h > best_v, "h {best_h} vs v {best_v}");
    }

    #[test]
    fn detection_finds_instances() {
        let zeroc = ZeroC::new(ZeroCConfig::small());
        let mut generator = ConceptGenerator::new(32, 10);
        let scene = generator.scene_for(&concept_catalog()[1]); // h + v
        let maps = zeroc.response_maps(&scene.image).unwrap();
        let detections = zeroc.detect(&maps, 3);
        assert!(detections.iter().any(|d| d.primitive == Primitive::HLine));
        assert!(detections.iter().any(|d| d.primitive == Primitive::VLine));
    }

    #[test]
    fn relation_checks() {
        let d = |p, row, col, scale| Detection {
            primitive: p,
            row,
            col,
            scale,
            response: 1.0,
        };
        let h1 = d(Primitive::HLine, 5, 5, 8);
        let h2 = d(Primitive::HLine, 20, 5, 8);
        let v = d(Primitive::VLine, 5, 20, 8);
        assert!(ZeroC::relation_holds(Relation::Parallel, &h1, &h2));
        assert!(!ZeroC::relation_holds(Relation::Parallel, &h1, &v));
        assert!(ZeroC::relation_holds(Relation::Perpendicular, &h1, &v));
        assert!(!ZeroC::relation_holds(Relation::Perpendicular, &h1, &h2));
    }

    #[test]
    fn neural_phase_dominates() {
        // ZeroC is the paper's neural-dominated workload (73.2% neural).
        let mut zeroc = ZeroC::new(ZeroCConfig::small());
        let profiler = Profiler::new();
        {
            let _a = profiler.activate();
            let _ = zeroc.run().unwrap();
        }
        let report = profiler.report_for("zeroc");
        let neural = report.phase_bytes_fraction(Phase::Neural);
        assert!(neural > 0.5, "neural fraction {neural}");
        let conv = report.category_flops_fraction(Phase::Neural, OpCategory::Convolution);
        assert!(conv > 0.8, "conv share {conv}");
    }

    #[test]
    fn category_and_name() {
        let zeroc = ZeroC::new(ZeroCConfig::small());
        assert_eq!(zeroc.name(), "zeroc");
        assert_eq!(zeroc.category(), NsCategory::NeuroBracketSymbolic);
    }
}
