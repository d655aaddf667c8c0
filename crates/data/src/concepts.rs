//! Hierarchical concept grids — the ZeroC workload's data.
//!
//! ZeroC composes *primitive concepts* (lines, rectangles) and *relations*
//! (parallel, perpendicular) into hierarchical concepts described by
//! graphs, then recognizes the hierarchy zero-shot in images. This module
//! generates small binary images containing primitive arrangements with
//! ground-truth concept-graph labels.

use nsai_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The primitive concepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Primitive {
    /// A horizontal line segment.
    HLine,
    /// A vertical line segment.
    VLine,
    /// A hollow rectangle outline.
    Rect,
}

impl Primitive {
    /// All primitives.
    pub const ALL: [Primitive; 3] = [Primitive::HLine, Primitive::VLine, Primitive::Rect];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Primitive::HLine => "hline",
            Primitive::VLine => "vline",
            Primitive::Rect => "rect",
        }
    }
}

/// Pairwise spatial relations between placed primitives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// Same orientation (two h-lines or two v-lines).
    Parallel,
    /// Orthogonal orientations (an h-line and a v-line).
    Perpendicular,
    /// One primitive's bounding box contains the other's.
    Inside,
}

impl Relation {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Relation::Parallel => "parallel",
            Relation::Perpendicular => "perpendicular",
            Relation::Inside => "inside",
        }
    }
}

/// A placed primitive instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placed {
    /// Which primitive.
    pub primitive: Primitive,
    /// Top-left row.
    pub row: usize,
    /// Top-left column.
    pub col: usize,
    /// Extent in pixels (length or rectangle side).
    pub extent: usize,
}

/// A hierarchical concept: primitives as nodes, relations as edges — the
/// "concept graph" of ZeroC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConceptGraph {
    /// Concept name, e.g. `"Eshape"` or `"parallel_pair"`.
    pub name: String,
    /// Constituent primitive kinds.
    pub nodes: Vec<Primitive>,
    /// Relations between node indices.
    pub edges: Vec<(usize, usize, Relation)>,
}

/// A labeled scene: the image plus the placed primitives and the concept
/// it instantiates.
#[derive(Debug, Clone)]
pub struct ConceptScene {
    /// Binary `[1, res, res]` image.
    pub image: Tensor,
    /// Placed primitive instances.
    pub placed: Vec<Placed>,
    /// The hierarchical concept instantiated (if any).
    pub concept: Option<ConceptGraph>,
}

/// The catalog of hierarchical concepts the generator can instantiate.
pub fn concept_catalog() -> Vec<ConceptGraph> {
    vec![
        ConceptGraph {
            name: "parallel_pair".into(),
            nodes: vec![Primitive::HLine, Primitive::HLine],
            edges: vec![(0, 1, Relation::Parallel)],
        },
        ConceptGraph {
            name: "perpendicular_pair".into(),
            nodes: vec![Primitive::HLine, Primitive::VLine],
            edges: vec![(0, 1, Relation::Perpendicular)],
        },
        ConceptGraph {
            name: "lined_rect".into(),
            nodes: vec![Primitive::Rect, Primitive::HLine],
            edges: vec![(1, 0, Relation::Inside)],
        },
    ]
}

/// Scene generator for concept grids.
#[derive(Debug)]
pub struct ConceptGenerator {
    rng: StdRng,
    res: usize,
}

impl ConceptGenerator {
    /// Create a generator for `res × res` scenes.
    ///
    /// # Panics
    ///
    /// Panics if `res < 16`.
    pub fn new(res: usize, seed: u64) -> Self {
        assert!(res >= 16, "resolution must be at least 16");
        ConceptGenerator {
            rng: StdRng::seed_from_u64(seed),
            res,
        }
    }

    fn rasterize(&self, placed: &[Placed]) -> Tensor {
        let res = self.res;
        let mut img = Tensor::zeros(&[1, res, res]);
        for p in placed {
            match p.primitive {
                Primitive::HLine => {
                    for x in p.col..(p.col + p.extent).min(res) {
                        img.data_mut()[p.row * res + x] = 1.0;
                    }
                }
                Primitive::VLine => {
                    for y in p.row..(p.row + p.extent).min(res) {
                        img.data_mut()[y * res + p.col] = 1.0;
                    }
                }
                Primitive::Rect => {
                    let r1 = (p.row + p.extent).min(res - 1);
                    let c1 = (p.col + p.extent).min(res - 1);
                    for x in p.col..=c1 {
                        img.data_mut()[p.row * res + x] = 1.0;
                        img.data_mut()[r1 * res + x] = 1.0;
                    }
                    for y in p.row..=r1 {
                        img.data_mut()[y * res + p.col] = 1.0;
                        img.data_mut()[y * res + c1] = 1.0;
                    }
                }
            }
        }
        img
    }

    fn place(&mut self, primitive: Primitive) -> Placed {
        let res = self.res;
        let extent = self.rng.gen_range(res / 4..res / 2);
        let row = self.rng.gen_range(1..res - extent - 1);
        let col = self.rng.gen_range(1..res - extent - 1);
        Placed {
            primitive,
            row,
            col,
            extent,
        }
    }

    /// Generate a scene instantiating the given concept.
    pub fn scene_for(&mut self, concept: &ConceptGraph) -> ConceptScene {
        let res = self.res;
        let mut placed: Vec<Placed> = Vec::new();
        for (i, node) in concept.nodes.iter().enumerate() {
            // Respect `Inside` edges: place the inner primitive within the
            // outer's box.
            let inside_of = concept
                .edges
                .iter()
                .find(|(from, _, rel)| *from == i && *rel == Relation::Inside)
                .map(|(_, to, _)| *to);
            let p = match inside_of {
                Some(outer_idx) if outer_idx < placed.len() => {
                    let outer = placed[outer_idx];
                    let extent = (outer.extent / 2).max(2);
                    Placed {
                        primitive: *node,
                        row: outer.row + outer.extent / 4 + 1,
                        col: outer.col + 1,
                        extent,
                    }
                }
                _ => self.place(*node),
            };
            placed.push(p);
        }
        let _ = res;
        ConceptScene {
            image: self.rasterize(&placed),
            placed,
            concept: Some(concept.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_concepts_are_well_formed() {
        for c in concept_catalog() {
            assert!(!c.nodes.is_empty());
            for &(a, b, _) in &c.edges {
                assert!(a < c.nodes.len() && b < c.nodes.len(), "{}", c.name);
            }
        }
    }

    #[test]
    fn scenes_contain_ink() {
        let mut g = ConceptGenerator::new(32, 1);
        for c in concept_catalog() {
            let s = g.scene_for(&c);
            assert!(s.image.count_nonzero() > 0, "{} rendered blank", c.name);
            assert_eq!(s.placed.len(), c.nodes.len());
        }
    }

    #[test]
    fn inside_relation_is_respected_geometrically() {
        let mut g = ConceptGenerator::new(48, 2);
        let catalog = concept_catalog();
        let lined_rect = catalog.iter().find(|c| c.name == "lined_rect").unwrap();
        let s = g.scene_for(lined_rect);
        let rect = s.placed[0];
        let line = s.placed[1];
        assert!(line.row >= rect.row && line.col >= rect.col);
        assert!(line.col + line.extent <= rect.col + rect.extent + 1);
    }

    #[test]
    fn generation_is_deterministic() {
        let c = concept_catalog().remove(0);
        let a = ConceptGenerator::new(32, 4).scene_for(&c);
        let b = ConceptGenerator::new(32, 4).scene_for(&c);
        assert_eq!(a.image.data(), b.image.data());
    }

    #[test]
    fn primitive_and_relation_names() {
        assert_eq!(Primitive::Rect.name(), "rect");
        assert_eq!(Relation::Perpendicular.name(), "perpendicular");
    }
}
