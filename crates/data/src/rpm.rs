//! Raven's-Progressive-Matrices (RPM) problem generator — the stand-in for
//! RAVEN / I-RAVEN used by the NVSA and PrAE workloads.
//!
//! A problem is a `g×g` matrix of panels; the last panel is removed and
//! must be selected among 8 candidates. Panels hold objects on a 3×3
//! position grid; each object row evolves under one hidden rule per
//! attribute (constant / progression / arithmetic / distribute-three),
//! exactly the rule families NVSA's symbolic backend abduces.

use crate::images::draw_disc_soft;
use nsai_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The attributes governed by rules, in the order Fig. 5 reports them.
pub const ATTRIBUTES: [&str; 5] = ["position", "number", "type", "size", "color"];

/// Value ranges per attribute (inclusive upper bounds are `len - 1`).
/// `position` is an index into canned position patterns, not a bitmask.
pub const ATTRIBUTE_CARDINALITIES: [usize; 5] = [9, 9, 5, 6, 10];

/// The rule families of the RAVEN-style grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Attribute stays constant along the row.
    Constant,
    /// Attribute changes by a fixed delta along the row.
    Progression(i32),
    /// Last attribute is the sum (`true`) or difference (`false`) of the
    /// previous two (requires rows of 3).
    Arithmetic(bool),
    /// The row is a permutation of three fixed values (requires rows of 3).
    DistributeThree,
}

impl Rule {
    /// Human-readable rule name.
    pub fn name(&self) -> &'static str {
        match self {
            Rule::Constant => "constant",
            Rule::Progression(_) => "progression",
            Rule::Arithmetic(_) => "arithmetic",
            Rule::DistributeThree => "distribute_three",
        }
    }
}

/// One panel: a set of objects, expressed as per-attribute integer values.
///
/// For simplicity all objects in a panel share type/size/color (the RAVEN
/// "Center" and "Distribute" configurations are special cases of this),
/// while `number`/`position` control the object layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Panel {
    /// Index into the 9 canned position patterns.
    pub position: usize,
    /// Number of objects − 1 (so the attribute range starts at 0).
    pub number: usize,
    /// Shape type index.
    pub shape_type: usize,
    /// Size index.
    pub size: usize,
    /// Color index.
    pub color: usize,
}

impl Panel {
    /// Attribute values in [`ATTRIBUTES`] order.
    pub fn attributes(&self) -> [usize; 5] {
        [
            self.position,
            self.number,
            self.shape_type,
            self.size,
            self.color,
        ]
    }

    /// Build from attribute values in [`ATTRIBUTES`] order, wrapping each
    /// into its cardinality.
    pub fn from_attributes(values: [usize; 5]) -> Panel {
        Panel {
            position: values[0] % ATTRIBUTE_CARDINALITIES[0],
            number: values[1] % ATTRIBUTE_CARDINALITIES[1],
            shape_type: values[2] % ATTRIBUTE_CARDINALITIES[2],
            size: values[3] % ATTRIBUTE_CARDINALITIES[3],
            color: values[4] % ATTRIBUTE_CARDINALITIES[4],
        }
    }

    /// Rasterize to a grayscale `[1, res, res]` tensor.
    pub fn render(&self, res: usize) -> Tensor {
        let mut img = Tensor::zeros(&[1, res, res]);
        let cell = res / 3;
        let n_objects = self.number + 1;
        let intensity = 0.3 + 0.07 * self.color as f32;
        // Fractional radius: at small resolutions whole-pixel radii would
        // collapse neighboring size grades into identical images (at 16×16
        // five of the six grades truncate to radius 1), making the size
        // attribute unlearnable. The anti-aliased renderer keeps each
        // grade distinct.
        let radius = cell as f32 * (0.15 + 0.05 * self.size as f32);
        for k in 0..n_objects {
            let slot = (self.position + k * 2) % 9;
            let (row, col) = (slot / 3, slot % 3);
            let cy = row * cell + cell / 2;
            let cx = col * cell + cell / 2;
            draw_disc_soft(
                img.data_mut(),
                res,
                cy,
                cx,
                radius.max(0.75),
                intensity,
                self.shape_type,
            );
        }
        img
    }
}

/// A complete RPM problem.
#[derive(Debug, Clone)]
pub struct RpmProblem {
    /// Matrix side length (2 or 3 in the paper's Fig. 2c sweep).
    pub grid: usize,
    /// The `grid × grid` matrix of panels (including the true last panel).
    pub matrix: Vec<Panel>,
    /// The 8 candidate panels.
    pub candidates: Vec<Panel>,
    /// Index of the correct candidate.
    pub answer: usize,
    /// The hidden rule per attribute, in [`ATTRIBUTES`] order.
    pub rules: [Rule; 5],
}

impl RpmProblem {
    /// The context panels (matrix minus the final panel).
    pub fn context(&self) -> &[Panel] {
        &self.matrix[..self.matrix.len() - 1]
    }

    /// The ground-truth final panel.
    pub fn solution(&self) -> Panel {
        self.matrix[self.matrix.len() - 1]
    }
}

/// Deterministic RPM problem generator.
#[derive(Debug)]
pub struct RpmGenerator {
    rng: StdRng,
}

impl RpmGenerator {
    /// Create with a seed.
    pub fn new(seed: u64) -> Self {
        RpmGenerator {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn sample_rule(&mut self, grid: usize) -> Rule {
        // Arithmetic / distribute-three need rows of 3.
        let choices: &[Rule] = if grid >= 3 {
            &[
                Rule::Constant,
                Rule::Progression(1),
                Rule::Progression(-1),
                Rule::Progression(2),
                Rule::Arithmetic(true),
                Rule::Arithmetic(false),
                Rule::DistributeThree,
            ]
        } else {
            &[Rule::Constant, Rule::Progression(1), Rule::Progression(-1)]
        };
        *choices.choose(&mut self.rng).expect("non-empty")
    }

    /// Fill one row of attribute values under a rule.
    fn fill_row(&mut self, rule: Rule, grid: usize, cardinality: usize) -> Vec<usize> {
        let card = cardinality as i32;
        match rule {
            Rule::Constant => {
                let v = self.rng.gen_range(0..cardinality);
                vec![v; grid]
            }
            Rule::Progression(delta) => {
                // Choose a start so the row stays in range without wrap.
                let span = delta * (grid as i32 - 1);
                let (lo, hi) = if span >= 0 {
                    (0, card - 1 - span)
                } else {
                    (-span, card - 1)
                };
                let start = if lo >= hi {
                    lo
                } else {
                    self.rng.gen_range(lo..=hi)
                };
                (0..grid)
                    .map(|i| (start + delta * i as i32).rem_euclid(card) as usize)
                    .collect()
            }
            Rule::Arithmetic(add) => {
                debug_assert_eq!(grid, 3);
                loop {
                    let a = self.rng.gen_range(0..cardinality) as i32;
                    let b = self.rng.gen_range(0..cardinality) as i32;
                    let c = if add { a + b } else { a - b };
                    if (0..card).contains(&c) {
                        return vec![a as usize, b as usize, c as usize];
                    }
                }
            }
            Rule::DistributeThree => {
                debug_assert_eq!(grid, 3);
                let mut values: Vec<usize> = (0..cardinality).collect();
                values.shuffle(&mut self.rng);
                values.truncate(3);
                vec![values[0], values[1], values[2]]
            }
        }
    }

    /// Generate one problem with a `grid × grid` matrix.
    ///
    /// # Panics
    ///
    /// Panics unless `grid` is 2 or 3.
    pub fn generate(&mut self, grid: usize) -> RpmProblem {
        assert!(grid == 2 || grid == 3, "grid must be 2 or 3, got {grid}");
        let mut rules = [Rule::Constant; 5];
        let mut rows: Vec<Vec<[usize; 5]>> = vec![vec![[0; 5]; grid]; grid];
        for (attr, rule_slot) in rules.iter_mut().enumerate() {
            let rule = self.sample_rule(grid);
            *rule_slot = rule;
            // DistributeThree shares its value *set* across rows; others
            // re-sample per row.
            let shared = if rule == Rule::DistributeThree {
                Some(self.fill_row(rule, grid, ATTRIBUTE_CARDINALITIES[attr]))
            } else {
                None
            };
            for (r, row_vals) in rows.iter_mut().enumerate() {
                let mut vals = match &shared {
                    Some(base) => {
                        let mut v = base.clone();
                        v.rotate_left(r % grid);
                        v
                    }
                    None => self.fill_row(rule, grid, ATTRIBUTE_CARDINALITIES[attr]),
                };
                for (c, panel_vals) in row_vals.iter_mut().enumerate() {
                    panel_vals[attr] = vals.remove(0);
                    let _ = c;
                }
            }
        }
        let matrix: Vec<Panel> = rows
            .into_iter()
            .flatten()
            .map(Panel::from_attributes)
            .collect();
        let solution = *matrix.last().expect("matrix non-empty");

        // Candidates: the solution plus 7 attribute-perturbed distractors.
        let mut candidates = vec![solution];
        while candidates.len() < 8 {
            let mut attrs = solution.attributes();
            let which = self.rng.gen_range(0..5);
            let bump = self.rng.gen_range(1..ATTRIBUTE_CARDINALITIES[which]);
            attrs[which] = (attrs[which] + bump) % ATTRIBUTE_CARDINALITIES[which];
            let distractor = Panel::from_attributes(attrs);
            if !candidates.contains(&distractor) {
                candidates.push(distractor);
            }
        }
        candidates.shuffle(&mut self.rng);
        let answer = candidates
            .iter()
            .position(|p| *p == solution)
            .expect("solution is among candidates");
        RpmProblem {
            grid,
            matrix,
            candidates,
            answer,
            rules,
        }
    }

    /// Generate a **multi-component** problem: `components` independent
    /// rule systems sharing one aligned candidate set — the structure of
    /// RAVEN's Left-Right / Up-Down / Out-In configurations, where each
    /// panel region evolves under its own rules. The correct candidate
    /// index is the same across components.
    ///
    /// # Panics
    ///
    /// Panics unless `grid` is 2 or 3 and `components ≥ 1`.
    pub fn generate_composite(&mut self, grid: usize, components: usize) -> Vec<RpmProblem> {
        assert!(components >= 1, "need at least one component");
        let mut problems: Vec<RpmProblem> = (0..components).map(|_| self.generate(grid)).collect();
        // Align every component's correct candidate to component 0's slot.
        let target = problems[0].answer;
        for p in problems.iter_mut().skip(1) {
            let current = p.answer;
            p.candidates.swap(current, target);
            p.answer = target;
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_rule_holds(rule: Rule, row: &[usize], card: usize) -> bool {
        match rule {
            Rule::Constant => row.windows(2).all(|w| w[0] == w[1]),
            Rule::Progression(d) => row
                .windows(2)
                .all(|w| (w[0] as i32 + d).rem_euclid(card as i32) as usize == w[1]),
            Rule::Arithmetic(add) => {
                let (a, b, c) = (row[0] as i32, row[1] as i32, row[2] as i32);
                if add {
                    a + b == c
                } else {
                    a - b == c
                }
            }
            Rule::DistributeThree => {
                let mut sorted = row.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                sorted.len() == row.len()
            }
        }
    }

    #[test]
    fn generated_rows_satisfy_their_rules() {
        let mut generator = RpmGenerator::new(1);
        for trial in 0..50 {
            let p = generator.generate(3);
            for (attr, rule) in p.rules.iter().enumerate() {
                for r in 0..3 {
                    let row: Vec<usize> = (0..3)
                        .map(|c| p.matrix[r * 3 + c].attributes()[attr])
                        .collect();
                    assert!(
                        check_rule_holds(*rule, &row, ATTRIBUTE_CARDINALITIES[attr]),
                        "trial {trial}: rule {rule:?} violated on attr {attr} row {row:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn grid2_problems_use_row_length_2_rules() {
        let mut generator = RpmGenerator::new(2);
        for _ in 0..20 {
            let p = generator.generate(2);
            assert_eq!(p.matrix.len(), 4);
            for rule in &p.rules {
                assert!(
                    matches!(rule, Rule::Constant | Rule::Progression(_)),
                    "grid-2 cannot host {rule:?}"
                );
            }
        }
    }

    #[test]
    fn exactly_one_correct_candidate() {
        let mut generator = RpmGenerator::new(3);
        for _ in 0..20 {
            let p = generator.generate(3);
            assert_eq!(p.candidates.len(), 8);
            let matches = p.candidates.iter().filter(|c| **c == p.solution()).count();
            assert_eq!(matches, 1);
            assert_eq!(p.candidates[p.answer], p.solution());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = RpmGenerator::new(7).generate(3);
        let b = RpmGenerator::new(7).generate(3);
        assert_eq!(a.matrix, b.matrix);
        assert_eq!(a.answer, b.answer);
    }

    #[test]
    fn context_excludes_solution() {
        let p = RpmGenerator::new(4).generate(3);
        assert_eq!(p.context().len(), 8);
        assert_eq!(p.matrix.len(), 9);
    }

    #[test]
    fn render_produces_nonempty_images() {
        let p = RpmGenerator::new(5).generate(2);
        assert_eq!(p.context().len(), 3);
        assert_eq!(p.candidates.len(), 8);
        for panel in p.context().iter().chain(&p.candidates) {
            let img = panel.render(32);
            assert_eq!(img.dims(), &[1, 32, 32]);
            assert!(img.count_nonzero() > 0, "blank panel rendered");
        }
    }

    #[test]
    fn different_panels_render_differently() {
        let a = Panel::from_attributes([0, 0, 0, 2, 5]).render(32);
        let b = Panel::from_attributes([4, 3, 1, 4, 9]).render(32);
        assert_ne!(a.data(), b.data());
    }

    #[test]
    fn composite_components_share_the_answer_slot() {
        let mut generator = RpmGenerator::new(8);
        let components = generator.generate_composite(3, 3);
        assert_eq!(components.len(), 3);
        let target = components[0].answer;
        for (i, p) in components.iter().enumerate() {
            assert_eq!(p.answer, target, "component {i} misaligned");
            assert_eq!(p.candidates[p.answer], p.solution());
            // Still exactly one correct candidate per component.
            let matches = p.candidates.iter().filter(|c| **c == p.solution()).count();
            assert_eq!(matches, 1);
        }
    }

    #[test]
    fn composite_components_are_independent() {
        let mut generator = RpmGenerator::new(9);
        let components = generator.generate_composite(3, 2);
        // With different rules or panels (overwhelmingly likely).
        assert!(
            components[0].matrix != components[1].matrix
                || components[0].rules != components[1].rules
        );
    }

    #[test]
    #[should_panic(expected = "grid must be 2 or 3")]
    fn grid_validation() {
        let _ = RpmGenerator::new(1).generate(4);
    }
}
