//! Family-graph reasoning and sorting tasks — the NLM workloads.
//!
//! NLM is trained/evaluated on relational reasoning over family trees
//! (deriving `grandparent`, `uncle`, ... from `parent`) and on algorithmic
//! tasks like sorting, both expressed as predicate tensors over objects.

use nsai_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generated family tree over `n` people.
#[derive(Debug, Clone)]
pub struct FamilyGraph {
    n: usize,
    /// `parent[i][j]` = person `i` is a parent of person `j`.
    parent: Vec<bool>,
    /// Gender bit per person (for mother/father-style predicates).
    is_female: Vec<bool>,
}

impl FamilyGraph {
    /// Generate a random forest-structured family over `n ≥ 2` people:
    /// each person after the roots receives one or two parents among
    /// earlier people.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn generate(n: usize, seed: u64) -> Self {
        assert!(n >= 2, "need at least two people");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut parent = vec![false; n * n];
        let is_female = (0..n).map(|_| rng.gen_bool(0.5)).collect();
        for child in 1..n {
            let p1 = rng.gen_range(0..child);
            parent[p1 * n + child] = true;
            if child >= 2 && rng.gen_bool(0.7) {
                let p2 = rng.gen_range(0..child);
                if p2 != p1 {
                    parent[p2 * n + child] = true;
                }
            }
        }
        FamilyGraph {
            n,
            parent,
            is_female,
        }
    }

    /// Number of people.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the family is empty (never true for generated graphs).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Whether `i` is a parent of `j`.
    pub fn is_parent(&self, i: usize, j: usize) -> bool {
        self.parent[i * self.n + j]
    }

    /// The `parent` relation as a `[n, n]` 0/1 tensor.
    pub fn parent_tensor(&self) -> Tensor {
        let data = self
            .parent
            .iter()
            .map(|&b| if b { 1.0 } else { 0.0 })
            .collect();
        Tensor::from_vec(data, &[self.n, self.n]).expect("length matches")
    }

    /// Unary properties `[n, 2]`: (is_female, is_male).
    pub fn unary_tensor(&self) -> Tensor {
        let mut data = Vec::with_capacity(self.n * 2);
        for &f in &self.is_female {
            data.push(if f { 1.0 } else { 0.0 });
            data.push(if f { 0.0 } else { 1.0 });
        }
        Tensor::from_vec(data, &[self.n, 2]).expect("length matches")
    }

    /// Ground-truth `grandparent` relation as `[n, n]` 0/1 tensor.
    pub fn grandparent_tensor(&self) -> Tensor {
        let mut out = Tensor::zeros(&[self.n, self.n]);
        for g in 0..self.n {
            for p in 0..self.n {
                if !self.is_parent(g, p) {
                    continue;
                }
                for c in 0..self.n {
                    if self.is_parent(p, c) {
                        out.data_mut()[g * self.n + c] = 1.0;
                    }
                }
            }
        }
        out
    }
}

/// A sorting-task instance: an array and its target permutation relation.
#[derive(Debug, Clone)]
pub struct SortingTask {
    /// The values to sort.
    pub values: Vec<f32>,
    /// Pairwise `less_than` input relation `[n, n]`.
    pub less_than: Tensor,
    /// Target `should_swap`-style relation: `[n, n]` where entry `(i, j)`
    /// is 1 iff value `i` belongs strictly before value `j` in sorted
    /// order.
    pub target_order: Tensor,
}

/// Generate a sorting task over `n ≥ 2` distinct values.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn sorting_task(n: usize, seed: u64) -> SortingTask {
    assert!(n >= 2, "need at least two values");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut values: Vec<f32> = Vec::with_capacity(n);
    while values.len() < n {
        let v = rng.gen_range(-10.0..10.0);
        if !values.iter().any(|x: &f32| (x - v).abs() < 1e-6) {
            values.push(v);
        }
    }
    let mut less = Tensor::zeros(&[n, n]);
    for i in 0..n {
        for j in 0..n {
            if values[i] < values[j] {
                less.data_mut()[i * n + j] = 1.0;
            }
        }
    }
    // For distinct values the target order relation equals less_than.
    let target = less.clone();
    SortingTask {
        values,
        less_than: less,
        target_order: target,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_non_root_has_a_parent() {
        let f = FamilyGraph::generate(12, 1);
        for child in 1..12 {
            let has_parent = (0..12).any(|p| f.is_parent(p, child));
            assert!(has_parent, "person {child} is an orphan");
        }
    }

    #[test]
    fn parents_precede_children() {
        let f = FamilyGraph::generate(20, 2);
        for p in 0..20 {
            for c in 0..20 {
                if f.is_parent(p, c) {
                    assert!(p < c, "cycle risk: {p} -> {c}");
                }
            }
        }
    }

    #[test]
    fn grandparent_is_parent_composed_with_parent() {
        let f = FamilyGraph::generate(15, 3);
        let p = f.parent_tensor();
        let composed = p.matmul(&p).unwrap();
        let gp = f.grandparent_tensor();
        for i in 0..15 * 15 {
            let expected = composed.data()[i] > 0.0;
            assert_eq!(gp.data()[i] > 0.0, expected, "mismatch at {i}");
        }
    }

    #[test]
    fn unary_tensor_is_one_hot_gender() {
        let f = FamilyGraph::generate(10, 5);
        let u = f.unary_tensor();
        assert_eq!(u.dims(), &[10, 2]);
        for r in 0..10 {
            assert_eq!(u.data()[r * 2] + u.data()[r * 2 + 1], 1.0);
        }
    }

    #[test]
    fn sorting_target_is_strict_total_order() {
        let t = sorting_task(8, 6);
        let d = t.target_order.data();
        for i in 0..8 {
            assert_eq!(d[i * 8 + i], 0.0);
            for j in 0..8 {
                if i != j {
                    // Exactly one of (i,j), (j,i) holds.
                    assert_eq!(d[i * 8 + j] + d[j * 8 + i], 1.0);
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = FamilyGraph::generate(10, 7);
        let b = FamilyGraph::generate(10, 7);
        assert_eq!(a.parent_tensor().data(), b.parent_tensor().data());
        let s1 = sorting_task(5, 8);
        let s2 = sorting_task(5, 8);
        assert_eq!(s1.values, s2.values);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn size_validation() {
        let _ = FamilyGraph::generate(1, 1);
    }
}
