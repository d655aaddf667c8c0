//! Knowledge-base and formula-tree generators — the LNN workload's
//! stand-in for LUBM / TPTP.
//!
//! Two artifacts are produced:
//!
//! 1. A **university-schema Horn KB** (LUBM's domain): departments,
//!    professors, students, courses, `teaches` / `enrolled` / `advises`
//!    facts and derivation rules — exercising forward/backward chaining.
//! 2. **Propositional formula trees** with leaf truth bounds — the
//!    syntax-tree workload LNN's bidirectional inference runs over.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A propositional formula tree with Łukasiewicz connectives.
#[derive(Debug, Clone, PartialEq)]
pub enum FormulaTree {
    /// A leaf proposition with an index into the truth-bound table.
    Leaf(usize),
    /// Negation.
    Not(Box<FormulaTree>),
    /// Conjunction.
    And(Box<FormulaTree>, Box<FormulaTree>),
    /// Disjunction.
    Or(Box<FormulaTree>, Box<FormulaTree>),
    /// Implication.
    Implies(Box<FormulaTree>, Box<FormulaTree>),
}

/// Generated LNN theory: formula trees over a shared set of propositions,
/// with initial truth bounds for a subset of them.
#[derive(Debug, Clone)]
pub struct LnnTheory {
    /// Number of propositions.
    pub propositions: usize,
    /// Formula trees (axioms asserted true).
    pub formulas: Vec<FormulaTree>,
    /// Known point truths: `(proposition index, truth value)`.
    pub observations: Vec<(usize, f64)>,
}

/// Generate a random LNN theory.
///
/// # Panics
///
/// Panics for zero counts or `depth == 0`.
pub fn lnn_theory(propositions: usize, formulas: usize, depth: usize, seed: u64) -> LnnTheory {
    assert!(
        propositions > 0 && formulas > 0 && depth > 0,
        "counts must be positive"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    fn build(rng: &mut StdRng, props: usize, depth: usize) -> FormulaTree {
        if depth <= 1 || rng.gen_bool(0.25) {
            return FormulaTree::Leaf(rng.gen_range(0..props));
        }
        match rng.gen_range(0..4) {
            0 => FormulaTree::Not(Box::new(build(rng, props, depth - 1))),
            1 => FormulaTree::And(
                Box::new(build(rng, props, depth - 1)),
                Box::new(build(rng, props, depth - 1)),
            ),
            2 => FormulaTree::Or(
                Box::new(build(rng, props, depth - 1)),
                Box::new(build(rng, props, depth - 1)),
            ),
            _ => FormulaTree::Implies(
                Box::new(build(rng, props, depth - 1)),
                Box::new(build(rng, props, depth - 1)),
            ),
        }
    }
    let trees: Vec<FormulaTree> = (0..formulas)
        .map(|_| build(&mut rng, propositions, depth))
        .collect();
    let n_obs = (propositions / 3).max(1);
    let observations = (0..n_obs)
        .map(|_| {
            (
                rng.gen_range(0..propositions),
                if rng.gen_bool(0.5) { 1.0 } else { 0.0 },
            )
        })
        .collect();
    LnnTheory {
        propositions,
        formulas: trees,
        observations,
    }
}

/// The entity counts of a generated university KB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniversityConfig {
    /// Number of departments.
    pub departments: usize,
    /// Professors per department.
    pub professors_per_dept: usize,
    /// Students per department.
    pub students_per_dept: usize,
    /// Courses per department.
    pub courses_per_dept: usize,
}

impl Default for UniversityConfig {
    fn default() -> Self {
        UniversityConfig {
            departments: 2,
            professors_per_dept: 3,
            students_per_dept: 8,
            courses_per_dept: 4,
        }
    }
}

/// Ground facts of a university KB as `(predicate, args)` string tuples —
/// the caller lifts them into its own atom representation (keeps this
/// crate independent of `nsai-logic`).
#[derive(Debug, Clone)]
pub struct UniversityKb {
    /// Unary facts `(predicate, entity)`.
    pub unary: Vec<(String, String)>,
    /// Binary facts `(predicate, subject, object)`.
    pub binary: Vec<(String, String, String)>,
}

/// Generate a LUBM-flavoured university KB.
pub fn university_kb(config: UniversityConfig, seed: u64) -> UniversityKb {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut unary = Vec::new();
    let mut binary = Vec::new();
    for d in 0..config.departments {
        let dept = format!("dept{d}");
        unary.push(("department".into(), dept.clone()));
        let professors: Vec<String> = (0..config.professors_per_dept)
            .map(|p| format!("prof{d}_{p}"))
            .collect();
        let courses: Vec<String> = (0..config.courses_per_dept)
            .map(|c| format!("course{d}_{c}"))
            .collect();
        for prof in &professors {
            unary.push(("professor".into(), prof.clone()));
            binary.push(("works_for".into(), prof.clone(), dept.clone()));
        }
        for (ci, course) in courses.iter().enumerate() {
            unary.push(("course".into(), course.clone()));
            let teacher = &professors[ci % professors.len()];
            binary.push(("teaches".into(), teacher.clone(), course.clone()));
        }
        for s in 0..config.students_per_dept {
            let student = format!("student{d}_{s}");
            unary.push(("student".into(), student.clone()));
            binary.push(("member_of".into(), student.clone(), dept.clone()));
            // Enroll in 1–3 courses.
            let n_courses = rng.gen_range(1..=3.min(courses.len()));
            for k in 0..n_courses {
                let course = &courses[(s + k) % courses.len()];
                binary.push(("enrolled".into(), student.clone(), course.clone()));
            }
            let advisor = &professors[s % professors.len()];
            binary.push(("advises".into(), advisor.clone(), student.clone()));
        }
    }
    UniversityKb { unary, binary }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(size, depth, highest leaf)` of a tree; a leaf has depth 1.
    fn shape(f: &FormulaTree) -> (usize, usize, usize) {
        match f {
            FormulaTree::Leaf(i) => (1, 1, *i),
            FormulaTree::Not(a) => {
                let (size, depth, leaf) = shape(a);
                (size + 1, depth + 1, leaf)
            }
            FormulaTree::And(a, b) | FormulaTree::Or(a, b) | FormulaTree::Implies(a, b) => {
                let (sa, da, la) = shape(a);
                let (sb, db, lb) = shape(b);
                (1 + sa + sb, 1 + da.max(db), la.max(lb))
            }
        }
    }

    #[test]
    fn theory_respects_requested_sizes() {
        let t = lnn_theory(10, 5, 4, 1);
        assert_eq!(t.formulas.len(), 5);
        for f in &t.formulas {
            let (_, depth, leaf) = shape(f);
            assert!(depth <= 4);
            assert!(leaf < 10);
        }
        assert!(!t.observations.is_empty());
        for (p, v) in &t.observations {
            assert!(*p < 10);
            assert!((0.0..=1.0).contains(v));
        }
    }

    #[test]
    fn deeper_theories_have_bigger_trees() {
        let shallow = lnn_theory(10, 20, 2, 2);
        let deep = lnn_theory(10, 20, 7, 2);
        let avg = |t: &LnnTheory| {
            t.formulas.iter().map(|f| shape(f).0).sum::<usize>() as f64 / t.formulas.len() as f64
        };
        assert!(avg(&deep) > avg(&shallow));
    }

    #[test]
    fn theory_is_deterministic() {
        let a = lnn_theory(8, 4, 3, 3);
        let b = lnn_theory(8, 4, 3, 3);
        assert_eq!(a.formulas, b.formulas);
        assert_eq!(a.observations, b.observations);
    }

    #[test]
    fn university_kb_has_expected_structure() {
        let kb = university_kb(UniversityConfig::default(), 1);
        let profs = kb.unary.iter().filter(|(p, _)| p == "professor").count();
        assert_eq!(profs, 6);
        let students = kb.unary.iter().filter(|(p, _)| p == "student").count();
        assert_eq!(students, 16);
        // Every course has a teacher.
        let courses: Vec<&String> = kb
            .unary
            .iter()
            .filter(|(p, _)| p == "course")
            .map(|(_, e)| e)
            .collect();
        for c in courses {
            assert!(
                kb.binary.iter().any(|(p, _, o)| p == "teaches" && o == c),
                "course {c} untaught"
            );
        }
        // Every student is advised.
        let advised = kb.binary.iter().filter(|(p, _, _)| p == "advises").count();
        assert_eq!(advised, 16);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn theory_validates_counts() {
        let _ = lnn_theory(0, 1, 1, 1);
    }
}
