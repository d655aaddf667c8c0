//! Real-valued (fuzzy) logic semantics.
//!
//! LTN grounds connectives with fuzzy t-norms and quantifiers with p-mean
//! aggregations; LNN maps its neuron graph onto weighted Łukasiewicz logic.
//! This module implements the three standard t-norm families and the LTN
//! aggregators, with truth values validated into `[0, 1]`.

use crate::error::LogicError;

/// A fuzzy-logic semantics: choice of t-norm family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FuzzySemantics {
    /// Łukasiewicz: `T(a,b) = max(0, a+b−1)` — the LNN family.
    #[default]
    Lukasiewicz,
    /// Gödel (minimum): `T(a,b) = min(a,b)`.
    Godel,
    /// Product: `T(a,b) = a·b` — the common LTN "stable product" family.
    Product,
}

/// Validate a truth value into `[0, 1]`.
///
/// # Errors
///
/// Returns [`LogicError::OutOfRange`] for values outside the interval or
/// NaN.
pub fn validate_truth(v: f64) -> Result<f64, LogicError> {
    if v.is_nan() || !(0.0..=1.0).contains(&v) {
        Err(LogicError::OutOfRange {
            value: v,
            what: "truth value",
        })
    } else {
        Ok(v)
    }
}

impl FuzzySemantics {
    /// The t-norm (fuzzy conjunction).
    pub fn t_norm(self, a: f64, b: f64) -> f64 {
        match self {
            FuzzySemantics::Lukasiewicz => (a + b - 1.0).max(0.0),
            FuzzySemantics::Godel => a.min(b),
            FuzzySemantics::Product => a * b,
        }
    }

    /// The t-conorm (fuzzy disjunction), derived by De Morgan duality.
    pub fn t_conorm(self, a: f64, b: f64) -> f64 {
        match self {
            FuzzySemantics::Lukasiewicz => (a + b).min(1.0),
            FuzzySemantics::Godel => a.max(b),
            FuzzySemantics::Product => a + b - a * b,
        }
    }

    /// Standard fuzzy negation `1 − a`.
    pub fn negate(self, a: f64) -> f64 {
        1.0 - a
    }

    /// The residuated implication of the t-norm.
    pub fn implies(self, a: f64, b: f64) -> f64 {
        match self {
            FuzzySemantics::Lukasiewicz => (1.0 - a + b).min(1.0),
            FuzzySemantics::Godel => {
                if a <= b {
                    1.0
                } else {
                    b
                }
            }
            FuzzySemantics::Product => {
                if a <= b || a == 0.0 {
                    1.0
                } else {
                    (b / a).min(1.0)
                }
            }
        }
    }
}

/// LTN's universal-quantifier aggregator: the generalized p-mean of the
/// *errors*, `∀ ≈ 1 − (mean((1 − aᵢ)^p))^{1/p}`. Larger `p` focuses on the
/// worst-satisfied instance. Returns 1.0 for an empty domain.
///
/// # Errors
///
/// Returns [`LogicError::OutOfRange`] if `p < 1`.
pub fn forall_pmean_error(values: &[f64], p: f64) -> Result<f64, LogicError> {
    if p < 1.0 {
        return Err(LogicError::OutOfRange {
            value: p,
            what: "p-mean exponent",
        });
    }
    if values.is_empty() {
        return Ok(1.0);
    }
    let mean: f64 = values.iter().map(|a| (1.0 - a).powf(p)).sum::<f64>() / values.len() as f64;
    Ok(1.0 - mean.powf(1.0 / p))
}

/// LTN's existential-quantifier aggregator: the generalized p-mean
/// `∃ ≈ (mean(aᵢ^p))^{1/p}`. Larger `p` approaches max. Returns 0.0 for an
/// empty domain.
///
/// # Errors
///
/// Returns [`LogicError::OutOfRange`] if `p < 1`.
pub fn exists_pmean(values: &[f64], p: f64) -> Result<f64, LogicError> {
    if p < 1.0 {
        return Err(LogicError::OutOfRange {
            value: p,
            what: "p-mean exponent",
        });
    }
    if values.is_empty() {
        return Ok(0.0);
    }
    let mean: f64 = values.iter().map(|a| a.powf(p)).sum::<f64>() / values.len() as f64;
    Ok(mean.powf(1.0 / p))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEMS: [FuzzySemantics; 3] = [
        FuzzySemantics::Lukasiewicz,
        FuzzySemantics::Godel,
        FuzzySemantics::Product,
    ];

    #[test]
    fn t_norm_boundary_conditions() {
        for s in SEMS {
            // T(a, 1) = a (identity element).
            for a in [0.0, 0.3, 0.7, 1.0] {
                assert!((s.t_norm(a, 1.0) - a).abs() < 1e-12, "{s:?}");
                // T(a, 0) = 0 (annihilator).
                assert_eq!(s.t_norm(a, 0.0), 0.0, "{s:?}");
            }
        }
    }

    #[test]
    fn t_norm_commutative_and_monotone() {
        for s in SEMS {
            for a in [0.1, 0.5, 0.9] {
                for b in [0.2, 0.6, 1.0] {
                    assert!((s.t_norm(a, b) - s.t_norm(b, a)).abs() < 1e-12);
                    // Monotone in each argument.
                    assert!(s.t_norm(a, b) <= s.t_norm(a, 1.0) + 1e-12);
                }
            }
        }
    }

    #[test]
    fn de_morgan_duality() {
        for s in SEMS {
            for a in [0.0, 0.25, 0.8, 1.0] {
                for b in [0.1, 0.5, 1.0] {
                    let lhs = s.t_conorm(a, b);
                    let rhs = 1.0 - s.t_norm(1.0 - a, 1.0 - b);
                    assert!((lhs - rhs).abs() < 1e-12, "{s:?} a={a} b={b}");
                }
            }
        }
    }

    #[test]
    fn lukasiewicz_specifics() {
        let l = FuzzySemantics::Lukasiewicz;
        assert!((l.t_norm(0.7, 0.7) - 0.4).abs() < 1e-12);
        assert!((l.t_conorm(0.7, 0.7) - 1.0).abs() < 1e-12);
        assert!((l.implies(0.9, 0.4) - 0.5).abs() < 1e-12);
        assert!((l.negate(0.3) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn implication_residuation_property() {
        // T(a, x) <= b  iff  x <= implies(a, b): spot-check the forward
        // direction at the residuum itself.
        for s in SEMS {
            for a in [0.2, 0.6, 0.9] {
                for b in [0.1, 0.5, 0.8] {
                    let r = s.implies(a, b);
                    assert!(s.t_norm(a, r) <= b + 1e-9, "{s:?} a={a} b={b} r={r}");
                }
            }
        }
    }

    #[test]
    fn implication_is_one_when_antecedent_weaker() {
        for s in SEMS {
            assert_eq!(s.implies(0.3, 0.7), 1.0, "{s:?}");
            assert_eq!(s.implies(0.0, 0.0), 1.0, "{s:?}");
        }
    }

    #[test]
    fn validate_truth_rejects_out_of_range() {
        assert!(validate_truth(0.5).is_ok());
        assert!(validate_truth(-0.1).is_err());
        assert!(validate_truth(1.1).is_err());
        assert!(validate_truth(f64::NAN).is_err());
    }

    #[test]
    fn forall_pmean_properties() {
        // All-true domain is fully satisfied.
        assert!((forall_pmean_error(&[1.0, 1.0], 2.0).unwrap() - 1.0).abs() < 1e-12);
        // One bad instance drags it down more as p grows.
        let lo_p = forall_pmean_error(&[1.0, 1.0, 0.0], 1.0).unwrap();
        let hi_p = forall_pmean_error(&[1.0, 1.0, 0.0], 8.0).unwrap();
        assert!(hi_p < lo_p);
        // Empty domain is vacuously true.
        assert_eq!(forall_pmean_error(&[], 2.0).unwrap(), 1.0);
        assert!(forall_pmean_error(&[0.5], 0.5).is_err());
    }

    #[test]
    fn exists_pmean_properties() {
        // Approaches max as p grows.
        let lo_p = exists_pmean(&[0.1, 0.9], 1.0).unwrap();
        let hi_p = exists_pmean(&[0.1, 0.9], 16.0).unwrap();
        assert!(hi_p > lo_p);
        assert!(hi_p <= 0.9 + 1e-9);
        assert_eq!(exists_pmean(&[], 2.0).unwrap(), 0.0);
        assert!(exists_pmean(&[0.5], 0.0).is_err());
    }

    #[test]
    fn pmean_p1_is_arithmetic_mean() {
        let v = [0.2, 0.4, 0.6];
        assert!((exists_pmean(&v, 1.0).unwrap() - 0.4).abs() < 1e-12);
        assert!((forall_pmean_error(&v, 1.0).unwrap() - 0.4).abs() < 1e-12);
    }
}
