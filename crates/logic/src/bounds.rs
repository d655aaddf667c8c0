//! `[lower, upper]` truth bounds — the LNN inference substrate.
//!
//! LNN's key representational idea (Sec. III-B of the paper) is that each
//! neuron carries *bounds* on its truth value rather than a point estimate,
//! giving "improved tolerance to incomplete knowledge via truth bounds" and
//! enabling *omnidirectional* inference: upward rules compute a formula's
//! bounds from its children, downward rules tighten children's bounds from
//! the formula's — both under Łukasiewicz semantics.

use crate::error::LogicError;
use std::fmt;

/// An interval `[lower, upper] ⊆ [0, 1]` of possible truth values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruthBounds {
    lower: f64,
    upper: f64,
}

impl TruthBounds {
    /// Build bounds, validating `0 ≤ lower ≤ upper ≤ 1`.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::InvalidBounds`] or [`LogicError::OutOfRange`].
    #[inline]
    pub fn new(lower: f64, upper: f64) -> Result<Self, LogicError> {
        if !(0.0..=1.0).contains(&lower) || lower.is_nan() {
            return Err(LogicError::OutOfRange {
                value: lower,
                what: "lower bound",
            });
        }
        if !(0.0..=1.0).contains(&upper) || upper.is_nan() {
            return Err(LogicError::OutOfRange {
                value: upper,
                what: "upper bound",
            });
        }
        if lower > upper {
            return Err(LogicError::InvalidBounds { lower, upper });
        }
        Ok(TruthBounds { lower, upper })
    }

    /// The completely uninformed bounds `[0, 1]`.
    pub fn unknown() -> Self {
        TruthBounds {
            lower: 0.0,
            upper: 1.0,
        }
    }

    /// Known-true bounds `[1, 1]`.
    #[inline]
    pub fn proven_true() -> Self {
        TruthBounds {
            lower: 1.0,
            upper: 1.0,
        }
    }

    /// Point bounds `[v, v]`.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::OutOfRange`] for `v ∉ [0, 1]`.
    pub fn exactly(v: f64) -> Result<Self, LogicError> {
        TruthBounds::new(v, v)
    }

    /// Lower bound.
    #[inline]
    pub fn lower(&self) -> f64 {
        self.lower
    }

    /// Upper bound.
    #[inline]
    pub fn upper(&self) -> f64 {
        self.upper
    }

    /// Interval width (1.0 = completely unknown, 0.0 = fully resolved).
    pub fn uncertainty(&self) -> f64 {
        self.upper - self.lower
    }

    /// Intersect with another interval, clamping to a contradiction-free
    /// result. Returns the tightened bounds and whether a contradiction
    /// (empty intersection) was detected — LNN surfaces contradictions
    /// rather than failing.
    #[inline]
    pub fn tighten(&self, other: &TruthBounds) -> (TruthBounds, bool) {
        let lower = self.lower.max(other.lower);
        let upper = self.upper.min(other.upper);
        if lower > upper {
            // Contradiction: collapse to the midpoint crossing.
            let mid = f64::midpoint(lower, upper).clamp(0.0, 1.0);
            (
                TruthBounds {
                    lower: mid,
                    upper: mid,
                },
                true,
            )
        } else {
            (TruthBounds { lower, upper }, false)
        }
    }

    /// Łukasiewicz negation: `¬[l, u] = [1−u, 1−l]`.
    #[inline]
    pub fn negate(&self) -> TruthBounds {
        TruthBounds {
            lower: 1.0 - self.upper,
            upper: 1.0 - self.lower,
        }
    }

    /// Upward Łukasiewicz conjunction over two children.
    pub fn and_up(&self, other: &TruthBounds) -> TruthBounds {
        TruthBounds {
            lower: (self.lower + other.lower - 1.0).max(0.0),
            upper: (self.upper + other.upper - 1.0).max(0.0),
        }
    }

    /// Upward Łukasiewicz disjunction over two children.
    pub fn or_up(&self, other: &TruthBounds) -> TruthBounds {
        TruthBounds {
            lower: (self.lower + other.lower).min(1.0),
            upper: (self.upper + other.upper).min(1.0),
        }
    }

    /// Upward Łukasiewicz implication `a → b`.
    pub fn implies_up(&self, other: &TruthBounds) -> TruthBounds {
        TruthBounds {
            lower: (1.0 - self.upper + other.lower).min(1.0),
            upper: (1.0 - self.lower + other.upper).min(1.0),
        }
    }

    /// Downward inference for conjunction: given bounds on `a ∧ b` and on
    /// the sibling `b`, tighten `a`.
    ///
    /// From `max(0, a + b − 1) ∈ [L, U]`: when the conjunction is known at
    /// least `L > 0`, `a ≥ L + 1 − upper(b)`; `a ≤ U + 1 − lower(b)` always
    /// holds when `U < 1`.
    #[inline]
    pub fn and_down(conj: &TruthBounds, sibling: &TruthBounds) -> TruthBounds {
        let lower = (conj.lower + 1.0 - sibling.upper).clamp(0.0, 1.0);
        let upper = (conj.upper + 1.0 - sibling.lower).clamp(0.0, 1.0);
        TruthBounds {
            lower: lower.min(upper),
            upper,
        }
    }

    /// Downward inference for disjunction: given bounds on `a ∨ b` and the
    /// sibling `b`, tighten `a` (`a ≥ L − upper(b)`, `a ≤ U`).
    #[inline]
    pub fn or_down(disj: &TruthBounds, sibling: &TruthBounds) -> TruthBounds {
        let lower = (disj.lower - sibling.upper).clamp(0.0, 1.0);
        let upper = disj.upper.clamp(0.0, 1.0);
        TruthBounds {
            lower: lower.min(upper),
            upper,
        }
    }

    /// Downward modus ponens: from bounds on `a → b` and on `a`, tighten
    /// `b` (`b ≥ L_impl + L_a − 1`, `b ≤ U_impl` when `U_a = 1` relaxed to
    /// `b ≤ U_impl − 1 + U_a` clamped).
    #[inline]
    pub fn modus_ponens(impl_bounds: &TruthBounds, antecedent: &TruthBounds) -> TruthBounds {
        let lower = (impl_bounds.lower + antecedent.lower - 1.0).clamp(0.0, 1.0);
        let upper = (impl_bounds.upper - 1.0 + antecedent.upper + 1.0)
            .clamp(0.0, 1.0)
            .min(1.0);
        TruthBounds {
            lower: lower.min(upper),
            upper,
        }
    }
}

impl Default for TruthBounds {
    fn default() -> Self {
        TruthBounds::unknown()
    }
}

impl fmt::Display for TruthBounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:.3}, {:.3}]", self.lower, self.upper)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(TruthBounds::new(0.2, 0.8).is_ok());
        assert!(TruthBounds::new(0.8, 0.2).is_err());
        assert!(TruthBounds::new(-0.1, 0.5).is_err());
        assert!(TruthBounds::new(0.1, 1.5).is_err());
        assert!(TruthBounds::new(f64::NAN, 0.5).is_err());
    }

    #[test]
    fn classification_thresholds() {
        // LNN classifies true at `lower ≥ alpha`, false at
        // `upper ≤ 1 − alpha`.
        let t = TruthBounds::new(0.8, 1.0).unwrap();
        assert!(t.lower() >= 0.7);
        assert!(t.lower() < 0.9);
        let f = TruthBounds::new(0.0, 0.2).unwrap();
        assert!(f.upper() <= 1.0 - 0.7);
        let u = TruthBounds::unknown();
        assert!(u.lower() < 0.7 && u.upper() > 1.0 - 0.7);
        assert_eq!(u.uncertainty(), 1.0);
    }

    #[test]
    fn negation_flips_interval() {
        let b = TruthBounds::new(0.2, 0.7).unwrap();
        let n = b.negate();
        assert!((n.lower() - 0.3).abs() < 1e-12);
        assert!((n.upper() - 0.8).abs() < 1e-12);
        // Involution (up to floating-point rounding).
        let nn = n.negate();
        assert!((nn.lower() - b.lower()).abs() < 1e-12);
        assert!((nn.upper() - b.upper()).abs() < 1e-12);
    }

    #[test]
    fn and_up_with_proven_children() {
        let t = TruthBounds::proven_true();
        let f = TruthBounds::exactly(0.0).unwrap();
        assert_eq!(t.and_up(&t), TruthBounds::proven_true());
        assert_eq!(t.and_up(&f), TruthBounds::exactly(0.0).unwrap());
        // Unknown ∧ true = unknown.
        let u = TruthBounds::unknown();
        assert_eq!(u.and_up(&t), u);
    }

    #[test]
    fn or_up_with_proven_children() {
        let t = TruthBounds::proven_true();
        let f = TruthBounds::exactly(0.0).unwrap();
        assert_eq!(f.or_up(&f), TruthBounds::exactly(0.0).unwrap());
        assert_eq!(f.or_up(&t), TruthBounds::proven_true());
    }

    #[test]
    fn implies_up_matches_lukasiewicz_points() {
        let a = TruthBounds::exactly(0.9).unwrap();
        let b = TruthBounds::exactly(0.4).unwrap();
        let i = a.implies_up(&b);
        assert!((i.lower() - 0.5).abs() < 1e-12);
        assert!((i.upper() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn upward_ops_preserve_interval_ordering() {
        let a = TruthBounds::new(0.2, 0.9).unwrap();
        let b = TruthBounds::new(0.1, 0.6).unwrap();
        for r in [a.and_up(&b), a.or_up(&b), a.implies_up(&b)] {
            assert!(r.lower() <= r.upper() + 1e-12, "{r}");
            assert!((0.0..=1.0).contains(&r.lower()));
            assert!((0.0..=1.0).contains(&r.upper()));
        }
    }

    #[test]
    fn tighten_intersects() {
        let a = TruthBounds::new(0.2, 0.8).unwrap();
        let b = TruthBounds::new(0.5, 1.0).unwrap();
        let (t, contradiction) = a.tighten(&b);
        assert!(!contradiction);
        assert_eq!(t, TruthBounds::new(0.5, 0.8).unwrap());
    }

    #[test]
    fn tighten_flags_contradiction() {
        let a = TruthBounds::new(0.0, 0.3).unwrap();
        let b = TruthBounds::new(0.7, 1.0).unwrap();
        let (t, contradiction) = a.tighten(&b);
        assert!(contradiction);
        assert!(t.lower() <= t.upper());
    }

    #[test]
    fn and_down_recovers_known_conjunct() {
        // a ∧ b proven true and b fully true ⇒ a proven true.
        let conj = TruthBounds::proven_true();
        let sibling = TruthBounds::proven_true();
        let a = TruthBounds::and_down(&conj, &sibling);
        assert_eq!(a, TruthBounds::proven_true());
    }

    #[test]
    fn or_down_excludes_when_disjunction_false() {
        // a ∨ b proven false ⇒ a is false regardless of sibling.
        let disj = TruthBounds::exactly(0.0).unwrap();
        let a = TruthBounds::or_down(&disj, &TruthBounds::unknown());
        assert_eq!(a.upper(), 0.0);
    }

    #[test]
    fn modus_ponens_propagates() {
        // (a → b) true and a true ⇒ b ≥ 1.
        let impl_b = TruthBounds::proven_true();
        let a = TruthBounds::proven_true();
        let b = TruthBounds::modus_ponens(&impl_b, &a);
        assert_eq!(b.lower(), 1.0);
        // Unknown antecedent gives no information.
        let b2 = TruthBounds::modus_ponens(&impl_b, &TruthBounds::unknown());
        assert_eq!(b2.lower(), 0.0);
    }

    #[test]
    fn downward_results_are_valid_intervals() {
        let cases = [
            TruthBounds::new(0.0, 0.2).unwrap(),
            TruthBounds::new(0.4, 0.6).unwrap(),
            TruthBounds::new(0.9, 1.0).unwrap(),
            TruthBounds::unknown(),
        ];
        for x in &cases {
            for y in &cases {
                for r in [
                    TruthBounds::and_down(x, y),
                    TruthBounds::or_down(x, y),
                    TruthBounds::modus_ponens(x, y),
                ] {
                    assert!(r.lower() <= r.upper() + 1e-12, "{x} {y} -> {r}");
                }
            }
        }
    }

    #[test]
    fn display_format() {
        let b = TruthBounds::new(0.25, 0.75).unwrap();
        assert_eq!(b.to_string(), "[0.250, 0.750]");
    }
}
