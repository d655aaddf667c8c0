//! First-order terms, atoms, substitutions, and unification.

use std::collections::BTreeMap;
use std::fmt;

/// A first-order term: a variable, a constant symbol, or a compound term.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A logic variable, e.g. `X`.
    Var(String),
    /// A constant symbol, e.g. `alice`.
    Const(String),
    /// A compound term `f(t1, ..., tn)`.
    Compound(String, Vec<Term>),
}

impl Term {
    /// Shorthand variable constructor.
    pub fn var(name: impl Into<String>) -> Term {
        Term::Var(name.into())
    }

    /// Shorthand constant constructor.
    pub fn constant(name: impl Into<String>) -> Term {
        Term::Const(name.into())
    }

    /// Whether the term contains no variables.
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Var(_) => false,
            Term::Const(_) => true,
            Term::Compound(_, args) => args.iter().all(Term::is_ground),
        }
    }

    /// Whether variable `name` occurs anywhere in the term (the *occurs
    /// check* guard of sound unification).
    pub fn occurs(&self, name: &str) -> bool {
        match self {
            Term::Var(v) => v == name,
            Term::Const(_) => false,
            Term::Compound(_, args) => args.iter().any(|t| t.occurs(name)),
        }
    }

    /// Apply a substitution, replacing bound variables.
    pub fn apply(&self, subst: &Substitution) -> Term {
        match self {
            Term::Var(v) => match subst.get(v) {
                // Resolve chains: X -> Y, Y -> c.
                Some(t) => t.apply(subst),
                None => self.clone(),
            },
            Term::Const(_) => self.clone(),
            Term::Compound(f, args) => {
                Term::Compound(f.clone(), args.iter().map(|t| t.apply(subst)).collect())
            }
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
            Term::Compound(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A variable-to-term binding map.
pub type Substitution = BTreeMap<String, Term>;

/// Unify two terms, extending `subst`. Returns `false` (leaving `subst` in
/// an unspecified extended state — callers clone before speculative
/// unification) when the terms cannot be unified.
pub fn unify(a: &Term, b: &Term, subst: &mut Substitution) -> bool {
    let a = a.apply(subst);
    let b = b.apply(subst);
    match (&a, &b) {
        (Term::Const(x), Term::Const(y)) => x == y,
        (Term::Var(x), t) | (t, Term::Var(x)) => {
            if let Term::Var(y) = t {
                if x == y {
                    return true;
                }
            }
            if t.occurs(x) {
                return false; // occurs check
            }
            subst.insert(x.clone(), t.clone());
            true
        }
        (Term::Compound(f, xs), Term::Compound(g, ys)) => {
            f == g && xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| unify(x, y, subst))
        }
        _ => false,
    }
}

/// A predicate applied to terms: `pred(t1, ..., tn)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Atom {
    /// Predicate symbol.
    pub predicate: String,
    /// Argument terms.
    pub args: Vec<Term>,
}

impl Atom {
    /// General constructor.
    pub fn new(predicate: impl Into<String>, args: Vec<Term>) -> Atom {
        Atom {
            predicate: predicate.into(),
            args,
        }
    }

    /// Unary ground atom over a constant, e.g. `mammal(dog)`.
    pub fn prop1(predicate: impl Into<String>, arg: impl Into<String>) -> Atom {
        Atom::new(predicate, vec![Term::constant(arg)])
    }

    /// Binary ground atom over constants, e.g. `parent(alice, bob)`.
    pub fn prop2(predicate: impl Into<String>, a: impl Into<String>, b: impl Into<String>) -> Atom {
        Atom::new(predicate, vec![Term::constant(a), Term::constant(b)])
    }

    /// Whether all arguments are ground.
    pub fn is_ground(&self) -> bool {
        self.args.iter().all(Term::is_ground)
    }

    /// Apply a substitution to all arguments.
    pub fn apply(&self, subst: &Substitution) -> Atom {
        Atom {
            predicate: self.predicate.clone(),
            args: self.args.iter().map(|t| t.apply(subst)).collect(),
        }
    }

    /// Unify with another atom (same predicate, arity, and unifiable args).
    pub fn unify_with(&self, other: &Atom, subst: &mut Substitution) -> bool {
        self.predicate == other.predicate
            && self.args.len() == other.args.len()
            && self
                .args
                .iter()
                .zip(&other.args)
                .all(|(a, b)| unify(a, b, subst))
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.args.is_empty() {
            return write!(f, "{}", self.predicate);
        }
        write!(f, "{}(", self.predicate)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_detection() {
        assert!(Term::constant("a").is_ground());
        assert!(!Term::var("X").is_ground());
        let c = Term::Compound("f".into(), vec![Term::constant("a"), Term::var("X")]);
        assert!(!c.is_ground());
    }

    #[test]
    fn unify_var_with_const() {
        let mut s = Substitution::new();
        assert!(unify(&Term::var("X"), &Term::constant("a"), &mut s));
        assert_eq!(s.get("X"), Some(&Term::constant("a")));
    }

    #[test]
    fn unify_consts_require_equality() {
        let mut s = Substitution::new();
        assert!(unify(&Term::constant("a"), &Term::constant("a"), &mut s));
        assert!(!unify(&Term::constant("a"), &Term::constant("b"), &mut s));
    }

    #[test]
    fn unify_compound_recursively() {
        let f1 = Term::Compound("f".into(), vec![Term::var("X"), Term::constant("b")]);
        let f2 = Term::Compound("f".into(), vec![Term::constant("a"), Term::var("Y")]);
        let mut s = Substitution::new();
        assert!(unify(&f1, &f2, &mut s));
        assert_eq!(f1.apply(&s), f2.apply(&s));
    }

    #[test]
    fn unify_fails_on_arity_or_functor_mismatch() {
        let f = Term::Compound("f".into(), vec![Term::var("X")]);
        let g = Term::Compound("g".into(), vec![Term::var("X")]);
        let f2 = Term::Compound("f".into(), vec![Term::var("X"), Term::var("Y")]);
        let mut s = Substitution::new();
        assert!(!unify(&f, &g, &mut s));
        assert!(!unify(&f, &f2, &mut s));
    }

    #[test]
    fn occurs_check_blocks_infinite_terms() {
        let x = Term::var("X");
        let fx = Term::Compound("f".into(), vec![Term::var("X")]);
        let mut s = Substitution::new();
        assert!(!unify(&x, &fx, &mut s));
    }

    #[test]
    fn substitution_chains_resolve() {
        let mut s = Substitution::new();
        s.insert("X".into(), Term::var("Y"));
        s.insert("Y".into(), Term::constant("c"));
        assert_eq!(Term::var("X").apply(&s), Term::constant("c"));
    }

    #[test]
    fn same_variable_unifies_trivially() {
        let mut s = Substitution::new();
        assert!(unify(&Term::var("X"), &Term::var("X"), &mut s));
        assert!(s.is_empty());
    }

    #[test]
    fn atom_unification() {
        let a = Atom::new("parent", vec![Term::var("X"), Term::constant("bob")]);
        let b = Atom::prop2("parent", "alice", "bob");
        let mut s = Substitution::new();
        assert!(a.unify_with(&b, &mut s));
        assert_eq!(a.apply(&s), b);

        let c = Atom::prop2("sibling", "alice", "bob");
        let mut s2 = Substitution::new();
        assert!(!a.unify_with(&c, &mut s2));
    }

    #[test]
    fn display_formats() {
        let a = Atom::new("p", vec![Term::var("X"), Term::constant("a")]);
        assert_eq!(a.to_string(), "p(X, a)");
        assert_eq!(Atom::new("raining", vec![]).to_string(), "raining");
        let c = Term::Compound("f".into(), vec![Term::constant("a")]);
        assert_eq!(c.to_string(), "f(a)");
    }
}
