//! # nsai-logic
//!
//! The symbolic-logic substrate of the `neurosym` workspace: first-order
//! terms and unification, fuzzy real-valued semantics, truth-bound interval
//! logic, and Horn-clause knowledge bases with forward/backward chaining.
//!
//! This replaces the logic runtimes behind the paper's LNN, LTN, NLM and
//! ABL-style workloads:
//!
//! - [`term`] — first-order terms, atoms, substitutions, unification.
//! - [`fuzzy`] — t-norms/t-conorms (Łukasiewicz, Gödel, product),
//!   residuated implications, and p-mean quantifier aggregators (LTN
//!   semantics).
//! - [`bounds`] — `[lower, upper]` truth bounds with upward *and* downward
//!   inference rules (the LNN bidirectional-inference substrate).
//! - [`kb`] — Horn-clause knowledge bases, semi-naive bottom-up forward
//!   chaining (each rule body position joins only the previous
//!   iteration's new facts, drawn from the predicate's range of the
//!   ordered fact set) and depth-limited backward chaining, both
//!   instrumented as symbolic "other" operators.
//!
//! ```
//! use nsai_logic::term::{Term, Atom};
//! use nsai_logic::kb::{KnowledgeBase, Rule};
//!
//! let mut kb = KnowledgeBase::new();
//! kb.add_fact(Atom::prop2("parent", "alice", "bob"));
//! kb.add_rule(Rule::new(
//!     Atom::new("ancestor", vec![Term::var("X"), Term::var("Y")]),
//!     vec![Atom::new("parent", vec![Term::var("X"), Term::var("Y")])],
//! ));
//! let derived = kb.forward_chain(10);
//! assert!(derived.contains(&Atom::prop2("ancestor", "alice", "bob")));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bounds;
pub mod error;
pub mod fuzzy;
pub mod kb;
pub mod term;

pub use bounds::TruthBounds;
pub use error::LogicError;
pub use fuzzy::FuzzySemantics;
pub use kb::{KnowledgeBase, Rule};
pub use term::{Atom, Term};
