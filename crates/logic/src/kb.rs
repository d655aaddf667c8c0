//! Horn-clause knowledge bases with forward and backward chaining.
//!
//! This is the "logic rules" substrate of Tab. II (the ABL / NeurASP style
//! operations). Rule application is instrumented as a symbolic `Other`
//! operator so the database-query parallelism opportunity the paper notes
//! ("posing parallelism optimization opportunities in their database
//! queries") is visible in traces.

use crate::error::LogicError;
use crate::term::{Atom, Substitution, Term};
use nsai_core::profile::{self, OpMeta};
use nsai_core::taxonomy::OpCategory;
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// A Horn rule `head :- body₁, ..., bodyₙ`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// Rule head (conclusion).
    pub head: Atom,
    /// Rule body (premises, conjunctive).
    pub body: Vec<Atom>,
}

impl Rule {
    /// Construct a rule.
    pub fn new(head: Atom, body: Vec<Atom>) -> Rule {
        Rule { head, body }
    }

    /// Validate that every variable in the head appears in the body
    /// (range restriction), so forward chaining only derives ground atoms.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::MalformedRule`] for unrestricted variables.
    pub fn validate(&self) -> Result<(), LogicError> {
        fn collect_vars(t: &Term, out: &mut BTreeSet<String>) {
            match t {
                Term::Var(v) => {
                    out.insert(v.clone());
                }
                Term::Const(_) => {}
                Term::Compound(_, args) => args.iter().for_each(|a| collect_vars(a, out)),
            }
        }
        let mut head_vars = BTreeSet::new();
        self.head
            .args
            .iter()
            .for_each(|t| collect_vars(t, &mut head_vars));
        let mut body_vars = BTreeSet::new();
        for atom in &self.body {
            atom.args
                .iter()
                .for_each(|t| collect_vars(t, &mut body_vars));
        }
        for v in &head_vars {
            if !body_vars.contains(v) && !self.body.is_empty() {
                return Err(LogicError::MalformedRule(format!(
                    "head variable {v} does not occur in the body"
                )));
            }
        }
        Ok(())
    }
}

/// Rename every variable in a rule with a unique suffix (standardizing
/// apart), so resolution steps cannot capture each other's bindings.
fn rename_rule(rule: &Rule, tag: usize) -> Rule {
    fn rename_term(t: &Term, tag: usize) -> Term {
        match t {
            Term::Var(v) => Term::Var(format!("{v}#{tag}")),
            Term::Const(_) => t.clone(),
            Term::Compound(f, args) => Term::Compound(
                f.clone(),
                args.iter().map(|a| rename_term(a, tag)).collect(),
            ),
        }
    }
    fn rename_atom(a: &Atom, tag: usize) -> Atom {
        Atom {
            predicate: a.predicate.clone(),
            args: a.args.iter().map(|t| rename_term(t, tag)).collect(),
        }
    }
    Rule {
        head: rename_atom(&rule.head, tag),
        body: rule.body.iter().map(|a| rename_atom(a, tag)).collect(),
    }
}

/// The facts of `set` whose predicate is `predicate`: one contiguous
/// range, because atoms order by predicate first and the empty argument
/// list sorts before every other.
fn predicate_range<'a>(
    set: &'a BTreeSet<Atom>,
    predicate: &'a str,
) -> impl Iterator<Item = &'a Atom> + 'a {
    set.range(Atom::new(predicate, Vec::new())..)
        .take_while(move |fact| fact.predicate == predicate)
}

/// Every substitution that grounds `body` against the known facts with
/// `body[pivot]` matched in `delta`, the atoms before it in `old` and the
/// atoms after it in either set (`old` and `delta` are disjoint). Adds one
/// to `probes` per unification attempt.
fn join(
    body: &[Atom],
    pivot: usize,
    old: &BTreeSet<Atom>,
    delta: &BTreeSet<Atom>,
    probes: &mut u64,
) -> Vec<Substitution> {
    let mut bindings = vec![Substitution::new()];
    for (position, atom) in body.iter().enumerate() {
        let candidates: Vec<&Atom> = match position.cmp(&pivot) {
            Ordering::Less => predicate_range(old, &atom.predicate).collect(),
            Ordering::Equal => predicate_range(delta, &atom.predicate).collect(),
            Ordering::Greater => predicate_range(old, &atom.predicate)
                .chain(predicate_range(delta, &atom.predicate))
                .collect(),
        };
        let mut next = Vec::new();
        for binding in &bindings {
            let grounded = atom.apply(binding);
            for fact in &candidates {
                *probes += 1;
                // `grounded` carries every binding already made, so the
                // unifier only adds the ones this fact supplies.
                let mut extension = Substitution::new();
                if grounded.unify_with(fact, &mut extension) {
                    let mut extended = binding.clone();
                    extended.extend(extension);
                    next.push(extended);
                }
            }
        }
        bindings = next;
        if bindings.is_empty() {
            break;
        }
    }
    bindings
}

/// A set of ground facts plus Horn rules.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KnowledgeBase {
    facts: BTreeSet<Atom>,
    rules: Vec<Rule>,
}

impl KnowledgeBase {
    /// Empty knowledge base.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a ground fact. Non-ground atoms are rejected.
    ///
    /// # Panics
    ///
    /// Panics when `fact` contains variables; facts must be ground.
    pub fn add_fact(&mut self, fact: Atom) {
        assert!(fact.is_ground(), "facts must be ground: {fact}");
        self.facts.insert(fact);
    }

    /// Add a rule.
    pub fn add_rule(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// Current fact set.
    pub fn facts(&self) -> &BTreeSet<Atom> {
        &self.facts
    }

    /// Current rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Semi-naive bottom-up forward chaining to a fixpoint (or
    /// `max_iterations`). Returns the final fact set.
    ///
    /// Each iteration evaluates every rule once per body position, and that
    /// position joins only the facts first derived in the previous
    /// iteration (in iteration 1, every fact). Positions before it join the
    /// older facts and positions after it join all facts, so each new
    /// derivation is found from its first new premise. A rule with an empty
    /// body fires in iteration 1. A body atom's candidates are its
    /// predicate's contiguous range of the fact set (atoms order by
    /// predicate first). The derived set after each iteration is the naive
    /// chase's. Each iteration is recorded as one symbolic `Other` operator
    /// event whose FLOPs count unification probes and whose byte counts
    /// reflect the probed and derived atoms.
    pub fn forward_chain(&self, max_iterations: usize) -> BTreeSet<Atom> {
        let mut old: BTreeSet<Atom> = BTreeSet::new();
        let mut delta = self.facts.clone();
        for iteration in 0..max_iterations {
            let new_facts = profile::time_op_with("forward_chain_iter", OpCategory::Other, || {
                let mut new_facts = BTreeSet::new();
                let mut probes: u64 = 0;
                let mut derive = |head: Atom| {
                    if head.is_ground() && !old.contains(&head) && !delta.contains(&head) {
                        new_facts.insert(head);
                    }
                };
                for rule in &self.rules {
                    if rule.body.is_empty() && iteration == 0 {
                        derive(rule.head.clone());
                    }
                    for pivot in 0..rule.body.len() {
                        for binding in join(&rule.body, pivot, &old, &delta, &mut probes) {
                            derive(rule.head.apply(&binding));
                        }
                    }
                }
                let known = (old.len() + delta.len()) as u64;
                let derived = new_facts.len() as u64;
                // Approximate one atom record as 24 bytes of index+symbol
                // traffic per unification probe.
                let meta = OpMeta::new()
                    .flops(probes)
                    .bytes_read(probes * 24)
                    .bytes_written(derived * 24)
                    .output_elems(known + derived)
                    .output_nonzeros(known + derived);
                (new_facts, meta)
            });
            if new_facts.is_empty() {
                break;
            }
            old.append(&mut delta);
            delta = new_facts;
        }
        old.append(&mut delta);
        old
    }

    /// Depth-limited backward chaining: can `goal` be proven?
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::DepthLimit`] when the proof search exceeds
    /// `max_depth` without resolving.
    pub fn backward_chain(&self, goal: &Atom, max_depth: usize) -> Result<bool, LogicError> {
        profile::time_op_with("backward_chain", OpCategory::Other, || {
            let mut probes: u64 = 0;
            let result = self.prove(goal, max_depth, &mut probes);
            let meta = OpMeta::new()
                .flops(probes)
                .bytes_read(probes * 24)
                .bytes_written(24)
                .output_elems(1);
            (result, meta)
        })
    }

    fn prove(&self, goal: &Atom, depth: usize, probes: &mut u64) -> Result<bool, LogicError> {
        let mut counter = 0usize;
        self.prove_all(
            std::slice::from_ref(goal),
            &Substitution::new(),
            depth,
            probes,
            &mut counter,
        )
    }

    fn prove_all(
        &self,
        goals: &[Atom],
        subst: &Substitution,
        depth: usize,
        probes: &mut u64,
        rename_counter: &mut usize,
    ) -> Result<bool, LogicError> {
        let Some((first, rest)) = goals.split_first() else {
            return Ok(true);
        };
        if depth == 0 {
            return Err(LogicError::DepthLimit { limit: 0 });
        }
        let grounded = first.apply(subst);
        // Try facts.
        for fact in &self.facts {
            *probes += 1;
            let mut s = subst.clone();
            if grounded.unify_with(fact, &mut s)
                && self.prove_all(rest, &s, depth, probes, rename_counter)?
            {
                return Ok(true);
            }
        }
        // Try rules, standardizing variables apart so recursive rules do
        // not capture bindings from outer resolution steps.
        for rule in &self.rules {
            *probes += 1;
            *rename_counter += 1;
            let renamed = rename_rule(rule, *rename_counter);
            let mut s = subst.clone();
            if renamed.head.unify_with(&grounded, &mut s)
                && self.prove_all(&renamed.body, &s, depth - 1, probes, rename_counter)?
                && self.prove_all(rest, &s, depth, probes, rename_counter)?
            {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn family_kb() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        kb.add_fact(Atom::prop2("parent", "alice", "bob"));
        kb.add_fact(Atom::prop2("parent", "bob", "carol"));
        kb.add_fact(Atom::prop2("parent", "carol", "dave"));
        // ancestor(X,Y) :- parent(X,Y).
        kb.add_rule(Rule::new(
            Atom::new("ancestor", vec![Term::var("X"), Term::var("Y")]),
            vec![Atom::new("parent", vec![Term::var("X"), Term::var("Y")])],
        ));
        // ancestor(X,Z) :- parent(X,Y), ancestor(Y,Z).
        kb.add_rule(Rule::new(
            Atom::new("ancestor", vec![Term::var("X"), Term::var("Z")]),
            vec![
                Atom::new("parent", vec![Term::var("X"), Term::var("Y")]),
                Atom::new("ancestor", vec![Term::var("Y"), Term::var("Z")]),
            ],
        ));
        kb
    }

    #[test]
    fn forward_chain_computes_transitive_closure() {
        let derived = family_kb().forward_chain(10);
        assert!(derived.contains(&Atom::prop2("ancestor", "alice", "bob")));
        assert!(derived.contains(&Atom::prop2("ancestor", "alice", "carol")));
        assert!(derived.contains(&Atom::prop2("ancestor", "alice", "dave")));
        assert!(derived.contains(&Atom::prop2("ancestor", "carol", "dave")));
        assert!(!derived.contains(&Atom::prop2("ancestor", "dave", "alice")));
        // 3 parent facts + 6 ancestor pairs.
        assert_eq!(derived.len(), 9);
    }

    #[test]
    fn forward_chain_reaches_fixpoint_early() {
        // With generous iteration budget, result is stable.
        let a = family_kb().forward_chain(3);
        let b = family_kb().forward_chain(100);
        assert_eq!(a, b);
    }

    #[test]
    fn forward_chain_iteration_limit_truncates() {
        // One iteration can only derive direct ancestors.
        let derived = family_kb().forward_chain(1);
        assert!(derived.contains(&Atom::prop2("ancestor", "alice", "bob")));
        assert!(!derived.contains(&Atom::prop2("ancestor", "alice", "dave")));
    }

    #[test]
    fn backward_chain_proves_goals() {
        let kb = family_kb();
        assert!(kb
            .backward_chain(&Atom::prop2("ancestor", "alice", "dave"), 10)
            .unwrap());
        assert!(!kb
            .backward_chain(&Atom::prop2("ancestor", "dave", "alice"), 10)
            .unwrap());
    }

    #[test]
    fn backward_chain_with_variable_goal() {
        let kb = family_kb();
        // ∃X ancestor(alice, X)?
        let goal = Atom::new("ancestor", vec![Term::constant("alice"), Term::var("X")]);
        assert!(kb.backward_chain(&goal, 10).unwrap());
    }

    #[test]
    fn backward_chain_depth_limit() {
        let kb = family_kb();
        let goal = Atom::prop2("ancestor", "alice", "dave");
        assert!(kb.backward_chain(&goal, 1).is_err());
    }

    #[test]
    fn rule_validation() {
        let ok = Rule::new(
            Atom::new("p", vec![Term::var("X")]),
            vec![Atom::new("q", vec![Term::var("X")])],
        );
        assert!(ok.validate().is_ok());
        let bad = Rule::new(
            Atom::new("p", vec![Term::var("X")]),
            vec![Atom::new("q", vec![Term::var("Y")])],
        );
        assert!(bad.validate().is_err());
        // Facts (empty body) are exempt.
        let fact = Rule::new(Atom::prop1("p", "a"), vec![]);
        assert!(fact.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "must be ground")]
    fn add_fact_rejects_variables() {
        let mut kb = KnowledgeBase::new();
        kb.add_fact(Atom::new("p", vec![Term::var("X")]));
    }

    #[test]
    fn chaining_is_instrumented() {
        use nsai_core::Profiler;
        let p = Profiler::new();
        {
            let _a = p.activate();
            let _ = family_kb().forward_chain(10);
        }
        let events = p.events();
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.name == "forward_chain_iter"));
        assert!(events.iter().all(|e| e.category == OpCategory::Other));
        assert!(events[0].flops > 0);
    }

    #[test]
    fn iteration_events_count_distinct_new_facts() {
        use nsai_core::Profiler;
        // `child(bob)` is derived twice in iteration 1, once per parent.
        let mut kb = KnowledgeBase::new();
        kb.add_fact(Atom::prop2("parent", "alice", "bob"));
        kb.add_fact(Atom::prop2("parent", "carol", "bob"));
        kb.add_rule(Rule::new(
            Atom::new("child", vec![Term::var("Y")]),
            vec![Atom::new("parent", vec![Term::var("X"), Term::var("Y")])],
        ));
        let p = Profiler::new();
        let derived = {
            let _a = p.activate();
            kb.forward_chain(1)
        };
        assert_eq!(derived.len(), 3);
        let first = &p.events()[0];
        assert_eq!(first.output_elems, 3);
        assert_eq!(first.bytes_written, 24);
    }
}
