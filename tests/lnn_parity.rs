//! The LNN request's parity contract, checked through the facade.
//!
//! - `KnowledgeBase::forward_chain(k)` derives exactly the facts of a naive
//!   bottom-up fixpoint cut at `k` iterations, over seeded random Horn KBs
//!   with recursive rules, three-atom bodies and body-less rules, and runs
//!   as many iterations (one `forward_chain_iter` event each).
//! - The LNN workload's outputs are pinned to fixed bit patterns for
//!   cases 0..8, run one at a time and as one batch.
//!
//! The naive chase is the test's reference only; the library keeps one
//! chase.

use neurosym::core::Profiler;
use neurosym::logic::kb::{KnowledgeBase, Rule};
use neurosym::logic::term::{Atom, Substitution, Term};
use neurosym::workloads::lnn::{Lnn, LnnConfig};
use neurosym::workloads::{CaseInput, Workload, WorkloadOutput};
use rand::{Rng, SeedableRng, StdRng};
use std::collections::BTreeSet;

/// Naive bottom-up chase: every iteration joins every rule body against
/// every known fact. Returns the facts and the number of iterations run,
/// counting the last one when it derives nothing.
fn naive_chase(kb: &KnowledgeBase, max_iterations: usize) -> (BTreeSet<Atom>, usize) {
    let mut facts = kb.facts().clone();
    let mut iterations = 0;
    while iterations < max_iterations {
        iterations += 1;
        let mut new_facts = BTreeSet::new();
        for rule in kb.rules() {
            let mut bindings = vec![Substitution::new()];
            for atom in &rule.body {
                let mut next = Vec::new();
                for binding in &bindings {
                    let grounded = atom.apply(binding);
                    for fact in &facts {
                        let mut candidate = binding.clone();
                        if grounded.unify_with(fact, &mut candidate) {
                            next.push(candidate);
                        }
                    }
                }
                bindings = next;
            }
            for binding in &bindings {
                let head = rule.head.apply(binding);
                if head.is_ground() && !facts.contains(&head) {
                    new_facts.insert(head);
                }
            }
        }
        if new_facts.is_empty() {
            break;
        }
        facts.extend(new_facts);
    }
    (facts, iterations)
}

const PREDICATES: [(&str, usize); 4] = [("edge", 2), ("path", 2), ("mark", 1), ("link", 2)];
const CONSTANTS: [&str; 5] = ["a", "b", "c", "d", "e"];
const VARIABLES: [&str; 4] = ["X", "Y", "Z", "W"];

fn random_atom(rng: &mut StdRng, predicate: (&str, usize), ground: bool) -> Atom {
    let args = (0..predicate.1)
        .map(|_| {
            if ground || rng.gen_bool(0.15) {
                Term::constant(CONSTANTS[rng.gen_range(0..CONSTANTS.len())])
            } else {
                Term::var(VARIABLES[rng.gen_range(0..VARIABLES.len())])
            }
        })
        .collect();
    Atom::new(predicate.0, args)
}

/// A range-restricted rule whose head predicate is `head` and whose body
/// has `body_len` atoms; with `recursive`, one body atom shares the
/// head's predicate.
fn random_rule(rng: &mut StdRng, head: (&str, usize), body_len: usize, recursive: bool) -> Rule {
    let mut body: Vec<Atom> = (0..body_len)
        .map(|_| {
            let predicate = PREDICATES[rng.gen_range(0..PREDICATES.len())];
            random_atom(rng, predicate, false)
        })
        .collect();
    if recursive {
        let slot = rng.gen_range(0..body_len);
        body[slot] = random_atom(rng, head, false);
    }
    let body_vars: Vec<Term> = body
        .iter()
        .flat_map(|atom| atom.args.iter())
        .filter(|term| matches!(term, Term::Var(_)))
        .cloned()
        .collect();
    let args = (0..head.1)
        .map(|_| {
            if body_vars.is_empty() || rng.gen_bool(0.1) {
                Term::constant(CONSTANTS[rng.gen_range(0..CONSTANTS.len())])
            } else {
                body_vars[rng.gen_range(0..body_vars.len())].clone()
            }
        })
        .collect();
    let rule = Rule::new(Atom::new(head.0, args), body);
    rule.validate().expect("head variables come from the body");
    rule
}

/// A seeded Horn KB: 6 to 13 ground facts, a body-less rule, a recursive
/// rule, a three-atom body and up to three more rules of 1 to 3 atoms.
fn random_kb(seed: u64) -> KnowledgeBase {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut kb = KnowledgeBase::new();
    for _ in 0..rng.gen_range(6..14usize) {
        let predicate = PREDICATES[rng.gen_range(0..PREDICATES.len())];
        kb.add_fact(random_atom(&mut rng, predicate, true));
    }
    let head = |rng: &mut StdRng| PREDICATES[rng.gen_range(0..PREDICATES.len())];
    let fact_head = head(&mut rng);
    kb.add_rule(Rule::new(
        random_atom(&mut rng, fact_head, true),
        Vec::new(),
    ));
    let recursive_head = head(&mut rng);
    let recursive_len = rng.gen_range(2..=3usize);
    kb.add_rule(random_rule(&mut rng, recursive_head, recursive_len, true));
    let wide_head = head(&mut rng);
    kb.add_rule(random_rule(&mut rng, wide_head, 3, false));
    for _ in 0..rng.gen_range(0..=3usize) {
        let extra_head = head(&mut rng);
        let body_len = rng.gen_range(1..=3usize);
        let recursive = rng.gen_bool(0.3);
        kb.add_rule(random_rule(&mut rng, extra_head, body_len, recursive));
    }
    kb
}

#[test]
fn forward_chain_matches_a_naive_fixpoint_at_every_iteration_limit() {
    let mut derived_something = 0;
    for seed in 0..40u64 {
        let kb = random_kb(seed);
        for k in 0..=6 {
            let (expected, iterations) = naive_chase(&kb, k);
            let profiler = Profiler::new();
            let facts = {
                let _active = profiler.activate();
                kb.forward_chain(k)
            };
            assert_eq!(facts, expected, "seed {seed}, {k} iterations");
            let events = profiler
                .events()
                .iter()
                .filter(|e| e.name == "forward_chain_iter")
                .count();
            assert_eq!(events, iterations, "seed {seed}, {k} iterations");
        }
        if kb.forward_chain(6).len() > kb.facts().len() + 1 {
            derived_something += 1;
        }
    }
    // The KBs exercise the joins, not just the body-less rules.
    assert!(
        derived_something >= 20,
        "{derived_something} of 40 KBs derived"
    );
}

/// `(contradictions, resolved_fraction)` bit patterns of
/// `LnnConfig::small()` cases 0..8. Every case runs 12 iterations over 637
/// neurons and derives 51 KB facts.
const PINNED: [(u64, u64); 8] = [
    (0x40aa740000000000, 0x3feea4c5ba127c96),
    (0x40aa3e0000000000, 0x3fed6343eb1a1f59),
    (0x40a6fe0000000000, 0x3fed161a863aaccf),
    (0x40a9380000000000, 0x3fee3107a2c350c7),
    (0x40ac4a0000000000, 0x3fedd70202694b27),
    (0x40a6d00000000000, 0x3fed89d89d89d89e),
    (0x40a6c40000000000, 0x3fee7154cc28303a),
    (0x40a6da0000000000, 0x3fedfd96b4d9046c),
];

fn assert_pinned(case: u64, out: &WorkloadOutput) {
    let (contradictions, resolved) = PINNED[case as usize];
    let expected = [
        ("contradictions", contradictions),
        ("iterations", 12f64.to_bits()),
        ("kb_derived_facts", 51f64.to_bits()),
        ("neurons", 637f64.to_bits()),
        ("resolved_fraction", resolved),
    ];
    let actual: Vec<(&str, u64)> = out.metrics().map(|(n, v)| (n, v.to_bits())).collect();
    assert_eq!(actual, expected, "case {case}");
}

#[test]
fn lnn_outputs_are_pinned_per_case_and_per_batch() {
    let mut lnn = Lnn::new(LnnConfig::small());
    for case in 0..8 {
        let out = lnn.run_case(&CaseInput::new(case)).expect("lnn runs");
        assert_pinned(case, &out);
    }
    let mut lnn = Lnn::new(LnnConfig::small());
    let inputs: Vec<CaseInput> = (0..8).map(CaseInput::new).collect();
    for (case, out) in (0..).zip(lnn.run_batch(&inputs)) {
        assert_pinned(case, &out.expect("lnn runs"));
    }
}
