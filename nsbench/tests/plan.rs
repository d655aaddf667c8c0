//! The request plan is a pure function of the seed.

use nsbench::plan::{replay_cases, Request};
use nsbench::spec::{self, Class, WORKLOADS};
use std::time::Duration;

fn plan(name: &str, seed: u64) -> Vec<Request> {
    spec::find(name)
        .expect("declared workload")
        .open_plan(seed, Duration::from_secs(5))
}

#[test]
fn a_fixed_seed_gives_identical_plans_and_another_seed_changes_them() {
    for spec in WORKLOADS
        .iter()
        .filter(|s| !s.open_plan(1, Duration::from_secs(1)).is_empty())
    {
        let a = plan(spec.name, 7);
        let b = plan(spec.name, 7);
        assert_eq!(a, b, "{}: same seed, different plan", spec.name);
        let c = plan(spec.name, 8);
        let dues = |p: &[Request]| p.iter().map(|r| r.due).collect::<Vec<_>>();
        let cases = |p: &[Request]| p.iter().map(|r| r.case).collect::<Vec<_>>();
        assert_ne!(
            dues(&a),
            dues(&c),
            "{}: seed does not move due times",
            spec.name
        );
        assert_ne!(
            cases(&a),
            cases(&c),
            "{}: seed does not move case ids",
            spec.name
        );
        assert_eq!(spec.warmup_plan(7), spec.warmup_plan(7));
        assert_ne!(spec.warmup_plan(7), spec.warmup_plan(8));
    }
    // Closed-loop requests are drawn one by one from the same streams.
    let closed = spec::find("nvsa-closed").expect("declared");
    let draw = |seed| {
        (0..50)
            .map(|i| closed.request(seed, i, Duration::ZERO))
            .collect::<Vec<_>>()
    };
    assert_eq!(draw(3), draw(3));
    assert_ne!(draw(3), draw(4));
    assert_eq!(
        replay_cases(3, Class::Nvsa, 64),
        replay_cases(3, Class::Nvsa, 64)
    );
    assert_ne!(
        replay_cases(3, Class::Nvsa, 64),
        replay_cases(4, Class::Nvsa, 64)
    );
}

#[test]
fn the_mixed_seed_changes_classes_and_keeps_the_declared_shares() {
    let a = plan("mixed-open", 1);
    let b = plan("mixed-open", 2);
    let classes = |p: &[Request]| p.iter().map(|r| r.class).collect::<Vec<_>>();
    assert_ne!(classes(&a), classes(&b));
    for p in [&a, &b] {
        let lnn = p.iter().filter(|r| r.class == Class::Lnn).count() as f64;
        let share = lnn / p.len() as f64;
        assert!((0.75..0.85).contains(&share), "lnn share {share}");
        // One connection per class.
        for r in p.iter() {
            let conn = usize::from(r.class != Class::Lnn);
            assert_eq!(r.conn, conn);
        }
    }
}

#[test]
fn plans_are_ordered_unique_and_spread_over_the_declared_connections() {
    for name in ["lnn-open", "mixed-open"] {
        let p = plan(name, 11);
        let spec = spec::find(name).expect("declared");
        assert!(p.windows(2).all(|w| w[0].due < w[1].due));
        assert!(p.iter().all(|r| r.due < Duration::from_secs(5)));
        let ids: Vec<u64> = p.iter().map(|r| r.id).collect();
        assert_eq!(ids, (1..=p.len() as u64).collect::<Vec<_>>());
        for conn in 0..spec.connections() {
            assert!(
                p.iter().any(|r| r.conn == conn),
                "{name}: connection {conn} unused"
            );
        }
        assert!(spec.connections() <= 2);
    }
}
