//! Per-rule fixture tests: every rule gets a positive case (the seeded
//! violation is reported), a negative case (idiomatic clean code stays
//! silent), and a waiver case (an inline `nsai-lint: allow` with a
//! justification suppresses the finding).

use nsai_analyze::config::Config;
use nsai_analyze::rules::{self, Finding};
use nsai_analyze::Severity;

fn run(config: &Config, files: &[(&str, &str)]) -> Vec<Finding> {
    let files: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    rules::analyze(&files, config)
}

fn rule_names(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule.as_str()).collect()
}

// ------------------------------------------------------------ unsafe-audit

#[test]
fn unsafe_without_safety_comment_is_reported() {
    let src = "pub fn f(p: *mut u8) {\n    unsafe { *p = 0 };\n}\n";
    let findings = run(&Config::default(), &[("src/a.rs", src)]);
    assert_eq!(rule_names(&findings), vec!["unsafe-audit"]);
    assert_eq!(findings[0].line, 2);
    assert_eq!(findings[0].severity, Severity::Deny);
}

#[test]
fn safety_comment_above_or_trailing_satisfies_the_audit() {
    let above = "pub fn f(p: *mut u8) {\n    // SAFETY: p is valid per the contract.\n    unsafe { *p = 0 };\n}\n";
    let trailing = "pub fn f(p: *mut u8) {\n    unsafe { *p = 0 }; // SAFETY: p is valid.\n}\n";
    let doc_section =
        "/// # Safety\n///\n/// Caller guarantees `p` is valid.\npub unsafe fn f(p: *mut u8) {}\n";
    for src in [above, trailing, doc_section] {
        let findings = run(&Config::default(), &[("src/a.rs", src)]);
        assert!(findings.is_empty(), "unexpected: {findings:?}");
    }
}

#[test]
fn consecutive_unsafe_impls_share_one_safety_comment() {
    let src = "// SAFETY: interior pointer is never aliased across threads.\n\
               unsafe impl Send for X {}\n\
               unsafe impl Sync for X {}\n";
    let findings = run(&Config::default(), &[("src/a.rs", src)]);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn unsafe_in_strings_and_comments_is_ignored() {
    let src =
        "pub fn f() -> &'static str {\n    // unsafe is just a word here\n    \"unsafe { }\"\n}\n";
    let findings = run(&Config::default(), &[("src/a.rs", src)]);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn waiver_with_justification_suppresses_unsafe_audit() {
    let src = "pub fn f(p: *mut u8) {\n    // nsai-lint: allow(unsafe-audit): audited in the module docs.\n    unsafe { *p = 0 };\n}\n";
    let findings = run(&Config::default(), &[("src/a.rs", src)]);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn waiver_without_justification_is_itself_a_finding() {
    let src = "pub fn f(p: *mut u8) {\n    // nsai-lint: allow(unsafe-audit)\n    unsafe { *p = 0 };\n}\n";
    let findings = run(&Config::default(), &[("src/a.rs", src)]);
    let names = rule_names(&findings);
    assert!(names.contains(&"waiver-syntax"), "got {names:?}");
    // The malformed waiver does not suppress the underlying finding.
    assert!(names.contains(&"unsafe-audit"), "got {names:?}");
}

#[test]
fn waiver_naming_an_unknown_rule_is_rejected() {
    let src = "// nsai-lint: allow(made-up-rule): because.\nfn f() {}\n";
    let findings = run(&Config::default(), &[("src/a.rs", src)]);
    assert_eq!(rule_names(&findings), vec!["waiver-syntax"]);
}

// ------------------------------------------------------------ stale-waiver

#[test]
fn waiver_that_suppresses_nothing_is_itself_a_finding() {
    // The `unsafe` block the waiver was written for is gone.
    let src = "pub fn f(p: &mut u8) {\n    // nsai-lint: allow(unsafe-audit): audited in the module docs.\n    *p = 0;\n}\n";
    let findings = run(&Config::default(), &[("src/a.rs", src)]);
    assert_eq!(rule_names(&findings), vec!["stale-waiver"]);
    assert_eq!(findings[0].line, 2);
    assert_eq!(findings[0].severity, Severity::Deny);
    assert!(findings[0].message.contains("unsafe-audit"), "{findings:?}");
}

#[test]
fn each_rule_a_waiver_names_must_suppress_a_finding() {
    let src = "pub fn f(p: *mut u8) {\n    // nsai-lint: allow(unsafe-audit, determinism): audited in the module docs.\n    unsafe { *p = 0 };\n}\n";
    let findings = run(&Config::default(), &[("src/a.rs", src)]);
    assert_eq!(rule_names(&findings), vec!["stale-waiver"]);
    assert!(findings[0].message.contains("determinism"), "{findings:?}");
    assert!(
        !findings[0].message.contains("unsafe-audit"),
        "{findings:?}"
    );
}

#[test]
fn waiver_for_a_rule_not_applied_at_its_path_is_stale() {
    let src = "pub fn f() {\n    // nsai-lint: allow(determinism): only feeds the profiler duration.\n    let _t = std::time::Instant::now();\n}\n";
    let config =
        Config::parse("[rules.determinism]\nallow = [\"src/timing.rs\"]\n").expect("config");
    assert!(run(&config, &[("src/a.rs", src)]).is_empty());
    let findings = run(&config, &[("src/timing.rs", src)]);
    assert_eq!(rule_names(&findings), vec!["stale-waiver"]);
}

// -------------------------------------------------- pool-only-parallelism

#[test]
fn raw_thread_spawn_is_reported_outside_the_pool() {
    let src = "pub fn f() {\n    std::thread::spawn(|| {});\n}\n";
    let findings = run(&Config::default(), &[("src/a.rs", src)]);
    assert_eq!(rule_names(&findings), vec!["pool-only-parallelism"]);
}

#[test]
fn allowlisted_pool_module_may_spawn() {
    let config = Config::parse("[rules.pool-only-parallelism]\nallow = [\"src/pool.rs\"]\n")
        .expect("config");
    let src = "pub fn f() {\n    std::thread::Builder::new();\n}\n";
    assert!(run(&config, &[("src/pool.rs", src)]).is_empty());
    assert_eq!(
        rule_names(&run(&config, &[("src/other.rs", src)])),
        vec!["pool-only-parallelism"]
    );
}

#[test]
fn thread_spawn_in_test_code_is_fine() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        std::thread::spawn(|| {});\n    }\n}\n";
    assert!(run(&Config::default(), &[("src/a.rs", src)]).is_empty());
}

// ------------------------------------------------------------ determinism

#[test]
fn wall_clocks_and_hash_maps_are_reported() {
    let src = "use std::collections::HashMap;\n\
               pub fn f() {\n\
                   let _t = std::time::Instant::now();\n\
                   let _m: HashMap<u32, u32> = HashMap::new();\n\
               }\n";
    let findings = run(&Config::default(), &[("src/a.rs", src)]);
    assert_eq!(rule_names(&findings), vec!["determinism"; 3]);
}

#[test]
fn btree_collections_are_deterministic_and_clean() {
    let src = "use std::collections::BTreeMap;\npub fn f() -> BTreeMap<u32, u32> {\n    BTreeMap::new()\n}\n";
    assert!(run(&Config::default(), &[("src/a.rs", src)]).is_empty());
}

#[test]
fn timing_modules_are_allowlisted_for_clocks() {
    let config =
        Config::parse("[rules.determinism]\nallow = [\"src/loadgen.rs\"]\n").expect("config");
    let src = "pub fn f() {\n    let _t = std::time::Instant::now();\n}\n";
    assert!(run(&config, &[("src/loadgen.rs", src)]).is_empty());
}

#[test]
fn determinism_waiver_covers_profiler_metadata_reads() {
    let src = "pub fn f() {\n    // nsai-lint: allow(determinism): only feeds the profiler duration.\n    let _t = std::time::Instant::now();\n}\n";
    assert!(run(&Config::default(), &[("src/a.rs", src)]).is_empty());
}

#[test]
fn severity_warn_downgrades_findings() {
    let config = Config::parse("[rules.determinism]\nseverity = \"warn\"\n").expect("config");
    let src = "pub fn f() {\n    let _t = std::time::Instant::now();\n}\n";
    let findings = run(&config, &[("src/a.rs", src)]);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].severity, Severity::Warn);
}

#[test]
fn severity_allow_disables_a_rule() {
    let config = Config::parse("[rules.determinism]\nseverity = \"allow\"\n").expect("config");
    let src = "pub fn f() {\n    let _t = std::time::Instant::now();\n}\n";
    assert!(run(&config, &[("src/a.rs", src)]).is_empty());
}

// --------------------------------------------------------- scope-coverage

fn kernel_config() -> Config {
    Config::parse("[rules.scope-coverage]\npaths = [\"kernels/\"]\n").expect("config")
}

#[test]
fn uninstrumented_pub_kernel_is_reported() {
    let src = "pub fn gemm(a: &[f32]) -> f32 {\n    a.iter().sum()\n}\n";
    let findings = run(&kernel_config(), &[("kernels/ops.rs", src)]);
    assert_eq!(rule_names(&findings), vec!["scope-coverage"]);
    assert!(
        findings[0].message.contains("gemm"),
        "{}",
        findings[0].message
    );
}

#[test]
fn directly_instrumented_kernel_is_covered() {
    let src = "pub fn gemm(a: &[f32]) -> f32 {\n    run_op(\"gemm\", OpCategory::Gemm, || a.iter().sum(), |_| OpMeta::new())\n}\n";
    assert!(run(&kernel_config(), &[("kernels/ops.rs", src)]).is_empty());
}

#[test]
fn delegation_to_a_private_instrumented_helper_counts() {
    let src = "pub fn gemm(a: &[f32]) -> f32 {\n\
                   gemm_inner(a)\n\
               }\n\
               fn gemm_inner(a: &[f32]) -> f32 {\n\
                   run_op(\"gemm\", OpCategory::Gemm, || a.iter().sum(), |_| OpMeta::new())\n\
               }\n";
    assert!(run(&kernel_config(), &[("kernels/ops.rs", src)]).is_empty());
}

#[test]
fn delegation_is_a_fixed_point_across_files() {
    let outer = "pub fn conv(a: &[f32]) -> f32 {\n    helper(a)\n}\n";
    let inner = "pub fn helper(a: &[f32]) -> f32 {\n    time_op(\"conv\", || a.iter().sum())\n}\n";
    assert!(run(
        &kernel_config(),
        &[("kernels/conv.rs", outer), ("kernels/helper.rs", inner)]
    )
    .is_empty());
}

#[test]
fn kernels_outside_configured_paths_are_not_checked() {
    let src = "pub fn util(a: &[f32]) -> f32 {\n    a.iter().sum()\n}\n";
    assert!(run(&kernel_config(), &[("src/util.rs", src)]).is_empty());
}

#[test]
fn scope_coverage_waiver_handles_metadata_accessors() {
    let src = "// nsai-lint: allow(scope-coverage): metadata accessor, no kernel work.\npub fn op_name() -> &'static str {\n    \"gemm\"\n}\n";
    assert!(run(&kernel_config(), &[("kernels/ops.rs", src)]).is_empty());
}

// ----------------------------------------------------- panic-reachability

fn hot_path_config() -> Config {
    Config::parse("[rules.panic-reachability]\nentry = [\"submit\"]\n").expect("config")
}

#[test]
fn unwrap_on_the_hot_path_is_reported() {
    let src = "pub fn submit(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    let findings = run(&hot_path_config(), &[("hot/server.rs", src)]);
    assert_eq!(rule_names(&findings), vec!["panic-reachability"]);
}

#[test]
fn panic_macros_on_the_hot_path_are_reported() {
    let src = "pub fn submit() {\n    unreachable!(\"cannot happen\")\n}\n";
    let findings = run(&hot_path_config(), &[("hot/server.rs", src)]);
    assert_eq!(rule_names(&findings), vec!["panic-reachability"]);
}

#[test]
fn panic_reachability_follows_calls_not_paths() {
    // The panic lives in a helper file the entry point calls into: the
    // old path-scoped rule missed this, the call-graph rule does not.
    let entry = "pub fn submit() {\n    helper()\n}\n";
    let helper = "pub fn helper() {\n    panic!(\"boom\")\n}\n";
    let findings = run(
        &hot_path_config(),
        &[("hot/server.rs", entry), ("hot/util/helper.rs", helper)],
    );
    assert_eq!(rule_names(&findings), vec!["panic-reachability"]);
    assert_eq!(findings[0].path, "hot/util/helper.rs");
    assert!(
        findings[0].message.contains("submit -> helper"),
        "{}",
        findings[0].message
    );
}

#[test]
fn panic_reachability_is_opt_in_by_entry() {
    // A panicking fn no entry point reaches: silent.
    let src = "pub fn submit() {}\npub fn cold(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    assert!(run(&hot_path_config(), &[("hot/server.rs", src)]).is_empty());
    // Without any configured entries the rule checks nothing at all.
    let src = "pub fn submit(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    assert!(run(&Config::default(), &[("hot/server.rs", src)]).is_empty());
}

#[test]
fn hot_path_unwrap_in_tests_is_fine() {
    // The real entry is clean; an in-test fn of the same name (and its
    // unwrap) is invisible to the item table.
    let src = "pub fn submit() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn submit() {\n        Some(1).unwrap();\n    }\n}\n";
    assert!(run(&hot_path_config(), &[("hot/server.rs", src)]).is_empty());
}

#[test]
fn stale_entry_point_is_reported_against_lint_toml() {
    let src = "pub fn serve_one() {}\n";
    let findings = run(&hot_path_config(), &[("hot/server.rs", src)]);
    assert_eq!(rule_names(&findings), vec!["panic-reachability"]);
    assert_eq!(findings[0].path, "lint.toml");
    assert!(findings[0].message.contains("`submit`"), "{findings:?}");
}

#[test]
fn hot_path_waiver_requires_justification_and_works() {
    let src = "pub fn submit(h: std::thread::JoinHandle<()>) {\n    // nsai-lint: allow(panic-reachability): join error means a worker died; surfacing loudly is correct.\n    h.join().unwrap();\n}\n";
    assert!(run(&hot_path_config(), &[("hot/server.rs", src)]).is_empty());
}

#[test]
fn allow_fns_model_containment_boundaries() {
    let config = Config::parse(
        "[rules.panic-reachability]\nentry = [\"submit\"]\nallow_fns = [\"run_batch\"]\n",
    )
    .expect("config");
    // submit -> run_batch -> kernel: the dispatcher wraps run_batch in
    // catch_unwind, so the kernel's panic is contained by design.
    let src = "pub fn submit() {\n    run_batch()\n}\npub fn run_batch() {\n    kernel()\n}\npub fn kernel() {\n    panic!(\"contained\")\n}\n";
    assert!(run(&config, &[("hot/server.rs", src)]).is_empty());
}

// ------------------------------------------------------- failpoint-hygiene

/// Config mirroring the workspace's failpoint registry shape: the rule
/// enforced under `hot/`, with two registered sites.
fn failpoint_config() -> Config {
    Config::parse(
        "[rules.failpoint-hygiene]\n\
         paths = [\"hot\"]\n\
         sites = [\"serve::server::admission\", \"serve::queue::enqueue\"]\n",
    )
    .expect("config")
}

#[test]
fn registered_failpoint_sites_pass() {
    let src = "pub fn submit() -> bool {\n    if failpoint::fire(\"serve::server::admission\") {\n        return false;\n    }\n    failpoint::fire(\"serve::queue::enqueue\")\n}\n";
    let findings = run(&failpoint_config(), &[("hot/server.rs", src)]);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn unregistered_hot_path_failpoint_site_is_denied() {
    let src = "pub fn submit() {\n    let _ = failpoint::fire(\"serve::server::admission\");\n    let _ = failpoint::fire(\"serve::queue::enqueue\");\n    let _ = failpoint::fire(\"serve::server::backdoor\");\n}\n";
    let findings = run(&failpoint_config(), &[("hot/server.rs", src)]);
    assert_eq!(rule_names(&findings), vec!["failpoint-hygiene"]);
    assert_eq!(findings[0].line, 4);
    assert_eq!(findings[0].severity, Severity::Deny);
    assert!(findings[0].message.contains("backdoor"));
    // Also covers eval() and the batch_failpoint helper spelling.
    let eval = "pub fn submit() {\n    let _ = failpoint::fire(\"serve::server::admission\");\n    let _ = failpoint::fire(\"serve::queue::enqueue\");\n    let _ = failpoint::eval(\"serve::server::backdoor\");\n}\n";
    let helper = "pub fn run(inputs: &[u8]) {\n    let _ = failpoint::fire(\"serve::server::admission\");\n    let _ = failpoint::fire(\"serve::queue::enqueue\");\n    let _ = batch_failpoint(\"serve::server::backdoor\", inputs);\n}\n";
    for src in [eval, helper] {
        let findings = run(&failpoint_config(), &[("hot/server.rs", src)]);
        assert_eq!(rule_names(&findings), vec!["failpoint-hygiene"], "{src}");
        assert!(findings[0].message.contains("backdoor"), "{src}");
    }
}

#[test]
fn waived_failpoint_site_passes() {
    let src = "pub fn submit() {\n    let _ = failpoint::fire(\"serve::server::admission\");\n    let _ = failpoint::fire(\"serve::queue::enqueue\");\n    // nsai-lint: allow(failpoint-hygiene): experimental site, registered once the API settles.\n    let _ = failpoint::fire(\"serve::server::backdoor\");\n}\n";
    let findings = run(&failpoint_config(), &[("hot/server.rs", src)]);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn stale_failpoint_registration_is_reported_against_lint_toml() {
    let src = "pub fn submit() {\n    let _ = failpoint::fire(\"serve::server::admission\");\n}\n";
    let findings = run(&failpoint_config(), &[("hot/server.rs", src)]);
    assert_eq!(rule_names(&findings), vec!["failpoint-hygiene"]);
    assert_eq!(findings[0].path, "lint.toml");
    assert!(findings[0].message.contains("serve::queue::enqueue"));
}

#[test]
fn variable_site_plumbing_and_cold_paths_are_not_flagged() {
    // The plumbing helper passes its site through a variable — the one
    // sanctioned non-literal call.
    let plumbing = "pub(crate) fn batch_failpoint(site: &str) -> bool {\n    nsai_core::failpoint::fire(site)\n}\n";
    let registry_anchor = "pub fn submit() {\n    let _ = failpoint::fire(\"serve::server::admission\");\n    let _ = failpoint::fire(\"serve::queue::enqueue\");\n}\n";
    let findings = run(
        &failpoint_config(),
        &[
            ("hot/workload.rs", plumbing),
            ("hot/server.rs", registry_anchor),
        ],
    );
    assert!(findings.is_empty(), "unexpected: {findings:?}");
    // Outside the configured paths the rule only tracks staleness.
    let cold = "pub fn probe() {\n    let _ = failpoint::fire(\"serve::server::admission\");\n    let _ = failpoint::fire(\"serve::queue::enqueue\");\n    let _ = failpoint::fire(\"debug::anything\");\n}\n";
    assert!(run(&failpoint_config(), &[("cold/probe.rs", cold)]).is_empty());
}

// ---------------------------------------------------- perf-suite-coverage

/// Config mirroring the workspace shape: workloads under `workloads/`,
/// the suite manifest at `bench/suite.rs`.
fn suite_config() -> Config {
    Config::parse(
        "[rules.perf-suite-coverage]\n\
         paths = [\"workloads/\"]\n\
         manifest = \"bench/suite.rs\"\n",
    )
    .expect("config")
}

const SUITE_MANIFEST: &str = "pub const WORKLOAD_SUITE: &[&str] = &[\"lnn\", \"nvsa\"];\n";

#[test]
fn workload_missing_from_the_perf_manifest_is_reported() {
    let workload = "impl Workload for Zeroc {\n    fn name(&self) -> &'static str {\n        \"zeroc\"\n    }\n}\n";
    let findings = run(
        &suite_config(),
        &[
            ("bench/suite.rs", SUITE_MANIFEST),
            (
                "workloads/lnn.rs",
                "impl Workload for Lnn {\n    fn name(&self) -> &'static str { \"lnn\" }\n}\n",
            ),
            (
                "workloads/nvsa.rs",
                "impl Workload for Nvsa {\n    fn name(&self) -> &'static str { \"nvsa\" }\n}\n",
            ),
            ("workloads/zeroc.rs", workload),
        ],
    );
    assert_eq!(rule_names(&findings), vec!["perf-suite-coverage"]);
    assert_eq!(findings[0].path, "workloads/zeroc.rs");
    assert_eq!(findings[0].line, 2);
    assert!(findings[0].message.contains("zeroc"), "{findings:?}");
}

#[test]
fn fully_manifested_workload_set_is_clean() {
    let findings = run(
        &suite_config(),
        &[
            ("bench/suite.rs", SUITE_MANIFEST),
            (
                "workloads/lnn.rs",
                "impl Workload for Lnn {\n    fn name(&self) -> &'static str { \"lnn\" }\n}\n",
            ),
            (
                "workloads/nvsa.rs",
                "impl Workload for Nvsa {\n    fn name(&self) -> &'static str { \"nvsa\" }\n}\n",
            ),
        ],
    );
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn stale_perf_manifest_entry_is_reported_against_the_manifest() {
    let findings = run(
        &suite_config(),
        &[
            ("bench/suite.rs", SUITE_MANIFEST),
            (
                "workloads/lnn.rs",
                "impl Workload for Lnn {\n    fn name(&self) -> &'static str { \"lnn\" }\n}\n",
            ),
        ],
    );
    assert_eq!(rule_names(&findings), vec!["perf-suite-coverage"]);
    assert_eq!(findings[0].path, "bench/suite.rs");
    assert!(findings[0].message.contains("nvsa"), "{findings:?}");
    assert!(findings[0].message.contains("stale"), "{findings:?}");
}

#[test]
fn experimental_workload_can_waive_suite_coverage() {
    let workload = "impl Workload for Probe {\n    // nsai-lint: allow(perf-suite-coverage): experimental, joins the suite once its phases settle.\n    fn name(&self) -> &'static str { \"probe\" }\n}\n";
    let findings = run(
        &suite_config(),
        &[
            ("bench/suite.rs", SUITE_MANIFEST),
            (
                "workloads/lnn.rs",
                "impl Workload for Lnn {\n    fn name(&self) -> &'static str { \"lnn\" }\n}\n",
            ),
            (
                "workloads/nvsa.rs",
                "impl Workload for Nvsa {\n    fn name(&self) -> &'static str { \"nvsa\" }\n}\n",
            ),
            ("workloads/probe.rs", workload),
        ],
    );
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn suite_coverage_ignores_trait_signatures_and_test_impls() {
    let decls = "pub trait Workload {\n    fn name(&self) -> &'static str;\n}\n\
                 #[cfg(test)]\nmod tests {\n    struct Echo;\n    impl Workload for Echo {\n        fn name(&self) -> &'static str { \"echo\" }\n    }\n}\n";
    let findings = run(
        &suite_config(),
        &[
            ("bench/suite.rs", SUITE_MANIFEST),
            (
                "workloads/lnn.rs",
                "impl Workload for Lnn {\n    fn name(&self) -> &'static str { \"lnn\" }\n}\n",
            ),
            (
                "workloads/nvsa.rs",
                "impl Workload for Nvsa {\n    fn name(&self) -> &'static str { \"nvsa\" }\n}\n",
            ),
            ("workloads/workload.rs", decls),
        ],
    );
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn missing_perf_manifest_file_is_a_finding() {
    let findings = run(
        &suite_config(),
        &[(
            "workloads/lnn.rs",
            "impl Workload for Lnn {\n    fn name(&self) -> &'static str { \"lnn\" }\n}\n",
        )],
    );
    assert_eq!(rule_names(&findings), vec!["perf-suite-coverage"]);
    assert_eq!(findings[0].path, "bench/suite.rs");
}

// ------------------------------------------------------ static-lock-order

#[test]
fn temporary_guards_end_with_their_statement() {
    // `ab` only borrows alpha's guard for one statement each time, so
    // beta is never taken under it and `ba`'s beta → alpha order is no
    // cycle.
    let src = "fn ab(s: &S) {\n    let n = s.alpha.lock().len();\n    std::mem::take(&mut *s.alpha.lock());\n    let b = s.beta.lock();\n}\n\
               fn ba(s: &S) {\n    let b = s.beta.lock();\n    let a = s.alpha.lock();\n}\n";
    let findings = run(&Config::default(), &[("crates/s/src/m.rs", src)]);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn if_let_temporary_is_held_through_its_block() {
    // Edition 2021 keeps an `if let` scrutinee's temporaries alive to
    // the end of the `if let`, so beta is taken under alpha.
    let src = "fn ab(s: &S) {\n    if let Some(x) = s.alpha.lock().take() {\n        s.beta.lock().push(x);\n    }\n}\n\
               fn ba(s: &S) {\n    let b = s.beta.lock();\n    let a = s.alpha.lock();\n}\n";
    let findings = run(&Config::default(), &[("crates/s/src/m.rs", src)]);
    assert_eq!(rule_names(&findings), vec!["static-lock-order"]);
}

#[test]
fn extended_or_moved_guards_stay_held() {
    // `&*` in a `let` extends the guard to the end of the block, and a
    // guard passed by value lives as long as its callee keeps it.
    for held in [
        "    let r = &*s.alpha.lock();\n",
        "    let h = Holder::new(s.alpha.lock());\n",
    ] {
        let src = format!(
            "fn ab(s: &S) {{\n{held}    let b = s.beta.lock();\n}}\n\
             fn ba(s: &S) {{\n    let b = s.beta.lock();\n    let a = s.alpha.lock();\n}}\n"
        );
        let findings = run(&Config::default(), &[("crates/s/src/m.rs", &src)]);
        assert_eq!(rule_names(&findings), vec!["static-lock-order"], "{held}");
    }
}

// --------------------------------------------------------------- dead-pub

fn dead_pub_config() -> Config {
    Config::parse("[rules.dead-pub]\npaths = [\"crates/\"]\n").expect("config")
}

/// A library whose `used` has a caller given per test, and whose
/// `helper` is called only from its own test module.
const DEAD_LIB: &str = "pub fn used() {}\n\
                        pub fn helper() {}\n\
                        #[cfg(test)]\n\
                        mod tests {\n    #[test]\n    fn t() {\n        super::helper();\n        super::used();\n    }\n}\n";

#[test]
fn pub_fn_called_only_from_its_own_tests_is_reported() {
    let findings = run(
        &dead_pub_config(),
        &[
            ("crates/lib/src/a.rs", DEAD_LIB),
            ("crates/app/src/main.rs", "fn main() {\n    a::used();\n}\n"),
        ],
    );
    assert_eq!(rule_names(&findings), vec!["dead-pub"]);
    assert_eq!(findings[0].path, "crates/lib/src/a.rs");
    assert_eq!(findings[0].line, 2);
    assert!(
        findings[0].message.contains("`pub fn helper`"),
        "{findings:?}"
    );
}

#[test]
fn tests_examples_nsbench_and_doctests_are_callers() {
    let callers = [
        (
            "crates/other/tests/it.rs",
            "#[test]\nfn t() {\n    a::used();\n}\n",
        ),
        ("examples/demo.rs", "fn main() {\n    a::used();\n}\n"),
        (
            "nsbench/src/run.rs",
            "pub fn drive() {\n    a::used();\n}\n",
        ),
        (
            "crates/lib/src/lib.rs",
            "//! ```\n//! # let x = 1;\n//! lib::a::used();\n//! ```\n",
        ),
    ];
    for caller in callers {
        let findings = run(
            &dead_pub_config(),
            &[("crates/lib/src/a.rs", "pub fn used() {}\n"), caller],
        );
        assert!(findings.is_empty(), "{}: {findings:?}", caller.0);
    }
}

#[test]
fn bare_paths_and_cross_crate_method_calls_are_callers() {
    let lib = "pub struct Type;\nimpl Type {\n    pub fn f(x: u32) -> u32 { x }\n    pub fn g(&self) {}\n}\n";
    let user = "pub fn run(xs: &[u32], t: &lib::Type) -> Vec<u32> {\n    t.g();\n    xs.iter().copied().map(Type::f).collect()\n}\n";
    let findings = run(
        &dead_pub_config(),
        &[("crates/lib/src/a.rs", lib), ("crates/app/src/b.rs", user)],
    );
    assert_eq!(
        rule_names(&findings),
        vec!["dead-pub"],
        "only `run` is uncalled: {findings:?}"
    );
    assert!(findings[0].message.contains("`pub fn run`"), "{findings:?}");
}

#[test]
fn qualified_calls_credit_only_their_type() {
    let lib = "impl Widget {\n    pub fn new() -> Self { Widget }\n}\nimpl Gadget {\n    pub fn new() -> Self { Gadget }\n}\n";
    let user = "fn main() {\n    let w = Widget::new();\n    let v: Vec<u8> = Vec::new();\n}\n";
    let findings = run(
        &dead_pub_config(),
        &[
            ("crates/lib/src/a.rs", lib),
            ("crates/app/src/main.rs", user),
        ],
    );
    assert_eq!(rule_names(&findings), vec!["dead-pub"]);
    assert!(findings[0].message.contains("Gadget::new"), "{findings:?}");
}

#[test]
fn crate_visible_fns_trait_impls_and_main_are_never_findings() {
    let src = "pub(crate) fn inner() {}\n\
               impl fmt::Display for Widget {\n    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { Ok(()) }\n}\n\
               impl Iterator for Widget {\n    type Item = u8;\n    fn next(&mut self) -> Option<u8> { None }\n}\n\
               pub fn main() {}\n";
    let findings = run(&dead_pub_config(), &[("crates/lib/src/a.rs", src)]);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn dead_pub_is_inert_without_its_section() {
    let findings = run(&Config::default(), &[("crates/lib/src/a.rs", DEAD_LIB)]);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn dead_pub_waivers_count_and_go_stale_when_a_caller_appears() {
    let waived = "// nsai-lint: allow(dead-pub): public surface kept for the next measurement.\npub fn spare() {}\n";
    let files = vec![("crates/lib/src/a.rs".to_string(), waived.to_string())];
    let all = rules::analyze_all(&files, &dead_pub_config());
    assert_eq!(all.len(), 1, "{all:?}");
    assert!(all[0].waived && all[0].rule == "dead-pub", "{all:?}");

    let findings = run(
        &dead_pub_config(),
        &[
            ("crates/lib/src/a.rs", waived),
            (
                "crates/app/src/main.rs",
                "fn main() {\n    a::spare();\n}\n",
            ),
        ],
    );
    assert_eq!(rule_names(&findings), vec!["stale-waiver"]);
    assert_eq!(findings[0].line, 1);
}

// -------------------------------------------------------------- reporting

#[test]
fn findings_are_sorted_and_display_like_rustc() {
    let src_b = "pub fn f() {\n    let _t = std::time::Instant::now();\n}\n";
    let src_a = "pub fn g(p: *mut u8) {\n    unsafe { *p = 0 };\n}\n";
    let findings = run(
        &Config::default(),
        &[("src/b.rs", src_b), ("src/a.rs", src_a)],
    );
    assert_eq!(findings.len(), 2);
    assert_eq!(findings[0].path, "src/a.rs");
    assert_eq!(
        findings[1].to_string(),
        format!("src/b.rs:2: deny [determinism] {}", findings[1].message)
    );
}
