//! The scoped operator profiler.
//!
//! This is the reproduction of the paper's use of the PyTorch Profiler
//! (Sec. IV-A): instrumented kernels report *operator events* — runtime,
//! FLOPs, bytes, output sizes and sparsity — into whichever [`Profiler`] is
//! *active* on the current thread. Workload code brackets its neural and
//! symbolic components with [`phase_scope`] so events are attributed to the
//! right component, and the kernels themselves stay oblivious to phases.
//!
//! The design is deliberately thread-local so that the substrate crates
//! (`nsai-tensor`, `nsai-vsa`, `nsai-logic`) never need a profiler handle in
//! their APIs: a kernel simply calls [`record`] (or the [`time_op`] /
//! [`time_op_with`] helpers) and pays ~nothing when no profiler is active.
//!
//! ```
//! use nsai_core::profile::{Profiler, OpMeta, phase_scope, time_op};
//! use nsai_core::taxonomy::{OpCategory, Phase};
//!
//! let profiler = Profiler::new();
//! {
//!     let _active = profiler.activate();
//!     let _p = phase_scope(Phase::Neural);
//!     let y = time_op("axpy", OpCategory::VectorElementwise,
//!                     OpMeta::new().flops(2048), || 40 + 2);
//!     assert_eq!(y, 42);
//! }
//! assert_eq!(profiler.events().len(), 1);
//! ```

use crate::event::OpEvent;
use crate::memory::MemoryTracker;
use crate::report::Report;
use crate::taxonomy::{OpCategory, Phase};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Builder-style metadata attached to a recorded operator event.
///
/// All fields default to zero; kernels set the ones they know. The struct is
/// `Copy` so it can be built eagerly and amended after the kernel ran (e.g.
/// to fill in output sparsity).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpMeta {
    flops: u64,
    bytes_read: u64,
    bytes_written: u64,
    output_elems: u64,
    output_nonzeros: Option<u64>,
}

impl OpMeta {
    /// Empty metadata (all counters zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the floating-point operation count.
    ///
    /// Convention: kernels report *effective* FLOPs — the operations
    /// actually performed. A kernel that skips work (e.g. a GEMM that
    /// skips zero operand entries counts `2·nnz(A)·n`, not the dense
    /// `2·m·k·n`) must report the reduced count, so roofline/operational-
    /// intensity figures reflect real work rather than a dense upper
    /// bound.
    pub fn flops(mut self, flops: u64) -> Self {
        self.flops = flops;
        self
    }

    /// Set bytes read from operands.
    pub fn bytes_read(mut self, bytes: u64) -> Self {
        self.bytes_read = bytes;
        self
    }

    /// Set bytes written to results.
    pub fn bytes_written(mut self, bytes: u64) -> Self {
        self.bytes_written = bytes;
        self
    }

    /// Set output element count. Unless [`OpMeta::output_nonzeros`] is also
    /// called, the output is assumed dense.
    pub fn output_elems(mut self, elems: u64) -> Self {
        self.output_elems = elems;
        self
    }

    /// Set the measured number of non-zero output elements.
    pub fn output_nonzeros(mut self, nnz: u64) -> Self {
        self.output_nonzeros = Some(nnz);
        self
    }
}

#[derive(Debug, Default)]
struct ProfilerInner {
    events: Vec<OpEvent>,
    memory: MemoryTracker,
}

/// A shareable, cloneable profiler handle.
///
/// Cloning is cheap (an `Arc` bump); all clones observe the same trace.
/// Activate the profiler on the current thread with [`Profiler::activate`];
/// the returned guard deactivates it when dropped. Activation nests: an inner
/// activation shadows the outer one until its guard drops.
#[derive(Debug, Clone)]
pub struct Profiler {
    inner: Arc<Mutex<ProfilerInner>>,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler {
            // One sanitizer label for every profiler instance — the
            // static↔runtime lock-order cross-check keys locks by field.
            inner: Arc::new(
                Mutex::new(ProfilerInner::default()).with_label("core::profile::inner"),
            ),
        }
    }
}

impl Profiler {
    /// Create an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Make this profiler the active sink for the current thread.
    ///
    /// Events recorded while the returned [`ActiveGuard`] is alive land in
    /// this profiler. Guards nest like a stack.
    #[must_use = "events are only captured while the guard is alive"]
    pub fn activate(&self) -> ActiveGuard {
        ACTIVE.with(|stack| stack.borrow_mut().push(self.clone()));
        ActiveGuard { _priv: () }
    }

    /// Snapshot of all recorded events, in sequence order.
    pub fn events(&self) -> Vec<OpEvent> {
        self.inner.lock().events.clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
    }

    /// Whether no events have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().events.is_empty()
    }

    /// Snapshot of the memory tracker (live bytes, high-water marks,
    /// registered storage footprints).
    pub fn memory(&self) -> MemoryTracker {
        self.inner.lock().memory.clone()
    }

    /// Drop all recorded events and reset memory statistics.
    pub fn reset(&self) {
        let mut inner = self.inner.lock();
        inner.events.clear();
        inner.memory = MemoryTracker::default();
    }

    /// Aggregate the trace into a [`Report`] for the given workload name.
    pub fn report_for(&self, workload: impl Into<String>) -> Report {
        let inner = self.inner.lock();
        Report::from_events(workload.into(), &inner.events, inner.memory.clone())
    }

    /// Aggregate the trace into an anonymous [`Report`].
    pub fn report(&self) -> Report {
        self.report_for("unnamed")
    }

    fn push_event(&self, name: &str, category: OpCategory, meta: OpMeta, duration: Duration) {
        let mut inner = self.inner.lock();
        let seq = inner.events.len() as u64;
        inner.events.push(OpEvent {
            seq,
            name: name.to_owned(),
            category,
            phase: current_phase(),
            duration,
            flops: meta.flops,
            bytes_read: meta.bytes_read,
            bytes_written: meta.bytes_written,
            output_elems: meta.output_elems,
            output_nonzeros: meta.output_nonzeros.unwrap_or(meta.output_elems),
        });
    }
}

thread_local! {
    static ACTIVE: RefCell<Vec<Profiler>> = const { RefCell::new(Vec::new()) };
    static PHASE: RefCell<Vec<Phase>> = const { RefCell::new(Vec::new()) };
    static BUFFERS: RefCell<Vec<EventBuffer>> = const { RefCell::new(Vec::new()) };
}

/// A worker-local staging area for events recorded inside an entered
/// [`Scope`]. Buffered events are appended to the target profiler's trace
/// in one lock acquisition when the [`ScopeGuard`] drops, so concurrent
/// workers do not contend on the trace mutex per event.
#[derive(Debug)]
struct EventBuffer {
    target: Profiler,
    events: Vec<OpEvent>,
}

impl EventBuffer {
    fn flush(self) {
        if self.events.is_empty() {
            return;
        }
        let mut inner = self.target.inner.lock();
        for mut ev in self.events {
            ev.seq = inner.events.len() as u64;
            inner.events.push(ev);
        }
    }
}

/// A captured profiling context: the active profiler (if any) and current
/// phase of the capturing thread.
///
/// The profiler's thread-local design means worker threads spawned by a
/// parallel kernel would otherwise record into the void. A parallel
/// engine captures the caller's context once with [`Scope::capture`],
/// then [`Scope::enter`]s it on each worker; events the worker records
/// while the guard lives are staged in a worker-local buffer and merged
/// into the captured profiler's trace when the guard drops.
///
/// ```
/// use nsai_core::profile::{record, OpMeta, Profiler, Scope};
/// use nsai_core::taxonomy::OpCategory;
/// use std::time::Duration;
///
/// let profiler = Profiler::new();
/// let _active = profiler.activate();
/// let scope = Scope::capture();
/// std::thread::scope(|s| {
///     s.spawn(|| {
///         let _g = scope.enter();
///         record("worker-op", OpCategory::Other, OpMeta::new(), Duration::ZERO);
///     });
/// });
/// assert_eq!(profiler.events().len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Scope {
    profiler: Option<Profiler>,
    phase: Option<Phase>,
}

impl Scope {
    /// Snapshot the calling thread's context. Cheap (one `Arc` clone);
    /// capturing with no active profiler yields a scope whose guards are
    /// no-ops, so callers need not special-case unprofiled runs.
    pub fn capture() -> Self {
        Scope {
            profiler: ACTIVE.with(|stack| stack.borrow().last().cloned()),
            phase: PHASE.with(|stack| stack.borrow().last().copied()),
        }
    }

    /// Whether `self` and `other` record into the same profiler (or
    /// both into none). Schedulers coalesce only work whose scopes share
    /// a target, so entering one scope traces the whole batch along the
    /// same execution path untraced work takes.
    pub fn same_target(&self, other: &Scope) -> bool {
        match (&self.profiler, &other.profiler) {
            (Some(a), Some(b)) => Arc::ptr_eq(&a.inner, &b.inner),
            (None, None) => true,
            _ => false,
        }
    }

    /// Install the captured context on the current thread.
    ///
    /// While the guard lives, [`is_active`] is true, [`current_phase`]
    /// reports the captured phase, and recorded events are buffered
    /// locally; dropping the guard merges them into the captured
    /// profiler's trace under a single lock.
    #[must_use = "the context is only installed while the guard is alive"]
    pub fn enter(&self) -> ScopeGuard {
        if let Some(p) = &self.profiler {
            ACTIVE.with(|stack| stack.borrow_mut().push(p.clone()));
            BUFFERS.with(|stack| {
                stack.borrow_mut().push(EventBuffer {
                    target: p.clone(),
                    events: Vec::new(),
                })
            });
        }
        if let Some(phase) = self.phase {
            PHASE.with(|stack| stack.borrow_mut().push(phase));
        }
        ScopeGuard {
            active: self.profiler.is_some(),
            phase: self.phase.is_some(),
        }
    }
}

/// Guard returned by [`Scope::enter`]; uninstalls the context and flushes
/// the worker-local event buffer on drop.
#[derive(Debug)]
#[must_use = "dropping the guard uninstalls the scope"]
pub struct ScopeGuard {
    active: bool,
    phase: bool,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if self.phase {
            PHASE.with(|stack| {
                stack.borrow_mut().pop();
            });
        }
        if self.active {
            if let Some(buffer) = BUFFERS.with(|stack| stack.borrow_mut().pop()) {
                buffer.flush();
            }
            ACTIVE.with(|stack| {
                stack.borrow_mut().pop();
            });
        }
    }
}

/// Guard returned by [`Profiler::activate`]; deactivates on drop.
#[derive(Debug)]
#[must_use = "dropping the guard deactivates the profiler"]
pub struct ActiveGuard {
    _priv: (),
}

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        ACTIVE.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// Guard returned by [`phase_scope`]; restores the previous phase on drop.
#[derive(Debug)]
#[must_use = "dropping the guard ends the phase scope"]
pub struct PhaseGuard {
    _priv: (),
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        PHASE.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// Enter a phase scope: all events recorded on this thread while the guard
/// lives are attributed to `phase`. Scopes nest; the innermost wins.
pub fn phase_scope(phase: Phase) -> PhaseGuard {
    PHASE.with(|stack| stack.borrow_mut().push(phase));
    PhaseGuard { _priv: () }
}

/// The phase events are currently attributed to. Defaults to
/// [`Phase::Neural`] outside any [`phase_scope`].
pub fn current_phase() -> Phase {
    PHASE.with(|stack| stack.borrow().last().copied().unwrap_or(Phase::Neural))
}

/// Whether a profiler is active on the current thread.
///
/// Kernels may use this to skip expensive metadata computation (e.g.
/// counting non-zeros) when nobody is listening.
pub fn is_active() -> bool {
    ACTIVE.with(|stack| !stack.borrow().is_empty())
}

fn with_active<F: FnOnce(&Profiler)>(f: F) {
    ACTIVE.with(|stack| {
        if let Some(p) = stack.borrow().last() {
            f(p);
        }
    });
}

/// Record an already-timed operator event into the active profiler (no-op if
/// none is active).
///
/// Inside an entered [`Scope`] the event is staged in the worker-local
/// buffer instead of locking the trace; see [`Scope::enter`].
pub fn record(name: &str, category: OpCategory, meta: OpMeta, duration: Duration) {
    let buffered = BUFFERS.with(|buffers| {
        let mut buffers = buffers.borrow_mut();
        let Some(buf) = buffers.last_mut() else {
            return false;
        };
        // A profiler activated *inside* the scope shadows the buffer's
        // target; its events must bypass the buffer and record directly.
        let top_is_target = ACTIVE.with(|stack| {
            stack
                .borrow()
                .last()
                .is_some_and(|p| Arc::ptr_eq(&p.inner, &buf.target.inner))
        });
        if !top_is_target {
            return false;
        }
        buf.events.push(OpEvent {
            seq: 0, // assigned at flush, under the trace lock
            name: name.to_owned(),
            category,
            phase: current_phase(),
            duration,
            flops: meta.flops,
            bytes_read: meta.bytes_read,
            bytes_written: meta.bytes_written,
            output_elems: meta.output_elems,
            output_nonzeros: meta.output_nonzeros.unwrap_or(meta.output_elems),
        });
        true
    });
    if !buffered {
        with_active(|p| p.push_event(name, category, meta, duration));
    }
}

/// Time `f` and record it as one operator event. Returns `f`'s output.
pub fn time_op<T>(name: &str, category: OpCategory, meta: OpMeta, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed();
    record(name, category, meta, elapsed);
    out
}

/// Time `f` and record it, letting `f` produce the metadata alongside its
/// output — for kernels whose byte/sparsity counts are only known after
/// running (e.g. masked selection).
pub fn time_op_with<T>(name: &str, category: OpCategory, f: impl FnOnce() -> (T, OpMeta)) -> T {
    let start = Instant::now();
    let (out, meta) = f();
    let elapsed = start.elapsed();
    record(name, category, meta, elapsed);
    out
}

/// Report a storage allocation of `bytes` to the active profiler's memory
/// tracker (no-op when inactive).
pub fn record_alloc(bytes: u64) {
    with_active(|p| p.inner.lock().memory.alloc(bytes, current_phase()));
}

/// Report a storage release of `bytes` to the active profiler's memory
/// tracker (no-op when inactive).
pub fn record_dealloc(bytes: u64) {
    with_active(|p| p.inner.lock().memory.dealloc(bytes));
}

/// Register a persistent storage footprint (model weights, VSA codebooks)
/// under `label`. These are reported separately from transient tensor
/// memory, matching the paper's weights-vs-intermediates distinction
/// (Takeaway 4).
pub fn register_storage(label: &str, bytes: u64) {
    with_active(|p| {
        p.inner
            .lock()
            .memory
            .register_storage(label, bytes, current_phase())
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_only_captured_while_active() {
        let p = Profiler::new();
        record("orphan", OpCategory::Other, OpMeta::new(), Duration::ZERO);
        assert!(p.is_empty());
        {
            let _a = p.activate();
            record("captured", OpCategory::Other, OpMeta::new(), Duration::ZERO);
        }
        record("late", OpCategory::Other, OpMeta::new(), Duration::ZERO);
        let events = p.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "captured");
    }

    #[test]
    fn phase_scopes_nest_and_restore() {
        assert_eq!(current_phase(), Phase::Neural);
        let _outer = phase_scope(Phase::Symbolic);
        assert_eq!(current_phase(), Phase::Symbolic);
        {
            let _inner = phase_scope(Phase::Neural);
            assert_eq!(current_phase(), Phase::Neural);
        }
        assert_eq!(current_phase(), Phase::Symbolic);
    }

    #[test]
    fn nested_activation_shadows_outer() {
        let outer = Profiler::new();
        let inner = Profiler::new();
        let _a = outer.activate();
        {
            let _b = inner.activate();
            record("x", OpCategory::MatMul, OpMeta::new(), Duration::ZERO);
        }
        record("y", OpCategory::MatMul, OpMeta::new(), Duration::ZERO);
        assert_eq!(inner.events().len(), 1);
        assert_eq!(inner.events()[0].name, "x");
        assert_eq!(outer.events().len(), 1);
        assert_eq!(outer.events()[0].name, "y");
    }

    #[test]
    fn time_op_returns_closure_output_and_records() {
        let p = Profiler::new();
        let _a = p.activate();
        let v = time_op(
            "add",
            OpCategory::VectorElementwise,
            OpMeta::new().flops(1),
            || 7,
        );
        assert_eq!(v, 7);
        assert_eq!(p.len(), 1);
        assert_eq!(p.events()[0].flops, 1);
    }

    #[test]
    fn time_op_with_uses_post_hoc_meta() {
        let p = Profiler::new();
        let _a = p.activate();
        time_op_with("mask", OpCategory::DataTransform, || {
            ((), OpMeta::new().output_elems(10).output_nonzeros(3))
        });
        let e = &p.events()[0];
        assert_eq!(e.output_elems, 10);
        assert_eq!(e.output_nonzeros, 3);
        assert!((e.output_sparsity() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn dense_output_defaults_nonzeros_to_elems() {
        let p = Profiler::new();
        let _a = p.activate();
        record(
            "dense",
            OpCategory::MatMul,
            OpMeta::new().output_elems(64),
            Duration::ZERO,
        );
        assert_eq!(p.events()[0].output_nonzeros, 64);
    }

    #[test]
    fn memory_tracking_reaches_profiler() {
        let p = Profiler::new();
        {
            let _a = p.activate();
            record_alloc(1000);
            record_alloc(500);
            record_dealloc(1000);
            register_storage("codebook", 4096);
        }
        let mem = p.memory();
        assert_eq!(mem.live_bytes(), 500);
        assert_eq!(mem.high_water_bytes(), 1500);
        assert_eq!(mem.storage_bytes_total(), 4096);
    }

    #[test]
    fn reset_clears_trace() {
        let p = Profiler::new();
        {
            let _a = p.activate();
            record("x", OpCategory::Other, OpMeta::new(), Duration::ZERO);
            record_alloc(64);
        }
        p.reset();
        assert!(p.is_empty());
        assert_eq!(p.memory().high_water_bytes(), 0);
    }

    #[test]
    fn events_carry_sequence_numbers() {
        let p = Profiler::new();
        let _a = p.activate();
        for _ in 0..5 {
            record("n", OpCategory::Other, OpMeta::new(), Duration::ZERO);
        }
        let seqs: Vec<u64> = p.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn scope_propagates_profiler_and_phase_across_threads() {
        let p = Profiler::new();
        let _a = p.activate();
        let _ph = phase_scope(Phase::Symbolic);
        let scope = Scope::capture();
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(!is_active());
                let _g = scope.enter();
                assert!(is_active());
                assert_eq!(current_phase(), Phase::Symbolic);
                record("worker", OpCategory::MatMul, OpMeta::new(), Duration::ZERO);
                record_alloc(128);
            });
        });
        let events = p.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "worker");
        assert_eq!(events[0].phase, Phase::Symbolic);
        assert_eq!(p.memory().high_water_bytes(), 128);
    }

    #[test]
    fn empty_scope_guard_is_noop() {
        let scope = Scope::capture();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _g = scope.enter();
                assert!(!is_active());
                // Must not panic or leak anywhere.
                record("void", OpCategory::Other, OpMeta::new(), Duration::ZERO);
            });
        });
    }

    #[test]
    fn same_target_compares_the_captured_profiler() {
        let untraced = Scope::capture();
        let (p, q) = (Profiler::new(), Profiler::new());
        let (a, b) = {
            let _a = p.activate();
            (Scope::capture(), Scope::capture())
        };
        let c = {
            let _q = q.activate();
            Scope::capture()
        };
        assert!(untraced.same_target(&Scope::default()));
        assert!(a.same_target(&b));
        assert!(!a.same_target(&c));
        assert!(!a.same_target(&untraced));
    }

    #[test]
    fn merged_buffers_keep_sequence_numbers_contiguous() {
        let p = Profiler::new();
        let _a = p.activate();
        let scope = Scope::capture();
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    let _g = scope.enter();
                    record("w1", OpCategory::Other, OpMeta::new(), Duration::ZERO);
                    record("w2", OpCategory::Other, OpMeta::new(), Duration::ZERO);
                });
            }
        });
        record("main", OpCategory::Other, OpMeta::new(), Duration::ZERO);
        let mut seqs: Vec<u64> = p.events().iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..7).collect::<Vec<u64>>());
    }

    #[test]
    fn inner_activation_bypasses_scope_buffer() {
        let outer = Profiler::new();
        let inner = Profiler::new();
        let _a = outer.activate();
        let scope = Scope::capture();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _g = scope.enter();
                {
                    let _b = inner.activate();
                    record("shadowed", OpCategory::Other, OpMeta::new(), Duration::ZERO);
                }
                record("outer", OpCategory::Other, OpMeta::new(), Duration::ZERO);
            });
        });
        assert_eq!(inner.events().len(), 1);
        assert_eq!(inner.events()[0].name, "shadowed");
        assert_eq!(outer.events().len(), 1);
        assert_eq!(outer.events()[0].name, "outer");
    }

    #[test]
    fn phase_attribution_follows_scope() {
        let p = Profiler::new();
        let _a = p.activate();
        {
            let _n = phase_scope(Phase::Neural);
            record(
                "conv",
                OpCategory::Convolution,
                OpMeta::new(),
                Duration::ZERO,
            );
        }
        {
            let _s = phase_scope(Phase::Symbolic);
            record(
                "bind",
                OpCategory::VectorElementwise,
                OpMeta::new(),
                Duration::ZERO,
            );
        }
        let events = p.events();
        assert_eq!(events[0].phase, Phase::Neural);
        assert_eq!(events[1].phase, Phase::Symbolic);
    }
}
