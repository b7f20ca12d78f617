//! Deterministic parallel execution: the repo's one work queue.
//!
//! A unit of work has **serial sessions**: a fleet tenant
//! ([`run_tenants`]) runs many, in order; a grid cell (advisor × injector
//! × seed, via [`par_map`] / [`par_map_traced`]) runs one. Idle workers
//! claim a runnable unit from a shared ready queue, run one session, and
//! requeue it. Determinism is the design constraint everything else
//! serves:
//!
//! * **Results land by input index**, and each session's `pipa-obs`
//!   trace is flushed in (unit, session) order after the run.
//! * **Every cell derives its own RNG seed** with [`derive_seed`]
//!   (SplitMix64), so work-stealing order cannot leak into the numbers.
//! * **No shared mutable state** beyond memoization whose values are
//!   pure functions of their keys (`pipa_sim::BenefitMatrix`).
//!
//! So `--jobs 1` and `--jobs N` give bit-identical artifacts and traces
//! (`DESIGN.md`, "Determinism guarantees"). **One failure policy:** a
//! session runs under `catch_unwind` inside its recording scope, so a
//! panic or `Err` keeps its partial trace and degrades only its own unit.

use pipa_obs::{record_cell, timer, CellCtx, CellTrace, TraceOutputs};
use std::any::Any;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Derive a per-cell seed from a root seed and a stream index.
///
/// This is SplitMix64: the root is advanced `stream + 1` steps of the
/// golden-ratio increment and the result is run through the SplitMix64
/// finalizer. Distinct streams give statistically independent seeds even
/// for adjacent roots (unlike `root + stream`, which makes run *r* of
/// seed *s* collide with run *r−1* of seed *s+1*).
pub fn derive_seed(root: u64, stream: u64) -> u64 {
    let mut z = root.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A cell's RNG seed, as a newtype so call sites can't silently fall
/// back to hand-rolled `seed + i` arithmetic (which correlates adjacent
/// streams — see [`derive_seed`]).
///
/// Produced by [`CellSeed::derive`] (the grid runner's scheme) or, for
/// the rare call site that really wants a verbatim root seed,
/// [`CellSeed::raw`]. The wrapped value is what reaches workload
/// generation, the injector, and the `seed` field of result artifacts —
/// `CellSeed::derive(root, run)` yields the exact same numbers as the
/// pre-newtype `derive_seed(root, run)` plumbing, so existing golden
/// artifacts remain valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellSeed(u64);

impl CellSeed {
    /// Derive the seed for `stream` (usually the run index) from a root.
    pub fn derive(root: u64, stream: u64) -> Self {
        CellSeed(derive_seed(root, stream))
    }

    /// Wrap a verbatim seed (no derivation).
    pub fn raw(seed: u64) -> Self {
        CellSeed(seed)
    }

    /// The seed value.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for CellSeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<CellSeed> for u64 {
    fn from(s: CellSeed) -> u64 {
        s.0
    }
}

/// The worker count a `--jobs 0` / unspecified request resolves to:
/// `std::thread::available_parallelism()`, or 1 if unavailable.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// What one tenant produced: per-session results (in session order) and
/// wall-clock timings, plus the degradation marker if a session failed.
#[derive(Debug)]
pub struct TenantOutcome<R> {
    /// Results of the sessions that completed, in session order.
    pub results: Vec<R>,
    /// Wall-clock nanoseconds per completed session (same order; the
    /// degraded session, if any, is not included).
    pub session_nanos: Vec<u64>,
    /// `Some((session index, error))` if a session failed or panicked;
    /// sessions after it were skipped.
    pub degraded: Option<(usize, String)>,
}

/// A unit as the queue leaves it: its state and outcome, the payload of
/// the panic that degraded it (if one did), and its session traces.
struct Unit<T, R> {
    state: T,
    outcome: TenantOutcome<R>,
    panic: Option<Box<dyn Any + Send>>,
    traces: Vec<CellTrace>,
}

/// The executor: runs `sessions[i]` sessions of unit `i` on up to
/// `workers` threads (`0` means [`default_jobs`]; one worker or one unit
/// runs inline on the calling thread), each as `run_one(&mut state, s)`
/// recorded under `ctx(&state, s)`; then flushes the traces to `out` in
/// (unit, session) order and returns the units in input order.
fn execute<T, R, C, F>(
    workers: usize,
    states: Vec<T>,
    sessions: &[usize],
    out: &TraceOutputs,
    ctx: C,
    run_one: F,
) -> Vec<Unit<T, R>>
where
    T: Send,
    R: Send,
    C: Fn(&T, usize) -> CellCtx + Sync,
    F: Fn(&mut T, usize) -> Result<R, String> + Sync,
{
    assert_eq!(states.len(), sessions.len(), "one session count per tenant");
    let workers = NonZeroUsize::new(workers).map_or_else(default_jobs, NonZeroUsize::get);
    let threads = workers.min(states.len());
    let active = out.active();
    let units: Vec<Mutex<Unit<T, R>>> = states
        .into_iter()
        .map(|state| {
            let outcome = TenantOutcome {
                results: Vec::new(),
                session_nanos: Vec::new(),
                degraded: None,
            };
            Mutex::new(Unit {
                state,
                outcome,
                panic: None,
                traces: Vec::new(),
            })
        })
        .collect();
    let ready: Vec<usize> = (0..units.len()).filter(|&i| sessions[i] > 0).collect();
    let live = AtomicUsize::new(ready.len());
    let queue = Mutex::new(VecDeque::from(ready));
    let idle = Condvar::new();

    let worker = || loop {
        // Claim a runnable unit, or exit once none will ever appear.
        let i = {
            let mut q = queue.lock().expect("ready queue");
            loop {
                if let Some(i) = q.pop_front() {
                    break i;
                }
                if live.load(Ordering::Acquire) == 0 {
                    return;
                }
                q = idle.wait(q).expect("ready queue");
            }
        };
        // The index was in exactly one place (the queue), so this lock is
        // uncontended; holding it for the session keeps the unit's state
        // machine single-threaded.
        let mut guard = units[i].lock().expect("unit slot");
        let unit = &mut *guard;
        let s = unit.outcome.results.len();
        let started = Instant::now();
        let (result, trace) = record_cell(active, ctx(&unit.state, s), || {
            catch_unwind(AssertUnwindSafe(|| run_one(&mut unit.state, s)))
        });
        let nanos = started.elapsed().as_nanos() as u64;
        unit.traces.push(trace);
        match result {
            Ok(Ok(r)) => {
                unit.outcome.results.push(r);
                unit.outcome.session_nanos.push(nanos);
            }
            Ok(Err(e)) => unit.outcome.degraded = Some((s, e)),
            Err(payload) => {
                let text = (payload.downcast_ref::<&str>().copied())
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
                let message = match text {
                    Some(text) => format!("session panicked: {text}"),
                    None => "session panicked".to_string(),
                };
                unit.outcome.degraded = Some((s, message));
                unit.panic = Some(payload);
            }
        }
        let finished = unit.outcome.degraded.is_some() || s + 1 == sessions[i];
        drop(guard);
        if finished {
            if live.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last unit done: wake every parked worker to exit. The
                // notify must happen with the queue lock held — a waiter
                // releases that lock atomically with parking in
                // `idle.wait`, so taking it here means the wake cannot
                // land in the window between a waiter's `live` check and
                // its park (a lost wake-up would sleep that worker
                // forever, since nothing notifies afterwards).
                let _q = queue.lock().expect("ready queue");
                idle.notify_all();
            }
        } else {
            queue.lock().expect("ready queue").push_back(i);
            idle.notify_one();
        }
    };

    if threads <= 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(worker);
            }
        });
    }
    let units: Vec<Unit<T, R>> = units
        .into_iter()
        .map(|m| m.into_inner().expect("unit slot"))
        .collect();
    for trace in units.iter().flat_map(|unit| &unit.traces) {
        out.write_cell(trace);
    }
    units
}

/// Map `f` over `items` on up to `jobs` worker threads (`0` means
/// [`default_jobs`], `1` runs inline), returning results in input order.
///
/// Each cell is a one-session unit of the work queue, so workers balance
/// cells of very different runtimes. `f` must be a pure function of
/// `(index, item)` for the *values* to be deterministic too. A panic in
/// `f` reaches the caller once the other cells have finished.
pub fn par_map<T, U, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    let untraced = TraceOutputs::disabled();
    par_map_traced(jobs, items, &untraced, |_, _| CellCtx::new(0), f)
}

/// [`par_map`] with per-cell observability: each item runs inside a
/// `pipa-obs` recording scope (context from `ctx`, which must include
/// the cell's seed identity) wrapped in a `"cell"` wall-clock span, and
/// the cell traces are flushed to `out` **in input order**, so the trace
/// file is byte-identical across `--jobs` settings. With no sink
/// attached (`out.active() == false`) this is exactly [`par_map`].
pub fn par_map_traced<T, U, F, C>(
    jobs: usize,
    items: Vec<T>,
    out: &TraceOutputs,
    ctx: C,
    f: F,
) -> Vec<U>
where
    T: Send,
    U: Send,
    C: Fn(usize, &T) -> CellCtx + Sync,
    F: Fn(usize, T) -> U + Sync,
{
    let n = items.len();
    let active = out.active();
    let cells: Vec<(usize, Option<T>)> = items.into_iter().map(Some).enumerate().collect();
    let run_cell = |(i, item): &mut (usize, Option<T>), _| {
        let _cell_span = active.then(|| timer("cell"));
        Ok(f(*i, item.take().expect("each cell runs once")))
    };
    execute(
        jobs,
        cells,
        &vec![1; n],
        out,
        |(i, item), _| ctx(*i, item.as_ref().expect("cell not yet run")),
        run_cell,
    )
    .into_iter()
    .map(|mut unit| match unit.panic {
        Some(payload) => resume_unwind(payload),
        None => unit.outcome.results.pop().expect("every cell completed"),
    })
    .collect()
}

/// Run every tenant's sessions across `workers` threads (`0` means
/// [`default_jobs`]) and return the tenants, with whatever state their
/// sessions left behind, plus one [`TenantOutcome`] each, in input order.
///
/// `run_one(tenant, s)` runs session `s` of `sessions[i]` (serially, in
/// order, on whatever worker claims the tenant). A session that returns
/// `Err` or panics (rendered `session panicked: …`) degrades only its
/// own tenant.
pub fn run_tenants<T, R, F>(
    workers: usize,
    tenants: Vec<T>,
    sessions: &[usize],
    run_one: F,
) -> (Vec<T>, Vec<TenantOutcome<R>>)
where
    T: Send,
    R: Send,
    F: Fn(&mut T, usize) -> Result<R, String> + Sync,
{
    let untraced = TraceOutputs::disabled();
    let no_ctx = |_: &T, _| CellCtx::new(0);
    run_tenants_traced(workers, tenants, sessions, &untraced, no_ctx, run_one)
}

/// [`run_tenants`] with per-session observability: session `s` records
/// under `ctx(tenant, s)`, and the traces are flushed to `out` in
/// (tenant, session) order — a degraded tenant's failed session right
/// after its completed ones — byte-identical across worker counts.
pub fn run_tenants_traced<T, R, C, F>(
    workers: usize,
    tenants: Vec<T>,
    sessions: &[usize],
    out: &TraceOutputs,
    ctx: C,
    run_one: F,
) -> (Vec<T>, Vec<TenantOutcome<R>>)
where
    T: Send,
    R: Send,
    C: Fn(&T, usize) -> CellCtx + Sync,
    F: Fn(&mut T, usize) -> Result<R, String> + Sync,
{
    execute(workers, tenants, sessions, out, ctx, run_one)
        .into_iter()
        .map(|unit| (unit.state, unit.outcome))
        .unzip()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipa_obs::MemorySink;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let serial = par_map(1, items.clone(), |i, x| (i as u64) * 1000 + x * x);
        let parallel = par_map(4, items, |i, x| (i as u64) * 1000 + x * x);
        assert_eq!(serial, parallel);
        assert_eq!(serial[3], 3009);
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(4, empty, |_, x| x).is_empty());
        assert_eq!(par_map(4, vec![7], |_, x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_with_more_jobs_than_items() {
        let out = par_map(16, vec![1, 2, 3], |_, x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn jobs_zero_resolves_to_available_parallelism() {
        assert!(default_jobs() >= 1);
        let out = par_map(0, vec![5u8, 6], |_, x| x);
        assert_eq!(out, vec![5, 6]);
    }

    #[test]
    fn derive_seed_decorrelates_streams() {
        // Distinct (root, stream) pairs that would collide under
        // root + stream must not collide here.
        assert_ne!(derive_seed(10, 1), derive_seed(11, 0));
        assert_ne!(derive_seed(0, 0), derive_seed(0, 1));
        // And the derivation is a pure function.
        assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
    }

    #[test]
    fn derive_seed_matches_splitmix_reference() {
        // SplitMix64 of seed 0, first output (reference value from the
        // published algorithm): 0xE220A8397B1DCDAF.
        assert_eq!(derive_seed(0, 0), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn cell_seed_preserves_the_derivation_scheme() {
        assert_eq!(CellSeed::derive(0, 0).get(), derive_seed(0, 0));
        assert_eq!(CellSeed::derive(99, 3).get(), derive_seed(99, 3));
        assert_eq!(CellSeed::raw(42).get(), 42);
        assert_eq!(u64::from(CellSeed::raw(7)), 7);
        assert_eq!(CellSeed::raw(7).to_string(), "7");
    }

    #[test]
    fn par_map_traced_flushes_in_input_order() {
        let trace = MemorySink::new();
        let out = TraceOutputs::with_sinks(Some(Box::new(trace.clone())), None);
        let results = par_map_traced(
            4,
            (0u64..8).collect(),
            &out,
            |_, &x| CellCtx::new(x),
            |_, x| {
                pipa_obs::emit(pipa_obs::Event::new("item").field("x", x));
                x * 2
            },
        );
        assert_eq!(results, vec![0, 2, 4, 6, 8, 10, 12, 14]);
        let lines = trace.lines();
        assert_eq!(lines.len(), 8);
        for (i, line) in lines.iter().enumerate() {
            assert!(
                line.contains(&format!("\"cell_seed\":{i}")),
                "line {i} out of order: {line}"
            );
        }
    }

    #[test]
    fn par_map_traced_without_sinks_matches_par_map() {
        let out = TraceOutputs::disabled();
        let a = par_map_traced(4, vec![1, 2, 3], &out, |_, _| CellCtx::new(0), |_, x| x * 3);
        assert_eq!(a, vec![3, 6, 9]);
    }

    /// A tenant whose sessions append to its own log; session results
    /// depend only on (tenant id, session index, prior sessions).
    struct Counter {
        id: usize,
        log: Vec<usize>,
    }

    fn run(workers: usize, n_tenants: usize, n_sessions: usize) -> Vec<TenantOutcome<String>> {
        let tenants: Vec<Counter> = (0..n_tenants)
            .map(|id| Counter { id, log: vec![] })
            .collect();
        let (tenants, outcomes) = run_tenants(
            workers,
            tenants,
            &vec![n_sessions; n_tenants],
            |t: &mut Counter, s| {
                t.log.push(s);
                Ok(format!("t{}s{}len{}", t.id, s, t.log.len()))
            },
        );
        for t in &tenants {
            assert_eq!(
                t.log,
                (0..n_sessions).collect::<Vec<_>>(),
                "in-order sessions"
            );
        }
        outcomes
    }

    #[test]
    fn results_are_identical_across_worker_counts() {
        let a: Vec<Vec<String>> = run(1, 5, 4).into_iter().map(|o| o.results).collect();
        for workers in [2, 8] {
            let b: Vec<Vec<String>> = run(workers, 5, 4).into_iter().map(|o| o.results).collect();
            assert_eq!(a, b, "workers={workers}");
        }
    }

    #[test]
    fn empty_fleet_and_sessionless_tenants() {
        let (t, o) = run_tenants::<u8, (), _>(4, vec![], &[], |_, _| Ok(()));
        assert!(t.is_empty() && o.is_empty());
        let (_, o) = run_tenants(4, vec![1u8, 2], &[0, 2], |t, s| Ok(*t as usize + s));
        assert!(o[0].results.is_empty());
        assert_eq!(o[1].results, vec![2, 3]);
    }

    #[test]
    fn a_panicking_tenant_degrades_alone() {
        for workers in [1, 4] {
            let (_, outcomes) = run_tenants(
                workers,
                vec![0usize, 1, 2],
                &[3, 3, 3],
                |t: &mut usize, s| {
                    if *t == 1 && s == 1 {
                        panic!("tenant 1 blew up");
                    }
                    Ok(s * 10)
                },
            );
            assert_eq!(outcomes[0].results, vec![0, 10, 20]);
            assert_eq!(outcomes[2].results, vec![0, 10, 20]);
            // Tenant 1 completed session 0, then degraded at session 1.
            assert_eq!(outcomes[1].results, vec![0]);
            let (at, msg) = outcomes[1].degraded.as_ref().expect("degraded");
            assert_eq!(*at, 1);
            assert!(msg.contains("tenant 1 blew up"), "{msg}");
            assert!(outcomes[0].degraded.is_none() && outcomes[2].degraded.is_none());
        }
    }

    #[test]
    fn an_err_session_skips_the_tenants_remaining_sessions() {
        let calls = Mutex::new(Vec::new());
        let (_, outcomes) = run_tenants(2, vec![0usize, 1], &[4, 4], |t: &mut usize, s| {
            calls.lock().unwrap().push((*t, s));
            if *t == 0 && s == 2 {
                Err("replay miss".to_string())
            } else {
                Ok(s)
            }
        });
        assert_eq!(outcomes[0].results, vec![0, 1]);
        assert_eq!(outcomes[0].degraded, Some((2, "replay miss".to_string())));
        assert_eq!(outcomes[1].results, vec![0, 1, 2, 3]);
        // Session 3 of tenant 0 never ran.
        assert!(!calls.lock().unwrap().contains(&(0, 3)));
    }

    #[test]
    fn shutdown_never_strands_a_parked_worker() {
        // Regression for a lost-wakeup deadlock: the final notify_all
        // used to fire without the queue lock, so a worker that had just
        // seen an empty queue and `live != 0` but not yet parked missed
        // the only wake-up and slept forever. Many tiny fleets with more
        // workers than work maximize the odds of hitting that window.
        for round in 0..200usize {
            let n = 1 + round % 3;
            let (_, outcomes) = run_tenants(8, vec![0usize; n], &vec![1; n], |_, s| Ok(s));
            assert_eq!(outcomes.len(), n, "round {round}");
        }
    }

    #[test]
    fn timings_cover_exactly_the_completed_sessions() {
        let o = run(3, 2, 5);
        for out in o {
            assert_eq!(out.session_nanos.len(), out.results.len());
        }
    }

    #[test]
    fn a_panicking_cell_reaches_the_caller_after_its_siblings_ran() {
        for jobs in [1, 4] {
            for traced in [false, true] {
                let ran = AtomicUsize::new(0);
                let cell = |_: usize, x: u64| {
                    pipa_obs::emit(pipa_obs::Event::new("item").field("x", x));
                    if x == 2 {
                        panic!("cell 2 blew up");
                    }
                    ran.fetch_add(1, Ordering::Relaxed);
                    x
                };
                let trace = MemorySink::new();
                let out = TraceOutputs::with_sinks(Some(Box::new(trace.clone())), None);
                let payload = catch_unwind(AssertUnwindSafe(|| {
                    if traced {
                        par_map_traced(jobs, (0..6).collect(), &out, |_, &x| CellCtx::new(x), cell)
                    } else {
                        par_map(jobs, (0..6).collect(), cell)
                    }
                }))
                .expect_err("the cell's panic reaches the caller");
                let case = format!("jobs={jobs} traced={traced}");
                assert_eq!(
                    payload.downcast_ref::<&str>(),
                    Some(&"cell 2 blew up"),
                    "{case}"
                );
                assert_eq!(ran.load(Ordering::Relaxed), 5, "{case}");
                // Every cell's trace is flushed in input order before the
                // re-raise, the panicking cell's partial trace included.
                let lines = trace.lines();
                assert_eq!(lines.len(), if traced { 6 } else { 0 }, "{case}");
                for (i, line) in lines.iter().enumerate() {
                    assert!(
                        line.contains(&format!("\"cell_seed\":{i}")),
                        "{case}: {line}"
                    );
                }
            }
        }
    }
}
