//! The `fleet-mixed` workload: a `pipa_serve::FleetSpec` mixing
//! benchmarks, cost backends and advisors, mostly what-if sessions with
//! recommend sessions and one PIPA stress session per tenant.
//!
//! The untraced passes call `FleetSpec::run`. The fleet owns its cost
//! backends, so a decorator cannot reach them from outside; the traced
//! run therefore drives the same roster through the public
//! `pipa_serve::scheduler::run_tenants` with the steps of
//! `FleetSpec::run` rebuilt here around decorated backends, and its
//! report must equal `FleetSpec::run`'s bit for bit.

use crate::decorators::{traced_injector, traced_spec, TracedCost};
use crate::layers::{self, Metrics};
use crate::spans::{self, Tree};
use crate::Run;
use pipa_core::experiment::{normal_workload, CellConfig, InjectorKind};
use pipa_core::harness::StressTest;
use pipa_core::runner::{par_map, CellSeed};
use pipa_cost::{CostBackend, LearnedIndexBackend, LearnedIndexConfig, SimBackend};
use pipa_ia::{AdvisorKind, AdvisorSpec, BuildCtx, ClearBoxAdvisor, SpeedPreset, TrajectoryMode};
use pipa_obs::{record_cell, CellCtx, CellTrace, Event, MemorySink, TraceOutputs};
use pipa_serve::scheduler::run_tenants;
use pipa_serve::{
    BackendSpec, Degraded, FleetReport, FleetSpec, SessionReport, SessionRequest, TenantReport,
    TenantSpec,
};
use pipa_sim::{Index, IndexConfig, Workload};
use pipa_workload::Benchmark;
use std::collections::BTreeMap;
use std::time::Instant;

/// What-if sessions per tenant before each slow session.
const WHATIF_RUN: usize = 45;
/// Candidate configurations costed by one what-if session.
const WHATIF_CONFIGS: usize = 8;
/// Injection size of the per-tenant stress session.
const STRESS_INJECTION: usize = 8;

/// One tenant's sessions: 90 what-if, 1 recommend and 1 PIPA stress,
/// interleaved so slow sessions arrive while what-if traffic runs. With
/// 24 tenants that is 2208 sessions, so 22 lie beyond the p99.
fn sessions() -> Vec<SessionRequest> {
    let whatif = SessionRequest::WhatIf {
        configs: WHATIF_CONFIGS,
    };
    let slow = [
        SessionRequest::Recommend,
        SessionRequest::Stress {
            injector: InjectorKind::Pipa,
            injection_size: STRESS_INJECTION,
        },
    ];
    slow.into_iter()
        .flat_map(|s| std::iter::repeat_n(whatif.clone(), WHATIF_RUN).chain([s]))
        .collect()
}

/// Tenants per roster coordinate. With one, the fleet's wall time is the
/// slowest tenant's chain of sessions (DQN-b on TPC-DS), which varies
/// with the seed; with two, the workers stay busy past that chain and
/// wall time follows the summed work of all tenants.
const REPLICAS: usize = 2;

/// The roster: {TPC-H, TPC-DS} × {simulator, learned index} ×
/// {DBAbandit-b, SWIRL, DQN-b} × [`REPLICAS`], with sessions queued or
/// not, naming the built-in advisors or their traced twins.
pub fn roster(seed: u64, workers: usize, queued: bool, traced: bool) -> FleetSpec {
    let mut spec = FleetSpec::new(seed).workers(workers);
    for replica in 0..REPLICAS {
        for benchmark in [Benchmark::TpcH, Benchmark::TpcDs] {
            for backend in [BackendSpec::Sim, BackendSpec::LearnedIndex] {
                for kind in [
                    AdvisorKind::DbaBandit(TrajectoryMode::Best),
                    AdvisorKind::Swirl,
                    AdvisorKind::Dqn(TrajectoryMode::Best),
                ] {
                    let advisor = AdvisorSpec::from(kind);
                    let name = format!(
                        "{:?}/{}/{}/{replica}",
                        benchmark,
                        backend.label(),
                        kind.label()
                    );
                    let mut tenant = TenantSpec::new(name, benchmark)
                        .preset(SpeedPreset::Test)
                        .backend(backend.clone())
                        .advisor(if traced {
                            traced_spec(&advisor)
                        } else {
                            advisor
                        });
                    if queued {
                        tenant.sessions = sessions();
                    }
                    spec = spec.tenant(tenant);
                }
            }
        }
    }
    spec
}

/// The per-layer metric that holds the median latency of `request`'s kind.
fn kind_metric(request: &SessionRequest) -> &'static str {
    match request {
        SessionRequest::WhatIf { .. } => "serve.whatif_ms.p50",
        SessionRequest::Recommend => "serve.recommend_ms.p50",
        SessionRequest::Stress { .. } => "serve.stress_ms.p50",
        SessionRequest::ChaosPanic { .. } => "serve.chaos_ms.p50",
    }
}

/// Costs positive and finite, AD finite.
fn check_report(report: &FleetReport) -> Result<(), String> {
    let positive = |c: f64| c.is_finite() && c > 0.0;
    for t in &report.tenants {
        for s in &t.sessions {
            let ok = match s {
                SessionReport::WhatIf {
                    total_cost,
                    best_cost,
                    ..
                } => positive(*total_cost) && positive(*best_cost),
                SessionReport::Recommend { cost, .. } => positive(*cost),
                SessionReport::Stress(o) => {
                    o.ad.is_finite() && positive(o.baseline_cost) && positive(o.poisoned_cost)
                }
            };
            if !ok {
                return Err(format!("{}: bad costs in {s:?}", t.tenant));
            }
        }
    }
    Ok(())
}

pub fn run(seed: u64, seconds: f64, trace: bool, workers: usize) -> Run {
    let mut run = Run::default();
    while crate::more_setups(&run.setup_s) {
        let empty = roster(seed, workers, false, false);
        let t = Instant::now();
        let r = empty.run(&TraceOutputs::disabled());
        run.setup_s.push(t.elapsed().as_secs_f64());
        if r.report.degraded_tenants() != 0 {
            run.errors.push("set-up degraded a tenant".into());
        }
    }

    let spec = roster(seed, workers, true, false);
    let queued = spec.total_sessions();
    let kinds: Vec<&str> = spec
        .tenants
        .iter()
        .flat_map(|t| t.sessions.iter().map(kind_metric))
        .collect();
    let mut reference: Option<String> = None;
    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let started = Instant::now();
    while run.pass_s.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let r = spec.run(&TraceOutputs::disabled());
        let completed = r.report.completed_sessions();
        run.attempted += queued as u64;
        run.failed += (queued - completed) as u64;
        if r.report.degraded_tenants() != 0 || completed != queued {
            run.errors.push(format!(
                "{} degraded tenants, {completed} of {queued} sessions completed",
                r.report.degraded_tenants()
            ));
        }
        if let Err(e) = check_report(&r.report) {
            run.errors.push(e);
        }
        run.pass_s.push(r.timing.wall_nanos as f64 * 1e-9);
        let mut session_ms = Vec::new();
        for (kind, ns) in kinds.iter().zip(&r.timing.session_nanos) {
            let ms = *ns as f64 * 1e-6;
            session_ms.push(ms);
            by_kind.entry(kind).or_default().push(ms);
        }
        run.session_ms.push(session_ms);
        let fp = format!("{:?}", r.report);
        match &reference {
            None => reference = Some(fp),
            Some(prev) if *prev != fp => run.errors.push("passes disagree on the report".into()),
            Some(_) => {}
        }
    }

    match crate::peak_rss_mb() {
        Ok(mb) => run.peak_rss_mb = mb,
        Err(e) => run.errors.push(e),
    }
    if trace {
        let reference = reference.expect("at least one pass");
        let traced = roster(seed, workers, true, true);
        let Some((mut m, traced_wall)) = traced_run(&traced, &reference, &mut run) else {
            return run;
        };
        for (name, v) in &by_kind {
            m.insert(name, (layers::median(v), "ms"));
        }
        let busy_s = run.session_ms.iter().flatten().sum::<f64>() * 1e-3;
        let wall: f64 = run.pass_s.iter().sum();
        m.insert(
            "serve.worker_util",
            (busy_s / (wall * workers as f64), "ratio"),
        );
        m.insert(
            "trace.overhead",
            (traced_wall / layers::median(&run.pass_s) - 1.0, "ratio"),
        );
        run.layers = Some(m);
    }
    run
}

/// A materialized tenant, as `FleetSpec::run` builds it.
struct Tenant {
    index: usize,
    name: String,
    seed: CellSeed,
    cfg: CellConfig,
    advisor_label: String,
    backend_label: &'static str,
    advisor: Box<dyn ClearBoxAdvisor>,
    backend: Backend,
    workload: Workload,
    sessions: Vec<SessionRequest>,
}

enum Backend {
    Sim(Box<SimBackend>),
    Learned(Box<LearnedIndexBackend>),
}

impl Backend {
    fn as_dyn(&self) -> &dyn CostBackend {
        match self {
            Backend::Sim(b) => b.as_ref(),
            Backend::Learned(b) => b.as_ref(),
        }
    }
}

/// `TenantSpec`'s cell configuration (probing epochs by preset).
fn cell_config(spec: &TenantSpec) -> CellConfig {
    let mut cfg = CellConfig::quick(spec.benchmark);
    cfg.scale = spec.scale;
    cfg.preset = spec.preset;
    cfg.probe_epochs = match spec.preset {
        SpeedPreset::Paper => 20,
        SpeedPreset::Quick => 8,
        SpeedPreset::Test => 2,
    };
    cfg
}

fn materialize(index: usize, spec: &TenantSpec, seed: CellSeed) -> Result<Tenant, String> {
    let cfg = cell_config(spec);
    let workload = spans::span("workload.gen", || normal_workload(&cfg, seed.get()));
    let advisor = spec
        .advisor
        .build_with(BuildCtx::new(spec.preset, seed.get()))
        .map_err(|e| e.to_string())?;
    let backend = spans::span("cost.build", || {
        let sim = SimBackend::new(spec.benchmark.database(spec.scale, None));
        match &spec.backend {
            BackendSpec::Sim => Ok(Backend::Sim(Box::new(sim))),
            BackendSpec::LearnedIndex => Ok(Backend::Learned(Box::new(LearnedIndexBackend::new(
                sim.catalog(),
                LearnedIndexConfig {
                    seed: seed.get(),
                    ..LearnedIndexConfig::fast()
                },
            )))),
            other => Err(format!("backend {} is not in the roster", other.label())),
        }
    })?;
    Ok(Tenant {
        index,
        name: spec.name.clone(),
        seed,
        cfg,
        advisor_label: advisor.name(),
        backend_label: spec.backend.label(),
        advisor,
        backend,
        workload,
        sessions: spec.sessions.clone(),
    })
}

/// The candidate configurations of a what-if session: single-column
/// indexes cycled over the workload's indexable columns, widening to two
/// columns once every column has been covered.
fn whatif_configs(w: &Workload, n: usize) -> Vec<IndexConfig> {
    let cols = w.candidate_columns();
    (0..n)
        .map(|i| {
            if cols.is_empty() {
                return IndexConfig::empty();
            }
            let k = i % cols.len();
            let mut indexes = vec![Index::single(cols[k])];
            let j = (k + 1) % cols.len();
            if i >= cols.len() && j != k {
                indexes.push(Index::single(cols[j]));
            }
            IndexConfig::from_indexes(indexes)
        })
        .collect()
}

fn exec_session(
    request: &SessionRequest,
    cost: &dyn CostBackend,
    advisor: &mut dyn ClearBoxAdvisor,
    workload: &Workload,
    cfg: &CellConfig,
    session_seed: CellSeed,
) -> Result<SessionReport, String> {
    let err = |e: pipa_cost::CostError| e.to_string();
    match request {
        SessionRequest::WhatIf { configs } => {
            let candidates = whatif_configs(workload, *configs);
            let mut total_cost = 0.0;
            let mut best_cost = f64::INFINITY;
            for candidate in &candidates {
                let c = cost.workload_cost(workload, candidate).map_err(err)?;
                total_cost += c;
                if c < best_cost {
                    best_cost = c;
                }
            }
            let evals = (candidates.len() * workload.len()) as u64;
            pipa_obs::emit(
                Event::new("whatif_batch")
                    .field("configs", candidates.len())
                    .field("evals", evals)
                    .field("best_cost", best_cost),
            );
            Ok(SessionReport::WhatIf {
                evals,
                total_cost,
                best_cost,
            })
        }
        SessionRequest::Recommend => {
            cost.observe_training(workload).map_err(err)?;
            advisor.train(cost, workload).map_err(err)?;
            let recommended = advisor.recommend(cost, workload).map_err(err)?;
            let c = cost.workload_cost(workload, &recommended).map_err(err)?;
            let schema = cost.catalog().schema;
            let indexes = recommended
                .indexes()
                .iter()
                .map(|i| i.name(schema))
                .collect();
            Ok(SessionReport::Recommend { indexes, cost: c })
        }
        SessionRequest::Stress {
            injector,
            injection_size,
        } => {
            let mut injector = traced_injector(*injector, cfg, session_seed);
            let outcome = StressTest::new(cost, workload)
                .injection_size(*injection_size)
                .actual_cost(false)
                .seed(session_seed)
                .run(advisor, injector.as_mut())
                .map_err(err)?;
            Ok(SessionReport::Stress(outcome))
        }
        SessionRequest::ChaosPanic { .. } => Err("chaos sessions are not in the roster".into()),
    }
}

fn run_session(rt: &mut Tenant, s: usize) -> Result<(SessionReport, CellTrace, Tree), String> {
    let request = rt.sessions[s].clone();
    let session_seed = CellSeed::derive(rt.seed.get(), s as u64);
    let ctx = CellCtx::new(rt.seed.get())
        .field("tenant", rt.name.clone())
        .field("session", s);
    let id = ((rt.index as u64) << 32) | s as u64;
    let Tenant {
        advisor,
        backend,
        workload,
        cfg,
        ..
    } = rt;
    let ((result, tree), trace) = record_cell(true, ctx, || {
        pipa_obs::phase("session");
        spans::root(id, "session", || {
            let cost = TracedCost(backend.as_dyn());
            exec_session(
                &request,
                &cost,
                advisor.as_mut(),
                workload,
                cfg,
                session_seed,
            )
        })
    });
    result.map(|report| (report, trace, tree))
}

/// What the traced fleet produced.
struct TracedFleet {
    report: FleetReport,
    trees: Vec<Tree>,
    /// The tenants after their sessions, for the simulator counters.
    runtimes: Vec<Tenant>,
    wall_s: f64,
}

/// `FleetSpec::run`'s steps around decorated backends: tenant builds
/// and sessions each become a span tree, and session traces go to `out`
/// in (tenant, session) order.
fn traced_fleet(spec: &FleetSpec, out: &TraceOutputs) -> Result<TracedFleet, String> {
    let started = Instant::now();
    let seeds: Vec<CellSeed> = (0..spec.tenants.len())
        .map(|i| CellSeed::derive(spec.root_seed, i as u64))
        .collect();
    // Tenant builds are roots of their own: `FleetSpec::run`'s wall time
    // includes them.
    let built = par_map(
        spec.workers,
        spec.tenants.iter().zip(&seeds).enumerate().collect(),
        |_, (i, (t, &seed))| {
            spans::root(((i as u64) << 32) | u64::from(u32::MAX), "tenant", || {
                materialize(i, t, seed)
            })
        },
    );
    let mut trees = Vec::new();
    let mut runtimes = Vec::new();
    for (tenant, tree) in built {
        trees.push(tree);
        runtimes.push(tenant?);
    }
    let counts: Vec<usize> = runtimes.iter().map(|rt| rt.sessions.len()).collect();
    let (runtimes, outcomes) = run_tenants(spec.workers, runtimes, &counts, run_session);
    let wall_s = started.elapsed().as_secs_f64();

    let mut tenants = Vec::new();
    for (rt, outcome) in runtimes.iter().zip(outcomes) {
        let mut sessions = Vec::new();
        for (report, trace, tree) in outcome.results {
            out.write_cell(&trace);
            sessions.push(report);
            trees.push(tree);
        }
        tenants.push(TenantReport {
            tenant: rt.name.clone(),
            advisor: rt.advisor_label.clone(),
            backend: rt.backend_label.to_string(),
            seed: rt.seed.get(),
            sessions,
            degraded: outcome
                .degraded
                .map(|(session, error)| Degraded { session, error }),
        });
    }
    out.flush();
    Ok(TracedFleet {
        report: FleetReport {
            root_seed: spec.root_seed,
            tenants,
        },
        trees,
        runtimes,
        wall_s,
    })
}

/// The traced run and its per-layer metrics; `None` when it failed.
fn traced_run(spec: &FleetSpec, reference: &str, run: &mut Run) -> Option<(Metrics, f64)> {
    let sink = MemorySink::new();
    let out = TraceOutputs::with_sinks(Some(Box::new(sink.clone())), None);
    let traced = match traced_fleet(spec, &out) {
        Ok(t) => t,
        Err(e) => {
            run.errors.push(format!("traced fleet: {e}"));
            return None;
        }
    };
    if format!("{:?}", traced.report) != reference {
        run.errors
            .push("traced fleet report differs from FleetSpec::run".into());
    }
    let mut m = layers::span_metrics(&traced.trees);
    let dbs: Vec<_> = traced
        .runtimes
        .iter()
        .filter_map(|rt| match &rt.backend {
            Backend::Sim(b) => Some(b.database()),
            Backend::Learned(_) => None,
        })
        .collect();
    layers::sim_metrics(&dbs, &mut m);
    m.insert("obs.trace_lines", (sink.lines().len() as f64, "count"));
    run.trees = traced.trees;
    Some((m, traced.wall_s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decorated_fleet_report_is_bit_identical_to_fleet_spec_run() {
        crate::decorators::register_traced_targets();
        let tiny = |traced: bool| {
            let mut spec = FleetSpec::new(5).workers(2);
            for (benchmark, backend, kind) in [
                (
                    Benchmark::TpcH,
                    BackendSpec::Sim,
                    AdvisorKind::DbaBandit(TrajectoryMode::Best),
                ),
                (
                    Benchmark::TpcH,
                    BackendSpec::LearnedIndex,
                    AdvisorKind::Swirl,
                ),
            ] {
                let advisor = AdvisorSpec::from(kind);
                let tenant = TenantSpec::new(kind.label(), benchmark)
                    .backend(backend)
                    .advisor(if traced {
                        traced_spec(&advisor)
                    } else {
                        advisor
                    })
                    .repeat_session(SessionRequest::WhatIf { configs: 3 }, 2)
                    .session(SessionRequest::Recommend)
                    .session(SessionRequest::Stress {
                        injector: InjectorKind::Pipa,
                        injection_size: 4,
                    });
                spec = spec.tenant(tenant);
            }
            spec
        };
        let plain = tiny(false).run(&TraceOutputs::disabled());
        assert_eq!(plain.report.degraded_tenants(), 0);
        let traced = traced_fleet(&tiny(true), &TraceOutputs::disabled()).unwrap();
        assert_eq!(
            format!("{:?}", traced.report),
            format!("{:?}", plain.report)
        );
        // Two tenant builds plus eight sessions, each with layer spans.
        assert_eq!(traced.trees.len(), 10);
        let m = layers::span_metrics(&traced.trees);
        assert!(m["cost.calls"].0 > 0.0 && m["ia.recommend_calls"].0 > 0.0);
        assert!(m["cost.observe_training_s"].0 > 0.0);
    }
}
