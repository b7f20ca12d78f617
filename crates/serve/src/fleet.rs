//! Materializing and running a [`FleetSpec`].
//!
//! [`FleetSpec::run`] builds one runtime per tenant (schema statistics,
//! advisor, backend, workload — all derived from the tenant's own seed),
//! drives the queued sessions through the runner's work queue
//! ([`run_tenants_traced`]), and assembles the deterministic
//! [`FleetReport`] next to the wall-clock [`FleetTiming`].
//!
//! Observability: each session records under a context naming the
//! tenant and session index, and the runner flushes the traces in
//! (tenant, session) order — a degraded session's partial trace, panics
//! included, right after its tenant's completed sessions — so the merged
//! fleet trace is byte-identical across worker counts.

use crate::report::{Degraded, FleetReport, FleetRun, FleetTiming, SessionReport, TenantReport};
use crate::spec::{BackendSpec, FleetSpec, SessionRequest, TenantSpec};
use pipa_core::experiment::{make_injector, normal_workload, CellConfig};
use pipa_core::harness::{index_names, StressTest};
use pipa_core::runner::{par_map, run_tenants_traced, CellSeed};
use pipa_cost::{
    CostBackend, CostResult, LearnedIndexBackend, LearnedIndexConfig, RecordingBackend,
    ReplayBackend, SimBackend, Tape,
};
use pipa_ia::{BuildCtx, ClearBoxAdvisor, IndexAdvisor, UnknownTarget};
use pipa_obs::{CellCtx, Event, TraceOutputs};
use pipa_sim::{Index, IndexConfig, Workload};
use std::time::Instant;

/// A materialized tenant: owned state the scheduler migrates between
/// workers. No two runtimes share anything mutable.
struct TenantRuntime {
    name: String,
    seed: CellSeed,
    cfg: CellConfig,
    advisor_label: String,
    backend_label: &'static str,
    advisor: Box<dyn ClearBoxAdvisor>,
    backend: OwnedBackend,
    workload: Workload,
    sessions: Vec<SessionRequest>,
}

/// The tenant's cost backend, owned. Sessions only ever see it as
/// `&dyn CostBackend`.
enum OwnedBackend {
    Sim(SimBackend),
    /// The simulator plus the tape accumulated across this tenant's
    /// recorded sessions (each session stacks a fresh `RecordingBackend`
    /// over the simulator and merges its tape in afterwards).
    Recording(SimBackend, Tape),
    Replay(ReplayBackend),
    /// Learned-index cost models over the tenant's catalog; refit on
    /// every workload the tenant trains on.
    Learned(LearnedIndexBackend),
}

/// Stand-in for an advisor whose spec named an unregistered kind id.
/// Materialization never fails the fleet: the stub carries the
/// [`UnknownTarget`] error and surfaces it from every advisor call, so
/// the tenant degrades at its first session — same path as any other
/// per-tenant failure — while the rest of the fleet runs on.
struct UnresolvedAdvisor(UnknownTarget);

impl UnresolvedAdvisor {
    fn err(&self) -> pipa_cost::CostError {
        self.0.clone().into()
    }
}

impl IndexAdvisor for UnresolvedAdvisor {
    fn name(&self) -> String {
        format!("unresolved:{}", self.0.kind)
    }
    fn train(&mut self, _cost: &dyn CostBackend, _w: &Workload) -> CostResult<()> {
        Err(self.err())
    }
    fn retrain(&mut self, _cost: &dyn CostBackend, _w: &Workload) -> CostResult<()> {
        Err(self.err())
    }
    fn recommend(&mut self, _cost: &dyn CostBackend, _w: &Workload) -> CostResult<IndexConfig> {
        Err(self.err())
    }
    fn budget(&self) -> usize {
        0
    }
    fn is_trial_based(&self) -> bool {
        false
    }
}

impl ClearBoxAdvisor for UnresolvedAdvisor {
    fn column_preferences(&self, _cost: &dyn CostBackend) -> Vec<(pipa_sim::ColumnId, f64)> {
        Vec::new()
    }
}

fn materialize(spec: &TenantSpec, seed: CellSeed) -> TenantRuntime {
    let cfg = spec.cell_config();
    let workload = normal_workload(&cfg, seed.get());
    // Registry resolution happens here, per tenant: a spec naming an
    // unregistered kind materializes the UnresolvedAdvisor stub instead
    // of failing the whole fleet.
    let advisor: Box<dyn ClearBoxAdvisor> = spec
        .advisor
        .build_with(BuildCtx::new(spec.preset, seed.get()))
        .unwrap_or_else(|e| Box::new(UnresolvedAdvisor(e)));
    let backend = match &spec.backend {
        BackendSpec::Sim => OwnedBackend::Sim(SimBackend::new(
            spec.benchmark.database(spec.scale, None),
        )),
        BackendSpec::SimRecording => OwnedBackend::Recording(
            SimBackend::new(spec.benchmark.database(spec.scale, None)),
            Tape::default(),
        ),
        BackendSpec::Replay(tape) => {
            // The tape answers the costs; the catalog (schema plus
            // statistics, cloned into owned storage) comes from a
            // throwaway simulator build so advisors can still extract
            // features.
            let sim = SimBackend::new(spec.benchmark.database(spec.scale, None));
            OwnedBackend::Replay(ReplayBackend::new(sim.catalog(), tape.clone()))
        }
        BackendSpec::LearnedIndex => {
            // Same catalog-cloning trick: a throwaway simulator provides
            // schema and statistics, the learned models own everything.
            let sim = SimBackend::new(spec.benchmark.database(spec.scale, None));
            OwnedBackend::Learned(LearnedIndexBackend::new(
                sim.catalog(),
                LearnedIndexConfig {
                    seed: seed.get(),
                    ..LearnedIndexConfig::fast()
                },
            ))
        }
    };
    TenantRuntime {
        name: spec.name.clone(),
        seed,
        cfg,
        advisor_label: advisor.name(),
        backend_label: spec.backend.label(),
        advisor,
        backend,
        workload,
        sessions: spec.sessions.clone(),
    }
}

/// The candidate configurations a `WhatIf` session costs: single-column
/// indexes cycled over the workload's indexable columns, widening to
/// two-column configurations once every column has been covered. A pure
/// function of `(workload, configs)`, so the record and replay phases of
/// a fleet ask for exactly the same `(query, config)` pairs.
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

/// Run one session against the tenant's backend-as-a-seam. Every failure
/// comes back as a rendered `CostError` string; panics are the
/// runner's department.
fn exec_session(
    request: &SessionRequest,
    cost: &dyn CostBackend,
    advisor: &mut dyn ClearBoxAdvisor,
    workload: &Workload,
    cfg: &CellConfig,
    session_seed: CellSeed,
) -> Result<SessionReport, String> {
    match request {
        SessionRequest::WhatIf { configs } => {
            let candidates = whatif_configs(workload, *configs);
            let mut total_cost = 0.0;
            let mut best_cost = f64::INFINITY;
            for candidate in &candidates {
                let c = cost
                    .workload_cost(workload, candidate)
                    .map_err(|e| e.to_string())?;
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
            // Learned cost backends refit on what the tenant trains on
            // (no-op for the stateless backends), mirroring the stress
            // harness's train stage.
            cost.observe_training(workload).map_err(|e| e.to_string())?;
            advisor.train(cost, workload).map_err(|e| e.to_string())?;
            let recommended = advisor
                .recommend(cost, workload)
                .map_err(|e| e.to_string())?;
            let c = cost
                .workload_cost(workload, &recommended)
                .map_err(|e| e.to_string())?;
            let indexes = index_names(cost, &recommended);
            Ok(SessionReport::Recommend { indexes, cost: c })
        }
        SessionRequest::Stress {
            injector,
            injection_size,
        } => {
            let mut injector = make_injector(*injector, cfg, session_seed);
            let outcome = StressTest::new(cost, workload)
                .injection_size(*injection_size)
                .actual_cost(false)
                .seed(session_seed)
                .run(advisor, injector.as_mut())
                .map_err(|e| e.to_string())?;
            Ok(SessionReport::Stress(outcome))
        }
        SessionRequest::ChaosPanic { message } => {
            pipa_obs::emit(Event::new("chaos_panic").field("message", message.clone()));
            panic!("{}", message);
        }
    }
}

/// Session `s` of a tenant. Recording-backend tenants stack a fresh
/// [`RecordingBackend`] per session and merge the captured tape into the
/// tenant's.
fn run_session(rt: &mut TenantRuntime, s: usize) -> Result<SessionReport, String> {
    pipa_obs::phase("session");
    let session_seed = CellSeed::derive(rt.seed.get(), s as u64);
    let (request, advisor, workload, cfg) =
        (&rt.sessions[s], &mut rt.advisor, &rt.workload, &rt.cfg);
    let mut exec = |cost: &dyn CostBackend| {
        exec_session(request, cost, advisor.as_mut(), workload, cfg, session_seed)
    };
    match &mut rt.backend {
        OwnedBackend::Sim(sim) => exec(&*sim),
        OwnedBackend::Recording(sim, tape) => {
            let recorder = RecordingBackend::new(&*sim);
            let r = exec(&recorder);
            tape.merge(recorder.tape());
            r
        }
        OwnedBackend::Replay(replay) => exec(&*replay),
        OwnedBackend::Learned(learned) => exec(&*learned),
    }
}

impl FleetSpec {
    /// Materialize and run the fleet.
    ///
    /// Tenants are built in parallel (each from its own derived seed) and
    /// their sessions run on the runner's work queue under the spec's
    /// worker bound, which flushes the session traces to `out` in
    /// (tenant, session) order. [`FleetRun::report`] is a pure function
    /// of the spec: runs at any worker counts agree on it bit for bit.
    pub fn run(&self, out: &TraceOutputs) -> FleetRun {
        let started = Instant::now();
        let seeds: Vec<CellSeed> = (0..self.tenants.len())
            .map(|i| CellSeed::derive(self.root_seed, i as u64))
            .collect();
        let runtimes = par_map(
            self.workers,
            self.tenants.iter().zip(&seeds).collect(),
            |_, (spec, &seed)| materialize(spec, seed),
        );
        let session_counts: Vec<usize> = runtimes.iter().map(|rt| rt.sessions.len()).collect();
        let (runtimes, outcomes) = run_tenants_traced(
            self.workers,
            runtimes,
            &session_counts,
            out,
            |rt: &TenantRuntime, s| {
                CellCtx::new(rt.seed.get())
                    .field("tenant", rt.name.clone())
                    .field("session", s)
            },
            run_session,
        );

        let mut tenants = Vec::with_capacity(runtimes.len());
        let mut tapes = Vec::with_capacity(runtimes.len());
        let mut session_nanos = Vec::new();
        for (rt, outcome) in runtimes.into_iter().zip(outcomes) {
            session_nanos.extend(outcome.session_nanos);
            tenants.push(TenantReport {
                tenant: rt.name,
                advisor: rt.advisor_label,
                backend: rt.backend_label.to_string(),
                seed: rt.seed.get(),
                sessions: outcome.results,
                degraded: outcome
                    .degraded
                    .map(|(session, error)| Degraded { session, error }),
            });
            tapes.push(match rt.backend {
                OwnedBackend::Recording(_, tape) => Some(tape),
                _ => None,
            });
        }
        out.flush();
        FleetRun {
            report: FleetReport {
                root_seed: self.root_seed,
                tenants,
            },
            timing: FleetTiming {
                wall_nanos: started.elapsed().as_nanos() as u64,
                session_nanos,
            },
            tapes,
        }
    }
}
