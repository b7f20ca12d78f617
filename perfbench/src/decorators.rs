//! Forwarding decorators that time every call into four layers' public
//! traits: the cost seam (`pipa_cost::CostBackend`), the advisor
//! (`pipa_ia::ClearBoxAdvisor`), the injector
//! (`pipa_core::injectors::Injector`) and the query generator
//! (`pipa_qgen::QueryGenerator`). Each call becomes a span named
//! `<layer>.<method>`; results pass through untouched, which the
//! bit-identity checks in `stress.rs` and `fleet.rs` confirm.

use crate::spans::{count, span};
use pipa_core::experiment::{CellConfig, InjectorKind};
use pipa_core::injectors::{Injector, TargetedInjector, TpInjector};
use pipa_core::probe::ProbeConfig;
use pipa_core::runner::CellSeed;
use pipa_cost::{Catalog, ConfigDelta, CostBackend, CostResult, CostSession};
use pipa_ia::{AdvisorSpec, ClearBoxAdvisor, IndexAdvisor};
use pipa_qgen::QueryGenerator;
use pipa_sim::{ColumnId, Index, IndexConfig, Query, Workload};

/// Times every costing method of the wrapped backend. The accessors
/// `name`, `catalog` and `supports_execution` are forwarded untimed:
/// they do no costing work and are called per feature lookup.
pub struct TracedCost<'a>(pub &'a dyn CostBackend);

impl CostBackend for TracedCost<'_> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn catalog(&self) -> Catalog<'_> {
        self.0.catalog()
    }
    fn query_cost(&self, q: &Query, cfg: &IndexConfig) -> CostResult<f64> {
        span("cost.query", || self.0.query_cost(q, cfg))
    }
    fn workload_cost(&self, w: &Workload, cfg: &IndexConfig) -> CostResult<f64> {
        span("cost.workload", || self.0.workload_cost(w, cfg))
    }
    fn batch_workload_cost(&self, w: &Workload, configs: &[IndexConfig]) -> CostResult<Vec<f64>> {
        span("cost.batch_workload", || {
            self.0.batch_workload_cost(w, configs)
        })
    }
    fn delta_workload_cost(
        &self,
        w: &Workload,
        base: &IndexConfig,
        delta: &ConfigDelta,
    ) -> CostResult<f64> {
        span("cost.delta_workload", || {
            self.0.delta_workload_cost(w, base, delta)
        })
    }
    fn session_begin(&self, w: &Workload) -> CostResult<CostSession> {
        span("cost.session_begin", || self.0.session_begin(w))
    }
    fn session_total(&self, w: &Workload, session: &CostSession) -> CostResult<f64> {
        span("cost.session_total", || self.0.session_total(w, session))
    }
    fn session_preview_add(
        &self,
        w: &Workload,
        session: &CostSession,
        cfg_after: &IndexConfig,
        idx: &Index,
    ) -> CostResult<f64> {
        span("cost.session_preview_add", || {
            self.0.session_preview_add(w, session, cfg_after, idx)
        })
    }
    fn session_add(
        &self,
        w: &Workload,
        session: &mut CostSession,
        cfg_after: &IndexConfig,
        idx: &Index,
    ) -> CostResult<f64> {
        span("cost.session_add", || {
            self.0.session_add(w, session, cfg_after, idx)
        })
    }
    fn supports_execution(&self) -> bool {
        self.0.supports_execution()
    }
    fn executed_query_cost(&self, q: &Query, cfg: &IndexConfig) -> CostResult<f64> {
        span("cost.executed_query", || self.0.executed_query_cost(q, cfg))
    }
    fn executed_workload_cost(&self, w: &Workload, cfg: &IndexConfig) -> CostResult<f64> {
        span("cost.executed_workload", || {
            self.0.executed_workload_cost(w, cfg)
        })
    }
    fn render_sql(&self, q: &Query) -> CostResult<String> {
        span("cost.render_sql", || self.0.render_sql(q))
    }
    fn explain(&self, q: &Query, cfg: &IndexConfig) -> CostResult<String> {
        span("cost.explain", || self.0.explain(q, cfg))
    }
    fn hypo_create(&self, idx: &Index) -> CostResult<()> {
        span("cost.hypo_create", || self.0.hypo_create(idx))
    }
    fn hypo_drop(&self, idx: &Index) -> CostResult<()> {
        span("cost.hypo_drop", || self.0.hypo_drop(idx))
    }
    fn hypo_clear(&self) -> CostResult<()> {
        span("cost.hypo_clear", || self.0.hypo_clear())
    }
    fn hypo_config(&self) -> CostResult<IndexConfig> {
        span("cost.hypo_config", || self.0.hypo_config())
    }
    fn hypo_query_cost(&self, q: &Query) -> CostResult<f64> {
        span("cost.hypo_query", || self.0.hypo_query_cost(q))
    }
    fn hypo_workload_cost(&self, w: &Workload) -> CostResult<f64> {
        span("cost.hypo_workload", || self.0.hypo_workload_cost(w))
    }
    fn observe_training(&self, w: &Workload) -> CostResult<()> {
        span("cost.observe_training", || self.0.observe_training(w))
    }
}

/// Times the advisor's training, retraining, recommendation and
/// clear-box preference calls.
pub struct TracedAdvisor(Box<dyn ClearBoxAdvisor>);

impl IndexAdvisor for TracedAdvisor {
    fn name(&self) -> String {
        self.0.name()
    }
    fn train(&mut self, cost: &dyn CostBackend, workload: &Workload) -> CostResult<()> {
        span("ia.train", || self.0.train(cost, workload))
    }
    fn retrain(&mut self, cost: &dyn CostBackend, workload: &Workload) -> CostResult<()> {
        span("ia.retrain", || self.0.retrain(cost, workload))
    }
    fn recommend(
        &mut self,
        cost: &dyn CostBackend,
        workload: &Workload,
    ) -> CostResult<IndexConfig> {
        span("ia.recommend", || self.0.recommend(cost, workload))
    }
    fn budget(&self) -> usize {
        self.0.budget()
    }
    fn is_trial_based(&self) -> bool {
        self.0.is_trial_based()
    }
    fn reward_trace(&self) -> &[f64] {
        self.0.reward_trace()
    }
}

impl ClearBoxAdvisor for TracedAdvisor {
    fn column_preferences(&self, cost: &dyn CostBackend) -> Vec<(ColumnId, f64)> {
        span("ia.column_preferences", || self.0.column_preferences(cost))
    }
}

/// Registry id of the traced twin of the built-in kind `kind`.
pub fn traced_kind(kind: &str) -> String {
    format!("perfbench-traced-{kind}")
}

/// The traced twin of `spec`: same coordinates, traced kind id.
pub fn traced_spec(spec: &AdvisorSpec) -> AdvisorSpec {
    AdvisorSpec {
        kind: traced_kind(&spec.kind),
        ..spec.clone()
    }
}

/// Register a traced twin of each built-in kind through the public
/// `register_target` seam, so grids and fleet tenants that name the
/// twin build the built-in advisor wrapped in [`TracedAdvisor`]. The
/// twin keeps the built-in's label, so reports name the same advisor.
pub fn register_traced_targets() {
    for kind in ["dqn", "drlindex", "dbabandit", "swirl"] {
        let inner = move |spec: &AdvisorSpec| AdvisorSpec {
            kind: kind.to_string(),
            ..spec.clone()
        };
        pipa_ia::register_target(
            traced_kind(kind),
            move |spec| inner(spec).label(),
            move |spec| {
                let advisor = span("ia.build", || inner(spec).build())
                    .expect("built-in kinds are registered");
                Box::new(TracedAdvisor(advisor)) as Box<dyn ClearBoxAdvisor>
            },
        );
    }
}

/// Times `Injector::build` and counts requested and achieved sizes.
pub struct TracedInjector(Box<dyn Injector>);

impl Injector for TracedInjector {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn build(
        &mut self,
        advisor: &mut dyn ClearBoxAdvisor,
        cost: &dyn CostBackend,
        n: usize,
        seed: u64,
    ) -> CostResult<Workload> {
        let w = span("core.inject", || self.0.build(advisor, cost, n, seed))?;
        count("core.inject.requested", n as u64);
        count("core.inject.achieved", w.len() as u64);
        Ok(w)
    }
}

/// Times `QueryGenerator::generate` and counts accepted queries.
pub struct TracedGenerator(Box<dyn QueryGenerator>);

impl QueryGenerator for TracedGenerator {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn generate(
        &mut self,
        cost: &dyn CostBackend,
        targets: &[ColumnId],
        reward: f64,
    ) -> CostResult<Option<Query>> {
        let q = span("qgen.generate", || self.0.generate(cost, targets, reward))?;
        count("qgen.generate.calls", 1);
        count("qgen.generate.accepted", q.is_some() as u64);
        Ok(q)
    }
}

/// The injector `pipa_core::experiment::make_injector` builds for
/// `kind`, with the generator wrapped in [`TracedGenerator`] and the
/// injector in [`TracedInjector`]. Only the kinds the workloads use are
/// built; the bit-identity checks prove the mirror.
pub fn traced_injector(kind: InjectorKind, cfg: &CellConfig, seed: CellSeed) -> Box<dyn Injector> {
    let seed = seed.get();
    let inner: Box<dyn Injector> = match kind {
        InjectorKind::Tp => Box::new(TpInjector::new(cfg.benchmark.default_templates())),
        InjectorKind::Pipa => {
            let generator = TracedGenerator(span("qgen.build", || cfg.backend.generator(seed)));
            let mut inj = TargetedInjector::pipa(Box::new(generator));
            inj.probe_cfg = ProbeConfig {
                epochs: cfg.probe_epochs,
                queries_per_epoch: cfg.benchmark.default_workload_size(),
                seed,
                ..Default::default()
            };
            Box::new(inj)
        }
        other => unimplemented!("no workload uses the {} injector", other.label()),
    };
    Box::new(TracedInjector(inner))
}
