//! Every static driver tells the cost backend what the victim trains on.
//!
//! Learned cost backends (`LearnedIndexBackend`) refit their structures
//! in `CostBackend::observe_training`, so a static cell that skipped the
//! hook would measure a poisoned advisor against an index model that
//! never saw the poisoned training set. A forwarding backend records
//! every call: each static driver must make exactly two, on the training
//! workload and then on the retraining workload.

use pipa::core::defense::DefensePolicy;
use pipa::core::experiment::{build_db, make_injector, normal_workload, CellConfig, InjectorKind};
use pipa::core::harness::StressTest;
use pipa::core::{poisoning_economics, CellSeed};
use pipa::cost::{Catalog, CostBackend, CostResult, CostSession};
use pipa::ia::{AdvisorKind, BuildCtx, SpeedPreset, TrajectoryMode};
use pipa::sim::{Index, IndexConfig, Query, Workload};
use pipa::workload::Benchmark;
use std::sync::Mutex;

/// Forwards the required methods to the wrapped backend (the provided
/// ones compose them) and records the workloads handed to
/// `observe_training`, in call order.
struct Observed<'a> {
    inner: &'a dyn CostBackend,
    seen: Mutex<Vec<Workload>>,
}

impl Observed<'_> {
    fn take(&self) -> Vec<Workload> {
        std::mem::take(&mut *self.seen.lock().unwrap())
    }
}

impl CostBackend for Observed<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn catalog(&self) -> Catalog<'_> {
        self.inner.catalog()
    }
    fn query_cost(&self, q: &Query, cfg: &IndexConfig) -> CostResult<f64> {
        self.inner.query_cost(q, cfg)
    }
    fn workload_cost(&self, w: &Workload, cfg: &IndexConfig) -> CostResult<f64> {
        self.inner.workload_cost(w, cfg)
    }
    fn session_begin(&self, w: &Workload) -> CostResult<CostSession> {
        self.inner.session_begin(w)
    }
    fn session_total(&self, w: &Workload, session: &CostSession) -> CostResult<f64> {
        self.inner.session_total(w, session)
    }
    fn session_preview_add(
        &self,
        w: &Workload,
        session: &CostSession,
        cfg_after: &IndexConfig,
        idx: &Index,
    ) -> CostResult<f64> {
        self.inner.session_preview_add(w, session, cfg_after, idx)
    }
    fn session_add(
        &self,
        w: &Workload,
        session: &mut CostSession,
        cfg_after: &IndexConfig,
        idx: &Index,
    ) -> CostResult<f64> {
        self.inner.session_add(w, session, cfg_after, idx)
    }
    fn hypo_create(&self, idx: &Index) -> CostResult<()> {
        self.inner.hypo_create(idx)
    }
    fn hypo_drop(&self, idx: &Index) -> CostResult<()> {
        self.inner.hypo_drop(idx)
    }
    fn hypo_clear(&self) -> CostResult<()> {
        self.inner.hypo_clear()
    }
    fn hypo_config(&self) -> CostResult<IndexConfig> {
        self.inner.hypo_config()
    }
    fn observe_training(&self, w: &Workload) -> CostResult<()> {
        self.seen.lock().unwrap().push(w.clone());
        self.inner.observe_training(w)
    }
}

fn cfg() -> CellConfig {
    let mut cfg = CellConfig::quick(Benchmark::TpcH);
    cfg.preset = SpeedPreset::Test;
    cfg.probe_epochs = 2;
    cfg.injection_size = 6;
    cfg
}

/// Two observations: the training workload itself, then a retraining
/// workload of `retrain_len` entries that starts with it (normal queries
/// come first in `normal ∪ injection` and survive their own provenance
/// profile).
fn assert_train_then_retrain(seen: &[Workload], normal: &Workload, retrain_len: usize, case: &str) {
    assert_eq!(seen.len(), 2, "{case}: observe_training calls");
    assert_eq!(
        &seen[0], normal,
        "{case}: first call observes the training workload"
    );
    assert_eq!(
        seen[1].len(),
        retrain_len,
        "{case}: retraining workload size"
    );
    assert!(
        seen[1].iter().take(normal.len()).eq(normal.iter()),
        "{case}: the retraining workload starts with the normal workload"
    );
}

#[test]
fn stress_test_observes_training_then_retraining_under_every_policy() {
    let cfg = cfg();
    let sim = build_db(&cfg);
    let cost = Observed {
        inner: &sim,
        seen: Mutex::default(),
    };
    let seed = CellSeed::raw(31);
    let normal = normal_workload(&cfg, seed.get());
    for defense in [
        DefensePolicy::None,
        DefensePolicy::Canary { tolerance: 0.02 },
        DefensePolicy::Provenance {
            max_novel_fraction: 0.5,
            history: 1,
        },
    ] {
        let mut advisor = AdvisorKind::DbaBandit(TrajectoryMode::Best)
            .build_with(BuildCtx::new(cfg.preset, seed.get()));
        let mut injector = make_injector(InjectorKind::Pipa, &cfg, seed);
        let attack = StressTest::new(&cost, &normal)
            .injection_size(cfg.injection_size)
            .seed(seed)
            .defense(defense)
            .attack(advisor.as_mut(), injector.as_mut())
            .expect("stress test runs");
        assert!(attack.outcome.injection_size > 0);
        let retrain_len = normal.len() + attack.outcome.injection_size - attack.screened_out;
        assert_train_then_retrain(&cost.take(), &normal, retrain_len, defense.label());
    }
}

#[test]
fn poisoning_economics_observes_training_then_retraining() {
    let cfg = cfg();
    let sim = build_db(&cfg);
    let cost = Observed {
        inner: &sim,
        seen: Mutex::default(),
    };
    let seed = CellSeed::raw(7);
    poisoning_economics(
        &cost,
        &cfg,
        AdvisorKind::DbaBandit(TrajectoryMode::Best),
        InjectorKind::Tp,
        1.1,
        seed,
    )
    .expect("economics runs");
    let normal = normal_workload(&cfg, seed.get());
    // TP instantiates the benchmark templates: it always fills the budget.
    let retrain_len = normal.len() + cfg.injection_size;
    assert_train_then_retrain(&cost.take(), &normal, retrain_len, "economics");
}
