//! The stress-test harness: train → baseline → inject → retrain →
//! measure (paper Figure 1's red/green flows, Definitions 2.2–2.5).
//!
//! The entry point is the [`StressTest`] builder. Each stage reports
//! through `pipa-obs` (phase markers, what-if/page counters from the
//! layers below, a final `stress_outcome` event), so a surprising AD
//! value can be diagnosed from the `--trace` stream instead of a
//! debugger.
//!
//! # Two drivers, one retrain
//!
//! The repository drives the train → inject → retrain sequence in
//! exactly two places: [`StressTest`] here, for the paper's static
//! cells, and [`crate::stream::run_stream`], for the same sequence over
//! drifting windows. Every static cell (the experiment grid, the
//! defense ablation, Fig. 8's reward traces, the traffic economics)
//! runs through [`StressTest::attack`], and both drivers retrain
//! through [`crate::defense::retrain`], so a [`DefensePolicy`] means the
//! same thing in either.
//!
//! `StressTest` is deliberately not a front end over `run_stream`. Even
//! with one window, a stream also builds, trains, recommends and
//! retrains a clean twin and measures two extra workloads, which would
//! roughly double the advisor work of every static cell (advisor work is
//! most of a cell's time). Instead `tests/stream_differential.rs` pins a
//! one-window, [`DriftSchedule::Static`](pipa_workload::DriftSchedule),
//! end-only stream bit-identical to `StressTest` under each defense
//! policy.

use crate::defense::{self, DefensePolicy, ProvenanceFilter};
use crate::injectors::Injector;
use crate::metrics::{absolute_degradation, is_toxic};
use crate::runner::CellSeed;
use pipa_cost::{measured_workload_cost, CostBackend, CostResult};
use pipa_ia::ClearBoxAdvisor;
use pipa_obs::Event;
use pipa_sim::{IndexConfig, Workload};
use serde::Serialize;

/// One stress-test outcome.
///
/// `PartialEq` is bit-exact on the cost fields: outcomes are pure
/// functions of `(catalog, workload, seed)`, so fleet determinism tests
/// compare whole reports structurally.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StressOutcome {
    /// Advisor display name.
    pub advisor: String,
    /// Injector display name.
    pub injector: String,
    /// `c_b`: target-workload cost under the clean advisor's indexes.
    pub baseline_cost: f64,
    /// Target-workload cost under the poisoned advisor's indexes.
    pub poisoned_cost: f64,
    /// Absolute performance Degradation.
    pub ad: f64,
    /// Whether the injection met Definition 2.4.
    pub toxic: bool,
    /// Index names recommended before poisoning.
    pub baseline_indexes: Vec<String>,
    /// Index names recommended after poisoning.
    pub poisoned_indexes: Vec<String>,
    /// Actual injection-workload size achieved.
    pub injection_size: usize,
    /// Run seed.
    pub seed: u64,
}

/// Everything one stress test produced: the outcome, the two
/// configurations it compared, and what the defense did.
#[derive(Debug, Clone, PartialEq)]
pub struct Attack {
    /// The report.
    pub outcome: StressOutcome,
    /// The clean advisor's recommendation (the baseline).
    pub clean_config: IndexConfig,
    /// The configuration deployed after the poisoned retrain (the
    /// pre-update one again when a canary rolled the update back).
    pub poisoned_config: IndexConfig,
    /// Whether a [`DefensePolicy::Canary`] rolled the update back.
    pub rolled_back: bool,
    /// Training queries a [`DefensePolicy::Provenance`] screen dropped.
    pub screened_out: usize,
}

/// One full stress test, configured fluently:
///
/// ```no_run
/// use pipa_core::{harness::StressTest, injectors::TpInjector, runner::CellSeed};
/// use pipa_ia::{AdvisorKind, BuildCtx, SpeedPreset, TrajectoryMode};
/// use pipa_workload::Benchmark;
///
/// let cost = pipa_cost::SimBackend::new(Benchmark::TpcH.database(1.0, None));
/// let normal = pipa_core::experiment::normal_workload(
///     &pipa_core::experiment::CellConfig::quick(Benchmark::TpcH),
///     7,
/// );
/// let seed = CellSeed::derive(0, 0);
/// let mut advisor =
///     AdvisorKind::DbaBandit(TrajectoryMode::Best).build_with(BuildCtx::new(SpeedPreset::Quick, seed.get()));
/// let mut injector = TpInjector::new(Benchmark::TpcH.default_templates());
/// let outcome = StressTest::new(&cost, &normal)
///     .injection_size(18)
///     .actual_cost(false)
///     .seed(seed)
///     .run(advisor.as_mut(), &mut injector)
///     .expect("cost backend");
/// println!("AD = {:.3}", outcome.ad);
/// ```
///
/// The advisor is (re)trained from scratch on the normal workload first,
/// so the same advisor instance can be reused across runs.
///
/// Defaults mirror the paper's main experiment: injection size 18,
/// actual-cost measurement, seed 0, no defense.
pub struct StressTest<'a> {
    cost: &'a dyn CostBackend,
    normal: &'a Workload,
    injection_size: usize,
    use_actual_cost: bool,
    seed: CellSeed,
    defense: DefensePolicy,
}

impl<'a> StressTest<'a> {
    /// A stress test over a cost backend and target (normal) workload.
    pub fn new(cost: &'a dyn CostBackend, normal: &'a Workload) -> Self {
        StressTest {
            cost,
            normal,
            injection_size: 18,
            use_actual_cost: true,
            seed: CellSeed::raw(0),
            defense: DefensePolicy::None,
        }
    }

    /// Injection-workload size `N̂` (default 18).
    pub fn injection_size(mut self, n: usize) -> Self {
        self.injection_size = n;
        self
    }

    /// Measure final costs with the executor (`true`, default; falls
    /// back to estimates when no data is materialized) or with the
    /// analytical model (`false`).
    pub fn actual_cost(mut self, on: bool) -> Self {
        self.use_actual_cost = on;
        self
    }

    /// The cell seed (propagated to the injector and the outcome).
    pub fn seed(mut self, seed: CellSeed) -> Self {
        self.seed = seed;
        self
    }

    /// The deployment-side defense around the retrain (default
    /// [`DefensePolicy::None`], the paper's setting). The run behaves as
    /// a one-window stream: `Provenance` screens `normal ∪ injection`
    /// against `normal`, and `Canary` guards the retrain with `normal`
    /// as the canary.
    pub fn defense(mut self, policy: DefensePolicy) -> Self {
        self.defense = policy;
        self
    }

    /// Execute: train on `W`, measure the baseline, build `Ŵ` (the
    /// injector may probe the trained victim), retrain on `{W, Ŵ}`,
    /// re-measure on `W`. The report of [`attack`](Self::attack).
    pub fn run(
        &self,
        advisor: &mut dyn ClearBoxAdvisor,
        injector: &mut dyn Injector,
    ) -> CostResult<StressOutcome> {
        self.attack(advisor, injector).map(|a| a.outcome)
    }

    /// [`run`](Self::run), keeping the clean and poisoned configurations
    /// and what the defense did. The advisor stays in its post-attack
    /// state for callers that inspect it further. Each stage reports to
    /// the `pipa-obs` recording scope the caller opened (a traced grid
    /// opens one per cell), if any.
    pub fn attack(
        &self,
        advisor: &mut dyn ClearBoxAdvisor,
        injector: &mut dyn Injector,
    ) -> CostResult<Attack> {
        // Green flow: train on W, establish the performance baseline.
        // The backend observes the training workload first: learned cost
        // backends (pipa-cost's LearnedIndexBackend) refit their
        // structures on what the system trains on, so they see exactly
        // what the advisor sees.
        pipa_obs::phase("train");
        self.cost.observe_training(self.normal)?;
        advisor.train(self.cost, self.normal)?;

        pipa_obs::phase("baseline");
        let clean_config = advisor.recommend(self.cost, self.normal)?;
        let baseline_cost = self.workload_cost(&clean_config)?;

        // Red flow: build Ŵ. The probing/injecting stages re-declare
        // their own phases ("probe", "inject") as they run; injectors
        // that neither probe nor filter (TP, FSM) stay in this one.
        pipa_obs::phase("inject");
        let injection = injector.build(advisor, self.cost, self.injection_size, self.seed.get())?;

        pipa_obs::phase("retrain");
        let mut training = self.normal.union(&injection);
        let mut screened_out = 0;
        if let DefensePolicy::Provenance {
            max_novel_fraction, ..
        } = self.defense
        {
            let num_columns = self.cost.catalog().schema.num_columns();
            (training, screened_out) =
                ProvenanceFilter { max_novel_fraction }.screen(self.normal, &training, num_columns);
        }
        let (poisoned_config, rolled_back) = defense::retrain(
            self.defense,
            advisor,
            self.cost,
            &training,
            self.normal,
            self.normal,
        )?;

        pipa_obs::phase("measure");
        let poisoned_cost = self.workload_cost(&poisoned_config)?;

        let outcome = StressOutcome {
            advisor: advisor.name(),
            injector: injector.name().to_string(),
            baseline_cost,
            poisoned_cost,
            ad: absolute_degradation(poisoned_cost, baseline_cost),
            toxic: is_toxic(poisoned_cost, baseline_cost),
            baseline_indexes: index_names(self.cost, &clean_config),
            poisoned_indexes: index_names(self.cost, &poisoned_config),
            injection_size: injection.len(),
            seed: self.seed.get(),
        };
        if pipa_obs::is_recording() {
            pipa_obs::emit(
                Event::new("stress_outcome")
                    .field("baseline_cost", outcome.baseline_cost)
                    .field("poisoned_cost", outcome.poisoned_cost)
                    .field("ad", outcome.ad)
                    .field("toxic", outcome.toxic)
                    .field("injection_size", outcome.injection_size),
            );
        }
        Ok(Attack {
            outcome,
            clean_config,
            poisoned_config,
            rolled_back,
            screened_out,
        })
    }

    fn workload_cost(&self, cfg: &IndexConfig) -> CostResult<f64> {
        measured_workload_cost(self.cost, self.normal, cfg, self.use_actual_cost)
    }
}

/// Display names of a configuration's indexes, in configuration order.
pub fn index_names(cost: &dyn CostBackend, cfg: &IndexConfig) -> Vec<String> {
    let schema = cost.catalog().schema;
    cfg.indexes().iter().map(|i| i.name(schema)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::injectors::{TargetedInjector, TpInjector};
    use crate::probe::ProbeConfig;
    use pipa_ia::{AdvisorKind, BuildCtx, SpeedPreset, TrajectoryMode};
    use pipa_qgen::StGenerator;
    use pipa_workload::Benchmark;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup() -> (pipa_cost::SimBackend, Workload) {
        let cost = pipa_cost::SimBackend::new(Benchmark::TpcH.database(1.0, None));
        let g = pipa_workload::generator::WorkloadGenerator::new(
            Benchmark::TpcH.schema(),
            Benchmark::TpcH.default_templates(),
        );
        let w = g.normal(&mut ChaCha8Rng::seed_from_u64(1)).unwrap();
        (cost, w)
    }

    #[test]
    fn stress_test_produces_consistent_outcome() {
        let (cost, w) = setup();
        let mut ia = AdvisorKind::DbaBandit(TrajectoryMode::Best).build_with(BuildCtx::new(SpeedPreset::Test, 1));
        let mut inj = TpInjector::new(Benchmark::TpcH.default_templates());
        let out = StressTest::new(&cost, &w)
            .injection_size(6)
            .actual_cost(false)
            .seed(CellSeed::raw(1))
            .run(ia.as_mut(), &mut inj)
            .unwrap();
        assert!(out.baseline_cost > 0.0);
        assert!(out.poisoned_cost > 0.0);
        let expect_ad = (out.poisoned_cost - out.baseline_cost) / out.baseline_cost;
        assert!((out.ad - expect_ad).abs() < 1e-12);
        assert_eq!(out.toxic, out.ad > 0.0);
        assert_eq!(out.advisor, "DBAbandit-b");
        assert_eq!(out.injector, "TP");
        assert_eq!(out.seed, 1);
        assert!(!out.baseline_indexes.is_empty());
    }

    #[test]
    fn pipa_attack_on_bandit_is_toxic() {
        // The core claim in miniature: a PIPA injection degrades a
        // learned advisor.
        let (cost, w) = setup();
        let mut ia = AdvisorKind::DbaBandit(TrajectoryMode::Best).build_with(BuildCtx::new(SpeedPreset::Test, 2));
        let mut inj = TargetedInjector::pipa(Box::new(StGenerator::new(2)));
        inj.probe_cfg = ProbeConfig {
            epochs: 4,
            queries_per_epoch: 6,
            ..Default::default()
        };
        let out = StressTest::new(&cost, &w)
            .injection_size(18)
            .actual_cost(false)
            .seed(CellSeed::raw(2))
            .run(ia.as_mut(), &mut inj)
            .unwrap();
        assert!(
            out.ad > -0.05,
            "PIPA should not substantially help the victim: AD {}",
            out.ad
        );
    }

    #[test]
    fn reusing_the_advisor_across_runs_is_safe() {
        let (cost, w) = setup();
        let mut ia = AdvisorKind::DbaBandit(TrajectoryMode::Best).build_with(BuildCtx::new(SpeedPreset::Test, 3));
        let mut inj = TpInjector::new(Benchmark::TpcH.default_templates());
        let test = StressTest::new(&cost, &w)
            .injection_size(4)
            .actual_cost(false)
            .seed(CellSeed::raw(3));
        let a = test.run(ia.as_mut(), &mut inj).unwrap();
        let b = test.run(ia.as_mut(), &mut inj).unwrap();
        // Baselines agree because `train` resets the advisor.
        assert!((a.baseline_cost - b.baseline_cost).abs() < 1e-6);
    }

    #[test]
    fn builder_sink_captures_a_standalone_run() {
        // A standalone run is traced by opening a recording scope around
        // it and writing the captured cell to the outputs.
        let (cost, w) = setup();
        let trace = pipa_obs::MemorySink::new();
        let out = pipa_obs::TraceOutputs::with_sinks(Some(Box::new(trace.clone())), None);
        let mut ia = AdvisorKind::DbaBandit(TrajectoryMode::Best).build_with(BuildCtx::new(SpeedPreset::Test, 4));
        let mut inj = TpInjector::new(Benchmark::TpcH.default_templates());
        let ctx = pipa_obs::CellCtx::new(4)
            .field("advisor", ia.name())
            .field("injector", inj.name());
        let (outcome, cell) = pipa_obs::record_cell(true, ctx, || {
            StressTest::new(&cost, &w)
                .injection_size(4)
                .actual_cost(false)
                .seed(CellSeed::raw(4))
                .run(ia.as_mut(), &mut inj)
        });
        out.write_cell(&cell);
        out.flush();
        let outcome = outcome.unwrap();
        let lines = trace.lines();
        assert!(!lines.is_empty());
        for line in &lines {
            let keys = pipa_obs::json::top_level_keys(line).expect("valid JSON");
            assert!(keys.contains(&"event".to_string()), "{line}");
            assert!(keys.contains(&"cell_seed".to_string()), "{line}");
            assert!(keys.contains(&"phase".to_string()), "{line}");
        }
        // Phases appear in stage order; the outcome event closes the run.
        let phases: Vec<&String> = lines
            .iter()
            .filter(|l| l.contains("\"event\":\"phase_start\""))
            .collect();
        assert!(phases.len() >= 5, "expected the five stages: {phases:?}");
        let last_event = lines
            .iter()
            .rfind(|l| l.contains("\"event\":\"stress_outcome\""))
            .expect("outcome event present");
        assert!(last_event.contains("\"ad\":"));
        assert!(outcome.ad.is_finite());
    }
}
