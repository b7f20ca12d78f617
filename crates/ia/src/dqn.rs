//! DQN index advisor (after \[20\], "An index advisor using deep
//! reinforcement learning"): the [`QDesign::Dqn`] configuration of the
//! deep-Q learner in [`crate::qlearn`], with a periodically synced target
//! network. Design details the paper's analysis leans on:
//!
//! * **heuristic index-candidate filtering** — only columns appearing in
//!   the training workload's predicates with sufficient NDV become
//!   actions, which is why low-ranked injections (I-L) partly bounce off
//!   (§6.2);
//! * **trial-based inference** — `recommend` keeps learning on the target
//!   workload for a bounded number of trial trajectories with a small ε,
//!   so a poisoned initialization can trap it in a local optimum
//!   (Figure 8a);
//! * **weak workload representation** — the state summarizes the workload
//!   as a frequency vector, which the paper blames for DQN's sharp
//!   degradation under large distribution shifts (§6.3).

use crate::factory::SpeedPreset;
use crate::qlearn::{QConfig, QDesign};

impl QConfig {
    /// DQN at a speed preset (training / trial trajectories: paper
    /// 400 / 400, quick 100 / 40, test 60 / 40 with minibatch 8).
    pub fn dqn(preset: SpeedPreset, seed: u64) -> Self {
        let (trajectories, batch) = match preset {
            SpeedPreset::Paper => ((400, 400), 16),
            SpeedPreset::Quick => ((100, 40), 16),
            SpeedPreset::Test => ((60, 40), 8),
        };
        let design = QDesign::Dqn {
            min_candidate_ndv: 50,
            target_sync: 20,
        };
        QConfig::with_design(design, trajectories, batch, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advisor::{ClearBoxAdvisor, IndexAdvisor, TrajectoryMode};
    use crate::qlearn::QAdvisor;
    use pipa_cost::{workload_benefit, SimBackend};
    use pipa_sim::Workload;
    use pipa_workload::Benchmark;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn fast() -> QConfig {
        QConfig::dqn(SpeedPreset::Test, 0)
    }

    fn setup() -> (SimBackend, Workload) {
        let db = Benchmark::TpcH.database(1.0, None);
        let g = pipa_workload::generator::WorkloadGenerator::new(
            Benchmark::TpcH.schema(),
            Benchmark::TpcH.default_templates(),
        );
        let w = g.normal(&mut ChaCha8Rng::seed_from_u64(1)).unwrap();
        (SimBackend::new(db), w)
    }

    #[test]
    fn trains_and_recommends_within_budget() {
        let (cost, w) = setup();
        let mut ia = QAdvisor::new(TrajectoryMode::Best, fast());
        ia.train(&cost, &w).unwrap();
        let cfg = ia.recommend(&cost, &w).unwrap();
        assert!(cfg.len() <= 4 && !cfg.is_empty());
        assert_eq!(ia.reward_trace().len(), fast().trial_trajectories);
    }

    #[test]
    fn learned_config_beats_no_index() {
        let (cost, w) = setup();
        let mut ia = QAdvisor::new(TrajectoryMode::Best, fast());
        ia.train(&cost, &w).unwrap();
        let cfg = ia.recommend(&cost, &w).unwrap();
        let benefit = workload_benefit(&cost, &w, &cfg).unwrap();
        assert!(benefit > 0.05, "benefit {benefit}");
    }

    #[test]
    fn recommend_does_not_mutate_parameters() {
        let (cost, w) = setup();
        let mut ia = QAdvisor::new(TrajectoryMode::Best, fast());
        ia.train(&cost, &w).unwrap();
        let (online, target) = ia.param_images();
        assert!(target.is_some(), "DQN bootstraps from a target net");
        // Test preset: 40 trials with a target sync every 20, so a trial
        // run that leaked its target net would be caught here.
        let _ = ia.recommend(&cost, &w).unwrap();
        let (online_after, target_after) = ia.param_images();
        assert!(
            online_after == online,
            "trials must not move the online net"
        );
        assert!(
            target_after == target,
            "trials must not move the target net"
        );
    }

    #[test]
    fn candidates_come_from_workload() {
        let (cost, w) = setup();
        let mut ia = QAdvisor::new(TrajectoryMode::Best, fast());
        ia.train(&cost, &w).unwrap();
        let wcols = w.candidate_columns();
        assert!(ia.candidates().iter().all(|c| wcols.contains(c)));
        assert!(!ia.candidates().is_empty());
        // Join keys are candidates too (l_orderkey never appears in a
        // filter, only in joins).
        let lok = cost.database().schema().column_id("l_orderkey").unwrap();
        assert!(ia.candidates().contains(&lok));
    }

    #[test]
    fn clear_box_preferences_are_sparse_outside_candidates() {
        let (cost, w) = setup();
        let mut ia = QAdvisor::new(TrajectoryMode::Best, fast());
        ia.train(&cost, &w).unwrap();
        let prefs = ia.column_preferences(&cost);
        assert_eq!(prefs.len(), 61);
        let comment = cost.database().schema().column_id("l_comment").unwrap();
        let pref = prefs.iter().find(|(c, _)| *c == comment).unwrap().1;
        assert_eq!(pref, 0.0, "non-candidate columns have zero weight");
    }

    #[test]
    fn mean_mode_recommends_too() {
        let (cost, w) = setup();
        let mut ia = QAdvisor::new(TrajectoryMode::MeanLast(10), fast());
        ia.train(&cost, &w).unwrap();
        let cfg = ia.recommend(&cost, &w).unwrap();
        assert!(!cfg.is_empty());
        assert_eq!(ia.name(), "DQN-m");
    }
}
