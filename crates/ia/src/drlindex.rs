//! DRLindex advisor (after [29, 30]): the [`QDesign::DrlIndex`]
//! configuration of the deep-Q learner in [`crate::qlearn`] — a Deep
//! Q-Network whose state is a sparse query×column occurrence matrix and
//! whose reward is `1/cost`.
//!
//! The paper singles out two design choices as the source of DRLindex's
//! vulnerability (§6.2), and both are reproduced here:
//!
//! * **sparse state representation** — the state is the flattened
//!   query×column matrix (queries hashed into a fixed number of rows), so
//!   an injection workload operating on a different column set changes a
//!   large part of the input surface and drags the parameters with it;
//! * **over-sensitive reward** — `1/c(W, d, I)`, scaled by the workload's
//!   base cost to stay learnable across cost regimes, so small absolute
//!   cost changes move the loss a lot.
//!
//! Its trials run near-greedily: with the sparse state a poisoned
//! initialization dominates what they can see (the most vulnerable victim).

use crate::factory::SpeedPreset;
use crate::qlearn::{QConfig, QDesign};

impl QConfig {
    /// DRLindex at a speed preset (training / trial trajectories: paper
    /// 400 / 400, quick 250 / 40, test 50 / 30 with minibatch 8).
    pub fn drlindex(preset: SpeedPreset, seed: u64) -> Self {
        let (trajectories, batch) = match preset {
            SpeedPreset::Paper => ((400, 400), 16),
            SpeedPreset::Quick => ((250, 40), 16),
            SpeedPreset::Test => ((50, 30), 8),
        };
        let design = QDesign::DrlIndex {
            state_buckets: 8,
            trial_eps: 0.01,
            reward_scale: 20.0,
        };
        QConfig::with_design(design, trajectories, batch, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advisor::{ClearBoxAdvisor, IndexAdvisor, TrajectoryMode};
    use crate::qlearn::{inverse_cost_reward, QAdvisor};
    use pipa_cost::{workload_benefit, SimBackend};
    use pipa_sim::Workload;
    use pipa_workload::Benchmark;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn fast() -> QConfig {
        QConfig::drlindex(SpeedPreset::Test, 0)
    }

    fn setup() -> (SimBackend, Workload) {
        let db = Benchmark::TpcH.database(1.0, None);
        let g = pipa_workload::generator::WorkloadGenerator::new(
            Benchmark::TpcH.schema(),
            Benchmark::TpcH.default_templates(),
        );
        let w = g.normal(&mut ChaCha8Rng::seed_from_u64(2)).unwrap();
        (SimBackend::new(db), w)
    }

    #[test]
    fn trains_and_recommends() {
        let (cost, w) = setup();
        let mut ia = QAdvisor::new(TrajectoryMode::Best, fast());
        ia.train(&cost, &w).unwrap();
        let cfg = ia.recommend(&cost, &w).unwrap();
        assert!(!cfg.is_empty() && cfg.len() <= 4);
        assert!(workload_benefit(&cost, &w, &cfg).unwrap() > 0.0);
    }

    #[test]
    fn reward_is_one_over_cost_shaped() {
        let QDesign::DrlIndex { reward_scale, .. } = fast().design else {
            panic!("DRLindex design");
        };
        let step_reward = |base, prev, new| inverse_cost_reward(reward_scale, base, prev, new);
        // Cost halved → positive reward; cost doubled → negative.
        assert!(step_reward(1000.0, 1000.0, 500.0) > 0.0);
        assert!(step_reward(1000.0, 500.0, 1000.0) < 0.0);
        // Same absolute cost change at lower cost levels → much larger
        // reward magnitude (the "over-sensitive" property).
        let small = step_reward(2000.0, 2000.0, 1900.0).abs();
        let big = step_reward(2000.0, 20_000.0, 19_900.0).abs();
        assert!(small > big);
    }

    #[test]
    fn candidates_unfiltered() {
        let (cost, w) = setup();
        let mut ia = QAdvisor::new(TrajectoryMode::Best, fast());
        ia.train(&cost, &w).unwrap();
        assert_eq!(ia.candidates(), w.candidate_columns());
    }

    #[test]
    fn clear_box_dense_preferences() {
        let (cost, w) = setup();
        let mut ia = QAdvisor::new(TrajectoryMode::MeanLast(10), fast());
        ia.train(&cost, &w).unwrap();
        let prefs = ia.column_preferences(&cost);
        // Dense: most entries nonzero (contrast with DQN's sparsity).
        let nonzero = prefs.iter().filter(|(_, p)| *p != 0.0).count();
        assert!(nonzero > 50, "dense prefs, got {nonzero}");
    }
}
