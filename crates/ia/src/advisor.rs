//! The opaque-box advisor interface.
//!
//! PIPA (and any user of an index advisor) sees exactly this surface:
//! train on a workload, retrain when the workload changes, recommend
//! indexes for a workload. Nothing about the learning algorithm leaks
//! through — which is what makes the paper's evaluator "opaque-box".
//!
//! The clear-box escape hatch [`ClearBoxAdvisor`] exists only for the
//! paper's P-C baseline (§6.2), which reads the victim's actual internal
//! column preferences to build a near-optimal comparison attack.

use pipa_cost::{CostBackend, CostResult};
use pipa_sim::{ColumnId, IndexConfig, Workload};

/// Trajectory-selection variant (paper §6.1): `-b` keeps the best
/// trajectory's parameters, `-m` keeps the average parameters of the last
/// trajectories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrajectoryMode {
    /// Keep the best trajectory (`IA-b`).
    Best,
    /// Keep the mean of the last `n` trajectories (`IA-m`).
    MeanLast(usize),
}

impl TrajectoryMode {
    /// Suffix used in advisor names (`"b"` / `"m"`).
    pub fn suffix(self) -> &'static str {
        match self {
            TrajectoryMode::Best => "b",
            TrajectoryMode::MeanLast(_) => "m",
        }
    }
}

/// A learning-based (or heuristic) index advisor.
///
/// `Send` is a supertrait: a boxed advisor is tenant state that the
/// `pipa-serve` scheduler migrates between worker threads, and every
/// implementor is plain owned data (networks, RNGs, traces).
pub trait IndexAdvisor: Send {
    /// Display name, e.g. `"DQN-b"`.
    fn name(&self) -> String;

    /// Train from scratch on a workload (the paper's initial training on
    /// the target workload `W`).
    fn train(&mut self, cost: &dyn CostBackend, workload: &Workload) -> CostResult<()>;

    /// Update on a new training workload *without* resetting parameters
    /// (the paper's re-training on `{W, Ŵ}`; learned advisors fine-tune,
    /// heuristics ignore this).
    fn retrain(&mut self, cost: &dyn CostBackend, workload: &Workload) -> CostResult<()>;

    /// Recommend an index configuration for a workload. Trial-based
    /// advisors run trial trajectories here; one-off advisors predict
    /// directly.
    ///
    /// A recommendation is an observation, not a training signal: it
    /// writes no state that a later `train`, `retrain`, `recommend` or
    /// [`ClearBoxAdvisor::column_preferences`] reads, so the result is a
    /// pure function of (advisor state, workload). Trial-based advisors
    /// run their trials on a scratch copy of themselves; only
    /// [`IndexAdvisor::reward_trace`] keeps the trials' rewards.
    fn recommend(&mut self, cost: &dyn CostBackend, workload: &Workload) -> CostResult<IndexConfig>;

    /// Index-count budget `B`.
    fn budget(&self) -> usize;

    /// Whether inference runs trial trajectories (`true`) or predicts in
    /// one shot (`false`). Affects how the stress test interprets
    /// robustness (paper §6.2 "trial-based vs one-off").
    fn is_trial_based(&self) -> bool;

    /// Reward trace of the most recent run, one entry per trajectory:
    /// the last `train`/`retrain`, or the last `recommend`'s trials when
    /// that came later (Figure 8's learning curves and inference trace).
    fn reward_trace(&self) -> &[f64] {
        &[]
    }
}

/// Clear-box introspection for the P-C baseline: the advisor's actual
/// internal preference for each indexable column.
pub trait ClearBoxAdvisor: IndexAdvisor {
    /// `(column, internal weight)` pairs, higher = more preferred.
    fn column_preferences(&self, cost: &dyn CostBackend) -> Vec<(ColumnId, f64)>;
}

/// Blanket coercion: a boxed clear-box advisor is itself an opaque-box
/// advisor, so `Box<dyn ClearBoxAdvisor>` erases to
/// `Box<dyn IndexAdvisor>` with one `Box::new` instead of a
/// hand-forwarding adapter.
impl IndexAdvisor for Box<dyn ClearBoxAdvisor> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn train(&mut self, cost: &dyn CostBackend, workload: &Workload) -> CostResult<()> {
        (**self).train(cost, workload)
    }
    fn retrain(&mut self, cost: &dyn CostBackend, workload: &Workload) -> CostResult<()> {
        (**self).retrain(cost, workload)
    }
    fn recommend(
        &mut self,
        cost: &dyn CostBackend,
        workload: &Workload,
    ) -> CostResult<IndexConfig> {
        (**self).recommend(cost, workload)
    }
    fn budget(&self) -> usize {
        (**self).budget()
    }
    fn is_trial_based(&self) -> bool {
        (**self).is_trial_based()
    }
    fn reward_trace(&self) -> &[f64] {
        (**self).reward_trace()
    }
}

/// Identifier for the advisors in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdvisorKind {
    /// Deep Q-Network (\[20\]), trial-based.
    Dqn(TrajectoryMode),
    /// DRLindex ([29, 30]): DQN with sparse workload×column state and
    /// `1/cost` reward, trial-based.
    DrlIndex(TrajectoryMode),
    /// DBABandit (\[26\]): C²UCB multi-armed bandit, trial-based
    /// (converges fast: 20 trajectories).
    DbaBandit(TrajectoryMode),
    /// SWIRL (\[19\]): PPO-style policy with invalid-action masking,
    /// one-off.
    Swirl,
}

impl AdvisorKind {
    /// The seven built-in variants the paper's main experiment sweeps
    /// (the `-b`/`-m` trajectory modes of DQN, DRLindex and DBABandit,
    /// plus SWIRL). This is a convenience slice of the paper grid, *not*
    /// the universe of targets: the target registry
    /// ([`crate::registry::registered_ids`]) is open, and kinds added
    /// there (e.g. `"incontext"`, or user-registered ones) are addressed
    /// by [`crate::registry::AdvisorSpec`] rather than enum variants.
    pub fn all() -> Vec<AdvisorKind> {
        use TrajectoryMode::*;
        vec![
            AdvisorKind::Dqn(Best),
            AdvisorKind::Dqn(MeanLast(100)),
            AdvisorKind::DrlIndex(Best),
            AdvisorKind::DrlIndex(MeanLast(100)),
            AdvisorKind::DbaBandit(Best),
            AdvisorKind::DbaBandit(MeanLast(10)),
            AdvisorKind::Swirl,
        ]
    }

    /// Display name matching the paper's tables: the registry entry's
    /// label for this kind's spec (the format strings live there).
    pub fn label(self) -> String {
        crate::registry::AdvisorSpec::from(self).label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_variants_with_paper_labels() {
        let all = AdvisorKind::all();
        assert_eq!(all.len(), 7);
        // Labels derive from the registry entries (the enum is an alias
        // layer), and must still spell the paper's table headings.
        let labels: Vec<String> = all
            .iter()
            .map(|a| crate::registry::AdvisorSpec::from(*a).label())
            .collect();
        assert_eq!(
            labels,
            vec![
                "DQN-b",
                "DQN-m",
                "DRLindex-b",
                "DRLindex-m",
                "DBAbandit-b",
                "DBAbandit-m",
                "SWIRL"
            ]
        );
    }

    #[test]
    fn trajectory_suffixes() {
        assert_eq!(TrajectoryMode::Best.suffix(), "b");
        assert_eq!(TrajectoryMode::MeanLast(100).suffix(), "m");
    }
}
