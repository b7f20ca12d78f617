//! DBABandit advisor (after \[26\], "DBA bandits"): index selection as a
//! combinatorial contextual bandit (C²UCB) with ridge-regression reward
//! estimation and optimistic (UCB) arm selection.
//!
//! Two design details matter for the paper's analysis and are kept:
//!
//! * **fast convergence** — the bandit converges in ~20 trajectories
//!   (§6.1 uses 20 instead of 400);
//! * **the arm-update trigger** — when every selected arm's observed
//!   reward is near zero, the bandit regenerates its arm set from the
//!   full column space (Figure 8b: zero-reward arms from an I-L attack
//!   trigger the update and let the bandit escape; PIPA's mid-ranked
//!   arms keep rewards comfortably positive, so the trigger never fires
//!   and the bandit stays in the local optimum).

use crate::advisor::{ClearBoxAdvisor, IndexAdvisor, TrajectoryMode};
use crate::env::{IndexEnv, REWARD_SCALE};
use crate::features::single_column_benefit;
use pipa_cost::{CostBackend, CostResult};
use pipa_sim::{ColumnId, Index, IndexConfig, Workload};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Bandit hyperparameters.
#[derive(Debug, Clone)]
pub struct BanditConfig {
    /// Index budget `B` (super-arm size).
    pub budget: usize,
    /// Training rounds (paper: 20 for DBABandit).
    pub train_rounds: usize,
    /// Inference trial rounds (paper: 20).
    pub trial_rounds: usize,
    /// UCB exploration coefficient.
    pub alpha: f64,
    /// Ridge regularization.
    pub lambda: f64,
    /// Arm-update trigger: if every selected arm's observed reward is
    /// below this, regenerate the arm set.
    pub arm_update_threshold: f64,
    /// Number of arms kept in the working set.
    pub num_arms: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BanditConfig {
    fn default() -> Self {
        BanditConfig {
            budget: 4,
            train_rounds: 20,
            trial_rounds: 20,
            alpha: 0.04,
            lambda: 0.1,
            arm_update_threshold: 0.01,
            num_arms: 24,
            seed: 0,
        }
    }
}

impl BanditConfig {
    /// Small preset for unit tests.
    pub fn fast() -> Self {
        BanditConfig {
            train_rounds: 12,
            trial_rounds: 10,
            ..Default::default()
        }
    }
}

const FEAT_DIM: usize = 5;

/// The DBABandit advisor.
#[derive(Clone)]
pub struct BanditAdvisor {
    cfg: BanditConfig,
    mode: TrajectoryMode,
    /// Working arm set (candidate columns).
    arms: Vec<ColumnId>,
    /// Ridge statistics: `A = λI + Σ x xᵀ` (row-major d×d), `b = Σ r x`.
    a_mat: Vec<f64>,
    b_vec: Vec<f64>,
    /// Per-arm empirical reward statistics `(sum, pulls)` — the updatable
    /// state a poisoned training set writes into. Heavily pulled arms
    /// have inertia, which is precisely the local-optimum trap of
    /// Figure 8b.
    arm_stats: std::collections::HashMap<ColumnId, (f64, u32)>,
    total_pulls: u64,
    rng: ChaCha8Rng,
    reward_trace: Vec<f64>,
    /// Snapshots of θ for -b/-m handling.
    theta_snaps: Vec<Vec<f64>>,
    best_round: (f64, IndexConfig),
}

impl BanditAdvisor {
    /// New advisor.
    pub fn new(mode: TrajectoryMode, cfg: BanditConfig) -> Self {
        let rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x00ba_4d17);
        let mut a_mat = vec![0.0; FEAT_DIM * FEAT_DIM];
        for i in 0..FEAT_DIM {
            a_mat[i * FEAT_DIM + i] = cfg.lambda;
        }
        BanditAdvisor {
            cfg,
            mode,
            arms: Vec::new(),
            a_mat,
            b_vec: vec![0.0; FEAT_DIM],
            arm_stats: std::collections::HashMap::new(),
            total_pulls: 0,
            rng,
            reward_trace: Vec::new(),
            theta_snaps: Vec::new(),
            best_round: (f64::NEG_INFINITY, IndexConfig::empty()),
        }
    }

    /// Context features of an arm for a workload.
    fn arm_features(
        cost: &dyn CostBackend,
        w: &Workload,
        col: ColumnId,
    ) -> CostResult<[f64; FEAT_DIM]> {
        let cat = cost.catalog();
        let l = cat.schema.num_columns();
        let freq = w.filter_column_frequencies(l);
        let total: f64 = freq.iter().sum::<f64>().max(1.0);
        let st = cat.column(col);
        let rows = cat.table_stats[cat.schema.table_of(col).0 as usize].rows;
        Ok([
            freq[col.0 as usize] / total,
            // The benefit estimate dominates on purpose: C²UCB's context
            // in [26] is exactly the what-if benefit of the arm.
            4.0 * single_column_benefit(cost, w, col)?,
            (st.ndv as f64).ln() / 40.0,
            (rows as f64).ln() / 40.0,
            0.25,
        ])
    }

    fn theta(&self) -> Vec<f64> {
        solve_ridge(&self.a_mat, &self.b_vec)
    }

    fn regenerate_arms(&mut self, cost: &dyn CostBackend, w: &Workload) -> CostResult<()> {
        // Arm set: the workload's filter columns ordered by their what-if
        // benefit on that workload (DBA bandits derives candidates from
        // workload potentials), topped up with random columns for
        // exploration — the random tail is what lets the bandit escape
        // after the arm-update trigger fires.
        let mut scored: Vec<(f64, ColumnId)> = w
            .candidate_columns()
            .into_iter()
            .map(|c| single_column_benefit(cost, w, c).map(|b| (b, c)))
            .collect::<CostResult<_>>()?;
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));
        let keep = self.cfg.num_arms.saturating_sub(4).max(self.cfg.budget);
        let mut arms: Vec<ColumnId> = scored.into_iter().take(keep).map(|(_, c)| c).collect();
        let all = cost.catalog().schema.indexable_columns();
        while arms.len() < self.cfg.num_arms.min(all.len()) {
            let c = *all.choose(&mut self.rng).expect("nonempty");
            if !arms.contains(&c) {
                arms.push(c);
            }
        }
        self.arms = arms;
        Ok(())
    }

    /// Score of one arm: its empirical reward mean when it has history
    /// (the persistent, poisonable state), the ridge feature prior
    /// otherwise, plus a count-based confidence width.
    fn arm_score(&self, theta: &[f64], col: ColumnId, x: &[f64; FEAT_DIM]) -> f64 {
        let (sum, n) = self.arm_stats.get(&col).copied().unwrap_or((0.0, 0));
        let base = if n > 0 {
            sum / f64::from(n)
        } else {
            theta.iter().zip(x).map(|(&t, &xi)| t * xi).sum()
        };
        let width = ((self.total_pulls as f64 + 1.0).ln() / (f64::from(n) + 1.0)).sqrt();
        base + self.cfg.alpha * width
    }

    /// One bandit round: select a super-arm by UCB, observe per-arm
    /// rewards, update per-arm statistics and the ridge prior. Returns
    /// (round return, config, all rewards ≈ 0?).
    fn round(&mut self, cost: &dyn CostBackend, w: &Workload) -> CostResult<(f64, IndexConfig, bool)> {
        let theta = self.theta();
        let feats: Vec<[f64; FEAT_DIM]> = self
            .arms
            .iter()
            .map(|&c| Self::arm_features(cost, w, c))
            .collect::<CostResult<_>>()?;
        let mut scored: Vec<(f64, usize)> = feats
            .iter()
            .enumerate()
            .map(|(i, x)| (self.arm_score(&theta, self.arms[i], x), i))
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));
        let chosen: Vec<usize> = scored
            .iter()
            .take(self.cfg.budget)
            .map(|&(_, i)| i)
            .collect();

        // Observe rewards: build the config incrementally, attributing the
        // marginal benefit to each arm (paper Eq. 7 attribution).
        let env = IndexEnv::new(cost, w, self.arms.clone(), self.cfg.budget)?;
        let mut ep = env.reset()?;
        let mut all_small = true;
        for &i in &chosen {
            let r = env.step(&mut ep, i)? / REWARD_SCALE;
            if r > self.cfg.arm_update_threshold {
                all_small = false;
            }
            // Per-arm statistics (the persistent state).
            let e = self.arm_stats.entry(self.arms[i]).or_insert((0.0, 0));
            e.0 += r;
            e.1 += 1;
            self.total_pulls += 1;
            // Ridge prior update with the observed (feature, reward) pair.
            let x = feats[i];
            for a in 0..FEAT_DIM {
                for b in 0..FEAT_DIM {
                    self.a_mat[a * FEAT_DIM + b] += x[a] * x[b];
                }
                self.b_vec[a] += r * x[a];
            }
        }
        Ok((env.episode_return(&ep), ep.config, all_small))
    }

    fn run(&mut self, cost: &dyn CostBackend, w: &Workload, rounds: usize) -> CostResult<()> {
        self.reward_trace.clear();
        self.theta_snaps.clear();
        self.best_round = (f64::NEG_INFINITY, IndexConfig::empty());
        for _ in 0..rounds {
            let (ret, cfg, all_small) = self.round(cost, w)?;
            self.reward_trace.push(ret);
            self.theta_snaps.push(self.theta());
            if ret > self.best_round.0 {
                self.best_round = (ret, cfg);
            }
            if all_small {
                // Arm-update operation: every selected arm looked useless.
                self.regenerate_arms(cost, w)?;
            }
        }
        Ok(())
    }

    /// The current reward-model weights (for the clear-box baseline).
    pub fn model_weights(&self) -> Vec<f64> {
        self.theta()
    }
}

impl IndexAdvisor for BanditAdvisor {
    fn name(&self) -> String {
        format!("DBAbandit-{}", self.mode.suffix())
    }

    fn train(&mut self, cost: &dyn CostBackend, workload: &Workload) -> CostResult<()> {
        // Reset statistics (and the RNG: training from scratch is
        // deterministic per seed).
        self.rng = ChaCha8Rng::seed_from_u64(self.cfg.seed ^ 0x00ba_4d17);
        self.a_mat = vec![0.0; FEAT_DIM * FEAT_DIM];
        for i in 0..FEAT_DIM {
            self.a_mat[i * FEAT_DIM + i] = self.cfg.lambda;
        }
        self.b_vec = vec![0.0; FEAT_DIM];
        self.arm_stats.clear();
        self.total_pulls = 0;
        self.regenerate_arms(cost, workload)?;
        self.run(cost, workload, self.cfg.train_rounds)
    }

    fn retrain(&mut self, cost: &dyn CostBackend, workload: &Workload) -> CostResult<()> {
        if self.arms.is_empty() {
            return self.train(cost, workload);
        }
        // Keep ridge statistics; refresh the arm set from the new
        // training workload (arms the bandit never saw can now enter).
        self.regenerate_arms(cost, workload)?;
        self.run(cost, workload, self.cfg.train_rounds)
    }

    fn recommend(
        &mut self,
        cost: &dyn CostBackend,
        workload: &Workload,
    ) -> CostResult<IndexConfig> {
        // Trials run on a scratch copy, so they cannot change the advisor;
        // only their reward trace is kept (Figure 8's inference trace).
        let mut trial = self.clone();
        if trial.arms.is_empty() {
            trial.regenerate_arms(cost, workload)?;
        }
        trial.run(cost, workload, trial.cfg.trial_rounds)?;
        let result = match self.mode {
            TrajectoryMode::Best => trial.best_round.1.clone(),
            TrajectoryMode::MeanLast(k) => {
                // Average θ over the last k rounds as the tie-breaking
                // prior, then pick the top-B arms by blended score.
                let snaps: Vec<&Vec<f64>> = trial.theta_snaps.iter().rev().take(k.max(1)).collect();
                let mut theta = vec![0.0; FEAT_DIM];
                for s in &snaps {
                    for (t, &v) in theta.iter_mut().zip(s.iter()) {
                        *t += v;
                    }
                }
                for t in &mut theta {
                    *t /= snaps.len() as f64;
                }
                let mut scored: Vec<(f64, ColumnId)> = trial
                    .arms
                    .iter()
                    .map(|&c| {
                        let x = Self::arm_features(cost, workload, c)?;
                        let (sum, n) = trial.arm_stats.get(&c).copied().unwrap_or((0.0, 0));
                        let mean = if n > 0 {
                            sum / f64::from(n)
                        } else {
                            theta.iter().zip(&x).map(|(&t, &xi)| t * xi).sum()
                        };
                        Ok((mean, c))
                    })
                    .collect::<CostResult<_>>()?;
                scored.sort_by(|a, b| b.0.total_cmp(&a.0));
                scored
                    .into_iter()
                    .take(self.cfg.budget)
                    .map(|(_, c)| Index::single(c))
                    .collect()
            }
        };
        self.reward_trace = trial.reward_trace;
        Ok(result)
    }

    fn budget(&self) -> usize {
        self.cfg.budget
    }

    fn is_trial_based(&self) -> bool {
        true
    }

    fn reward_trace(&self) -> &[f64] {
        &self.reward_trace
    }
}

impl ClearBoxAdvisor for BanditAdvisor {
    fn column_preferences(&self, cost: &dyn CostBackend) -> Vec<(ColumnId, f64)> {
        // Preference = the arm's empirical reward mean; columns outside
        // the arm set (or never pulled) carry zero weight.
        cost.catalog()
            .schema
            .indexable_columns()
            .into_iter()
            .map(|c| {
                let mean = self
                    .arm_stats
                    .get(&c)
                    .filter(|(_, n)| *n > 0)
                    .map(|(s, n)| s / f64::from(*n))
                    .unwrap_or(0.0);
                (c, if self.arms.contains(&c) { mean } else { 0.0 })
            })
            .collect()
    }
}

/// Solve `A x = b` for small dense symmetric positive-definite `A`
/// (Gaussian elimination with partial pivoting; d = 5).
fn solve_linear(a: &[f64], b: &[f64]) -> Vec<f64> {
    let n = b.len();
    let mut m = a.to_vec();
    let mut x = b.to_vec();
    for col in 0..n {
        // Pivot.
        let mut piv = col;
        for r in (col + 1)..n {
            if m[r * n + col].abs() > m[piv * n + col].abs() {
                piv = r;
            }
        }
        if piv != col {
            for c in 0..n {
                m.swap(col * n + c, piv * n + c);
            }
            x.swap(col, piv);
        }
        let d = m[col * n + col];
        if d.abs() < 1e-12 {
            continue;
        }
        for r in (col + 1)..n {
            let f = m[r * n + col] / d;
            if f == 0.0 {
                continue;
            }
            for c in col..n {
                m[r * n + c] -= f * m[col * n + c];
            }
            x[r] -= f * x[col];
        }
    }
    // Back substitution.
    for col in (0..n).rev() {
        let d = m[col * n + col];
        if d.abs() < 1e-12 {
            x[col] = 0.0;
            continue;
        }
        let mut s = x[col];
        for c in (col + 1)..n {
            s -= m[col * n + c] * x[c];
        }
        x[col] = s / d;
    }
    x
}

/// Ridge solution `θ = A⁻¹ b`.
fn solve_ridge(a: &[f64], b: &[f64]) -> Vec<f64> {
    solve_linear(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipa_cost::{workload_benefit, SimBackend};
    use pipa_workload::Benchmark;

    fn setup() -> (SimBackend, Workload) {
        let db = Benchmark::TpcH.database(1.0, None);
        let g = pipa_workload::generator::WorkloadGenerator::new(
            Benchmark::TpcH.schema(),
            Benchmark::TpcH.default_templates(),
        );
        let w = g.normal(&mut ChaCha8Rng::seed_from_u64(3)).unwrap();
        (SimBackend::new(db), w)
    }

    #[test]
    fn solve_linear_identity() {
        let n = 5;
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            a[i * n + i] = 2.0;
        }
        let b = vec![2.0, 4.0, 6.0, 8.0, 10.0];
        let x = solve_linear(&a, &b);
        for (i, &xi) in x.iter().enumerate() {
            assert!((xi - (i + 1) as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn solve_linear_general() {
        let a = vec![
            4.0, 1.0, 0.0, 0.0, 0.0, //
            1.0, 3.0, 1.0, 0.0, 0.0, //
            0.0, 1.0, 2.0, 0.5, 0.0, //
            0.0, 0.0, 0.5, 3.0, 1.0, //
            0.0, 0.0, 0.0, 1.0, 2.0,
        ];
        let xs = [1.0, -2.0, 0.5, 3.0, -1.0];
        // b = A xs
        let mut b = vec![0.0; 5];
        for r in 0..5 {
            for c in 0..5 {
                b[r] += a[r * 5 + c] * xs[c];
            }
        }
        let x = solve_linear(&a, &b);
        for (xi, &want) in x.iter().zip(&xs) {
            assert!((xi - want).abs() < 1e-9, "{x:?}");
        }
    }

    #[test]
    fn trains_and_recommends_useful_indexes() {
        let (cost, w) = setup();
        let mut ia = BanditAdvisor::new(TrajectoryMode::Best, BanditConfig::fast());
        ia.train(&cost, &w).unwrap();
        let cfg = ia.recommend(&cost, &w).unwrap();
        assert!(!cfg.is_empty() && cfg.len() <= 4);
        let benefit = workload_benefit(&cost, &w, &cfg).unwrap();
        assert!(benefit > 0.05, "benefit {benefit}");
    }

    #[test]
    fn converges_fast() {
        // DBABandit converges within its 20 rounds: late-round returns
        // should dominate the first round.
        let (cost, w) = setup();
        let mut ia = BanditAdvisor::new(TrajectoryMode::Best, BanditConfig::default());
        ia.train(&cost, &w).unwrap();
        let trace = ia.reward_trace().to_vec();
        let late: f64 = trace.iter().rev().take(5).sum::<f64>() / 5.0;
        let first = trace[0];
        // The first round is scored by the benefit-sorted prior (a strong
        // start); converged rounds must stay in its neighbourhood rather
        // than wander off exploring junk arms.
        assert!(late >= first * 0.7, "late {late} vs first {first}");
        assert!(late > 1.0, "late rounds keep a useful configuration");
    }

    #[test]
    fn arm_update_triggers_on_useless_arms() {
        let (cost, w) = setup();
        let schema = cost.database().schema();
        let mut ia = BanditAdvisor::new(TrajectoryMode::Best, BanditConfig::fast());
        // Force a useless arm set (comment columns have no predicates).
        ia.arms = vec![
            schema.column_id("l_comment").unwrap(),
            schema.column_id("o_comment").unwrap(),
            schema.column_id("ps_comment").unwrap(),
            schema.column_id("c_comment").unwrap(),
        ];
        let before = ia.arms.clone();
        let (_, _, all_small) = ia.round(&cost, &w).unwrap();
        assert!(all_small, "useless arms must report near-zero rewards");
        if all_small {
            ia.regenerate_arms(&cost, &w).unwrap();
        }
        assert_ne!(ia.arms, before, "arm set regenerated");
    }

    #[test]
    fn mean_mode_recommends() {
        let (cost, w) = setup();
        let mut ia = BanditAdvisor::new(TrajectoryMode::MeanLast(10), BanditConfig::fast());
        ia.train(&cost, &w).unwrap();
        let cfg = ia.recommend(&cost, &w).unwrap();
        assert_eq!(cfg.len(), 4);
        assert_eq!(ia.name(), "DBAbandit-m");
    }

    #[test]
    fn recommend_restores_state() {
        let (cost, w) = setup();
        let mut ia = BanditAdvisor::new(TrajectoryMode::Best, BanditConfig::fast());
        ia.train(&cost, &w).unwrap();
        let a = ia.a_mat.clone();
        let _ = ia.recommend(&cost, &w).unwrap();
        assert_eq!(ia.a_mat, a);
    }
}
