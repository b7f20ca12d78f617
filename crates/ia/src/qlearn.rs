//! The deep-Q learner behind the paper's two trial-based Q advisors
//! (§6.1–6.2): an MLP Q-network over `[workload encoding ‖ index bitmap]`,
//! ε-greedy trajectories, an experience-replay buffer, batched TD targets,
//! the `-b`/`-m` parameter finish and trial-based `recommend`.
//!
//! DQN ([`QConfig::dqn`], see [`crate::dqn`]) and DRLindex
//! ([`QConfig::drlindex`], see [`crate::drlindex`]) are two configurations
//! of the one [`QAdvisor`]. Their [`QDesign`] value selects:
//!
//! | axis | DQN | DRLindex |
//! |---|---|---|
//! | workload encoding | column-frequency vector | sparse query×column matrix |
//! | candidates | NDV-filtered workload columns | every workload column |
//! | reward | the env's step reward | `reward_scale · base · Δ(1/cost)` |
//! | TD bootstrap | target net, synced every `target_sync` trajectories | the online net |
//! | trial ε | `eps_end` | `trial_eps` |
//! | clear-box preferences | zero outside the candidates | dense |

use crate::advisor::{ClearBoxAdvisor, IndexAdvisor, TrajectoryMode};
use crate::env::IndexEnv;
use crate::features::{
    column_frequency_features, config_bitmap, heuristic_candidates, query_column_matrix,
};
use pipa_cost::{CostBackend, CostResult};
use pipa_nn::{Adam, Mlp, Optimizer, ParamStore, Tape, Tensor};
use pipa_sim::{ColumnId, IndexConfig, Workload};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;

/// Replay buffer capacity (transitions).
const REPLAY_CAPACITY: usize = 4096;
/// Training ε of the first trajectory; it decays linearly to `eps_end`.
const EPS_START: f64 = 1.0;
/// Discount factor.
const GAMMA: f32 = 0.9;

/// The design choices that tell DQN and DRLindex apart (module table).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QDesign {
    /// DQN \[20\].
    Dqn {
        /// Minimum NDV for the heuristic candidate filter.
        min_candidate_ndv: u64,
        /// Target-network sync period (trajectories).
        target_sync: usize,
    },
    /// DRLindex \[29, 30\].
    DrlIndex {
        /// Query hash buckets (rows) of the state matrix.
        state_buckets: usize,
        /// Exploration rate during inference trials.
        trial_eps: f64,
        /// Multiplier on `base_cost · Δ(1/cost)`.
        reward_scale: f64,
    },
}

impl QDesign {
    /// Salts XORed into the seed: (exploration/replay rng, net init rng).
    fn rng_salts(self) -> (u64, u64) {
        match self {
            QDesign::Dqn { .. } => (0x000d_9417, 0x9e37),
            QDesign::DrlIndex { .. } => (0x0d12_71de, 0x515),
        }
    }
}

/// Deep-Q hyperparameters; [`QConfig::dqn`] and [`QConfig::drlindex`]
/// build the paper's two advisors at a speed preset.
#[derive(Debug, Clone)]
pub struct QConfig {
    /// DQN or DRLindex.
    pub design: QDesign,
    /// Index budget `B`.
    pub budget: usize,
    /// Training trajectories per `train`/`retrain` (paper: 400).
    pub train_trajectories: usize,
    /// Inference trial trajectories (paper: 400).
    pub trial_trajectories: usize,
    /// Replay minibatch size.
    pub batch_size: usize,
    /// Final training exploration rate, and the fixed `retrain` ε.
    pub eps_end: f64,
    /// Q-network hidden width.
    pub hidden: usize,
    /// Learning rate.
    pub lr: f32,
    /// Learning-rate multiplier during inference trials: learning slowly
    /// is what lets a poisoned initialization trap them (Figure 8a).
    pub trial_lr_scale: f32,
    /// RNG seed.
    pub seed: u64,
}

impl QConfig {
    /// The hyperparameters both designs share, around the per-design
    /// `(train, trial)` trajectory counts and minibatch size.
    pub(crate) fn with_design(
        design: QDesign,
        (train_trajectories, trial_trajectories): (usize, usize),
        batch_size: usize,
        seed: u64,
    ) -> Self {
        QConfig {
            design,
            budget: 4,
            train_trajectories,
            trial_trajectories,
            batch_size,
            eps_end: 0.05,
            hidden: 64,
            lr: 3e-3,
            trial_lr_scale: 0.05,
            seed,
        }
    }
}

/// DRLindex's over-sensitive reward (see [`crate::drlindex`]): the
/// `base_cost`-scaled `1/cost` improvement of one step.
pub(crate) fn inverse_cost_reward(scale: f64, base_cost: f64, prev: f64, new: f64) -> f64 {
    scale * base_cost * (1.0 / new.max(1.0) - 1.0 / prev.max(1.0))
}

#[derive(Clone)]
struct Transition {
    state: Vec<f32>,
    action: usize,
    reward: f32,
    next_state: Vec<f32>,
    next_valid: Vec<usize>,
    done: bool,
}

/// How a run of trajectories explores and learns: `Train` decays ε from
/// [`EPS_START`] to `eps_end`, `Retrain` holds `eps_end`, and `recommend`'s
/// `Trial`s use the design's trial ε at the trial learning rate.
#[derive(Clone, Copy)]
enum Phase {
    Train,
    Retrain,
    Trial,
}

/// The deep-Q advisor (DQN or DRLindex, by [`QConfig::design`]).
#[derive(Clone)]
pub struct QAdvisor {
    cfg: QConfig,
    mode: TrajectoryMode,
    store: Option<ParamStore>,
    qnet: Option<Mlp>,
    /// TD-bootstrap net: DQN's periodically synced target net; `None`
    /// under DRLindex, which bootstraps from the online net.
    target: Option<ParamStore>,
    candidates: Vec<ColumnId>,
    replay: VecDeque<Transition>,
    rng: ChaCha8Rng,
    reward_trace: Vec<f64>,
    /// Workload encoding of the last run (read by the clear-box view).
    last_encoding: Vec<f32>,
}

impl QAdvisor {
    /// New advisor with the given trajectory mode and config.
    pub fn new(mode: TrajectoryMode, cfg: QConfig) -> Self {
        let rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ cfg.design.rng_salts().0);
        QAdvisor {
            cfg,
            mode,
            store: None,
            qnet: None,
            target: None,
            candidates: Vec::new(),
            replay: VecDeque::new(),
            rng,
            reward_trace: Vec::new(),
            last_encoding: Vec::new(),
        }
    }

    fn ensure_net(&mut self, cost: &dyn CostBackend) {
        let l = cost.catalog().schema.num_columns();
        if self.qnet.as_ref().is_some_and(|q| q.out_dim() == l) {
            return;
        }
        let encoding_width = match self.cfg.design {
            QDesign::Dqn { .. } => l,
            QDesign::DrlIndex { state_buckets, .. } => state_buckets * l,
        };
        let mut store = ParamStore::new();
        let mut rng = ChaCha8Rng::seed_from_u64(self.cfg.seed ^ self.cfg.design.rng_salts().1);
        let qnet = Mlp::new(
            &mut store,
            "q",
            &[encoding_width + l, self.cfg.hidden, l],
            pipa_nn::mlp::Activation::Relu,
            &mut rng,
        );
        self.target = matches!(self.cfg.design, QDesign::Dqn { .. }).then(|| store.clone());
        self.store = Some(store);
        self.qnet = Some(qnet);
    }

    fn state_vec(&self, cost: &dyn CostBackend, encoding: &[f32], cfg: &IndexConfig) -> Vec<f32> {
        [encoding, &config_bitmap(cost, cfg)].concat()
    }

    fn q_values(&self, store: &ParamStore, state: &[f32]) -> Vec<f32> {
        let qnet = self.qnet.as_ref().expect("net built");
        qnet.infer(store, &Tensor::row(state.to_vec())).data
    }

    /// Run one phase's trajectories with learning, recording their
    /// returns as the reward trace. Returns the best trajectory's
    /// configuration and the `-b`/`-m` parameters: the best trajectory's,
    /// or the mean of the last `k` trajectories'.
    fn run_trajectories(
        &mut self,
        cost: &dyn CostBackend,
        workload: &Workload,
        phase: Phase,
    ) -> CostResult<(IndexConfig, Vec<f32>)> {
        let (n, lr) = match phase {
            Phase::Trial => (
                self.cfg.trial_trajectories,
                self.cfg.lr * self.cfg.trial_lr_scale,
            ),
            _ => (self.cfg.train_trajectories, self.cfg.lr),
        };
        let encoding = match self.cfg.design {
            QDesign::Dqn { .. } => column_frequency_features(cost, workload),
            QDesign::DrlIndex { state_buckets, .. } => {
                query_column_matrix(cost, workload, state_buckets)
            }
        };
        self.last_encoding = encoding.clone();
        let env = IndexEnv::new(cost, workload, self.candidates.clone(), self.cfg.budget)?;
        let mut opt = Adam::new(lr);
        let window = match self.mode {
            TrajectoryMode::Best => 1,
            TrajectoryMode::MeanLast(k) => k,
        };
        let mut returns = Vec::with_capacity(n);
        let mut best_return = f64::NEG_INFINITY;
        let mut best_config = IndexConfig::empty();
        let mut best_snap = self.store.as_ref().expect("store").snapshot();
        let mut recent: VecDeque<Vec<f32>> = VecDeque::new();
        // One tape for the whole run: action selection and learn steps
        // recycle the same activation/gradient buffers.
        let mut tape = Tape::new();

        for traj in 0..n {
            let eps = match (phase, self.cfg.design) {
                (Phase::Train, _) => {
                    let frac = traj as f64 / n.max(1) as f64;
                    EPS_START + (self.cfg.eps_end - EPS_START) * frac
                }
                (Phase::Trial, QDesign::DrlIndex { trial_eps, .. }) => trial_eps,
                _ => self.cfg.eps_end,
            };
            let mut ep = env.reset()?;
            let mut prev_cost = env.base_cost();
            while !env.done(&ep) {
                let state = self.state_vec(cost, &encoding, &ep.config);
                let valid = env.valid_actions(&ep);
                let action = if self.rng.gen::<f64>() < eps {
                    valid[self.rng.gen_range(0..valid.len())]
                } else {
                    let qnet = self.qnet.as_ref().expect("net");
                    let store = self.store.as_ref().expect("store");
                    let qv = qnet.forward_reuse(&mut tape, store, Tensor::row(state.clone()));
                    let q = &tape.value(qv).data;
                    let col = |a: usize| self.candidates[a].0 as usize;
                    *valid
                        .iter()
                        .max_by(|&&a, &&b| q[col(a)].total_cmp(&q[col(b)]))
                        .expect("nonempty valid set")
                };
                let env_reward = env.step(&mut ep, action)?;
                let reward = match self.cfg.design {
                    QDesign::Dqn { .. } => env_reward,
                    QDesign::DrlIndex { reward_scale, .. } => inverse_cost_reward(
                        reward_scale,
                        env.base_cost(),
                        prev_cost,
                        ep.current_cost,
                    ),
                } as f32;
                prev_cost = ep.current_cost;
                self.replay.push_back(Transition {
                    state,
                    action: self.candidates[action].0 as usize,
                    reward,
                    next_state: self.state_vec(cost, &encoding, &ep.config),
                    next_valid: env
                        .valid_actions(&ep)
                        .iter()
                        .map(|&a| self.candidates[a].0 as usize)
                        .collect(),
                    done: env.done(&ep),
                });
                if self.replay.len() > REPLAY_CAPACITY {
                    self.replay.pop_front();
                }
                self.learn_step(&mut opt, &mut tape);
            }
            let ret = env.episode_return(&ep);
            returns.push(ret);
            let store = self.store.as_ref().expect("store");
            if ret > best_return {
                best_return = ret;
                best_config = ep.config.clone();
                best_snap = store.snapshot();
            }
            recent.push_back(store.snapshot());
            if recent.len() > window {
                recent.pop_front();
            }
            if let QDesign::Dqn { target_sync, .. } = self.cfg.design {
                if (traj + 1) % target_sync == 0 {
                    self.target = Some(store.clone());
                }
            }
        }
        self.reward_trace = returns;
        let params = match self.mode {
            TrajectoryMode::Best => best_snap,
            TrajectoryMode::MeanLast(_) => ParamStore::average(&Vec::from(recent)),
        };
        Ok((best_config, params))
    }

    fn learn_step(&mut self, opt: &mut Adam, tape: &mut Tape) {
        if self.replay.len() < self.cfg.batch_size {
            return;
        }
        let mut batch = Vec::with_capacity(self.cfg.batch_size);
        for _ in 0..self.cfg.batch_size {
            let i = self.rng.gen_range(0..self.replay.len());
            batch.push(&self.replay[i]);
        }
        // TD targets: every non-terminal next-state goes through ONE
        // batched forward pass of the bootstrap net. Row r of a batched
        // matmul runs the same per-element accumulation chain as a
        // single-row forward, so the targets are bit-identical to
        // per-transition inference.
        let need: Vec<usize> = batch
            .iter()
            .enumerate()
            .filter(|(_, t)| !(t.done || t.next_valid.is_empty()))
            .map(|(i, _)| i)
            .collect();
        let qnet = self.qnet.as_ref().expect("net");
        let mut maxq = vec![0.0f32; batch.len()];
        if !need.is_empty() {
            let bootstrap = self.target.as_ref().or(self.store.as_ref()).expect("store");
            let w = batch[need[0]].next_state.len();
            let next_rows = need
                .iter()
                .flat_map(|&i| batch[i].next_state.iter().copied())
                .collect();
            let qv =
                qnet.forward_reuse(tape, bootstrap, Tensor::from_vec(need.len(), w, next_rows));
            let qn = tape.value(qv);
            for (r, &i) in need.iter().enumerate() {
                let row = qn.row_slice(r);
                maxq[i] = batch[i]
                    .next_valid
                    .iter()
                    .map(|&c| row[c])
                    .fold(f32::NEG_INFINITY, f32::max);
            }
        }
        let mut rows = Vec::with_capacity(batch.len());
        let mut targets = Vec::with_capacity(batch.len());
        for (r, t) in batch.iter().enumerate() {
            let y = if t.done || t.next_valid.is_empty() {
                t.reward
            } else {
                t.reward + GAMMA * maxq[r]
            };
            rows.extend_from_slice(&t.state);
            targets.push((r, t.action, y));
        }
        let store = self.store.as_mut().expect("store");
        store.zero_grads();
        tape.reset();
        let x = tape.constant(Tensor::from_vec(
            batch.len(),
            rows.len() / batch.len(),
            rows,
        ));
        let q = qnet.forward(tape, store, x);
        let loss = tape.mse_selected(q, &targets);
        tape.backward(loss, store);
        opt.step(store);
    }

    /// `train`/`retrain`: refresh the candidates from the training set,
    /// run the phase, keep the `-b`/`-m` parameters and re-sync DQN's
    /// target net to them.
    fn fit(&mut self, cost: &dyn CostBackend, workload: &Workload, phase: Phase) -> CostResult<()> {
        self.candidates = match self.cfg.design {
            QDesign::Dqn {
                min_candidate_ndv, ..
            } => {
                let filtered = heuristic_candidates(cost, workload, min_candidate_ndv);
                if filtered.is_empty() {
                    workload.candidate_columns()
                } else {
                    filtered
                }
            }
            QDesign::DrlIndex { .. } => workload.candidate_columns(),
        };
        let (_, params) = self.run_trajectories(cost, workload, phase)?;
        let store = self.store.as_mut().expect("store");
        store.restore(&params);
        if self.target.is_some() {
            self.target = Some(store.clone());
        }
        Ok(())
    }
}

impl IndexAdvisor for QAdvisor {
    fn name(&self) -> String {
        let label = match self.cfg.design {
            QDesign::Dqn { .. } => "DQN",
            QDesign::DrlIndex { .. } => "DRLindex",
        };
        format!("{label}-{}", self.mode.suffix())
    }

    fn train(&mut self, cost: &dyn CostBackend, workload: &Workload) -> CostResult<()> {
        *self = QAdvisor::new(self.mode, self.cfg.clone());
        self.ensure_net(cost);
        self.fit(cost, workload, Phase::Train)
    }

    fn retrain(&mut self, cost: &dyn CostBackend, workload: &Workload) -> CostResult<()> {
        if self.store.is_none() {
            return self.train(cost, workload);
        }
        self.fit(cost, workload, Phase::Retrain)
    }

    fn recommend(
        &mut self,
        cost: &dyn CostBackend,
        workload: &Workload,
    ) -> CostResult<IndexConfig> {
        // Trials run on a scratch copy, so they cannot change the advisor;
        // only their reward trace is kept (Figure 8's inference trace).
        let mut trial = self.clone();
        trial.ensure_net(cost);
        if trial.candidates.is_empty() {
            trial.candidates = workload.candidate_columns();
        }
        let (best_config, params) = trial.run_trajectories(cost, workload, Phase::Trial)?;
        let result = match self.mode {
            TrajectoryMode::Best => best_config,
            TrajectoryMode::MeanLast(_) => {
                // Greedily decode under the mean trial parameters.
                trial.store.as_mut().expect("store").restore(&params);
                let store = trial.store.as_ref().expect("store");
                let env =
                    IndexEnv::new(cost, workload, trial.candidates.clone(), trial.cfg.budget)?;
                let ep = env.greedy_rollout(|ep, a| {
                    let state = trial.state_vec(cost, &trial.last_encoding, &ep.config);
                    let q = trial.q_values(store, &state);
                    f64::from(q[env.candidates[a].0 as usize])
                })?;
                ep.config
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

impl ClearBoxAdvisor for QAdvisor {
    fn column_preferences(&self, cost: &dyn CostBackend) -> Vec<(ColumnId, f64)> {
        let Some(store) = &self.store else {
            return Vec::new();
        };
        // Every run that built the net also recorded its encoding.
        let state = self.state_vec(cost, &self.last_encoding, &IndexConfig::empty());
        let q = self.q_values(store, &state);
        // DQN's filtered-out candidates carry zero weight — the paper
        // notes its internal parameters are "excessively sparse".
        let sparse = matches!(self.cfg.design, QDesign::Dqn { .. });
        cost.catalog()
            .schema
            .indexable_columns()
            .into_iter()
            .map(|c| {
                let pref = if sparse && !self.candidates.contains(&c) {
                    0.0
                } else {
                    f64::from(q[c.0 as usize])
                };
                (c, pref)
            })
            .collect()
    }
}

#[cfg(test)]
impl QAdvisor {
    pub(crate) fn candidates(&self) -> &[ColumnId] {
        &self.candidates
    }

    /// Parameter images of the online net and of DQN's target net.
    pub(crate) fn param_images(&self) -> (Vec<f32>, Option<Vec<f32>>) {
        (
            self.store.as_ref().expect("trained").snapshot(),
            self.target.as_ref().map(ParamStore::snapshot),
        )
    }
}
