//! End-to-end evidence that the fast NN kernels change *time*, not
//! *results*: a DRLindex advisor retrained under [`KernelMode::Naive`]
//! and under [`KernelMode::BlockedParallel`] must produce exactly the
//! same reward trajectory (`f64` equality — the advisor's decisions are
//! a deterministic function of seeded rng + kernel arithmetic, and the
//! kernels are bit-identical).
//!
//! The config widens the Q-network (hidden 256, batch 32) so the
//! retrain runs the blocked kernels on real work. The time side of the
//! same comparison is measured by `crates/bench/benches/nn.rs` and
//! reported as `retrain_speedup` in `results/BENCH_nn.json`.
//!
//! This is the only test in this binary: it flips the process-global
//! kernel mode, so it cannot share a test process with anything that
//! dispatches matmuls concurrently.

use pipa::ia::{IndexAdvisor, QAdvisor, QConfig, SpeedPreset, TrajectoryMode};
use pipa::nn::{kernel_mode, set_kernel_mode, KernelMode};
use pipa::workload::Benchmark;
use rand::SeedableRng;

fn nn_heavy_cfg() -> QConfig {
    QConfig {
        hidden: 256,
        batch_size: 32,
        train_trajectories: 25,
        trial_trajectories: 10,
        ..QConfig::drlindex(SpeedPreset::Paper, 7)
    }
}

/// Train a fresh seeded DRLindex advisor, then retrain it; returns the
/// post-retrain reward trace.
fn retrain_run(mode: KernelMode) -> Vec<f64> {
    set_kernel_mode(mode);
    let db = pipa::cost::SimBackend::new(Benchmark::TpcH.database(1.0, None));
    let g = pipa::workload::generator::WorkloadGenerator::new(
        Benchmark::TpcH.schema(),
        Benchmark::TpcH.default_templates(),
    );
    let w = g
        .normal(&mut rand_chacha::ChaCha8Rng::seed_from_u64(5))
        .unwrap();
    let mut ia = QAdvisor::new(TrajectoryMode::Best, nn_heavy_cfg());
    ia.train(&db, &w).expect("train");
    ia.retrain(&db, &w).expect("retrain");
    ia.reward_trace().to_vec()
}

#[test]
fn fast_kernels_leave_the_retrain_reward_trace_unchanged() {
    let initial = kernel_mode();
    let naive_a = retrain_run(KernelMode::Naive);
    let fast_a = retrain_run(KernelMode::BlockedParallel);
    let naive_b = retrain_run(KernelMode::Naive);
    let fast_b = retrain_run(KernelMode::BlockedParallel);
    set_kernel_mode(initial);

    // Determinism within a mode (same seeds, same arithmetic)…
    assert_eq!(naive_a, naive_b, "naive reruns must be deterministic");
    assert_eq!(fast_a, fast_b, "fast reruns must be deterministic");
    // …and across modes: the fast kernels are bit-identical to naive,
    // so every trajectory reward matches exactly.
    assert_eq!(
        naive_a, fast_a,
        "kernel mode must not change the reward trajectory"
    );
    assert!(!naive_a.is_empty(), "retrain must extend the reward trace");
}
