//! End-to-end evidence that the fast NN kernels change *time*, not
//! *results*: a DRLindex advisor retrained under [`KernelMode::Naive`]
//! and under [`KernelMode::BlockedParallel`] must produce exactly the
//! same reward trajectory (`f64` equality — the advisor's decisions are
//! a deterministic function of seeded rng + kernel arithmetic, and the
//! kernels are bit-identical), while the instrumented `advisor_retrain`
//! timing shrinks.
//!
//! The config widens the Q-network (hidden 256, batch 32) so the
//! retrain is dominated by kernel work: at `SpeedPreset::Test` scale
//! the mode delta sits inside a 1-CPU box's scheduler noise, which
//! would make a strict timing assertion flaky.
//!
//! This is the only test in this binary: it flips the process-global
//! kernel mode, so it cannot share a test process with anything that
//! dispatches matmuls concurrently.

use pipa::ia::{IndexAdvisor, Instrumented, QAdvisor, QConfig, SpeedPreset, TrajectoryMode};
use pipa::nn::{kernel_mode, set_kernel_mode, KernelMode};
use pipa::obs::{record_cell, CellCtx};
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

/// Train a fresh seeded DRLindex advisor, then retrain it under
/// recording; returns the post-retrain reward trace and the
/// `advisor_retrain` wall-clock nanos parsed from the recorded metrics
/// channel.
fn retrain_run(mode: KernelMode, cell: u64) -> (Vec<f64>, u64) {
    set_kernel_mode(mode);
    let db = pipa::cost::SimBackend::new(Benchmark::TpcH.database(1.0, None));
    let g = pipa::workload::generator::WorkloadGenerator::new(
        Benchmark::TpcH.schema(),
        Benchmark::TpcH.default_templates(),
    );
    let w = g
        .normal(&mut rand_chacha::ChaCha8Rng::seed_from_u64(5))
        .unwrap();
    let mut ia = Instrumented::new(QAdvisor::new(TrajectoryMode::Best, nn_heavy_cfg()));
    ia.train(&db, &w).expect("train");
    let (rewards, trace) = record_cell(true, CellCtx::new(cell), || {
        ia.retrain(&db, &w).expect("retrain");
        ia.reward_trace().to_vec()
    });
    let line = trace
        .metrics
        .iter()
        .find(|l| l.contains("\"event\":\"timing\"") && l.contains("\"name\":\"advisor_retrain\""))
        .expect("retrain under recording must emit an advisor_retrain timing");
    let nanos: u64 = line
        .split("\"nanos\":")
        .nth(1)
        .expect("timing line carries nanos")
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("nanos is an integer");
    (rewards, nanos)
}

#[test]
fn fast_kernels_shrink_retrain_time_without_changing_rewards() {
    let initial = kernel_mode();
    // Interleaved, two runs per mode; compare the minima so a single
    // scheduler hiccup can't flip the timing comparison.
    let (naive_a, t_na) = retrain_run(KernelMode::Naive, 101);
    let (fast_a, t_fa) = retrain_run(KernelMode::BlockedParallel, 102);
    let (naive_b, t_nb) = retrain_run(KernelMode::Naive, 103);
    let (fast_b, t_fb) = retrain_run(KernelMode::BlockedParallel, 104);
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

    let naive_ns = t_na.min(t_nb);
    let fast_ns = t_fa.min(t_fb);
    assert!(
        fast_ns < naive_ns,
        "blocked/parallel retrain ({fast_ns} ns) should beat naive ({naive_ns} ns)"
    );
}
