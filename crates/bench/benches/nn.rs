//! NN kernel throughput: blocked/parallel matmul, pooled tapes, and the
//! batched training / KV-cached decoding paths versus the naive loops
//! they replaced.
//!
//! Cells:
//!
//! * `nn/matmul_{naive,blocked,parallel}` — a square dense product
//!   through each [`KernelMode`] (explicit-mode entry points, so the
//!   global mode is untouched);
//! * `nn/matmul_t_{naive,blocked}` — the `A·Bᵀ` variant that dominates
//!   attention scores and the matmul backward pass;
//! * `nn/mlp_train_{naive,fast}` — one DQN-shaped learn step. The naive
//!   variant replicates the seed hot path: per-transition target-network
//!   evaluation, each cloning the whole parameter store and running a
//!   single-row forward on a fresh tape, under `KernelMode::Naive`. The
//!   fast variant uses the cached target store, ONE batched target
//!   forward, and a pooled (reused) tape under the blocked kernels;
//! * `nn/decode_{naive,fast}` — an IABART-shaped transformer generating
//!   `T` tokens: full encoder–decoder re-run per token
//!   (`next_token_logits`) versus the KV-cached `DecodeSession`;
//! * `retrain_speedup` — end to end: one DRLindex `retrain` (hidden 256,
//!   batch 32, on TPC-H) under `KernelMode::Naive` versus
//!   `KernelMode::BlockedParallel`, two interleaved runs per mode, best
//!   of each. The reward traces must match bit for bit (the tier-1 twin
//!   is `tests/nn_train_speedup.rs`); `tests/results_schema.rs` floors
//!   the committed speedup above 1.
//!
//! Every fast path is bit-identical to its naive counterpart (proven by
//! `tests/nn_kernel_differential.rs` and the in-crate unit tests; this
//! harness re-asserts the decode equality once before timing), so the
//! comparison is pure speed.
//!
//! A custom `main` (`harness = false`) re-reads the criterion JSON lines
//! and writes `results/BENCH_nn.json` with medians, speedups, the
//! `pipa-nn` kernel counters (taken before the retrain leg) and the
//! measurement's provenance. `NN_BENCH_SMOKE=1` shrinks every criterion
//! cell's dimensions and skips the artifact write (CI smoke).

use pipa_cost::SimBackend;
use pipa_ia::{IndexAdvisor, QAdvisor, QConfig, SpeedPreset, TrajectoryMode};
use pipa_nn::kernels::{self, matmul_t_with_mode, matmul_with_mode};
use pipa_nn::mlp::Activation;
use pipa_nn::{
    set_kernel_mode, Adam, KernelMode, Mlp, Optimizer, ParamStore, Seq2SeqTransformer, Tape,
    Tensor, TransformerConfig,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

#[derive(Serialize)]
struct Medians {
    matmul_naive: Option<f64>,
    matmul_blocked: Option<f64>,
    matmul_parallel: Option<f64>,
    matmul_t_naive: Option<f64>,
    matmul_t_blocked: Option<f64>,
    mlp_train_naive: Option<f64>,
    mlp_train_fast: Option<f64>,
    decode_naive: Option<f64>,
    decode_fast: Option<f64>,
}

#[derive(Serialize)]
struct MatmulDims {
    m: usize,
    k: usize,
    n: usize,
}

#[derive(Serialize)]
struct KernelCounters {
    matmuls: u64,
    flops: u64,
    buf_reuses: u64,
}

#[derive(Serialize)]
struct BenchArtifact {
    id: String,
    description: String,
    threads: usize,
    matmul_dims: MatmulDims,
    mlp_batch: usize,
    decode_tokens: usize,
    median_ns: Medians,
    matmul_blocked_speedup: Option<f64>,
    matmul_parallel_speedup: Option<f64>,
    matmul_t_speedup: Option<f64>,
    mlp_train_speedup: Option<f64>,
    decode_speedup: Option<f64>,
    retrain_ns: RetrainNanos,
    retrain_speedup: f64,
    kernel_counters: KernelCounters,
    provenance: pipa_bench::cli::Provenance,
}

#[derive(Serialize)]
struct RetrainNanos {
    naive: u64,
    fast: u64,
}

/// The retrain leg's advisor: DRLindex widened (hidden 256, batch 32) so
/// the retrain is dominated by kernel work. It takes a few seconds, so
/// smoke runs keep it at full size.
fn nn_heavy_cfg() -> QConfig {
    QConfig {
        hidden: 256,
        batch_size: 32,
        train_trajectories: 25,
        trial_trajectories: 10,
        ..QConfig::drlindex(SpeedPreset::Paper, 7)
    }
}

/// Train a fresh seeded DRLindex advisor, then time its retrain under
/// `mode`; returns the retrain's reward trace and wall-clock nanos.
fn retrain_run(mode: KernelMode) -> (Vec<f64>, u64) {
    set_kernel_mode(mode);
    let db = SimBackend::new(pipa_workload::Benchmark::TpcH.database(1.0, None));
    let g = pipa_workload::WorkloadGenerator::new(
        pipa_workload::Benchmark::TpcH.schema(),
        pipa_workload::Benchmark::TpcH.default_templates(),
    );
    let w = g
        .normal(&mut ChaCha8Rng::seed_from_u64(5))
        .expect("workload");
    let mut ia = QAdvisor::new(TrajectoryMode::Best, nn_heavy_cfg());
    ia.train(&db, &w).expect("train");
    let t0 = Instant::now();
    ia.retrain(&db, &w).expect("retrain");
    let nanos = t0.elapsed().as_nanos() as u64;
    (ia.reward_trace().to_vec(), nanos)
}

/// Deterministic pseudo-random fill (no rng stream dependency).
fn fill(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let data = (0..rows * cols)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) % 2_000) as f32 / 1_000.0 - 1.0
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

fn main() {
    let bench = pipa_bench::cli::BenchArgs::for_bench("nn");
    let smoke = bench.smoke;
    let mut c = bench.criterion(10);
    kernels::reset_stats();

    // --- raw matmul kernels -------------------------------------------
    let (mm, mk, mn) = if smoke { (24, 24, 24) } else { (128, 128, 128) };
    let a = fill(mm, mk, 1);
    let b = fill(mk, mn, 2);
    let bt = fill(mn, mk, 3);
    for (name, mode) in [
        ("nn/matmul_naive", KernelMode::Naive),
        ("nn/matmul_blocked", KernelMode::Blocked),
        ("nn/matmul_parallel", KernelMode::BlockedParallel),
    ] {
        c.bench_function(name, |bch| {
            bch.iter(|| black_box(matmul_with_mode(&a, &b, mode)))
        });
    }
    for (name, mode) in [
        ("nn/matmul_t_naive", KernelMode::Naive),
        ("nn/matmul_t_blocked", KernelMode::Blocked),
    ] {
        c.bench_function(name, |bch| {
            bch.iter(|| black_box(matmul_t_with_mode(&a, &bt, mode)))
        });
    }

    // --- replay-learn-step MLP (DRLindex shape: 8×61 query-column
    // matrix + config bitmap → 549-wide state, as on TPC-H) ------------
    let (batch, width, hidden, out) = if smoke {
        (4, 16, 8, 8)
    } else {
        (64, 549, 64, 61)
    };
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let mut base_store = ParamStore::new();
    let qnet = Mlp::new(
        &mut base_store,
        "q",
        &[width, hidden, out],
        Activation::Relu,
        &mut rng,
    );
    let snap = base_store.snapshot();
    let states = fill(batch, width, 4);

    set_kernel_mode(KernelMode::Naive);
    let mut store_n = base_store.clone();
    let mut opt_n = Adam::new(1e-3);
    c.bench_function("nn/mlp_train_naive", |bch| {
        bch.iter(|| {
            // Seed hot path: per-transition target evaluation, each with
            // a full store clone + restore and a fresh single-row tape.
            let mut targets = Vec::with_capacity(batch);
            for r in 0..batch {
                let mut ts = store_n.clone();
                ts.restore(&snap);
                let q = qnet.infer(&ts, &Tensor::row(states.row_slice(r).to_vec()));
                let maxq = q.data.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                targets.push((r, r % out, 0.5 + 0.9 * maxq));
            }
            store_n.zero_grads();
            let mut tape = Tape::new();
            let x = tape.constant(states.clone());
            let q = qnet.forward(&mut tape, &store_n, x);
            let loss = tape.mse_selected(q, &targets);
            tape.backward(loss, &mut store_n);
            opt_n.step(&mut store_n);
        })
    });

    set_kernel_mode(KernelMode::BlockedParallel);
    let mut store_f = base_store.clone();
    let mut target_store = base_store.clone();
    target_store.restore(&snap);
    let mut opt_f = Adam::new(1e-3);
    let mut tape = Tape::new();
    c.bench_function("nn/mlp_train_fast", |bch| {
        bch.iter(|| {
            // Fast path: cached target store, one batched target forward,
            // pooled tape reused for the training pass.
            let qv = qnet.forward_reuse(&mut tape, &target_store, states.clone());
            let mut targets = Vec::with_capacity(batch);
            {
                let qn = tape.value(qv);
                for r in 0..batch {
                    let maxq = qn
                        .row_slice(r)
                        .iter()
                        .copied()
                        .fold(f32::NEG_INFINITY, f32::max);
                    targets.push((r, r % out, 0.5 + 0.9 * maxq));
                }
            }
            store_f.zero_grads();
            tape.reset();
            let x = tape.constant(states.clone());
            let q = qnet.forward(&mut tape, &store_f, x);
            let loss = tape.mse_selected(q, &targets);
            tape.backward(loss, &mut store_f);
            opt_f.step(&mut store_f);
        })
    });

    // --- IABART-shaped incremental decoding ---------------------------
    let tcfg = if smoke {
        TransformerConfig {
            vocab: 24,
            d_model: 16,
            n_heads: 2,
            n_enc_layers: 1,
            n_dec_layers: 1,
            d_ff: 24,
            max_len: 32,
        }
    } else {
        TransformerConfig {
            vocab: 120,
            d_model: 48,
            n_heads: 4,
            n_enc_layers: 2,
            n_dec_layers: 2,
            d_ff: 96,
            max_len: 96,
        }
    };
    let decode_tokens = if smoke { 6 } else { 24 };
    let vocab = tcfg.vocab;
    let mut store_t = ParamStore::new();
    let model = Seq2SeqTransformer::new(&mut store_t, tcfg, &mut rng);
    let src: Vec<usize> = (0..8).map(|i| (i * 7 + 3) % vocab).collect();
    let toks: Vec<usize> = (0..decode_tokens).map(|i| (i * 13 + 5) % vocab).collect();

    // Re-assert the bit-equality the speed comparison rests on.
    {
        let mut sess = model.start_session(&store_t, &src);
        for t in 1..=decode_tokens {
            let full = model.next_token_logits(&store_t, &src, &toks[..t]);
            let inc = model.session_advance(&store_t, &mut sess, &toks[t - 1..t]);
            let inc_row = inc.row_slice(inc.rows - 1);
            assert_eq!(full.len(), inc_row.len());
            for (x, y) in full.iter().zip(inc_row) {
                assert_eq!(x.to_bits(), y.to_bits(), "session logits diverge at t={t}");
            }
        }
    }

    c.bench_function("nn/decode_naive", |bch| {
        bch.iter(|| {
            let mut acc = 0.0f32;
            for t in 1..=decode_tokens {
                let l = model.next_token_logits(&store_t, &src, &toks[..t]);
                acc += l[0];
            }
            black_box(acc)
        })
    });
    c.bench_function("nn/decode_fast", |bch| {
        bch.iter(|| {
            let mut sess = model.start_session(&store_t, &src);
            let mut acc = 0.0f32;
            for t in 1..=decode_tokens {
                let out = model.session_advance(&store_t, &mut sess, &toks[t - 1..t]);
                acc += out.row_slice(out.rows - 1)[0];
            }
            black_box(acc)
        })
    });

    // Counters cover the criterion cells only, not the retrain leg.
    let stats = kernels::stats();

    // --- end-to-end retrain, naive vs fast kernels --------------------
    // Interleaved, two runs per mode; the minima keep one scheduler
    // hiccup from flipping the comparison.
    let (naive_a, t_na) = retrain_run(KernelMode::Naive);
    let (fast_a, t_fa) = retrain_run(KernelMode::BlockedParallel);
    let (naive_b, t_nb) = retrain_run(KernelMode::Naive);
    let (fast_b, t_fb) = retrain_run(KernelMode::BlockedParallel);
    set_kernel_mode(KernelMode::BlockedParallel);
    assert!(
        naive_a == naive_b && fast_a == fast_b && naive_a == fast_a,
        "kernel mode must not change the retrain reward trace"
    );
    let retrain_ns = RetrainNanos {
        naive: t_na.min(t_nb),
        fast: t_fa.min(t_fb),
    };
    let retrain_speedup = retrain_ns.naive as f64 / retrain_ns.fast as f64;

    // --- artifact ------------------------------------------------------
    let lines = bench.lines();
    let med = |id: &str| pipa_bench::cli::median_of(&lines, id);
    let ratio = pipa_bench::cli::ratio;
    let medians = Medians {
        matmul_naive: med("nn/matmul_naive"),
        matmul_blocked: med("nn/matmul_blocked"),
        matmul_parallel: med("nn/matmul_parallel"),
        matmul_t_naive: med("nn/matmul_t_naive"),
        matmul_t_blocked: med("nn/matmul_t_blocked"),
        mlp_train_naive: med("nn/mlp_train_naive"),
        mlp_train_fast: med("nn/mlp_train_fast"),
        decode_naive: med("nn/decode_naive"),
        decode_fast: med("nn/decode_fast"),
    };
    let matmul_blocked_speedup = ratio(medians.matmul_naive, medians.matmul_blocked);
    let matmul_parallel_speedup = ratio(medians.matmul_naive, medians.matmul_parallel);
    let matmul_t_speedup = ratio(medians.matmul_t_naive, medians.matmul_t_blocked);
    let mlp_train_speedup = ratio(medians.mlp_train_naive, medians.mlp_train_fast);
    let decode_speedup = ratio(medians.decode_naive, medians.decode_fast);

    for (label, s) in [
        ("matmul blocked  ", matmul_blocked_speedup),
        ("matmul parallel ", matmul_parallel_speedup),
        ("matmul_t blocked", matmul_t_speedup),
        ("MLP train step  ", mlp_train_speedup),
        ("decode step     ", decode_speedup),
        ("DRLindex retrain", Some(retrain_speedup)),
    ] {
        if let Some(s) = s {
            println!("{label}: speedup {s:.2}x");
        }
    }

    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let artifact = BenchArtifact {
        id: "BENCH_nn".to_string(),
        description: "blocked/parallel NN kernels, pooled tapes, batched DQN targets, and \
                      KV-cached transformer decoding vs the naive seed paths, and one DRLindex \
                      retrain under naive vs blocked/parallel kernels (all fast paths \
                      bit-identical to naive; see tests/nn_kernel_differential.rs)"
            .to_string(),
        threads,
        matmul_dims: MatmulDims {
            m: mm,
            k: mk,
            n: mn,
        },
        mlp_batch: batch,
        decode_tokens,
        median_ns: medians,
        matmul_blocked_speedup,
        matmul_parallel_speedup,
        matmul_t_speedup,
        mlp_train_speedup,
        decode_speedup,
        retrain_ns,
        retrain_speedup,
        kernel_counters: KernelCounters {
            matmuls: stats.matmuls,
            flops: stats.flops,
            buf_reuses: stats.buf_reuses,
        },
        provenance: pipa_bench::cli::provenance(SpeedPreset::Paper),
    };
    bench.write_artifact(&artifact);
}
