//! Skewed traffic at scale: a ≥1M-query Zipf/diurnal stream against an
//! SF-100 analytical database under hard memory bounds.
//!
//! Four legs, all seed-deterministic:
//!
//! * **stream** — a day of traffic (24 diurnal windows, bursty
//!   multi-tenant arrivals, Zipf template popularity) costed through the
//!   what-if path with the benefit matrix under a byte budget far below
//!   the stream's cell working set. Reports throughput, the matrix
//!   entry hit-ratio gap between Zipf and uniform popularity at the same
//!   budget (skew is what makes a bounded memo work), compaction
//!   counts, and — the hard contract — that the bounded run returns
//!   **bit-identical** costs to an unbounded re-run of the same draw
//!   sequence (compaction is presence-only; it can cost time, never
//!   correctness);
//! * **matrix** — the same pool scored under a sweep of single-index
//!   configurations with the benefit matrix *on* but under a byte
//!   budget: rotating shard compaction must keep the tracked footprint
//!   at the budget (peak overshoot ≤ one cell) while still answering;
//! * **tape** — a recorded what-if tape streamed to disk and back
//!   through the chunked reader with its size guard, proving the
//!   round trip and that the guard actually trips;
//! * **economics** — one equal-budget poisoning attack priced under
//!   hot-aligned vs cold-aligned Zipf traffic
//!   ([`pipa_core::traffic::poisoning_economics`]): the hot premium is
//!   what the attack is worth when it lands on head templates.
//!
//! Writes `results/BENCH_scale.json`; floors on the committed artifact
//! are enforced by `tests/results_schema.rs`. `SCALE_BENCH_SMOKE=1`
//! shrinks every dimension and skips the artifact write (CI smoke).

use pipa_core::experiment::{CellConfig, InjectorKind};
use pipa_core::runner::CellSeed;
use pipa_core::traffic::{poisoning_economics, PoisonEconomics};
use pipa_cost::{CostBackend, CostError, RecordingBackend, ReplayBackend, DEFAULT_TAPE_BYTE_LIMIT};
use pipa_ia::{AdvisorKind, SpeedPreset, TrajectoryMode};
use pipa_sim::{Database, Index, IndexConfig};
use pipa_workload::{Arrivals, Benchmark, Diurnal, TrafficModel, WorkloadGenerator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

const SEED: u64 = 0x5CA1E;

/// A business day with bursty multi-tenant arrivals layered on `model`.
fn business_day(mut model: TrafficModel) -> TrafficModel {
    model.diurnal = Diurnal::business();
    model.arrivals = Arrivals::Bursty {
        tenants: 8,
        burst_every: 6,
        burst_len: 2,
        burst_mult: 3.0,
    };
    model
}

#[derive(Serialize)]
struct StreamLeg {
    /// Total queries streamed (Σ window loads) — the ≥1M floor.
    queries: u64,
    windows: u64,
    /// Distinct (template, slot) pool size per window.
    distinct_pool_per_window: usize,
    /// Matrix byte budget of the bounded runs.
    matrix_byte_budget: usize,
    /// Peak matrix footprint of the unbounded re-run: the stream's cell
    /// working set, which the budget must sit below.
    working_set_bytes: usize,
    zipf_exponent: f64,
    elapsed_s: f64,
    throughput_qps: f64,
    /// Matrix entry hits / (hits + misses) over the bounded runs.
    hit_ratio_zipf: f64,
    hit_ratio_uniform: f64,
    /// Rotating shard clears forced by the budget in the bounded Zipf run.
    compactions: u64,
    /// Peak tracked footprint of the bounded Zipf run.
    peak_bytes: usize,
    /// Bounded-vs-unbounded differential: XOR/rotate fold over every
    /// cost's f64 bits, equal iff every cost is bit-identical.
    bounded_bits_identical: bool,
    /// Peak-hour vs trough window load (the diurnal curve, realized).
    peak_window_load: usize,
    trough_window_load: usize,
}

#[derive(Serialize)]
struct MatrixLeg {
    byte_budget: usize,
    peak_bytes: usize,
    resident_bytes: usize,
    compactions: u64,
    configs_swept: usize,
}

#[derive(Serialize)]
struct TapeLeg {
    entries: usize,
    bytes_streamed: u64,
    round_trip_ok: bool,
    guard_trips: bool,
}

#[derive(Serialize)]
struct BenchArtifact {
    id: String,
    description: String,
    provenance: pipa_bench::cli::Provenance,
    scale_factor: f64,
    seed: u64,
    smoke: bool,
    stream: StreamLeg,
    matrix: MatrixLeg,
    tape: TapeLeg,
    economics: PoisonEconomics,
}

/// Fold a cost stream into an order-sensitive bit fingerprint: equal
/// iff every f64 in the stream is bit-identical.
fn fold_bits(acc: u64, cost: f64) -> u64 {
    acc.rotate_left(1) ^ cost.to_bits()
}

struct StreamRun {
    total: u64,
    fingerprint: u64,
    elapsed_s: f64,
    peak_load: usize,
    trough_load: usize,
    matrix: pipa_sim::MatrixStats,
}

/// Drive `windows` windows of `model` traffic through the what-if path
/// from a cleared matrix under the database's current byte budget. Pure
/// in `(model, base, seed)`.
fn run_stream(
    db: &Database,
    gen: &WorkloadGenerator,
    cfg: &IndexConfig,
    model: &TrafficModel,
    windows: u64,
    base: usize,
    seed: u64,
) -> StreamRun {
    db.clear_whatif_matrix();
    let start = Instant::now();
    let mut total = 0u64;
    let mut fingerprint = 0u64;
    let mut peak_load = 0usize;
    let mut trough_load = usize::MAX;
    for w in 0..windows {
        let traffic = model
            .window_traffic(gen, w, seed)
            .expect("window pool instantiates");
        let load = model.window_load(w, base, seed);
        peak_load = peak_load.max(load);
        trough_load = trough_load.min(load);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ w.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for _ in 0..load {
            let q = traffic.query(traffic.sample(&mut rng));
            fingerprint = fold_bits(fingerprint, db.estimated_query_cost(q, cfg));
        }
        total += load as u64;
    }
    StreamRun {
        total,
        fingerprint,
        elapsed_s: start.elapsed().as_secs_f64(),
        peak_load,
        trough_load,
        matrix: db.whatif_matrix_stats(),
    }
}

fn main() {
    let bench = pipa_bench::cli::BenchArgs::for_bench("scale");
    let smoke = bench.smoke;
    let scale_factor = 100.0;
    let (windows, base, slots, stream_budget) = if smoke {
        (4u64, 1_500usize, 8usize, 8 * 1024usize)
    } else {
        (24u64, 70_000usize, 64usize, 64 * 1024usize)
    };

    eprintln!("[scale] synthesizing SF-{scale_factor} statistics (no rows materialized)...");
    let cost = pipa_cost::SimBackend::new(Benchmark::TpcH.database(scale_factor, None));
    let db = cost.database();
    let gen = WorkloadGenerator::new(
        Benchmark::TpcH.schema(),
        Benchmark::TpcH.default_templates(),
    );

    // A fixed, modest index configuration: the first candidate columns
    // of the window-0 pool, one single-column index each. What matters
    // is that costing is index-sensitive, not that the config is good.
    let zipf = business_day(TrafficModel::zipf(1.1, slots));
    let pool0 = zipf
        .window_traffic(&gen, 0, SEED)
        .expect("window 0 instantiates");
    let mut agg_rng = ChaCha8Rng::seed_from_u64(SEED);
    let (pool_w, _) = pool0.sample_workload(256, &mut agg_rng);
    let cfg: IndexConfig = IndexConfig::from_indexes(
        pool_w
            .candidate_columns()
            .into_iter()
            .take(6)
            .map(Index::single),
    );

    // --- stream leg: bounded Zipf vs uniform, then unbounded replay ---
    db.set_whatif_matrix_byte_budget(stream_budget);
    eprintln!(
        "[scale] streaming {windows} windows (Zipf, matrix capped at {} KiB, {} distinct per window)...",
        stream_budget / 1024,
        pool0.distinct_queries()
    );
    let bounded = run_stream(db, &gen, &cfg, &zipf, windows, base, SEED);

    let uniform_model = business_day(TrafficModel::uniform(slots));
    eprintln!("[scale] streaming uniform baseline at the same budget...");
    let uniform = run_stream(db, &gen, &cfg, &uniform_model, windows, base, SEED);

    eprintln!("[scale] unbounded re-run for the bit-identity differential...");
    db.set_whatif_matrix_byte_budget(usize::MAX);
    let unbounded = run_stream(db, &gen, &cfg, &zipf, windows, base, SEED);
    assert_eq!(bounded.total, unbounded.total);
    let bounded_bits_identical = bounded.fingerprint == unbounded.fingerprint;
    assert!(
        bounded_bits_identical,
        "bounded matrix changed a cost bit: {:#x} vs {:#x}",
        bounded.fingerprint, unbounded.fingerprint
    );
    let working_set_bytes = unbounded.matrix.peak_bytes;
    assert!(
        stream_budget < working_set_bytes,
        "budget {stream_budget} B must sit below the {working_set_bytes} B working set"
    );

    let stream = StreamLeg {
        queries: bounded.total,
        windows,
        distinct_pool_per_window: pool0.distinct_queries(),
        matrix_byte_budget: stream_budget,
        working_set_bytes,
        zipf_exponent: 1.1,
        elapsed_s: bounded.elapsed_s,
        throughput_qps: bounded.total as f64 / bounded.elapsed_s.max(1e-9),
        hit_ratio_zipf: bounded.matrix.entry_hit_ratio(),
        hit_ratio_uniform: uniform.matrix.entry_hit_ratio(),
        compactions: bounded.matrix.compactions,
        peak_bytes: bounded.matrix.peak_bytes,
        bounded_bits_identical,
        peak_window_load: bounded.peak_load,
        trough_window_load: bounded.trough_load,
    };
    eprintln!(
        "[scale] {} queries in {:.2}s ({:.0} q/s); matrix hit ratio zipf {:.3} vs uniform {:.3}; {} compactions",
        stream.queries,
        stream.elapsed_s,
        stream.throughput_qps,
        stream.hit_ratio_zipf,
        stream.hit_ratio_uniform,
        stream.compactions
    );

    // --- matrix leg: byte-budgeted benefit matrix under a config sweep
    db.clear_whatif_matrix();
    let byte_budget = if smoke { 16 * 1024 } else { 64 * 1024 };
    db.set_whatif_matrix_byte_budget(byte_budget);
    let sweep: Vec<IndexConfig> = pool_w
        .candidate_columns()
        .into_iter()
        .take(if smoke { 4 } else { 12 })
        .map(|c| IndexConfig::from_indexes([Index::single(c)]))
        .collect();
    eprintln!(
        "[scale] sweeping {} single-index configs under a {} KiB matrix budget...",
        sweep.len(),
        byte_budget / 1024
    );
    for sweep_cfg in &sweep {
        for i in 0..pool0.distinct_queries() {
            black_box(db.estimated_query_cost(pool0.query(i), sweep_cfg));
        }
    }
    let mstats = db.whatif_matrix_stats();
    let matrix = MatrixLeg {
        byte_budget,
        peak_bytes: mstats.peak_bytes,
        resident_bytes: mstats.approx_bytes,
        compactions: mstats.compactions,
        configs_swept: sweep.len(),
    };
    eprintln!(
        "[scale] matrix peak {} B (budget {} B), {} compactions",
        matrix.peak_bytes, matrix.byte_budget, matrix.compactions
    );
    db.set_whatif_matrix_byte_budget(usize::MAX);

    // --- tape leg: streamed what-if tape with the size guard ----------
    let rec = RecordingBackend::new(&cost);
    let mut tape_rng = ChaCha8Rng::seed_from_u64(SEED ^ 0x7a9e);
    let (tape_w, _) = pool0.sample_workload(if smoke { 64 } else { 512 }, &mut tape_rng);
    for wq in tape_w.iter() {
        rec.query_cost(&wq.query, &cfg).expect("record est cost");
    }
    let tape = rec.tape();
    let path = std::env::temp_dir().join(format!("pipa_scale_tape_{}.jsonl", std::process::id()));
    let bytes_streamed = tape.write_jsonl_file(&path).expect("tape write streams");
    let reread = pipa_cost::Tape::read_jsonl_file(&path, DEFAULT_TAPE_BYTE_LIMIT)
        .expect("tape reads back under the default guard");
    let round_trip_ok = reread == tape;
    let guard_trips = matches!(
        pipa_cost::Tape::read_jsonl_file(&path, bytes_streamed / 2),
        Err(CostError::TapeTooLarge { .. })
    );
    // Replaying the streamed tape must answer the recorded pairs.
    let replay = ReplayBackend::new(cost.catalog(), reread);
    let wq0 = tape_w.iter().next().expect("nonempty tape workload");
    let replayed = replay.query_cost(&wq0.query, &cfg).expect("replay hit");
    assert_eq!(
        replayed.to_bits(),
        cost.query_cost(&wq0.query, &cfg).unwrap().to_bits(),
        "replayed cost must be bit-identical"
    );
    let _ = std::fs::remove_file(&path);
    let tape_leg = TapeLeg {
        entries: tape.est_len(),
        bytes_streamed,
        round_trip_ok,
        guard_trips,
    };
    eprintln!(
        "[scale] tape: {} entries, {} bytes streamed, round trip {}",
        tape_leg.entries, tape_leg.bytes_streamed, tape_leg.round_trip_ok
    );

    // --- economics leg: hot-vs-cold pricing of one PIPA attack --------
    let mut cell = CellConfig::quick(Benchmark::TpcH);
    cell.scale = scale_factor;
    if smoke {
        cell.preset = SpeedPreset::Test;
        cell.probe_epochs = 2;
        cell.injection_size = 6;
    }
    eprintln!("[scale] pricing one equal-budget attack under hot vs cold traffic...");
    let economics = poisoning_economics(
        &cost,
        &cell,
        AdvisorKind::DbaBandit(TrajectoryMode::Best),
        InjectorKind::Pipa,
        1.1,
        CellSeed::derive(SEED, 0),
    )
    .expect("economics pipeline");
    assert!(
        economics.ad_hot >= economics.ad_cold - 1e-12,
        "hot alignment must dominate: {} < {}",
        economics.ad_hot,
        economics.ad_cold
    );
    eprintln!(
        "[scale] AD uniform {:.4} | hot {:.4} | cold {:.4} (hot premium {:.4})",
        economics.ad_uniform,
        economics.ad_hot,
        economics.ad_cold,
        economics.hot_premium()
    );

    let artifact = BenchArtifact {
        id: "BENCH_scale".to_string(),
        description: "≥1M-query Zipf/diurnal stream at SF 100 through a byte-budgeted \
                      benefit matrix (bit-identical to unbounded), a budgeted config sweep, \
                      streamed cost tape with size guard, and hot-vs-cold poisoning \
                      economics"
            .to_string(),
        provenance: pipa_bench::cli::provenance(cell.preset),
        scale_factor,
        seed: SEED,
        smoke,
        stream,
        matrix,
        tape: tape_leg,
        economics,
    };
    bench.write_artifact(&artifact);
}
