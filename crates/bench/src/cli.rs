//! Minimal hand-rolled CLI shared by the experiment binaries (keeping
//! the dependency set to the sanctioned list — no clap).
//!
//! Common flags:
//!
//! * `--runs N` — repetitions per cell (default: per-experiment);
//! * `--seed N` — base seed (default 0);
//! * `--scale F` — benchmark scale factor (default 1.0);
//! * `--benchmark tpch|tpcds` — default tpch;
//! * `--quick` — quick advisor preset + ST generator (default);
//! * `--paper` — paper-scale trajectory counts + trained IABART;
//! * `--iabart` — force the IABART generator backend;
//! * `--actual` — materialize data and measure actual executed costs;
//! * `--jobs N` — worker threads for independent cells (0 = all cores,
//!   default 1; results are bit-identical for every N);
//! * `--out DIR` — write a JSON artifact (default `results/`);
//! * `--trace PATH` — write the deterministic per-cell event stream as
//!   JSONL (byte-identical for every `--jobs` setting);
//! * `--metrics-out PATH` — write wall-clock timing metrics as JSONL
//!   (*not* deterministic — timings vary run to run);
//! * `--test` — tiny advisor preset for smoke tests/CI.

use pipa_core::experiment::{CellConfig, GenBackend};
use pipa_core::runner::CellSeed;
use pipa_ia::SpeedPreset;
use pipa_obs::TraceOutputs;
use pipa_workload::Benchmark;

/// Parsed common arguments.
#[derive(Debug, Clone)]
pub struct ExpArgs {
    /// Repetitions per experiment cell.
    pub runs: usize,
    /// Base seed.
    pub seed: u64,
    /// Scale factor.
    pub scale: f64,
    /// Benchmark.
    pub benchmark: Benchmark,
    /// Advisor speed preset.
    pub preset: SpeedPreset,
    /// Use the trained IABART generator.
    pub use_iabart: bool,
    /// Materialize data for actual-cost measurement.
    pub actual: bool,
    /// Worker threads for independent cells (0 = available parallelism).
    pub jobs: usize,
    /// Artifact output directory.
    pub out_dir: String,
    /// Deterministic trace JSONL path (`--trace`).
    pub trace: Option<String>,
    /// Wall-clock metrics JSONL path (`--metrics-out`).
    pub metrics_out: Option<String>,
    /// Remaining positional / unknown args (experiment-specific).
    pub rest: Vec<String>,
}

impl Default for ExpArgs {
    fn default() -> Self {
        ExpArgs {
            runs: 3,
            seed: 0,
            scale: 1.0,
            benchmark: Benchmark::TpcH,
            preset: SpeedPreset::Quick,
            use_iabart: false,
            actual: false,
            jobs: 1,
            out_dir: "results".to_string(),
            trace: None,
            metrics_out: None,
            rest: Vec::new(),
        }
    }
}

impl ExpArgs {
    /// Parse from `std::env::args` with a default run count.
    pub fn parse(default_runs: usize) -> Self {
        let mut a = ExpArgs {
            runs: default_runs,
            ..Default::default()
        };
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--runs" => a.runs = next_parse(&mut it, "--runs"),
                "--seed" => a.seed = next_parse(&mut it, "--seed"),
                "--scale" => a.scale = next_parse(&mut it, "--scale"),
                "--benchmark" => {
                    let b: String = next_parse(&mut it, "--benchmark");
                    a.benchmark = match b.as_str() {
                        "tpch" => Benchmark::TpcH,
                        "tpcds" => Benchmark::TpcDs,
                        other => panic!("unknown benchmark {other} (tpch|tpcds)"),
                    };
                }
                "--quick" => a.preset = SpeedPreset::Quick,
                "--paper" => {
                    a.preset = SpeedPreset::Paper;
                    a.use_iabart = true;
                }
                "--test" => a.preset = SpeedPreset::Test,
                "--iabart" => a.use_iabart = true,
                "--actual" => a.actual = true,
                "--jobs" => a.jobs = next_parse(&mut it, "--jobs"),
                "--out" => a.out_dir = next_parse(&mut it, "--out"),
                "--trace" => a.trace = Some(next_parse(&mut it, "--trace")),
                "--metrics-out" => a.metrics_out = Some(next_parse(&mut it, "--metrics-out")),
                other => a.rest.push(other.to_string()),
            }
        }
        a
    }

    /// Cell configuration derived from the flags. Training the IABART
    /// backend (when requested) happens here, once.
    pub fn cell_config(&self) -> CellConfig {
        let mut cfg = CellConfig::quick(self.benchmark);
        cfg.scale = self.scale;
        cfg.preset = self.preset;
        cfg.probe_epochs = match self.preset {
            SpeedPreset::Paper => 20,
            SpeedPreset::Quick => 8,
            SpeedPreset::Test => 2,
        };
        if self.actual {
            cfg.materialize = Some((self.seed ^ 0xda7a, 200_000));
        }
        if self.use_iabart {
            let cost = pipa_cost::SimBackend::new(self.benchmark.database(self.scale, None));
            eprintln!("[setup] training IABART generator (one-time)...");
            cfg.backend = GenBackend::train_iabart(&cost, 1500, self.seed)
                .expect("IABART corpus generation against the simulator backend");
        }
        cfg
    }

    /// Open the observability sinks requested by `--trace` /
    /// `--metrics-out` (both optional; with neither flag the returned
    /// outputs are disabled and tracing costs one atomic load per probe).
    pub fn trace_outputs(&self) -> TraceOutputs {
        TraceOutputs::create(self.trace.as_deref(), self.metrics_out.as_deref())
            .unwrap_or_else(|e| panic!("opening trace/metrics sink: {e}"))
    }

    /// The seed for run index `run`, derived from `--seed` with the
    /// runner's SplitMix64 scheme (never `seed + run`).
    pub fn cell_seed(&self, run: u64) -> CellSeed {
        CellSeed::derive(self.seed, run)
    }

    /// Finish an instrumented run: report the process-global benefit
    /// matrix's cell hit/miss counts to the metrics channel (they are
    /// scheduling-dependent under `--jobs > 1`, so they never go to the
    /// trace channel) and flush both sinks.
    pub fn finish_trace(&self, out: &TraceOutputs, cost: &pipa_cost::SimBackend) {
        if out.active() {
            let stats = cost.database().whatif_matrix_stats();
            out.global_metric(
                pipa_obs::Event::new("whatif_matrix")
                    .field("entry_hits", stats.entry_hits)
                    .field("entry_misses", stats.entry_misses)
                    .field("hit_ratio", stats.entry_hit_ratio()),
            );
        }
        out.flush();
    }

    /// One-line parameter summary for artifacts.
    pub fn summary(&self) -> String {
        format!(
            // `jobs` is deliberately absent: parallelism must not leave
            // any trace in artifacts (--jobs N is byte-identical to
            // --jobs 1, see DESIGN.md "Determinism guarantees").
            "benchmark={} scale={} runs={} seed={} preset={:?} iabart={} actual={}",
            self.benchmark.name(),
            self.scale,
            self.runs,
            self.seed,
            self.preset,
            self.use_iabart,
            self.actual
        )
    }
}

fn next_parse<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> T
where
    T::Err: std::fmt::Debug,
{
    it.next()
        .unwrap_or_else(|| panic!("{flag} needs a value"))
        .parse()
        .unwrap_or_else(|e| panic!("{flag}: {e:?}"))
}

/// The shared harness for the custom-`main` benches (`harness = false`):
/// one place for the smoke-mode env toggle, the `CRITERION_JSON` capture
/// file, median extraction, and the `results/BENCH_*.json` artifact
/// write that each bench previously hand-rolled.
///
/// ```no_run
/// let bench = pipa_bench::cli::BenchArgs::for_bench("nn");
/// let mut c = bench.criterion(10);
/// // ... c.bench_function(...) ...
/// let median = bench.median_ns("nn/forward");
/// # let artifact = 0u32;
/// bench.write_artifact(&artifact); // skipped (with a note) in smoke mode
/// ```
pub struct BenchArgs {
    /// Bench name (`"nn"`, `"whatif"`, `"runner"`, `"serve"`); names the
    /// smoke env var, the capture file, and the artifact.
    pub name: &'static str,
    /// Smoke mode: `<NAME>_BENCH_SMOKE` is set. Dimensions shrink (the
    /// bench's business) and the artifact write is skipped (ours).
    pub smoke: bool,
    json_path: std::path::PathBuf,
}

impl BenchArgs {
    /// Set up the harness for `name`: read `<NAME>_BENCH_SMOKE`, point
    /// `CRITERION_JSON` at a fresh temp capture file.
    pub fn for_bench(name: &'static str) -> Self {
        let smoke = std::env::var(format!("{}_BENCH_SMOKE", name.to_uppercase())).is_ok();
        let json_path = std::env::temp_dir().join(format!("pipa_{name}_bench.jsonl"));
        let _ = std::fs::remove_file(&json_path);
        std::env::set_var("CRITERION_JSON", &json_path);
        BenchArgs {
            name,
            smoke,
            json_path,
        }
    }

    /// A criterion instance sized for this mode: `full_samples` samples
    /// normally, 3 samples × 30 ms in smoke mode.
    pub fn criterion(&self, full_samples: usize) -> criterion::Criterion {
        if self.smoke {
            criterion::Criterion::default()
                .sample_size(3)
                .measurement_time(std::time::Duration::from_millis(30))
        } else {
            criterion::Criterion::default().sample_size(full_samples)
        }
    }

    /// The captured criterion JSONL so far.
    pub fn lines(&self) -> String {
        std::fs::read_to_string(&self.json_path).unwrap_or_default()
    }

    /// Median nanoseconds of the cell benched as `id`.
    pub fn median_ns(&self, id: &str) -> Option<f64> {
        median_of(&self.lines(), id)
    }

    /// Write `results/BENCH_<name>.json` at the workspace root and
    /// return its path — unless smoke mode, which notes the skip and
    /// writes nothing.
    pub fn write_artifact<T: serde::Serialize>(&self, artifact: &T) -> Option<std::path::PathBuf> {
        if self.smoke {
            eprintln!(
                "[smoke] {}_BENCH_SMOKE set; artifact not written",
                self.name.to_uppercase()
            );
            return None;
        }
        // Cargo runs benches with the package dir as cwd; anchor the
        // artifact at the workspace-root results/ next to the experiment
        // outputs.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let out = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::create_dir_all(&dir).ok()?;
        std::fs::write(&out, serde_json::to_string_pretty(artifact).ok()?).ok()?;
        eprintln!("[artifact] {}", out.display());
        Some(out)
    }
}

/// Pull `median_ns` out of the criterion JSON line for `id`. The
/// vendored serde_json is serialize-only, and the line format is fixed
/// (`{"id":"...","median_ns":N,...}`), so a string scan suffices.
pub fn median_of(lines: &str, id: &str) -> Option<f64> {
    let line = lines
        .lines()
        .find(|l| l.contains(&format!("\"id\":\"{id}\"")))?;
    let rest = line.split("\"median_ns\":").nth(1)?;
    rest.split([',', '}']).next()?.trim().parse().ok()
}

/// Where and how a `results/BENCH_*.json` artifact was measured.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Provenance {
    /// `git rev-parse HEAD` of the measured tree, suffixed `-dirty` when
    /// tracked files differ from it (`unknown` outside a git checkout).
    pub commit: String,
    /// Cores available to the process.
    pub cores: usize,
    /// Advisor speed preset the bench ran its advisors at.
    pub preset: String,
    /// UTC date of the measurement, `YYYY-MM-DD`.
    pub date: String,
}

/// Provenance of an artifact measured now, in this checkout.
pub fn provenance(preset: SpeedPreset) -> Provenance {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .arg("-C")
            .arg(env!("CARGO_MANIFEST_DIR"))
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let commit = match git(&["rev-parse", "HEAD"]) {
        Some(head) => match git(&["status", "--porcelain", "--untracked-files=no"]) {
            Some(changes) if changes.is_empty() => head,
            _ => format!("{head}-dirty"),
        },
        None => "unknown".to_string(),
    };
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    Provenance {
        commit,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        preset: format!("{preset:?}"),
        date: utc_date(secs),
    }
}

/// `YYYY-MM-DD` of a Unix timestamp (proleptic Gregorian, UTC), by the
/// days-to-civil conversion from Howard Hinnant's date algorithms.
fn utc_date(unix_secs: u64) -> String {
    let z = (unix_secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// `a / b`, defined only when both exist and `b > 0` (speedup ratios).
pub fn ratio(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    match (a, b) {
        (Some(x), Some(y)) if y > 0.0 => Some(x / y),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utc_date_handles_epoch_and_leap_days() {
        assert_eq!(utc_date(0), "1970-01-01");
        assert_eq!(utc_date(951_782_400), "2000-02-29");
        assert_eq!(utc_date(1_709_251_199), "2024-02-29");
        assert_eq!(utc_date(1_709_251_200), "2024-03-01");
    }
}
