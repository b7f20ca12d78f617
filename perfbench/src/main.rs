//! The repository benchmark. Run it from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload stress-nn --seed 1 --seconds 10 --trace 0
//! ```
//!
//! It sets the workload up several times, repeats the workload's fixed
//! work until `--seconds` have passed, checks every output, and prints
//! as its last line one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of one extra traced run
//! (`--trace 1`). `perfbench/README.md` explains the workloads and what
//! each metric should move.

mod decorators;
mod fleet;
mod layers;
mod spans;
mod stress;

use layers::{median, percentile, Metrics};
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = ["stress-nn", "stress-whatif", "stress-paper", "fleet-mixed"];
/// A run sets its workload up at least `MIN_SETUPS` times and for at
/// least `MIN_SETUP_S` seconds; `setup_s` is the median.
const MIN_SETUPS: usize = 3;
const MIN_SETUP_S: f64 = 1.0;

pub fn more_setups(done: &[f64]) -> bool {
    done.len() < MIN_SETUPS || done.iter().sum::<f64>() < MIN_SETUP_S
}

/// What one invocation measured.
#[derive(Default)]
pub struct Run {
    pub setup_s: Vec<f64>,
    /// Wall time of each pass over the workload's fixed work.
    pub pass_s: Vec<f64>,
    /// Latency of every session, one list per pass, in the same order
    /// in every pass.
    pub session_ms: Vec<Vec<f64>>,
    /// Peak resident set after the untraced passes, MiB.
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks.
    pub errors: Vec<String>,
    /// Per-layer metrics of the traced run, when one was made.
    pub layers: Option<Metrics>,
    /// The traced run's span trees.
    pub trees: Vec<spans::Tree>,
}

impl Run {
    /// Each session's median latency over the passes.
    fn session_medians(&self) -> Vec<f64> {
        let n = self.session_ms.iter().map(Vec::len).min().unwrap_or(0);
        (0..n)
            .map(|i| median(&self.session_ms.iter().map(|p| p[i]).collect::<Vec<_>>()))
            .collect()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => {
                return Err(format!(
                    "unknown workload {value} ({})",
                    WORKLOADS.join(", ")
                ))
            }
            "--seed" => seed = Some(number()?),
            "--seconds" if number()? >= 1 => seconds = Some(number()?),
            "--trace" if value == "0" || value == "1" => trace = Some(value == "1"),
            other => return Err(format!("bad argument {other} {value}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `unknown` outside a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a digest of the sources the benchmark builds, so runs outside a
/// git checkout still name the code they measured.
fn source_digest() -> String {
    fn walk(path: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        if path.is_dir() {
            let mut entries: Vec<_> = std::fs::read_dir(path)
                .into_iter()
                .flatten()
                .flatten()
                .map(|e| e.path())
                .collect();
            entries.sort();
            for e in entries {
                walk(&e, files);
            }
        } else if path.is_file() {
            files.push(path.to_path_buf());
        }
    }
    let mut files = Vec::new();
    for root in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "vendored",
        "perfbench/src",
    ] {
        walk(std::path::Path::new(root), &mut files);
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <name> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    decorators::register_traced_targets();

    let seconds = args.seconds as f64;
    let run = match stress::def(&args.workload) {
        Some(def) => stress::run(&def, args.seed, seconds, args.trace),
        None => fleet::run(args.seed, seconds, args.trace, workers),
    };
    let mut errors = run.errors.clone();

    let mut metrics = if args.trace {
        // Measured on the untraced passes, but too noisy across seeds and
        // runs to carry an end-to-end bound (see README).
        let mut m = run.layers.clone().unwrap_or_default();
        let sessions = run.session_medians();
        m.insert("serve.session_ms.p50", (percentile(&sessions, 0.5), "ms"));
        m.insert("serve.session_ms.p99", (percentile(&sessions, 0.99), "ms"));
        m.insert("proc.peak_rss_mb", (run.peak_rss_mb, "MiB"));
        m
    } else {
        let mut m = Metrics::new();
        m.insert("setup_s", (median(&run.setup_s), "s"));
        m.insert("wall_s", (median(&run.pass_s), "s"));
        m
    };
    for (name, (value, _)) in metrics.iter_mut() {
        if !value.is_finite() {
            errors.push(format!("{name} is {value}"));
            *value = 0.0;
        }
    }

    if args.trace {
        let path = format!(
            "perfbench/out/{}-seed{}.spans.jsonl",
            args.workload, args.seed
        );
        match spans::write_jsonl(std::path::Path::new(&path), &run.trees) {
            Ok(()) => eprintln!("perfbench: spans written to {path}"),
            Err(e) => eprintln!("perfbench: spans not written to {path}: {e}"),
        }
    }
    for e in &errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let provenance = [
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("commit", json_str(&commit())),
        ("source_digest", json_str(&source_digest())),
        ("nproc", workers.to_string()),
        ("preset", json_str("test")),
        ("stress_jobs", "1".into()),
        ("fleet_workers", workers.to_string()),
        ("samples_setup", run.setup_s.len().to_string()),
        ("samples_wall", run.pass_s.len().to_string()),
        ("samples_session", run.session_medians().len().to_string()),
        (
            "error_rate",
            (run.failed as f64 / run.attempted.max(1) as f64).to_string(),
        ),
    ];
    let fields: Vec<String> = provenance
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("{{\"provenance\": {{{}}}}}", fields.join(", "));

    let body: Vec<String> = metrics
        .iter()
        .map(|(k, (v, u))| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(k),
                json_str(u)
            )
        })
        .collect();
    let correct = errors.is_empty() && run.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted.max(1),
        run.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
