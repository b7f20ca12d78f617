//! Defense ablation (extension beyond the paper): how much of PIPA's
//! degradation do deployment-side mitigations remove?
//!
//! Compares, on the same victims and seeds:
//! * no defense (the paper's setting);
//! * a retraining canary with 2% / 10% tolerances (roll back deployments
//!   that regress a held-out canary workload);
//! * provenance screening of the training set before retraining.
//!
//! Every arm is one `StressTest` cell under a different
//! `DefensePolicy`, the vocabulary the streaming arms race uses too.
//!
//! ```text
//! cargo run --release -p pipa-bench --bin ablation_defense -- --runs 5
//! ```

use pipa_bench::cli::ExpArgs;
use pipa_core::defense::{DefensePolicy, ProvenanceFilter};
use pipa_core::experiment::{
    build_db, cell_stress_test, make_injector, normal_workload, InjectorKind,
};
use pipa_core::metrics::Stats;
use pipa_core::par_map_traced;
use pipa_core::report::{render_table, ExperimentArtifact};
use pipa_ia::{AdvisorKind, BuildCtx, TrajectoryMode};
use pipa_obs::CellCtx;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    advisor: String,
    defense: String,
    mean_ad: f64,
    rolled_back_or_dropped: f64,
}

fn main() {
    let args = ExpArgs::parse(5);
    let cfg = args.cell_config();
    let db = build_db(&cfg);
    let victims = [
        AdvisorKind::Dqn(TrajectoryMode::Best),
        AdvisorKind::DbaBandit(TrajectoryMode::Best),
        AdvisorKind::Swirl,
    ];

    println!(
        "Defense ablation — PIPA vs mitigations on {} ({} runs)",
        args.benchmark.name(),
        args.runs
    );

    // Every arm is the same stress cell under a different defense; cells
    // of one run share the seed, hence the normal workload and injection.
    let arms = [
        ("none", DefensePolicy::None),
        ("canary_2pct", DefensePolicy::Canary { tolerance: 0.02 }),
        ("canary_10pct", DefensePolicy::Canary { tolerance: 0.10 }),
        (
            "provenance",
            DefensePolicy::Provenance {
                max_novel_fraction: ProvenanceFilter::default().max_novel_fraction,
                history: 1,
            },
        ),
    ];
    let runs: Vec<u64> = (0..args.runs as u64).collect();
    let trace_out = args.trace_outputs();
    let mut rows = Vec::new();
    let mut payload = Vec::new();
    for victim in victims {
        for (arm, policy) in arms {
            let attacks = par_map_traced(
                args.jobs,
                runs.clone(),
                &trace_out,
                |_, run| {
                    CellCtx::new(args.cell_seed(*run).get())
                        .field("advisor", victim.label())
                        .field("defense", arm)
                        .field("run", *run)
                },
                |_, run| {
                    let seed = args.cell_seed(run);
                    let normal = normal_workload(&cfg, seed.get());
                    let mut advisor = victim.build_with(BuildCtx::new(cfg.preset, seed.get()));
                    let mut injector = make_injector(InjectorKind::Pipa, &cfg, seed);
                    cell_stress_test(&db, &normal, &cfg, seed)
                        .defense(policy)
                        .attack(advisor.as_mut(), injector.as_mut())
                        .expect("stress test against the simulator backend")
                },
            );
            let ads: Vec<f64> = attacks.iter().map(|a| a.outcome.ad).collect();
            let rollbacks = attacks.iter().filter(|a| a.rolled_back).count();
            let dropped: usize = attacks.iter().map(|a| a.screened_out).sum();
            let (defense, label, actions, acted) = match policy {
                DefensePolicy::None => ("none".to_string(), "none".to_string(), "-".to_string(), 0),
                DefensePolicy::Canary { tolerance } => (
                    format!("canary_{tolerance}"),
                    format!("canary ±{:.0}%", tolerance * 100.0),
                    format!("{rollbacks}/{} rollbacks", args.runs),
                    rollbacks,
                ),
                DefensePolicy::Provenance { .. } => (
                    "provenance".to_string(),
                    "provenance screen".to_string(),
                    format!("{dropped} queries dropped"),
                    dropped,
                ),
            };
            let s = Stats::from_samples(&ads);
            rows.push(vec![
                victim.label(),
                label,
                format!("{:+.3}", s.mean),
                actions,
            ]);
            payload.push(Row {
                advisor: victim.label(),
                defense,
                mean_ad: s.mean,
                rolled_back_or_dropped: acted as f64 / args.runs as f64,
            });
        }
    }

    args.finish_trace(&trace_out, &db);
    println!(
        "{}",
        render_table(&["advisor", "defense", "mean AD", "actions"], &rows)
    );
    println!(
        "\nReading: the canary bounds *deployed* degradation by construction;\n\
         provenance screening removes the attack at its source when the\n\
         injection's column fingerprint diverges from history."
    );

    let artifact = ExperimentArtifact {
        id: "ablation_defense".to_string(),
        description: "Residual PIPA degradation under defenses".to_string(),
        params: args.summary(),
        results: payload,
    };
    if let Ok(p) = artifact.save(&args.out_dir) {
        eprintln!("[artifact] {p}");
    }
}
