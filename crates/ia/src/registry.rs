//! The open target-construction seam: [`AdvisorSpec`] resolved through a
//! process-wide [`TargetRegistry`].
//!
//! PR 5 opened the *cost* side of the harness: every consumer speaks
//! `&dyn CostBackend`, so a new backend slots in without touching the
//! advisors. This module does the same for the *target* side. A
//! poisoning target is named by a kind id string inside a serializable
//! [`AdvisorSpec`] and constructed by the registry entry registered under
//! that id — so adding a target class is one [`register_target`] call,
//! not an edit to every `match` in core/serve/bench.
//!
//! The paper's built-in advisors are pre-registered under the ids
//! `"dqn"`, `"drlindex"`, `"dbabandit"`, `"swirl"`, plus the
//! retraining-free `"incontext"` advisor; [`AdvisorKind`] survives as a
//! thin alias layer whose [`AdvisorKind::build_with`] routes through the
//! same registry (so existing labels and tests are unchanged).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock, RwLock};

use serde::{Serialize, Value};

use crate::advisor::{AdvisorKind, ClearBoxAdvisor, TrajectoryMode};
use crate::bandit::BanditAdvisor;
use crate::factory::{BuildCtx, SpeedPreset};
use crate::incontext::{InContextAdvisor, InContextConfig};
use crate::instrument::Instrumented;
use crate::qlearn::{QAdvisor, QConfig};
use crate::swirl::SwirlAdvisor;

/// A serializable description of one poisoning target: which registered
/// kind to construct, plus the [`BuildCtx`] fields the constructor needs.
///
/// This is the open replacement for passing [`AdvisorKind`] values
/// around: grids, streams, and tenant specs carry an `AdvisorSpec`, and
/// any kind id that has a registry entry — built-in or user-registered —
/// resolves the same way.
#[derive(Debug, Clone, PartialEq)]
pub struct AdvisorSpec {
    /// Registry kind id (e.g. `"dqn"`, `"incontext"`, or a custom id).
    pub kind: String,
    /// Training/trial compute preset.
    pub preset: SpeedPreset,
    /// RNG seed for the advisor's own stochastic machinery.
    pub seed: u64,
    /// Trajectory-selection mode, for kinds that have one. `None` means
    /// the kind's default ([`TrajectoryMode::Best`] for the built-in
    /// trial-based advisors); kinds without a mode ignore it.
    pub mode: Option<TrajectoryMode>,
}

impl AdvisorSpec {
    /// Spec for `kind` with the quick preset, seed 0, default mode.
    pub fn new(kind: impl Into<String>) -> Self {
        AdvisorSpec {
            kind: kind.into(),
            preset: SpeedPreset::Quick,
            seed: 0,
            mode: None,
        }
    }

    /// Builder-style preset override.
    pub fn preset(mut self, preset: SpeedPreset) -> Self {
        self.preset = preset;
        self
    }

    /// Builder-style seed override.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style trajectory-mode override.
    pub fn mode(mut self, mode: TrajectoryMode) -> Self {
        self.mode = Some(mode);
        self
    }

    /// Display label, resolved through the registry entry (falls back to
    /// the raw kind id when the kind is not registered, so specs stay
    /// printable in error paths).
    pub fn label(&self) -> String {
        match lookup(&self.kind) {
            Some(entry) => (entry.label)(self),
            None => self.kind.clone(),
        }
    }

    /// Construct the advisor this spec describes.
    pub fn build(&self) -> Result<Box<dyn ClearBoxAdvisor>, UnknownTarget> {
        match lookup(&self.kind) {
            Some(entry) => Ok((entry.build)(self)),
            None => Err(UnknownTarget {
                kind: self.kind.clone(),
                registered: registered_ids(),
            }),
        }
    }

    /// Construct with the context's preset and seed in place of the
    /// spec's own. This is how grid/stream/fleet runners stamp per-cell
    /// seeds onto a shared spec.
    pub fn build_with(&self, ctx: BuildCtx) -> Result<Box<dyn ClearBoxAdvisor>, UnknownTarget> {
        let mut resolved = self.clone();
        resolved.preset = ctx.preset;
        resolved.seed = ctx.seed;
        resolved.build()
    }
}

impl From<AdvisorKind> for AdvisorSpec {
    fn from(kind: AdvisorKind) -> Self {
        let (id, mode) = match kind {
            AdvisorKind::Dqn(m) => ("dqn", Some(m)),
            AdvisorKind::DrlIndex(m) => ("drlindex", Some(m)),
            AdvisorKind::DbaBandit(m) => ("dbabandit", Some(m)),
            AdvisorKind::Swirl => ("swirl", None),
        };
        let mut spec = AdvisorSpec::new(id);
        spec.mode = mode;
        spec
    }
}

impl Serialize for AdvisorSpec {
    fn to_value(&self) -> Value {
        let preset = match self.preset {
            SpeedPreset::Paper => "paper",
            SpeedPreset::Quick => "quick",
            SpeedPreset::Test => "test",
        };
        let mode = match self.mode {
            None => Value::Null,
            Some(TrajectoryMode::Best) => Value::Str("best".to_string()),
            Some(TrajectoryMode::MeanLast(n)) => Value::Str(format!("mean-last-{n}")),
        };
        Value::Object(vec![
            ("kind".to_string(), Value::Str(self.kind.clone())),
            ("preset".to_string(), Value::Str(preset.to_string())),
            ("seed".to_string(), Value::UInt(self.seed)),
            ("mode".to_string(), mode),
        ])
    }
}

/// An [`AdvisorSpec`] named a kind id with no registry entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownTarget {
    /// The unresolved kind id.
    pub kind: String,
    /// The ids that *were* registered at resolution time (sorted).
    pub registered: Vec<String>,
}

impl fmt::Display for UnknownTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown target kind {:?} (registered: {})",
            self.kind,
            self.registered.join(", ")
        )
    }
}

impl std::error::Error for UnknownTarget {}

impl From<UnknownTarget> for pipa_cost::CostError {
    fn from(e: UnknownTarget) -> Self {
        pipa_cost::CostError::UnknownTarget {
            kind: e.kind,
            registered: e.registered.join(", "),
        }
    }
}

type LabelFn = Arc<dyn Fn(&AdvisorSpec) -> String + Send + Sync>;
type BuildFn = Arc<dyn Fn(&AdvisorSpec) -> Box<dyn ClearBoxAdvisor> + Send + Sync>;

/// One constructor entry in the [`TargetRegistry`]: how to label and how
/// to build the advisors of one kind id.
#[derive(Clone)]
pub struct TargetEntry {
    label: LabelFn,
    build: BuildFn,
}

impl TargetEntry {
    /// Entry from a label function and a build function.
    pub fn new(
        label: impl Fn(&AdvisorSpec) -> String + Send + Sync + 'static,
        build: impl Fn(&AdvisorSpec) -> Box<dyn ClearBoxAdvisor> + Send + Sync + 'static,
    ) -> Self {
        TargetEntry {
            label: Arc::new(label),
            build: Arc::new(build),
        }
    }
}

impl fmt::Debug for TargetEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("TargetEntry { .. }")
    }
}

/// The process-wide kind-id → constructor map.
///
/// `BTreeMap` so [`registered_ids`] (and therefore every label/lint
/// derived from it) enumerates in one stable order regardless of
/// registration order.
pub struct TargetRegistry {
    entries: RwLock<BTreeMap<String, TargetEntry>>,
}

impl TargetRegistry {
    /// The global registry, with the built-in kinds pre-registered.
    pub fn global() -> &'static TargetRegistry {
        static REGISTRY: OnceLock<TargetRegistry> = OnceLock::new();
        REGISTRY.get_or_init(|| TargetRegistry {
            entries: RwLock::new(builtins()),
        })
    }

    /// Register (or replace) the entry for `id`.
    pub fn register(&self, id: impl Into<String>, entry: TargetEntry) {
        self.entries
            .write()
            .expect("target registry lock")
            .insert(id.into(), entry);
    }

    /// Resolve an entry by kind id.
    pub fn get(&self, id: &str) -> Option<TargetEntry> {
        self.entries
            .read()
            .expect("target registry lock")
            .get(id)
            .cloned()
    }

    /// All registered kind ids, sorted.
    pub fn ids(&self) -> Vec<String> {
        self.entries
            .read()
            .expect("target registry lock")
            .keys()
            .cloned()
            .collect()
    }
}

/// Register (or replace) a target kind in the global registry. This is
/// the whole API a new target class needs: after this call the id is
/// constructible from every grid, stream, and tenant spec in the
/// workspace.
pub fn register_target(
    id: impl Into<String>,
    label: impl Fn(&AdvisorSpec) -> String + Send + Sync + 'static,
    build: impl Fn(&AdvisorSpec) -> Box<dyn ClearBoxAdvisor> + Send + Sync + 'static,
) {
    TargetRegistry::global().register(id, TargetEntry::new(label, build));
}

/// Sorted kind ids currently registered in the global registry.
pub fn registered_ids() -> Vec<String> {
    TargetRegistry::global().ids()
}

fn lookup(id: &str) -> Option<TargetEntry> {
    TargetRegistry::global().get(id)
}

fn mode_of(spec: &AdvisorSpec) -> TrajectoryMode {
    spec.mode.unwrap_or(TrajectoryMode::Best)
}

/// The built-in entries. Each `builtin("<id>", ...)` line is also the
/// source of truth for the ci.sh registry-coverage lint, which greps
/// these ids against the every-kind construction test fixture.
fn builtins() -> BTreeMap<String, TargetEntry> {
    let mut m = BTreeMap::new();
    let mut builtin = |id: &str, entry: TargetEntry| {
        m.insert(id.to_string(), entry);
    };
    builtin(
        "dqn",
        TargetEntry::new(
            |spec| format!("DQN-{}", mode_of(spec).suffix()),
            |spec| {
                Box::new(Instrumented::new(QAdvisor::new(
                    mode_of(spec),
                    QConfig::dqn(spec.preset, spec.seed),
                )))
            },
        ),
    );
    builtin(
        "drlindex",
        TargetEntry::new(
            |spec| format!("DRLindex-{}", mode_of(spec).suffix()),
            |spec| {
                Box::new(Instrumented::new(QAdvisor::new(
                    mode_of(spec),
                    QConfig::drlindex(spec.preset, spec.seed),
                )))
            },
        ),
    );
    builtin(
        "dbabandit",
        TargetEntry::new(
            |spec| format!("DBAbandit-{}", mode_of(spec).suffix()),
            |spec| {
                Box::new(Instrumented::new(BanditAdvisor::new(
                    mode_of(spec),
                    spec.preset.bandit(spec.seed),
                )))
            },
        ),
    );
    builtin(
        "swirl",
        TargetEntry::new(
            |_| "SWIRL".to_string(),
            |spec| Box::new(Instrumented::new(SwirlAdvisor::new(spec.preset.swirl(spec.seed)))),
        ),
    );
    builtin(
        "incontext",
        TargetEntry::new(
            |_| "InContext".to_string(),
            |spec| {
                Box::new(Instrumented::new(InContextAdvisor::new(
                    InContextConfig::for_preset(spec.preset, spec.seed),
                )))
            },
        ),
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The kind ids the every-kind construction test exercises. The
    /// ci.sh registry-coverage lint greps the `builtin("<id>", ...)`
    /// registrations above against this fixture: registering a kind
    /// without exercising it here fails CI.
    const EXERCISED_KINDS: &[&str] = &["dbabandit", "dqn", "drlindex", "incontext", "swirl"];

    #[test]
    fn every_registered_kind_constructs() {
        assert_eq!(registered_ids(), EXERCISED_KINDS, "fixture out of date");
        for id in EXERCISED_KINDS {
            let spec = AdvisorSpec::new(*id).preset(SpeedPreset::Test).seeded(1);
            let ia = spec.build().expect("registered kind builds");
            assert_eq!(ia.name(), spec.label(), "{id}");
            assert!(ia.budget() > 0, "{id}");
        }
    }

    #[test]
    fn unknown_kind_is_a_typed_error() {
        let err = match AdvisorSpec::new("no-such-kind").build() {
            Err(e) => e,
            Ok(_) => panic!("unknown kind built"),
        };
        assert_eq!(err.kind, "no-such-kind");
        assert!(err.registered.contains(&"dqn".to_string()));
        let cost: pipa_cost::CostError = err.into();
        assert!(format!("{cost}").contains("no-such-kind"));
    }

    #[test]
    fn registering_a_kind_opens_it_everywhere() {
        use crate::heuristic::AutoAdminGreedy;
        use pipa_cost::CostBackend;
        use pipa_sim::ColumnId;

        struct Toy(AutoAdminGreedy);
        impl crate::IndexAdvisor for Toy {
            fn name(&self) -> String {
                "Toy".to_string()
            }
            fn train(
                &mut self,
                cost: &dyn CostBackend,
                w: &pipa_sim::Workload,
            ) -> pipa_cost::CostResult<()> {
                self.0.train(cost, w)
            }
            fn retrain(
                &mut self,
                cost: &dyn CostBackend,
                w: &pipa_sim::Workload,
            ) -> pipa_cost::CostResult<()> {
                self.0.retrain(cost, w)
            }
            fn recommend(
                &mut self,
                cost: &dyn CostBackend,
                w: &pipa_sim::Workload,
            ) -> pipa_cost::CostResult<pipa_sim::IndexConfig> {
                self.0.recommend(cost, w)
            }
            fn budget(&self) -> usize {
                self.0.budget()
            }
            fn is_trial_based(&self) -> bool {
                false
            }
        }
        impl ClearBoxAdvisor for Toy {
            fn column_preferences(&self, _cost: &dyn CostBackend) -> Vec<(ColumnId, f64)> {
                Vec::new()
            }
        }

        register_target(
            "toy-registry-test",
            |_| "Toy".to_string(),
            |_| Box::new(Toy(AutoAdminGreedy::new(4))),
        );
        let spec = AdvisorSpec::new("toy-registry-test");
        assert_eq!(spec.label(), "Toy");
        let ia = spec.build().unwrap();
        assert_eq!(ia.name(), "Toy");
        assert!(registered_ids().contains(&"toy-registry-test".to_string()));
    }

    #[test]
    fn kind_alias_round_trips_through_specs() {
        for kind in AdvisorKind::all() {
            let spec = AdvisorSpec::from(kind);
            assert_eq!(spec.label(), kind.label());
        }
    }

    #[test]
    fn spec_serializes_to_a_stable_object() {
        let spec = AdvisorSpec::new("dqn")
            .preset(SpeedPreset::Test)
            .seeded(7)
            .mode(TrajectoryMode::MeanLast(100));
        let v = spec.to_value();
        assert_eq!(
            v,
            Value::Object(vec![
                ("kind".to_string(), Value::Str("dqn".to_string())),
                ("preset".to_string(), Value::Str("test".to_string())),
                ("seed".to_string(), Value::UInt(7)),
                ("mode".to_string(), Value::Str("mean-last-100".to_string())),
            ])
        );
    }
}
