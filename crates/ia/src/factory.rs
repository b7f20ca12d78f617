//! Construction of advisors with speed presets.
//!
//! The paper runs 400 trajectories per workload (20 for DBABandit); that
//! is [`SpeedPreset::Paper`]. [`SpeedPreset::Quick`] shrinks trajectory
//! counts ~5× for CI and interactive use — the attack dynamics survive
//! (all experiment binaries accept `--quick`), only the variance grows.
//!
//! Since the registry migration, *the* constructor is
//! [`crate::registry::AdvisorSpec::build`]: every kind id (built-in or
//! user-registered) resolves through the
//! [`crate::registry::TargetRegistry`]. [`AdvisorKind::build_with`] is a
//! thin alias over that seam, kept so the paper-experiment call sites
//! stay enum-typed.

use crate::advisor::{AdvisorKind, ClearBoxAdvisor};
use crate::bandit::BanditConfig;
use crate::dqn::DqnConfig;
use crate::drlindex::DrlIndexConfig;
use crate::registry::AdvisorSpec;
use crate::swirl::SwirlConfig;

/// How much compute to spend on training/trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpeedPreset {
    /// Paper-scale trajectory counts (400 / 20).
    Paper,
    /// ~5× fewer trajectories; same dynamics, more variance.
    Quick,
    /// Tiny counts for unit tests.
    Test,
}

impl SpeedPreset {
    pub(crate) fn dqn(self, seed: u64) -> DqnConfig {
        let mut c = match self {
            SpeedPreset::Paper => DqnConfig::default(),
            SpeedPreset::Quick => DqnConfig {
                train_trajectories: 100,
                trial_trajectories: 40,
                ..DqnConfig::default()
            },
            SpeedPreset::Test => DqnConfig::fast(),
        };
        c.seed = seed;
        c
    }

    pub(crate) fn drl(self, seed: u64) -> DrlIndexConfig {
        let mut c = match self {
            SpeedPreset::Paper => DrlIndexConfig::default(),
            SpeedPreset::Quick => DrlIndexConfig {
                train_trajectories: 250,
                trial_trajectories: 40,
                ..DrlIndexConfig::default()
            },
            SpeedPreset::Test => DrlIndexConfig::fast(),
        };
        c.seed = seed;
        c
    }

    pub(crate) fn bandit(self, seed: u64) -> BanditConfig {
        let mut c = match self {
            SpeedPreset::Paper => BanditConfig::default(),
            SpeedPreset::Quick => BanditConfig::default(),
            SpeedPreset::Test => BanditConfig::fast(),
        };
        c.seed = seed;
        c
    }

    pub(crate) fn swirl(self, seed: u64) -> SwirlConfig {
        let mut c = match self {
            SpeedPreset::Paper => SwirlConfig::default(),
            SpeedPreset::Quick => SwirlConfig {
                train_episodes: 200,
                ..SwirlConfig::default()
            },
            SpeedPreset::Test => SwirlConfig::fast(),
        };
        c.seed = seed;
        c
    }
}

/// Typed construction context for [`AdvisorKind::build_with`] and
/// [`AdvisorSpec::build_with`].
///
/// Replaces the positional `(preset, seed)` pair — which silently
/// transposed when both arguments were integers-in-spirit — with named,
/// defaultable fields, mirroring the `StressTest` builder migration.
/// The context is `Copy`, so one value can seed a whole tenant fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildCtx {
    /// Training/trial compute preset.
    pub preset: SpeedPreset,
    /// RNG seed for the advisor's own stochastic machinery.
    pub seed: u64,
}

impl BuildCtx {
    /// Context with the given preset and seed.
    pub fn new(preset: SpeedPreset, seed: u64) -> Self {
        BuildCtx { preset, seed }
    }
}

impl AdvisorKind {
    /// Construct this built-in advisor variant by routing the kind
    /// through the target registry (the enum is an alias layer: this is
    /// exactly `AdvisorSpec::from(self).build_with(ctx)`). Every advisor
    /// comes wrapped in the [`crate::instrument::Instrumented`]
    /// observability decorator (transparent when nothing records).
    pub fn build_with(self, ctx: BuildCtx) -> Box<dyn ClearBoxAdvisor> {
        AdvisorSpec::from(self)
            .build_with(ctx)
            .expect("built-in advisor kinds are always registered")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advisor::IndexAdvisor;

    #[test]
    fn every_kind_constructs() {
        for kind in AdvisorKind::all() {
            let ia = kind.build_with(BuildCtx::new(SpeedPreset::Test, 1));
            assert_eq!(ia.name(), kind.label());
            assert_eq!(ia.budget(), 4);
        }
    }

    #[test]
    fn kind_build_with_is_the_registry_route() {
        for kind in AdvisorKind::all() {
            let ia = kind.build_with(BuildCtx::new(SpeedPreset::Test, 1));
            let via_spec = AdvisorSpec::from(kind)
                .preset(SpeedPreset::Test)
                .seeded(1)
                .build()
                .unwrap();
            assert_eq!(ia.name(), via_spec.name());
            assert_eq!(ia.budget(), via_spec.budget());
        }
    }

    #[test]
    fn opaque_coercion_preserves_the_surface() {
        let clear = AdvisorKind::Swirl.build_with(BuildCtx::new(SpeedPreset::Test, 1));
        let name = clear.name();
        let budget = clear.budget();
        let ia: Box<dyn IndexAdvisor> = Box::new(clear);
        assert_eq!(ia.name(), name);
        assert_eq!(ia.budget(), budget);
        assert!(!ia.is_trial_based());
    }

    #[test]
    fn trial_basedness_matches_paper() {
        for kind in AdvisorKind::all() {
            let ia = kind.build_with(BuildCtx::new(SpeedPreset::Test, 1));
            let expect = kind != AdvisorKind::Swirl;
            assert_eq!(ia.is_trial_based(), expect, "{}", ia.name());
        }
    }
}
