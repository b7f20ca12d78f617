//! The fleet's session scheduler: [`pipa_core::runner`]'s work queue,
//! the one executor the experiment grids use too;
//! [`FleetSpec::run`](crate::FleetSpec::run) drives its traced form.

pub use pipa_core::runner::{run_tenants, TenantOutcome};
