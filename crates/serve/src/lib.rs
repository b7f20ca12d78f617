//! # pipa-serve — a concurrent multi-tenant session fleet
//!
//! The serving layer over the PIPA stack: N independent tenants — each
//! with its own schema statistics, advisor (an
//! [`AdvisorSpec`](pipa_ia::AdvisorSpec) resolved through the target
//! registry, so custom registered kinds serve alongside the built-ins),
//! and cost backend (simulator, recording, replay tape, or learned-index
//! models) — driven through `pipa-core`'s runner (the work queue that
//! also runs the experiment grids) inside one process, all cost access
//! behind the object-safe `dyn CostBackend` seam.
//!
//! The public surface is a typed request/response vocabulary:
//!
//! * [`TenantSpec`] — who a tenant is (benchmark, scale, advisor,
//!   [`BackendSpec`]) and which [`SessionRequest`]s it queues;
//! * [`FleetSpec`] — the roster plus a root seed and a worker bound;
//!   [`FleetSpec::run`] materializes and drives everything;
//! * [`FleetRun`] — the response: a deterministic [`FleetReport`]
//!   (bit-identical across worker counts), the wall-clock
//!   [`FleetTiming`], and any recorded tapes.
//!
//! ```
//! use pipa_serve::{FleetSpec, SessionRequest, TenantSpec};
//! use pipa_workload::Benchmark;
//!
//! let run = FleetSpec::new(7)
//!     .workers(2)
//!     .tenant(
//!         TenantSpec::new("acme", Benchmark::TpcH)
//!             .session(SessionRequest::WhatIf { configs: 4 }),
//!     )
//!     .run(&pipa_obs::TraceOutputs::disabled());
//! assert_eq!(run.report.completed_sessions(), 1);
//! ```
//!
//! ## Determinism
//!
//! Per-tenant seeds derive from the fleet's root seed with the runner's
//! SplitMix64 scheme; tenants share no mutable state; sessions of one
//! tenant run serially in request order on whatever worker claims them.
//! So every [`FleetReport`] value — and the merged `pipa-obs` trace,
//! which the runner flushes in (tenant, session) order — is a pure
//! function of the [`FleetSpec`], regardless of worker count.
//!
//! ## Failure isolation
//!
//! A session that returns a `CostError` or panics marks **its own**
//! tenant [`Degraded`] (remaining sessions skipped, the error recorded
//! verbatim) and the fleet keeps serving; sibling tenants' reports are
//! bit-exactly what they would have been without the failure.

#![warn(missing_docs)]

pub mod fleet;
pub mod report;
pub mod scheduler;
pub mod spec;

pub use report::{Degraded, FleetReport, FleetRun, FleetTiming, SessionReport, TenantReport};
pub use scheduler::TenantOutcome;
pub use spec::{BackendSpec, FleetSpec, InjectorKind, SessionRequest, TenantSpec};
