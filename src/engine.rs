//! The unified enumeration engine, re-exported from [`sge_engine`].
//!
//! The engine formerly lived in this module; it now resides in its own
//! workspace crate (`crates/engine`) so that the serving subsystem
//! ([`crate::service`]) can build on it without depending on this facade.
//! Every type keeps its path: `sge::engine::Engine`, `sge::Engine` and
//! friends are unchanged, and [`PreparedEngine`] — the owned, cache-friendly
//! counterpart of [`Engine`] — is exported alongside them.
//!
//! See the [`sge_engine`] crate docs for the scheduler-equivalence contract.

pub use sge_engine::{
    Engine, EnumerationOutcome, PreparedEngine, RoutingConfig, RoutingDecision, RunConfig,
    Scheduler,
};
