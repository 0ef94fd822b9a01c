//! Re-export of the wire plane's single-line JSON encoder.
//!
//! The encoder moved to [`sge_wire::json`] so the server, client and
//! simulator share one codec; this module keeps the historical
//! `sge_service::json::Json` paths working.

pub use sge_wire::json::*;
