//! # sjmp-trace — cycle-accurate event tracing and unified metrics
//!
//! The paper's evaluation decomposes every cost into syscall entry +
//! CR3 load + TLB refill (Table 2, Figs 6–9). This crate is the
//! instrumentation layer that lets the reproduction make the same
//! decomposition *from a recorded run* instead of from the cost model's
//! constants alone: a ring-buffered structured event tracer stamped
//! with simulated cycles, and a metrics registry of monotonic counters
//! plus log₂-bucketed cycle histograms with snapshot/delta semantics.
//! [`counter_group!`] declares the workspace's typed counter groups,
//! each field once beside its exported name.
//!
//! ## Design rules
//!
//! * **Leaf crate.** No dependencies, not even on `sjmp-mem`: callers
//!   pass plain `u64` cycle timestamps (read from their `CycleClock`),
//!   so every other crate in the workspace can depend on this one.
//! * **Zero modeled cost.** Recording an event never advances the
//!   simulated clock — the tracer only *reads* timestamps handed to it.
//!   A run with tracing enabled therefore reports bit-identical modeled
//!   cycle counts to the same run with tracing disabled; this is an
//!   invariant tested in `tests/trace_invariants.rs` at the workspace
//!   root, not an aspiration.
//! * **Zero work when disabled.** [`Tracer`] is an `Option<Arc<..>>`;
//!   the disabled tracer (the [`Default`]) is `None` and every
//!   recording call is a single branch on it.
//! * **Paired spans.** Durations come from [`Phase::Begin`]/
//!   [`Phase::End`] pairs matched per `(core, kind)`; the matcher feeds
//!   the cycle histograms so per-syscall breakdowns (a trace-derived
//!   Table 2) fall out of the registry without offline processing —
//!   though the full event stream is also exportable as Chrome
//!   `trace_event` JSON for timeline inspection.
//!
//! ## Quick example
//!
//! ```
//! use sjmp_trace::{EventKind, Tracer};
//!
//! let t = Tracer::new(1024);
//! t.begin(100, 0, EventKind::VasSwitch, 7);
//! t.begin(110, 0, EventKind::Cr3Load, 0);
//! t.end(240, 0, EventKind::Cr3Load, 0);
//! t.end(300, 0, EventKind::VasSwitch, 7);
//! let snap = t.snapshot();
//! assert_eq!(snap.histogram("vas_switch").unwrap().sum, 200);
//! assert_eq!(snap.histogram("cr3_load").unwrap().sum, 130);
//! let chrome = t.chrome_trace_json(2.4e9); // ready for chrome://tracing
//! assert!(chrome.contains("\"traceEvents\""));
//! ```

pub mod chrome;
pub mod event;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod request;
pub mod ring;
pub mod tracer;

pub use chrome::{chrome_trace, parse_chrome_trace, ParsedTrace};
pub use event::{Event, EventKind, Phase};
pub use json::Json;
pub use metrics::{Histogram, MetricsRegistry, MetricsSnapshot};
pub use profile::{fold_stacks, Profile, Subsystem, SubsystemRow};
pub use request::{assemble_requests, slowest_completed, ReqOutcome, ReqPhases, RequestSpan};
pub use ring::Ring;
pub use tracer::Tracer;
