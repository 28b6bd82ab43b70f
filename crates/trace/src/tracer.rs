//! The tracer handle: clone-freely, share everywhere, pay nothing
//! when disabled.
//!
//! A [`Tracer`] is `Option<Arc<Mutex<state>>>`. The disabled tracer —
//! [`Tracer::disabled`], also the [`Default`] — is `None`, so every
//! recording call on it is one branch and an immediate return; there
//! is no buffer, no lock, no atomic. Instrumented subsystems can
//! therefore hold a `Tracer` field unconditionally.
//!
//! The enabled tracer records [`Event`]s into a bounded [`Ring`] and
//! simultaneously feeds a [`MetricsRegistry`]: `Instant` events bump a
//! counter named after their kind, and each `End` is matched against
//! the most recent open `Begin` of the same `(core, kind)` to record
//! the span's cycle duration into a histogram of the same name. The
//! simulated clock is never touched — timestamps are read by the
//! *caller* and passed in — so enabling tracing cannot perturb modeled
//! costs.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::chrome::chrome_trace;
use crate::event::{Event, EventKind, Phase};
use crate::json::Json;
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::ring::Ring;

#[derive(Debug)]
struct TraceState {
    ring: Ring,
    metrics: MetricsRegistry,
    /// Open-span begin timestamps, a stack per `(core, kind)`.
    open: HashMap<(u32, EventKind), Vec<u64>>,
    /// `End` events that arrived with no open `Begin` (an
    /// instrumentation bug; surfaced rather than hidden).
    unmatched_ends: u64,
}

/// Shared, cheaply clonable tracing handle. See the module docs.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<Mutex<TraceState>>>);

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Tracer({})",
            if self.0.is_some() {
                "enabled"
            } else {
                "disabled"
            }
        )
    }
}

impl Tracer {
    /// An enabled tracer whose ring holds at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Tracer(Some(Arc::new(Mutex::new(TraceState {
            ring: Ring::new(capacity),
            metrics: MetricsRegistry::new(),
            open: HashMap::new(),
            unmatched_ends: 0,
        }))))
    }

    /// The no-op tracer: every call is a single branch.
    pub fn disabled() -> Self {
        Tracer(None)
    }

    /// True when events are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    fn push(&self, ev: Event) {
        let Some(inner) = &self.0 else { return };
        let mut st = inner.lock().expect("tracer poisoned");
        match ev.phase {
            Phase::Begin => {
                st.open.entry((ev.core, ev.kind)).or_default().push(ev.ts);
            }
            Phase::End => {
                let begin = st
                    .open
                    .get_mut(&(ev.core, ev.kind))
                    .and_then(|stack| stack.pop());
                match begin {
                    Some(start) => {
                        let dur = ev.ts.saturating_sub(start);
                        st.metrics.record(ev.kind.name(), dur);
                    }
                    None => st.unmatched_ends += 1,
                }
            }
            Phase::Instant => {
                st.metrics.add(ev.kind.name(), 1);
            }
        }
        st.ring.push(ev);
    }

    /// Opens a span of `kind` on `core` at cycle `ts`.
    #[inline]
    pub fn begin(&self, ts: u64, core: u32, kind: EventKind, arg0: u64) {
        if self.0.is_none() {
            return;
        }
        self.push(Event {
            ts,
            core,
            phase: Phase::Begin,
            kind,
            arg0,
            arg1: 0,
        });
    }

    /// Closes the most recent open span of `kind` on `core`, recording
    /// its duration into the kind's cycle histogram.
    #[inline]
    pub fn end(&self, ts: u64, core: u32, kind: EventKind, arg0: u64) {
        if self.0.is_none() {
            return;
        }
        self.push(Event {
            ts,
            core,
            phase: Phase::End,
            kind,
            arg0,
            arg1: 0,
        });
    }

    /// Records a point event, bumping the kind's counter.
    #[inline]
    pub fn instant(&self, ts: u64, core: u32, kind: EventKind, arg0: u64, arg1: u64) {
        if self.0.is_none() {
            return;
        }
        self.push(Event {
            ts,
            core,
            phase: Phase::Instant,
            kind,
            arg0,
            arg1,
        });
    }

    /// Adds `n` to the named counter (for values that are not event
    /// counts, e.g. pages freed by an eviction).
    pub fn add(&self, name: &str, n: u64) {
        let Some(inner) = &self.0 else { return };
        inner.lock().expect("tracer poisoned").metrics.add(name, n);
    }

    /// Records a cycle value into the named histogram directly (for
    /// durations measured by the caller rather than via begin/end).
    pub fn record_cycles(&self, name: &str, cycles: u64) {
        let Some(inner) = &self.0 else { return };
        inner
            .lock()
            .expect("tracer poisoned")
            .metrics
            .record(name, cycles);
    }

    /// A copy of the live events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        match &self.0 {
            Some(inner) => inner.lock().expect("tracer poisoned").ring.to_vec(),
            None => Vec::new(),
        }
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        match &self.0 {
            Some(inner) => inner.lock().expect("tracer poisoned").ring.dropped(),
            None => 0,
        }
    }

    /// `End` events that had no matching open `Begin`.
    pub fn unmatched_ends(&self) -> u64 {
        match &self.0 {
            Some(inner) => inner.lock().expect("tracer poisoned").unmatched_ends,
            None => 0,
        }
    }

    /// Spans still open (begin without end so far), as
    /// `(core, kind, begin_ts)`.
    pub fn open_spans(&self) -> Vec<(u32, EventKind, u64)> {
        match &self.0 {
            Some(inner) => {
                let st = inner.lock().expect("tracer poisoned");
                let mut out = Vec::new();
                for (&(core, kind), stack) in &st.open {
                    for &ts in stack {
                        out.push((core, kind, ts));
                    }
                }
                out.sort();
                out
            }
            None => Vec::new(),
        }
    }

    /// Snapshot of the counters and histograms accumulated so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.0 {
            Some(inner) => inner.lock().expect("tracer poisoned").metrics.snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    /// Discards events, metrics, and open-span state.
    pub fn clear(&self) {
        let Some(inner) = &self.0 else { return };
        let mut st = inner.lock().expect("tracer poisoned");
        st.ring.clear();
        st.metrics.clear();
        st.open.clear();
        st.unmatched_ends = 0;
    }

    /// The recorded events as a Chrome `trace_event` JSON document.
    /// `freq_hz` converts cycle timestamps to the microseconds the
    /// format requires.
    pub fn chrome_trace_json(&self, freq_hz: f64) -> String {
        chrome_trace(&self.events(), freq_hz, self.dropped()).to_string()
    }

    /// The metrics snapshot as a flat JSON document.
    pub fn metrics_json(&self) -> Json {
        self.snapshot().to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        t.begin(1, 0, EventKind::VasSwitch, 0);
        t.end(2, 0, EventKind::VasSwitch, 0);
        t.instant(3, 0, EventKind::TlbMiss, 0, 0);
        t.add("x", 5);
        t.record_cycles("y", 9);
        assert!(t.events().is_empty());
        assert_eq!(t.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn spans_feed_histograms_and_nest() {
        let t = Tracer::new(64);
        t.begin(100, 0, EventKind::VasSwitch, 1);
        t.begin(120, 0, EventKind::Cr3Load, 1);
        t.end(250, 0, EventKind::Cr3Load, 1);
        t.end(300, 0, EventKind::VasSwitch, 1);
        // Same-kind nesting: inner pairs with innermost begin.
        t.begin(400, 0, EventKind::Mmap, 1);
        t.begin(410, 0, EventKind::Mmap, 2);
        t.end(420, 0, EventKind::Mmap, 2);
        t.end(450, 0, EventKind::Mmap, 1);
        let snap = t.snapshot();
        assert_eq!(snap.histogram("vas_switch").unwrap().sum, 200);
        assert_eq!(snap.histogram("cr3_load").unwrap().sum, 130);
        let mmap = snap.histogram("mmap").unwrap();
        assert_eq!(mmap.count, 2);
        assert_eq!(mmap.sum, 10 + 50);
        assert_eq!(t.unmatched_ends(), 0);
        assert!(t.open_spans().is_empty());
    }

    #[test]
    fn per_core_spans_do_not_cross() {
        let t = Tracer::new(64);
        t.begin(100, 0, EventKind::RpcSend, 0);
        t.begin(150, 1, EventKind::RpcSend, 0);
        t.end(160, 1, EventKind::RpcSend, 0);
        t.end(500, 0, EventKind::RpcSend, 0);
        let h = t.snapshot();
        let h = h.histogram("rpc_send").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 10);
        assert_eq!(h.max, 400);
    }

    #[test]
    fn instants_count_and_unmatched_ends_surface() {
        let t = Tracer::new(64);
        t.instant(1, 0, EventKind::TlbMiss, 0, 0);
        t.instant(2, 0, EventKind::TlbMiss, 0, 0);
        t.end(3, 0, EventKind::PageWalk, 0);
        assert_eq!(t.snapshot().counter("tlb_miss"), 2);
        assert_eq!(t.unmatched_ends(), 1);
    }

    #[test]
    fn clones_share_state() {
        let t = Tracer::new(8);
        let u = t.clone();
        u.instant(1, 0, EventKind::Evict, 3, 1);
        assert_eq!(t.events().len(), 1);
        t.clear();
        assert!(u.events().is_empty());
    }
}
