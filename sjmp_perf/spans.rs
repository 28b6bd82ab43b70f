//! Host-time spans around the calls the benchmark makes into each layer.
//!
//! Spans exist only in traced rounds; in untraced rounds [`Spans::time`]
//! is a flag test and a call. Each finished span feeds a per-name
//! aggregate (durations and busy time) at once, and the first
//! [`EXPORT_CAP`] spans are also kept whole for the Chrome trace.
//!
//! Busy time is self time: a span's duration minus its children's. Some
//! spans are *sampled*: gups times only 1 in 64 accesses, because a clock
//! read costs about a fifth of an access. A timed access also runs slower
//! than an untimed one (the clock reads stop consecutive accesses from
//! overlapping), so scaling the samples up by 64 would over-count them.
//! Instead, a parent's time not covered by its other children is shared
//! among the sampled names in proportion to their sampled time. Busy
//! times of all names add up to the time covered by top-level spans; the
//! rest of the measured region is unattributed.
//!
//! Every duration has the cost of timing an empty span subtracted,
//! measured when recording first switches on.

use std::time::Instant;

use sjmp_trace::Json;

/// Spans kept for the Chrome trace; later spans only feed the aggregates.
const EXPORT_CAP: usize = 20_000;
/// Empty spans timed to measure the cost of timing.
const CALIBRATION_SPANS: usize = 10_000;

/// Every span name the benchmark records, in report order.
const NAMES: [&str; 19] = [
    "gups.visit",
    "sim.rng",
    "core.vas_switch",
    "os.access",
    "os.dispatch",
    "mem.translate",
    "sim.clock",
    "mem.phys",
    "kv.get",
    "kv.set",
    "genome.append",
    "genome.flagstat",
    "genome.qname_sort",
    "genome.coordinate_sort",
    "genome.index",
    "os.spawn",
    "core.vas_attach",
    "core.vas_detach",
    "os.exit",
];

/// Aggregate of every span of one name.
#[derive(Debug, Clone, Default)]
struct Layer {
    /// Durations of the recorded spans, ns.
    durations: Vec<u64>,
    /// Self time of its unsampled spans, ns.
    self_ns: u64,
    /// Duration of its sampled spans, ns.
    sampled_ns: u64,
}

/// A finished span kept for export.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// A span still open.
#[derive(Debug)]
struct Open {
    layer: usize,
    start_ns: u64,
    sampled: bool,
    /// Duration of its unsampled children, ns.
    children_ns: u64,
    /// Whether any child was sampled.
    sampled_children: bool,
    export: Option<usize>,
}

/// The span recorder of one child process.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    op: u64,
    open: Vec<Open>,
    layers: Vec<Layer>,
    /// Parent time left to the sampled names, ns.
    sampled_pool_ns: u64,
    top_level_ns: u64,
    exported: Vec<Span>,
    dropped: u64,
    /// Cost of timing an empty span, ns; `None` until measured.
    overhead_ns: Option<u64>,
}

/// Handle for a span opened with [`Spans::begin`].
#[must_use]
pub struct Token(bool);

impl Default for Spans {
    fn default() -> Self {
        Spans {
            on: false,
            origin: Instant::now(),
            op: 0,
            open: Vec::new(),
            layers: vec![Layer::default(); NAMES.len()],
            sampled_pool_ns: 0,
            top_level_ns: 0,
            exported: Vec::new(),
            dropped: 0,
            overhead_ns: None,
        }
    }
}

impl Spans {
    /// Switches recording on or off (between rounds, with no span open).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled with a span open");
        if on && self.overhead_ns.is_none() {
            self.overhead_ns = Some(timing_cost());
        }
        self.on = on;
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Tags the spans that follow with op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span whose children are timed inside it.
    pub fn begin(&mut self, name: &'static str) -> Token {
        self.open_span(name, false)
    }

    /// Opens a sampled span, which must have no children.
    pub fn begin_sampled(&mut self, name: &'static str) -> Token {
        self.open_span(name, true)
    }

    /// Closes the span `token` opened.
    pub fn end(&mut self, token: Token) {
        if token.0 {
            self.close_span();
        }
    }

    /// Times `f` as one call of `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let token = self.begin(name);
        let out = f();
        self.end(token);
        out
    }

    /// Times `f` as a sampled call of `name`.
    pub fn time_sampled<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let token = self.begin_sampled(name);
        let out = f();
        self.end(token);
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn open_span(&mut self, name: &'static str, sampled: bool) -> Token {
        if !self.on {
            return Token(false);
        }
        let layer = NAMES
            .iter()
            .position(|n| *n == name)
            .expect("span name listed in NAMES");
        let start_ns = self.now_ns();
        let export = if self.exported.len() < EXPORT_CAP {
            self.exported.push(Span {
                name,
                start_ns,
                dur_ns: 0,
                parent: self.open.last().and_then(|o| o.export),
                op: self.op,
            });
            Some(self.exported.len() - 1)
        } else {
            self.dropped += 1;
            None
        };
        self.open.push(Open {
            layer,
            start_ns,
            sampled,
            children_ns: 0,
            sampled_children: false,
            export,
        });
        Token(true)
    }

    fn close_span(&mut self) {
        let end_ns = self.now_ns();
        let span = self.open.pop().expect("close without an open span");
        let dur = (end_ns - span.start_ns).saturating_sub(self.overhead_ns.unwrap_or(0));
        if let Some(i) = span.export {
            self.exported[i].dur_ns = dur;
        }
        let layer = &mut self.layers[span.layer];
        layer.durations.push(dur);
        if span.sampled {
            layer.sampled_ns += dur;
            if let Some(parent) = self.open.last_mut() {
                parent.sampled_children = true;
            }
            return;
        }
        let self_ns = dur.saturating_sub(span.children_ns);
        if span.sampled_children {
            self.sampled_pool_ns += self_ns;
        } else {
            layer.self_ns += self_ns;
        }
        match self.open.last_mut() {
            Some(parent) => parent.children_ns += dur,
            None => self.top_level_ns += dur,
        }
    }

    /// Each name's recorded span durations and busy time (ns), in
    /// [`NAMES`] order.
    pub fn layers(&self) -> impl Iterator<Item = (&'static str, &[u64], f64)> {
        let sampled: u64 = self.layers.iter().map(|l| l.sampled_ns).sum();
        let pool = self.sampled_pool_ns as f64;
        NAMES.iter().zip(&self.layers).map(move |(name, l)| {
            let share = if sampled == 0 {
                0.0
            } else {
                pool * l.sampled_ns as f64 / sampled as f64
            };
            (*name, l.durations.as_slice(), l.self_ns as f64 + share)
        })
    }

    /// Time covered by top-level spans, ns.
    pub fn top_level_ns(&self) -> u64 {
        self.top_level_ns
    }

    /// The kept spans as a Chrome `trace_event` document of complete
    /// (`"ph": "X"`) events; `args` carry the span's index, its parent's
    /// index and the op it belongs to.
    pub fn chrome_trace(&self, workload: &str) -> Json {
        let events = self
            .exported
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or(Json::Null, |p| Json::from_u64(p as u64));
                Json::Obj(vec![
                    ("name".into(), Json::str(s.name)),
                    ("cat".into(), Json::str("host")),
                    ("ph".into(), Json::str("X")),
                    ("ts".into(), Json::Float(s.start_ns as f64 / 1e3)),
                    ("dur".into(), Json::Float(s.dur_ns as f64 / 1e3)),
                    ("pid".into(), Json::Int(1)),
                    ("tid".into(), Json::Int(1)),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("span".into(), Json::from_u64(i as u64)),
                            ("parent".into(), parent),
                            ("op".into(), Json::from_u64(s.op)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(events)),
            ("displayTimeUnit".into(), Json::str("ns")),
            (
                "otherData".into(),
                Json::Obj(vec![
                    ("generator".into(), Json::str("sjmp_perf")),
                    ("workload".into(), Json::str(workload)),
                    ("dropped_spans".into(), Json::from_u64(self.dropped)),
                ]),
            ),
        ])
    }
}

/// Median duration of an empty span, timed by a scratch recorder with no
/// correction of its own.
fn timing_cost() -> u64 {
    let mut probe = Spans {
        on: true,
        overhead_ns: Some(0),
        ..Spans::default()
    };
    for _ in 0..CALIBRATION_SPANS {
        probe.time(NAMES[0], || ());
    }
    let mut d = std::mem::take(&mut probe.layers[0].durations);
    d.sort_unstable();
    d[d.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(spans: &Spans, name: &str) -> f64 {
        spans.layers().find(|(n, ..)| *n == name).unwrap().2
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let mut spans = Spans::default();
        assert_eq!(spans.time("sim.rng", || 7), 7);
        let t = spans.begin("gups.visit");
        spans.end(t);
        assert!(spans
            .layers()
            .all(|(_, d, busy)| d.is_empty() && busy == 0.0));
        assert_eq!(spans.top_level_ns(), 0);
    }

    #[test]
    fn busy_times_partition_the_top_level_spans() {
        let work = |n: u64| std::hint::black_box((0..n).sum::<u64>());
        let mut spans = Spans::default();
        spans.set_on(true);
        for op in 0..50 {
            spans.set_op(op);
            let visit = spans.begin("gups.visit");
            spans.time("core.vas_switch", || work(2000));
            for i in 0..64 {
                if i == 0 {
                    spans.time_sampled("os.access", || work(100));
                } else {
                    work(100);
                }
            }
            spans.end(visit);
            spans.time("kv.get", || work(500));
        }
        let total: f64 = spans.layers().map(|(.., b)| b).sum();
        let top = spans.top_level_ns() as f64;
        assert!((total - top).abs() <= 1e-6 * top, "{total} vs {top}");
        // The visit's time outside the switch all goes to the sampled
        // accesses; the unsampled kv.get keeps its own.
        assert_eq!(busy(&spans, "gups.visit"), 0.0);
        assert!(busy(&spans, "os.access") > 0.0);
        assert!(busy(&spans, "kv.get") > 0.0);
        let calls = |name| spans.layers().find(|(n, ..)| *n == name).unwrap().1.len();
        assert_eq!((calls("gups.visit"), calls("os.access")), (50, 50));
    }

    #[test]
    fn chrome_trace_links_children_to_parents_and_parses_back() {
        let mut spans = Spans::default();
        spans.set_on(true);
        spans.set_op(3);
        let parent = spans.begin("genome.flagstat");
        spans.time("os.spawn", || ());
        spans.end(parent);
        let text = spans.chrome_trace("genome_pipeline").to_string();
        let doc = Json::parse(&text).expect("trace is valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        let args = |i: usize| events[i].get("args").unwrap();
        assert_eq!(events[1].get("name"), Some(&Json::str("os.spawn")));
        assert_eq!(args(1).get("parent"), Some(&Json::Int(0)));
        assert_eq!(args(0).get("parent"), Some(&Json::Null));
        assert_eq!(args(1).get("op"), Some(&Json::Int(3)));
        assert_eq!(events[0].get("ph"), Some(&Json::str("X")));
    }
}
