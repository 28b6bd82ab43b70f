//! Counter groups and the metrics registry.
//!
//! Two halves share one export form, [`MetricsSnapshot`]:
//!
//! * **Counter groups** ([`counter_group!`](crate::counter_group)).
//!   Each subsystem keeps its always-on counters in a plain `Copy`
//!   struct of `pub u64` fields, so a hot-path increment stays one
//!   field add. The macro declares such a struct with every field
//!   listed once beside its exported name, and generates the phase
//!   delta, the element-wise sum and the `(name, value)` list from
//!   that one list. `sjmp_blk::BlkStats` is the one group written by
//!   hand, because `sjmp-blk` has no dependencies; it offers the same
//!   three operations.
//! * **The registry** ([`MetricsRegistry`]). Named `u64` counters and
//!   named log₂ [`Histogram`]s of cycle durations, filled by the tracer
//!   as spans end.
//!
//! A counter group exports by writing its `counters()` into a
//! [`MetricsSnapshot`]. A phase is measured either way round: subtract
//! the typed groups and export the difference, or export both ends and
//! [`MetricsSnapshot::delta`] them. The two agree on every counter;
//! gauges differ by design (the typed delta keeps the current reading,
//! the exported delta subtracts).

use std::collections::BTreeMap;

use crate::json::Json;

/// Declares a counter group: a `Copy`/`Default`/`PartialEq` struct of
/// `pub u64` fields, each listed once with the metric name it exports
/// under.
///
/// The macro generates, from that one list:
///
/// * `delta_since(&earlier)`: the group's reading since an older
///   snapshot of the same source. Counters subtract; a group declared
///   `: gauges` keeps its current reading instead.
/// * `add(&other)`: the element-wise sum, for folding several sources
///   (cores, devices) into one group.
/// * `counters()`: every field as `(exported name, value)`, in
///   declaration order, ready for [`MetricsSnapshot::extend`].
///
/// Field attributes (doc comments) pass through to the struct.
///
/// ```
/// sjmp_trace::counter_group! {
///     /// Widget events.
///     pub struct WidgetStats {
///         /// Widgets made.
///         made => "widget.made",
///         /// Widgets broken.
///         broken => "widget.broken",
///     }
/// }
///
/// let early = WidgetStats { made: 2, broken: 0 };
/// let late = WidgetStats { made: 5, broken: 1 };
/// assert_eq!(late.delta_since(&early), WidgetStats { made: 3, broken: 1 });
/// assert_eq!(late.add(&early).made, 7);
/// assert_eq!(late.counters(), [("widget.made", 5), ("widget.broken", 1)]);
/// ```
#[macro_export]
macro_rules! counter_group {
    (@delta, $now:ident, $earlier:ident, $name:ident { $($field:ident)* }) => {
        $name { $($field: $now.$field - $earlier.$field,)* }
    };
    (@delta gauges, $now:ident, $earlier:ident, $name:ident { $($field:ident)* }) => {{
        let _ = $earlier;
        *$now
    }};
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident $(: $kind:ident)? {
            $(
                $(#[$fmeta:meta])*
                $field:ident => $metric:literal,
            )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $name {
            $(
                $(#[$fmeta])*
                pub $field: u64,
            )*
        }

        impl $name {
            /// The group's reading since `earlier`, an older snapshot of
            /// the same source, for phase measurements without resetting
            /// the live counters. Counters subtract; gauges keep the
            /// current reading.
            pub fn delta_since(&self, earlier: &$name) -> $name {
                $crate::counter_group!(@delta $($kind)?, self, earlier, $name { $($field)* })
            }

            /// Element-wise sum, for folding several sources into one group.
            pub fn add(&self, other: &$name) -> $name {
                $name { $($field: self.$field + other.$field,)* }
            }

            /// Every field as `(exported metric name, value)`, in
            /// declaration order.
            pub fn counters(&self) -> [(&'static str, u64); [$($metric),*].len()] {
                [$(($metric, self.$field)),*]
            }
        }
    };
}

/// Number of histogram buckets: bucket `i` counts values whose bit
/// length is `i` (value 0 lands in bucket 0, so `u64` needs 65).
pub const HIST_BUCKETS: usize = 65;

/// A log₂-bucketed histogram of cycle durations.
///
/// Bucket `i` counts values `v` with `2^(i-1) <= v < 2^i` (bucket 0
/// counts zeros), so the full `u64` range is covered in 65 buckets —
/// coarse at the top, precise where syscall costs actually live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Log₂ buckets; see the type docs for the boundaries.
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl Histogram {
    /// Bucket index for a value.
    pub fn bucket_index(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[Self::bucket_index(v)] += 1;
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Index of the bucket holding the inclusive one-based rank
    /// (`1..=count`).
    fn rank_bucket(&self, rank: u64) -> usize {
        debug_assert!(rank >= 1 && rank <= self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return i;
            }
        }
        HIST_BUCKETS - 1
    }

    /// Upper bound of the bucket holding the inclusive one-based rank
    /// (`1..=count`).
    fn rank_upper_bound(&self, rank: u64) -> u64 {
        // Bucket i holds values of bit length i: [2^(i-1), 2^i).
        match self.rank_bucket(rank) {
            i if i >= 64 => u64::MAX,
            0 => 0,
            i => (1u64 << i) - 1,
        }
    }

    /// The `p`-th percentile (`p` in `[0, 100]`) as a **conservative
    /// upper bound**: the log₂ bucket boundary at the percentile rank,
    /// clamped to the exact recorded `[min, max]`.
    ///
    /// The returned value `r` brackets the true percentile `v` as
    /// `v <= r < 2 * v` — the relative error of one power-of-two bucket
    /// — and is exact whenever the rank lands in the min or max bucket
    /// after clamping (in particular p0 and p100 are exact). Because `r`
    /// never under-reports, `r <= deadline` proves the true tail meets
    /// the deadline, which is how the overload benchmarks gate p999.
    /// Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        // Inclusive nearest-rank definition: the smallest value with at
        // least ceil(p/100 * count) observations at or below it.
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        // Rank 1 is the smallest recorded value and rank `count` the
        // largest — both are tracked exactly, so report them exactly.
        if rank == 1 {
            return self.min;
        }
        if rank == self.count {
            return self.max;
        }
        self.rank_upper_bound(rank).clamp(self.min, self.max)
    }

    /// The exact `(lower, upper)` bracket of the `p`-th percentile.
    ///
    /// `upper` is exactly [`Histogram::percentile`]'s conservative
    /// bound; `lower` is the inclusive lower edge of the same log₂
    /// bucket (`2^(i-1)`, or 0 for the zero bucket), clamped to the
    /// recorded `[min, max]`. The true percentile `v` always satisfies
    /// `lower <= v <= upper`, and `lower == upper` whenever the rank is
    /// resolved exactly (min/max ranks, single-value histograms).
    /// Returns `(0, 0)` for an empty histogram.
    pub fn percentile_bounds(&self, p: f64) -> (u64, u64) {
        if self.count == 0 {
            return (0, 0);
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank == 1 {
            return (self.min, self.min);
        }
        if rank == self.count {
            return (self.max, self.max);
        }
        let i = self.rank_bucket(rank);
        let upper = match i {
            i if i >= 64 => u64::MAX,
            0 => 0,
            i => (1u64 << i) - 1,
        }
        .clamp(self.min, self.max);
        // Inclusive lower edge of bucket i is 2^(i-1) (0 for bucket 0);
        // the recorded min tightens it further. The rank's bucket holds
        // at least one recorded value, so the edge never exceeds `max`.
        let lower = match i {
            0 => 0,
            i => 1u64 << (i - 1),
        }
        .clamp(self.min, upper);
        (lower, upper)
    }

    /// The counts recorded since `earlier` (which must be an older
    /// snapshot of the same histogram). Min/max cannot be subtracted,
    /// so the delta keeps `self`'s: they stay correct when all
    /// recording happened after `earlier`, which is the snapshot/delta
    /// contract.
    pub fn delta(&self, earlier: &Histogram) -> Histogram {
        let mut out = Histogram {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            min: self.min,
            max: self.max,
            buckets: [0; HIST_BUCKETS],
        };
        for i in 0..HIST_BUCKETS {
            out.buckets[i] = self.buckets[i].saturating_sub(earlier.buckets[i]);
        }
        if out.count == 0 {
            out.min = u64::MAX;
            out.max = 0;
        }
        out
    }

    /// Flat JSON form (non-empty buckets only, keyed by upper bound).
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            ("count".to_string(), Json::from_u64(self.count)),
            ("sum".to_string(), Json::from_u64(self.sum)),
            (
                "min".to_string(),
                Json::from_u64(if self.count == 0 { 0 } else { self.min }),
            ),
            ("max".to_string(), Json::from_u64(self.max)),
            ("mean".to_string(), Json::Float(self.mean())),
        ];
        let mut buckets = Vec::new();
        for (i, &n) in self.buckets.iter().enumerate() {
            if n != 0 {
                // Upper bound of bucket i is 2^i - 1 (bucket 0 holds 0).
                let le = if i == 0 { 0 } else { (1u128 << i) - 1 };
                buckets.push(Json::Obj(vec![
                    ("le".to_string(), Json::Float(le as f64)),
                    ("n".to_string(), Json::from_u64(n)),
                ]));
            }
        }
        obj.push(("buckets".to_string(), Json::Arr(buckets)));
        Json::Obj(obj)
    }
}

/// Mutable registry of named counters and histograms.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter `name`, creating it at zero.
    pub fn add(&mut self, name: &str, n: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += n;
        } else {
            self.counters.insert(name.to_string(), n);
        }
    }

    /// Records a cycle duration into the histogram `name`.
    pub fn record(&mut self, name: &str, cycles: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.record(cycles);
        } else {
            let mut h = Histogram::default();
            h.record(cycles);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// An immutable copy of the current state.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            histograms: self.histograms.clone(),
        }
    }

    /// Drops all counters and histograms.
    pub fn clear(&mut self) {
        self.counters.clear();
        self.histograms.clear();
    }
}

/// A point-in-time copy of a [`MetricsRegistry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Cycle histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Value of a counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Sets a counter directly.
    pub fn set_counter(&mut self, name: &str, v: u64) {
        self.counters.insert(name.to_string(), v);
    }

    /// What happened between `earlier` and `self`: counters and
    /// histogram counts subtract; names present only in `self` pass
    /// through unchanged.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for (name, &v) in &self.counters {
            let base = earlier.counters.get(name).copied().unwrap_or(0);
            out.counters.insert(name.clone(), v.saturating_sub(base));
        }
        for (name, h) in &self.histograms {
            let d = match earlier.histograms.get(name) {
                Some(e) => h.delta(e),
                None => *h,
            };
            out.histograms.insert(name.clone(), d);
        }
        out
    }

    /// Flat JSON dump: `{"counters": {...}, "histograms": {...}}`.
    pub fn to_json(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(k, &v)| (k.clone(), Json::from_u64(v)))
                .collect(),
        );
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.to_json()))
                .collect(),
        );
        Json::Obj(vec![
            ("counters".to_string(), counters),
            ("histograms".to_string(), histograms),
        ])
    }
}

/// Sets each `(name, value)` counter: how a counter group's
/// `counters()` lands in an export.
impl<'a> Extend<(&'a str, u64)> for MetricsSnapshot {
    fn extend<I: IntoIterator<Item = (&'a str, u64)>>(&mut self, counters: I) {
        for (name, v) in counters {
            self.set_counter(name, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn histogram_records_and_deltas() {
        let mut h = Histogram::default();
        h.record(100);
        h.record(700);
        let early = h;
        h.record(1127);
        let d = h.delta(&early);
        assert_eq!(d.count, 1);
        assert_eq!(d.sum, 1127);
        assert_eq!(d.buckets[Histogram::bucket_index(1127)], 1);
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 100);
        assert_eq!(h.max, 1127);
    }

    #[test]
    fn percentiles_are_conservative_and_bucket_bounded() {
        let mut h = Histogram::default();
        // 90 fast ops at 1000 cycles, 9 at 5000, one straggler at 70000.
        for _ in 0..90 {
            h.record(1000);
        }
        for _ in 0..9 {
            h.record(5000);
        }
        h.record(70_000);
        // p50 rank lands in the 1000-cycle bucket: upper bound 1023.
        let p50 = h.percentile(50.0);
        assert!((1000..2000).contains(&p50), "p50 = {p50}");
        // p99 rank 99 lands in the 5000 bucket: bound within 2x.
        let p99 = h.percentile(99.0);
        assert!((5000..10_000).contains(&p99), "p99 = {p99}");
        // p100 clamps to the exact max; p0 to the exact min.
        assert_eq!(h.percentile(100.0), 70_000);
        assert_eq!(h.percentile(0.0), 1000);
        // Out-of-range p clamps instead of panicking.
        assert_eq!(h.percentile(250.0), 70_000);
        assert_eq!(Histogram::default().percentile(99.0), 0);
    }

    #[test]
    fn percentile_bounds_bracket_the_truth() {
        let mut h = Histogram::default();
        for _ in 0..90 {
            h.record(1000);
        }
        for _ in 0..9 {
            h.record(5000);
        }
        h.record(70_000);
        // p50 rank lands in the 1000 bucket: [512, 1023] clamped to
        // min=1000 below.
        let (lo, hi) = h.percentile_bounds(50.0);
        assert!(lo <= 1000 && 1000 <= hi, "p50 bounds ({lo}, {hi})");
        assert_eq!(hi, h.percentile(50.0));
        // p99 (rank 99) is truly 5000: bucket 13 covers [4096, 8191].
        let (lo, hi) = h.percentile_bounds(99.0);
        assert!(lo <= 5000 && 5000 <= hi, "p99 bounds ({lo}, {hi})");
        assert!(lo >= 4096, "p99 lower bound {lo} below bucket edge");
        // Min and max ranks are exact: bounds collapse.
        assert_eq!(h.percentile_bounds(0.0), (1000, 1000));
        assert_eq!(h.percentile_bounds(100.0), (70_000, 70_000));
        assert_eq!(Histogram::default().percentile_bounds(99.0), (0, 0));
    }

    #[test]
    fn percentile_bounds_max_bucket_shared() {
        // Two values share the top bucket; a rank resolving there must
        // keep a lower bound at the bucket edge, not claim exactness.
        let mut h = Histogram::default();
        for _ in 0..8 {
            h.record(100);
        }
        h.record(70_000); // bucket 17: [65536, 131071]
        h.record(100_000); // same bucket; max = 100_000
        let (lo, hi) = h.percentile_bounds(90.0); // rank 9 -> 70_000
        assert!(lo <= 70_000 && 70_000 <= hi, "bounds ({lo}, {hi})");
        assert_eq!(lo, 65_536);
        assert_eq!(hi, 100_000); // bucket top 131071 clamps to max
    }

    #[test]
    fn percentile_single_value_is_exact() {
        let mut h = Histogram::default();
        h.record(1127);
        for p in [0.0, 50.0, 99.0, 99.9, 100.0] {
            assert_eq!(h.percentile(p), 1127, "p{p}");
        }
    }

    #[test]
    fn p999_separates_the_tail() {
        let mut h = Histogram::default();
        for _ in 0..999 {
            h.record(100);
        }
        h.record(1 << 20);
        // Rank 999 of 1000 is still the fast bucket...
        assert!(h.percentile(99.8) < 200);
        // ...while p99.9 and above reach the straggler's bucket.
        assert!(h.percentile(99.95) >= 1 << 20);
    }

    #[test]
    fn registry_snapshot_delta() {
        let mut reg = MetricsRegistry::new();
        reg.add("tlb.misses", 5);
        reg.record("vas_switch", 1127);
        let s1 = reg.snapshot();
        reg.add("tlb.misses", 3);
        reg.add("tlb.hits", 10);
        reg.record("vas_switch", 807);
        let s2 = reg.snapshot();
        let d = s2.delta(&s1);
        assert_eq!(d.counter("tlb.misses"), 3);
        assert_eq!(d.counter("tlb.hits"), 10);
        let h = d.histogram("vas_switch").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 807);
    }

    #[test]
    fn snapshot_json_shape() {
        let mut reg = MetricsRegistry::new();
        reg.add("evictions", 2);
        reg.record("swap_out", 60_000);
        let j = reg.snapshot().to_json();
        let text = j.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(
            back.get("counters").and_then(|c| c.get("evictions")),
            Some(&Json::Int(2))
        );
        let hist = back.get("histograms").and_then(|h| h.get("swap_out"));
        assert!(hist.is_some());
        assert_eq!(hist.unwrap().get("count"), Some(&Json::Int(1)));
    }
}
