//! Order statistics for the benchmark's reports.
//!
//! Host time on a shared machine has one-sided noise (a stall only ever
//! adds time), so every reported time is a percentile, never a mean, and
//! every percentile travels with its sample count.

/// Latency ops (gups window visits, kv requests, genome appends) per
/// window: the unit a run's host time is read from.
pub const WINDOW_OPS: usize = 16;

/// Percentile of a run's windows (or rounds) that its host times are read
/// from; see [`quiet`].
pub const QUIET_PCT: f64 = 0.5;

/// Median of `xs` (mean of the two middle values for an even count);
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The host time a run reports out of its samples (windows, rounds or
/// set-ups): their nearest-rank [`QUIET_PCT`]-th percentile, which is the
/// minimum for fewer than 200 samples.
///
/// Other tenants of a shared machine slow it down by up to 1.8 times in
/// episodes of several seconds to a few tens of seconds, with quiet
/// stretches of a fraction of a millisecond and up between them. A
/// median, or a first quartile, follows the share of the run the episodes
/// cover; a low percentile of sub-millisecond windows comes from the
/// quiet stretches. Over eight 20 s runs per workload on a shared 2-vCPU
/// virtual machine, the run-to-run relative IQR of the windows' median
/// was 0.25 to 0.32 and that of their 0.5th percentile 0.04 to 0.05 (0.12
/// on `kv_mixed`, where one run fell wholly inside an episode). A change
/// to the code shifts every window, so it moves the low percentile as
/// much as the median. A slow stretch that covers a whole run has no
/// quiet windows; `calib.rs` takes care of that.
pub fn quiet(xs: &[f64]) -> f64 {
    percentile(xs, QUIET_PCT).0
}

/// Nearest-rank `p`-th percentile (`0 < p <= 100`) of `xs` and the number
/// of samples it was taken from; `NaN` for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> (f64, usize) {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return (f64::NAN, 0);
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    (v[rank.clamp(1, n) - 1], n)
}

/// Host time of a loop of latency ops, cut into consecutive windows of
/// [`WINDOW_OPS`] ops (a short last window is dropped).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Windows {
    /// Host ns per op of each window.
    pub ns_per_op: Vec<f64>,
    /// Median latency of the latency ops of each window, ns.
    pub p50_ns: Vec<f64>,
}

/// Windows of the latency ops whose loop-relative end times are `ends`
/// (the first op runs from the loop start); each latency op stands for
/// `ops_per_entry` ops.
pub fn windows(ends: &[u64], ops_per_entry: u64) -> Windows {
    let durations = durations(ends);
    let (ns_per_op, p50_ns) = durations
        .chunks_exact(WINDOW_OPS)
        .map(|w| {
            let ns: f64 = w.iter().sum();
            (ns / (w.len() as u64 * ops_per_entry) as f64, median(w))
        })
        .unzip();
    Windows { ns_per_op, p50_ns }
}

/// Median and 99th percentile of the op latencies of one measured region.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Latency {
    /// Median op latency, ns.
    pub p50_ns: f64,
    /// 99th-percentile op latency, ns.
    pub p99_ns: f64,
    /// Ops measured.
    pub samples: usize,
}

/// Latency of the ops whose region-relative end times are `ends` (the
/// first op runs from the region start).
pub fn latency(ends: &[u64]) -> Latency {
    let ops = durations(ends);
    let (p50_ns, samples) = percentile(&ops, 50.0);
    Latency {
        p50_ns,
        p99_ns: percentile(&ops, 99.0).0,
        samples,
    }
}

/// Differences of consecutive end times, the first from 0.
fn durations(ends: &[u64]) -> Vec<f64> {
    let mut prev = 0;
    ends.iter()
        .map(|&e| {
            let d = e - prev;
            prev = e;
            d as f64
        })
        .collect()
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentiles_use_nearest_rank_and_report_the_sample_count() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), (100.0, 200));
        assert_eq!(percentile(&xs, 99.0), (198.0, 200));
        assert_eq!(percentile(&xs, 100.0), (200.0, 200));
        assert_eq!(percentile(&[7.0], 99.0), (7.0, 1));
        assert!(percentile(&[], 50.0).0.is_nan());
    }

    #[test]
    fn quiet_reads_the_fast_stretches_of_a_mostly_slow_run() {
        // 10 quiet windows among 990 slowed by an episode: the median
        // follows the episode, the quiet percentile does not.
        let mut run = vec![18.0; 990];
        run.extend((0..10).map(|i| 10.0 + f64::from(i) / 10.0));
        assert_eq!(quiet(&run), 10.4);
        assert_eq!(median(&run), 18.0);
        // Fewer than 200 samples: the minimum.
        assert_eq!(quiet(&[3.0, 1.0, 2.0]), 1.0);
    }

    #[test]
    fn windows_cut_the_loop_by_op_count() {
        // Two windows of 1 ns ops, then a window of 3 ns ops, then a short
        // tail that is dropped; each entry stands for 2 ops.
        let mut ends = Vec::new();
        let mut t = 0;
        for i in 0..3 * WINDOW_OPS + 5 {
            t += if i < 2 * WINDOW_OPS { 1 } else { 3 };
            ends.push(t);
        }
        let w = windows(&ends, 2);
        assert_eq!(w.ns_per_op, vec![0.5, 0.5, 1.5]);
        assert_eq!(w.p50_ns, vec![1.0, 1.0, 3.0]);
        assert_eq!(windows(&ends[..WINDOW_OPS - 1], 1), Windows::default());
    }

    #[test]
    fn latency_takes_differences_of_end_times() {
        let l = latency(&[5, 7, 12]);
        assert_eq!((l.p50_ns, l.p99_ns, l.samples), (5.0, 5.0, 3));
        assert_eq!(latency(&[2, 3, 4, 5]).p50_ns, 1.0);
    }
}
