//! The host-speed trajectory, `BENCH_selfperf.json`: one entry per
//! `sjmp_perf` run, appended by `perf_trajectory` and gated by
//! `validate_results --all` through [`check`]. An entry holds a
//! `manifest` (`commit`, `seed`, `seconds`, `quick`), the plain run's
//! summary `metrics` plus `unit_ns`, and the traced run's as `layers`,
//! each named `<workload>.<metric>` and shaped `{"value", "unit"}`.

use sjmp_trace::Json;

/// Where the trajectory lives, relative to the repository root.
pub const PATH: &str = "BENCH_selfperf.json";

/// The trajectory's `bench`: the instrument behind every entry.
pub const BENCH: &str = "sjmp_perf";

/// The `sjmp_perf` workloads every entry records.
pub const WORKLOADS: [&str; 4] = ["gups_walk", "gups_tlb", "kv_mixed", "genome_pipeline"];

/// What every workload records in `metrics`: the end-to-end metrics
/// `BENCHMARK.json` bounds, and the calibration unit's time.
pub const METRICS: [&str; 6] = [
    "ref_ns_per_op",
    "ref_op_p50_us",
    "peak_rss_mib",
    "sim_cycles_per_op",
    "setup_s",
    "unit_ns",
];

/// The gate, which returns the first rule `doc` breaks: a `sjmp_perf`
/// trajectory of at least one run, each with a manifest naming its
/// commit and every workload's [`METRICS`] and layers. Never values.
pub fn check(doc: &Json) -> Result<(), String> {
    let bench = doc.get("bench").and_then(Json::as_str);
    if bench != Some(BENCH) {
        return Err(format!("bench {bench:?}, want \"{BENCH}\""));
    }
    let runs = doc.get("runs").and_then(Json::as_arr);
    let runs = runs
        .filter(|r| !r.is_empty())
        .ok_or("trajectory has no runs")?;
    let mut numbered = runs.iter().enumerate();
    numbered.try_for_each(|(i, run)| check_run(run).map_err(|e| format!("run {i}: {e}")))
}

fn check_run(run: &Json) -> Result<(), String> {
    let manifest = run.get("manifest").ok_or("missing manifest")?;
    let commit = manifest.get("commit").and_then(Json::as_str);
    let commit = commit.ok_or("manifest names no commit")?;
    let hex = |b: u8| matches!(b, b'0'..=b'9' | b'a'..=b'f');
    if commit.len() != 40 || !commit.bytes().all(hex) {
        return Err(format!("manifest commit {commit:?} is not 40 hex digits"));
    }
    let fields = ["seed", "seconds", "quick"];
    if let Some(key) = fields.iter().find(|k| manifest.get(k).is_none()) {
        return Err(format!("manifest has no \"{key}\""));
    }
    let names = |key: &str| match run.get(key) {
        Some(Json::Obj(metrics)) => metrics.iter().map(|(name, _)| name.clone()).collect(),
        _ => Vec::new(),
    };
    let (metrics, layers): (Vec<String>, Vec<String>) = (names("metrics"), names("layers"));
    for w in WORKLOADS {
        let of_w = |name: &String| name.strip_prefix(w).is_some_and(|m| m.starts_with('.'));
        if !metrics.iter().any(of_w) {
            return Err(format!("missing workload \"{w}\""));
        }
        let has = |m: &&str| metrics.contains(&format!("{w}.{m}"));
        if let Some(m) = METRICS.iter().find(|m| !has(m)) {
            return Err(format!("missing metric \"{w}.{m}\""));
        }
        if !layers.iter().any(of_w) {
            return Err(format!("no layers for \"{w}\""));
        }
    }
    Ok(())
}
