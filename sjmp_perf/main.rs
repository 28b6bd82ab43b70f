//! `sjmp_perf` — how fast the SpaceJMP simulator runs, end to end and
//! layer by layer.
//!
//! ```text
//! sjmp_perf [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--quick]
//! ```
//!
//! Each workload runs in a child process (this executable re-run with
//! `--child`), so a workload that panics costs only its own report. A
//! child repeats rounds of its workload for `--seconds` of wall time;
//! every round boots a fresh kernel and runs the same fixed batch of
//! ops, so every round must produce the same sim digest, and at full
//! size that digest must equal the one pinned in `digests.txt`. Every
//! metric prints as `<workload> <metric> <value> <unit>`; the last line
//! is one JSON summary. `README.md` next to this file describes the
//! workloads, the metrics and the trace.

mod calib;
mod genome;
mod gups;
mod kv;
mod round;
mod spans;
mod stats;

use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use sjmp_trace::Json;

use crate::calib::{Calibration, NOMINAL_NS};
use crate::round::Round;
use crate::spans::Spans;
use crate::stats::{median, quiet};

const USAGE: &str =
    "usage: sjmp_perf [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--quick]\n\
     workloads: gups_walk gups_tlb kv_mixed genome_pipeline (default: all)";

/// Rounds a child runs at least, whatever `--seconds` says: a warm-up
/// round and rounds to measure, and for a traced run an untraced round on
/// each side of a traced one.
const MIN_ROUNDS: usize = 3;

/// Sim digests of full-size rounds, one `<workload> <seed> <hex>` per line.
const PINNED: &str = include_str!("digests.txt");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    GupsWalk,
    GupsTlb,
    KvMixed,
    GenomePipeline,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::GupsWalk,
        Workload::GupsTlb,
        Workload::KvMixed,
        Workload::GenomePipeline,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::GupsWalk => "gups_walk",
            Workload::GupsTlb => "gups_tlb",
            Workload::KvMixed => "kv_mixed",
            Workload::GenomePipeline => "genome_pipeline",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One round at full or `--quick` size.
    fn round(self, seed: u64, quick: bool, spans: &mut Spans, cal: &mut Calibration) -> Round {
        let round = match self {
            Workload::GupsWalk => gups::run(&gups::Size::walk(quick), seed, spans, cal),
            Workload::GupsTlb => gups::run(&gups::Size::tlb(quick), seed, spans, cal),
            Workload::KvMixed => kv::run(&kv::Size::new(quick), seed, spans, cal),
            Workload::GenomePipeline => genome::run(&genome::Size::new(quick), seed, spans, cal),
        };
        round.unwrap_or_else(|e| panic!("{} round failed: {e}", self.name()))
    }

    /// The digest pinned for full-size rounds of `seed`, if any.
    fn pinned_digest(self, seed: u64) -> Option<u64> {
        PINNED.lines().find_map(|line| {
            let mut f = line.split_whitespace();
            match (f.next(), f.next(), f.next()) {
                (Some(w), Some(s), Some(d)) if w == self.name() && s.parse() == Ok(seed) => {
                    u64::from_str_radix(d, 16).ok()
                }
                _ => None,
            }
        })
    }
}

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    child: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: 1,
            seconds: 30,
            trace: false,
            quick: false,
            child: false,
        };
        while let Some(arg) = it.next() {
            let mut value = || it.next().ok_or(format!("{arg} needs a value"));
            match arg.as_str() {
                "--workload" => {
                    let name = value()?;
                    args.workload =
                        Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
                }
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--quick" => args.quick = true,
                "--child" => args.child = true,
                _ => return Err(format!("unknown argument {arg}")),
            }
        }
        Ok(args)
    }
}

/// A child's verdict on one workload.
struct Summary {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, Json)>,
}

impl Summary {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::from_u64(self.attempted)),
            ("failed".into(), Json::from_u64(self.failed)),
            ("metrics".into(), Json::Obj(self.metrics.clone())),
        ])
    }

    fn from_json(doc: &Json) -> Option<Summary> {
        let count = |key| doc.get(key).and_then(Json::as_f64).map(|v| v as u64);
        Some(Summary {
            correct: matches!(doc.get("correct"), Some(Json::Bool(true))),
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics: match doc.get("metrics")? {
                Json::Obj(pairs) => pairs.clone(),
                _ => return None,
            },
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sjmp_perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        let workload = args
            .workload
            .expect("the parent names the child's workload");
        let summary = child(workload, &args);
        println!("{}", summary.to_json());
        return ExitCode::SUCCESS;
    }
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let summaries: Vec<(Workload, Summary)> = workloads
        .iter()
        .map(|&w| (w, parent(w, child_command(w, &args))))
        .collect();
    println!("{}", combine(&summaries).to_json());
    ExitCode::SUCCESS
}

/// This executable re-run as the child that runs `workload`.
fn child_command(workload: Workload, args: &Args) -> Command {
    let mut cmd = Command::new(std::env::current_exe().expect("own executable path"));
    cmd.args(["--child", "--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    cmd
}

/// One summary for the run: a single workload's as it is, several
/// workloads' with their op counts added and each metric name prefixed
/// by `<workload>.`.
fn combine(summaries: &[(Workload, Summary)]) -> Summary {
    match summaries {
        [(_, only)] => Summary {
            metrics: only.metrics.clone(),
            ..*only
        },
        all => Summary {
            correct: all.iter().all(|(_, s)| s.correct),
            attempted: all.iter().map(|(_, s)| s.attempted).sum(),
            failed: all.iter().map(|(_, s)| s.failed).sum(),
            metrics: all
                .iter()
                .flat_map(|(w, s)| {
                    s.metrics
                        .iter()
                        .map(move |(name, v)| (format!("{}.{name}", w.name()), v.clone()))
                })
                .collect(),
        },
    }
}

/// Runs `child`, forwards its report, and returns the summary on its
/// last line; a child that fails or dies without one failed every op of
/// `workload`.
fn parent(workload: Workload, mut child: Command) -> Summary {
    let summary = match child.output() {
        Ok(out) => {
            let stdout = String::from_utf8_lossy(&out.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let last = lines.pop().unwrap_or_default();
            for line in lines {
                println!("{line}");
            }
            let parsed = Json::parse(last)
                .ok()
                .and_then(|doc| Summary::from_json(&doc));
            match parsed {
                Some(s) if out.status.success() => Some(s),
                _ => {
                    eprintln!(
                        "sjmp_perf: {} child failed: {}",
                        workload.name(),
                        out.status
                    );
                    None
                }
            }
        }
        Err(e) => {
            eprintln!("sjmp_perf: cannot start the {} child: {e}", workload.name());
            None
        }
    };
    summary.unwrap_or_else(|| {
        println!("{} error_rate 1 ratio", workload.name());
        Summary {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
        }
    })
}

/// Prints one `<workload> <metric> <value> <unit>` line and returns the
/// metric in summary form.
fn metric(workload: Workload, name: &str, value: f64, unit: &str) -> (String, Json) {
    println!("{} {name} {value} {unit}", workload.name());
    unprinted(name, value, unit)
}

/// A metric in summary form, not printed.
fn unprinted(name: &str, value: f64, unit: &str) -> (String, Json) {
    (
        name.to_string(),
        Json::Obj(vec![
            ("value".into(), Json::Float(value)),
            ("unit".into(), Json::str(unit)),
        ]),
    )
}

/// Runs rounds of `workload` in this process and reports them.
fn child(workload: Workload, args: &Args) -> Summary {
    let mut spans = Spans::default();
    let before_cal = status_mib("VmRSS");
    let mut cal = Calibration::default();
    let cal_mib = status_mib("VmRSS") - before_cal;
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut peak_rss = f64::NAN;
    loop {
        // A traced run interleaves traced and untraced rounds, so both
        // see the same host conditions.
        let traced = args.trace && rounds.len() % 2 == 1;
        spans.set_on(traced);
        let round_start = Instant::now();
        rounds.push((
            traced,
            workload.round(args.seed, args.quick, &mut spans, &mut cal),
        ));
        // Read after one round: later rounds only add the windows they
        // keep, which would tie the peak to the number of rounds. The
        // calibration unit's own memory is not the simulator's.
        if rounds.len() == 1 {
            peak_rss = status_mib("VmHWM") - cal_mib;
        }
        // Start no round that would likely end past the budget.
        if rounds.len() >= MIN_ROUNDS && start.elapsed() + round_start.elapsed() > budget {
            break;
        }
    }

    let w = workload;
    let first = &rounds[0].1;
    let digest = first.digest();
    let attempted: u64 = rounds.iter().map(|(_, r)| r.ops).sum();
    let mut failed: u64 = rounds.iter().map(|(_, r)| r.failed).sum();
    if let Some((i, _)) = rounds
        .iter()
        .enumerate()
        .find(|(_, (_, r))| r.digest() != digest)
    {
        eprintln!(
            "sjmp_perf: {} round {i} digest differs from round 0",
            w.name()
        );
        failed = attempted;
    }
    let pinned = if args.quick {
        None
    } else {
        w.pinned_digest(args.seed)
    };
    if pinned.is_some_and(|p| p != digest) {
        eprintln!(
            "sjmp_perf: {} digest {digest:016x} differs from the pinned {:016x}",
            w.name(),
            pinned.unwrap_or_default()
        );
        failed = attempted;
    }

    let plain = measured(&rounds, false);
    let units: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.units_ns.iter().copied())
        .collect();
    // Host times at the reference speed: scaled by the calibration unit's
    // nominal time over its quiet time in this run (see calib.rs).
    let scale = NOMINAL_NS / quiet(&units);
    let setups: Vec<f64> = plain.iter().map(|r| r.setup_ns as f64 / 1e9).collect();
    let p50s: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.windows.p50_ns.iter().copied())
        .collect();
    let (setup_s, ns_per_op, p50_us) = (
        quiet(&setups),
        host_ns_per_op(&plain, quiet),
        quiet(&p50s) / 1e3,
    );
    // The 99th percentile is taken per round, so an episode of host
    // interference in one round does not move the others' tails.
    let p99: Vec<f64> = plain.iter().map(|r| r.latency.p99_ns).collect();
    let samples: usize = plain.iter().map(|r| r.latency.samples).sum();
    let end_to_end = vec![
        metric(w, "setup_s", setup_s * scale, "s"),
        metric(w, "ref_ns_per_op", ns_per_op * scale, "ns"),
        metric(w, "ref_op_p50_us", p50_us * scale, "us"),
        metric(w, "peak_rss_mib", peak_rss, "MiB"),
        metric(
            w,
            "sim_cycles_per_op",
            first.sim.cycles as f64 / first.ops as f64,
            "cycles",
        ),
    ];
    // Printed, not in the summary: across runs these move by more than a
    // regression bound could tolerate (see README.md).
    println!("{} host_setup_s {setup_s} s", w.name());
    println!("{} host_ns_per_op {ns_per_op} ns", w.name());
    println!("{} op_p50_us {p50_us} us", w.name());
    println!("{} op_p99_us {} us", w.name(), median(&p99) / 1e3);
    // How far the run's typical window sits above its quiet ones.
    println!(
        "{} host_ns_per_op_median {} ns",
        w.name(),
        host_ns_per_op(&plain, median)
    );
    println!("{} unit_ns {} ns", w.name(), quiet(&units));
    println!(
        "{} error_rate {} ratio",
        w.name(),
        failed as f64 / attempted as f64
    );
    println!("{} op_samples {samples} count", w.name());
    println!(
        "{} windows {} count",
        w.name(),
        plain
            .iter()
            .map(|r| r.windows.ns_per_op.len())
            .sum::<usize>()
    );
    println!("{} rounds {} count", w.name(), rounds.len());
    println!(
        "{} digest {digest:016x} {}",
        w.name(),
        if pinned.is_some() {
            "pinned"
        } else {
            "unpinned"
        }
    );

    let metrics = if args.trace {
        per_layer(w, &rounds, &spans)
    } else {
        end_to_end
    };
    Summary {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}

/// The rounds host times are read from: those `traced` or not, after the
/// first round, which warms the process up (fresh heap, cold caches).
fn measured(rounds: &[(bool, Round)], traced: bool) -> Vec<&Round> {
    rounds
        .iter()
        .skip(1)
        .filter(|(t, _)| *t == traced)
        .map(|(_, r)| r)
        .collect()
}

/// Host ns per op of `rounds`, with `stat` read from the windows of their
/// op loops plus `stat` over rounds of the rest of their measured regions.
fn host_ns_per_op(rounds: &[&Round], stat: fn(&[f64]) -> f64) -> f64 {
    let windows: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.windows.ns_per_op.iter().copied())
        .collect();
    let tails: Vec<f64> = rounds
        .iter()
        .map(|r| r.tail_ns as f64 / r.ops as f64)
        .collect();
    stat(&windows) + stat(&tails)
}

/// The layer table of a traced run, its per-op counters, and the trace
/// itself, written to `target/sjmp_perf/<workload>.trace.json`.
///
/// The table and the printed lines show only the layers this workload
/// calls. The summary holds every span name of every workload, because
/// each traced run must report the same metrics; a layer the workload
/// never calls reads 0 there.
fn per_layer(w: Workload, rounds: &[(bool, Round)], spans: &Spans) -> Vec<(String, Json)> {
    let per_op = |traced: bool| host_ns_per_op(&measured(rounds, traced), quiet);
    let traced_ns: u64 = rounds
        .iter()
        .filter(|(t, _)| *t)
        .map(|(_, r)| r.measured_ns)
        .sum();
    let pct = |ns: f64| 100.0 * ns / traced_ns as f64;

    println!(
        "{:<24} {:>10} {:>12} {:>8}",
        "layer", "calls", "ns/call", "busy%"
    );
    let mut out = Vec::new();
    for (name, durations, busy_ns) in spans.layers() {
        let ns: Vec<f64> = durations.iter().map(|&d| d as f64).collect();
        let ns_per_call = if ns.is_empty() { 0.0 } else { median(&ns) };
        let called = !ns.is_empty();
        if called {
            println!(
                "{name:<24} {:>10} {ns_per_call:>12.1} {:>8.2}",
                ns.len(),
                pct(busy_ns)
            );
        }
        // A gups visit's self time all goes to its sampled updates, so it
        // has no busy share of its own.
        let busy = (name != "gups.visit").then(|| ("busy_pct", pct(busy_ns), "%"));
        for (what, value, unit) in [
            ("calls", ns.len() as f64, "count"),
            ("ns_per_call", ns_per_call, "ns"),
        ]
        .into_iter()
        .chain(busy)
        {
            let name = format!("{name}.{what}");
            out.push(if called {
                metric(w, &name, value, unit)
            } else {
                unprinted(&name, value, unit)
            });
        }
    }

    let r = &rounds[0].1;
    let s = &r.sim;
    let ops = r.ops as f64;
    let counters = [
        (
            "mem.translations_per_op",
            s.mmu.translations as f64 / ops,
            "1/op",
        ),
        (
            "mem.tlb_hit_ratio",
            s.tlb.hits as f64 / (s.tlb.hits + s.tlb.misses) as f64,
            "ratio",
        ),
        ("mem.walks_per_op", s.mmu.walks as f64 / ops, "1/op"),
        ("mem.cr3_loads_per_op", s.mmu.cr3_loads as f64 / ops, "1/op"),
        ("mem.frames_touched", s.frames as f64, "count"),
        ("mem.table_writes", s.table_writes as f64, "count"),
        (
            "os.kernel_entries_per_op",
            s.kernel.kernel_entries as f64 / ops,
            "1/op",
        ),
        ("core.switches_per_op", s.sj.switches as f64 / ops, "1/op"),
        (
            "core.lock_acquisitions_per_op",
            s.sj.lock_acquisitions as f64 / ops,
            "1/op",
        ),
        (
            "trace.overhead_pct",
            100.0 * (per_op(true) / per_op(false) - 1.0),
            "%",
        ),
        (
            "trace.unattributed_pct",
            pct(traced_ns as f64 - spans.top_level_ns() as f64),
            "%",
        ),
    ];
    for (name, value, unit) in counters {
        out.push(metric(w, name, value, unit));
    }

    let path = format!("target/sjmp_perf/{}.trace.json", w.name());
    let written = std::fs::create_dir_all("target/sjmp_perf")
        .and_then(|()| std::fs::write(&path, spans.chrome_trace(w.name()).to_string()));
    match written {
        Ok(()) => println!("{} trace {path}", w.name()),
        Err(e) => eprintln!("sjmp_perf: cannot write {path}: {e}"),
    }
    out
}

/// A memory size of this process from `/proc/self/status` (`VmRSS`,
/// `VmHWM`), MiB.
fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let kib = status
                .lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?;
            kib.trim().trim_end_matches("kB").trim().parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(w: Workload, seed: u64, traced: bool) -> u64 {
        let mut spans = Spans::default();
        spans.set_on(traced);
        w.round(seed, true, &mut spans, &mut Calibration::default())
            .digest()
    }

    #[test]
    fn traced_rounds_keep_the_untraced_digest() {
        for w in Workload::ALL {
            assert_eq!(digest(w, 2, true), digest(w, 2, false), "{}", w.name());
        }
    }

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        for w in Workload::ALL {
            assert_eq!(digest(w, 4, false), digest(w, 4, false), "{}", w.name());
            assert_ne!(digest(w, 4, false), digest(w, 5, false), "{}", w.name());
        }
    }

    #[test]
    fn pinned_digests_parse() {
        let pinned: Vec<_> = Workload::ALL
            .iter()
            .filter_map(|w| w.pinned_digest(1))
            .collect();
        assert_eq!(
            pinned.len(),
            Workload::ALL.len(),
            "seed 1 pinned for every workload"
        );
    }

    #[test]
    fn a_child_that_dies_fails_alone() {
        let sh = |script: &str| {
            let mut cmd = Command::new("sh");
            cmd.args(["-c", script]);
            cmd
        };
        let report = r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#;
        // Exit status 101 is what a panicking Rust child returns.
        let panicked = parent(Workload::GupsTlb, sh(&format!("echo '{report}'; exit 101")));
        let garbled = parent(Workload::GupsWalk, sh("echo not a report"));
        for dead in [&panicked, &garbled] {
            assert_eq!((dead.correct, dead.attempted, dead.failed), (false, 1, 1));
            assert!(dead.metrics.is_empty());
        }
        let alive = parent(Workload::KvMixed, sh(&format!("echo '{report}'")));
        assert_eq!(
            (alive.correct, alive.attempted, alive.failed),
            (true, 10, 0)
        );

        let total = combine(&[(Workload::GupsTlb, panicked), (Workload::KvMixed, alive)]);
        assert_eq!(
            (total.correct, total.attempted, total.failed),
            (false, 11, 1)
        );
        let names: Vec<&str> = total.metrics.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["kv_mixed.setup_s"]);
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload kv_mixed --seed 9 --seconds 3 --trace 1 --quick").unwrap();
        assert_eq!(a.workload, Some(Workload::KvMixed));
        assert_eq!((a.seed, a.seconds, a.trace, a.quick), (9, 3, true, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--frobnicate").is_err());
    }
}
