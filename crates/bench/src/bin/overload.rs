//! Overload: open-loop saturation sweeps of the sharded RedisJMP store.
//!
//! For each machine profile (M1/M2/M3) the sweep measures per-op costs
//! live, estimates the saturation throughput, then offers Poisson
//! open-loop load at fractions of that estimate from well below to 2x
//! past it, reporting goodput, shed rate, and p50/p99/p999 latency of
//! within-deadline completions. Two more sections stress the shape and
//! the failure mode: a bursty (on/off) arrival process at the same
//! long-run rate, and a degraded run where half the shards flip
//! read-only mid-experiment (the memory-pressure signal).
//!
//! The bin **self-gates**: goodput at 2x saturation must hold at least
//! 90% of goodput at saturation on every machine (shed-not-queue), and
//! recorded completion latency may never exceed the deadline. Any
//! violation exits nonzero, so CI catches an overload-control
//! regression without parsing the tables.
//!
//! A final section runs with request tracing on and prints **tail
//! exemplars**: the slowest within-deadline requests with latency
//! decomposed into backoff / queue / switch / service phases
//! (gated to sum to the end-to-end latency within 1%), plus the full
//! span trees as machine-readable notes in `results/overload.json`.
//!
//! `--quick` shrinks the sweep for CI. With `SJMP_TRACE=1` the
//! cost-measurement kernels record events, exported to
//! `results/overload.trace.json` / `.metrics.json`.

use std::process::ExitCode;

use sjmp_bench::{export_trace, quick_mode, trace_from_env, Report};
use sjmp_kv::{
    measure_costs_on, run_overload, run_overload_at, saturation_rps, OverloadConfig, OverloadResult,
};
use sjmp_mem::cost::{MachineId, MachineProfile};
use sjmp_sim::Arrival;
use sjmp_trace::Tracer;

/// SET share of the sweep traffic.
const SET_PCT: u8 = 10;
/// Shards of the store.
const SHARDS: usize = 4;
/// Relative deadline budget in cycles (~0.75 ms at 2.66 GHz).
const DEADLINE: u64 = 2_000_000;

const SWEEP_COLS: [&str; 9] = [
    "load",
    "offered/s",
    "goodput/s",
    "shed%",
    "p50us",
    "p99us",
    "p999lo",
    "p999us",
    "maxq",
];
const SWEEP_W: [usize; 9] = [7, 11, 11, 7, 8, 8, 8, 8, 6];

fn base_cfg(machine: MachineId, quick: bool, tracer: &Tracer) -> OverloadConfig {
    OverloadConfig {
        machine,
        shards: SHARDS,
        set_pct: SET_PCT,
        deadline: DEADLINE,
        requests: if quick { 6_000 } else { 24_000 },
        clients: 20_000,
        tracer: tracer.clone(),
        ..OverloadConfig::default()
    }
}

fn us(machine: MachineId, cycles: u64) -> f64 {
    MachineProfile::of(machine).cycles_to_secs(cycles) * 1e6
}

fn sweep_row(report: &mut Report, machine: MachineId, label: &str, r: &OverloadResult) {
    report.row(&[
        label.to_string(),
        format!("{:.0}", r.offered_rps),
        format!("{:.0}", r.goodput_rps),
        format!("{:.1}", r.shed_rate * 100.0),
        format!("{:.0}", us(machine, r.p50)),
        format!("{:.0}", us(machine, r.p99)),
        // The exact bracket around the true p999: the log2-bucket
        // lower edge and the conservative upper bound the gates use.
        format!("{:.0}", us(machine, r.p999_bounds.0)),
        format!("{:.0}", us(machine, r.p999_bounds.1)),
        r.max_queue.to_string(),
    ]);
}

/// Goodput at saturation and at 2x, for the retention gate.
struct Retention {
    machine: MachineId,
    at_sat: f64,
    at_2x: f64,
}

fn poisson_sweep(
    report: &mut Report,
    machine: MachineId,
    quick: bool,
    tracer: &Tracer,
) -> Result<Retention, String> {
    let cfg = base_cfg(machine, quick, tracer);
    let costs =
        measure_costs_on(machine, false, tracer.clone()).map_err(|e| format!("costs: {e:?}"))?;
    let sat = saturation_rps(&costs, machine, SET_PCT, SHARDS);
    let profile = MachineProfile::of(machine);
    report.heading(&format!(
        "Saturation sweep: {machine:?} ({} cores, Poisson, {SET_PCT}% SET, {SHARDS} shards, est. saturation {:.0}/s)",
        profile.total_cores(),
        sat,
    ));
    report.header(&SWEEP_COLS, &SWEEP_W);
    let points: &[f64] = if quick {
        &[0.5, 1.0, 2.0]
    } else {
        &[0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0]
    };
    let mut at_sat = 0.0f64;
    let mut at_2x = 0.0f64;
    for &frac in points {
        let r = run_overload_at(&cfg, frac * sat).map_err(|e| format!("sweep: {e:?}"))?;
        if !r.accounted() {
            return Err(format!("{machine:?} {frac}x: request accounting leak"));
        }
        if r.latency.max > DEADLINE {
            return Err(format!(
                "{machine:?} {frac}x: recorded completion latency {} past the {DEADLINE}-cycle deadline",
                r.latency.max
            ));
        }
        if frac == 1.0 {
            at_sat = r.goodput_rps;
        }
        if frac == 2.0 {
            at_2x = r.goodput_rps;
        }
        sweep_row(report, machine, &format!("{frac:.2}x"), &r);
    }
    Ok(Retention {
        machine,
        at_sat,
        at_2x,
    })
}

fn bursty_section(report: &mut Report, quick: bool, tracer: &Tracer) -> Result<(), String> {
    let machine = MachineId::M1;
    let mut cfg = base_cfg(machine, quick, tracer);
    // 100 µs bursts separated by 300 µs of silence: 4x the instantaneous
    // rate inside a burst at the same long-run offered load.
    cfg.arrival = Arrival::Bursty {
        mean_gap: 2_000.0,
        on_cycles: 266_000,
        off_cycles: 798_000,
    };
    let costs =
        measure_costs_on(machine, false, tracer.clone()).map_err(|e| format!("costs: {e:?}"))?;
    let sat = saturation_rps(&costs, machine, SET_PCT, SHARDS);
    report.heading(&format!(
        "Bursty arrivals: {machine:?} (on/off 100us/300us, same long-run load)"
    ));
    report.header(&SWEEP_COLS, &SWEEP_W);
    let points: &[f64] = if quick { &[1.0] } else { &[0.5, 1.0, 1.5] };
    for &frac in points {
        let r = run_overload_at(&cfg, frac * sat).map_err(|e| format!("bursty: {e:?}"))?;
        if r.latency.max > DEADLINE {
            return Err(format!(
                "bursty {frac}x: completion latency {} past deadline",
                r.latency.max
            ));
        }
        sweep_row(report, machine, &format!("{frac:.2}x"), &r);
    }
    Ok(())
}

fn degraded_section(report: &mut Report, quick: bool, tracer: &Tracer) -> Result<(), String> {
    let machine = MachineId::M1;
    let mut cfg = base_cfg(machine, quick, tracer);
    cfg.set_pct = 30;
    report.heading(&format!(
        "Degraded mode: {machine:?} (30% SET; memory pressure flips 2 of {SHARDS} shards read-only at t=0)"
    ));
    report.header(
        &["mode", "offered", "goodput/s", "set_rej", "completed"],
        &[10, 9, 11, 9, 10],
    );
    let costs =
        measure_costs_on(machine, false, tracer.clone()).map_err(|e| format!("costs: {e:?}"))?;
    let sat = saturation_rps(&costs, machine, 30, SHARDS);
    let gap = sjmp_kv::rps_to_mean_gap(machine, 0.8 * sat);
    cfg.arrival = Arrival::Poisson { mean_gap: gap };
    let healthy = run_overload(&cfg).map_err(|e| format!("healthy: {e:?}"))?;
    cfg.degrade_at = Some(0);
    cfg.degraded_shards = 2;
    let degraded = run_overload(&cfg).map_err(|e| format!("degraded: {e:?}"))?;
    for (label, r) in [("healthy", &healthy), ("degraded", &degraded)] {
        report.row(&[
            label.to_string(),
            r.offered.to_string(),
            format!("{:.0}", r.goodput_rps),
            r.degraded_rejects.to_string(),
            r.completed.to_string(),
        ]);
    }
    if degraded.degraded_rejects == 0 {
        return Err("degraded shards rejected no SETs".into());
    }
    if degraded.completed == 0 {
        return Err("degraded store served nothing — reads must continue".into());
    }
    Ok(())
}

/// Tail forensics: re-run the M1 sweep point past saturation with
/// request tracing on and decompose the slowest within-deadline
/// completions into backoff / queue / switch / service. Self-gates that
/// the phase decomposition sums to the end-to-end latency within 1%
/// (it is exact by construction; the gate catches reassembly drift)
/// and that shedding is spread fairly over the uniform client
/// population.
fn exemplar_section(report: &mut Report, quick: bool, tracer: &Tracer) -> Result<(), String> {
    let machine = MachineId::M1;
    let mut cfg = base_cfg(machine, quick, tracer);
    cfg.trace_requests = true;
    cfg.exemplars = 5;
    let costs =
        measure_costs_on(machine, false, tracer.clone()).map_err(|e| format!("costs: {e:?}"))?;
    let sat = saturation_rps(&costs, machine, SET_PCT, SHARDS);
    let r = run_overload_at(&cfg, 1.5 * sat).map_err(|e| format!("exemplars: {e:?}"))?;
    report.heading(&format!(
        "Tail exemplars: {machine:?} at 1.50x saturation (slowest within-deadline requests)"
    ));
    let w = [5usize, 7, 10, 10, 10, 10, 10, 8];
    report.header(
        &[
            "rank",
            "req",
            "latency_us",
            "backoff_us",
            "queue_us",
            "switch_us",
            "service_us",
            "retries",
        ],
        &w,
    );
    if r.exemplars.is_empty() {
        return Err("no tail exemplars captured with request tracing on".into());
    }
    for (rank, ex) in r.exemplars.iter().enumerate() {
        let total = ex.phases.total();
        let err = total.abs_diff(ex.latency());
        if err * 100 > ex.latency().max(1) {
            return Err(format!(
                "exemplar {}: phases sum to {total} but latency is {} (>1% off)",
                ex.id,
                ex.latency()
            ));
        }
        report.row(&[
            (rank + 1).to_string(),
            ex.id.to_string(),
            format!("{:.1}", us(machine, ex.latency())),
            format!("{:.1}", us(machine, ex.phases.backoff)),
            format!("{:.1}", us(machine, ex.phases.queue)),
            format!("{:.1}", us(machine, ex.phases.switch)),
            format!("{:.1}", us(machine, ex.phases.service)),
            ex.retries.to_string(),
        ]);
    }
    // The full span trees, machine-readable, for forensic replay.
    for ex in &r.exemplars {
        let mut line = String::from("exemplar: ");
        ex.to_json().write(&mut line);
        report.note(&line);
    }
    report.note(&format!(
        "exemplar decomposition gate: backoff+queue+switch+service == latency (±1%) for all {} spans",
        r.exemplars.len()
    ));
    if r.shed > 0 {
        let mean = r.shed as f64 / r.client_sheds.len() as f64;
        report.note(&format!(
            "shed fairness: {} sheds over {} clients, heaviest client {} (mean {mean:.3})",
            r.shed,
            r.client_sheds.len(),
            r.max_client_sheds
        ));
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let quick = quick_mode();
    let tracer = trace_from_env();
    let mut report = Report::new("overload");
    let mut retention = Vec::new();
    for machine in MachineId::ALL {
        retention.push(poisson_sweep(&mut report, machine, quick, &tracer)?);
    }
    bursty_section(&mut report, quick, &tracer)?;
    degraded_section(&mut report, quick, &tracer)?;
    exemplar_section(&mut report, quick, &tracer)?;

    report.note("\nopen loop: arrivals keep coming at the offered rate; without");
    report.note("admission control, queues past saturation grow without bound and");
    report.note("goodput collapses. Shedding at the per-shard queue bound keeps the");
    report.note("tables flat: goodput holds past 2x saturation while shed% absorbs");
    report.note("the excess, and p999 of admitted requests stays under the deadline");
    report.note(&format!(
        "budget ({DEADLINE} cycles; ~{:.0}us on M1).",
        us(MachineId::M1, DEADLINE)
    ));
    for r in &retention {
        let ratio = if r.at_sat > 0.0 {
            r.at_2x / r.at_sat
        } else {
            0.0
        };
        report.note(&format!(
            "{:?}: goodput at 2x saturation holds {:.0}% of saturation goodput",
            r.machine,
            ratio * 100.0
        ));
        if ratio < 0.9 {
            report.note(&format!(
                "overload verdict: FAIL ({:?} retains only {:.0}%)",
                r.machine,
                ratio * 100.0
            ));
            report.finish();
            return Err(format!(
                "{:?}: goodput at 2x saturation is {:.0}% of saturation (< 90%)",
                r.machine,
                ratio * 100.0
            ));
        }
    }
    report.note("overload verdict: PASS");
    report.finish();

    if tracer.enabled() {
        export_trace(
            "overload",
            &tracer,
            MachineProfile::of(MachineId::M1).freq_hz,
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("FAIL {e}");
            ExitCode::FAILURE
        }
    }
}
