//! Figure 10: Redis vs RedisJMP throughput on M1.
//!
//! * `get` (Fig. 10a): GET throughput vs client count — RedisJMP,
//!   RedisJMP with TLB tags, a single Redis instance, and six instances.
//! * `set` (Fig. 10b): SET throughput vs client count — RedisJMP vs
//!   Redis.
//! * `mixed` (Fig. 10c): total throughput vs SET percentage at a fixed
//!   client count.
//!
//! Select with `cargo run -p sjmp-bench --bin fig10_redis -- get|set|mixed`
//! (default: all three).
//!
//! With `SJMP_TRACE=1` the RedisJMP switch-and-serve path records
//! events; the trace of a dedicated mixed workload is exported to
//! `results/fig10_redis.trace.json` and `results/fig10_redis.metrics.json`.

use sjmp_bench::{export_trace, quick_mode, trace_from_env, Report};
use sjmp_kv::{run_classic, run_jmp, KvBenchConfig};
use sjmp_mem::cost::{MachineId, MachineProfile};
use sjmp_trace::Tracer;

fn cfg(clients: usize, set_pct: u8, tagging: bool, quick: bool, tracer: &Tracer) -> KvBenchConfig {
    KvBenchConfig {
        clients,
        requests_per_client: if quick { 40 } else { 150 },
        set_pct,
        tagging,
        tracer: tracer.clone(),
        ..KvBenchConfig::default()
    }
}

fn kfmt(rps: f64) -> String {
    format!("{:.0}K", rps / 1e3)
}

fn fig10a(report: &mut Report, quick: bool, tracer: &Tracer) {
    report.heading("Figure 10a: GET throughput vs clients (M1, requests/second)");
    report.header(
        &["clients", "RedisJMP", "RedisJMP(tags)", "Redis", "Redis 6x"],
        &[8, 10, 14, 10, 10],
    );
    let clients: &[usize] = if quick {
        &[1, 8, 24]
    } else {
        &[1, 2, 4, 8, 12, 16, 24, 48, 100]
    };
    for &n in clients {
        let jmp = run_jmp(&cfg(n, 0, false, quick, tracer)).expect("jmp");
        let tags = run_jmp(&cfg(n, 0, true, quick, tracer)).expect("tags");
        let redis = run_classic(&cfg(n, 0, false, quick, tracer), 1).expect("redis");
        let redis6 = run_classic(&cfg(n, 0, false, quick, tracer), 6).expect("redis6");
        report.row(&[
            n.to_string(),
            kfmt(jmp.rps),
            kfmt(tags.rps),
            kfmt(redis.rps),
            kfmt(redis6.rps),
        ]);
    }
}

fn fig10b(report: &mut Report, quick: bool, tracer: &Tracer) {
    report.heading("Figure 10b: SET throughput vs clients (M1, requests/second)");
    report.header(&["clients", "RedisJMP", "Redis"], &[8, 10, 10]);
    let clients: &[usize] = if quick {
        &[1, 8, 24]
    } else {
        &[1, 2, 4, 8, 12, 16, 24, 48, 100]
    };
    for &n in clients {
        let jmp = run_jmp(&cfg(n, 100, false, quick, tracer)).expect("jmp");
        let redis = run_classic(&cfg(n, 100, false, quick, tracer), 1).expect("redis");
        report.row(&[n.to_string(), kfmt(jmp.rps), kfmt(redis.rps)]);
    }
}

fn fig10c(report: &mut Report, quick: bool, tracer: &Tracer) {
    report.heading("Figure 10c: mixed GET/SET throughput vs SET share (24 clients, M1)");
    report.header(&["SET %", "RedisJMP", "Redis"], &[8, 10, 10]);
    let steps: &[u8] = if quick {
        &[0, 50, 100]
    } else {
        &[0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
    };
    for &pct in steps {
        let jmp = run_jmp(&cfg(24, pct, false, quick, tracer)).expect("jmp");
        let redis = run_classic(&cfg(24, pct, false, quick, tracer), 1).expect("redis");
        report.row(&[pct.to_string(), kfmt(jmp.rps), kfmt(redis.rps)]);
    }
}

fn main() {
    let quick = quick_mode();
    let tracer = trace_from_env();
    let mut report = Report::new("fig10_redis");
    let which: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--quick")
        .collect();
    let all = which.is_empty() || which.iter().any(|w| w == "all");
    if all || which.iter().any(|w| w == "get") {
        fig10a(&mut report, quick, &tracer);
    }
    if all || which.iter().any(|w| w == "set") {
        fig10b(&mut report, quick, &tracer);
    }
    if all || which.iter().any(|w| w == "mixed") {
        fig10c(&mut report, quick, &tracer);
    }
    report.note("\npaper: RedisJMP ~4x a single Redis at one client; scales with");
    report.note("cores for GETs (tags slightly ahead) and beats six Redis instances;");
    report.note("SETs serialize on the segment lock and degrade as clients contend");
    report.finish();

    if tracer.enabled() {
        // Dedicated traced RedisJMP run so the exported trace covers a
        // single mixed workload rather than the whole sweep.
        tracer.clear();
        run_jmp(&cfg(8, 30, false, true, &tracer)).expect("traced jmp run");
        // The KV bench models machine M1 throughout.
        export_trace(
            "fig10_redis",
            &tracer,
            MachineProfile::of(MachineId::M1).freq_hz,
        );
    }
}
