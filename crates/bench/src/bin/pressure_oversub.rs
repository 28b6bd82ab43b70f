//! Memory-pressure ablation (no paper counterpart — §4.1 pins all
//! segment memory at creation): GUPS and RedisJMP running on
//! swap-backed demand segments under DRAM oversubscription.
//!
//! GUPS sweeps physical memory from the full window working set down to
//! half of it; RedisJMP runs its store segment on a machine with room
//! for roughly half the live heap. Both must run to completion with the
//! eviction/major-fault/OOM counters reported beside the cycle model.
//!
//! The process **exits nonzero** if any run aborts or a whole-system
//! invariant audit fails, so CI uses it as the constrained-memory smoke
//! test (`cargo run -p sjmp-bench --bin pressure_oversub`). With
//! `SJMP_TRACE=1` the RedisJMP-under-pressure phase records eviction,
//! major-fault, and swap-I/O events and exports them to
//! `results/pressure_oversub.trace.json`.

use sjmp_gups::{run_jmp_constrained, GupsConfig};
use sjmp_kv::{JmpClient, JoinOpts};
use sjmp_mem::cost::{CostModel, KernelFlavor, MachineId, MachineProfile};
use sjmp_mem::PAGE_SIZE;
use sjmp_os::{Creds, Kernel};
use sjmp_trace::Tracer;
use spacejmp_core::SpaceJmp;

use sjmp_bench::{export_trace, quick_mode, trace_from_env, Report};

/// Frames beyond the window data that cover the process image, scratch
/// heap, and page tables (see `run_jmp_constrained`'s sizing notes).
const GUPS_SLACK_FRAMES: u64 = 176;

fn gups(report: &mut Report, quick: bool, tracer: &Tracer) {
    report.heading("Oversubscribed GUPS: swappable windows vs DRAM fraction (M3 profile)");
    let cfg = GupsConfig {
        windows: 4,
        window_bytes: 256 << 10,
        updates_per_set: 16,
        epochs: if quick { 48 } else { 96 },
        tracer: tracer.clone(),
        ..GupsConfig::default()
    };
    let data_pages = cfg.windows as u64 * cfg.window_bytes / PAGE_SIZE;
    report.header(
        &[
            "dram/data",
            "MUPS",
            "evictions",
            "maj-faults",
            "passes",
            "swap-slots",
            "oom",
        ],
        &[10, 8, 10, 10, 8, 10, 6],
    );
    for (label, num, den) in [("1.00x", 1, 1), ("0.75x", 3, 4), ("0.50x", 1, 2)] {
        let mem_frames = data_pages * num / den + GUPS_SLACK_FRAMES;
        let (r, p) = run_jmp_constrained(&cfg, mem_frames, None)
            .expect("oversubscribed GUPS must run to completion");
        assert_eq!(
            r.updates,
            (cfg.epochs * cfg.updates_per_set) as u64,
            "constrained run dropped updates"
        );
        report.row(&[
            label.to_string(),
            format!("{:.2}", r.mups),
            p.evictions.to_string(),
            p.major_faults.to_string(),
            p.reclaim_passes.to_string(),
            p.swap_slots_used.to_string(),
            p.oom_kills.to_string(),
        ]);
    }
    report.note("\npinned segments (the paper's §4.1 rule) cannot even allocate below");
    report.note("1.00x; demand segments trade MUPS for completion via the swap device");
}

fn redis(report: &mut Report, quick: bool, tracer: &Tracer) {
    report.heading(
        "Oversubscribed RedisJMP: swappable store, ~2x more live heap than DRAM (M1 profile)",
    );
    // Two clients' pinned footprint is ~290 frames; the 300 x 2 KiB
    // values touch ~170 store pages. 380 frames leaves room for about
    // half the store working set (the sizing from the kv crate's
    // pressure test).
    let mut profile = MachineProfile::of(MachineId::M1);
    profile.mem_bytes = 380 * PAGE_SIZE;
    let freq = profile.freq_hz as f64;
    let mut sj = SpaceJmp::new(Kernel::with_profile(
        KernelFlavor::DragonFly,
        profile,
        CostModel::default(),
    ));
    // The pressure phase is what the trace should cover: evictions,
    // major faults, swap I/O all fire from here on.
    tracer.clear();
    sj.set_tracer(tracer.clone());
    sj.kernel_mut().set_low_watermark(Some(8));
    let mut clients = Vec::new();
    for i in 0..2 {
        let pid = sj
            .kernel_mut()
            .spawn(&format!("rc{i}"), Creds::new(100, 100))
            .expect("spawn");
        sj.kernel_mut().activate(pid).expect("activate");
        let opts = JoinOpts {
            swappable_store: true,
            ..JoinOpts::default()
        };
        clients.push(JmpClient::join_cfg(&mut sj, pid, "oversub", i, opts).expect("join"));
    }

    let sets: u32 = if quick { 150 } else { 300 };
    let val = vec![0x5au8; 2048];
    let start = sj.kernel_mut().clock().now();
    for i in 0..sets {
        let c = (i % 2) as usize;
        clients[c]
            .set(&mut sj, format!("key{i}").as_bytes(), &val)
            .expect("SET under pressure");
    }
    let set_cycles = sj.kernel_mut().clock().now() - start;
    for i in (0..sets).step_by(13) {
        let got = clients[(i % 2) as usize]
            .get(&mut sj, format!("key{i}").as_bytes())
            .expect("GET under pressure");
        assert_eq!(
            got.as_deref(),
            Some(val.as_slice()),
            "key{i} corrupted by swap"
        );
    }

    let stats = sj.kernel_mut().sys_stats();
    let problems = sj.check_invariants();
    assert!(
        problems.is_empty(),
        "invariant audit failed:\n{}",
        problems.join("\n")
    );

    report.header(
        &[
            "SET rps",
            "evictions",
            "maj-faults",
            "swap-slots",
            "denials",
        ],
        &[10, 10, 10, 10, 10],
    );
    report.row(&[
        format!("{:.0}K", f64::from(sets) * freq / set_cycles as f64 / 1e3),
        stats.kernel.evictions.to_string(),
        stats.kernel.major_faults.to_string(),
        stats.phys.swap_slots_used.to_string(),
        stats.kernel.quota_denials.to_string(),
    ]);
    report.note(&format!(
        "\nall {sets} SETs completed and sampled GETs verified; audit clean"
    ));
}

fn main() {
    let quick = quick_mode();
    let tracer = trace_from_env();
    let mut report = Report::new("pressure_oversub");
    gups(&mut report, quick, &tracer);
    redis(&mut report, quick, &tracer);
    report.finish();
    export_trace(
        "pressure_oversub",
        &tracer,
        MachineProfile::of(MachineId::M1).freq_hz,
    );
}
