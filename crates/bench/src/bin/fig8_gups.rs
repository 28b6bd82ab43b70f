//! Figure 8: GUPS throughput (million updates per second) for the three
//! large-memory designs, vs number of address spaces (windows), M3.
//!
//! Series: SpaceJMP, MP (multi-process message passing), MAP (remap on
//! window change), each for update-set sizes 64 and 16.
//!
//! With `SJMP_TRACE=1` every run records kernel/TLB/switch events; the
//! trace of a dedicated SpaceJMP run (4 windows) is exported to
//! `results/fig8_gups.trace.json` (Chrome `trace_event` format) and
//! `results/fig8_gups.metrics.json`.

use sjmp_bench::{export_trace, quick_mode, trace_from_env, Report};
use sjmp_gups::{run, Design, GupsConfig};
use sjmp_mem::cost::MachineProfile;

fn main() {
    let quick = quick_mode();
    let tracer = trace_from_env();
    let mut report = Report::new("fig8_gups");
    let window_counts: &[usize] = if quick {
        &[1, 4, 16]
    } else {
        &[1, 2, 4, 8, 16, 32, 64, 128]
    };
    let epochs = if quick { 64 } else { 256 };

    for &updates in &[64usize, 16] {
        report.heading(&format!(
            "Figure 8: GUPS MUPS per process (update set {updates}, M3)"
        ));
        report.header(&["windows", "SpaceJMP", "MP", "MAP"], &[8, 10, 10, 10]);
        for &w in window_counts {
            let cfg = GupsConfig {
                windows: w,
                updates_per_set: updates,
                epochs,
                tracer: tracer.clone(),
                ..GupsConfig::default()
            };
            let jmp = run(Design::Jmp, &cfg).expect("jmp");
            let mp = run(Design::Mp, &cfg).expect("mp");
            let map = run(Design::Map, &cfg).expect("map");
            report.row(&[
                w.to_string(),
                format!("{:.1}", jmp.mups),
                format!("{:.1}", mp.mups),
                format!("{:.1}", map.mups),
            ]);
        }
    }
    // Lower bound: the same JMP sweep on the no-VM base+bound backend.
    // No page walks and nothing to flush on a switch, so this curve caps
    // what any translation hardware could recover for the JMP design.
    report.heading("Lower bound: JMP on the no-VM base+bound backend (update set 64, M3)");
    report.header(
        &["windows", "SpaceJMP", "no-vm", "tlb misses", "no-vm misses"],
        &[8, 10, 10, 12, 13],
    );
    for &w in window_counts {
        let cfg = GupsConfig {
            windows: w,
            updates_per_set: 64,
            epochs,
            tracer: tracer.clone(),
            ..GupsConfig::default()
        };
        let jmp = run(Design::Jmp, &cfg).expect("jmp");
        let novm = run(
            Design::Jmp,
            &GupsConfig {
                backend: sjmp_mem::TranslationKind::NoVm,
                ..cfg
            },
        )
        .expect("no-vm jmp");
        report.row(&[
            w.to_string(),
            format!("{:.1}", jmp.mups),
            format!("{:.1}", novm.mups),
            jmp.tlb_misses.to_string(),
            novm.tlb_misses.to_string(),
        ]);
    }

    report.note("\npaper: all equal at 1 window; MAP collapses immediately;");
    report.note("SpaceJMP >= MP throughout; MP drops past 36 processes (M3 cores).");
    report.note("no-vm bounds the JMP design from below: base+bound translation");
    report.note("with zero TLB misses and nothing to flush on a switch");
    report.finish();

    if tracer.enabled() {
        // Dedicated traced run so the exported trace is a single JMP
        // workload (the sweep above clears the tracer per run).
        let cfg = GupsConfig {
            windows: 4,
            updates_per_set: 16,
            epochs: 64,
            tracer: tracer.clone(),
            ..GupsConfig::default()
        };
        run(Design::Jmp, &cfg).expect("traced jmp run");
        export_trace(
            "fig8_gups",
            &tracer,
            MachineProfile::of(cfg.machine).freq_hz,
        );
    }
}
