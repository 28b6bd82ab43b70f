//! Figure 9: VAS-switch and TLB-miss rates of the SpaceJMP GUPS design
//! vs window count (TLB tagging disabled, as in the paper).
//!
//! Rates are reported in thousands per second, matching the figure's
//! y-axis.

use sjmp_bench::{quick_mode, trace_from_env, Report};
use sjmp_gups::{run_jmp, GupsConfig};

fn main() {
    let quick = quick_mode();
    let tracer = trace_from_env();
    let mut report = Report::new("fig9_gups_rates");
    let window_counts: &[usize] = if quick {
        &[1, 4, 16]
    } else {
        &[1, 2, 4, 8, 16, 32, 64, 128]
    };
    let epochs = if quick { 64 } else { 256 };

    for &updates in &[64usize, 16] {
        report.heading(&format!(
            "Figure 9: SpaceJMP GUPS rates (update set {updates}, M3, tags off; 1k/sec)"
        ));
        report.header(&["windows", "VAS switches", "TLB misses"], &[8, 14, 12]);
        for &w in window_counts {
            let cfg = GupsConfig {
                windows: w,
                updates_per_set: updates,
                epochs,
                tagging: false,
                tracer: tracer.clone(),
                ..GupsConfig::default()
            };
            let r = run_jmp(&cfg).expect("run");
            report.row(&[
                w.to_string(),
                format!("{:.1}", r.switch_rate / 1e3),
                format!("{:.1}", r.tlb_miss_rate / 1e3),
            ]);
        }
    }
    report.note("\npaper: switch rate climbs with window count then levels off;");
    report.note("TLB miss rate grows with the number of competing translation sets");
    report.finish();
}
