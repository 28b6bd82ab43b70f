//! Tables 1 and 2: machine profiles and the context-switch breakdown.
//!
//! Table 2 reports, in cycles on M2: CR3 load (130 plain / 224 tagged),
//! system call (357 DragonFly / 130 Barrelfish), and full `vas_switch`
//! (1127/807 DragonFly, 664/462 Barrelfish). The `vas_switch` row here is
//! *measured* by switching through the real SpaceJMP path, not quoted
//! from the cost model.
//!
//! With `SJMP_TRACE=1` each measured switch also runs under the event
//! tracer, and an extra section reconstructs the Table 2 decomposition
//! *from the trace alone* (summing the `kernel_entry`, `switch_book`,
//! and `cr3_load` span durations inside the switch). The DragonFly
//! untagged trace is exported to
//! `results/tab2_switch_breakdown.trace.json` (Chrome `trace_event`).

use sjmp_bench::{export_trace, heading, human_bytes, trace_from_env, Report};
use sjmp_mem::cost::{CostModel, MachineId, MachineProfile};
use sjmp_mem::KernelFlavor;
use sjmp_os::{Creds, Kernel, Mode};
use sjmp_trace::Tracer;
use spacejmp_core::{SpaceJmp, VasCtl};

fn measured_switch(flavor: KernelFlavor, tagged: bool, tracer: &Tracer) -> u64 {
    let mut sj = SpaceJmp::new(Kernel::new(flavor, MachineId::M2));
    sj.set_tracer(tracer.clone());
    if tagged {
        sj.kernel_mut().set_tagging(true);
    }
    let pid = sj.kernel_mut().spawn("p", Creds::new(1, 1)).expect("spawn");
    sj.kernel_mut().activate(pid).expect("activate");
    let vid = sj.vas_create(pid, "v", Mode(0o600)).expect("create");
    if tagged {
        sj.vas_ctl(pid, VasCtl::RequestTag, vid).expect("tag");
    }
    let vh = sj.vas_attach(pid, vid).expect("attach");
    // Trace exactly one switch: drop the setup's events, then restate
    // the topology so replay tools can still attribute addresses.
    tracer.clear();
    sj.trace_topology();
    let t0 = sj.kernel().clock().now();
    sj.vas_switch(pid, vh).expect("switch");
    sj.kernel().clock().since(t0)
}

/// Sum of all recorded durations for span kind `name` in the tracer's
/// metrics (the trace-derived cycle total of that phase).
fn span_sum(tracer: &Tracer, name: &str) -> u64 {
    tracer.snapshot().histogram(name).map_or(0, |h| h.sum)
}

fn main() {
    let tracer = trace_from_env();
    let mut report = Report::new("tab2_switch_breakdown");
    report.heading("Table 1: machine profiles");
    report.header(
        &["name", "memory", "cores", "freq[GHz]", "TLB"],
        &[6, 10, 6, 10, 6],
    );
    for m in MachineId::ALL {
        let p = MachineProfile::of(m);
        report.row(&[
            p.name.to_string(),
            human_bytes(p.mem_bytes),
            p.total_cores().to_string(),
            format!("{:.2}", p.freq_hz as f64 / 1e9),
            p.tlb_entries.to_string(),
        ]);
    }

    report.heading("Table 2: context-switch breakdown on M2 (cycles; tagged in parentheses)");
    let c = CostModel::default();
    report.header(&["operation", "DragonFly BSD", "Barrelfish"], &[12, 16, 14]);
    report.row(&[
        "CR3 load".to_string(),
        format!("{} ({})", c.cr3_load(false), c.cr3_load(true)),
        format!("{} ({})", c.cr3_load(false), c.cr3_load(true)),
    ]);
    report.row(&[
        "system call".to_string(),
        c.kernel_entry(KernelFlavor::DragonFly).to_string(),
        c.kernel_entry(KernelFlavor::Barrelfish).to_string(),
    ]);
    // Each configuration gets a fresh tracer so its trace holds exactly
    // one switch; the shared env tracer only gates whether they trace.
    let configs = [
        ("DragonFly", KernelFlavor::DragonFly, false),
        ("DragonFly(tags)", KernelFlavor::DragonFly, true),
        ("Barrelfish", KernelFlavor::Barrelfish, false),
        ("Barrelfish(tags)", KernelFlavor::Barrelfish, true),
    ];
    let mut measured = Vec::new();
    let mut traces = Vec::new();
    for (label, flavor, tagged) in configs {
        let t = if tracer.enabled() {
            Tracer::new(4096)
        } else {
            Tracer::disabled()
        };
        measured.push(measured_switch(flavor, tagged, &t));
        traces.push((label, t));
    }
    report.row(&[
        "vas_switch".to_string(),
        format!("{} ({})", measured[0], measured[1]),
        format!("{} ({})", measured[2], measured[3]),
    ]);
    report.note("\npaper: vas_switch 1127 (807) DragonFly, 664 (462) Barrelfish");

    if tracer.enabled() {
        report.heading("Table 2 (trace-derived): spans summed from the event stream (cycles)");
        report.header(
            &["config", "kernel entry", "bookkeeping", "CR3 load", "total"],
            &[16, 12, 12, 10, 8],
        );
        for ((label, t), &cycles) in traces.iter().zip(&measured) {
            let entry = span_sum(t, "kernel_entry");
            let book = span_sum(t, "switch_book");
            let cr3 = span_sum(t, "cr3_load");
            report.row(&[
                label.to_string(),
                entry.to_string(),
                book.to_string(),
                cr3.to_string(),
                (entry + book + cr3).to_string(),
            ]);
            assert_eq!(
                entry + book + cr3,
                cycles,
                "{label}: trace-derived breakdown must equal the measured switch"
            );
        }
        report.note("trace-derived totals assert equality with the measured switches");
    }
    report.finish();

    if tracer.enabled() {
        heading("trace export (DragonFly untagged switch)");
        export_trace(
            "tab2_switch_breakdown",
            &traces[0].1,
            MachineProfile::of(MachineId::M2).freq_hz,
        );
    }
}
