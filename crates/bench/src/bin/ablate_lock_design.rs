//! Lock-design ablation for the Figure 10b SET bottleneck.
//!
//! The paper: writes "sustain a high request rate until too many clients
//! contend on the segment lock. This is a fundamental SpaceJMP limit,
//! but we anticipate that a more scalable lock design than our current
//! implementation would yield further improvements."
//!
//! This ablation quantifies that anticipation: the same SET workload is
//! run with the baseline handoff costs (a simple queue lock whose
//! handoff touches every waiter's cache line) and with progressively
//! more scalable designs (smaller per-waiter penalties, as an MCS-style
//! local-spin lock would achieve).

use sjmp_bench::{quick_mode, Report};
use sjmp_kv::{run_jmp, KvBenchConfig};

fn main() {
    let quick = quick_mode();
    let clients: &[usize] = if quick {
        &[1, 12, 48]
    } else {
        &[1, 4, 12, 24, 48, 100]
    };
    // (label, per-waiter handoff bounce in cycles)
    let designs: &[(&str, u64)] = &[
        ("queue lock (paper)", 150),
        ("MCS-style", 30),
        ("ideal handoff", 0),
    ];

    let mut report = Report::new("ablate_lock_design");
    report.heading("Lock-design ablation: SET throughput (requests/second) vs clients");
    let mut header = vec!["clients".to_string()];
    header.extend(designs.iter().map(|(n, _)| n.to_string()));
    report.header(&header, &[8, 18, 12, 14]);
    for &n in clients {
        let mut cells = vec![n.to_string()];
        for &(_, bounce) in designs {
            let cfg = KvBenchConfig {
                clients: n,
                requests_per_client: if quick { 40 } else { 120 },
                set_pct: 100,
                waiter_bounce: bounce,
                ..KvBenchConfig::default()
            };
            let t = run_jmp(&cfg).expect("run");
            cells.push(format!("{:.0}K", t.rps / 1e3));
        }
        report.row(&cells);
    }
    report.note("\nwriters always serialize on the exclusive segment lock, but the");
    report.note("decline with client count is a property of the lock's handoff cost —");
    report.note("a scalable lock keeps SET throughput flat, as the paper anticipated");
    report.finish();
}
