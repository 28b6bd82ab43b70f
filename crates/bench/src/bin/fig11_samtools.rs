//! Figure 11: SAMTools operations — serialized formats (BAM, SAM) vs
//! SpaceJMP's in-memory representation.
//!
//! Bars are normalized to BAM (the figure's leftmost bar per group);
//! absolute simulated seconds are printed too. Dataset sizes are scaled
//! from the paper's 3.1 GiB SAM / 0.9 GiB BAM (see DESIGN.md).

use sjmp_bench::{quick_mode, Report};
use sjmp_genome::{run_pipeline, StorageMode, WorkloadConfig};

fn main() {
    let cfg = WorkloadConfig {
        records: if quick_mode() { 4_000 } else { 20_000 },
        ..WorkloadConfig::default()
    };
    let bam = run_pipeline(StorageMode::Bam, &cfg).expect("bam");
    let sam = run_pipeline(StorageMode::Sam, &cfg).expect("sam");
    let jmp = run_pipeline(StorageMode::SpaceJmp, &cfg).expect("jmp");

    let mut report = Report::new("fig11_samtools");
    report.heading(&format!(
        "Figure 11: time normalized to BAM ({} records)",
        cfg.records
    ));
    report.header(&["op", "BAM", "SAM", "SpaceJMP"], &[16, 8, 8, 10]);
    let rows = [
        ("flagstat", bam.flagstat, sam.flagstat, jmp.flagstat),
        ("qname sort", bam.qname_sort, sam.qname_sort, jmp.qname_sort),
        (
            "coordinate sort",
            bam.coordinate_sort,
            sam.coordinate_sort,
            jmp.coordinate_sort,
        ),
        ("index", bam.index, sam.index, jmp.index),
    ];
    for (name, b, s, j) in rows {
        report.row(&[
            name.to_string(),
            "1.00".to_string(),
            format!("{:.2}", s / b),
            format!("{:.2}", j / b),
        ]);
    }

    report.heading("absolute simulated seconds");
    report.header(&["op", "BAM", "SAM", "SpaceJMP"], &[16, 10, 10, 10]);
    for (name, b, s, j) in rows {
        report.row(&[
            name.to_string(),
            format!("{b:.4}"),
            format!("{s:.4}"),
            format!("{j:.4}"),
        ]);
    }
    report.note("\npaper: keeping data in memory with SpaceJMP yields significant");
    report.note("speedup over both serialized formats for every operation");
    report.finish();
}
