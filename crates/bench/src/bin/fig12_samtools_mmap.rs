//! Figure 12: memory-mapped files vs SpaceJMP for the SAMTools
//! operations — both pointer-rich and serialization-free; the difference
//! is the cost of `mmap`+`munmap` vs a VAS switch on each tool
//! invocation.
//!
//! The figure annotates absolute seconds above each bar (paper, 3.1 GiB
//! dataset: flagstat 1.00 vs 0.67 s; qname sort 108.4 vs 106.4; coord
//! sort 5.48 vs 5.03; index 14.77 vs 14.88). Our dataset is scaled, so
//! absolute values differ; the *ratios* are the reproduced result.

use sjmp_bench::{quick_mode, Report};
use sjmp_genome::{run_pipeline, StorageMode, WorkloadConfig};

fn main() {
    let cfg = WorkloadConfig {
        records: if quick_mode() { 4_000 } else { 20_000 },
        ..WorkloadConfig::default()
    };
    let mmap = run_pipeline(StorageMode::Mmap, &cfg).expect("mmap");
    let jmp = run_pipeline(StorageMode::SpaceJmp, &cfg).expect("jmp");

    let mut report = Report::new("fig12_samtools_mmap");
    report.heading(&format!(
        "Figure 12: mmap vs SpaceJMP, absolute simulated seconds ({} records)",
        cfg.records
    ));
    report.header(&["op", "MMAP[s]", "SpaceJMP[s]", "ratio"], &[16, 10, 12, 8]);
    for (name, m, j) in [
        ("flagstat", mmap.flagstat, jmp.flagstat),
        ("qname sort", mmap.qname_sort, jmp.qname_sort),
        ("coordinate sort", mmap.coordinate_sort, jmp.coordinate_sort),
        ("index", mmap.index, jmp.index),
    ] {
        report.row(&[
            name.to_string(),
            format!("{m:.4}"),
            format!("{j:.4}"),
            format!("{:.2}", m / j),
        ]);
    }
    report.note("\npaper ratios (mmap/SpaceJMP): flagstat 1.49, qname 1.02,");
    report.note("coordinate 1.09, index 0.99 — comparable overall, with the fixed");
    report.note("mapping cost visible only in the short-running flagstat");
    report.finish();
}
