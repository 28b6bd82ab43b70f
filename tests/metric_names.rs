//! The exported counter names are an interface: `results/*.metrics.json`,
//! `sjmp_top` and the perf tooling read them by name. These tests pin the
//! exact set `Kernel::sys_stats().to_metrics()` and
//! `SpaceJmp::metrics_snapshot()` export, so a refactor of the counter
//! plumbing has to keep every name byte-identical.

use spacejmp::prelude::*;

/// Every counter a kernel snapshot exports.
const KERNEL_COUNTERS: [&str; 33] = [
    "blk.dropped_flushes",
    "blk.flushes",
    "blk.journal_replays",
    "blk.reads",
    "blk.torn_writes",
    "blk.writes",
    "clock.cycles",
    "fault_plan.crashes",
    "fault_plan.failures",
    "kernel.entries",
    "kernel.evictions",
    "kernel.faults_handled",
    "kernel.major_faults",
    "kernel.mmaps",
    "kernel.munmaps",
    "kernel.quota_denials",
    "kernel.reclaim_passes",
    "kernel.space_switches",
    "mmu.cr3_loads",
    "mmu.faults",
    "mmu.translations",
    "mmu.walks",
    "phys.allocated_frames",
    "phys.free_frames",
    "phys.nvm_frames",
    "phys.swap_slots_used",
    "phys.total_frames",
    "tlb.asid_flushes",
    "tlb.evictions",
    "tlb.flushes",
    "tlb.hits",
    "tlb.insertions",
    "tlb.misses",
];

/// The SpaceJMP layer's counters, added on top of the kernel's.
const SJ_COUNTERS: [&str; 9] = [
    "sj.attaches",
    "sj.deadlocks",
    "sj.lock_acquisitions",
    "sj.lock_contentions",
    "sj.lock_skips",
    "sj.oom_kills",
    "sj.reaps",
    "sj.retried_switches",
    "sj.switches",
];

fn names(m: &spacejmp::trace::MetricsSnapshot) -> Vec<&str> {
    m.counters.keys().map(String::as_str).collect()
}

#[test]
fn kernel_snapshot_exports_exactly_the_pinned_counters() {
    let mut kernel = Kernel::new(KernelFlavor::DragonFly, MachineId::M2);
    let m = kernel.sys_stats().to_metrics();
    assert_eq!(names(&m), KERNEL_COUNTERS);
    assert!(m.histograms.is_empty());
}

#[test]
fn spacejmp_snapshot_adds_exactly_the_pinned_sj_counters() {
    let sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M2));
    let m = sj.metrics_snapshot();
    let mut want: Vec<&str> = KERNEL_COUNTERS
        .iter()
        .chain(&SJ_COUNTERS)
        .copied()
        .collect();
    want.sort_unstable();
    assert_eq!(names(&m), want);
}
