//! The exported counter names are an interface: `results/*.metrics.json`,
//! `sjmp_top` and the perf tooling read them by name. These tests pin the
//! exact set `Kernel::sys_stats().to_metrics()` and
//! `SpaceJmp::metrics_snapshot()` export, so a refactor of the counter
//! plumbing has to keep every name byte-identical, and check that the
//! two ways to diff a phase (typed groups, then export; or export, then
//! `MetricsSnapshot::delta`) agree.

use spacejmp::mem::PAGE_SIZE;
use spacejmp::os::{FaultPlan, FaultSite};
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

/// Around a phase that moves every counter group (page faults,
/// eviction and swap-in, segment-lock switches, a snapshot commit's
/// block IO, an injected fault), the typed delta and the delta of the
/// export agree on every counter, and each name reads its typed field.
#[test]
fn typed_and_exported_deltas_agree() {
    const BASE: u64 = 0x1000_0000_0000;
    const PAGES: u64 = 16;
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M1));
    let pid = sj
        .kernel_mut()
        .spawn("phase", Creds::new(100, 100))
        .unwrap();
    sj.kernel_mut().activate(pid).unwrap();
    let b = sj.kernel().stats_snapshot();
    let (sj_b, sj_stats_b) = (sj.metrics_snapshot(), sj.stats());

    let vid = sj.vas_create(pid, "phase-v", Mode(0o600)).unwrap();
    let sid = sj
        .seg_alloc_with(
            pid,
            "phase-s",
            VirtAddr::new(BASE),
            PAGES * PAGE_SIZE,
            Mode(0o600),
            Backing::Demand,
        )
        .unwrap();
    sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite).unwrap();
    let vh = sj.vas_attach(pid, vid).unwrap();
    sj.vas_switch(pid, vh).unwrap();
    for page in 0..PAGES {
        let va = VirtAddr::new(BASE + page * PAGE_SIZE);
        sj.kernel_mut().store_u64(pid, va, page + 1).unwrap();
    }
    assert!(sj.kernel_mut().sys_reclaim(PAGES) > 0, "nothing evicted");
    for page in 0..PAGES {
        let va = VirtAddr::new(BASE + page * PAGE_SIZE);
        assert_eq!(sj.kernel_mut().load_u64(pid, va).unwrap(), page + 1);
    }
    sj.vas_switch_home(pid).unwrap();
    sj.kernel_mut()
        .set_fault_plan(Some(FaultPlan::new(1).fail_nth(FaultSite::BlkFlush, 3)));
    sj.vas_save(pid, vid).unwrap();
    let a = sj.kernel().stats_snapshot();

    let d = a.delta_since(&b);
    let typed = d.to_metrics();
    let exported = a.to_metrics().delta(&b.to_metrics());
    let (now, before) = (a.to_metrics(), b.to_metrics());
    assert_eq!(names(&typed), KERNEL_COUNTERS);
    for name in KERNEL_COUNTERS {
        if name.starts_with("phys.") {
            // Gauges: the typed delta keeps the current reading.
            assert_eq!(typed.counter(name), now.counter(name), "{name}");
        } else {
            assert_eq!(typed.counter(name), exported.counter(name), "{name}");
        }
    }
    let groups = [
        ("clock.cycles", d.cycles),
        ("kernel.major_faults", d.kernel.major_faults),
        ("mmu.walks", d.mmu.walks),
        ("tlb.misses", d.tlb.misses),
        ("fault_plan.failures", d.faults.failures),
        ("blk.dropped_flushes", d.blk.dropped_flushes),
    ];
    for (name, field) in groups {
        assert!(field > 0, "{name} did not move");
        assert_eq!(typed.counter(name), field, "{name}");
    }
    assert!(now.counter("phys.free_frames") < before.counter("phys.free_frames"));
    assert_eq!(typed.counter("phys.free_frames"), a.phys.free_frames);

    let sj_delta = sj.metrics_snapshot().delta(&sj_b);
    let sj_stats = sj.stats().delta_since(&sj_stats_b);
    assert!(sj_stats.switches > 0);
    assert_eq!(sj_delta.counter("sj.switches"), sj_stats.switches);
    assert_eq!(
        sj_delta.counter("sj.lock_acquisitions"),
        sj_stats.lock_acquisitions
    );
}
