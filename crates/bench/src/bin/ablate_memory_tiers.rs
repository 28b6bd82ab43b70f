//! Heterogeneous-memory ablation (Section 7): the same persistent
//! workload with its VAS-resident data on the DRAM performance tier vs
//! the NVM capacity tier.
//!
//! The paper's conclusion: "We expect future memory systems will include
//! a combination of several heterogeneous hardware modules ... a
//! co-packaged volatile performance tier, a persistent capacity tier ...
//! SpaceJMP can be the basis for tying together a complex heterogeneous
//! memory system." Segments make tier placement a one-line decision;
//! this ablation shows what each placement costs.

use sjmp_bench::Report;
use sjmp_mem::{KernelFlavor, MachineId, VirtAddr};
use sjmp_os::{Backing, Creds, Kernel, Mode};
use spacejmp_core::{AttachMode, SpaceJmp, VasHeap};

/// One workload: a linked list built, walked, and updated in a segment on
/// the given tier. Returns (build, walk, update) simulated microseconds.
fn run(tier: Backing, nodes: u64) -> (f64, f64, f64) {
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M2));
    sj.kernel_mut().set_nvm_tier(1 << 30);
    let pid = sj
        .kernel_mut()
        .spawn("tiered", Creds::new(1, 1))
        .expect("spawn");
    sj.kernel_mut().activate(pid).expect("activate");
    let base = VirtAddr::new(0x1000_0000_0000);
    let vid = sj.vas_create(pid, "tier-vas", Mode(0o600)).expect("vas");
    let sid = sj
        .seg_alloc_with(pid, "tier-seg", base, 8 << 20, Mode(0o600), tier)
        .expect("seg");
    sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite)
        .expect("attach");
    let vh = sj.vas_attach(pid, vid).expect("vh");
    sj.vas_switch(pid, vh).expect("switch");
    let heap = VasHeap::format(&mut sj, pid, sid).expect("heap");

    let profile = sj.kernel().profile().clone();
    let clock = sj.kernel().clock().clone();
    let us = |c: u64| profile.cycles_to_secs(c) * 1e6;

    // Build.
    let t0 = clock.now();
    let mut next = VirtAddr::NULL;
    for v in 0..nodes {
        let node = heap.malloc(&mut sj, pid, 16).expect("malloc");
        sj.kernel_mut().store_u64(pid, node, v).expect("store");
        sj.kernel_mut()
            .store_u64(pid, node.add(8), next.raw())
            .expect("store");
        next = node;
    }
    heap.set_root(&mut sj, pid, next).expect("root");
    let build = us(clock.since(t0));

    // Walk (read-dominated).
    let t1 = clock.now();
    let mut cur = next;
    let mut sum = 0u64;
    while cur != VirtAddr::NULL {
        sum = sum.wrapping_add(sj.kernel_mut().load_u64(pid, cur).expect("load"));
        cur = VirtAddr::new(sj.kernel_mut().load_u64(pid, cur.add(8)).expect("load"));
    }
    let walk = us(clock.since(t1));
    assert_eq!(sum, nodes * (nodes - 1) / 2);

    // Update (write-dominated).
    let t2 = clock.now();
    let mut cur = next;
    while cur != VirtAddr::NULL {
        let v = sj.kernel_mut().load_u64(pid, cur).expect("load");
        sj.kernel_mut().store_u64(pid, cur, v + 1).expect("store");
        cur = VirtAddr::new(sj.kernel_mut().load_u64(pid, cur.add(8)).expect("load"));
    }
    let update = us(clock.since(t2));
    (build, walk, update)
}

fn main() {
    let nodes = 20_000;
    let mut report = Report::new("ablate_memory_tiers");
    report.heading(&format!(
        "Memory-tier ablation: {nodes}-node linked list in a segment (us, M2)"
    ));
    report.header(&["tier", "build", "walk", "update"], &[6, 10, 10, 10]);
    let (db, dw, du) = run(Backing::Dram, nodes);
    let (nb, nw, nu) = run(Backing::Nvm, nodes);
    report.row(&[
        "DRAM".to_string(),
        format!("{db:.1}"),
        format!("{dw:.1}"),
        format!("{du:.1}"),
    ]);
    report.row(&[
        "NVM".to_string(),
        format!("{nb:.1}"),
        format!("{nw:.1}"),
        format!("{nu:.1}"),
    ]);
    report.row(&[
        "ratio".to_string(),
        format!("{:.2}", nb / db),
        format!("{:.2}", nw / dw),
        format!("{:.2}", nu / du),
    ]);
    report.note("\nwrite-heavy phases feel NVM's write asymmetry hardest; placement");
    report.note("is a per-segment decision — exactly the control SpaceJMP gives");
    report.finish();
}
