//! Figure 6: impact of TLB tagging on a random page-touch workload (M3).
//!
//! The paper's microbenchmark: "For a given set of pages, it will load
//! one cache line from a randomly chosen page. A write to CR3 is then
//! introduced between each iteration, and the cost in cycles to access
//! the cache line \[is\] measured." Three series: switch with tags off,
//! switch with tags on, and no context switch. Only the touch itself is
//! timed (CR3 write cost excluded), as in the figure.
//!
//! A fourth series runs the same loop on the no-VM base+bound backend:
//! an address-space switch only writes the root register and each
//! access is one bounds check, so there is nothing to flush and nothing
//! to walk — the software-managed lower bound the paging series are
//! measured against.

use sjmp_bench::{quick_mode, Report};
use sjmp_mem::cost::{CostModel, CycleClock, MachineId, MachineProfile};
use sjmp_mem::paging::{self, PteFlags};
use sjmp_mem::{Asid, Backend, Mmu, PhysMem, VirtAddr};
use sjmp_sim::SimRng;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Series {
    SwitchTagOff,
    SwitchTagOn,
    NoSwitch,
    SwitchNoVm,
}

fn run(series: Series, pages: u64, iters: u64) -> f64 {
    let profile = MachineProfile::of(MachineId::M3);
    let mut phys = PhysMem::new(1 << 30);
    let backend = match series {
        Series::SwitchNoVm => Backend::seg_map(),
        _ => Backend::four_level(),
    };
    let root = paging::new_root(&mut phys).expect("root");
    let base = VirtAddr::new(0x1000_0000);
    let frames = phys.alloc_contiguous(pages).expect("frames");
    paging::map_region(
        &mut phys,
        root,
        base,
        frames.base(),
        pages * 4096,
        sjmp_mem::PageSize::Size4K,
        PteFlags::USER | PteFlags::WRITABLE,
    )
    .expect("map");

    let clock = CycleClock::new();
    let mut mmu = Mmu::new(
        profile.tlb_entries,
        profile.tlb_ways,
        CostModel::default(),
        clock.clone(),
    );
    mmu.set_backend(backend);
    let asid = match series {
        Series::SwitchTagOn => {
            mmu.set_tagging(true);
            Asid(1)
        }
        _ => Asid::UNTAGGED,
    };
    mmu.load_cr3(root, asid);
    let mut rng = SimRng::seed_from_u64(42);
    // Warm the TLB with one pass.
    for p in 0..pages {
        mmu.touch(&mut phys, base.add(p * 4096)).expect("warm");
    }
    let mut touch_cycles = 0u64;
    for _ in 0..iters {
        if series != Series::NoSwitch {
            mmu.load_cr3(root, asid); // the per-iteration CR3 write
        }
        let page = rng.gen_range(0..pages);
        let t0 = clock.now();
        mmu.touch(&mut phys, base.add(page * 4096)).expect("touch");
        touch_cycles += clock.since(t0);
    }
    touch_cycles as f64 / iters as f64
}

fn main() {
    let iters = if quick_mode() { 2_000 } else { 20_000 };
    let mut report = Report::new("fig6_tlb_tagging");
    report.heading("Figure 6: page-touch latency vs working set (M3, cycles)");
    report.header(
        &[
            "pages",
            "switch(tag off)",
            "switch(tag on)",
            "no switch",
            "no-vm",
        ],
        &[8, 16, 16, 12, 12],
    );
    for pages in [64u64, 128, 256, 512, 768, 1024, 1536, 2048] {
        let off = run(Series::SwitchTagOff, pages, iters);
        let on = run(Series::SwitchTagOn, pages, iters);
        let none = run(Series::NoSwitch, pages, iters);
        let novm = run(Series::SwitchNoVm, pages, iters);
        report.row(&[
            pages.to_string(),
            format!("{off:.1}"),
            format!("{on:.1}"),
            format!("{none:.1}"),
            format!("{novm:.1}"),
        ]);
    }
    report.note("\npaper: tag-off flat and high; tag-on tracks no-switch until the");
    report.note("working set exceeds TLB capacity (M3: 1024 entries), then all converge.");
    report.note("no-vm is the base+bound lower bound: flat regardless of working set");
    report.finish();
}
