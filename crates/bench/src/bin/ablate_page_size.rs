//! Page-size ablation for the Figure 1 cost structure.
//!
//! Section 6: "Large pages have been touted as a way to mitigate TLB
//! flushing cost, but such changes require substantial kernel
//! modifications and provide uncertain benefit to large-memory analytics
//! workloads, as superpage TLBs can be small." This ablation measures
//! both sides of that trade-off with *real* superpage mappings in the
//! template trees:
//!
//! * **construction** — the same regions mapped with 4 KiB base pages vs
//!   2 MiB and 1 GiB superpages (512x / 262144x fewer leaf entries), the
//!   alternative SpaceJMP's switch-don't-remap design competes against;
//! * **access** — a page-stride touch sweep over one mapped region per
//!   translation backend and page size, counting page walks (superpage
//!   walks terminate early and are charged fewer levels), TLB reach, and
//!   cycles per touch. The no-VM base+bound backend anchors the lower
//!   bound: no walks, no TLB, a flat 2-cycle segment check.

use sjmp_bench::{human_bytes, pow2_ticks, quick_mode, Report};
use sjmp_mem::{Backend, KernelFlavor, MachineId, PageSize, PteFlags, PAGE_SIZE};
use sjmp_os::{Creds, Kernel, MmapSource, Pid};

const FLAGS: PteFlags = PteFlags::USER.union(PteFlags::WRITABLE);

fn measure(size: u64, page: PageSize) -> Option<f64> {
    if !size.is_multiple_of(page.bytes()) {
        return None;
    }
    let mut kernel = Kernel::new(KernelFlavor::DragonFly, MachineId::M2);
    let pid = kernel.spawn("ablate", Creds::new(1, 1)).expect("spawn");
    let profile = kernel.profile().clone();
    let t0 = kernel.clock().now();
    kernel
        .sys_mmap(pid, MmapSource::New(page), size, FLAGS, false)
        .expect("mmap");
    Some(profile.cycles_to_secs(kernel.clock().since(t0)) * 1e3)
}

/// One access-side row: map `size` bytes at `page` granularity under the
/// given backend, then touch every 4 KiB base page once.
struct TouchRow {
    backend: &'static str,
    page: String,
    walks: u64,
    tlb_misses: u64,
    reach: u64,
    cycles_per_touch: f64,
}

fn touch_sweep(size: u64, page: PageSize, no_vm: bool) -> TouchRow {
    let mut kernel = Kernel::new(KernelFlavor::DragonFly, MachineId::M2);
    if no_vm {
        kernel.set_backend(Backend::seg_map());
    }
    let pid = kernel
        .spawn("ablate-touch", Creds::new(1, 1))
        .expect("spawn");
    kernel.activate(pid).expect("activate");
    let va = kernel
        .sys_mmap(pid, MmapSource::New(page), size, FLAGS, false)
        .expect("mmap");
    let core = kernel.process(pid).expect("process").core();
    kernel.core_mem(core).0.reset_stats();
    kernel.clock().reset();

    let touches = size / PAGE_SIZE;
    for i in 0..touches {
        touch(&mut kernel, pid, va.add(i * PAGE_SIZE).raw());
    }
    let cycles = kernel.clock().now();
    let (mmu, _) = kernel.core_mem(core);
    let stats = mmu.stats();
    let tlb = mmu.tlb_stats();
    let reach = mmu.tlb_mut().reach_bytes();
    TouchRow {
        backend: if no_vm { "no-vm" } else { "4level" },
        page: if no_vm {
            "-".into()
        } else {
            human_bytes(page.bytes())
        },
        walks: stats.walks,
        tlb_misses: tlb.misses,
        reach,
        cycles_per_touch: cycles as f64 / touches as f64,
    }
}

fn touch(kernel: &mut Kernel, pid: Pid, raw: u64) {
    let va = sjmp_mem::VirtAddr::new(raw);
    kernel.load_u64(pid, va).expect("touch");
}

fn main() {
    let quick = quick_mode();
    let hi = if quick { 27 } else { 33 };
    let mut report = Report::new("ablate_page_size");
    report.heading("Page-size ablation: mmap construction cost (ms, M2)");
    report.header(
        &["size", "4KiB pages", "2MiB pages", "1GiB pages"],
        &[8, 12, 12, 12],
    );
    for size in pow2_ticks(21, hi, 2) {
        let fmt = |v: Option<f64>| v.map(|ms| format!("{ms:.4}")).unwrap_or_else(|| "-".into());
        report.row(&[
            human_bytes(size),
            fmt(measure(size, PageSize::Size4K)),
            fmt(measure(size, PageSize::Size2M)),
            fmt(measure(size, PageSize::Size1G)),
        ]);
    }

    // Access side: one touch per 4 KiB base page over a region that
    // dwarfs 4 KiB TLB reach, per backend and page size.
    let sweep = if quick { 32 << 20 } else { 1 << 30 };
    report.heading(&format!(
        "Touch sweep over {} mapped per backend/page size (M2)",
        human_bytes(sweep)
    ));
    report.header(
        &[
            "backend",
            "page size",
            "walks",
            "tlb misses",
            "tlb reach",
            "cycles/touch",
        ],
        &[8, 10, 8, 12, 10, 14],
    );
    let mut rows = vec![
        touch_sweep(sweep, PageSize::Size4K, false),
        touch_sweep(sweep, PageSize::Size2M, false),
    ];
    if sweep.is_multiple_of(PageSize::Size1G.bytes()) {
        rows.push(touch_sweep(sweep, PageSize::Size1G, false));
    }
    rows.push(touch_sweep(sweep, PageSize::Size4K, true));
    for r in rows {
        report.row(&[
            r.backend.to_string(),
            r.page,
            r.walks.to_string(),
            r.tlb_misses.to_string(),
            human_bytes(r.reach),
            format!("{:.2}", r.cycles_per_touch),
        ]);
    }

    report.note("\nsuperpages cut construction cost by the entry-count ratio and widen");
    report.note("TLB reach (walks drop by the pages-per-superpage ratio; superpage");
    report.note("walks also terminate a level early). The no-VM base+bound backend");
    report.note("shows the floor: no walks at all, a flat segment check per access.");
    report.note("The paper's point stands: SpaceJMP removes construction from the");
    report.note("critical path entirely (a switch costs ~1127 cycles regardless of size)");
    report.finish();
}
