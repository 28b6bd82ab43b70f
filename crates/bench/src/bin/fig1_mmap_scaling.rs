//! Figure 1: page-table construction (`mmap`) and removal (`munmap`)
//! costs vs region size, 4 KiB pages, plain and `cached` variants.
//!
//! The paper: "constructing page tables for a 1 GiB region using 4 KiB
//! pages takes about 5 ms; for 64 GiB the cost is about 2 seconds."
//! Regions sweep 2^15..2^35 bytes as in the figure (use `--quick` for a
//! shorter sweep). Times are simulated milliseconds on machine M2.

use sjmp_bench::{human_bytes, pow2_ticks, quick_mode, Report};
use sjmp_mem::{KernelFlavor, MachineId, PageSize, PteFlags};
use sjmp_os::{Creds, Kernel, MmapSource};

fn measure(size: u64, cached: bool) -> (f64, f64) {
    let mut kernel = Kernel::new(KernelFlavor::DragonFly, MachineId::M2);
    let pid = kernel.spawn("fig1", Creds::new(1, 1)).expect("spawn");
    let profile = kernel.profile().clone();
    let flags = PteFlags::USER | PteFlags::WRITABLE;
    let t0 = kernel.clock().now();
    let va = kernel
        .sys_mmap(pid, MmapSource::New(PageSize::Size4K), size, flags, cached)
        .expect("mmap");
    let map_ms = profile.cycles_to_secs(kernel.clock().since(t0)) * 1e3;
    let t1 = kernel.clock().now();
    kernel.sys_munmap(pid, va, cached).expect("munmap");
    let unmap_ms = profile.cycles_to_secs(kernel.clock().since(t1)) * 1e3;
    (map_ms, unmap_ms)
}

fn main() {
    let hi = if quick_mode() { 27 } else { 35 };
    let mut report = Report::new("fig1_mmap_scaling");
    report.heading("Figure 1: mmap/munmap latency vs region size (4 KiB pages, M2)");
    report.header(
        &["size", "map[ms]", "unmap[ms]", "map-cached", "unmap-cached"],
        &[10, 12, 12, 12, 12],
    );
    for size in pow2_ticks(15, hi, 2) {
        let (map, unmap) = measure(size, false);
        let (map_c, unmap_c) = measure(size, true);
        report.row(&[
            human_bytes(size),
            format!("{map:.4}"),
            format!("{unmap:.4}"),
            format!("{map_c:.4}"),
            format!("{unmap_c:.4}"),
        ]);
    }
    report.note("\npaper anchors: 1 GiB ~ 5 ms; 64 GiB ~ 2000 ms (uncached map)");
    report.finish();
}
