//! Translation-backend parity: the host-side walk cache must be
//! invisible to the simulation, the no-VM base+bound backend must be a
//! strict lower bound on translation cost, and both backends must agree
//! on every loaded value through eviction and fault-back.
//!
//! CI's `backend-parity-smoke` job pairs this with a byte-level
//! comparison of `fig8_gups --quick` output with the cache forced off
//! via `SJMP_HOST_WALK_CACHE=0`.

use spacejmp::gups::{run as run_gups, run_jmp_constrained, Design, GupsConfig};
use spacejmp::mem::{Backend, TranslationKind, PAGE_SIZE};
use spacejmp::prelude::*;

fn small_cfg(backend: TranslationKind) -> GupsConfig {
    GupsConfig {
        windows: 4,
        window_bytes: 4 << 20,
        epochs: 24,
        backend,
        ..GupsConfig::default()
    }
}

/// Disabling the host walk cache changes host wall time only: every
/// simulated observable — cycles, updates, transitions, TLB misses —
/// is bit-identical.
#[test]
fn host_walk_cache_is_invisible_to_the_simulation() {
    let cached = run_gups(Design::Jmp, &small_cfg(TranslationKind::FourLevel)).unwrap();
    let uncached = run_gups(Design::Jmp, &small_cfg(TranslationKind::FourLevelUncached)).unwrap();
    assert_eq!(
        (
            cached.cycles,
            cached.updates,
            cached.transitions,
            cached.tlb_misses
        ),
        (
            uncached.cycles,
            uncached.updates,
            uncached.transitions,
            uncached.tlb_misses
        ),
        "host walk cache leaked into the simulation"
    );
}

/// The base+bound backend pays a flat bounds check per access — no
/// walks, no TLB — so it must complete the same workload in strictly
/// fewer cycles than the four-level walker.
#[test]
fn no_vm_baseline_is_a_strict_lower_bound() {
    let walked = run_gups(Design::Jmp, &small_cfg(TranslationKind::FourLevel)).unwrap();
    let novm = run_gups(Design::Jmp, &small_cfg(TranslationKind::NoVm)).unwrap();
    assert_eq!(novm.updates, walked.updates, "same work in both runs");
    assert!(
        novm.cycles < walked.cycles,
        "no-VM must undercut the walker: {} vs {}",
        novm.cycles,
        walked.cycles
    );
    assert_eq!(novm.tlb_misses, 0, "base+bound translation has no TLB");
}

/// What the swap-path sequence observes: every loaded value in order,
/// and the kernel's eviction and major-fault counters.
#[derive(Debug, PartialEq, Eq)]
struct SwapRun {
    loads: Vec<u64>,
    evictions: u64,
    major_faults: u64,
}

/// One swappable segment in a VAS: store to every page, reclaim it all,
/// overwrite half, reclaim again, read everything back, then switch home
/// and back and read everything again. Audits must be clean at the end.
fn swap_path(backend: Backend) -> SwapRun {
    const BASE: u64 = 0x1000_0000_0000;
    const PAGES: u64 = 64;
    let mut kernel = Kernel::new(KernelFlavor::DragonFly, MachineId::M1);
    kernel.set_backend(backend);
    let mut sj = SpaceJmp::new(kernel);
    let pid = sj.kernel_mut().spawn("swapper", Creds::new(7, 7)).unwrap();
    sj.kernel_mut().activate(pid).unwrap();
    let vid = sj.vas_create(pid, "swap-v", Mode(0o600)).unwrap();
    let sid = sj
        .seg_alloc_with(
            pid,
            "swap-s",
            VirtAddr::new(BASE),
            PAGES * PAGE_SIZE,
            Mode(0o600),
            Backing::Demand,
        )
        .unwrap();
    sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite).unwrap();
    let vh = sj.vas_attach(pid, vid).unwrap();
    sj.vas_switch(pid, vh).unwrap();

    let va = |page: u64| VirtAddr::new(BASE + page * PAGE_SIZE + 8 * (page % 7));
    for page in 0..PAGES {
        sj.kernel_mut()
            .store_u64(pid, va(page), 0xA000 + page)
            .unwrap();
    }
    sj.kernel_mut().sys_reclaim(PAGES);
    for page in (0..PAGES).step_by(2) {
        sj.kernel_mut()
            .store_u64(pid, va(page), 0xB000 + page)
            .unwrap();
    }
    sj.kernel_mut().sys_reclaim(PAGES);
    let mut loads = Vec::new();
    for page in 0..PAGES {
        loads.push(sj.kernel_mut().load_u64(pid, va(page)).unwrap());
    }
    sj.vas_switch_home(pid).unwrap();
    sj.vas_switch(pid, vh).unwrap();
    for page in 0..PAGES {
        loads.push(sj.kernel_mut().load_u64(pid, va(page)).unwrap());
    }

    let problems = sj.check_invariants();
    assert!(
        problems.is_empty(),
        "audit failed:\n{}",
        problems.join("\n")
    );
    let stats = sj.kernel_mut().sys_stats().kernel;
    SwapRun {
        loads,
        evictions: stats.evictions,
        major_faults: stats.major_faults,
    }
}

/// No-VM translation follows the tree through eviction (`clear_leaf`)
/// and fault-back: both backends load the same values and count the
/// same evictions and major faults.
#[test]
fn no_vm_backend_matches_the_walker_through_swap() {
    let walked = swap_path(Backend::four_level());
    let novm = swap_path(Backend::seg_map());
    // 64 first-touch evictions + 32 re-evictions; 32 faults to
    // overwrite half, then 64 to read everything back.
    assert_eq!((walked.evictions, walked.major_faults), (96, 96));
    let (first, second) = walked.loads.split_at(64);
    for (page, value) in (0..).zip(first) {
        let want = if page % 2 == 0 { 0xB000 } else { 0xA000 } + page;
        assert_eq!(*value, want, "page {page}");
    }
    assert_eq!(first, second, "switching home and back keeps every value");
    assert_eq!(novm, walked);
}

/// A constrained (swap-backed, quota-capped) GUPS run translates with
/// the configured backend like a pinned one: under no-VM it never
/// misses the TLB, while paging pressure — which depends only on which
/// pages the workload touches — is identical to the walker's.
#[test]
fn constrained_gups_honours_the_backend() {
    let run = |backend| {
        let cfg = GupsConfig {
            windows: 4,
            window_bytes: 256 << 10,
            updates_per_set: 16,
            epochs: 96,
            backend,
            ..GupsConfig::default()
        };
        run_jmp_constrained(&cfg, 304, Some(200)).unwrap()
    };
    let (walked, walked_pressure) = run(TranslationKind::FourLevel);
    let (novm, novm_pressure) = run(TranslationKind::NoVm);
    assert_eq!(novm.updates, walked.updates, "same work in both runs");
    assert_eq!((walked.tlb_misses, novm.tlb_misses), (2387, 0));
    assert_eq!(novm_pressure, walked_pressure, "same paging in both runs");
    assert_eq!(walked_pressure.evictions, 817);
}
