//! Durability tests: crash-consistent VAS snapshot/restore on the
//! simulated block device. `vas_save` must commit atomically through
//! the write-ahead journal — after a crash at *any* block boundary,
//! torn write, or dropped flush barrier, recovery yields exactly the
//! old or the new snapshot, never a hybrid — and `vas_load` on a
//! freshly booted machine must reproduce segment contents byte for
//! byte, evicted swap pages included. Every recovery is followed by
//! the whole-system invariant audit and the `sjmp-analyze` kernel
//! linter.

use spacejmp::analyze::lint_kernel;
use spacejmp::core::{Catalog, SegmentImage, VasImage};
use spacejmp::kv::JmpClient;
use spacejmp::mem::{PageSize, PAGE_SIZE};
use spacejmp::os::{FaultPlan, FaultSite, OsError};
use spacejmp::prelude::*;

const SEG_BASE: u64 = 0x1000_0000_0000;

fn boot() -> SpaceJmp {
    SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M1))
}

fn spawn(sj: &mut SpaceJmp, name: &str) -> Pid {
    let pid = sj.kernel_mut().spawn(name, Creds::new(100, 100)).unwrap();
    sj.kernel_mut().activate(pid).unwrap();
    pid
}

/// Simulated power loss + reboot: the block device (losing every
/// unflushed block) is carried to a freshly booted kernel, which runs
/// snapshot recovery in `attach_disk`. Returns the new machine and the
/// number of journal replays recovery performed.
fn restart(mut sj: SpaceJmp) -> (SpaceJmp, u64) {
    let mut dev = sj.kernel_mut().take_disk();
    dev.crash();
    let mut kernel = Kernel::new(KernelFlavor::DragonFly, MachineId::M1);
    let replays = kernel.attach_disk(dev);
    (SpaceJmp::new(kernel), replays)
}

fn assert_clean(sj: &mut SpaceJmp) {
    let problems = sj.check_invariants();
    assert!(
        problems.is_empty(),
        "audit failed:\n{}",
        problems.join("\n")
    );
    let findings = lint_kernel(sj);
    assert!(findings.is_empty(), "lint failed:\n{findings:?}");
}

fn va(page: u64) -> VirtAddr {
    VirtAddr::new(SEG_BASE + page * PAGE_SIZE)
}

/// Creates VAS `name` holding one segment `name-s` of `pages` pages,
/// switches in, stores `value(page)` into every page, switches home.
fn build_vas(
    sj: &mut SpaceJmp,
    pid: Pid,
    name: &str,
    pages: u64,
    swappable: bool,
    value: impl Fn(u64) -> u64,
) -> (VasId, SegId) {
    let vid = sj.vas_create(pid, name, Mode(0o660)).unwrap();
    let seg_name = format!("{name}-s");
    let sid = if swappable {
        sj.seg_alloc_with(
            pid,
            &seg_name,
            VirtAddr::new(SEG_BASE),
            pages * PAGE_SIZE,
            Mode(0o660),
            Backing::Demand,
        )
        .unwrap()
    } else {
        sj.seg_alloc(
            pid,
            &seg_name,
            VirtAddr::new(SEG_BASE),
            pages * PAGE_SIZE,
            Mode(0o660),
        )
        .unwrap()
    };
    sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite).unwrap();
    let vh = sj.vas_attach(pid, vid).unwrap();
    sj.vas_switch(pid, vh).unwrap();
    for page in 0..pages {
        sj.kernel_mut()
            .store_u64(pid, va(page), value(page))
            .unwrap();
    }
    sj.vas_switch_home(pid).unwrap();
    (vid, sid)
}

/// Rewrites every page of the (already attached) VAS with `value(page)`.
fn rewrite_vas(sj: &mut SpaceJmp, pid: Pid, vid: VasId, pages: u64, value: impl Fn(u64) -> u64) {
    let vh = sj
        .attachment_handles()
        .into_iter()
        .find(|vh| {
            let att = sj.attachment(*vh).unwrap();
            att.pid == pid && att.vid == vid
        })
        .unwrap();
    sj.vas_switch(pid, vh).unwrap();
    for page in 0..pages {
        sj.kernel_mut()
            .store_u64(pid, va(page), value(page))
            .unwrap();
    }
    sj.vas_switch_home(pid).unwrap();
}

/// Loads VAS `name` on `sj`, switches in, and returns the first word of
/// each of `pages` pages.
fn load_and_read(sj: &mut SpaceJmp, pid: Pid, name: &str, pages: u64) -> Vec<u64> {
    let vid = sj.vas_load(pid, name).unwrap();
    let vh = sj.vas_attach(pid, vid).unwrap();
    sj.vas_switch(pid, vh).unwrap();
    let values = (0..pages)
        .map(|page| sj.kernel_mut().load_u64(pid, va(page)).unwrap())
        .collect();
    sj.vas_switch_home(pid).unwrap();
    values
}

// ---- the round trip ------------------------------------------------------

#[test]
fn vas_save_load_round_trips_across_restart() {
    let mut sj = boot();
    let pid = spawn(&mut sj, "saver");
    const PAGES: u64 = 8;
    let (vid, sid) = build_vas(&mut sj, pid, "durable", PAGES, false, |p| 0xBEEF_0000 + p);
    sj.seg_ctl(pid, sid, SegCtl::SetLockable(false)).unwrap();
    let image_before = sj.seg_contents(pid, sid).unwrap();

    let generation = sj.vas_save(pid, vid).unwrap();
    assert_eq!(generation, 1, "first commit is generation 1");
    assert_clean(&mut sj);

    let (mut sj2, replays) = restart(sj);
    assert_eq!(replays, 0, "clean shutdown needs no journal replay");
    let pid2 = spawn(&mut sj2, "loader");
    let values = load_and_read(&mut sj2, pid2, "durable", PAGES);
    for (page, got) in values.iter().enumerate() {
        assert_eq!(*got, 0xBEEF_0000 + page as u64);
    }

    // The restored segment is byte-identical, keeps its name, mode, and
    // lockability.
    let sid2 = sj2.seg_find("durable-s").unwrap();
    assert_eq!(sj2.seg_contents(pid2, sid2).unwrap(), image_before);
    let seg = sj2.segment(sid2).unwrap();
    assert_eq!(seg.acl().mode(), Mode(0o660));
    assert!(!seg.lockable(), "lockability survives the round trip");
    assert_clean(&mut sj2);
}

#[test]
fn nvm_and_superpage_segments_keep_their_backing_across_restart() {
    const NVM_BYTES: u64 = 16 << 20;
    let mut sj = boot();
    sj.kernel_mut().set_nvm_tier(NVM_BYTES);
    let pid = spawn(&mut sj, "saver");
    let huge = Backing::Aligned(PageSize::Size2M);
    let segs = [
        ("tiers-nvm", SEG_BASE, Backing::Nvm),
        ("tiers-huge", SEG_BASE + (1 << 30), huge),
    ];
    let vid = sj.vas_create(pid, "tiers", Mode(0o660)).unwrap();
    for (name, base, backing) in segs {
        let base = VirtAddr::new(base);
        let sid = sj
            .seg_alloc_with(pid, name, base, 4 << 20, Mode(0o660), backing)
            .unwrap();
        sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite).unwrap();
    }
    let vh = sj.vas_attach(pid, vid).unwrap();
    sj.vas_switch(pid, vh).unwrap();
    for (i, (_, base, _)) in (0u64..).zip(segs) {
        let at = VirtAddr::new(base + (2 << 20) + 8);
        sj.kernel_mut().store_u64(pid, at, 0x7e_0000 + i).unwrap();
    }
    sj.vas_switch_home(pid).unwrap();
    sj.vas_save(pid, vid).unwrap();

    let mut dev = sj.kernel_mut().take_disk();
    dev.crash();
    let mut kernel = Kernel::new(KernelFlavor::DragonFly, MachineId::M1);
    kernel.set_nvm_tier(NVM_BYTES);
    kernel.attach_disk(dev);
    let mut sj2 = SpaceJmp::new(kernel);
    let pid2 = spawn(&mut sj2, "loader");
    let vid2 = sj2.vas_load(pid2, "tiers").unwrap();
    for (name, _, backing) in segs {
        let sid = sj2.seg_find(name).unwrap();
        let seg = sj2.segment(sid).unwrap();
        assert_eq!(seg.backing(), backing, "{name}");
        assert_eq!(seg.page_size(), backing.page_size(), "{name}");
    }
    let nvm = sj2.seg_find("tiers-nvm").unwrap();
    let object = sj2.segment(nvm).unwrap().object();
    let pfn = sj2.kernel().vmobject(object).unwrap().frame_of_page(0);
    assert!(sj2.kernel_mut().phys_mut().is_nvm(pfn.unwrap()), "NVM tier");
    let vh2 = sj2.vas_attach(pid2, vid2).unwrap();
    sj2.vas_switch(pid2, vh2).unwrap();
    for (i, (_, base, _)) in (0u64..).zip(segs) {
        let at = VirtAddr::new(base + (2 << 20) + 8);
        assert_eq!(sj2.kernel_mut().load_u64(pid2, at).unwrap(), 0x7e_0000 + i);
    }
    sj2.vas_switch_home(pid2).unwrap();
    assert_clean(&mut sj2);
}

#[test]
fn a_load_that_fails_midway_leaves_nothing_behind() {
    // The DRAM segment `d` loads first; the NVM segment after it cannot,
    // on a machine with no NVM tier.
    const NVM_BYTES: u64 = 16 << 20;
    let mut sj = boot();
    sj.kernel_mut().set_nvm_tier(NVM_BYTES);
    let pid = spawn(&mut sj, "saver");
    let vid = sj.vas_create(pid, "tiers", Mode(0o660)).unwrap();
    for (name, base, backing) in [
        ("d", SEG_BASE, Backing::Dram),
        ("n", SEG_BASE + (1 << 30), Backing::Nvm),
    ] {
        let base = VirtAddr::new(base);
        let sid = sj
            .seg_alloc_with(pid, name, base, 4 * PAGE_SIZE, Mode(0o660), backing)
            .unwrap();
        sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite).unwrap();
    }
    sj.vas_save(pid, vid).unwrap();

    let (mut sj2, _) = restart(sj);
    let pid2 = spawn(&mut sj2, "loader");
    assert_clean(&mut sj2);
    let first = sj2.vas_load(pid2, "tiers").unwrap_err();
    assert_clean(&mut sj2);
    assert_eq!(sj2.vas_find("tiers"), Err(SjError::NotFound));
    assert_eq!(sj2.seg_find("d"), Err(SjError::NotFound));
    assert_eq!(sj2.seg_find("n"), Err(SjError::NotFound));
    let retry = sj2.vas_load(pid2, "tiers").unwrap_err();
    assert_eq!(retry, first, "a retry fails the same way, not NameTaken");
    assert_clean(&mut sj2);
    assert_eq!(sj2.vas_find("tiers"), Err(SjError::NotFound));
    assert_eq!(sj2.seg_find("d"), Err(SjError::NotFound));
}

#[test]
fn loading_a_never_saved_name_is_not_found() {
    let mut sj = boot();
    let pid = spawn(&mut sj, "p");
    assert_eq!(sj.vas_load(pid, "ghost"), Err(SjError::NotFound));
}

/// Commits a one-segment VAS image built from `base` and `pages` under
/// the name "bad" and checks that loading it is a typed error that
/// creates neither the VAS nor its segment.
fn loading_a_bad_image_creates_nothing(base: u64, pages: Vec<(u64, Vec<u8>)>, want: SjError) {
    let mut sj = boot();
    let pid = spawn(&mut sj, "p");
    let image = VasImage {
        mode: 0o660,
        segments: vec![SegmentImage {
            name: "bad-s".into(),
            base,
            size: 1 << 20,
            writable: true,
            mode: 0o660,
            lockable: true,
            backing: Backing::Dram,
            pages,
        }],
    };
    let mut catalog = Catalog::new();
    catalog.upsert("bad", image.encode());
    sj.kernel_mut()
        .disk_commit(CoreCtx::new(0), &catalog.encode())
        .unwrap();
    let got = sj.vas_load(pid, "bad").unwrap_err();
    assert_eq!(
        std::mem::discriminant(&got),
        std::mem::discriminant(&want),
        "{got:?}"
    );
    assert_eq!(sj.vas_find("bad"), Err(SjError::NotFound));
    assert_eq!(sj.seg_find("bad-s"), Err(SjError::NotFound));
    assert_clean(&mut sj);
}

#[test]
fn loading_an_image_with_a_page_beyond_its_segment_creates_nothing() {
    let pages = vec![(1 << 30, vec![0xAB; PAGE_SIZE as usize])];
    loading_a_bad_image_creates_nothing(SEG_BASE, pages, SjError::InvalidArgument(""));
}

#[test]
fn loading_an_image_with_a_non_canonical_base_creates_nothing() {
    // A base past the canonical lower half would panic as a `VirtAddr`;
    // it must be refused as out of the global range first.
    let base = 0x0000_8000_0000_0000;
    let want = SjError::AddressConflict(String::new());
    loading_a_bad_image_creates_nothing(base, Vec::new(), want);
}

#[test]
fn saving_twice_preserves_other_catalog_entries() {
    let mut sj = boot();
    let pid = spawn(&mut sj, "p");
    let (vid_a, _) = build_vas(&mut sj, pid, "cat-a", 2, false, |p| 100 + p);
    let vid_b = sj.vas_create(pid, "cat-b", Mode(0o660)).unwrap();
    let sid_b = sj
        .seg_alloc(
            pid,
            "cat-b-s",
            VirtAddr::new(SEG_BASE + (1 << 32)),
            2 * PAGE_SIZE,
            Mode(0o660),
        )
        .unwrap();
    sj.seg_attach(pid, vid_b, sid_b, AttachMode::ReadWrite)
        .unwrap();

    assert_eq!(sj.vas_save(pid, vid_a).unwrap(), 1);
    assert_eq!(sj.vas_save(pid, vid_b).unwrap(), 2);
    assert_eq!(sj.vas_save(pid, vid_a).unwrap(), 3, "re-save supersedes");

    let (mut sj2, _) = restart(sj);
    let pid2 = spawn(&mut sj2, "q");
    let values = load_and_read(&mut sj2, pid2, "cat-a", 2);
    assert_eq!(values, vec![100, 101]);
    sj2.vas_load(pid2, "cat-b").unwrap();
    assert_clean(&mut sj2);
}

// ---- swappable segments (the lifted PR 2 restriction) --------------------

#[test]
fn swappable_segment_with_evicted_pages_survives_restart() {
    let mut sj = boot();
    let pid = spawn(&mut sj, "swapper");
    const PAGES: u64 = 32;
    let (vid, sid) = build_vas(&mut sj, pid, "swp", PAGES, true, |p| 0xAB_0000 + p);

    // Evict everything to the swap device; the save must read the
    // contents back through it without faulting pages in.
    let evicted = sj.kernel_mut().sys_reclaim(PAGES);
    assert!(evicted > 0, "reclaim evicted nothing");
    let swapped_before = sj.kernel_mut().sys_stats().phys.swap_slots_used;
    assert!(swapped_before > 0);

    // seg_contents on a swappable segment (previously refused).
    let image = sj.seg_contents(pid, sid).unwrap();
    assert_eq!(
        sj.kernel_mut().sys_stats().phys.swap_slots_used,
        swapped_before,
        "saving must not disturb evicted pages"
    );
    assert!(!image.is_empty());

    assert_eq!(sj.vas_save(pid, vid).unwrap(), 1);
    assert_clean(&mut sj);

    let (mut sj2, _) = restart(sj);
    let pid2 = spawn(&mut sj2, "reader");
    let values = load_and_read(&mut sj2, pid2, "swp", PAGES);
    for (page, got) in values.iter().enumerate() {
        assert_eq!(*got, 0xAB_0000 + page as u64, "page {page}");
    }
    // Swappability survives: the restored segment is demand-paged.
    let sid2 = sj2.seg_find("swp-s").unwrap();
    let obj = sj2.segment(sid2).unwrap().object();
    assert!(sj2.kernel().vmobject(obj).unwrap().swappable());
    assert_clean(&mut sj2);
}

#[test]
fn swappable_segment_clones_preserving_evicted_pages() {
    let mut sj = boot();
    let pid = spawn(&mut sj, "cloner");
    const PAGES: u64 = 16;
    let (_, sid) = build_vas(&mut sj, pid, "cl", PAGES, true, |p| 0xC0_0000 + p);
    let evicted = sj.kernel_mut().sys_reclaim(PAGES);
    assert!(evicted > 0);
    let before = sj.kernel_mut().sys_stats();

    // seg_clone on a swappable segment (previously refused): page
    // states are copied — evicted pages land in fresh swap slots, no
    // page of either side is faulted in.
    let clone_sid = sj.seg_clone(pid, sid, "cl-copy").unwrap();
    let after = sj.kernel_mut().sys_stats();
    assert!(
        after.phys.swap_slots_used > before.phys.swap_slots_used,
        "clone copied swap slots: {} -> {}",
        before.phys.swap_slots_used,
        after.phys.swap_slots_used
    );
    assert_eq!(
        after.kernel.major_faults, before.kernel.major_faults,
        "cloning faulted pages in"
    );

    // Attach the clone to its own VAS and read every page.
    let cvid = sj.vas_create(pid, "cl-copy-v", Mode(0o660)).unwrap();
    sj.seg_attach(pid, cvid, clone_sid, AttachMode::ReadWrite)
        .unwrap();
    let cvh = sj.vas_attach(pid, cvid).unwrap();
    sj.vas_switch(pid, cvh).unwrap();
    for page in 0..PAGES {
        assert_eq!(
            sj.kernel_mut().load_u64(pid, va(page)).unwrap(),
            0xC0_0000 + page,
            "clone page {page}"
        );
    }
    sj.vas_switch_home(pid).unwrap();
    assert_clean(&mut sj);
}

// ---- crash-point injection ----------------------------------------------

/// Kills the machine at every block-write boundary during a save that
/// supersedes an existing snapshot. Recovery must always yield exactly
/// the old or the new contents — and both outcomes must occur across
/// the sweep.
#[test]
fn crash_at_every_block_write_recovers_old_or_new() {
    const PAGES: u64 = 4;
    let old = |p: u64| 0x01D_0000 + p;
    let new = |p: u64| 0x4E4_0000 + p;
    let (mut saw_old, mut saw_new) = (0u32, 0u32);
    for n in 1..=64u64 {
        let mut sj = boot();
        let pid = spawn(&mut sj, "w");
        let (vid, _) = build_vas(&mut sj, pid, "cp", PAGES, false, old);
        assert_eq!(sj.vas_save(pid, vid).unwrap(), 1);
        rewrite_vas(&mut sj, pid, vid, PAGES, new);

        sj.kernel_mut()
            .set_fault_plan(Some(FaultPlan::new(n).crash_nth(FaultSite::BlkWrite, n)));
        let result = sj.vas_save(pid, vid);
        sj.kernel_mut().set_fault_plan(None);
        let crashed = match result {
            Err(SjError::Os(OsError::Crashed)) => true,
            Ok(2) => false,
            other => panic!("write {n}: unexpected save result {other:?}"),
        };

        let (mut sj2, _) = restart(sj);
        let pid2 = spawn(&mut sj2, "r");
        let values = load_and_read(&mut sj2, pid2, "cp", PAGES);
        let all_old: Vec<u64> = (0..PAGES).map(old).collect();
        let all_new: Vec<u64> = (0..PAGES).map(new).collect();
        if values == all_old {
            saw_old += 1;
        } else if values == all_new {
            saw_new += 1;
        } else {
            panic!("crash at write {n}: torn hybrid recovered: {values:#x?}");
        }
        assert!(
            crashed || values == all_new,
            "uncrashed save must be durable"
        );
        assert_clean(&mut sj2);
        if !crashed {
            // n exceeded the commit's write count: sweep is exhaustive.
            break;
        }
    }
    assert!(saw_old > 0, "no crash point preserved the old snapshot");
    assert!(saw_new > 0, "no crash point reached the new snapshot");
}

/// Kills the machine at each of the commit's three flush barriers.
/// Before the journal is durable recovery keeps the old snapshot; once
/// it is, recovery replays to the new one.
#[test]
fn crash_at_each_flush_barrier_recovers_old_or_new() {
    const PAGES: u64 = 4;
    let old = |p: u64| 0xAAA_0000 + p;
    let new = |p: u64| 0xBBB_0000 + p;
    for n in 1..=3u64 {
        let mut sj = boot();
        let pid = spawn(&mut sj, "w");
        let (vid, _) = build_vas(&mut sj, pid, "fp", PAGES, false, old);
        assert_eq!(sj.vas_save(pid, vid).unwrap(), 1);
        rewrite_vas(&mut sj, pid, vid, PAGES, new);

        sj.kernel_mut()
            .set_fault_plan(Some(FaultPlan::new(n).crash_nth(FaultSite::BlkFlush, n)));
        assert_eq!(sj.vas_save(pid, vid), Err(SjError::Os(OsError::Crashed)));
        sj.kernel_mut().set_fault_plan(None);

        let (mut sj2, replays) = restart(sj);
        let pid2 = spawn(&mut sj2, "r");
        let values = load_and_read(&mut sj2, pid2, "fp", PAGES);
        let want: Vec<u64> = match n {
            // Payload / journal flush: the journal never became
            // durable, the old superblock wins.
            1 | 2 => (0..PAGES).map(old).collect(),
            // Superblock flush: the journal is durable, recovery
            // replays it into the superblock.
            _ => (0..PAGES).map(new).collect(),
        };
        assert_eq!(values, want, "flush {n}");
        assert_eq!(replays, u64::from(n == 3), "flush {n} replay count");
        assert_clean(&mut sj2);
    }
}

/// Seeded randomized torn writes and dropped flush barriers: the device
/// acks everything, so the save *appears* to succeed — only recovery's
/// checksums discover the damage. Recovery must still produce exactly
/// the old or the new contents.
#[test]
fn seeded_torn_and_dropped_faults_never_corrupt_recovery() {
    const PAGES: u64 = 4;
    let old = |p: u64| 0x50_0000 + p;
    let new = |p: u64| 0x51_0000 + p;
    let (mut saw_old, mut saw_new) = (0u32, 0u32);
    for seed in 0..12u64 {
        let mut sj = boot();
        let pid = spawn(&mut sj, "w");
        let (vid, sid) = build_vas(&mut sj, pid, "tz", PAGES, false, old);
        assert_eq!(sj.vas_save(pid, vid).unwrap(), 1);
        let old_image = sj.seg_contents(pid, sid).unwrap();
        rewrite_vas(&mut sj, pid, vid, PAGES, new);
        let new_image = sj.seg_contents(pid, sid).unwrap();

        sj.kernel_mut().set_fault_plan(Some(
            FaultPlan::new(seed)
                .fail_with_probability(FaultSite::BlkWrite, 0.25)
                .fail_with_probability(FaultSite::BlkFlush, 0.5),
        ));
        sj.vas_save(pid, vid)
            .expect("torn writes and dropped flushes are silent");
        sj.kernel_mut().set_fault_plan(None);

        let (mut sj2, _) = restart(sj);
        let pid2 = spawn(&mut sj2, "r");
        let values = load_and_read(&mut sj2, pid2, "tz", PAGES);
        let all_old: Vec<u64> = (0..PAGES).map(old).collect();
        let all_new: Vec<u64> = (0..PAGES).map(new).collect();
        if values == all_old {
            saw_old += 1;
        } else if values == all_new {
            saw_new += 1;
        } else {
            panic!("seed {seed}: torn hybrid recovered: {values:#x?}");
        }
        // Byte-level check: the recovered segment matches one of the
        // two pre-crash images exactly.
        let sid2 = sj2.seg_find("tz-s").unwrap();
        let recovered = sj2.seg_contents(pid2, sid2).unwrap();
        assert!(
            recovered == old_image || recovered == new_image,
            "seed {seed}: recovered image matches neither snapshot"
        );
        assert_clean(&mut sj2);
    }
    assert!(saw_old + saw_new == 12);
    assert!(saw_new > 0, "some fault-free-enough run must commit");
}

// ---- metrics -------------------------------------------------------------

#[test]
fn blk_counters_surface_in_kernel_stats() {
    let mut sj = boot();
    let pid = spawn(&mut sj, "m");
    let (vid, _) = build_vas(&mut sj, pid, "met", 4, false, |p| p + 1);
    sj.vas_save(pid, vid).unwrap();

    let m = sj.kernel_mut().sys_stats().to_metrics();
    assert!(m.counter("blk.writes") >= 3, "payload+journal+superblock");
    assert_eq!(m.counter("blk.flushes"), 3, "three barriers per commit");
    assert_eq!(m.counter("blk.torn_writes"), 0);
    assert_eq!(m.counter("blk.journal_replays"), 0);

    // Drop the final (superblock) flush, then crash: recovery on the
    // next boot must replay the journal, and say so in the counters.
    rewrite_vas(&mut sj, pid, vid, 4, |p| p + 100);
    sj.kernel_mut()
        .set_fault_plan(Some(FaultPlan::new(1).fail_nth(FaultSite::BlkFlush, 3)));
    sj.vas_save(pid, vid).unwrap();
    sj.kernel_mut().set_fault_plan(None);

    let (mut sj2, replays) = restart(sj);
    assert_eq!(replays, 1);
    let m2 = sj2.kernel_mut().sys_stats().to_metrics();
    assert_eq!(m2.counter("blk.journal_replays"), 1);
    assert!(m2.counter("blk.reads") > 0, "recovery read the payload");
    let pid2 = spawn(&mut sj2, "r");
    let values = load_and_read(&mut sj2, pid2, "met", 4);
    assert_eq!(values, vec![100, 101, 102, 103], "replayed to the new");
    assert_clean(&mut sj2);
}

// ---- the RedisJMP warm restart ------------------------------------------

#[test]
fn warm_restarted_store_serves_identical_values() {
    let mut sj = boot();
    let pid = spawn(&mut sj, "client");
    let mut client = JmpClient::join(&mut sj, pid, "wr", 0).unwrap();
    for i in 0..32u32 {
        client
            .set(
                &mut sj,
                format!("key:{i:04}").as_bytes(),
                format!("value-{i}").as_bytes(),
            )
            .unwrap();
    }

    // Persist the store through a dedicated VAS holding only the store
    // segment (the clients' own VASes hold per-process scratch).
    let store_sid = sj.seg_find("jmp-store-wr").unwrap();
    let pvid = sj.vas_create(pid, "kvstore-wr", Mode(0o660)).unwrap();
    sj.seg_attach(pid, pvid, store_sid, AttachMode::ReadWrite)
        .unwrap();
    sj.vas_save(pid, pvid).unwrap();

    // Power loss, reboot, reload: the store segment reappears at its
    // fixed base, so the pointer-rich dict inside it works unchanged.
    let (mut sj2, _) = restart(sj);
    let pid2 = spawn(&mut sj2, "client2");
    sj2.vas_load(pid2, "kvstore-wr").unwrap();
    let mut client2 = JmpClient::join(&mut sj2, pid2, "wr", 0).unwrap();
    for i in 0..32u32 {
        assert_eq!(
            client2
                .get(&mut sj2, format!("key:{i:04}").as_bytes())
                .unwrap(),
            Some(format!("value-{i}").into_bytes()),
            "key {i} after warm restart"
        );
    }
    assert_clean(&mut sj2);
}
