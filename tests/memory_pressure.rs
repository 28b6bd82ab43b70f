//! Memory-pressure tests: swap-backed eviction, per-process quotas, and
//! the OOM killer must let oversubscribed workloads run to completion
//! with clean typed errors — never corruption, leaks, or wedged locks.
//!
//! Everything here drives the public core API (`seg_alloc_with` on
//! `Backing::Demand`, `vas_*`, `oom_kill`) and audits with
//! `SpaceJmp::check_invariants` after every disturbance, mirroring the
//! crash-fault suite.

use std::collections::HashMap;

use spacejmp::mem::cost::{CostModel, MachineProfile};
use spacejmp::mem::PAGE_SIZE;
use spacejmp::os::OsError;
use spacejmp::prelude::*;
use spacejmp::sim::SimRng;

const SEG_BASE: u64 = 0x1000_0000_0000;

fn boot() -> SpaceJmp {
    SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M1))
}

/// A machine with exactly `frames` physical frames, otherwise M1-like.
fn constrained(frames: u64) -> SpaceJmp {
    let profile = MachineProfile {
        mem_bytes: frames * PAGE_SIZE,
        ..MachineProfile::default()
    };
    SpaceJmp::new(Kernel::with_profile(
        KernelFlavor::DragonFly,
        profile,
        CostModel::default(),
    ))
}

fn spawn(sj: &mut SpaceJmp, name: &str) -> Pid {
    let pid = sj.kernel_mut().spawn(name, Creds::new(100, 100)).unwrap();
    sj.kernel_mut().activate(pid).unwrap();
    pid
}

/// Creates a private VAS holding one swappable demand segment of
/// `pages` pages at `base`, switches `pid` into it, and returns the ids.
fn swappable_vas(
    sj: &mut SpaceJmp,
    pid: Pid,
    name: &str,
    base: u64,
    pages: u64,
) -> (VasId, SegId, VasHandle) {
    let vid = sj
        .vas_create(pid, &format!("{name}-v"), Mode(0o600))
        .unwrap();
    let sid = sj
        .seg_alloc_with(
            pid,
            &format!("{name}-s"),
            VirtAddr::new(base),
            pages * PAGE_SIZE,
            Mode(0o600),
            Backing::Demand,
        )
        .unwrap();
    sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite).unwrap();
    let vh = sj.vas_attach(pid, vid).unwrap();
    sj.vas_switch(pid, vh).unwrap();
    (vid, sid, vh)
}

fn assert_clean(sj: &mut SpaceJmp) {
    let problems = sj.check_invariants();
    assert!(
        problems.is_empty(),
        "audit failed:\n{}",
        problems.join("\n")
    );
}

// ---- eviction and fault-back -------------------------------------------

#[test]
fn evicted_pages_fault_back_with_contents_intact() {
    let mut sj = boot();
    let pid = spawn(&mut sj, "writer");
    const PAGES: u64 = 64;
    swappable_vas(&mut sj, pid, "rt", SEG_BASE, PAGES);

    for page in 0..PAGES {
        let va = VirtAddr::new(SEG_BASE + page * PAGE_SIZE);
        sj.kernel_mut()
            .store_u64(pid, va, 0xC0DE_0000 + page)
            .unwrap();
    }

    // Force every resident page out to the swap device.
    let evicted = sj.kernel_mut().sys_reclaim(PAGES);
    assert!(evicted > 0, "reclaim evicted nothing");
    let mid = sj.kernel_mut().sys_stats().phys;
    assert!(mid.swap_slots_used > 0, "no pages went to swap: {mid:?}");

    // Every load major-faults the page back in with its value intact.
    for page in 0..PAGES {
        let va = VirtAddr::new(SEG_BASE + page * PAGE_SIZE);
        assert_eq!(
            sj.kernel_mut().load_u64(pid, va).unwrap(),
            0xC0DE_0000 + page
        );
    }
    let end = sj.kernel_mut().sys_stats().kernel;
    assert!(end.evictions > 0);
    assert!(
        end.major_faults >= evicted,
        "expected >= {evicted} swap-ins, saw {}",
        end.major_faults
    );
    assert_clean(&mut sj);
}

// ---- quotas -------------------------------------------------------------

#[test]
fn quota_caps_resident_set_by_self_eviction() {
    let mut sj = boot();
    let pid = spawn(&mut sj, "capped");
    const PAGES: u64 = 64;
    const HEADROOM: u64 = 16;
    swappable_vas(&mut sj, pid, "q", SEG_BASE, PAGES);

    // The quota rides `HEADROOM` frames above the unswappable spawn
    // image, so at most `HEADROOM` of the segment's pages fit.
    let baseline = sj.kernel_mut().resident_frames_of(pid);
    let quota = baseline + HEADROOM;
    sj.kernel_mut().set_quota(pid, Some(quota));

    // Touching 4x the headroom succeeds: the kernel evicts the
    // process's own pages to stay under the cap, not failing faults.
    for page in 0..PAGES {
        let va = VirtAddr::new(SEG_BASE + page * PAGE_SIZE);
        sj.kernel_mut().store_u64(pid, va, page).unwrap();
        let resident = sj.kernel_mut().resident_frames_of(pid);
        assert!(
            resident <= quota,
            "resident set {resident} exceeds quota {quota} after page {page}"
        );
    }
    let stats = sj.kernel_mut().sys_stats().kernel;
    assert!(stats.evictions >= PAGES - HEADROOM);

    // Everything written is still readable (from swap where needed).
    for page in 0..PAGES {
        let va = VirtAddr::new(SEG_BASE + page * PAGE_SIZE);
        assert_eq!(sj.kernel_mut().load_u64(pid, va).unwrap(), page);
    }
    assert_clean(&mut sj);
}

#[test]
fn quota_breach_returns_typed_error_the_workload_can_retry() {
    let mut sj = boot();
    let pid = spawn(&mut sj, "denied");
    swappable_vas(&mut sj, pid, "z", SEG_BASE, 4);

    // A quota equal to the unswappable spawn image cannot be met by
    // self-eviction (nothing swappable is resident yet): the fault is
    // denied with the full accounting context.
    let baseline = sj.kernel_mut().resident_frames_of(pid);
    sj.kernel_mut().set_quota(pid, Some(baseline));
    let err = sj.kernel_mut().store_u64(pid, VirtAddr::new(SEG_BASE), 7);
    match err {
        Err(OsError::QuotaExceeded {
            pid: p,
            limit_frames,
            used_frames,
            requested_frames,
        }) => {
            assert_eq!(p, pid);
            assert_eq!(limit_frames, baseline);
            assert_eq!(used_frames, baseline);
            assert_eq!(requested_frames, 1);
        }
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }
    let denials = sj.kernel_mut().sys_stats().kernel.quota_denials;
    assert!(denials > 0);

    // The typed error is retryable: raise the quota and the same store
    // succeeds — nothing was corrupted by the denial.
    sj.kernel_mut().set_quota(pid, Some(baseline + 8));
    sj.kernel_mut()
        .store_u64(pid, VirtAddr::new(SEG_BASE), 7)
        .unwrap();
    assert_eq!(
        sj.kernel_mut()
            .load_u64(pid, VirtAddr::new(SEG_BASE))
            .unwrap(),
        7
    );
    assert_clean(&mut sj);
}

// ---- the OOM killer in a shared VAS ------------------------------------

#[test]
fn oom_victim_in_shared_vas_releases_its_lock() {
    let mut sj = boot();
    let hog = spawn(&mut sj, "hog");
    let survivor = spawn(&mut sj, "survivor");

    // A shared VAS with one read-write (exclusive-on-switch) segment.
    let vid = sj.vas_create(hog, "shared-v", Mode(0o666)).unwrap();
    let sid = sj
        .seg_alloc(
            hog,
            "shared-s",
            VirtAddr::new(SEG_BASE),
            256 << 10,
            Mode(0o666),
        )
        .unwrap();
    sj.seg_attach(hog, vid, sid, AttachMode::ReadWrite).unwrap();
    let vh_hog = sj.vas_attach(hog, vid).unwrap();
    let vh_srv = sj.vas_attach(survivor, vid).unwrap();

    // The hog switches in (taking the lock) and builds the largest
    // resident set in the system via a private swappable segment.
    sj.vas_switch(hog, vh_hog).unwrap();
    const FAT_BASE: u64 = 0x1800_0000_0000;
    let fat = sj
        .seg_alloc_with(
            hog,
            "fat",
            VirtAddr::new(FAT_BASE),
            64 * PAGE_SIZE,
            Mode(0o600),
            Backing::Demand,
        )
        .unwrap();
    sj.seg_attach(hog, vid, fat, AttachMode::ReadWrite).unwrap();
    for page in 0..64 {
        let va = VirtAddr::new(FAT_BASE + page * PAGE_SIZE);
        sj.kernel_mut().store_u64(hog, va, page).unwrap();
    }
    assert_eq!(sj.vas_switch(survivor, vh_srv), Err(SjError::WouldBlock));

    // The OOM killer picks the hog by resident-set badness and reaps it
    // through the same path as a crash — locks and attachments included.
    let victim = sj.oom_kill(&[survivor]).unwrap();
    assert_eq!(victim, Some(hog));
    assert_eq!(sj.stats().oom_kills, 1);
    assert_clean(&mut sj);

    // The survivor acquires the lock and uses the VAS normally.
    sj.vas_switch(survivor, vh_srv).unwrap();
    sj.kernel_mut()
        .store_u64(survivor, VirtAddr::new(SEG_BASE), 0xA11_0C8)
        .unwrap();
    assert_eq!(
        sj.kernel_mut()
            .load_u64(survivor, VirtAddr::new(SEG_BASE))
            .unwrap(),
        0xA11_0C8
    );
    assert_clean(&mut sj);
}

#[test]
fn oom_kill_with_no_eligible_victim_returns_none() {
    let mut sj = boot();
    let only = spawn(&mut sj, "only");
    swappable_vas(&mut sj, only, "solo", SEG_BASE, 4);
    sj.kernel_mut()
        .store_u64(only, VirtAddr::new(SEG_BASE), 1)
        .unwrap();
    // The lone memory user is protected, so nobody can be sacrificed.
    assert_eq!(sj.oom_kill(&[only]).unwrap(), None);
    assert_eq!(sj.stats().oom_kills, 0);
    assert_clean(&mut sj);
}

// ---- randomized oversubscription ---------------------------------------

/// Seeded random stores/loads from three processes whose combined
/// working set oversubscribes physical memory. The low watermark keeps
/// the reclaimer running; every value read must match the last write,
/// and the full invariant audit runs after every round.
#[test]
fn randomized_oversubscription_stays_consistent() {
    const PROCS: usize = 3;
    const PAGES: u64 = 128;
    const ROUNDS: usize = 24;
    const OPS_PER_ROUND: usize = 32;

    let mut sj = constrained(640);
    sj.kernel_mut().set_low_watermark(Some(8));

    let mut pids = Vec::new();
    for i in 0..PROCS {
        let pid = spawn(&mut sj, &format!("rand{i}"));
        let base = SEG_BASE + (i as u64) * (1 << 30);
        swappable_vas(&mut sj, pid, &format!("r{i}"), base, PAGES);
        pids.push((pid, base));
    }

    let mut rng = SimRng::seed_from_u64(0xface_5eed);
    let mut model: HashMap<(usize, u64), u64> = HashMap::new();
    for round in 0..ROUNDS {
        for _ in 0..OPS_PER_ROUND {
            let who = rng.gen_range(0..PROCS as u64) as usize;
            let (pid, base) = pids[who];
            let page = rng.gen_range(0..PAGES);
            let va = VirtAddr::new(base + page * PAGE_SIZE);
            if rng.gen_range(0..2) == 0 {
                let val = rng.next_u64();
                sj.kernel_mut().store_u64(pid, va, val).unwrap();
                model.insert((who, page), val);
            } else {
                let got = sj.kernel_mut().load_u64(pid, va).unwrap();
                let want = model.get(&(who, page)).copied().unwrap_or(0);
                assert_eq!(got, want, "round {round}: proc {who} page {page}");
            }
        }
        assert_clean(&mut sj);
    }

    let stats = sj.kernel_mut().sys_stats().kernel;
    assert!(stats.evictions > 0, "never evicted: {stats:?}");
    assert!(stats.major_faults > 0, "never swapped in: {stats:?}");
}
