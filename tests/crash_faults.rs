//! Crash-fault injection and recovery: processes dying abruptly inside
//! shared VASes must never wedge the system. Deterministic fault plans
//! ([`spacejmp::os::FaultPlan`]) inject frame exhaustion, mid-mmap
//! failures, and abrupt process death; [`SpaceJmp::reap_process`]
//! reclaims the corpses; `SpaceJmp::check_invariants` audits the whole
//! system (frame accounting, refcounts, lock/attachment bookkeeping)
//! after every disturbance.

use spacejmp::analyze::lint_kernel;
use spacejmp::gups::{run_jmp_shared_on, GupsConfig};
use spacejmp::kv::JmpClient;
use spacejmp::mem::PAGE_SIZE;
use spacejmp::os::{FaultPlan, FaultSite, OsError};
use spacejmp::prelude::*;
use spacejmp::sim::SimRng;

const SEG_BASE: u64 = 0x1000_0000_0000;
const SLOT: u64 = 1 << 39;

fn boot() -> SpaceJmp {
    SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M1))
}

fn spawn(sj: &mut SpaceJmp, name: &str) -> Pid {
    let pid = sj.kernel_mut().spawn(name, Creds::new(100, 100)).unwrap();
    sj.kernel_mut().activate(pid).unwrap();
    pid
}

/// Shared VAS with one read-write (exclusive-on-switch) segment; both
/// processes attached. Returns (vid, their handles).
fn shared_rw_vas(
    sj: &mut SpaceJmp,
    p1: Pid,
    p2: Pid,
    name: &str,
    base: u64,
) -> (VasId, VasHandle, VasHandle) {
    let vid = sj
        .vas_create(p1, &format!("{name}-v"), Mode(0o666))
        .unwrap();
    let sid = sj
        .seg_alloc(
            p1,
            &format!("{name}-s"),
            VirtAddr::new(base),
            256 << 10,
            Mode(0o666),
        )
        .unwrap();
    sj.seg_attach(p1, vid, sid, AttachMode::ReadWrite).unwrap();
    let vh1 = sj.vas_attach(p1, vid).unwrap();
    let vh2 = sj.vas_attach(p2, vid).unwrap();
    (vid, vh1, vh2)
}

fn assert_clean(sj: &mut SpaceJmp) {
    let problems = sj.check_invariants();
    assert!(
        problems.is_empty(),
        "audit failed:\n{}",
        problems.join("\n")
    );
}

// ---- the headline acceptance scenario ----------------------------------

#[test]
fn killed_exclusive_holder_is_reaped_and_the_vas_recovered() {
    let mut sj = boot();
    let p1 = spawn(&mut sj, "victim");
    let p2 = spawn(&mut sj, "survivor");
    let (_, vh1, vh2) = shared_rw_vas(&mut sj, p1, p2, "acc", SEG_BASE);

    // p1 switches in and now holds the segment lock exclusively.
    sj.vas_switch(p1, vh1).unwrap();
    sj.kernel_mut()
        .store_u64(p1, VirtAddr::new(SEG_BASE), 0xdead)
        .unwrap();
    assert_eq!(sj.vas_switch(p2, vh2), Err(SjError::WouldBlock));

    // p1 is killed without any cooperation — no exit path runs.
    sj.reap_process(p1).unwrap();
    assert!(sj.kernel().process(p1).is_err(), "corpse fully reclaimed");
    assert_clean(&mut sj);

    // The survivor can now switch in and sees the victim's last write.
    sj.vas_switch(p2, vh2).unwrap();
    assert_eq!(
        sj.kernel_mut()
            .load_u64(p2, VirtAddr::new(SEG_BASE))
            .unwrap(),
        0xdead
    );
    sj.kernel_mut()
        .store_u64(p2, VirtAddr::new(SEG_BASE), 1)
        .unwrap();
    assert_clean(&mut sj);
}

#[test]
fn injected_crash_leaves_an_auditable_zombie_until_reaped() {
    let mut sj = boot();
    let p1 = spawn(&mut sj, "doomed");
    let p2 = spawn(&mut sj, "other");
    let (_, vh1, vh2) = shared_rw_vas(&mut sj, p1, p2, "zomb", SEG_BASE);

    // The first switch dies inside the kernel, after the SpaceJMP layer
    // acquired the segment lock: the corpse holds it.
    sj.kernel_mut()
        .set_fault_plan(Some(FaultPlan::new(1).crash_nth(FaultSite::Switch, 1)));
    assert_eq!(sj.vas_switch(p1, vh1), Err(SjError::Os(OsError::Crashed)));
    assert!(sj.kernel().process(p1).is_ok(), "zombie stays registered");
    assert_eq!(
        sj.vas_switch(p2, vh2),
        Err(SjError::WouldBlock),
        "zombie's lock blocks others"
    );
    assert_clean(&mut sj); // a zombie is a consistent state

    sj.reap_process(p1).unwrap();
    assert_eq!(
        sj.reap_process(p1),
        Err(SjError::Os(OsError::NoSuchProcess)),
        "double reap"
    );
    sj.vas_switch(p2, vh2).unwrap();
    assert_clean(&mut sj);
}

// ---- exit_process edge cases -------------------------------------------

#[test]
fn exit_while_holding_exclusive_locks_spanning_vases() {
    let mut sj = boot();
    let p1 = spawn(&mut sj, "locker");
    let p2 = spawn(&mut sj, "blocked");
    // One segment mapped read-write into two different VASes; p1 switched
    // into the first, p2 wants the second — same lock.
    let vid_a = sj.vas_create(p1, "span-a", Mode(0o666)).unwrap();
    let vid_b = sj.vas_create(p1, "span-b", Mode(0o666)).unwrap();
    let sid = sj
        .seg_alloc(p1, "span-s", VirtAddr::new(SEG_BASE), 64 << 10, Mode(0o666))
        .unwrap();
    sj.seg_attach(p1, vid_a, sid, AttachMode::ReadWrite)
        .unwrap();
    sj.seg_attach(p1, vid_b, sid, AttachMode::ReadWrite)
        .unwrap();
    // p1 additionally holds a process-local scratch segment's lock.
    let scratch = sj
        .seg_alloc(
            p1,
            "span-scratch",
            VirtAddr::new(SEG_BASE + SLOT),
            64 << 10,
            Mode(0o600),
        )
        .unwrap();
    let vh_a = sj.vas_attach(p1, vid_a).unwrap();
    sj.seg_attach_local(p1, vh_a, scratch, AttachMode::ReadWrite)
        .unwrap();
    let vh_b = sj.vas_attach(p2, vid_b).unwrap();

    sj.vas_switch(p1, vh_a).unwrap();
    assert!(sj.segment(sid).unwrap().lock().held_by(p1));
    assert!(sj.segment(scratch).unwrap().lock().held_by(p1));
    assert_eq!(sj.vas_switch(p2, vh_b), Err(SjError::WouldBlock));

    sj.exit_process(p1).unwrap();
    assert!(sj.segment(sid).unwrap().lock().is_free());
    assert!(sj.segment(scratch).unwrap().lock().is_free());
    sj.vas_switch(p2, vh_b).unwrap();
    assert_clean(&mut sj);
}

#[test]
fn exit_with_a_pending_would_block_waiter() {
    let mut sj = boot();
    let p1 = spawn(&mut sj, "holder");
    let p2 = spawn(&mut sj, "waiter");
    let (_, vh1, vh2) = shared_rw_vas(&mut sj, p1, p2, "wait", SEG_BASE);

    sj.vas_switch(p1, vh1).unwrap();
    // p2 gives up after its retries but stays registered as a waiter.
    let policy = RetryPolicy {
        max_retries: 2,
        ..RetryPolicy::default()
    };
    assert_eq!(
        sj.vas_switch_retry(p2, vh2, &policy),
        Err(SjError::WouldBlock)
    );

    // The holder exits cleanly; the waiter's next attempt succeeds and
    // the waiter registration is consumed.
    sj.exit_process(p1).unwrap();
    sj.vas_switch_retry(p2, vh2, &policy).unwrap();
    assert_clean(&mut sj);
}

#[test]
fn double_exit_reports_no_such_process() {
    let mut sj = boot();
    let p1 = spawn(&mut sj, "once");
    let (_, vh1, _) = {
        let p2 = spawn(&mut sj, "bystander");
        shared_rw_vas(&mut sj, p1, p2, "dbl", SEG_BASE)
    };
    sj.vas_switch(p1, vh1).unwrap();
    sj.exit_process(p1).unwrap();
    assert_eq!(
        sj.exit_process(p1),
        Err(SjError::Os(OsError::NoSuchProcess))
    );
    assert_clean(&mut sj);
}

#[test]
fn process_churn_keeps_ids_audit_and_lint_in_step() {
    // Pids are never reused, so after many spawns and exits the kernel's
    // tables are mostly empty slots; every id list must still name
    // exactly the live processes, in ascending order.
    let mut sj = boot();
    let owner = spawn(&mut sj, "owner");
    let vid = sj.vas_create(owner, "churn-v", Mode(0o666)).unwrap();
    let sid = sj
        .seg_alloc(
            owner,
            "churn-s",
            VirtAddr::new(SEG_BASE),
            4 * PAGE_SIZE,
            Mode(0o666),
        )
        .unwrap();
    sj.seg_attach(owner, vid, sid, AttachMode::ReadWrite)
        .unwrap();
    let mut rng = SimRng::seed_from_u64(25);
    let mut live = vec![owner];
    let mut attached: Vec<(Pid, VasHandle)> = Vec::new();
    for step in 0..600 {
        if live.len() < 3 || (live.len() < 12 && rng.gen_bool(0.5)) {
            let pid = spawn(&mut sj, "churn");
            live.push(pid);
            if rng.gen_bool(0.5) {
                let vh = sj.vas_attach(pid, vid).unwrap();
                attached.push((pid, vh));
                if rng.gen_bool(0.5) && sj.segment(sid).unwrap().lock().is_free() {
                    // Leave it switched in: the exit below must release
                    // the segment lock.
                    sj.vas_switch(pid, vh).unwrap();
                    sj.kernel_mut()
                        .store_u64(pid, VirtAddr::new(SEG_BASE), pid.0)
                        .unwrap();
                    if !rng.gen_bool(0.25) {
                        sj.vas_switch_home(pid).unwrap();
                    }
                }
            }
        } else {
            let pid = live.remove(1 + rng.index(live.len() - 1));
            if rng.gen_bool(0.25) {
                sj.reap_process(pid).unwrap();
            } else {
                sj.exit_process(pid).unwrap();
            }
            attached.retain(|&(p, _)| p != pid);
        }
        assert_eq!(sj.kernel().process_ids(), live, "step {step}");
        let pids: Vec<Pid> = sj.vas(vid).unwrap().attached_pids().collect();
        let handles: Vec<VasHandle> = attached.iter().map(|&(_, vh)| vh).collect();
        assert_eq!(pids, attached.iter().map(|&(p, _)| p).collect::<Vec<_>>());
        assert_eq!(sj.attachment_handles(), handles, "step {step}");
        if step % 25 == 0 {
            assert_clean(&mut sj);
            let findings = lint_kernel(&mut sj);
            assert!(findings.is_empty(), "step {step}: {findings:?}");
        }
    }
    assert!(live.len() < 20 && sj.kernel().process_ids().last() > Some(&Pid(300)));
    assert_clean(&mut sj);
}

// ---- deadlock detection ------------------------------------------------

#[test]
fn cyclic_waiters_get_deadlock_not_livelock() {
    let mut sj = boot();
    let p1 = spawn(&mut sj, "dl1");
    let p2 = spawn(&mut sj, "dl2");
    // Segments X and Y; VAS A = {X}, VAS B = {Y}, VAS AB = {X, Y}.
    let vid_a = sj.vas_create(p1, "dl-a", Mode(0o666)).unwrap();
    let vid_b = sj.vas_create(p1, "dl-b", Mode(0o666)).unwrap();
    let vid_ab = sj.vas_create(p1, "dl-ab", Mode(0o666)).unwrap();
    let x = sj
        .seg_alloc(p1, "dl-x", VirtAddr::new(SEG_BASE), 64 << 10, Mode(0o666))
        .unwrap();
    let y = sj
        .seg_alloc(
            p1,
            "dl-y",
            VirtAddr::new(SEG_BASE + SLOT),
            64 << 10,
            Mode(0o666),
        )
        .unwrap();
    sj.seg_attach(p1, vid_a, x, AttachMode::ReadWrite).unwrap();
    sj.seg_attach(p1, vid_b, y, AttachMode::ReadWrite).unwrap();
    sj.seg_attach(p1, vid_ab, x, AttachMode::ReadWrite).unwrap();
    sj.seg_attach(p1, vid_ab, y, AttachMode::ReadWrite).unwrap();
    let vh_a = sj.vas_attach(p1, vid_a).unwrap();
    let vh_b = sj.vas_attach(p2, vid_b).unwrap();
    let vh_ab1 = sj.vas_attach(p1, vid_ab).unwrap();
    let vh_ab2 = sj.vas_attach(p2, vid_ab).unwrap();

    // p1 holds X, p2 holds Y; each then wants both.
    sj.vas_switch(p1, vh_a).unwrap();
    sj.vas_switch(p2, vh_b).unwrap();
    let policy = RetryPolicy {
        max_retries: 3,
        ..RetryPolicy::default()
    };
    // p1 blocks on Y (held by p2) and stays registered as a waiter.
    assert_eq!(
        sj.vas_switch_retry(p1, vh_ab1, &policy),
        Err(SjError::WouldBlock)
    );
    // p2 blocks on X (held by p1): the waits-for graph now has the cycle
    // p2 -> p1 -> p2, reported instead of burning retries.
    assert_eq!(
        sj.vas_switch_retry(p2, vh_ab2, &policy),
        Err(SjError::Deadlock)
    );

    // Breaking the cycle (p2 backs off home) lets p1 through.
    sj.vas_switch_home(p2).unwrap();
    sj.vas_switch_retry(p1, vh_ab1, &policy).unwrap();
    assert_clean(&mut sj);
}

// ---- randomized crash-injection harness --------------------------------

/// One GUPS round under a seeded fault plan. Returns injected faults.
fn gups_round(seed: u64) -> u64 {
    let cfg = GupsConfig {
        windows: 4,
        window_bytes: 128 << 10,
        updates_per_set: 8,
        epochs: 96,
        seed,
        ..GupsConfig::default()
    };
    let mut sj = SpaceJmp::new(Kernel::new(cfg.flavor, cfg.machine));
    sj.kernel_mut().set_fault_plan(Some(
        FaultPlan::new(seed)
            .crash_with_probability(FaultSite::Switch, 0.04)
            .fail_with_probability(FaultSite::Switch, 0.08)
            .fail_with_probability(FaultSite::SpaceAlloc, 0.02)
            .fail_with_probability(FaultSite::MapRegion, 0.03),
    ));
    // Injected faults may abort the run early (e.g. during setup); what
    // must never happen is a panic, a livelock, or a failed audit.
    let result = run_jmp_shared_on(&mut sj, &cfg, 3);
    if let Ok(r) = &result {
        assert_eq!(r.crashes, sj.stats().reaps, "every crash was reaped");
    }
    let problems = sj.check_invariants();
    assert!(
        problems.is_empty(),
        "GUPS seed {seed}: audit failed:\n{}",
        problems.join("\n")
    );
    sj.kernel()
        .fault_plan()
        .expect("plan installed")
        .stats()
        .total()
}

/// One KV round: clients hammer a shared store while faults kill them;
/// crashed clients are reaped and replaced. Returns injected faults.
fn kv_round(seed: u64) -> u64 {
    let mut sj = boot();
    let mut clients = Vec::new();
    for i in 0..2 {
        let pid = spawn(&mut sj, &format!("kv-{i}"));
        clients.push(JmpClient::join(&mut sj, pid, "crash-store", i).unwrap());
    }
    sj.kernel_mut().set_fault_plan(Some(
        FaultPlan::new(seed)
            .crash_with_probability(FaultSite::Switch, 0.02)
            .fail_with_probability(FaultSite::Switch, 0.05)
            .fail_with_probability(FaultSite::ObjectAlloc, 0.02)
            .fail_with_probability(FaultSite::MapRegion, 0.03)
            .fail_with_probability(FaultSite::SpaceAlloc, 0.02),
    ));

    let mut rng = SimRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let mut next_idx = 2usize;
    let mut crashes = 0u64;
    for op in 0..150 {
        if clients.is_empty() {
            // Best effort replacement; an injected fault just delays it.
            // Pinned scratch segments of reaped clients are never freed
            // (segments outlive processes), so a long crash streak can
            // legitimately exhaust the small machine — end the round.
            let name = format!("kv-r{next_idx}");
            let Ok(pid) = sj.kernel_mut().spawn(&name, Creds::new(100, 100)) else {
                break;
            };
            sj.kernel_mut().activate(pid).unwrap();
            match JmpClient::join(&mut sj, pid, "crash-store", next_idx) {
                Ok(c) => clients.push(c),
                Err(SjError::Os(OsError::Crashed)) => {
                    sj.reap_process(pid).unwrap();
                    crashes += 1;
                }
                Err(_) => {
                    let _ = sj.exit_process(pid);
                }
            }
            next_idx += 1;
            continue;
        }
        let ci = rng.index(clients.len());
        let key = format!("k{}", rng.index(16));
        let outcome = match rng.index(3) {
            0 => clients[ci].get(&mut sj, key.as_bytes()).map(|_| ()),
            1 => clients[ci].set(&mut sj, key.as_bytes(), format!("v{op}").as_bytes()),
            _ => clients[ci].del(&mut sj, key.as_bytes()).map(|_| ()),
        };
        match outcome {
            Ok(()) => {}
            Err(SjError::Os(OsError::Crashed)) => {
                let pid = clients[ci].pid();
                sj.reap_process(pid).unwrap();
                clients.remove(ci);
                crashes += 1;
            }
            Err(_) => {} // transient injected failure; command dropped
        }
        if op % 25 == 0 {
            let problems = sj.check_invariants();
            assert!(
                problems.is_empty(),
                "KV seed {seed}: audit failed:\n{}",
                problems.join("\n")
            );
        }
    }
    assert_eq!(crashes, sj.stats().reaps, "every crash was reaped");
    let problems = sj.check_invariants();
    assert!(
        problems.is_empty(),
        "KV seed {seed}: final audit failed:\n{}",
        problems.join("\n")
    );
    sj.kernel()
        .fault_plan()
        .expect("plan installed")
        .stats()
        .total()
}

#[test]
fn randomized_crash_harness_survives_at_least_100_faults() {
    let mut faults = 0u64;
    for seed in 0..10u64 {
        faults += gups_round(0xFA11_0000 + seed);
        faults += kv_round(0xC4A5_0000 + seed);
    }
    assert!(
        faults >= 100,
        "only {faults} faults injected; raise rates or rounds"
    );
}
