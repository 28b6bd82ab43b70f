//! End-to-end detection tests for `sjmp-analyze`, driven through the
//! full simulated stack: real workloads produce real traces, and the
//! trace-replay detectors must find exactly the defects that were
//! injected — and nothing on healthy runs.
//!
//! * a GUPS shared-VAS run whose `n`-th segment-lock acquisition is
//!   elided by the fault plan must yield **one** data race, attributed
//!   to the right segment, the victim pid, and two distinct cores;
//! * the same racy access pattern under an intact kernel is clean;
//! * two processes taking two segment locks in opposite orders must
//!   yield a lock-order cycle; the stock benchmarks must not;
//! * the kernel linter is quiet on a healthy kernel and flags a shared
//!   writable segment whose lock has been disabled.

use spacejmp::analyze::{analyze_trace, detect_lock_order_cycles, detect_races, lint_kernel};
use spacejmp::gups::{run_jmp_shared, GupsConfig};
use spacejmp::os::{FaultPlan, FaultSite};
use spacejmp::prelude::*;
use spacejmp::trace::{EventKind, Tracer};

/// A small shared-VAS GUPS config: one window so the injected race has
/// exactly one segment to land on, and few enough epochs to keep the
/// trace ring comfortable.
fn racy_cfg(tracer: Tracer) -> GupsConfig {
    GupsConfig {
        windows: 1,
        window_bytes: 1 << 20,
        updates_per_set: 4,
        epochs: 24,
        tracer,
        ..GupsConfig::default()
    }
}

#[test]
fn injected_lock_skip_is_reported_as_one_race_with_exact_attribution() {
    let tracer = Tracer::new(1 << 16);
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M3));
    // Elide the 8th segment-lock acquisition: one mid-run turn executes
    // unguarded in the shared window.
    sj.kernel_mut()
        .set_fault_plan(Some(FaultPlan::new(1).fail_nth(FaultSite::SegLock, 8)));
    let res = run_jmp_shared(&mut sj, &racy_cfg(tracer.clone()), 3, true).expect("racy gups");
    assert!(res.updates > 0, "workload made no progress");

    let events = tracer.events();
    assert_eq!(tracer.dropped(), 0, "trace ring too small");
    // The LockSkip diagnostic names the victim: (segment, pid, core).
    let skip = events
        .iter()
        .find(|ev| ev.kind == EventKind::LockSkip)
        .expect("fault plan never fired");
    let (victim_sid, victim_pid, victim_core) = (skip.arg0, skip.arg1, skip.core);

    let findings = detect_races(&events);
    assert_eq!(
        findings.len(),
        1,
        "expected exactly one race finding, got {findings:?}"
    );
    let f = &findings[0];
    assert_eq!(f.rule, "data-race");
    assert_eq!(
        f.segments,
        vec![victim_sid],
        "race attributed to the wrong segment"
    );
    assert!(
        f.pids.contains(&victim_pid),
        "race must involve the lock-skipping pid {victim_pid}: {f:?}"
    );
    assert_eq!(f.pids.len(), 2, "a race is between two processes: {f:?}");
    assert_eq!(
        f.cores.len(),
        2,
        "racing accesses came from two cores: {f:?}"
    );
    assert!(
        f.cores.contains(&u64::from(victim_core)),
        "victim executed on core {victim_core}: {f:?}"
    );

    // The full pipeline agrees (races + lock order + completeness).
    let analysis = analyze_trace(&events, tracer.dropped());
    assert!(!analysis.skipped_incomplete);
    assert_eq!(analysis.findings.len(), 1);
}

#[test]
fn racy_access_pattern_under_an_intact_kernel_is_clean() {
    // Same hot-word workload, no fault plan: the window lock orders
    // every turn, so the detector must stay quiet — the finding above
    // comes from the missing lock, not from the access pattern.
    let tracer = Tracer::new(1 << 16);
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M3));
    run_jmp_shared(&mut sj, &racy_cfg(tracer.clone()), 3, true).expect("clean gups");
    let events = tracer.events();
    assert_eq!(tracer.dropped(), 0, "trace ring too small");
    assert!(
        events.iter().all(|ev| ev.kind != EventKind::LockSkip),
        "no faults were planned"
    );
    let analysis = analyze_trace(&events, tracer.dropped());
    assert!(
        analysis.findings.is_empty(),
        "false positive on a healthy run: {:?}",
        analysis.findings
    );
}

/// Two processes, two single-segment VASes, both attached by both.
/// Returns (sj, pids, handles, sids).
#[allow(clippy::type_complexity)]
fn two_lock_setup() -> (SpaceJmp, [Pid; 2], [[VasHandle; 2]; 2], [SegId; 2]) {
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M2));
    let p1 = sj
        .kernel_mut()
        .spawn("inv-a", Creds::new(1, 1))
        .expect("spawn");
    let p2 = sj
        .kernel_mut()
        .spawn("inv-b", Creds::new(1, 1))
        .expect("spawn");
    let mut vids = Vec::new();
    let mut sids = Vec::new();
    for w in 0..2u64 {
        let va = VirtAddr::new(0x1000_0000_0000 + (w << 32));
        let vid = sj
            .vas_create(p1, &format!("iv{w}"), Mode(0o666))
            .expect("vas");
        let sid = sj
            .seg_alloc(p1, &format!("is{w}"), va, 1 << 20, Mode(0o666))
            .expect("seg");
        sj.seg_attach(p1, vid, sid, AttachMode::ReadWrite)
            .expect("seg attach");
        vids.push(vid);
        sids.push(sid);
    }
    let handles =
        [p1, p2].map(|pid| [0, 1].map(|w| sj.vas_attach(pid, vids[w]).expect("vas attach")));
    (sj, [p1, p2], handles, [sids[0], sids[1]])
}

#[test]
fn opposite_lock_orders_across_two_pids_form_a_reported_cycle() {
    let tracer = Tracer::new(1 << 14);
    let (mut sj, [p1, p2], handles, [s1, s2]) = two_lock_setup();
    sj.set_tracer(tracer.clone());

    // P1 switches v0 then directly v1: it acquires s2's lock while still
    // holding s1's (the switch releases the previous VAS's locks only
    // after the target's are taken). P2 does the same in reverse.
    sj.vas_switch(p1, handles[0][0]).expect("p1 -> v0");
    sj.vas_switch(p1, handles[0][1]).expect("p1 -> v1");
    sj.vas_switch_home(p1).expect("p1 home");
    sj.vas_switch(p2, handles[1][1]).expect("p2 -> v1");
    sj.vas_switch(p2, handles[1][0]).expect("p2 -> v0");
    sj.vas_switch_home(p2).expect("p2 home");

    let findings = detect_lock_order_cycles(&tracer.events());
    assert_eq!(findings.len(), 1, "expected one cycle: {findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "lock-order-cycle");
    assert_eq!(f.segments, vec![s1.0, s2.0]);
    assert_eq!(f.pids, vec![p1.0, p2.0]);
}

#[test]
fn stock_shared_gups_trace_has_no_lock_order_cycles() {
    // GUPS shared workers always switch from home, holding nothing, so
    // the lock-order graph must have no edges worth reporting even
    // across many interleaved turns.
    let tracer = Tracer::new(1 << 16);
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M3));
    let cfg = GupsConfig {
        windows: 3,
        window_bytes: 1 << 20,
        updates_per_set: 4,
        epochs: 24,
        tracer: tracer.clone(),
        ..GupsConfig::default()
    };
    run_jmp_shared(&mut sj, &cfg, 3, true).expect("gups");
    let findings = detect_lock_order_cycles(&tracer.events());
    assert!(findings.is_empty(), "false cycle: {findings:?}");
}

#[test]
fn kernel_linter_is_quiet_on_a_healthy_kernel() {
    let (mut sj, [p1, _p2], handles, _sids) = two_lock_setup();
    sj.vas_switch(p1, handles[0][0]).expect("switch");
    sj.kernel_mut()
        .store_u64(p1, VirtAddr::new(0x1000_0000_0000), 7)
        .expect("store");
    sj.vas_switch_home(p1).expect("home");
    let findings = lint_kernel(&mut sj);
    assert!(findings.is_empty(), "healthy kernel flagged: {findings:?}");
}

#[test]
fn kernel_linter_flags_an_unlockable_shared_writable_segment() {
    let (mut sj, [p1, p2], _handles, [s1, _s2]) = two_lock_setup();
    // Both pids hold read-write attachments to s1's VAS; disabling the
    // segment lock removes the only thing serializing them.
    sj.seg_ctl(p1, s1, SegCtl::SetLockable(false)).expect("ctl");
    let findings = lint_kernel(&mut sj);
    assert_eq!(findings.len(), 1, "expected one finding: {findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "unlocked-shared-write");
    assert_eq!(f.segments, vec![s1.0]);
    let mut pids = vec![p1.0, p2.0];
    pids.sort_unstable();
    assert_eq!(f.pids, pids);
}
