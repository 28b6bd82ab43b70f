//! Pins the observable behaviour of the `vas_switch` path.
//!
//! One fixed sequence runs with the tracer on:
//!
//! 1. a read-only switch;
//! 2. a read-write switch into a second VAS sharing the segment (a lock
//!    upgrade);
//! 3. a switch into a VAS with a process-local segment;
//! 4. a contended switch that rolls back, both restoring a hold the
//!    previous VAS needs and releasing one it does not;
//! 5. `vas_switch_home`;
//! 6. a switch whose second segment-lock draw is an injected fault, so
//!    that lock is skipped, and the switch home after it.
//!
//! After each step the test renders the segment lock holders, the
//! `SjStats` counters and every trace event the step emitted (timestamp,
//! core, phase, kind and both argument words) and compares the text with
//! a transcript pinned below. A host-side rewrite of the switch path must
//! leave all of it alone: the lock order, the fault-injection draws, the
//! events and the cycles they are stamped with.

use std::fmt::Write as _;

use spacejmp::os::{FaultPlan, FaultSite};
use spacejmp::prelude::*;
use spacejmp::trace::Tracer;

const SEG_BASE: u64 = 0x1000_0000_0000;

/// Renders the steps' observable state, one block per step.
fn transcript() -> String {
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M2));
    let tracer = Tracer::new(1 << 16);
    sj.set_tracer(tracer.clone());
    let p0 = sj.kernel_mut().spawn("p0", Creds::new(1, 1)).unwrap();
    let p1 = sj.kernel_mut().spawn("p1", Creds::new(1, 1)).unwrap();
    sj.kernel_mut().activate(p0).unwrap();
    sj.kernel_mut().activate(p1).unwrap();

    let seg = |sj: &mut SpaceJmp, name: &str, slot: u64| {
        sj.seg_alloc(
            p0,
            name,
            VirtAddr::new(SEG_BASE + (slot << 39)),
            1 << 20,
            Mode(0o660),
        )
        .unwrap()
    };
    let s = seg(&mut sj, "s", 0);
    let t = seg(&mut sj, "t", 1);
    let u = seg(&mut sj, "u", 2);
    let local = seg(&mut sj, "local", 3);
    let segs = [("s", s), ("t", t), ("u", u), ("local", local)];

    let vas = |sj: &mut SpaceJmp, name: &str, members: &[(SegId, AttachMode)]| {
        let vid = sj.vas_create(p0, name, Mode(0o660)).unwrap();
        for &(sid, mode) in members {
            sj.seg_attach(p0, vid, sid, mode).unwrap();
        }
        vid
    };
    let v_ro = vas(&mut sj, "v-ro", &[(s, AttachMode::ReadOnly)]);
    let v_rw = vas(&mut sj, "v-rw", &[(s, AttachMode::ReadWrite)]);
    let v_loc = vas(&mut sj, "v-loc", &[(t, AttachMode::ReadWrite)]);
    let v_all = vas(
        &mut sj,
        "v-all",
        &[
            (t, AttachMode::ReadWrite),
            (u, AttachMode::ReadWrite),
            (s, AttachMode::ReadWrite),
        ],
    );
    let vh_ro = sj.vas_attach(p0, v_ro).unwrap();
    let vh_rw = sj.vas_attach(p0, v_rw).unwrap();
    let vh_loc = sj.vas_attach(p0, v_loc).unwrap();
    sj.seg_attach_local(p0, vh_loc, local, AttachMode::ReadWrite)
        .unwrap();
    let vh_all = sj.vas_attach(p0, v_all).unwrap();
    let vh_p1 = sj.vas_attach(p1, v_rw).unwrap();

    let mut out = String::new();
    let mut seen = tracer.events().len();
    let mut step = |sj: &mut SpaceJmp, name: &str, result: SjResult<()>| {
        writeln!(out, "== {name}: {result:?}").unwrap();
        for (label, sid) in segs {
            let lock = sj.segment(sid).unwrap().lock();
            let writer = lock.writer().map(|p| p.0);
            let readers: Vec<u64> = lock.readers().iter().map(|p| p.0).collect();
            writeln!(out, "lock {label}: writer {writer:?} readers {readers:?}").unwrap();
        }
        writeln!(out, "{:?}", sj.stats()).unwrap();
        if let Some(plan) = sj.kernel().fault_plan() {
            writeln!(out, "seg-lock draws {}", plan.calls(FaultSite::SegLock)).unwrap();
        }
        let events = tracer.events();
        for e in &events[seen..] {
            writeln!(
                out,
                "{} c{} {:?} {:?} {} {}",
                e.ts, e.core, e.phase, e.kind, e.arg0, e.arg1
            )
            .unwrap();
        }
        seen = events.len();
    };

    let r = sj.vas_switch(p0, vh_ro);
    step(&mut sj, "1 read-only switch", r);
    let r = sj.vas_switch(p0, vh_rw);
    step(&mut sj, "2 upgrade to read-write", r);
    let r = sj.vas_switch(p0, vh_loc);
    step(&mut sj, "3 process-local segment", r);
    // p1 takes s exclusively; p0, holding t for v-loc, then acquires t
    // (held before), u (new), and blocks on s.
    let r = sj.vas_switch(p1, vh_p1);
    step(&mut sj, "4a p1 takes s", r);
    let r = sj.vas_switch(p0, vh_all);
    step(&mut sj, "4b contended switch rolls back", r);
    let r = sj.vas_switch_home(p0);
    step(&mut sj, "5 switch home", r);
    sj.kernel_mut()
        .set_fault_plan(Some(FaultPlan::new(7).fail_nth(FaultSite::SegLock, 2)));
    let r = sj.vas_switch(p0, vh_loc);
    step(&mut sj, "6a switch with an elided lock", r);
    let r = sj.vas_switch_home(p0);
    step(&mut sj, "6b switch home", r);
    out
}

/// The pinned transcript, after its leading newline.
const EXPECTED: &str = r#"
== 1 read-only switch: Ok(())
lock s: writer None readers [1]
lock t: writer None readers []
lock u: writer None readers []
lock local: writer None readers []
SjStats { switches: 1, attaches: 5, lock_acquisitions: 1, lock_contentions: 0, lock_skips: 0, retried_switches: 0, deadlocks: 0, reaps: 0, oom_kills: 0 }
27033 c0 Begin VasSwitch 1 0
27073 c0 Instant LockAcquire 1 1
27073 c0 Begin SwitchVmspace 1 0
27073 c0 Begin KernelEntry 1 0
27430 c0 End KernelEntry 1 0
27430 c0 Begin SwitchBook 1 0
28070 c0 End SwitchBook 1 0
28070 c0 Begin Cr3Load 0 0
28200 c0 Instant TlbFlush 0 0
28200 c0 End Cr3Load 0 0
28200 c0 End SwitchVmspace 1 0
28200 c0 Instant VasEnter 1 1
28200 c0 End VasSwitch 1 0
== 2 upgrade to read-write: Ok(())
lock s: writer Some(1) readers []
lock t: writer None readers []
lock u: writer None readers []
lock local: writer None readers []
SjStats { switches: 2, attaches: 5, lock_acquisitions: 2, lock_contentions: 0, lock_skips: 0, retried_switches: 0, deadlocks: 0, reaps: 0, oom_kills: 0 }
28200 c0 Begin VasSwitch 1 0
28240 c0 Instant LockAcquire 1 1
28240 c0 Begin SwitchVmspace 1 0
28240 c0 Begin KernelEntry 1 0
28597 c0 End KernelEntry 1 0
28597 c0 Begin SwitchBook 1 0
29237 c0 End SwitchBook 1 0
29237 c0 Begin Cr3Load 0 0
29367 c0 Instant TlbFlush 0 0
29367 c0 End Cr3Load 0 0
29367 c0 End SwitchVmspace 1 0
29367 c0 Instant VasEnter 1 2
29367 c0 End VasSwitch 1 0
== 3 process-local segment: Ok(())
lock s: writer None readers []
lock t: writer Some(1) readers []
lock u: writer None readers []
lock local: writer Some(1) readers []
SjStats { switches: 3, attaches: 5, lock_acquisitions: 4, lock_contentions: 0, lock_skips: 0, retried_switches: 0, deadlocks: 0, reaps: 0, oom_kills: 0 }
29367 c0 Begin VasSwitch 1 0
29407 c0 Instant LockAcquire 2 1
29447 c0 Instant LockAcquire 4 1
29447 c0 Begin SwitchVmspace 1 0
29447 c0 Begin KernelEntry 1 0
29804 c0 End KernelEntry 1 0
29804 c0 Begin SwitchBook 1 0
30444 c0 End SwitchBook 1 0
30444 c0 Begin Cr3Load 0 0
30574 c0 Instant TlbFlush 0 0
30574 c0 End Cr3Load 0 0
30574 c0 End SwitchVmspace 1 0
30574 c0 Instant LockRelease 1 1
30574 c0 Instant VasEnter 1 3
30574 c0 End VasSwitch 1 0
== 4a p1 takes s: Ok(())
lock s: writer Some(2) readers []
lock t: writer Some(1) readers []
lock u: writer None readers []
lock local: writer Some(1) readers []
SjStats { switches: 4, attaches: 5, lock_acquisitions: 5, lock_contentions: 0, lock_skips: 0, retried_switches: 0, deadlocks: 0, reaps: 0, oom_kills: 0 }
19107 c1 Begin VasSwitch 2 0
19147 c1 Instant LockAcquire 1 2
19147 c1 Begin SwitchVmspace 2 0
19147 c1 Begin KernelEntry 2 0
19504 c1 End KernelEntry 2 0
19504 c1 Begin SwitchBook 2 0
20144 c1 End SwitchBook 2 0
20144 c1 Begin Cr3Load 0 0
20274 c1 Instant TlbFlush 0 0
20274 c1 End Cr3Load 0 0
20274 c1 End SwitchVmspace 2 0
20274 c1 Instant VasEnter 2 2
20274 c1 End VasSwitch 2 0
== 4b contended switch rolls back: Err(WouldBlock)
lock s: writer Some(2) readers []
lock t: writer Some(1) readers []
lock u: writer None readers []
lock local: writer Some(1) readers []
SjStats { switches: 4, attaches: 5, lock_acquisitions: 5, lock_contentions: 1, lock_skips: 0, retried_switches: 0, deadlocks: 0, reaps: 0, oom_kills: 0 }
30574 c0 Begin VasSwitch 1 0
30614 c0 Instant LockAcquire 2 1
30654 c0 Instant LockAcquire 3 1
30654 c0 Instant LockContention 1 1
30654 c0 End VasSwitch 1 0
== 5 switch home: Ok(())
lock s: writer Some(2) readers []
lock t: writer None readers []
lock u: writer None readers []
lock local: writer None readers []
SjStats { switches: 5, attaches: 5, lock_acquisitions: 5, lock_contentions: 1, lock_skips: 0, retried_switches: 0, deadlocks: 0, reaps: 0, oom_kills: 0 }
30654 c0 Instant LockRelease 2 1
30654 c0 Instant LockRelease 4 1
30654 c0 Begin SwitchVmspace 1 0
30654 c0 Begin KernelEntry 1 0
31011 c0 End KernelEntry 1 0
31011 c0 Begin SwitchBook 1 0
31651 c0 End SwitchBook 1 0
31651 c0 Begin Cr3Load 0 0
31781 c0 Instant TlbFlush 0 0
31781 c0 End Cr3Load 0 0
31781 c0 End SwitchVmspace 1 0
31781 c0 Instant VasEnter 1 0
== 6a switch with an elided lock: Ok(())
lock s: writer Some(2) readers []
lock t: writer Some(1) readers []
lock u: writer None readers []
lock local: writer None readers []
SjStats { switches: 6, attaches: 5, lock_acquisitions: 6, lock_contentions: 1, lock_skips: 1, retried_switches: 0, deadlocks: 0, reaps: 0, oom_kills: 0 }
seg-lock draws 2
31781 c0 Begin VasSwitch 1 0
31781 c0 Instant LockSkip 4 1
31821 c0 Instant LockAcquire 2 1
31821 c0 Begin SwitchVmspace 1 0
31821 c0 Begin KernelEntry 1 0
32178 c0 End KernelEntry 1 0
32178 c0 Begin SwitchBook 1 0
32818 c0 End SwitchBook 1 0
32818 c0 Begin Cr3Load 0 0
32948 c0 Instant TlbFlush 0 0
32948 c0 End Cr3Load 0 0
32948 c0 End SwitchVmspace 1 0
32948 c0 Instant VasEnter 1 3
32948 c0 End VasSwitch 1 0
== 6b switch home: Ok(())
lock s: writer Some(2) readers []
lock t: writer None readers []
lock u: writer None readers []
lock local: writer None readers []
SjStats { switches: 7, attaches: 5, lock_acquisitions: 6, lock_contentions: 1, lock_skips: 1, retried_switches: 0, deadlocks: 0, reaps: 0, oom_kills: 0 }
seg-lock draws 2
32948 c0 Instant LockRelease 2 1
32948 c0 Begin SwitchVmspace 1 0
32948 c0 Begin KernelEntry 1 0
33305 c0 End KernelEntry 1 0
33305 c0 Begin SwitchBook 1 0
33945 c0 End SwitchBook 1 0
33945 c0 Begin Cr3Load 0 0
34075 c0 Instant TlbFlush 0 0
34075 c0 End Cr3Load 0 0
34075 c0 End SwitchVmspace 1 0
34075 c0 Instant VasEnter 1 0
"#;

#[test]
fn switch_path_transcript_is_pinned() {
    let got = transcript();
    assert!(
        got == EXPECTED[1..],
        "switch-path transcript changed; got:\n{got}"
    );
}
