//! Invariants of the `sjmp-trace` event stream, checked against real
//! workloads driven through the full simulated stack:
//!
//! * every `Begin` has a matching `End` (no unmatched ends, no spans
//!   left open once the workload returns to steady state);
//! * timestamps are monotonic per hardware thread;
//! * events are attributed to the hardware thread that executed them —
//!   a syscall running on core 1 never claims core 0;
//! * the per-switch cycle breakdown reconstructed from the trace agrees
//!   with the cost model's Table 2 decomposition within 1%;
//! * installing a tracer changes **zero** modeled cycles — the clock
//!   readings of a traced run are bit-identical to an untraced one;
//! * the whole event stream of five workloads is pinned by digest, so a
//!   change in how events are emitted cannot move one unnoticed.

use spacejmp::gups::{run_jmp, run_jmp_shared, GupsConfig};
use spacejmp::prelude::*;
use spacejmp::trace::{Event, EventKind, Phase, Tracer};

/// A small multi-VAS workload touching the paths the tracer
/// instruments: attach, switch, segment locks, faults, TLB traffic.
/// Returns the final simulated cycle count.
fn workload(tracer: Tracer) -> u64 {
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M2));
    sj.set_tracer(tracer);
    let pid = sj
        .kernel_mut()
        .spawn("inv", Creds::new(100, 100))
        .expect("spawn");
    sj.kernel_mut().activate(pid).expect("activate");

    let mut handles = Vec::new();
    for w in 0..3u64 {
        let va = VirtAddr::new(0x1000_0000_0000 + (w << 32));
        let vid = sj
            .vas_create(pid, &format!("v{w}"), Mode(0o660))
            .expect("vas");
        let sid = sj
            .seg_alloc(pid, &format!("s{w}"), va, 1 << 20, Mode(0o660))
            .expect("seg");
        sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite)
            .expect("seg attach");
        handles.push((sj.vas_attach(pid, vid).expect("vas attach"), va));
    }
    for round in 0..4u64 {
        for &(vh, va) in &handles {
            sj.vas_switch(pid, vh).expect("switch");
            sj.kernel_mut()
                .store_u64(pid, va.add(round * 4096), round)
                .expect("store");
        }
    }
    sj.vas_switch_home(pid).expect("home");
    for &(vh, _) in &handles {
        sj.vas_detach(pid, vh).expect("detach");
    }
    sj.kernel().clock().now()
}

/// A durability workload: build a VAS, save it twice (the second time
/// with the final flush barrier dropped), power-cycle the machine, run
/// journal-replay recovery, and load the VAS back. Touches every blk
/// and snapshot event kind. Returns the combined cycle count of both
/// boots (for the zero-cost-tracing check).
fn durable_workload(tracer: Tracer) -> u64 {
    use spacejmp::os::{FaultPlan, FaultSite};

    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M2));
    sj.set_tracer(tracer.clone());
    let pid = sj
        .kernel_mut()
        .spawn("dur", Creds::new(100, 100))
        .expect("spawn");
    sj.kernel_mut().activate(pid).expect("activate");

    let base = VirtAddr::new(0x1000_0000_0000);
    let vid = sj.vas_create(pid, "dur-v", Mode(0o660)).expect("vas");
    let sid = sj
        .seg_alloc(pid, "dur-s", base, 4 << 12, Mode(0o660))
        .expect("seg");
    sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite)
        .expect("seg attach");
    let vh = sj.vas_attach(pid, vid).expect("vas attach");
    sj.vas_switch(pid, vh).expect("switch");
    for page in 0..4u64 {
        sj.kernel_mut()
            .store_u64(pid, base.add(page * 4096), page + 1)
            .expect("store");
    }
    sj.vas_switch_home(pid).expect("home");
    sj.vas_save(pid, vid).expect("save");
    // Second save with the superblock flush dropped: the journal is
    // durable but the superblock is not, so the next boot replays.
    sj.kernel_mut()
        .set_fault_plan(Some(FaultPlan::new(3).fail_nth(FaultSite::BlkFlush, 3)));
    sj.vas_save(pid, vid).expect("save with dropped flush");
    sj.kernel_mut().set_fault_plan(None);
    let first_boot = sj.kernel().clock().now();

    // Power loss + reboot: recovery and the reload are traced too.
    let mut dev = sj.kernel_mut().take_disk();
    dev.crash();
    let mut kernel = Kernel::new(KernelFlavor::DragonFly, MachineId::M2);
    kernel.set_tracer(tracer);
    let replays = kernel.attach_disk(dev);
    assert_eq!(replays, 1, "dropped superblock flush must replay");
    let mut sj2 = SpaceJmp::new(kernel);
    let pid2 = sj2
        .kernel_mut()
        .spawn("dur2", Creds::new(100, 100))
        .expect("spawn 2");
    sj2.kernel_mut().activate(pid2).expect("activate 2");
    sj2.vas_load(pid2, "dur-v").expect("load");
    first_boot + sj2.kernel().clock().now()
}

#[test]
fn every_begin_has_a_matching_end() {
    let tracer = Tracer::new(1 << 16);
    workload(tracer.clone());
    assert!(!tracer.events().is_empty(), "workload produced no events");
    assert_eq!(tracer.dropped(), 0, "ring too small for the workload");
    assert_eq!(tracer.unmatched_ends(), 0, "End without a Begin");
    assert!(
        tracer.open_spans().is_empty(),
        "spans left open: {:?}",
        tracer.open_spans()
    );
    // Replay the stream with a per-(core, kind) depth counter: it must
    // never go negative and must finish at zero everywhere.
    let mut depth = std::collections::HashMap::new();
    for ev in tracer.events() {
        let d = depth.entry((ev.core, ev.kind)).or_insert(0i64);
        match ev.phase {
            Phase::Begin => *d += 1,
            Phase::End => {
                *d -= 1;
                assert!(*d >= 0, "unbalanced {:?} on core {}", ev.kind, ev.core);
            }
            Phase::Instant => {}
        }
    }
    for ((core, kind), d) in depth {
        assert_eq!(d, 0, "{kind:?} on core {core} ended at depth {d}");
    }
}

#[test]
fn timestamps_are_monotonic_per_core() {
    let tracer = Tracer::new(1 << 16);
    workload(tracer.clone());
    let mut last = std::collections::HashMap::new();
    for ev in tracer.events() {
        let prev = last.insert(ev.core, ev.ts);
        if let Some(prev) = prev {
            assert!(
                ev.ts >= prev,
                "time ran backwards on core {}: {} -> {}",
                ev.core,
                prev,
                ev.ts
            );
        }
    }
}

#[test]
fn kernel_events_claim_the_executing_core() {
    // The first process pins to core 0, the second to core 1. Everything
    // the second does goes through kernel paths that once hard-coded
    // `core: 0` in their trace events; none of them may claim core 0
    // while executing on another hardware thread.
    let tracer = Tracer::new(1 << 16);
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M2));
    sj.set_tracer(tracer.clone());
    let _first = sj
        .kernel_mut()
        .spawn("boot-core", Creds::new(1, 1))
        .expect("spawn");
    let pid = sj
        .kernel_mut()
        .spawn("second-core", Creds::new(1, 1))
        .expect("spawn");
    sj.kernel_mut().activate(pid).expect("activate");
    let core = sj.kernel().ctx_of(pid).expect("ctx").core as u32;
    assert_ne!(core, 0, "the second process must pin off the boot core");

    let va = VirtAddr::new(0x2000_0000_0000);
    let vid = sj.vas_create(pid, "v", Mode(0o660)).expect("vas");
    let sid = sj
        .seg_alloc(pid, "s", va, 1 << 20, Mode(0o660))
        .expect("seg");
    sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite)
        .expect("seg attach");
    let vh = sj.vas_attach(pid, vid).expect("vas attach");
    tracer.clear();
    sj.vas_switch(pid, vh).expect("switch");
    for i in 0..4u64 {
        sj.kernel_mut()
            .store_u64(pid, va.add(i * 4096), i)
            .expect("store");
    }
    sj.vas_switch_home(pid).expect("home");
    sj.vas_detach(pid, vh).expect("detach");

    let events = tracer.events();
    assert!(!events.is_empty(), "workload produced no events");
    for ev in &events {
        assert_eq!(
            ev.core, core,
            "{:?} executed on core {core} but was attributed to core {}",
            ev.kind, ev.core
        );
    }
    // Every kernel entry also names the process that made it.
    let entries = events.iter().filter(|e| e.kind == EventKind::KernelEntry);
    assert!(entries.clone().count() > 0, "the switch enters the kernel");
    for ev in entries {
        assert_eq!(ev.arg0, pid.0, "{ev:?} does not name pid {}", pid.0);
    }
}

/// Replays the lock events of `events` against per-(pid, segment) hold
/// depths: a `LockRelease` must match a prior `LockAcquire` (re-entrant
/// acquires are legal and stack), every hold must be released by the
/// end, and lock events must be monotonically ordered per core.
fn check_lock_events(events: &[Event]) -> usize {
    let mut depth = std::collections::HashMap::new();
    let mut last_ts = std::collections::HashMap::new();
    let mut lock_events = 0usize;
    for ev in events {
        let is_lock = matches!(
            ev.kind,
            EventKind::LockAcquire
                | EventKind::LockRelease
                | EventKind::LockContention
                | EventKind::LockSkip
        );
        if !is_lock {
            continue;
        }
        lock_events += 1;
        // (sid, pid) = (arg0, arg1) on every lock event kind.
        let key = (ev.arg1, ev.arg0);
        match ev.kind {
            EventKind::LockAcquire => *depth.entry(key).or_insert(0i64) += 1,
            EventKind::LockRelease => {
                let d = depth.entry(key).or_insert(0i64);
                *d -= 1;
                assert!(
                    *d >= 0,
                    "pid {} released segment {} it did not hold",
                    ev.arg1,
                    ev.arg0
                );
            }
            _ => {}
        }
        if let Some(prev) = last_ts.insert(ev.core, ev.ts) {
            assert!(
                ev.ts >= prev,
                "lock events ran backwards on core {}: {} -> {}",
                ev.core,
                prev,
                ev.ts
            );
        }
    }
    for ((pid, sid), d) in depth {
        assert_eq!(d, 0, "pid {pid} left segment {sid} held at depth {d}");
    }
    lock_events
}

#[test]
fn lock_events_pair_and_stay_ordered_per_core() {
    // Single process cycling three lockable-segment VASes: every switch
    // acquires the target's lock and releases the previous one.
    let tracer = Tracer::new(1 << 16);
    workload(tracer.clone());
    assert_eq!(tracer.dropped(), 0, "ring too small for the workload");
    let n = check_lock_events(&tracer.events());
    assert!(n > 0, "multi-VAS workload took no segment locks");

    // Multi-core: a shared-VAS GUPS run hands window locks between
    // workers pinned to different cores; the same pairing and per-core
    // ordering invariants must hold across the hand-offs.
    let tracer = Tracer::new(1 << 16);
    let cfg = GupsConfig {
        windows: 2,
        window_bytes: 1 << 20,
        updates_per_set: 4,
        epochs: 24,
        tracer: tracer.clone(),
        ..GupsConfig::default()
    };
    run_jmp_shared(&cfg, 3).expect("shared gups");
    assert_eq!(tracer.dropped(), 0, "ring too small for the workload");
    let events = tracer.events();
    let n = check_lock_events(&events);
    assert!(n > 0, "shared GUPS took no window locks");
    let cores: std::collections::HashSet<u32> = events
        .iter()
        .filter(|ev| ev.kind == EventKind::LockAcquire)
        .map(|ev| ev.core)
        .collect();
    assert!(cores.len() >= 2, "lock traffic stayed on one core");
}

#[test]
fn trace_breakdown_matches_cost_model_within_one_percent() {
    use spacejmp::mem::cost::CostModel;
    use spacejmp::mem::KernelFlavor as Flavor;

    let model = CostModel::default();
    for (flavor, tagged) in [
        (Flavor::DragonFly, false),
        (Flavor::DragonFly, true),
        (Flavor::Barrelfish, false),
        (Flavor::Barrelfish, true),
    ] {
        let tracer = Tracer::new(4096);
        let mut sj = SpaceJmp::new(Kernel::new(flavor, MachineId::M2));
        sj.set_tracer(tracer.clone());
        if tagged {
            sj.kernel_mut().set_tagging(true);
        }
        let pid = sj
            .kernel_mut()
            .spawn("t2", Creds::new(1, 1))
            .expect("spawn");
        sj.kernel_mut().activate(pid).expect("activate");
        let vid = sj.vas_create(pid, "v", Mode(0o600)).expect("vas");
        if tagged {
            sj.vas_ctl(pid, VasCtl::RequestTag, vid).expect("tag");
        }
        let vh = sj.vas_attach(pid, vid).expect("attach");
        tracer.clear();
        let t0 = sj.kernel().clock().now();
        sj.vas_switch(pid, vh).expect("switch");
        let switch_cycles = sj.kernel().clock().since(t0);

        let snap = tracer.snapshot();
        let sum = |name: &str| snap.histogram(name).map_or(0, |h| h.sum);
        let derived = sum("kernel_entry") + sum("switch_book") + sum("cr3_load");
        let err = switch_cycles.abs_diff(derived);
        assert!(
            err * 100 <= switch_cycles,
            "{flavor:?} tagged={tagged}: trace-derived {derived} vs measured \
             {switch_cycles} (> 1% apart)"
        );
        // The entry and CR3 phases individually match the Table 2 model.
        assert_eq!(sum("kernel_entry"), model.kernel_entry(flavor));
        assert_eq!(sum("cr3_load"), model.cr3_load(tagged));
        // The whole switch appears as one enclosing vas_switch span.
        assert_eq!(sum("vas_switch"), switch_cycles);
    }
}

/// Block-IO and snapshot spans obey the same pairing discipline as
/// every other span, and the stream carries the full durability story:
/// reads, writes, flushes, the `SnapshotCommit`s, and the
/// `JournalReplay` of the post-crash boot. The encoded chrome trace
/// round-trips through the parser (`sjmp_lint`'s ingestion path), so
/// offline tooling accepts the new event kinds.
#[test]
fn blk_and_snapshot_spans_pair_and_round_trip() {
    use spacejmp::trace::chrome::{chrome_trace, parse_chrome_trace};

    let tracer = Tracer::new(1 << 18);
    durable_workload(tracer.clone());
    assert_eq!(tracer.dropped(), 0, "ring too small for the workload");
    let events = tracer.events();

    let span_kinds = [
        EventKind::BlkRead,
        EventKind::BlkWrite,
        EventKind::BlkFlush,
        EventKind::SnapshotSave,
        EventKind::SnapshotLoad,
    ];
    let mut depth = std::collections::HashMap::new();
    let mut seen = std::collections::HashMap::new();
    for ev in &events {
        if !span_kinds.contains(&ev.kind) {
            continue;
        }
        *seen.entry(ev.kind).or_insert(0u64) += 1;
        let d = depth.entry((ev.core, ev.kind)).or_insert(0i64);
        match ev.phase {
            Phase::Begin => *d += 1,
            Phase::End => {
                *d -= 1;
                assert!(*d >= 0, "unbalanced {:?} on core {}", ev.kind, ev.core);
            }
            Phase::Instant => panic!("{:?} must be a span, not an instant", ev.kind),
        }
    }
    for ((core, kind), d) in depth {
        assert_eq!(d, 0, "{kind:?} on core {core} ended at depth {d}");
    }
    for kind in span_kinds {
        assert!(
            seen.get(&kind).copied().unwrap_or(0) >= 2,
            "workload emitted no {kind:?} pair"
        );
    }
    let commits = events
        .iter()
        .filter(|ev| ev.kind == EventKind::SnapshotCommit)
        .count();
    assert_eq!(commits, 2, "one SnapshotCommit instant per vas_save");
    let replay = events
        .iter()
        .find(|ev| ev.kind == EventKind::JournalReplay)
        .expect("recovery emitted no JournalReplay");
    assert_eq!(replay.phase, Phase::Instant);
    assert_eq!(replay.arg0, 1, "exactly one replay");

    // The offline path: encode → parse must keep every event.
    let doc = chrome_trace(&events, 2.5e9, tracer.dropped());
    let parsed = parse_chrome_trace(&doc).expect("lint ingestion rejected the trace");
    assert_eq!(parsed.events.len(), events.len());
}

#[test]
fn tracing_adds_zero_modeled_cycles() {
    let untraced = workload(Tracer::disabled());
    let traced = workload(Tracer::new(1 << 16));
    assert_eq!(
        untraced, traced,
        "enabling the tracer perturbed the modeled clock"
    );

    // The durability paths (block IO, journal replay, snapshot
    // save/load) charge unconditionally too: a traced save/restart/load
    // cycle ends at the same combined clock as an untraced one.
    let untraced = durable_workload(Tracer::disabled());
    let traced = durable_workload(Tracer::new(1 << 18));
    assert_eq!(
        untraced, traced,
        "tracing the durability paths perturbed the modeled clock"
    );

    // Same property across a full GUPS run: MUPS and cycle totals are
    // derived from the clock, so they must be bit-identical too.
    let cfg = GupsConfig {
        windows: 4,
        updates_per_set: 16,
        epochs: 32,
        ..GupsConfig::default()
    };
    let plain = run_jmp(&cfg).expect("untraced gups");
    let traced_cfg = GupsConfig {
        tracer: Tracer::new(1 << 18),
        ..cfg
    };
    let traced = run_jmp(&traced_cfg).expect("traced gups");
    assert_eq!(plain.cycles, traced.cycles, "GUPS cycle totals diverged");
    assert!((plain.mups - traced.mups).abs() < f64::EPSILON);
}

/// A live sharded-KV workload with request tracing: returns the final
/// kernel cycle count so traced/untraced runs can be compared.
fn kv_workload(tracer: Tracer) -> (u64, Vec<Event>) {
    use spacejmp::kv::ShardedKv;

    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M1));
    sj.set_tracer(tracer);
    let pid = sj
        .kernel_mut()
        .spawn("kvreq", Creds::new(100, 100))
        .expect("spawn");
    sj.kernel_mut().activate(pid).expect("activate");
    let mut kv = ShardedKv::join(&mut sj, pid, "reqtrace", 0, 2).expect("join");
    for i in 0..24u32 {
        let k = format!("key:{i:03}");
        kv.set(&mut sj, k.as_bytes(), b"v").expect("set");
        assert!(kv.get(&mut sj, k.as_bytes()).expect("get").is_some());
    }
    // One rejection so the stream carries a ReqShed too.
    assert!(matches!(
        kv.get_by(&mut sj, b"key:000", Some(0)),
        Err(spacejmp::kv::ShardError::Rejected(_))
    ));
    let events = sj.tracer().events();
    (sj.kernel().clocks().now(), events)
}

/// Request-lifecycle instants nest the VAS-switch spans: every served
/// request brackets at least one `VasSwitch` span between its
/// `ReqDispatch` and `ReqComplete`, and the whole stream (new `Req*`
/// kinds included) survives the Chrome export/parse round trip
/// losslessly.
#[test]
fn request_spans_nest_switches_and_round_trip() {
    use spacejmp::trace::chrome::{chrome_trace, parse_chrome_trace};
    use spacejmp::trace::{assemble_requests, ReqOutcome};

    let (_, events) = kv_workload(Tracer::new(1 << 18));

    let spans = assemble_requests(&events);
    assert_eq!(spans.len(), 49, "24 sets + 24 gets + 1 rejected get");
    let served: Vec<_> = spans
        .iter()
        .filter(|s| matches!(s.outcome, ReqOutcome::Completed(_)))
        .collect();
    assert_eq!(served.len(), 48);
    for span in served {
        let dispatch = span
            .events
            .iter()
            .find(|e| e.kind == EventKind::ReqDispatch)
            .expect("served request has a dispatch");
        let complete = span
            .events
            .iter()
            .find(|e| e.kind == EventKind::ReqComplete)
            .expect("served request has a completion");
        // At least one VAS-switch span begins inside the service window.
        let nested = events.iter().any(|e| {
            e.kind == EventKind::VasSwitch
                && e.phase == Phase::Begin
                && e.ts >= dispatch.ts
                && e.ts <= complete.ts
        });
        assert!(
            nested,
            "request {} service window [{}, {}] wraps no VasSwitch",
            span.id, dispatch.ts, complete.ts
        );
    }

    let doc = chrome_trace(&events, 2.66e9, 0);
    let parsed = parse_chrome_trace(&doc).expect("Req* kinds must round-trip");
    assert_eq!(parsed.events, events, "chrome export must be lossless");
}

/// Request tracing is pure observation on the live path too: with the
/// tracer disabled no ids are minted and no cycles move; with it
/// enabled the modeled clock is bit-identical to the untraced run.
#[test]
fn request_tracing_adds_zero_modeled_cycles_live() {
    let (untraced, ev_off) = kv_workload(Tracer::disabled());
    let (traced, ev_on) = kv_workload(Tracer::new(1 << 18));
    assert_eq!(
        untraced, traced,
        "request tracing perturbed the modeled clock"
    );
    assert!(ev_off.is_empty());
    assert!(ev_on.iter().any(|e| e.kind == EventKind::ReqArrive));
}

/// FNV-1a over every recorded event's `Debug` form, then the final
/// cycle count: a change in what is emitted, where, when or in which
/// order moves the digest.
fn event_digest(tracer: &Tracer, cycles: u64) -> u64 {
    assert_eq!(tracer.dropped(), 0, "ring too small for the workload");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for ev in tracer.events() {
        feed(format!("{ev:?}").as_bytes());
    }
    feed(&cycles.to_le_bytes());
    h
}

/// The OOM killer in a shared VAS on a 4096-frame machine: a hog holding
/// the VAS's lock fills a 64-page demand segment, is killed, and the
/// protected survivor switches in. Returns the final cycle count.
fn oom_workload(tracer: Tracer) -> u64 {
    use spacejmp::mem::cost::{CostModel, MachineProfile};
    use spacejmp::mem::PAGE_SIZE;

    let profile = MachineProfile {
        mem_bytes: 4096 * PAGE_SIZE,
        ..MachineProfile::default()
    };
    let mut sj = SpaceJmp::new(Kernel::with_profile(
        KernelFlavor::DragonFly,
        profile,
        CostModel::default(),
    ));
    sj.set_tracer(tracer);
    let mut spawn = |name: &str| {
        let pid = sj
            .kernel_mut()
            .spawn(name, Creds::new(100, 100))
            .expect("spawn");
        sj.kernel_mut().activate(pid).expect("activate");
        pid
    };
    let (hog, survivor) = (spawn("hog"), spawn("survivor"));
    let base = VirtAddr::new(0x1000_0000_0000);
    let vid = sj.vas_create(hog, "oom-v", Mode(0o666)).expect("vas");
    let sid = sj
        .seg_alloc(hog, "oom-s", base, 256 << 10, Mode(0o666))
        .expect("seg");
    sj.seg_attach(hog, vid, sid, AttachMode::ReadWrite)
        .expect("seg attach");
    let vh_hog = sj.vas_attach(hog, vid).expect("attach hog");
    let vh_srv = sj.vas_attach(survivor, vid).expect("attach survivor");
    sj.vas_switch(hog, vh_hog).expect("hog switch");
    let fat_base = 0x1800_0000_0000;
    let fat = sj
        .seg_alloc_with(
            hog,
            "oom-fat",
            VirtAddr::new(fat_base),
            64 * PAGE_SIZE,
            Mode(0o600),
            Backing::Demand,
        )
        .expect("demand seg");
    sj.seg_attach(hog, vid, fat, AttachMode::ReadWrite)
        .expect("fat attach");
    for page in 0..64 {
        sj.kernel_mut()
            .store_u64(hog, VirtAddr::new(fat_base + page * PAGE_SIZE), page)
            .expect("fill");
    }
    assert_eq!(sj.oom_kill(&[survivor]).expect("oom"), Some(hog));
    sj.vas_switch(survivor, vh_srv).expect("survivor switch");
    sj.kernel().clocks().now()
}

/// The full event stream of five traced workloads — the switch path,
/// block IO and snapshots, OOM kill and reap, eviction under a quota,
/// and crash faults with reaps — pinned as one digest each. Refactoring
/// how events are emitted must leave every digest as it is.
#[test]
fn event_stream_digests_are_pinned() {
    use spacejmp::gups::{run_jmp_constrained, run_jmp_shared_on};
    use spacejmp::os::{FaultPlan, FaultSite};

    // Each workload must reach the paths it is here for.
    let digest = |name, run: &dyn Fn(Tracer) -> u64, reaches: EventKind| {
        let tracer = Tracer::new(1 << 20);
        let cycles = run(tracer.clone());
        let events = tracer.events();
        assert!(events.iter().any(|e| e.kind == reaches), "no {reaches:?}");
        (name, event_digest(&tracer, cycles))
    };
    let constrained = |tracer: Tracer| {
        let cfg = GupsConfig {
            windows: 4,
            window_bytes: 256 << 10,
            updates_per_set: 16,
            epochs: 96,
            tracer,
            ..GupsConfig::default()
        };
        let (r, _) = run_jmp_constrained(&cfg, 304, Some(200)).expect("constrained gups");
        r.cycles
    };
    let crashing = |tracer: Tracer| {
        let cfg = GupsConfig {
            windows: 4,
            window_bytes: 128 << 10,
            updates_per_set: 8,
            epochs: 96,
            tracer,
            ..GupsConfig::default()
        };
        let mut sj = SpaceJmp::new(Kernel::new(cfg.flavor, cfg.machine));
        sj.kernel_mut().set_fault_plan(Some(
            FaultPlan::new(7).crash_with_probability(FaultSite::Switch, 0.05),
        ));
        let _ = run_jmp_shared_on(&mut sj, &cfg, 3);
        sj.kernel().clocks().now()
    };
    let digests = [
        digest("workload", &workload, EventKind::VasSwitch),
        digest("durable_workload", &durable_workload, EventKind::BlkFlush),
        digest("oom_workload", &oom_workload, EventKind::OomKill),
        digest("run_jmp_constrained", &constrained, EventKind::Evict),
        digest("run_jmp_shared_on", &crashing, EventKind::Reap),
    ];
    let hex: Vec<String> = digests.iter().map(|(_, h)| format!("{h:#x}")).collect();
    assert_eq!(digests, PINNED_DIGESTS, "new digests: {hex:?}");
}

const PINNED_DIGESTS: [(&str, u64); 5] = [
    ("workload", 0xe733_83ae_d9db_bea4),
    ("durable_workload", 0xe741_47d1_f0d1_3c00),
    ("oom_workload", 0xe399_0dcf_d761_b02a),
    ("run_jmp_constrained", 0xec0e_6535_a13b_efd1),
    ("run_jmp_shared_on", 0x2912_a93d_7874_932c),
];
