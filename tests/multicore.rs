//! Multi-core behavior of the unified simulation machine: one MMU per
//! hardware thread, per-core cycle clocks, and bit-level determinism.
//!
//! The machine model (see `DESIGN.md`, "Multi-core machine model") pins
//! process `pid` to core `(pid - 1) % total_cores`; every syscall charges
//! the executing core's clock, and wall-clock time under concurrency is
//! the per-core maximum while the consolidated `KernelSnapshot` reports
//! the per-core sum.

use spacejmp::gups::{self, GupsConfig};
use spacejmp::kv::{run_classic, run_jmp as kv_run_jmp, KvBenchConfig};
use spacejmp::os::{KernelSnapshot, OsError};
use spacejmp::prelude::*;
use spacejmp::trace::{Event, Tracer};

/// Spawns a process, gives it a one-segment VAS at `va`, and switches it
/// in. With two spawns this exercises two distinct cores.
fn switched_in_worker(sj: &mut SpaceJmp, name: &str, va: VirtAddr) -> (Pid, VasHandle) {
    let pid = sj
        .kernel_mut()
        .spawn(name, Creds::new(1, 1))
        .expect("spawn");
    sj.kernel_mut().activate(pid).expect("activate");
    let vid = sj
        .vas_create(pid, &format!("{name}-v"), Mode(0o660))
        .expect("vas");
    let sid = sj
        .seg_alloc(pid, &format!("{name}-s"), va, 1 << 20, Mode(0o660))
        .expect("seg");
    sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite)
        .expect("seg attach");
    let vh = sj.vas_attach(pid, vid).expect("vas attach");
    sj.vas_switch(pid, vh).expect("switch");
    sj.kernel_mut().store_u64(pid, va, 1).expect("warm");
    (pid, vh)
}

#[test]
fn tags_off_switch_flushes_only_the_switching_core() {
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M2));
    let va = VirtAddr::new(0x1000_0000_0000);
    let (p0, _) = switched_in_worker(&mut sj, "w0", va);
    let (p1, _) = switched_in_worker(&mut sj, "w1", va);
    let c0 = sj.kernel().ctx_of(p0).expect("ctx").core;
    let c1 = sj.kernel().ctx_of(p1).expect("ctx").core;
    assert_ne!(c0, c1, "the two workers must pin to different cores");

    let before0 = sj.kernel_mut().core_mem(c0).0.tlb_stats();
    let before1 = sj.kernel_mut().core_mem(c1).0.tlb_stats();
    // Untagged CR3 load on worker 1's core: a full flush — but only there.
    sj.vas_switch_home(p1).expect("home");
    let after0 = sj.kernel_mut().core_mem(c0).0.tlb_stats();
    let after1 = sj.kernel_mut().core_mem(c1).0.tlb_stats();
    assert!(
        after1.flushes > before1.flushes,
        "tags-off switch must flush the switching core's TLB"
    );
    assert_eq!(
        after0.flushes, before0.flushes,
        "a switch on core {c1} must not flush core {c0}'s TLB"
    );
    // Worker 0's TLB stayed warm: its next access hits without a miss.
    let (hits0, misses0) = (after0.hits, after0.misses);
    sj.kernel_mut().load_u64(p0, va).expect("load");
    let warm = sj.kernel_mut().core_mem(c0).0.tlb_stats();
    assert!(warm.hits > hits0, "worker 0's translation should still hit");
    assert_eq!(warm.misses, misses0);
}

#[test]
fn per_core_clock_deltas_sum_to_snapshot_cycles() {
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M2));
    let va = VirtAddr::new(0x1000_0000_0000);
    let mut workers = Vec::new();
    for i in 0..3 {
        workers.push(switched_in_worker(&mut sj, &format!("w{i}"), va));
    }
    let cores_before = sj.kernel().clocks().snapshot();
    let snap_before = sj.kernel().stats_snapshot();
    for round in 0..8u64 {
        for &(pid, vh) in &workers {
            sj.vas_switch(pid, vh).expect("switch");
            sj.kernel_mut()
                .store_u64(pid, va.add(round * 4096), round)
                .expect("store");
            sj.vas_switch_home(pid).expect("home");
        }
    }
    let cores_after = sj.kernel().clocks().snapshot();
    let snap_after = sj.kernel().stats_snapshot();

    let deltas: Vec<u64> = cores_after
        .iter()
        .zip(&cores_before)
        .map(|(a, b)| a - b)
        .collect();
    assert!(
        deltas.iter().filter(|&&d| d > 0).count() >= 3,
        "the workload should advance three distinct cores: {deltas:?}"
    );
    assert_eq!(
        snap_after.delta_since(&snap_before).cycles,
        deltas.iter().sum::<u64>(),
        "consolidated snapshot cycles must equal the per-core clock deltas"
    );
    assert_eq!(sj.kernel().total_cycles(), cores_after.iter().sum::<u64>());
}

#[test]
fn identical_multicore_runs_are_bit_identical() {
    let cfg = GupsConfig {
        windows: 4,
        window_bytes: 1 << 20,
        updates_per_set: 8,
        epochs: 48,
        ..GupsConfig::default()
    };
    let gups_eq = |a: &gups::GupsResult, b: &gups::GupsResult| {
        assert_eq!(a.updates, b.updates);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.transitions, b.transitions);
        assert_eq!(a.tlb_misses, b.tlb_misses);
        assert_eq!(a.mups.to_bits(), b.mups.to_bits());
        assert_eq!(a.switch_rate.to_bits(), b.switch_rate.to_bits());
        assert_eq!(a.tlb_miss_rate.to_bits(), b.tlb_miss_rate.to_bits());
    };
    // Shared-VAS GUPS over a worker pool spanning three cores.
    let shared = || {
        let mut sj = SpaceJmp::new(Kernel::new(cfg.flavor, cfg.machine));
        gups::run_jmp_shared(&mut sj, &cfg, 3, false)
    };
    let a = shared().expect("shared run");
    let b = shared().expect("shared rerun");
    gups_eq(&a, &b);
    // Master/slave message passing over five cores.
    let a = gups::run_mp(&cfg).expect("mp run");
    let b = gups::run_mp(&cfg).expect("mp rerun");
    gups_eq(&a, &b);
    // The closed-loop Redis model on the shared event engine.
    let kcfg = KvBenchConfig {
        clients: 8,
        requests_per_client: 40,
        set_pct: 30,
        ..KvBenchConfig::default()
    };
    for (x, y) in [
        (
            run_classic(&kcfg, 2).expect("classic"),
            run_classic(&kcfg, 2).expect("classic rerun"),
        ),
        (
            kv_run_jmp(&kcfg).expect("jmp"),
            kv_run_jmp(&kcfg).expect("jmp rerun"),
        ),
    ] {
        assert_eq!(x.requests, y.requests);
        assert_eq!(x.secs.to_bits(), y.secs.to_bits());
        assert_eq!(x.rps.to_bits(), y.rps.to_bits());
    }
}

/// One traced batch of word and byte accesses by a worker pinned to a
/// core other than 0, in its switched-in segment, either through one
/// `Kernel::proc_mem` view or through per-call `Kernel` methods. Returns
/// the values read, the per-core clocks, every core's MMU and TLB
/// counters, the consolidated snapshot and the trace.
fn traced_batch(one_view: bool) -> (Vec<u64>, Vec<u64>, String, KernelSnapshot, Vec<Event>) {
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M2));
    let tracer = Tracer::new(1 << 14);
    sj.set_tracer(tracer.clone());
    let va = VirtAddr::new(0x1000_0000_0000);
    let page = 4096;
    let _ = switched_in_worker(&mut sj, "w0", va);
    // Worker 1 runs on core 1 in a demand-paged segment: pages 0-1 are
    // touched and then swapped out, the rest are never touched, so the
    // batch below takes both major and first-touch faults.
    let pid = sj
        .kernel_mut()
        .spawn("w1", Creds::new(1, 1))
        .expect("spawn");
    sj.kernel_mut().activate(pid).expect("activate");
    let vid = sj.vas_create(pid, "w1-v", Mode(0o660)).expect("vas");
    let sid = sj
        .seg_alloc_with(pid, "w1-s", va, 16 * page, Mode(0o660), Backing::Demand)
        .expect("seg");
    sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite)
        .expect("seg attach");
    let vh = sj.vas_attach(pid, vid).expect("vas attach");
    sj.vas_switch(pid, vh).expect("switch");
    assert_eq!(sj.kernel().ctx_of(pid).expect("ctx").core, 1);
    sj.kernel_mut().store_u64(pid, va, 1).expect("warm");
    sj.kernel_mut()
        .store_u64(pid, va.add(page), 2)
        .expect("warm");
    sj.kernel_mut().sys_reclaim(64);
    let before = sj.kernel().stats();
    let blob: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
    let mut back = vec![0u8; blob.len()];
    let mut words = Vec::new();
    let k = sj.kernel_mut();
    if one_view {
        let mut m = k.proc_mem(pid).expect("view");
        m.store_u64(va.add(8), 7).expect("store");
        m.store_u64(va.add(3 * page), 9).expect("first touch");
        m.store_bytes(va.add(5 * page - 64), &blob).expect("bytes");
        for i in 0..8 {
            words.push(m.load_u64(va.add(i * page)).expect("load"));
        }
        m.load_bytes(va.add(5 * page - 64), &mut back)
            .expect("bytes");
    } else {
        k.store_u64(pid, va.add(8), 7).expect("store");
        k.store_u64(pid, va.add(3 * page), 9).expect("first touch");
        k.store_bytes(pid, va.add(5 * page - 64), &blob)
            .expect("bytes");
        for i in 0..8 {
            words.push(k.load_u64(pid, va.add(i * page)).expect("load"));
        }
        k.load_bytes(pid, va.add(5 * page - 64), &mut back)
            .expect("bytes");
    }
    assert_eq!(back, blob);
    let after = k.stats();
    assert!(
        after.faults_handled >= before.faults_handled + 6,
        "first touches fault in the middle of the batch"
    );
    assert_eq!(after.major_faults, before.major_faults + 2, "swap-ins");
    let per_core: Vec<String> = k
        .machine()
        .mmus()
        .iter()
        .map(|m| format!("{:?} {:?}", m.stats(), m.tlb_stats()))
        .collect();
    (
        words,
        k.clocks().snapshot(),
        per_core.join("\n"),
        k.stats_snapshot(),
        tracer.events(),
    )
}

#[test]
fn one_proc_mem_view_matches_per_call_accesses() {
    let (words, ..) = traced_batch(true);
    assert_eq!(&words[..4], &[1, 2, 0, 9], "swapped-in, untouched, stored");
    assert_eq!(traced_batch(true), traced_batch(false));
}

#[test]
fn proc_mem_of_an_unknown_pid_is_a_typed_error() {
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M2));
    assert!(matches!(
        sj.kernel_mut().proc_mem(Pid(7)),
        Err(OsError::NoSuchProcess)
    ));
}
