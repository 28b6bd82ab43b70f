//! Crash-point sweep (no paper counterpart — the durability layer is a
//! robustness extension): kills the machine at **every** block-write
//! boundary and at each flush barrier of a `vas_save` that supersedes an
//! existing snapshot, then reboots and verifies recovery yields exactly
//! the old or the new snapshot — never a torn hybrid. A third phase
//! injects seeded torn writes and dropped flush barriers (the device
//! acks everything; only recovery's checksums see the damage) and
//! byte-compares the recovered segment against both pre-crash images.
//!
//! Every recovery is followed by the whole-system invariant audit and
//! the `sjmp-analyze` kernel linter; the process **exits nonzero** on
//! any violation, so CI uses it as the durability smoke test
//! (`cargo run -p sjmp-bench --bin crash_sweep -- --quick`). With
//! `SJMP_TRACE=1` the block-IO, journal-replay, and snapshot spans of
//! every crash/recovery cycle land in `results/crash_sweep.trace.json`.

use sjmp_analyze::lint_kernel;
use sjmp_mem::cost::{MachineId, MachineProfile};
use sjmp_mem::{KernelFlavor, VirtAddr, PAGE_SIZE};
use sjmp_os::{Creds, FaultPlan, FaultSite, Kernel, Mode, OsError, Pid};
use sjmp_trace::Tracer;
use spacejmp_core::{AttachMode, SjError, SpaceJmp, VasId};

use sjmp_bench::{export_trace, quick_mode, trace_from_env, Report};

const SEG_BASE: u64 = 0x1000_0000_0000;

fn boot(tracer: &Tracer) -> SpaceJmp {
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M1));
    sj.set_tracer(tracer.clone());
    sj
}

fn spawn(sj: &mut SpaceJmp, name: &str) -> Pid {
    let pid = sj.kernel_mut().spawn(name, Creds::new(100, 100)).unwrap();
    sj.kernel_mut().activate(pid).unwrap();
    pid
}

/// Simulated power loss + reboot: the block device drops every unflushed
/// block, a fresh kernel runs snapshot recovery in `attach_disk`.
fn restart(mut sj: SpaceJmp, tracer: &Tracer) -> (SpaceJmp, u64) {
    let mut dev = sj.kernel_mut().take_disk();
    dev.crash();
    let mut kernel = Kernel::new(KernelFlavor::DragonFly, MachineId::M1);
    kernel.set_tracer(tracer.clone());
    let replays = kernel.attach_disk(dev);
    (SpaceJmp::new(kernel), replays)
}

/// Audit + lint after recovery; aborts (nonzero exit) on any finding.
fn assert_clean(sj: &mut SpaceJmp, what: &str) {
    let problems = sj.check_invariants();
    assert!(
        problems.is_empty(),
        "{what}: invariant audit failed:\n{}",
        problems.join("\n")
    );
    let findings = lint_kernel(sj);
    assert!(
        findings.is_empty(),
        "{what}: kernel lint failed:\n{findings:?}"
    );
}

fn va(page: u64) -> VirtAddr {
    VirtAddr::new(SEG_BASE + page * PAGE_SIZE)
}

/// A machine staged for a superseding save: VAS `name` with one segment
/// of `pages` pages, saved once (generation 1) holding `old(p)` words,
/// then rewritten in memory to `new(p)`. Returns the byte images of
/// both states for exact comparison after recovery.
fn staged_machine(
    tracer: &Tracer,
    name: &str,
    pages: u64,
    old: impl Fn(u64) -> u64,
    new: impl Fn(u64) -> u64,
) -> (SpaceJmp, Pid, VasId, Vec<u8>, Vec<u8>) {
    let mut sj = boot(tracer);
    let pid = spawn(&mut sj, "w");
    let vid = sj.vas_create(pid, name, Mode(0o660)).unwrap();
    let sid = sj
        .seg_alloc(
            pid,
            &format!("{name}-s"),
            VirtAddr::new(SEG_BASE),
            pages * PAGE_SIZE,
            Mode(0o660),
        )
        .unwrap();
    sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite).unwrap();
    let vh = sj.vas_attach(pid, vid).unwrap();
    sj.vas_switch(pid, vh).unwrap();
    for p in 0..pages {
        sj.kernel_mut().store_u64(pid, va(p), old(p)).unwrap();
    }
    sj.vas_switch_home(pid).unwrap();
    assert_eq!(sj.vas_save(pid, vid).unwrap(), 1, "staging save");
    let old_image = sj.seg_contents(pid, sid).unwrap();
    sj.vas_switch(pid, vh).unwrap();
    for p in 0..pages {
        sj.kernel_mut().store_u64(pid, va(p), new(p)).unwrap();
    }
    sj.vas_switch_home(pid).unwrap();
    let new_image = sj.seg_contents(pid, sid).unwrap();
    (sj, pid, vid, old_image, new_image)
}

/// Reboots, reloads `name`, and classifies the recovered segment by
/// exact byte comparison: `"old"`, `"new"`, or abort on a torn hybrid.
fn recover_and_classify(
    sj: SpaceJmp,
    tracer: &Tracer,
    name: &str,
    old_image: &[u8],
    new_image: &[u8],
    what: &str,
) -> (&'static str, u64) {
    let (mut sj2, replays) = restart(sj, tracer);
    let pid = spawn(&mut sj2, "r");
    sj2.vas_load(pid, name).unwrap();
    let sid = sj2.seg_find(&format!("{name}-s")).unwrap();
    let recovered = sj2.seg_contents(pid, sid).unwrap();
    assert_clean(&mut sj2, what);
    if recovered == old_image {
        ("old", replays)
    } else if recovered == new_image {
        ("new", replays)
    } else {
        panic!("{what}: recovered image matches neither snapshot (torn hybrid)");
    }
}

/// Phase 1: crash at the n-th block write, for every n the commit
/// issues. The sweep is exhaustive by construction — it stops at the
/// first n the save survives (n exceeded the commit's write count).
fn sweep_writes(report: &mut Report, tracer: &Tracer, pages: u64) -> (u32, u32, u32) {
    report.heading("Crash at every block write during a superseding vas_save");
    report.header(&["crash-at-write", "recovered", "replays"], &[14, 9, 8]);
    let old = |p: u64| 0x01D_0000 + p;
    let new = |p: u64| 0x4E4_0000 + p;
    let (mut saw_old, mut saw_new) = (0u32, 0u32);
    let mut points = 0u32;
    for n in 1..=512u64 {
        let (mut sj, pid, vid, old_image, new_image) =
            staged_machine(tracer, "cw", pages, old, new);
        sj.kernel_mut()
            .set_fault_plan(Some(FaultPlan::new(n).crash_nth(FaultSite::BlkWrite, n)));
        let result = sj.vas_save(pid, vid);
        sj.kernel_mut().set_fault_plan(None);
        let crashed = match result {
            Err(SjError::Os(OsError::Crashed)) => true,
            Ok(2) => false,
            other => panic!("write {n}: unexpected save result {other:?}"),
        };
        let what = format!("crash at write {n}");
        let (outcome, replays) =
            recover_and_classify(sj, tracer, "cw", &old_image, &new_image, &what);
        assert!(
            crashed || outcome == "new",
            "uncrashed save must be durable"
        );
        if crashed {
            if outcome == "old" {
                saw_old += 1;
            } else {
                saw_new += 1;
            }
            points += 1;
            report.row(&[n.to_string(), outcome.to_string(), replays.to_string()]);
        } else {
            // n exceeded the commit's write count: sweep is exhaustive.
            report.note(&format!(
                "\ncommit issues {} block writes; every boundary was killed once",
                n - 1
            ));
            break;
        }
    }
    assert!(saw_old > 0, "no crash point preserved the old snapshot");
    assert!(saw_new > 0, "no crash point reached the new snapshot");
    (points, saw_old, saw_new)
}

/// Phase 2: crash at each of the commit's flush barriers (payload,
/// journal, superblock). The journal-durability edge must fall between
/// barriers 2 and 3.
fn sweep_flushes(report: &mut Report, tracer: &Tracer, pages: u64) -> u32 {
    report.heading("Crash at each flush barrier");
    report.header(
        &["crash-at-flush", "barrier", "recovered", "replays"],
        &[14, 12, 9, 8],
    );
    let old = |p: u64| 0xAAA_0000 + p;
    let new = |p: u64| 0xBBB_0000 + p;
    let names = ["payload", "journal", "superblock"];
    for n in 1..=3u64 {
        let (mut sj, pid, vid, old_image, new_image) =
            staged_machine(tracer, "cf", pages, old, new);
        sj.kernel_mut()
            .set_fault_plan(Some(FaultPlan::new(n).crash_nth(FaultSite::BlkFlush, n)));
        assert_eq!(
            sj.vas_save(pid, vid),
            Err(SjError::Os(OsError::Crashed)),
            "flush {n} must crash"
        );
        sj.kernel_mut().set_fault_plan(None);
        let what = format!("crash at flush {n}");
        let (outcome, replays) =
            recover_and_classify(sj, tracer, "cf", &old_image, &new_image, &what);
        let want = if n <= 2 { "old" } else { "new" };
        assert_eq!(outcome, want, "flush {n}: journal-durability edge moved");
        assert_eq!(replays, u64::from(n == 3), "flush {n} replay count");
        report.row(&[
            n.to_string(),
            names[(n - 1) as usize].to_string(),
            outcome.to_string(),
            replays.to_string(),
        ]);
    }
    3
}

/// Phase 3: seeded torn writes and dropped flush barriers. The save
/// appears to succeed; recovery must still land byte-exactly on one of
/// the two images.
fn sweep_seeded(report: &mut Report, tracer: &Tracer, pages: u64, seeds: u64) -> u32 {
    report.heading("Seeded torn writes (p=0.25) + dropped flush barriers (p=0.5)");
    report.header(
        &["seed", "recovered", "torn", "dropped", "replays"],
        &[6, 9, 6, 9, 8],
    );
    let old = |p: u64| 0x50_0000 + p;
    let new = |p: u64| 0x51_0000 + p;
    let mut saw_new = 0u32;
    for seed in 0..seeds {
        let (mut sj, pid, vid, old_image, new_image) =
            staged_machine(tracer, "tz", pages, old, new);
        sj.kernel_mut().set_fault_plan(Some(
            FaultPlan::new(seed)
                .fail_with_probability(FaultSite::BlkWrite, 0.25)
                .fail_with_probability(FaultSite::BlkFlush, 0.5),
        ));
        sj.vas_save(pid, vid)
            .expect("torn writes and dropped flushes are silent");
        sj.kernel_mut().set_fault_plan(None);
        let blk = sj.kernel_mut().sys_stats().blk;
        let (torn, dropped) = (blk.torn_writes, blk.dropped_flushes);
        let what = format!("seed {seed}");
        let (outcome, replays) =
            recover_and_classify(sj, tracer, "tz", &old_image, &new_image, &what);
        if outcome == "new" {
            saw_new += 1;
        }
        report.row(&[
            seed.to_string(),
            outcome.to_string(),
            torn.to_string(),
            dropped.to_string(),
            replays.to_string(),
        ]);
    }
    assert!(saw_new > 0, "some fault-free-enough run must commit");
    seeds as u32
}

fn main() {
    let quick = quick_mode();
    let tracer = trace_from_env();
    let mut report = Report::new("crash_sweep");
    let pages: u64 = if quick { 4 } else { 8 };
    let seeds: u64 = if quick { 8 } else { 24 };

    let (write_points, saw_old, saw_new) = sweep_writes(&mut report, &tracer, pages);
    let flush_points = sweep_flushes(&mut report, &tracer, pages);
    let seeded_runs = sweep_seeded(&mut report, &tracer, pages, seeds);

    report.note(&format!(
        "\nsweep exhaustive: {write_points} write boundaries ({saw_old} recovered old, \
         {saw_new} new) + {flush_points} flush barriers + {seeded_runs} seeded fault runs"
    ));
    report.note("violations: 0 (no torn hybrid, audits and lints clean)");
    report.finish();
    export_trace(
        "crash_sweep",
        &tracer,
        MachineProfile::of(MachineId::M1).freq_hz,
    );
}
