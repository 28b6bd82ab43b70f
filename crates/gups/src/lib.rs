//! # sjmp-gups — the GUPS (HPCC RandomAccess) experiment, Section 5.2
//!
//! GUPS "measures the ability of a system to scale when applying random
//! updates to a large in-memory array. This array is one large logical
//! table of integers, partitioned into some number of windows." The inner
//! loop picks a random window, applies a set of random read-modify-write
//! updates inside it, then moves to another window.
//!
//! The experiment compares three ways a process can address more memory
//! than its virtual address space exposes at once:
//!
//! * **MAP** — one process remaps the current window with
//!   `munmap`/`mmap` on every window change (page-table construction on
//!   the critical path);
//! * **MP** — one master process plus one slave per window; the master
//!   ships each update batch to the owning slave over message passing and
//!   blocks for the acknowledgment (OpenMPI in the paper);
//! * **JMP** — SpaceJMP: one VAS per window, all windows at the *same*
//!   virtual address, and the process simply switches VASes.
//!
//! Sizes are scaled down from the paper's 1 GiB windows (the default is
//! 64 MiB). The scale is chosen so a window still dwarfs the TLB reach
//! (4 MiB on M3), preserving the regime the paper operates in; the
//! effects under study are ratios between switch, remap, message, and
//! TLB costs, which this scaling preserves. Figures 8 and 9 are
//! regenerated by the `fig8_gups` / `fig9_gups_rates` bench binaries.

use sjmp_mem::cost::{CostModel, KernelFlavor, MachineId, MachineProfile};
use sjmp_mem::{Backend, PageSize, PteFlags, TranslationKind, VirtAddr, PAGE_SIZE};
use sjmp_os::kernel::GLOBAL_LO;
use sjmp_os::OsError;
use sjmp_os::{Backing, Creds, Kernel, MmapSource, Pid};
use sjmp_rpc::MpCluster;
use sjmp_sim::SimRng;
use sjmp_trace::Tracer;
use spacejmp_core::{AttachMode, RetryPolicy, SjError, SjResult, SpaceJmp, VasCtl, VasHandle};

/// Which design runs the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    /// Remap the window on change (`mmap`/`munmap`).
    Map,
    /// Multi-process message passing.
    Mp,
    /// SpaceJMP VAS switching.
    Jmp,
}

impl Design {
    /// Name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Design::Map => "MAP",
            Design::Mp => "MP",
            Design::Jmp => "SpaceJMP",
        }
    }
}

/// Workload parameters.
#[derive(Debug, Clone)]
pub struct GupsConfig {
    /// Number of windows (= address spaces / slaves).
    pub windows: usize,
    /// Window size in bytes (power of two, paper: 1 GiB; scaled default
    /// 64 MiB — still far beyond TLB reach, like the paper's windows).
    pub window_bytes: u64,
    /// Updates applied per window visit (paper: 16 and 64).
    pub updates_per_set: usize,
    /// Number of window visits.
    pub epochs: usize,
    /// RNG seed.
    pub seed: u64,
    /// Machine profile (paper: M3).
    pub machine: MachineId,
    /// Kernel flavor.
    pub flavor: KernelFlavor,
    /// Enable TLB tagging and tag every window VAS.
    pub tagging: bool,
    /// Translation backend for the JMP design ([`run_jmp`]): the default
    /// four-level walker, the same walker with the host-side walk cache
    /// disabled (for parity checks), or the no-VM base+bound baseline.
    pub backend: TranslationKind,
    /// Event tracer installed on the run's kernel (and, for MP, its
    /// message-passing cluster). Disabled by default; the warm-up phase
    /// clears it along with the clock so the trace covers only the
    /// measured epochs.
    pub tracer: Tracer,
}

impl Default for GupsConfig {
    fn default() -> Self {
        GupsConfig {
            windows: 4,
            window_bytes: 64 << 20,
            updates_per_set: 64,
            epochs: 256,
            seed: 0x5eed,
            machine: MachineId::M3,
            flavor: KernelFlavor::DragonFly,
            tagging: false,
            backend: TranslationKind::FourLevel,
            tracer: Tracer::disabled(),
        }
    }
}

/// Measured outcome of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GupsResult {
    /// Total updates applied.
    pub updates: u64,
    /// Simulated cycles consumed.
    pub cycles: u64,
    /// Million updates per second (the paper's Figure 8 metric).
    pub mups: f64,
    /// VAS switches (JMP) / remaps (MAP) / exchanges (MP).
    pub transitions: u64,
    /// TLB misses observed on the driving core.
    pub tlb_misses: u64,
    /// VAS switches per second (Figure 9).
    pub switch_rate: f64,
    /// TLB misses per second (Figure 9).
    pub tlb_miss_rate: f64,
    /// Workers that crashed mid-run and were reaped (shared-VAS mode
    /// under fault injection; zero elsewhere).
    pub crashes: u64,
    /// Window visits abandoned to an injected fault or a held lock.
    pub skipped_turns: u64,
}

fn finish(
    profile: &MachineProfile,
    updates: u64,
    cycles: u64,
    transitions: u64,
    tlb_misses: u64,
) -> GupsResult {
    let secs = profile.cycles_to_secs(cycles.max(1));
    GupsResult {
        updates,
        cycles,
        mups: updates as f64 / secs / 1e6,
        transitions,
        tlb_misses,
        switch_rate: transitions as f64 / secs,
        tlb_miss_rate: tlb_misses as f64 / secs,
        crashes: 0,
        skipped_turns: 0,
    }
}

/// Memory-pressure counters from a constrained-memory run, reported
/// alongside the cycle model ([`run_jmp_constrained`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PressureReport {
    /// Pages evicted to the swap device.
    pub evictions: u64,
    /// Faults served by swapping a page back in.
    pub major_faults: u64,
    /// Clock-reclaim passes run.
    pub reclaim_passes: u64,
    /// Allocations denied over quota (after self-reclaim failed).
    pub quota_denials: u64,
    /// Updates retried after a typed [`OsError::QuotaExceeded`].
    pub quota_retries: u64,
    /// Swap slots occupied at the end of the run.
    pub swap_slots_used: u64,
    /// Processes sacrificed by the OOM killer.
    pub oom_kills: u64,
}

/// Runs the chosen design.
///
/// # Errors
///
/// Propagates kernel/SpaceJMP failures (they indicate configuration
/// errors, e.g. running out of simulated physical memory).
pub fn run(design: Design, cfg: &GupsConfig) -> SjResult<GupsResult> {
    match design {
        Design::Jmp => run_jmp(cfg),
        Design::Map => run_map(cfg),
        Design::Mp => run_mp(cfg),
    }
}

/// One word access of a GUPS update.
#[derive(Debug, Clone, Copy)]
enum Access {
    Load(VirtAddr),
    Store(VirtAddr, u64),
}

impl Access {
    /// Performs the access as `pid`; a store returns 0.
    fn on(self, kernel: &mut Kernel, pid: Pid) -> Result<u64, OsError> {
        match self {
            Access::Load(va) => kernel.load_u64(pid, va),
            Access::Store(va, v) => kernel.store_u64(pid, va, v).map(|()| 0),
        }
    }
}

/// Applies one update set to the window at `base`: `cfg.updates_per_set`
/// read-modify-writes of random words, each XORing the word with its
/// index, every access made through `access`. `updates` counts each
/// update as it completes, so a set cut short by an error still counts
/// the updates before it.
fn update_set<E>(
    cfg: &GupsConfig,
    rng: &mut SimRng,
    base: VirtAddr,
    updates: &mut u64,
    mut access: impl FnMut(Access) -> Result<u64, E>,
) -> Result<(), E> {
    let slots = cfg.window_bytes / 8;
    for _ in 0..cfg.updates_per_set {
        let idx = rng.gen_range(0..slots);
        let va = base.add(idx * 8);
        let v = access(Access::Load(va))?;
        access(Access::Store(va, v ^ idx))?;
        *updates += 1;
    }
    Ok(())
}

/// The SpaceJMP design: one VAS per window, switch to change windows.
///
/// # Errors
///
/// See [`run`].
pub fn run_jmp(cfg: &GupsConfig) -> SjResult<GupsResult> {
    run_jmp_body(cfg, None).map(|(r, _)| r)
}

/// The JMP design under *memory pressure*: the machine boots with only
/// `mem_frames` physical frames — chosen so the windows oversubscribe
/// DRAM — and every window segment is allocated swappable
/// ([`SpaceJmp::seg_alloc_with`] on [`Backing::Demand`]) instead of
/// pinned. The kernel's
/// low-watermark reclaimer and swap device keep the run alive: pages of
/// cold windows are evicted and faulted back on the next visit, charged
/// at swap cycle costs, where the pinned-segment design would abort
/// with out-of-frames.
///
/// `quota_frames`, if set, caps the process's resident set: an update
/// that trips the quota receives the typed
/// [`OsError::QuotaExceeded`] error, reclaims, and retries — the
/// workload-cooperation loop of the memory-pressure model. A genuine
/// [`OsError::OutOfMemory`] invokes the OOM killer; with a single
/// process there is nothing eligible to kill, so it propagates (the
/// machine is simply too small).
///
/// # Errors
///
/// See [`run`]; additionally [`OsError::OutOfMemory`] as above.
pub fn run_jmp_constrained(
    cfg: &GupsConfig,
    mem_frames: u64,
    quota_frames: Option<u64>,
) -> SjResult<(GupsResult, PressureReport)> {
    run_jmp_body(cfg, Some((mem_frames, quota_frames)))
}

/// The one JMP driver behind [`run_jmp`] and [`run_jmp_constrained`].
/// `limits` is `Some((mem_frames, quota_frames))` for a constrained run:
/// only then is physical memory cut, the watermark and quota set and the
/// windows demand-paged, and only then is the report filled in.
fn run_jmp_body(
    cfg: &GupsConfig,
    limits: Option<(u64, Option<u64>)>,
) -> SjResult<(GupsResult, PressureReport)> {
    let mut profile = MachineProfile::of(cfg.machine);
    if let Some((mem_frames, _)) = limits {
        profile.mem_bytes = mem_frames * PAGE_SIZE;
    }
    let mut kernel = Kernel::with_profile(cfg.flavor, profile, CostModel::default());
    match cfg.backend {
        TranslationKind::FourLevel => {}
        TranslationKind::FourLevelUncached => kernel.set_host_walk_cache(false),
        TranslationKind::NoVm => kernel.set_backend(Backend::seg_map()),
    }
    let mut sj = SpaceJmp::new(kernel);
    sj.set_tracer(cfg.tracer.clone());
    if cfg.tagging {
        sj.kernel_mut().set_tagging(true);
    }
    let pid = sj.kernel_mut().spawn("gups", Creds::new(1, 1))?;
    sj.kernel_mut().activate(pid)?;
    let mut backing = Backing::Dram;
    if let Some((_, quota_frames)) = limits {
        // Keep a cushion of free frames so page-table allocation on the
        // fault path never runs completely dry.
        sj.kernel_mut().set_low_watermark(Some(8));
        sj.kernel_mut().set_quota(pid, quota_frames);
        backing = Backing::Demand;
    }
    let window_va = VirtAddr::new(GLOBAL_LO.raw());

    let mut handles: Vec<VasHandle> = Vec::with_capacity(cfg.windows);
    for w in 0..cfg.windows {
        let vid = sj.vas_create(pid, &format!("gups-w{w}"), sjmp_os::Mode(0o600))?;
        let sid = sj.seg_alloc_with(
            pid,
            &format!("gups-s{w}"),
            window_va,
            cfg.window_bytes,
            sjmp_os::Mode(0o600),
            backing,
        )?;
        sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite)?;
        if cfg.tagging {
            sj.vas_ctl(pid, VasCtl::RequestTag, vid)?;
        }
        handles.push(sj.vas_attach(pid, vid)?);
    }

    let mut rng = SimRng::seed_from_u64(cfg.seed);
    let core = sj.kernel().process(pid)?.core();
    let mut report = PressureReport::default();

    // Warm: enter the first window, then reset all counters/clock.
    sj.vas_switch(pid, handles[0])?;
    sj.kernel_mut().core_mem(core).0.reset_stats();
    sj.kernel().clock().reset();
    cfg.tracer.clear();
    sj.trace_topology();

    let mut updates = 0u64;
    let mut switches = 0u64;
    let mut current = 0usize;
    for _ in 0..cfg.epochs {
        let w = rng.index(cfg.windows);
        if w != current {
            sj.vas_switch(pid, handles[w])?;
            current = w;
            switches += 1;
        }
        update_set(cfg, &mut rng, window_va, &mut updates, |a| {
            pressured(&mut sj, &mut report, pid, |sj| a.on(sj.kernel_mut(), pid))
        })?;
    }
    let cycles = sj.kernel().clock().now();
    let tlb = sj.kernel_mut().core_mem(core).0.tlb_stats();
    if limits.is_some() {
        let stats = sj.kernel_mut().sys_stats();
        report.evictions = stats.kernel.evictions;
        report.major_faults = stats.kernel.major_faults;
        report.reclaim_passes = stats.kernel.reclaim_passes;
        report.quota_denials = stats.kernel.quota_denials;
        report.swap_slots_used = stats.phys.swap_slots_used;
        report.oom_kills = sj.stats().oom_kills;
    }
    Ok((
        finish(sj.kernel().profile(), updates, cycles, switches, tlb.misses),
        report,
    ))
}

/// Runs one memory access under the pressure protocol: quota breaches
/// reclaim and retry, out-of-memory calls the OOM killer and retries if
/// it found a victim.
fn pressured<T>(
    sj: &mut SpaceJmp,
    report: &mut PressureReport,
    pid: Pid,
    mut op: impl FnMut(&mut SpaceJmp) -> Result<T, OsError>,
) -> SjResult<T> {
    const MAX_RETRIES: usize = 4;
    let mut last = None;
    for _ in 0..=MAX_RETRIES {
        match op(sj) {
            Ok(v) => return Ok(v),
            Err(e @ OsError::QuotaExceeded { .. }) => {
                report.quota_retries += 1;
                sj.kernel_mut().sys_reclaim(32);
                last = Some(e);
            }
            Err(e @ OsError::OutOfMemory { .. }) => {
                if sj.oom_kill(&[pid])?.is_none() {
                    return Err(SjError::Os(e));
                }
                last = Some(e);
            }
            Err(e) => return Err(SjError::Os(e)),
        }
    }
    Err(SjError::Os(last.expect("loop retried at least once")))
}

/// The shared-VAS multi-process JMP design, run on `sj`: `workers`
/// processes share the same window VASes and take turns applying update
/// sets, switching with [`SpaceJmp::vas_switch_retry`]. Windows are
/// mapped read-write, so a worker switched into one holds its segment
/// lock exclusively; the backoff policy serializes contending workers.
/// The caller builds `sj`, so a harness can install a fault plan first
/// and audit invariants after.
///
/// The mode is crash-tolerant: a worker that dies inside the kernel
/// (injected via [`sjmp_os::FaultPlan`] on the wrapped kernel) is reaped
/// with [`SpaceJmp::reap_process`] — which force-releases its window lock
/// — and replaced by a freshly spawned worker. Injected transient faults
/// and lock timeouts skip the turn. The run therefore completes, with the
/// damage visible in [`GupsResult::crashes`] and
/// [`GupsResult::skipped_turns`].
///
/// With `hot_word` the access pattern is deliberately racy: every worker
/// also read-modify-writes **word 0** of its window each turn, so any two
/// turns in the same window touch at least one common word. On a healthy
/// kernel the window lock still orders those accesses and the run is
/// race-free; the point is to pair it with
/// `FaultPlan::fail_nth(FaultSite::SegLock, n)` on the wrapped kernel,
/// which elides the `n`-th segment-lock acquisition — that worker's turn
/// then runs unguarded and a trace-replay race detector must find the
/// resulting data race (and attribute it to the right segment, pids,
/// and cores).
///
/// # Errors
///
/// Non-injected failures (configuration errors) propagate; see [`run`].
pub fn run_jmp_shared(
    sj: &mut SpaceJmp,
    cfg: &GupsConfig,
    workers: usize,
    hot_word: bool,
) -> SjResult<GupsResult> {
    assert!(workers >= 1, "need at least one worker");
    sj.set_tracer(cfg.tracer.clone());
    if cfg.tagging {
        sj.kernel_mut().set_tagging(true);
    }
    let window_va = VirtAddr::new(GLOBAL_LO.raw());
    let retry = RetryPolicy::default();

    // Spawn the worker pool; the first worker creates the shared VASes.
    let creator = sj.kernel_mut().spawn("gups-sh-0", Creds::new(1, 1))?;
    let mut vids = Vec::with_capacity(cfg.windows);
    for w in 0..cfg.windows {
        let vid = sj.vas_create(creator, &format!("gups-sh-w{w}"), sjmp_os::Mode(0o600))?;
        let sid = sj.seg_alloc(
            creator,
            &format!("gups-sh-s{w}"),
            window_va,
            cfg.window_bytes,
            sjmp_os::Mode(0o600),
        )?;
        sj.seg_attach(creator, vid, sid, AttachMode::ReadWrite)?;
        if cfg.tagging {
            sj.vas_ctl(creator, VasCtl::RequestTag, vid)?;
        }
        vids.push(vid);
    }
    // Each pool entry is a live worker with one handle per window.
    let mut pool: Vec<(Pid, Vec<VasHandle>)> = Vec::with_capacity(workers);
    let attach_all =
        |sj: &mut SpaceJmp, pid: Pid, vids: &[spacejmp_core::VasId]| -> SjResult<Vec<VasHandle>> {
            vids.iter().map(|&vid| sj.vas_attach(pid, vid)).collect()
        };
    pool.push((creator, attach_all(sj, creator, &vids)?));
    for i in 1..workers {
        let pid = sj
            .kernel_mut()
            .spawn(&format!("gups-sh-{i}"), Creds::new(1, 1))?;
        pool.push((pid, attach_all(sj, pid, &vids)?));
    }

    let mut rng = SimRng::seed_from_u64(cfg.seed);
    sj.kernel().reset_clocks();
    cfg.tracer.clear();
    sj.trace_topology();

    let mut updates = 0u64;
    let mut switches = 0u64;
    let mut crashes = 0u64;
    let mut skipped = 0u64;
    let mut next_respawn = 0usize;
    for epoch in 0..cfg.epochs {
        // Replace workers lost to crashes (best effort: an injected
        // fault during respawn just delays it to the next epoch).
        while pool.len() < workers {
            let name = format!("gups-sh-r{next_respawn}");
            let respawn = (|| -> SjResult<(Pid, Vec<VasHandle>)> {
                let pid = sj.kernel_mut().spawn(&name, Creds::new(1, 1))?;
                let handles = attach_all(sj, pid, &vids)?;
                Ok((pid, handles))
            })();
            match respawn {
                Ok(worker) => {
                    next_respawn += 1;
                    pool.push(worker);
                }
                Err(_) => break,
            }
        }
        if pool.is_empty() {
            skipped += 1;
            continue;
        }
        let (pid, vh) = {
            let (pid, handles) = &pool[epoch % pool.len()];
            (*pid, handles[rng.index(cfg.windows)])
        };
        // Turn hand-off: the worker's core cannot take the window lock
        // before the previous holder — on another core — released it, so
        // it first spins forward to global time.
        if let Ok(ctx) = sj.kernel().ctx_of(pid) {
            let now = sj.kernel().now();
            sj.kernel().clocks().catch_up(ctx.core, now);
        }
        let turn = (|| -> SjResult<()> {
            sj.kernel_mut().activate(pid)?;
            sj.vas_switch_retry(pid, vh, &retry)?;
            switches += 1;
            if hot_word {
                // Guaranteed collision point: every turn in this window
                // bumps the same word, so an unguarded turn conflicts
                // with whichever guarded turn precedes or follows it.
                let v = sj.kernel_mut().load_u64(pid, window_va)?;
                sj.kernel_mut().store_u64(pid, window_va, v + 1)?;
                updates += 1;
            }
            update_set(cfg, &mut rng, window_va, &mut updates, |a| {
                a.on(sj.kernel_mut(), pid)
            })?;
            sj.vas_switch_home(pid)?;
            Ok(())
        })();
        match turn {
            Ok(()) => {}
            Err(SjError::Os(OsError::Crashed)) => {
                // The worker died inside the kernel, possibly switched
                // into a window and holding its lock. Reap it so the
                // survivors can take the window over.
                sj.reap_process(pid)?;
                pool.retain(|(p, _)| *p != pid);
                crashes += 1;
            }
            Err(SjError::WouldBlock | SjError::Deadlock | SjError::Os(_)) => skipped += 1,
            Err(e) => return Err(e),
        }
    }
    let cycles = sj.kernel().now();
    Ok(GupsResult {
        crashes,
        skipped_turns: skipped,
        ..finish(sj.kernel().profile(), updates, cycles, switches, 0)
    })
}

/// The MAP design: one big physical table; remap the active window into
/// the private address space on every change.
///
/// # Errors
///
/// See [`run`].
pub fn run_map(cfg: &GupsConfig) -> SjResult<GupsResult> {
    let mut kernel = Kernel::new(cfg.flavor, cfg.machine);
    kernel.set_tracer(cfg.tracer.clone());
    let pid = kernel.spawn("gups-map", Creds::new(1, 1))?;
    kernel.activate(pid)?;
    // The whole logical table, living in the kernel's page cache.
    let table = kernel.alloc_object(None, cfg.window_bytes * cfg.windows as u64, Backing::Dram)?;
    let flags = PteFlags::USER | PteFlags::WRITABLE;

    let mut rng = SimRng::seed_from_u64(cfg.seed);
    let core = kernel.process(pid)?.core();

    let window = |w: usize| MmapSource::Object {
        obj: table,
        offset: w as u64 * cfg.window_bytes,
    };
    let mut va = kernel.sys_mmap(pid, window(0), cfg.window_bytes, flags, true)?;
    kernel.core_mem(core).0.reset_stats();
    kernel.clock().reset();
    cfg.tracer.clear();

    let mut updates = 0u64;
    let mut remaps = 0u64;
    let mut current = 0usize;
    for _ in 0..cfg.epochs {
        let w = rng.index(cfg.windows);
        if w != current {
            // Remap on the critical path: munmap + mmap (cached pages).
            kernel.sys_munmap(pid, va, true)?;
            va = kernel.sys_mmap(pid, window(w), cfg.window_bytes, flags, true)?;
            current = w;
            remaps += 1;
        }
        update_set(cfg, &mut rng, va, &mut updates, |a| a.on(&mut kernel, pid))?;
    }
    let cycles = kernel.clock().now();
    let tlb = kernel.core_mem(core).0.tlb_stats();
    let profile = kernel.profile().clone();
    Ok(finish(&profile, updates, cycles, remaps, tlb.misses))
}

/// The MP design: one slave process per window; the master ships update
/// batches over message passing and blocks for completion.
///
/// # Errors
///
/// See [`run`].
pub fn run_mp(cfg: &GupsConfig) -> SjResult<GupsResult> {
    let mut kernel = Kernel::new(cfg.flavor, cfg.machine);
    kernel.set_tracer(cfg.tracer.clone());
    let profile = kernel.profile().clone();
    let master = kernel.spawn("gups-master", Creds::new(1, 1))?;
    let mut slaves: Vec<(Pid, VirtAddr)> = Vec::with_capacity(cfg.windows);
    for w in 0..cfg.windows {
        let pid = kernel.spawn(&format!("gups-slave{w}"), Creds::new(1, 1))?;
        kernel.activate(pid)?;
        let va = kernel.sys_mmap(
            pid,
            MmapSource::New(PageSize::Size4K),
            cfg.window_bytes,
            PteFlags::USER | PteFlags::WRITABLE,
            true,
        )?;
        slaves.push((pid, va));
    }
    // The master spawned first, so `MpCluster`'s slave striping lines up
    // with the kernel's round-robin pinning of the slave processes.
    let mut cluster = MpCluster::new(
        cfg.windows,
        profile.clone(),
        kernel.cost().clone(),
        kernel.clocks().clone(),
        kernel.ctx_of(master)?,
    );
    cluster.set_tracer(cfg.tracer.clone());

    let mut rng = SimRng::seed_from_u64(cfg.seed);
    kernel.reset_clocks();
    cfg.tracer.clear();

    let mut updates = 0u64;
    let mut exchanges = 0u64;
    let mut misses = 0u64;
    for _ in 0..cfg.epochs {
        let w = rng.index(cfg.windows);
        // Master marshals and ships the batch, then blocks; the slave
        // applies the updates on its own core and acknowledges. With a
        // single window there is no partitioning and hence no RPC ("for
        // a single window — no remapping, RPC, or switching — all design
        // configurations perform equally well").
        if cfg.windows > 1 {
            cluster.send_batch(w, cfg.updates_per_set * 8);
            exchanges += 1;
        }
        let (pid, va) = slaves[w];
        // The process may have been descheduled since its last batch.
        kernel.activate(pid)?;
        let core = kernel.process(pid)?.core();
        let before = kernel.core_mem(core).0.tlb_stats().misses;
        update_set(cfg, &mut rng, va, &mut updates, |a| a.on(&mut kernel, pid))?;
        misses += kernel.core_mem(core).0.tlb_stats().misses - before;
        if cfg.windows > 1 {
            cluster.complete(w);
        }
    }
    let cycles = kernel.now();
    Ok(finish(&profile, updates, cycles, exchanges, misses))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(design: Design, windows: usize) -> GupsResult {
        let cfg = GupsConfig {
            windows,
            window_bytes: 256 << 10,
            updates_per_set: 16,
            epochs: 64,
            ..GupsConfig::default()
        };
        run(design, &cfg).unwrap()
    }

    #[test]
    fn all_designs_apply_all_updates() {
        for d in [Design::Jmp, Design::Map, Design::Mp] {
            let r = small(d, 4);
            assert_eq!(r.updates, 64 * 16, "{}", d.name());
            assert!(r.cycles > 0);
            assert!(r.mups > 0.0);
        }
    }

    #[test]
    fn jmp_beats_map_with_many_windows() {
        // The paper's headline: remapping on the critical path is
        // "prohibitively expensive" versus switching. Use full-size
        // (4 MiB) windows — remap cost scales with the window, switching
        // does not.
        let cfg = GupsConfig {
            windows: 8,
            updates_per_set: 16,
            epochs: 64,
            ..GupsConfig::default()
        };
        let jmp = run(Design::Jmp, &cfg).unwrap();
        let map = run(Design::Map, &cfg).unwrap();
        assert!(
            jmp.mups > 3.0 * map.mups,
            "JMP {:.1} MUPS should dwarf MAP {:.1} MUPS",
            jmp.mups,
            map.mups
        );
    }

    #[test]
    fn single_window_designs_are_comparable() {
        // "For a single window — no remapping, RPC, or switching — all
        // design configurations perform equally well."
        let jmp = small(Design::Jmp, 1);
        let map = small(Design::Map, 1);
        let ratio = jmp.mups / map.mups;
        assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn jmp_switch_rate_reported() {
        let r = small(Design::Jmp, 8);
        assert!(r.transitions > 0);
        assert!(r.switch_rate > 0.0);
        assert!(r.tlb_miss_rate > 0.0);
    }

    #[test]
    fn mp_oversubscription_collapse() {
        // M3 has 36 cores: 64 slaves oversubscribe and collapse.
        let fits = small(Design::Mp, 8);
        let over = small(Design::Mp, 64);
        assert!(
            fits.mups > 2.0 * over.mups,
            "fits {:.1} vs oversubscribed {:.1}",
            fits.mups,
            over.mups
        );
    }

    #[test]
    fn tagging_reduces_tlb_misses() {
        let base = GupsConfig {
            windows: 4,
            window_bytes: 128 << 10,
            updates_per_set: 16,
            epochs: 128,
            ..GupsConfig::default()
        };
        let untagged = run_jmp(&base).unwrap();
        let tagged = run_jmp(&GupsConfig {
            tagging: true,
            ..base
        })
        .unwrap();
        assert!(
            tagged.tlb_misses < untagged.tlb_misses,
            "tagged {} vs untagged {}",
            tagged.tlb_misses,
            untagged.tlb_misses
        );
    }

    #[test]
    fn barrelfish_flavor_switches_cheaper() {
        // Table 2: Barrelfish switches cost 664 vs 1127 cycles, so the
        // JMP design should gain when switch-bound (small update sets).
        let base = GupsConfig {
            windows: 8,
            window_bytes: 1 << 20,
            updates_per_set: 4,
            epochs: 128,
            ..GupsConfig::default()
        };
        let bsd = run_jmp(&base).unwrap();
        let bf = run_jmp(&GupsConfig {
            flavor: KernelFlavor::Barrelfish,
            ..base
        })
        .unwrap();
        assert!(
            bf.mups > bsd.mups,
            "Barrelfish {} vs DragonFly {}",
            bf.mups,
            bsd.mups
        );
    }

    #[test]
    fn host_walk_cache_does_not_change_simulated_outcome() {
        let cfg = GupsConfig {
            windows: 4,
            window_bytes: 256 << 10,
            updates_per_set: 16,
            epochs: 64,
            ..GupsConfig::default()
        };
        let cached = run_jmp(&cfg).unwrap();
        let uncached = run_jmp(&GupsConfig {
            backend: TranslationKind::FourLevelUncached,
            ..cfg
        })
        .unwrap();
        assert_eq!(
            (cached.cycles, cached.tlb_misses),
            (uncached.cycles, uncached.tlb_misses),
            "the host walk cache must be invisible to the simulation"
        );
    }

    #[test]
    fn no_vm_baseline_is_a_lower_bound() {
        // Base+bound checks replace page walks entirely: no TLB misses,
        // fewer simulated cycles than any walking backend.
        let cfg = GupsConfig {
            windows: 4,
            window_bytes: 256 << 10,
            updates_per_set: 16,
            epochs: 64,
            ..GupsConfig::default()
        };
        let walking = run_jmp(&cfg).unwrap();
        let novm = run_jmp(&GupsConfig {
            backend: TranslationKind::NoVm,
            ..cfg
        })
        .unwrap();
        assert_eq!(novm.updates, walking.updates);
        assert_eq!(novm.tlb_misses, 0, "no-VM mode never walks");
        assert!(
            novm.cycles < walking.cycles,
            "no-VM {} cycles should undercut 4-level {} cycles",
            novm.cycles,
            walking.cycles
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = small(Design::Jmp, 4);
        let b = small(Design::Jmp, 4);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.tlb_misses, b.tlb_misses);
    }

    #[test]
    fn shared_mode_applies_all_updates_without_faults() {
        let cfg = GupsConfig {
            windows: 4,
            window_bytes: 256 << 10,
            updates_per_set: 16,
            epochs: 64,
            ..GupsConfig::default()
        };
        let mut sj = SpaceJmp::new(Kernel::new(cfg.flavor, cfg.machine));
        let r = run_jmp_shared(&mut sj, &cfg, 3, false).unwrap();
        assert_eq!(r.updates, 64 * 16);
        assert_eq!(r.crashes, 0);
        assert_eq!(r.skipped_turns, 0);
        assert!(r.transitions > 0);
    }

    #[test]
    fn constrained_2x_oversubscription_completes_via_swap() {
        let cfg = GupsConfig {
            windows: 4,
            window_bytes: 256 << 10,
            updates_per_set: 16,
            epochs: 96,
            ..GupsConfig::default()
        };
        let data_pages = cfg.windows as u64 * cfg.window_bytes / PAGE_SIZE;
        // Frames for half the window data plus the process/page-table
        // footprint: the windows oversubscribe DRAM roughly 2x. The
        // pinned-segment design cannot even allocate here.
        let mem_frames = data_pages / 2 + 176;
        let pinned = run_jmp(&GupsConfig {
            machine: cfg.machine,
            ..cfg.clone()
        });
        let (r, p) = run_jmp_constrained(&cfg, mem_frames, None).unwrap();
        assert_eq!(r.updates, 96 * 16, "oversubscribed run must complete");
        assert!(p.evictions > 0, "no evictions: not actually oversubscribed");
        assert!(p.major_faults > 0, "no swap-ins: windows never came back");
        assert!(p.swap_slots_used > 0);
        assert_eq!(p.oom_kills, 0, "reclaim alone should carry this load");
        // The full-memory run exists and is much faster per update: swap
        // costs dominate the constrained run.
        let full = pinned.unwrap();
        assert!(full.mups > r.mups, "pressure must cost cycles");
    }

    #[test]
    fn shared_mode_survives_injected_worker_crashes() {
        use sjmp_os::FaultPlan;
        let cfg = GupsConfig {
            windows: 4,
            window_bytes: 256 << 10,
            updates_per_set: 8,
            epochs: 96,
            ..GupsConfig::default()
        };
        let mut sj = SpaceJmp::new(Kernel::new(cfg.flavor, cfg.machine));
        sj.kernel_mut().set_fault_plan(Some(
            FaultPlan::new(7).crash_with_probability(sjmp_os::FaultSite::Switch, 0.05),
        ));
        let r = run_jmp_shared(&mut sj, &cfg, 3, false).unwrap();
        assert!(r.crashes > 0, "expected some injected crashes");
        assert!(r.updates > 0, "survivors must make progress");
        let problems = sj.check_invariants();
        assert!(problems.is_empty(), "audit failed: {problems:?}");
    }
}
