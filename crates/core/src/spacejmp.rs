//! The SpaceJMP API: the operations of Figure 3, layered over the
//! simulated kernel.
//!
//! ```text
//! VAS API - for applications.          Segment API - for library developers.
//! vas_find(name) -> vid               seg_find(name) -> sid
//! vas_create(name, perms) -> vid      seg_alloc(name, base, size, perms) -> sid
//! vas_clone(vid) -> vid               seg_clone(sid) -> sid
//! vas_attach(vid) -> vh               seg_attach(vid|vh, sid)
//! vas_detach(vh)                      seg_detach(vid|vh, sid)
//! vas_switch(vh)                      seg_ctl(sid, cmd)
//! vas_ctl(cmd, vid[, arg])
//! ```
//!
//! Every method takes the calling [`Pid`] explicitly (the simulator has no
//! ambient "current process"). Costs are charged to the machine clock
//! following the paper's measurements: one kernel entry per call, the
//! Table 2 switch decomposition in [`SpaceJmp::vas_switch`], and one
//! uncontended lock acquisition per lockable segment.

use std::collections::{HashMap, HashSet};

use sjmp_mem::paging::{self, PteFlags};
use sjmp_mem::KernelFlavor;
use sjmp_mem::{Access, PageSize, VirtAddr, PAGE_SIZE};
use sjmp_os::kernel::{GLOBAL_HI, GLOBAL_LO, PRIVATE_HI};
use sjmp_os::{
    Acl, Backing, CapKind, CapRights, Capability, CoreCtx, Creds, FaultOutcome, FaultSite, IdTable,
    Kernel, MapPolicy, Mode, ObjClass, OsError, Pid, Region, VmObjectId, VmspaceId,
};
use sjmp_trace::{EventKind, MetricsSnapshot, Tracer};

use sjmp_os::PageState;

use crate::error::{SjError, SjResult};
use crate::image::{Catalog, SegmentImage, VasImage};
use crate::segment::{AttachMode, SegId, Segment};
use crate::vas::{Attachment, Vas, VasHandle, VasId};

/// Commands for [`SpaceJmp::vas_ctl`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VasCtl {
    /// Change the VAS's permission mode bits.
    SetMode(Mode),
    /// Hint that this VAS should get a TLB tag ("The user has the ability
    /// to pass hints to the kernel (vas_ctl) to request a tag be assigned
    /// to an address space", Section 4.4).
    RequestTag,
    /// Drop the tag request (new attachments use the flush-always tag 0).
    ReleaseTag,
    /// Destroy the VAS (must have no attached processes).
    Destroy,
}

/// Commands for [`SpaceJmp::seg_ctl`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegCtl {
    /// Change the segment's permission mode bits.
    SetMode(Mode),
    /// Mark the segment lockable or not.
    SetLockable(bool),
    /// Destroy the segment (must be detached everywhere).
    Destroy,
}

sjmp_trace::counter_group! {
    /// SpaceJMP-layer event counters.
    pub struct SjStats {
        /// `vas_switch` calls completed.
        switches => "sj.switches",
        /// `vas_attach` calls completed.
        attaches => "sj.attaches",
        /// Segment locks acquired across all switches.
        lock_acquisitions => "sj.lock_acquisitions",
        /// Switch attempts aborted because a lock was contended.
        lock_contentions => "sj.lock_contentions",
        /// Lock acquisitions elided by [`FaultSite::SegLock`] injection —
        /// each one is a seeded race the analyzer must find.
        lock_skips => "sj.lock_skips",
        /// Switches that succeeded only after backoff ([`SpaceJmp::vas_switch_retry`]).
        retried_switches => "sj.retried_switches",
        /// Switch attempts abandoned as deadlocked.
        deadlocks => "sj.deadlocks",
        /// Crashed processes reclaimed with [`SpaceJmp::reap_process`].
        reaps => "sj.reaps",
        /// Processes sacrificed by [`SpaceJmp::oom_kill`].
        oom_kills => "sj.oom_kills",
    }
}

/// Backoff schedule for [`SpaceJmp::vas_switch_retry`].
///
/// A contended switch waits `base_backoff_cycles << attempt` simulated
/// cycles (capped at `base_backoff_cycles << max_backoff_shift`) between
/// attempts, giving the holder time to switch away, and gives up with
/// [`SjError::WouldBlock`] after `max_retries` failed attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts after the first before giving up.
    pub max_retries: u32,
    /// Cycles charged before the first retry.
    pub base_backoff_cycles: u64,
    /// Exponential-backoff cap: shift never exceeds this.
    pub max_backoff_shift: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 16,
            base_backoff_cycles: 256,
            max_backoff_shift: 10,
        }
    }
}

/// The SpaceJMP service: kernel + VAS/segment registries.
///
/// # Examples
///
/// The canonical usage from the paper's Figure 4:
///
/// ```
/// use sjmp_mem::{KernelFlavor, MachineId, VirtAddr};
/// use sjmp_os::{Creds, Kernel, Mode};
/// use spacejmp_core::{AttachMode, SpaceJmp};
///
/// # fn main() -> Result<(), spacejmp_core::SjError> {
/// let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M2));
/// let pid = sj.kernel_mut().spawn("app", Creds::new(100, 100))?;
///
/// // va = 0xC0DE...; sz = 32 MiB (scaled from the paper's 1<<35).
/// let va = VirtAddr::new(0x1000_C0DE_0000);
/// let vid = sj.vas_create(pid, "v0", Mode(0o660))?;
/// let sid = sj.seg_alloc(pid, "s0", va, 32 << 20, Mode(0o660))?;
/// sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite)?;
///
/// let vh = sj.vas_attach(pid, vid)?;
/// sj.vas_switch(pid, vh)?;
/// sj.kernel_mut().store_u64(pid, va, 42)?;
/// assert_eq!(sj.kernel_mut().load_u64(pid, va)?, 42);
/// # Ok(()) }
/// ```
pub struct SpaceJmp {
    kernel: Kernel,
    vases: IdTable<VasId, Vas>,
    segments: IdTable<SegId, Segment>,
    attachments: IdTable<VasHandle, Attachment>,
    vas_names: HashMap<String, VasId>,
    seg_names: HashMap<String, SegId>,
    /// The VAS each process is currently switched into (absent = its
    /// original, spawn-time address space).
    current: IdTable<Pid, VasHandle>,
    /// Processes blocked on a contended switch and the attachment they
    /// want — the nodes of the waits-for graph. A process stays
    /// registered while its switch keeps failing (including between
    /// [`SpaceJmp::vas_switch_retry`] calls that gave up) and is removed
    /// when a switch succeeds, deadlock is declared, or it dies.
    waiters: IdTable<Pid, VasHandle>,
    /// The lock set of the switch in progress, kept between switches so
    /// a switch allocates nothing.
    lock_buf: Vec<(SegId, AttachMode)>,
    next_vid: u64,
    next_sid: u64,
    next_vh: u64,
    stats: SjStats,
}

impl std::fmt::Debug for SpaceJmp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpaceJmp")
            .field("vases", &self.vases.len())
            .field("segments", &self.segments.len())
            .field("attachments", &self.attachments.len())
            .finish()
    }
}

impl SpaceJmp {
    /// Wraps a booted kernel with the SpaceJMP service.
    pub fn new(kernel: Kernel) -> Self {
        SpaceJmp {
            kernel,
            vases: IdTable::default(),
            segments: IdTable::default(),
            attachments: IdTable::default(),
            vas_names: HashMap::new(),
            seg_names: HashMap::new(),
            current: IdTable::default(),
            waiters: IdTable::default(),
            lock_buf: Vec::new(),
            next_vid: 1,
            next_sid: 1,
            next_vh: 1,
            stats: SjStats::default(),
        }
    }

    /// The underlying kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Mutable access to the kernel (spawning, memory access).
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }

    /// SpaceJMP-layer counters.
    pub fn stats(&self) -> SjStats {
        self.stats
    }

    /// Processes currently blocked inside `vas_switch` waiting for a
    /// contended segment lock. This is the switch-path queue depth an
    /// admission controller compares against its bound: every waiter
    /// here is a request already consuming a core while making no
    /// progress. Charges no modeled cycles.
    pub fn switch_wait_depth(&self) -> usize {
        self.waiters.len()
    }

    /// Blocked switchers whose target VAS would lock `sid` — the
    /// per-segment share of [`switch_wait_depth`](Self::switch_wait_depth).
    /// A sharded store maps each shard to one lockable store segment, so
    /// this is the shard's queue-depth health signal. Charges no modeled
    /// cycles.
    pub fn seg_wait_depth(&self, sid: SegId) -> usize {
        self.waiters
            .values()
            .filter(|&&vh| self.switch_lock_set(vh).iter().any(|&(s, _)| s == sid))
            .count()
    }

    /// Installs `tracer` on the kernel and every simulated MMU, so VAS
    /// operations, syscalls, and TLB events all land in one event stream.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.kernel.set_tracer(tracer);
    }

    /// The installed tracer (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        self.kernel.tracer()
    }

    /// Re-emits the instants describing the kernel's *current* VAS
    /// topology: `SegRegister`/`SegExtent` (segment geometry),
    /// `SegAttach` (VAS membership), and `VasEnter` for any process
    /// presently switched into a VAS. Trace replays attribute raw word
    /// addresses to segments from these events, so a harness that
    /// clears the trace ring after warm-up must call this afterwards or
    /// the retained stream opens with no address map. Charges no
    /// modeled cycles; events land on core 0 at its current clock.
    pub fn trace_topology(&self) {
        if !self.kernel.tracer().enabled() {
            return;
        }
        let (k, ctx) = (&self.kernel, CoreCtx::BOOT);
        for sid in self.segment_ids() {
            let Ok(seg) = self.segment(sid) else { continue };
            k.instant(ctx, EventKind::SegRegister, sid.0, seg.base().raw());
            k.instant(ctx, EventKind::SegExtent, sid.0, seg.size());
        }
        for vid in self.vas_ids() {
            let Ok(vas) = self.vas(vid) else { continue };
            for &(sid, _) in vas.segments() {
                k.instant(ctx, EventKind::SegAttach, sid.0, vid.0);
            }
        }
        for (pid, &vh) in self.current.iter() {
            if let Ok(att) = self.attachment(vh) {
                k.instant(ctx, EventKind::VasEnter, pid.0, att.vid.0);
            }
        }
    }

    /// One consolidated metrics snapshot: the kernel's
    /// [`sjmp_os::KernelSnapshot`] counters plus the SpaceJMP-layer
    /// [`SjStats`] under `sj.*` names. Charges no kernel entry; callers
    /// wanting syscall semantics should pair it with
    /// [`sjmp_os::Kernel::sys_stats`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut m = self.kernel.stats_snapshot().to_metrics();
        m.extend(self.stats.counters());
        m
    }

    /// The VAS registry entry for `vid`.
    ///
    /// # Errors
    ///
    /// [`SjError::NotFound`] for unknown ids.
    pub fn vas(&self, vid: VasId) -> SjResult<&Vas> {
        self.vases.get(&vid).ok_or(SjError::NotFound)
    }

    /// The segment registry entry for `sid`.
    ///
    /// # Errors
    ///
    /// [`SjError::NotFound`] for unknown ids.
    pub fn segment(&self, sid: SegId) -> SjResult<&Segment> {
        self.segments.get(&sid).ok_or(SjError::NotFound)
    }

    fn segment_mut(&mut self, sid: SegId) -> SjResult<&mut Segment> {
        self.segments.get_mut(&sid).ok_or(SjError::NotFound)
    }

    fn vas_mut(&mut self, vid: VasId) -> SjResult<&mut Vas> {
        self.vases.get_mut(&vid).ok_or(SjError::NotFound)
    }

    /// The attachment behind a handle.
    ///
    /// # Errors
    ///
    /// [`SjError::NotFound`] for unknown handles.
    pub fn attachment(&self, vh: VasHandle) -> SjResult<&Attachment> {
        self.attachments.get(&vh).ok_or(SjError::NotFound)
    }

    /// The VAS a process is currently switched into, if any.
    pub fn current_vas(&self, pid: Pid) -> Option<VasHandle> {
        self.current.get(&pid).copied()
    }

    /// Every registered segment id, ascending. Offline audits
    /// (`sjmp-analyze`'s kernel linter) walk these; the fixed order keeps
    /// their findings deterministic.
    pub fn segment_ids(&self) -> Vec<SegId> {
        self.segments.keys().collect()
    }

    /// Every registered VAS id, ascending (see [`Self::segment_ids`]).
    pub fn vas_ids(&self) -> Vec<VasId> {
        self.vases.keys().collect()
    }

    /// Every live attachment handle, ascending (see [`Self::segment_ids`]).
    pub fn attachment_handles(&self) -> Vec<VasHandle> {
        self.attachments.keys().collect()
    }

    /// Terminates a process SpaceJMP-cleanly: switches it home (releasing
    /// every segment lock it holds), detaches all of its VAS attachments,
    /// and then exits it in the kernel. Without this, a process exiting
    /// while switched into a shared VAS would leak its segment locks.
    ///
    /// # Errors
    ///
    /// [`SjError::Os`] wrapping kernel failures.
    pub fn exit_process(&mut self, pid: Pid) -> SjResult<()> {
        if self.current.contains_key(&pid) {
            self.vas_switch_home(pid)?;
        }
        let handles: Vec<VasHandle> = self
            .attachments
            .iter()
            .filter(|(_, a)| a.pid == pid)
            .map(|(h, _)| h)
            .collect();
        for vh in handles {
            self.vas_detach(pid, vh)?;
        }
        self.waiters.remove(&pid);
        self.kernel.exit(pid)?;
        Ok(())
    }

    /// Reclaims a process that died *without* cooperating — crashed mid
    /// system call ([`OsError::Crashed`]) or was killed while switched
    /// into a shared VAS. Unlike [`Self::exit_process`] this never runs
    /// code "as" the dead process: it force-releases every segment lock
    /// the process holds, unwinds its attachment bookkeeping, and then
    /// has the kernel reclaim its vmspaces, frames, and ASIDs
    /// ([`sjmp_os::Kernel::kill`]). Other processes blocked on the dead
    /// process's locks can switch in afterwards.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`] if `pid` is unknown (e.g. reaped
    /// twice).
    pub fn reap_process(&mut self, pid: Pid) -> SjResult<()> {
        // Reaping is kernel housekeeping — it never runs "as" the dead
        // process — so, like reclaim, it executes on the boot core.
        self.span(CoreCtx::BOOT, EventKind::Reap, pid.0, |sj| {
            sj.reap_process_inner(pid)
        })
    }

    fn reap_process_inner(&mut self, pid: Pid) -> SjResult<()> {
        self.kernel.process(pid)?;
        // 1. Revoke the corpse's segment locks so blocked switchers can
        //    make progress.
        for seg in self.segments.values_mut() {
            seg.lock_mut().release(pid);
        }
        // 2. Unwind SpaceJMP bookkeeping: attachments, VAS membership,
        //    local segment attach counts, switch/waiter state.
        let handles: Vec<VasHandle> = self
            .attachments
            .iter()
            .filter(|(_, a)| a.pid == pid)
            .map(|(h, _)| h)
            .collect();
        for vh in handles {
            let att = self.attachments.remove(&vh).expect("collected above");
            if let Some(v) = self.vases.get_mut(&att.vid) {
                v.remove_attachment(pid);
            }
            for (sid, _) in &att.local_segments {
                if let Some(seg) = self.segments.get_mut(sid) {
                    seg.drop_attach();
                }
            }
        }
        self.current.remove(&pid);
        self.waiters.remove(&pid);
        // 3. Kernel-level reclamation of vmspaces, frames, and ASIDs.
        self.kernel.kill(pid)?;
        self.stats.reaps += 1;
        Ok(())
    }

    /// The OOM killer: invoked when reclaim cannot satisfy an allocation
    /// ([`OsError::OutOfMemory`]). Selects the victim with the largest
    /// resident set ([`sjmp_os::Kernel::select_oom_victim`]), skipping the
    /// processes in `protect`, and reclaims it through
    /// [`Self::reap_process`] — so a victim switched into a shared VAS
    /// releases its segment locks and blocked switchers make progress.
    /// Returns the victim, or `None` when no eligible process holds any
    /// resident frames (killing would free nothing).
    ///
    /// # Errors
    ///
    /// Propagates [`Self::reap_process`] failures.
    pub fn oom_kill(&mut self, protect: &[Pid]) -> SjResult<Option<Pid>> {
        let Some(victim) = self.kernel.select_oom_victim(protect) else {
            return Ok(None);
        };
        // Badness is the selection criterion itself: the victim's resident
        // set. Captured before the reap so the decision is auditable; it
        // and the pages freed only feed a tracer's counters, so they are
        // read only when one is installed.
        let traced = self.kernel.tracer().enabled();
        let (badness, free_before) = if traced {
            (
                self.kernel.resident_frames_of(victim),
                self.kernel.stats_snapshot().phys.free_frames,
            )
        } else {
            (0, 0)
        };
        self.reap_process(victim)?;
        self.stats.oom_kills += 1;
        if traced {
            let freed = self
                .kernel
                .stats_snapshot()
                .phys
                .free_frames
                .saturating_sub(free_before);
            // Like the reap it triggers, the OOM killer is boot-core
            // housekeeping.
            let ctx = CoreCtx::BOOT;
            self.kernel
                .instant(ctx, EventKind::OomKill, victim.0, badness);
            let tracer = self.kernel.tracer();
            tracer.add("oom.kills", 1);
            tracer.add(&format!("oom.pages_freed.pid{}", victim.0), freed);
            tracer.add(&format!("oom.badness.pid{}", victim.0), badness);
        }
        Ok(Some(victim))
    }

    /// Full-system consistency audit: the kernel-level checks of
    /// [`sjmp_os::Kernel::check_invariants`] (with every live VAS's
    /// template root declared as an external page-table tree) plus the
    /// SpaceJMP-layer invariants. Returns one line per violation; an
    /// empty vector means the system is consistent. The crash-injection
    /// harness calls this after every injected fault and reap.
    pub fn check_invariants(&mut self) -> Vec<String> {
        let roots: Vec<sjmp_mem::Pfn> = self.vases.values().map(Vas::template_root).collect();
        let mut problems = self.kernel.check_invariants(&roots);

        // Segment locks may only be held by registered processes (a
        // reaped process must not leave holds behind; a zombie is still
        // registered, so its holds are legal until the reap).
        for seg in self.segments.values() {
            let lock = seg.lock();
            let holders = lock
                .writer()
                .into_iter()
                .chain(lock.readers().iter().copied());
            for pid in holders {
                if self.kernel.process(pid).is_err() {
                    problems.push(format!(
                        "segment {:?} lock held by dead process {pid:?}",
                        seg.sid()
                    ));
                }
            }
        }

        // Attachment bookkeeping must be mutually consistent.
        let mut attach_counts: IdTable<SegId, u64> = IdTable::default();
        for v in self.vases.values() {
            for (sid, _) in v.segments() {
                *attach_counts.get_or_insert_with(*sid, || 0) += 1;
            }
            for pid in v.attached_pids() {
                let vh = v.handle_of(pid).expect("attached_pids yields mapped keys");
                match self.attachments.get(&vh) {
                    None => problems.push(format!(
                        "VAS {:?} records attachment {vh:?} for {pid:?} with no attachment entry",
                        v.vid()
                    )),
                    Some(a) if a.pid != pid || a.vid != v.vid() => problems.push(format!(
                        "attachment {vh:?} disagrees with VAS {:?} about its owner",
                        v.vid()
                    )),
                    Some(_) => {}
                }
            }
        }
        for (vh, a) in self.attachments.iter() {
            if self.kernel.process(a.pid).is_err() {
                problems.push(format!(
                    "attachment {vh:?} belongs to dead process {:?}",
                    a.pid
                ));
            }
            if !self.vases.contains_key(&a.vid) {
                problems.push(format!(
                    "attachment {vh:?} references destroyed VAS {:?}",
                    a.vid
                ));
            }
            for (sid, _) in &a.local_segments {
                *attach_counts.get_or_insert_with(*sid, || 0) += 1;
            }
        }
        for seg in self.segments.values() {
            let expected = attach_counts.get(&seg.sid()).copied().unwrap_or(0);
            if seg.attach_count() != expected {
                problems.push(format!(
                    "segment {:?} attach count {} but {} attachments reference it",
                    seg.sid(),
                    seg.attach_count(),
                    expected
                ));
            }
        }

        // Switch and waiter state must point at real attachments of live
        // processes.
        for (pid, vh) in self.current.iter().chain(self.waiters.iter()) {
            match self.attachments.get(vh) {
                None => problems.push(format!("{pid:?} tracks missing attachment {vh:?}")),
                Some(a) if a.pid != pid => {
                    problems.push(format!(
                        "{pid:?} tracks attachment {vh:?} owned by {:?}",
                        a.pid
                    ));
                }
                Some(_) => {}
            }
        }

        problems
    }

    // ---- VAS API ---------------------------------------------------------

    /// `vas_create(name, perms) -> vid`.
    ///
    /// On Barrelfish the creator receives an object capability from the
    /// user-level SpaceJMP service. That insert, which fails on a full
    /// cspace, comes before the VAS and its name are registered, and a
    /// failure frees the new root, so the call leaves nothing behind.
    ///
    /// # Errors
    ///
    /// [`SjError::NameTaken`] if `name` is registered; a full cspace;
    /// frame exhaustion.
    pub fn vas_create(&mut self, pid: Pid, name: &str, mode: Mode) -> SjResult<VasId> {
        self.kernel.charge_entry(self.ctx(pid), Some(pid));
        if self.vas_names.contains_key(name) {
            return Err(SjError::NameTaken(name.to_string()));
        }
        let creds = self.kernel.process(pid)?.creds();
        let root = paging::new_root(self.kernel.phys_mut()).map_err(OsError::from)?;
        let vid = VasId(self.next_vid);
        if self.kernel.flavor() == KernelFlavor::Barrelfish {
            let cap = Capability::new(
                CapKind::Object {
                    class: ObjClass::Vas,
                    id: vid.0,
                },
                CapRights::ALL,
            );
            let inserted = self
                .kernel
                .process_mut(pid)
                .and_then(|p| p.cspace_mut().insert(cap).map_err(OsError::from));
            if let Err(e) = inserted {
                paging::free_tables(self.kernel.phys_mut(), root, &[]);
                return Err(e.into());
            }
        }
        self.next_vid += 1;
        self.vases
            .insert(vid, Vas::new(vid, name, Acl::new(creds, mode), root));
        self.vas_names.insert(name.to_string(), vid);
        Ok(vid)
    }

    /// `vas_find(name) -> vid`.
    ///
    /// # Errors
    ///
    /// [`SjError::NotFound`] if no VAS has that name.
    pub fn vas_find(&mut self, name: &str) -> SjResult<VasId> {
        // No calling pid in the paper's signature: the lookup is billed to
        // the boot core.
        self.kernel.charge_entry(CoreCtx::BOOT, None);
        self.vas_names.get(name).copied().ok_or(SjError::NotFound)
    }

    /// `vas_clone(vid) -> vid`: a new VAS sharing the same segments (used
    /// to derive a differently-permissioned view; contents are shared).
    ///
    /// # Errors
    ///
    /// Name collisions and permission failures. A clone that fails
    /// leaves no VAS behind.
    pub fn vas_clone(&mut self, pid: Pid, vid: VasId, new_name: &str) -> SjResult<VasId> {
        let (segs, src_acl) = {
            let v = self.vas(vid)?;
            (v.segments().to_vec(), v.acl().clone())
        };
        let creds = self.kernel.process(pid)?.creds();
        if !src_acl.allows(creds, Access::Read) {
            return Err(SjError::PermissionDenied);
        }
        self.vas_build(pid, new_name, src_acl.mode(), |sj, new_vid, _| {
            for (sid, mode) in segs {
                sj.seg_attach(pid, new_vid, sid, mode)?;
            }
            Ok(())
        })
    }

    /// Creates VAS `name`, then runs `fill` on it, which records each
    /// segment it creates in its last argument as soon as it exists. All
    /// or nothing: if `fill` fails, the VAS and those segments are
    /// destroyed, so a retry finds neither registered. Nothing else has
    /// seen the new VAS, so destroying it detaches every segment.
    fn vas_build(
        &mut self,
        pid: Pid,
        name: &str,
        mode: Mode,
        fill: impl FnOnce(&mut Self, VasId, &mut Vec<SegId>) -> SjResult<()>,
    ) -> SjResult<VasId> {
        let vid = self.vas_create(pid, name, mode)?;
        let mut created = Vec::new();
        if let Err(e) = fill(self, vid, &mut created) {
            self.vas_destroy(vid);
            for sid in created {
                let _ = self.seg_destroy(sid);
            }
            return Err(e);
        }
        Ok(vid)
    }

    /// `vas_attach(vid) -> vh`: instantiates a process-private vmspace for
    /// the VAS — private segments (text, globals, stack) are remapped, and
    /// the VAS's shared page-table subtrees are linked in.
    ///
    /// # Errors
    ///
    /// Permission failures; resource exhaustion.
    pub fn vas_attach(&mut self, pid: Pid, vid: VasId) -> SjResult<VasHandle> {
        let ctx = self.ctx(pid);
        self.span(ctx, EventKind::VasAttach, vid.0, |sj| {
            sj.vas_attach_inner(pid, vid)
        })
    }

    fn vas_attach_inner(&mut self, pid: Pid, vid: VasId) -> SjResult<VasHandle> {
        self.kernel.charge_entry(self.ctx(pid), Some(pid));
        let creds = self.kernel.process(pid)?.creds();
        {
            let v = self.vas(vid)?;
            if !v.acl().allows(creds, Access::Read) {
                return Err(SjError::PermissionDenied);
            }
            if v.handle_of(pid).is_some() {
                return Err(SjError::Busy("process already attached to this VAS"));
            }
            // ACL check per segment: the process must be able to use every
            // segment in the mode the VAS maps it.
            for (sid, mode) in v.segments() {
                let seg = self.segments.get(sid).ok_or(SjError::NotFound)?;
                if !seg.acl().allows(creds, mode.required_access()) {
                    return Err(SjError::PermissionDenied);
                }
            }
        }
        // Build the per-process vmspace instance. A failure mid-build
        // (resource exhaustion, injected fault) must not leak the
        // half-built vmspace or its object references.
        let space = self.kernel.create_vmspace()?;
        let root_cap = match self.vas_attach_build(pid, vid, space) {
            Ok(cap) => cap,
            Err(e) => {
                if let Ok(p) = self.kernel.process_mut(pid) {
                    p.remove_space(space);
                }
                let _ = self.kernel.destroy_vmspace(space);
                return Err(e);
            }
        };
        let vh = VasHandle(self.next_vh);
        self.next_vh += 1;
        self.attachments.insert(
            vh,
            Attachment {
                pid,
                vid,
                vmspace: space,
                local_segments: Vec::new(),
                root_cap,
            },
        );
        self.vas_mut(vid)?.add_attachment(pid, vh);
        self.stats.attaches += 1;
        Ok(vh)
    }

    /// Populates a freshly created vmspace for an attachment: private
    /// regions, shared subtree links, the optional ASID, and (Barrelfish)
    /// the root-table capability. [`Self::vas_attach`] unwinds the
    /// vmspace if any step fails.
    fn vas_attach_build(
        &mut self,
        pid: Pid,
        vid: VasId,
        space: VmspaceId,
    ) -> SjResult<Option<sjmp_os::CapSlot>> {
        self.remap_private_regions(pid, space)?;
        let (template_root, segs, tag_requested) = {
            let v = self.vas(vid)?;
            (v.template_root(), v.segments().to_vec(), v.tag_requested())
        };
        let ctx = self.ctx(pid);
        for (sid, mode) in &segs {
            self.link_segment(ctx, space, template_root, *sid, *mode)?;
        }
        if tag_requested && self.kernel.tagging() {
            let asid = self.kernel.alloc_asid()?;
            self.kernel.vmspace_mut(space)?.set_asid(asid);
        }
        self.kernel.process_mut(pid)?.add_space(space);
        // Barrelfish: hand the process a capability to its new root page
        // table; vas_switch will be an invocation of this capability.
        if self.kernel.flavor() == KernelFlavor::Barrelfish {
            let root = self.kernel.vmspace(space)?.root();
            let cap = Capability::new(
                CapKind::PageTable {
                    frame: root,
                    level: 4,
                },
                CapRights::ALL,
            );
            Ok(Some(
                self.kernel
                    .process_mut(pid)?
                    .cspace_mut()
                    .insert(cap)
                    .map_err(OsError::from)?,
            ))
        } else {
            Ok(None)
        }
    }

    /// `vas_detach(vh)`: drops the attachment and destroys the private
    /// vmspace instance. The process must not be switched into the VAS.
    ///
    /// # Errors
    ///
    /// [`SjError::Busy`] if currently switched in; [`SjError::BadHandle`]
    /// if `vh` is not `pid`'s.
    pub fn vas_detach(&mut self, pid: Pid, vh: VasHandle) -> SjResult<()> {
        let ctx = self.ctx(pid);
        self.span(ctx, EventKind::VasDetach, vh.0, |sj| {
            sj.vas_detach_inner(pid, vh)
        })
    }

    fn vas_detach_inner(&mut self, pid: Pid, vh: VasHandle) -> SjResult<()> {
        self.kernel.charge_entry(self.ctx(pid), Some(pid));
        let att = self.attachment(vh)?.clone();
        if att.pid != pid {
            return Err(SjError::BadHandle);
        }
        if self.current.get(&pid) == Some(&vh) {
            return Err(SjError::Busy("cannot detach the active VAS"));
        }
        self.attachments.remove(&vh);
        if let Some(slot) = att.root_cap {
            self.kernel.process_mut(pid)?.cspace_mut().delete(slot);
        }
        self.vas_mut(att.vid)?.remove_attachment(pid);
        for (sid, _) in &att.local_segments {
            if let Ok(seg) = self.segment_mut(*sid) {
                seg.drop_attach();
            }
        }
        self.kernel.process_mut(pid)?.remove_space(att.vmspace);
        self.kernel.destroy_vmspace(att.vmspace)?;
        Ok(())
    }

    /// `vas_switch(vh)`: acquire every lockable segment's lock in the
    /// mapped mode, release the previous VAS's locks, and load the new
    /// translation root (Table 2's kernel entry + bookkeeping + CR3).
    ///
    /// # Errors
    ///
    /// [`SjError::WouldBlock`] if any segment lock is contended; no locks
    /// are held on return in that case.
    pub fn vas_switch(&mut self, pid: Pid, vh: VasHandle) -> SjResult<()> {
        let ctx = self.ctx(pid);
        self.span(ctx, EventKind::VasSwitch, pid.0, |sj| {
            sj.vas_switch_inner(pid, vh)
        })
    }

    fn vas_switch_inner(&mut self, pid: Pid, vh: VasHandle) -> SjResult<()> {
        let mut lock_set = std::mem::take(&mut self.lock_buf);
        lock_set.clear();
        let r = self.switch_with(pid, vh, &mut lock_set);
        self.lock_buf = lock_set;
        r
    }

    /// The body of [`Self::vas_switch`], collecting the lock set into
    /// `lock_set` (empty on entry).
    fn switch_with(
        &mut self,
        pid: Pid,
        vh: VasHandle,
        lock_set: &mut Vec<(SegId, AttachMode)>,
    ) -> SjResult<()> {
        let ctx = self.ctx(pid);
        let att = self.attachments.get(&vh).ok_or(SjError::NotFound)?;
        if att.pid != pid {
            return Err(SjError::BadHandle);
        }
        let (vid, vmspace, root_cap) = (att.vid, att.vmspace, att.root_cap);
        // Barrelfish: switching replaces the thread's root page table via
        // a checked capability invocation; a revoked capability bars the
        // switch ("revoking the process' root page table prohibits the
        // process from switching into the VAS").
        if let Some(slot) = root_cap {
            self.kernel
                .process(pid)?
                .cspace()
                .check(
                    slot,
                    CapRights {
                        read: true,
                        write: true,
                        grant: false,
                    },
                )
                .map_err(|e| SjError::Os(OsError::Cap(e)))?;
        }
        // Collect the lock set for the target VAS.
        for &(sid, mode) in self.vas(vid)?.segments().iter().chain(&att.local_segments) {
            if self.segment(sid)?.lockable() {
                lock_set.push((sid, mode));
            }
        }
        // Seeded race injection: a `Fail` at the SegLock site *elides*
        // that segment's acquisition — the switch proceeds, the process
        // runs in the shared VAS without the lock, and the downstream
        // release/downgrade paths never see the segment. The LockSkip
        // instant is a diagnostic for test harnesses; the race detector
        // must find the resulting unguarded accesses on its own.
        lock_set.retain(|(sid, _)| {
            if self.kernel.fault_outcome(FaultSite::SegLock) == FaultOutcome::Fail {
                self.stats.lock_skips += 1;
                self.kernel.instant(ctx, EventKind::LockSkip, sid.0, pid.0);
                false
            } else {
                true
            }
        });
        // Try-acquire all; roll back on contention. `try_acquire` is
        // re-entrant, so segments also held for the previous VAS succeed
        // (including upgrades when no other reader is present). The
        // locks acquired so far are the first `acquired` of the set.
        let mut acquired = 0;
        for &(sid, mode) in lock_set.iter() {
            let lock_cost = self.kernel.cost().lock_uncontended;
            let seg = self.segment_mut(sid)?;
            if seg.lock_mut().try_acquire(pid, mode) {
                acquired += 1;
                self.kernel.clocks().advance(ctx.core, lock_cost);
                self.kernel
                    .instant(ctx, EventKind::LockAcquire, sid.0, pid.0);
            } else {
                self.kernel
                    .instant(ctx, EventKind::LockContention, sid.0, pid.0);
                for &(a, _) in &lock_set[..acquired] {
                    // Roll back: restore the hold the previous VAS needs,
                    // or release entirely.
                    match self.previous_mode(pid, a) {
                        Some(prev) => {
                            let lock = self.segment_mut(a)?.lock_mut();
                            lock.downgrade_to(pid, prev);
                        }
                        None => self.segment_mut(a)?.lock_mut().release(pid),
                    }
                }
                self.stats.lock_contentions += 1;
                return Err(SjError::WouldBlock);
            }
        }
        self.stats.lock_acquisitions += acquired as u64;
        // Load the new translation root *before* touching the previous
        // VAS's lock holds: a mid-switch kernel fault then unwinds exactly
        // like contention. If the process crashed inside the kernel, its
        // corpse keeps every lock it holds until `reap_process` runs.
        if let Err(e) = self.kernel.switch_vmspace(pid, vmspace) {
            if e != OsError::Crashed {
                for &(a, _) in &lock_set[..acquired] {
                    match self.previous_mode(pid, a) {
                        Some(prev) => self.segment_mut(a)?.lock_mut().downgrade_to(pid, prev),
                        None => self.segment_mut(a)?.lock_mut().release(pid),
                    }
                }
            }
            return Err(e.into());
        }
        // Release locks of the VAS we are leaving (those not re-acquired),
        // and narrow re-acquired holds to the new mode.
        self.release_current_locks(pid, lock_set)?;
        for &(sid, mode) in lock_set.iter() {
            self.segment_mut(sid)?.lock_mut().downgrade_to(pid, mode);
        }
        self.current.insert(pid, vh);
        self.waiters.remove(&pid);
        self.stats.switches += 1;
        self.kernel.instant(ctx, EventKind::VasEnter, pid.0, vid.0);
        Ok(())
    }

    /// [`Self::vas_switch`] with bounded exponential backoff: the policy
    /// of every SpaceJMP application that must make progress against
    /// writers (RedisJMP's client switches, multi-process GUPS).
    ///
    /// On contention the caller is registered in the waits-for graph and
    /// the backoff is charged to the machine clock (the simulated analog
    /// of sleeping). Before each backoff the graph is checked for cycles.
    ///
    /// # Errors
    ///
    /// * [`SjError::Deadlock`] if the blocked switchers wait on each
    ///   other in a cycle — retrying can never succeed; the application
    ///   must release something (switch home) or a crashed holder must
    ///   be reaped.
    /// * [`SjError::WouldBlock`] once `policy.max_retries` attempts all
    ///   failed; the caller stays registered as a waiter.
    /// * Everything [`Self::vas_switch`] returns.
    pub fn vas_switch_retry(
        &mut self,
        pid: Pid,
        vh: VasHandle,
        policy: &RetryPolicy,
    ) -> SjResult<()> {
        let mut attempt = 0u32;
        loop {
            match self.vas_switch(pid, vh) {
                Err(SjError::WouldBlock) => {
                    self.waiters.insert(pid, vh);
                    if self.wait_cycle_exists(pid) {
                        self.waiters.remove(&pid);
                        self.stats.deadlocks += 1;
                        return Err(SjError::Deadlock);
                    }
                    if attempt >= policy.max_retries {
                        // Give up but stay in the waits-for graph: the
                        // process is still logically blocked, and other
                        // waiters must be able to see the edge.
                        return Err(SjError::WouldBlock);
                    }
                    let ctx = self.ctx(pid);
                    let shift = attempt.min(policy.max_backoff_shift);
                    self.kernel
                        .clocks()
                        .advance(ctx.core, policy.base_backoff_cycles << shift);
                    attempt += 1;
                    self.kernel
                        .instant(ctx, EventKind::SwitchRetry, pid.0, u64::from(attempt));
                }
                other => {
                    if other.is_ok() && attempt > 0 {
                        self.stats.retried_switches += 1;
                    }
                    return other;
                }
            }
        }
    }

    /// The lockable segments (and modes) a switch to `vh` must acquire.
    fn switch_lock_set(&self, vh: VasHandle) -> Vec<(SegId, AttachMode)> {
        let Some(att) = self.attachments.get(&vh) else {
            return Vec::new();
        };
        let mut set: Vec<(SegId, AttachMode)> = Vec::new();
        if let Some(v) = self.vases.get(&att.vid) {
            set.extend(v.segments().iter().copied());
        }
        set.extend(att.local_segments.iter().copied());
        set.retain(|(sid, _)| self.segments.get(sid).is_some_and(Segment::lockable));
        set
    }

    /// Processes whose current hold on `sid` blocks `pid` acquiring in
    /// `mode` (the edges of the waits-for graph).
    fn conflicting_holders(&self, pid: Pid, sid: SegId, mode: AttachMode) -> Vec<Pid> {
        let Some(seg) = self.segments.get(&sid) else {
            return Vec::new();
        };
        let lock = seg.lock();
        let mut out = Vec::new();
        if let Some(w) = lock.writer() {
            if w != pid {
                out.push(w);
            }
        }
        if mode == AttachMode::ReadWrite {
            out.extend(lock.readers().iter().copied().filter(|&r| r != pid));
        }
        out
    }

    /// Whether following waits-for edges from `start` reaches a cycle:
    /// waiter → conflicting lock holder → (if that holder is itself
    /// blocked) the locks *it* wants, and so on. A process that reaches a
    /// cycle can never be unblocked by waiting.
    fn wait_cycle_exists(&self, start: Pid) -> bool {
        fn visit(sj: &SpaceJmp, node: Pid, stack: &mut Vec<Pid>, done: &mut HashSet<Pid>) -> bool {
            if stack.contains(&node) {
                return true;
            }
            if !done.insert(node) {
                return false;
            }
            let Some(&vh) = sj.waiters.get(&node) else {
                return false;
            };
            stack.push(node);
            for (sid, mode) in sj.switch_lock_set(vh) {
                for holder in sj.conflicting_holders(node, sid, mode) {
                    if visit(sj, holder, stack, done) {
                        stack.pop();
                        return true;
                    }
                }
            }
            stack.pop();
            false
        }
        visit(self, start, &mut Vec::new(), &mut HashSet::new())
    }

    /// Switches `pid` back to its original (spawn-time) address space,
    /// releasing all segment locks.
    ///
    /// # Errors
    ///
    /// Kernel switch errors.
    pub fn vas_switch_home(&mut self, pid: Pid) -> SjResult<()> {
        self.release_current_locks(pid, &[])?;
        let home = self.kernel.process(pid)?.initial_space();
        self.kernel.switch_vmspace(pid, home)?;
        self.current.remove(&pid);
        self.waiters.remove(&pid);
        self.stats.switches += 1;
        let ctx = self.ctx(pid);
        self.kernel.instant(ctx, EventKind::VasEnter, pid.0, 0);
        Ok(())
    }

    /// `vas_ctl(cmd, vid)`.
    ///
    /// # Errors
    ///
    /// Permission failures; [`SjError::Busy`] destroying an attached VAS.
    pub fn vas_ctl(&mut self, pid: Pid, cmd: VasCtl, vid: VasId) -> SjResult<()> {
        self.kernel.charge_entry(self.ctx(pid), Some(pid));
        let creds = self.kernel.process(pid)?.creds();
        {
            let v = self.vas(vid)?;
            let owner = v.acl().owner();
            if creds.uid != 0 && creds.uid != owner.uid {
                return Err(SjError::PermissionDenied);
            }
        }
        match cmd {
            VasCtl::SetMode(mode) => self.vas_mut(vid)?.acl_mut().set_mode(mode),
            VasCtl::RequestTag => self.vas_mut(vid)?.set_tag_requested(true),
            VasCtl::ReleaseTag => self.vas_mut(vid)?.set_tag_requested(false),
            VasCtl::Destroy => {
                if self.vas(vid)?.attach_count() > 0 {
                    return Err(SjError::Busy("VAS still attached"));
                }
                self.vas_destroy(vid);
            }
        }
        Ok(())
    }

    /// Unregisters a VAS no process has attached: its name, its
    /// capabilities, its segments' attachments to it, and its template
    /// tree.
    fn vas_destroy(&mut self, vid: VasId) {
        let Some(v) = self.vases.remove(&vid) else {
            return;
        };
        self.vas_names.remove(v.name());
        self.delete_caps(ObjClass::Vas, vid.0);
        for (sid, _) in v.segments() {
            let object = self.segments.get_mut(sid).map(|seg| {
                seg.drop_attach();
                seg.object()
            });
            // The template tree is about to be freed; a swappable
            // segment's eviction hook must not walk it afterwards.
            if let Some(object) = object {
                self.kernel
                    .unregister_external_mapping(object, v.template_root());
            }
        }
        paging::free_tables(self.kernel.phys_mut(), v.template_root(), &[]);
        // Freed table frames may be recycled under a new root;
        // stale host-side walks must not survive that.
        self.kernel.flush_host_walk_caches();
    }

    /// Revokes a process's attachment capability (Barrelfish flavor):
    /// the owner of a VAS can bar an attached process from switching in
    /// without its cooperation, the reclamation mechanism of Section 4.2.
    ///
    /// # Errors
    ///
    /// * [`SjError::PermissionDenied`] if `owner` does not own the VAS
    ///   (root excepted) or the kernel is not the Barrelfish flavor.
    pub fn revoke_attachment(&mut self, owner: Pid, vh: VasHandle) -> SjResult<()> {
        self.kernel.charge_entry(self.ctx(owner), Some(owner));
        let att = self.attachment(vh)?.clone();
        let creds = self.kernel.process(owner)?.creds();
        {
            let v = self.vas(att.vid)?;
            if creds.uid != 0 && creds.uid != v.acl().owner().uid {
                return Err(SjError::PermissionDenied);
            }
        }
        let Some(slot) = att.root_cap else {
            return Err(SjError::InvalidArgument(
                "revocation requires the Barrelfish flavor",
            ));
        };
        self.kernel
            .process_mut(att.pid)?
            .cspace_mut()
            .revoke(slot)
            .map_err(|e| SjError::Os(OsError::Cap(e)))?;
        Ok(())
    }

    /// Snapshots a VAS (Section 7 "ongoing work": snapshotting and
    /// versioning): deep-copies every attached segment and assembles a
    /// new, independent VAS over the copies. Later writes to either the
    /// original or the snapshot do not affect the other.
    ///
    /// # Errors
    ///
    /// Name collisions (`new_name` itself and `new_name/<segment>` names
    /// must be free), permission failures, allocation failures. A
    /// snapshot that fails leaves no VAS or segment copy behind.
    pub fn vas_snapshot(&mut self, pid: Pid, vid: VasId, new_name: &str) -> SjResult<VasId> {
        let (segs, mode) = {
            let v = self.vas(vid)?;
            let creds = self.kernel.process(pid)?.creds();
            if !v.acl().allows(creds, Access::Read) {
                return Err(SjError::PermissionDenied);
            }
            (v.segments().to_vec(), v.acl().mode())
        };
        // Segment locks must be quiescent for a consistent snapshot.
        for (sid, _) in &segs {
            if !self.segment(*sid)?.lock().is_free() {
                return Err(SjError::Busy("segment lock held during snapshot"));
            }
        }
        self.vas_build(pid, new_name, mode, |sj, new_vid, created| {
            for (sid, seg_mode) in segs {
                let seg_name = sj.segment(sid)?.name().to_string();
                let copy = sj.seg_clone(pid, sid, &format!("{new_name}/{seg_name}"))?;
                created.push(copy);
                sj.seg_attach(pid, new_vid, copy, seg_mode)?;
            }
            Ok(())
        })
    }

    /// Reads a segment's contents: `size` bytes, page by page. Contiguous
    /// segments read straight from their frames; demand-paged ones fill
    /// zero pages with zeros and fetch evicted pages back through the
    /// swap device without faulting them in. Persistence goes through
    /// [`Self::vas_save`]/[`Self::vas_load`]; this is the reader that
    /// compares what they restore.
    ///
    /// # Errors
    ///
    /// Permission failures; [`SjError::Busy`] while the lock is held.
    pub fn seg_contents(&mut self, pid: Pid, sid: SegId) -> SjResult<Vec<u8>> {
        self.kernel.charge_entry(self.ctx(pid), Some(pid));
        let creds = self.kernel.process(pid)?.creds();
        let (size, object) = {
            let seg = self.segment(sid)?;
            if !seg.acl().allows(creds, Access::Read) {
                return Err(SjError::PermissionDenied);
            }
            if !seg.lock().is_free() {
                return Err(SjError::Busy("segment lock held during save"));
            }
            (seg.size(), seg.object())
        };
        let mut out = vec![0; size as usize];
        for (index, page) in (0..).zip(out.chunks_exact_mut(PAGE_SIZE as usize)) {
            self.kernel.read_object_page(object, index, page)?;
        }
        Ok(out)
    }

    /// `vas_save(vid)`: persists a VAS to the kernel's snapshot disk,
    /// completing the paper's Section 7 future-work item — "the
    /// persistency of multiple virtual address spaces (for example,
    /// across reboots)". The whole VAS (permission mode, every attached
    /// segment's geometry, flags, and contents — including pages
    /// currently evicted to swap, which are read back through the swap
    /// device) is serialized into a sparse [`VasImage`], merged into
    /// the disk's [`Catalog`] under the VAS's name, and committed as a
    /// new snapshot generation through the write-ahead journal. The
    /// commit is atomic under power loss: after a crash at *any* block
    /// boundary, recovery yields either the previous catalog or this
    /// one, never a hybrid. Returns the committed generation.
    ///
    /// # Errors
    ///
    /// Permission failures; [`SjError::Busy`] while any segment lock is
    /// held (the image must be quiescent);
    /// [`sjmp_os::OsError::Crashed`] when an injected block-IO crash
    /// fault aborts the commit mid-sequence.
    pub fn vas_save(&mut self, pid: Pid, vid: VasId) -> SjResult<u64> {
        self.kernel.charge_entry(self.ctx(pid), Some(pid));
        let ctx = self.ctx(pid);
        self.span(ctx, EventKind::SnapshotSave, vid.0, |sj| {
            sj.vas_save_inner(pid, vid, ctx)
        })
    }

    fn vas_save_inner(&mut self, pid: Pid, vid: VasId, ctx: CoreCtx) -> SjResult<u64> {
        let creds = self.kernel.process(pid)?.creds();
        let (name, mode, segs) = {
            let v = self.vas(vid)?;
            if !v.acl().allows(creds, Access::Read) {
                return Err(SjError::PermissionDenied);
            }
            (v.name().to_string(), v.acl().mode(), v.segments().to_vec())
        };
        // As vas_snapshot: locks must be quiescent for a consistent image.
        for (sid, _) in &segs {
            if !self.segment(*sid)?.lock().is_free() {
                return Err(SjError::Busy("segment lock held during save"));
            }
        }
        let mut segments = Vec::with_capacity(segs.len());
        for (sid, attach_mode) in segs {
            segments.push(self.serialize_segment(ctx, sid, attach_mode)?);
        }
        let image = VasImage {
            mode: mode.0,
            segments,
        };
        // Read-modify-write the catalog so other saved VASes survive
        // this save; the snapshot store's generation machinery makes
        // the whole read-back + commit copy-on-write.
        let payload = self.kernel.disk_read(ctx);
        let mut catalog = Catalog::decode(&payload)
            .ok_or(SjError::InvalidArgument("corrupt snapshot catalog on disk"))?;
        catalog.upsert(&name, image.encode());
        let generation = self.kernel.disk_commit(ctx, &catalog.encode())?;
        Ok(generation)
    }

    /// Serializes one attached segment into a sparse [`SegmentImage`].
    /// Zero pages are elided; pages evicted to swap are read back
    /// through the swap device (charged and traced as swap-ins) without
    /// disturbing their evicted state.
    fn serialize_segment(
        &mut self,
        ctx: CoreCtx,
        sid: SegId,
        attach_mode: AttachMode,
    ) -> SjResult<SegmentImage> {
        let (name, base, size, mode, lockable, object, backing) = {
            let s = self.segment(sid)?;
            (
                s.name().to_string(),
                s.base(),
                s.size(),
                s.acl().mode(),
                s.lockable(),
                s.object(),
                s.backing(),
            )
        };
        let mut pages = Vec::new();
        let mut buf = vec![0u8; PAGE_SIZE as usize];
        for index in 0..size / PAGE_SIZE {
            if let PageState::Swapped { .. } = self.kernel.vmobject(object)?.page_state(index) {
                let cycles = self.kernel.cost().swap_in_page;
                self.span(ctx, EventKind::SwapIn, object.0, |sj| {
                    sj.kernel.clocks().advance(ctx.core, cycles);
                });
            }
            self.kernel.read_object_page(object, index, &mut buf)?;
            if buf.iter().all(|&b| b == 0) {
                continue;
            }
            pages.push((index, buf.clone()));
        }
        Ok(SegmentImage {
            name,
            base: base.raw(),
            size,
            writable: attach_mode == AttachMode::ReadWrite,
            mode: mode.0,
            lockable,
            backing,
            pages,
        })
    }

    /// `vas_load(name)`: reattaches a VAS saved with [`Self::vas_save`]
    /// from the kernel's snapshot disk — typically on a freshly booted
    /// machine whose kernel was handed the surviving [`sjmp_blk::BlockDev`]
    /// via [`Kernel::attach_disk`]. The VAS, its segments (at their
    /// original bases, with their original names, modes, lockability,
    /// and backings), and all saved page contents reappear; because
    /// segment bases are part of their identity, pointers stored inside
    /// the segments are valid immediately. Returns the new [`VasId`].
    ///
    /// # Errors
    ///
    /// [`SjError::NotFound`] when no saved VAS has that name;
    /// [`SjError::InvalidArgument`] for corrupt catalog bytes;
    /// [`SjError::NameTaken`] when the VAS or one of its segment names
    /// is already registered; allocation failures. A load that fails
    /// leaves no VAS or segment registered, so it can be retried.
    pub fn vas_load(&mut self, pid: Pid, name: &str) -> SjResult<VasId> {
        self.kernel.charge_entry(self.ctx(pid), Some(pid));
        let ctx = self.ctx(pid);
        self.span(ctx, EventKind::SnapshotLoad, pid.0, |sj| {
            sj.vas_load_inner(pid, name, ctx)
        })
    }

    fn vas_load_inner(&mut self, pid: Pid, name: &str, ctx: CoreCtx) -> SjResult<VasId> {
        let payload = self.kernel.disk_read(ctx);
        let catalog = Catalog::decode(&payload)
            .ok_or(SjError::InvalidArgument("corrupt snapshot catalog on disk"))?;
        let bytes = catalog.get(name).ok_or(SjError::NotFound)?;
        let image = VasImage::decode(bytes)
            .ok_or(SjError::InvalidArgument("corrupt VAS image in catalog"))?;
        // Validate before creating anything, so a bad image leaves no
        // VAS or segment behind: each segment's name and geometry (a
        // base outside the global range, non-canonical ones included,
        // is a typed error), its alignment to its backing's page size,
        // and its pages.
        for seg in &image.segments {
            self.seg_validate(&seg.name, VirtAddr::new_unchecked(seg.base), seg.size)?;
            let page_size = seg.backing.page_size().bytes();
            if !seg.base.is_multiple_of(page_size) || !seg.size.is_multiple_of(page_size) {
                return Err(SjError::InvalidArgument(
                    "VAS image segment misaligned for its backing",
                ));
            }
            let pages = seg.size.div_ceil(PAGE_SIZE);
            if seg.pages.iter().any(|(index, _)| *index >= pages) {
                return Err(SjError::InvalidArgument(
                    "VAS image page beyond its segment",
                ));
            }
        }
        self.vas_build(pid, name, Mode(image.mode), |sj, vid, created| {
            sj.vas_load_segments(pid, vid, &image, created)
        })
    }

    /// Creates, fills and attaches to `vid` each segment of `image`,
    /// recording each id in `created` as soon as it exists.
    fn vas_load_segments(
        &mut self,
        pid: Pid,
        vid: VasId,
        image: &VasImage,
        created: &mut Vec<SegId>,
    ) -> SjResult<()> {
        for seg in &image.segments {
            let base = VirtAddr::new(seg.base);
            let sid =
                self.seg_alloc_with(pid, &seg.name, base, seg.size, Mode(seg.mode), seg.backing)?;
            created.push(sid);
            if !seg.lockable {
                self.segment_mut(sid)?.set_lockable(false);
            }
            let object = self.segment(sid)?.object();
            for (index, data) in &seg.pages {
                self.kernel.write_object_page(object, *index, data)?;
            }
            let mode = if seg.writable {
                AttachMode::ReadWrite
            } else {
                AttachMode::ReadOnly
            };
            self.seg_attach(pid, vid, sid, mode)?;
        }
        Ok(())
    }

    // ---- Segment API -------------------------------------------------------

    /// `seg_alloc(name, base, size, perms) -> sid`: reserves physical
    /// memory for a segment with a fixed virtual base in the global range.
    ///
    /// # Errors
    ///
    /// * [`SjError::AddressConflict`] for bases outside
    ///   `[GLOBAL_LO, GLOBAL_HI)` (they would collide with process-private
    ///   mappings — Section 4.1's disjoint-range rule).
    /// * [`SjError::NameTaken`] / alignment / allocation failures.
    pub fn seg_alloc(
        &mut self,
        pid: Pid,
        name: &str,
        base: VirtAddr,
        size: u64,
        mode: Mode,
    ) -> SjResult<SegId> {
        self.seg_alloc_with(pid, name, base, size, mode, Backing::Dram)
    }

    /// [`Self::seg_alloc`] on a chosen [`Backing`], which decides the
    /// rest of the segment:
    ///
    /// * [`Backing::Dram`] reserves and pins the frames now, as the paper
    ///   does ("physical pages are reserved at the time a segment is
    ///   created").
    /// * [`Backing::Nvm`] does the same in the NVM capacity tier (Section
    ///   7's heterogeneous memory). NVM segments pair naturally with
    ///   persistent VASes: the data survives in the capacity tier, at
    ///   higher per-access cost.
    /// * [`Backing::Aligned`] reserves a naturally aligned range and maps
    ///   the segment with superpages (2 MiB or 1 GiB) wherever it is
    ///   attached. `base` and `size` must be aligned to the page size.
    ///   Fewer, shallower leaves make attachment cheaper to construct and
    ///   give each TLB entry more reach — the Section 6 mitigation for
    ///   translation cost, as a segment property.
    /// * [`Backing::Demand`] makes the segment demand-paged and
    ///   **swappable**: no frames up front, pages materialize on first
    ///   touch, and under memory pressure the kernel's clock reclaimer
    ///   may evict them. This relaxes the paper's reservation rule and
    ///   makes pinning a measurable trade-off: a pinned segment never
    ///   swaps but fails allocation when memory is exhausted, a swappable
    ///   one survives oversubscription at swap-in cost. The creator owns
    ///   the backing object (quota accounting and OOM badness).
    ///
    /// Every segment outlives process teardown until `seg_ctl(Destroy)`,
    /// and clones ([`Self::seg_clone`]) and persists ([`Self::vas_save`])
    /// alike; evicted pages are read back through the swap device as
    /// needed.
    ///
    /// # Errors
    ///
    /// As [`Self::seg_alloc`], plus [`OsError::Misaligned`] (wrapped in
    /// [`SjError::Os`]) when `base` or `size` breaks an aligned backing's
    /// rule, and a kernel error for NVM when no NVM tier is configured.
    pub fn seg_alloc_with(
        &mut self,
        pid: Pid,
        name: &str,
        base: VirtAddr,
        size: u64,
        mode: Mode,
        backing: Backing,
    ) -> SjResult<SegId> {
        self.kernel.charge_entry(self.ctx(pid), Some(pid));
        let size = self.seg_validate(name, base, size)?;
        let page_size = backing.page_size();
        for requested in [base.raw(), size] {
            if !requested.is_multiple_of(page_size.bytes()) {
                return Err(SjError::Os(OsError::Misaligned {
                    requested,
                    page_size,
                }));
            }
        }
        self.kernel.process(pid)?;
        let owner = (backing == Backing::Demand).then_some(pid);
        let object = self.kernel.alloc_object(owner, size, backing)?;
        self.seg_register(pid, name, base, size, mode, object, backing)
    }

    /// Shared argument validation for segment allocation; returns the
    /// page-rounded size.
    fn seg_validate(&self, name: &str, base: VirtAddr, size: u64) -> SjResult<u64> {
        if self.seg_names.contains_key(name) {
            return Err(SjError::NameTaken(name.to_string()));
        }
        if size == 0 {
            return Err(SjError::InvalidArgument("zero-length segment"));
        }
        if !base.is_aligned(PAGE_SIZE) {
            return Err(SjError::InvalidArgument(
                "segment base must be page aligned",
            ));
        }
        // A size or end past the top of the address space saturates, so
        // it is reported as out of range instead of overflowing.
        let size = size
            .checked_next_multiple_of(PAGE_SIZE)
            .unwrap_or(u64::MAX - (PAGE_SIZE - 1));
        let end = VirtAddr::new_unchecked(base.raw().saturating_add(size));
        if base < GLOBAL_LO || end > GLOBAL_HI {
            return Err(SjError::AddressConflict(format!(
                "segment [{base}, {end}) outside the global range [{GLOBAL_LO}, {GLOBAL_HI})"
            )));
        }
        Ok(size)
    }

    /// Registers a segment descriptor over a freshly allocated backing
    /// object and (Barrelfish) hands the creator its object capability.
    /// The object outlives any process mapping it, so process teardown
    /// never reclaims it: a demand object is preserved (it may still
    /// swap), any other is pinned. The capability insert, which fails on
    /// a full cspace, comes first; a failure frees the object, so the
    /// call leaves no segment, name or object behind.
    #[allow(clippy::too_many_arguments)]
    fn seg_register(
        &mut self,
        pid: Pid,
        name: &str,
        base: VirtAddr,
        size: u64,
        mode: Mode,
        object: VmObjectId,
        backing: Backing,
    ) -> SjResult<SegId> {
        let sid = SegId(self.next_sid);
        let granted = self.seg_grant(pid, sid);
        let creds = self.or_free(object, granted)?;
        self.next_sid += 1;
        let o = self.kernel.vmobject_mut(object)?;
        if backing == Backing::Demand {
            o.set_preserved(true);
        } else {
            o.set_pinned(true);
        }
        let acl = Acl::new(creds, mode);
        self.segments.insert(
            sid,
            Segment::new(sid, name, base, size, object, acl).with_backing(backing),
        );
        self.seg_names.insert(name.to_string(), sid);
        // Announce the segment's geometry so trace replays can map raw
        // word addresses back to segments. Two instants because an event
        // carries only two argument words: SegRegister = (sid, base),
        // SegExtent = (sid, size).
        let ctx = self.ctx(pid);
        self.kernel
            .instant(ctx, EventKind::SegRegister, sid.0, base.raw());
        self.kernel.instant(ctx, EventKind::SegExtent, sid.0, size);
        Ok(sid)
    }

    /// The fallible half of [`Self::seg_register`]: the creator's
    /// credentials and, on Barrelfish, its capability for segment `sid`.
    fn seg_grant(&mut self, pid: Pid, sid: SegId) -> SjResult<Creds> {
        let flavor = self.kernel.flavor();
        let process = self.kernel.process_mut(pid)?;
        if flavor == KernelFlavor::Barrelfish {
            let cap = Capability::new(
                CapKind::Object {
                    class: ObjClass::Segment,
                    id: sid.0,
                },
                CapRights::ALL,
            );
            process.cspace_mut().insert(cap).map_err(OsError::from)?;
        }
        Ok(process.creds())
    }

    /// Passes `result` on, freeing the fresh, unmapped `object` first
    /// when it is an error.
    fn or_free<T>(&mut self, object: VmObjectId, result: SjResult<T>) -> SjResult<T> {
        if result.is_err() {
            self.kernel
                .free_object(object)
                .expect("a fresh object is mapped nowhere");
        }
        result
    }

    /// `seg_find(name) -> sid`.
    ///
    /// # Errors
    ///
    /// [`SjError::NotFound`] if no segment has that name.
    pub fn seg_find(&mut self, name: &str) -> SjResult<SegId> {
        // As vas_find: no calling pid, billed to the boot core.
        self.kernel.charge_entry(CoreCtx::BOOT, None);
        self.seg_names.get(name).copied().ok_or(SjError::NotFound)
    }

    /// `seg_clone(sid) -> sid`: deep-copies a segment (contents and
    /// metadata, backing included) so permissions can be changed
    /// independently.
    ///
    /// # Errors
    ///
    /// Permission and allocation failures.
    pub fn seg_clone(&mut self, pid: Pid, sid: SegId, new_name: &str) -> SjResult<SegId> {
        self.kernel.charge_entry(self.ctx(pid), Some(pid));
        let creds = self.kernel.process(pid)?.creds();
        let (base, size, mode, src_obj, backing) = {
            let s = self.segment(sid)?;
            if !s.acl().allows(creds, Access::Read) {
                return Err(SjError::PermissionDenied);
            }
            (s.base(), s.size(), s.acl().mode(), s.object(), s.backing())
        };
        if self.seg_names.contains_key(new_name) {
            return Err(SjError::NameTaken(new_name.to_string()));
        }
        let object = if backing == Backing::Demand {
            // Duplicate page by page, preserving each page's state — zero
            // pages stay sparse, evicted pages are copied swap slot to
            // swap slot — so the clone neither faults pages in nor
            // disturbs memory pressure.
            self.kernel.duplicate_paged_object(Some(pid), src_obj)?
        } else {
            let object = self.kernel.alloc_object(None, size, backing)?;
            let mut page = vec![0; PAGE_SIZE as usize];
            let copied = (0..size / PAGE_SIZE).try_for_each(|index| {
                self.kernel.read_object_page(src_obj, index, &mut page)?;
                self.kernel.write_object_page(object, index, &page)
            });
            self.or_free(object, copied.map_err(SjError::from))?;
            object
        };
        self.seg_register(pid, new_name, base, size, mode, object, backing)
    }

    /// `seg_attach(vid, sid)`: attaches a segment **globally** to a VAS so
    /// that every attaching process sees it, mapped in `mode`.
    ///
    /// Mappings are installed in the VAS's shared template tables, so they
    /// propagate instantly to already-attached processes (Section 4.2's
    /// shared page tables).
    ///
    /// # Errors
    ///
    /// Permission failures and address conflicts within the VAS.
    pub fn seg_attach(
        &mut self,
        pid: Pid,
        vid: VasId,
        sid: SegId,
        mode: AttachMode,
    ) -> SjResult<()> {
        self.kernel.charge_entry(self.ctx(pid), Some(pid));
        let creds = self.kernel.process(pid)?.creds();
        let (base, size, object, page_size) = {
            let seg = self.segment(sid)?;
            if !seg.acl().allows(creds, mode.required_access()) {
                return Err(SjError::PermissionDenied);
            }
            (seg.base(), seg.size(), seg.object(), seg.page_size())
        };
        {
            let v = self.vas(vid)?;
            if !v.acl().allows(creds, Access::Write) {
                return Err(SjError::PermissionDenied);
            }
            if v.segment_mode(sid).is_some() {
                return Err(SjError::Busy("segment already attached to this VAS"));
            }
            // Address-conflict check against segments already in the VAS.
            for (other, _) in v.segments() {
                let o = self.segment(*other)?;
                if base < o.end() && o.base() < base.add(size) {
                    return Err(SjError::AddressConflict(format!(
                        "segment {sid:?} overlaps {other:?} in VAS {vid:?}"
                    )));
                }
            }
        }
        // Map into the template tables.
        let template_root = self.vas(vid)?.template_root();
        let flags = attach_flags(mode);
        if self.kernel.vmobject(object)?.is_contiguous() {
            let pa = self.kernel.vmobject(object)?.base();
            paging::map_region(
                self.kernel.phys_mut(),
                template_root,
                base,
                pa,
                size,
                page_size,
                flags,
            )
            .map_err(OsError::from)?;
        } else {
            // Demand-paged (swappable) segment: there is nothing to map
            // yet — leaves are installed by the major-fault path as pages
            // materialize. Populate the PML4 slot(s) so subtree sharing
            // has a tree to link, and register the template root so the
            // reclaimer can clear evicted leaves once for every process
            // sharing this tree.
            let first = base.pml4_index();
            let last = base.add(size - 1).pml4_index();
            for slot in first..=last {
                paging::ensure_root_slot(self.kernel.phys_mut(), template_root, slot)
                    .map_err(OsError::from)?;
            }
            self.kernel
                .register_external_mapping(object, template_root, base);
        }
        self.segment_mut(sid)?.add_attach();
        self.vas_mut(vid)?.add_segment(sid, mode);
        // Propagate to attached processes: link any new PML4 slots and
        // record the region for bookkeeping.
        let spaces: Vec<VmspaceId> = {
            let v = self.vas(vid)?;
            v.attached_pids()
                .filter_map(|p| v.handle_of(p))
                .filter_map(|h| self.attachments.get(&h).map(|a| a.vmspace))
                .collect()
        };
        let ctx = self.ctx(pid);
        for space in spaces {
            self.link_segment(ctx, space, template_root, sid, mode)?;
        }
        self.kernel.instant(ctx, EventKind::SegAttach, sid.0, vid.0);
        Ok(())
    }

    /// `seg_attach(vh, sid)`: attaches a segment **process-locally** into
    /// one attachment's vmspace (the paper's `vh` variant; RedisJMP uses
    /// this for per-client scratch heaps).
    ///
    /// # Errors
    ///
    /// As the global variant, plus [`SjError::AddressConflict`] if the
    /// segment's PML4 slot is occupied by a shared subtree.
    pub fn seg_attach_local(
        &mut self,
        pid: Pid,
        vh: VasHandle,
        sid: SegId,
        mode: AttachMode,
    ) -> SjResult<()> {
        self.kernel.charge_entry(self.ctx(pid), Some(pid));
        let att = self.attachment(vh)?.clone();
        if att.pid != pid {
            return Err(SjError::BadHandle);
        }
        let creds = self.kernel.process(pid)?.creds();
        let (base, size, object) = {
            let seg = self.segment(sid)?;
            if !seg.acl().allows(creds, mode.required_access()) {
                return Err(SjError::PermissionDenied);
            }
            (seg.base(), seg.size(), seg.object())
        };
        // The segment must not fall into a PML4 slot shared with the VAS
        // template: private mappings in shared subtrees would leak to
        // other processes.
        {
            let vs = self.kernel.vmspace(att.vmspace)?;
            let first = base.pml4_index();
            let last = base.add(size - 1).pml4_index();
            for slot in first..=last {
                if vs.shared_slots().contains(&slot) {
                    return Err(SjError::AddressConflict(format!(
                        "PML4 slot {slot} is shared with the VAS template"
                    )));
                }
            }
        }
        let flags = attach_flags(mode);
        self.kernel
            .map_object(
                att.vmspace,
                object,
                base,
                0,
                size,
                flags,
                MapPolicy::Eager,
                PageSize::Size4K,
                None,
            )
            .map_err(|e| match e {
                OsError::Mem(sjmp_mem::MemError::AlreadyMapped(va)) => {
                    SjError::AddressConflict(format!("address {va} already mapped"))
                }
                other => SjError::Os(other),
            })?;
        self.segment_mut(sid)?.add_attach();
        self.attachments
            .get_mut(&vh)
            .expect("validated above")
            .local_segments
            .push((sid, mode));
        Ok(())
    }

    /// `seg_detach(vid, sid)`: removes a global segment from a VAS. The
    /// translations vanish from every attached process (shared subtree),
    /// with a TLB shootdown.
    ///
    /// # Errors
    ///
    /// Permission failures; [`SjError::Busy`] if the segment's lock is
    /// held by anyone switched into this VAS.
    pub fn seg_detach(&mut self, pid: Pid, vid: VasId, sid: SegId) -> SjResult<()> {
        self.kernel.charge_entry(self.ctx(pid), Some(pid));
        let creds = self.kernel.process(pid)?.creds();
        {
            let v = self.vas(vid)?;
            if !v.acl().allows(creds, Access::Write) {
                return Err(SjError::PermissionDenied);
            }
            if v.segment_mode(sid).is_none() {
                return Err(SjError::NotFound);
            }
        }
        if !self.segment(sid)?.lock().is_free() {
            return Err(SjError::Busy("segment lock held"));
        }
        let (base, size, object) = {
            let s = self.segment(sid)?;
            (s.base(), s.size(), s.object())
        };
        let template_root = self.vas(vid)?.template_root();
        paging::unmap_region(self.kernel.phys_mut(), template_root, base, size)
            .map_err(OsError::from)?;
        self.kernel
            .unregister_external_mapping(object, template_root);
        self.kernel.flush_all_tlbs();
        self.vas_mut(vid)?.remove_segment(sid);
        self.segment_mut(sid)?.drop_attach();
        // Remove bookkeeping regions from attached vmspaces.
        let spaces: Vec<VmspaceId> = {
            let v = self.vas(vid)?;
            v.attached_pids()
                .filter_map(|p| v.handle_of(p))
                .filter_map(|h| self.attachments.get(&h).map(|a| a.vmspace))
                .collect()
        };
        for space in spaces {
            if self
                .kernel
                .vmspace_mut(space)?
                .remove_region(base)
                .is_some()
            {
                let obj = self.segment(sid)?.object();
                self.kernel.vmobject_mut(obj)?.drop_ref();
            }
        }
        Ok(())
    }

    /// `seg_ctl(sid, cmd)`.
    ///
    /// # Errors
    ///
    /// Permission failures; [`SjError::Busy`] destroying an attached or
    /// locked segment.
    pub fn seg_ctl(&mut self, pid: Pid, sid: SegId, cmd: SegCtl) -> SjResult<()> {
        self.kernel.charge_entry(self.ctx(pid), Some(pid));
        let creds = self.kernel.process(pid)?.creds();
        {
            let s = self.segment(sid)?;
            let owner = s.acl().owner();
            if creds.uid != 0 && creds.uid != owner.uid {
                return Err(SjError::PermissionDenied);
            }
        }
        match cmd {
            SegCtl::SetMode(mode) => self.segment_mut(sid)?.acl_mut().set_mode(mode),
            SegCtl::SetLockable(lockable) => self.segment_mut(sid)?.set_lockable(lockable),
            SegCtl::Destroy => {
                {
                    let s = self.segment(sid)?;
                    if s.attach_count() > 0 {
                        return Err(SjError::Busy("segment attached to a VAS"));
                    }
                    if !s.lock().is_free() {
                        return Err(SjError::Busy("segment lock held"));
                    }
                }
                self.seg_destroy(sid)?;
            }
        }
        Ok(())
    }

    /// Unregisters a segment no VAS or attachment maps, deletes its
    /// capabilities and frees its backing object.
    fn seg_destroy(&mut self, sid: SegId) -> SjResult<()> {
        let s = self.segments.remove(&sid).ok_or(SjError::NotFound)?;
        self.seg_names.remove(s.name());
        self.delete_caps(ObjClass::Segment, sid.0);
        self.kernel.free_object(s.object())?;
        Ok(())
    }

    /// Deletes every live process's capability for the destroyed object
    /// `id` of `class` (only Barrelfish hands them out), uncharged.
    fn delete_caps(&mut self, class: ObjClass, id: u64) {
        for pid in self.kernel.process_ids() {
            if let Ok(process) = self.kernel.process_mut(pid) {
                process.cspace_mut().delete_object(class, id);
            }
        }
    }

    // ---- helpers ----------------------------------------------------------

    /// The hardware thread `pid` executes on (its pinned core), falling
    /// back to the boot core when the process is unknown (e.g. already
    /// mid-reap) — the caller still needs a truthful core to charge and
    /// stamp.
    fn ctx(&self, pid: Pid) -> CoreCtx {
        self.kernel.ctx_of(pid).unwrap_or(CoreCtx::BOOT)
    }

    /// Runs `body` inside a `kind` trace span on `ctx`'s core, as the
    /// kernel's own `span` does for kernel code; point events go through
    /// [`Kernel::instant`]. Spans charge nothing.
    fn span<T>(
        &mut self,
        ctx: CoreCtx,
        kind: EventKind,
        arg: u64,
        body: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let core = ctx.core as u32;
        let begin = self.kernel.clocks().now_on(ctx.core);
        self.kernel.tracer().begin(begin, core, kind, arg);
        let out = body(self);
        let end = self.kernel.clocks().now_on(ctx.core);
        self.kernel.tracer().end(end, core, kind, arg);
        out
    }

    /// Maps the process's private regions (text/data/stack/heap) into a
    /// new vmspace instance — the runtime-library bookkeeping of
    /// Section 4.1.
    fn remap_private_regions(&mut self, pid: Pid, space: VmspaceId) -> SjResult<()> {
        let initial = self.kernel.process(pid)?.initial_space();
        let regions: Vec<Region> = self
            .kernel
            .vmspace(initial)?
            .regions()
            .filter(|r| r.start < PRIVATE_HI)
            .cloned()
            .collect();
        for r in regions {
            self.kernel.map_object(
                space,
                r.object,
                r.start,
                r.object_offset,
                r.len,
                r.flags,
                MapPolicy::Eager,
                PageSize::Size4K,
                None,
            )?;
        }
        Ok(())
    }

    /// Links a segment's shared subtrees into a process vmspace and
    /// records the region.
    fn link_segment(
        &mut self,
        ctx: CoreCtx,
        space: VmspaceId,
        template_root: sjmp_mem::Pfn,
        sid: SegId,
        mode: AttachMode,
    ) -> SjResult<()> {
        let (base, size, object, slots) = {
            let s = self.segment(sid)?;
            (
                s.base(),
                s.size(),
                s.object(),
                s.pml4_slots().collect::<Vec<_>>(),
            )
        };
        let root = self.kernel.vmspace(space)?.root();
        for slot in slots {
            paging::link_subtree(self.kernel.phys_mut(), root, template_root, slot)
                .map_err(OsError::from)?;
            self.kernel.vmspace_mut(space)?.mark_shared_slot(slot);
            let splice = self.kernel.cost().table_splice;
            self.kernel.clocks().advance(ctx.core, splice);
        }
        let vs = self.kernel.vmspace_mut(space)?;
        vs.insert_region(Region {
            start: base,
            len: size,
            object,
            object_offset: 0,
            flags: attach_flags(mode),
            policy: MapPolicy::Lazy,
        })
        .map_err(OsError::from)?;
        self.kernel.vmobject_mut(object)?.add_ref();
        Ok(())
    }

    /// The mode in which `pid`'s *current* VAS maps `sid`, if it does
    /// (used during rollback to restore held locks).
    fn previous_mode(&self, pid: Pid, sid: SegId) -> Option<AttachMode> {
        let vh = self.current.get(&pid)?;
        let att = self.attachments.get(vh)?;
        if let Some((_, m)) = att.local_segments.iter().find(|(s, _)| *s == sid) {
            return Some(*m);
        }
        self.vases.get(&att.vid).and_then(|v| v.segment_mode(sid))
    }

    /// Releases locks held for the current VAS, except those in `keep`.
    fn release_current_locks(&mut self, pid: Pid, keep: &[(SegId, AttachMode)]) -> SjResult<()> {
        let ctx = self.ctx(pid);
        let Some(att) = self
            .current
            .get(&pid)
            .and_then(|vh| self.attachments.get(vh))
        else {
            return Ok(());
        };
        let vas_segments = self.vases.get(&att.vid).map_or(&[][..], |v| v.segments());
        for &(sid, _) in vas_segments.iter().chain(&att.local_segments) {
            if keep.iter().any(|&(k, _)| k == sid) {
                continue;
            }
            if let Some(seg) = self.segments.get_mut(&sid) {
                let lock = seg.lock_mut();
                let held = lock.held_by(pid);
                lock.release(pid);
                if held {
                    self.kernel
                        .instant(ctx, EventKind::LockRelease, sid.0, pid.0);
                }
            }
        }
        Ok(())
    }
}

/// Leaf PTE flags for a segment mapped in `mode`.
fn attach_flags(mode: AttachMode) -> PteFlags {
    match mode {
        AttachMode::ReadOnly => PteFlags::USER | PteFlags::NO_EXECUTE,
        AttachMode::ReadWrite => PteFlags::USER | PteFlags::WRITABLE | PteFlags::NO_EXECUTE,
    }
}
