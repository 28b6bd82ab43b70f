//! The simulated kernel: processes, address spaces, and system calls.
//!
//! [`Kernel`] assembles the machine (physical memory plus a
//! [`Machine`] of hardware threads — one MMU and one cycle clock per
//! core) and implements the classical OS surface SpaceJMP builds on and
//! is compared against:
//!
//! * one `mmap` ([`Kernel::sys_mmap`]) and `munmap` with **eager
//!   page-table construction** — the legacy path whose cost Figure 1
//!   measures, its superpage alternative (Section 6), and the remap the
//!   MAP design of the GUPS experiment (Section 5.2) uses to re-window
//!   memory;
//! * demand faulting for lazily-populated regions;
//! * vmspace creation/destruction and **vmspace switching** with the
//!   Table 2 cost structure (kernel entry + bookkeeping + CR3 load);
//! * per-flavor kernel-entry costs: DragonFly system calls vs Barrelfish
//!   capability invocations.
//!
//! The SpaceJMP object model (VASes, lockable segments) lives one layer up
//! in `spacejmp-core`, exactly as the paper layers it over the BSD memory
//! subsystem.
//!
//! # Core attribution
//!
//! Every syscall executes on an explicit hardware thread, named by a
//! [`CoreCtx`] that the call resolves from the calling process's pinned
//! core ([`Kernel::ctx_of`]). All modeled costs — kernel entry,
//! page-table walks and construction, faults, swaps — accrue to the
//! executing core's clock, and every trace event is stamped with that
//! core. The reclaim scan is the one exception: it runs kswapd-style on
//! the boot core ([`CoreCtx::BOOT`]) regardless of who triggered it.

use sjmp_blk::{BlkError, BlkHooks, BlkStats, BlockDev, FlushFault, SnapshotStore, WriteFault};
use sjmp_mem::backend::Backend;
use sjmp_mem::cost::{
    CoreClocks, CoreCtx, CostModel, CycleClock, KernelFlavor, MachineId, MachineProfile,
};
use sjmp_mem::machine::Machine;
use sjmp_mem::mmu::MmuStats;
use sjmp_mem::paging::{self, PteFlags};
use sjmp_mem::tlb::TlbStats;
use sjmp_mem::{Access, Asid, MemError, Mmu, PageSize, Pfn, PhysMem, VirtAddr, PAGE_SIZE};
use sjmp_sim::IdTable;
use sjmp_trace::{EventKind, MetricsSnapshot, Tracer};

use crate::acl::Creds;
use crate::error::OsError;
use crate::fault::{FaultOutcome, FaultPlan, FaultSite};
use crate::process::{Pid, Process};
use crate::vmobject::{Backing, PageSource, PageState, VmObject, VmObjectId};
use crate::vmspace::{MapPolicy, Region, Vmspace, VmspaceId};

/// Lowest address of the process-private range (text, stack, heap).
pub const PRIVATE_LO: VirtAddr = VirtAddr::new_unchecked(0x0000_0000_1000);
/// One past the highest private address. Global segments live above this,
/// which is how the DragonFly implementation "avoids \[collisions\] by
/// ensuring both globally visible and process-private segments are
/// created in disjoint address ranges" (Section 4.1).
pub const PRIVATE_HI: VirtAddr = VirtAddr::new_unchecked(0x1000_0000_0000);
/// Lowest address for globally shared segments.
pub const GLOBAL_LO: VirtAddr = VirtAddr::new_unchecked(0x1000_0000_0000);
/// One past the highest global address (top of the canonical lower half).
pub const GLOBAL_HI: VirtAddr = VirtAddr::new_unchecked(0x8000_0000_0000);

/// Default base of the process text segment.
pub const TEXT_BASE: VirtAddr = VirtAddr::new_unchecked(0x0000_0040_0000);
/// Default base of the process globals segment.
pub const DATA_BASE: VirtAddr = VirtAddr::new_unchecked(0x0000_0080_0000);
/// Top of the process stack (grows down).
pub const STACK_TOP: VirtAddr = VirtAddr::new_unchecked(0x0fff_ffff_f000);
/// Default stack size.
pub const STACK_SIZE: u64 = 256 * 1024;
/// Base of the private mmap/heap arena.
pub const MMAP_BASE: VirtAddr = VirtAddr::new_unchecked(0x0001_0000_0000);

/// Result alias for kernel operations.
pub type OsResult<T> = Result<T, OsError>;

/// Where the memory of a [`Kernel::sys_mmap`] comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmapSource {
    /// Fresh memory owned by the caller, mapped with pages of this size.
    New(PageSize),
    /// `obj`'s bytes from `offset` on, mapped with 4 KiB pages.
    Object {
        /// The existing object to map.
        obj: VmObjectId,
        /// Byte offset into `obj` of the mapping's first page.
        offset: u64,
    },
}

/// Frames a single pressure-triggered reclaim pass tries to free: enough
/// to amortize the scan without purging the whole machine.
const RECLAIM_BATCH: u64 = 16;

/// Block size of the snapshot disk (matches the page size, like the
/// 4 KiB-sector NVMe devices the cost model is calibrated against).
pub const DISK_BLOCK_SIZE: u64 = 4096;

sjmp_trace::counter_group! {
    /// Counters for kernel events.
    pub struct KernelStats {
        /// System calls / capability invocations serviced.
        kernel_entries => "kernel.entries",
        /// vmspace switches performed.
        space_switches => "kernel.space_switches",
        /// Page faults handled.
        faults_handled => "kernel.faults_handled",
        /// mmap calls serviced.
        mmaps => "kernel.mmaps",
        /// munmap calls serviced.
        munmaps => "kernel.munmaps",
        /// Pages evicted to swap by the reclaim scan.
        evictions => "kernel.evictions",
        /// Faults that had to read a page back from swap.
        major_faults => "kernel.major_faults",
        /// Reclaim passes run (watermark, allocation-retry, or explicit).
        reclaim_passes => "kernel.reclaim_passes",
        /// Allocations denied because a process exceeded its memory quota.
        quota_denials => "kernel.quota_denials",
    }
}

/// Free-frame multiple of the low watermark below which pressure reads
/// [`PressureLevel::Elevated`].
const PRESSURE_ELEVATED_FACTOR: u64 = 4;

/// Memory-pressure level derived from free frames vs. the low
/// watermark, reported by [`Kernel::mem_pressure`]. Overload-control
/// layers use it to degrade service (e.g. flip a shard read-only)
/// instead of running into quota denials and the OOM killer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PressureLevel {
    /// Free memory comfortably above the watermark.
    #[default]
    Normal,
    /// Free memory within `PRESSURE_ELEVATED_FACTOR`× the watermark:
    /// reclaim will start soon; shed optional work.
    Elevated,
    /// Free memory at or below the watermark: reclaim is active and the
    /// OOM killer is the next escalation; stop accepting writes.
    Critical,
}

impl PressureLevel {
    /// Short lowercase name (`normal`/`elevated`/`critical`).
    pub fn name(self) -> &'static str {
        match self {
            PressureLevel::Normal => "normal",
            PressureLevel::Elevated => "elevated",
            PressureLevel::Critical => "critical",
        }
    }
}

sjmp_trace::counter_group! {
    /// Physical-memory occupancy, part of every [`KernelSnapshot`]. These
    /// are gauges: a phase delta keeps the current reading.
    pub struct PhysStats: gauges {
        /// Machine capacity in frames (DRAM + NVM tiers).
        total_frames => "phys.total_frames",
        /// Frames currently allocated to objects or page tables.
        allocated_frames => "phys.allocated_frames",
        /// Frames the allocator can still supply (bump region + free list).
        free_frames => "phys.free_frames",
        /// Frames in the NVM capacity tier (0 when none is configured).
        nvm_frames => "phys.nvm_frames",
        /// Swap slots holding evicted page images.
        swap_slots_used => "phys.swap_slots_used",
    }
}

/// One consolidated kernel-state snapshot, returned by
/// [`Kernel::sys_stats`]: every scattered counter family — kernel,
/// physical memory, per-core MMU/TLB (summed), injected faults — plus
/// the clock, in one syscall. Supports [`KernelSnapshot::delta_since`]
/// for phase measurement and flattens to a uniform
/// [`MetricsSnapshot`] for machine-readable export.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelSnapshot {
    /// Total CPU cycles: the per-core clocks summed over every hardware
    /// thread since boot (or the last clock reset). For wall-clock time
    /// under concurrency use [`Kernel::now`] (the per-core maximum);
    /// the two coincide for single-core workloads.
    pub cycles: u64,
    /// Kernel event counters.
    pub kernel: KernelStats,
    /// Physical-memory occupancy gauges.
    pub phys: PhysStats,
    /// MMU counters summed over all cores.
    pub mmu: MmuStats,
    /// TLB counters summed over all cores.
    pub tlb: TlbStats,
    /// Injected-fault counters (zero when no plan is installed).
    pub faults: crate::fault::FaultStats,
    /// Block-device counters: snapshot disk plus swap device.
    pub blk: BlkStats,
}

impl KernelSnapshot {
    /// Counters accumulated since `earlier` (an older snapshot of the
    /// same kernel). Each group applies its own rule: counters and
    /// `cycles` subtract, the `phys` gauges keep `self`'s readings.
    pub fn delta_since(&self, earlier: &KernelSnapshot) -> KernelSnapshot {
        KernelSnapshot {
            cycles: self.cycles - earlier.cycles,
            kernel: self.kernel.delta_since(&earlier.kernel),
            phys: self.phys.delta_since(&earlier.phys),
            mmu: self.mmu.delta_since(&earlier.mmu),
            tlb: self.tlb.delta_since(&earlier.tlb),
            faults: self.faults.delta_since(&earlier.faults),
            blk: self.blk.delta_since(&earlier.blk),
        }
    }

    /// Flattens every group into a uniform [`MetricsSnapshot`] under
    /// the names each group declares (`kernel.space_switches`,
    /// `tlb.misses`…), the form the exporters serialize.
    pub fn to_metrics(&self) -> MetricsSnapshot {
        let mut m = MetricsSnapshot::default();
        m.set_counter("clock.cycles", self.cycles);
        m.extend(self.kernel.counters());
        m.extend(self.phys.counters());
        m.extend(self.mmu.counters());
        m.extend(self.tlb.counters());
        m.extend(self.faults.counters());
        m.extend(self.blk.counters());
        m
    }
}

/// The simulated kernel and machine.
pub struct Kernel {
    flavor: KernelFlavor,
    cost: CostModel,
    phys: PhysMem,
    /// The hardware threads: one MMU (private TLB + CR3 + stats) and one
    /// cycle clock per core.
    machine: Machine,
    processes: IdTable<Pid, Process>,
    vmobjects: IdTable<VmObjectId, VmObject>,
    vmspaces: IdTable<VmspaceId, Vmspace>,
    next_pid: u64,
    next_obj: u64,
    next_space: u64,
    next_asid: u16,
    free_asids: Vec<u16>,
    tagging: bool,
    stats: KernelStats,
    fault: Option<FaultPlan>,
    /// Per-process memory quotas in resident frames.
    quotas: IdTable<Pid, u64>,
    /// Global low watermark: allocations reclaim until at least this many
    /// frames are free. `None` disables pressure handling entirely.
    low_watermark: Option<u64>,
    /// Clock hand of the second-chance reclaim scan: (object id, page).
    reclaim_cursor: (u64, u64),
    /// Mappings of objects through page-table roots the kernel does not
    /// own (the SpaceJMP layer's VAS templates). Eviction must clear the
    /// leaf PTEs there too; clearing the template leaf once covers every
    /// vmspace that links the shared subtree.
    external_maps: IdTable<VmObjectId, Vec<(Pfn, VirtAddr)>>,
    /// Structured event tracer (disabled by default; never advances
    /// the clock, so tracing cannot perturb modeled costs).
    tracer: Tracer,
    /// The snapshot disk: a crash-consistent store for serialized VAS
    /// images, surviving machine restarts via
    /// [`Kernel::take_disk`]/[`Kernel::attach_disk`].
    disk: SnapshotStore,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("flavor", &self.flavor)
            .field("machine", &self.machine.profile().name)
            .field("processes", &self.processes.len())
            .field("vmspaces", &self.vmspaces.len())
            .field("clock", &self.machine.clocks().now())
            .finish()
    }
}

impl Kernel {
    /// Boots a kernel of the given flavor on one of the paper's machines.
    pub fn new(flavor: KernelFlavor, machine: MachineId) -> Self {
        Self::with_profile(flavor, MachineProfile::of(machine), CostModel::default())
    }

    /// Boots with a custom machine profile and cost model.
    pub fn with_profile(flavor: KernelFlavor, profile: MachineProfile, cost: CostModel) -> Self {
        let phys = PhysMem::new(profile.mem_bytes);
        let machine = Machine::new(profile, &cost);
        Kernel {
            flavor,
            cost,
            phys,
            machine,
            processes: IdTable::default(),
            vmobjects: IdTable::default(),
            vmspaces: IdTable::default(),
            next_pid: 1,
            next_obj: 1,
            next_space: 1,
            next_asid: 1,
            free_asids: Vec::new(),
            tagging: false,
            stats: KernelStats::default(),
            fault: None,
            quotas: IdTable::default(),
            low_watermark: None,
            reclaim_cursor: (0, 0),
            external_maps: IdTable::default(),
            tracer: Tracer::disabled(),
            disk: SnapshotStore::new(BlockDev::new(DISK_BLOCK_SIZE)),
        }
    }

    /// Attaches a tracer to the kernel and every core's MMU. Pass
    /// [`Tracer::disabled`] to stop tracing. Recording events never
    /// advances the cycle clock, so modeled costs are bit-identical
    /// with tracing on or off.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.machine.set_tracer(&tracer);
        self.tracer = tracer;
    }

    /// The attached tracer (disabled unless [`Self::set_tracer`] was
    /// called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    // ---- accessors -----------------------------------------------------

    /// The kernel flavor (DragonFly or Barrelfish).
    pub fn flavor(&self) -> KernelFlavor {
        self.flavor
    }

    /// The machine profile.
    pub fn profile(&self) -> &MachineProfile {
        self.machine.profile()
    }

    /// The cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The boot core's (core 0's) cycle clock. Single-actor workloads pin
    /// pid 1 to core 0, so this remains the natural clock for them; for
    /// multi-core workloads prefer [`Self::now`] / [`Self::total_cycles`].
    pub fn clock(&self) -> &CycleClock {
        self.machine.clocks().clock(CoreCtx::BOOT.core)
    }

    /// The full per-core clock set (clones share the counters).
    pub fn clocks(&self) -> &CoreClocks {
        self.machine.clocks()
    }

    /// The simulated machine: one MMU and one clock per hardware thread.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access to the simulated machine.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Number of hardware threads on this machine.
    pub fn num_cores(&self) -> usize {
        self.machine.num_cores()
    }

    /// Global wall-clock time: the maximum over the per-core clocks.
    pub fn now(&self) -> u64 {
        self.machine.clocks().now()
    }

    /// Total CPU cycles: the per-core clocks summed.
    pub fn total_cycles(&self) -> u64 {
        self.machine.clocks().total()
    }

    /// Resets every core's clock to zero (benchmark warm-up boundary).
    pub fn reset_clocks(&self) {
        self.machine.clocks().reset();
    }

    /// The executing-core context for `pid`: the core the scheduler
    /// pinned the process to at spawn.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`] for unknown pids.
    pub fn ctx_of(&self, pid: Pid) -> OsResult<CoreCtx> {
        Ok(CoreCtx::new(self.process(pid)?.core()))
    }

    /// Kernel event counters.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Whether TLB tagging is enabled machine-wide.
    pub fn tagging(&self) -> bool {
        self.tagging
    }

    /// Enables or disables TLB tagging on every core.
    pub fn set_tagging(&mut self, enabled: bool) {
        self.tagging = enabled;
        self.machine.set_tagging(enabled);
    }

    /// Installs a translation backend on every core's MMU: how its
    /// translations are charged. Mappings live in the page tables under
    /// either backend, so this may be called at any time.
    pub fn set_backend(&mut self, backend: Backend) {
        self.machine.set_backend(backend);
    }

    /// Enables or disables the host-side flattened walk cache on every
    /// core (simulated costs are identical either way; only host wall
    /// time changes).
    pub fn set_host_walk_cache(&mut self, enabled: bool) {
        self.machine.set_host_walk_cache(enabled);
    }

    /// Drops every core's host-side walk-cache entries. Callers that
    /// free page tables directly through `paging` (rather than via
    /// [`Kernel::destroy_vmspace`]) must invoke this alongside the free.
    pub fn flush_host_walk_caches(&mut self) {
        self.machine.flush_host_walk_caches();
    }

    /// Split borrow of one core's MMU and physical memory, for direct
    /// load/store simulation.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core_mem(&mut self, core: usize) -> (&mut Mmu, &mut PhysMem) {
        (self.machine.mmu_mut(core), &mut self.phys)
    }

    /// MMU and physical memory for the core `pid` is pinned to.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`] for unknown pids.
    pub fn mem_of(&mut self, pid: Pid) -> OsResult<(&mut Mmu, &mut PhysMem)> {
        let core = self.process(pid)?.core();
        Ok((self.machine.mmu_mut(core), &mut self.phys))
    }

    /// Direct access to physical memory (kernel-internal work).
    pub fn phys_mut(&mut self) -> &mut PhysMem {
        &mut self.phys
    }

    /// Immutable process lookup.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`] for unknown pids.
    pub fn process(&self, pid: Pid) -> OsResult<&Process> {
        self.processes.get(&pid).ok_or(OsError::NoSuchProcess)
    }

    /// Mutable process lookup.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`] for unknown pids.
    pub fn process_mut(&mut self, pid: Pid) -> OsResult<&mut Process> {
        self.processes.get_mut(&pid).ok_or(OsError::NoSuchProcess)
    }

    /// Immutable vmspace lookup.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchSpace`] for unknown ids.
    pub fn vmspace(&self, id: VmspaceId) -> OsResult<&Vmspace> {
        self.vmspaces.get(&id).ok_or(OsError::NoSuchSpace)
    }

    /// Mutable vmspace lookup.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchSpace`] for unknown ids.
    pub fn vmspace_mut(&mut self, id: VmspaceId) -> OsResult<&mut Vmspace> {
        self.vmspaces.get_mut(&id).ok_or(OsError::NoSuchSpace)
    }

    /// Immutable VM object lookup.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchObject`] for unknown ids.
    pub fn vmobject(&self, id: VmObjectId) -> OsResult<&VmObject> {
        self.vmobjects.get(&id).ok_or(OsError::NoSuchObject)
    }

    /// Mutable VM object lookup.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchObject`] for unknown ids.
    pub fn vmobject_mut(&mut self, id: VmObjectId) -> OsResult<&mut VmObject> {
        self.vmobjects.get_mut(&id).ok_or(OsError::NoSuchObject)
    }

    /// Every live process id, ascending. Offline audits (`sjmp-analyze`)
    /// walk these; the fixed order keeps their findings deterministic.
    pub fn process_ids(&self) -> Vec<Pid> {
        self.processes.keys().collect()
    }

    /// Every live vmspace id, ascending (see [`Self::process_ids`]).
    pub fn vmspace_ids(&self) -> Vec<VmspaceId> {
        self.vmspaces.keys().collect()
    }

    /// Every live VM object id, ascending (see [`Self::process_ids`]).
    pub fn vmobject_ids(&self) -> Vec<VmObjectId> {
        self.vmobjects.keys().collect()
    }

    /// Current time on the clock of `ctx`'s core.
    fn now_on(&self, ctx: CoreCtx) -> u64 {
        self.machine.clocks().now_on(ctx.core)
    }

    /// Advances the clock of `ctx`'s core — the single choke point for
    /// charging kernel work to the hardware thread that executes it.
    fn charge(&self, ctx: CoreCtx, cycles: u64) {
        self.machine.clocks().advance(ctx.core, cycles);
    }

    /// Charges page-table construction for an eager mapping of `len`
    /// bytes: the plain series of Figure 1, or the cheaper `cached` rate
    /// when the pages are already hot in the page cache. Superpages
    /// write proportionally fewer entries.
    fn charge_map(&mut self, ctx: CoreCtx, len: u64, cached: bool, page_size: PageSize) {
        let pages = len / page_size.bytes();
        let levels_below = match page_size {
            PageSize::Size4K => pages / 512 + pages / (512 * 512) + 2,
            PageSize::Size2M => pages / 512 + 2,
            PageSize::Size1G => 2,
        };
        let per_pte = if cached {
            self.cost.pte_write_cached
        } else {
            self.cost.pte_construct(len)
        };
        self.charge(ctx, pages * per_pte + levels_below * self.cost.table_alloc);
    }

    /// Charges one kernel entry (syscall or capability invocation) by
    /// `caller` to `ctx`'s core, inside a trace span stamped with that
    /// core and the caller's pid. Calls without a calling process pass
    /// [`CoreCtx::BOOT`] and `None` (pid 0 in the trace).
    pub fn charge_entry(&mut self, ctx: CoreCtx, caller: Option<Pid>) {
        self.stats.kernel_entries += 1;
        let cycles = self.cost.kernel_entry(self.flavor);
        let pid = caller.map_or(0, |p| p.0);
        self.span(ctx, EventKind::KernelEntry, pid, |k| k.charge(ctx, cycles));
    }

    /// Runs `body` inside a `kind` trace span on `ctx`'s core. Spans
    /// charge nothing, so tracing cannot change modeled costs; point
    /// events go through [`Self::instant`].
    fn span<T>(
        &mut self,
        ctx: CoreCtx,
        kind: EventKind,
        arg: u64,
        body: impl FnOnce(&mut Self) -> T,
    ) -> T {
        self.tracer
            .begin(self.now_on(ctx), ctx.core as u32, kind, arg);
        let out = body(self);
        self.tracer
            .end(self.now_on(ctx), ctx.core as u32, kind, arg);
        out
    }

    /// Records a `kind` instant on `ctx`'s core at its current cycle.
    /// Like the kernel's spans, it charges nothing. Always inlined: under
    /// plain `#[inline]` the switch path called it out of line, and
    /// `sjmp_perf`'s `kv_mixed` ran about 4% slower.
    #[inline(always)]
    pub fn instant(&self, ctx: CoreCtx, kind: EventKind, arg0: u64, arg1: u64) {
        self.tracer
            .instant(self.now_on(ctx), ctx.core as u32, kind, arg0, arg1);
    }

    /// Installs (or clears) the crash-fault plan consulted at every
    /// [`FaultSite`]. With no plan installed, fault checks are free.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
    }

    /// The installed fault plan, if any (for reading injection counters).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Consults the fault plan at `site`. `Fail` maps to the site's
    /// natural resource error; `Crash` maps to [`OsError::Crashed`]
    /// (abrupt process death inside the kernel, no cleanup).
    fn fault_gate(&mut self, site: FaultSite) -> OsResult<()> {
        let Some(plan) = self.fault.as_mut() else {
            return Ok(());
        };
        match plan.check(site) {
            FaultOutcome::Pass => Ok(()),
            FaultOutcome::Crash => Err(OsError::Crashed),
            FaultOutcome::Fail => match site {
                FaultSite::ObjectAlloc
                | FaultSite::SpaceAlloc
                | FaultSite::MapRegion
                | FaultSite::Mmap
                | FaultSite::FrameAlloc => Err(OsError::Mem(MemError::OutOfFrames)),
                FaultSite::Munmap
                | FaultSite::Switch
                | FaultSite::SegLock
                | FaultSite::BlkWrite
                | FaultSite::BlkFlush => Err(OsError::WouldBlock),
            },
        }
    }

    /// Consults the fault plan at `site` and hands the raw outcome to
    /// the caller, for sites whose injected behavior is not an error
    /// return (e.g. [`FaultSite::SegLock`], where a `Fail` elides a
    /// lock acquisition in the SpaceJMP layer rather than failing the
    /// switch). With no plan installed this is free and always `Pass`.
    pub fn fault_outcome(&mut self, site: FaultSite) -> FaultOutcome {
        match self.fault.as_mut() {
            Some(plan) => plan.check(site),
            None => FaultOutcome::Pass,
        }
    }

    /// Consults the fault plan at [`FaultSite::FrameAlloc`]. An injected
    /// `Fail` is *transient* frame exhaustion: the kernel absorbs it by
    /// running a reclaim pass before proceeding, so the eviction path is
    /// exercised deterministically even with memory to spare.
    fn frame_alloc_gate(&mut self) -> OsResult<()> {
        let Some(plan) = self.fault.as_mut() else {
            return Ok(());
        };
        match plan.check(FaultSite::FrameAlloc) {
            FaultOutcome::Pass => Ok(()),
            FaultOutcome::Crash => Err(OsError::Crashed),
            FaultOutcome::Fail => {
                self.reclaim(RECLAIM_BATCH);
                Ok(())
            }
        }
    }

    /// Whether the fault plan injects a mid-map failure for this
    /// `map_region` call (checked separately so the partial-progress
    /// simulation can run before the error is raised).
    fn fault_mid_map(&mut self) -> bool {
        self.fault
            .as_mut()
            .is_some_and(|p| p.check(FaultSite::MapRegion) != FaultOutcome::Pass)
    }

    /// Allocates a TLB tag. Used by `vas_ctl` tag hints.
    ///
    /// # Errors
    ///
    /// [`OsError::OutOfAsids`] when all 4095 tags are in use.
    pub fn alloc_asid(&mut self) -> OsResult<Asid> {
        if let Some(a) = self.free_asids.pop() {
            return Ok(Asid(a));
        }
        if self.next_asid > sjmp_mem::tlb::Asid::MAX {
            return Err(OsError::OutOfAsids);
        }
        let a = self.next_asid;
        self.next_asid += 1;
        Ok(Asid(a))
    }

    /// Returns a TLB tag to the pool.
    pub fn free_asid(&mut self, asid: Asid) {
        if asid.is_tagged() {
            self.free_asids.push(asid.0);
        }
    }

    // ---- process lifecycle ----------------------------------------------

    /// Spawns a process: allocates its initial vmspace and maps the
    /// private text/data/stack segments ("A spawned process will still
    /// receive its initial VAS by the OS", Section 3.2).
    ///
    /// # Errors
    ///
    /// Propagates allocation failures.
    pub fn spawn(&mut self, name: &str, creds: Creds) -> OsResult<Pid> {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        let space = self.create_vmspace()?;
        let mut process = Process::new(pid, name, creds, space);
        process.set_core(((pid.0 - 1) as usize) % self.machine.num_cores());
        self.processes.insert(pid, process);
        if let Err(e) = self.spawn_map_private(pid, space) {
            // A failed spawn must leave no trace: no half-built process,
            // no stranded private objects.
            self.processes.remove(&pid);
            let objects: Vec<VmObjectId> = self
                .vmspaces
                .get(&space)
                .map(|vs| vs.regions().map(|r| r.object).collect())
                .unwrap_or_default();
            let _ = self.destroy_vmspace(space);
            for obj in objects {
                if self
                    .vmobjects
                    .get(&obj)
                    .is_some_and(|o| o.refs() == 0 && !o.persistent())
                {
                    let _ = self.free_object(obj);
                }
            }
            return Err(e);
        }
        Ok(pid)
    }

    /// Maps the private segments (text, globals, stack) into a fresh
    /// process's home vmspace. Construction is charged to the core the
    /// process is pinned to.
    fn spawn_map_private(&mut self, pid: Pid, space: VmspaceId) -> OsResult<()> {
        let ctx = self.ctx_of(pid)?;
        for (base, len, flags) in [
            (TEXT_BASE, 64 * 1024, PteFlags::USER),
            (
                DATA_BASE,
                64 * 1024,
                PteFlags::USER | PteFlags::WRITABLE | PteFlags::NO_EXECUTE,
            ),
            (
                VirtAddr::new(STACK_TOP.raw() - STACK_SIZE),
                STACK_SIZE,
                PteFlags::USER | PteFlags::WRITABLE | PteFlags::NO_EXECUTE,
            ),
        ] {
            let obj = self.alloc_object(Some(pid), len, Backing::Dram)?;
            if let Err(e) = self.map_object(
                space,
                obj,
                base,
                0,
                len,
                flags,
                MapPolicy::Eager,
                PageSize::Size4K,
                Some(ctx),
            ) {
                // map_object rolled back its own region and reference;
                // the object now has no mappings left — free it.
                let _ = self.free_object(obj);
                return Err(e);
            }
        }
        Ok(())
    }

    /// Terminates a process, destroying its private vmspaces. Shared
    /// objects survive (their lifetime is managed by the SpaceJMP layer).
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`] for unknown pids.
    pub fn exit(&mut self, pid: Pid) -> OsResult<()> {
        self.teardown_process(pid)
    }

    /// Reclaims an abruptly-dead process — the kernel-side answer to a
    /// crash: no cooperation from the process is required or possible.
    /// Its vmspaces are destroyed (unless another live process still
    /// holds them), their ASIDs return to the pool, any core still
    /// running one of the destroyed spaces is parked, and process-private
    /// objects whose last mapping died with the process are freed.
    ///
    /// Segment locks and SpaceJMP attachments are *not* visible at this
    /// layer; `SpaceJmp::reap_process` revokes those first and then calls
    /// here.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`] for unknown (or already-reaped) pids.
    pub fn kill(&mut self, pid: Pid) -> OsResult<()> {
        self.teardown_process(pid)
    }

    /// Shared teardown behind [`Self::exit`] and [`Self::kill`]. Never
    /// consults the fault plan: reclamation must always run to
    /// completion.
    fn teardown_process(&mut self, pid: Pid) -> OsResult<()> {
        let process = self.processes.remove(&pid).ok_or(OsError::NoSuchProcess)?;
        let mut touched: Vec<VmObjectId> = Vec::new();
        for space in process.spaces() {
            // A vmspace may be attached to several processes; destroy it
            // only once no live process still holds it.
            if self.processes.values().any(|p| p.holds_space(*space)) {
                continue;
            }
            let Some(vs) = self.vmspaces.get(space) else {
                continue;
            };
            let root = vs.root();
            touched.extend(vs.regions().map(|r| r.object));
            self.destroy_vmspace(*space)?;
            // Park any core whose CR3 still points at the freed tables.
            for mmu in self.machine.mmus_mut() {
                if mmu.cr3() == Some(root) {
                    mmu.clear_cr3();
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for obj in touched {
            if self
                .vmobjects
                .get(&obj)
                .is_some_and(|o| o.refs() == 0 && !o.persistent())
            {
                self.free_object(obj)?;
            }
        }
        self.quotas.remove(&pid);
        Ok(())
    }

    // ---- vm objects ------------------------------------------------------

    /// Allocates an anonymous VM object of `len` bytes on `backing`,
    /// charged to `owner`'s memory quota (an NVM object has no owner).
    ///
    /// Every backing consults the `ObjectAlloc` fault site. The backings
    /// that reserve DRAM at creation ([`Backing::Dram`] and
    /// [`Backing::Aligned`]) then take the pressure-checked path: the
    /// `FrameAlloc` fault site, the owner's quota, and reclaim toward the
    /// low watermark, before the frame allocator is touched. A
    /// [`Backing::Demand`] object is swappable and takes no frame yet.
    ///
    /// # Errors
    ///
    /// * [`OsError::QuotaExceeded`] if the owner is over quota even after
    ///   reclaiming its own pages.
    /// * [`OsError::OutOfMemory`] if reclaim cannot free enough frames.
    /// * [`OsError::Mem`] for a zero length, an aligned range that does
    ///   not fit, or a missing or exhausted NVM tier.
    pub fn alloc_object(
        &mut self,
        owner: Option<Pid>,
        len: u64,
        backing: Backing,
    ) -> OsResult<VmObjectId> {
        self.fault_gate(FaultSite::ObjectAlloc)?;
        if matches!(backing, Backing::Dram | Backing::Aligned(_)) {
            let space = owner.and_then(|p| self.process(p).ok().map(|pr| pr.current_space()));
            self.ensure_frames(owner, space, len.div_ceil(PAGE_SIZE), len)?;
        }
        self.insert_object(|phys, id| {
            let mut obj = match backing {
                Backing::Dram => VmObject::alloc(phys, id, len)?,
                Backing::Aligned(page_size) => {
                    VmObject::alloc_aligned(phys, id, len, page_size.bytes())?
                }
                Backing::Demand => {
                    let mut obj = VmObject::alloc_demand(id, len)?;
                    obj.set_swappable(true);
                    obj
                }
                Backing::Nvm => return VmObject::alloc_nvm(phys, id, len),
            };
            obj.set_owner(owner);
            Ok(obj)
        })
    }

    /// Takes the next object id, builds the object under it with `build`
    /// and registers it. A failed build still uses up the id.
    fn insert_object(
        &mut self,
        build: impl FnOnce(&mut PhysMem, VmObjectId) -> Result<VmObject, MemError>,
    ) -> OsResult<VmObjectId> {
        let id = VmObjectId(self.next_obj);
        self.next_obj += 1;
        let obj = build(&mut self.phys, id)?;
        self.vmobjects.insert(id, obj);
        Ok(id)
    }

    /// Configures an NVM tier covering the top `nvm_bytes` of physical
    /// memory (the paper's Section 7: "a co-packaged volatile performance
    /// tier, a persistent capacity tier").
    pub fn set_nvm_tier(&mut self, nvm_bytes: u64) {
        self.phys.set_nvm_tier(nvm_bytes);
    }

    /// Frees an unreferenced VM object.
    ///
    /// # Errors
    ///
    /// * [`OsError::NoSuchObject`] for unknown ids.
    /// * [`OsError::Conflict`] if still mapped somewhere.
    pub fn free_object(&mut self, id: VmObjectId) -> OsResult<()> {
        let obj = self.vmobjects.remove(&id).ok_or(OsError::NoSuchObject)?;
        if obj.refs() > 0 {
            let err = OsError::Conflict(format!("object {id:?} still mapped"));
            self.vmobjects.insert(id, obj);
            return Err(err);
        }
        self.external_maps.remove(&id);
        obj.free(&mut self.phys);
        Ok(())
    }

    // ---- vmspaces --------------------------------------------------------

    /// Creates an empty vmspace with a fresh root table.
    ///
    /// # Errors
    ///
    /// Propagates physical allocation failure.
    pub fn create_vmspace(&mut self) -> OsResult<VmspaceId> {
        self.fault_gate(FaultSite::SpaceAlloc)?;
        let id = VmspaceId(self.next_space);
        self.next_space += 1;
        let root = paging::new_root(&mut self.phys)?;
        self.vmspaces.insert(id, Vmspace::new(id, root));
        Ok(id)
    }

    /// Destroys a vmspace, dropping object references and freeing its
    /// private page tables (shared subtrees are left alone).
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchSpace`] for unknown ids.
    pub fn destroy_vmspace(&mut self, id: VmspaceId) -> OsResult<()> {
        let space = self.vmspaces.remove(&id).ok_or(OsError::NoSuchSpace)?;
        for region in space.regions() {
            if let Some(obj) = self.vmobjects.get_mut(&region.object) {
                obj.drop_ref();
            }
        }
        self.free_asid(space.asid());
        paging::free_tables(&mut self.phys, space.root(), space.shared_slots());
        // The freed frames may be recycled into a new space's tables;
        // drop any host-side walks memoized under this root.
        self.machine.flush_host_walk_caches();
        Ok(())
    }

    /// Maps `len` bytes of `obj` starting at `obj_offset` into `space` at
    /// `va`. With [`MapPolicy::Eager`] the page tables are constructed
    /// immediately with `page_size` leaves (a paged object's resident
    /// pages, and lazy mappings, are mapped at 4 KiB); `charge` names the
    /// core billed for construction cycles (setup code passes `None`,
    /// measured paths the executing core).
    ///
    /// Every eager mapping, `sys_mmap` included, is built here, so this is
    /// the one rollback: when construction fails, the page tables, the
    /// region and the object reference all go, and a failed map leaves no
    /// trace.
    ///
    /// # Errors
    ///
    /// * Overlap/alignment errors from the region map or the page tables.
    /// * [`OsError::NoSuchObject`] / [`OsError::NoSuchSpace`].
    /// * [`OsError::InvalidArgument`] if the range is empty or exceeds the
    ///   object.
    #[allow(clippy::too_many_arguments)]
    pub fn map_object(
        &mut self,
        space: VmspaceId,
        obj: VmObjectId,
        va: VirtAddr,
        obj_offset: u64,
        len: u64,
        flags: PteFlags,
        policy: MapPolicy,
        page_size: PageSize,
        charge: Option<CoreCtx>,
    ) -> OsResult<()> {
        let contiguous_pa = {
            let o = self.vmobject(obj)?;
            if len == 0 || obj_offset + len > o.len() {
                return Err(OsError::InvalidArgument("empty or beyond the object"));
            }
            if o.is_contiguous() {
                Some(o.pa(obj_offset))
            } else {
                None
            }
        };
        {
            let vs = self.vmspaces.get_mut(&space).ok_or(OsError::NoSuchSpace)?;
            vs.insert_region(Region {
                start: va,
                len,
                object: obj,
                object_offset: obj_offset,
                flags,
                policy,
            })?;
        }
        self.vmobject_mut(obj)?.add_ref();
        if policy == MapPolicy::Eager {
            let root = self.vmspace(space)?.root();
            // An injected mid-map fault mimics frame exhaustion partway
            // through eager construction: the first half of the region
            // (whole pages, at least one) gets mapped, then the call
            // fails.
            let mid_map_fault = self.fault_mid_map();
            let map_len = if mid_map_fault {
                let ps = page_size.bytes();
                ((len / 2 / ps).max(1) * ps).min(len)
            } else {
                len
            };
            let attempt = match contiguous_pa {
                Some(pa) => {
                    paging::map_region(&mut self.phys, root, va, pa, map_len, page_size, flags)
                }
                None => self.map_paged_eager(root, obj, va, obj_offset, map_len, flags),
            }
            .and_then(|stats| {
                if mid_map_fault {
                    Err(MemError::OutOfFrames)
                } else {
                    Ok(stats)
                }
            });
            match attempt {
                Ok(stats) => {
                    if let Some(ctx) = charge {
                        let per_pte = self.cost.pte_construct(len);
                        self.charge(
                            ctx,
                            stats.ptes_written * per_pte
                                + stats.tables_allocated * self.cost.table_alloc,
                        );
                    }
                }
                Err(e) => {
                    // Transactional rollback: clear whatever portion got
                    // mapped (holes are skipped), remove the region, and
                    // drop the object reference.
                    let _ = paging::unmap_region(&mut self.phys, root, va, len);
                    if let Some(vs) = self.vmspaces.get_mut(&space) {
                        vs.remove_region(va);
                    }
                    if let Some(o) = self.vmobjects.get_mut(&obj) {
                        o.drop_ref();
                    }
                    return Err(e.into());
                }
            }
        }
        Ok(())
    }

    /// Eagerly maps the *resident* pages among the first `len` bytes of a
    /// paged object's range; non-resident pages (demand-zero or swapped)
    /// are left to the fault path.
    fn map_paged_eager(
        &mut self,
        root: Pfn,
        obj: VmObjectId,
        va: VirtAddr,
        obj_offset: u64,
        len: u64,
        flags: PteFlags,
    ) -> Result<paging::MapStats, MemError> {
        let mut total = paging::MapStats::default();
        for i in 0..len.div_ceil(PAGE_SIZE) {
            let index = obj_offset / PAGE_SIZE + i;
            let Some(pfn) = self
                .vmobjects
                .get(&obj)
                .ok_or(MemError::OutOfFrames)?
                .frame_of_page(index)
            else {
                continue;
            };
            let s = paging::map(
                &mut self.phys,
                root,
                va.add(i * PAGE_SIZE),
                pfn.base(),
                PageSize::Size4K,
                flags,
            )?;
            total.ptes_written += s.ptes_written;
            total.tables_allocated += s.tables_allocated;
        }
        Ok(total)
    }

    /// Removes the mapping starting at `va` from `space`, clearing its
    /// page-table entries. `charge` names the core billed for the PTE
    /// clears (`None` for uncharged setup/teardown).
    ///
    /// # Errors
    ///
    /// [`OsError::InvalidArgument`] if no region starts at `va`.
    pub fn unmap_object(
        &mut self,
        space: VmspaceId,
        va: VirtAddr,
        charge: Option<CoreCtx>,
    ) -> OsResult<()> {
        let (len, obj, root) = {
            let vs = self.vmspaces.get_mut(&space).ok_or(OsError::NoSuchSpace)?;
            let region = vs
                .remove_region(va)
                .ok_or(OsError::InvalidArgument("no region starts here"))?;
            (region.len, region.object, vs.root())
        };
        if let Some(o) = self.vmobjects.get_mut(&obj) {
            o.drop_ref();
        }
        let stats = paging::unmap_region(&mut self.phys, root, va, len)?;
        if let Some(ctx) = charge {
            self.charge(ctx, stats.ptes_cleared * self.cost.pte_clear);
        }
        // Invalidate stale TLB entries on every core (shootdown).
        self.flush_all_tlbs();
        Ok(())
    }

    // ---- legacy mmap/munmap (the Figure 1 path) --------------------------

    /// `mmap`-style call: eagerly maps `len` bytes from `source` into the
    /// caller's *current* vmspace, at an address the kernel picks in the
    /// private mmap arena, and returns that address.
    ///
    /// * [`MmapSource::New`] allocates fresh memory owned by the caller:
    ///   DRAM at 4 KiB pages (the Figure 1 path), or naturally aligned
    ///   contiguous memory mapped with 2 MiB or 1 GiB superpages (the
    ///   Section 6 alternative: "large pages have been touted as a way to
    ///   mitigate TLB flushing cost").
    /// * [`MmapSource::Object`] maps part of an existing object at 4 KiB
    ///   pages: the remap the GUPS MAP design uses to re-window a large
    ///   physical table.
    ///
    /// A superpage length must be a multiple of the page size; any other
    /// length rounds up to whole 4 KiB pages. `cached` models mapping
    /// pages that are already hot in the page cache (Figure 1's cheaper
    /// `cached` series, charged at the cached per-PTE rate); uncached
    /// mappings pay the full construction cost per page.
    ///
    /// # Errors
    ///
    /// * [`OsError::InvalidArgument`] for a zero length, or when the
    ///   private address space has no room.
    /// * [`OsError::Misaligned`] for a superpage length that is not a
    ///   multiple of the page size.
    /// * Physical memory exhaustion, and the errors of
    ///   [`Self::map_object`].
    pub fn sys_mmap(
        &mut self,
        pid: Pid,
        source: MmapSource,
        len: u64,
        flags: PteFlags,
        cached: bool,
    ) -> OsResult<VirtAddr> {
        let ctx = self.ctx_of(pid)?;
        self.span(ctx, EventKind::Mmap, pid.0, |k| {
            k.charge_entry(ctx, Some(pid));
            k.stats.mmaps += 1;
            k.fault_gate(FaultSite::Mmap)?;
            let page_size = match source {
                MmapSource::New(page_size) => page_size,
                MmapSource::Object { .. } => PageSize::Size4K,
            };
            let superpage = page_size != PageSize::Size4K;
            if len == 0 {
                return Err(OsError::InvalidArgument("zero-length mmap"));
            }
            if superpage && !len.is_multiple_of(page_size.bytes()) {
                return Err(OsError::Misaligned {
                    requested: len,
                    page_size,
                });
            }
            let len = len.div_ceil(PAGE_SIZE) * PAGE_SIZE;
            let space = k.process(pid)?.current_space();
            // A superpage mapping reserves one page more, so that its
            // start can be aligned up to the page size.
            let reserve = if superpage {
                len + page_size.bytes()
            } else {
                len
            };
            let va = k
                .vmspace(space)?
                .find_free(MMAP_BASE, PRIVATE_HI, reserve)
                .ok_or(OsError::InvalidArgument("out of private address space"))?
                .align_up(page_size.bytes());
            let (obj, offset) = match source {
                MmapSource::New(_) => {
                    // Superpages need naturally aligned, physically
                    // contiguous backing.
                    let backing = if superpage {
                        Backing::Aligned(page_size)
                    } else {
                        Backing::Dram
                    };
                    (k.alloc_object(Some(pid), len, backing)?, 0)
                }
                MmapSource::Object { obj, offset } => (obj, offset),
            };
            let policy = MapPolicy::Eager;
            if let Err(e) =
                k.map_object(space, obj, va, offset, len, flags, policy, page_size, None)
            {
                // map_object rolled its own state back; a fresh object
                // has no other referents, so reclaim it too.
                if let MmapSource::New(_) = source {
                    let _ = k.free_object(obj);
                }
                return Err(e);
            }
            k.charge_map(ctx, len, cached, page_size);
            Ok(va)
        })
    }

    /// `munmap`-style call on the caller's current vmspace.
    ///
    /// `cached` skips the page-putback accounting, mirroring Figure 1's
    /// cheaper `unmap (cached)` series.
    ///
    /// # Errors
    ///
    /// [`OsError::InvalidArgument`] if `va` does not start a mapping.
    pub fn sys_munmap(&mut self, pid: Pid, va: VirtAddr, cached: bool) -> OsResult<()> {
        let ctx = self.ctx_of(pid)?;
        self.span(ctx, EventKind::Munmap, pid.0, |k| {
            k.charge_entry(ctx, Some(pid));
            k.stats.munmaps += 1;
            k.fault_gate(FaultSite::Munmap)?;
            let space = k.process(pid)?.current_space();
            let len = k
                .vmspace(space)?
                .find_region(va)
                .filter(|r| r.start == va)
                .map(|r| r.len)
                .ok_or(OsError::InvalidArgument("no region starts here"))?;
            k.unmap_object(space, va, Some(ctx))?;
            if !cached {
                k.charge(ctx, (len / PAGE_SIZE) * k.cost.page_putback);
            }
            Ok(())
        })
    }

    // ---- faults ----------------------------------------------------------

    /// Handles a page fault in `pid`'s current vmspace on the core `pid`
    /// is pinned to: consults the region map and installs the missing
    /// translation (lazy policy).
    ///
    /// For paged objects this is also the major-fault path: demand-zero
    /// pages get a fresh frame, swapped pages are read back from the swap
    /// device (charging the swap-in cost), and frame exhaustion triggers a
    /// reclaim pass before the fault is retried.
    ///
    /// # Errors
    ///
    /// * [`OsError::NoSuchProcess`] for unknown pids.
    /// * [`OsError::Mem`] wrapping the original fault for true violations
    ///   (no region, or access not permitted).
    /// * [`OsError::QuotaExceeded`] if materializing the page would push
    ///   the object's owner past its quota.
    /// * [`OsError::OutOfMemory`] if reclaim cannot produce a frame.
    pub fn handle_fault(&mut self, pid: Pid, va: VirtAddr, access: Access) -> OsResult<()> {
        let process = self.process(pid)?;
        let (ctx, space) = (CoreCtx::new(process.core()), process.current_space());
        self.span(ctx, EventKind::PageFault, pid.0, |k| {
            k.charge_entry(ctx, Some(pid));
            k.stats.faults_handled += 1;
            k.resolve_fault(ctx, pid, space, va, access)
        })
    }

    /// The body of [`Self::handle_fault`] after the kernel entry.
    fn resolve_fault(
        &mut self,
        ctx: CoreCtx,
        pid: Pid,
        space: VmspaceId,
        va: VirtAddr,
        access: Access,
    ) -> OsResult<()> {
        let (obj_id, page_index, flags, root) = {
            let vs = self.vmspace(space)?;
            let region = vs
                .find_region(va)
                .ok_or(OsError::Mem(MemError::PageFault { va, access }))?;
            if !region.permits(access) {
                return Err(OsError::Mem(MemError::ProtectionFault { va, access }));
            }
            let page_va = va.align_down(PAGE_SIZE);
            let offset = region.object_offset + page_va.offset_from(region.start);
            (region.object, offset / PAGE_SIZE, region.flags, vs.root())
        };
        let (is_contiguous, needs_frame, owner) = {
            let obj = self.vmobject(obj_id)?;
            (
                obj.is_contiguous(),
                !matches!(obj.page_state(page_index), PageState::Resident { .. }),
                obj.owner(),
            )
        };
        let pa = if is_contiguous {
            self.vmobject(obj_id)?.pa(page_index * PAGE_SIZE)
        } else {
            if needs_frame {
                self.frame_alloc_gate()?;
                if let Some(owner) = owner {
                    self.enforce_quota(owner, 1)?;
                }
                self.reclaim_to_watermark(1);
            }
            let (pfn, source) = self.fault_in_with_reclaim(pid, space, obj_id, page_index)?;
            if source == PageSource::SwappedIn {
                self.stats.major_faults += 1;
                self.instant(ctx, EventKind::MajorFault, pid.0, page_index);
                let cycles = self.cost.swap_in_page;
                self.span(ctx, EventKind::SwapIn, obj_id.0, |k| k.charge(ctx, cycles));
            }
            pfn.base()
        };
        let page_va = va.align_down(PAGE_SIZE);
        let stats = paging::map(&mut self.phys, root, page_va, pa, PageSize::Size4K, flags)?;
        self.charge(
            ctx,
            stats.ptes_written * self.cost.pte_write
                + stats.tables_allocated * self.cost.table_alloc,
        );
        Ok(())
    }

    /// Makes `page_index` of `obj_id` resident, running a reclaim pass and
    /// retrying once if the frame allocator is exhausted.
    fn fault_in_with_reclaim(
        &mut self,
        pid: Pid,
        space: VmspaceId,
        obj_id: VmObjectId,
        page_index: u64,
    ) -> OsResult<(Pfn, PageSource)> {
        // The object is temporarily removed from the table so it can be
        // mutated alongside physical memory; reclaim runs between the
        // attempts, while the object is back in place.
        for attempt in 0..2 {
            let mut obj = self
                .vmobjects
                .remove(&obj_id)
                .ok_or(OsError::NoSuchObject)?;
            let result = obj.fault_in_page(page_index, &mut self.phys);
            self.vmobjects.insert(obj_id, obj);
            match result {
                Ok(hit) => return Ok(hit),
                Err(MemError::OutOfFrames) if attempt == 0 => {
                    self.reclaim(RECLAIM_BATCH);
                }
                Err(MemError::OutOfFrames) => {
                    return Err(OsError::OutOfMemory {
                        pid: Some(pid),
                        space: Some(space),
                        bytes: PAGE_SIZE,
                        frames_free: self.phys.free_frames(),
                    });
                }
                Err(e) => return Err(e.into()),
            }
        }
        unreachable!("fault_in_with_reclaim loop always returns");
    }

    /// A view of `pid`'s memory that resolves the process's core once,
    /// so a batch of loads and stores through it (an allocator call, a
    /// record append) pays one process-table lookup instead of one per
    /// word. [`Self::load_u64`] and its siblings are one-access views.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`] for unknown pids.
    pub fn proc_mem(&mut self, pid: Pid) -> OsResult<ProcMem<'_>> {
        let core = self.process(pid)?.core();
        Ok(ProcMem {
            kernel: self,
            pid,
            core,
        })
    }

    /// [`Self::proc_mem`] together with the region of `pid`'s current
    /// space that maps `va` (`None` when none does), from one process
    /// lookup: for a caller that checks a mapping's permission before it
    /// accesses memory through it.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`] for unknown pids, then
    /// [`OsError::NoSuchSpace`] if the current space is gone.
    pub fn proc_mem_at(
        &mut self,
        pid: Pid,
        va: VirtAddr,
    ) -> OsResult<(ProcMem<'_>, Option<Region>)> {
        let process = self.process(pid)?;
        let core = process.core();
        let region = self
            .vmspace(process.current_space())?
            .find_region(va)
            .cloned();
        let mem = ProcMem {
            kernel: self,
            pid,
            core,
        };
        Ok((mem, region))
    }

    /// Reads a `u64` at `va` in `pid`'s current space, faulting pages in
    /// as needed — the convenience load path for workloads.
    ///
    /// # Errors
    ///
    /// Unresolvable faults.
    pub fn load_u64(&mut self, pid: Pid, va: VirtAddr) -> OsResult<u64> {
        self.proc_mem(pid)?.load_u64(va)
    }

    /// Writes a `u64` at `va` in `pid`'s current space, faulting pages in
    /// as needed.
    ///
    /// # Errors
    ///
    /// Unresolvable faults.
    pub fn store_u64(&mut self, pid: Pid, va: VirtAddr, value: u64) -> OsResult<()> {
        self.proc_mem(pid)?.store_u64(va, value)
    }

    /// Reads `buf.len()` bytes at `va` in `pid`'s current space, faulting
    /// pages in as needed.
    ///
    /// # Errors
    ///
    /// Unresolvable faults.
    pub fn load_bytes(&mut self, pid: Pid, va: VirtAddr, buf: &mut [u8]) -> OsResult<()> {
        self.proc_mem(pid)?.load_bytes(va, buf)
    }

    /// Writes `buf` at `va` in `pid`'s current space, faulting pages in
    /// as needed.
    ///
    /// # Errors
    ///
    /// Unresolvable faults.
    pub fn store_bytes(&mut self, pid: Pid, va: VirtAddr, buf: &[u8]) -> OsResult<()> {
        self.proc_mem(pid)?.store_bytes(va, buf)
    }

    // ---- switching ---------------------------------------------------------

    /// Switches `pid` to one of its attached vmspaces: kernel entry +
    /// bookkeeping + CR3 load, the Table 2 decomposition. The SpaceJMP
    /// layer calls this after acquiring segment locks. The CR3 load (and
    /// any TLB flush it implies) lands on the core `pid` is pinned to
    /// only: switching on core A can neither warm nor flush core B's TLB.
    ///
    /// # Errors
    ///
    /// * [`OsError::PermissionDenied`] if the process does not hold the
    ///   space.
    pub fn switch_vmspace(&mut self, pid: Pid, space: VmspaceId) -> OsResult<()> {
        let ctx = self.ctx_of(pid)?;
        self.span(ctx, EventKind::SwitchVmspace, pid.0, |k| {
            k.charge_entry(ctx, Some(pid));
            k.stats.space_switches += 1;
            k.fault_gate(FaultSite::Switch)?;
            if !k.process(pid)?.holds_space(space) {
                return Err(OsError::PermissionDenied);
            }
            let (root, asid) = {
                let vs = k.vmspace(space)?;
                (vs.root(), vs.asid())
            };
            let tagged = k.tagging && asid.is_tagged();
            let cycles = k.cost.switch_bookkeeping(k.flavor, tagged);
            k.span(ctx, EventKind::SwitchBook, pid.0, |k| k.charge(ctx, cycles));
            k.machine.mmu_mut(ctx.core).load_cr3(root, asid); // charges the CR3 cost
            k.process_mut(pid)?.set_current_space(space);
            Ok(())
        })
    }

    /// Flushes every core's TLB (global shootdown after shared-mapping
    /// changes).
    pub fn flush_all_tlbs(&mut self) {
        for mmu in self.machine.mmus_mut() {
            mmu.flush_tlb();
        }
    }

    /// Ensures `pid`'s current vmspace is loaded on its core without
    /// charging switch costs (scheduler-style activation for tests and
    /// setup code).
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`] / [`OsError::NoSuchSpace`].
    pub fn activate(&mut self, pid: Pid) -> OsResult<()> {
        let (core, space) = {
            let p = self.process(pid)?;
            (p.core(), p.current_space())
        };
        let (root, asid) = {
            let vs = self.vmspace(space)?;
            (vs.root(), vs.asid())
        };
        if self.machine.mmu(core).cr3() != Some(root) {
            self.machine.mmu_mut(core).load_cr3(root, asid);
        }
        Ok(())
    }

    // ---- memory pressure -------------------------------------------------

    /// Enables the global reclaim loop: allocations that would leave fewer
    /// than `frames` free trigger eviction of unpinned pages first.
    pub fn set_low_watermark(&mut self, frames: Option<u64>) {
        self.low_watermark = frames;
    }

    /// The configured low watermark, if pressure handling is enabled.
    pub fn low_watermark(&self) -> Option<u64> {
        self.low_watermark
    }

    /// The current memory-pressure level, the health signal admission
    /// control polls to flip shards into degraded (read-only) mode
    /// before the OOM killer has to act.
    ///
    /// Reading the signal is free: it is a pure function of allocator
    /// state (free frames vs. the low watermark), charged to no clock,
    /// so pollers cannot perturb modeled costs. With pressure handling
    /// disabled (`low_watermark = None`) the level is always
    /// [`PressureLevel::Normal`]: nothing ever reclaims, so nothing can
    /// meaningfully be "under pressure".
    pub fn mem_pressure(&self) -> PressureLevel {
        let Some(lw) = self.low_watermark else {
            return PressureLevel::Normal;
        };
        let free = self.phys.free_frames();
        if free <= lw {
            // The reclaim loop is (or is about to be) scanning on every
            // allocation; the next step up is the OOM killer.
            PressureLevel::Critical
        } else if free <= lw.saturating_mul(PRESSURE_ELEVATED_FACTOR) {
            PressureLevel::Elevated
        } else {
            PressureLevel::Normal
        }
    }

    /// Sets (or clears) `pid`'s memory quota in resident frames.
    pub fn set_quota(&mut self, pid: Pid, frames: Option<u64>) {
        match frames {
            Some(f) => {
                self.quotas.insert(pid, f);
            }
            None => {
                self.quotas.remove(&pid);
            }
        }
    }

    /// `pid`'s quota in frames, if one is set.
    pub fn quota_of(&self, pid: Pid) -> Option<u64> {
        self.quotas.get(&pid).copied()
    }

    /// Frames currently resident across the objects `pid` owns — the
    /// quota charge and the OOM badness score. Computed on demand from
    /// object metadata, so it cannot drift from reality.
    pub fn resident_frames_of(&self, pid: Pid) -> u64 {
        self.vmobjects
            .values()
            .filter(|o| o.owner() == Some(pid))
            .map(|o| o.resident_pages())
            .sum()
    }

    /// Registers a mapping of `obj` through a page-table root the kernel
    /// does not own (a VAS template). Eviction clears the leaf PTEs
    /// there; because attached vmspaces link the template's subtrees,
    /// clearing the template leaf once covers all of them.
    pub fn register_external_mapping(&mut self, obj: VmObjectId, root: Pfn, base: VirtAddr) {
        let maps = self.external_maps.get_or_insert_with(obj, Vec::new);
        if !maps.contains(&(root, base)) {
            maps.push((root, base));
        }
    }

    /// Removes the external-mapping registrations of `obj` under `root`.
    pub fn unregister_external_mapping(&mut self, obj: VmObjectId, root: Pfn) {
        if let Some(maps) = self.external_maps.get_mut(&obj) {
            maps.retain(|(r, _)| *r != root);
            if maps.is_empty() {
                self.external_maps.remove(&obj);
            }
        }
    }

    /// Clears every leaf PTE translating page `page` of `obj`: regions in
    /// ordinary vmspaces (skipping PML4 slots linked from a template —
    /// the template covers those) and registered external template
    /// mappings. A `SWAPPED` software marker is left behind so a later
    /// walk can tell "evicted" from "never mapped"; the authoritative
    /// state lives in the object.
    fn clear_page_mappings(&mut self, obj: VmObjectId, page: u64) {
        let offset = page * PAGE_SIZE;
        let mut targets: Vec<(Pfn, VirtAddr)> = Vec::new();
        for vs in self.vmspaces.values() {
            for r in vs.regions() {
                if r.object != obj || offset < r.object_offset || offset >= r.object_offset + r.len
                {
                    continue;
                }
                let va = r.start.add(offset - r.object_offset);
                if vs.shared_slots().contains(&va.pml4_index()) {
                    continue;
                }
                targets.push((vs.root(), va));
            }
        }
        if let Some(maps) = self.external_maps.get(&obj) {
            for (root, base) in maps {
                targets.push((*root, base.add(offset)));
            }
        }
        for (root, va) in targets {
            let _ = paging::clear_leaf(&mut self.phys, root, va);
        }
    }

    /// One reclaim pass of the second-chance clock over swappable
    /// objects: referenced resident pages lose their reference bit and
    /// their translations (the "soft" accessed-bit emulation — a page
    /// that is touched again re-references itself through the fault
    /// path); unreferenced pages are evicted to swap. Scans at most two
    /// full revolutions and returns the number of frames freed.
    pub fn reclaim(&mut self, target_frames: u64) -> u64 {
        // The reclaim scan runs kswapd-style on the boot core, whichever
        // core's allocation triggered it.
        let ctx = CoreCtx::BOOT;
        // Not `span`: the end carries the frames freed, not the target.
        self.tracer.begin(
            self.now_on(ctx),
            ctx.core as u32,
            EventKind::ReclaimPass,
            target_frames,
        );
        let freed = self.reclaim_inner(target_frames);
        self.tracer.end(
            self.now_on(ctx),
            ctx.core as u32,
            EventKind::ReclaimPass,
            freed,
        );
        freed
    }

    fn reclaim_inner(&mut self, target_frames: u64) -> u64 {
        self.stats.reclaim_passes += 1;
        let candidates: Vec<(VmObjectId, u64)> = self
            .vmobjects
            .iter()
            .filter(|(_, o)| o.swappable() && !o.pinned())
            .map(|(id, o)| (id, o.pages()))
            .collect();
        let total_pages: u64 = candidates.iter().map(|(_, p)| *p).sum();
        if total_pages == 0 {
            return 0;
        }
        let (cur_obj, cur_page) = self.reclaim_cursor;
        let mut ci = candidates
            .iter()
            .position(|(id, _)| id.0 >= cur_obj)
            .unwrap_or(0);
        let mut page = if ci < candidates.len() && candidates[ci].0 .0 == cur_obj {
            cur_page
        } else {
            0
        };
        let mut freed = 0u64;
        let mut cleared = false;
        let mut steps = 0u64;
        let max_steps = 2 * total_pages;
        while freed < target_frames && steps < max_steps {
            if ci >= candidates.len() {
                ci = 0;
                page = 0;
            }
            let (id, pages) = candidates[ci];
            if page >= pages {
                ci += 1;
                page = 0;
                continue;
            }
            steps += 1;
            self.charge(CoreCtx::BOOT, self.cost.reclaim_scan_page);
            let Some(mut obj) = self.vmobjects.remove(&id) else {
                ci += 1;
                page = 0;
                continue;
            };
            obj.make_paged();
            if obj.take_reference(page) {
                // Second chance: drop the translations so a page that is
                // still hot re-references itself before the hand returns.
                self.clear_page_mappings(id, page);
                cleared = true;
            } else if obj.frame_of_page(page).is_some() {
                self.evict(id, &mut obj, page);
                freed += 1;
                cleared = true;
            }
            self.vmobjects.insert(id, obj);
            page += 1;
        }
        if ci >= candidates.len() {
            ci = 0;
            page = 0;
        }
        self.reclaim_cursor = (candidates[ci].0 .0, page);
        if cleared {
            // One shootdown per pass, not per page.
            self.flush_all_tlbs();
        }
        freed
    }

    /// Forcibly evicts up to `target` resident pages from objects `pid`
    /// owns, ignoring reference bits — the self-reclaim a quota breach
    /// attempts before giving up.
    pub fn reclaim_owned(&mut self, pid: Pid, target: u64) -> u64 {
        let ids: Vec<VmObjectId> = self
            .vmobjects
            .iter()
            .filter(|(_, o)| o.owner() == Some(pid) && o.swappable() && !o.pinned())
            .map(|(id, _)| id)
            .collect();
        let mut freed = 0u64;
        let mut cleared = false;
        'outer: for id in ids {
            let pages = match self.vmobjects.get(&id) {
                Some(o) => o.pages(),
                None => continue,
            };
            for page in 0..pages {
                if freed >= target {
                    break 'outer;
                }
                self.charge(CoreCtx::BOOT, self.cost.reclaim_scan_page);
                let Some(mut obj) = self.vmobjects.remove(&id) else {
                    continue 'outer;
                };
                obj.make_paged();
                if obj.frame_of_page(page).is_some() {
                    self.evict(id, &mut obj, page);
                    freed += 1;
                    cleared = true;
                }
                self.vmobjects.insert(id, obj);
            }
        }
        if cleared {
            self.flush_all_tlbs();
        }
        freed
    }

    /// Evicts resident page `page` of `obj` (taken out of the object
    /// table as `id` by the caller) to swap, on the boot core: its
    /// translations go, then an [`EventKind::Evict`] instant names the
    /// owning process and object and a per-victim page counter ticks,
    /// so every eviction is auditable from the trace; the frame is
    /// freed and the swap write charged inside a [`EventKind::SwapOut`]
    /// span.
    fn evict(&mut self, id: VmObjectId, obj: &mut VmObject, page: u64) {
        let ctx = CoreCtx::BOOT;
        self.clear_page_mappings(id, page);
        let owner_pid = obj.owner().map_or(0, |p| p.0);
        self.instant(ctx, EventKind::Evict, owner_pid, id.0);
        if self.tracer.enabled() {
            self.tracer.add(&format!("evict.pages.pid{owner_pid}"), 1);
        }
        self.span(ctx, EventKind::SwapOut, id.0, |k| {
            obj.evict_page(page, &mut k.phys);
            k.stats.evictions += 1;
            k.charge(ctx, k.cost.swap_out_page);
        });
    }

    /// Runs reclaim if free frames would dip below the low watermark
    /// after an allocation of `upcoming_pages`.
    fn reclaim_to_watermark(&mut self, upcoming_pages: u64) {
        let Some(lw) = self.low_watermark else {
            return;
        };
        let free = self.phys.free_frames();
        let need = lw + upcoming_pages;
        if free < need {
            self.reclaim(need - free);
        }
    }

    /// Enforces `pid`'s quota for `pages` more resident frames, evicting
    /// the process's own pages first.
    ///
    /// # Errors
    ///
    /// [`OsError::QuotaExceeded`] when the quota cannot be met.
    fn enforce_quota(&mut self, pid: Pid, pages: u64) -> OsResult<()> {
        let Some(limit) = self.quotas.get(&pid).copied() else {
            return Ok(());
        };
        let used = self.resident_frames_of(pid);
        if used + pages <= limit {
            return Ok(());
        }
        self.reclaim_owned(pid, used + pages - limit);
        let used = self.resident_frames_of(pid);
        if used + pages <= limit {
            return Ok(());
        }
        self.stats.quota_denials += 1;
        let ctx = self.ctx_of(pid).unwrap_or(CoreCtx::BOOT);
        self.instant(ctx, EventKind::QuotaDenial, pid.0, used);
        Err(OsError::QuotaExceeded {
            pid,
            limit_frames: limit,
            used_frames: used,
            requested_frames: pages,
        })
    }

    /// The pressure-checked admission path for allocations of `pages`
    /// frames: consults the `FrameAlloc` fault site, enforces the
    /// caller's quota, honors the low watermark, and as a last resort
    /// reclaims directly for the request.
    ///
    /// # Errors
    ///
    /// [`OsError::QuotaExceeded`] / [`OsError::OutOfMemory`].
    fn ensure_frames(
        &mut self,
        pid: Option<Pid>,
        space: Option<VmspaceId>,
        pages: u64,
        bytes: u64,
    ) -> OsResult<()> {
        self.frame_alloc_gate()?;
        if let Some(p) = pid {
            self.enforce_quota(p, pages)?;
        }
        self.reclaim_to_watermark(pages);
        let free = self.phys.free_frames();
        if free < pages {
            self.reclaim(pages - free);
            let free = self.phys.free_frames();
            if free < pages {
                return Err(OsError::OutOfMemory {
                    pid,
                    space,
                    bytes,
                    frames_free: free,
                });
            }
        }
        Ok(())
    }

    /// Picks the process with the largest resident set (by owned-object
    /// accounting) as the OOM victim, excluding `protect`. Ties go to the
    /// younger (higher) pid. Returns `None` if no unprotected process
    /// owns resident memory.
    pub fn select_oom_victim(&self, protect: &[Pid]) -> Option<Pid> {
        self.processes
            .keys()
            .filter(|p| !protect.contains(p))
            .map(|p| (self.resident_frames_of(p), p.0))
            .filter(|(badness, _)| *badness > 0)
            .max()
            .map(|(_, pid)| Pid(pid))
    }

    /// Explicitly requests reclamation of up to `frames` frames (the
    /// retry valve for workloads that hit a quota or OOM error).
    pub fn sys_reclaim(&mut self, frames: u64) -> u64 {
        self.charge_entry(CoreCtx::BOOT, None);
        self.reclaim(frames)
    }

    /// Reports one consolidated snapshot of every kernel counter
    /// family — the `sys_stats` syscall. Pairs of snapshots subtract
    /// with [`KernelSnapshot::delta_since`] to measure a phase;
    /// [`KernelSnapshot::to_metrics`] flattens one for export.
    pub fn sys_stats(&mut self) -> KernelSnapshot {
        self.charge_entry(CoreCtx::BOOT, None);
        self.stats_snapshot()
    }

    /// The same consolidated snapshot as [`Self::sys_stats`] without
    /// the kernel-entry charge, for observers that must not perturb
    /// the clock (exporters, invariant checks, tests).
    pub fn stats_snapshot(&self) -> KernelSnapshot {
        let mut mmu = MmuStats::default();
        let mut tlb = TlbStats::default();
        for m in self.machine.mmus() {
            mmu = mmu.add(&m.stats());
            tlb = tlb.add(&m.tlb_stats());
        }
        KernelSnapshot {
            // Total CPU cycles over every hardware thread; equals the
            // boot-core clock for single-core workloads.
            cycles: self.machine.clocks().total(),
            kernel: self.stats,
            phys: PhysStats {
                total_frames: self.phys.capacity_frames(),
                allocated_frames: self.phys.allocated_frames(),
                free_frames: self.phys.free_frames(),
                nvm_frames: self.phys.nvm_frames(),
                swap_slots_used: self.phys.swap_slots_used(),
            },
            mmu,
            tlb,
            faults: self.fault.as_ref().map(|p| p.stats()).unwrap_or_default(),
            blk: self.disk.stats().combined(&self.phys.swap_blk_stats()),
        }
    }

    // ---- durability: the snapshot disk -----------------------------------

    /// Commits `payload` as the next snapshot generation on the disk,
    /// returning the generation number. Every block write, journal
    /// record, and flush barrier is cycle-charged to `ctx`'s core and
    /// consults the fault plan's [`FaultSite::BlkWrite`] /
    /// [`FaultSite::BlkFlush`] sites: an injected `Fail` silently tears
    /// the write (or drops the barrier), an injected `Crash` aborts the
    /// commit mid-sequence.
    ///
    /// # Errors
    ///
    /// [`OsError::Crashed`] when a crash fault fires; the device then
    /// holds a partial commit that recovery resolves to exactly the old
    /// or the new snapshot.
    pub fn disk_commit(&mut self, ctx: CoreCtx, payload: &[u8]) -> OsResult<u64> {
        let mut disk = std::mem::replace(
            &mut self.disk,
            SnapshotStore::new(BlockDev::new(DISK_BLOCK_SIZE)),
        );
        let result = disk.commit(payload, &mut KernelBlkHooks { k: self, ctx });
        self.disk = disk;
        match result {
            Ok(generation) => {
                let bytes = payload.len() as u64;
                self.instant(ctx, EventKind::SnapshotCommit, generation, bytes);
                Ok(generation)
            }
            Err(BlkError::Crashed) => Err(OsError::Crashed),
        }
    }

    /// Reads back the current snapshot payload, charging block reads
    /// to `ctx`'s core. Empty before the first commit.
    pub fn disk_read(&mut self, ctx: CoreCtx) -> Vec<u8> {
        let mut disk = std::mem::replace(
            &mut self.disk,
            SnapshotStore::new(BlockDev::new(DISK_BLOCK_SIZE)),
        );
        let payload = disk.read_payload(&mut KernelBlkHooks { k: self, ctx });
        self.disk = disk;
        payload
    }

    /// The current committed snapshot generation (0 = nothing saved).
    pub fn disk_generation(&self) -> u64 {
        self.disk.generation()
    }

    /// Block counters of the snapshot disk alone (the `blk` group in
    /// [`KernelSnapshot`] also folds in the swap device).
    pub fn disk_stats(&self) -> BlkStats {
        self.disk.stats()
    }

    /// Detaches the snapshot disk, leaving the kernel with a fresh
    /// empty one. The restart protocol: `take_disk()`, then
    /// [`BlockDev::crash`] to drop unflushed blocks, then
    /// [`Kernel::attach_disk`] on a newly booted kernel.
    pub fn take_disk(&mut self) -> BlockDev {
        std::mem::replace(
            &mut self.disk,
            SnapshotStore::new(BlockDev::new(DISK_BLOCK_SIZE)),
        )
        .into_dev()
    }

    /// Attaches `dev` and runs snapshot recovery on the boot core:
    /// candidate superblocks and journal records are checksum-validated
    /// (reading their payloads), the highest surviving generation wins,
    /// and a journal-sourced winner is replayed into its superblock.
    /// Returns the number of journal replays performed (0 or 1).
    pub fn attach_disk(&mut self, dev: BlockDev) -> u64 {
        let ctx = CoreCtx::BOOT;
        let (disk, replays) = SnapshotStore::open(dev, &mut KernelBlkHooks { k: self, ctx });
        self.disk = disk;
        if replays > 0 {
            let generation = self.disk.generation();
            self.instant(ctx, EventKind::JournalReplay, replays, generation);
        }
        replays
    }

    // ---- object page IO (snapshot serialization) -------------------------

    /// Reads one page of a VM object into `buf` without changing its
    /// page state: resident pages (and contiguous objects) read from
    /// DRAM, swapped pages read back through the swap device, zero
    /// pages zero-fill. `buf` must be exactly one page.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchObject`] for unknown ids.
    pub fn read_object_page(
        &mut self,
        id: VmObjectId,
        page_index: u64,
        buf: &mut [u8],
    ) -> OsResult<()> {
        assert_eq!(buf.len() as u64, PAGE_SIZE, "buf must be one page");
        match self.vmobject(id)?.page_state(page_index) {
            PageState::Resident { pfn, .. } => self.phys.read_bytes(pfn.base(), buf)?,
            PageState::Zero => buf.fill(0),
            PageState::Swapped { slot } => {
                let found = self.phys.read_swap_slot(slot, buf);
                assert!(found, "swapped page names empty slot {slot}");
            }
        }
        Ok(())
    }

    /// Writes one page of data into a VM object, faulting the page in
    /// first when it is not resident — the snapshot restore path.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchObject`] for unknown ids; allocation errors
    /// from the fault-in.
    pub fn write_object_page(
        &mut self,
        id: VmObjectId,
        page_index: u64,
        data: &[u8],
    ) -> OsResult<()> {
        assert!(data.len() as u64 <= PAGE_SIZE, "data exceeds one page");
        let pa = match self.vmobject(id)?.page_state(page_index) {
            PageState::Resident { pfn, .. } => pfn.base(),
            _ => {
                let mut obj = self.vmobjects.remove(&id).ok_or(OsError::NoSuchObject)?;
                let result = obj.fault_in_page(page_index, &mut self.phys);
                self.vmobjects.insert(id, obj);
                result?.0.base()
            }
        };
        self.phys.write_bytes(pa, data)?;
        Ok(())
    }

    /// Duplicates a demand-paged object page by page, preserving each
    /// page's state: `Zero` stays zero (no frame), `Resident` copies
    /// the frame, `Swapped` copies the swap image into a fresh slot —
    /// neither side is faulted in, so cloning a partially-evicted
    /// segment does not disturb memory pressure. The new object is
    /// unmapped and, like a [`Backing::Demand`] object, swappable and
    /// owned by `owner`.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchObject`] for unknown ids; frame exhaustion
    /// while copying resident pages (already-copied pages are freed).
    pub fn duplicate_paged_object(
        &mut self,
        owner: Option<Pid>,
        src: VmObjectId,
    ) -> OsResult<VmObjectId> {
        self.fault_gate(FaultSite::ObjectAlloc)?;
        let (states, len): (Vec<PageState>, u64) = {
            let o = self.vmobject(src)?;
            ((0..o.pages()).map(|i| o.page_state(i)).collect(), o.len())
        };
        self.insert_object(|phys, id| {
            let mut dst = VmObject::alloc_demand(id, len)?;
            if let Err(e) = copy_page_states(phys, &states, &mut dst) {
                dst.free(phys);
                return Err(e);
            }
            dst.set_swappable(true);
            dst.set_owner(owner);
            Ok(dst)
        })
    }

    // ---- invariant audit -------------------------------------------------

    /// Audits kernel bookkeeping — the crash-recovery acceptance check.
    /// Returns a human-readable list of violations (empty = consistent):
    ///
    /// * every region maps a live object, and each object's refcount
    ///   equals the number of regions mapping it;
    /// * no unpinned object sits unmapped (leaked frames after teardown);
    /// * every process references only live vmspaces and is current in a
    ///   space it holds;
    /// * every allocated physical frame is owned by exactly one of: a VM
    ///   object, a vmspace's private page tables, or an
    ///   `external_roots` tree (the SpaceJMP layer's VAS templates,
    ///   which own the shared subtrees linked into attached vmspaces).
    pub fn check_invariants(&mut self, external_roots: &[Pfn]) -> Vec<String> {
        let mut problems = Vec::new();

        let mut region_refs: IdTable<VmObjectId, u64> = IdTable::default();
        for vs in self.vmspaces.values() {
            for r in vs.regions() {
                *region_refs.get_or_insert_with(r.object, || 0) += 1;
                if !self.vmobjects.contains_key(&r.object) {
                    problems.push(format!(
                        "space {:?} maps object {:?} which does not exist",
                        vs.id(),
                        r.object
                    ));
                }
            }
        }
        for (id, obj) in self.vmobjects.iter() {
            let mapped = region_refs.get(&id).copied().unwrap_or(0);
            if obj.refs() != mapped {
                problems.push(format!(
                    "object {id:?} refcount {} but {mapped} region(s) map it",
                    obj.refs()
                ));
            }
            if !obj.persistent() && mapped == 0 {
                problems.push(format!(
                    "unpinned object {id:?} has no mappings (leaked frames)"
                ));
            }
        }

        for (pid, p) in self.processes.iter() {
            for s in p.spaces() {
                if !self.vmspaces.contains_key(s) {
                    problems.push(format!("process {pid:?} holds destroyed space {s:?}"));
                }
            }
            if !p.holds_space(p.current_space()) {
                problems.push(format!(
                    "process {pid:?} current space is not in its space list"
                ));
            }
        }

        // Frame accounting must balance exactly even mid-pressure: only
        // *resident* pages own frames, and every swapped page owns
        // exactly one swap slot.
        let mut owned_frames = 0u64;
        let mut swapped_pages = 0u64;
        for obj in self.vmobjects.values() {
            owned_frames += obj.resident_pages();
            swapped_pages += obj.swapped_pages();
        }
        let slots = self.phys.swap_slots_used();
        if swapped_pages != slots {
            problems.push(format!(
                "swap accounting mismatch: {slots} slot(s) used, {swapped_pages} page(s) swapped"
            ));
        }
        let roots: Vec<(Pfn, Vec<usize>)> = self
            .vmspaces
            .values()
            .map(|vs| (vs.root(), vs.shared_slots().to_vec()))
            .collect();
        let mut seen = std::collections::HashSet::new();
        for root in external_roots {
            owned_frames += paging::collect_table_frames(&mut self.phys, *root, &[], &mut seen);
        }
        for (root, skip) in roots {
            owned_frames += paging::collect_table_frames(&mut self.phys, root, &skip, &mut seen);
        }
        let allocated = self.phys.allocated_frames();
        if owned_frames != allocated {
            problems.push(format!(
                "frame accounting mismatch: {allocated} frames allocated, {owned_frames} owned"
            ));
        }
        problems
    }
}

/// Installs `states` into the fresh demand object `dst`, copying each
/// resident frame into a new frame and each swapped page into a new
/// swap slot (see [`Kernel::duplicate_paged_object`]).
fn copy_page_states(
    phys: &mut PhysMem,
    states: &[PageState],
    dst: &mut VmObject,
) -> Result<(), MemError> {
    let mut buf = vec![0u8; PAGE_SIZE as usize];
    for (i, state) in (0u64..).zip(states) {
        match *state {
            PageState::Zero => {}
            PageState::Resident { pfn, .. } => {
                let new = phys.alloc_frame()?;
                phys.read_bytes(pfn.base(), &mut buf)?;
                phys.write_bytes(new.base(), &buf)?;
                dst.install_page_state(
                    i,
                    PageState::Resident {
                        pfn: new,
                        referenced: true,
                    },
                );
            }
            PageState::Swapped { slot } => {
                let materialized = phys.read_swap_slot(slot, &mut buf);
                assert!(materialized, "swapped page names empty slot {slot}");
                // An all-zero image stays sparse in the new slot, like
                // the original zero-page eviction did.
                let image = if buf.iter().all(|&b| b == 0) {
                    None
                } else {
                    Some(buf.as_slice())
                };
                let new_slot = phys.store_swap_slot(image);
                dst.install_page_state(i, PageState::Swapped { slot: new_slot });
            }
        }
    }
    Ok(())
}

/// One process's memory, borrowed from the kernel by
/// [`Kernel::proc_mem`]: loads and stores in the process's current
/// address space, through the MMU of the core it is pinned to.
///
/// This is the kernel's one word-access path. Every access translates
/// and charges exactly as [`Mmu::read_u64`] and friends do; a page fault
/// runs [`Kernel::handle_fault`] and retries the whole access, and a
/// committed shared-segment word access is recorded in the trace.
#[derive(Debug)]
pub struct ProcMem<'k> {
    kernel: &'k mut Kernel,
    pid: Pid,
    core: usize,
}

impl ProcMem<'_> {
    /// Reads a `u64` at `va`, faulting pages in as needed.
    ///
    /// # Errors
    ///
    /// Unresolvable faults.
    #[inline]
    pub fn load_u64(&mut self, va: VirtAddr) -> OsResult<u64> {
        let v = self.access(Access::Read, |mmu, phys| mmu.read_u64(phys, va))?;
        self.trace_word(va, EventKind::MemRead);
        Ok(v)
    }

    /// Reads the `u64`s at `va`, `va + 8`, ... until one is nonzero or
    /// `max` have been read; returns the count read and the last word.
    /// Charges and traces exactly as that many [`Self::load_u64`] calls,
    /// in one [`Mmu::read_until_nonzero`] run per page (per word under a
    /// tracer).
    ///
    /// # Errors
    ///
    /// Unresolvable faults.
    pub fn load_until_nonzero(&mut self, va: VirtAddr, max: u64) -> OsResult<(u64, u64)> {
        let (mut read, mut word) = (0, 0);
        while word == 0 && read < max {
            let at = va.add(read * 8);
            let len = self.run_len(at, max - read);
            let (n, w) = self.access(Access::Read, |mmu, phys| {
                mmu.read_until_nonzero(phys, at, len)
            })?;
            self.trace_word(at, EventKind::MemRead);
            read += n;
            word = w;
        }
        Ok((read, word))
    }

    /// Writes a `u64` at `va`, faulting pages in as needed.
    ///
    /// # Errors
    ///
    /// Unresolvable faults.
    #[inline]
    pub fn store_u64(&mut self, va: VirtAddr, value: u64) -> OsResult<()> {
        self.access(Access::Write, |mmu, phys| mmu.write_u64(phys, va, value))?;
        self.trace_word(va, EventKind::MemWrite);
        Ok(())
    }

    /// Writes `words` to the consecutive `u64`s from `va`. Charges and
    /// traces exactly as one [`Self::store_u64`] per word, in one
    /// [`Mmu::write_words`] run per page (per word under a tracer).
    ///
    /// # Errors
    ///
    /// Unresolvable faults; the words before the failing one are
    /// written.
    pub fn store_words(&mut self, va: VirtAddr, words: &[u64]) -> OsResult<()> {
        let mut done = 0;
        while done < words.len() {
            let at = va.add(done as u64 * 8);
            let len = self.run_len(at, (words.len() - done) as u64) as usize;
            let run = &words[done..done + len];
            self.access(Access::Write, |mmu, phys| mmu.write_words(phys, at, run))?;
            self.trace_word(at, EventKind::MemWrite);
            done += run.len();
        }
        Ok(())
    }

    /// How many of the `max` words from `va` one MMU run takes: up to
    /// the end of `va`'s page, so a fault can only come at the run's
    /// first word and the retry repeats nothing. Under a tracer a run is
    /// one word, so each word's event follows its own MMU events.
    fn run_len(&self, va: VirtAddr, max: u64) -> u64 {
        if self.kernel.tracer.enabled() {
            return max.min(1);
        }
        max.min((PAGE_SIZE - va.page_offset()).div_ceil(8))
    }

    /// Reads `buf.len()` bytes at `va`, faulting pages in as needed.
    ///
    /// # Errors
    ///
    /// Unresolvable faults.
    pub fn load_bytes(&mut self, va: VirtAddr, buf: &mut [u8]) -> OsResult<()> {
        self.access(Access::Read, |mmu, phys| mmu.read_bytes(phys, va, buf))
    }

    /// Writes `buf` at `va`, faulting pages in as needed.
    ///
    /// # Errors
    ///
    /// Unresolvable faults.
    pub fn store_bytes(&mut self, va: VirtAddr, buf: &[u8]) -> OsResult<()> {
        self.access(Access::Write, |mmu, phys| mmu.write_bytes(phys, va, buf))
    }

    /// Runs `op` on the core's MMU until it stops page-faulting: each
    /// fault is handled at the faulting address and the whole `op`
    /// retried, out of line in [`Self::retry_after`].
    #[inline]
    fn access<T>(
        &mut self,
        access: Access,
        mut op: impl FnMut(&mut Mmu, &mut PhysMem) -> Result<T, MemError>,
    ) -> OsResult<T> {
        let k = &mut *self.kernel;
        match op(k.machine.mmu_mut(self.core), &mut k.phys) {
            Ok(v) => Ok(v),
            Err(e) => self.retry_after(e, access, op),
        }
    }

    /// The fault-and-retry loop of [`Self::access`], entered with the
    /// first attempt's error. The pid is resolved again after every
    /// handled fault, so a retry never runs for a process that has gone
    /// away.
    #[inline(never)]
    fn retry_after<T>(
        &mut self,
        mut err: MemError,
        access: Access,
        mut op: impl FnMut(&mut Mmu, &mut PhysMem) -> Result<T, MemError>,
    ) -> OsResult<T> {
        loop {
            let MemError::PageFault { va, .. } = err else {
                return Err(err.into());
            };
            self.kernel.handle_fault(self.pid, va, access)?;
            self.core = self.kernel.process(self.pid)?.core();
            let k = &mut *self.kernel;
            match op(k.machine.mmu_mut(self.core), &mut k.phys) {
                Ok(v) => return Ok(v),
                Err(e) => err = e,
            }
        }
    }

    /// Records a committed word access for replay analysis. Only global
    /// (shared-segment) addresses are recorded — private traffic cannot
    /// race across processes and would swamp the ring — and recording
    /// charges no modeled cycles, preserving the zero-cost-tracing
    /// invariant.
    #[inline]
    fn trace_word(&self, va: VirtAddr, kind: EventKind) {
        if self.kernel.tracer.enabled() {
            self.record_word(va, kind);
        }
    }

    /// The recording half of [`Self::trace_word`], out of line.
    #[inline(never)]
    fn record_word(&self, va: VirtAddr, kind: EventKind) {
        let k = &*self.kernel;
        if va < GLOBAL_LO || va >= GLOBAL_HI {
            return;
        }
        k.instant(CoreCtx::new(self.core), kind, va.raw(), self.pid.0);
    }
}

/// Kernel-side interposition on snapshot-disk IO: every block read,
/// write, and flush barrier issued by [`SnapshotStore`] is charged to
/// the executing core, wrapped in a trace span, and (for writes and
/// flushes) run past the fault plan. Crash outcomes are returned to
/// the store as [`WriteFault::Crash`] / [`FlushFault::Crash`] — power
/// died, so nothing is charged and no span is emitted.
struct KernelBlkHooks<'a> {
    k: &'a mut Kernel,
    ctx: CoreCtx,
}

impl BlkHooks for KernelBlkHooks<'_> {
    fn on_read(&mut self, lba: u64) {
        let ctx = self.ctx;
        let cycles = self.k.cost.blk_read_block;
        self.k
            .span(ctx, EventKind::BlkRead, lba, |k| k.charge(ctx, cycles));
    }

    fn on_write(&mut self, lba: u64) -> WriteFault {
        let ctx = self.ctx;
        match self.k.fault_outcome(FaultSite::BlkWrite) {
            FaultOutcome::Crash => WriteFault::Crash,
            outcome => {
                let cycles = self.k.cost.blk_write_block;
                self.k
                    .span(ctx, EventKind::BlkWrite, lba, |k| k.charge(ctx, cycles));
                if outcome == FaultOutcome::Fail {
                    WriteFault::Torn
                } else {
                    WriteFault::None
                }
            }
        }
    }

    fn on_flush(&mut self) -> FlushFault {
        let ctx = self.ctx;
        match self.k.fault_outcome(FaultSite::BlkFlush) {
            FaultOutcome::Crash => FlushFault::Crash,
            outcome => {
                let cycles = self.k.cost.blk_flush;
                self.k
                    .span(ctx, EventKind::BlkFlush, 0, |k| k.charge(ctx, cycles));
                if outcome == FaultOutcome::Fail {
                    FlushFault::Dropped
                } else {
                    FlushFault::None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel() -> Kernel {
        Kernel::new(KernelFlavor::DragonFly, MachineId::M2)
    }

    fn user() -> Creds {
        Creds::new(100, 100)
    }

    const BASE_PAGES: MmapSource = MmapSource::New(PageSize::Size4K);
    const HUGE_2M: MmapSource = MmapSource::New(PageSize::Size2M);

    #[test]
    fn spawn_creates_private_segments() {
        let mut k = kernel();
        let pid = k.spawn("init", user()).unwrap();
        let space = k.process(pid).unwrap().current_space();
        let vs = k.vmspace(space).unwrap();
        assert_eq!(vs.region_count(), 3, "text + data + stack");
        assert!(vs.find_region(TEXT_BASE).is_some());
        assert!(vs.find_region(VirtAddr::new(STACK_TOP.raw() - 8)).is_some());
    }

    #[test]
    fn load_store_through_current_space() {
        let mut k = kernel();
        let pid = k.spawn("p", user()).unwrap();
        k.activate(pid).unwrap();
        let sp = VirtAddr::new(STACK_TOP.raw() - 64);
        k.store_u64(pid, sp, 0xabcd).unwrap();
        assert_eq!(k.load_u64(pid, sp).unwrap(), 0xabcd);
    }

    #[test]
    fn mmap_munmap_round_trip() {
        let mut k = kernel();
        let pid = k.spawn("p", user()).unwrap();
        k.activate(pid).unwrap();
        let va = k
            .sys_mmap(
                pid,
                BASE_PAGES,
                64 * 1024,
                PteFlags::USER | PteFlags::WRITABLE,
                false,
            )
            .unwrap();
        assert!(va >= MMAP_BASE);
        k.store_u64(pid, va.add(4096), 7).unwrap();
        assert_eq!(k.load_u64(pid, va.add(4096)).unwrap(), 7);
        k.sys_munmap(pid, va, false).unwrap();
        assert!(matches!(
            k.load_u64(pid, va.add(4096)),
            Err(OsError::Mem(MemError::PageFault { .. }))
        ));
        assert_eq!(k.stats().mmaps, 1);
        assert_eq!(k.stats().munmaps, 1);
    }

    #[test]
    fn mmap_cost_scales_with_size_and_cached_is_cheaper() {
        let mut k = kernel();
        let pid = k.spawn("p", user()).unwrap();
        let t0 = k.clock().now();
        let a = k
            .sys_mmap(pid, BASE_PAGES, 1 << 20, PteFlags::WRITABLE, false)
            .unwrap();
        let small = k.clock().since(t0);
        let t1 = k.clock().now();
        let b = k
            .sys_mmap(pid, BASE_PAGES, 16 << 20, PteFlags::WRITABLE, false)
            .unwrap();
        let large = k.clock().since(t1);
        assert!(
            large > 10 * small,
            "16x size should cost >10x ({small} vs {large})"
        );
        let t2 = k.clock().now();
        k.sys_mmap(pid, BASE_PAGES, 16 << 20, PteFlags::WRITABLE, true)
            .unwrap();
        let cached = k.clock().since(t2);
        assert!(
            cached < large / 2,
            "cached map should be much cheaper ({cached} vs {large})"
        );
        let _ = (a, b);
    }

    #[test]
    fn lazy_mapping_faults_in() {
        let mut k = kernel();
        let pid = k.spawn("p", user()).unwrap();
        k.activate(pid).unwrap();
        let space = k.process(pid).unwrap().current_space();
        let obj = k.alloc_object(None, 8192, Backing::Dram).unwrap();
        let va = VirtAddr::new(0x2_0000_0000);
        k.map_object(
            space,
            obj,
            va,
            0,
            8192,
            PteFlags::USER | PteFlags::WRITABLE,
            MapPolicy::Lazy,
            PageSize::Size4K,
            None,
        )
        .unwrap();
        assert_eq!(k.stats().faults_handled, 0);
        k.store_u64(pid, va, 1).unwrap();
        assert_eq!(k.stats().faults_handled, 1);
        k.store_u64(pid, va.add(8), 2).unwrap();
        assert_eq!(k.stats().faults_handled, 1, "same page, no second fault");
    }

    #[test]
    fn protection_fault_not_resolved_by_fault_handler() {
        let mut k = kernel();
        let pid = k.spawn("p", user()).unwrap();
        k.activate(pid).unwrap();
        let space = k.process(pid).unwrap().current_space();
        let obj = k.alloc_object(None, 4096, Backing::Dram).unwrap();
        let va = VirtAddr::new(0x2_0000_0000);
        k.map_object(
            space,
            obj,
            va,
            0,
            4096,
            PteFlags::USER,
            MapPolicy::Lazy,
            PageSize::Size4K,
            None,
        )
        .unwrap();
        assert!(matches!(
            k.store_u64(pid, va, 1),
            Err(OsError::Mem(MemError::ProtectionFault { .. }))
        ));
    }

    #[test]
    fn switch_vmspace_costs_match_table2() {
        for (flavor, tagged, expect) in [
            (KernelFlavor::DragonFly, false, 1127u64),
            (KernelFlavor::DragonFly, true, 807),
            (KernelFlavor::Barrelfish, false, 664),
            (KernelFlavor::Barrelfish, true, 462),
        ] {
            let mut k = Kernel::new(flavor, MachineId::M2);
            k.set_tagging(tagged);
            let pid = k.spawn("p", user()).unwrap();
            let second = k.create_vmspace().unwrap();
            if tagged {
                let asid = k.alloc_asid().unwrap();
                k.vmspace_mut(second).unwrap().set_asid(asid);
            }
            k.process_mut(pid).unwrap().add_space(second);
            let t0 = k.clock().now();
            k.switch_vmspace(pid, second).unwrap();
            assert_eq!(k.clock().since(t0), expect, "{flavor:?} tagged={tagged}");
        }
    }

    #[test]
    fn switch_requires_attachment() {
        let mut k = kernel();
        let pid = k.spawn("p", user()).unwrap();
        let other = k.create_vmspace().unwrap();
        assert_eq!(k.switch_vmspace(pid, other), Err(OsError::PermissionDenied));
    }

    #[test]
    fn object_lifecycle_and_refs() {
        let mut k = kernel();
        let obj = k.alloc_object(None, 4096, Backing::Dram).unwrap();
        let space = k.create_vmspace().unwrap();
        k.map_object(
            space,
            obj,
            VirtAddr::new(0x1000),
            0,
            4096,
            PteFlags::USER,
            MapPolicy::Lazy,
            PageSize::Size4K,
            None,
        )
        .unwrap();
        assert!(matches!(k.free_object(obj), Err(OsError::Conflict(_))));
        k.unmap_object(space, VirtAddr::new(0x1000), None).unwrap();
        k.free_object(obj).unwrap();
        assert!(matches!(k.free_object(obj), Err(OsError::NoSuchObject)));
    }

    #[test]
    fn mapping_beyond_object_rejected() {
        let mut k = kernel();
        let obj = k.alloc_object(None, 4096, Backing::Dram).unwrap();
        let space = k.create_vmspace().unwrap();
        // Past the end, and empty at the very end of the object.
        for (offset, len) in [(0, 8192), (4096, 0)] {
            assert!(matches!(
                k.map_object(
                    space,
                    obj,
                    VirtAddr::new(0),
                    offset,
                    len,
                    PteFlags::USER,
                    MapPolicy::Lazy,
                    PageSize::Size4K,
                    None
                ),
                Err(OsError::InvalidArgument(_))
            ));
        }
    }

    #[test]
    fn asid_pool_recycles() {
        let mut k = kernel();
        let a = k.alloc_asid().unwrap();
        let b = k.alloc_asid().unwrap();
        assert_ne!(a, b);
        k.free_asid(a);
        assert_eq!(k.alloc_asid().unwrap(), a);
        k.free_asid(Asid::UNTAGGED); // no-op, never pooled
        assert_eq!(k.alloc_asid().unwrap().0, 3);
    }

    #[test]
    fn exit_releases_spaces() {
        let mut k = kernel();
        let pid = k.spawn("p", user()).unwrap();
        let space = k.process(pid).unwrap().current_space();
        k.exit(pid).unwrap();
        assert!(k.process(pid).is_err());
        assert!(k.vmspace(space).is_err());
        assert!(matches!(k.exit(pid), Err(OsError::NoSuchProcess)));
    }

    #[test]
    fn kernel_entry_cost_differs_by_flavor() {
        let mut bsd = Kernel::new(KernelFlavor::DragonFly, MachineId::M2);
        let mut bf = Kernel::new(KernelFlavor::Barrelfish, MachineId::M2);
        let t0 = bsd.clock().now();
        bsd.charge_entry(CoreCtx::BOOT, None);
        assert_eq!(bsd.clock().since(t0), 357);
        let t1 = bf.clock().now();
        bf.charge_entry(CoreCtx::BOOT, None);
        assert_eq!(bf.clock().since(t1), 130);
    }

    #[test]
    fn superpage_mmap_works_and_is_cheaper_to_construct() {
        let mut k = kernel();
        let pid = k.spawn("p", user()).unwrap();
        k.activate(pid).unwrap();
        let flags = PteFlags::USER | PteFlags::WRITABLE;
        let t0 = k.clock().now();
        let small = k.sys_mmap(pid, BASE_PAGES, 32 << 20, flags, false).unwrap();
        let cost_4k = k.clock().since(t0);
        let t1 = k.clock().now();
        let huge = k.sys_mmap(pid, HUGE_2M, 32 << 20, flags, false).unwrap();
        let cost_2m = k.clock().since(t1);
        assert!(
            cost_2m * 20 < cost_4k,
            "2 MiB pages: {cost_2m} vs 4 KiB: {cost_4k}"
        );
        // Both mappings are readable/writable across their extent.
        for va in [small, huge] {
            k.store_u64(pid, va.add((32 << 20) - 8), 7).unwrap();
            assert_eq!(k.load_u64(pid, va.add((32 << 20) - 8)).unwrap(), 7);
        }
        assert!(
            huge.is_aligned(2 << 20),
            "superpage mapping must be aligned"
        );
        // Misaligned huge-page length rejected with the typed error.
        assert_eq!(
            k.sys_mmap(pid, HUGE_2M, (2 << 20) + 4096, flags, false),
            Err(OsError::Misaligned {
                requested: (2 << 20) + 4096,
                page_size: PageSize::Size2M,
            })
        );
        // A ragged 4 KiB length rounds up to whole pages.
        let ragged = k.sys_mmap(pid, BASE_PAGES, 100, flags, false).unwrap();
        let space = k.process(pid).unwrap().current_space();
        let region = k.vmspace(space).unwrap().find_region(ragged).unwrap();
        assert_eq!(region.len, PAGE_SIZE);
    }

    #[test]
    fn mixed_page_size_vmspace_accounts_tlb_reach() {
        // One address space holding both 4 KiB and 2 MiB mappings: the
        // TLB must track each entry at its own size, and reach must sum
        // the true bytes covered.
        let mut k = kernel();
        let pid = k.spawn("p", user()).unwrap();
        k.activate(pid).unwrap();
        let flags = PteFlags::USER | PteFlags::WRITABLE;
        let small = k
            .sys_mmap(pid, BASE_PAGES, 2 * PAGE_SIZE, flags, false)
            .unwrap();
        let huge = k.sys_mmap(pid, HUGE_2M, 4 << 20, flags, false).unwrap();
        // Touch both 4K pages and both 2M pages (interior offsets).
        k.store_u64(pid, small, 1).unwrap();
        k.store_u64(pid, small.add(PAGE_SIZE), 2).unwrap();
        k.store_u64(pid, huge.add(0x1234 * 8), 3).unwrap();
        k.store_u64(pid, huge.add((2 << 20) + 64), 4).unwrap();
        let core = k.process(pid).unwrap().core();
        let (mmu, _) = k.core_mem(core);
        assert_eq!(mmu.stats().walks, 4, "four distinct pages walked");
        assert_eq!(
            mmu.tlb_mut().reach_bytes(),
            2 * PAGE_SIZE + 2 * (2u64 << 20),
            "reach counts each entry at its own page size"
        );
        // Re-touching interior addresses of the superpages hits the TLB.
        let walks_before = {
            let (mmu, _) = k.core_mem(core);
            mmu.stats().walks
        };
        k.store_u64(pid, huge.add(0x660), 5).unwrap();
        k.store_u64(pid, huge.add((2 << 20) + 0x4000), 6).unwrap();
        let (mmu, _) = k.core_mem(core);
        assert_eq!(mmu.stats().walks, walks_before, "superpage entries hit");
    }

    #[test]
    fn huge_page_flush_and_invalidate_are_size_aware() {
        let mut k = kernel();
        let pid = k.spawn("p", user()).unwrap();
        k.activate(pid).unwrap();
        let flags = PteFlags::USER | PteFlags::WRITABLE;
        let huge = k.sys_mmap(pid, HUGE_2M, 2 << 20, flags, false).unwrap();
        k.store_u64(pid, huge.add(0x8000), 1).unwrap();
        let core = k.process(pid).unwrap().core();
        // invlpg on an *interior* 4K page of the superpage must drop the
        // whole covering entry.
        {
            let (mmu, _) = k.core_mem(core);
            assert_eq!(mmu.tlb_mut().reach_bytes(), 2 << 20);
            mmu.invlpg(huge.add(0x8000));
            assert_eq!(mmu.tlb_mut().reach_bytes(), 0, "covering entry dropped");
        }
        k.store_u64(pid, huge.add(0x8000), 2).unwrap();
        let (mmu, _) = k.core_mem(core);
        assert_eq!(mmu.stats().walks, 2, "rewalked after size-aware invlpg");
    }

    #[test]
    fn every_mmap_call_is_one_mmap_span_on_the_callers_core() {
        use sjmp_trace::Phase;
        // Runs sys_mmap from each source for a process on core 1; returns
        // the cycles charged and, per call, the phases and cores of the
        // Mmap events it emitted.
        let run = |tracer: Tracer| {
            let mut k = kernel();
            k.set_tracer(tracer.clone());
            k.spawn("core0", user()).unwrap();
            let pid = k.spawn("mapper", user()).unwrap();
            k.activate(pid).unwrap();
            let obj = k.alloc_object(None, 4 * PAGE_SIZE, Backing::Dram).unwrap();
            let flags = PteFlags::USER | PteFlags::WRITABLE;
            let t0 = k.total_cycles();
            let mut spans = Vec::new();
            for (source, len) in [
                (BASE_PAGES, 4 * PAGE_SIZE),
                (HUGE_2M, 2 << 20),
                (MmapSource::Object { obj, offset: 0 }, 4 * PAGE_SIZE),
            ] {
                let seen = tracer.events().len();
                k.sys_mmap(pid, source, len, flags, false).unwrap();
                let events = tracer.events()[seen..].to_vec();
                let mmap = events.iter().filter(|e| e.kind == EventKind::Mmap);
                spans.push(mmap.map(|e| (e.phase, e.core)).collect::<Vec<_>>());
            }
            (k.total_cycles() - t0, spans)
        };
        let (traced_cycles, spans) = run(Tracer::new(1 << 12));
        for (call, span) in spans.iter().enumerate() {
            assert_eq!(
                span,
                &[(Phase::Begin, 1), (Phase::End, 1)],
                "mmap call {call}"
            );
        }
        let (plain_cycles, _) = run(Tracer::disabled());
        assert_eq!(traced_cycles, plain_cycles, "tracing charged cycles");
    }

    #[test]
    fn processes_round_robin_cores() {
        let mut k = kernel();
        let p1 = k.spawn("a", user()).unwrap();
        let p2 = k.spawn("b", user()).unwrap();
        assert_eq!(k.process(p1).unwrap().core(), 0);
        assert_eq!(k.process(p2).unwrap().core(), 1);
    }

    #[test]
    fn exit_reclaims_private_objects_and_frames() {
        let mut k = kernel();
        let before = k.phys_mut().allocated_frames();
        let pid = k.spawn("p", user()).unwrap();
        k.activate(pid).unwrap();
        k.sys_mmap(
            pid,
            BASE_PAGES,
            1 << 20,
            PteFlags::USER | PteFlags::WRITABLE,
            false,
        )
        .unwrap();
        k.exit(pid).unwrap();
        assert_eq!(
            k.phys_mut().allocated_frames(),
            before,
            "spawn + mmap + exit must return every frame"
        );
        assert!(k.check_invariants(&[]).is_empty());
    }

    #[test]
    fn exit_spares_vmspaces_other_processes_hold() {
        let mut k = kernel();
        let p1 = k.spawn("a", user()).unwrap();
        let p2 = k.spawn("b", user()).unwrap();
        let shared = k.create_vmspace().unwrap();
        k.process_mut(p1).unwrap().add_space(shared);
        k.process_mut(p2).unwrap().add_space(shared);
        k.exit(p1).unwrap();
        assert!(k.vmspace(shared).is_ok(), "p2 still holds the space");
        k.switch_vmspace(p2, shared).unwrap();
        k.exit(p2).unwrap();
        assert!(k.vmspace(shared).is_err(), "last holder's exit destroys it");
    }

    #[test]
    fn kill_reclaims_without_process_cooperation() {
        let mut k = kernel();
        let before = k.phys_mut().allocated_frames();
        let pid = k.spawn("victim", user()).unwrap();
        k.activate(pid).unwrap();
        let va = k
            .sys_mmap(
                pid,
                BASE_PAGES,
                256 * 1024,
                PteFlags::USER | PteFlags::WRITABLE,
                false,
            )
            .unwrap();
        k.store_u64(pid, va, 1).unwrap();
        let second = k.create_vmspace().unwrap();
        k.process_mut(pid).unwrap().add_space(second);
        k.switch_vmspace(pid, second).unwrap();
        // Abrupt death: no unmap, no munmap, CR3 still loaded.
        k.kill(pid).unwrap();
        assert!(k.process(pid).is_err());
        assert!(k.vmspace(second).is_err());
        assert_eq!(k.phys_mut().allocated_frames(), before);
        assert!(k.check_invariants(&[]).is_empty());
        assert!(
            matches!(k.kill(pid), Err(OsError::NoSuchProcess)),
            "double kill"
        );
    }

    #[test]
    fn mid_map_fault_rolls_back_cleanly() {
        let mut k = kernel();
        let pid = k.spawn("p", user()).unwrap();
        k.activate(pid).unwrap();
        let frames_before = k.phys_mut().allocated_frames();
        let mmaps_before = k.stats().mmaps;
        k.set_fault_plan(Some(
            crate::fault::FaultPlan::new(1).fail_nth(FaultSite::MapRegion, 1),
        ));
        let err = k.sys_mmap(
            pid,
            BASE_PAGES,
            4 << 20,
            PteFlags::USER | PteFlags::WRITABLE,
            false,
        );
        assert_eq!(err, Err(OsError::Mem(MemError::OutOfFrames)));
        k.set_fault_plan(None);
        assert_eq!(
            k.phys_mut().allocated_frames(),
            frames_before,
            "failed mmap must leak no frames"
        );
        assert!(k.check_invariants(&[]).is_empty());
        // The address space is unchanged: the same mmap now succeeds.
        let va = k
            .sys_mmap(
                pid,
                BASE_PAGES,
                4 << 20,
                PteFlags::USER | PteFlags::WRITABLE,
                false,
            )
            .unwrap();
        k.store_u64(pid, va.add((4 << 20) - 8), 9).unwrap();
        assert_eq!(k.stats().mmaps, mmaps_before + 2);
    }

    /// Regions of `pid`'s current space, every live object's reference
    /// count, and the free frames: what a failed mmap must leave as is.
    fn mmap_state(k: &mut Kernel, pid: Pid) -> (usize, Vec<(VmObjectId, u64)>, u64) {
        let space = k.process(pid).unwrap().current_space();
        let regions = k.vmspace(space).unwrap().region_count();
        let refs = k
            .vmobject_ids()
            .into_iter()
            .map(|id| (id, k.vmobject(id).unwrap().refs()))
            .collect();
        (regions, refs, k.phys_mut().free_frames())
    }

    #[test]
    fn mid_map_fault_fails_superpage_mmaps_cleanly() {
        for page_size in [PageSize::Size2M, PageSize::Size1G] {
            let mut k = kernel();
            let pid = k.spawn("p", user()).unwrap();
            k.activate(pid).unwrap();
            let before = mmap_state(&mut k, pid);
            k.set_fault_plan(Some(
                crate::fault::FaultPlan::new(1).fail_nth(FaultSite::MapRegion, 1),
            ));
            let len = 2 * page_size.bytes();
            let err = k.sys_mmap(pid, MmapSource::New(page_size), len, PteFlags::USER, false);
            assert_eq!(
                err,
                Err(OsError::Mem(MemError::OutOfFrames)),
                "{page_size:?}"
            );
            k.set_fault_plan(None);
            assert_eq!(mmap_state(&mut k, pid), before, "{page_size:?}");
            assert!(k.check_invariants(&[]).is_empty(), "{page_size:?}");
        }
    }

    #[test]
    fn zero_length_mmap_is_invalid_from_every_source() {
        let mut k = kernel();
        let pid = k.spawn("p", user()).unwrap();
        k.activate(pid).unwrap();
        let obj = k.alloc_object(None, 4 * PAGE_SIZE, Backing::Dram).unwrap();
        let before = mmap_state(&mut k, pid);
        for source in [
            BASE_PAGES,
            HUGE_2M,
            MmapSource::New(PageSize::Size1G),
            MmapSource::Object { obj, offset: 0 },
            MmapSource::Object {
                obj,
                offset: 4 * PAGE_SIZE,
            },
        ] {
            assert!(
                matches!(
                    k.sys_mmap(pid, source, 0, PteFlags::USER, false),
                    Err(OsError::InvalidArgument(_))
                ),
                "{source:?}"
            );
        }
        assert_eq!(mmap_state(&mut k, pid), before);
        // No object id was used up: the next object takes the next id.
        let next = k.alloc_object(None, PAGE_SIZE, Backing::Dram).unwrap();
        assert_eq!(next.0, obj.0 + 1);
    }

    #[test]
    fn injected_crash_leaves_zombie_until_killed() {
        let mut k = kernel();
        let pid = k.spawn("p", user()).unwrap();
        k.activate(pid).unwrap();
        k.set_fault_plan(Some(
            crate::fault::FaultPlan::new(1).crash_nth(FaultSite::Mmap, 1),
        ));
        assert_eq!(
            k.sys_mmap(
                pid,
                BASE_PAGES,
                4096,
                PteFlags::USER | PteFlags::WRITABLE,
                false
            ),
            Err(OsError::Crashed)
        );
        // No cleanup happened: the process is still registered.
        assert!(k.process(pid).is_ok());
        assert!(
            k.check_invariants(&[]).is_empty(),
            "crash at syscall entry is atomic"
        );
        k.kill(pid).unwrap();
        assert!(k.check_invariants(&[]).is_empty());
    }

    /// A tiny machine for pressure tests: `frames` frames of DRAM total
    /// (page tables included), single core.
    fn small_kernel(frames: u64) -> Kernel {
        let profile = MachineProfile {
            name: "tiny",
            mem_bytes: frames * PAGE_SIZE,
            sockets: 1,
            cores_per_socket: 1,
            freq_hz: 2_000_000_000,
            tlb_entries: 64,
            tlb_ways: 4,
        };
        Kernel::with_profile(KernelFlavor::DragonFly, profile, CostModel::default())
    }

    /// Maps a demand-zero swappable object into a fresh vmspace and
    /// returns (pid, va). The object oversubscribes: `obj_pages` can
    /// exceed the machine's frame count.
    fn pressured_setup(k: &mut Kernel, obj_pages: u64) -> (Pid, VirtAddr) {
        let pid = k.spawn("p", user()).unwrap();
        k.activate(pid).unwrap();
        let space = k.process(pid).unwrap().current_space();
        let obj = k
            .alloc_object(Some(pid), obj_pages * PAGE_SIZE, Backing::Demand)
            .unwrap();
        let va = VirtAddr::new(0x2_0000_0000);
        k.map_object(
            space,
            obj,
            va,
            0,
            obj_pages * PAGE_SIZE,
            PteFlags::USER | PteFlags::WRITABLE,
            MapPolicy::Lazy,
            PageSize::Size4K,
            None,
        )
        .unwrap();
        (pid, va)
    }

    /// Everything a batch of accesses can move: the values it read, the
    /// per-core clocks, each core's MMU and TLB counters, and the kernel
    /// counters.
    type BatchOutcome = (
        Vec<u64>,
        Vec<u8>,
        Vec<u64>,
        Vec<(MmuStats, TlbStats)>,
        KernelStats,
    );

    /// Runs one batch of word and byte accesses on a fresh kernel, either
    /// through a single [`Kernel::proc_mem`] view or through per-call
    /// `Kernel` methods. The batch first-touches demand pages as it goes,
    /// so faults are handled midway through the view's life.
    fn run_batch(one_view: bool) -> BatchOutcome {
        let mut k = kernel();
        k.spawn("idle", user()).unwrap();
        let (pid, va) = pressured_setup(&mut k, 4);
        assert_eq!(k.ctx_of(pid).unwrap().core, 1, "the batch runs off core 0");
        let bytes: Vec<u8> = (0..300u32).map(|i| (i * 7) as u8).collect();
        let straddle = va.add(2 * PAGE_SIZE - 100);
        let mut back = vec![0u8; bytes.len()];
        let mut words = Vec::new();
        if one_view {
            let mut m = k.proc_mem(pid).unwrap();
            m.store_u64(va, 11).unwrap();
            m.store_bytes(straddle, &bytes).unwrap();
            m.store_u64(va.add(8), 12).unwrap();
            for i in 0..4 {
                words.push(m.load_u64(va.add(i * PAGE_SIZE)).unwrap());
            }
            m.load_bytes(straddle, &mut back).unwrap();
        } else {
            k.store_u64(pid, va, 11).unwrap();
            k.store_bytes(pid, straddle, &bytes).unwrap();
            k.store_u64(pid, va.add(8), 12).unwrap();
            for i in 0..4 {
                words.push(k.load_u64(pid, va.add(i * PAGE_SIZE)).unwrap());
            }
            k.load_bytes(pid, straddle, &mut back).unwrap();
        }
        assert_eq!(back, bytes);
        let mmus = k
            .machine()
            .mmus()
            .iter()
            .map(|m| (m.stats(), m.tlb_stats()))
            .collect();
        (words, back, k.clocks().snapshot(), mmus, k.stats())
    }

    #[test]
    fn proc_mem_batch_matches_per_call_accesses() {
        let batch = run_batch(true);
        let at_2p = u64::from_le_bytes(batch.1[100..108].try_into().unwrap());
        assert_eq!(batch.0, vec![11, 0, at_2p, 0]);
        assert_eq!(
            batch.4.faults_handled, 4,
            "every page's first touch faults, inside the view's life"
        );
        assert_eq!(batch, run_batch(false));
    }

    /// Stores 600 words across three demand pages of a shared-range
    /// mapping, first-touching two of them midway: as one
    /// `store_words` run, or one `store_u64` per word. Returns what the
    /// twins must agree on: the bytes, the clocks, the MMU, TLB and
    /// kernel counters, and the trace.
    fn run_word_stores(
        as_run: bool,
        traced: bool,
    ) -> (Vec<u8>, BatchOutcome, Vec<sjmp_trace::Event>) {
        let mut k = kernel();
        let tracer = if traced {
            Tracer::new(1 << 14)
        } else {
            Tracer::disabled()
        };
        k.set_tracer(tracer.clone());
        let pid = k.spawn("p", user()).unwrap();
        k.activate(pid).unwrap();
        let space = k.process(pid).unwrap().current_space();
        let obj = k
            .alloc_object(Some(pid), 4 * PAGE_SIZE, Backing::Demand)
            .unwrap();
        let flags = PteFlags::USER | PteFlags::WRITABLE;
        let va = GLOBAL_LO;
        k.map_object(
            space,
            obj,
            va,
            0,
            4 * PAGE_SIZE,
            flags,
            MapPolicy::Lazy,
            PageSize::Size4K,
            None,
        )
        .unwrap();
        let start = va.add(PAGE_SIZE - 40);
        let words: Vec<u64> = (1..=600).collect();
        let mut m = k.proc_mem(pid).unwrap();
        m.store_u64(start, 5).unwrap();
        if as_run {
            m.store_words(start, &words).unwrap();
        } else {
            for (i, &w) in (0u64..).zip(&words) {
                m.store_u64(start.add(i * 8), w).unwrap();
            }
        }
        let mut bytes = vec![0; 4 * PAGE_SIZE as usize];
        m.load_bytes(va, &mut bytes).unwrap();
        let mmus = k
            .machine()
            .mmus()
            .iter()
            .map(|m| (m.stats(), m.tlb_stats()))
            .collect();
        let outcome = (
            Vec::new(),
            Vec::new(),
            k.clocks().snapshot(),
            mmus,
            k.stats(),
        );
        (bytes, outcome, tracer.events())
    }

    #[test]
    fn store_words_matches_per_word_stores() {
        for traced in [false, true] {
            let run = run_word_stores(true, traced);
            // The stores' three pages, then the read-back's fourth.
            assert_eq!(run.1 .4.faults_handled, 4);
            let word = |i: usize| u64::from_le_bytes(run.0[i..i + 8].try_into().unwrap());
            assert_eq!(word(PAGE_SIZE as usize - 40), 1);
            assert_eq!(word(PAGE_SIZE as usize - 40 + 599 * 8), 600);
            assert_eq!(traced, !run.2.is_empty(), "traced {traced}");
            assert!(run == run_word_stores(false, traced), "traced {traced}");
        }
    }

    #[test]
    fn proc_mem_of_an_unknown_or_exited_pid_is_no_such_process() {
        let mut k = kernel();
        assert!(matches!(k.proc_mem(Pid(42)), Err(OsError::NoSuchProcess)));
        let pid = k.spawn("p", user()).unwrap();
        k.activate(pid).unwrap();
        k.exit(pid).unwrap();
        assert!(matches!(k.proc_mem(pid), Err(OsError::NoSuchProcess)));
        assert!(matches!(
            k.load_u64(pid, VirtAddr::new(STACK_TOP.raw() - 8)),
            Err(OsError::NoSuchProcess)
        ));
    }

    #[test]
    fn oversubscribed_object_survives_via_swap() {
        // 160-frame machine; spawn takes ~104 (96 segment pages plus
        // tables), leaving ~50 free. A 112-page object touched end to
        // end oversubscribes that 2×. Reclaim must keep it running.
        let mut k = small_kernel(160);
        k.set_low_watermark(Some(4));
        let (pid, va) = pressured_setup(&mut k, 112);
        for i in 0..112u64 {
            k.store_u64(pid, va.add(i * PAGE_SIZE), i ^ 0xdead).unwrap();
        }
        assert!(k.stats().evictions > 0, "pressure must evict");
        // Re-read everything: swapped pages fault back in with content.
        for i in 0..112u64 {
            assert_eq!(
                k.load_u64(pid, va.add(i * PAGE_SIZE)).unwrap(),
                i ^ 0xdead,
                "page {i} lost its content"
            );
        }
        assert!(k.stats().major_faults > 0, "re-reads must swap back in");
        assert!(k.check_invariants(&[]).is_empty());
    }

    #[test]
    fn swap_costs_are_charged() {
        let mut k = small_kernel(160);
        k.set_low_watermark(Some(4));
        let (pid, va) = pressured_setup(&mut k, 112);
        for i in 0..112u64 {
            k.store_u64(pid, va.add(i * PAGE_SIZE), i).unwrap();
        }
        let t0 = k.clock().now();
        let faults0 = k.stats().major_faults;
        // Touch a page that was certainly evicted (the clock hand moved
        // beyond the early pages long ago).
        let mut hit = None;
        for i in 0..112u64 {
            let before = k.stats().major_faults;
            k.load_u64(pid, va.add(i * PAGE_SIZE)).unwrap();
            if k.stats().major_faults > before {
                hit = Some(i);
                break;
            }
        }
        assert!(hit.is_some(), "no page was swapped out?");
        assert!(
            k.clock().since(t0) >= k.cost().swap_in_page,
            "major fault must charge the swap-in cost"
        );
        assert!(k.stats().major_faults > faults0);
    }

    #[test]
    fn quota_enforced_with_typed_error_and_self_reclaim() {
        let mut k = small_kernel(256);
        let pid = k.spawn("q", user()).unwrap();
        k.activate(pid).unwrap();
        let spawn_resident = k.resident_frames_of(pid);
        // Allow 8 frames beyond the spawn footprint.
        k.set_quota(pid, Some(spawn_resident + 8));
        // Unswappable private memory cannot be self-reclaimed, so the
        // 9th frame must be a clean typed denial.
        let err = k.sys_mmap(
            pid,
            BASE_PAGES,
            16 * PAGE_SIZE,
            PteFlags::USER | PteFlags::WRITABLE,
            false,
        );
        match err {
            Err(OsError::QuotaExceeded {
                pid: p,
                limit_frames,
                requested_frames,
                ..
            }) => {
                assert_eq!(p, pid);
                assert_eq!(limit_frames, spawn_resident + 8);
                assert_eq!(requested_frames, 16);
            }
            other => panic!("expected QuotaExceeded, got {other:?}"),
        }
        assert_eq!(k.stats().quota_denials, 1);
        // Within quota still works.
        k.sys_mmap(
            pid,
            BASE_PAGES,
            4 * PAGE_SIZE,
            PteFlags::USER | PteFlags::WRITABLE,
            false,
        )
        .unwrap();
        assert!(k.check_invariants(&[]).is_empty());

        // Swappable memory self-reclaims instead of failing: a demand
        // object larger than quota can still be walked because its own
        // cold pages get evicted to stay under the limit.
        let space = k.process(pid).unwrap().current_space();
        let obj = k
            .alloc_object(Some(pid), 32 * PAGE_SIZE, Backing::Demand)
            .unwrap();
        let va = VirtAddr::new(0x3_0000_0000);
        k.map_object(
            space,
            obj,
            va,
            0,
            32 * PAGE_SIZE,
            PteFlags::USER | PteFlags::WRITABLE,
            MapPolicy::Lazy,
            PageSize::Size4K,
            None,
        )
        .unwrap();
        for i in 0..32u64 {
            k.store_u64(pid, va.add(i * PAGE_SIZE), i).unwrap();
        }
        assert!(k.stats().evictions > 0, "quota pressure must self-evict");
        assert!(
            k.resident_frames_of(pid) <= spawn_resident + 8 + 4,
            "resident set must track the quota"
        );
        assert!(k.check_invariants(&[]).is_empty());
    }

    #[test]
    fn frame_alloc_fault_site_forces_reclaim_not_error() {
        let mut k = small_kernel(256);
        k.set_low_watermark(Some(2));
        let (pid, va) = pressured_setup(&mut k, 8);
        for i in 0..8u64 {
            k.store_u64(pid, va.add(i * PAGE_SIZE), i).unwrap();
        }
        let passes0 = k.stats().reclaim_passes;
        k.set_fault_plan(Some(
            crate::fault::FaultPlan::new(3).fail_nth(FaultSite::FrameAlloc, 1),
        ));
        // The injected transient exhaustion is absorbed: the mmap still
        // succeeds, but a reclaim pass ran.
        let got = k
            .sys_mmap(
                pid,
                BASE_PAGES,
                PAGE_SIZE,
                PteFlags::USER | PteFlags::WRITABLE,
                false,
            )
            .unwrap();
        let _ = got;
        assert!(
            k.stats().reclaim_passes > passes0,
            "FrameAlloc fail must trigger reclaim"
        );
        k.set_fault_plan(None);
        assert!(k.check_invariants(&[]).is_empty());
    }

    #[test]
    fn oom_victim_is_biggest_resident_set() {
        let mut k = small_kernel(512);
        let small = k.spawn("small", user()).unwrap();
        let big = k.spawn("big", user()).unwrap();
        k.activate(big).unwrap();
        k.sys_mmap(
            big,
            BASE_PAGES,
            64 * PAGE_SIZE,
            PteFlags::USER | PteFlags::WRITABLE,
            false,
        )
        .unwrap();
        assert_eq!(k.select_oom_victim(&[]), Some(big));
        assert_eq!(k.select_oom_victim(&[big]), Some(small));
        assert_eq!(k.select_oom_victim(&[small, big]), None);
    }

    #[test]
    fn phys_stats_snapshot_is_consistent() {
        let mut k = small_kernel(160);
        k.set_low_watermark(Some(4));
        let (pid, va) = pressured_setup(&mut k, 112);
        for i in 0..112u64 {
            k.store_u64(pid, va.add(i * PAGE_SIZE), i).unwrap();
        }
        let s = k.sys_stats();
        assert_eq!(s.phys.total_frames, 160);
        assert!(s.phys.allocated_frames + s.phys.free_frames <= 160);
        assert!(s.phys.swap_slots_used > 0);
        assert_eq!(s.kernel, k.stats());
        assert!(s.kernel.evictions > 0);
        assert!(s.kernel.reclaim_passes > 0);
        // The audit cross-checks the same numbers exactly.
        assert!(k.check_invariants(&[]).is_empty());
    }

    #[test]
    fn explicit_reclaim_frees_frames() {
        let mut k = small_kernel(256);
        let (pid, va) = pressured_setup(&mut k, 32);
        for i in 0..32u64 {
            k.store_u64(pid, va.add(i * PAGE_SIZE), i).unwrap();
        }
        let free0 = k.sys_stats().phys.free_frames;
        // Two passes: the first strips reference bits, the second evicts.
        k.sys_reclaim(16);
        let freed = k.sys_reclaim(16);
        assert!(freed > 0, "second pass must evict unreferenced pages");
        assert!(k.sys_stats().phys.free_frames > free0);
        // Evicted pages still read back correctly.
        for i in 0..32u64 {
            assert_eq!(k.load_u64(pid, va.add(i * PAGE_SIZE)).unwrap(), i);
        }
        assert!(k.check_invariants(&[]).is_empty());
    }

    #[test]
    fn audit_flags_refcount_drift() {
        let mut k = kernel();
        let obj = k.alloc_object(None, 4096, Backing::Dram).unwrap();
        let space = k.create_vmspace().unwrap();
        k.map_object(
            space,
            obj,
            VirtAddr::new(0x1000),
            0,
            4096,
            PteFlags::USER,
            MapPolicy::Lazy,
            PageSize::Size4K,
            None,
        )
        .unwrap();
        assert!(k.check_invariants(&[]).is_empty());
        k.vmobject_mut(obj).unwrap().add_ref(); // sabotage
        let problems = k.check_invariants(&[]);
        assert!(
            problems.iter().any(|p| p.contains("refcount")),
            "{problems:?}"
        );
    }
}
