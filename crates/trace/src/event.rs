//! Fixed-size structured trace events.
//!
//! An [`Event`] is 32 bytes of `Copy` data: a cycle timestamp, the
//! hardware thread (core) it happened on, an [`EventKind`], a
//! [`Phase`], and two untyped argument words whose meaning is
//! per-kind (documented on each variant). Keeping events fixed-size
//! and allocation-free is what lets the ring buffer overwrite in place
//! and the tracer stay off the modeled-cost path.

/// Whether an event opens a span, closes one, or stands alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Opens a span; must be closed by an [`Phase::End`] of the same
    /// kind on the same core.
    Begin,
    /// Closes the most recent open span of the same kind on the same
    /// core.
    End,
    /// A point event with no duration.
    Instant,
}

impl Phase {
    /// The Chrome `trace_event` phase letter.
    pub fn chrome_ph(self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "i",
        }
    }
}

/// What happened. Variants are grouped by the crate that emits them.
///
/// The `arg0`/`arg1` conventions are: identifiers (pid, VAS id,
/// segment id, ASID) in `arg0`, magnitudes (pages, bytes, badness) in
/// `arg1`, zero when unused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EventKind {
    // ---- sjmp-os::kernel ----
    /// Syscall entry cost (`charge_entry`); span. `arg0` = pid.
    KernelEntry,
    /// `switch_vmspace` body; span. `arg0` = pid, `arg1` = vmspace id.
    SwitchVmspace,
    /// Switch bookkeeping portion of a switch; span. `arg0` = pid.
    SwitchBook,
    /// `sys_mmap`; span. `arg0` = pid.
    Mmap,
    /// `sys_munmap`; span. `arg0` = pid.
    Munmap,
    /// `handle_fault`; span. `arg0` = pid, `arg1` = faulting page index.
    PageFault,
    /// A fault that required swap-in; instant. `arg0` = pid.
    MajorFault,
    /// Swap device read on the fault path; span. `arg0` = object id.
    SwapIn,
    /// Swap device write during eviction; span. `arg0` = object id.
    SwapOut,
    /// One pass of the low-watermark reclaimer; span. `arg0` = target
    /// frames, `arg1` = frames actually freed.
    ReclaimPass,
    /// One page evicted; instant. `arg0` = owning pid, `arg1` = object id.
    Evict,
    /// A resident-quota denial; instant. `arg0` = pid.
    QuotaDenial,
    /// OOM killer chose a victim; instant. `arg0` = victim pid,
    /// `arg1` = badness (resident frames at selection).
    OomKill,
    /// A committed `load_u64` from the global (shared-segment) range;
    /// instant. `arg0` = virtual address, `arg1` = pid.
    MemRead,
    /// A committed `store_u64` to the global (shared-segment) range;
    /// instant. `arg0` = virtual address, `arg1` = pid.
    MemWrite,

    // ---- sjmp-mem ----
    /// TLB lookup hit; instant. `arg0` = ASID.
    TlbHit,
    /// TLB lookup miss; instant. `arg0` = ASID.
    TlbMiss,
    /// TLB flush; instant. `arg0` = ASID (0 = full non-global flush).
    TlbFlush,
    /// Page-table walk after a TLB miss; span. `arg0` = ASID.
    PageWalk,
    /// CR3 load; span. `arg0` = new ASID, `arg1` = 1 if tagged mode.
    Cr3Load,

    // ---- spacejmp-core ----
    /// `vas_switch` end to end; span. `arg0` = pid, `arg1` = VAS id.
    VasSwitch,
    /// `vas_attach`; span. `arg0` = pid, `arg1` = VAS id.
    VasAttach,
    /// `vas_detach`; span. `arg0` = pid, `arg1` = VAS id.
    VasDetach,
    /// Segment lock acquired; instant. `arg0` = segment id, `arg1` = pid.
    LockAcquire,
    /// Segment lock released; instant. `arg0` = segment id, `arg1` = pid.
    LockRelease,
    /// Lock-set acquisition lost to contention; instant.
    /// `arg0` = segment id, `arg1` = pid.
    LockContention,
    /// A lock acquisition elided by fault injection
    /// (`FaultSite::SegLock`); instant. `arg0` = segment id,
    /// `arg1` = pid. Diagnostic only — analyzers must find the
    /// resulting race from the access stream, not from this marker.
    LockSkip,
    /// A segment came into existence (`seg_register`); instant.
    /// `arg0` = segment id, `arg1` = base virtual address.
    SegRegister,
    /// Companion to [`EventKind::SegRegister`] carrying the magnitude
    /// that does not fit in one event; instant. `arg0` = segment id,
    /// `arg1` = size in bytes.
    SegExtent,
    /// A segment attached to a VAS (`seg_attach`, the global variant);
    /// instant. `arg0` = segment id, `arg1` = VAS id. Together with
    /// [`EventKind::VasEnter`] this lets replay tools resolve which
    /// segment a virtual address belongs to — different VASes may map
    /// different segments at the same address.
    SegAttach,
    /// A process committed a switch into a VAS; instant. `arg0` = pid,
    /// `arg1` = VAS id (0 = the process's private home space). Unlike
    /// the [`EventKind::VasSwitch`] span, which brackets the whole
    /// attempt including failures, this fires only once the new
    /// translation root is actually loaded.
    VasEnter,
    /// A `vas_switch_retry` backoff turn; instant. `arg0` = pid,
    /// `arg1` = attempt number.
    SwitchRetry,
    /// `reap_process` teardown of a dead process; span. `arg0` = pid.
    Reap,

    // ---- sjmp-rpc ----
    /// URPC/message send; span. `arg0` = payload bytes.
    RpcSend,
    /// URPC/message receive; span. `arg0` = payload bytes.
    RpcRecv,

    // ---- sjmp-blk (emitted by the kernel's block-IO hooks) ----
    /// One block read from the snapshot disk; span. `arg0` = LBA.
    BlkRead,
    /// One block write to the snapshot disk; span. `arg0` = LBA.
    BlkWrite,
    /// One flush barrier on the snapshot disk; span.
    BlkFlush,
    /// Recovery replayed the write-ahead journal into the superblock;
    /// instant. `arg0` = replays performed, `arg1` = recovered
    /// generation.
    JournalReplay,
    /// A snapshot generation committed durably; instant.
    /// `arg0` = generation, `arg1` = payload bytes.
    SnapshotCommit,
    /// `vas_save` end to end; span. `arg0` = pid, `arg1` = VAS id.
    SnapshotSave,
    /// `vas_load` end to end; span. `arg0` = pid, `arg1` = VAS id (the
    /// freshly created one; 0 on the failing end of the span).
    SnapshotLoad,

    // ---- sjmp-kv request lifecycle (causal spans keyed by ReqId) ----
    /// A request entered the system at its open-loop arrival time;
    /// instant. `arg0` = request id, `arg1` = client id.
    ReqArrive,
    /// Admission control accepted the request into a shard's queue;
    /// instant. `arg0` = request id, `arg1` = shard index.
    ReqAdmit,
    /// The request reached the head of its shard queue and a core
    /// started serving it; instant. `arg0` = request id, `arg1` = the
    /// VAS-switch cycle component of the service that follows (so span
    /// reassembly can split switch from shard service), or 0 when the
    /// nested `VasSwitch` spans in the same trace carry it.
    ReqDispatch,
    /// The request was bounced and scheduled for a backoff retry;
    /// instant. `arg0` = request id, `arg1` = attempt number (1-based).
    ReqRetry,
    /// The request left the system without completing; instant.
    /// `arg0` = request id, `arg1` = terminal reason (0 = shed by
    /// admission control, 1 = deadline exceeded, 2 = shard
    /// unavailable/degraded).
    ReqShed,
    /// The request finished service; instant. `arg0` = request id,
    /// `arg1` = 1 if it completed within its deadline, else 0.
    ReqComplete,
}

impl EventKind {
    /// Every kind, for iteration in exporters and reports.
    pub const ALL: [EventKind; 48] = [
        EventKind::KernelEntry,
        EventKind::SwitchVmspace,
        EventKind::SwitchBook,
        EventKind::Mmap,
        EventKind::Munmap,
        EventKind::PageFault,
        EventKind::MajorFault,
        EventKind::SwapIn,
        EventKind::SwapOut,
        EventKind::ReclaimPass,
        EventKind::Evict,
        EventKind::QuotaDenial,
        EventKind::OomKill,
        EventKind::MemRead,
        EventKind::MemWrite,
        EventKind::TlbHit,
        EventKind::TlbMiss,
        EventKind::TlbFlush,
        EventKind::PageWalk,
        EventKind::Cr3Load,
        EventKind::VasSwitch,
        EventKind::VasAttach,
        EventKind::VasDetach,
        EventKind::LockAcquire,
        EventKind::LockRelease,
        EventKind::LockContention,
        EventKind::LockSkip,
        EventKind::SegRegister,
        EventKind::SegExtent,
        EventKind::SegAttach,
        EventKind::VasEnter,
        EventKind::SwitchRetry,
        EventKind::Reap,
        EventKind::RpcSend,
        EventKind::RpcRecv,
        EventKind::BlkRead,
        EventKind::BlkWrite,
        EventKind::BlkFlush,
        EventKind::JournalReplay,
        EventKind::SnapshotCommit,
        EventKind::SnapshotSave,
        EventKind::SnapshotLoad,
        EventKind::ReqArrive,
        EventKind::ReqAdmit,
        EventKind::ReqDispatch,
        EventKind::ReqRetry,
        EventKind::ReqShed,
        EventKind::ReqComplete,
    ];

    /// Stable snake_case name used for metric keys and trace export.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::KernelEntry => "kernel_entry",
            EventKind::SwitchVmspace => "switch_vmspace",
            EventKind::SwitchBook => "switch_book",
            EventKind::Mmap => "mmap",
            EventKind::Munmap => "munmap",
            EventKind::PageFault => "page_fault",
            EventKind::MajorFault => "major_fault",
            EventKind::SwapIn => "swap_in",
            EventKind::SwapOut => "swap_out",
            EventKind::ReclaimPass => "reclaim_pass",
            EventKind::Evict => "evict",
            EventKind::QuotaDenial => "quota_denial",
            EventKind::OomKill => "oom_kill",
            EventKind::MemRead => "mem_read",
            EventKind::MemWrite => "mem_write",
            EventKind::TlbHit => "tlb_hit",
            EventKind::TlbMiss => "tlb_miss",
            EventKind::TlbFlush => "tlb_flush",
            EventKind::PageWalk => "page_walk",
            EventKind::Cr3Load => "cr3_load",
            EventKind::VasSwitch => "vas_switch",
            EventKind::VasAttach => "vas_attach",
            EventKind::VasDetach => "vas_detach",
            EventKind::LockAcquire => "lock_acquire",
            EventKind::LockRelease => "lock_release",
            EventKind::LockContention => "lock_contention",
            EventKind::LockSkip => "lock_skip",
            EventKind::SegRegister => "seg_register",
            EventKind::SegExtent => "seg_extent",
            EventKind::SegAttach => "seg_attach",
            EventKind::VasEnter => "vas_enter",
            EventKind::SwitchRetry => "switch_retry",
            EventKind::Reap => "reap",
            EventKind::RpcSend => "rpc_send",
            EventKind::RpcRecv => "rpc_recv",
            EventKind::BlkRead => "blk_read",
            EventKind::BlkWrite => "blk_write",
            EventKind::BlkFlush => "blk_flush",
            EventKind::JournalReplay => "journal_replay",
            EventKind::SnapshotCommit => "snapshot_commit",
            EventKind::SnapshotSave => "snapshot_save",
            EventKind::SnapshotLoad => "snapshot_load",
            EventKind::ReqArrive => "req_arrive",
            EventKind::ReqAdmit => "req_admit",
            EventKind::ReqDispatch => "req_dispatch",
            EventKind::ReqRetry => "req_retry",
            EventKind::ReqShed => "req_shed",
            EventKind::ReqComplete => "req_complete",
        }
    }

    /// Inverse of [`EventKind::name`]; `None` for unknown names. Trace
    /// importers use this so exported documents round-trip losslessly.
    pub fn from_name(name: &str) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One recorded trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Simulated cycle timestamp (from the caller's `CycleClock`).
    pub ts: u64,
    /// Hardware thread the event happened on.
    pub core: u32,
    /// Span phase.
    pub phase: Phase,
    /// What happened.
    pub kind: EventKind,
    /// First argument word; meaning is per-kind.
    pub arg0: u64,
    /// Second argument word; meaning is per-kind.
    pub arg1: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_cover_all() {
        let mut seen = std::collections::HashSet::new();
        for kind in EventKind::ALL {
            assert!(seen.insert(kind.name()), "duplicate name {}", kind.name());
        }
        assert_eq!(seen.len(), EventKind::ALL.len());
    }

    #[test]
    fn from_name_round_trips_every_kind() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(EventKind::from_name("no_such_kind"), None);
    }

    #[test]
    fn chrome_phase_letters() {
        assert_eq!(Phase::Begin.chrome_ph(), "B");
        assert_eq!(Phase::End.chrome_ph(), "E");
        assert_eq!(Phase::Instant.chrome_ph(), "i");
    }
}
