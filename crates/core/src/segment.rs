//! Lockable segments: the unit of sharing and protection in SpaceJMP.
//!
//! Section 3.1: "a segment is a single, contiguous area of virtual memory
//! containing code and data, with a fixed virtual start address and size,
//! together with meta-data to describe how to access the content in
//! memory. With every segment we store the backing physical frames, the
//! mapping from its virtual addresses to physical frames and the
//! associated access rights."
//!
//! A lockable segment carries a reader/writer lock acquired when a process
//! *switches into* an address space containing it: shared if the segment
//! is mapped read-only in that VAS, exclusive if mapped writable.

use sjmp_mem::{Access, PageSize, VirtAddr};
use sjmp_os::{Acl, Backing, Pid, VmObjectId};

/// Segment identifier (the `sid` of the Figure 3 API).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegId(pub u64);
sjmp_os::table_id!(SegId);

/// How a segment is mapped within a particular VAS, which decides the
/// lock mode taken on switch-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttachMode {
    /// Mapped read-only: switch-in takes the lock shared.
    ReadOnly,
    /// Mapped writable: switch-in takes the lock exclusive.
    ReadWrite,
}

impl AttachMode {
    /// The access right this mode requires from the segment's ACL.
    pub fn required_access(self) -> Access {
        match self {
            AttachMode::ReadOnly => Access::Read,
            AttachMode::ReadWrite => Access::Write,
        }
    }
}

/// Reader/writer lock state of a lockable segment. Holders are processes
/// currently switched into a VAS that maps the segment.
#[derive(Debug, Default, Clone)]
pub struct SegLock {
    readers: Vec<Pid>,
    writer: Option<Pid>,
    /// Total acquisitions, for contention reporting.
    pub acquisitions: u64,
    /// Failed (would-block) attempts.
    pub contentions: u64,
}

impl SegLock {
    /// Attempts to acquire for `pid` in `mode`. Re-entrant per process
    /// (a process already holding in a compatible mode succeeds).
    pub fn try_acquire(&mut self, pid: Pid, mode: AttachMode) -> bool {
        let ok = match mode {
            AttachMode::ReadOnly => self.writer.is_none() || self.writer == Some(pid),
            AttachMode::ReadWrite => {
                (self.writer.is_none() || self.writer == Some(pid))
                    && self.readers.iter().all(|&r| r == pid)
            }
        };
        if !ok {
            self.contentions += 1;
            return false;
        }
        match mode {
            AttachMode::ReadOnly => {
                if !self.readers.contains(&pid) {
                    self.readers.push(pid);
                }
            }
            AttachMode::ReadWrite => self.writer = Some(pid),
        }
        self.acquisitions += 1;
        true
    }

    /// Narrows `pid`'s hold to exactly `mode` (used after a switch where
    /// both the old and new VAS mapped the segment, possibly in different
    /// modes).
    ///
    /// # Panics
    ///
    /// Debug-asserts that `pid` actually holds the lock.
    pub fn downgrade_to(&mut self, pid: Pid, mode: AttachMode) {
        debug_assert!(self.held_by(pid), "downgrade without hold");
        match mode {
            AttachMode::ReadOnly => {
                if self.writer == Some(pid) {
                    self.writer = None;
                }
                if !self.readers.contains(&pid) {
                    self.readers.push(pid);
                }
            }
            AttachMode::ReadWrite => {
                self.readers.retain(|&r| r != pid);
                debug_assert_eq!(self.writer, Some(pid));
            }
        }
    }

    /// Releases whatever `pid` holds.
    pub fn release(&mut self, pid: Pid) {
        self.readers.retain(|&r| r != pid);
        if self.writer == Some(pid) {
            self.writer = None;
        }
    }

    /// Whether `pid` holds the lock in any mode.
    pub fn held_by(&self, pid: Pid) -> bool {
        self.writer == Some(pid) || self.readers.contains(&pid)
    }

    /// Current reader count.
    pub fn reader_count(&self) -> usize {
        self.readers.len()
    }

    /// Processes holding the lock shared (waits-for-graph construction).
    pub fn readers(&self) -> &[Pid] {
        &self.readers
    }

    /// The writer, if any.
    pub fn writer(&self) -> Option<Pid> {
        self.writer
    }

    /// Whether nobody holds the lock.
    pub fn is_free(&self) -> bool {
        self.writer.is_none() && self.readers.is_empty()
    }
}

/// A SpaceJMP segment.
#[derive(Debug)]
pub struct Segment {
    sid: SegId,
    name: String,
    base: VirtAddr,
    size: u64,
    object: VmObjectId,
    acl: Acl,
    lockable: bool,
    lock: SegLock,
    /// Number of VASes this segment is attached to.
    attach_count: u64,
    /// The memory behind the segment, fixed at allocation. An aligned
    /// backing also sets the page size the segment maps at in template
    /// trees; such segments have naturally aligned base and size.
    backing: Backing,
}

impl Segment {
    /// Creates a segment descriptor over an allocated VM object.
    pub fn new(
        sid: SegId,
        name: impl Into<String>,
        base: VirtAddr,
        size: u64,
        object: VmObjectId,
        acl: Acl,
    ) -> Self {
        Segment {
            sid,
            name: name.into(),
            base,
            size,
            object,
            acl,
            lockable: true,
            lock: SegLock::default(),
            attach_count: 0,
            backing: Backing::default(),
        }
    }

    /// The memory behind the segment.
    pub fn backing(&self) -> Backing {
        self.backing
    }

    /// Sets the backing (builder-style; `SpaceJmp` sets it when it
    /// registers a segment, after `seg_alloc_with` validated alignment).
    pub fn with_backing(mut self, backing: Backing) -> Self {
        self.backing = backing;
        self
    }

    /// The page size this segment maps at.
    pub fn page_size(&self) -> PageSize {
        self.backing.page_size()
    }

    /// The segment id.
    pub fn sid(&self) -> SegId {
        self.sid
    }

    /// The global name (`seg_find` key).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Fixed virtual start address.
    pub fn base(&self) -> VirtAddr {
        self.base
    }

    /// Size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// One past the last byte.
    pub fn end(&self) -> VirtAddr {
        self.base.add(self.size)
    }

    /// Backing VM object.
    pub fn object(&self) -> VmObjectId {
        self.object
    }

    /// Access-control list.
    pub fn acl(&self) -> &Acl {
        &self.acl
    }

    /// Mutable ACL (for `seg_ctl` permission changes).
    pub fn acl_mut(&mut self) -> &mut Acl {
        &mut self.acl
    }

    /// Whether switch-in must take this segment's lock.
    pub fn lockable(&self) -> bool {
        self.lockable
    }

    /// Marks the segment lockable or not (`seg_ctl`). Non-lockable
    /// segments are for data the application synchronizes itself.
    pub fn set_lockable(&mut self, lockable: bool) {
        self.lockable = lockable;
    }

    /// The lock state.
    pub fn lock(&self) -> &SegLock {
        &self.lock
    }

    /// Mutable lock state (the switch path).
    pub fn lock_mut(&mut self) -> &mut SegLock {
        &mut self.lock
    }

    /// PML4 slots (level-4 indices) this segment's address range spans;
    /// used for page-table subtree sharing.
    pub fn pml4_slots(&self) -> impl Iterator<Item = usize> {
        let first = self.base.pml4_index();
        let last = self.base.add(self.size - 1).pml4_index();
        first..=last
    }

    /// Records attachment to one more VAS.
    pub fn add_attach(&mut self) {
        self.attach_count += 1;
    }

    /// Records detachment; returns the remaining count.
    pub fn drop_attach(&mut self) -> u64 {
        self.attach_count = self.attach_count.saturating_sub(1);
        self.attach_count
    }

    /// Number of VASes currently attaching this segment.
    pub fn attach_count(&self) -> u64 {
        self.attach_count
    }

    /// Whether `[base, base+size)` overlaps `other`.
    pub fn overlaps(&self, other: &Segment) -> bool {
        self.base < other.end() && other.base < self.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjmp_os::{Creds, Mode};

    fn seg(base: u64, size: u64) -> Segment {
        Segment::new(
            SegId(1),
            "s",
            VirtAddr::new(base),
            size,
            VmObjectId(1),
            Acl::new(Creds::new(1, 1), Mode(0o660)),
        )
    }

    #[test]
    fn lock_shared_readers() {
        let mut l = SegLock::default();
        assert!(l.try_acquire(Pid(1), AttachMode::ReadOnly));
        assert!(l.try_acquire(Pid(2), AttachMode::ReadOnly));
        assert_eq!(l.reader_count(), 2);
        assert!(
            !l.try_acquire(Pid(3), AttachMode::ReadWrite),
            "readers block writer"
        );
        assert_eq!(l.contentions, 1);
        l.release(Pid(1));
        l.release(Pid(2));
        assert!(l.try_acquire(Pid(3), AttachMode::ReadWrite));
        assert_eq!(l.writer(), Some(Pid(3)));
    }

    #[test]
    fn lock_writer_excludes_all() {
        let mut l = SegLock::default();
        assert!(l.try_acquire(Pid(1), AttachMode::ReadWrite));
        assert!(!l.try_acquire(Pid(2), AttachMode::ReadOnly));
        assert!(!l.try_acquire(Pid(2), AttachMode::ReadWrite));
        l.release(Pid(1));
        assert!(l.is_free());
        assert!(l.try_acquire(Pid(2), AttachMode::ReadOnly));
    }

    #[test]
    fn lock_reentrant_same_process() {
        let mut l = SegLock::default();
        assert!(l.try_acquire(Pid(1), AttachMode::ReadWrite));
        assert!(
            l.try_acquire(Pid(1), AttachMode::ReadOnly),
            "own writer may read"
        );
        assert!(
            l.try_acquire(Pid(1), AttachMode::ReadWrite),
            "re-acquire own write"
        );
        assert!(l.held_by(Pid(1)));
        l.release(Pid(1));
        assert!(l.is_free(), "release drops all of a process's holds");
    }

    #[test]
    fn reader_upgrade_only_when_sole_reader() {
        let mut l = SegLock::default();
        assert!(l.try_acquire(Pid(1), AttachMode::ReadOnly));
        assert!(
            l.try_acquire(Pid(1), AttachMode::ReadWrite),
            "sole reader upgrades"
        );
        let mut l2 = SegLock::default();
        assert!(l2.try_acquire(Pid(1), AttachMode::ReadOnly));
        assert!(l2.try_acquire(Pid(2), AttachMode::ReadOnly));
        assert!(
            !l2.try_acquire(Pid(1), AttachMode::ReadWrite),
            "other readers block upgrade"
        );
    }

    #[test]
    fn attach_mode_required_access() {
        assert_eq!(AttachMode::ReadOnly.required_access(), Access::Read);
        assert_eq!(AttachMode::ReadWrite.required_access(), Access::Write);
    }

    #[test]
    fn segment_geometry() {
        let s = seg(0x1000_0000_0000, 2 << 20);
        assert_eq!(s.end().raw(), 0x1000_0000_0000 + (2 << 20));
        assert_eq!(s.pml4_slots().collect::<Vec<_>>(), vec![32]);
        // A segment spanning a 512 GiB boundary covers two slots.
        let s2 = seg((1 << 39) - 4096, 8192);
        assert_eq!(s2.pml4_slots().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn overlap_detection() {
        let a = seg(0x1000, 0x1000);
        let b = seg(0x1800, 0x1000);
        let c = seg(0x2000, 0x1000);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert!(b.overlaps(&c));
    }

    #[test]
    fn attach_counting() {
        let mut s = seg(0, 4096);
        s.add_attach();
        s.add_attach();
        assert_eq!(s.attach_count(), 2);
        assert_eq!(s.drop_attach(), 1);
        assert_eq!(s.drop_attach(), 0);
        assert_eq!(s.drop_attach(), 0);
    }

    #[test]
    fn lockable_toggle() {
        let mut s = seg(0, 4096);
        assert!(s.lockable());
        s.set_lockable(false);
        assert!(!s.lockable());
    }

    #[test]
    fn page_size_defaults_to_base_and_is_builder_settable() {
        let s = seg(0, 4096);
        assert_eq!(s.page_size(), PageSize::Size4K);
        let s2 = seg(0x4000_0000, 2 << 20).with_backing(Backing::Aligned(PageSize::Size2M));
        assert_eq!(s2.page_size(), PageSize::Size2M);
    }
}
