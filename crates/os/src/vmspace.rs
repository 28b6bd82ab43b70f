//! The `vmspace`: one concrete instance of an address space.
//!
//! In BSD (Section 4.1) an address space has two layers: "a high-level set
//! of region descriptors (virtual offset, length, permissions), and a
//! single instance of the architecture-specific translation structures
//! used by the CPU." A [`Vmspace`] holds both: a sorted region map and the
//! root of a four-level page table in simulated physical memory.
//!
//! SpaceJMP's key observation lives here too: a *VAS* cannot be shared as
//! a `vmspace` directly, because every process needs its own private
//! segments (code, stack) mapped at conflicting addresses. Instead, each
//! attaching process instantiates its own `Vmspace` from the VAS's segment
//! set. That instantiation is implemented in `spacejmp-core`; this module
//! provides the mechanism.

use std::collections::BTreeMap;

use sjmp_mem::{Access, Asid, MemError, Pfn, PteFlags, VirtAddr, PAGE_SIZE};

use crate::vmobject::VmObjectId;

/// Identifier of a vmspace instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VmspaceId(pub u64);
sjmp_sim::table_id!(VmspaceId);

/// When page-table entries for a region are constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapPolicy {
    /// Construct all entries at map time (`mmap` then touch-all; this is
    /// the cost Figure 1 measures).
    Eager,
    /// Construct entries on first fault.
    Lazy,
}

/// One mapped region: `[start, start+len)` backed by a VM object.
#[derive(Debug, Clone)]
pub struct Region {
    /// First mapped virtual address (page aligned).
    pub start: VirtAddr,
    /// Region length in bytes (multiple of the page size).
    pub len: u64,
    /// Backing VM object.
    pub object: VmObjectId,
    /// Byte offset into the object where this region begins.
    pub object_offset: u64,
    /// Leaf PTE flags for the mapping.
    pub flags: PteFlags,
    /// Eager or lazy construction.
    pub policy: MapPolicy,
}

impl Region {
    /// Whether `va` falls inside this region.
    pub fn contains(&self, va: VirtAddr) -> bool {
        va >= self.start && va.raw() < self.start.raw() + self.len
    }

    /// Whether the region's flags allow `access` (used on faults).
    pub fn permits(&self, access: Access) -> bool {
        match access {
            Access::Read => true,
            Access::Write => self.flags.contains(PteFlags::WRITABLE),
            Access::Execute => !self.flags.contains(PteFlags::NO_EXECUTE),
        }
    }

    /// One-past-the-end address.
    pub fn end(&self) -> VirtAddr {
        self.start.add(self.len)
    }
}

/// A concrete address-space instance: region map plus page-table root.
#[derive(Debug)]
pub struct Vmspace {
    id: VmspaceId,
    root: Pfn,
    asid: Asid,
    regions: BTreeMap<u64, Region>,
    /// PML4 slots linked from shared subtrees (not freed on teardown).
    shared_slots: Vec<usize>,
}

impl Vmspace {
    /// Creates an empty vmspace over an existing root table.
    pub fn new(id: VmspaceId, root: Pfn) -> Self {
        Vmspace {
            id,
            root,
            asid: Asid::UNTAGGED,
            regions: BTreeMap::new(),
            shared_slots: Vec::new(),
        }
    }

    /// This vmspace's id.
    pub fn id(&self) -> VmspaceId {
        self.id
    }

    /// Root page-table frame (the value loaded into CR3).
    pub fn root(&self) -> Pfn {
        self.root
    }

    /// TLB tag for this space.
    pub fn asid(&self) -> Asid {
        self.asid
    }

    /// Assigns a TLB tag (`vas_ctl` tag hints end up here).
    pub fn set_asid(&mut self, asid: Asid) {
        self.asid = asid;
    }

    /// Records that a PML4 slot holds a shared subtree.
    pub fn mark_shared_slot(&mut self, slot: usize) {
        if !self.shared_slots.contains(&slot) {
            self.shared_slots.push(slot);
        }
    }

    /// Slots holding shared subtrees.
    pub fn shared_slots(&self) -> &[usize] {
        &self.shared_slots
    }

    /// Inserts a region after checking alignment and overlap.
    ///
    /// Unlike Linux `mmap` — which the paper criticizes because it "does
    /// not safely abort if a request is made to open a region of memory
    /// over an existing region; it simply writes over it" — insertion
    /// fails loudly on any overlap.
    ///
    /// # Errors
    ///
    /// * [`MemError::BadMapping`] for misaligned or empty regions.
    /// * [`MemError::AlreadyMapped`] if the range overlaps a region.
    pub fn insert_region(&mut self, region: Region) -> Result<(), MemError> {
        if region.len == 0
            || !region.start.is_aligned(PAGE_SIZE)
            || !region.len.is_multiple_of(PAGE_SIZE)
            || !region.object_offset.is_multiple_of(PAGE_SIZE)
        {
            return Err(MemError::BadMapping(region.start));
        }
        if let Some(existing) = self.overlap(region.start, region.len) {
            return Err(MemError::AlreadyMapped(existing));
        }
        self.regions.insert(region.start.raw(), region);
        Ok(())
    }

    /// Returns the start of a region overlapping `[start, start+len)`.
    pub fn overlap(&self, start: VirtAddr, len: u64) -> Option<VirtAddr> {
        let end = start.raw() + len;
        // Candidate: the last region starting at or before the new end.
        self.regions
            .range(..end)
            .next_back()
            .filter(|(_, r)| r.start.raw() + r.len > start.raw())
            .map(|(_, r)| r.start)
    }

    /// Finds the region containing `va`.
    pub fn find_region(&self, va: VirtAddr) -> Option<&Region> {
        self.regions
            .range(..=va.raw())
            .next_back()
            .map(|(_, r)| r)
            .filter(|r| r.contains(va))
    }

    /// Removes the region starting exactly at `start` and returns it.
    pub fn remove_region(&mut self, start: VirtAddr) -> Option<Region> {
        self.regions.remove(&start.raw())
    }

    /// Iterates over regions in address order.
    pub fn regions(&self) -> impl Iterator<Item = &Region> {
        self.regions.values()
    }

    /// Number of regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Finds `len` bytes of free address space within `[lo, hi)`,
    /// page-aligned, first-fit.
    pub fn find_free(&self, lo: VirtAddr, hi: VirtAddr, len: u64) -> Option<VirtAddr> {
        let len = len.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let mut cursor = lo.align_up(PAGE_SIZE);
        for r in self.regions.range(..hi.raw()).map(|(_, r)| r) {
            if r.start.raw() + r.len <= cursor.raw() {
                continue;
            }
            if r.start.raw() >= cursor.raw() + len {
                break;
            }
            cursor = r.end().align_up(PAGE_SIZE);
        }
        if cursor.raw() + len <= hi.raw() {
            Some(cursor)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(start: u64, len: u64) -> Region {
        Region {
            start: VirtAddr::new(start),
            len,
            object: VmObjectId(1),
            object_offset: 0,
            flags: PteFlags::WRITABLE | PteFlags::USER,
            policy: MapPolicy::Eager,
        }
    }

    fn space() -> Vmspace {
        Vmspace::new(VmspaceId(1), Pfn(42))
    }

    #[test]
    fn insert_and_find() {
        let mut vs = space();
        vs.insert_region(region(0x1000, 0x2000)).unwrap();
        assert!(vs.find_region(VirtAddr::new(0x1000)).is_some());
        assert!(vs.find_region(VirtAddr::new(0x2fff)).is_some());
        assert!(vs.find_region(VirtAddr::new(0x3000)).is_none());
        assert!(vs.find_region(VirtAddr::new(0xfff)).is_none());
        assert_eq!(vs.region_count(), 1);
    }

    #[test]
    fn overlap_rejected_loudly() {
        let mut vs = space();
        vs.insert_region(region(0x10000, 0x4000)).unwrap();
        // Overlapping from below, inside, above, and exact.
        for (s, l) in [
            (0xf000, 0x2000),
            (0x11000, 0x1000),
            (0x13000, 0x4000),
            (0x10000, 0x4000),
        ] {
            assert!(
                matches!(
                    vs.insert_region(region(s, l)),
                    Err(MemError::AlreadyMapped(_))
                ),
                "({s:#x},{l:#x}) should overlap"
            );
        }
        // Adjacent regions are fine.
        vs.insert_region(region(0x14000, 0x1000)).unwrap();
        vs.insert_region(region(0xe000, 0x2000)).unwrap();
    }

    #[test]
    fn misaligned_rejected() {
        let mut vs = space();
        assert!(vs.insert_region(region(0x1234, 0x1000)).is_err());
        assert!(vs.insert_region(region(0x1000, 0x123)).is_err());
        assert!(vs.insert_region(region(0x1000, 0)).is_err());
    }

    #[test]
    fn remove_region() {
        let mut vs = space();
        vs.insert_region(region(0x1000, 0x1000)).unwrap();
        assert!(vs.remove_region(VirtAddr::new(0x1000)).is_some());
        assert!(vs.remove_region(VirtAddr::new(0x1000)).is_none());
        assert_eq!(vs.region_count(), 0);
    }

    #[test]
    fn find_free_first_fit() {
        let mut vs = space();
        vs.insert_region(region(0x2000, 0x2000)).unwrap();
        vs.insert_region(region(0x6000, 0x1000)).unwrap();
        let lo = VirtAddr::new(0x1000);
        let hi = VirtAddr::new(0x10000);
        // Hole at 0x1000 (one page), then 0x4000..0x6000.
        assert_eq!(vs.find_free(lo, hi, 0x1000), Some(VirtAddr::new(0x1000)));
        assert_eq!(vs.find_free(lo, hi, 0x2000), Some(VirtAddr::new(0x4000)));
        assert_eq!(vs.find_free(lo, hi, 0x8000), Some(VirtAddr::new(0x7000)));
        assert_eq!(vs.find_free(lo, hi, 0x10000), None);
    }

    #[test]
    fn region_permissions() {
        let mut r = region(0x1000, 0x1000);
        assert!(r.permits(Access::Read));
        assert!(r.permits(Access::Write));
        r.flags = PteFlags::USER;
        assert!(!r.permits(Access::Write));
        r.flags = PteFlags::USER | PteFlags::NO_EXECUTE;
        assert!(!r.permits(Access::Execute));
    }

    #[test]
    fn shared_slots_dedup() {
        let mut vs = space();
        vs.mark_shared_slot(3);
        vs.mark_shared_slot(3);
        vs.mark_shared_slot(4);
        assert_eq!(vs.shared_slots(), &[3, 4]);
    }

    #[test]
    fn asid_assignment() {
        let mut vs = space();
        assert_eq!(vs.asid(), Asid::UNTAGGED);
        vs.set_asid(Asid(7));
        assert_eq!(vs.asid(), Asid(7));
    }
}
