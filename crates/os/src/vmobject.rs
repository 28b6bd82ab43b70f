//! BSD-style VM objects: the storage abstraction behind every mapping.
//!
//! The DragonFly BSD memory subsystem derives from Mach: each mapping's
//! region descriptor references a *VM object* which owns the physical
//! pages (Section 4.1). "A SpaceJMP segment is a wrapper around such an
//! object, backed only by physical memory, additionally containing global
//! identifiers (e.g., a name), and protection state. Physical pages are
//! reserved at the time a segment is created, and are not swappable."
//!
//! Two backing shapes exist:
//!
//! * **Contiguous** objects own a flat physical range (`pa = base +
//!   offset`). This matches the reservation-at-creation policy of pinned
//!   segments and keeps the virtual-to-physical math trivial.
//! * **Paged** objects track each page individually ([`PageState`]):
//!   demand-zero until first touch, resident in some frame, or saved to
//!   the swap device. This is what makes unpinned memory reclaimable
//!   under pressure — pinned segment frames stay contiguous and are never
//!   swapped, preserving the paper's semantics.
//!
//! Sparse host materialization (see [`sjmp_mem::phys::PhysMem`]) keeps
//! even terabyte-sized objects cheap.

use sjmp_mem::{MemError, PageSize, Pfn, PhysAddr, PhysMem, Tier, PAGE_SIZE};

use crate::process::Pid;

/// The memory a new VM object is built on, chosen at
/// [`Kernel::alloc_object`](crate::Kernel::alloc_object).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Backing {
    /// DRAM reserved at creation: one contiguous range, or single frames
    /// when no free range is long enough.
    #[default]
    Dram,
    /// DRAM reserved at creation as one range naturally aligned to the
    /// page size, as superpage mappings require. Never falls back to
    /// single frames.
    Aligned(PageSize),
    /// Demand-zero and swappable: no frame until a page is touched, and
    /// the reclaim scan may evict it.
    Demand,
    /// One contiguous range of the NVM capacity tier.
    Nvm,
}

impl Backing {
    /// The page size mappings of this backing use.
    pub fn page_size(self) -> PageSize {
        match self {
            Backing::Aligned(page_size) => page_size,
            _ => PageSize::Size4K,
        }
    }
}

/// Identifier of a VM object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VmObjectId(pub u64);
sjmp_sim::table_id!(VmObjectId);

/// Where one page of a paged object currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// Never materialized: reads as zero; the first fault allocates a
    /// frame (demand-zero).
    Zero,
    /// Backed by a physical frame. `referenced` is the clock algorithm's
    /// second-chance bit: set when the page is faulted in or remapped,
    /// cleared (along with the translations) by a reclaim scan pass.
    Resident {
        /// The backing frame.
        pfn: Pfn,
        /// Second-chance bit for the clock eviction policy.
        referenced: bool,
    },
    /// Saved to the swap device.
    Swapped {
        /// Swap slot holding the page image.
        slot: u64,
    },
}

/// How a fault-in request found the page (decides what to charge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageSource {
    /// The page was already resident (minor fault: remap only).
    AlreadyResident,
    /// A fresh zeroed frame was allocated (demand-zero fill).
    ZeroFill,
    /// The page was read back from swap (major fault).
    SwappedIn,
}

#[derive(Debug, Clone)]
enum Frames {
    Contiguous { base: Pfn },
    Paged { states: Vec<PageState> },
}

/// A physically-backed memory object.
#[derive(Debug, Clone)]
pub struct VmObject {
    id: VmObjectId,
    backing: Frames,
    pages: u64,
    /// Number of vmspace regions currently referencing this object.
    refs: u64,
    /// Pinned objects outlive the processes mapping them (SpaceJMP
    /// segments: "physical pages are reserved at the time a segment is
    /// created"). Unpinned objects are process-private and are reclaimed
    /// when process teardown drops their last mapping reference.
    pinned: bool,
    /// Survives process teardown at zero references without pinning its
    /// frames. Swappable segments set this: their lifetime is managed by
    /// the SpaceJMP layer but their pages remain eviction candidates.
    preserved: bool,
    /// Whether the reclaim scan may evict this object's pages. Never true
    /// together with `pinned`.
    swappable: bool,
    /// Process charged for this object's resident pages (memory quotas
    /// and OOM badness). `None` for kernel-owned or orphaned objects.
    owner: Option<Pid>,
}

impl VmObject {
    fn new(id: VmObjectId, backing: Frames, pages: u64) -> Self {
        VmObject {
            id,
            backing,
            pages,
            refs: 0,
            pinned: false,
            preserved: false,
            swappable: false,
            owner: None,
        }
    }

    /// Allocates a new object of `len` bytes (rounded up to whole pages)
    /// on `backing`:
    ///
    /// * [`Backing::Dram`] takes the lowest free contiguous range, or
    ///   when no free range is long enough, single frames as a paged
    ///   object;
    /// * [`Backing::Aligned`] takes the lowest free range naturally
    ///   aligned to its page size, with no paged fallback: a fragmented
    ///   machine fails the request rather than silently losing the
    ///   alignment a huge-page mapping needs;
    /// * [`Backing::Nvm`] takes the lowest free range of the NVM tier;
    /// * [`Backing::Demand`] takes no frame: its pages are demand-zero,
    ///   and the object is swappable.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfFrames`] when the backing's frames are
    /// exhausted (or no NVM tier exists), and `InvalidArgument`-style
    /// `BadMapping` for a zero length.
    pub fn alloc(
        phys: &mut PhysMem,
        id: VmObjectId,
        len: u64,
        backing: Backing,
    ) -> Result<Self, MemError> {
        if len == 0 {
            return Err(MemError::BadMapping(sjmp_mem::VirtAddr::NULL));
        }
        let pages = len.div_ceil(PAGE_SIZE);
        let (tier, align) = match backing {
            Backing::Dram => (Tier::Dram, 1),
            Backing::Aligned(page_size) => (Tier::Dram, page_size.bytes() / PAGE_SIZE),
            Backing::Nvm => (Tier::Nvm, 1),
            Backing::Demand => {
                let states = vec![PageState::Zero; pages as usize];
                let mut obj = VmObject::new(id, Frames::Paged { states }, pages);
                obj.swappable = true;
                return Ok(obj);
            }
        };
        let frames = match phys.alloc_contiguous(tier, pages, align) {
            Ok(base) => Frames::Contiguous { base },
            Err(MemError::OutOfFrames)
                if backing == Backing::Dram && phys.free_frames() >= pages =>
            {
                let states = (0..pages).map(|_| PageState::Resident {
                    pfn: phys.alloc_frame().expect("counted free"),
                    referenced: true,
                });
                Frames::Paged {
                    states: states.collect(),
                }
            }
            Err(e) => return Err(e),
        };
        Ok(VmObject::new(id, frames, pages))
    }

    /// The object's id.
    pub fn id(&self) -> VmObjectId {
        self.id
    }

    /// Whether the object owns a flat physical range (`pa = base +
    /// offset` holds). Paged objects must be addressed per page.
    pub fn is_contiguous(&self) -> bool {
        matches!(self.backing, Frames::Contiguous { .. })
    }

    /// First physical address of the backing range.
    ///
    /// # Panics
    ///
    /// Panics on paged objects, which have no single base.
    pub fn base(&self) -> PhysAddr {
        match &self.backing {
            Frames::Contiguous { base } => base.base(),
            Frames::Paged { .. } => panic!("base() on demand-paged object"),
        }
    }

    /// Size in pages.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// Size in bytes.
    pub fn len(&self) -> u64 {
        self.pages * PAGE_SIZE
    }

    /// Whether the object holds zero pages (never true for live objects).
    pub fn is_empty(&self) -> bool {
        self.pages == 0
    }

    /// Physical address of byte `offset` within the object.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is out of bounds or the containing page is not
    /// resident (fault it in first).
    pub fn pa(&self, offset: u64) -> PhysAddr {
        assert!(
            offset < self.len(),
            "offset {offset} beyond object of {} bytes",
            self.len()
        );
        match &self.backing {
            Frames::Contiguous { base } => base.base().add(offset),
            Frames::Paged { states } => match states[(offset / PAGE_SIZE) as usize] {
                PageState::Resident { pfn, .. } => pfn.base().add(offset % PAGE_SIZE),
                _ => panic!("pa() of non-resident page at offset {offset}"),
            },
        }
    }

    /// The state of page `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn page_state(&self, index: u64) -> PageState {
        assert!(index < self.pages, "page {index} beyond object");
        match &self.backing {
            Frames::Contiguous { base } => PageState::Resident {
                pfn: Pfn(base.0 + index),
                referenced: true,
            },
            Frames::Paged { states } => states[index as usize],
        }
    }

    /// The frame backing page `index`, if it is resident.
    pub fn frame_of_page(&self, index: u64) -> Option<Pfn> {
        match self.page_state(index) {
            PageState::Resident { pfn, .. } => Some(pfn),
            _ => None,
        }
    }

    /// Number of pages currently backed by physical frames.
    pub fn resident_pages(&self) -> u64 {
        match &self.backing {
            Frames::Contiguous { .. } => self.pages,
            Frames::Paged { states } => states
                .iter()
                .filter(|s| matches!(s, PageState::Resident { .. }))
                .count() as u64,
        }
    }

    /// Number of pages currently saved to swap.
    pub fn swapped_pages(&self) -> u64 {
        match &self.backing {
            Frames::Contiguous { .. } => 0,
            Frames::Paged { states } => states
                .iter()
                .filter(|s| matches!(s, PageState::Swapped { .. }))
                .count() as u64,
        }
    }

    /// Converts a contiguous object to per-page tracking so its pages can
    /// be evicted individually. No-op on already-paged objects.
    pub fn make_paged(&mut self) {
        if let Frames::Contiguous { base } = self.backing {
            self.backing = Frames::Paged {
                states: (0..self.pages)
                    .map(|i| PageState::Resident {
                        pfn: Pfn(base.0 + i),
                        referenced: true,
                    })
                    .collect(),
            };
        }
    }

    /// Installs `state` for page `index` directly — the object
    /// duplication path preserves `Zero`/`Swapped` states without
    /// faulting pages in. The caller owns the bookkeeping: the frame or
    /// swap slot named by `state` transfers to this object.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds or the object is contiguous.
    pub(crate) fn install_page_state(&mut self, index: u64, state: PageState) {
        assert!(index < self.pages, "page {index} beyond object");
        match &mut self.backing {
            Frames::Contiguous { .. } => panic!("install_page_state on contiguous object"),
            Frames::Paged { states } => states[index as usize] = state,
        }
    }

    /// Clock second-chance test: if page `index` is resident with its
    /// referenced bit set, clears the bit and returns `true` (the page
    /// survives this pass). Returns `false` for unreferenced, non-resident
    /// or contiguous pages.
    pub fn take_reference(&mut self, index: u64) -> bool {
        if let Frames::Paged { states } = &mut self.backing {
            if let PageState::Resident { referenced, .. } = &mut states[index as usize] {
                if *referenced {
                    *referenced = false;
                    return true;
                }
            }
        }
        false
    }

    /// Swaps resident page `index` out, returning the slot it went to.
    /// Returns `None` if the page is not resident or the object is still
    /// contiguous (call [`Self::make_paged`] first).
    pub fn evict_page(&mut self, index: u64, phys: &mut PhysMem) -> Option<u64> {
        if let Frames::Paged { states } = &mut self.backing {
            if let PageState::Resident { pfn, .. } = states[index as usize] {
                let slot = phys.swap_out(pfn);
                states[index as usize] = PageState::Swapped { slot };
                return Some(slot);
            }
        }
        None
    }

    /// Makes page `index` resident, allocating or swapping in as needed,
    /// and sets its referenced bit. Returns the backing frame and how the
    /// page was produced (so the caller can charge the right cycle cost).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfFrames`] when no frame is available; the
    /// page state is unchanged so the fault can be retried after reclaim.
    pub fn fault_in_page(
        &mut self,
        index: u64,
        phys: &mut PhysMem,
    ) -> Result<(Pfn, PageSource), MemError> {
        assert!(index < self.pages, "page {index} beyond object");
        match &mut self.backing {
            Frames::Contiguous { base } => Ok((Pfn(base.0 + index), PageSource::AlreadyResident)),
            Frames::Paged { states } => match states[index as usize] {
                PageState::Resident { pfn, .. } => {
                    states[index as usize] = PageState::Resident {
                        pfn,
                        referenced: true,
                    };
                    Ok((pfn, PageSource::AlreadyResident))
                }
                PageState::Zero => {
                    let pfn = phys.alloc_frame()?;
                    states[index as usize] = PageState::Resident {
                        pfn,
                        referenced: true,
                    };
                    Ok((pfn, PageSource::ZeroFill))
                }
                PageState::Swapped { slot } => {
                    let pfn = phys.swap_in(slot)?;
                    states[index as usize] = PageState::Resident {
                        pfn,
                        referenced: true,
                    };
                    Ok((pfn, PageSource::SwappedIn))
                }
            },
        }
    }

    /// Increments the mapping reference count.
    pub fn add_ref(&mut self) {
        self.refs += 1;
    }

    /// Decrements the mapping reference count; returns the new count.
    pub fn drop_ref(&mut self) -> u64 {
        self.refs = self.refs.saturating_sub(1);
        self.refs
    }

    /// Current reference count.
    pub fn refs(&self) -> u64 {
        self.refs
    }

    /// Marks the object as outliving its mappers (segment backing).
    pub fn set_pinned(&mut self, pinned: bool) {
        self.pinned = pinned;
        if pinned {
            self.swappable = false;
        }
    }

    /// Whether the object's frames are locked in memory.
    pub fn pinned(&self) -> bool {
        self.pinned
    }

    /// Marks the object as upper-layer-managed: process teardown will not
    /// free it even at zero references. Unlike [`Self::set_pinned`], this
    /// does not lock the frames — swappable segments use it so their
    /// backing survives detach while staying reclaimable.
    pub fn set_preserved(&mut self, preserved: bool) {
        self.preserved = preserved;
    }

    /// Whether the object survives process teardown at zero references.
    pub fn persistent(&self) -> bool {
        self.pinned || self.preserved
    }

    /// Marks the object's pages as eviction candidates. Ignored for
    /// pinned objects ("reserved at the time a segment is created, and
    /// are not swappable").
    pub fn set_swappable(&mut self, swappable: bool) {
        self.swappable = swappable && !self.pinned;
    }

    /// Whether the reclaim scan may evict this object's pages.
    pub fn swappable(&self) -> bool {
        self.swappable
    }

    /// The process charged for this object's memory, if any.
    pub fn owner(&self) -> Option<Pid> {
        self.owner
    }

    /// Charges this object's memory to `pid` (quota and OOM accounting).
    pub fn set_owner(&mut self, owner: Option<Pid>) {
        self.owner = owner;
    }

    /// Releases the backing frames and swap slots. Call only when
    /// unreferenced.
    pub fn free(self, phys: &mut PhysMem) {
        match self.backing {
            Frames::Contiguous { base } => phys.free_range(base, self.pages),
            Frames::Paged { states } => {
                for s in states {
                    match s {
                        PageState::Resident { pfn, .. } => phys.free_frame(pfn),
                        PageState::Swapped { slot } => phys.discard_swap_slot(slot),
                        PageState::Zero => {}
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_rounds_to_pages() {
        let mut phys = PhysMem::new(1 << 20);
        let obj = VmObject::alloc(&mut phys, VmObjectId(1), 5000, Backing::Dram).unwrap();
        assert_eq!(obj.pages(), 2);
        assert_eq!(obj.len(), 8192);
        assert!(!obj.is_empty());
        assert!(obj.is_contiguous());
    }

    #[test]
    fn aligned_alloc_is_naturally_aligned() {
        let mut phys = PhysMem::new(32 << 20);
        phys.alloc_frame().unwrap(); // frame 1: the lowest free frame is misaligned
        let huge = Backing::Aligned(PageSize::Size2M);
        let obj = VmObject::alloc(&mut phys, VmObjectId(1), 2 << 20, huge).unwrap();
        assert!(obj.is_contiguous());
        assert_eq!(obj.base().raw() % (2 << 20), 0);
        assert_eq!(obj.pages(), 512);
        assert!(
            VmObject::alloc(
                &mut phys,
                VmObjectId(2),
                1 << 30,
                Backing::Aligned(PageSize::Size1G)
            )
            .is_err(),
            "no 1 GiB range in a 32 MiB machine"
        );
    }

    #[test]
    fn zero_length_rejected() {
        let mut phys = PhysMem::new(1 << 20);
        assert!(VmObject::alloc(&mut phys, VmObjectId(1), 0, Backing::Dram).is_err());
        assert!(VmObject::alloc(&mut phys, VmObjectId(1), 0, Backing::Demand).is_err());
    }

    #[test]
    fn pa_math() {
        let mut phys = PhysMem::new(1 << 20);
        let obj = VmObject::alloc(&mut phys, VmObjectId(1), 4 * PAGE_SIZE, Backing::Dram).unwrap();
        assert_eq!(obj.pa(PAGE_SIZE + 8), obj.base().add(PAGE_SIZE + 8));
    }

    #[test]
    #[should_panic(expected = "beyond object")]
    fn pa_bounds_checked() {
        let mut phys = PhysMem::new(1 << 20);
        let obj = VmObject::alloc(&mut phys, VmObjectId(1), PAGE_SIZE, Backing::Dram).unwrap();
        let _ = obj.pa(PAGE_SIZE);
    }

    #[test]
    fn refcounting() {
        let mut phys = PhysMem::new(1 << 20);
        let mut obj = VmObject::alloc(&mut phys, VmObjectId(1), PAGE_SIZE, Backing::Dram).unwrap();
        obj.add_ref();
        obj.add_ref();
        assert_eq!(obj.refs(), 2);
        assert_eq!(obj.drop_ref(), 1);
        assert_eq!(obj.drop_ref(), 0);
        assert_eq!(obj.drop_ref(), 0, "saturates at zero");
    }

    #[test]
    fn free_returns_frames() {
        let mut phys = PhysMem::new(1 << 20);
        let before = phys.allocated_frames();
        let obj = VmObject::alloc(&mut phys, VmObjectId(1), 8 * PAGE_SIZE, Backing::Dram).unwrap();
        assert_eq!(phys.allocated_frames(), before + 8);
        obj.free(&mut phys);
        assert_eq!(phys.allocated_frames(), before);
    }

    #[test]
    fn demand_object_materializes_on_fault() {
        let mut phys = PhysMem::new(1 << 20);
        let mut obj =
            VmObject::alloc(&mut phys, VmObjectId(1), 3 * PAGE_SIZE, Backing::Demand).unwrap();
        assert!(!obj.is_contiguous() && obj.swappable());
        assert_eq!(obj.resident_pages(), 0);
        assert_eq!(phys.allocated_frames(), 0);
        let (pfn, src) = obj.fault_in_page(1, &mut phys).unwrap();
        assert_eq!(src, PageSource::ZeroFill);
        assert_eq!(obj.resident_pages(), 1);
        assert_eq!(obj.frame_of_page(1), Some(pfn));
        assert_eq!(obj.frame_of_page(0), None);
        let (_, again) = obj.fault_in_page(1, &mut phys).unwrap();
        assert_eq!(again, PageSource::AlreadyResident);
    }

    #[test]
    fn evict_and_fault_back_round_trip() {
        let mut phys = PhysMem::new(1 << 20);
        let mut obj =
            VmObject::alloc(&mut phys, VmObjectId(1), 2 * PAGE_SIZE, Backing::Demand).unwrap();
        let (pfn, _) = obj.fault_in_page(0, &mut phys).unwrap();
        phys.write_u64(pfn.base().add(32), 0xabc).unwrap();
        let slot = obj.evict_page(0, &mut phys).unwrap();
        assert_eq!(obj.resident_pages(), 0);
        assert_eq!(obj.swapped_pages(), 1);
        assert_eq!(obj.page_state(0), PageState::Swapped { slot });
        let (back, src) = obj.fault_in_page(0, &mut phys).unwrap();
        assert_eq!(src, PageSource::SwappedIn);
        assert_eq!(phys.read_u64(back.base().add(32)).unwrap(), 0xabc);
        assert_eq!(obj.swapped_pages(), 0);
    }

    #[test]
    fn second_chance_reference_bit() {
        let mut phys = PhysMem::new(1 << 20);
        let mut obj =
            VmObject::alloc(&mut phys, VmObjectId(1), PAGE_SIZE, Backing::Demand).unwrap();
        obj.fault_in_page(0, &mut phys).unwrap();
        assert!(obj.take_reference(0), "fresh pages get a second chance");
        assert!(!obj.take_reference(0), "bit cleared by first pass");
        obj.fault_in_page(0, &mut phys).unwrap();
        assert!(obj.take_reference(0), "refault re-references");
    }

    #[test]
    fn make_paged_preserves_frames() {
        let mut phys = PhysMem::new(1 << 20);
        let mut obj =
            VmObject::alloc(&mut phys, VmObjectId(1), 3 * PAGE_SIZE, Backing::Dram).unwrap();
        let base = obj.base();
        obj.make_paged();
        assert!(!obj.is_contiguous());
        assert_eq!(obj.resident_pages(), 3);
        assert_eq!(obj.pa(PAGE_SIZE + 4), base.add(PAGE_SIZE + 4));
    }

    #[test]
    fn pinned_objects_are_never_swappable() {
        let mut phys = PhysMem::new(1 << 20);
        let mut obj = VmObject::alloc(&mut phys, VmObjectId(1), PAGE_SIZE, Backing::Dram).unwrap();
        obj.set_pinned(true);
        obj.set_swappable(true);
        assert!(!obj.swappable());
        obj.set_pinned(false);
        obj.set_swappable(true);
        assert!(obj.swappable());
        obj.set_pinned(true);
        assert!(!obj.swappable(), "pinning clears swappability");
    }

    #[test]
    fn preserved_objects_survive_without_pinning() {
        let mut phys = PhysMem::new(1 << 20);
        let mut obj =
            VmObject::alloc(&mut phys, VmObjectId(1), PAGE_SIZE, Backing::Demand).unwrap();
        assert!(!obj.persistent());
        obj.set_preserved(true);
        obj.set_swappable(true);
        assert!(obj.persistent() && obj.swappable() && !obj.pinned());
        obj.set_preserved(false);
        obj.set_pinned(true);
        assert!(obj.persistent(), "pinning alone also preserves");
    }

    #[test]
    fn alloc_falls_back_to_paged_after_fragmentation() {
        // 8-frame machine (frame 0 reserved): take all 7 frames and free
        // every other one, so no two free frames are adjacent. A 3-page
        // allocation must then come from single frames as a paged object.
        let mut pm = PhysMem::new(8 * PAGE_SIZE);
        let a = pm.alloc_contiguous(Tier::Dram, 7, 1).unwrap();
        for i in (0..7).step_by(2) {
            pm.free_frame(Pfn(a.0 + i));
        }
        let obj = VmObject::alloc(&mut pm, VmObjectId(1), 3 * PAGE_SIZE, Backing::Dram).unwrap();
        assert!(!obj.is_contiguous(), "no free range of 3 frames");
        assert_eq!(obj.resident_pages(), 3);
        assert!(VmObject::alloc(&mut pm, VmObjectId(2), 2 * PAGE_SIZE, Backing::Dram).is_err());
        obj.free(&mut pm);
        assert_eq!(pm.allocated_frames(), 3, "the frames left allocated");
    }

    #[test]
    fn freeing_swapped_object_releases_slots() {
        let mut phys = PhysMem::new(1 << 20);
        let mut obj =
            VmObject::alloc(&mut phys, VmObjectId(1), 2 * PAGE_SIZE, Backing::Demand).unwrap();
        obj.fault_in_page(0, &mut phys).unwrap();
        obj.fault_in_page(1, &mut phys).unwrap();
        obj.evict_page(0, &mut phys).unwrap();
        assert_eq!(phys.swap_slots_used(), 1);
        obj.free(&mut phys);
        assert_eq!(phys.swap_slots_used(), 0);
        assert_eq!(phys.allocated_frames(), 0);
    }
}
