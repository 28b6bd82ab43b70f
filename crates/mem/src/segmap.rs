//! The no-VM base+bound baseline's shadow segment table.
//!
//! "The Cost of Software-Based Memory Management Without Virtual Memory"
//! asks what address translation costs when there is no page-granular
//! indirection at all: contiguous segments, a base+bound check per
//! access, no TLB. [`SegMap`] reproduces that design point for
//! [`Backend::SegMap`](crate::backend::Backend::SegMap), giving the
//! fig6/fig8 comparisons a lower bound that no paging scheme can beat.
//!
//! It is a *shadow* of the four-level tree, not a replacement: the tree
//! in simulated frames stays the one authority for structure (frame
//! accounting, audits, reclaim and offline trace replay walk it under
//! every backend). [`crate::backend::Backend`] runs each structural
//! [`crate::paging`] call and then feeds this table through its hooks —
//! record, trim, link, drop a root — and only
//! [`Backend::translate`](crate::backend::Backend::translate) looks a
//! mapping up here: a sorted-array binary search standing in for the
//! hardware bound check.
//!
//! Mappings made through a root whose PML4 slot is *linked* to a
//! template are recorded against the template root, mirroring how a
//! paging write through a linked slot lands in the shared subtree and
//! becomes visible to every root that links it.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::addr::{PageSize, Pfn, PhysAddr, VirtAddr};
use crate::paging::{PteFlags, Translation};

/// Offset bits within one PML4 slot's 512 GiB of virtual space.
const SLOT_MASK: u64 = (1 << 39) - 1;

/// One contiguous virtual-to-physical segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SegEntry {
    /// First virtual address covered.
    base: VirtAddr,
    /// Length in bytes.
    len: u64,
    /// Physical address `base` maps to (linear within the segment).
    pa: PhysAddr,
    /// Effective leaf flags (always include PRESENT).
    flags: PteFlags,
    /// Page size the region was mapped with (reported in translations).
    page_size: PageSize,
}

impl SegEntry {
    fn end(&self) -> u64 {
        self.base.raw() + self.len
    }

    fn covers(&self, va: VirtAddr) -> bool {
        self.base.raw() <= va.raw() && va.raw() < self.end()
    }
}

#[derive(Debug, Default)]
struct SegMapState {
    /// Per-root segment tables, each sorted by `base` (non-overlapping).
    segs: HashMap<Pfn, Vec<SegEntry>>,
    /// Per-root subtree links: `(pml4 slot, template root)`.
    links: HashMap<Pfn, Vec<(usize, Pfn)>>,
}

impl SegMapState {
    /// The root whose table a mapping in `root`'s `pml4_index` slot
    /// belongs to: the link target if the slot is linked, else `root`.
    fn owner(&self, root: Pfn, pml4_index: usize) -> Pfn {
        self.links
            .get(&root)
            .and_then(|ls| ls.iter().find(|(s, _)| *s == pml4_index))
            .map_or(root, |(_, src)| *src)
    }

    fn find_in(v: Option<&Vec<SegEntry>>, va: VirtAddr) -> Option<&SegEntry> {
        let v = v?;
        let idx = v.partition_point(|e| e.base.raw() <= va.raw());
        let e = &v[idx.checked_sub(1)?];
        e.covers(va).then_some(e)
    }

    fn trim_vec(v: &mut Vec<SegEntry>, start: u64, end: u64) {
        let mut out = Vec::with_capacity(v.len());
        for e in v.drain(..) {
            if e.end() <= start || e.base.raw() >= end {
                out.push(e);
                continue;
            }
            // Remainders lose superpage status: an arbitrary byte cut
            // need not stay aligned to the original page size.
            if e.base.raw() < start {
                out.push(SegEntry {
                    len: start - e.base.raw(),
                    page_size: PageSize::Size4K,
                    ..e
                });
            }
            if e.end() > end {
                out.push(SegEntry {
                    base: VirtAddr::new_unchecked(end),
                    len: e.end() - end,
                    pa: e.pa.add(end - e.base.raw()),
                    page_size: PageSize::Size4K,
                    ..e
                });
            }
        }
        *v = out;
    }
}

/// The no-VM shadow: per-root flat segment tables mirroring the real
/// four-level trees. Clones share state.
#[derive(Debug, Clone, Default)]
pub struct SegMap {
    state: Arc<Mutex<SegMapState>>,
}

impl SegMap {
    fn lock(&self) -> std::sync::MutexGuard<'_, SegMapState> {
        self.state.lock().expect("segmap state poisoned")
    }

    /// Records the mapping `va..va+len -> pa..pa+len` made through `root`.
    pub(crate) fn record(
        &self,
        root: Pfn,
        va: VirtAddr,
        pa: PhysAddr,
        len: u64,
        page_size: PageSize,
        flags: PteFlags,
    ) {
        let mut st = self.lock();
        let owner = st.owner(root, va.pml4_index());
        let v = st.segs.entry(owner).or_default();
        let at = v.partition_point(|e| e.base < va);
        let entry = SegEntry {
            base: va,
            len,
            pa,
            flags: flags | PteFlags::PRESENT,
            page_size,
        };
        v.insert(at, entry);
    }

    /// Removes `[va, va+len)` as seen through `root`, splitting partially
    /// covered entries. Each PML4 slot's part of the range is trimmed
    /// from that slot's owner only — the linked template's table for a
    /// linked slot, `root`'s own otherwise — exactly the tree a paging
    /// unmap through `root` mutates.
    pub(crate) fn trim(&self, root: Pfn, va: VirtAddr, len: u64) {
        let mut st = self.lock();
        let (mut start, end) = (va.raw(), va.raw() + len);
        while start < end {
            let stop = end.min((start | SLOT_MASK).saturating_add(1));
            let owner = st.owner(root, VirtAddr::new_unchecked(start).pml4_index());
            if let Some(v) = st.segs.get_mut(&owner) {
                SegMapState::trim_vec(v, start, stop);
            }
            start = stop;
        }
    }

    /// Records that `dst_root`'s `pml4_index` slot now shares `src_root`'s.
    pub(crate) fn link(&self, dst_root: Pfn, src_root: Pfn, pml4_index: usize) {
        let mut st = self.lock();
        let links = st.links.entry(dst_root).or_default();
        if !links.contains(&(pml4_index, src_root)) {
            links.push((pml4_index, src_root));
        }
    }

    /// Forgets `root`'s own segments and links (its tables were freed).
    pub(crate) fn drop_root(&self, root: Pfn) {
        let mut st = self.lock();
        st.segs.remove(&root);
        st.links.remove(&root);
    }

    /// The translation of `va` through `root`: its own segments first,
    /// then the template linked at `va`'s PML4 slot.
    pub(crate) fn lookup(&self, root: Pfn, va: VirtAddr) -> Option<Translation> {
        let st = self.lock();
        let slot = va.pml4_index();
        let e = SegMapState::find_in(st.segs.get(&root), va).or_else(|| {
            let links = st.links.get(&root)?;
            links
                .iter()
                .filter(|(s, _)| *s == slot)
                .find_map(|(_, src)| SegMapState::find_in(st.segs.get(src), va))
        })?;
        Some(Translation {
            pa: e.pa.add(va.raw() - e.base.raw()),
            flags: e.flags,
            size: e.page_size,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use crate::error::Access;
    use crate::paging;
    use crate::phys::PhysMem;

    fn setup() -> (PhysMem, Backend, Pfn) {
        let mut phys = PhysMem::new(1 << 24);
        let root = paging::new_root(&mut phys).unwrap();
        (phys, Backend::seg_map(), root)
    }

    /// Number of segment entries recorded for `root` itself.
    fn entries(be: &Backend, root: Pfn) -> usize {
        match be {
            Backend::SegMap(s) => s.lock().segs.get(&root).map_or(0, Vec::len),
            Backend::FourLevel => 0,
        }
    }

    fn rw() -> PteFlags {
        PteFlags::USER | PteFlags::WRITABLE
    }

    #[test]
    fn translate_hits_within_bounds_and_faults_outside() {
        let (mut phys, sm, root) = setup();
        sm.map_region(
            &mut phys,
            root,
            VirtAddr::new(0x40_0000),
            PhysAddr::new(0x80_0000),
            1 << 20,
            PageSize::Size4K,
            rw(),
        )
        .unwrap();
        let (t, levels) = sm
            .translate(&mut phys, root, VirtAddr::new(0x40_0000 + 0x1234))
            .unwrap();
        assert_eq!(t.pa.raw(), 0x80_0000 + 0x1234);
        assert_eq!(levels, 0, "no walk under base+bound");
        assert!(t.flags.permits(Access::Write));
        assert!(sm
            .translate(&mut phys, root, VirtAddr::new(0x40_0000 + (1 << 20)))
            .is_err());
        assert!(sm
            .translate(&mut phys, root, VirtAddr::new(0x1000))
            .is_err());
        // The real tables were built too (shadow, not replacement).
        let (pt, _) = paging::walk(&mut phys, root, VirtAddr::new(0x40_0000 + 0x1234)).unwrap();
        assert_eq!(pt.pa, t.pa);
    }

    #[test]
    fn linked_template_mappings_are_visible() {
        let (mut phys, sm, template) = setup();
        let attached = paging::new_root(&mut phys).unwrap();
        let other = paging::new_root(&mut phys).unwrap();
        let va = VirtAddr::new(0x1_0000_0000); // PML4 slot 0
        paging::ensure_root_slot(&mut phys, template, va.pml4_index()).unwrap();
        sm.link_subtree(&mut phys, attached, template, va.pml4_index())
            .unwrap();
        // Mapping *through the attached root* lands in the template's
        // table and is visible to both, like the shared paging subtree.
        sm.map(
            &mut phys,
            attached,
            va,
            PhysAddr::new(0x9000),
            PageSize::Size4K,
            rw(),
        )
        .unwrap();
        assert!(sm.translate(&mut phys, template, va).is_ok());
        assert!(sm.translate(&mut phys, attached, va).is_ok());
        assert!(sm.translate(&mut phys, other, va).is_err(), "not linked");
        assert_eq!(entries(&sm, template), 1);
        assert_eq!(entries(&sm, attached), 0);
        // Freeing the attached root's private tables leaves the
        // template's mapping in place.
        sm.free_tables(&mut phys, attached, &[va.pml4_index()]);
        assert!(sm.translate(&mut phys, template, va).is_ok());
    }

    #[test]
    fn unmap_trims_and_splits_entries() {
        let (mut phys, sm, root) = setup();
        sm.map_region(
            &mut phys,
            root,
            VirtAddr::new(0x10_0000),
            PhysAddr::new(0x20_0000),
            16 * 4096,
            PageSize::Size4K,
            rw(),
        )
        .unwrap();
        // Punch a hole in the middle: pages 4..8 of 16.
        sm.unmap_region(
            &mut phys,
            root,
            VirtAddr::new(0x10_0000 + 4 * 4096),
            4 * 4096,
        )
        .unwrap();
        assert_eq!(entries(&sm, root), 2, "entry split around the hole");
        assert!(sm
            .translate(&mut phys, root, VirtAddr::new(0x10_0000 + 3 * 4096))
            .is_ok());
        assert!(sm
            .translate(&mut phys, root, VirtAddr::new(0x10_0000 + 5 * 4096))
            .is_err());
        let (t, _) = sm
            .translate(&mut phys, root, VirtAddr::new(0x10_0000 + 9 * 4096))
            .unwrap();
        assert_eq!(t.pa.raw(), 0x20_0000 + 9 * 4096, "tail keeps its offsets");
    }

    #[test]
    fn unmap_trims_only_the_tree_each_slot_belongs_to() {
        let (mut phys, sm, template) = setup();
        let attached = paging::new_root(&mut phys).unwrap();
        let (private, shared) = (VirtAddr::new(0x1000), VirtAddr::new(1 << 39));
        for root in [template, attached] {
            sm.map(
                &mut phys,
                root,
                private,
                PhysAddr::new(0x9000),
                PageSize::Size4K,
                rw(),
            )
            .unwrap();
        }
        sm.map(
            &mut phys,
            template,
            shared,
            PhysAddr::new(0xa000),
            PageSize::Size4K,
            rw(),
        )
        .unwrap();
        sm.link_subtree(&mut phys, attached, template, shared.pml4_index())
            .unwrap();
        // Slot 0 is private to each root: unmapping it through the
        // attached root leaves the template's own mapping alone.
        sm.unmap_region(&mut phys, attached, private, 4096).unwrap();
        assert!(sm.translate(&mut phys, attached, private).is_err());
        assert!(sm.translate(&mut phys, template, private).is_ok());
        // Slot 1 is linked: the unmap lands in the shared table.
        sm.unmap_region(&mut phys, attached, shared, 4096).unwrap();
        assert!(sm.translate(&mut phys, template, shared).is_err());
    }

    #[test]
    fn clear_leaf_evicts_one_page_from_shadow() {
        let (mut phys, sm, root) = setup();
        sm.map_region(
            &mut phys,
            root,
            VirtAddr::new(0x10_0000),
            PhysAddr::new(0x20_0000),
            4 * 4096,
            PageSize::Size4K,
            rw(),
        )
        .unwrap();
        let evicted = sm.clear_leaf(&mut phys, root, VirtAddr::new(0x10_1000));
        assert!(evicted.is_some());
        assert!(paging::leaf_is_swap_marked(
            &mut phys,
            root,
            VirtAddr::new(0x10_1000)
        ));
        assert!(sm
            .translate(&mut phys, root, VirtAddr::new(0x10_1000))
            .is_err());
        assert!(sm
            .translate(&mut phys, root, VirtAddr::new(0x10_0000))
            .is_ok());
        assert!(sm
            .translate(&mut phys, root, VirtAddr::new(0x10_2000))
            .is_ok());
    }

    #[test]
    fn free_tables_drops_shadow_state() {
        let (mut phys, sm, root) = setup();
        sm.map(
            &mut phys,
            root,
            VirtAddr::new(0x1000),
            PhysAddr::new(0x2000),
            PageSize::Size4K,
            rw(),
        )
        .unwrap();
        assert_eq!(entries(&sm, root), 1);
        sm.free_tables(&mut phys, root, &[]);
        assert_eq!(entries(&sm, root), 0);
        assert!(sm
            .translate(&mut phys, root, VirtAddr::new(0x1000))
            .is_err());
    }

    #[test]
    fn superpage_entries_translate_linearly() {
        let (mut phys, sm, root) = setup();
        sm.map(
            &mut phys,
            root,
            VirtAddr::new(0x20_0000),
            PhysAddr::new(0x40_0000),
            PageSize::Size2M,
            rw(),
        )
        .unwrap();
        let (t, levels) = sm
            .translate(&mut phys, root, VirtAddr::new(0x20_0000 + 0xabcd))
            .unwrap();
        assert_eq!(t.pa.raw(), 0x40_0000 + 0xabcd);
        assert_eq!(t.size, PageSize::Size2M);
        assert_eq!(levels, 0);
    }
}
