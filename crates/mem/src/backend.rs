//! The translation authority: the four-level tree, plus an optional
//! no-VM shadow.
//!
//! The four-level x86-64 tree in simulated frames ([`crate::paging`]) is
//! the one authority for address-space *structure*: frame accounting,
//! invariant audits, reclaim and offline trace replay all walk it, under
//! every backend. [`Backend`] chooses only how *translation* reads it:
//!
//! * [`Backend::FourLevel`] — the default: translate walks the tree.
//! * [`Backend::SegMap`] — a no-VM, software-managed baseline (in the
//!   spirit of "memory management without virtual memory"): translate
//!   consults a flat per-root segment table ([`crate::segmap::SegMap`])
//!   that shadows the tree — one base+bound check instead of a TLB
//!   lookup and page walk.
//!
//! [`Backend`]'s methods are exactly the operations the shadow must see.
//! Each structural method runs the [`crate::paging`] call, then, only for
//! the no-VM backend, updates the shadow. Operations the shadow never
//! sees (`new_root`, `ensure_root_slot`, `collect_table_frames`, ...)
//! are [`crate::paging`] calls at their call sites.
//!
//! The contract every caller relies on (the OS layer, the invariant
//! audits and the determinism gate):
//!
//! * **Pure translate.** [`Backend::translate`] mutates no state the
//!   simulation can observe (no accessed/dirty bits, no cycle charges);
//!   the per-core [`crate::mmu::Mmu`] charges costs, which lets it
//!   memoize results in a host-side cache without changing simulated
//!   behaviour.
//! * **Shadow follows the tree.** The shadow changes only when the tree
//!   does, so every change to it is covered by a
//!   [`PhysMem::table_generation`] bump — the host walk cache's one
//!   validity check.
//! * **Determinism.** Identical call sequences produce identical results;
//!   no host randomness or wall-clock reads.

use crate::addr::{PageSize, Pfn, PhysAddr, VirtAddr, PAGE_SIZE};
use crate::error::{Access, MemError};
use crate::paging::{self, MapStats, PteFlags, Translation, UnmapStats};
use crate::phys::PhysMem;
use crate::segmap::SegMap;

/// A concrete, cloneable translation backend.
///
/// Clones share state: the [`SegMap`] variant carries its segment table
/// behind an `Arc`, so the kernel and every core's MMU observe the same
/// shadow mappings.
#[derive(Debug, Clone, Default)]
pub enum Backend {
    /// The four-level x86-64 walker (the default).
    #[default]
    FourLevel,
    /// The no-VM base+bound baseline.
    SegMap(SegMap),
}

impl Backend {
    /// The default four-level backend.
    pub fn four_level() -> Self {
        Backend::FourLevel
    }

    /// A fresh no-VM segment-table backend.
    pub fn seg_map() -> Self {
        Backend::SegMap(SegMap::default())
    }

    /// Whether this is the no-VM segment-table backend.
    pub fn is_seg_map(&self) -> bool {
        matches!(self, Backend::SegMap(_))
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::FourLevel => "4level",
            Backend::SegMap(_) => "no-vm",
        }
    }

    /// Maps one page of `size` at `va -> pa`.
    ///
    /// # Errors
    ///
    /// As [`paging::map`]: misalignment, double map, out of frames.
    pub fn map(
        &self,
        phys: &mut PhysMem,
        root: Pfn,
        va: VirtAddr,
        pa: PhysAddr,
        size: PageSize,
        flags: PteFlags,
    ) -> Result<MapStats, MemError> {
        let stats = paging::map(phys, root, va, pa, size, flags)?;
        if let Backend::SegMap(s) = self {
            s.record(root, va, pa, size.bytes(), size, flags);
        }
        Ok(stats)
    }

    /// Maps a contiguous region `va..va+len` to `pa..pa+len`.
    ///
    /// # Errors
    ///
    /// As [`paging::map_region`]; on error earlier pages stay mapped and
    /// the caller decides whether to roll back.
    #[allow(clippy::too_many_arguments)]
    pub fn map_region(
        &self,
        phys: &mut PhysMem,
        root: Pfn,
        va: VirtAddr,
        pa: PhysAddr,
        len: u64,
        size: PageSize,
        flags: PteFlags,
    ) -> Result<MapStats, MemError> {
        let stats = paging::map_region(phys, root, va, pa, len, size, flags)?;
        if let Backend::SegMap(s) = self {
            s.record(root, va, pa, len, size, flags);
        }
        Ok(stats)
    }

    /// Unmaps a contiguous region, skipping unmapped holes.
    ///
    /// # Errors
    ///
    /// As [`paging::unmap_region`] (misalignment only).
    pub fn unmap_region(
        &self,
        phys: &mut PhysMem,
        root: Pfn,
        va: VirtAddr,
        len: u64,
    ) -> Result<UnmapStats, MemError> {
        let stats = paging::unmap_region(phys, root, va, len)?;
        if let Backend::SegMap(s) = self {
            s.trim(root, va, len);
        }
        Ok(stats)
    }

    /// Evicts the 4 KiB leaf at `va`, leaving a swap marker; returns the
    /// frame it mapped. See [`paging::clear_leaf`].
    pub fn clear_leaf(&self, phys: &mut PhysMem, root: Pfn, va: VirtAddr) -> Option<Pfn> {
        let pfn = paging::clear_leaf(phys, root, va)?;
        if let Backend::SegMap(s) = self {
            s.trim(root, va.align_down(PAGE_SIZE), PAGE_SIZE);
        }
        Some(pfn)
    }

    /// Shares the subtree under `src_root[pml4_index]` into `dst_root`.
    ///
    /// # Errors
    ///
    /// As [`paging::link_subtree`].
    pub fn link_subtree(
        &self,
        phys: &mut PhysMem,
        dst_root: Pfn,
        src_root: Pfn,
        pml4_index: usize,
    ) -> Result<(), MemError> {
        paging::link_subtree(phys, dst_root, src_root, pml4_index)?;
        if let Backend::SegMap(s) = self {
            s.link(dst_root, src_root, pml4_index);
        }
        Ok(())
    }

    /// Frees every table frame under `root` except the `shared` slots.
    pub fn free_tables(&self, phys: &mut PhysMem, root: Pfn, shared: &[usize]) {
        paging::free_tables(phys, root, shared);
        if let Backend::SegMap(s) = self {
            s.drop_root(root);
        }
    }

    /// Resolves `va` to a [`Translation`] plus the number of table levels
    /// visited: 2/3/4 for 1 GiB / 2 MiB / 4 KiB leaves of the tree, 0 for
    /// the no-VM shadow, which does not walk. Read-only.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::PageFault`] if no translation exists.
    pub fn translate(
        &self,
        phys: &mut PhysMem,
        root: Pfn,
        va: VirtAddr,
    ) -> Result<(Translation, u32), MemError> {
        match self {
            Backend::FourLevel => paging::walk(phys, root, va),
            Backend::SegMap(s) => s
                .lookup(root, va)
                .map(|t| (t, 0))
                .ok_or(MemError::PageFault {
                    va,
                    access: Access::Read,
                }),
        }
    }
}

/// User-facing backend selection for benchmarks and configs: which
/// translation strategy (and host-cache setting) a run should use.
///
/// Distinct from [`Backend`] because "four-level with the host walk
/// cache disabled" is the same *simulated* backend — the knob only
/// affects host wall-time, which is exactly what the parity checks in
/// `selfperf` and CI verify.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TranslationKind {
    /// Four-level walker, host walk cache enabled (the default).
    #[default]
    FourLevel,
    /// Four-level walker, host walk cache disabled (parity checks).
    FourLevelUncached,
    /// No-VM base+bound segment table.
    NoVm,
}

impl TranslationKind {
    /// Short name for report columns.
    pub fn name(self) -> &'static str {
        match self {
            TranslationKind::FourLevel => "4level",
            TranslationKind::FourLevelUncached => "4level-nocache",
            TranslationKind::NoVm => "no-vm",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names() {
        assert_eq!(Backend::four_level().name(), "4level");
        assert_eq!(Backend::seg_map().name(), "no-vm");
        assert!(Backend::seg_map().is_seg_map());
        assert_eq!(TranslationKind::default().name(), "4level");
        assert_eq!(TranslationKind::FourLevelUncached.name(), "4level-nocache");
        assert_eq!(TranslationKind::NoVm.name(), "no-vm");
    }
}
