//! x86-64-style four-level page tables, stored in simulated physical frames.
//!
//! Table nodes are ordinary frames obtained from [`PhysMem::alloc_frame`];
//! entries are little-endian `u64`s with the usual x86-64 bit layout
//! (present/writable/user/accessed/dirty/PS/global/NX). The walker and the
//! mapper operate on these frames exactly like the hardware and the BSD
//! `pmap` layer would, which is what makes the Figure 1 experiment (cost of
//! constructing and destroying page tables) structurally faithful.
//!
//! Subtrees can be *shared* between roots ([`link_subtree`]): SpaceJMP uses
//! this for segments whose translations are cached in the kernel and for
//! the global OS mappings every address space contains.

use crate::addr::{PageSize, Pfn, PhysAddr, VirtAddr, ENTRIES_PER_TABLE, PAGE_SIZE};
use crate::error::{Access, MemError};
use crate::phys::PhysMem;

/// Page-table entry permission/attribute flags (x86-64 bit positions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PteFlags(u64);

impl PteFlags {
    /// Entry is present.
    pub const PRESENT: PteFlags = PteFlags(1 << 0);
    /// Entry permits writes.
    pub const WRITABLE: PteFlags = PteFlags(1 << 1);
    /// Entry permits user-mode access.
    pub const USER: PteFlags = PteFlags(1 << 2);
    /// Entry was accessed (set by the walker).
    pub const ACCESSED: PteFlags = PteFlags(1 << 5);
    /// Entry was written (set by the walker on write).
    pub const DIRTY: PteFlags = PteFlags(1 << 6);
    /// Entry maps a superpage (valid at PDPT/PD levels).
    pub const HUGE: PteFlags = PteFlags(1 << 7);
    /// Entry is global: survives untagged TLB flushes.
    pub const GLOBAL: PteFlags = PteFlags(1 << 8);
    /// Software bit (x86-64 ignores bits 9-11 of non-present entries): the
    /// page this entry mapped was swapped out. The entry is *not* present;
    /// the authoritative page location lives in the backing VM object, the
    /// marker only distinguishes "swapped" from "never mapped" for audits.
    pub const SWAPPED: PteFlags = PteFlags(1 << 9);
    /// Entry forbids instruction fetch.
    pub const NO_EXECUTE: PteFlags = PteFlags(1 << 63);

    /// Empty flag set.
    pub const fn empty() -> Self {
        PteFlags(0)
    }

    /// Raw bit representation.
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// Builds flags from raw bits, keeping only flag positions.
    pub const fn from_bits_truncate(bits: u64) -> Self {
        PteFlags(bits & (0x3e7 | (1 << 63)))
    }

    /// Whether all flags in `other` are set in `self`.
    pub const fn contains(self, other: PteFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Union of two flag sets.
    pub const fn union(self, other: PteFlags) -> Self {
        PteFlags(self.0 | other.0)
    }

    /// Flags with `other` removed.
    pub const fn difference(self, other: PteFlags) -> Self {
        PteFlags(self.0 & !other.0)
    }

    /// Whether the flags permit the given access from user mode.
    pub fn permits(self, access: Access) -> bool {
        if !self.contains(PteFlags::PRESENT) {
            return false;
        }
        match access {
            Access::Read => true,
            Access::Write => self.contains(PteFlags::WRITABLE),
            Access::Execute => !self.contains(PteFlags::NO_EXECUTE),
        }
    }
}

impl std::ops::BitOr for PteFlags {
    type Output = PteFlags;
    fn bitor(self, rhs: PteFlags) -> PteFlags {
        self.union(rhs)
    }
}

impl std::ops::BitOrAssign for PteFlags {
    fn bitor_assign(&mut self, rhs: PteFlags) {
        *self = self.union(rhs);
    }
}

const ADDR_MASK: u64 = 0x0000_3fff_ffff_f000; // bits 12..46

#[inline]
fn make_entry(pa: PhysAddr, flags: PteFlags) -> u64 {
    (pa.raw() & ADDR_MASK) | flags.bits()
}

#[inline]
fn entry_addr(entry: u64) -> PhysAddr {
    PhysAddr::new(entry & ADDR_MASK)
}

#[inline]
fn entry_flags(entry: u64) -> PteFlags {
    PteFlags::from_bits_truncate(entry)
}

#[inline]
fn entry_present(entry: u64) -> bool {
    entry & 1 != 0
}

/// A translation produced by [`walk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// Physical address the virtual address maps to.
    pub pa: PhysAddr,
    /// Effective flags of the leaf entry.
    pub flags: PteFlags,
    /// Page size of the mapping.
    pub size: PageSize,
}

/// Counters describing the work a map operation performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MapStats {
    /// Leaf entries written.
    pub ptes_written: u64,
    /// Page-table nodes allocated.
    pub tables_allocated: u64,
}

impl MapStats {
    /// Accumulates another operation's stats.
    pub fn merge(&mut self, other: MapStats) {
        self.ptes_written += other.ptes_written;
        self.tables_allocated += other.tables_allocated;
    }
}

/// Counters describing the work an unmap operation performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UnmapStats {
    /// Leaf entries cleared.
    pub ptes_cleared: u64,
    /// Page-table nodes freed because they became empty.
    pub tables_freed: u64,
}

/// Allocates a fresh, empty root table (PML4).
///
/// # Errors
///
/// Returns [`MemError::OutOfFrames`] if no frame is available.
pub fn new_root(phys: &mut PhysMem) -> Result<Pfn, MemError> {
    phys.alloc_frame()
}

fn read_entry(phys: &mut PhysMem, table: Pfn, index: usize) -> u64 {
    let bytes = phys.frame_bytes_mut(table);
    let off = index * 8;
    u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap())
}

fn write_entry(phys: &mut PhysMem, table: Pfn, index: usize, entry: u64) {
    phys.bump_table_generation();
    let bytes = phys.frame_bytes_mut(table);
    let off = index * 8;
    bytes[off..off + 8].copy_from_slice(&entry.to_le_bytes());
}

/// Returns the next-level table under `table[index]`, allocating it if absent.
fn ensure_table(
    phys: &mut PhysMem,
    table: Pfn,
    index: usize,
    stats: &mut MapStats,
) -> Result<Pfn, MemError> {
    let entry = read_entry(phys, table, index);
    if entry_present(entry) {
        if entry_flags(entry).contains(PteFlags::HUGE) {
            return Err(MemError::AlreadyMapped(VirtAddr::NULL));
        }
        Ok(entry_addr(entry).pfn())
    } else {
        let new = phys.alloc_frame()?;
        stats.tables_allocated += 1;
        // Intermediate entries carry the most permissive flags; leaves
        // enforce the real permissions.
        let e = make_entry(
            new.base(),
            PteFlags::PRESENT | PteFlags::WRITABLE | PteFlags::USER,
        );
        write_entry(phys, table, index, e);
        Ok(new)
    }
}

/// Maps one page of the given size at `va -> pa`.
///
/// # Errors
///
/// * [`MemError::BadMapping`] if `va`/`pa` are not aligned to `size`.
/// * [`MemError::AlreadyMapped`] if a translation already exists.
/// * [`MemError::OutOfFrames`] if a table node cannot be allocated.
pub fn map(
    phys: &mut PhysMem,
    root: Pfn,
    va: VirtAddr,
    pa: PhysAddr,
    size: PageSize,
    flags: PteFlags,
) -> Result<MapStats, MemError> {
    if !va.is_aligned(size.bytes()) || !pa.is_aligned(size.bytes()) {
        return Err(MemError::BadMapping(va));
    }
    let mut stats = MapStats::default();
    let leaf_flags = flags | PteFlags::PRESENT;
    match size {
        PageSize::Size1G => {
            let pdpt = ensure_table(phys, root, va.pml4_index(), &mut stats)
                .map_err(|e| remap_err(e, va))?;
            let existing = read_entry(phys, pdpt, va.pdpt_index());
            if entry_present(existing) {
                return Err(MemError::AlreadyMapped(va));
            }
            write_entry(
                phys,
                pdpt,
                va.pdpt_index(),
                make_entry(pa, leaf_flags | PteFlags::HUGE),
            );
        }
        PageSize::Size2M => {
            let pdpt = ensure_table(phys, root, va.pml4_index(), &mut stats)
                .map_err(|e| remap_err(e, va))?;
            let pd = ensure_table(phys, pdpt, va.pdpt_index(), &mut stats)
                .map_err(|e| remap_err(e, va))?;
            let existing = read_entry(phys, pd, va.pd_index());
            if entry_present(existing) {
                return Err(MemError::AlreadyMapped(va));
            }
            write_entry(
                phys,
                pd,
                va.pd_index(),
                make_entry(pa, leaf_flags | PteFlags::HUGE),
            );
        }
        PageSize::Size4K => {
            let pdpt = ensure_table(phys, root, va.pml4_index(), &mut stats)
                .map_err(|e| remap_err(e, va))?;
            let pd = ensure_table(phys, pdpt, va.pdpt_index(), &mut stats)
                .map_err(|e| remap_err(e, va))?;
            let pt =
                ensure_table(phys, pd, va.pd_index(), &mut stats).map_err(|e| remap_err(e, va))?;
            let existing = read_entry(phys, pt, va.pt_index());
            if entry_present(existing) {
                return Err(MemError::AlreadyMapped(va));
            }
            write_entry(phys, pt, va.pt_index(), make_entry(pa, leaf_flags));
        }
    }
    stats.ptes_written = 1;
    Ok(stats)
}

fn remap_err(e: MemError, va: VirtAddr) -> MemError {
    match e {
        MemError::AlreadyMapped(_) => MemError::AlreadyMapped(va),
        other => other,
    }
}

/// Maps a contiguous region `va..va+len` to `pa..pa+len` with pages of
/// `size`. This is the batched path used by `mmap`: for 4 KiB pages it
/// fills whole leaf tables at a time, exactly like `pmap_enter` batching.
///
/// # Errors
///
/// Same conditions as [`map`]; on error, earlier pages stay mapped (the
/// caller — the kernel — decides whether to roll back).
pub fn map_region(
    phys: &mut PhysMem,
    root: Pfn,
    va: VirtAddr,
    pa: PhysAddr,
    len: u64,
    size: PageSize,
    flags: PteFlags,
) -> Result<MapStats, MemError> {
    if len == 0
        || !len.is_multiple_of(size.bytes())
        || !va.is_aligned(size.bytes())
        || !pa.is_aligned(size.bytes())
    {
        return Err(MemError::BadMapping(va));
    }
    let mut stats = MapStats::default();
    if size != PageSize::Size4K {
        let pages = len / size.bytes();
        for i in 0..pages {
            let s = map(
                phys,
                root,
                va.add(i * size.bytes()),
                pa.add(i * size.bytes()),
                size,
                flags,
            )?;
            stats.merge(s);
        }
        return Ok(stats);
    }
    // Batched 4 KiB path: resolve the leaf table once per 512 pages.
    let leaf_flags = flags | PteFlags::PRESENT;
    let mut cur_va = va;
    let mut cur_pa = pa;
    let end = va.add(len);
    while cur_va < end {
        let pdpt = ensure_table(phys, root, cur_va.pml4_index(), &mut stats)
            .map_err(|e| remap_err(e, cur_va))?;
        let pd = ensure_table(phys, pdpt, cur_va.pdpt_index(), &mut stats)
            .map_err(|e| remap_err(e, cur_va))?;
        let pt = ensure_table(phys, pd, cur_va.pd_index(), &mut stats)
            .map_err(|e| remap_err(e, cur_va))?;
        let first = cur_va.pt_index();
        let in_table = (ENTRIES_PER_TABLE as usize - first) as u64;
        let remaining = (end.raw() - cur_va.raw()) / PAGE_SIZE;
        let count = in_table.min(remaining);
        {
            phys.bump_table_generation();
            let bytes = phys.frame_bytes_mut(pt);
            for i in 0..count as usize {
                let off = (first + i) * 8;
                let existing = u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
                if entry_present(existing) {
                    return Err(MemError::AlreadyMapped(cur_va.add(i as u64 * PAGE_SIZE)));
                }
                let entry = make_entry(cur_pa.add(i as u64 * PAGE_SIZE), leaf_flags);
                bytes[off..off + 8].copy_from_slice(&entry.to_le_bytes());
            }
        }
        stats.ptes_written += count;
        cur_va = cur_va.add(count * PAGE_SIZE);
        cur_pa = cur_pa.add(count * PAGE_SIZE);
    }
    Ok(stats)
}

/// Clears the present bit of the 4 KiB leaf entry for `va`, leaving a
/// non-present [`PteFlags::SWAPPED`] marker behind, and returns the frame
/// the entry pointed at. Unlike [`unmap`], table nodes are *not* reaped:
/// eviction runs against leaf tables that may be linked into several
/// roots, and freeing a node here would leave the other roots dangling.
///
/// Returns `None` when no 4 KiB translation exists (never mapped, already
/// evicted, or covered by a superpage — superpages are never evicted).
pub fn clear_leaf(phys: &mut PhysMem, root: Pfn, va: VirtAddr) -> Option<Pfn> {
    let pml4e = read_entry(phys, root, va.pml4_index());
    if !entry_present(pml4e) {
        return None;
    }
    let pdpte = read_entry(phys, entry_addr(pml4e).pfn(), va.pdpt_index());
    if !entry_present(pdpte) || entry_flags(pdpte).contains(PteFlags::HUGE) {
        return None;
    }
    let pde = read_entry(phys, entry_addr(pdpte).pfn(), va.pd_index());
    if !entry_present(pde) || entry_flags(pde).contains(PteFlags::HUGE) {
        return None;
    }
    let pt = entry_addr(pde).pfn();
    let pte = read_entry(phys, pt, va.pt_index());
    if !entry_present(pte) {
        return None;
    }
    write_entry(phys, pt, va.pt_index(), PteFlags::SWAPPED.bits());
    Some(entry_addr(pte).pfn())
}

/// Whether the leaf entry for `va` carries the non-present
/// [`PteFlags::SWAPPED`] marker left by [`clear_leaf`].
pub fn leaf_is_swap_marked(phys: &mut PhysMem, root: Pfn, va: VirtAddr) -> bool {
    let pml4e = read_entry(phys, root, va.pml4_index());
    if !entry_present(pml4e) {
        return false;
    }
    let pdpte = read_entry(phys, entry_addr(pml4e).pfn(), va.pdpt_index());
    if !entry_present(pdpte) || entry_flags(pdpte).contains(PteFlags::HUGE) {
        return false;
    }
    let pde = read_entry(phys, entry_addr(pdpte).pfn(), va.pd_index());
    if !entry_present(pde) || entry_flags(pde).contains(PteFlags::HUGE) {
        return false;
    }
    let pte = read_entry(phys, entry_addr(pde).pfn(), va.pt_index());
    !entry_present(pte) && entry_flags(pte).contains(PteFlags::SWAPPED)
}

/// Ensures the PML4 slot `pml4_index` of `root` points at a (possibly
/// empty) PDPT, allocating one if absent, and returns it plus whether an
/// allocation happened. Demand-paged segments have no translations at
/// attach time, but subtree sharing ([`link_subtree`]) needs the slot
/// populated so that later faults build tables *inside* the shared tree.
///
/// # Errors
///
/// Returns [`MemError::OutOfFrames`] if the PDPT cannot be allocated and
/// [`MemError::AlreadyMapped`] if the slot holds a 1 GiB superpage.
pub fn ensure_root_slot(
    phys: &mut PhysMem,
    root: Pfn,
    pml4_index: usize,
) -> Result<(Pfn, bool), MemError> {
    let mut stats = MapStats::default();
    let pdpt = ensure_table(phys, root, pml4_index, &mut stats)?;
    Ok((pdpt, stats.tables_allocated > 0))
}

fn table_is_empty(phys: &mut PhysMem, table: Pfn) -> bool {
    let bytes = phys.frame_bytes_mut(table);
    bytes.chunks_exact(8).all(|c| c[0] & 1 == 0)
}

/// Unmaps one page at `va`, freeing table nodes that become empty.
///
/// # Errors
///
/// Returns [`MemError::PageFault`] if nothing is mapped at `va`.
pub fn unmap(phys: &mut PhysMem, root: Pfn, va: VirtAddr) -> Result<UnmapStats, MemError> {
    let mut stats = UnmapStats::default();
    let fault = MemError::PageFault {
        va,
        access: Access::Read,
    };

    let pml4e = read_entry(phys, root, va.pml4_index());
    if !entry_present(pml4e) {
        return Err(fault);
    }
    let pdpt = entry_addr(pml4e).pfn();
    let pdpte = read_entry(phys, pdpt, va.pdpt_index());
    if !entry_present(pdpte) {
        return Err(fault);
    }
    if entry_flags(pdpte).contains(PteFlags::HUGE) {
        write_entry(phys, pdpt, va.pdpt_index(), 0);
        stats.ptes_cleared = 1;
    } else {
        let pd = entry_addr(pdpte).pfn();
        let pde = read_entry(phys, pd, va.pd_index());
        if !entry_present(pde) {
            return Err(fault);
        }
        if entry_flags(pde).contains(PteFlags::HUGE) {
            write_entry(phys, pd, va.pd_index(), 0);
            stats.ptes_cleared = 1;
        } else {
            let pt = entry_addr(pde).pfn();
            let pte = read_entry(phys, pt, va.pt_index());
            if !entry_present(pte) {
                return Err(fault);
            }
            write_entry(phys, pt, va.pt_index(), 0);
            stats.ptes_cleared = 1;
            if table_is_empty(phys, pt) {
                phys.free_frame(pt);
                write_entry(phys, pd, va.pd_index(), 0);
                stats.tables_freed += 1;
            }
        }
        if table_is_empty(phys, pd) {
            phys.free_frame(pd);
            write_entry(phys, pdpt, va.pdpt_index(), 0);
            stats.tables_freed += 1;
        }
    }
    if table_is_empty(phys, pdpt) {
        phys.free_frame(pdpt);
        write_entry(phys, root, va.pml4_index(), 0);
        stats.tables_freed += 1;
    }
    Ok(stats)
}

/// Unmaps a contiguous region of 4 KiB pages, batching per leaf table.
///
/// # Errors
///
/// Returns [`MemError::BadMapping`] on misalignment; unmapped holes inside
/// the region are skipped silently (like `munmap`).
pub fn unmap_region(
    phys: &mut PhysMem,
    root: Pfn,
    va: VirtAddr,
    len: u64,
) -> Result<UnmapStats, MemError> {
    if len == 0 || !va.is_aligned(PAGE_SIZE) || !len.is_multiple_of(PAGE_SIZE) {
        return Err(MemError::BadMapping(va));
    }
    let mut stats = UnmapStats::default();
    let mut cur = va;
    let end = va.add(len);
    // Frees `table` if it became empty, clearing its entry in `parent`.
    fn reap_if_empty(
        phys: &mut PhysMem,
        parent: Pfn,
        index: usize,
        table: Pfn,
        stats: &mut UnmapStats,
    ) -> bool {
        if table_is_empty(phys, table) {
            phys.free_frame(table);
            write_entry(phys, parent, index, 0);
            stats.tables_freed += 1;
            true
        } else {
            false
        }
    }
    while cur < end {
        let pml4_index = cur.pml4_index();
        let pml4e = read_entry(phys, root, pml4_index);
        if !entry_present(pml4e) {
            cur = VirtAddr::new_unchecked((cur.raw() | 0x7f_ffff_ffff) + 1); // next PML4 slot
            continue;
        }
        let pdpt = entry_addr(pml4e).pfn();
        let pdpt_index = cur.pdpt_index();
        let pdpte = read_entry(phys, pdpt, pdpt_index);
        if !entry_present(pdpte) || entry_flags(pdpte).contains(PteFlags::HUGE) {
            if entry_present(pdpte) {
                write_entry(phys, pdpt, pdpt_index, 0);
                stats.ptes_cleared += 1;
                reap_if_empty(phys, root, pml4_index, pdpt, &mut stats);
            }
            cur = VirtAddr::new_unchecked((cur.raw() | 0x3fff_ffff) + 1); // next 1 GiB
            continue;
        }
        let pd = entry_addr(pdpte).pfn();
        let pd_index = cur.pd_index();
        let pde = read_entry(phys, pd, pd_index);
        if !entry_present(pde) || entry_flags(pde).contains(PteFlags::HUGE) {
            if entry_present(pde) {
                write_entry(phys, pd, pd_index, 0);
                stats.ptes_cleared += 1;
                if reap_if_empty(phys, pdpt, pdpt_index, pd, &mut stats) {
                    reap_if_empty(phys, root, pml4_index, pdpt, &mut stats);
                }
            }
            cur = VirtAddr::new_unchecked((cur.raw() | 0x1f_ffff) + 1); // next 2 MiB
            continue;
        }
        let pt = entry_addr(pde).pfn();
        let first = cur.pt_index();
        let in_table = (ENTRIES_PER_TABLE as usize - first) as u64;
        let remaining = (end.raw() - cur.raw()) / PAGE_SIZE;
        let count = in_table.min(remaining);
        {
            phys.bump_table_generation();
            let bytes = phys.frame_bytes_mut(pt);
            for i in 0..count as usize {
                let off = (first + i) * 8;
                if bytes[off] & 1 != 0 {
                    bytes[off..off + 8].fill(0);
                    stats.ptes_cleared += 1;
                }
            }
        }
        cur = cur.add(count * PAGE_SIZE);
        if reap_if_empty(phys, pd, pd_index, pt, &mut stats)
            && reap_if_empty(phys, pdpt, pdpt_index, pd, &mut stats)
        {
            reap_if_empty(phys, root, pml4_index, pdpt, &mut stats);
        }
    }
    Ok(stats)
}

/// Walks the tables for `va` and returns its translation.
///
/// `levels_visited` lets the MMU charge walk costs per level.
///
/// # Errors
///
/// Returns [`MemError::PageFault`] if no translation exists.
pub fn walk(phys: &mut PhysMem, root: Pfn, va: VirtAddr) -> Result<(Translation, u32), MemError> {
    let fault = MemError::PageFault {
        va,
        access: Access::Read,
    };
    let pml4e = read_entry(phys, root, va.pml4_index());
    if !entry_present(pml4e) {
        return Err(fault);
    }
    let pdpte = read_entry(phys, entry_addr(pml4e).pfn(), va.pdpt_index());
    if !entry_present(pdpte) {
        return Err(fault);
    }
    if entry_flags(pdpte).contains(PteFlags::HUGE) {
        let base = entry_addr(pdpte);
        return Ok((
            Translation {
                pa: base.add(va.offset_in(PageSize::Size1G)),
                flags: entry_flags(pdpte),
                size: PageSize::Size1G,
            },
            2,
        ));
    }
    let pde = read_entry(phys, entry_addr(pdpte).pfn(), va.pd_index());
    if !entry_present(pde) {
        return Err(fault);
    }
    if entry_flags(pde).contains(PteFlags::HUGE) {
        let base = entry_addr(pde);
        return Ok((
            Translation {
                pa: base.add(va.offset_in(PageSize::Size2M)),
                flags: entry_flags(pde),
                size: PageSize::Size2M,
            },
            3,
        ));
    }
    let pte = read_entry(phys, entry_addr(pde).pfn(), va.pt_index());
    if !entry_present(pte) {
        return Err(fault);
    }
    Ok((
        Translation {
            pa: entry_addr(pte).add(va.page_offset()),
            flags: entry_flags(pte),
            size: PageSize::Size4K,
        },
        4,
    ))
}

/// The level-4 (leaf) page table covering `va`, if the walk path to it
/// exists and is not terminated early by a superpage. The host-side
/// flattened walk cache uses this to find the table to snapshot
/// ([`leaf_entries`]) after a walk bottoms out at 4 KiB.
pub fn leaf_table(phys: &mut PhysMem, root: Pfn, va: VirtAddr) -> Option<Pfn> {
    let pml4e = read_entry(phys, root, va.pml4_index());
    if !entry_present(pml4e) {
        return None;
    }
    let pdpte = read_entry(phys, entry_addr(pml4e).pfn(), va.pdpt_index());
    if !entry_present(pdpte) || entry_flags(pdpte).contains(PteFlags::HUGE) {
        return None;
    }
    let pde = read_entry(phys, entry_addr(pdpte).pfn(), va.pd_index());
    if !entry_present(pde) || entry_flags(pde).contains(PteFlags::HUGE) {
        return None;
    }
    Some(entry_addr(pde).pfn())
}

/// Copies leaf table `pt`'s 512 raw entries. The host-side walk cache
/// snapshots whole leaf tables with this and stamps each snapshot with
/// [`PhysMem::table_generation`]; since every table mutation bumps the
/// generation, a snapshot whose stamp still matches is byte-identical
/// to the live table and can serve PTE reads without touching `phys`.
pub fn leaf_entries(phys: &mut PhysMem, pt: Pfn) -> Box<[u64; ENTRIES_PER_TABLE as usize]> {
    let bytes = phys.frame_bytes_mut(pt);
    let mut out = Box::new([0u64; ENTRIES_PER_TABLE as usize]);
    for (i, chunk) in bytes.chunks_exact(8).enumerate() {
        out[i] = u64::from_le_bytes(chunk.try_into().unwrap());
    }
    out
}

/// Decodes a raw 4 KiB leaf PTE (as stored in a table or a
/// [`leaf_entries`] snapshot): the mapped page base and flags, or
/// `None` if the entry is not present — exactly what a full walk
/// concludes at level four.
pub fn decode_pte(pte: u64) -> Option<(PhysAddr, PteFlags)> {
    if !entry_present(pte) {
        return None;
    }
    Some((entry_addr(pte), entry_flags(pte)))
}

/// Links the subtree rooted under `src_root[pml4_index]` into `dst_root` at
/// the same slot, sharing all lower-level tables.
///
/// This is how SpaceJMP shares segment translations between the address
/// spaces of attaching processes (Barrelfish shares "all page tables other
/// than the root", Section 4.2) and how cached translations make reattach
/// cheap (the `cached` series of Figure 1).
///
/// # Errors
///
/// * [`MemError::PageFault`] if the source slot is empty.
/// * [`MemError::AlreadyMapped`] if the destination slot is occupied by a
///   different subtree.
pub fn link_subtree(
    phys: &mut PhysMem,
    dst_root: Pfn,
    src_root: Pfn,
    pml4_index: usize,
) -> Result<(), MemError> {
    let src = read_entry(phys, src_root, pml4_index);
    if !entry_present(src) {
        return Err(MemError::PageFault {
            va: VirtAddr::new_unchecked((pml4_index as u64) << 39),
            access: Access::Read,
        });
    }
    let dst = read_entry(phys, dst_root, pml4_index);
    if entry_present(dst) {
        if dst == src {
            return Ok(());
        }
        return Err(MemError::AlreadyMapped(VirtAddr::new_unchecked(
            (pml4_index as u64) << 39,
        )));
    }
    write_entry(phys, dst_root, pml4_index, src);
    Ok(())
}

/// The table frame a root's PML4 slot points to, or `None` if the slot
/// is empty. Offline audits use this to verify that an attached
/// vmspace's shared slots still reference the template's subtrees
/// (CoW-divergence would show as a different frame in the same slot).
pub fn root_slot_entry(phys: &mut PhysMem, root: Pfn, pml4_index: usize) -> Option<Pfn> {
    let e = read_entry(phys, root, pml4_index);
    entry_present(e).then(|| entry_addr(e).pfn())
}

/// Counts the page-table frames reachable from `root` (excluding shared
/// subtrees counted once).
pub fn count_table_frames(phys: &mut PhysMem, root: Pfn) -> u64 {
    let mut seen = std::collections::HashSet::new();
    collect_table_frames(phys, root, &[], &mut seen)
}

/// Adds every table frame reachable from `root` (skipping the PML4 slots
/// in `skip`) to `seen` and returns how many were newly added. Audits
/// that sum table frames across *several* roots share one `seen` set so
/// subtrees linked into multiple trees are counted exactly once.
pub fn collect_table_frames(
    phys: &mut PhysMem,
    root: Pfn,
    skip: &[usize],
    seen: &mut std::collections::HashSet<Pfn>,
) -> u64 {
    let mut count = 0;
    if seen.insert(root) {
        count += 1;
    }
    for i in 0..ENTRIES_PER_TABLE as usize {
        if skip.contains(&i) {
            continue;
        }
        let pml4e = read_entry(phys, root, i);
        if !entry_present(pml4e) {
            continue;
        }
        let pdpt = entry_addr(pml4e).pfn();
        if !seen.insert(pdpt) {
            continue;
        }
        count += 1;
        for j in 0..ENTRIES_PER_TABLE as usize {
            let pdpte = read_entry(phys, pdpt, j);
            if !entry_present(pdpte) || entry_flags(pdpte).contains(PteFlags::HUGE) {
                continue;
            }
            let pd = entry_addr(pdpte).pfn();
            if !seen.insert(pd) {
                continue;
            }
            count += 1;
            for k in 0..ENTRIES_PER_TABLE as usize {
                let pde = read_entry(phys, pd, k);
                if entry_present(pde) && !entry_flags(pde).contains(PteFlags::HUGE) {
                    let pt = entry_addr(pde).pfn();
                    if seen.insert(pt) {
                        count += 1;
                    }
                }
            }
        }
    }
    count
}

/// Frees every table frame reachable from `root`, including `root` itself.
///
/// `shared` lists PML4 slots whose subtrees are shared with other roots and
/// must not be freed.
pub fn free_tables(phys: &mut PhysMem, root: Pfn, shared: &[usize]) {
    phys.bump_table_generation();
    for i in 0..ENTRIES_PER_TABLE as usize {
        if shared.contains(&i) {
            continue;
        }
        let pml4e = read_entry(phys, root, i);
        if !entry_present(pml4e) {
            continue;
        }
        let pdpt = entry_addr(pml4e).pfn();
        for j in 0..ENTRIES_PER_TABLE as usize {
            let pdpte = read_entry(phys, pdpt, j);
            if !entry_present(pdpte) || entry_flags(pdpte).contains(PteFlags::HUGE) {
                continue;
            }
            let pd = entry_addr(pdpte).pfn();
            for k in 0..ENTRIES_PER_TABLE as usize {
                let pde = read_entry(phys, pd, k);
                if entry_present(pde) && !entry_flags(pde).contains(PteFlags::HUGE) {
                    phys.free_frame(entry_addr(pde).pfn());
                }
            }
            phys.free_frame(pd);
        }
        phys.free_frame(pdpt);
    }
    phys.free_frame(root);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PhysMem, Pfn) {
        let mut phys = PhysMem::new(1 << 24); // 16 MiB
        let root = new_root(&mut phys).unwrap();
        (phys, root)
    }

    #[test]
    fn map_walk_round_trip_4k() {
        let (mut phys, root) = setup();
        let va = VirtAddr::new(0x4000_0000);
        let pa = PhysAddr::new(0x20_0000);
        let flags = PteFlags::WRITABLE | PteFlags::USER;
        let stats = map(&mut phys, root, va, pa, PageSize::Size4K, flags).unwrap();
        assert_eq!(stats.ptes_written, 1);
        assert_eq!(stats.tables_allocated, 3, "PDPT + PD + PT");
        let (t, levels) = walk(&mut phys, root, va.add(123)).unwrap();
        assert_eq!(t.pa, pa.add(123));
        assert_eq!(t.size, PageSize::Size4K);
        assert_eq!(levels, 4);
        assert!(t.flags.contains(PteFlags::WRITABLE));
    }

    #[test]
    fn map_2m_and_1g_superpages() {
        let (mut phys, root) = setup();
        let f = PteFlags::WRITABLE | PteFlags::USER;
        map(
            &mut phys,
            root,
            VirtAddr::new(0x20_0000),
            PhysAddr::new(0x40_0000),
            PageSize::Size2M,
            f,
        )
        .unwrap();
        let (t, levels) = walk(&mut phys, root, VirtAddr::new(0x20_0000 + 0x1234)).unwrap();
        assert_eq!(t.pa.raw(), 0x40_0000 + 0x1234);
        assert_eq!(t.size, PageSize::Size2M);
        assert_eq!(levels, 3);

        map(
            &mut phys,
            root,
            VirtAddr::new(0x1_0000_0000),
            PhysAddr::new(0x4000_0000),
            PageSize::Size1G,
            f,
        )
        .unwrap();
        let (t, levels) = walk(&mut phys, root, VirtAddr::new(0x1_0000_0000 + 0xabcde)).unwrap();
        assert_eq!(t.pa.raw(), 0x4000_0000 + 0xabcde);
        assert_eq!(t.size, PageSize::Size1G);
        assert_eq!(levels, 2);
    }

    #[test]
    fn double_map_rejected() {
        let (mut phys, root) = setup();
        let va = VirtAddr::new(0x1000);
        let f = PteFlags::USER;
        map(
            &mut phys,
            root,
            va,
            PhysAddr::new(0x2000),
            PageSize::Size4K,
            f,
        )
        .unwrap();
        let err = map(
            &mut phys,
            root,
            va,
            PhysAddr::new(0x3000),
            PageSize::Size4K,
            f,
        );
        assert_eq!(err, Err(MemError::AlreadyMapped(va)));
    }

    #[test]
    fn misaligned_map_rejected() {
        let (mut phys, root) = setup();
        let err = map(
            &mut phys,
            root,
            VirtAddr::new(0x1234),
            PhysAddr::new(0x2000),
            PageSize::Size4K,
            PteFlags::empty(),
        );
        assert!(matches!(err, Err(MemError::BadMapping(_))));
        let err2 = map(
            &mut phys,
            root,
            VirtAddr::new(0x20_0000),
            PhysAddr::new(0x1000),
            PageSize::Size2M,
            PteFlags::empty(),
        );
        assert!(matches!(err2, Err(MemError::BadMapping(_))));
    }

    #[test]
    fn map_region_batched_counts() {
        let (mut phys, root) = setup();
        // 4 MiB = 1024 PTEs = 2 leaf tables + PD + PDPT.
        let stats = map_region(
            &mut phys,
            root,
            VirtAddr::new(0),
            PhysAddr::new(0x40_0000),
            4 << 20,
            PageSize::Size4K,
            PteFlags::WRITABLE,
        )
        .unwrap();
        assert_eq!(stats.ptes_written, 1024);
        assert_eq!(stats.tables_allocated, 4);
        for off in [0u64, 4096, (4 << 20) - 4096] {
            let (t, _) = walk(&mut phys, root, VirtAddr::new(off)).unwrap();
            assert_eq!(t.pa.raw(), 0x40_0000 + off);
        }
        assert!(walk(&mut phys, root, VirtAddr::new(4 << 20)).is_err());
    }

    #[test]
    fn map_region_unaligned_start_inside_table() {
        let (mut phys, root) = setup();
        // Start mid-table (page 500) and span a table boundary.
        let va = VirtAddr::new(500 * 4096);
        let stats = map_region(
            &mut phys,
            root,
            va,
            PhysAddr::new(0x10_0000),
            24 * 4096,
            PageSize::Size4K,
            PteFlags::empty(),
        )
        .unwrap();
        assert_eq!(stats.ptes_written, 24);
        let (t, _) = walk(&mut phys, root, va.add(23 * 4096)).unwrap();
        assert_eq!(t.pa.raw(), 0x10_0000 + 23 * 4096);
    }

    #[test]
    fn unmap_frees_empty_tables() {
        let (mut phys, root) = setup();
        let va = VirtAddr::new(0x40_0000);
        map(
            &mut phys,
            root,
            va,
            PhysAddr::new(0x2000),
            PageSize::Size4K,
            PteFlags::empty(),
        )
        .unwrap();
        let before = phys.allocated_frames();
        let stats = unmap(&mut phys, root, va).unwrap();
        assert_eq!(stats.ptes_cleared, 1);
        assert_eq!(stats.tables_freed, 3);
        assert_eq!(phys.allocated_frames(), before - 3);
        assert!(walk(&mut phys, root, va).is_err());
    }

    #[test]
    fn unmap_missing_page_faults() {
        let (mut phys, root) = setup();
        assert!(matches!(
            unmap(&mut phys, root, VirtAddr::new(0x7000)),
            Err(MemError::PageFault { .. })
        ));
    }

    #[test]
    fn unmap_region_skips_holes() {
        let (mut phys, root) = setup();
        map(
            &mut phys,
            root,
            VirtAddr::new(0x1000),
            PhysAddr::new(0x2000),
            PageSize::Size4K,
            PteFlags::empty(),
        )
        .unwrap();
        map(
            &mut phys,
            root,
            VirtAddr::new(0x3000),
            PhysAddr::new(0x4000),
            PageSize::Size4K,
            PteFlags::empty(),
        )
        .unwrap();
        let stats = unmap_region(&mut phys, root, VirtAddr::new(0), 16 * 4096).unwrap();
        assert_eq!(stats.ptes_cleared, 2);
        assert!(walk(&mut phys, root, VirtAddr::new(0x1000)).is_err());
        assert!(walk(&mut phys, root, VirtAddr::new(0x3000)).is_err());
    }

    #[test]
    fn link_subtree_shares_translations() {
        let (mut phys, root_a) = setup();
        let root_b = new_root(&mut phys).unwrap();
        let va = VirtAddr::new(0x1_0000_0000); // PML4 slot 0, PDPT slot 4
        map(
            &mut phys,
            root_a,
            va,
            PhysAddr::new(0x8000),
            PageSize::Size4K,
            PteFlags::WRITABLE,
        )
        .unwrap();
        link_subtree(&mut phys, root_b, root_a, va.pml4_index()).unwrap();
        let (t, _) = walk(&mut phys, root_b, va).unwrap();
        assert_eq!(t.pa.raw(), 0x8000);
        // New mappings in the shared subtree become visible in both roots.
        map(
            &mut phys,
            root_a,
            va.add(4096),
            PhysAddr::new(0x9000),
            PageSize::Size4K,
            PteFlags::empty(),
        )
        .unwrap();
        let (t2, _) = walk(&mut phys, root_b, va.add(4096)).unwrap();
        assert_eq!(t2.pa.raw(), 0x9000);
    }

    #[test]
    fn link_subtree_conflicts_detected() {
        let (mut phys, root_a) = setup();
        let root_b = new_root(&mut phys).unwrap();
        let va = VirtAddr::new(0);
        map(
            &mut phys,
            root_a,
            va,
            PhysAddr::new(0x8000),
            PageSize::Size4K,
            PteFlags::empty(),
        )
        .unwrap();
        map(
            &mut phys,
            root_b,
            va,
            PhysAddr::new(0x9000),
            PageSize::Size4K,
            PteFlags::empty(),
        )
        .unwrap();
        assert!(matches!(
            link_subtree(&mut phys, root_b, root_a, 0),
            Err(MemError::AlreadyMapped(_))
        ));
        // Linking twice from the same source is idempotent.
        let root_c = new_root(&mut phys).unwrap();
        link_subtree(&mut phys, root_c, root_a, 0).unwrap();
        link_subtree(&mut phys, root_c, root_a, 0).unwrap();
        // Empty source slot is an error.
        assert!(link_subtree(&mut phys, root_c, root_a, 5).is_err());
    }

    #[test]
    fn count_and_free_tables() {
        let (mut phys, root) = setup();
        map_region(
            &mut phys,
            root,
            VirtAddr::new(0),
            PhysAddr::new(0x40_0000),
            2 << 20,
            PageSize::Size4K,
            PteFlags::empty(),
        )
        .unwrap();
        // root + PDPT + PD + 1 PT
        assert_eq!(count_table_frames(&mut phys, root), 4);
        let before = phys.allocated_frames();
        free_tables(&mut phys, root, &[]);
        assert_eq!(phys.allocated_frames(), before - 4);
    }

    #[test]
    fn clear_leaf_marks_and_allows_remap() {
        let (mut phys, root) = setup();
        let va = VirtAddr::new(0x40_0000);
        map(
            &mut phys,
            root,
            va,
            PhysAddr::new(0x2000),
            PageSize::Size4K,
            PteFlags::USER,
        )
        .unwrap();
        let tables = count_table_frames(&mut phys, root);
        assert_eq!(clear_leaf(&mut phys, root, va), Some(Pfn(2)));
        assert!(leaf_is_swap_marked(&mut phys, root, va));
        assert!(walk(&mut phys, root, va).is_err(), "entry is non-present");
        assert_eq!(
            count_table_frames(&mut phys, root),
            tables,
            "tables survive eviction"
        );
        // Second clear is a no-op; remap overwrites the marker.
        assert_eq!(clear_leaf(&mut phys, root, va), None);
        map(
            &mut phys,
            root,
            va,
            PhysAddr::new(0x5000),
            PageSize::Size4K,
            PteFlags::USER,
        )
        .unwrap();
        assert!(!leaf_is_swap_marked(&mut phys, root, va));
        let (t, _) = walk(&mut phys, root, va).unwrap();
        assert_eq!(t.pa.raw(), 0x5000);
    }

    #[test]
    fn ensure_root_slot_is_idempotent_and_linkable() {
        let (mut phys, root) = setup();
        let (pdpt, allocated) = ensure_root_slot(&mut phys, root, 3).unwrap();
        assert!(allocated);
        let (pdpt2, allocated2) = ensure_root_slot(&mut phys, root, 3).unwrap();
        assert_eq!(pdpt, pdpt2);
        assert!(!allocated2);
        // An empty-but-present slot can be linked into another root, and
        // mappings built later through either root are shared.
        let other = new_root(&mut phys).unwrap();
        link_subtree(&mut phys, other, root, 3).unwrap();
        let va = VirtAddr::new_unchecked(3u64 << 39);
        map(
            &mut phys,
            other,
            va,
            PhysAddr::new(0x8000),
            PageSize::Size4K,
            PteFlags::USER,
        )
        .unwrap();
        let (t, _) = walk(&mut phys, root, va).unwrap();
        assert_eq!(t.pa.raw(), 0x8000);
    }

    #[test]
    fn flags_permissions() {
        let ro = PteFlags::PRESENT | PteFlags::USER;
        assert!(ro.permits(Access::Read));
        assert!(!ro.permits(Access::Write));
        assert!(ro.permits(Access::Execute));
        let nx = ro | PteFlags::NO_EXECUTE;
        assert!(!nx.permits(Access::Execute));
        assert!(!PteFlags::empty().permits(Access::Read));
        let rw = ro | PteFlags::WRITABLE;
        assert!(rw.permits(Access::Write));
        assert_eq!(rw.difference(PteFlags::WRITABLE), ro);
    }
}
