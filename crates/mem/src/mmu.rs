//! The simulated MMU: CR3 register, TLB, page walker, cycle accounting.
//!
//! One [`Mmu`] models one hardware thread's address-translation machinery.
//! Every operation charges the shared [`CycleClock`], so workloads running
//! through the MMU automatically produce the cycle totals that the paper's
//! figures are computed from.

use crate::addr::{PageSize, Pfn, PhysAddr, VirtAddr, PAGE_SIZE};
use crate::backend::Backend;
use crate::cost::{CostModel, CycleClock};
use crate::error::{Access, MemError};
use crate::paging::{self, PteFlags, Translation};
use crate::phys::PhysMem;
use crate::tlb::{Asid, Tlb, TlbStats};
use sjmp_sim::IdMap;
use sjmp_trace::{EventKind, Tracer};

/// Environment variable that disables the host-side walk cache when set
/// to `"0"` (CI uses it for byte-for-byte parity runs).
pub const HOST_WALK_CACHE_ENV: &str = "SJMP_HOST_WALK_CACHE";

/// One host-cache entry covering a 2 MiB-aligned slice of a root's
/// virtual address space (the cache key is `(root, va >> 21)`).
///
/// Caching at paging-*structure* granularity rather than per 4 KiB page
/// is what makes the cache pay off on sparse random workloads: GUPS
/// touches each page roughly once (a per-page cache would never hit),
/// but revisits the same few hundred 2 MiB ranges constantly.
///
/// Every entry is stamped with the [`PhysMem::table_generation`] it was
/// built under; any page-table mutation anywhere bumps the generation,
/// so a single integer compare on the hit path revalidates the entry
/// against every map/unmap/evict/link/free since. Stale entries are simply
/// overwritten by the re-walk's insert.
#[derive(Debug, Clone)]
enum FlatEntry {
    /// The walk ends above this key's range with a single mapping: a
    /// superpage leaf (which spans the whole 2 MiB range, or more).
    /// `va_base` guards hits so an entry never answers for addresses
    /// outside the mapping it was built from.
    Terminal {
        gen: u64,
        va_base: u64,
        base: PhysAddr,
        flags: PteFlags,
        size: PageSize,
        levels: u32,
    },
    /// A snapshot of the level-4 page table covering this range. While
    /// the stamp matches, the snapshot is byte-identical to the live
    /// table, so hits index it directly — no physical-memory access at
    /// all. An absent snapshot entry faults exactly as a full walk
    /// would, and is never treated as a cached failure.
    Leaf {
        gen: u64,
        ptes: Box<[u64; crate::addr::ENTRIES_PER_TABLE as usize]>,
    },
}

type HostCache = IdMap<(u64, u64), FlatEntry>;

sjmp_trace::counter_group! {
    /// MMU event counters.
    pub struct MmuStats {
        /// CR3 writes (address-space switches at the hardware level).
        cr3_loads => "mmu.cr3_loads",
        /// Translations requested.
        translations => "mmu.translations",
        /// Page walks performed (TLB misses).
        walks => "mmu.walks",
        /// Faults raised (page + protection).
        faults => "mmu.faults",
    }
}

/// A simulated per-core MMU.
///
/// # Examples
///
/// ```
/// use sjmp_mem::{mmu::Mmu, phys::PhysMem, paging, cost::{CostModel, CycleClock}};
/// use sjmp_mem::addr::{PageSize, PhysAddr, VirtAddr};
/// use sjmp_mem::paging::PteFlags;
/// use sjmp_mem::tlb::Asid;
/// use sjmp_mem::error::Access;
///
/// # fn main() -> Result<(), sjmp_mem::error::MemError> {
/// let mut phys = PhysMem::new(1 << 22);
/// let root = paging::new_root(&mut phys)?;
/// let frame = phys.alloc_frame()?;
/// paging::map(&mut phys, root, VirtAddr::new(0x1000), frame.base(),
///             PageSize::Size4K, PteFlags::WRITABLE | PteFlags::USER)?;
///
/// let mut mmu = Mmu::new(64, 4, CostModel::default(), CycleClock::new());
/// mmu.load_cr3(root, Asid::UNTAGGED);
/// mmu.write_u64(&mut phys, VirtAddr::new(0x1008), 7)?;
/// assert_eq!(mmu.read_u64(&mut phys, VirtAddr::new(0x1008))?, 7);
/// # Ok(()) }
/// ```
#[derive(Debug)]
pub struct Mmu {
    tlb: Tlb,
    cr3: Option<Pfn>,
    asid: Asid,
    tagging: bool,
    cost: CostModel,
    clock: CycleClock,
    stats: MmuStats,
    /// Emits on its own: the MMU sits below the kernel, so its events
    /// carry this MMU's clock and `core_id`, not the kernel's helpers.
    tracer: Tracer,
    core_id: u32,
    backend: Backend,
    /// Host-side flattened walk cache, keyed by (root frame, 2 MiB VA
    /// range) so entries survive CR3 loads — the win on switch-heavy
    /// workloads. Pure host optimization: results are bit-identical with
    /// it on or off. Any path that frees page tables must call
    /// [`Mmu::flush_host_walk_cache`], or a reused root frame could
    /// resurrect stale entries.
    host_cache: HostCache,
    host_cache_enabled: bool,
}

impl Mmu {
    /// Creates an MMU with the given TLB geometry, cost model, and clock,
    /// using the default four-level backend. The host walk cache is on
    /// unless [`HOST_WALK_CACHE_ENV`] is set to `"0"`.
    pub fn new(tlb_entries: usize, tlb_ways: usize, cost: CostModel, clock: CycleClock) -> Self {
        let host_cache_enabled = std::env::var(HOST_WALK_CACHE_ENV)
            .map(|v| v != "0")
            .unwrap_or(true);
        Mmu {
            tlb: Tlb::new(tlb_entries, tlb_ways),
            cr3: None,
            asid: Asid::UNTAGGED,
            tagging: false,
            cost,
            clock,
            stats: MmuStats::default(),
            tracer: Tracer::disabled(),
            core_id: 0,
            backend: Backend::default(),
            host_cache: HostCache::default(),
            host_cache_enabled,
        }
    }

    /// Installs a translation backend: how later translations are
    /// charged. Both backends resolve through the same tree, so this may
    /// be called at any time.
    pub fn set_backend(&mut self, backend: Backend) {
        self.backend = backend;
    }

    /// Enables or disables the host-side walk cache. Disabling clears
    /// it. Simulated cycles and counters are identical either way — the
    /// knob only affects host wall-time (and parity checks prove it).
    pub fn set_host_walk_cache(&mut self, enabled: bool) {
        self.host_cache_enabled = enabled;
        if !enabled {
            self.host_cache.clear();
        }
    }

    /// Whether the host-side walk cache is enabled.
    pub fn host_walk_cache_enabled(&self) -> bool {
        self.host_cache_enabled
    }

    /// Drops every host-side walk-cache entry. Required whenever page
    /// tables are *freed* (a recycled root frame must not resurrect the
    /// old space's cached walks); mapping changes under a live root are
    /// already covered by [`Mmu::invlpg`] / [`Mmu::flush_tlb`].
    pub fn flush_host_walk_cache(&mut self) {
        self.host_cache.clear();
    }

    /// Attaches a tracer; `core_id` stamps this MMU's events with the
    /// hardware thread it models. Tracing never advances the clock.
    pub fn set_tracer(&mut self, tracer: Tracer, core_id: u32) {
        self.tracer = tracer;
        self.core_id = core_id;
    }

    /// Enables or disables TLB tagging (PCID). With tagging off, or with
    /// the reserved [`Asid::UNTAGGED`] tag, every CR3 write flushes.
    pub fn set_tagging(&mut self, enabled: bool) {
        self.tagging = enabled;
    }

    /// Whether TLB tagging is enabled.
    pub fn tagging(&self) -> bool {
        self.tagging
    }

    /// The currently loaded root table, if any.
    pub fn cr3(&self) -> Option<Pfn> {
        self.cr3
    }

    /// The current address-space tag.
    pub fn asid(&self) -> Asid {
        self.asid
    }

    /// Shared clock used for cost accounting.
    pub fn clock(&self) -> &CycleClock {
        &self.clock
    }

    /// The cost model in effect.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// MMU counters.
    pub fn stats(&self) -> MmuStats {
        self.stats
    }

    /// TLB counters.
    pub fn tlb_stats(&self) -> TlbStats {
        self.tlb.stats()
    }

    /// Resets MMU and TLB counters (entries are kept).
    pub fn reset_stats(&mut self) {
        self.stats = MmuStats::default();
        self.tlb.reset_stats();
    }

    /// Direct access to the TLB (for benchmarks that probe occupancy).
    pub fn tlb_mut(&mut self) -> &mut Tlb {
        &mut self.tlb
    }

    /// Loads CR3 with a new root table and tag, charging the Table 2 CR3
    /// cost.
    ///
    /// Flush semantics follow x86 PCID: loading a *tagged* address space
    /// (tagging enabled, tag nonzero) preserves all entries; loading an
    /// untagged one invalidates the entries of that tag — which, for the
    /// reserved tag zero, is "always trigger a TLB flush on a context
    /// switch" exactly as the paper's implementations behave, while
    /// entries belonging to other tags survive.
    pub fn load_cr3(&mut self, root: Pfn, asid: Asid) {
        // The host walk cache is keyed per root, so it needs no
        // invalidation here: entries for the outgoing space stay warm
        // for the next switch back (host-side only, never the result).
        if self.backend.is_seg_map() {
            // No TLB under base+bound: the switch is the root-register
            // write alone, charged at the untagged CR3 price.
            self.tracer.begin(
                self.clock.now(),
                self.core_id,
                EventKind::Cr3Load,
                u64::from(asid.0),
            );
            self.clock.advance(self.cost.cr3_load(false));
            self.stats.cr3_loads += 1;
            self.cr3 = Some(root);
            self.asid = asid;
            self.tracer.end(
                self.clock.now(),
                self.core_id,
                EventKind::Cr3Load,
                u64::from(asid.0),
            );
            return;
        }
        let tagged = self.tagging && asid.is_tagged();
        self.tracer.begin(
            self.clock.now(),
            self.core_id,
            EventKind::Cr3Load,
            u64::from(asid.0),
        );
        self.clock.advance(self.cost.cr3_load(tagged));
        self.stats.cr3_loads += 1;
        if !tagged {
            if self.tagging {
                self.tlb.flush_asid(asid);
            } else {
                self.tlb.flush_nonglobal();
            }
            self.tracer.instant(
                self.clock.now(),
                self.core_id,
                EventKind::TlbFlush,
                u64::from(asid.0),
                0,
            );
        }
        self.cr3 = Some(root);
        self.asid = asid;
        self.tracer.end(
            self.clock.now(),
            self.core_id,
            EventKind::Cr3Load,
            u64::from(asid.0),
        );
    }

    /// Unloads CR3 and flushes the TLB: the address space this core was
    /// running was destroyed (e.g. its owner was killed), so translations
    /// through the freed tables must become [`MemError::NoAddressSpace`]
    /// instead of walks through reused frames.
    pub fn clear_cr3(&mut self) {
        self.host_cache.clear();
        self.cr3 = None;
        self.asid = Asid::UNTAGGED;
        self.tlb.flush_nonglobal();
        self.tracer
            .instant(self.clock.now(), self.core_id, EventKind::TlbFlush, 0, 0);
    }

    /// Invalidates one page's translation (mapping changed under us).
    pub fn invlpg(&mut self, va: VirtAddr) {
        // A 1 GiB superpage walk is memoized under many 2 MiB keys, and
        // the same leaf table may back other roots' keys; clearing the
        // whole host cache is the simple correct invalidation.
        self.host_cache.clear();
        self.tlb.flush_page(va.vpn());
    }

    /// Flushes all non-global TLB entries (explicit shootdown).
    pub fn flush_tlb(&mut self) {
        self.host_cache.clear();
        self.tlb.flush_nonglobal();
        self.tracer
            .instant(self.clock.now(), self.core_id, EventKind::TlbFlush, 0, 0);
    }

    /// Translates `va` for `access`, charging TLB and walk costs.
    ///
    /// This body is the TLB-hit path, and every word access inlines it:
    /// the lookup charge, one [`Tlb::lookup`], the permission check and
    /// the hit event. Everything else is out of line: the walk, its
    /// charges and events, and the insert; faults; and recording the
    /// hit event.
    ///
    /// # Errors
    ///
    /// * [`MemError::NoAddressSpace`] if CR3 was never loaded.
    /// * [`MemError::PageFault`] if no translation exists.
    /// * [`MemError::ProtectionFault`] if the mapping forbids `access`.
    #[inline(always)]
    pub fn translate(
        &mut self,
        phys: &mut PhysMem,
        va: VirtAddr,
        access: Access,
    ) -> Result<PhysAddr, MemError> {
        let root = self.cr3.ok_or(MemError::NoAddressSpace)?;
        self.stats.translations += 1;
        if self.backend.is_seg_map() {
            return self.translate_segbound(phys, root, va, access);
        }
        self.clock.advance(self.cost.tlb_lookup);
        let Some((page_base, flags, size)) = self.tlb.lookup(self.asid, va.vpn()) else {
            return self.translate_miss(phys, root, va, access);
        };
        if !flags.permits(access) {
            return Err(self.protection_fault(va, access));
        }
        if self.tracer.enabled() {
            self.trace_hit();
        }
        Ok(page_base.add(va.offset_in(size)))
    }

    /// Records a TLB hit.
    #[inline(never)]
    fn trace_hit(&self) {
        self.tracer.instant(
            self.clock.now(),
            self.core_id,
            EventKind::TlbHit,
            u64::from(self.asid.0),
            0,
        );
    }

    /// Counts and returns a protection fault.
    #[cold]
    #[inline(never)]
    fn protection_fault(&mut self, va: VirtAddr, access: Access) -> MemError {
        self.stats.faults += 1;
        MemError::ProtectionFault { va, access }
    }

    /// The rest of [`Self::translate`] after a TLB miss: walk the tables
    /// (through the host-side walk cache, which changes host time only,
    /// never the result), charge the walk, map a failed walk to a fault,
    /// and insert the translation.
    #[inline(never)]
    fn translate_miss(
        &mut self,
        phys: &mut PhysMem,
        root: Pfn,
        va: VirtAddr,
        access: Access,
    ) -> Result<PhysAddr, MemError> {
        self.stats.walks += 1;
        let asid = u64::from(self.asid.0);
        self.tracer
            .instant(self.clock.now(), self.core_id, EventKind::TlbMiss, asid, 0);
        self.tracer
            .begin(self.clock.now(), self.core_id, EventKind::PageWalk, asid);
        let walked = self.walk_backend(phys, root, va);
        // Charge per level visited: a superpage leaf ends the walk early
        // (2 levels for 1 GiB, 3 for 2 MiB, 4 for 4 KiB); a failed walk
        // pays the full depth before faulting.
        match &walked {
            Ok((_, levels)) => self
                .clock
                .advance(self.cost.tlb_walk * u64::from(*levels) / 4),
            Err(_) => self.clock.advance(self.cost.tlb_walk),
        }
        let walked = walked.map_err(|e| {
            self.stats.faults += 1;
            match e {
                MemError::PageFault { va, .. } => MemError::PageFault { va, access },
                other => other,
            }
        });
        self.tracer
            .end(self.clock.now(), self.core_id, EventKind::PageWalk, asid);
        let (tr, _levels) = walked?;
        if !tr.flags.permits(access) {
            return Err(self.protection_fault(va, access));
        }
        let page_base = PhysAddr::new(tr.pa.raw() & !(tr.size.bytes() - 1));
        let global = tr.flags.contains(PteFlags::GLOBAL);
        self.tlb
            .insert(self.asid, va.vpn(), page_base, tr.flags, global, tr.size);
        Ok(page_base.add(va.offset_in(tr.size)))
    }

    /// The no-VM path: one charged base+bound check, no TLB and no
    /// charged walk. The bound is the tree itself: `va` resolves
    /// through it on the host, uncharged, so the physical address,
    /// flags and faults are exactly the paged backend's.
    fn translate_segbound(
        &mut self,
        phys: &mut PhysMem,
        root: Pfn,
        va: VirtAddr,
        access: Access,
    ) -> Result<PhysAddr, MemError> {
        self.clock.advance(self.cost.segbound_check);
        let walked = self.walk_backend(phys, root, va).map_err(|e| {
            self.stats.faults += 1;
            match e {
                MemError::PageFault { va, .. } => MemError::PageFault { va, access },
                other => other,
            }
        });
        let (tr, _levels) = walked?;
        if !tr.flags.permits(access) {
            self.stats.faults += 1;
            return Err(MemError::ProtectionFault { va, access });
        }
        Ok(tr.pa)
    }

    /// Resolves `va` through the tree, memoizing at paging-structure
    /// granularity in the host-side cache: superpage walks as
    /// coverage-checked terminals, 4 KiB walks as a generation-
    /// stamped snapshot of the whole leaf table. Failed walks are never
    /// cached, and a snapshot's absent entries fault exactly like the
    /// live table's, so the fault-then-map-then-retry path needs no
    /// explicit invalidation — the map itself bumps the generation.
    fn walk_backend(
        &mut self,
        phys: &mut PhysMem,
        root: Pfn,
        va: VirtAddr,
    ) -> Result<(Translation, u32), MemError> {
        let key = (root.0, va.raw() >> 21);
        if self.host_cache_enabled {
            let live_gen = phys.table_generation();
            match self.host_cache.get(&key) {
                Some(FlatEntry::Terminal {
                    gen,
                    va_base,
                    base,
                    flags,
                    size,
                    levels,
                }) if *gen == live_gen && va.raw() & !(size.bytes() - 1) == *va_base => {
                    let tr = Translation {
                        pa: base.add(va.offset_in(*size)),
                        flags: *flags,
                        size: *size,
                    };
                    return Ok((tr, *levels));
                }
                Some(FlatEntry::Leaf { gen, ptes }) if *gen == live_gen => {
                    return match paging::decode_pte(ptes[va.pt_index()]) {
                        Some((page, flags)) => Ok((
                            Translation {
                                pa: page.add(va.page_offset()),
                                flags,
                                size: PageSize::Size4K,
                            },
                            4,
                        )),
                        // Exactly what a full walk would return: the
                        // leaf table exists but this PTE is absent.
                        None => Err(MemError::PageFault {
                            va,
                            access: Access::Read,
                        }),
                    };
                }
                _ => {}
            }
        }
        let walked = paging::walk(phys, root, va);
        if self.host_cache_enabled {
            if let Ok((tr, levels)) = &walked {
                // The walk only *read* tables, so the generation it ran
                // under is still current for the snapshot's stamp.
                let gen = phys.table_generation();
                let entry = if *levels == 4 {
                    paging::leaf_table(phys, root, va).map(|pt| FlatEntry::Leaf {
                        gen,
                        ptes: paging::leaf_entries(phys, pt),
                    })
                } else {
                    None
                };
                let entry = entry.unwrap_or(FlatEntry::Terminal {
                    gen,
                    va_base: va.raw() & !(tr.size.bytes() - 1),
                    base: PhysAddr::new(tr.pa.raw() & !(tr.size.bytes() - 1)),
                    flags: tr.flags,
                    size: tr.size,
                    levels: *levels,
                });
                self.host_cache.insert(key, entry);
            }
        }
        walked
    }

    /// The tier cost of touching one cache line at `pa`: DRAM accesses
    /// cost one cache access; NVM-tier accesses pay the read/write extra.
    #[inline]
    fn data_cycles(&self, phys: &PhysMem, pa: PhysAddr, write: bool) -> u64 {
        let mut cycles = self.cost.cache_hit;
        if phys.is_nvm(pa.pfn()) {
            cycles += if write {
                self.cost.nvm_write_extra
            } else {
                self.cost.nvm_read_extra
            };
        }
        cycles
    }

    /// Loads one cache line's worth of data at `va` (Figure 6's "page
    /// touch"), charging translation plus one cache access.
    ///
    /// # Errors
    ///
    /// Same as [`Self::translate`].
    pub fn touch(&mut self, phys: &mut PhysMem, va: VirtAddr) -> Result<(), MemError> {
        let pa = self.translate(phys, va, Access::Read)?;
        self.clock.advance(self.data_cycles(phys, pa, false));
        Ok(())
    }

    /// Reads a naturally-aligned `u64` through the current address space.
    ///
    /// # Errors
    ///
    /// Translation errors as in [`Self::translate`], plus
    /// [`MemError::BadPhysAddr`] for misaligned addresses.
    #[inline]
    pub fn read_u64(&mut self, phys: &mut PhysMem, va: VirtAddr) -> Result<u64, MemError> {
        let pa = self.translate(phys, va, Access::Read)?;
        self.clock.advance(self.data_cycles(phys, pa, false));
        phys.read_u64(pa)
    }

    /// Reads the `u64`s at `va`, `va + 8`, ... until one is nonzero,
    /// `max` have been read, or the 4 KiB page ends. Returns how many
    /// words were read and the last one (`(0, 0)` when `max` is 0).
    ///
    /// Simulated state ends exactly as after that many
    /// [`Self::read_u64`] calls. The first word takes the normal path,
    /// which may hit, miss, walk or fault, and
    /// [`PhysMem::read_until_nonzero`] scans the frame once. Every later
    /// word would hit the TLB entry the first one used, so they are
    /// charged in one step, the run rule [`Self::write_words`] shares:
    /// one [`Tlb::repeat_hit`] for their lookups, and their translations
    /// and `tlb_lookup` plus data cycles each. Without a TLB (the
    /// segment map) every word goes through [`Self::read_u64`].
    ///
    /// # Errors
    ///
    /// As [`Self::read_u64`] for the first word.
    pub fn read_until_nonzero(
        &mut self,
        phys: &mut PhysMem,
        va: VirtAddr,
        max: u64,
    ) -> Result<(u64, u64), MemError> {
        // At least one word while `max` allows, so a misaligned `va`
        // fails exactly as `read_u64` does.
        let limit = max.min((PAGE_SIZE - va.page_offset()).div_ceil(8));
        if limit < 2 || self.backend.is_seg_map() {
            let (mut read, mut word) = (0, 0);
            while word == 0 && read < limit {
                word = self.read_u64(phys, va.add(read * 8))?;
                read += 1;
            }
            return Ok((read, word));
        }
        let pa = self.translate(phys, va, Access::Read)?;
        let data = self.data_cycles(phys, pa, false);
        self.clock.advance(data);
        let (read, word) = phys.read_until_nonzero(pa, limit)?;
        self.charge_run(phys, va, Access::Read, read - 1, data)?;
        Ok((read, word))
    }

    /// Writes `words` to the consecutive `u64`s from `va`.
    ///
    /// Simulated state ends exactly as after one [`Self::write_u64`]
    /// per word. A run on one 4 KiB page translates its first word the
    /// normal way, writes every word through [`PhysMem::write_words`],
    /// and charges the later words by the run rule of
    /// [`Self::read_until_nonzero`]. A run that crosses a page, or one
    /// without a TLB (the segment map), goes word by word.
    ///
    /// # Errors
    ///
    /// As [`Self::write_u64`] at the first word that fails; the words
    /// before it are written.
    pub fn write_words(
        &mut self,
        phys: &mut PhysMem,
        va: VirtAddr,
        words: &[u64],
    ) -> Result<(), MemError> {
        let in_page = words.len() as u64 * 8 <= PAGE_SIZE - va.page_offset();
        if words.len() < 2 || !in_page || self.backend.is_seg_map() {
            for (i, &word) in (0u64..).zip(words) {
                self.write_u64(phys, va.add(i * 8), word)?;
            }
            return Ok(());
        }
        let pa = self.translate(phys, va, Access::Write)?;
        let data = self.data_cycles(phys, pa, true);
        self.clock.advance(data);
        phys.write_words(pa, words)?;
        self.charge_run(phys, va, Access::Write, words.len() as u64 - 1, data)
    }

    /// The run rule: charges the `rest` accesses that follow a run's
    /// first word at `va`, on the same page, as `rest` more translations
    /// and `data` cycles each would charge them. Each would hit the TLB
    /// entry the first word used, so they take one [`Tlb::repeat_hit`],
    /// `rest` translations, and `tlb_lookup` plus `data` cycles each.
    /// With a tracer each hit is translated in turn instead, so its
    /// event carries its own time.
    fn charge_run(
        &mut self,
        phys: &mut PhysMem,
        va: VirtAddr,
        access: Access,
        rest: u64,
        data: u64,
    ) -> Result<(), MemError> {
        if !self.tracer.enabled() && self.tlb.repeat_hit(self.asid, va.vpn(), rest).is_some() {
            self.stats.translations += rest;
            self.clock
                .advance(rest.wrapping_mul(self.cost.tlb_lookup + data));
            return Ok(());
        }
        // Untraced, the first word's translation left its entry in the
        // TLB, so only a tracer comes here.
        for i in 1..=rest {
            self.translate(phys, va.add(i * 8), access)?;
            self.clock.advance(data);
        }
        Ok(())
    }

    /// Writes a naturally-aligned `u64` through the current address space.
    ///
    /// # Errors
    ///
    /// Translation errors as in [`Self::translate`], plus
    /// [`MemError::BadPhysAddr`] for misaligned addresses.
    #[inline]
    pub fn write_u64(
        &mut self,
        phys: &mut PhysMem,
        va: VirtAddr,
        value: u64,
    ) -> Result<(), MemError> {
        let pa = self.translate(phys, va, Access::Write)?;
        self.clock.advance(self.data_cycles(phys, pa, true));
        phys.write_u64(pa, value)
    }

    /// Reads `buf.len()` bytes starting at `va`, page by page.
    ///
    /// # Errors
    ///
    /// Translation errors as in [`Self::translate`].
    pub fn read_bytes(
        &mut self,
        phys: &mut PhysMem,
        va: VirtAddr,
        buf: &mut [u8],
    ) -> Result<(), MemError> {
        let mut done = 0usize;
        while done < buf.len() {
            let cur = va.add(done as u64);
            let pa = self.translate(phys, cur, Access::Read)?;
            let in_page = (PAGE_SIZE - cur.page_offset()) as usize;
            let chunk = in_page.min(buf.len() - done);
            let lines = 1 + chunk as u64 / 64;
            self.clock
                .advance(self.data_cycles(phys, pa, false) * lines);
            phys.read_bytes(pa, &mut buf[done..done + chunk])?;
            done += chunk;
        }
        Ok(())
    }

    /// Writes `buf` starting at `va`, page by page.
    ///
    /// # Errors
    ///
    /// Translation errors as in [`Self::translate`].
    pub fn write_bytes(
        &mut self,
        phys: &mut PhysMem,
        va: VirtAddr,
        buf: &[u8],
    ) -> Result<(), MemError> {
        let mut done = 0usize;
        while done < buf.len() {
            let cur = va.add(done as u64);
            let pa = self.translate(phys, cur, Access::Write)?;
            let in_page = (PAGE_SIZE - cur.page_offset()) as usize;
            let chunk = in_page.min(buf.len() - done);
            let lines = 1 + chunk as u64 / 64;
            self.clock.advance(self.data_cycles(phys, pa, true) * lines);
            phys.write_bytes(pa, &buf[done..done + chunk])?;
            done += chunk;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PageSize;
    use crate::paging;

    fn setup() -> (PhysMem, Mmu, Pfn) {
        let mut phys = PhysMem::new(1 << 22);
        let root = paging::new_root(&mut phys).unwrap();
        let mmu = Mmu::new(64, 4, CostModel::default(), CycleClock::new());
        (phys, mmu, root)
    }

    fn map_page(phys: &mut PhysMem, root: Pfn, va: u64, writable: bool) -> PhysAddr {
        let frame = phys.alloc_frame().unwrap();
        let mut flags = PteFlags::USER;
        if writable {
            flags |= PteFlags::WRITABLE;
        }
        paging::map(
            phys,
            root,
            VirtAddr::new(va),
            frame.base(),
            PageSize::Size4K,
            flags,
        )
        .unwrap();
        frame.base()
    }

    #[test]
    fn translate_needs_cr3() {
        let (mut phys, mut mmu, _root) = setup();
        assert_eq!(
            mmu.translate(&mut phys, VirtAddr::new(0x1000), Access::Read),
            Err(MemError::NoAddressSpace)
        );
    }

    #[test]
    fn miss_then_hit_charges_different_costs() {
        let (mut phys, mut mmu, root) = setup();
        map_page(&mut phys, root, 0x1000, true);
        mmu.load_cr3(root, Asid::UNTAGGED);
        let t0 = mmu.clock().now();
        mmu.translate(&mut phys, VirtAddr::new(0x1000), Access::Read)
            .unwrap();
        let miss_cost = mmu.clock().since(t0);
        let t1 = mmu.clock().now();
        mmu.translate(&mut phys, VirtAddr::new(0x1000), Access::Read)
            .unwrap();
        let hit_cost = mmu.clock().since(t1);
        let c = CostModel::default();
        assert_eq!(miss_cost, c.tlb_lookup + c.tlb_walk);
        assert_eq!(hit_cost, c.tlb_lookup);
        assert_eq!(mmu.stats().walks, 1);
        assert_eq!(mmu.tlb_stats().hits, 1);
    }

    #[test]
    fn untagged_switch_flushes_tagged_switch_retains() {
        let (mut phys, mut mmu, root) = setup();
        map_page(&mut phys, root, 0x1000, true);
        let other = paging::new_root(&mut phys).unwrap();

        // Untagged: reload flushes; retranslation walks again.
        mmu.load_cr3(root, Asid::UNTAGGED);
        mmu.translate(&mut phys, VirtAddr::new(0x1000), Access::Read)
            .unwrap();
        mmu.load_cr3(other, Asid::UNTAGGED);
        mmu.load_cr3(root, Asid::UNTAGGED);
        mmu.translate(&mut phys, VirtAddr::new(0x1000), Access::Read)
            .unwrap();
        assert_eq!(mmu.stats().walks, 2);

        // Tagged: entries survive the round trip.
        let mut mmu2 = Mmu::new(64, 4, CostModel::default(), CycleClock::new());
        mmu2.set_tagging(true);
        mmu2.load_cr3(root, Asid(1));
        mmu2.translate(&mut phys, VirtAddr::new(0x1000), Access::Read)
            .unwrap();
        mmu2.load_cr3(other, Asid(2));
        mmu2.load_cr3(root, Asid(1));
        mmu2.translate(&mut phys, VirtAddr::new(0x1000), Access::Read)
            .unwrap();
        assert_eq!(mmu2.stats().walks, 1, "tagged entries survive switches");
    }

    #[test]
    fn asid_zero_always_flushes_even_with_tagging() {
        let (mut phys, mut mmu, root) = setup();
        map_page(&mut phys, root, 0x1000, true);
        mmu.set_tagging(true);
        mmu.load_cr3(root, Asid::UNTAGGED);
        mmu.translate(&mut phys, VirtAddr::new(0x1000), Access::Read)
            .unwrap();
        mmu.load_cr3(root, Asid::UNTAGGED);
        mmu.translate(&mut phys, VirtAddr::new(0x1000), Access::Read)
            .unwrap();
        assert_eq!(
            mmu.stats().walks,
            2,
            "reserved tag zero flushes per the paper"
        );
    }

    #[test]
    fn cr3_cost_depends_on_tagging() {
        let (_phys, mut mmu, root) = setup();
        let c = CostModel::default();
        let t0 = mmu.clock().now();
        mmu.load_cr3(root, Asid::UNTAGGED);
        assert_eq!(mmu.clock().since(t0), c.cr3_load_untagged);
        mmu.set_tagging(true);
        let t1 = mmu.clock().now();
        mmu.load_cr3(root, Asid(3));
        assert_eq!(mmu.clock().since(t1), c.cr3_load_tagged);
    }

    #[test]
    fn protection_faults() {
        let (mut phys, mut mmu, root) = setup();
        map_page(&mut phys, root, 0x1000, false); // read-only
        mmu.load_cr3(root, Asid::UNTAGGED);
        assert!(mmu.read_u64(&mut phys, VirtAddr::new(0x1000)).is_ok());
        assert_eq!(
            mmu.write_u64(&mut phys, VirtAddr::new(0x1000), 1),
            Err(MemError::ProtectionFault {
                va: VirtAddr::new(0x1000),
                access: Access::Write
            })
        );
        // Also via the TLB-cached path.
        assert_eq!(
            mmu.write_u64(&mut phys, VirtAddr::new(0x1000), 1),
            Err(MemError::ProtectionFault {
                va: VirtAddr::new(0x1000),
                access: Access::Write
            })
        );
        assert_eq!(mmu.stats().faults, 2);
    }

    #[test]
    fn page_fault_on_unmapped() {
        let (mut phys, mut mmu, root) = setup();
        mmu.load_cr3(root, Asid::UNTAGGED);
        assert_eq!(
            mmu.read_u64(&mut phys, VirtAddr::new(0x9000)),
            Err(MemError::PageFault {
                va: VirtAddr::new(0x9000),
                access: Access::Read
            })
        );
    }

    #[test]
    fn data_round_trip_through_translation() {
        let (mut phys, mut mmu, root) = setup();
        let pa = map_page(&mut phys, root, 0x1000, true);
        mmu.load_cr3(root, Asid::UNTAGGED);
        mmu.write_u64(&mut phys, VirtAddr::new(0x1010), 0xfeed)
            .unwrap();
        assert_eq!(phys.read_u64(pa.add(0x10)).unwrap(), 0xfeed);
        assert_eq!(
            mmu.read_u64(&mut phys, VirtAddr::new(0x1010)).unwrap(),
            0xfeed
        );
    }

    #[test]
    fn byte_io_spans_pages() {
        let (mut phys, mut mmu, root) = setup();
        map_page(&mut phys, root, 0x1000, true);
        map_page(&mut phys, root, 0x2000, true);
        mmu.load_cr3(root, Asid::UNTAGGED);
        let data: Vec<u8> = (0..200u8).collect();
        mmu.write_bytes(&mut phys, VirtAddr::new(0x2000 - 100), &data)
            .unwrap();
        let mut out = vec![0u8; 200];
        mmu.read_bytes(&mut phys, VirtAddr::new(0x2000 - 100), &mut out)
            .unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn invlpg_forces_rewalk() {
        let (mut phys, mut mmu, root) = setup();
        map_page(&mut phys, root, 0x1000, true);
        mmu.load_cr3(root, Asid::UNTAGGED);
        mmu.touch(&mut phys, VirtAddr::new(0x1000)).unwrap();
        mmu.invlpg(VirtAddr::new(0x1000));
        mmu.touch(&mut phys, VirtAddr::new(0x1000)).unwrap();
        assert_eq!(mmu.stats().walks, 2);
    }

    #[test]
    fn global_mappings_survive_untagged_switch() {
        let (mut phys, mut mmu, root) = setup();
        let frame = phys.alloc_frame().unwrap();
        paging::map(
            &mut phys,
            root,
            VirtAddr::new(0x5000),
            frame.base(),
            PageSize::Size4K,
            PteFlags::USER | PteFlags::GLOBAL,
        )
        .unwrap();
        mmu.load_cr3(root, Asid::UNTAGGED);
        mmu.touch(&mut phys, VirtAddr::new(0x5000)).unwrap();
        mmu.load_cr3(root, Asid::UNTAGGED); // flushes non-global only
        mmu.touch(&mut phys, VirtAddr::new(0x5000)).unwrap();
        assert_eq!(mmu.stats().walks, 1, "global entry survived the flush");
    }

    #[test]
    fn superpage_walk_charges_fewer_levels_and_offsets_within_page() {
        let mut phys = PhysMem::new(16 << 20);
        let root = paging::new_root(&mut phys).unwrap();
        let base = PhysAddr::new(0x40_0000);
        paging::map(
            &mut phys,
            root,
            VirtAddr::new(0x20_0000),
            base,
            PageSize::Size2M,
            PteFlags::USER | PteFlags::WRITABLE,
        )
        .unwrap();
        let mut mmu = Mmu::new(64, 4, CostModel::default(), CycleClock::new());
        mmu.load_cr3(root, Asid::UNTAGGED);
        let c = CostModel::default();

        // Miss: a 2 MiB leaf ends the walk at level 3 of 4.
        let t0 = mmu.clock().now();
        let pa = mmu
            .translate(&mut phys, VirtAddr::new(0x20_0000 + 0x12345), Access::Read)
            .unwrap();
        assert_eq!(mmu.clock().since(t0), c.tlb_lookup + c.tlb_walk * 3 / 4);
        assert_eq!(pa, base.add(0x12345), "interior offset maps linearly");

        // Hit anywhere inside the superpage: one TLB entry covers it all.
        let t1 = mmu.clock().now();
        let pa2 = mmu
            .translate(
                &mut phys,
                VirtAddr::new(0x20_0000 + 0x1F_F000),
                Access::Read,
            )
            .unwrap();
        assert_eq!(mmu.clock().since(t1), c.tlb_lookup);
        assert_eq!(pa2, base.add(0x1F_F000));
        assert_eq!(mmu.stats().walks, 1);
        assert_eq!(mmu.tlb_stats().hits, 1);
        assert_eq!(mmu.tlb_mut().reach_bytes(), PageSize::Size2M.bytes());
    }

    #[test]
    fn host_walk_cache_is_invisible_to_simulated_state() {
        let run = |cache: bool| {
            let (mut phys, mut mmu, root) = setup();
            map_page(&mut phys, root, 0x1000, true);
            map_page(&mut phys, root, 0x2000, false);
            mmu.set_host_walk_cache(cache);
            mmu.load_cr3(root, Asid::UNTAGGED);
            for _ in 0..3 {
                mmu.touch(&mut phys, VirtAddr::new(0x1000)).unwrap();
                mmu.touch(&mut phys, VirtAddr::new(0x2000)).unwrap();
                mmu.invlpg(VirtAddr::new(0x1000));
            }
            (mmu.clock().now(), mmu.stats(), mmu.tlb_stats())
        };
        let (cycles_on, stats_on, tlb_on) = run(true);
        let (cycles_off, stats_off, tlb_off) = run(false);
        assert_eq!(cycles_on, cycles_off);
        assert_eq!(stats_on, stats_off);
        assert_eq!((tlb_on.hits, tlb_on.misses), (tlb_off.hits, tlb_off.misses));
    }

    #[test]
    fn host_walk_cache_invalidated_by_unmap_via_invlpg() {
        let (mut phys, mut mmu, root) = setup();
        let pa = map_page(&mut phys, root, 0x3000, true);
        mmu.load_cr3(root, Asid::UNTAGGED);
        assert_eq!(
            mmu.translate(&mut phys, VirtAddr::new(0x3000), Access::Read)
                .unwrap(),
            pa
        );
        // Remap the page to a new frame, as the kernel would on
        // copy-on-write: unmap, invlpg, map elsewhere.
        paging::unmap(&mut phys, root, VirtAddr::new(0x3000)).unwrap();
        mmu.invlpg(VirtAddr::new(0x3000));
        let new_pa = map_page(&mut phys, root, 0x3000, true);
        assert_ne!(new_pa, pa);
        assert_eq!(
            mmu.translate(&mut phys, VirtAddr::new(0x3000), Access::Read)
                .unwrap(),
            new_pa,
            "stale host-cache entry must not survive invlpg"
        );
    }

    #[test]
    fn host_walk_cache_is_keyed_per_root_across_cr3_loads() {
        // The same VA maps to different frames in two address spaces;
        // cached walks for one root must never answer for the other,
        // and entries survive switching away and back.
        let (mut phys, mut mmu, root_a) = setup();
        let root_b = paging::new_root(&mut phys).unwrap();
        let pa_a = map_page(&mut phys, root_a, 0x5000, true);
        let frame_b = phys.alloc_frame().unwrap();
        paging::map(
            &mut phys,
            root_b,
            VirtAddr::new(0x5000),
            frame_b.base(),
            PageSize::Size4K,
            PteFlags::USER | PteFlags::WRITABLE,
        )
        .unwrap();

        mmu.load_cr3(root_a, Asid::UNTAGGED);
        assert_eq!(
            mmu.translate(&mut phys, VirtAddr::new(0x5000), Access::Read)
                .unwrap(),
            pa_a
        );
        mmu.load_cr3(root_b, Asid::UNTAGGED);
        assert_eq!(
            mmu.translate(&mut phys, VirtAddr::new(0x5000), Access::Read)
                .unwrap(),
            frame_b.base(),
            "root B must not see root A's cached walk"
        );
        mmu.load_cr3(root_a, Asid::UNTAGGED);
        assert_eq!(
            mmu.translate(&mut phys, VirtAddr::new(0x5000), Access::Read)
                .unwrap(),
            pa_a,
            "root A's entry survives the round trip"
        );
    }

    #[test]
    fn host_walk_cache_flush_guards_root_frame_reuse() {
        let (mut phys, mut mmu, root) = setup();
        let pa = map_page(&mut phys, root, 0x7000, true);
        mmu.load_cr3(root, Asid::UNTAGGED);
        assert_eq!(
            mmu.translate(&mut phys, VirtAddr::new(0x7000), Access::Read)
                .unwrap(),
            pa
        );
        // Free the space's tables and build a new space whose root lands
        // on the recycled frame; the explicit flush (which every
        // table-freeing path must issue) prevents resurrection.
        paging::free_tables(&mut phys, root, &[]);
        mmu.flush_host_walk_cache();
        let root2 = paging::new_root(&mut phys).unwrap();
        assert_eq!(root2, root, "test premise: the root frame is recycled");
        mmu.load_cr3(root2, Asid::UNTAGGED);
        assert!(
            mmu.translate(&mut phys, VirtAddr::new(0x7000), Access::Read)
                .is_err(),
            "freed space's walk must not resurface under the reused root"
        );
    }

    #[test]
    fn host_walk_cache_snapshot_sees_maps_into_live_leaf_table() {
        // A Leaf snapshot memoizes the whole 4 KiB leaf table under one
        // (root, 2 MiB) key. Mapping a *new* page into that same table
        // bumps the table generation, so the stale snapshot must not
        // keep answering — even with no invlpg/flush in between.
        let (mut phys, mut mmu, root) = setup();
        let pa_a = map_page(&mut phys, root, 0x10_0000, true);
        mmu.load_cr3(root, Asid::UNTAGGED);
        // First translate walks and snapshots the leaf table; second
        // answers from the snapshot.
        for _ in 0..2 {
            assert_eq!(
                mmu.translate(&mut phys, VirtAddr::new(0x10_0000), Access::Read)
                    .unwrap(),
                pa_a
            );
        }
        // Neighbour page, same leaf table: the snapshot (taken before
        // this map) has an absent PTE here, so it must fault...
        assert!(
            mmu.translate(&mut phys, VirtAddr::new(0x10_1000), Access::Read)
                .is_err(),
            "unmapped neighbour must fault exactly like a live walk"
        );
        let pa_b = map_page(&mut phys, root, 0x10_1000, true);
        // ...and the map's generation bump must invalidate it, with no
        // explicit flush.
        assert_eq!(
            mmu.translate(&mut phys, VirtAddr::new(0x10_1000), Access::Read)
                .unwrap(),
            pa_b,
            "generation bump must invalidate the stale leaf snapshot"
        );
        // A still-unmapped slot in the re-snapshotted table faults.
        assert!(mmu
            .translate(&mut phys, VirtAddr::new(0x10_2000), Access::Read)
            .is_err());
    }

    #[test]
    fn segmap_backend_translates_by_bounds_check_without_tlb() {
        let (mut phys, mut mmu, root) = setup();
        mmu.set_backend(Backend::seg_map());
        let mut map = |va: u64, flags: PteFlags| {
            let frame = phys.alloc_frame().unwrap();
            paging::map(
                &mut phys,
                root,
                VirtAddr::new(va),
                frame.base(),
                PageSize::Size4K,
                flags,
            )
            .unwrap();
            frame.base()
        };
        let pa = map(0x1000, PteFlags::USER | PteFlags::WRITABLE);
        map(0x2000, PteFlags::USER); // read-only
        mmu.load_cr3(root, Asid::UNTAGGED);
        let c = CostModel::default();
        let t0 = mmu.clock().now();
        let cr3_cost = c.cr3_load(false);
        assert_eq!(t0, cr3_cost, "no-VM cr3 load charges the untagged cost");

        for i in 0..4u64 {
            let t = mmu.clock().now();
            assert_eq!(
                mmu.translate(&mut phys, VirtAddr::new(0x1000 + i * 8), Access::Read)
                    .unwrap(),
                pa.add(i * 8)
            );
            assert_eq!(mmu.clock().since(t), c.segbound_check);
        }
        assert_eq!(mmu.stats().walks, 0, "no page walks in no-VM mode");
        assert_eq!(mmu.tlb_stats().hits + mmu.tlb_stats().misses, 0);

        // Out of every segment: a fault, charged the same bounds check.
        assert_eq!(
            mmu.translate(&mut phys, VirtAddr::new(0x9000), Access::Read),
            Err(MemError::PageFault {
                va: VirtAddr::new(0x9000),
                access: Access::Read,
            })
        );
        assert_eq!(mmu.stats().faults, 1);

        // Write to a read-only segment: protection fault.
        assert_eq!(
            mmu.translate(&mut phys, VirtAddr::new(0x2000), Access::Write),
            Err(MemError::ProtectionFault {
                va: VirtAddr::new(0x2000),
                access: Access::Write,
            })
        );

        // A 2 MiB mapping translates linearly across its whole extent,
        // still one bounds check per access and no walk.
        let big = phys
            .alloc_contiguous(crate::phys::Tier::Dram, 512, 512)
            .unwrap();
        paging::map(
            &mut phys,
            root,
            VirtAddr::new(0x20_0000),
            big.base(),
            PageSize::Size2M,
            PteFlags::USER,
        )
        .unwrap();
        for off in [0, 0xabcd, (1 << 21) - 8] {
            let t = mmu.clock().now();
            assert_eq!(
                mmu.translate(&mut phys, VirtAddr::new(0x20_0000 + off), Access::Read),
                Ok(big.base().add(off))
            );
            assert_eq!(mmu.clock().since(t), c.segbound_check);
        }
        assert_eq!(mmu.stats().walks, 0);
    }

    #[test]
    fn segmap_cr3_load_skips_tlb_flush_accounting() {
        let (mut phys, mut mmu, root) = setup();
        let other = paging::new_root(&mut phys).unwrap();
        mmu.set_backend(Backend::seg_map());
        mmu.set_tagging(true);
        mmu.load_cr3(root, Asid::UNTAGGED);
        mmu.load_cr3(other, Asid(5));
        let c = CostModel::default();
        assert_eq!(
            mmu.clock().now(),
            2 * c.cr3_load(false),
            "no-VM switches never pay the tagged-reload premium"
        );
        assert_eq!(mmu.stats().cr3_loads, 2);
        assert_eq!(mmu.tlb_stats().flushes, 0, "no TLB to flush");
    }

    /// One of two identical machines: one reads runs, the other the same
    /// words one `read_u64` at a time.
    struct Twin {
        phys: PhysMem,
        mmu: Mmu,
        tracer: Tracer,
    }

    /// 4 KiB pages mapped at `0x1000..=0xc000`, in an 8-entry 2-way TLB
    /// (4 sets, so pages 4 apart share a set).
    const TWIN_PAGES: u64 = 12;

    fn twins(seg_map: bool, traced: bool) -> [Twin; 2] {
        std::array::from_fn(|_| {
            let mut phys = PhysMem::new(1 << 22);
            let root = paging::new_root(&mut phys).unwrap();
            let mut mmu = Mmu::new(8, 2, CostModel::default(), CycleClock::new());
            if seg_map {
                mmu.set_backend(Backend::seg_map());
            }
            for page in 1..=TWIN_PAGES {
                let frame = phys.alloc_frame().unwrap();
                let flags = PteFlags::USER | PteFlags::WRITABLE;
                let va = VirtAddr::new(page * PAGE_SIZE);
                paging::map(&mut phys, root, va, frame.base(), PageSize::Size4K, flags).unwrap();
            }
            let tracer = if traced {
                Tracer::new(1 << 16)
            } else {
                Tracer::disabled()
            };
            mmu.set_tracer(tracer.clone(), 0);
            mmu.load_cr3(root, Asid::UNTAGGED);
            for (va, v) in [(0x1080, 7), (0x2ff8, 9), (0x3000, 5)] {
                mmu.write_u64(&mut phys, VirtAddr::new(va), v).unwrap();
            }
            mmu.flush_tlb();
            Twin { phys, mmu, tracer }
        })
    }

    /// What `read_until_nonzero` must equal: the same stopping rule,
    /// one `read_u64` per word.
    fn per_word(t: &mut Twin, va: u64, max: u64) -> Result<(u64, u64), MemError> {
        let limit = max.min((PAGE_SIZE - va % PAGE_SIZE).div_ceil(8));
        let (mut read, mut word) = (0, 0);
        while word == 0 && read < limit {
            word = t.mmu.read_u64(&mut t.phys, VirtAddr::new(va + read * 8))?;
            read += 1;
        }
        Ok((read, word))
    }

    fn assert_twins_agree(a: &Twin, b: &Twin, what: &str) {
        assert_eq!(a.mmu.clock().now(), b.mmu.clock().now(), "clock, {what}");
        assert_eq!(a.mmu.stats(), b.mmu.stats(), "MmuStats, {what}");
        assert_eq!(a.mmu.tlb_stats(), b.mmu.tlb_stats(), "TlbStats, {what}");
        assert_eq!(a.tracer.events(), b.tracer.events(), "trace, {what}");
    }

    /// Runs the same reads as runs on one twin and word by word on the
    /// other, then cycles every page through the TLB's sets, so each
    /// eviction picks its victim by the stamps the runs left.
    fn check_runs_match_per_word(seg_map: bool, traced: bool) {
        let [mut a, mut b] = twins(seg_map, traced);
        let cases = [
            (0x1000, 64, Ok((17, 7))),  // a TLB miss, stopped by 7
            (0x1008, 4, Ok((4, 0))),    // a hit, stopped by max
            (0x4f80, 100, Ok((16, 0))), // stopped by the page end
            (0x2f00, 100, Ok((32, 9))), // the page's last word
            (0x3000, 10, Ok((1, 5))),   // a nonzero first word
            (0x1000, 0, Ok((0, 0))),
            (
                0x40_0000,
                4,
                Err(MemError::PageFault {
                    va: VirtAddr::new(0x40_0000),
                    access: Access::Read,
                }),
            ),
        ];
        for (va, max, want) in cases {
            let got = a
                .mmu
                .read_until_nonzero(&mut a.phys, VirtAddr::new(va), max);
            assert_eq!(got, want, "run at {va:#x}");
            assert_eq!(got, per_word(&mut b, va, max), "run at {va:#x}");
            assert_twins_agree(&a, &b, &format!("run at {va:#x}"));
        }
        let misaligned = a
            .mmu
            .read_until_nonzero(&mut a.phys, VirtAddr::new(0x1004), 4);
        assert!(matches!(misaligned, Err(MemError::BadPhysAddr(_))));
        assert_eq!(misaligned, per_word(&mut b, 0x1004, 4));
        assert_twins_agree(&a, &b, "a misaligned run");
        for round in 0..3 {
            for page in (1..=TWIN_PAGES).rev() {
                let va = page * PAGE_SIZE + round * 64;
                let got = a.mmu.read_until_nonzero(&mut a.phys, VirtAddr::new(va), 3);
                assert_eq!(got, per_word(&mut b, va, 3));
                assert_twins_agree(&a, &b, &format!("page {page}, round {round}"));
            }
        }
        if !seg_map {
            assert!(a.mmu.tlb_stats().evictions > 0, "the sets overflowed");
        }
    }

    #[test]
    fn read_until_nonzero_matches_per_word_reads() {
        check_runs_match_per_word(false, false);
    }

    #[test]
    fn read_until_nonzero_matches_per_word_reads_traced() {
        check_runs_match_per_word(false, true);
    }

    #[test]
    fn read_until_nonzero_matches_per_word_reads_on_the_segment_map() {
        check_runs_match_per_word(true, false);
        check_runs_match_per_word(true, true);
    }

    /// The words one `write_u64` at a time: what `write_words` must
    /// equal.
    fn per_word_writes(t: &mut Twin, va: u64, words: &[u64]) -> Result<(), MemError> {
        (0u64..).zip(words).try_for_each(|(i, &word)| {
            t.mmu
                .write_u64(&mut t.phys, VirtAddr::new(va + i * 8), word)
        })
    }

    /// Both twins' frames hold the same bytes (the tables and the
    /// mapped pages all sit in the first 64 frames).
    fn assert_same_bytes(a: &mut Twin, b: &mut Twin, what: &str) {
        let mut frames = [
            vec![0; 64 * PAGE_SIZE as usize],
            vec![0; 64 * PAGE_SIZE as usize],
        ];
        for (t, buf) in [a, b].into_iter().zip(&mut frames) {
            t.phys.read_bytes(PhysAddr::new(0), buf).unwrap();
        }
        assert!(frames[0] == frames[1], "bytes, {what}");
    }

    /// `write_words` on one twin, `write_u64` per word on the other, as
    /// `check_runs_match_per_word` does for reads.
    fn check_writes_match_per_word(seg_map: bool, traced: bool) {
        let [mut a, mut b] = twins(seg_map, traced);
        let words: Vec<u64> = (1..=64).map(|w| w * 0x101).collect();
        let fault = |va| {
            Err(MemError::PageFault {
                va: VirtAddr::new(va),
                access: Access::Write,
            })
        };
        let cases = [
            (0x5000, 8, Ok(())),        // a TLB miss
            (0x5040, 64, Ok(())),       // a hit
            (0x5fe0, 4, Ok(())),        // ending at the page end
            (0x5ff0, 4, Ok(())),        // crossing into the next page
            (0xcff8, 3, fault(0xd000)), // faulting on the second page
            (0x7000, 1, Ok(())),
            (0x7000, 0, Ok(())),
            (0x40_0000, 3, fault(0x40_0000)),
        ];
        for (va, n, want) in cases {
            let what = format!("{n} words at {va:#x}");
            let got = a
                .mmu
                .write_words(&mut a.phys, VirtAddr::new(va), &words[..n]);
            assert_eq!(got, want, "{what}");
            assert_eq!(got, per_word_writes(&mut b, va, &words[..n]), "{what}");
            assert_twins_agree(&a, &b, &what);
            assert_same_bytes(&mut a, &mut b, &what);
        }
        let misaligned = a
            .mmu
            .write_words(&mut a.phys, VirtAddr::new(0x1004), &words[..4]);
        assert!(matches!(misaligned, Err(MemError::BadPhysAddr(_))));
        assert_eq!(misaligned, per_word_writes(&mut b, 0x1004, &words[..4]));
        assert_twins_agree(&a, &b, "a misaligned run");
        for round in 0..3 {
            for page in (1..=TWIN_PAGES).rev() {
                let va = page * PAGE_SIZE + round * 64;
                let what = format!("page {page}, round {round}");
                let got = a
                    .mmu
                    .write_words(&mut a.phys, VirtAddr::new(va), &words[..3]);
                assert_eq!(got, per_word_writes(&mut b, va, &words[..3]), "{what}");
                assert_twins_agree(&a, &b, &what);
            }
        }
        assert_same_bytes(&mut a, &mut b, "after the rounds");
        if !seg_map {
            assert!(a.mmu.tlb_stats().evictions > 0, "the sets overflowed");
        }
    }

    #[test]
    fn write_words_matches_per_word_writes() {
        check_writes_match_per_word(false, false);
    }

    #[test]
    fn write_words_matches_per_word_writes_traced() {
        check_writes_match_per_word(false, true);
    }

    #[test]
    fn write_words_matches_per_word_writes_on_the_segment_map() {
        check_writes_match_per_word(true, false);
        check_writes_match_per_word(true, true);
    }

    #[test]
    fn write_words_charges_one_probe_for_the_run() {
        let [mut a, _] = twins(false, false);
        let c = CostModel::default();
        let va = VirtAddr::new(0x1000);
        a.mmu.write_u64(&mut a.phys, va, 1).unwrap();
        let (t0, tlb0) = (a.mmu.clock().now(), a.mmu.tlb_stats());
        a.mmu.write_words(&mut a.phys, va, &[2; 17]).unwrap();
        assert_eq!(a.mmu.clock().since(t0), 17 * (c.tlb_lookup + c.cache_hit));
        let tlb = a.mmu.tlb_stats().delta_since(&tlb0);
        assert_eq!((tlb.hits, tlb.misses), (17, 0));
        assert_eq!(
            a.mmu.read_until_nonzero(&mut a.phys, va.add(128), 1),
            Ok((1, 2))
        );
    }

    #[test]
    fn read_until_nonzero_charges_one_probe_for_the_run() {
        let [mut a, _] = twins(false, false);
        let c = CostModel::default();
        let va = VirtAddr::new(0x1000);
        a.mmu.read_u64(&mut a.phys, va).unwrap();
        let (t0, tlb0) = (a.mmu.clock().now(), a.mmu.tlb_stats());
        assert_eq!(a.mmu.read_until_nonzero(&mut a.phys, va, 64), Ok((17, 7)));
        assert_eq!(a.mmu.clock().since(t0), 17 * (c.tlb_lookup + c.cache_hit));
        let tlb = a.mmu.tlb_stats().delta_since(&tlb0);
        assert_eq!((tlb.hits, tlb.misses), (17, 0));
    }
}
