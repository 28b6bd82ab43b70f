//! Randomized tests over the paging and TLB substrate: arbitrary
//! map/unmap sequences keep the page tables consistent with a shadow
//! model, the MMU (TLB + walker) always agrees with a direct walk, the
//! no-VM backend's segment table always agrees with the tree, and the
//! TLB's masked, size-skipping probe behaves exactly like the plain
//! divide-and-probe-every-size TLB it replaced.
//!
//! Cases are generated from fixed seeds with [`SimRng`], so every run
//! explores the same sequences and any failure replays exactly.

use std::collections::HashMap;

use sjmp_mem::cost::{CostModel, CycleClock};
use sjmp_mem::paging::{self, PteFlags};
use sjmp_mem::{
    Access, Asid, Backend, MemError, Mmu, PageSize, Pfn, PhysAddr, PhysMem, Tlb, VirtAddr, Vpn,
};
use sjmp_sim::SimRng;

#[derive(Debug, Clone)]
enum Op {
    /// Map page `vpage` to frame `fpage` (both small indices).
    Map {
        vpage: u64,
        fpage: u64,
        writable: bool,
    },
    /// Unmap page `vpage`.
    Unmap { vpage: u64 },
    /// Translate (read) page `vpage` through the MMU.
    Read { vpage: u64 },
    /// Translate (write) page `vpage` through the MMU.
    Write { vpage: u64 },
    /// Reload CR3 (flushes the untagged TLB).
    Reload,
    /// Evict page `vpage`, leaving a swap marker.
    ClearLeaf { vpage: u64 },
    /// Share PML4 slot `slot` of one root into another.
    Link { slot: usize },
}

/// One op of the seeded stream; `structural` adds [`Op::ClearLeaf`] and
/// [`Op::Link`] to the five basic kinds.
fn random_op(rng: &mut SimRng, structural: bool) -> Op {
    match rng.gen_range(0..if structural { 7 } else { 5 }) {
        0 => Op::Map {
            vpage: rng.gen_range(0..48),
            fpage: rng.gen_range(0..64),
            writable: rng.gen_bool(0.5),
        },
        1 => Op::Unmap {
            vpage: rng.gen_range(0..48),
        },
        2 => Op::Read {
            vpage: rng.gen_range(0..48),
        },
        3 => Op::Write {
            vpage: rng.gen_range(0..48),
        },
        4 => Op::Reload,
        5 => Op::ClearLeaf {
            vpage: rng.gen_range(0..48),
        },
        _ => Op::Link { slot: rng.index(3) },
    }
}

/// The seeded op stream for `seed`.
fn op_stream(seed: u64, structural: bool) -> Vec<Op> {
    let mut rng = SimRng::seed_from_u64(seed);
    let len = rng.index(159) + 1;
    (0..len).map(|_| random_op(&mut rng, structural)).collect()
}

/// Virtual pages are spread across several PML4/PDPT slots so the walks
/// exercise deep table paths, not just one leaf table.
fn vaddr(vpage: u64) -> VirtAddr {
    let slot = vpage % 3;
    let mid = vpage % 5;
    VirtAddr::new((slot << 39) | (mid << 30) | (vpage << 12))
}

#[test]
fn paging_matches_shadow_model() {
    for seed in 0..48u64 {
        let ops = op_stream(seed, false);

        let mut phys = PhysMem::new(64 << 20);
        let root = paging::new_root(&mut phys).unwrap();
        let data_base = phys.alloc_contiguous(64).unwrap();
        let clock = CycleClock::new();
        let mut mmu = Mmu::new(64, 4, CostModel::default(), clock);
        mmu.load_cr3(root, Asid::UNTAGGED);

        // Shadow: vpage -> (fpage, writable).
        let mut shadow: HashMap<u64, (u64, bool)> = HashMap::new();

        for op in ops {
            match op {
                Op::Map {
                    vpage,
                    fpage,
                    writable,
                } => {
                    let mut flags = PteFlags::USER;
                    if writable {
                        flags |= PteFlags::WRITABLE;
                    }
                    let pa = Pfn(data_base.0 + fpage).base();
                    let res =
                        paging::map(&mut phys, root, vaddr(vpage), pa, PageSize::Size4K, flags);
                    if let std::collections::hash_map::Entry::Vacant(e) = shadow.entry(vpage) {
                        assert!(res.is_ok(), "seed {seed}: map failed: {res:?}");
                        e.insert((fpage, writable));
                    } else {
                        assert!(
                            matches!(res, Err(MemError::AlreadyMapped(_))),
                            "seed {seed}: expected AlreadyMapped, got {res:?}"
                        );
                    }
                }
                Op::Unmap { vpage } => {
                    let res = paging::unmap(&mut phys, root, vaddr(vpage));
                    if shadow.remove(&vpage).is_some() {
                        assert!(res.is_ok(), "seed {seed}: unmap failed: {res:?}");
                        mmu.invlpg(vaddr(vpage));
                    } else {
                        assert!(
                            matches!(res, Err(MemError::PageFault { .. })),
                            "seed {seed}: expected fault, got {res:?}"
                        );
                    }
                }
                Op::Read { vpage } | Op::Write { vpage } => {
                    let access = if matches!(op, Op::Write { .. }) {
                        Access::Write
                    } else {
                        Access::Read
                    };
                    let res = mmu.translate(&mut phys, vaddr(vpage), access);
                    match shadow.get(&vpage) {
                        None => assert!(
                            matches!(res, Err(MemError::PageFault { .. })),
                            "seed {seed}: expected fault, got {res:?}"
                        ),
                        Some(&(fpage, writable)) => {
                            if access == Access::Write && !writable {
                                assert!(
                                    matches!(res, Err(MemError::ProtectionFault { .. })),
                                    "seed {seed}: expected protection fault, got {res:?}"
                                );
                            } else {
                                let pa = res.unwrap();
                                assert_eq!(
                                    pa.pfn().0,
                                    data_base.0 + fpage,
                                    "seed {seed}: wrong frame"
                                );
                            }
                        }
                    }
                }
                Op::Reload => mmu.load_cr3(root, Asid::UNTAGGED),
                Op::ClearLeaf { .. } | Op::Link { .. } => unreachable!("not in the basic stream"),
            }
        }

        // Final sweep: every shadow entry translates; everything else faults.
        for vpage in 0..48u64 {
            let res = paging::walk(&mut phys, root, vaddr(vpage));
            match shadow.get(&vpage) {
                Some(&(fpage, _)) => {
                    let (tr, _) = res.unwrap();
                    assert_eq!(tr.pa.pfn().0, data_base.0 + fpage, "seed {seed}");
                }
                None => assert!(res.is_err(), "seed {seed}"),
            }
        }
    }
}

/// Asserts that the no-VM backend and its MMU translate every page of
/// `root` exactly as a walk of the tree does: same PA and flags, and a
/// fault where the tree has no mapping.
fn assert_shadow_matches_tree(
    seed: u64,
    phys: &mut PhysMem,
    backend: &Backend,
    mmu: &mut Mmu,
    root: Pfn,
) {
    mmu.load_cr3(root, Asid::UNTAGGED);
    for vpage in 0..48u64 {
        let va = vaddr(vpage);
        let walked = paging::walk(phys, root, va).map(|(tr, _)| tr);
        let shadow = backend.translate(phys, root, va).map(|(tr, _)| tr);
        assert_eq!(shadow, walked, "seed {seed}: vpage {vpage} of {root:?}");
        let read = mmu.translate(phys, va, Access::Read);
        let write = mmu.translate(phys, va, Access::Write);
        match walked {
            Ok(tr) => {
                assert_eq!(read, Ok(tr.pa), "seed {seed}: vpage {vpage}");
                if tr.flags.contains(PteFlags::WRITABLE) {
                    assert_eq!(write, Ok(tr.pa), "seed {seed}: vpage {vpage}");
                } else {
                    assert!(
                        matches!(write, Err(MemError::ProtectionFault { .. })),
                        "seed {seed}: vpage {vpage}: {write:?}"
                    );
                }
            }
            Err(_) => {
                assert!(
                    matches!(read, Err(MemError::PageFault { .. })),
                    "seed {seed}: vpage {vpage}: {read:?}"
                );
                assert!(matches!(write, Err(MemError::PageFault { .. })));
            }
        }
    }
}

#[test]
fn segmap_shadow_agrees_with_the_tree() {
    // The stream above plus evictions and subtree links, applied through
    // the no-VM backend to a template root and a root that links its
    // slots. After every op, no-VM translation through an MMU with the
    // host walk cache on must equal a walk of the tree. The MMU never
    // gets an invlpg or flush: the shadow may change only when the tree
    // does, so the table-generation bump alone must keep the cache
    // coherent.
    for seed in 0..48u64 {
        let ops = op_stream(seed, true);
        let mut pick = SimRng::seed_from_u64(seed ^ 0x5e9);

        let mut phys = PhysMem::new(64 << 20);
        let template = paging::new_root(&mut phys).unwrap();
        let attached = paging::new_root(&mut phys).unwrap();
        let data_base = phys.alloc_contiguous(64).unwrap();
        let backend = Backend::seg_map();
        let mut mmu = Mmu::new(64, 4, CostModel::default(), CycleClock::new());
        mmu.set_backend(backend.clone());
        mmu.set_host_walk_cache(true);
        // Pin each template slot's PDPT with a page outside the checked
        // range. Unmapping a slot's last page reaps its PDPT, which would
        // leave a root that links the slot pointing at a freed table.
        for slot in 0..3u64 {
            let va = VirtAddr::new((slot << 39) | (511 << 30));
            let pa = Pfn(data_base.0 + slot).base();
            backend
                .map(
                    &mut phys,
                    template,
                    va,
                    pa,
                    PageSize::Size4K,
                    PteFlags::USER,
                )
                .unwrap();
        }

        for op in ops {
            let root = if pick.gen_bool(0.5) {
                attached
            } else {
                template
            };
            match op {
                Op::Map {
                    vpage,
                    fpage,
                    writable,
                } => {
                    let mut flags = PteFlags::USER;
                    if writable {
                        flags |= PteFlags::WRITABLE;
                    }
                    let pa = Pfn(data_base.0 + fpage).base();
                    let _ = backend.map(&mut phys, root, vaddr(vpage), pa, PageSize::Size4K, flags);
                }
                Op::Unmap { vpage } => {
                    backend
                        .unmap_region(&mut phys, root, vaddr(vpage), 4096)
                        .unwrap();
                }
                Op::ClearLeaf { vpage } => {
                    let _ = backend.clear_leaf(&mut phys, root, vaddr(vpage));
                }
                Op::Link { slot } => {
                    let _ = backend.link_subtree(&mut phys, attached, template, slot);
                }
                Op::Read { .. } | Op::Write { .. } | Op::Reload => {}
            }
            for r in [template, attached] {
                assert_shadow_matches_tree(seed, &mut phys, &backend, &mut mmu, r);
            }
        }
    }
}

#[test]
fn tlb_never_contradicts_the_page_tables() {
    // Accessing pages in an arbitrary order, with periodic flushes,
    // the TLB-served translation must equal a fresh walk every time.
    for seed in 0..24u64 {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x71b);
        let pages: Vec<u64> = (0..rng.index(38) + 2)
            .map(|_| rng.gen_range(0..32))
            .collect();
        let flush_every = rng.index(7) + 1;

        let mut phys = PhysMem::new(16 << 20);
        let root = paging::new_root(&mut phys).unwrap();
        let base = phys.alloc_contiguous(32).unwrap();
        for p in 0..32u64 {
            paging::map(
                &mut phys,
                root,
                VirtAddr::new(0x40_0000 + p * 4096),
                Pfn(base.0 + p).base(),
                PageSize::Size4K,
                PteFlags::USER | PteFlags::WRITABLE,
            )
            .unwrap();
        }
        let mut mmu = Mmu::new(16, 4, CostModel::default(), CycleClock::new());
        mmu.load_cr3(root, Asid::UNTAGGED);
        for (i, &p) in pages.iter().enumerate() {
            let va = VirtAddr::new(0x40_0000 + p * 4096 + (i as u64 % 512) * 8);
            let via_mmu = mmu.translate(&mut phys, va, Access::Read).unwrap();
            let (walked, _) = paging::walk(&mut phys, root, va).unwrap();
            assert_eq!(via_mmu, walked.pa, "seed {seed}");
            if i % flush_every == 0 {
                mmu.flush_tlb();
            }
        }
    }
}

/// The TLB before set masking and per-size resident counts, kept as the
/// reference model: the set index is `vpn % sets` and every lookup and
/// page flush probes all three page sizes.
mod reference {
    use sjmp_mem::paging::PteFlags;
    use sjmp_mem::{Asid, PageSize, PhysAddr, TlbStats, Vpn};

    #[derive(Debug, Clone, Copy, Default)]
    struct TlbEntry {
        valid: bool,
        asid: Asid,
        global: bool,
        vpn: Vpn,
        frame_base: PhysAddr,
        flags: PteFlags,
        size: PageSize,
        stamp: u64,
    }

    const PROBE_SIZES: [PageSize; 3] = [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G];

    #[inline]
    fn size_key(vpn: Vpn, size: PageSize) -> Vpn {
        Vpn(vpn.0 & !(size.base_pages() - 1))
    }

    #[derive(Debug, Clone)]
    pub struct RefTlb {
        entries: Vec<TlbEntry>,
        sets: usize,
        ways: usize,
        tick: u64,
        stats: TlbStats,
    }

    impl RefTlb {
        pub fn new(entries: usize, ways: usize) -> Self {
            assert!(
                ways > 0 && entries > 0 && entries.is_multiple_of(ways),
                "entries must be a multiple of ways"
            );
            RefTlb {
                entries: vec![TlbEntry::default(); entries],
                sets: entries / ways,
                ways,
                tick: 0,
                stats: TlbStats::default(),
            }
        }

        pub fn stats(&self) -> TlbStats {
            self.stats
        }

        #[inline]
        fn set_range(&self, vpn: Vpn) -> std::ops::Range<usize> {
            let set = (vpn.0 as usize) % self.sets;
            let start = set * self.ways;
            start..start + self.ways
        }

        pub fn lookup(&mut self, asid: Asid, vpn: Vpn) -> Option<(PhysAddr, PteFlags, PageSize)> {
            self.tick += 1;
            let tick = self.tick;
            for size in PROBE_SIZES {
                let key = size_key(vpn, size);
                let range = self.set_range(key);
                for e in &mut self.entries[range] {
                    if e.valid && e.size == size && e.vpn == key && (e.global || e.asid == asid) {
                        e.stamp = tick;
                        self.stats.hits += 1;
                        return Some((e.frame_base, e.flags, e.size));
                    }
                }
            }
            self.stats.misses += 1;
            None
        }

        pub fn insert(
            &mut self,
            asid: Asid,
            vpn: Vpn,
            frame_base: PhysAddr,
            flags: PteFlags,
            global: bool,
            size: PageSize,
        ) {
            self.tick += 1;
            let tick = self.tick;
            let key = size_key(vpn, size);
            let frame_base = PhysAddr::new(frame_base.raw() & !(size.bytes() - 1));
            let range = self.set_range(key);
            let set = &mut self.entries[range];
            if let Some(e) = set
                .iter_mut()
                .find(|e| e.valid && e.vpn == key && e.size == size && e.asid == asid)
            {
                e.frame_base = frame_base;
                e.flags = flags;
                e.global = global;
                e.stamp = tick;
                return;
            }
            let victim = if let Some(free) = set.iter_mut().find(|e| !e.valid) {
                free
            } else {
                self.stats.evictions += 1;
                set.iter_mut().min_by_key(|e| e.stamp).expect("ways > 0")
            };
            *victim = TlbEntry {
                valid: true,
                asid,
                global,
                vpn: key,
                frame_base,
                flags,
                size,
                stamp: tick,
            };
            self.stats.insertions += 1;
        }

        pub fn flush_nonglobal(&mut self) {
            self.stats.flushes += 1;
            for e in &mut self.entries {
                if e.valid && !e.global {
                    e.valid = false;
                }
            }
        }

        pub fn flush_asid(&mut self, asid: Asid) {
            self.stats.asid_flushes += 1;
            for e in &mut self.entries {
                if e.valid && e.asid == asid && !e.global {
                    e.valid = false;
                }
            }
        }

        pub fn flush_page(&mut self, vpn: Vpn) {
            for size in PROBE_SIZES {
                let key = size_key(vpn, size);
                let range = self.set_range(key);
                for e in &mut self.entries[range] {
                    if e.valid && e.size == size && e.vpn == key {
                        e.valid = false;
                    }
                }
            }
        }

        pub fn occupancy(&self) -> usize {
            self.entries.iter().filter(|e| e.valid).count()
        }

        pub fn reach_bytes(&self) -> u64 {
            self.entries
                .iter()
                .filter(|e| e.valid)
                .map(|e| e.size.bytes())
                .sum()
        }

        /// Valid entries of `size`, counted from the entry array.
        pub fn recount(&self, size: PageSize) -> usize {
            self.entries
                .iter()
                .filter(|e| e.valid && e.size == size)
                .count()
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum TlbOp {
    Insert {
        asid: Asid,
        vpn: Vpn,
        base: PhysAddr,
        flags: PteFlags,
        global: bool,
        size: PageSize,
    },
    Lookup {
        asid: Asid,
        vpn: Vpn,
    },
    /// Looks the last looked-up `(asid, vpn)` up again.
    Relookup,
    /// Looks the last looked-up page up under the ASID `shift` tags
    /// further on (mod 4), so never under the same one.
    RelookupOtherAsid {
        shift: u16,
    },
    /// `Tlb::repeat_hit` of the last looked-up `(asid, vpn)`: `k`
    /// lookups that all hit, in one step.
    RepeatHit {
        k: u64,
    },
    FlushNonGlobal,
    FlushAsid(Asid),
    FlushPage(Vpn),
}

/// A page number that lands in one of a few 1 GiB and 2 MiB regions, so
/// keys of different sizes share sets and cover each other. The 64-page
/// strides spread 4 KiB keys over the sets of the 128-set geometries,
/// so their valid-slot bitmaps fill more than one word.
fn tlb_vpn(rng: &mut SimRng) -> Vpn {
    let gib = PageSize::Size1G.base_pages();
    let mib = PageSize::Size2M.base_pages();
    Vpn(rng.gen_range(0..3) * gib
        + rng.gen_range(0..4) * mib
        + rng.gen_range(0..4) * 64
        + rng.gen_range(0..24))
}

fn tlb_op(rng: &mut SimRng) -> TlbOp {
    let asid = Asid(rng.gen_range(0..4) as u16);
    match rng.gen_range(0..29) {
        0..=7 => TlbOp::Insert {
            asid,
            vpn: tlb_vpn(rng),
            base: PhysAddr::new(rng.gen_range(0..1 << 20) << 12),
            flags: [
                PteFlags::PRESENT,
                PteFlags::PRESENT | PteFlags::WRITABLE,
                PteFlags::PRESENT | PteFlags::USER,
            ][rng.index(3)],
            global: rng.gen_bool(0.15),
            size: [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G]
                [[0, 0, 0, 0, 1, 1, 2][rng.index(7)]],
        },
        8..=16 => TlbOp::Lookup {
            asid,
            vpn: tlb_vpn(rng),
        },
        // Seven in sixteen lookups repeat the last one, which is what
        // the last-hit memo answers.
        17..=21 => TlbOp::Relookup,
        22..=23 => TlbOp::RelookupOtherAsid {
            shift: rng.gen_range(1..4) as u16,
        },
        24 => TlbOp::FlushNonGlobal,
        25 => TlbOp::FlushAsid(asid),
        26..=27 => TlbOp::RepeatHit {
            k: rng.gen_range(1..64),
        },
        _ => TlbOp::FlushPage(tlb_vpn(rng)),
    }
}

#[test]
fn masked_tlb_matches_the_reference_tlb() {
    for seed in 0..42u64 {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x7eb);
        // The last two are the M1/M2 shape, whose valid-slot bitmaps span
        // several words.
        let (entries, ways) = [
            (4, 4),
            (8, 2),
            (16, 4),
            (64, 4),
            (32, 8),
            (256, 4),
            (512, 4),
        ][seed as usize % 7];
        let mut tlb = Tlb::new(entries, ways);
        let mut reference = reference::RefTlb::new(entries, ways);
        // Every (asid, vpn) ever inserted: the probe set for comparing
        // the two TLBs' whole contents.
        let mut keys: Vec<(Asid, Vpn)> = Vec::new();
        let mut last = (Asid(0), Vpn(0));
        for step in 0..400 {
            let op = tlb_op(&mut rng);
            let at = format!("seed {seed} step {step} {op:?}");
            match op {
                TlbOp::Insert {
                    asid,
                    vpn,
                    base,
                    flags,
                    global,
                    size,
                } => {
                    tlb.insert(asid, vpn, base, flags, global, size);
                    reference.insert(asid, vpn, base, flags, global, size);
                    if !keys.contains(&(asid, vpn)) {
                        keys.push((asid, vpn));
                    }
                }
                TlbOp::Lookup { asid, vpn } => last = (asid, vpn),
                TlbOp::Relookup => {}
                TlbOp::RelookupOtherAsid { shift } => last.0 = Asid((last.0 .0 + shift) % 4),
                TlbOp::RepeatHit { k } => {
                    let (asid, vpn) = last;
                    let hits = reference.clone().lookup(asid, vpn).is_some();
                    assert_eq!(tlb.repeat_hit(asid, vpn, k).is_some(), hits, "{at}");
                    for _ in 0..k * u64::from(hits) {
                        reference.lookup(asid, vpn);
                    }
                }
                TlbOp::FlushNonGlobal => {
                    tlb.flush_nonglobal();
                    reference.flush_nonglobal();
                }
                TlbOp::FlushAsid(asid) => {
                    tlb.flush_asid(asid);
                    reference.flush_asid(asid);
                }
                TlbOp::FlushPage(vpn) => {
                    tlb.flush_page(vpn);
                    reference.flush_page(vpn);
                }
            }
            let looked_up = matches!(
                op,
                TlbOp::Lookup { .. } | TlbOp::Relookup | TlbOp::RelookupOtherAsid { .. }
            );
            if looked_up {
                let (asid, vpn) = last;
                assert_eq!(tlb.lookup(asid, vpn), reference.lookup(asid, vpn), "{at}");
            }
            assert_eq!(tlb.stats(), reference.stats(), "{at}");
            assert_eq!(tlb.occupancy(), reference.occupancy(), "{at}");
            assert_eq!(tlb.reach_bytes(), reference.reach_bytes(), "{at}");
            for size in [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G] {
                assert_eq!(tlb.resident(size), reference.recount(size), "{at} {size}");
            }
            if looked_up {
                continue;
            }
            // Same contents: every key ever inserted resolves alike. The
            // probes run on clones, so they leave the LRU stamps that
            // pick the next victim untouched.
            let (mut t, mut r) = (tlb.clone(), reference.clone());
            for &(asid, vpn) in &keys {
                assert_eq!(
                    t.lookup(asid, vpn),
                    r.lookup(asid, vpn),
                    "{at} probe {vpn:?}"
                );
            }
        }
        assert!(
            tlb.stats().evictions > 0,
            "seed {seed}: the stream must evict"
        );
    }
}
