//! Randomized tests over the paging and TLB substrate: arbitrary
//! map/unmap sequences keep the page tables consistent with a shadow
//! model, the MMU (TLB + walker) always agrees with a direct walk, the
//! MMU's no-VM base+bound translation always agrees with the tree, and the
//! TLB's masked, size-skipping probe behaves exactly like the plain
//! divide-and-probe-every-size TLB it replaced, and a pinned transcript
//! of every MMU word access keeps what a translation returns and
//! charges fixed. The frame allocator is checked against a per-frame
//! bitmap.
//!
//! Cases are generated from fixed seeds with [`SimRng`], so every run
//! explores the same sequences and any failure replays exactly.

use std::collections::HashMap;

use sjmp_mem::cost::{CostModel, CycleClock};
use sjmp_mem::paging::{self, PteFlags};
use sjmp_mem::{
    Access, Asid, Backend, MemError, Mmu, PageSize, Pfn, PhysAddr, PhysMem, Tier, Tlb, VirtAddr,
    Vpn,
};
use sjmp_sim::SimRng;
use sjmp_trace::Tracer;

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
        let data_base = phys.alloc_contiguous(Tier::Dram, 64, 1).unwrap();
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

/// Asserts that a no-VM MMU translates every page of `root` exactly as
/// a walk of the tree does: same PA, a protection fault where the leaf
/// is read-only, and a page fault where the tree has no mapping.
fn assert_segbound_matches_tree(seed: u64, phys: &mut PhysMem, mmu: &mut Mmu, root: Pfn) {
    mmu.load_cr3(root, Asid::UNTAGGED);
    for vpage in 0..48u64 {
        let va = vaddr(vpage);
        let walked = paging::walk(phys, root, va).map(|(tr, _)| tr);
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
fn segbound_translation_agrees_with_the_tree() {
    // The stream above plus evictions and subtree links, applied through
    // `paging` to a template root and a root that links its slots. After
    // every op, no-VM translation through an MMU with the host walk
    // cache on must equal a walk of the tree. The MMU never gets an
    // invlpg or flush, so the table-generation bump alone must keep the
    // cache coherent.
    for seed in 0..48u64 {
        let ops = op_stream(seed, true);
        let mut pick = SimRng::seed_from_u64(seed ^ 0x5e9);

        let mut phys = PhysMem::new(64 << 20);
        let template = paging::new_root(&mut phys).unwrap();
        let attached = paging::new_root(&mut phys).unwrap();
        let data_base = phys.alloc_contiguous(Tier::Dram, 64, 1).unwrap();
        let mut mmu = Mmu::new(64, 4, CostModel::default(), CycleClock::new());
        mmu.set_backend(Backend::seg_map());
        mmu.set_host_walk_cache(true);
        // Pin each template slot's PDPT with a page outside the checked
        // range. Unmapping a slot's last page reaps its PDPT, which would
        // leave a root that links the slot pointing at a freed table.
        for slot in 0..3u64 {
            let va = VirtAddr::new((slot << 39) | (511 << 30));
            let pa = Pfn(data_base.0 + slot).base();
            paging::map(
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
                    let _ = paging::map(&mut phys, root, vaddr(vpage), pa, PageSize::Size4K, flags);
                }
                Op::Unmap { vpage } => {
                    paging::unmap_region(&mut phys, root, vaddr(vpage), 4096).unwrap();
                }
                Op::ClearLeaf { vpage } => {
                    let _ = paging::clear_leaf(&mut phys, root, vaddr(vpage));
                }
                Op::Link { slot } => {
                    let _ = paging::link_subtree(&mut phys, attached, template, slot);
                }
                Op::Read { .. } | Op::Write { .. } | Op::Reload => {}
            }
            for r in [template, attached] {
                assert_segbound_matches_tree(seed, &mut phys, &mut mmu, r);
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
        let base = phys.alloc_contiguous(Tier::Dram, 32, 1).unwrap();
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
        // (512, 4) is the M1/M2 shape and (1024, 8) the M3 one; the last
        // three have valid-slot bitmaps that span several words.
        let (entries, ways) = [
            (4, 4),
            (8, 2),
            (16, 4),
            (64, 4),
            (32, 8),
            (256, 4),
            (512, 4),
            (1024, 8),
        ][seed as usize % 8];
        let mut tlb = Tlb::new(entries, ways);
        let mut reference = reference::RefTlb::new(entries, ways);
        // Every (asid, vpn) ever inserted: the probe set for comparing
        // the two TLBs' whole contents.
        let mut keys: Vec<(Asid, Vpn)> = Vec::new();
        let mut last = (Asid(0), Vpn(0));
        // A bigger TLB takes a longer stream to fill a set and evict.
        let steps = (2 * entries).max(400);
        for step in 0..steps {
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

/// One word-path operation of [`word_path_ops`].
#[derive(Debug, Clone, Copy)]
enum WordOp {
    Read {
        page: u64,
        word: u64,
    },
    Write {
        page: u64,
        word: u64,
        value: u64,
    },
    ReadBytes {
        page: u64,
        off: u64,
        len: usize,
    },
    WriteBytes {
        page: u64,
        off: u64,
        len: usize,
        byte: u8,
    },
    ReadUntilNonzero {
        page: u64,
        word: u64,
        max: u64,
    },
    Touch {
        page: u64,
    },
    /// `root` 0 runs under tag 0 or 1, root 1 under tag 0 or 2.
    LoadCr3 {
        root: usize,
        tagged: bool,
    },
    Invlpg {
        page: u64,
    },
    Flush,
}

/// Pages of the word-path machine: `0..WORD_PAGES` at [`word_va`], plus
/// page [`SUPERPAGE`], one 2 MiB mapping.
const WORD_PAGES: u64 = 14;
const SUPERPAGE: u64 = WORD_PAGES;

fn word_va(page: u64, offset: u64) -> VirtAddr {
    if page == SUPERPAGE {
        VirtAddr::new(0x40_0000 + offset)
    } else {
        VirtAddr::new(0x10_0000 + page * 4096 + offset)
    }
}

/// One machine running the word-path transcript: two roots over the
/// same virtual pages in an 8-entry 2-way TLB (4 sets, so pages 4 apart
/// share a set) with tagging on. Under root 0, pages 3 and 7 are
/// read-only and pages 12 and 13 unmapped; under root 1, every page but
/// 13 is mapped writable, each to its own frame.
fn word_machine(traced: bool) -> (PhysMem, Mmu, [Pfn; 2], Tracer) {
    let mut phys = PhysMem::new(16 << 20);
    let roots = [
        paging::new_root(&mut phys).unwrap(),
        paging::new_root(&mut phys).unwrap(),
    ];
    for (r, &root) in roots.iter().enumerate() {
        for page in 0..WORD_PAGES {
            if page == 13 || (r == 0 && page == 12) {
                continue;
            }
            let mut flags = PteFlags::USER;
            if r == 1 || (page != 3 && page != 7) {
                flags |= PteFlags::WRITABLE;
            }
            let frame = phys.alloc_frame().unwrap();
            paging::map(
                &mut phys,
                root,
                word_va(page, 0),
                frame.base(),
                PageSize::Size4K,
                flags,
            )
            .unwrap();
        }
    }
    paging::map(
        &mut phys,
        roots[0],
        word_va(SUPERPAGE, 0),
        PhysAddr::new(0x80_0000),
        PageSize::Size2M,
        PteFlags::USER | PteFlags::WRITABLE,
    )
    .unwrap();
    let mut mmu = Mmu::new(8, 2, CostModel::default(), CycleClock::new());
    mmu.set_tagging(true);
    let tracer = if traced {
        Tracer::new(1 << 12)
    } else {
        Tracer::disabled()
    };
    mmu.set_tracer(tracer.clone(), 0);
    (phys, mmu, roots, tracer)
}

/// A hand-placed prologue that reaches every case of the TLB-hit path,
/// then `n` seeded ops.
fn word_path_ops(seed: u64, n: usize) -> Vec<WordOp> {
    use WordOp::*;
    let read = |page, word| Read { page, word };
    let write = |page, word, value| Write { page, word, value };
    let cr3 = |root, tagged| LoadCr3 { root, tagged };
    let mut ops = vec![
        cr3(0, false),
        // A miss walks and inserts; the insert clears the last-hit memo,
        // so the next lookup of the page probes its set and sets the memo.
        read(0, 0),
        read(0, 1),
        read(0, 2), // memo hit
        read(1, 0),
        write(0, 2, 9), // set-probe hit
        // Read-only page 3: a protection fault on a memo hit, then on a
        // set-probe hit.
        read(3, 0),
        read(3, 1),
        write(3, 0, 1),
        read(1, 0),
        write(3, 1, 1),
        read(12, 0), // page fault
        // Pages 0, 4 and 8 share a set: page 0 is evicted.
        Touch { page: 4 },
        Touch { page: 8 },
        read(0, 2),
        read(SUPERPAGE, 300), // a 2 MiB walk
        read(SUPERPAGE, 301),
        read(SUPERPAGE, 302),
        cr3(1, true),
        read(12, 0),
        cr3(0, true),
        read(0, 2),
    ];
    let mut rng = SimRng::seed_from_u64(seed);
    let page = |rng: &mut SimRng| rng.gen_range(0..WORD_PAGES + 1);
    for _ in 0..n {
        let op = match rng.gen_range(0..20) {
            0..=5 => Read {
                page: page(&mut rng),
                word: rng.gen_range(0..512),
            },
            6..=9 => Write {
                page: page(&mut rng),
                word: rng.gen_range(0..512),
                value: rng.gen_range(0..4),
            },
            10 => ReadBytes {
                page: page(&mut rng),
                off: rng.gen_range(0..4096),
                len: rng.index(600),
            },
            11 => WriteBytes {
                page: page(&mut rng),
                off: rng.gen_range(0..4096),
                len: rng.index(600),
                byte: rng.gen_range(0..3) as u8,
            },
            12..=13 => ReadUntilNonzero {
                page: page(&mut rng),
                word: rng.gen_range(0..512),
                max: rng.gen_range(0..40),
            },
            14 => Touch {
                page: page(&mut rng),
            },
            15..=16 => LoadCr3 {
                root: rng.index(2),
                tagged: rng.gen_bool(0.5),
            },
            17..=18 => Invlpg {
                page: page(&mut rng),
            },
            _ => Flush,
        };
        ops.push(op);
    }
    ops
}

/// Runs `op` and renders its result: the value read, or the error.
fn run_word_op(phys: &mut PhysMem, mmu: &mut Mmu, roots: &[Pfn; 2], op: WordOp) -> String {
    use WordOp::*;
    match op {
        Read { page, word } => format!("{:?}", mmu.read_u64(phys, word_va(page, word * 8))),
        Write { page, word, value } => {
            format!("{:?}", mmu.write_u64(phys, word_va(page, word * 8), value))
        }
        ReadBytes { page, off, len } => {
            let mut buf = vec![0u8; len];
            let r = mmu.read_bytes(phys, word_va(page, off), &mut buf);
            let sum: u64 = buf.iter().map(|&b| u64::from(b)).sum();
            format!("{r:?} sum {sum}")
        }
        WriteBytes {
            page,
            off,
            len,
            byte,
        } => format!(
            "{:?}",
            mmu.write_bytes(phys, word_va(page, off), &vec![byte; len])
        ),
        ReadUntilNonzero { page, word, max } => format!(
            "{:?}",
            mmu.read_until_nonzero(phys, word_va(page, word * 8), max)
        ),
        Touch { page } => format!("{:?}", mmu.touch(phys, word_va(page, 0))),
        LoadCr3 { root, tagged } => {
            let asid = if tagged {
                Asid(root as u16 + 1)
            } else {
                Asid(0)
            };
            mmu.load_cr3(roots[root], asid);
            String::new()
        }
        Invlpg { page } => {
            mmu.invlpg(word_va(page, 0));
            String::new()
        }
        Flush => {
            mmu.flush_tlb();
            String::new()
        }
    }
}

/// FNV-1a, folding one transcript line into the digest.
fn fold(digest: u64, line: &str) -> u64 {
    line.bytes().chain([b'\n']).fold(digest, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Every word access the MMU offers, over memo hits, set-probe hits,
/// LRU evictions, superpages, page faults, protection faults on memo
/// and probe hits, tagged and untagged CR3 loads, `invlpg` and flushes.
/// After every op the transcript records the result, the clock,
/// `MmuStats` and `TlbStats`; its digest and final line are pinned, so
/// any change to what a translation returns or charges fails here. A
/// twin machine with a tracer installed must agree after every op.
/// `--nocapture` prints the transcript, to diff two builds.
#[test]
fn word_path_transcript_is_pinned() {
    let pinned: [(u64, u64, &str); 3] = [
        (
            1,
            0xa190_548b_f417_ce5f,
            "421 Invlpg { page: 11 } ->  | clock 32456 | cr3 40 tr 1116 walks 244 faults 49 | \
             hits 872 misses 244 flushes 24 asid_flushes 18 evictions 69 insertions 203",
        ),
        (
            2,
            0xebd3_8d29_42e0_1b6f,
            "421 Read { page: 11, word: 8 } -> Ok(0) | clock 33826 | cr3 38 tr 1156 walks 262 \
             faults 43 | hits 894 misses 262 flushes 20 asid_flushes 19 evictions 67 insertions 221",
        ),
        (
            3,
            0x04ff_6493_2a5f_9b3c,
            "421 Read { page: 10, word: 15 } -> Ok(0) | clock 32104 | cr3 47 tr 912 walks 238 \
             faults 45 | hits 674 misses 238 flushes 19 asid_flushes 24 evictions 55 insertions 199",
        ),
    ];
    for (seed, digest, last) in pinned {
        let (mut phys, mut mmu, roots, _) = word_machine(false);
        let (mut tphys, mut tmmu, troots, tracer) = word_machine(true);
        let mut transcript = 0xcbf2_9ce4_8422_2325u64;
        let mut line = String::new();
        for (step, op) in word_path_ops(seed, 400).into_iter().enumerate() {
            let result = run_word_op(&mut phys, &mut mmu, &roots, op);
            let traced = run_word_op(&mut tphys, &mut tmmu, &troots, op);
            let (s, t) = (mmu.stats(), mmu.tlb_stats());
            line = format!(
                "{step} {op:?} -> {result} | clock {} | cr3 {} tr {} walks {} faults {} | \
                 hits {} misses {} flushes {} asid_flushes {} evictions {} insertions {}",
                mmu.clock().now(),
                s.cr3_loads,
                s.translations,
                s.walks,
                s.faults,
                t.hits,
                t.misses,
                t.flushes,
                t.asid_flushes,
                t.evictions,
                t.insertions,
            );
            println!("seed {seed}: {line}");
            transcript = fold(transcript, &line);
            let at = format!("seed {seed} step {step} {op:?}");
            assert_eq!(traced, result, "traced result, {at}");
            assert_eq!(tmmu.clock().now(), mmu.clock().now(), "traced clock, {at}");
            assert_eq!(tmmu.stats(), s, "traced MmuStats, {at}");
            assert_eq!(tmmu.tlb_stats(), t, "traced TlbStats, {at}");
        }
        assert!(!tracer.events().is_empty(), "the twin traced");
        assert!(mmu.tlb_stats().evictions > 0 && mmu.stats().faults > 0);
        assert_eq!(line, last, "seed {seed}: final state");
        assert_eq!(transcript, digest, "seed {seed}: transcript digest");
    }
}

/// The frame allocator's model: one free bit per frame, and the frame
/// range of each tier.
struct FrameModel {
    free: Vec<bool>,
    dram: std::ops::Range<u64>,
    nvm: std::ops::Range<u64>,
}

impl FrameModel {
    fn range(&self, tier: Tier) -> std::ops::Range<u64> {
        match tier {
            Tier::Dram => self.dram.clone(),
            Tier::Nvm => self.nvm.clone(),
        }
    }

    fn is_free(&self, base: u64, n: u64) -> bool {
        (base..base + n).all(|f| self.free[f as usize])
    }

    /// The lowest base in `tier` that is a multiple of `align` and starts
    /// `n` free frames.
    fn lowest_fit(&self, tier: Tier, n: u64, align: u64) -> Option<u64> {
        let range = self.range(tier);
        (range.start.next_multiple_of(align)..)
            .step_by(align as usize)
            .take_while(|&base| base + n <= range.end)
            .find(|&base| self.is_free(base, n))
    }

    fn set(&mut self, base: u64, n: u64, free: bool) {
        for f in base..base + n {
            self.free[f as usize] = free;
        }
    }

    /// `tier`'s maximal runs of free frames, in order: the only extents
    /// that are sorted, disjoint, never adjacent and cover exactly the
    /// free frames.
    fn runs(&self, tier: Tier) -> Vec<(u64, u64)> {
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for f in self.range(tier).filter(|&f| self.free[f as usize]) {
            match runs.last_mut() {
                Some((start, len)) if *start + *len == f => *len += 1,
                _ => runs.push((f, 1)),
            }
        }
        runs
    }

    fn count(&self, tier: Tier) -> u64 {
        self.range(tier).filter(|&f| self.free[f as usize]).count() as u64
    }
}

#[test]
fn frame_allocator_matches_a_bitmap_model() {
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(seed ^ 0xf4a);
        let capacity = rng.gen_range(2..97);
        let mut phys = PhysMem::new(capacity * 4096);
        let mut model = FrameModel {
            free: (0..capacity).map(|f| f != 0).collect(),
            dram: 1..capacity,
            nvm: capacity..capacity,
        };
        if capacity > 2 && rng.gen_bool(0.5) {
            let nvm = rng.gen_range(1..capacity - 1);
            phys.set_nvm_tier(nvm * 4096);
            model.dram.end = capacity - nvm;
            model.nvm = capacity - nvm..capacity;
        }
        // Live allocations as (base, frames).
        let mut live: Vec<(u64, u64)> = Vec::new();
        for step in 0..300 {
            let at = format!("seed {seed} step {step}");
            if !live.is_empty() && rng.gen_bool(0.45) {
                // Free all or part of one live allocation.
                let (base, n) = live.swap_remove(rng.index(live.len()));
                let skip = rng.gen_range(0..n);
                let len = rng.gen_range(1..n - skip + 1);
                phys.free_range(Pfn(base + skip), len);
                model.set(base + skip, len, true);
                live.extend(
                    [(base, skip), (base + skip + len, n - skip - len)]
                        .into_iter()
                        .filter(|&(_, n)| n > 0),
                );
            } else {
                let (tier, n, align, got) = match rng.index(4) {
                    0 => (Tier::Dram, 1, 1, phys.alloc_frame()),
                    kind => {
                        let tier = if kind == 3 { Tier::Nvm } else { Tier::Dram };
                        let n = rng.gen_range(1..13);
                        let align = if kind == 2 { 1 << rng.index(5) } else { 1 };
                        (tier, n, align, phys.alloc_contiguous(tier, n, align))
                    }
                };
                let want = model.lowest_fit(tier, n, align);
                assert_eq!(got.ok().map(|p| p.0), want, "{tier:?} {n} x{align}, {at}");
                if let Some(base) = want {
                    assert!(model.is_free(base, n), "handed out again, {at}");
                    model.set(base, n, false);
                    live.push((base, n));
                }
            }
            for tier in [Tier::Dram, Tier::Nvm] {
                assert_eq!(phys.free_extents(tier), model.runs(tier), "{tier:?}, {at}");
            }
            let dram_free = model.count(Tier::Dram);
            assert_eq!(phys.free_frames(), dram_free, "free frames, {at}");
            let allocated = capacity - 1 - dram_free - model.count(Tier::Nvm);
            assert_eq!(phys.allocated_frames(), allocated, "allocated frames, {at}");
        }
    }
}
