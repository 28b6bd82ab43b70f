//! Randomized tests over the paging and TLB substrate: arbitrary
//! map/unmap sequences keep the page tables consistent with a shadow
//! model, the MMU (TLB + walker) always agrees with a direct walk, and
//! the no-VM backend's segment table always agrees with the tree.
//!
//! Cases are generated from fixed seeds with [`SimRng`], so every run
//! explores the same sequences and any failure replays exactly.

use std::collections::HashMap;

use sjmp_mem::cost::{CostModel, CycleClock};
use sjmp_mem::paging::{self, PteFlags};
use sjmp_mem::{Access, Asid, Backend, MemError, Mmu, PageSize, Pfn, PhysMem, VirtAddr};
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
