//! Failure-injection tests: resource exhaustion and hostile conditions
//! must produce clean errors, never corruption or panics.

use spacejmp::kv::{DictStats, SegDict};
use spacejmp::mem::cost::{CostModel, MachineProfile};
use spacejmp::mem::PageSize;
use spacejmp::os::{MmapSource, OsError};
use spacejmp::prelude::*;

const SEG_BASE: u64 = 0x1000_0000_0000;

fn tiny_machine(mem_bytes: u64) -> SpaceJmp {
    let profile = MachineProfile {
        mem_bytes,
        ..MachineProfile::default()
    };
    SpaceJmp::new(Kernel::with_profile(
        KernelFlavor::DragonFly,
        profile,
        CostModel::default(),
    ))
}

#[test]
fn physical_exhaustion_fails_cleanly() {
    // 2 MiB of "DRAM": the process spawn fits, a large segment does not.
    let mut sj = tiny_machine(2 << 20);
    let pid = sj.kernel_mut().spawn("p", Creds::new(1, 1)).unwrap();
    let err = sj.seg_alloc(pid, "big", VirtAddr::new(SEG_BASE), 64 << 20, Mode(0o600));
    assert!(
        matches!(
            err,
            Err(SjError::Os(OsError::Mem(_) | OsError::OutOfMemory { .. }))
        ),
        "{err:?}"
    );
    // The system is still usable afterwards.
    let sid = sj
        .seg_alloc(pid, "small", VirtAddr::new(SEG_BASE), 64 << 10, Mode(0o600))
        .unwrap();
    let vid = sj.vas_create(pid, "v", Mode(0o600)).unwrap();
    sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite).unwrap();
    let vh = sj.vas_attach(pid, vid).unwrap();
    sj.vas_switch(pid, vh).unwrap();
    sj.kernel_mut()
        .store_u64(pid, VirtAddr::new(SEG_BASE), 1)
        .unwrap();
}

#[test]
fn corrupted_free_list_in_a_shared_heap_is_a_typed_error() {
    // Any process that can write the segment can scribble over the
    // allocator's free-list links; the next malloc must fail cleanly
    // instead of following the garbage out of the segment.
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M2));
    let pid = sj.kernel_mut().spawn("p", Creds::new(1, 1)).unwrap();
    sj.kernel_mut().activate(pid).unwrap();
    let vid = sj.vas_create(pid, "v", Mode(0o600)).unwrap();
    let sid = sj
        .seg_alloc(pid, "heap", VirtAddr::new(SEG_BASE), 1 << 20, Mode(0o600))
        .unwrap();
    sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite).unwrap();
    let vh = sj.vas_attach(pid, vid).unwrap();
    sj.vas_switch(pid, vh).unwrap();
    let heap = VasHeap::format(&mut sj, pid, sid).unwrap();
    let a = heap.malloc(&mut sj, pid, 24).unwrap();
    heap.malloc(&mut sj, pid, 24).unwrap();
    heap.free(&mut sj, pid, a).unwrap();
    // `a`'s first payload word is now the freed chunk's `next` link.
    sj.kernel_mut()
        .store_u64(pid, a, 0x0707_0707_0707_0707)
        .unwrap();
    assert_eq!(
        heap.malloc(&mut sj, pid, 24),
        Err(SjError::InvalidArgument("heap metadata is corrupt"))
    );
    assert!(sj.check_invariants().is_empty());
}

#[test]
fn heap_exhaustion_leaves_dictionary_consistent() {
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M2));
    let pid = sj.kernel_mut().spawn("kv", Creds::new(1, 1)).unwrap();
    sj.kernel_mut().activate(pid).unwrap();
    let vid = sj.vas_create(pid, "v", Mode(0o600)).unwrap();
    // A heap barely larger than the allocator's minimum.
    let sid = sj
        .seg_alloc(
            pid,
            "tiny-heap",
            VirtAddr::new(SEG_BASE),
            8 << 10,
            Mode(0o600),
        )
        .unwrap();
    sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite).unwrap();
    let vh = sj.vas_attach(pid, vid).unwrap();
    sj.vas_switch(pid, vh).unwrap();
    let heap = VasHeap::format(&mut sj, pid, sid).unwrap();
    let dict = SegDict::create(&mut sj, pid, heap).unwrap();

    let mut stats = DictStats::default();
    let mut stored = Vec::new();
    for i in 0..10_000u32 {
        let key = format!("key-{i}");
        match dict.set(&mut sj, pid, key.as_bytes(), &[0u8; 64], true, &mut stats) {
            Ok(()) => stored.push(key),
            Err(_) => break, // heap exhausted
        }
    }
    assert!(!stored.is_empty(), "some inserts must fit");
    assert!(stored.len() < 10_000, "the tiny heap must fill up");
    // Every successfully stored key is still intact and readable.
    for key in &stored {
        assert_eq!(
            dict.get(&mut sj, pid, key.as_bytes()).unwrap(),
            Some(vec![0u8; 64]),
            "{key} corrupted after exhaustion"
        );
    }
    // Deleting makes room again.
    for key in &stored {
        assert!(dict
            .del(&mut sj, pid, key.as_bytes(), true, &mut stats)
            .unwrap());
    }
    dict.set(&mut sj, pid, b"fresh", b"v", true, &mut stats)
        .unwrap();
    assert_eq!(
        dict.get(&mut sj, pid, b"fresh").unwrap(),
        Some(b"v".to_vec())
    );
}

#[test]
fn asid_exhaustion_reported() {
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M2));
    sj.kernel_mut().set_tagging(true);
    // Drain the 4095-tag pool directly.
    for _ in 0..4095 {
        sj.kernel_mut().alloc_asid().unwrap();
    }
    assert!(matches!(
        sj.kernel_mut().alloc_asid(),
        Err(OsError::OutOfAsids)
    ));
}

#[test]
fn faults_outside_any_region_are_fatal_to_the_access() {
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M2));
    let pid = sj.kernel_mut().spawn("p", Creds::new(1, 1)).unwrap();
    sj.kernel_mut().activate(pid).unwrap();
    // Wild pointer into unmapped space: clean error, process survives.
    let wild = VirtAddr::new(0x0666_0000_0000);
    assert!(sj.kernel_mut().load_u64(pid, wild).is_err());
    assert!(sj.kernel_mut().store_u64(pid, wild, 1).is_err());
    // Normal operation continues.
    let sp = VirtAddr::new(spacejmp::os::kernel::STACK_TOP.raw() - 32);
    sj.kernel_mut().store_u64(pid, sp, 1).unwrap();
}

#[test]
fn double_detach_and_stale_handles() {
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M2));
    let pid = sj.kernel_mut().spawn("p", Creds::new(1, 1)).unwrap();
    sj.kernel_mut().activate(pid).unwrap();
    let vid = sj.vas_create(pid, "v", Mode(0o600)).unwrap();
    let vh = sj.vas_attach(pid, vid).unwrap();
    sj.vas_detach(pid, vh).unwrap();
    assert_eq!(sj.vas_detach(pid, vh), Err(SjError::NotFound));
    assert_eq!(sj.vas_switch(pid, vh), Err(SjError::NotFound));
    // Re-attach works and produces a fresh handle.
    let vh2 = sj.vas_attach(pid, vid).unwrap();
    assert_ne!(vh, vh2);
    sj.vas_switch(pid, vh2).unwrap();
}

#[test]
fn lock_rollback_under_partial_contention() {
    // A switch that acquires some locks and then hits contention must
    // roll back completely: no lock may remain held by the failed
    // switcher.
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M2));
    let p0 = sj.kernel_mut().spawn("p0", Creds::new(1, 1)).unwrap();
    let p1 = sj.kernel_mut().spawn("p1", Creds::new(1, 1)).unwrap();
    sj.kernel_mut().activate(p0).unwrap();
    sj.kernel_mut().activate(p1).unwrap();

    let a = sj
        .seg_alloc(p0, "a", VirtAddr::new(SEG_BASE), 4096, Mode(0o660))
        .unwrap();
    let b = sj
        .seg_alloc(
            p0,
            "b",
            VirtAddr::new(SEG_BASE + (1 << 21)),
            4096,
            Mode(0o660),
        )
        .unwrap();
    // v-both maps a and b; v-b maps only b.
    let v_both = sj.vas_create(p0, "v-both", Mode(0o660)).unwrap();
    sj.seg_attach(p0, v_both, a, AttachMode::ReadWrite).unwrap();
    sj.seg_attach(p0, v_both, b, AttachMode::ReadWrite).unwrap();
    let v_b = sj.vas_create(p0, "v-b", Mode(0o660)).unwrap();
    sj.seg_attach(p0, v_b, b, AttachMode::ReadWrite).unwrap();

    // p1 holds b exclusively.
    let vh_b = sj.vas_attach(p1, v_b).unwrap();
    sj.vas_switch(p1, vh_b).unwrap();

    // p0 tries to enter v-both: acquires a, blocks on b, must roll back.
    let vh_both = sj.vas_attach(p0, v_both).unwrap();
    assert_eq!(sj.vas_switch(p0, vh_both), Err(SjError::WouldBlock));
    assert!(
        sj.segment(a).unwrap().lock().is_free(),
        "a must be rolled back"
    );

    // After p1 leaves, p0 gets in.
    sj.vas_switch_home(p1).unwrap();
    sj.vas_switch(p0, vh_both).unwrap();
}

#[test]
fn out_of_address_space_for_private_mmaps() {
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M2));
    let pid = sj.kernel_mut().spawn("p", Creds::new(1, 1)).unwrap();
    // The private arena is ~16 TiB; asking for more in one mapping fails
    // with a clean error rather than wrapping.
    let new = MmapSource::New(PageSize::Size4K);
    let err = sj
        .kernel_mut()
        .sys_mmap(pid, new, 1 << 45, PteFlags::USER, true);
    assert!(
        matches!(err, Err(OsError::InvalidArgument(_)) | Err(OsError::Mem(_))),
        "{err:?}"
    );
}
