//! End-to-end tests of the SpaceJMP API (Figure 3) and its semantics
//! (Sections 3.1-3.2): first-class VASes, lockable segments, switching,
//! sharing, persistence beyond process lifetime, and the heap runtime.

use sjmp_mem::{KernelFlavor, MachineId, PageSize, VirtAddr};
use sjmp_os::{Backing, Creds, Kernel, Mode, Pid};
use spacejmp_core::{AttachMode, SegCtl, SjError, SpaceJmp, VasCtl, VasHeap};

const SEG_BASE: u64 = 0x1000_0000_0000;

fn setup() -> (SpaceJmp, Pid) {
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M2));
    let pid = sj.kernel_mut().spawn("p0", Creds::new(100, 100)).unwrap();
    sj.kernel_mut().activate(pid).unwrap();
    (sj, pid)
}

fn setup_two() -> (SpaceJmp, Pid, Pid) {
    let (mut sj, p0) = setup();
    let p1 = sj.kernel_mut().spawn("p1", Creds::new(100, 100)).unwrap();
    sj.kernel_mut().activate(p1).unwrap();
    (sj, p0, p1)
}

#[test]
fn figure4_canonical_usage() {
    // Mirrors the paper's Figure 4: create, alloc, attach, switch, use.
    let (mut sj, pid) = setup();
    let va = VirtAddr::new(SEG_BASE + 0xC0DE000);
    let vid = sj.vas_create(pid, "v0", Mode(0o660)).unwrap();
    let sid = sj.seg_alloc(pid, "s0", va, 1 << 20, Mode(0o660)).unwrap();
    sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite).unwrap();
    let found = sj.vas_find("v0").unwrap();
    assert_eq!(found, vid);
    let vh = sj.vas_attach(pid, found).unwrap();
    sj.vas_switch(pid, vh).unwrap();
    sj.kernel_mut().store_u64(pid, va, 42).unwrap();
    assert_eq!(sj.kernel_mut().load_u64(pid, va).unwrap(), 42);
}

#[test]
fn data_visible_across_processes_through_shared_vas() {
    let (mut sj, p0, p1) = setup_two();
    let va = VirtAddr::new(SEG_BASE);
    let vid = sj.vas_create(p0, "shared", Mode(0o660)).unwrap();
    let sid = sj.seg_alloc(p0, "data", va, 1 << 20, Mode(0o660)).unwrap();
    sj.seg_attach(p0, vid, sid, AttachMode::ReadWrite).unwrap();

    let vh0 = sj.vas_attach(p0, vid).unwrap();
    sj.vas_switch(p0, vh0).unwrap();
    sj.kernel_mut().store_u64(p0, va.add(128), 0xfeed).unwrap();
    sj.vas_switch_home(p0).unwrap(); // release the write lock

    let vh1 = sj.vas_attach(p1, vid).unwrap();
    sj.vas_switch(p1, vh1).unwrap();
    assert_eq!(sj.kernel_mut().load_u64(p1, va.add(128)).unwrap(), 0xfeed);
}

#[test]
fn private_segments_remain_visible_after_switch() {
    // The stack/text/globals are mapped into every attached VAS
    // (the "common region" of Section 3.3).
    let (mut sj, pid) = setup();
    let stack_addr = VirtAddr::new(sjmp_os::kernel::STACK_TOP.raw() - 64);
    sj.kernel_mut().store_u64(pid, stack_addr, 0x57ac4).unwrap();

    let vid = sj.vas_create(pid, "v", Mode(0o600)).unwrap();
    let vh = sj.vas_attach(pid, vid).unwrap();
    sj.vas_switch(pid, vh).unwrap();
    assert_eq!(sj.kernel_mut().load_u64(pid, stack_addr).unwrap(), 0x57ac4);
}

#[test]
fn write_lock_excludes_second_writer() {
    let (mut sj, p0, p1) = setup_two();
    let va = VirtAddr::new(SEG_BASE);
    let vid = sj.vas_create(p0, "v", Mode(0o660)).unwrap();
    let sid = sj.seg_alloc(p0, "s", va, 1 << 20, Mode(0o660)).unwrap();
    sj.seg_attach(p0, vid, sid, AttachMode::ReadWrite).unwrap();

    let vh0 = sj.vas_attach(p0, vid).unwrap();
    let vh1 = sj.vas_attach(p1, vid).unwrap();
    sj.vas_switch(p0, vh0).unwrap();
    assert_eq!(sj.vas_switch(p1, vh1), Err(SjError::WouldBlock));
    assert_eq!(sj.stats().lock_contentions, 1);

    // p0 leaves; p1 can now enter.
    sj.vas_switch_home(p0).unwrap();
    sj.vas_switch(p1, vh1).unwrap();
}

#[test]
fn readers_share_writers_excluded() {
    let (mut sj, p0, p1) = setup_two();
    let p2 = sj.kernel_mut().spawn("p2", Creds::new(100, 100)).unwrap();
    let va = VirtAddr::new(SEG_BASE);
    let vid_ro = sj.vas_create(p0, "v-ro", Mode(0o660)).unwrap();
    let vid_rw = sj.vas_create(p0, "v-rw", Mode(0o660)).unwrap();
    let sid = sj.seg_alloc(p0, "s", va, 1 << 20, Mode(0o660)).unwrap();
    sj.seg_attach(p0, vid_ro, sid, AttachMode::ReadOnly)
        .unwrap();
    sj.seg_attach(p0, vid_rw, sid, AttachMode::ReadWrite)
        .unwrap();

    // Two readers in the read-only VAS.
    let vh0 = sj.vas_attach(p0, vid_ro).unwrap();
    let vh1 = sj.vas_attach(p1, vid_ro).unwrap();
    sj.vas_switch(p0, vh0).unwrap();
    sj.vas_switch(p1, vh1).unwrap();
    assert_eq!(sj.segment(sid).unwrap().lock().reader_count(), 2);

    // Writer blocked while readers are in.
    let vh2 = sj.vas_attach(p2, vid_rw).unwrap();
    assert_eq!(sj.vas_switch(p2, vh2), Err(SjError::WouldBlock));

    sj.vas_switch_home(p0).unwrap();
    sj.vas_switch_home(p1).unwrap();
    sj.vas_switch(p2, vh2).unwrap();
    assert_eq!(sj.segment(sid).unwrap().lock().writer(), Some(p2));
}

#[test]
fn read_only_mapping_rejects_stores() {
    let (mut sj, pid) = setup();
    let va = VirtAddr::new(SEG_BASE);
    let vid = sj.vas_create(pid, "v", Mode(0o660)).unwrap();
    let sid = sj.seg_alloc(pid, "s", va, 1 << 20, Mode(0o660)).unwrap();
    sj.seg_attach(pid, vid, sid, AttachMode::ReadOnly).unwrap();
    let vh = sj.vas_attach(pid, vid).unwrap();
    sj.vas_switch(pid, vh).unwrap();
    assert!(sj.kernel_mut().load_u64(pid, va).is_ok());
    assert!(sj.kernel_mut().store_u64(pid, va, 1).is_err());
}

#[test]
fn vas_outlives_creating_process() {
    // "A VAS can also continue to exist beyond the lifetime of its
    // creating process" — the SAMTools persistence pattern.
    let (mut sj, p0) = setup();
    let va = VirtAddr::new(SEG_BASE);
    let vid = sj.vas_create(p0, "persistent", Mode(0o660)).unwrap();
    let sid = sj.seg_alloc(p0, "pdata", va, 1 << 20, Mode(0o660)).unwrap();
    sj.seg_attach(p0, vid, sid, AttachMode::ReadWrite).unwrap();
    let vh0 = sj.vas_attach(p0, vid).unwrap();
    sj.vas_switch(p0, vh0).unwrap();
    sj.kernel_mut().store_u64(p0, va, 0x11fe).unwrap();
    sj.vas_switch_home(p0).unwrap();
    sj.vas_detach(p0, vh0).unwrap();
    sj.kernel_mut().exit(p0).unwrap();

    // A later process finds the VAS by name and sees the data.
    let p1 = sj
        .kernel_mut()
        .spawn("later", Creds::new(100, 100))
        .unwrap();
    sj.kernel_mut().activate(p1).unwrap();
    let vid2 = sj.vas_find("persistent").unwrap();
    assert_eq!(vid2, vid);
    let vh1 = sj.vas_attach(p1, vid2).unwrap();
    sj.vas_switch(p1, vh1).unwrap();
    assert_eq!(sj.kernel_mut().load_u64(p1, va).unwrap(), 0x11fe);
}

#[test]
fn seg_attach_propagates_to_attached_processes() {
    // Shared template tables: a segment attached after processes have
    // already attached the VAS becomes visible to them.
    let (mut sj, p0, p1) = setup_two();
    let vid = sj.vas_create(p0, "v", Mode(0o660)).unwrap();
    let vh1 = sj.vas_attach(p1, vid).unwrap();
    sj.vas_switch(p1, vh1).unwrap();

    let va = VirtAddr::new(SEG_BASE);
    let sid = sj.seg_alloc(p0, "late", va, 1 << 20, Mode(0o660)).unwrap();
    sj.seg_attach(p0, vid, sid, AttachMode::ReadWrite).unwrap();

    // p1, already switched in, sees the new segment (lock was not held:
    // p1 switched in before the segment existed, so no lock conflict —
    // note the lock is only taken at switch time).
    sj.kernel_mut().store_u64(p1, va, 77).unwrap();
    assert_eq!(sj.kernel_mut().load_u64(p1, va).unwrap(), 77);
    let _ = p0;
}

#[test]
fn seg_detach_removes_translations_everywhere() {
    let (mut sj, p0, p1) = setup_two();
    let va = VirtAddr::new(SEG_BASE);
    let vid = sj.vas_create(p0, "v", Mode(0o660)).unwrap();
    let sid = sj.seg_alloc(p0, "s", va, 1 << 20, Mode(0o660)).unwrap();
    sj.seg_attach(p0, vid, sid, AttachMode::ReadWrite).unwrap();
    let vh1 = sj.vas_attach(p1, vid).unwrap();
    sj.vas_switch(p1, vh1).unwrap();
    sj.kernel_mut().store_u64(p1, va, 1).unwrap();
    sj.vas_switch_home(p1).unwrap();

    sj.seg_detach(p0, vid, sid).unwrap();
    sj.vas_switch(p1, vh1).unwrap();
    assert!(
        sj.kernel_mut().load_u64(p1, va).is_err(),
        "translation must be gone"
    );
}

#[test]
fn address_conflicts_rejected() {
    let (mut sj, pid) = setup();
    let vid = sj.vas_create(pid, "v", Mode(0o660)).unwrap();
    let a = sj
        .seg_alloc(pid, "a", VirtAddr::new(SEG_BASE), 1 << 20, Mode(0o660))
        .unwrap();
    let b = sj
        .seg_alloc(
            pid,
            "b",
            VirtAddr::new(SEG_BASE + (1 << 19)),
            1 << 20,
            Mode(0o660),
        )
        .unwrap();
    sj.seg_attach(pid, vid, a, AttachMode::ReadWrite).unwrap();
    assert!(matches!(
        sj.seg_attach(pid, vid, b, AttachMode::ReadWrite),
        Err(SjError::AddressConflict(_))
    ));
    // ... but the overlapping segment is fine in a *different* VAS.
    let vid2 = sj.vas_create(pid, "v2", Mode(0o660)).unwrap();
    sj.seg_attach(pid, vid2, b, AttachMode::ReadWrite).unwrap();
}

#[test]
fn segment_outside_global_range_rejected() {
    let (mut sj, pid) = setup();
    assert!(matches!(
        sj.seg_alloc(pid, "bad", VirtAddr::new(0x1000), 4096, Mode(0o660)),
        Err(SjError::AddressConflict(_))
    ));
    assert!(matches!(
        sj.seg_alloc(pid, "bad2", VirtAddr::new(SEG_BASE + 5), 4096, Mode(0o660)),
        Err(SjError::InvalidArgument(_))
    ));
    assert!(matches!(
        sj.seg_alloc(pid, "bad3", VirtAddr::new(SEG_BASE), 0, Mode(0o660)),
        Err(SjError::InvalidArgument(_))
    ));
}

#[test]
fn acl_enforced_on_attach() {
    let (mut sj, p0) = setup();
    let stranger = sj
        .kernel_mut()
        .spawn("stranger", Creds::new(999, 999))
        .unwrap();
    let va = VirtAddr::new(SEG_BASE);
    let vid = sj.vas_create(p0, "v", Mode(0o660)).unwrap();
    let sid = sj.seg_alloc(p0, "s", va, 1 << 20, Mode(0o640)).unwrap();
    sj.seg_attach(p0, vid, sid, AttachMode::ReadWrite).unwrap();
    // Stranger may not attach the VAS at all (mode 660 = owner+group).
    assert_eq!(sj.vas_attach(stranger, vid), Err(SjError::PermissionDenied));
    // Group member may read but not write the segment.
    let group = sj
        .kernel_mut()
        .spawn("group", Creds::new(500, 100))
        .unwrap();
    // VAS maps the segment RW, and group lacks write permission.
    assert_eq!(sj.vas_attach(group, vid), Err(SjError::PermissionDenied));
}

#[test]
fn vas_clone_shares_segments() {
    let (mut sj, pid) = setup();
    let va = VirtAddr::new(SEG_BASE);
    let vid = sj.vas_create(pid, "orig", Mode(0o660)).unwrap();
    let sid = sj.seg_alloc(pid, "s", va, 1 << 20, Mode(0o660)).unwrap();
    sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite).unwrap();

    let clone = sj.vas_clone(pid, vid, "copy").unwrap();
    let vh = sj.vas_attach(pid, clone).unwrap();
    sj.vas_switch(pid, vh).unwrap();
    sj.kernel_mut().store_u64(pid, va, 9).unwrap();
    sj.vas_switch_home(pid).unwrap();

    // Contents are shared (same segment object).
    let vh0 = sj.vas_attach(pid, vid).unwrap();
    sj.vas_switch(pid, vh0).unwrap();
    assert_eq!(sj.kernel_mut().load_u64(pid, va).unwrap(), 9);
}

#[test]
fn seg_clone_copies_contents() {
    let (mut sj, pid) = setup();
    let va = VirtAddr::new(SEG_BASE);
    let vid = sj.vas_create(pid, "v", Mode(0o660)).unwrap();
    let sid = sj.seg_alloc(pid, "s", va, 1 << 20, Mode(0o660)).unwrap();
    sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite).unwrap();
    let vh = sj.vas_attach(pid, vid).unwrap();
    sj.vas_switch(pid, vh).unwrap();
    sj.kernel_mut().store_u64(pid, va, 0xc10e).unwrap();
    sj.vas_switch_home(pid).unwrap();

    let copy = sj.seg_clone(pid, sid, "s-copy").unwrap();
    let vid2 = sj.vas_create(pid, "v2", Mode(0o660)).unwrap();
    sj.seg_attach(pid, vid2, copy, AttachMode::ReadWrite)
        .unwrap();
    let vh2 = sj.vas_attach(pid, vid2).unwrap();
    sj.vas_switch(pid, vh2).unwrap();
    assert_eq!(
        sj.kernel_mut().load_u64(pid, va).unwrap(),
        0xc10e,
        "contents copied"
    );
    sj.kernel_mut().store_u64(pid, va, 1).unwrap();
    sj.vas_switch_home(pid).unwrap();

    // Original is unaffected (deep copy).
    sj.vas_switch(pid, vh).unwrap();
    assert_eq!(sj.kernel_mut().load_u64(pid, va).unwrap(), 0xc10e);
}

#[test]
fn ctl_destroy_lifecycle() {
    let (mut sj, pid) = setup();
    let va = VirtAddr::new(SEG_BASE);
    let vid = sj.vas_create(pid, "v", Mode(0o660)).unwrap();
    let sid = sj.seg_alloc(pid, "s", va, 1 << 20, Mode(0o660)).unwrap();
    sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite).unwrap();
    let vh = sj.vas_attach(pid, vid).unwrap();

    // Attached VAS cannot be destroyed; attached segment cannot either.
    assert!(matches!(
        sj.vas_ctl(pid, VasCtl::Destroy, vid),
        Err(SjError::Busy(_))
    ));
    assert!(matches!(
        sj.seg_ctl(pid, sid, SegCtl::Destroy),
        Err(SjError::Busy(_))
    ));

    sj.vas_detach(pid, vh).unwrap();
    sj.vas_ctl(pid, VasCtl::Destroy, vid).unwrap();
    assert_eq!(sj.vas_find("v"), Err(SjError::NotFound));
    sj.seg_ctl(pid, sid, SegCtl::Destroy).unwrap();
    assert_eq!(sj.seg_find("s"), Err(SjError::NotFound));
}

#[test]
fn detach_active_vas_rejected() {
    let (mut sj, pid) = setup();
    let vid = sj.vas_create(pid, "v", Mode(0o600)).unwrap();
    let vh = sj.vas_attach(pid, vid).unwrap();
    sj.vas_switch(pid, vh).unwrap();
    assert!(matches!(sj.vas_detach(pid, vh), Err(SjError::Busy(_))));
    sj.vas_switch_home(pid).unwrap();
    sj.vas_detach(pid, vh).unwrap();
}

#[test]
fn handles_are_process_scoped() {
    let (mut sj, p0, p1) = setup_two();
    let vid = sj.vas_create(p0, "v", Mode(0o660)).unwrap();
    let vh = sj.vas_attach(p0, vid).unwrap();
    assert_eq!(sj.vas_switch(p1, vh), Err(SjError::BadHandle));
    assert_eq!(sj.vas_detach(p1, vh), Err(SjError::BadHandle));
}

#[test]
fn duplicate_names_rejected() {
    let (mut sj, pid) = setup();
    sj.vas_create(pid, "v", Mode(0o600)).unwrap();
    assert!(matches!(
        sj.vas_create(pid, "v", Mode(0o600)),
        Err(SjError::NameTaken(_))
    ));
    sj.seg_alloc(pid, "s", VirtAddr::new(SEG_BASE), 4096, Mode(0o600))
        .unwrap();
    assert!(matches!(
        sj.seg_alloc(
            pid,
            "s",
            VirtAddr::new(SEG_BASE + (1 << 30)),
            4096,
            Mode(0o600)
        ),
        Err(SjError::NameTaken(_))
    ));
}

#[test]
fn switch_costs_match_table2_per_flavor() {
    for (flavor, tagging, expect_switch) in [
        (KernelFlavor::DragonFly, false, 1127u64),
        (KernelFlavor::Barrelfish, false, 664),
    ] {
        let mut sj = SpaceJmp::new(Kernel::new(flavor, MachineId::M2));
        if tagging {
            sj.kernel_mut().set_tagging(true);
        }
        let pid = sj.kernel_mut().spawn("p", Creds::new(1, 1)).unwrap();
        sj.kernel_mut().activate(pid).unwrap();
        let vid = sj.vas_create(pid, "v", Mode(0o600)).unwrap();
        let vh = sj.vas_attach(pid, vid).unwrap();
        let t0 = sj.kernel().clock().now();
        sj.vas_switch(pid, vh).unwrap();
        // No lockable segments attached => pure switch cost.
        assert_eq!(sj.kernel().clock().since(t0), expect_switch, "{flavor:?}");
    }
}

#[test]
fn tagged_vas_keeps_tlb_entries_across_switches() {
    let (mut sj, pid) = setup();
    sj.kernel_mut().set_tagging(true);
    let va = VirtAddr::new(SEG_BASE);
    let vid = sj.vas_create(pid, "v", Mode(0o600)).unwrap();
    sj.vas_ctl(pid, VasCtl::RequestTag, vid).unwrap();
    let sid = sj.seg_alloc(pid, "s", va, 1 << 20, Mode(0o600)).unwrap();
    sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite).unwrap();
    let vh = sj.vas_attach(pid, vid).unwrap();

    sj.vas_switch(pid, vh).unwrap();
    sj.kernel_mut().store_u64(pid, va, 1).unwrap();
    let core = sj.kernel().process(pid).unwrap().core();
    let walks_before = {
        let (mmu, _) = sj.kernel_mut().core_mem(core);
        mmu.stats().walks
    };
    sj.vas_switch_home(pid).unwrap();
    sj.vas_switch(pid, vh).unwrap();
    sj.kernel_mut().load_u64(pid, va).unwrap();
    let walks_after = {
        let (mmu, _) = sj.kernel_mut().core_mem(core);
        mmu.stats().walks
    };
    assert_eq!(
        walks_after, walks_before,
        "tagged entries survive the round trip"
    );
}

#[test]
fn heap_allocates_and_persists_across_processes() {
    let (mut sj, p0, p1) = setup_two();
    let va = VirtAddr::new(SEG_BASE);
    let vid = sj.vas_create(p0, "v", Mode(0o660)).unwrap();
    let sid = sj.seg_alloc(p0, "heap", va, 1 << 20, Mode(0o660)).unwrap();
    sj.seg_attach(p0, vid, sid, AttachMode::ReadWrite).unwrap();
    let vh0 = sj.vas_attach(p0, vid).unwrap();
    sj.vas_switch(p0, vh0).unwrap();

    let heap = VasHeap::format(&mut sj, p0, sid).unwrap();
    let ptr = heap.malloc(&mut sj, p0, 256).unwrap();
    sj.kernel_mut().store_u64(p0, ptr, 0xa110c).unwrap();
    assert_eq!(heap.allocation_count(&mut sj, p0).unwrap(), 1);
    sj.vas_switch_home(p0).unwrap();

    // Another process opens the same heap and sees the allocation.
    let vh1 = sj.vas_attach(p1, vid).unwrap();
    sj.vas_switch(p1, vh1).unwrap();
    let heap1 = VasHeap::open(&mut sj, p1, sid).unwrap();
    assert_eq!(sj.kernel_mut().load_u64(p1, ptr).unwrap(), 0xa110c);
    heap1.free(&mut sj, p1, ptr).unwrap();
    assert_eq!(heap1.allocation_count(&mut sj, p1).unwrap(), 0);
}

#[test]
fn heap_requires_mapping() {
    let (mut sj, pid) = setup();
    let sid = sj
        .seg_alloc(pid, "heap", VirtAddr::new(SEG_BASE), 1 << 20, Mode(0o600))
        .unwrap();
    // Not attached to any VAS / not switched in: format must fail cleanly.
    assert_eq!(
        VasHeap::format(&mut sj, pid, sid).unwrap_err(),
        SjError::NotAttached
    );
}

#[test]
fn heap_through_a_read_only_attach_is_a_typed_error() {
    let (mut sj, p0, p1) = setup_two();
    let va = VirtAddr::new(SEG_BASE);
    let rw = sj.vas_create(p0, "rw", Mode(0o660)).unwrap();
    let sid = sj.seg_alloc(p0, "heap", va, 1 << 20, Mode(0o660)).unwrap();
    sj.seg_attach(p0, rw, sid, AttachMode::ReadWrite).unwrap();
    let vh0 = sj.vas_attach(p0, rw).unwrap();
    sj.vas_switch(p0, vh0).unwrap();
    let heap = VasHeap::format(&mut sj, p0, sid).unwrap();
    let ptr = heap.malloc(&mut sj, p0, 64).unwrap();
    heap.set_root(&mut sj, p0, ptr).unwrap();
    sj.vas_switch_home(p0).unwrap();

    // p1 maps the same segment read-only through a second VAS: reads
    // work, and every call that would write is refused before the
    // allocator touches memory.
    let ro = sj.vas_create(p1, "ro", Mode(0o660)).unwrap();
    sj.seg_attach(p1, ro, sid, AttachMode::ReadOnly).unwrap();
    let vh1 = sj.vas_attach(p1, ro).unwrap();
    sj.vas_switch(p1, vh1).unwrap();
    let denied = SjError::PermissionDenied;
    assert_eq!(VasHeap::format(&mut sj, p1, sid), Err(denied.clone()));
    let heap1 = VasHeap::open(&mut sj, p1, sid).unwrap();
    assert_eq!(heap1, heap);
    assert_eq!(heap1.malloc(&mut sj, p1, 64), Err(denied.clone()));
    assert_eq!(heap1.free(&mut sj, p1, ptr), Err(denied.clone()));
    assert_eq!(heap1.set_root(&mut sj, p1, VirtAddr::NULL), Err(denied));
    assert_eq!(heap1.root(&mut sj, p1), Ok(ptr));
    assert_eq!(heap1.allocation_count(&mut sj, p1), Ok(1));
    assert!(sj.check_invariants().is_empty());
}

#[test]
fn local_segment_attach_is_private() {
    let (mut sj, p0, p1) = setup_two();
    let vid = sj.vas_create(p0, "v", Mode(0o660)).unwrap();
    let vh0 = sj.vas_attach(p0, vid).unwrap();
    let vh1 = sj.vas_attach(p1, vid).unwrap();

    // Scratch segment in a different PML4 slot than the template uses.
    let scratch_base = VirtAddr::new(SEG_BASE + (1u64 << 39));
    let sid = sj
        .seg_alloc(p0, "scratch", scratch_base, 1 << 20, Mode(0o660))
        .unwrap();
    sj.seg_attach_local(p0, vh0, sid, AttachMode::ReadWrite)
        .unwrap();

    sj.vas_switch(p0, vh0).unwrap();
    sj.kernel_mut().store_u64(p0, scratch_base, 5).unwrap();
    sj.vas_switch_home(p0).unwrap();

    sj.vas_switch(p1, vh1).unwrap();
    assert!(
        sj.kernel_mut().load_u64(p1, scratch_base).is_err(),
        "local attachment must not leak to other processes"
    );
}

#[test]
fn many_vases_per_process() {
    // The GUPS pattern: one process, many address spaces, switch between
    // all of them.
    let (mut sj, pid) = setup();
    let mut handles = Vec::new();
    for i in 0..16 {
        let vid = sj.vas_create(pid, &format!("w{i}"), Mode(0o600)).unwrap();
        let sid = sj
            .seg_alloc(
                pid,
                &format!("ws{i}"),
                VirtAddr::new(SEG_BASE),
                256 << 10,
                Mode(0o600),
            )
            .unwrap();
        sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite).unwrap();
        handles.push(sj.vas_attach(pid, vid).unwrap());
    }
    // Same virtual address, sixteen different backing windows.
    for (i, vh) in handles.iter().enumerate() {
        sj.vas_switch(pid, *vh).unwrap();
        sj.kernel_mut()
            .store_u64(pid, VirtAddr::new(SEG_BASE), i as u64)
            .unwrap();
        sj.vas_switch_home(pid).unwrap();
    }
    for (i, vh) in handles.iter().enumerate() {
        sj.vas_switch(pid, *vh).unwrap();
        assert_eq!(
            sj.kernel_mut()
                .load_u64(pid, VirtAddr::new(SEG_BASE))
                .unwrap(),
            i as u64
        );
        sj.vas_switch_home(pid).unwrap();
    }
    assert_eq!(sj.stats().switches, 64);
}

#[test]
fn barrelfish_switch_is_a_capability_invocation() {
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::Barrelfish, MachineId::M2));
    let owner = sj.kernel_mut().spawn("owner", Creds::new(1, 1)).unwrap();
    let client = sj.kernel_mut().spawn("client", Creds::new(2, 100)).unwrap();
    sj.kernel_mut().activate(client).unwrap();
    let vid = sj.vas_create(owner, "bf", Mode(0o666)).unwrap();
    let vh = sj.vas_attach(client, vid).unwrap();
    // The attachment minted a root page-table capability; switching works.
    assert!(sj.attachment(vh).unwrap().root_cap.is_some());
    sj.vas_switch(client, vh).unwrap();
    sj.vas_switch_home(client).unwrap();
    // The VAS owner revokes the capability: switching is now barred,
    // without the client's cooperation (Section 4.2 reclamation).
    sj.revoke_attachment(owner, vh).unwrap();
    assert!(matches!(sj.vas_switch(client, vh), Err(SjError::Os(_))));
    // Non-owners cannot revoke.
    let vh2 = sj.vas_attach(owner, vid).unwrap();
    assert_eq!(
        sj.revoke_attachment(client, vh2),
        Err(SjError::PermissionDenied)
    );
}

#[test]
fn dragonfly_attachments_have_no_capability() {
    let (mut sj, pid) = setup();
    let vid = sj.vas_create(pid, "v", Mode(0o600)).unwrap();
    let vh = sj.vas_attach(pid, vid).unwrap();
    assert!(sj.attachment(vh).unwrap().root_cap.is_none());
    assert!(matches!(
        sj.revoke_attachment(pid, vh),
        Err(SjError::InvalidArgument(_))
    ));
}

#[test]
fn snapshot_is_an_independent_copy() {
    let (mut sj, pid) = setup();
    let va = VirtAddr::new(SEG_BASE);
    let vid = sj.vas_create(pid, "orig", Mode(0o660)).unwrap();
    let sid = sj.seg_alloc(pid, "data", va, 1 << 20, Mode(0o660)).unwrap();
    sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite).unwrap();
    let vh = sj.vas_attach(pid, vid).unwrap();
    sj.vas_switch(pid, vh).unwrap();
    sj.kernel_mut().store_u64(pid, va, 0x0111).unwrap();
    sj.vas_switch_home(pid).unwrap();

    let snap = sj.vas_snapshot(pid, vid, "orig@v1").unwrap();

    // Mutate the original after the snapshot.
    sj.vas_switch(pid, vh).unwrap();
    sj.kernel_mut().store_u64(pid, va, 0x0222).unwrap();
    sj.vas_switch_home(pid).unwrap();

    // The snapshot still shows the old value.
    let svh = sj.vas_attach(pid, snap).unwrap();
    sj.vas_switch(pid, svh).unwrap();
    assert_eq!(sj.kernel_mut().load_u64(pid, va).unwrap(), 0x0111);
    // And writes to the snapshot do not leak back.
    sj.kernel_mut().store_u64(pid, va, 0x0333).unwrap();
    sj.vas_switch_home(pid).unwrap();
    sj.vas_switch(pid, vh).unwrap();
    assert_eq!(sj.kernel_mut().load_u64(pid, va).unwrap(), 0x0222);
}

#[test]
fn snapshot_requires_quiescent_locks() {
    let (mut sj, p0, p1) = setup_two();
    let va = VirtAddr::new(SEG_BASE);
    let vid = sj.vas_create(p0, "busy", Mode(0o660)).unwrap();
    let sid = sj.seg_alloc(p0, "bseg", va, 1 << 20, Mode(0o660)).unwrap();
    sj.seg_attach(p0, vid, sid, AttachMode::ReadWrite).unwrap();
    let vh = sj.vas_attach(p1, vid).unwrap();
    sj.vas_switch(p1, vh).unwrap();
    assert!(matches!(
        sj.vas_snapshot(p0, vid, "nope"),
        Err(SjError::Busy(_))
    ));
    sj.vas_switch_home(p1).unwrap();
    sj.vas_snapshot(p0, vid, "ok").unwrap();
}

#[test]
fn local_attach_rejects_template_slots() {
    // A process-local segment may not land in a PML4 slot shared with
    // the VAS template — private mappings in shared subtrees would leak.
    let (mut sj, pid) = setup();
    let vid = sj.vas_create(pid, "v", Mode(0o660)).unwrap();
    let global_sid = sj
        .seg_alloc(pid, "g", VirtAddr::new(SEG_BASE), 4096, Mode(0o660))
        .unwrap();
    sj.seg_attach(pid, vid, global_sid, AttachMode::ReadWrite)
        .unwrap();
    let vh = sj.vas_attach(pid, vid).unwrap();
    // Same 512 GiB slot as the global segment -> rejected.
    let clash = sj
        .seg_alloc(
            pid,
            "clash",
            VirtAddr::new(SEG_BASE + (1 << 20)),
            4096,
            Mode(0o660),
        )
        .unwrap();
    assert!(matches!(
        sj.seg_attach_local(pid, vh, clash, AttachMode::ReadWrite),
        Err(SjError::AddressConflict(_))
    ));
    // A different slot works.
    let ok = sj
        .seg_alloc(
            pid,
            "ok",
            VirtAddr::new(SEG_BASE + (1u64 << 39)),
            4096,
            Mode(0o660),
        )
        .unwrap();
    sj.seg_attach_local(pid, vh, ok, AttachMode::ReadWrite)
        .unwrap();
}

#[test]
fn non_lockable_segments_skip_locking() {
    // seg_ctl(SetLockable(false)): applications synchronizing themselves
    // can opt out; two writers may then be switched in simultaneously.
    let (mut sj, p0, p1) = setup_two();
    let va = VirtAddr::new(SEG_BASE);
    let vid = sj.vas_create(p0, "v", Mode(0o660)).unwrap();
    let sid = sj.seg_alloc(p0, "s", va, 1 << 20, Mode(0o660)).unwrap();
    sj.seg_ctl(p0, sid, SegCtl::SetLockable(false)).unwrap();
    sj.seg_attach(p0, vid, sid, AttachMode::ReadWrite).unwrap();
    let vh0 = sj.vas_attach(p0, vid).unwrap();
    let vh1 = sj.vas_attach(p1, vid).unwrap();
    sj.vas_switch(p0, vh0).unwrap();
    sj.vas_switch(p1, vh1).unwrap(); // would be WouldBlock if lockable
    assert_eq!(sj.stats().lock_acquisitions, 0);
}

#[test]
fn vas_clone_requires_read_permission() {
    let (mut sj, p0) = setup();
    let stranger = sj
        .kernel_mut()
        .spawn("stranger", Creds::new(999, 999))
        .unwrap();
    let vid = sj.vas_create(p0, "private", Mode(0o600)).unwrap();
    assert_eq!(
        sj.vas_clone(stranger, vid, "stolen"),
        Err(SjError::PermissionDenied)
    );
}

#[test]
fn seg_ctl_permission_enforced() {
    let (mut sj, p0) = setup();
    let other = sj
        .kernel_mut()
        .spawn("other", Creds::new(555, 100))
        .unwrap();
    let sid = sj
        .seg_alloc(p0, "s", VirtAddr::new(SEG_BASE), 4096, Mode(0o660))
        .unwrap();
    // Group member may use the segment but not chmod it.
    assert_eq!(
        sj.seg_ctl(other, sid, SegCtl::SetMode(Mode(0o666))),
        Err(SjError::PermissionDenied)
    );
    sj.seg_ctl(p0, sid, SegCtl::SetMode(Mode(0o666))).unwrap();
}

#[test]
fn switch_stats_and_current_tracking() {
    let (mut sj, pid) = setup();
    assert_eq!(sj.current_vas(pid), None);
    let vid = sj.vas_create(pid, "v", Mode(0o600)).unwrap();
    let vh = sj.vas_attach(pid, vid).unwrap();
    sj.vas_switch(pid, vh).unwrap();
    assert_eq!(sj.current_vas(pid), Some(vh));
    sj.vas_switch_home(pid).unwrap();
    assert_eq!(sj.current_vas(pid), None);
    assert_eq!(sj.stats().switches, 2);
}

#[test]
fn exit_process_releases_locks_and_attachments() {
    let (mut sj, p0, p1) = setup_two();
    let va = VirtAddr::new(SEG_BASE);
    let vid = sj.vas_create(p0, "v", Mode(0o660)).unwrap();
    let sid = sj.seg_alloc(p0, "s", va, 1 << 20, Mode(0o660)).unwrap();
    sj.seg_attach(p0, vid, sid, AttachMode::ReadWrite).unwrap();
    let vh0 = sj.vas_attach(p0, vid).unwrap();
    let vh1 = sj.vas_attach(p1, vid).unwrap();

    // p0 dies while switched in, holding the exclusive lock.
    sj.vas_switch(p0, vh0).unwrap();
    assert_eq!(sj.vas_switch(p1, vh1), Err(SjError::WouldBlock));
    sj.exit_process(p0).unwrap();

    // The lock is free and the VAS is usable by survivors.
    sj.vas_switch(p1, vh1).unwrap();
    sj.kernel_mut().store_u64(p1, va, 1).unwrap();
    assert!(sj.kernel().process(p0).is_err(), "process is gone");
    assert_eq!(
        sj.vas(vid).unwrap().attach_count(),
        1,
        "p0's attachment removed"
    );
}

/// A fault plan that fails the segment's object allocation must leave
/// nothing behind on `backing`: the typed error, no registered segment,
/// no frame taken, and the same allocation succeeding afterwards.
fn fault_plan_fails_segment_allocation_cleanly(backing: Backing) {
    use sjmp_os::{FaultPlan, FaultSite, OsError};
    let (mut sj, pid) = setup();
    sj.kernel_mut().set_nvm_tier(16 << 20);
    let allocated = sj.kernel_mut().phys_mut().allocated_frames();
    sj.kernel_mut()
        .set_fault_plan(Some(FaultPlan::new(0).fail_nth(FaultSite::ObjectAlloc, 1)));
    let base = VirtAddr::new(SEG_BASE);
    assert_eq!(
        sj.seg_alloc_with(pid, "seg", base, 2 << 20, Mode(0o600), backing),
        Err(SjError::Os(OsError::Mem(sjmp_mem::MemError::OutOfFrames))),
        "{backing:?}"
    );
    assert!(
        sj.seg_find("seg").is_err(),
        "{backing:?}: no segment registered"
    );
    assert_eq!(
        sj.kernel_mut().phys_mut().allocated_frames(),
        allocated,
        "{backing:?}: no frame taken"
    );
    // Nothing is held back: a segment can still take 16 MiB, the whole
    // NVM tier for an NVM backing.
    let sid = sj
        .seg_alloc_with(pid, "seg", base, 16 << 20, Mode(0o600), backing)
        .unwrap();
    assert_eq!(sj.segment(sid).unwrap().backing(), backing);
}

#[test]
fn a_fault_plan_fails_a_segment_allocation_cleanly_on_every_backing() {
    for backing in [
        Backing::Dram,
        Backing::Aligned(PageSize::Size2M),
        Backing::Demand,
        Backing::Nvm,
    ] {
        fault_plan_fails_segment_allocation_cleanly(backing);
    }
}

#[test]
fn seg_clone_keeps_the_backing_and_announces_the_clone() {
    use sjmp_trace::{EventKind, Phase, Tracer};
    let (mut sj, pid) = setup();
    sj.kernel_mut().set_nvm_tier(16 << 20);
    let nvm_base = VirtAddr::new(SEG_BASE);
    let huge_base = VirtAddr::new(SEG_BASE + (1 << 39));
    let nvm = sj
        .seg_alloc_with(pid, "nvm", nvm_base, 1 << 20, Mode(0o600), Backing::Nvm)
        .unwrap();
    let huge = Backing::Aligned(PageSize::Size2M);
    let big = sj
        .seg_alloc_with(pid, "huge", huge_base, 4 << 20, Mode(0o600), huge)
        .unwrap();
    let vid = sj.vas_create(pid, "v", Mode(0o600)).unwrap();
    sj.seg_attach(pid, vid, nvm, AttachMode::ReadWrite).unwrap();
    sj.seg_attach(pid, vid, big, AttachMode::ReadWrite).unwrap();
    let vh = sj.vas_attach(pid, vid).unwrap();
    sj.vas_switch(pid, vh).unwrap();
    sj.kernel_mut()
        .store_u64(pid, nvm_base.add(8), 0x4e56)
        .unwrap();
    sj.kernel_mut()
        .store_u64(pid, huge_base.add((2 << 20) + 8), 0x2a)
        .unwrap();
    sj.vas_switch_home(pid).unwrap();

    let tracer = Tracer::new(1 << 12);
    sj.set_tracer(tracer.clone());
    let nvm_copy = sj.seg_clone(pid, nvm, "nvm-copy").unwrap();
    let huge_copy = sj.seg_clone(pid, big, "huge-copy").unwrap();

    // An NVM clone stays NVM, frames included; a 2 MiB clone keeps its
    // page size.
    let copy = sj.segment(nvm_copy).unwrap();
    assert_eq!(copy.backing(), Backing::Nvm);
    let object = copy.object();
    let pfn = sj.kernel().vmobject(object).unwrap().frame_of_page(0);
    assert!(sj.kernel_mut().phys_mut().is_nvm(pfn.unwrap()));
    assert_eq!(sj.segment(huge_copy).unwrap().page_size(), PageSize::Size2M);
    assert_eq!(
        sj.seg_contents(pid, nvm_copy).unwrap(),
        sj.seg_contents(pid, nvm).unwrap()
    );
    assert_eq!(
        sj.seg_contents(pid, huge_copy).unwrap(),
        sj.seg_contents(pid, big).unwrap()
    );

    // Each clone announces its geometry, like any new segment.
    let announced: Vec<(EventKind, u64, u64)> = tracer
        .events()
        .into_iter()
        .filter(|e| e.phase == Phase::Instant)
        .filter(|e| matches!(e.kind, EventKind::SegRegister | EventKind::SegExtent))
        .map(|e| (e.kind, e.arg0, e.arg1))
        .collect();
    assert_eq!(
        announced,
        vec![
            (EventKind::SegRegister, nvm_copy.0, nvm_base.raw()),
            (EventKind::SegExtent, nvm_copy.0, 1 << 20),
            (EventKind::SegRegister, huge_copy.0, huge_base.raw()),
            (EventKind::SegExtent, huge_copy.0, 4 << 20),
        ]
    );
    assert!(sj.check_invariants().is_empty());
}

#[test]
fn a_segment_reaching_past_the_address_space_is_an_address_conflict() {
    // Page rounding and the end address saturate instead of overflowing.
    let (mut sj, pid) = setup();
    for size in [u64::MAX, u64::MAX - SEG_BASE] {
        assert!(matches!(
            sj.seg_alloc(pid, "s", VirtAddr::new(SEG_BASE), size, Mode(0o600)),
            Err(SjError::AddressConflict(_))
        ));
    }
    assert!(sj.seg_find("s").is_err());
}

#[test]
fn nvm_segments_cost_more_to_access() {
    let (mut sj, pid) = setup();
    sj.kernel_mut().set_nvm_tier(16 << 20);
    let vid = sj.vas_create(pid, "tiered", Mode(0o600)).unwrap();
    let dram = sj
        .seg_alloc(
            pid,
            "dram-seg",
            VirtAddr::new(SEG_BASE),
            1 << 20,
            Mode(0o600),
        )
        .unwrap();
    let nvm = sj
        .seg_alloc_with(
            pid,
            "nvm-seg",
            VirtAddr::new(SEG_BASE + (1u64 << 39)),
            1 << 20,
            Mode(0o600),
            Backing::Nvm,
        )
        .unwrap();
    sj.seg_attach(pid, vid, dram, AttachMode::ReadWrite)
        .unwrap();
    sj.seg_attach(pid, vid, nvm, AttachMode::ReadWrite).unwrap();
    let vh = sj.vas_attach(pid, vid).unwrap();
    sj.vas_switch(pid, vh).unwrap();

    let clock = sj.kernel().clock().clone();
    // Warm both translations first.
    sj.kernel_mut()
        .store_u64(pid, VirtAddr::new(SEG_BASE), 1)
        .unwrap();
    sj.kernel_mut()
        .store_u64(pid, VirtAddr::new(SEG_BASE + (1u64 << 39)), 1)
        .unwrap();
    let t0 = clock.now();
    for i in 0..64u64 {
        sj.kernel_mut()
            .store_u64(pid, VirtAddr::new(SEG_BASE + i * 8), i)
            .unwrap();
    }
    let dram_cost = clock.since(t0);
    let t1 = clock.now();
    for i in 0..64u64 {
        sj.kernel_mut()
            .store_u64(pid, VirtAddr::new(SEG_BASE + (1u64 << 39) + i * 8), i)
            .unwrap();
    }
    let nvm_cost = clock.since(t1);
    assert!(
        nvm_cost > 5 * dram_cost,
        "NVM writes {nvm_cost} vs DRAM {dram_cost}"
    );
    // Data is intact on both tiers.
    assert_eq!(
        sj.kernel_mut()
            .load_u64(pid, VirtAddr::new(SEG_BASE + 8))
            .unwrap(),
        1
    );
    assert_eq!(
        sj.kernel_mut()
            .load_u64(pid, VirtAddr::new(SEG_BASE + (1u64 << 39) + 8))
            .unwrap(),
        1
    );
}

#[test]
fn nvm_requires_a_configured_tier() {
    let (mut sj, pid) = setup();
    assert!(sj
        .seg_alloc_with(
            pid,
            "no-tier",
            VirtAddr::new(SEG_BASE),
            4096,
            Mode(0o600),
            Backing::Nvm
        )
        .is_err());
}

#[test]
fn switch_downgrades_write_hold_to_read() {
    // One process moves from a VAS mapping segment S read-write to a VAS
    // mapping S read-only. Its hold must downgrade so another writer can
    // then take the exclusive lock only after the reader leaves too.
    let (mut sj, p0, p1) = setup_two();
    let va = VirtAddr::new(SEG_BASE);
    let sid = sj.seg_alloc(p0, "s", va, 1 << 20, Mode(0o660)).unwrap();
    let v_rw = sj.vas_create(p0, "v-rw", Mode(0o660)).unwrap();
    sj.seg_attach(p0, v_rw, sid, AttachMode::ReadWrite).unwrap();
    let v_ro = sj.vas_create(p0, "v-ro", Mode(0o660)).unwrap();
    sj.seg_attach(p0, v_ro, sid, AttachMode::ReadOnly).unwrap();

    let vh_rw = sj.vas_attach(p0, v_rw).unwrap();
    let vh_ro = sj.vas_attach(p0, v_ro).unwrap();
    sj.vas_switch(p0, vh_rw).unwrap();
    assert_eq!(sj.segment(sid).unwrap().lock().writer(), Some(p0));

    // Direct RW -> RO switch: writer hold becomes a reader hold.
    sj.vas_switch(p0, vh_ro).unwrap();
    assert_eq!(sj.segment(sid).unwrap().lock().writer(), None);
    assert_eq!(sj.segment(sid).unwrap().lock().reader_count(), 1);

    // Another reader may now join...
    let p1_vh = sj.vas_attach(p1, v_ro).unwrap();
    sj.vas_switch(p1, p1_vh).unwrap();
    // ...but a writer still cannot.
    let p1_rw = sj.vas_attach(p1, v_rw).unwrap();
    sj.vas_switch_home(p1).unwrap();
    assert_eq!(sj.vas_switch(p1, p1_rw), Err(SjError::WouldBlock));
    sj.vas_switch_home(p0).unwrap();
    sj.vas_switch(p1, p1_rw).unwrap();
}

#[test]
fn switch_upgrades_read_hold_to_write_when_sole_reader() {
    let (mut sj, p0, p1) = setup_two();
    let va = VirtAddr::new(SEG_BASE);
    let sid = sj.seg_alloc(p0, "s", va, 1 << 20, Mode(0o660)).unwrap();
    let v_rw = sj.vas_create(p0, "v-rw", Mode(0o660)).unwrap();
    sj.seg_attach(p0, v_rw, sid, AttachMode::ReadWrite).unwrap();
    let v_ro = sj.vas_create(p0, "v-ro", Mode(0o660)).unwrap();
    sj.seg_attach(p0, v_ro, sid, AttachMode::ReadOnly).unwrap();

    let vh_ro0 = sj.vas_attach(p0, v_ro).unwrap();
    let vh_rw0 = sj.vas_attach(p0, v_rw).unwrap();
    sj.vas_switch(p0, vh_ro0).unwrap();
    // Sole reader upgrades RO -> RW directly.
    sj.vas_switch(p0, vh_rw0).unwrap();
    assert_eq!(sj.segment(sid).unwrap().lock().writer(), Some(p0));
    assert_eq!(sj.segment(sid).unwrap().lock().reader_count(), 0);
    sj.vas_switch_home(p0).unwrap();

    // With a second reader present, the upgrade must fail and roll back
    // to the read hold.
    let vh_ro1 = sj.vas_attach(p1, v_ro).unwrap();
    sj.vas_switch(p0, vh_ro0).unwrap();
    sj.vas_switch(p1, vh_ro1).unwrap();
    assert_eq!(sj.vas_switch(p0, vh_rw0), Err(SjError::WouldBlock));
    assert_eq!(
        sj.segment(sid).unwrap().lock().reader_count(),
        2,
        "hold preserved"
    );
    // p0 can still read through its current VAS.
    assert!(sj.kernel_mut().load_u64(p0, va).is_ok());
}

#[test]
fn segment_image_survives_a_reboot() {
    // The paper's final §7 item: "the persistency of multiple virtual
    // address spaces (for example, across reboots)". Build a pointer-rich
    // heap, save its VAS, boot a brand-new machine on the same disk, load
    // it — the pointers still work because the base address travels with
    // the image.
    let (mut sj, pid) = setup();
    let va = VirtAddr::new(SEG_BASE);
    let vid = sj.vas_create(pid, "persist", Mode(0o660)).unwrap();
    let sid = sj.seg_alloc(pid, "pseg", va, 1 << 20, Mode(0o660)).unwrap();
    sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite).unwrap();
    let vh = sj.vas_attach(pid, vid).unwrap();
    sj.vas_switch(pid, vh).unwrap();
    let heap = VasHeap::format(&mut sj, pid, sid).unwrap();
    let node = heap.malloc(&mut sj, pid, 16).unwrap();
    sj.kernel_mut().store_u64(pid, node, 0xbeef).unwrap();
    heap.set_root(&mut sj, pid, node).unwrap();
    sj.vas_switch_home(pid).unwrap();

    // Cannot save while someone is switched in (lock held).
    sj.vas_switch(pid, vh).unwrap();
    assert!(matches!(sj.vas_save(pid, vid), Err(SjError::Busy(_))));
    assert!(matches!(sj.seg_contents(pid, sid), Err(SjError::Busy(_))));
    sj.vas_switch_home(pid).unwrap();
    sj.vas_save(pid, vid).unwrap();
    let contents = sj.seg_contents(pid, sid).unwrap();
    let mut disk = sj.kernel_mut().take_disk();
    drop(sj); // "power off"
    disk.crash();

    // New machine, new kernel, new process, same disk.
    let mut kernel = Kernel::new(KernelFlavor::DragonFly, MachineId::M2);
    kernel.attach_disk(disk);
    let mut sj2 = SpaceJmp::new(kernel);
    let p2 = sj2.kernel_mut().spawn("p2", Creds::new(100, 100)).unwrap();
    sj2.kernel_mut().activate(p2).unwrap();
    let vid2 = sj2.vas_load(p2, "persist").unwrap();
    let restored = sj2.seg_find("pseg").unwrap();
    assert_eq!(sj2.segment(restored).unwrap().base(), va);
    assert_eq!(sj2.seg_contents(p2, restored).unwrap(), contents);
    let vh2 = sj2.vas_attach(p2, vid2).unwrap();
    sj2.vas_switch(p2, vh2).unwrap();
    let heap2 = VasHeap::open(&mut sj2, p2, restored).unwrap();
    let root = heap2.root(&mut sj2, p2).unwrap();
    assert_eq!(root, node, "pointer value identical across the reboot");
    assert_eq!(sj2.kernel_mut().load_u64(p2, root).unwrap(), 0xbeef);
}

#[test]
fn superpage_segments_map_with_huge_pages_end_to_end() {
    // A segment on a 2 MiB-aligned backing attaches and
    // switches like any other segment, but reaches the TLB as superpage
    // entries: one walk covers the whole 2 MiB, and interior touches hit.
    let (mut sj, pid) = setup();
    let va = VirtAddr::new(SEG_BASE); // 2 MiB-aligned by construction
    let size = 4 << 20; // two 2 MiB pages
    let huge = Backing::Aligned(PageSize::Size2M);
    let vid = sj.vas_create(pid, "huge", Mode(0o660)).unwrap();
    let sid = sj
        .seg_alloc_with(pid, "hseg", va, size, Mode(0o660), huge)
        .unwrap();
    sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite).unwrap();
    let vh = sj.vas_attach(pid, vid).unwrap();
    sj.vas_switch(pid, vh).unwrap();

    let core = sj.kernel_mut().process(pid).unwrap().core();
    let walks_before = {
        let (mmu, _) = sj.kernel_mut().core_mem(core);
        mmu.stats().walks
    };

    // Touch both superpages at interior offsets, then re-touch the first:
    // two walks total, and the re-touch is a TLB hit.
    sj.kernel_mut().store_u64(pid, va.add(0x12340), 1).unwrap();
    sj.kernel_mut()
        .store_u64(pid, va.add((2 << 20) + 0x998), 2)
        .unwrap();
    assert_eq!(sj.kernel_mut().load_u64(pid, va.add(0x12340)).unwrap(), 1);

    let (mmu, _) = sj.kernel_mut().core_mem(core);
    assert_eq!(mmu.stats().walks - walks_before, 2);
    assert_eq!(mmu.tlb_mut().reach_bytes(), 2 * (2 << 20));

    // Misaligned base or ragged size is rejected with the typed error.
    let skew = VirtAddr::new(SEG_BASE + 0x10_0000_0000 + 0x1000);
    let err = sj
        .seg_alloc_with(pid, "skew", skew, 2 << 20, Mode(0o660), huge)
        .unwrap_err();
    assert!(matches!(
        err,
        SjError::Os(sjmp_os::OsError::Misaligned { requested, .. }) if requested == skew.raw()
    ));
    let ragged = VirtAddr::new(SEG_BASE + 0x20_0000_0000);
    let err = sj
        .seg_alloc_with(pid, "rag", ragged, (2 << 20) + 0x1000, Mode(0o660), huge)
        .unwrap_err();
    assert!(matches!(
        err,
        SjError::Os(sjmp_os::OsError::Misaligned { .. })
    ));
}

/// Fills `pid`'s cspace and returns the slot of one filler capability,
/// so a test can make room again.
fn fill_cspace(sj: &mut SpaceJmp, pid: Pid) -> sjmp_os::CapSlot {
    use sjmp_os::{CapKind, CapRights, Capability};
    let cspace = sj.kernel_mut().process_mut(pid).unwrap().cspace_mut();
    // Empty untyped RAM names no VAS or segment, so the fillers are
    // nothing the invariant audit objects to.
    let filler = || {
        let kind = CapKind::Ram {
            base: sjmp_mem::Pfn(0),
            frames: 0,
        };
        Capability::new(kind, CapRights::ALL)
    };
    let first = cspace.insert(filler()).unwrap();
    while cspace.insert(filler()).is_ok() {}
    first
}

#[test]
fn a_full_cspace_fails_segment_allocation_and_cloning_cleanly() {
    use sjmp_os::{CapError, OsError};
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::Barrelfish, MachineId::M2));
    let pid = sj.kernel_mut().spawn("p", Creds::new(100, 100)).unwrap();
    sj.kernel_mut().activate(pid).unwrap();
    let base = VirtAddr::new(SEG_BASE);
    let src = sj
        .seg_alloc(pid, "src", base, 1 << 20, Mode(0o600))
        .unwrap();
    let room = fill_cspace(&mut sj, pid);
    let allocated = sj.kernel_mut().phys_mut().allocated_frames();
    let full = Err(SjError::Os(OsError::Cap(CapError::NoSlots)));
    for backing in [Backing::Dram, Backing::Demand] {
        assert_eq!(
            sj.seg_alloc_with(pid, "seg", base, 1 << 20, Mode(0o600), backing),
            full,
            "{backing:?}"
        );
    }
    assert_eq!(sj.seg_clone(pid, src, "copy"), full);
    for name in ["seg", "copy"] {
        assert_eq!(sj.seg_find(name), Err(SjError::NotFound), "{name}");
    }
    assert_eq!(
        sj.kernel_mut().phys_mut().allocated_frames(),
        allocated,
        "no frame taken"
    );
    let problems = sj.check_invariants();
    assert!(problems.is_empty(), "{problems:?}");

    // With one slot free again, the same allocation succeeds.
    sj.kernel_mut()
        .process_mut(pid)
        .unwrap()
        .cspace_mut()
        .delete(room);
    let sid = sj
        .seg_alloc(pid, "seg", base, 1 << 20, Mode(0o600))
        .unwrap();
    assert_eq!(sj.seg_find("seg"), Ok(sid));
    assert!(sj.check_invariants().is_empty());
}

#[test]
fn a_full_cspace_fails_vas_creation_cleanly() {
    use sjmp_os::{CapError, OsError};
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::Barrelfish, MachineId::M2));
    let pid = sj.kernel_mut().spawn("p", Creds::new(100, 100)).unwrap();
    sj.kernel_mut().activate(pid).unwrap();
    for i in 0..64 {
        sj.vas_create(pid, &format!("v{i}"), Mode(0o600)).unwrap();
    }
    let free = sj.kernel_mut().phys_mut().free_frames();
    let full = Err(SjError::Os(OsError::Cap(CapError::NoSlots)));
    assert_eq!(sj.vas_create(pid, "v64", Mode(0o600)), full);
    assert_eq!(sj.vas_find("v64"), Err(SjError::NotFound));
    assert_eq!(
        sj.kernel_mut().phys_mut().free_frames(),
        free,
        "the new root is freed"
    );
    // The name was never taken, so a retry fails the same way.
    assert_eq!(sj.vas_create(pid, "v64", Mode(0o600)), full);
    let problems = sj.check_invariants();
    assert!(problems.is_empty(), "{problems:?}");
}

fn barrelfish() -> (SpaceJmp, Pid) {
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::Barrelfish, MachineId::M2));
    let pid = sj.kernel_mut().spawn("p", Creds::new(100, 100)).unwrap();
    sj.kernel_mut().activate(pid).unwrap();
    (sj, pid)
}

fn live_caps(sj: &SpaceJmp, pid: Pid) -> usize {
    sj.kernel().process(pid).unwrap().cspace().live_count()
}

#[test]
fn destroying_a_vas_frees_its_capability_slot() {
    let (mut sj, pid) = barrelfish();
    let held = live_caps(&sj, pid);
    // Twice the 64-slot cspace: every create finds a slot again.
    for i in 0..128 {
        let vid = sj.vas_create(pid, "v", Mode(0o600));
        let vid = vid.unwrap_or_else(|e| panic!("create {i}: {e:?}"));
        assert_eq!(live_caps(&sj, pid), held + 1, "create {i}");
        sj.vas_ctl(pid, VasCtl::Destroy, vid).unwrap();
        assert_eq!(live_caps(&sj, pid), held, "destroy {i}");
        let problems = sj.check_invariants();
        assert!(problems.is_empty(), "round {i}: {problems:?}");
    }
    assert_eq!(sj.vas_find("v"), Err(SjError::NotFound));
}

#[test]
fn destroying_a_segment_frees_its_capability_slot() {
    let (mut sj, pid) = barrelfish();
    let held = live_caps(&sj, pid);
    let base = VirtAddr::new(SEG_BASE);
    for i in 0..128 {
        let sid = sj.seg_alloc(pid, "s", base, 1 << 20, Mode(0o600));
        let sid = sid.unwrap_or_else(|e| panic!("alloc {i}: {e:?}"));
        assert_eq!(live_caps(&sj, pid), held + 1, "alloc {i}");
        sj.seg_ctl(pid, sid, SegCtl::Destroy).unwrap();
        assert_eq!(live_caps(&sj, pid), held, "destroy {i}");
        let problems = sj.check_invariants();
        assert!(problems.is_empty(), "round {i}: {problems:?}");
    }
    assert_eq!(sj.seg_find("s"), Err(SjError::NotFound));
}

#[test]
fn the_audit_reports_a_capability_for_a_destroyed_object() {
    use sjmp_os::{CapKind, CapRights, Capability, ObjClass};
    let (mut sj, pid) = barrelfish();
    let vid = sj.vas_create(pid, "v", Mode(0o600)).unwrap();
    assert_eq!(sj.check_invariants(), Vec::<String>::new());
    // A capability naming a segment id that was never allocated, as a
    // destroy that forgot to delete it would leave behind.
    let dangling = Capability::new(
        CapKind::Object {
            class: ObjClass::Segment,
            id: 999,
        },
        CapRights::ALL,
    );
    let cspace = sj.kernel_mut().process_mut(pid).unwrap().cspace_mut();
    let slot = cspace.insert(dangling).unwrap();
    assert_eq!(
        sj.check_invariants(),
        vec![format!(
            "{pid:?} holds capability {slot:?} for destroyed Segment 999"
        )]
    );
    // The VAS's own capability is still live and names a live VAS.
    sj.kernel_mut()
        .process_mut(pid)
        .unwrap()
        .cspace_mut()
        .delete(slot);
    assert_eq!(sj.check_invariants(), Vec::<String>::new());
    sj.vas_ctl(pid, VasCtl::Destroy, vid).unwrap();
    assert_eq!(sj.check_invariants(), Vec::<String>::new());
}

#[test]
fn a_snapshot_that_runs_out_of_memory_leaves_nothing() {
    use sjmp_mem::cost::{CostModel, MachineProfile};
    use sjmp_os::OsError;
    let profile = MachineProfile {
        mem_bytes: 900 * 4096,
        ..MachineProfile::default()
    };
    let kernel = Kernel::with_profile(KernelFlavor::DragonFly, profile, CostModel::default());
    let mut sj = SpaceJmp::new(kernel);
    let pid = sj.kernel_mut().spawn("p", Creds::new(100, 100)).unwrap();
    let vid = sj.vas_create(pid, "orig", Mode(0o600)).unwrap();
    for (i, name) in ["a", "b"].into_iter().enumerate() {
        let base = VirtAddr::new(SEG_BASE + (i as u64) * (1 << 30));
        let sid = sj
            .seg_alloc(pid, name, base, 256 * 4096, Mode(0o600))
            .unwrap();
        sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite).unwrap();
    }
    let free = sj.kernel_mut().phys_mut().free_frames();
    // The retry must fail the same way, not with NameTaken.
    for attempt in 0..2 {
        let snap = sj.vas_snapshot(pid, vid, "snap");
        assert!(
            matches!(snap, Err(SjError::Os(OsError::OutOfMemory { .. }))),
            "attempt {attempt}: {snap:?}"
        );
        assert_eq!(sj.vas_find("snap"), Err(SjError::NotFound));
        assert_eq!(sj.seg_find("snap/a"), Err(SjError::NotFound));
        assert_eq!(sj.kernel_mut().phys_mut().free_frames(), free);
        let problems = sj.check_invariants();
        assert!(problems.is_empty(), "{problems:?}");
    }
}

#[test]
fn a_clone_whose_second_attach_fails_leaves_nothing() {
    // The cloner may read the VAS and use segment `a`, but segment `b`
    // is its owner's alone: the clone's second attach is refused.
    let (mut sj, owner) = setup();
    let cloner = sj.kernel_mut().spawn("c", Creds::new(200, 200)).unwrap();
    let vid = sj.vas_create(owner, "orig", Mode(0o666)).unwrap();
    let mut sids = Vec::new();
    for (i, (name, mode)) in [("a", 0o666), ("b", 0o600)].into_iter().enumerate() {
        let base = VirtAddr::new(SEG_BASE + (i as u64) * (1 << 39));
        let sid = sj
            .seg_alloc(owner, name, base, 1 << 20, Mode(mode))
            .unwrap();
        sj.seg_attach(owner, vid, sid, AttachMode::ReadWrite)
            .unwrap();
        sids.push(sid);
    }
    let free = sj.kernel_mut().phys_mut().free_frames();
    assert_eq!(
        sj.vas_clone(cloner, vid, "copy"),
        Err(SjError::PermissionDenied)
    );
    assert_eq!(sj.vas_find("copy"), Err(SjError::NotFound));
    assert_eq!(sj.kernel_mut().phys_mut().free_frames(), free);
    for sid in sids {
        assert_eq!(sj.segment(sid).unwrap().attach_count(), 1, "{sid:?}");
    }
    assert_eq!(
        sj.vas_clone(cloner, vid, "copy"),
        Err(SjError::PermissionDenied),
        "not NameTaken"
    );
    let problems = sj.check_invariants();
    assert!(problems.is_empty(), "{problems:?}");
}
