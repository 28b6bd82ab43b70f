//! VAS-aware heap allocation: dlmalloc-style mspaces inside segments.
//!
//! Section 4.1: the runtime "provides allocation of heap space (malloc)
//! within a specific segment while inside an address space", built over
//! dlmalloc mspaces with "wrapper functions for malloc and free which
//! supply the correct mspace instance ... depending on the currently
//! active address space and segment."
//!
//! [`VasHeap`] binds an [`sjmp_alloc::Mspace`] to a SpaceJMP segment. The
//! allocator state lives in the segment itself, so:
//!
//! * any process switched into a VAS mapping the segment writable can
//!   allocate and free;
//! * the heap — including every pointer into it — survives process exit,
//!   which is exactly what the SAMTools experiment exploits to keep
//!   pointer-rich data structures live between tool invocations.

use sjmp_alloc::{AllocError, MemAccess, Mspace};
use sjmp_mem::{Access, VirtAddr};
use sjmp_os::{Pid, ProcMem};

use crate::error::{SjError, SjResult};
use crate::segment::SegId;
use crate::spacejmp::SpaceJmp;

/// [`MemAccess`] over a virtual range of a process's current address
/// space: every allocator word access becomes a simulated load/store
/// through the MMU (and is charged cycles accordingly). One allocator
/// call holds one [`ProcMem`], so it resolves the process once.
struct KernelMem<'a> {
    mem: ProcMem<'a>,
    base: VirtAddr,
    size: u64,
}

impl<'a> KernelMem<'a> {
    /// Opens the heap at `base` for `access`, after a host-only check
    /// that the current VAS maps it so. The allocator's [`MemAccess`]
    /// cannot fail, so a store through a read-only mapping must be
    /// refused here rather than fault inside it. The check and the
    /// [`ProcMem`] come from one kernel lookup of the process.
    fn new(
        sj: &'a mut SpaceJmp,
        pid: Pid,
        base: VirtAddr,
        size: u64,
        access: Access,
    ) -> SjResult<Self> {
        let (mem, region) = sj.kernel_mut().proc_mem_at(pid, base)?;
        match region {
            None => Err(SjError::NotAttached),
            Some(region) if !region.permits(access) => Err(SjError::PermissionDenied),
            Some(_) => Ok(KernelMem { mem, base, size }),
        }
    }
}

impl MemAccess for KernelMem<'_> {
    fn size(&self) -> u64 {
        self.size
    }

    fn read_u64(&mut self, offset: u64) -> u64 {
        assert!(
            offset + 8 <= self.size,
            "allocator access out of segment bounds"
        );
        self.mem
            .load_u64(self.base.add(offset))
            .expect("heap segment must be mapped in the current VAS")
    }

    fn write_u64(&mut self, offset: u64, value: u64) {
        assert!(
            offset + 8 <= self.size,
            "allocator access out of segment bounds"
        );
        self.mem
            .store_u64(self.base.add(offset), value)
            .expect("heap segment must be mapped writable in the current VAS")
    }

    fn read_until_nonzero(&mut self, offset: u64, max: u64) -> (u64, u64) {
        assert!(
            offset + max * 8 <= self.size,
            "allocator access out of segment bounds"
        );
        self.mem
            .load_until_nonzero(self.base.add(offset), max)
            .expect("heap segment must be mapped in the current VAS")
    }
}

/// A heap living inside a SpaceJMP segment.
///
/// The handle itself is plain data (segment id, base, size); all state is
/// in the segment, so any number of `VasHeap` values may refer to the same
/// heap and a fresh one can be constructed after re-attaching in a new
/// process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VasHeap {
    sid: SegId,
    base: VirtAddr,
    size: u64,
}

impl VasHeap {
    /// Formats a new heap in `sid`, erasing its contents. The caller must
    /// currently be switched into a VAS mapping the segment writable.
    ///
    /// # Errors
    ///
    /// * [`SjError::NotFound`] for unknown segments.
    /// * [`SjError::PermissionDenied`] when the current VAS maps the
    ///   segment read-only.
    /// * Allocation errors surfaced from the access path.
    pub fn format(sj: &mut SpaceJmp, pid: Pid, sid: SegId) -> SjResult<VasHeap> {
        let (base, size) = Self::segment_extent(sj, sid)?;
        Mspace::format(KernelMem::new(sj, pid, base, size, Access::Write)?).map_err(alloc_err)?;
        Ok(VasHeap { sid, base, size })
    }

    /// Opens a heap previously formatted in `sid` (for example by another
    /// process).
    ///
    /// # Errors
    ///
    /// [`SjError::InvalidArgument`] if the segment holds no heap.
    pub fn open(sj: &mut SpaceJmp, pid: Pid, sid: SegId) -> SjResult<VasHeap> {
        let (base, size) = Self::segment_extent(sj, sid)?;
        Mspace::attach(KernelMem::new(sj, pid, base, size, Access::Read)?).map_err(alloc_err)?;
        Ok(VasHeap { sid, base, size })
    }

    fn segment_extent(sj: &SpaceJmp, sid: SegId) -> SjResult<(VirtAddr, u64)> {
        let seg = sj.segment(sid)?;
        Ok((seg.base(), seg.size()))
    }

    /// The segment hosting this heap.
    pub fn segment(&self) -> SegId {
        self.sid
    }

    /// The heap's base virtual address.
    pub fn base(&self) -> VirtAddr {
        self.base
    }

    fn mspace<'a>(
        &self,
        sj: &'a mut SpaceJmp,
        pid: Pid,
        access: Access,
    ) -> SjResult<Mspace<KernelMem<'a>>> {
        Mspace::attach(KernelMem::new(sj, pid, self.base, self.size, access)?).map_err(alloc_err)
    }

    /// Allocates `size` bytes; returns a virtual address valid in any
    /// address space that maps the segment.
    ///
    /// # Errors
    ///
    /// [`SjError::Os`]-wrapped out-of-memory, [`SjError::NotAttached`]
    /// when the current VAS does not map the heap segment, or
    /// [`SjError::PermissionDenied`] when it maps it read-only.
    pub fn malloc(&self, sj: &mut SpaceJmp, pid: Pid, size: u64) -> SjResult<VirtAddr> {
        let base = self.base;
        let off = self
            .mspace(sj, pid, Access::Write)?
            .malloc(size)
            .map_err(alloc_err)?;
        Ok(base.add(off))
    }

    /// Allocates zeroed memory.
    ///
    /// # Errors
    ///
    /// As [`Self::malloc`].
    pub fn calloc(&self, sj: &mut SpaceJmp, pid: Pid, size: u64) -> SjResult<VirtAddr> {
        let base = self.base;
        let off = self
            .mspace(sj, pid, Access::Write)?
            .calloc(size)
            .map_err(alloc_err)?;
        Ok(base.add(off))
    }

    /// Frees an allocation made from this heap.
    ///
    /// # Errors
    ///
    /// [`SjError::InvalidArgument`] for pointers outside the heap or not
    /// referencing a live allocation.
    pub fn free(&self, sj: &mut SpaceJmp, pid: Pid, ptr: VirtAddr) -> SjResult<()> {
        if ptr < self.base || ptr >= self.base.add(self.size) {
            return Err(SjError::InvalidArgument("pointer outside heap segment"));
        }
        let off = ptr.offset_from(self.base);
        self.mspace(sj, pid, Access::Write)?
            .free(off)
            .map_err(alloc_err)
    }

    /// Resizes an allocation.
    ///
    /// # Errors
    ///
    /// As [`Self::malloc`] and [`Self::free`].
    pub fn realloc(
        &self,
        sj: &mut SpaceJmp,
        pid: Pid,
        ptr: VirtAddr,
        size: u64,
    ) -> SjResult<VirtAddr> {
        if ptr < self.base || ptr >= self.base.add(self.size) {
            return Err(SjError::InvalidArgument("pointer outside heap segment"));
        }
        let base = self.base;
        let off = ptr.offset_from(base);
        let new = self
            .mspace(sj, pid, Access::Write)?
            .realloc(off, size)
            .map_err(alloc_err)?;
        Ok(base.add(new))
    }

    /// Stores the heap's application root pointer (a VA, typically the
    /// head of the data structure living in this heap), so later
    /// attachers can find it.
    ///
    /// # Errors
    ///
    /// [`SjError::NotAttached`] if the segment is not mapped,
    /// [`SjError::PermissionDenied`] if it is mapped read-only.
    pub fn set_root(&self, sj: &mut SpaceJmp, pid: Pid, root: VirtAddr) -> SjResult<()> {
        self.mspace(sj, pid, Access::Write)?.set_root(root.raw());
        Ok(())
    }

    /// Reads the heap's application root pointer ([`VirtAddr::NULL`] if
    /// never set).
    ///
    /// # Errors
    ///
    /// [`SjError::NotAttached`] if the segment is not mapped.
    pub fn root(&self, sj: &mut SpaceJmp, pid: Pid) -> SjResult<VirtAddr> {
        let raw = self.mspace(sj, pid, Access::Read)?.root();
        Ok(VirtAddr::new(raw))
    }

    /// Live payload bytes in the heap.
    ///
    /// # Errors
    ///
    /// [`SjError::NotAttached`] if the segment is not mapped.
    pub fn allocated_bytes(&self, sj: &mut SpaceJmp, pid: Pid) -> SjResult<u64> {
        Ok(self.mspace(sj, pid, Access::Read)?.allocated_bytes())
    }

    /// Live allocation count.
    ///
    /// # Errors
    ///
    /// [`SjError::NotAttached`] if the segment is not mapped.
    pub fn allocation_count(&self, sj: &mut SpaceJmp, pid: Pid) -> SjResult<u64> {
        Ok(self.mspace(sj, pid, Access::Read)?.allocation_count())
    }
}

fn alloc_err(e: AllocError) -> SjError {
    match e {
        AllocError::OutOfMemory => {
            SjError::Os(sjmp_os::OsError::Mem(sjmp_mem::MemError::OutOfFrames))
        }
        AllocError::BadMagic => SjError::InvalidArgument("segment holds no heap"),
        AllocError::TooSmall => SjError::InvalidArgument("segment too small for a heap"),
        AllocError::BadPointer(_) => SjError::InvalidArgument("invalid heap pointer"),
        AllocError::Corrupt(_) => SjError::InvalidArgument("heap metadata is corrupt"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::AttachMode;
    use sjmp_mem::{KernelFlavor, MachineId};
    use sjmp_os::{Creds, Kernel, Mode, OsError};
    use sjmp_trace::Tracer;

    const HEAP_BASE: u64 = 0x1000_0000_0000;
    const HEAP_SIZE: u64 = 64 * 1024;

    /// A process switched into a VAS holding a formatted heap.
    fn heap_process(traced: bool) -> (SpaceJmp, Pid, VasHeap) {
        let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M2));
        if traced {
            sj.kernel_mut().set_tracer(Tracer::new(1 << 20));
        }
        let pid = sj.kernel_mut().spawn("p", Creds::new(100, 100)).unwrap();
        sj.kernel_mut().activate(pid).unwrap();
        let vid = sj.vas_create(pid, "v", Mode(0o660)).unwrap();
        let va = VirtAddr::new(HEAP_BASE);
        let sid = sj
            .seg_alloc(pid, "heap", va, HEAP_SIZE, Mode(0o660))
            .unwrap();
        sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite).unwrap();
        let vh = sj.vas_attach(pid, vid).unwrap();
        sj.vas_switch(pid, vh).unwrap();
        let heap = VasHeap::format(&mut sj, pid, sid).unwrap();
        (sj, pid, heap)
    }

    /// [`KernelMem`] without its `read_until_nonzero`: the trait's
    /// word-by-word default, which the runs must equal.
    struct PerWord<'a>(KernelMem<'a>);

    impl MemAccess for PerWord<'_> {
        fn size(&self) -> u64 {
            self.0.size()
        }

        fn read_u64(&mut self, offset: u64) -> u64 {
            self.0.read_u64(offset)
        }

        fn write_u64(&mut self, offset: u64, value: u64) {
            self.0.write_u64(offset, value)
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Malloc(u64),
        Calloc(u64),
        /// Frees the i-th live allocation (modulo the live count).
        Free(usize),
        /// Reallocs the i-th live allocation.
        Realloc(usize, u64),
    }

    /// A seeded op sequence (splitmix64): small and large requests, so
    /// bin scans start in every size class and some requests fail.
    fn random_ops(seed: u64, count: usize) -> Vec<Op> {
        let mut state = seed;
        let mut next = move |bound: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        };
        (0..count)
            .map(|_| {
                let size = match next(8) {
                    0 => 1 + next(16_384),
                    _ => 1 + next(600),
                };
                match next(5) {
                    0 | 1 => Op::Malloc(size),
                    2 => Op::Calloc(size),
                    3 => Op::Free(next(1 << 16) as usize),
                    _ => Op::Realloc(next(1 << 16) as usize, size),
                }
            })
            .collect()
    }

    /// Runs `op` through an mspace over `mem`, tracking live offsets.
    fn apply<M: MemAccess>(mem: M, live: &mut Vec<u64>, op: Op) -> Result<u64, AllocError> {
        let mut ms = Mspace::attach(mem)?;
        match op {
            Op::Malloc(size) => ms.malloc(size).inspect(|&p| live.push(p)),
            Op::Calloc(size) => ms.calloc(size).inspect(|&p| live.push(p)),
            Op::Free(_) | Op::Realloc(..) if live.is_empty() => Ok(0),
            Op::Free(i) => {
                let p = live.swap_remove(i % live.len());
                ms.free(p).map(|()| p)
            }
            Op::Realloc(i, size) => {
                let i = i % live.len();
                let p = ms.realloc(live[i], size)?;
                live[i] = p;
                Ok(p)
            }
        }
    }

    fn segment_bytes(sj: &mut SpaceJmp, pid: Pid) -> Vec<u8> {
        let mut buf = vec![0; HEAP_SIZE as usize];
        let mut mem = sj.kernel_mut().proc_mem(pid).unwrap();
        mem.load_bytes(VirtAddr::new(HEAP_BASE), &mut buf).unwrap();
        buf
    }

    #[test]
    fn bin_scan_runs_equal_word_by_word_reads() {
        for seed in 0..24 {
            let traced = seed % 4 == 0;
            let (mut run_sj, run_pid, heap) = heap_process(traced);
            let (mut word_sj, word_pid, _) = heap_process(traced);
            let (mut run_live, mut word_live) = (Vec::new(), Vec::new());
            for (step, op) in random_ops(seed, 200).into_iter().enumerate() {
                let run_mem =
                    KernelMem::new(&mut run_sj, run_pid, heap.base, heap.size, Access::Write)
                        .unwrap();
                let by_run = apply(run_mem, &mut run_live, op);
                let word_mem =
                    KernelMem::new(&mut word_sj, word_pid, heap.base, heap.size, Access::Write);
                let by_word = apply(PerWord(word_mem.unwrap()), &mut word_live, op);
                let at = format!("seed {seed}, step {step}, {op:?}");
                assert_eq!(by_run, by_word, "{at}");
                let (run_k, word_k) = (run_sj.kernel(), word_sj.kernel());
                assert_eq!(run_k.now(), word_k.now(), "{at}");
                assert_eq!(run_k.stats_snapshot(), word_k.stats_snapshot(), "{at}");
            }
            assert_eq!(
                run_sj.kernel().tracer().events(),
                word_sj.kernel().tracer().events(),
                "seed {seed}"
            );
            assert_eq!(
                segment_bytes(&mut run_sj, run_pid),
                segment_bytes(&mut word_sj, word_pid),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn unmapped_heap_and_unknown_process_are_typed_errors() {
        let (mut sj, pid, heap) = heap_process(false);
        let stranger = Pid(9999);
        let gone = SjError::Os(OsError::NoSuchProcess);
        assert_eq!(heap.malloc(&mut sj, stranger, 64), Err(gone.clone()));
        sj.vas_switch_home(pid).unwrap();
        // The home space does not map the heap; an unknown process is
        // still reported as such first.
        assert_eq!(heap.malloc(&mut sj, pid, 64), Err(SjError::NotAttached));
        assert_eq!(heap.root(&mut sj, pid), Err(SjError::NotAttached));
        assert_eq!(heap.root(&mut sj, stranger), Err(gone));
    }

    #[test]
    fn huge_sizes_are_a_typed_error() {
        let (mut sj, pid, heap) = heap_process(false);
        let p = heap.malloc(&mut sj, pid, 64).unwrap();
        let oom = SjError::Os(OsError::Mem(sjmp_mem::MemError::OutOfFrames));
        for size in [u64::MAX, u64::MAX - 10] {
            assert_eq!(heap.malloc(&mut sj, pid, size), Err(oom.clone()));
            assert_eq!(heap.calloc(&mut sj, pid, size), Err(oom.clone()));
            assert_eq!(heap.realloc(&mut sj, pid, p, size), Err(oom.clone()));
        }
        assert_eq!(heap.allocation_count(&mut sj, pid), Ok(1));
        heap.free(&mut sj, pid, p).unwrap();
    }
}
