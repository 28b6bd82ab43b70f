//! Simulated physical memory: a sparse, demand-materialized frame store.
//!
//! The paper's evaluation machines hold up to 512 GiB of DRAM (Table 1).
//! Simulating that densely is impossible in a test process, so frames are
//! materialized lazily: the machine advertises a physical capacity, but a
//! 4 KiB frame only consumes host memory once it is written (or read, when
//! its zero content must be produced). This mirrors how the paper's
//! benchmarks attach to "existing pages in the kernel's page cache" without
//! paying population costs up front.
//!
//! Frames are found by frame number in a two-level table: a chunk table
//! indexed by `pfn / 512` (one chunk per 2 MiB of physical space), each
//! chunk a boxed array of 512 frame slots. A chunk exists only once one of
//! its frames is materialized, and the chunk table only reaches the
//! highest such chunk, so host memory follows the materialized frames,
//! not the advertised capacity. Every simulated access looks its frame up
//! here, so a lookup is two array indexings and no hashing.
//!
//! The store doubles as the frame allocator: [`PhysMem::alloc_frame`] hands
//! out frames from a bump pointer plus free list, and page-table nodes built
//! by [`crate::paging`] live in these frames like they would in real DRAM.

use sjmp_blk::{BlkStats, SwapDev};

use crate::addr::{Pfn, PhysAddr, PAGE_SIZE};
use crate::error::MemError;

/// One 4 KiB physical frame of simulated DRAM.
type FrameBox = Box<[u8; PAGE_SIZE as usize]>;

fn zero_frame() -> FrameBox {
    // `vec!` avoids a 4 KiB stack temporary.
    vec![0u8; PAGE_SIZE as usize]
        .into_boxed_slice()
        .try_into()
        .unwrap()
}

/// Scans `bytes`, whole little-endian words, for the first nonzero one:
/// how many words a word-by-word scan reads, and the last. Four words
/// are ORed per step, so runs of zeros cost one test per block.
#[inline]
fn first_nonzero(bytes: &[u8]) -> (u64, u64) {
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("an 8-byte word"));
    let blocks = bytes.chunks_exact(32);
    let zero_blocks = blocks
        .take_while(|block| block.chunks_exact(8).fold(0, |or, w| or | word(w)) == 0)
        .count();
    let skipped = zero_blocks * 4;
    let found = bytes[skipped * 8..]
        .chunks_exact(8)
        .map(word)
        .enumerate()
        .find(|&(_, w)| w != 0);
    match found {
        Some((i, w)) => ((skipped + i + 1) as u64, w),
        None => ((bytes.len() / 8) as u64, 0),
    }
}

/// Frames per chunk of the frame table: one chunk spans 2 MiB.
const CHUNK_FRAMES: u64 = 512;

/// The frame slots of one 2 MiB range of physical space.
type Chunk = Box<[Option<FrameBox>; CHUNK_FRAMES as usize]>;

/// Splits a frame number into its chunk-table index and chunk slot.
#[inline]
fn chunk_slot(pfn: u64) -> (usize, usize) {
    ((pfn / CHUNK_FRAMES) as usize, (pfn % CHUNK_FRAMES) as usize)
}

/// Frame `pfn`'s slot in the frame table `chunks`, creating its chunk
/// (and growing the chunk table to reach it) on demand.
#[inline]
fn slot_mut(chunks: &mut Vec<Option<Chunk>>, pfn: u64) -> &mut Option<FrameBox> {
    let (c, i) = chunk_slot(pfn);
    if c >= chunks.len() {
        chunks.resize_with(c + 1, || None);
    }
    &mut chunks[c].get_or_insert_with(|| Box::new([const { None }; CHUNK_FRAMES as usize]))[i]
}

/// Sparse simulated physical memory with a frame allocator.
///
/// # Examples
///
/// ```
/// use sjmp_mem::phys::PhysMem;
/// let mut pm = PhysMem::new(1 << 20); // 1 MiB machine
/// let f = pm.alloc_frame()?;
/// pm.write_u64(f.base(), 0xdead_beef)?;
/// assert_eq!(pm.read_u64(f.base())?, 0xdead_beef);
/// # Ok::<(), sjmp_mem::error::MemError>(())
/// ```
#[derive(Debug)]
pub struct PhysMem {
    /// The frame table: `chunks[pfn / 512][pfn % 512]` holds the frame's
    /// bytes once materialized. Never longer than the highest chunk that
    /// holds a materialized frame, plus one.
    chunks: Vec<Option<Chunk>>,
    /// Materialized frames in `chunks`.
    resident: u64,
    capacity_frames: u64,
    next_frame: u64,
    free_list: Vec<u64>,
    allocated: u64,
    /// First frame of the NVM tier, if the machine has one. Frames at or
    /// above this boundary are non-volatile memory with different access
    /// costs (the heterogeneous-memory future of the paper's Section 7).
    nvm_boundary: Option<u64>,
    /// Bump pointer for NVM allocations (grows from the boundary up).
    next_nvm_frame: u64,
    /// Freed NVM frames, sorted ascending. NVM frames never go to
    /// `free_list`, which feeds DRAM allocations.
    nvm_free_list: Vec<u64>,
    /// Simulated swap device, backed by the `sjmp-blk` block device
    /// (one block per page). A slot without device bytes records a page
    /// that was entirely zero, so swapped-out untouched pages stay
    /// sparse just like resident ones.
    swap: SwapDev,
    /// Monotone counter bumped by [`crate::paging`] on every page-table
    /// mutation (entry writes, table frees). The MMU's host-side walk
    /// cache stamps its snapshots with this, so a single integer compare
    /// revalidates a snapshot against *any* table change anywhere.
    table_gen: u64,
}

impl PhysMem {
    /// Creates a machine with `capacity_bytes` of physical memory
    /// (rounded down to whole frames).
    ///
    /// # Panics
    ///
    /// Panics if the capacity is smaller than one frame.
    pub fn new(capacity_bytes: u64) -> Self {
        let capacity_frames = capacity_bytes / PAGE_SIZE;
        assert!(
            capacity_frames > 0,
            "physical memory must hold at least one frame"
        );
        PhysMem {
            chunks: Vec::new(),
            resident: 0,
            capacity_frames,
            // Frame 0 is reserved (a null CR3 should never look valid).
            next_frame: 1,
            free_list: Vec::new(),
            allocated: 0,
            nvm_boundary: None,
            next_nvm_frame: 0,
            nvm_free_list: Vec::new(),
            swap: SwapDev::new(PAGE_SIZE),
            table_gen: 0,
        }
    }

    /// The page-table write generation: bumped on every table mutation.
    /// Host-side caches compare stamps against this to revalidate.
    pub fn table_generation(&self) -> u64 {
        self.table_gen
    }

    /// Records a page-table mutation (called by [`crate::paging`]'s
    /// entry writers), invalidating every generation-stamped snapshot.
    pub(crate) fn bump_table_generation(&mut self) {
        self.table_gen += 1;
    }

    /// Declares the top `nvm_bytes` of the physical space to be a
    /// non-volatile memory tier. DRAM allocations bump from the bottom,
    /// NVM allocations ([`Self::alloc_contiguous_nvm`]) from the boundary.
    ///
    /// # Panics
    ///
    /// Panics if the NVM tier would not leave at least one DRAM frame.
    pub fn set_nvm_tier(&mut self, nvm_bytes: u64) {
        let nvm_frames = nvm_bytes / PAGE_SIZE;
        assert!(
            nvm_frames > 0 && nvm_frames < self.capacity_frames,
            "NVM tier must be nonempty and leave DRAM frames"
        );
        let boundary = self.capacity_frames - nvm_frames;
        self.nvm_boundary = Some(boundary);
        self.next_nvm_frame = boundary;
    }

    /// Whether `pfn` belongs to the NVM tier.
    #[inline]
    pub fn is_nvm(&self, pfn: Pfn) -> bool {
        self.nvm_boundary.is_some_and(|b| pfn.0 >= b)
    }

    /// Allocates `n` consecutive frames from the NVM tier, reusing freed
    /// NVM frames first.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfFrames`] if no NVM tier was configured or it is
    /// exhausted.
    pub fn alloc_contiguous_nvm(&mut self, n: u64) -> Result<Pfn, MemError> {
        if self.nvm_boundary.is_none() {
            return Err(MemError::OutOfFrames);
        }
        // First fit among freed frames: the list is sorted and has no
        // duplicates, so a window of `n` is consecutive iff it spans `n`.
        let reuse = if n == 0 {
            None
        } else {
            self.nvm_free_list
                .windows(n as usize)
                .position(|w| w[w.len() - 1] - w[0] == n - 1)
        };
        if let Some(at) = reuse {
            let base = self.nvm_free_list[at];
            self.nvm_free_list.drain(at..at + n as usize);
            self.allocated += n;
            return Ok(Pfn(base));
        }
        if self.next_nvm_frame + n > self.capacity_frames {
            return Err(MemError::OutOfFrames);
        }
        let base = self.next_nvm_frame;
        self.next_nvm_frame += n;
        self.allocated += n;
        Ok(Pfn(base))
    }

    /// Total capacity in frames.
    pub fn capacity_frames(&self) -> u64 {
        self.capacity_frames
    }

    /// Size of the configured NVM tier in frames (0 when no tier exists).
    pub fn nvm_frames(&self) -> u64 {
        self.nvm_boundary.map_or(0, |b| self.capacity_frames - b)
    }

    /// Number of frames handed out by [`Self::alloc_frame`] and not freed.
    pub fn allocated_frames(&self) -> u64 {
        self.allocated
    }

    /// Number of frames materialized with host memory.
    pub fn resident_frames(&self) -> u64 {
        self.resident
    }

    /// Allocates one zeroed frame.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfFrames`] when the machine's physical
    /// capacity is exhausted.
    pub fn alloc_frame(&mut self) -> Result<Pfn, MemError> {
        let pfn = if let Some(f) = self.free_list.pop() {
            // Reused frames must read as zero again.
            self.take_frame(f);
            f
        } else if self.next_frame < self.nvm_boundary.unwrap_or(self.capacity_frames) {
            let f = self.next_frame;
            self.next_frame += 1;
            f
        } else {
            return Err(MemError::OutOfFrames);
        };
        self.allocated += 1;
        Ok(Pfn(pfn))
    }

    /// Allocates `n` zeroed frames with consecutive frame numbers.
    ///
    /// Contiguity is needed for segments backed by a flat physical range.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfFrames`] when fewer than `n` contiguous
    /// frames remain in the bump region.
    pub fn alloc_contiguous(&mut self, n: u64) -> Result<Pfn, MemError> {
        if self.next_frame + n > self.nvm_boundary.unwrap_or(self.capacity_frames) {
            return Err(MemError::OutOfFrames);
        }
        let base = self.next_frame;
        self.next_frame += n;
        self.allocated += n;
        Ok(Pfn(base))
    }

    /// Allocates `n` consecutive frames whose base frame number is a
    /// multiple of `align_frames` (a power of two). Huge-page mappings
    /// require naturally aligned physical ranges: a 2 MiB leaf needs a
    /// 512-frame-aligned base. Frames skipped to reach the alignment go
    /// to the free list, so they are not lost.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfFrames`] when the aligned range does not
    /// fit in the bump region.
    ///
    /// # Panics
    ///
    /// Panics if `align_frames` is not a power of two.
    pub fn alloc_contiguous_aligned(&mut self, n: u64, align_frames: u64) -> Result<Pfn, MemError> {
        assert!(
            align_frames.is_power_of_two(),
            "alignment must be a power of two"
        );
        let base = (self.next_frame + align_frames - 1) & !(align_frames - 1);
        if base + n > self.nvm_boundary.unwrap_or(self.capacity_frames) {
            return Err(MemError::OutOfFrames);
        }
        for skipped in self.next_frame..base {
            self.free_list.push(skipped);
        }
        self.next_frame = base + n;
        self.allocated += n;
        Ok(Pfn(base))
    }

    /// Returns a frame to the allocator and discards its contents.
    pub fn free_frame(&mut self, pfn: Pfn) {
        self.take_frame(pfn.0);
        self.release(pfn.0);
    }

    /// Returns an unmaterialized frame to the free list of its tier.
    fn release(&mut self, pfn: u64) {
        if self.is_nvm(Pfn(pfn)) {
            if let Err(at) = self.nvm_free_list.binary_search(&pfn) {
                self.nvm_free_list.insert(at, pfn);
            }
        } else {
            self.free_list.push(pfn);
        }
        self.allocated = self.allocated.saturating_sub(1);
    }

    /// DRAM frames [`Self::alloc_frame`] can still hand out (remaining
    /// bump region plus the free list). Contiguous allocations may fail
    /// earlier: they draw only on the bump region.
    pub fn free_frames(&self) -> u64 {
        let bump_left = self
            .nvm_boundary
            .unwrap_or(self.capacity_frames)
            .saturating_sub(self.next_frame);
        bump_left + self.free_list.len() as u64
    }

    /// Saves `pfn`'s content to the swap device, frees the frame, and
    /// returns the swap slot holding the image. The caller (the kernel's
    /// reclaim path) is responsible for having unmapped the frame first.
    pub fn swap_out(&mut self, pfn: Pfn) -> u64 {
        let image = self.take_frame(pfn.0);
        let slot = self.swap.store(image.as_deref().map(|f| f.as_slice()));
        self.release(pfn.0);
        slot
    }

    /// Reads a page image back from swap into a freshly allocated frame
    /// and releases the slot.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfFrames`] when no frame can be allocated;
    /// the slot is left intact so the fault can be retried after reclaim.
    ///
    /// # Panics
    ///
    /// Panics if `slot` holds no image — swapping in a slot twice (or one
    /// never produced by [`Self::swap_out`]) is a kernel bug.
    pub fn swap_in(&mut self, slot: u64) -> Result<Pfn, MemError> {
        assert!(self.swap.contains(slot), "swap-in of empty slot {slot}");
        let pfn = self.alloc_frame()?;
        if let Some(image) = self.swap.take(slot) {
            let boxed: FrameBox = image.into_boxed_slice().try_into().unwrap();
            if slot_mut(&mut self.chunks, pfn.0).replace(boxed).is_none() {
                self.resident += 1;
            }
        }
        Ok(pfn)
    }

    /// Discards a swapped page image without reading it back (the backing
    /// object was freed while the page was swapped out).
    pub fn discard_swap_slot(&mut self, slot: u64) {
        self.swap.discard(slot);
    }

    /// Number of swap slots currently holding page images.
    pub fn swap_slots_used(&self) -> u64 {
        self.swap.used()
    }

    /// Reads a swapped page image into `buf` without consuming the
    /// slot (snapshot serialization reads swapped contents back through
    /// the swap path without faulting them in). Returns `false` if the
    /// slot is empty. A sparse zero page zero-fills `buf`.
    pub fn read_swap_slot(&mut self, slot: u64, buf: &mut [u8]) -> bool {
        self.swap.peek(slot, buf).is_some()
    }

    /// Stores a page image directly into a fresh swap slot (object
    /// duplication preserves `Swapped` page states without faulting
    /// them in). `None` records a sparse all-zero page.
    pub fn store_swap_slot(&mut self, image: Option<&[u8]>) -> u64 {
        self.swap.store(image)
    }

    /// Block-device activity counters of the swap device.
    pub fn swap_blk_stats(&self) -> BlkStats {
        self.swap.stats()
    }

    #[inline]
    fn check(&self, pa: PhysAddr, len: u64) -> Result<(), MemError> {
        let end = pa.raw().checked_add(len).ok_or(MemError::BadPhysAddr(pa))?;
        if end > self.capacity_frames * PAGE_SIZE {
            return Err(MemError::BadPhysAddr(pa));
        }
        Ok(())
    }

    /// Frame `pfn`'s bytes, if it is materialized.
    #[inline]
    fn frame_ref(&self, pfn: u64) -> Option<&FrameBox> {
        let (c, i) = chunk_slot(pfn);
        self.chunks.get(c)?.as_ref()?[i].as_ref()
    }

    /// Frame `pfn`'s bytes, materializing a zero frame if needed. Only
    /// the lookup of a resident frame is inlined; materializing is
    /// [`Self::materialize`].
    #[inline]
    fn frame(&mut self, pfn: u64) -> &mut FrameBox {
        if self.frame_ref(pfn).is_none() {
            return self.materialize(pfn);
        }
        let (c, i) = chunk_slot(pfn);
        match self.chunks[c].as_mut().map(|chunk| &mut chunk[i]) {
            Some(Some(frame)) => frame,
            _ => unreachable!("frame {pfn} is resident"),
        }
    }

    /// Gives frame `pfn`, which has no bytes yet, a zero frame.
    #[cold]
    #[inline(never)]
    fn materialize(&mut self, pfn: u64) -> &mut FrameBox {
        self.resident += 1;
        slot_mut(&mut self.chunks, pfn).insert(zero_frame())
    }

    /// Drops frame `pfn`'s bytes, so it reads as zero again, and returns
    /// them.
    fn take_frame(&mut self, pfn: u64) -> Option<FrameBox> {
        let (c, i) = chunk_slot(pfn);
        let frame = self.chunks.get_mut(c)?.as_mut()?[i].take();
        self.resident -= u64::from(frame.is_some());
        frame
    }

    /// Direct mutable access to a frame's bytes, materializing it.
    ///
    /// This is the fast path for page-table construction, which writes many
    /// entries into the same frame.
    ///
    /// # Panics
    ///
    /// Panics if `pfn` is beyond the machine's capacity.
    pub fn frame_bytes_mut(&mut self, pfn: Pfn) -> &mut [u8; PAGE_SIZE as usize] {
        assert!(
            pfn.0 < self.capacity_frames,
            "frame {:?} beyond capacity",
            pfn
        );
        self.frame(pfn.0)
    }

    /// Reads one naturally-aligned `u64` (used for page-table entries).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadPhysAddr`] if out of range or unaligned.
    #[inline]
    pub fn read_u64(&mut self, pa: PhysAddr) -> Result<u64, MemError> {
        if !pa.is_aligned(8) {
            return Err(MemError::BadPhysAddr(pa));
        }
        self.check(pa, 8)?;
        let off = pa.frame_offset() as usize;
        let frame = self.frame(pa.pfn().0);
        let mut b = [0u8; 8];
        b.copy_from_slice(&frame[off..off + 8]);
        Ok(u64::from_le_bytes(b))
    }

    /// Writes one naturally-aligned `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadPhysAddr`] if out of range or unaligned.
    #[inline]
    pub fn write_u64(&mut self, pa: PhysAddr, value: u64) -> Result<(), MemError> {
        if !pa.is_aligned(8) {
            return Err(MemError::BadPhysAddr(pa));
        }
        self.check(pa, 8)?;
        let off = pa.frame_offset() as usize;
        let frame = self.frame(pa.pfn().0);
        frame[off..off + 8].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Reads the `u64`s at `pa`, `pa + 8`, ... until one is nonzero,
    /// `max` have been read, or the frame ends. Returns how many words
    /// were read and the last one (`(0, 0)` when `max` is 0), with the
    /// result, error and materialized frames of that many
    /// [`Self::read_u64`] calls, from one frame lookup.
    ///
    /// # Errors
    ///
    /// As [`Self::read_u64`] for the first word.
    #[inline]
    pub fn read_until_nonzero(&mut self, pa: PhysAddr, max: u64) -> Result<(u64, u64), MemError> {
        if max == 0 {
            return Ok((0, 0));
        }
        if !pa.is_aligned(8) {
            return Err(MemError::BadPhysAddr(pa));
        }
        self.check(pa, 8)?;
        let off = pa.frame_offset() as usize;
        let words = max.min((PAGE_SIZE - off as u64) / 8) as usize;
        let frame = self.frame(pa.pfn().0);
        Ok(first_nonzero(&frame[off..off + words * 8]))
    }

    /// Writes `words` to consecutive `u64`s from `pa`, with the result,
    /// error and materialized frames of one [`Self::write_u64`] per
    /// word, from one frame lookup per frame.
    ///
    /// # Errors
    ///
    /// As [`Self::write_u64`] at the first word that fails; the words
    /// before it are written.
    #[inline]
    pub fn write_words(&mut self, pa: PhysAddr, words: &[u64]) -> Result<(), MemError> {
        if words.is_empty() {
            return Ok(());
        }
        if !pa.is_aligned(8) {
            return Err(MemError::BadPhysAddr(pa));
        }
        let (mut at, mut rest) = (pa, words);
        while !rest.is_empty() {
            self.check(at, 8)?;
            let off = at.frame_offset() as usize;
            let n = rest.len().min((PAGE_SIZE as usize - off) / 8);
            let frame = self.frame(at.pfn().0);
            for (dst, w) in frame[off..off + n * 8].chunks_exact_mut(8).zip(&rest[..n]) {
                dst.copy_from_slice(&w.to_le_bytes());
            }
            at = at.add(n as u64 * 8);
            rest = &rest[n..];
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes starting at `pa`, crossing frames as needed.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadPhysAddr`] if the range exceeds capacity.
    pub fn read_bytes(&mut self, pa: PhysAddr, buf: &mut [u8]) -> Result<(), MemError> {
        self.check(pa, buf.len() as u64)?;
        let mut addr = pa.raw();
        let mut done = 0usize;
        while done < buf.len() {
            let off = (addr % PAGE_SIZE) as usize;
            let chunk = ((PAGE_SIZE as usize) - off).min(buf.len() - done);
            // Avoid materializing frames that were never written: they read
            // as zero.
            match self.frame_ref(addr >> 12) {
                Some(frame) => buf[done..done + chunk].copy_from_slice(&frame[off..off + chunk]),
                None => buf[done..done + chunk].fill(0),
            }
            done += chunk;
            addr += chunk as u64;
        }
        Ok(())
    }

    /// Writes `buf` starting at `pa`, crossing frames as needed.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadPhysAddr`] if the range exceeds capacity.
    pub fn write_bytes(&mut self, pa: PhysAddr, buf: &[u8]) -> Result<(), MemError> {
        self.check(pa, buf.len() as u64)?;
        let mut addr = pa.raw();
        let mut done = 0usize;
        while done < buf.len() {
            let off = (addr % PAGE_SIZE) as usize;
            let chunk = ((PAGE_SIZE as usize) - off).min(buf.len() - done);
            let frame = self.frame(addr >> 12);
            frame[off..off + chunk].copy_from_slice(&buf[done..done + chunk]);
            done += chunk;
            addr += chunk as u64;
        }
        Ok(())
    }

    /// Fills `len` bytes at `pa` with `value` (page zeroing, memset).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadPhysAddr`] if the range exceeds capacity.
    pub fn fill(&mut self, pa: PhysAddr, len: u64, value: u8) -> Result<(), MemError> {
        self.check(pa, len)?;
        let mut addr = pa.raw();
        let end = addr + len;
        while addr < end {
            let off = (addr % PAGE_SIZE) as usize;
            let chunk = ((PAGE_SIZE - off as u64).min(end - addr)) as usize;
            if value == 0 && self.frame_ref(addr >> 12).is_none() {
                // Zero-filling an unmaterialized frame is a no-op.
            } else {
                let frame = self.frame(addr >> 12);
                frame[off..off + chunk].fill(value);
            }
            addr += chunk as u64;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_free_cycle() {
        let mut pm = PhysMem::new(16 * PAGE_SIZE);
        let a = pm.alloc_frame().unwrap();
        let b = pm.alloc_frame().unwrap();
        assert_ne!(a, b);
        assert_eq!(pm.allocated_frames(), 2);
        pm.free_frame(a);
        assert_eq!(pm.allocated_frames(), 1);
        let c = pm.alloc_frame().unwrap();
        assert_eq!(c, a, "free list reuses frames");
    }

    #[test]
    fn frame_zero_reserved() {
        let mut pm = PhysMem::new(16 * PAGE_SIZE);
        let a = pm.alloc_frame().unwrap();
        assert_ne!(a.0, 0, "frame 0 must stay reserved");
    }

    #[test]
    fn out_of_frames() {
        let mut pm = PhysMem::new(2 * PAGE_SIZE);
        pm.alloc_frame().unwrap(); // frame 1 (frame 0 reserved)
        assert!(matches!(pm.alloc_frame(), Err(MemError::OutOfFrames)));
    }

    #[test]
    fn reused_frames_read_zero() {
        let mut pm = PhysMem::new(16 * PAGE_SIZE);
        let a = pm.alloc_frame().unwrap();
        pm.write_u64(a.base(), 42).unwrap();
        pm.free_frame(a);
        let b = pm.alloc_frame().unwrap();
        assert_eq!(a, b);
        assert_eq!(pm.read_u64(b.base()).unwrap(), 0);
    }

    #[test]
    fn freed_nvm_frames_stay_in_the_nvm_tier() {
        let mut pm = PhysMem::new(64 * PAGE_SIZE);
        pm.set_nvm_tier(16 * PAGE_SIZE);
        let dram_free = pm.free_frames();
        let nvm = pm.alloc_contiguous_nvm(1).unwrap();
        assert!(pm.is_nvm(nvm));
        pm.write_u64(nvm.base(), 7).unwrap();
        pm.free_frame(nvm);
        assert_eq!(pm.free_frames(), dram_free, "DRAM count unchanged");
        let dram = pm.alloc_frame().unwrap();
        assert!(!pm.is_nvm(dram), "a DRAM allocation got NVM frame {dram:?}");
        // The freed frame goes back out as NVM, zeroed.
        let again = pm.alloc_contiguous_nvm(1).unwrap();
        assert_eq!(again, nvm);
        assert_eq!(pm.read_u64(again.base()).unwrap(), 0);
    }

    #[test]
    fn freed_nvm_runs_are_reused_contiguously() {
        let mut pm = PhysMem::new(64 * PAGE_SIZE);
        pm.set_nvm_tier(8 * PAGE_SIZE);
        let a = pm.alloc_contiguous_nvm(3).unwrap();
        let b = pm.alloc_contiguous_nvm(5).unwrap();
        assert!(pm.alloc_contiguous_nvm(1).is_err(), "tier exhausted");
        // Free b's frames out of order, and a's middle frame only.
        for i in [4, 0, 2, 1, 3] {
            pm.free_frame(Pfn(b.0 + i));
        }
        pm.free_frame(Pfn(a.0 + 1));
        assert_eq!(pm.allocated_frames(), 2);
        assert_eq!(pm.alloc_contiguous_nvm(5).unwrap(), b);
        assert!(pm.alloc_contiguous_nvm(2).is_err(), "no run of two left");
        assert_eq!(pm.alloc_contiguous_nvm(1).unwrap(), Pfn(a.0 + 1));
        assert_eq!(pm.allocated_frames(), 8);
    }

    #[test]
    fn top_of_a_512_gib_machine_is_reachable_without_a_dense_table() {
        // M3's capacity: 128 Mi frames. Only the chunk holding the top
        // frame is allocated; the chunk table reaches exactly that chunk.
        let mut pm = PhysMem::new(512 << 30);
        pm.set_nvm_tier(1 << 30);
        let n = pm.nvm_frames();
        let last = Pfn(pm.alloc_contiguous_nvm(n).unwrap().0 + n - 1);
        assert_eq!(last.0, pm.capacity_frames() - 1);
        pm.write_u64(last.base().add(PAGE_SIZE - 8), 0x5eed)
            .unwrap();
        assert_eq!(pm.read_u64(last.base().add(PAGE_SIZE - 8)).unwrap(), 0x5eed);
        assert_eq!(pm.resident_frames(), 1);
        let top_chunk = (last.0 / CHUNK_FRAMES) as usize;
        assert_eq!(pm.chunks.len(), top_chunk + 1);
        assert!(pm.chunks[..top_chunk].iter().all(Option::is_none));
        // A low DRAM frame adds one chunk and leaves the table's length.
        let low = pm.alloc_frame().unwrap();
        pm.write_u64(low.base(), 1).unwrap();
        assert_eq!(pm.chunks.iter().flatten().count(), 2);
        assert_eq!(pm.chunks.len(), top_chunk + 1);
    }

    #[test]
    fn resident_count_is_exact_across_the_frame_lifecycle() {
        let mut pm = PhysMem::new(2048 * PAGE_SIZE);
        // Count materialized slots the slow way.
        let count = |pm: &PhysMem| {
            pm.chunks
                .iter()
                .flatten()
                .map(|c| c.iter().flatten().count() as u64)
                .sum::<u64>()
        };
        let check = |pm: &PhysMem, want: u64| {
            assert_eq!(pm.resident_frames(), want);
            assert_eq!(count(pm), want);
        };
        let a = pm.alloc_frame().unwrap();
        let b = pm.alloc_contiguous(600).unwrap(); // spans two chunks
        check(&pm, 0);
        pm.write_u64(a.base(), 1).unwrap();
        pm.write_bytes(b.base().add(PAGE_SIZE * 511 + 4000), &[9; 200])
            .unwrap();
        check(&pm, 3);
        pm.write_u64(a.base().add(8), 2).unwrap();
        let _ = pm.read_u64(b.base().add(PAGE_SIZE * 599)).unwrap();
        check(&pm, 4);
        pm.fill(b.base().add(PAGE_SIZE * 100), PAGE_SIZE, 0)
            .unwrap();
        check(&pm, 4);
        pm.fill(b.base().add(PAGE_SIZE * 100), 8, 3).unwrap();
        check(&pm, 5);
        pm.free_frame(a);
        check(&pm, 4);
        let reused = pm.alloc_frame().unwrap();
        assert_eq!(reused, a);
        check(&pm, 4);
        let hot = Pfn(b.0 + 100);
        let slot = pm.swap_out(hot);
        check(&pm, 3);
        let back = pm.swap_in(slot).unwrap();
        check(&pm, 4);
        assert_eq!(pm.read_u64(back.base()).unwrap(), 0x0303_0303_0303_0303);
        let cold = pm.swap_out(Pfn(b.0 + 7));
        check(&pm, 4);
        let _ = pm.swap_in(cold).unwrap();
        check(&pm, 4);
    }

    #[test]
    fn contiguous_allocation() {
        let mut pm = PhysMem::new(64 * PAGE_SIZE);
        let base = pm.alloc_contiguous(8).unwrap();
        let next = pm.alloc_frame().unwrap();
        assert_eq!(next.0, base.0 + 8);
        assert!(pm.alloc_contiguous(1000).is_err());
    }

    #[test]
    fn aligned_contiguous_allocation_recycles_the_gap() {
        let mut pm = PhysMem::new(64 * PAGE_SIZE);
        pm.alloc_frame().unwrap(); // bump pointer now at 2
        let base = pm.alloc_contiguous_aligned(8, 8).unwrap();
        assert_eq!(base.0 % 8, 0, "base is naturally aligned");
        assert!(base.0 >= 8, "could not have been aligned below the bump");
        // The frames skipped to reach alignment are reusable.
        let filler = pm.alloc_frame().unwrap();
        assert!(filler.0 < base.0, "gap frame came off the free list");
        assert!(pm.alloc_contiguous_aligned(64, 64).is_err());
    }

    #[test]
    fn u64_round_trip_and_alignment() {
        let mut pm = PhysMem::new(16 * PAGE_SIZE);
        let f = pm.alloc_frame().unwrap();
        pm.write_u64(f.base().add(8), 0x0123_4567_89ab_cdef)
            .unwrap();
        assert_eq!(pm.read_u64(f.base().add(8)).unwrap(), 0x0123_4567_89ab_cdef);
        assert!(pm.read_u64(f.base().add(4)).is_err(), "unaligned u64");
    }

    /// Two 4-frame machines with the same words written in frame 1,
    /// frames 2 and 3 never touched.
    fn word_twins() -> [PhysMem; 2] {
        std::array::from_fn(|_| {
            let mut pm = PhysMem::new(4 * PAGE_SIZE);
            for (off, v) in [(0x080, 7), (0x0a8, 3), (0xff8, 9)] {
                pm.write_u64(PhysAddr::new(PAGE_SIZE + off), v).unwrap();
            }
            pm
        })
    }

    fn assert_same_frames(a: &mut PhysMem, b: &mut PhysMem, what: &str) {
        assert_eq!(a.resident_frames(), b.resident_frames(), "{what}");
        let (mut x, mut y) = (
            vec![0; 4 * PAGE_SIZE as usize],
            vec![0; 4 * PAGE_SIZE as usize],
        );
        a.read_bytes(PhysAddr::new(0), &mut x).unwrap();
        b.read_bytes(PhysAddr::new(0), &mut y).unwrap();
        assert!(x == y, "bytes, {what}");
    }

    #[test]
    fn read_until_nonzero_matches_per_word_reads() {
        let [mut a, mut b] = word_twins();
        let base = PAGE_SIZE;
        let cases = [
            (base, 100, Ok((17, 7))),              // past one all-zero block
            (base + 0x88, 40, Ok((5, 3))),         // found inside a block
            (base + 0x88, 3, Ok((3, 0))),          // stopped by max
            (base + 0xf00, 100, Ok((32, 9))),      // the frame's last word
            (2 * base + 0x800, 600, Ok((256, 0))), // an unmaterialized frame
            (base, 0, Ok((0, 0))),
            (
                base + 4,
                4,
                Err(MemError::BadPhysAddr(PhysAddr::new(base + 4))),
            ),
            (
                4 * base,
                4,
                Err(MemError::BadPhysAddr(PhysAddr::new(4 * base))),
            ),
        ];
        for (pa, max, want) in cases {
            let what = format!("run at {pa:#x}, max {max}");
            let got = a.read_until_nonzero(PhysAddr::new(pa), max);
            let limit = max.min((PAGE_SIZE - pa % PAGE_SIZE).div_ceil(8));
            let per_word = (|| {
                let (mut read, mut word) = (0, 0);
                while word == 0 && read < limit {
                    word = b.read_u64(PhysAddr::new(pa + read * 8))?;
                    read += 1;
                }
                Ok((read, word))
            })();
            assert_eq!(got, want, "{what}");
            assert_eq!(got, per_word, "{what}");
            assert_same_frames(&mut a, &mut b, &what);
        }
    }

    #[test]
    fn write_words_matches_per_word_writes() {
        let [mut a, mut b] = word_twins();
        let base = PAGE_SIZE;
        let words: Vec<u64> = (1..=40).collect();
        let bad = |pa| Err(MemError::BadPhysAddr(PhysAddr::new(pa)));
        let cases = [
            (base + 0x100, 12, Ok(())),     // inside a resident frame
            (2 * base + 0xf00, 32, Ok(())), // ending at the frame's end
            (base + 0xfc0, 40, Ok(())),     // across two frames
            (base, 0, Ok(())),
            (base + 4, 4, bad(base + 4)),      // misaligned
            (4 * base - 16, 4, bad(4 * base)), // running past capacity
            (8 * base, 4, bad(8 * base)),
        ];
        for (pa, n, want) in cases {
            let what = format!("run at {pa:#x}, {n} words");
            let got = a.write_words(PhysAddr::new(pa), &words[..n]);
            let per_word = (0u64..)
                .zip(&words[..n])
                .try_for_each(|(i, &w)| b.write_u64(PhysAddr::new(pa + i * 8), w));
            assert_eq!(got, want, "{what}");
            assert_eq!(got, per_word, "{what}");
            assert_same_frames(&mut a, &mut b, &what);
        }
    }

    #[test]
    fn bytes_cross_frame_boundary() {
        let mut pm = PhysMem::new(16 * PAGE_SIZE);
        let base = pm.alloc_contiguous(2).unwrap().base();
        let data: Vec<u8> = (0..100u8).collect();
        let start = base.add(PAGE_SIZE - 50);
        pm.write_bytes(start, &data).unwrap();
        let mut out = vec![0u8; 100];
        pm.read_bytes(start, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn unwritten_memory_reads_zero_without_materializing() {
        let mut pm = PhysMem::new(1024 * PAGE_SIZE);
        let mut buf = vec![0xffu8; 64];
        pm.read_bytes(PhysAddr::new(500 * PAGE_SIZE), &mut buf)
            .unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(pm.resident_frames(), 0);
    }

    #[test]
    fn swap_round_trip_preserves_content() {
        let mut pm = PhysMem::new(16 * PAGE_SIZE);
        let f = pm.alloc_frame().unwrap();
        pm.write_u64(f.base().add(16), 0xfeed_f00d).unwrap();
        let before = pm.allocated_frames();
        let slot = pm.swap_out(f);
        assert_eq!(pm.allocated_frames(), before - 1, "frame freed");
        assert_eq!(pm.swap_slots_used(), 1);
        let back = pm.swap_in(slot).unwrap();
        assert_eq!(pm.read_u64(back.base().add(16)).unwrap(), 0xfeed_f00d);
        assert_eq!(pm.swap_slots_used(), 0, "slot released");
        assert_eq!(pm.allocated_frames(), before);
    }

    #[test]
    fn swap_of_untouched_frame_stays_sparse() {
        let mut pm = PhysMem::new(16 * PAGE_SIZE);
        let f = pm.alloc_frame().unwrap();
        let slot = pm.swap_out(f);
        assert_eq!(pm.resident_frames(), 0, "zero page stored without bytes");
        let back = pm.swap_in(slot).unwrap();
        assert_eq!(pm.read_u64(back.base()).unwrap(), 0);
    }

    #[test]
    fn swap_slots_are_reused() {
        let mut pm = PhysMem::new(16 * PAGE_SIZE);
        let a = pm.alloc_frame().unwrap();
        let slot = pm.swap_out(a);
        let _ = pm.swap_in(slot).unwrap();
        let b = pm.alloc_frame().unwrap();
        assert_eq!(pm.swap_out(b), slot, "freed slot reused");
        pm.discard_swap_slot(slot);
        assert_eq!(pm.swap_slots_used(), 0);
    }

    #[test]
    fn swap_out_makes_room_for_alloc() {
        // 3-frame machine (frame 0 reserved): exhaust it, swap one out,
        // and the freed frame satisfies the next allocation.
        let mut pm = PhysMem::new(3 * PAGE_SIZE);
        let a = pm.alloc_frame().unwrap();
        let _b = pm.alloc_frame().unwrap();
        assert!(pm.alloc_frame().is_err());
        assert_eq!(pm.free_frames(), 0);
        let _slot = pm.swap_out(a);
        assert_eq!(pm.free_frames(), 1);
        assert_eq!(pm.alloc_frame().unwrap(), a);
    }

    #[test]
    fn fill_and_bounds() {
        let mut pm = PhysMem::new(4 * PAGE_SIZE);
        pm.fill(PhysAddr::new(0), 2 * PAGE_SIZE, 0xab).unwrap();
        let mut b = [0u8; 1];
        pm.read_bytes(PhysAddr::new(PAGE_SIZE + 17), &mut b)
            .unwrap();
        assert_eq!(b[0], 0xab);
        assert!(pm
            .fill(PhysAddr::new(3 * PAGE_SIZE), 2 * PAGE_SIZE, 0)
            .is_err());
        // Zero-fill of untouched frames stays sparse.
        let mut pm2 = PhysMem::new(1024 * PAGE_SIZE);
        pm2.fill(PhysAddr::new(0), 512 * PAGE_SIZE, 0).unwrap();
        assert_eq!(pm2.resident_frames(), 0);
    }
}
