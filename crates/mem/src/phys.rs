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
//! The store doubles as the frame allocator, and page-table nodes built by
//! [`crate::paging`] live in its frames like they would in real DRAM. Each
//! tier (DRAM, and NVM once [`PhysMem::set_nvm_tier`] splits one off) keeps
//! its free frames as sorted, disjoint extents that merge with their
//! neighbours when freed. [`PhysMem::alloc_contiguous`] takes the lowest
//! aligned fit, so a single frame is an extent of length 1 and a freed
//! range comes back whole: what a request gets depends on which frames are
//! free, not on the order they were handed out in.

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

/// A memory tier. Which one a frame sits in decides its access cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// DRAM: every frame below the NVM boundary except frame 0.
    Dram,
    /// The non-volatile tier declared by [`PhysMem::set_nvm_tier`].
    Nvm,
}

/// One tier's free frames: sorted, disjoint `(start, len)` extents, no two
/// of them adjacent.
#[derive(Debug, Default)]
struct FreeExtents {
    extents: Vec<(u64, u64)>,
    /// Frames in `extents`.
    frames: u64,
}

impl FreeExtents {
    /// Takes the lowest `n` frames whose base is a multiple of `align`.
    fn take(&mut self, n: u64, align: u64) -> Option<u64> {
        let (i, base) = self
            .extents
            .iter()
            .enumerate()
            .find_map(|(i, &(start, len))| {
                let base = start.next_multiple_of(align);
                (base + n <= start + len).then_some((i, base))
            })?;
        let (start, len) = self.extents[i];
        let rest = [(start, base - start), (base + n, start + len - base - n)];
        self.extents
            .splice(i..=i, rest.into_iter().filter(|&(_, len)| len > 0));
        self.frames -= n;
        Some(base)
    }

    /// Returns `start..start + n`, merging it with the extents it touches.
    ///
    /// # Panics
    ///
    /// Panics if any of the frames is already free: merging would let a
    /// later request hand it out twice.
    fn give(&mut self, start: u64, n: u64) {
        let end = start + n;
        let i = self.extents.partition_point(|&(s, _)| s < start);
        let prev_end = i
            .checked_sub(1)
            .map(|p| self.extents[p].0 + self.extents[p].1);
        let next_start = self.extents.get(i).map(|&(s, _)| s);
        assert!(
            prev_end.is_none_or(|e| e <= start) && next_start.is_none_or(|s| end <= s),
            "frames {start}..{end} freed while free"
        );
        match (prev_end == Some(start), next_start == Some(end)) {
            (true, true) => {
                self.extents[i - 1].1 += n + self.extents[i].1;
                self.extents.remove(i);
            }
            (true, false) => self.extents[i - 1].1 += n,
            (false, true) => self.extents[i] = (start, n + self.extents[i].1),
            (false, false) => self.extents.insert(i, (start, n)),
        }
        self.frames += n;
    }
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
    /// Free DRAM frames. Frame 0 is never among them (a null CR3 should
    /// never look valid).
    dram: FreeExtents,
    /// Free NVM frames: empty until [`Self::set_nvm_tier`].
    nvm: FreeExtents,
    /// First frame of the NVM tier, if the machine has one. Frames at or
    /// above this boundary are non-volatile memory with different access
    /// costs (the heterogeneous-memory future of the paper's Section 7).
    nvm_boundary: Option<u64>,
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
    /// (rounded down to whole frames), all of it DRAM.
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
        let mut dram = FreeExtents::default();
        if capacity_frames > 1 {
            dram.give(1, capacity_frames - 1);
        }
        PhysMem {
            chunks: Vec::new(),
            resident: 0,
            capacity_frames,
            dram,
            nvm: FreeExtents::default(),
            nvm_boundary: None,
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
    /// non-volatile memory tier, allocated from with [`Tier::Nvm`].
    ///
    /// # Panics
    ///
    /// Panics if the NVM tier would not leave at least one DRAM frame, or
    /// if any frame it would take is allocated (as after an earlier call).
    pub fn set_nvm_tier(&mut self, nvm_bytes: u64) {
        let nvm_frames = nvm_bytes / PAGE_SIZE;
        assert!(
            nvm_frames > 0 && nvm_frames < self.capacity_frames,
            "NVM tier must be nonempty and leave DRAM frames"
        );
        let boundary = self.capacity_frames - nvm_frames;
        let top = self.dram.extents.pop();
        let (start, len) = top
            .filter(|&(s, len)| s <= boundary && s + len == self.capacity_frames)
            .expect("frames above the NVM boundary are free");
        self.dram.frames -= len;
        if start < boundary {
            self.dram.give(start, boundary - start);
        }
        self.nvm.give(boundary, nvm_frames);
        self.nvm_boundary = Some(boundary);
    }

    /// Whether `pfn` belongs to the NVM tier.
    #[inline]
    pub fn is_nvm(&self, pfn: Pfn) -> bool {
        self.nvm_boundary.is_some_and(|b| pfn.0 >= b)
    }

    /// Total capacity in frames.
    pub fn capacity_frames(&self) -> u64 {
        self.capacity_frames
    }

    /// Size of the configured NVM tier in frames (0 when no tier exists).
    pub fn nvm_frames(&self) -> u64 {
        self.nvm_boundary.map_or(0, |b| self.capacity_frames - b)
    }

    /// Number of frames handed out and not freed, in both tiers.
    pub fn allocated_frames(&self) -> u64 {
        self.capacity_frames - 1 - self.dram.frames - self.nvm.frames
    }

    /// Number of frames materialized with host memory.
    pub fn resident_frames(&self) -> u64 {
        self.resident
    }

    /// Free DRAM frames. A contiguous request for all of them succeeds
    /// when they form one extent, as they do on a machine whose freed
    /// ranges have all merged back.
    pub fn free_frames(&self) -> u64 {
        self.dram.frames
    }

    /// `tier`'s free frames as sorted `(first frame, length)` extents, no
    /// two adjacent. Only this shows where the free frames lie, which
    /// tests of the allocator check against a model.
    pub fn free_extents(&self, tier: Tier) -> &[(u64, u64)] {
        match tier {
            Tier::Dram => &self.dram.extents,
            Tier::Nvm => &self.nvm.extents,
        }
    }

    /// Allocates one DRAM frame: the lowest free one.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfFrames`] when no DRAM frame is free.
    pub fn alloc_frame(&mut self) -> Result<Pfn, MemError> {
        self.alloc_contiguous(Tier::Dram, 1, 1)
    }

    /// Allocates `n` frames of `tier` with consecutive frame numbers, the
    /// first a multiple of `align_frames`: the lowest such range that is
    /// free. Contiguity is needed for segments backed by a flat physical
    /// range, and alignment for huge-page mappings (a 2 MiB leaf needs a
    /// 512-frame-aligned base). The frames read as zero.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfFrames`] when no such range is free (always,
    /// for [`Tier::Nvm`] on a machine without an NVM tier).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `align_frames` is not a power of two.
    pub fn alloc_contiguous(
        &mut self,
        tier: Tier,
        n: u64,
        align_frames: u64,
    ) -> Result<Pfn, MemError> {
        assert!(n > 0, "an allocation takes at least one frame");
        assert!(
            align_frames.is_power_of_two(),
            "alignment must be a power of two"
        );
        let free = match tier {
            Tier::Dram => &mut self.dram,
            Tier::Nvm => &mut self.nvm,
        };
        free.take(n, align_frames)
            .map(Pfn)
            .ok_or(MemError::OutOfFrames)
    }

    /// Returns the `n` frames from `base` to the allocator of their tier
    /// and discards their contents.
    ///
    /// # Panics
    ///
    /// Panics if the range is not allocated frames of one tier: it is
    /// empty, reaches frame 0, crosses the NVM boundary or the capacity,
    /// or holds a frame that is already free.
    pub fn free_range(&mut self, base: Pfn, n: u64) {
        let end = base.0 + n;
        let (lo, hi, free) = match self.nvm_boundary {
            Some(b) if base.0 >= b => (b, self.capacity_frames, &mut self.nvm),
            b => (1, b.unwrap_or(self.capacity_frames), &mut self.dram),
        };
        assert!(
            lo <= base.0 && base.0 < end && end <= hi,
            "frames {}..{end} are not a range of one tier",
            base.0
        );
        free.give(base.0, n);
        for pfn in base.0..end {
            self.take_frame(pfn);
        }
    }

    /// Returns one frame to the allocator; see [`Self::free_range`].
    pub fn free_frame(&mut self, pfn: Pfn) {
        self.free_range(pfn, 1);
    }

    /// Saves `pfn`'s content to the swap device, frees the frame, and
    /// returns the swap slot holding the image. The caller (the kernel's
    /// reclaim path) is responsible for having unmapped the frame first.
    pub fn swap_out(&mut self, pfn: Pfn) -> u64 {
        let image = self.take_frame(pfn.0);
        let slot = self.swap.store(image.as_deref().map(|f| f.as_slice()));
        self.free_frame(pfn);
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
        assert_eq!(c, a, "the lowest free frame is reused");
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
        let nvm = pm.alloc_contiguous(Tier::Nvm, 1, 1).unwrap();
        assert!(pm.is_nvm(nvm));
        pm.write_u64(nvm.base(), 7).unwrap();
        pm.free_frame(nvm);
        assert_eq!(pm.free_frames(), dram_free, "DRAM count unchanged");
        let dram = pm.alloc_frame().unwrap();
        assert!(!pm.is_nvm(dram), "a DRAM allocation got NVM frame {dram:?}");
        // The freed frame goes back out as NVM, zeroed.
        let again = pm.alloc_contiguous(Tier::Nvm, 1, 1).unwrap();
        assert_eq!(again, nvm);
        assert_eq!(pm.read_u64(again.base()).unwrap(), 0);
    }

    #[test]
    fn freed_nvm_runs_are_reused_contiguously() {
        let mut pm = PhysMem::new(64 * PAGE_SIZE);
        pm.set_nvm_tier(8 * PAGE_SIZE);
        let a = pm.alloc_contiguous(Tier::Nvm, 3, 1).unwrap();
        let b = pm.alloc_contiguous(Tier::Nvm, 5, 1).unwrap();
        assert!(
            pm.alloc_contiguous(Tier::Nvm, 1, 1).is_err(),
            "tier exhausted"
        );
        // Free b's frames out of order, and a's middle frame only.
        for i in [4, 0, 2, 1, 3] {
            pm.free_frame(Pfn(b.0 + i));
        }
        pm.free_frame(Pfn(a.0 + 1));
        assert_eq!(pm.allocated_frames(), 2);
        assert_eq!(pm.alloc_contiguous(Tier::Nvm, 5, 1).unwrap(), b);
        assert!(
            pm.alloc_contiguous(Tier::Nvm, 2, 1).is_err(),
            "no run of two left"
        );
        assert_eq!(pm.alloc_contiguous(Tier::Nvm, 1, 1).unwrap(), Pfn(a.0 + 1));
        assert_eq!(pm.allocated_frames(), 8);
    }

    #[test]
    fn top_of_a_512_gib_machine_is_reachable_without_a_dense_table() {
        // M3's capacity: 128 Mi frames. Only the chunk holding the top
        // frame is allocated; the chunk table reaches exactly that chunk.
        let mut pm = PhysMem::new(512 << 30);
        pm.set_nvm_tier(1 << 30);
        let n = pm.nvm_frames();
        let last = Pfn(pm.alloc_contiguous(Tier::Nvm, n, 1).unwrap().0 + n - 1);
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
        let b = pm.alloc_contiguous(Tier::Dram, 600, 1).unwrap(); // spans two chunks
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
        let base = pm.alloc_contiguous(Tier::Dram, 8, 1).unwrap();
        let next = pm.alloc_frame().unwrap();
        assert_eq!(next.0, base.0 + 8);
        assert!(pm.alloc_contiguous(Tier::Dram, 1000, 1).is_err());
    }

    #[test]
    fn aligned_allocation_leaves_the_gap_free() {
        let mut pm = PhysMem::new(64 * PAGE_SIZE);
        pm.alloc_frame().unwrap(); // frame 1
        let base = pm.alloc_contiguous(Tier::Dram, 8, 8).unwrap();
        assert_eq!(base, Pfn(8), "the lowest aligned fit");
        // The frames skipped to reach alignment stay free.
        assert_eq!(pm.free_extents(Tier::Dram), [(2, 6), (16, 48)]);
        assert_eq!(pm.alloc_frame().unwrap(), Pfn(2));
        assert!(pm.alloc_contiguous(Tier::Dram, 64, 64).is_err());
    }

    #[test]
    fn a_freed_range_merges_with_both_neighbours() {
        let mut pm = PhysMem::new(32 * PAGE_SIZE);
        let a = pm.alloc_contiguous(Tier::Dram, 4, 1).unwrap();
        let b = pm.alloc_contiguous(Tier::Dram, 4, 1).unwrap();
        let c = pm.alloc_contiguous(Tier::Dram, 4, 1).unwrap();
        pm.free_range(a, 4);
        pm.free_range(c, 4);
        assert_eq!(pm.free_extents(Tier::Dram), [(1, 4), (9, 23)]);
        pm.free_range(b, 4);
        assert_eq!(pm.free_extents(Tier::Dram), [(1, 31)]);
        assert_eq!(pm.allocated_frames(), 0);
        assert_eq!(pm.alloc_contiguous(Tier::Dram, 31, 1).unwrap(), a);
    }

    #[test]
    #[should_panic(expected = "freed while free")]
    fn freeing_a_free_frame_is_caught() {
        let mut pm = PhysMem::new(16 * PAGE_SIZE);
        let a = pm.alloc_contiguous(Tier::Dram, 3, 1).unwrap();
        pm.free_frame(Pfn(a.0 + 1));
        pm.free_range(a, 3);
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
        let base = pm.alloc_contiguous(Tier::Dram, 2, 1).unwrap().base();
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
