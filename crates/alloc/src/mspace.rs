//! The `mspace` allocator: dlmalloc-style boundary tags inside the
//! managed area.
//!
//! The SpaceJMP runtime library "is built over Doug Lea's dlmalloc,
//! providing the notion of a memory space (mspace). An mspace is an
//! allocator's internal state and may be placed at arbitrary locations"
//! (Section 4.1). This implementation keeps *all* state — bin heads,
//! counters, chunk headers, free-list links — inside the managed memory,
//! so an mspace formatted in a segment is usable by any process that
//! attaches the segment later, with pointers (offsets) intact.
//!
//! Layout:
//!
//! ```text
//! 0      MAGIC
//! 8      total size
//! 16     live payload bytes
//! 24     allocation counter
//! 32     application root pointer
//! 40     NBINS bin heads (offset of first free chunk, 0 = empty)
//! 432    start sentinel (in-use, MIN_CHUNK)
//! 464    first real chunk ...
//! end-16 end sentinel (in-use, header only)
//! ```
//!
//! Chunks: `[header u64 | payload ... | footer u64]`; header and footer
//! both hold `size | IN_USE`. Free chunks additionally store free-list
//! `next`/`prev` offsets in their first two payload words. Freeing
//! coalesces with both neighbours via the boundary tags.
//!
//! The metadata sits in memory that every process mapping the area can
//! write, so the allocator checks each chunk offset and size it reads
//! before following it, and reports a bad one as
//! [`AllocError::Corrupt`] instead of touching memory outside the area.
//! The checks are host-side compares; they read no extra word.

use crate::mem::MemAccess;

/// Allocation failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// No free chunk large enough.
    OutOfMemory,
    /// The area does not contain a valid mspace (bad magic).
    BadMagic,
    /// The area is too small to format.
    TooSmall,
    /// `free`/`realloc` called with an invalid pointer.
    BadPointer(u64),
    /// Allocator metadata read at this offset is impossible: a chunk
    /// offset or size outside the area, or a free list that never ends.
    Corrupt(u64),
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::OutOfMemory => write!(f, "mspace exhausted"),
            AllocError::BadMagic => write!(f, "area does not contain an mspace"),
            AllocError::TooSmall => write!(f, "area too small for an mspace"),
            AllocError::BadPointer(p) => write!(f, "invalid pointer {p:#x}"),
            AllocError::Corrupt(o) => write!(f, "corrupt allocator metadata at offset {o:#x}"),
        }
    }
}

impl std::error::Error for AllocError {}

const MAGIC: u64 = 0x534a_4d50_4845_4150; // "SJMPHEAP"
const OFF_MAGIC: u64 = 0;
const OFF_TOTAL: u64 = 8;
const OFF_LIVE: u64 = 16;
const OFF_COUNT: u64 = 24;
const OFF_ROOT: u64 = 32;
const OFF_BINS: u64 = 40;
const NBINS: u64 = 48;
// 40 + 48*8 = 424, padded up to the next 16-byte boundary for chunks.
const HDR_END: u64 = (OFF_BINS + NBINS * 8).next_multiple_of(16);
/// The first real chunk, after the start sentinel.
const FIRST_CHUNK: u64 = HDR_END + MIN_CHUNK;

const IN_USE: u64 = 1;
const SIZE_MASK: u64 = !0xf;
/// Minimum chunk: header + next + prev + footer.
const MIN_CHUNK: u64 = 32;
/// Per-chunk overhead: header + footer.
const OVERHEAD: u64 = 16;

/// Smallest area that can be formatted.
pub const MIN_AREA: u64 = 1024;

#[inline]
fn bin_index(chunk_size: u64) -> usize {
    if chunk_size < HDR_END_SMALL {
        // Small bins: exact-ish classes every 16 bytes, 32..512.
        ((chunk_size - MIN_CHUNK) / 16) as usize
    } else {
        // Large bins: one per power of two, 512.. up to 2^44+.
        let log = 63 - chunk_size.leading_zeros() as usize; // floor(log2)
        SMALL_BINS + (log - 9).min(LARGE_BINS - 1)
    }
}

const SMALL_BINS: usize = 30; // sizes 32, 48, ..., 496
const LARGE_BINS: usize = NBINS as usize - SMALL_BINS; // 18 bins
const HDR_END_SMALL: u64 = MIN_CHUNK + (SMALL_BINS as u64) * 16; // 512

/// An mspace bound to a [`MemAccess`] area.
///
/// # Examples
///
/// ```
/// use sjmp_alloc::{Mspace, VecMem};
///
/// # fn main() -> Result<(), sjmp_alloc::AllocError> {
/// let mut ms = Mspace::format(VecMem::new(64 * 1024))?;
/// let a = ms.malloc(100)?;
/// let b = ms.malloc(200)?;
/// ms.free(a)?;
/// let c = ms.malloc(80)?; // reuses the freed space
/// assert!(c < b);
/// # Ok(()) }
/// ```
#[derive(Debug)]
pub struct Mspace<M: MemAccess> {
    mem: M,
    total: u64,
}

impl<M: MemAccess> Mspace<M> {
    /// Formats a fresh mspace over `mem`, erasing previous content.
    ///
    /// # Errors
    ///
    /// [`AllocError::TooSmall`] for areas under [`MIN_AREA`] bytes.
    pub fn format(mut mem: M) -> Result<Self, AllocError> {
        let total = mem.size() & !0xf;
        if total < MIN_AREA {
            return Err(AllocError::TooSmall);
        }
        mem.write_u64(OFF_MAGIC, MAGIC);
        mem.write_u64(OFF_TOTAL, total);
        mem.write_u64(OFF_LIVE, 0);
        mem.write_u64(OFF_COUNT, 0);
        mem.write_u64(OFF_ROOT, 0);
        for b in 0..NBINS {
            mem.write_u64(OFF_BINS + b * 8, 0);
        }
        let mut ms = Mspace { mem, total };
        // Start sentinel.
        ms.set_header(HDR_END, MIN_CHUNK | IN_USE);
        // End sentinel: header-only chunk at total-16.
        ms.mem.write_u64(total - 16, 16 | IN_USE);
        ms.mem.write_u64(total - 8, 16 | IN_USE);
        // Main free chunk.
        let size = (total - 16) - FIRST_CHUNK;
        ms.set_header(FIRST_CHUNK, size);
        ms.bin_push(FIRST_CHUNK, size)?;
        Ok(ms)
    }

    /// Attaches to an mspace previously formatted in `mem` (for example
    /// by another process that shared the segment).
    ///
    /// # Errors
    ///
    /// [`AllocError::BadMagic`] if the area was not formatted;
    /// [`AllocError::Corrupt`] if its recorded size does not fit it.
    pub fn attach(mut mem: M) -> Result<Self, AllocError> {
        if mem.size() < MIN_AREA || mem.read_u64(OFF_MAGIC) != MAGIC {
            return Err(AllocError::BadMagic);
        }
        let total = mem.read_u64(OFF_TOTAL);
        if total < MIN_AREA || total > mem.size() || !total.is_multiple_of(16) {
            return Err(AllocError::Corrupt(OFF_TOTAL));
        }
        Ok(Mspace { mem, total })
    }

    /// Consumes the mspace and returns the underlying memory.
    pub fn into_inner(self) -> M {
        self.mem
    }

    /// Borrow of the underlying memory.
    pub fn mem_mut(&mut self) -> &mut M {
        &mut self.mem
    }

    // -- chunk helpers ---------------------------------------------------

    fn set_header(&mut self, c: u64, size_flags: u64) {
        self.mem.write_u64(c, size_flags);
        let size = size_flags & SIZE_MASK;
        self.mem.write_u64(c + size - 8, size_flags);
    }

    fn header(&mut self, c: u64) -> u64 {
        self.mem.read_u64(c)
    }

    /// Checks a chunk offset read from a bin head or a free-list link
    /// before following it: 16-aligned, and a real chunk of the area.
    fn check_chunk(&self, c: u64) -> Result<u64, AllocError> {
        if c.is_multiple_of(16) && (FIRST_CHUNK..self.total - 16).contains(&c) {
            Ok(c)
        } else {
            Err(AllocError::Corrupt(c))
        }
    }

    /// Checks a free-list link (0 ends the list).
    fn check_link(&self, c: u64) -> Result<u64, AllocError> {
        if c == 0 {
            Ok(0)
        } else {
            self.check_chunk(c)
        }
    }

    /// Whether a chunk at `c` can have `size` bytes: at least a minimum
    /// chunk, and ending before the end sentinel.
    fn size_fits(&self, c: u64, size: u64) -> bool {
        c < self.total - 16 && size >= MIN_CHUNK && size <= self.total - 16 - c
    }

    /// The chunk behind payload pointer `ptr` and its size, if `ptr`
    /// names a live allocation: a real chunk of the area (not the start
    /// sentinel), 16-aligned, marked in use, with a size that fits.
    fn live_chunk(&mut self, ptr: u64) -> Result<(u64, u64), AllocError> {
        let c = ptr.wrapping_sub(8);
        if ptr < FIRST_CHUNK + 8 || ptr >= self.total || !c.is_multiple_of(16) {
            return Err(AllocError::BadPointer(ptr));
        }
        let h = self.header(c);
        let size = h & SIZE_MASK;
        if h & IN_USE == 0 || !self.size_fits(c, size) {
            return Err(AllocError::BadPointer(ptr));
        }
        Ok((c, size))
    }

    /// The size in free chunk `c`'s header, checked before it is trusted.
    fn free_size(&mut self, c: u64) -> Result<u64, AllocError> {
        let h = self.header(c);
        let size = h & SIZE_MASK;
        if h & IN_USE == 0 && self.size_fits(c, size) {
            Ok(size)
        } else {
            Err(AllocError::Corrupt(c))
        }
    }

    fn bin_head(&mut self, idx: usize) -> u64 {
        self.mem.read_u64(OFF_BINS + (idx as u64) * 8)
    }

    fn set_bin_head(&mut self, idx: usize, v: u64) {
        self.mem.write_u64(OFF_BINS + (idx as u64) * 8, v);
    }

    fn bin_push(&mut self, c: u64, size: u64) -> Result<(), AllocError> {
        let idx = bin_index(size);
        let head = self.bin_head(idx);
        let head = self.check_link(head)?;
        self.mem.write_u64(c + 8, head); // next
        self.mem.write_u64(c + 16, 0); // prev
        if head != 0 {
            self.mem.write_u64(head + 16, c);
        }
        self.set_bin_head(idx, c);
        Ok(())
    }

    fn bin_remove(&mut self, c: u64, size: u64) -> Result<(), AllocError> {
        let next = self.mem.read_u64(c + 8);
        let prev = self.mem.read_u64(c + 16);
        let (next, prev) = (self.check_link(next)?, self.check_link(prev)?);
        if prev == 0 {
            self.set_bin_head(bin_index(size), next);
        } else {
            self.mem.write_u64(prev + 8, next);
        }
        if next != 0 {
            self.mem.write_u64(next + 16, prev);
        }
        Ok(())
    }

    // -- public allocation API ---------------------------------------------

    /// Allocates `size` bytes; returns the payload offset (8-aligned).
    ///
    /// # Errors
    ///
    /// [`AllocError::OutOfMemory`] when no chunk fits;
    /// [`AllocError::Corrupt`] when the free lists are damaged.
    pub fn malloc(&mut self, size: u64) -> Result<u64, AllocError> {
        let want = size
            .max(16)
            .checked_add(OVERHEAD + 15)
            .ok_or(AllocError::OutOfMemory)?
            & !0xf;
        let mut idx = bin_index(want);
        // No sound free list holds more chunks than fit in the area, so
        // a walk past that many is going round a cycle.
        let mut budget = (self.total - FIRST_CHUNK) / MIN_CHUNK;
        while idx < NBINS as usize {
            // Skip the run of empty bins in one read: it reads the same
            // heads, and stops at the first non-empty one.
            let (read, mut c) = self
                .mem
                .read_until_nonzero(OFF_BINS + idx as u64 * 8, NBINS - idx as u64);
            idx += read as usize - 1;
            while c != 0 {
                c = self.check_chunk(c)?;
                if budget == 0 {
                    return Err(AllocError::Corrupt(c));
                }
                budget -= 1;
                let csize = self.free_size(c)?;
                if csize >= want {
                    self.bin_remove(c, csize)?;
                    self.place(c, csize, want)?;
                    let live = self.mem.read_u64(OFF_LIVE);
                    self.mem.write_u64(OFF_LIVE, live + want - OVERHEAD);
                    let n = self.mem.read_u64(OFF_COUNT);
                    self.mem.write_u64(OFF_COUNT, n + 1);
                    return Ok(c + 8);
                }
                c = self.mem.read_u64(c + 8);
            }
            idx += 1;
        }
        Err(AllocError::OutOfMemory)
    }

    /// Splits chunk `c` (free, size `csize`) into a used chunk of `want`
    /// and a free remainder if large enough.
    fn place(&mut self, c: u64, csize: u64, want: u64) -> Result<(), AllocError> {
        if csize - want >= MIN_CHUNK {
            self.set_header(c, want | IN_USE);
            let rest = c + want;
            let rest_size = csize - want;
            self.set_header(rest, rest_size);
            self.bin_push(rest, rest_size)
        } else {
            self.set_header(c, csize | IN_USE);
            Ok(())
        }
    }

    /// Allocates zeroed memory.
    ///
    /// # Errors
    ///
    /// As [`Self::malloc`].
    pub fn calloc(&mut self, size: u64) -> Result<u64, AllocError> {
        let p = self.malloc(size)?;
        self.mem.zero(p, size);
        Ok(p)
    }

    /// Frees the allocation whose payload starts at `ptr`.
    ///
    /// # Errors
    ///
    /// [`AllocError::BadPointer`] for pointers that do not reference a
    /// live allocation; [`AllocError::Corrupt`] when a neighbour's
    /// boundary tag or the free lists are damaged.
    pub fn free(&mut self, ptr: u64) -> Result<(), AllocError> {
        let (mut c, mut size) = self.live_chunk(ptr)?;
        let live = self.mem.read_u64(OFF_LIVE);
        self.mem
            .write_u64(OFF_LIVE, live.saturating_sub(size - OVERHEAD));
        let n = self.mem.read_u64(OFF_COUNT);
        self.mem.write_u64(OFF_COUNT, n.saturating_sub(1));
        // Coalesce with next chunk.
        let next = c + size;
        let nh = self.header(next);
        if nh & IN_USE == 0 {
            let nsize = nh & SIZE_MASK;
            if !self.size_fits(next, nsize) {
                return Err(AllocError::Corrupt(next));
            }
            self.bin_remove(next, nsize)?;
            size += nsize;
        }
        // Coalesce with previous chunk (via its footer).
        let pf = self.mem.read_u64(c - 8);
        if pf & IN_USE == 0 {
            let psize = pf & SIZE_MASK;
            if psize < MIN_CHUNK || psize > c - FIRST_CHUNK {
                return Err(AllocError::Corrupt(c - 8));
            }
            let prev = c - psize;
            self.bin_remove(prev, psize)?;
            c = prev;
            size += psize;
        }
        self.set_header(c, size);
        self.bin_push(c, size)
    }

    /// Resizes an allocation, copying contents as needed.
    ///
    /// # Errors
    ///
    /// As [`Self::malloc`] and [`Self::free`].
    pub fn realloc(&mut self, ptr: u64, new_size: u64) -> Result<u64, AllocError> {
        let (_, size) = self.live_chunk(ptr)?;
        let old_payload = size - OVERHEAD;
        if new_size <= old_payload {
            return Ok(ptr); // shrink in place (no split for simplicity)
        }
        let new_ptr = self.malloc(new_size)?;
        self.mem.copy_words(ptr, new_ptr, old_payload.min(new_size));
        self.free(ptr)?;
        Ok(new_ptr)
    }

    /// Usable payload size of a live allocation.
    ///
    /// # Errors
    ///
    /// [`AllocError::BadPointer`] for invalid pointers.
    pub fn usable_size(&mut self, ptr: u64) -> Result<u64, AllocError> {
        let (_, size) = self.live_chunk(ptr)?;
        Ok(size - OVERHEAD)
    }

    // -- statistics --------------------------------------------------------

    /// Stores an application "root pointer" in the mspace header — the
    /// well-known slot from which attaching processes find the data
    /// structure living in this heap (e.g. a dictionary header).
    pub fn set_root(&mut self, value: u64) {
        self.mem.write_u64(OFF_ROOT, value);
    }

    /// Reads the application root pointer (0 if never set).
    pub fn root(&mut self) -> u64 {
        self.mem.read_u64(OFF_ROOT)
    }

    /// Live payload bytes.
    pub fn allocated_bytes(&mut self) -> u64 {
        self.mem.read_u64(OFF_LIVE)
    }

    /// Live allocation count.
    pub fn allocation_count(&mut self) -> u64 {
        self.mem.read_u64(OFF_COUNT)
    }

    /// Total managed bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total
    }

    /// Sum of free chunk sizes (walks the bins).
    pub fn free_bytes(&mut self) -> u64 {
        let mut sum = 0;
        for idx in 0..NBINS as usize {
            let mut c = self.bin_head(idx);
            while c != 0 {
                sum += self.header(c) & SIZE_MASK;
                c = self.mem.read_u64(c + 8);
            }
        }
        sum
    }

    /// Largest single free chunk (bytes of payload it could serve).
    pub fn largest_free(&mut self) -> u64 {
        let mut best = 0;
        for idx in 0..NBINS as usize {
            let mut c = self.bin_head(idx);
            while c != 0 {
                best = best.max(self.header(c) & SIZE_MASK);
                c = self.mem.read_u64(c + 8);
            }
        }
        best.saturating_sub(OVERHEAD)
    }

    /// Walks every chunk verifying boundary-tag invariants; returns the
    /// chunk count. Test/debug aid.
    ///
    /// # Panics
    ///
    /// Panics on a corrupt heap.
    pub fn check_invariants(&mut self) -> u64 {
        let mut c = HDR_END;
        let mut count = 0;
        let mut prev_free = false;
        while c < self.total - 16 {
            let h = self.header(c);
            let size = h & SIZE_MASK;
            assert!(size >= MIN_CHUNK, "chunk at {c} too small: {size}");
            assert!(
                c + size <= self.total - 16 + MIN_CHUNK,
                "chunk at {c} overruns"
            );
            let footer = self.mem.read_u64(c + size - 8);
            assert_eq!(footer, h, "boundary tags disagree at {c}");
            let is_free = h & IN_USE == 0;
            assert!(
                !(prev_free && is_free),
                "adjacent free chunks at {c} not coalesced"
            );
            prev_free = is_free;
            c += size;
            count += 1;
        }
        assert_eq!(c, self.total - 16, "chunk walk did not end at the sentinel");
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::VecMem;

    fn ms(size: u64) -> Mspace<VecMem> {
        Mspace::format(VecMem::new(size)).unwrap()
    }

    #[test]
    fn format_and_attach() {
        let m = ms(4096);
        let mem = m.into_inner();
        let mut re = Mspace::attach(mem).unwrap();
        assert_eq!(re.allocation_count(), 0);
        assert!(Mspace::attach(VecMem::new(4096)).is_err());
        assert!(matches!(
            Mspace::format(VecMem::new(100)),
            Err(AllocError::TooSmall)
        ));
    }

    #[test]
    fn malloc_free_reuse() {
        let mut m = ms(64 * 1024);
        let a = m.malloc(100).unwrap();
        let b = m.malloc(100).unwrap();
        assert_ne!(a, b);
        assert_eq!(m.allocation_count(), 2);
        m.free(a).unwrap();
        let c = m.malloc(100).unwrap();
        assert_eq!(c, a, "freed chunk is reused");
        m.check_invariants();
    }

    #[test]
    fn payload_is_usable_and_aligned() {
        let mut m = ms(64 * 1024);
        for size in [1u64, 8, 16, 100, 1000, 4096] {
            let p = m.malloc(size).unwrap();
            assert_eq!(p % 8, 0);
            assert!(m.usable_size(p).unwrap() >= size);
        }
        m.check_invariants();
    }

    #[test]
    fn coalescing_merges_neighbors() {
        let mut m = ms(64 * 1024);
        let a = m.malloc(100).unwrap();
        let b = m.malloc(100).unwrap();
        let c = m.malloc(100).unwrap();
        let _guard = m.malloc(100).unwrap();
        m.free(a).unwrap();
        m.free(c).unwrap();
        m.free(b).unwrap(); // merges with both neighbours
        m.check_invariants();
        // The merged hole serves an allocation bigger than any single one.
        let big = m.malloc(300).unwrap();
        assert_eq!(big, a, "merged chunk starts at the first freed block");
    }

    #[test]
    fn out_of_memory() {
        let mut m = ms(2048);
        let r = m.malloc(1 << 20);
        assert_eq!(r.unwrap_err(), AllocError::OutOfMemory);
        // Fill it up with small allocations, then fail.
        let mut ptrs = Vec::new();
        while let Ok(p) = m.malloc(64) {
            ptrs.push(p);
        }
        assert!(!ptrs.is_empty());
        assert_eq!(m.malloc(64).unwrap_err(), AllocError::OutOfMemory);
        for p in ptrs {
            m.free(p).unwrap();
        }
        assert_eq!(m.allocation_count(), 0);
        m.check_invariants();
    }

    #[test]
    fn free_rejects_garbage() {
        let mut m = ms(4096);
        let p = m.malloc(64).unwrap();
        assert!(m.free(p + 16).is_err(), "interior pointer");
        assert!(m.free(7).is_err(), "header area");
        assert!(m.free(HDR_END + 8).is_err(), "start sentinel");
        assert!(m.free(1 << 40).is_err(), "out of range");
        m.free(p).unwrap();
        assert!(m.free(p).is_err(), "double free");
    }

    #[test]
    fn the_start_sentinel_is_not_a_live_allocation() {
        let mut m = ms(64 * 1024);
        let sentinel = HDR_END + 8;
        assert_eq!(
            m.usable_size(sentinel),
            Err(AllocError::BadPointer(sentinel))
        );
        assert_eq!(
            m.realloc(sentinel, 100),
            Err(AllocError::BadPointer(sentinel))
        );
        assert_eq!(m.free(sentinel), Err(AllocError::BadPointer(sentinel)));
        // The refused realloc allocated nothing.
        assert_eq!((m.allocation_count(), m.allocated_bytes()), (0, 0));
        m.check_invariants();
    }

    #[test]
    fn huge_sizes_are_out_of_memory() {
        let mut m = ms(64 * 1024);
        let p = m.malloc(64).unwrap();
        for size in [u64::MAX, u64::MAX - 10, u64::MAX - 31, u64::MAX / 2] {
            assert_eq!(m.malloc(size), Err(AllocError::OutOfMemory), "{size}");
            assert_eq!(m.calloc(size), Err(AllocError::OutOfMemory), "{size}");
            assert_eq!(m.realloc(p, size), Err(AllocError::OutOfMemory), "{size}");
        }
        assert_eq!(m.allocation_count(), 1);
        m.check_invariants();
    }

    #[test]
    fn corrupt_metadata_is_an_error_not_a_panic() {
        // A freed chunk's `next` link overwritten with garbage.
        let mut m = ms(64 * 1024);
        let a = m.malloc(24).unwrap();
        let _b = m.malloc(24).unwrap();
        m.free(a).unwrap();
        m.mem_mut().write_u64(a, 0x0707_0707_0707_0707);
        assert_eq!(
            m.malloc(24),
            Err(AllocError::Corrupt(0x0707_0707_0707_0707))
        );

        // A misaligned bin head.
        let mut m = ms(64 * 1024);
        let head = OFF_BINS + bin_index(48) as u64 * 8;
        m.mem_mut().write_u64(head, FIRST_CHUNK + 8);
        assert_eq!(m.malloc(24), Err(AllocError::Corrupt(FIRST_CHUNK + 8)));

        // A free chunk whose size runs past the end of the area, and one
        // marked in use while on a free list.
        for bad in [1 << 40, 48 | IN_USE] {
            let mut m = ms(64 * 1024);
            let a = m.malloc(24).unwrap();
            let _b = m.malloc(24).unwrap();
            m.free(a).unwrap();
            m.mem_mut().write_u64(a - 8, bad);
            assert_eq!(m.malloc(24), Err(AllocError::Corrupt(a - 8)), "{bad:#x}");
        }

        // A free list that loops: a large-bin chunk too small for the
        // request, linked to itself.
        let mut m = ms(64 * 1024);
        let a = m.malloc(1000).unwrap();
        let _guard = m.malloc(16).unwrap();
        m.free(a).unwrap();
        m.mem_mut().write_u64(a, a - 8);
        assert_eq!(m.malloc(1500), Err(AllocError::Corrupt(a - 8)));

        // A bad `prev` link, met while unlinking the chunk.
        let mut m = ms(64 * 1024);
        let a = m.malloc(24).unwrap();
        let _b = m.malloc(24).unwrap();
        m.free(a).unwrap();
        m.mem_mut().write_u64(a + 8, 3);
        assert_eq!(m.malloc(24), Err(AllocError::Corrupt(3)));

        // A footer claiming a free predecessor larger than the heap.
        let mut m = ms(64 * 1024);
        let a = m.malloc(24).unwrap();
        let b = m.malloc(24).unwrap();
        m.mem_mut().write_u64(b - 16, 4096);
        assert_eq!(m.free(b), Err(AllocError::Corrupt(b - 16)));
        let _ = a;

        // A recorded size larger than the memory behind it.
        let mut m = ms(4096);
        m.mem_mut().write_u64(OFF_TOTAL, 1 << 20);
        assert_eq!(
            Mspace::attach(m.into_inner()).unwrap_err(),
            AllocError::Corrupt(OFF_TOTAL)
        );
    }

    #[test]
    fn calloc_zeroes() {
        let mut m = ms(8192);
        let p = m.malloc(64).unwrap();
        for w in 0..8 {
            m.mem_mut().write_u64(p + w * 8, u64::MAX);
        }
        m.free(p).unwrap();
        let q = m.calloc(64).unwrap();
        assert_eq!(q, p);
        for w in 0..8 {
            assert_eq!(m.mem_mut().read_u64(q + w * 8), 0);
        }
    }

    #[test]
    fn realloc_preserves_content() {
        let mut m = ms(64 * 1024);
        let p = m.malloc(64).unwrap();
        for w in 0..8 {
            m.mem_mut().write_u64(p + w * 8, w + 1);
        }
        let q = m.realloc(p, 1024).unwrap();
        for w in 0..8 {
            assert_eq!(m.mem_mut().read_u64(q + w * 8), w + 1);
        }
        // Shrinking keeps the pointer.
        assert_eq!(m.realloc(q, 32).unwrap(), q);
        m.check_invariants();
    }

    #[test]
    fn stats_track_usage() {
        let mut m = ms(64 * 1024);
        let before_free = m.free_bytes();
        let p = m.malloc(1000).unwrap();
        assert!(m.allocated_bytes() >= 1000);
        assert!(m.free_bytes() < before_free);
        m.free(p).unwrap();
        assert_eq!(m.allocated_bytes(), 0);
        assert_eq!(m.free_bytes(), before_free);
        assert!(m.largest_free() > 60 * 1024);
        assert_eq!(m.total_bytes(), 64 * 1024);
    }

    #[test]
    fn persistence_across_attach() {
        // Simulates the SpaceJMP workflow: process A allocates in a
        // segment-hosted mspace, process B attaches and frees.
        let mut m = ms(16 * 1024);
        let p = m.malloc(128).unwrap();
        m.mem_mut().write_u64(p, 0x1234);
        let mem = m.into_inner();
        let mut m2 = Mspace::attach(mem).unwrap();
        assert_eq!(m2.allocation_count(), 1);
        assert_eq!(m2.mem_mut().read_u64(p), 0x1234);
        m2.free(p).unwrap();
        m2.check_invariants();
    }

    #[test]
    fn bin_index_monotone_and_bounded() {
        let mut last = 0;
        for size in (MIN_CHUNK..8192).step_by(16) {
            let idx = bin_index(size);
            assert!(idx >= last || idx >= SMALL_BINS, "small bins monotone");
            assert!(idx < NBINS as usize);
            last = idx;
        }
        assert!(bin_index(1 << 40) < NBINS as usize);
    }

    #[test]
    fn many_allocations_stress() {
        let mut m = ms(1 << 20);
        let mut live = Vec::new();
        for i in 0..2000u64 {
            let size = (i * 37) % 500 + 1;
            match m.malloc(size) {
                Ok(p) => live.push(p),
                Err(_) => {
                    // Free half and keep going.
                    for p in live.drain(..live.len() / 2) {
                        m.free(p).unwrap();
                    }
                }
            }
            if i % 3 == 0 && !live.is_empty() {
                let p = live.swap_remove((i as usize * 7) % live.len());
                m.free(p).unwrap();
            }
        }
        m.check_invariants();
        for p in live {
            m.free(p).unwrap();
        }
        assert_eq!(m.allocation_count(), 0);
        m.check_invariants();
    }
}
