//! Abstract access to the memory an allocator manages.
//!
//! The SpaceJMP runtime's allocator state lives *inside* the segment it
//! manages (Section 4.1's dlmalloc `mspace`s), which is what lets a heap
//! persist in a VAS across process lifetimes. [`MemAccess`] abstracts how
//! the allocator reads and writes that memory: tests use a plain
//! [`VecMem`], the runtime uses loads/stores through the simulated MMU.

/// Word-granular access to a managed memory area.
///
/// Offsets are bytes from the start of the area. Implementations must
/// support 8-byte-aligned `u64` access anywhere inside the area.
pub trait MemAccess {
    /// Total size of the managed area in bytes.
    fn size(&self) -> u64;

    /// Reads the `u64` at byte `offset`.
    ///
    /// # Panics
    ///
    /// Implementations may panic on out-of-bounds or misaligned offsets —
    /// such accesses are allocator bugs, not user errors.
    fn read_u64(&mut self, offset: u64) -> u64;

    /// Writes the `u64` at byte `offset`.
    ///
    /// # Panics
    ///
    /// As [`MemAccess::read_u64`].
    fn write_u64(&mut self, offset: u64, value: u64);

    /// Reads the `u64`s at `offset`, `offset + 8`, ... until one is
    /// nonzero or `max` have been read; returns how many were read and
    /// the last one (`(0, 0)` when `max` is 0). The `max` words must lie
    /// inside the area.
    ///
    /// The default reads word by word. An implementation may batch the
    /// reads, but must leave every observable effect as the default does.
    fn read_until_nonzero(&mut self, offset: u64, max: u64) -> (u64, u64) {
        let (mut read, mut word) = (0, 0);
        while word == 0 && read < max {
            word = self.read_u64(offset + read * 8);
            read += 1;
        }
        (read, word)
    }

    /// Copies `len` bytes from `src` to `dst` (non-overlapping), rounding
    /// the tail up to whole words. Both offsets must be 8-aligned.
    fn copy_words(&mut self, src: u64, dst: u64, len: u64) {
        let words = len.div_ceil(8);
        for w in 0..words {
            let v = self.read_u64(src + w * 8);
            self.write_u64(dst + w * 8, v);
        }
    }

    /// Zeroes `len` bytes at `offset` (rounded up to whole words).
    fn zero(&mut self, offset: u64, len: u64) {
        let words = len.div_ceil(8);
        for w in 0..words {
            self.write_u64(offset + w * 8, 0);
        }
    }
}

/// A `Vec<u8>`-backed memory area for tests and host-side use.
#[derive(Debug, Clone)]
pub struct VecMem(Vec<u8>);

impl VecMem {
    /// Creates a zeroed area of `size` bytes.
    pub fn new(size: u64) -> Self {
        VecMem(vec![0; size as usize])
    }

    /// Raw bytes (for assertions).
    pub fn bytes(&self) -> &[u8] {
        &self.0
    }
}

impl MemAccess for VecMem {
    fn size(&self) -> u64 {
        self.0.len() as u64
    }

    fn read_u64(&mut self, offset: u64) -> u64 {
        assert!(offset.is_multiple_of(8), "misaligned read at {offset}");
        let o = offset as usize;
        u64::from_le_bytes(self.0[o..o + 8].try_into().expect("in bounds"))
    }

    fn write_u64(&mut self, offset: u64, value: u64) {
        assert!(offset.is_multiple_of(8), "misaligned write at {offset}");
        let o = offset as usize;
        self.0[o..o + 8].copy_from_slice(&value.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut m = VecMem::new(64);
        m.write_u64(8, 0xdead_beef);
        assert_eq!(m.read_u64(8), 0xdead_beef);
        assert_eq!(m.read_u64(16), 0);
        assert_eq!(m.size(), 64);
    }

    #[test]
    fn copy_and_zero() {
        let mut m = VecMem::new(64);
        m.write_u64(0, 1);
        m.write_u64(8, 2);
        m.copy_words(0, 32, 16);
        assert_eq!(m.read_u64(32), 1);
        assert_eq!(m.read_u64(40), 2);
        m.zero(32, 12); // rounds up to 16
        assert_eq!(m.read_u64(32), 0);
        assert_eq!(m.read_u64(40), 0);
    }

    #[test]
    fn read_until_nonzero_stops_at_the_first_nonzero_word_or_max() {
        let mut m = VecMem::new(64);
        m.write_u64(24, 5);
        assert_eq!(m.read_until_nonzero(0, 8), (4, 5));
        assert_eq!(m.read_until_nonzero(0, 2), (2, 0));
        assert_eq!(m.read_until_nonzero(32, 4), (4, 0));
        assert_eq!(m.read_until_nonzero(24, 1), (1, 5));
        assert_eq!(m.read_until_nonzero(0, 0), (0, 0));
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_panics() {
        let mut m = VecMem::new(64);
        m.read_u64(4);
    }
}
