//! The simulated block device: sparse, power-of-two blocks, explicit
//! flush barriers, and a crash model where only flushed blocks survive.

use std::collections::HashMap;

/// Injected outcome for a single block write (decided by the kernel's
/// `FaultPlan` through [`BlkHooks::on_write`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// The write lands intact.
    None,
    /// A torn write: the first half of the block gets the new bytes,
    /// the second half keeps whatever was there before. The device
    /// reports success — the corruption is only discoverable later via
    /// checksums, like a real interrupted sector write.
    Torn,
    /// Power loss mid-write: the machine dies before the write lands.
    Crash,
}

/// Injected outcome for a flush barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushFault {
    /// The barrier completes: all pending blocks become durable.
    None,
    /// The device acknowledges the flush but drops it — pending blocks
    /// stay volatile. Reports success; a later successful flush will
    /// still persist them, but a crash in between loses them.
    Dropped,
    /// Power loss at the barrier.
    Crash,
}

/// Block-IO error surfaced to the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlkError {
    /// A `Crash` fault fired: the simulated machine lost power mid-IO.
    Crashed,
}

impl std::fmt::Display for BlkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlkError::Crashed => write!(f, "simulated power loss during block IO"),
        }
    }
}

impl std::error::Error for BlkError {}

/// Counters for block-device activity, surfaced as the `blk` metrics
/// group in `KernelSnapshot`/`sys_stats`.
///
/// The one counter group written by hand: `sjmp-blk` has no
/// dependencies, so it cannot use `sjmp_trace::counter_group!`. It
/// offers the same three operations the macro generates
/// ([`Self::delta_since`], [`Self::combined`] as the element-wise sum,
/// and [`Self::counters`]), so every group exports and diffs alike.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlkStats {
    /// Blocks read.
    pub reads: u64,
    /// Blocks written (including torn ones).
    pub writes: u64,
    /// Flush barriers issued (including dropped ones).
    pub flushes: u64,
    /// Writes that landed torn (injected faults).
    pub torn_writes: u64,
    /// Flush barriers the device dropped (injected faults).
    pub dropped_flushes: u64,
    /// Recoveries that had to replay the write-ahead journal.
    pub journal_replays: u64,
}

impl BlkStats {
    /// Counters accumulated since `earlier`.
    pub fn delta_since(&self, earlier: &BlkStats) -> BlkStats {
        BlkStats {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            flushes: self.flushes - earlier.flushes,
            torn_writes: self.torn_writes - earlier.torn_writes,
            dropped_flushes: self.dropped_flushes - earlier.dropped_flushes,
            journal_replays: self.journal_replays - earlier.journal_replays,
        }
    }

    /// Element-wise sum — used to fold the snapshot disk and the swap
    /// device into one kernel-level `blk` group.
    pub fn combined(&self, other: &BlkStats) -> BlkStats {
        BlkStats {
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
            flushes: self.flushes + other.flushes,
            torn_writes: self.torn_writes + other.torn_writes,
            dropped_flushes: self.dropped_flushes + other.dropped_flushes,
            journal_replays: self.journal_replays + other.journal_replays,
        }
    }

    /// Every counter as `(exported metric name, value)`.
    pub fn counters(&self) -> [(&'static str, u64); 6] {
        [
            ("blk.reads", self.reads),
            ("blk.writes", self.writes),
            ("blk.flushes", self.flushes),
            ("blk.torn_writes", self.torn_writes),
            ("blk.dropped_flushes", self.dropped_flushes),
            ("blk.journal_replays", self.journal_replays),
        ]
    }
}

/// Kernel-side interposition on block IO: cycle charging, trace spans,
/// and fault injection. The device itself stays free of simulation
/// dependencies; the kernel implements this trait over its clock,
/// tracer, and `FaultPlan`.
pub trait BlkHooks {
    /// Called once per block read.
    fn on_read(&mut self, _lba: u64) {}
    /// Called once per block write; the returned fault is applied.
    fn on_write(&mut self, _lba: u64) -> WriteFault {
        WriteFault::None
    }
    /// Called once per flush barrier; the returned fault is applied.
    fn on_flush(&mut self) -> FlushFault {
        FlushFault::None
    }
}

/// The no-op hooks: no charging, no tracing, no faults. Used by unit
/// tests and by the swap path (swap IO is charged through the existing
/// `swap_in_page`/`swap_out_page` cost-model entries, not per block).
pub struct NoHooks;

impl BlkHooks for NoHooks {}

/// A sparse simulated block device.
///
/// Blocks are addressed by LBA and are `block_size` bytes (a power of
/// two). Unwritten blocks read as zeros. Writes go to a volatile
/// `pending` set; [`BlockDev::flush`] moves them to the `durable` set;
/// [`BlockDev::crash`] discards everything pending. Reads see pending
/// data (the device cache), so correctness bugs only show up when a
/// crash is actually injected — exactly the trap real storage sets.
#[derive(Debug, Clone, Default)]
pub struct BlockDev {
    block_size: u64,
    durable: HashMap<u64, Vec<u8>>,
    pending: HashMap<u64, Vec<u8>>,
    stats: BlkStats,
}

impl BlockDev {
    /// Creates an empty device with the given block size (power of two).
    pub fn new(block_size: u64) -> Self {
        assert!(
            block_size.is_power_of_two(),
            "block size {block_size} is not a power of two"
        );
        BlockDev {
            block_size,
            durable: HashMap::new(),
            pending: HashMap::new(),
            stats: BlkStats::default(),
        }
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// Activity counters.
    pub fn stats(&self) -> BlkStats {
        self.stats
    }

    /// Current contents of a block without touching counters (pending
    /// wins over durable; absent blocks are zero).
    fn peek_block(&self, lba: u64) -> Vec<u8> {
        self.pending
            .get(&lba)
            .or_else(|| self.durable.get(&lba))
            .cloned()
            .unwrap_or_else(|| vec![0u8; self.block_size as usize])
    }

    /// Reads one block into `buf` (`buf.len() == block_size`).
    pub fn read_block(&mut self, lba: u64, buf: &mut [u8]) {
        assert_eq!(buf.len() as u64, self.block_size, "short block read");
        self.stats.reads += 1;
        buf.copy_from_slice(&self.peek_block(lba));
    }

    /// Writes one block, applying `fault`. `Torn` splices the new
    /// first half onto the old second half and still reports success.
    /// `Crash` must be handled by the caller before reaching the
    /// device; passing it here panics.
    pub fn write_block(&mut self, lba: u64, data: &[u8], fault: WriteFault) {
        assert_eq!(data.len() as u64, self.block_size, "short block write");
        self.stats.writes += 1;
        let block = match fault {
            WriteFault::None => data.to_vec(),
            WriteFault::Torn => {
                self.stats.torn_writes += 1;
                let mut torn = self.peek_block(lba);
                let half = self.block_size as usize / 2;
                torn[..half].copy_from_slice(&data[..half]);
                torn
            }
            WriteFault::Crash => panic!("crash faults are resolved above the device"),
        };
        self.pending.insert(lba, block);
    }

    /// Issues a flush barrier, applying `fault`. A dropped flush
    /// reports success but leaves pending blocks volatile.
    pub fn flush(&mut self, fault: FlushFault) {
        self.stats.flushes += 1;
        match fault {
            FlushFault::None => {
                for (lba, block) in self.pending.drain() {
                    self.durable.insert(lba, block);
                }
            }
            FlushFault::Dropped => self.stats.dropped_flushes += 1,
            FlushFault::Crash => panic!("crash faults are resolved above the device"),
        }
    }

    /// Simulated power loss: every block that was not flushed is gone.
    pub fn crash(&mut self) {
        self.pending.clear();
    }

    /// Number of blocks currently pending (not yet durable).
    pub fn pending_blocks(&self) -> usize {
        self.pending.len()
    }

    /// Number of durable blocks.
    pub fn durable_blocks(&self) -> usize {
        self.durable.len()
    }

    pub(crate) fn note_journal_replay(&mut self) {
        self.stats.journal_replays += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_blocks_read_zero() {
        let mut dev = BlockDev::new(512);
        let mut buf = vec![0xffu8; 512];
        dev.read_block(7, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(dev.stats().reads, 1);
    }

    #[test]
    fn crash_discards_unflushed_writes() {
        let mut dev = BlockDev::new(512);
        dev.write_block(0, &[1u8; 512], WriteFault::None);
        dev.flush(FlushFault::None);
        dev.write_block(0, &[2u8; 512], WriteFault::None);
        let mut buf = vec![0u8; 512];
        dev.read_block(0, &mut buf);
        assert_eq!(buf[0], 2, "reads must see the device cache");
        dev.crash();
        dev.read_block(0, &mut buf);
        assert_eq!(buf[0], 1, "crash must roll back to the flushed state");
    }

    #[test]
    fn torn_write_splices_old_and_new() {
        let mut dev = BlockDev::new(512);
        dev.write_block(3, &[0xaau8; 512], WriteFault::None);
        dev.flush(FlushFault::None);
        dev.write_block(3, &[0x55u8; 512], WriteFault::Torn);
        let mut buf = vec![0u8; 512];
        dev.read_block(3, &mut buf);
        assert_eq!(buf[0], 0x55, "new prefix");
        assert_eq!(buf[511], 0xaa, "old suffix");
        assert_eq!(dev.stats().torn_writes, 1);
    }

    #[test]
    fn dropped_flush_keeps_blocks_volatile() {
        let mut dev = BlockDev::new(512);
        dev.write_block(0, &[9u8; 512], WriteFault::None);
        dev.flush(FlushFault::Dropped);
        assert_eq!(dev.pending_blocks(), 1);
        dev.crash();
        let mut buf = vec![0xffu8; 512];
        dev.read_block(0, &mut buf);
        assert!(buf.iter().all(|&b| b == 0), "dropped flush + crash = lost");
        assert_eq!(dev.stats().dropped_flushes, 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn block_size_must_be_power_of_two() {
        let _ = BlockDev::new(1000);
    }
}
