//! One round of a workload and the simulated outcome it is pinned by.
//!
//! A round boots a fresh kernel, sets the workload up, runs its measured
//! region (a fixed batch of ops, so the simulated outcome is fixed too),
//! and verifies the outputs. The sim digest hashes every simulated
//! counter the region moved plus a checksum of the verified outputs: a
//! change that is only meant to make the simulator faster must leave it
//! bit-identical.

use std::time::Instant;

use sjmp_mem::mmu::MmuStats;
use sjmp_mem::tlb::TlbStats;
use sjmp_os::{KernelSnapshot, KernelStats};
use spacejmp_core::{SjStats, SpaceJmp};

use crate::calib::Calibration;
use crate::stats::{Latency, Windows, WINDOW_OPS};

/// What one round measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Kernel boot through the first measured op, ns.
    pub setup_ns: u64,
    /// Host time of the measured region, ns.
    pub measured_ns: u64,
    /// Ops in the region: gups updates, kv requests or genome records.
    pub ops: u64,
    /// Ops that failed or did not verify.
    pub failed: u64,
    /// Host latency of the latency ops: gups window visits, kv requests
    /// or genome appends.
    pub latency: Latency,
    /// The loop of latency ops, cut into windows.
    pub windows: Windows,
    /// Host time of the measured region outside that loop (the genome
    /// tools), ns.
    pub tail_ns: u64,
    /// Host time of each calibration unit run in the loop, ns.
    pub units_ns: Vec<f64>,
    /// Simulated counters the region moved.
    pub sim: SimDelta,
    /// Checksum of the verified outputs.
    pub checksum: u64,
}

impl Round {
    /// The sim digest: FNV-1a over the simulated counters and the
    /// output checksum.
    pub fn digest(&self) -> u64 {
        let s = &self.sim;
        let mut h = Fnv::default();
        let mmu = [
            s.mmu.cr3_loads,
            s.mmu.translations,
            s.mmu.walks,
            s.mmu.faults,
        ];
        let tlb = [
            s.tlb.hits,
            s.tlb.misses,
            s.tlb.flushes,
            s.tlb.asid_flushes,
            s.tlb.evictions,
            s.tlb.insertions,
        ];
        let k = &s.kernel;
        let kernel = [
            k.kernel_entries,
            k.space_switches,
            k.faults_handled,
            k.mmaps,
            k.munmaps,
            k.evictions,
            k.major_faults,
            k.reclaim_passes,
            k.quota_denials,
        ];
        let j = &s.sj;
        let sj = [
            j.switches,
            j.attaches,
            j.lock_acquisitions,
            j.lock_contentions,
            j.lock_skips,
            j.retried_switches,
            j.deadlocks,
            j.reaps,
            j.oom_kills,
        ];
        for w in [s.cycles]
            .iter()
            .chain(&mmu)
            .chain(&tlb)
            .chain(&kernel)
            .chain(&sj)
        {
            h.word(*w);
        }
        h.word(self.checksum);
        h.finish()
    }
}

/// Simulated counters over a measured region, plus two host-side
/// gauges of the simulator's physical memory.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimDelta {
    /// Simulated cycles summed over every core.
    pub cycles: u64,
    /// MMU counters summed over every core.
    pub mmu: MmuStats,
    /// TLB counters summed over every core.
    pub tlb: TlbStats,
    /// Kernel event counters.
    pub kernel: KernelStats,
    /// SpaceJMP counters.
    pub sj: SjStats,
    /// Page-table mutations (the physical memory's table generation).
    pub table_writes: u64,
    /// Frames holding host memory at the end of the region.
    pub frames: u64,
}

/// A snapshot to take a [`SimDelta`] against.
#[derive(Debug, Clone, Copy)]
pub struct SimMark {
    kernel: KernelSnapshot,
    sj: SjStats,
    table_gen: u64,
}

impl SimMark {
    /// Snapshots `sj` without charging simulated time.
    pub fn take(sj: &mut SpaceJmp) -> SimMark {
        let counters = sj.stats();
        let k = sj.kernel_mut();
        SimMark {
            kernel: k.stats_snapshot(),
            sj: counters,
            table_gen: k.phys_mut().table_generation(),
        }
    }

    /// Counters `sj` accumulated since this mark.
    pub fn delta(&self, sj: &mut SpaceJmp) -> SimDelta {
        let now = SimMark::take(sj);
        let d = now.kernel.delta_since(&self.kernel);
        SimDelta {
            cycles: d.cycles,
            mmu: d.mmu,
            tlb: d.tlb,
            kernel: d.kernel,
            sj: now.sj.delta_since(&self.sj),
            table_writes: now.table_gen - self.table_gen,
            frames: sj.kernel_mut().phys_mut().resident_frames(),
        }
    }
}

/// Host nanoseconds since `t`.
pub fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Times a loop of latency ops: notes when each op ends, and after every
/// window of [`WINDOW_OPS`] ops runs a calibration unit, whose time it
/// leaves out.
pub struct OpClock<'a> {
    start: Instant,
    paused_ns: u64,
    ends: Vec<u64>,
    cal: &'a mut Calibration,
}

impl<'a> OpClock<'a> {
    /// Starts the clock for a loop of about `ops` latency ops.
    pub fn start(cal: &'a mut Calibration, ops: usize) -> Self {
        OpClock {
            start: Instant::now(),
            paused_ns: 0,
            ends: Vec::with_capacity(ops),
            cal,
        }
    }

    /// Host ns since the start, calibration units left out.
    pub fn elapsed_ns(&self) -> u64 {
        elapsed_ns(self.start) - self.paused_ns
    }

    /// Notes the end of a latency op.
    pub fn op_done(&mut self) {
        self.ends.push(self.elapsed_ns());
        if self.ends.len().is_multiple_of(WINDOW_OPS) {
            let t = Instant::now();
            self.cal.run();
            self.paused_ns += elapsed_ns(t);
        }
    }

    /// Loop-relative end times of the ops so far.
    pub fn ends(&self) -> &[u64] {
        &self.ends
    }
}

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Hashes the little-endian bytes of `v`.
    pub fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Hashes `bytes`.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let hash = |s: &[u8]| {
            let mut h = Fnv::default();
            h.bytes(s);
            h.finish()
        };
        assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn digest_covers_counters_and_checksum() {
        let base = Round::default();
        let mut cycles = base.clone();
        cycles.sim.cycles = 1;
        let mut walks = base.clone();
        walks.sim.mmu.walks = 1;
        let mut sum = base.clone();
        sum.checksum = 1;
        let d = [base.digest(), cycles.digest(), walks.digest(), sum.digest()];
        for i in 0..d.len() {
            for j in i + 1..d.len() {
                assert_ne!(d[i], d[j], "digests {i} and {j} collide");
            }
        }
    }
}
