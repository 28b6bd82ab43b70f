//! The calibration unit: a fixed piece of host work run after every
//! window of latency ops, so each run measures how fast the machine was
//! while it ran.
//!
//! Other tenants of a shared machine slow everything on it, by up to
//! about two times, for minutes at a time; a run that falls in such a
//! stretch has no fast window to read a host time from. The unit slows
//! down with it. Host times are reported at a *reference speed*: scaled
//! by [`NOMINAL_NS`] over the unit's quiet time in the same run. The unit
//! is made of what the simulator spends its host time on: lookups in a
//! map of 4 KiB frames, lookups in a small hash map, and small
//! allocations with byte copies.
//!
//! The unit is benchmark code, so a change to the simulator does not
//! change it. It does share the caches with the workload, so a change
//! that shrinks or grows the simulator's host working set also moves the
//! unit a little, in the same direction as the workload: reference-speed
//! times show such a change somewhat smaller than host times do.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The unit's time that defines the reference speed, ns: about its quiet
/// time next to `kv_mixed` on a 2-vCPU Intel Xeon virtual machine.
pub const NOMINAL_NS: f64 = 5_000.0;

/// Frames in the unit's frame map (16 MiB).
const FRAMES: u64 = 4096;
/// Entries in the unit's small map.
const SMALL: u64 = 1024;

/// The unit's data and the times of the units run so far.
pub struct Calibration {
    frames: HashMap<u64, Box<[u8; 4096]>>,
    small: HashMap<u64, u64>,
    state: u64,
    units_ns: Vec<f64>,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            frames: (0..FRAMES)
                .map(|i| (scatter(i), Box::new([i as u8; 4096])))
                .collect(),
            small: (0..SMALL).map(|i| (scatter(i), i)).collect(),
            state: 1,
            units_ns: Vec::new(),
        }
    }
}

/// Spreads small integers over the key space.
fn scatter(i: u64) -> u64 {
    i.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

impl Calibration {
    /// Runs one unit and keeps its host time.
    pub fn run(&mut self) {
        let start = Instant::now();
        let mut sum = 0u64;
        for _ in 0..32 {
            let r = self.next();
            let frame = self
                .frames
                .get_mut(&scatter((r >> 32) % FRAMES))
                .expect("every frame key is present");
            let at = ((r >> 20) as usize % 512) * 8;
            let word = u64::from_le_bytes(frame[at..at + 8].try_into().expect("8 bytes"));
            frame[at..at + 8].copy_from_slice(&(word ^ r).to_le_bytes());
            sum = sum.wrapping_add(word);
        }
        for _ in 0..128 {
            let key = scatter((self.next() >> 32) % SMALL);
            sum = sum.wrapping_add(self.small.get(&key).copied().unwrap_or(1));
        }
        for _ in 0..8 {
            let len = 64 + (self.next() >> 32) as usize % 960;
            let bytes = vec![sum as u8; len];
            let copy = bytes.clone();
            sum = sum.wrapping_add(u64::from(copy[len / 2]));
        }
        black_box(sum);
        self.units_ns.push(start.elapsed().as_nanos() as f64);
    }

    /// The times of the units run since the last call, ns.
    pub fn take(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.units_ns)
    }

    /// A 64-bit LCG step (Knuth's MMIX constants).
    fn next(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_are_timed_and_taken_once() {
        let mut cal = Calibration::default();
        cal.run();
        cal.run();
        let units = cal.take();
        assert_eq!(units.len(), 2);
        assert!(units.iter().all(|&ns| ns > 0.0));
        assert!(cal.take().is_empty());
    }
}
