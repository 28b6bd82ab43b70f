//! Per-core cycle clocks and the executing-core context.
//!
//! The paper reports results in *cycles* (Table 2, Figures 6-7) or in
//! rates derived from time (Figures 1, 8-12). Every simulated
//! architectural event — TLB hit/miss, page walk, CR3 load, kernel entry,
//! cache-line transfer — is charged to the clock of the hardware thread
//! it executes on. A machine is a set of such clocks ([`CoreClocks`]);
//! global wall time is their maximum, total CPU time their sum.

use std::cell::Cell;
use std::rc::Rc;

/// The hardware thread a piece of work executes on.
///
/// Kernel syscalls take a `CoreCtx` so that entry/walk/fault/swap costs
/// accrue to the executing core's clock and trace events stamp the core
/// they actually ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CoreCtx {
    /// Hardware-thread index, `0 .. MachineProfile::total_cores()`.
    pub core: usize,
}

impl CoreCtx {
    /// The boot core: core 0, where kernel housekeeping (e.g. the reclaim
    /// daemon) runs when no process context is involved.
    pub const BOOT: CoreCtx = CoreCtx { core: 0 };

    /// Context for hardware thread `core`.
    pub fn new(core: usize) -> Self {
        CoreCtx { core }
    }
}

impl std::fmt::Display for CoreCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "core{}", self.core)
    }
}

/// One hardware thread's simulated cycle counter.
///
/// Clones share the same counter, so the MMU, the kernel, and workloads
/// can all charge cycles to one core's timeline. The counter is a plain
/// shared cell: the whole simulation runs on one host thread, so the
/// clock is neither `Send` nor `Sync`, and charging cycles is an ordinary
/// add. Running simulated cores on parallel host threads would have to
/// revisit this type.
///
/// # Examples
///
/// ```
/// use sjmp_sim::CycleClock;
/// let clock = CycleClock::new();
/// let view = clock.clone();
/// clock.advance(100);
/// assert_eq!(view.now(), 100);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CycleClock(Rc<Cell<u64>>);

impl CycleClock {
    /// Creates a clock at cycle zero.
    pub fn new() -> Self {
        CycleClock::default()
    }

    /// Current simulated cycle.
    #[inline]
    pub fn now(&self) -> u64 {
        self.0.get()
    }

    /// Advances the clock by `cycles` (wrapping on overflow).
    #[inline]
    pub fn advance(&self, cycles: u64) {
        self.0.set(self.0.get().wrapping_add(cycles));
    }

    /// Jumps the clock forward to `t` if it is behind (a blocked core
    /// waiting for work that finishes at `t`). Never moves time backwards.
    #[inline]
    pub fn catch_up(&self, t: u64) {
        self.0.set(self.0.get().max(t));
    }

    /// Resets the clock to zero (useful between benchmark phases).
    pub fn reset(&self) {
        self.0.set(0);
    }

    /// Cycles elapsed since `start`.
    pub fn since(&self, start: u64) -> u64 {
        self.now().saturating_sub(start)
    }
}

/// The per-core cycle clocks of one simulated machine.
///
/// Clones share the underlying counters, so the kernel, each per-core
/// MMU, and the workload can all view the same timeline. Blocking
/// interactions between cores (lock handoff, a master waiting on a slave)
/// are expressed with [`CoreClocks::catch_up`]: the waiting core jumps to
/// the moment the awaited work finished, so the *maximum* over cores is
/// the machine's wall-clock time while the *sum* is total CPU cycles.
#[derive(Debug, Clone, Default)]
pub struct CoreClocks {
    clocks: Vec<CycleClock>,
}

impl CoreClocks {
    /// Creates `n` clocks, all at cycle zero.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a machine needs at least one core");
        CoreClocks {
            clocks: (0..n).map(|_| CycleClock::new()).collect(),
        }
    }

    /// Number of cores.
    pub fn count(&self) -> usize {
        self.clocks.len()
    }

    /// The clock of hardware thread `core`.
    pub fn clock(&self, core: usize) -> &CycleClock {
        &self.clocks[core]
    }

    /// Current cycle on `core`.
    #[inline]
    pub fn now_on(&self, core: usize) -> u64 {
        self.clocks[core].now()
    }

    /// Global wall-clock time: the maximum over all cores.
    pub fn now(&self) -> u64 {
        self.clocks.iter().map(CycleClock::now).max().unwrap_or(0)
    }

    /// Total CPU cycles: the sum over all cores.
    pub fn total(&self) -> u64 {
        self.clocks.iter().map(CycleClock::now).sum()
    }

    /// Advances `core`'s clock by `cycles`.
    #[inline]
    pub fn advance(&self, core: usize, cycles: u64) {
        self.clocks[core].advance(cycles);
    }

    /// Jumps `core`'s clock forward to `t` if it is behind (blocking
    /// handoff from another core).
    #[inline]
    pub fn catch_up(&self, core: usize, t: u64) {
        self.clocks[core].catch_up(t);
    }

    /// Per-core readings, indexed by core.
    pub fn snapshot(&self) -> Vec<u64> {
        self.clocks.iter().map(CycleClock::now).collect()
    }

    /// Resets every core's clock to zero.
    pub fn reset(&self) {
        for c in &self.clocks {
            c.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_shared_between_clones() {
        let c = CycleClock::new();
        let view = c.clone();
        c.advance(10);
        view.advance(5);
        assert_eq!(c.now(), 15);
        assert_eq!(c.since(10), 5);
        c.reset();
        assert_eq!(view.now(), 0);
    }

    #[test]
    fn catch_up_never_rewinds() {
        let c = CycleClock::new();
        c.advance(100);
        c.catch_up(50);
        assert_eq!(c.now(), 100, "catch_up must not move time backwards");
        c.catch_up(250);
        assert_eq!(c.now(), 250);
    }

    #[test]
    fn core_clocks_max_and_sum() {
        let clocks = CoreClocks::new(3);
        clocks.advance(0, 10);
        clocks.advance(1, 25);
        clocks.advance(2, 5);
        assert_eq!(clocks.now(), 25, "global time is the per-core max");
        assert_eq!(clocks.total(), 40, "total CPU time is the sum");
        assert_eq!(clocks.snapshot(), vec![10, 25, 5]);
        clocks.catch_up(0, 25);
        assert_eq!(clocks.now_on(0), 25);
        clocks.reset();
        assert_eq!(clocks.total(), 0);
    }

    #[test]
    fn clones_share_counters() {
        let clocks = CoreClocks::new(2);
        let view = clocks.clone();
        clocks.advance(1, 7);
        assert_eq!(view.now_on(1), 7);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = CoreClocks::new(0);
    }
}
