//! Deterministic crash-fault injection for the simulated kernel.
//!
//! SpaceJMP's value proposition — shared address spaces with kernel-held
//! locks — is only credible if the kernel survives processes dying at
//! arbitrary points *inside* those shared structures. This module
//! provides the fault source: a seeded [`FaultPlan`] that the kernel
//! consults at each [`FaultSite`] (syscall entry points and the
//! mid-`mmap` page-table construction path) and that deterministically
//! decides whether the call proceeds, fails with the site's natural
//! resource error, or kills the calling process on the spot.
//!
//! Determinism is the point: a plan is built from an explicit seed, so a
//! harness run that trips an invariant can be replayed exactly by
//! re-running with the same seed. Probabilistic rules draw from the
//! plan's own [`SimRng`]; scheduled rules (`fail_nth`, `crash_nth`)
//! trigger on exact per-site call counts.
//!
//! Injected outcomes:
//!
//! * [`FaultOutcome::Fail`] — the operation fails cleanly. Allocation
//!   sites report frame exhaustion ([`sjmp_mem::MemError::OutOfFrames`]);
//!   the switch and munmap sites report a transient
//!   [`crate::OsError::WouldBlock`]. The kernel must leave no partial
//!   state behind (the transactional-`mmap` obligation). The
//!   [`FaultSite::FrameAlloc`] site is special: its failures simulate
//!   *transient* frame exhaustion, which the kernel absorbs by running a
//!   reclaim pass and retrying instead of surfacing an error.
//! * [`FaultOutcome::Crash`] — the calling process dies abruptly inside
//!   the kernel. The call returns [`crate::OsError::Crashed`] and the
//!   kernel performs *no* cleanup: the process is a zombie holding
//!   vmspaces, locks, and frames until someone calls
//!   [`crate::Kernel::kill`] (or the SpaceJMP layer's `reap_process`).

use std::collections::HashMap;

use sjmp_sim::SimRng;

/// Kernel code paths where faults can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// VM object allocation (`alloc_object`): frame exhaustion.
    ObjectAlloc,
    /// vmspace creation (`create_vmspace`): root-table allocation failure.
    SpaceAlloc,
    /// Eager page-table construction inside `map_object`: the mid-`mmap`
    /// failure, after some pages of the region are already mapped.
    MapRegion,
    /// `sys_mmap` entry, from any source.
    Mmap,
    /// `sys_munmap` entry.
    Munmap,
    /// `switch_vmspace` entry.
    Switch,
    /// Physical frame allocation inside the kernel's pressure-checked
    /// paths: a `Fail` injects a *transient* `OutOfFrames` that forces a
    /// reclaim pass before the allocation is retried, exercising eviction
    /// deterministically even when memory is plentiful.
    FrameAlloc,
    /// Per-segment lock acquisition inside `vas_switch`: a `Fail` does
    /// not fail the switch — it *elides* the acquisition, so the caller
    /// proceeds into the shared VAS without holding that segment's
    /// lock. This is a seeded race injector: the resulting unguarded
    /// accesses are exactly what `sjmp-analyze`'s trace-replay detector
    /// must find.
    SegLock,
    /// One block write on the snapshot disk (`vas_save`'s commit path):
    /// a `Fail` does not fail the call — it *tears* the write (new
    /// first half, old second half) while the device reports success,
    /// so the corruption is only discoverable by recovery's checksums.
    /// A `Crash` is power loss after the n-th block: the commit aborts
    /// mid-sequence with [`crate::OsError::Crashed`].
    BlkWrite,
    /// One flush barrier on the snapshot disk: a `Fail` silently drops
    /// the barrier (pending blocks stay volatile); a `Crash` is power
    /// loss at the barrier.
    BlkFlush,
}

impl FaultSite {
    /// All sites, for iteration in reports.
    pub const ALL: [FaultSite; 10] = [
        FaultSite::ObjectAlloc,
        FaultSite::SpaceAlloc,
        FaultSite::MapRegion,
        FaultSite::Mmap,
        FaultSite::Munmap,
        FaultSite::Switch,
        FaultSite::FrameAlloc,
        FaultSite::SegLock,
        FaultSite::BlkWrite,
        FaultSite::BlkFlush,
    ];
}

/// What happens at a visited fault site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Proceed normally.
    Pass,
    /// Fail with the site's natural resource error, leaving no partial
    /// state.
    Fail,
    /// The calling process dies inside the kernel with no cleanup.
    Crash,
}

#[derive(Debug, Clone, Copy)]
enum Trigger {
    /// Trigger on exactly the n-th call (1-based) to the site, once.
    Nth(u64),
    /// Trigger independently with probability `p` on every call.
    Probability(f64),
}

#[derive(Debug, Clone)]
struct Rule {
    site: FaultSite,
    trigger: Trigger,
    outcome: FaultOutcome,
    spent: bool,
}

sjmp_trace::counter_group! {
    /// Counters of what a plan actually injected, for harness reporting.
    pub struct FaultStats {
        /// Clean failures injected.
        failures => "fault_plan.failures",
        /// Crashes injected.
        crashes => "fault_plan.crashes",
    }
}

impl FaultStats {
    /// Total injected faults of either kind.
    pub fn total(&self) -> u64 {
        self.failures + self.crashes
    }
}

/// A seeded, deterministic schedule of injected faults.
///
/// Rules are evaluated in insertion order; the first that triggers on a
/// call decides the outcome. `fail_nth`/`crash_nth` rules are one-shot;
/// probability rules re-roll on every call from the plan's own seeded
/// generator.
///
/// # Examples
///
/// ```
/// use sjmp_os::fault::{FaultOutcome, FaultPlan, FaultSite};
///
/// let mut plan = FaultPlan::new(7).fail_nth(FaultSite::ObjectAlloc, 2);
/// assert_eq!(plan.check(FaultSite::ObjectAlloc), FaultOutcome::Pass);
/// assert_eq!(plan.check(FaultSite::ObjectAlloc), FaultOutcome::Fail);
/// assert_eq!(plan.check(FaultSite::ObjectAlloc), FaultOutcome::Pass);
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    rng: SimRng,
    rules: Vec<Rule>,
    calls: HashMap<FaultSite, u64>,
    stats: FaultStats,
}

impl FaultPlan {
    /// Creates an empty plan (injects nothing) with the given seed for
    /// probabilistic rules.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            rng: SimRng::seed_from_u64(seed),
            rules: Vec::new(),
            calls: HashMap::new(),
            stats: FaultStats::default(),
        }
    }

    /// Fails the `n`-th call (1-based) to `site`, once.
    #[must_use]
    pub fn fail_nth(mut self, site: FaultSite, n: u64) -> Self {
        self.rules.push(Rule {
            site,
            trigger: Trigger::Nth(n),
            outcome: FaultOutcome::Fail,
            spent: false,
        });
        self
    }

    /// Crashes the calling process on the `n`-th call (1-based) to
    /// `site`, once.
    #[must_use]
    pub fn crash_nth(mut self, site: FaultSite, n: u64) -> Self {
        self.rules.push(Rule {
            site,
            trigger: Trigger::Nth(n),
            outcome: FaultOutcome::Crash,
            spent: false,
        });
        self
    }

    /// Fails each call to `site` independently with probability `p`.
    #[must_use]
    pub fn fail_with_probability(mut self, site: FaultSite, p: f64) -> Self {
        self.rules.push(Rule {
            site,
            trigger: Trigger::Probability(p),
            outcome: FaultOutcome::Fail,
            spent: false,
        });
        self
    }

    /// Crashes the caller of `site` independently with probability `p`.
    #[must_use]
    pub fn crash_with_probability(mut self, site: FaultSite, p: f64) -> Self {
        self.rules.push(Rule {
            site,
            trigger: Trigger::Probability(p),
            outcome: FaultOutcome::Crash,
            spent: false,
        });
        self
    }

    /// Records a visit to `site` and decides its outcome.
    pub fn check(&mut self, site: FaultSite) -> FaultOutcome {
        let count = self.calls.entry(site).or_insert(0);
        *count += 1;
        let count = *count;
        for rule in &mut self.rules {
            if rule.site != site || rule.spent {
                continue;
            }
            let hit = match rule.trigger {
                Trigger::Nth(n) => {
                    if count == n {
                        rule.spent = true;
                        true
                    } else {
                        false
                    }
                }
                Trigger::Probability(p) => self.rng.gen_bool(p),
            };
            if hit {
                match rule.outcome {
                    FaultOutcome::Fail => self.stats.failures += 1,
                    FaultOutcome::Crash => self.stats.crashes += 1,
                    FaultOutcome::Pass => {}
                }
                return rule.outcome;
            }
        }
        FaultOutcome::Pass
    }

    /// How many times `site` has been visited.
    pub fn calls(&self, site: FaultSite) -> u64 {
        self.calls.get(&site).copied().unwrap_or(0)
    }

    /// Counters of injected faults.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_always_passes() {
        let mut plan = FaultPlan::new(1);
        for site in FaultSite::ALL {
            for _ in 0..100 {
                assert_eq!(plan.check(site), FaultOutcome::Pass);
            }
            assert_eq!(plan.calls(site), 100);
        }
        assert_eq!(plan.stats().total(), 0);
    }

    #[test]
    fn nth_rules_are_one_shot_and_per_site() {
        let mut plan = FaultPlan::new(1)
            .fail_nth(FaultSite::Mmap, 3)
            .crash_nth(FaultSite::Switch, 1);
        assert_eq!(plan.check(FaultSite::Switch), FaultOutcome::Crash);
        assert_eq!(plan.check(FaultSite::Switch), FaultOutcome::Pass);
        assert_eq!(plan.check(FaultSite::Mmap), FaultOutcome::Pass);
        assert_eq!(plan.check(FaultSite::Mmap), FaultOutcome::Pass);
        assert_eq!(plan.check(FaultSite::Mmap), FaultOutcome::Fail);
        assert_eq!(plan.check(FaultSite::Mmap), FaultOutcome::Pass);
        assert_eq!(
            plan.stats(),
            FaultStats {
                failures: 1,
                crashes: 1
            }
        );
    }

    #[test]
    fn probability_rules_are_deterministic_per_seed() {
        let outcomes = |seed: u64| -> Vec<FaultOutcome> {
            let mut plan = FaultPlan::new(seed).fail_with_probability(FaultSite::ObjectAlloc, 0.3);
            (0..50)
                .map(|_| plan.check(FaultSite::ObjectAlloc))
                .collect()
        };
        assert_eq!(outcomes(9), outcomes(9));
        let hits = outcomes(9)
            .iter()
            .filter(|o| **o == FaultOutcome::Fail)
            .count();
        assert!(
            hits > 0 && hits < 50,
            "p=0.3 over 50 calls should be mixed, got {hits}"
        );
    }

    #[test]
    fn first_matching_rule_wins() {
        let mut plan = FaultPlan::new(1)
            .crash_nth(FaultSite::Mmap, 1)
            .fail_with_probability(FaultSite::Mmap, 1.0);
        assert_eq!(plan.check(FaultSite::Mmap), FaultOutcome::Crash);
        assert_eq!(plan.check(FaultSite::Mmap), FaultOutcome::Fail);
    }
}
