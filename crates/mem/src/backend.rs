//! How the MMU charges translation: the four-level walk, or the no-VM
//! base+bound baseline.
//!
//! The four-level x86-64 tree in simulated frames ([`crate::paging`]) is
//! the one translation authority: every mapping is made in it, and frame
//! accounting, invariant audits, reclaim and offline trace replay all
//! walk it, under either mode. [`Backend`] is a charging rule that only
//! the per-core [`crate::mmu::Mmu`] reads:
//!
//! * [`Backend::FourLevel`] — the default: a TLB lookup per access, and
//!   a charged page walk on a miss.
//! * [`Backend::SegMap`] — a no-VM, software-managed baseline (in the
//!   spirit of "memory management without virtual memory"): one
//!   base+bound check per access, no TLB and no charged walk. The MMU
//!   still resolves the address through the tree, on the host and
//!   uncharged, so both modes return the same physical address, flags
//!   and faults.

/// The translation charging rule an MMU applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The four-level x86-64 walker behind a TLB (the default).
    #[default]
    FourLevel,
    /// The no-VM base+bound baseline.
    SegMap,
}

impl Backend {
    /// The default four-level backend.
    pub fn four_level() -> Self {
        Backend::FourLevel
    }

    /// The no-VM base+bound backend.
    pub fn seg_map() -> Self {
        Backend::SegMap
    }

    /// Whether this is the no-VM base+bound backend.
    #[inline(always)]
    pub fn is_seg_map(self) -> bool {
        self == Backend::SegMap
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Backend::FourLevel => "4level",
            Backend::SegMap => "no-vm",
        }
    }
}

/// User-facing backend selection for benchmarks and configs: which
/// translation strategy (and host-cache setting) a run should use.
///
/// Distinct from [`Backend`] because "four-level with the host walk
/// cache disabled" is the same *simulated* backend — the knob only
/// affects host wall-time, and the backend-parity tests and CI check
/// that it moves no simulated result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TranslationKind {
    /// Four-level walker, host walk cache enabled (the default).
    #[default]
    FourLevel,
    /// Four-level walker, host walk cache disabled (parity checks).
    FourLevelUncached,
    /// No-VM base+bound check per access.
    NoVm,
}

impl TranslationKind {
    /// Short name for report columns.
    pub fn name(self) -> &'static str {
        match self {
            TranslationKind::FourLevel => "4level",
            TranslationKind::FourLevelUncached => "4level-nocache",
            TranslationKind::NoVm => "no-vm",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names() {
        assert_eq!(Backend::four_level().name(), "4level");
        assert_eq!(Backend::seg_map().name(), "no-vm");
        assert!(Backend::seg_map().is_seg_map());
        assert_eq!(TranslationKind::default().name(), "4level");
        assert_eq!(TranslationKind::FourLevelUncached.name(), "4level-nocache");
        assert_eq!(TranslationKind::NoVm.name(), "no-vm");
    }
}
