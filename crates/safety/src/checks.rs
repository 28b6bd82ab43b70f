//! Unsafe-access detection and check insertion (Section 4.3).
//!
//! "Because checking every pointer dereference is too conservative, we
//! present a compiler analysis to prove when dereferences are safe, and a
//! transformation that only inserts checks where safety cannot be proven
//! statically."
//!
//! A load/store dereferencing `p` needs a check when any of:
//!
//! 1. `|VASvalid(p)| > 1` or `VASvalid(p) ∋ vunknown` — the target VAS is
//!    ambiguous;
//! 2. `|VASin(i)| > 1` — the current VAS is ambiguous;
//! 3. `VASvalid(p) ≠ VASin(i)` — they may differ.
//!
//! A store of pointer `v` through `p` needs a check unless
//! `VASvalid(p) = {vcommon}` (stores to the common region may hold any
//! pointer) or `|VASvalid(p)| = 1 ∧ VASvalid(p) = VASvalid(v)`.
//!
//! Pointers proven common-only are exempt from deref checks
//! ("dereferencing and storing to [stack/global pointers] is always
//! safe").

use std::collections::HashMap;

use crate::analysis::Analysis;
use crate::ir::{AbstractVas, BlockId, Inst, Module, Site, VasSet};
use crate::provenance::SiteClass;

/// How checks are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckPolicy {
    /// Insert a check before *every* load and store (the trivial solution
    /// the paper rejects as too conservative) — the ablation baseline.
    Naive,
    /// Insert checks only where the intraprocedural `VASvalid`/`VASin`
    /// analysis cannot prove safety.
    Analyzed,
    /// [`Analyzed`](CheckPolicy::Analyzed), further pruned by the
    /// interprocedural provenance verifier: any site it proves safe
    /// drops its check. By construction this elides a superset of what
    /// `Analyzed` elides.
    Interprocedural,
}

/// Report of a check-insertion pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Dereference checks inserted.
    pub deref_checks: usize,
    /// Pointer-store checks inserted.
    pub store_checks: usize,
    /// Loads and stores in the module.
    pub mem_ops: usize,
    /// Memory operations proven safe (no check needed).
    pub proven_safe: usize,
}

impl CheckReport {
    /// Fraction of memory operations requiring a runtime check.
    pub fn check_ratio(&self) -> f64 {
        if self.mem_ops == 0 {
            0.0
        } else {
            (self.deref_checks + self.store_checks.min(self.mem_ops)) as f64 / self.mem_ops as f64
        }
    }
}

fn is_common_only(set: &VasSet) -> bool {
    set.len() == 1 && set.contains(&AbstractVas::Common)
}

fn deref_needs_check(valid: &VasSet, vas_in: &VasSet) -> bool {
    if is_common_only(valid) {
        return false; // stack/global pointers are always safe
    }
    if valid.is_empty() {
        // Not recognizably a pointer produced by a tracked source (e.g. a
        // constant); be conservative.
        return true;
    }
    valid.len() > 1 || valid.contains(&AbstractVas::Unknown) || vas_in.len() > 1 || valid != vas_in
}

fn store_ptr_needs_check(valid_p: &VasSet, valid_v: &VasSet) -> bool {
    if is_common_only(valid_p) {
        return false; // rule 1: store to the common region
    }
    // rule 2: both provably in the same single VAS
    !(valid_p.len() == 1 && valid_p == valid_v && !valid_p.contains(&AbstractVas::Unknown))
}

/// The check decision at one memory-operation site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteDecision {
    /// A [`Inst::CheckDeref`] goes before the operation.
    pub need_deref: bool,
    /// A [`Inst::CheckStore`] goes before the operation (stores only).
    pub need_store: bool,
}

/// A check-insertion plan: the per-site decisions plus the totals. The
/// plan is computed on the *uninstrumented* module, so sites keep their
/// original coordinates — the soundness harness compares them against
/// the interpreter's site log.
#[derive(Debug, Clone, Default)]
pub struct CheckPlan {
    /// Decision per load/store site.
    pub decisions: HashMap<Site, SiteDecision>,
    /// What the plan would insert.
    pub report: CheckReport,
}

impl CheckPlan {
    /// The decision at a site (no-checks if the site is not a mem op).
    pub fn decision_at(&self, site: Site) -> SiteDecision {
        self.decisions.get(&site).copied().unwrap_or_default()
    }
}

/// Computes the check-insertion plan for `module` under `policy` without
/// modifying it: a pure selection over `analysis`, which must come from
/// the same module. [`CheckPolicy::Interprocedural`] drops any check
/// whose aspect the provenance verifier proved safe.
pub fn plan_checks(module: &Module, analysis: &Analysis, policy: CheckPolicy) -> CheckPlan {
    let mut plan = CheckPlan::default();
    for (site, inst) in module.sites() {
        let fi = site.func as usize;
        let (addr, val) = match inst {
            Inst::Load { addr, .. } => (addr, None),
            Inst::Store { addr, val } => (addr, Some(val)),
            _ => continue,
        };
        let valid_p = analysis.valid_of(fi, *addr);
        // Only pointer stores need the containment rule; integer stores
        // have no valid set.
        let valid_v = val
            .map(|v| analysis.valid_of(fi, *v))
            .filter(|v| !v.is_empty());
        let mut decision = match policy {
            CheckPolicy::Naive => SiteDecision {
                need_deref: true,
                need_store: valid_v.is_some(),
            },
            CheckPolicy::Analyzed | CheckPolicy::Interprocedural => SiteDecision {
                need_deref: deref_needs_check(
                    &valid_p,
                    analysis.vas_in_of(fi, BlockId(site.block), site.idx as usize),
                ),
                need_store: valid_v.is_some_and(|v| store_ptr_needs_check(&valid_p, &v)),
            },
        };
        if policy == CheckPolicy::Interprocedural {
            if let Some(verdict) = analysis.verified.verdict_at(site) {
                if verdict.deref == SiteClass::ProvenSafe {
                    decision.need_deref = false;
                }
                if verdict.store == Some(SiteClass::ProvenSafe) {
                    decision.need_store = false;
                }
            }
        }
        plan.report.mem_ops += 1;
        if decision.need_deref {
            plan.report.deref_checks += 1;
        }
        if decision.need_store {
            plan.report.store_checks += 1;
        }
        if !decision.need_deref && !decision.need_store {
            plan.report.proven_safe += 1;
        }
        plan.decisions.insert(site, decision);
    }
    plan
}

/// Inserts checks into `module` according to `policy`.
///
/// Returns what was inserted. The module is modified in place: flagged
/// loads/stores get a [`Inst::CheckDeref`] (and pointer stores a
/// [`Inst::CheckStore`]) immediately before them.
pub fn insert_checks(module: &mut Module, analysis: &Analysis, policy: CheckPolicy) -> CheckReport {
    let plan = plan_checks(module, analysis, policy);
    apply_plan(module, &plan);
    plan.report
}

/// Applies a previously computed [`CheckPlan`] to `module`.
pub fn apply_plan(module: &mut Module, plan: &CheckPlan) {
    for (fi, func) in module.functions.iter_mut().enumerate() {
        for (bi, block) in func.blocks.iter_mut().enumerate() {
            let mut new_insts = Vec::with_capacity(block.insts.len());
            for (ii, inst) in block.insts.iter().enumerate() {
                let decision = plan.decision_at(Site::new(fi, bi, ii));
                if decision.need_deref {
                    let addr = match inst {
                        Inst::Load { addr, .. } | Inst::Store { addr, .. } => *addr,
                        _ => unreachable!("deref check planned at a non-mem-op site"),
                    };
                    new_insts.push(Inst::CheckDeref { addr });
                }
                if decision.need_store {
                    let Inst::Store { addr, val } = inst else {
                        unreachable!("store check planned at a non-store site")
                    };
                    new_insts.push(Inst::CheckStore {
                        addr: *addr,
                        val: *val,
                    });
                }
                new_insts.push(inst.clone());
            }
            block.insts = new_insts;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analysis;
    use crate::ir::{BlockId, Function, Module, VasName};

    fn entry() -> VasSet {
        [AbstractVas::Vas(VasName(0))].into_iter().collect()
    }

    /// p = malloc; *p = 1; x = *p — provably safe, no checks.
    #[test]
    fn straightline_same_vas_needs_no_checks() {
        let mut m = Module::new();
        let mut f = Function::new("main", 0);
        let p = f.fresh_reg();
        let one = f.fresh_reg();
        let x = f.fresh_reg();
        f.push(BlockId(0), Inst::Malloc { dst: p, size: 8 });
        f.push(BlockId(0), Inst::Const { dst: one, value: 1 });
        f.push(BlockId(0), Inst::Store { addr: p, val: one });
        f.push(BlockId(0), Inst::Load { dst: x, addr: p });
        f.push(BlockId(0), Inst::Ret(None));
        m.add_function(f);
        let a = Analysis::run(&m, entry());
        let report = insert_checks(&mut m, &a, CheckPolicy::Analyzed);
        assert_eq!(report.deref_checks + report.store_checks, 0);
        assert_eq!(report.proven_safe, 2);
        assert_eq!(m.check_count(), 0);
    }

    /// p = malloc (in VAS 0); switch 1; x = *p — dereference in the
    /// wrong VAS: check required.
    #[test]
    fn cross_vas_deref_flagged() {
        let mut m = Module::new();
        let mut f = Function::new("main", 0);
        let p = f.fresh_reg();
        let x = f.fresh_reg();
        f.push(BlockId(0), Inst::Malloc { dst: p, size: 8 });
        f.push(BlockId(0), Inst::Switch(VasName(1)));
        f.push(BlockId(0), Inst::Load { dst: x, addr: p });
        f.push(BlockId(0), Inst::Ret(None));
        m.add_function(f);
        let a = Analysis::run(&m, entry());
        let report = insert_checks(&mut m, &a, CheckPolicy::Analyzed);
        assert_eq!(report.deref_checks, 1);
    }

    /// Stack pointers are always safe to dereference.
    #[test]
    fn common_pointers_not_checked() {
        let mut m = Module::new();
        let mut f = Function::new("main", 0);
        let s = f.fresh_reg();
        let x = f.fresh_reg();
        f.push(BlockId(0), Inst::Alloca { dst: s, size: 8 });
        f.push(BlockId(0), Inst::Switch(VasName(1)));
        f.push(BlockId(0), Inst::Load { dst: x, addr: s });
        f.push(BlockId(0), Inst::Ret(None));
        m.add_function(f);
        let a = Analysis::run(&m, entry());
        let report = insert_checks(&mut m, &a, CheckPolicy::Analyzed);
        assert_eq!(report.deref_checks, 0, "common region valid in every VAS");
    }

    /// Storing a VAS pointer into common memory is fine; storing a
    /// cross-VAS pointer into VAS memory needs a store check.
    #[test]
    fn pointer_store_rules() {
        let mut m = Module::new();
        let mut f = Function::new("main", 0);
        let s = f.fresh_reg();
        let p = f.fresh_reg();
        let q = f.fresh_reg();
        f.push(BlockId(0), Inst::Alloca { dst: s, size: 8 });
        f.push(BlockId(0), Inst::Malloc { dst: p, size: 8 });
        f.push(BlockId(0), Inst::Store { addr: s, val: p }); // ptr -> common: ok
        f.push(BlockId(0), Inst::Switch(VasName(1)));
        f.push(BlockId(0), Inst::Malloc { dst: q, size: 8 });
        f.push(BlockId(0), Inst::Store { addr: q, val: p }); // VAS0 ptr -> VAS1 mem: check
        f.push(BlockId(0), Inst::Ret(None));
        m.add_function(f);
        let a = Analysis::run(&m, entry());
        let report = insert_checks(&mut m, &a, CheckPolicy::Analyzed);
        assert_eq!(report.store_checks, 1);
    }

    /// Naive policy checks everything; analysis prunes.
    #[test]
    fn analyzed_beats_naive() {
        let mut m = Module::new();
        let mut f = Function::new("main", 0);
        let p = f.fresh_reg();
        let c = f.fresh_reg();
        f.push(BlockId(0), Inst::Malloc { dst: p, size: 64 });
        f.push(BlockId(0), Inst::Const { dst: c, value: 7 });
        for _ in 0..10 {
            f.push(BlockId(0), Inst::Store { addr: p, val: c });
        }
        f.push(BlockId(0), Inst::Ret(None));
        m.add_function(f);
        let a = Analysis::run(&m, entry());
        let mut naive = m.clone();
        let naive_report = insert_checks(&mut naive, &a, CheckPolicy::Naive);
        let analyzed_report = insert_checks(&mut m, &a, CheckPolicy::Analyzed);
        assert_eq!(naive_report.deref_checks, 10);
        assert_eq!(analyzed_report.deref_checks, 0);
        assert!(analyzed_report.check_ratio() < naive_report.check_ratio());
    }

    /// Ambiguous current VAS (branch-dependent switch) forces checks even
    /// for pointers that are valid somewhere.
    #[test]
    fn ambiguous_vas_in_forces_check() {
        let mut m = Module::new();
        let mut f = Function::new("main", 0);
        let cond = f.fresh_reg();
        let p = f.fresh_reg();
        let x = f.fresh_reg();
        let t = f.add_block();
        let j = f.add_block();
        f.push(BlockId(0), Inst::Malloc { dst: p, size: 8 });
        f.push(
            BlockId(0),
            Inst::Const {
                dst: cond,
                value: 1,
            },
        );
        f.push(
            BlockId(0),
            Inst::CondBr {
                cond,
                then_bb: t,
                else_bb: j,
            },
        );
        f.push(t, Inst::Switch(VasName(1)));
        f.push(t, Inst::Br(j));
        f.push(j, Inst::Load { dst: x, addr: p });
        f.push(j, Inst::Ret(None));
        m.add_function(f);
        let a = Analysis::run(&m, entry());
        let report = insert_checks(&mut m, &a, CheckPolicy::Analyzed);
        assert_eq!(report.deref_checks, 1, "VASin at the load is {{0, 1}}");
    }

    /// The boxed reload: `Analyzed` must check the loaded pointer (it is
    /// `vunknown`); `Interprocedural` proves it safe and elides.
    #[test]
    fn interprocedural_elides_boxed_reload() {
        let mut m = Module::new();
        let mut f = Function::new("main", 0);
        let p = f.fresh_reg();
        let slot = f.fresh_reg();
        let q = f.fresh_reg();
        let x = f.fresh_reg();
        f.push(BlockId(0), Inst::Malloc { dst: p, size: 8 });
        f.push(BlockId(0), Inst::Alloca { dst: slot, size: 8 });
        f.push(BlockId(0), Inst::Store { addr: slot, val: p });
        f.push(BlockId(0), Inst::Load { dst: q, addr: slot });
        f.push(BlockId(0), Inst::Load { dst: x, addr: q });
        f.push(BlockId(0), Inst::Ret(Some(x)));
        m.add_function(f);
        let a = Analysis::run(&m, entry());
        let analyzed = plan_checks(&m, &a, CheckPolicy::Analyzed);
        let interproc = plan_checks(&m, &a, CheckPolicy::Interprocedural);
        assert_eq!(analyzed.report.deref_checks, 1, "q is vunknown");
        assert_eq!(
            interproc.report.deref_checks, 0,
            "provenance recovers q = p"
        );
        assert!(interproc.report.proven_safe > analyzed.report.proven_safe);
    }

    /// Interprocedural elision is a superset of Analyzed elision: every
    /// check it keeps, Analyzed also keeps.
    #[test]
    fn interprocedural_is_a_refinement() {
        let mut m = Module::new();
        let mut f = Function::new("main", 0);
        let p = f.fresh_reg();
        let slot = f.fresh_reg();
        let q = f.fresh_reg();
        let x = f.fresh_reg();
        f.push(BlockId(0), Inst::Malloc { dst: p, size: 8 });
        f.push(BlockId(0), Inst::Alloca { dst: slot, size: 8 });
        f.push(BlockId(0), Inst::Store { addr: slot, val: p });
        f.push(BlockId(0), Inst::Switch(VasName(1)));
        f.push(BlockId(0), Inst::Load { dst: q, addr: slot });
        f.push(BlockId(0), Inst::Load { dst: x, addr: q });
        f.push(BlockId(0), Inst::Ret(None));
        m.add_function(f);
        let a = Analysis::run(&m, entry());
        let analyzed = plan_checks(&m, &a, CheckPolicy::Analyzed);
        let interproc = plan_checks(&m, &a, CheckPolicy::Interprocedural);
        for (site, d) in &interproc.decisions {
            let ad = analyzed.decision_at(*site);
            assert!(!d.need_deref || ad.need_deref);
            assert!(!d.need_store || ad.need_store);
        }
    }
}
