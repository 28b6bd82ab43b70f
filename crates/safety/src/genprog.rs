//! Seeded IR program generator and the soundness self-validation
//! harness — the analyzer fuzzing itself, fully offline.
//!
//! [`generate`] builds a deterministic random module from a [`SimRng`]
//! seed: multiple functions (helpers drawn from small templates,
//! including a self-recursive one), branches with phi joins across
//! `switch` edges, heap/stack/segment allocation, pointer escapes
//! through common slots, shared segments and VAS memory, and `vcast`
//! reads. Programs may be safe or unsafe — both are wanted.
//!
//! One discipline is deliberate: a register used in an *address*
//! position always holds a runtime pointer (pointer containers only
//! ever receive pointer stores, and `vcast` pointers are only read
//! through, never stored through). Without it the generator would
//! trip a known imprecision of the *intraprocedural* policy — an
//! integer stored into a VAS cell can be reloaded with
//! `VASvalid = VASin` and dereferenced past an elided check — which is
//! `Analyzed`'s latent hole, not a property of the provenance pass
//! this harness is validating.
//!
//! [`validate_seed`] then closes the loop for one program:
//!
//! 1. run the **uninstrumented** program under the interpreter with a
//!    site log;
//! 2. any VAS-rule fault must land on a site where the
//!    [`CheckPolicy::Interprocedural`] plan kept a check — no
//!    statically-elided check would ever have fired;
//! 3. no proven-dangling site may execute successfully, and no
//!    proven-safe site may fault on the VAS rules;
//! 4. the instrumented program must be observationally equivalent
//!    (same result, or an inserted check catching the same fault).

use sjmp_sim::SimRng;

use crate::analysis::Analysis;
use crate::checks::{apply_plan, plan_checks, CheckPolicy};
use crate::interp::{Interp, Trap};
use crate::ir::{
    AbstractVas, BlockId, FuncId, Function, Inst, Module, Phi, Reg, SegName, VasName, VasSet,
};
use crate::provenance::SiteClass;

/// Entry VAS for generated programs: `{v0}`.
pub fn entry_set() -> VasSet {
    [AbstractVas::Vas(VasName(0))].into_iter().collect()
}

/// Helper templates the generator can instantiate.
#[derive(Clone, Copy, PartialEq, Eq)]
enum HelperKind {
    /// `id(p) = p`.
    Identity,
    /// `read(p) = *p`.
    Deref,
    /// `put(p) { *p = k; ret p }`.
    StoreConst,
    /// `sw(p) { switch v; ret p }`.
    Switcher,
    /// `box(p) { slot = alloca; *slot = p; ret *slot }`.
    Boxer,
    /// `rec(f, p) { if f { ret rec(0, p) } else { ret p } }`.
    Recursive,
}

struct HelperSig {
    kind: HelperKind,
    id: FuncId,
}

fn build_helper(kind: HelperKind, id: FuncId, rng: &mut SimRng) -> Function {
    match kind {
        HelperKind::Identity => {
            let mut f = Function::new("id", 1);
            let p = f.params[0];
            f.push(BlockId(0), Inst::Ret(Some(p)));
            f
        }
        HelperKind::Deref => {
            let mut f = Function::new("read", 1);
            let p = f.params[0];
            let x = f.fresh_reg();
            f.push(BlockId(0), Inst::Load { dst: x, addr: p });
            f.push(BlockId(0), Inst::Ret(Some(x)));
            f
        }
        HelperKind::StoreConst => {
            let mut f = Function::new("put", 1);
            let p = f.params[0];
            let c = f.fresh_reg();
            f.push(
                BlockId(0),
                Inst::Const {
                    dst: c,
                    value: rng.gen_range(0..100),
                },
            );
            f.push(BlockId(0), Inst::Store { addr: p, val: c });
            f.push(BlockId(0), Inst::Ret(Some(p)));
            f
        }
        HelperKind::Switcher => {
            let mut f = Function::new("sw", 1);
            let p = f.params[0];
            f.push(
                BlockId(0),
                Inst::Switch(VasName(rng.gen_range(0..3) as u32)),
            );
            f.push(BlockId(0), Inst::Ret(Some(p)));
            f
        }
        HelperKind::Boxer => {
            let mut f = Function::new("boxit", 1);
            let p = f.params[0];
            let slot = f.fresh_reg();
            let q = f.fresh_reg();
            f.push(BlockId(0), Inst::Alloca { dst: slot, size: 8 });
            f.push(BlockId(0), Inst::Store { addr: slot, val: p });
            f.push(BlockId(0), Inst::Load { dst: q, addr: slot });
            f.push(BlockId(0), Inst::Ret(Some(q)));
            f
        }
        HelperKind::Recursive => {
            let mut f = Function::new("rec", 2);
            let flag = f.params[0];
            let p = f.params[1];
            let rec = f.add_block();
            let base = f.add_block();
            f.push(
                BlockId(0),
                Inst::CondBr {
                    cond: flag,
                    then_bb: rec,
                    else_bb: base,
                },
            );
            let zero = f.fresh_reg();
            let r = f.fresh_reg();
            f.push(
                rec,
                Inst::Const {
                    dst: zero,
                    value: 0,
                },
            );
            f.push(
                rec,
                Inst::Call {
                    dst: Some(r),
                    func: id,
                    args: vec![zero, p],
                },
            );
            f.push(rec, Inst::Ret(Some(r)));
            f.push(base, Inst::Ret(Some(p)));
            f
        }
    }
}

/// Generator state for `main`.
struct Gen {
    f: Function,
    cur: BlockId,
    /// Pointers to cells holding integers (heap or vcast-readable).
    cells: Vec<Reg>,
    /// Pointers to containers that only ever receive pointer stores.
    boxes: Vec<Reg>,
    /// Common containers (alloca/segaddr) for pointer stores.
    ptr_slots: Vec<Reg>,
    /// Common containers for integer stores.
    int_slots: Vec<Reg>,
    /// Integer registers.
    ints: Vec<Reg>,
    /// `vcast` results — read-only derefs.
    vcasts: Vec<Reg>,
    diamonds: usize,
}

impl Gen {
    fn pick(rng: &mut SimRng, pool: &[Reg]) -> Option<Reg> {
        if pool.is_empty() {
            None
        } else {
            Some(pool[rng.gen_range(0..pool.len() as u64) as usize])
        }
    }

    fn push(&mut self, inst: Inst) {
        self.f.push(self.cur, inst);
    }
}

/// Generates a deterministic random module from `seed`.
pub fn generate(seed: u64) -> Module {
    let mut rng = SimRng::seed_from_u64(seed);
    let n_helpers = rng.gen_range(0..3) as usize;
    let kinds = [
        HelperKind::Identity,
        HelperKind::Deref,
        HelperKind::StoreConst,
        HelperKind::Switcher,
        HelperKind::Boxer,
        HelperKind::Recursive,
    ];
    let helpers: Vec<HelperSig> = (0..n_helpers)
        .map(|i| HelperSig {
            kind: kinds[rng.gen_range(0..kinds.len() as u64) as usize],
            id: FuncId((i + 1) as u32),
        })
        .collect();

    let mut g = Gen {
        f: Function::new("main", 0),
        cur: BlockId(0),
        cells: Vec::new(),
        boxes: Vec::new(),
        ptr_slots: Vec::new(),
        int_slots: Vec::new(),
        ints: Vec::new(),
        vcasts: Vec::new(),
        diamonds: 0,
    };
    // Seed the pools so early actions have operands.
    let c0 = g.f.fresh_reg();
    let m0 = g.f.fresh_reg();
    let s0 = g.f.fresh_reg();
    g.push(Inst::Const { dst: c0, value: 1 });
    g.push(Inst::Malloc { dst: m0, size: 8 });
    g.push(Inst::Alloca { dst: s0, size: 8 });
    g.ints.push(c0);
    g.cells.push(m0);
    g.ptr_slots.push(s0);

    let n_actions = 6 + rng.gen_range(0..20) as usize;
    for _ in 0..n_actions {
        step(&mut g, &mut rng, &helpers);
    }
    let ret = Gen::pick(&mut rng, &g.ints);
    g.push(Inst::Ret(ret));

    let mut m = Module::new();
    m.add_function(g.f);
    for h in &helpers {
        m.add_function(build_helper(h.kind, h.id, &mut rng));
    }
    m
}

fn step(g: &mut Gen, rng: &mut SimRng, helpers: &[HelperSig]) {
    match rng.gen_range(0..13) {
        // switch v
        0 => {
            let v = VasName(rng.gen_range(0..3) as u32);
            g.push(Inst::Switch(v));
        }
        // heap allocation: an int cell or a pointer box
        1 => {
            let dst = g.f.fresh_reg();
            g.push(Inst::Malloc { dst, size: 8 });
            if rng.gen_range(0..3) == 0 {
                g.boxes.push(dst);
            } else {
                g.cells.push(dst);
            }
        }
        // common container: alloca or segaddr
        2 => {
            let dst = g.f.fresh_reg();
            if rng.gen_range(0..2) == 0 {
                g.push(Inst::Alloca { dst, size: 8 });
            } else {
                g.push(Inst::SegAddr {
                    dst,
                    seg: SegName(rng.gen_range(0..2) as u32),
                });
            }
            if rng.gen_range(0..2) == 0 {
                g.ptr_slots.push(dst);
            } else {
                g.int_slots.push(dst);
            }
        }
        // integer constant
        3 => {
            let dst = g.f.fresh_reg();
            g.push(Inst::Const {
                dst,
                value: rng.gen_range(0..64),
            });
            g.ints.push(dst);
        }
        // *cell = int
        4 => {
            let addrs: Vec<Reg> = g.cells.iter().chain(&g.int_slots).copied().collect();
            if let (Some(addr), Some(val)) = (Gen::pick(rng, &addrs), Gen::pick(rng, &g.ints)) {
                g.push(Inst::Store { addr, val });
            }
        }
        // int = *cell (or through a vcast)
        5 => {
            let addrs: Vec<Reg> = g
                .cells
                .iter()
                .chain(&g.int_slots)
                .chain(&g.vcasts)
                .copied()
                .collect();
            if let Some(addr) = Gen::pick(rng, &addrs) {
                let dst = g.f.fresh_reg();
                g.push(Inst::Load { dst, addr });
                g.ints.push(dst);
            }
        }
        // *container = cell-pointer (the escape store)
        6 => {
            let addrs: Vec<Reg> = g
                .ptr_slots
                .iter()
                .chain(&g.boxes)
                .chain(&g.cells)
                .copied()
                .collect();
            if let (Some(addr), Some(val)) = (Gen::pick(rng, &addrs), Gen::pick(rng, &g.cells)) {
                g.push(Inst::Store { addr, val });
            }
        }
        // ptr = *container (reload an escaped pointer)
        7 => {
            let addrs: Vec<Reg> = g.ptr_slots.iter().chain(&g.boxes).copied().collect();
            if let Some(addr) = Gen::pick(rng, &addrs) {
                let dst = g.f.fresh_reg();
                g.push(Inst::Load { dst, addr });
                g.cells.push(dst);
            }
        }
        // copy a pointer
        8 => {
            if let Some(src) = Gen::pick(rng, &g.cells) {
                let dst = g.f.fresh_reg();
                g.push(Inst::Copy { dst, src });
                g.cells.push(dst);
            }
        }
        // vcast (read-only: stores through it would poison typing)
        9 => {
            if let Some(src) = Gen::pick(rng, &g.cells) {
                let dst = g.f.fresh_reg();
                g.push(Inst::VCast {
                    dst,
                    src,
                    vas: VasName(rng.gen_range(0..3) as u32),
                });
                g.vcasts.push(dst);
            }
        }
        // lock/unlock a segment (paired, so no leak traps)
        10 => {
            let s = SegName(rng.gen_range(0..2) as u32);
            g.push(Inst::Lock(s));
            g.push(Inst::Unlock(s));
        }
        // call a helper
        11 => {
            if helpers.is_empty() {
                return;
            }
            let h = &helpers[rng.gen_range(0..helpers.len() as u64) as usize];
            let Some(p) = Gen::pick(rng, &g.cells) else {
                return;
            };
            let dst = g.f.fresh_reg();
            let args = match h.kind {
                HelperKind::Recursive => {
                    let flag = g.f.fresh_reg();
                    g.push(Inst::Const {
                        dst: flag,
                        value: rng.gen_range(0..2),
                    });
                    vec![flag, p]
                }
                _ => vec![p],
            };
            g.push(Inst::Call {
                dst: Some(dst),
                func: h.id,
                args,
            });
            // Deref returns the loaded integer; everything else returns
            // a cell pointer.
            if h.kind == HelperKind::Deref {
                g.ints.push(dst);
            } else {
                g.cells.push(dst);
            }
        }
        // a diamond: both arms switch and allocate, phi-join the results
        _ => {
            if g.diamonds >= 2 {
                return;
            }
            g.diamonds += 1;
            let cond = g.f.fresh_reg();
            g.push(Inst::Const {
                dst: cond,
                value: rng.gen_range(0..2),
            });
            let t = g.f.add_block();
            let e = g.f.add_block();
            let j = g.f.add_block();
            g.push(Inst::CondBr {
                cond,
                then_bb: t,
                else_bb: e,
            });
            let p1 = g.f.fresh_reg();
            let p2 = g.f.fresh_reg();
            let p = g.f.fresh_reg();
            let v1 = VasName(rng.gen_range(0..3) as u32);
            let v2 = VasName(rng.gen_range(0..3) as u32);
            g.f.push(t, Inst::Switch(v1));
            g.f.push(t, Inst::Malloc { dst: p1, size: 8 });
            g.f.push(t, Inst::Br(j));
            g.f.push(e, Inst::Switch(v2));
            g.f.push(e, Inst::Malloc { dst: p2, size: 8 });
            g.f.push(e, Inst::Br(j));
            g.f.push_phi(
                j,
                Phi {
                    dst: p,
                    incomings: vec![(t, p1), (e, p2)],
                },
            );
            g.cur = j;
            g.cells.push(p);
        }
    }
}

/// Outcome of validating one generated program.
#[derive(Debug, Clone, Default)]
pub struct SeedOutcome {
    /// Program ran to completion (vs. trapped).
    pub ran_ok: bool,
    /// Memory-operation sites in the program.
    pub mem_sites: usize,
    /// Sites proven safe / dangling by the verifier.
    pub proven_safe: usize,
    /// Sites proven dangling.
    pub proven_dangling: usize,
    /// Proven-dangling sites that were reached and did fault.
    pub dangling_confirmed: usize,
    /// Checks `Interprocedural` elided beyond `Analyzed`.
    pub extra_elisions: usize,
}

/// Validates the analyzer against the interpreter for one seed.
///
/// # Errors
///
/// Returns a description of the first soundness violation found: an
/// elided check that would have fired, a proven-safe site that faulted,
/// a proven-dangling site that executed, or an instrumented run that
/// diverged from the uninstrumented one.
pub fn validate_seed(seed: u64) -> Result<SeedOutcome, String> {
    let module = generate(seed);
    let analysis = Analysis::run(&module, entry_set());
    let report = &analysis.verified;
    let analyzed = plan_checks(&module, &analysis, CheckPolicy::Analyzed);
    let plan = plan_checks(&module, &analysis, CheckPolicy::Interprocedural);

    let mut outcome = SeedOutcome {
        mem_sites: report.mem_ops(),
        proven_safe: report.count(SiteClass::ProvenSafe),
        proven_dangling: report.count(SiteClass::ProvenDangling),
        extra_elisions: (analyzed.report.deref_checks + analyzed.report.store_checks)
            - (plan.report.deref_checks + plan.report.store_checks),
        ..SeedOutcome::default()
    };

    let mut plain = Interp::new(&module, VasName(0))
        .with_site_log()
        .with_step_limit(100_000);
    let plain_result = plain.run(&[]);
    outcome.ran_ok = plain_result.is_ok();
    let log = plain.site_log().expect("site log enabled").clone();

    // 1. No elided check may ever have fired: a VAS-rule fault must land
    //    where the plan kept the matching check.
    if let Err(trap) = &plain_result {
        if let Some(site) = log.fault {
            let decision = plan.decision_at(site);
            let covered = match trap {
                Trap::UnsafeDeref { .. } => decision.need_deref,
                Trap::UnsafeStore { .. } => decision.need_store,
                Trap::NotAPointer => decision.need_deref || decision.need_store,
                _ => true,
            };
            if !covered {
                return Err(format!(
                    "seed {seed}: {trap} at {site} but the Interprocedural plan elided the check"
                ));
            }
            // 2. Proven-safe sites must never fault on the VAS rules.
            if matches!(
                trap,
                Trap::UnsafeDeref { .. } | Trap::UnsafeStore { .. } | Trap::NotAPointer
            ) {
                if let Some(v) = report.verdict_at(site) {
                    if v.class == SiteClass::ProvenSafe {
                        return Err(format!(
                            "seed {seed}: proven-safe site {site} faulted with {trap}"
                        ));
                    }
                }
            }
        }
    }

    // 3. Proven-dangling sites must fault whenever reached.
    for verdict in &report.verdicts {
        if verdict.class == SiteClass::ProvenDangling {
            if log.executed_ok.contains(&verdict.site) {
                return Err(format!(
                    "seed {seed}: proven-dangling site {} executed successfully",
                    verdict.site
                ));
            }
            if log.fault == Some(verdict.site) {
                outcome.dangling_confirmed += 1;
            }
        }
    }

    // 4. Instrumentation must not change observable behavior.
    let mut instrumented = module.clone();
    apply_plan(&mut instrumented, &plan);
    let mut checked = Interp::new(&instrumented, VasName(0)).with_step_limit(100_000);
    let checked_result = checked.run(&[]);
    let equivalent = match (&plain_result, &checked_result) {
        (Ok(a), Ok(b)) => a == b,
        (Err(Trap::UnsafeDeref { .. }) | Err(Trap::UnsafeStore { .. }), Err(t)) => {
            matches!(t, Trap::CheckFailed { .. })
        }
        (Err(Trap::NotAPointer), Err(t)) => {
            matches!(t, Trap::CheckFailed { .. } | Trap::NotAPointer)
        }
        (Err(a), Err(b)) => a == b,
        _ => false,
    };
    if !equivalent {
        return Err(format!(
            "seed {seed}: instrumented run diverged: plain {plain_result:?} vs checked {checked_result:?}"
        ));
    }
    Ok(outcome)
}

/// Aggregate result of a [`validate_seed`] batch.
#[derive(Debug, Clone, Default)]
pub struct SoundnessReport {
    /// Programs generated and validated.
    pub programs: usize,
    /// Programs that ran to completion uninstrumented.
    pub ran_ok: usize,
    /// Total memory-operation sites across all programs.
    pub mem_sites: usize,
    /// Sites proven safe.
    pub proven_safe: usize,
    /// Sites proven dangling.
    pub proven_dangling: usize,
    /// Proven-dangling sites observed to fault at runtime.
    pub dangling_confirmed: usize,
    /// Checks elided beyond `Analyzed` across all programs.
    pub extra_elisions: usize,
    /// Soundness violations (must be empty).
    pub violations: Vec<String>,
}

/// Runs [`validate_seed`] over a seed range and aggregates.
pub fn validate_batch(seeds: std::ops::Range<u64>) -> SoundnessReport {
    let mut report = SoundnessReport::default();
    for seed in seeds {
        report.programs += 1;
        match validate_seed(seed) {
            Ok(o) => {
                report.ran_ok += usize::from(o.ran_ok);
                report.mem_sites += o.mem_sites;
                report.proven_safe += o.proven_safe;
                report.proven_dangling += o.proven_dangling;
                report.dangling_confirmed += o.dangling_confirmed;
                report.extra_elisions += o.extra_elisions;
            }
            Err(v) => report.violations.push(v),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Generation is deterministic per seed.
    #[test]
    fn generation_is_deterministic() {
        for seed in 0..16 {
            let a = format!("{}", generate(seed));
            let b = format!("{}", generate(seed));
            assert_eq!(a, b);
        }
    }

    /// A quick smoke batch (the full 500-seed run lives in the
    /// verify_soundness integration test).
    #[test]
    fn small_batch_is_sound() {
        let report = validate_batch(0..64);
        assert!(
            report.violations.is_empty(),
            "violations: {:#?}",
            report.violations
        );
        assert_eq!(report.programs, 64);
        assert!(report.mem_sites > 0);
    }
}
