//! The `VASvalid` / `VASin` / `VASout` dataflow analysis of Section 4.3.
//!
//! "The analysis begins by finding the potentially active VASes at each
//! program point and the VASes each pointer may be valid in." The transfer
//! functions follow Figure 5 exactly:
//!
//! | instruction      | impact                                            |
//! |------------------|---------------------------------------------------|
//! | `switch v`       | `VASout(i) = {v}`                                 |
//! | `x = vcast y v`  | `VASvalid(x) = {v}`                               |
//! | `x = alloca`     | `VASvalid(x) = vcommon`                           |
//! | `x = global`     | `VASvalid(x) = vcommon`                           |
//! | `x = malloc`     | `VASvalid(x) = VASin(i)`                          |
//! | `x = y`          | `VASvalid(x) = VASvalid(y)`                       |
//! | `x = phi y z...` | union of incoming `VASvalid`                      |
//! | `x = *y`         | `VASin(i)`, or `vunknown` for common-region loads |
//! | `*x = y`         | no impact                                         |
//! | `x = foo(...)`   | propagate into params / out of returns            |
//! | `ret x`          | update callee summaries                           |
//!
//! `VASin` is the flow state and `VASvalid` the register fact of a
//! [`crate::dataflow`] problem; the solver does the copy, phi, call and
//! return rows. Interprocedural propagation is context-insensitive ("VASes
//! of pointers across function boundaries are tracked via a global
//! array" — the solver's per-function summaries play that role), and a
//! call's out-state joins the callee's exit into its in-state: the callee
//! may or may not switch.
//!
//! [`Analysis::run`] also runs the provenance verifier
//! ([`crate::provenance`]) once over the result, so every
//! [`crate::checks::CheckPolicy`] is a selection over one analysis.

use crate::dataflow::{self, Effect, Lattice, Problem};
use crate::ir::{AbstractVas, BlockId, Inst, Module, Reg, Site, VasSet};
use crate::provenance::{Provenance, VerifyReport};

/// Analysis results for one module.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// `VASvalid` per function, per register number. An empty set means
    /// the register is not a pointer.
    pub valid: Vec<Vec<VasSet>>,
    /// `VASin` per function, per block, per instruction index.
    pub vas_in: Vec<Vec<Vec<VasSet>>>,
    /// VAS set at each function's entry (union over callsites; function 0
    /// gets the caller-provided entry set).
    pub entry: Vec<VasSet>,
    /// VAS set at each function's returns.
    pub exit: Vec<VasSet>,
    /// `VASvalid` of each function's return value.
    pub ret_valid: Vec<VasSet>,
    /// Function visits the solver used.
    pub iterations: u32,
    /// Pointer provenance over the same module.
    pub provenance: Provenance,
    /// The provenance verifier's verdict on every load and store.
    pub verified: VerifyReport,
}

impl Analysis {
    /// Runs the analysis with `main` entered in `entry_vas`, then the
    /// provenance verifier over its result.
    pub fn run(module: &Module, entry_vas: VasSet) -> Analysis {
        let sol = dataflow::solve(module, &mut VasValid, entry_vas, VasSet::new());
        let provenance = Provenance::run(module, &sol.states);
        let verified = provenance.report(module, &sol.states);
        Analysis {
            valid: sol.regs,
            vas_in: sol.states,
            entry: sol.entry,
            exit: sol.exit,
            ret_valid: sol.ret,
            iterations: sol.visits,
            provenance,
            verified,
        }
    }

    /// The `VASvalid` set of a register (empty = not a pointer).
    pub fn valid_of(&self, func: usize, reg: Reg) -> VasSet {
        self.valid[func][reg.0 as usize].clone()
    }

    /// The `VASin` set of an instruction.
    pub fn vas_in_of(&self, func: usize, bb: BlockId, idx: usize) -> &VasSet {
        &self.vas_in[func][bb.0 as usize][idx]
    }
}

/// The Figure 5 transfer functions: `VASin` flows, `VASvalid` per register.
struct VasValid;

impl Problem for VasValid {
    type State = VasSet;
    type Value = VasSet;

    fn transfer(
        &mut self,
        _site: Site,
        inst: &Inst,
        vas_in: &mut VasSet,
        valid: &[VasSet],
    ) -> Effect<VasSet> {
        let only = |v: AbstractVas| Effect::Def([v].into_iter().collect());
        match inst {
            Inst::Switch(v) => {
                *vas_in = [AbstractVas::Vas(*v)].into_iter().collect();
                Effect::None
            }
            Inst::VCast { vas, .. } => only(AbstractVas::Vas(*vas)),
            // Shared segments are mapped at the same address in every
            // attaching VAS, so a segment base is common-region valid;
            // lock/unlock change no VAS state (the lockset analysis in
            // sjmp-analyze owns them).
            Inst::Alloca { .. } | Inst::Global { .. } | Inst::SegAddr { .. } => {
                only(AbstractVas::Common)
            }
            Inst::Malloc { .. } => Effect::Def(vas_in.clone()),
            Inst::Load { addr, .. } => {
                // Loading a pointer out of the common region gives a
                // statically unknown pointer; out of VAS memory it must be
                // valid in the current VAS. An address not yet known to be
                // a pointer contributes nothing, which keeps the rule
                // monotone.
                let from = &valid[addr.0 as usize];
                let mut s = VasSet::new();
                if from.contains(&AbstractVas::Common) || from.contains(&AbstractVas::Unknown) {
                    s.insert(AbstractVas::Unknown);
                }
                if from.iter().any(|v| matches!(v, AbstractVas::Vas(_))) {
                    s.join(vas_in);
                }
                Effect::Def(s)
            }
            _ => Effect::None,
        }
    }

    fn call_return(&self, vas_in: &mut VasSet, exit: &VasSet) {
        vas_in.join(exit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{FuncId, Function, Phi, VasName};

    fn vset(items: &[AbstractVas]) -> VasSet {
        items.iter().copied().collect()
    }

    fn v(n: u32) -> AbstractVas {
        AbstractVas::Vas(VasName(n))
    }

    fn entry() -> VasSet {
        vset(&[v(0)])
    }

    #[test]
    fn malloc_tracks_current_vas() {
        let mut m = Module::new();
        let mut f = Function::new("main", 0);
        let p = f.fresh_reg();
        let q = f.fresh_reg();
        f.push(BlockId(0), Inst::Malloc { dst: p, size: 8 });
        f.push(BlockId(0), Inst::Switch(VasName(1)));
        f.push(BlockId(0), Inst::Malloc { dst: q, size: 8 });
        f.push(BlockId(0), Inst::Ret(None));
        m.add_function(f);
        let a = Analysis::run(&m, entry());
        assert_eq!(a.valid_of(0, p), vset(&[v(0)]));
        assert_eq!(a.valid_of(0, q), vset(&[v(1)]));
        assert_eq!(a.exit[0], vset(&[v(1)]));
    }

    #[test]
    fn alloca_and_global_are_common() {
        let mut m = Module::new();
        let mut f = Function::new("main", 0);
        let s = f.fresh_reg();
        let g = f.fresh_reg();
        f.push(BlockId(0), Inst::Alloca { dst: s, size: 8 });
        f.push(BlockId(0), Inst::Global { dst: g, name: "g" });
        f.push(BlockId(0), Inst::Ret(None));
        m.add_function(f);
        let a = Analysis::run(&m, entry());
        assert_eq!(a.valid_of(0, s), vset(&[AbstractVas::Common]));
        assert_eq!(a.valid_of(0, g), vset(&[AbstractVas::Common]));
    }

    #[test]
    fn vcast_overrides() {
        let mut m = Module::new();
        let mut f = Function::new("main", 0);
        let p = f.fresh_reg();
        let q = f.fresh_reg();
        f.push(BlockId(0), Inst::Malloc { dst: p, size: 8 });
        f.push(
            BlockId(0),
            Inst::VCast {
                dst: q,
                src: p,
                vas: VasName(7),
            },
        );
        f.push(BlockId(0), Inst::Ret(None));
        m.add_function(f);
        let a = Analysis::run(&m, entry());
        assert_eq!(a.valid_of(0, q), vset(&[v(7)]));
    }

    #[test]
    fn phi_joins_branches() {
        // if (c) { switch 1; p = malloc } else { switch 2; q = malloc };
        // r = phi(p, q) — valid in {1, 2}; VASin at the join is {1, 2}.
        let mut m = Module::new();
        let mut f = Function::new("main", 0);
        let c = f.fresh_reg();
        let p = f.fresh_reg();
        let q = f.fresh_reg();
        let r = f.fresh_reg();
        let t = f.add_block();
        let e = f.add_block();
        let j = f.add_block();
        f.push(BlockId(0), Inst::Const { dst: c, value: 1 });
        f.push(
            BlockId(0),
            Inst::CondBr {
                cond: c,
                then_bb: t,
                else_bb: e,
            },
        );
        f.push(t, Inst::Switch(VasName(1)));
        f.push(t, Inst::Malloc { dst: p, size: 8 });
        f.push(t, Inst::Br(j));
        f.push(e, Inst::Switch(VasName(2)));
        f.push(e, Inst::Malloc { dst: q, size: 8 });
        f.push(e, Inst::Br(j));
        f.push_phi(
            j,
            Phi {
                dst: r,
                incomings: vec![(t, p), (e, q)],
            },
        );
        f.push(j, Inst::Ret(None));
        m.add_function(f);
        let a = Analysis::run(&m, entry());
        assert_eq!(a.valid_of(0, r), vset(&[v(1), v(2)]));
        assert_eq!(a.vas_in_of(0, j, 0), &vset(&[v(1), v(2)]));
    }

    #[test]
    fn loads_from_common_are_unknown() {
        let mut m = Module::new();
        let mut f = Function::new("main", 0);
        let s = f.fresh_reg();
        let x = f.fresh_reg();
        let h = f.fresh_reg();
        let y = f.fresh_reg();
        f.push(BlockId(0), Inst::Alloca { dst: s, size: 8 });
        f.push(BlockId(0), Inst::Load { dst: x, addr: s });
        f.push(BlockId(0), Inst::Malloc { dst: h, size: 8 });
        f.push(BlockId(0), Inst::Load { dst: y, addr: h });
        f.push(BlockId(0), Inst::Ret(None));
        m.add_function(f);
        let a = Analysis::run(&m, entry());
        assert_eq!(a.valid_of(0, x), vset(&[AbstractVas::Unknown]));
        assert_eq!(
            a.valid_of(0, y),
            vset(&[v(0)]),
            "loads from VAS memory get VASin"
        );
    }

    #[test]
    fn load_through_a_late_pointer_is_monotone() {
        // main: r = f(); x = *r — f: s = alloca; y = *s; ret y. `r` is
        // unknown once f's return is known; a first pass that sees `r`
        // still empty must not leave VASin behind in VASvalid(x).
        let mut m = Module::new();
        let mut main = Function::new("main", 0);
        let r = main.fresh_reg();
        let x = main.fresh_reg();
        main.push(
            BlockId(0),
            Inst::Call {
                dst: Some(r),
                func: FuncId(1),
                args: vec![],
            },
        );
        main.push(BlockId(0), Inst::Load { dst: x, addr: r });
        main.push(BlockId(0), Inst::Ret(None));
        let mut f = Function::new("f", 0);
        let s = f.fresh_reg();
        let y = f.fresh_reg();
        f.push(BlockId(0), Inst::Alloca { dst: s, size: 8 });
        f.push(BlockId(0), Inst::Load { dst: y, addr: s });
        f.push(BlockId(0), Inst::Ret(Some(y)));
        m.add_function(main);
        m.add_function(f);
        let a = Analysis::run(&m, entry());
        assert_eq!(a.valid_of(0, x), vset(&[AbstractVas::Unknown]));
    }

    #[test]
    fn interprocedural_propagation() {
        // main: switch 1; p = malloc; q = callee(p); callee returns its arg.
        let mut m = Module::new();
        let mut callee = Function::new("id", 1);
        let arg = callee.params[0];
        callee.push(BlockId(0), Inst::Ret(Some(arg)));
        let mut f = Function::new("main", 0);
        let p = f.fresh_reg();
        let q = f.fresh_reg();
        f.push(BlockId(0), Inst::Switch(VasName(1)));
        f.push(BlockId(0), Inst::Malloc { dst: p, size: 8 });
        f.push(
            BlockId(0),
            Inst::Call {
                dst: Some(q),
                func: FuncId(1),
                args: vec![p],
            },
        );
        f.push(BlockId(0), Inst::Ret(None));
        m.add_function(f);
        m.add_function(callee);
        let a = Analysis::run(&m, entry());
        assert_eq!(
            a.valid_of(1, arg),
            vset(&[v(1)]),
            "param inherits arg validity"
        );
        assert_eq!(a.valid_of(0, q), vset(&[v(1)]), "return value flows back");
        assert_eq!(a.entry[1], vset(&[v(1)]), "callee entered in caller's VAS");
    }

    #[test]
    fn callee_switch_makes_caller_ambiguous() {
        // callee switches to VAS 2; after the call, main may be in 1 or 2
        // (conservative union).
        let mut m = Module::new();
        let mut f = Function::new("main", 0);
        let p = f.fresh_reg();
        f.push(BlockId(0), Inst::Switch(VasName(1)));
        f.push(
            BlockId(0),
            Inst::Call {
                dst: None,
                func: FuncId(1),
                args: vec![],
            },
        );
        f.push(BlockId(0), Inst::Malloc { dst: p, size: 8 });
        f.push(BlockId(0), Inst::Ret(None));
        let mut callee = Function::new("sw", 0);
        callee.push(BlockId(0), Inst::Switch(VasName(2)));
        callee.push(BlockId(0), Inst::Ret(None));
        m.add_function(f);
        m.add_function(callee);
        let a = Analysis::run(&m, entry());
        assert!(a.valid_of(0, p).contains(&v(2)));
        assert!(
            a.valid_of(0, p).contains(&v(1)),
            "conservative: may not have switched"
        );
    }

    #[test]
    fn loop_reaches_fixpoint() {
        // A loop alternating switches; VASin at the loop head grows to
        // {0, 1} and stabilizes.
        let mut m = Module::new();
        let mut f = Function::new("main", 0);
        let c = f.fresh_reg();
        let head = f.add_block();
        let body = f.add_block();
        let done = f.add_block();
        f.push(BlockId(0), Inst::Const { dst: c, value: 1 });
        f.push(BlockId(0), Inst::Br(head));
        f.push(
            head,
            Inst::CondBr {
                cond: c,
                then_bb: body,
                else_bb: done,
            },
        );
        f.push(body, Inst::Switch(VasName(1)));
        f.push(body, Inst::Br(head));
        f.push(done, Inst::Ret(None));
        m.add_function(f);
        let a = Analysis::run(&m, entry());
        assert_eq!(a.vas_in_of(0, head, 0), &vset(&[v(0), v(1)]));
        assert!(a.iterations >= 2);
    }
}
