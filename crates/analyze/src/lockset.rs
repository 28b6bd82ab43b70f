//! Interprocedural lockset dataflow over the `sjmp-safety` IR.
//!
//! The paper's safety story (Section 3.3) has two halves: the *VAS*
//! half — is this pointer valid in the active address space? — solved
//! by `sjmp_safety::Analysis`, and the *sharing* half — is this access
//! to a shared segment ordered against other processes? The paper
//! leans on segment locks acquired at switch time for the second half;
//! this pass proves, per load/store, whether that discipline is
//! actually followed.
//!
//! Two classic lockset facts are computed at every program point:
//!
//! * **must-held** — locks held on *every* path to the point. Starts
//!   at ⊤ (all segments), `lock s` adds, `unlock s` removes, and
//!   control-flow joins intersect. Only shrinks across iterations.
//! * **may-held** — locks held on *some* path. Starts empty, joins
//!   union. Only grows.
//!
//! The pair is the flow state of a `sjmp_safety::dataflow` problem, so
//! it crosses calls the way every IR analysis does: a callee's entry
//! state is the meet (must: ∩, may: ∪) over its callsites. The
//! call-return hook is this pass's own: the callee's exit state is
//! absolute, so it replaces must-held, and may-held unions in whatever
//! the callee might have left held.
//!
//! Which segments an access touches comes from the pointer provenance
//! `sjmp_safety::Analysis` already computed: the segments of the
//! `segaddr` objects its address may point to. Provenance follows
//! pointers through memory, so a segment pointer stored and reloaded
//! still counts as a segment access. An address provenance cannot
//! attribute — it may be unknown, or it is a `vcast` pointer, which
//! can alias anything in its VAS — classifies as
//! [`AccessClass::Unknown`], never as not shared.
//!
//! Each load/store then classifies as:
//!
//! * [`AccessClass::NotShared`] — the address cannot point into a
//!   shared segment;
//! * [`AccessClass::ProvenGuarded`] — every segment it may touch is in
//!   the must-held set: the access is race-free by lock discipline;
//! * [`AccessClass::ProvenRacy`] — it touches a shared segment and
//!   *no* lock of that segment is even may-held: a proven discipline
//!   violation;
//! * [`AccessClass::Unknown`] — anything in between (e.g. a lock held
//!   on one branch only, or an untracked address).

use std::collections::{BTreeSet, HashMap};

use sjmp_safety::dataflow::{self, Effect, Lattice, Problem};
use sjmp_safety::ir::{BlockId, Inst, Module, SegName, Site};
use sjmp_safety::provenance::{Origin, Provenance, Pts};

/// Verdict for one load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessClass {
    /// The address cannot point into a shared segment.
    NotShared,
    /// Every shared segment the address may touch is must-locked.
    ProvenGuarded,
    /// Touches a shared segment with provably no lock held on it.
    ProvenRacy,
    /// Cannot prove either way.
    Unknown,
}

/// Aggregate counts over a module.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocksetSummary {
    /// Loads and stores in the module.
    pub mem_ops: usize,
    /// Accesses proven not to touch shared segments.
    pub not_shared: usize,
    /// Accesses proven guarded by lock discipline.
    pub guarded: usize,
    /// Accesses proven to violate lock discipline.
    pub racy: usize,
    /// Accesses the analysis cannot classify.
    pub unknown: usize,
}

impl LocksetSummary {
    /// Accesses the pass proved race-free (not shared, or guarded):
    /// the analysis's "no dynamic check needed" count, comparable to
    /// `CheckReport::proven_safe` from the VAS analysis.
    pub fn proven(&self) -> usize {
        self.not_shared + self.guarded
    }
}

/// Lock state at one program point. Bottom (an unreached point) is
/// must-held ⊤ — `None`, every segment — and may-held empty.
#[derive(Debug, Clone, Default)]
struct Held {
    must: Option<BTreeSet<SegName>>,
    may: BTreeSet<SegName>,
}

impl Lattice for Held {
    fn bottom() -> Held {
        Held::default()
    }

    fn join(&mut self, other: &Held) -> bool {
        let must = match (self.must.as_mut(), &other.must) {
            (_, None) => false,
            (None, Some(s)) => {
                self.must = Some(s.clone());
                true
            }
            (Some(d), Some(s)) => {
                let before = d.len();
                d.retain(|x| s.contains(x));
                d.len() != before
            }
        };
        must | self.may.join(&other.may)
    }
}

/// The lockset transfer functions.
struct Locks;

impl Problem for Locks {
    type State = Held;
    type Value = ();

    fn transfer(&mut self, _site: Site, inst: &Inst, held: &mut Held, _: &[()]) -> Effect<()> {
        match inst {
            Inst::Lock(s) => {
                if let Some(m) = held.must.as_mut() {
                    m.insert(*s);
                }
                held.may.insert(*s);
            }
            Inst::Unlock(s) => {
                if let Some(m) = held.must.as_mut() {
                    m.remove(s);
                }
                held.may.remove(s);
            }
            _ => {}
        }
        Effect::None
    }

    fn call_return(&self, held: &mut Held, exit: &Held) {
        held.must = exit.must.clone();
        held.may.join(&exit.may);
    }
}

/// Results of the lockset pass over one module.
#[derive(Debug, Clone)]
pub struct Lockset {
    /// Classification of every load and store.
    classes: HashMap<Site, AccessClass>,
    /// Function visits the solver used.
    pub iterations: u32,
}

impl Lockset {
    /// Runs the pass over `module`, whose pointer provenance is
    /// `provenance` (`sjmp_safety::Analysis::provenance` of the same
    /// module). Main (function 0) enters holding no locks.
    pub fn run(module: &Module, provenance: &Provenance) -> Lockset {
        let entry = Held {
            must: Some(BTreeSet::new()),
            may: BTreeSet::new(),
        };
        let sol = dataflow::solve(module, &mut Locks, entry, ());
        let classes = module
            .sites()
            .filter_map(|(site, inst)| match inst {
                Inst::Load { addr, .. } | Inst::Store { addr, .. } => {
                    let pts = provenance.pts_of(site.func as usize, *addr);
                    Some((site, classify(provenance, pts, sol.state_at(site))))
                }
                _ => None,
            })
            .collect();
        Lockset {
            classes,
            iterations: sol.visits,
        }
    }

    /// The classification of one instruction (`None` if it is not a
    /// load or store).
    pub fn class_of(&self, func: usize, bb: BlockId, idx: usize) -> Option<AccessClass> {
        let site = Site::new(func, bb.0 as usize, idx);
        self.classes.get(&site).copied()
    }

    /// Aggregate counts over the whole module.
    pub fn summary(&self) -> LocksetSummary {
        let mut s = LocksetSummary::default();
        for c in self.classes.values() {
            s.mem_ops += 1;
            match c {
                AccessClass::NotShared => s.not_shared += 1,
                AccessClass::ProvenGuarded => s.guarded += 1,
                AccessClass::ProvenRacy => s.racy += 1,
                AccessClass::Unknown => s.unknown += 1,
            }
        }
        s
    }
}

fn classify(provenance: &Provenance, addr: &Pts, held: &Held) -> AccessClass {
    if addr.unknown || addr.objs.iter().any(|o| provenance.is_vcast(*o)) {
        return AccessClass::Unknown;
    }
    let segs: BTreeSet<SegName> = addr
        .objs
        .iter()
        .filter_map(|o| match provenance.objects[*o as usize].origin {
            Origin::Seg(s) => Some(s),
            _ => None,
        })
        .collect();
    if segs.is_empty() {
        return AccessClass::NotShared;
    }
    let guarded = match &held.must {
        None => true, // unreachable point: vacuously guarded
        Some(must) => segs.is_subset(must),
    };
    if guarded {
        AccessClass::ProvenGuarded
    } else if segs.is_disjoint(&held.may) {
        AccessClass::ProvenRacy
    } else {
        AccessClass::Unknown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjmp_safety::analysis::Analysis;
    use sjmp_safety::checks::{insert_checks, CheckPolicy};
    use sjmp_safety::ir::{AbstractVas, FuncId, Function, Phi, VasName, VasSet};

    fn entry() -> VasSet {
        [AbstractVas::Vas(VasName(0))].into_iter().collect()
    }

    fn lockset(m: &Module) -> Lockset {
        Lockset::run(m, &Analysis::run(m, entry()).provenance)
    }

    #[test]
    fn straight_line_guarded_then_racy() {
        // p = segaddr 0; lock 0; *p = v; unlock 0; *p = v
        let mut m = Module::new();
        let mut f = Function::new("main", 0);
        let p = f.fresh_reg();
        let v = f.fresh_reg();
        f.push(
            BlockId(0),
            Inst::SegAddr {
                dst: p,
                seg: SegName(0),
            },
        );
        f.push(BlockId(0), Inst::Const { dst: v, value: 1 });
        f.push(BlockId(0), Inst::Lock(SegName(0)));
        f.push(BlockId(0), Inst::Store { addr: p, val: v });
        f.push(BlockId(0), Inst::Unlock(SegName(0)));
        f.push(BlockId(0), Inst::Store { addr: p, val: v });
        f.push(BlockId(0), Inst::Ret(None));
        m.add_function(f);
        let l = lockset(&m);
        assert_eq!(
            l.class_of(0, BlockId(0), 3),
            Some(AccessClass::ProvenGuarded)
        );
        assert_eq!(l.class_of(0, BlockId(0), 5), Some(AccessClass::ProvenRacy));
        let s = l.summary();
        assert_eq!((s.mem_ops, s.guarded, s.racy), (2, 1, 1));
    }

    #[test]
    fn one_sided_lock_is_unknown_at_join() {
        // if (c) lock 0;  *p = v  — held on one path only.
        let mut m = Module::new();
        let mut f = Function::new("main", 0);
        let c = f.fresh_reg();
        let p = f.fresh_reg();
        let v = f.fresh_reg();
        let locked = f.add_block();
        let join = f.add_block();
        f.push(BlockId(0), Inst::Const { dst: c, value: 1 });
        f.push(
            BlockId(0),
            Inst::SegAddr {
                dst: p,
                seg: SegName(0),
            },
        );
        f.push(BlockId(0), Inst::Const { dst: v, value: 1 });
        f.push(
            BlockId(0),
            Inst::CondBr {
                cond: c,
                then_bb: locked,
                else_bb: join,
            },
        );
        f.push(locked, Inst::Lock(SegName(0)));
        f.push(locked, Inst::Br(join));
        f.push(join, Inst::Store { addr: p, val: v });
        f.push(join, Inst::Ret(None));
        m.add_function(f);
        let l = lockset(&m);
        assert_eq!(l.class_of(0, join, 0), Some(AccessClass::Unknown));
    }

    #[test]
    fn private_memory_is_not_shared() {
        let mut m = Module::new();
        let mut f = Function::new("main", 0);
        let p = f.fresh_reg();
        let x = f.fresh_reg();
        f.push(BlockId(0), Inst::Malloc { dst: p, size: 8 });
        f.push(BlockId(0), Inst::Load { dst: x, addr: p });
        f.push(BlockId(0), Inst::Ret(None));
        m.add_function(f);
        let l = lockset(&m);
        assert_eq!(l.class_of(0, BlockId(0), 1), Some(AccessClass::NotShared));
    }

    #[test]
    fn laundered_segment_pointer_is_still_a_segment_access() {
        // p = segaddr 0; slot = alloca; *slot = p; q = *slot; *q = v —
        // no lock held: the reloaded pointer still touches segment 0.
        let mut m = Module::new();
        let mut f = Function::new("main", 0);
        let p = f.fresh_reg();
        let slot = f.fresh_reg();
        let q = f.fresh_reg();
        let v = f.fresh_reg();
        f.push(
            BlockId(0),
            Inst::SegAddr {
                dst: p,
                seg: SegName(0),
            },
        );
        f.push(BlockId(0), Inst::Alloca { dst: slot, size: 8 });
        f.push(BlockId(0), Inst::Store { addr: slot, val: p });
        f.push(BlockId(0), Inst::Load { dst: q, addr: slot });
        f.push(BlockId(0), Inst::Const { dst: v, value: 1 });
        f.push(BlockId(0), Inst::Store { addr: q, val: v });
        f.push(BlockId(0), Inst::Ret(None));
        m.add_function(f);
        let l = lockset(&m);
        assert_eq!(l.class_of(0, BlockId(0), 5), Some(AccessClass::ProvenRacy));
    }

    #[test]
    fn vcast_of_a_segment_pointer_is_unknown() {
        // p = segaddr 0; q = vcast p v0; *q = v — a vcast pointer may
        // alias anything in its VAS, so the access is not proven private.
        let mut m = Module::new();
        let mut f = Function::new("main", 0);
        let p = f.fresh_reg();
        let q = f.fresh_reg();
        let v = f.fresh_reg();
        f.push(
            BlockId(0),
            Inst::SegAddr {
                dst: p,
                seg: SegName(0),
            },
        );
        f.push(
            BlockId(0),
            Inst::VCast {
                dst: q,
                src: p,
                vas: VasName(0),
            },
        );
        f.push(BlockId(0), Inst::Const { dst: v, value: 1 });
        f.push(BlockId(0), Inst::Store { addr: q, val: v });
        f.push(BlockId(0), Inst::Ret(None));
        m.add_function(f);
        let l = lockset(&m);
        assert_eq!(l.class_of(0, BlockId(0), 3), Some(AccessClass::Unknown));
    }

    #[test]
    fn callee_inherits_meet_over_callsites() {
        // helper(q): *q = 0 — called once under lock, once without.
        // The callee access must degrade to Unknown (not guarded).
        let mut m = Module::new();
        let mut main = Function::new("main", 0);
        let p = main.fresh_reg();
        main.push(
            BlockId(0),
            Inst::SegAddr {
                dst: p,
                seg: SegName(3),
            },
        );
        main.push(BlockId(0), Inst::Lock(SegName(3)));
        main.push(
            BlockId(0),
            Inst::Call {
                dst: None,
                func: FuncId(1),
                args: vec![p],
            },
        );
        main.push(BlockId(0), Inst::Unlock(SegName(3)));
        main.push(
            BlockId(0),
            Inst::Call {
                dst: None,
                func: FuncId(1),
                args: vec![p],
            },
        );
        main.push(BlockId(0), Inst::Ret(None));
        m.add_function(main);
        let mut helper = Function::new("helper", 1);
        let q = helper.params[0];
        let z = helper.fresh_reg();
        helper.push(BlockId(0), Inst::Const { dst: z, value: 0 });
        helper.push(BlockId(0), Inst::Store { addr: q, val: z });
        helper.push(BlockId(0), Inst::Ret(None));
        m.add_function(helper);
        let l = lockset(&m);
        assert_eq!(l.class_of(1, BlockId(0), 1), Some(AccessClass::Unknown));
    }

    #[test]
    fn guarded_callee_stays_guarded() {
        // Every callsite holds the lock: the callee access is proven.
        let mut m = Module::new();
        let mut main = Function::new("main", 0);
        let p = main.fresh_reg();
        main.push(
            BlockId(0),
            Inst::SegAddr {
                dst: p,
                seg: SegName(3),
            },
        );
        main.push(BlockId(0), Inst::Lock(SegName(3)));
        main.push(
            BlockId(0),
            Inst::Call {
                dst: None,
                func: FuncId(1),
                args: vec![p],
            },
        );
        main.push(
            BlockId(0),
            Inst::Call {
                dst: None,
                func: FuncId(1),
                args: vec![p],
            },
        );
        main.push(BlockId(0), Inst::Unlock(SegName(3)));
        main.push(BlockId(0), Inst::Ret(None));
        m.add_function(main);
        let mut helper = Function::new("helper", 1);
        let q = helper.params[0];
        let x = helper.fresh_reg();
        helper.push(BlockId(0), Inst::Load { dst: x, addr: q });
        helper.push(BlockId(0), Inst::Ret(None));
        m.add_function(helper);
        let l = lockset(&m);
        assert_eq!(
            l.class_of(1, BlockId(0), 0),
            Some(AccessClass::ProvenGuarded)
        );
    }

    #[test]
    fn loop_converges_with_phi() {
        // A loop whose body locks, accesses, unlocks each iteration.
        let mut m = Module::new();
        let mut f = Function::new("main", 0);
        let c = f.fresh_reg();
        let p0 = f.fresh_reg();
        let p1 = f.fresh_reg();
        let v = f.fresh_reg();
        let head = f.add_block();
        let body = f.add_block();
        let done = f.add_block();
        f.push(BlockId(0), Inst::Const { dst: c, value: 1 });
        f.push(
            BlockId(0),
            Inst::SegAddr {
                dst: p0,
                seg: SegName(1),
            },
        );
        f.push(BlockId(0), Inst::Const { dst: v, value: 7 });
        f.push(BlockId(0), Inst::Br(head));
        f.push_phi(
            head,
            Phi {
                dst: p1,
                incomings: vec![(BlockId(0), p0), (body, p1)],
            },
        );
        f.push(
            head,
            Inst::CondBr {
                cond: c,
                then_bb: body,
                else_bb: done,
            },
        );
        f.push(body, Inst::Lock(SegName(1)));
        f.push(body, Inst::Store { addr: p1, val: v });
        f.push(body, Inst::Unlock(SegName(1)));
        f.push(body, Inst::Br(head));
        f.push(done, Inst::Ret(None));
        m.add_function(f);
        let l = lockset(&m);
        assert_eq!(l.class_of(0, body, 1), Some(AccessClass::ProvenGuarded));
        assert!(l.iterations >= 2);
    }

    #[test]
    fn proves_at_least_what_the_vas_analysis_elides() {
        // A lock-annotated module mixing private and shared accesses:
        // the lockset proof obligation (ISSUE acceptance criterion) is
        // that it proves at least as many accesses race-free as the
        // VAS analysis elides checks for under CheckPolicy::Analyzed.
        let mut m = Module::new();
        let mut f = Function::new("main", 0);
        let stack = f.fresh_reg();
        let seg = f.fresh_reg();
        let v = f.fresh_reg();
        let x = f.fresh_reg();
        f.push(
            BlockId(0),
            Inst::Alloca {
                dst: stack,
                size: 8,
            },
        );
        f.push(
            BlockId(0),
            Inst::SegAddr {
                dst: seg,
                seg: SegName(0),
            },
        );
        f.push(BlockId(0), Inst::Const { dst: v, value: 9 });
        f.push(
            BlockId(0),
            Inst::Store {
                addr: stack,
                val: v,
            },
        );
        f.push(BlockId(0), Inst::Lock(SegName(0)));
        f.push(BlockId(0), Inst::Store { addr: seg, val: v });
        f.push(BlockId(0), Inst::Load { dst: x, addr: seg });
        f.push(BlockId(0), Inst::Unlock(SegName(0)));
        f.push(BlockId(0), Inst::Ret(None));
        m.add_function(f);

        let analysis = Analysis::run(&m, entry());
        let mut checked = m.clone();
        let report = insert_checks(&mut checked, &analysis, CheckPolicy::Analyzed);

        let l = Lockset::run(&m, &analysis.provenance);
        let s = l.summary();
        assert_eq!(s.mem_ops, report.mem_ops);
        assert!(
            s.proven() >= report.proven_safe,
            "lockset proved {} < VAS elision {}",
            s.proven(),
            report.proven_safe
        );
        assert_eq!(s.racy, 0);
    }
}
