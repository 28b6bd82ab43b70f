//! The one monotone dataflow engine every safety-IR analysis runs on.
//!
//! Section 4.3's compiler pass is a single dataflow problem over the
//! Figure 5 IR: "finding the potentially active VASes at each program
//! point and the VASes each pointer may be valid in". This module is
//! the solver for that shape of problem; the analyses supply only a
//! [`Problem`]:
//!
//! * a flow-sensitive [`Problem::State`] kept at every [`Site`]
//!   (`VASin`; must/may-held locksets; nothing, for provenance);
//! * a flow-insensitive [`Problem::Value`] per SSA register
//!   (`VASvalid`; provenance points-to sets; nothing, for locksets);
//! * [`Problem::transfer`] for the instructions it cares about, and
//!   [`Problem::call_return`], which turns the state before a call into
//!   the state after it given the callee's exit summary.
//!
//! The solver owns everything the analyses used to repeat: control-flow
//! joins (a block's in-state is the join of its predecessors' terminator
//! in-states, plus the function's entry summary for block 0), phis,
//! copies, parameter binding at calls, return values, and per-function
//! entry/exit summaries (context-insensitive: a callee's entry is the
//! join over its callsites). It iterates chaotically over the call
//! graph — a worklist of functions, each visit one pass over its blocks
//! in order — until nothing grows. Every transfer function is monotone
//! and every lattice here has finite height, so any visit order reaches
//! the same least fixpoint; the single convergence bound in [`solve`]
//! only catches a non-monotone transfer.

use std::collections::{BTreeSet, VecDeque};

use crate::ir::{Inst, Module, Site};

/// A join semilattice with a least element.
pub trait Lattice: Clone {
    /// The least element: nothing known yet (an unreached point, an
    /// unassigned register).
    fn bottom() -> Self;
    /// Joins `other` into `self`; returns whether `self` grew.
    fn join(&mut self, other: &Self) -> bool;
}

impl<T: Ord + Clone> Lattice for BTreeSet<T> {
    fn bottom() -> Self {
        BTreeSet::new()
    }

    fn join(&mut self, other: &Self) -> bool {
        let before = self.len();
        self.extend(other.iter().cloned());
        self.len() != before
    }
}

impl Lattice for () {
    fn bottom() {}

    fn join(&mut self, _: &()) -> bool {
        false
    }
}

/// What a transfer function produced besides its in-place state update.
#[derive(Debug)]
pub enum Effect<V> {
    /// Nothing.
    None,
    /// The value of the instruction's defined register, joined into it.
    Def(V),
    /// A fact the problem keeps for the whole module (provenance's heap)
    /// grew: every function is visited again.
    Global,
}

/// A dataflow problem over the IR.
pub trait Problem {
    /// Flow-sensitive state, kept at every site.
    type State: Lattice;
    /// Flow-insensitive fact per SSA register.
    type Value: Lattice;

    /// Applies `inst` at `site` to `state`. Called for every instruction
    /// except `Copy`, `Call`, `Ret` and branches, which the solver
    /// handles itself; `regs` are the current facts of the function's
    /// registers, indexed by register number.
    fn transfer(
        &mut self,
        site: Site,
        inst: &Inst,
        state: &mut Self::State,
        regs: &[Self::Value],
    ) -> Effect<Self::Value>;

    /// Turns the state before a call into the state after it, given the
    /// callee's exit summary.
    fn call_return(&self, state: &mut Self::State, exit: &Self::State);
}

/// The least fixpoint of a [`Problem`] over one module.
#[derive(Debug, Clone)]
pub struct Solution<S, V> {
    /// In-state per function, per block, per instruction index.
    pub states: Vec<Vec<Vec<S>>>,
    /// State at each function's entry: the join over its callsites
    /// (function 0 also starts from the caller-provided entry state).
    pub entry: Vec<S>,
    /// State at each function's returns.
    pub exit: Vec<S>,
    /// Fact per function, per register number.
    pub regs: Vec<Vec<V>>,
    /// Fact of each function's return value.
    pub ret: Vec<V>,
    /// Function visits the solver made.
    pub visits: u32,
}

impl<S, V> Solution<S, V> {
    /// The in-state at `site`.
    pub fn state_at(&self, site: Site) -> &S {
        &self.states[site.func as usize][site.block as usize][site.idx as usize]
    }
}

/// The functions waiting for a visit, each queued at most once.
struct Worklist {
    queue: VecDeque<usize>,
    queued: Vec<bool>,
}

impl Worklist {
    fn push(&mut self, func: usize) {
        if !self.queued[func] {
            self.queued[func] = true;
            self.queue.push_back(func);
        }
    }
}

/// Solves `problem` over `module`. Function 0 (`main`) is entered in
/// `entry` with every parameter holding `params`.
///
/// # Panics
///
/// Panics if the iteration fails to converge within a generous bound,
/// which only a non-monotone transfer function can cause.
pub fn solve<P: Problem>(
    module: &Module,
    problem: &mut P,
    entry: P::State,
    params: P::Value,
) -> Solution<P::State, P::Value> {
    let n = module.functions.len();
    let mut sol = Solution {
        states: module
            .functions
            .iter()
            .map(|f| {
                f.blocks
                    .iter()
                    .map(|b| vec![P::State::bottom(); b.insts.len()])
                    .collect()
            })
            .collect(),
        entry: vec![P::State::bottom(); n],
        exit: vec![P::State::bottom(); n],
        regs: module
            .functions
            .iter()
            .map(|f| vec![P::Value::bottom(); f.reg_count() as usize])
            .collect(),
        ret: vec![P::Value::bottom(); n],
        visits: 0,
    };
    let Some(main) = module.functions.first() else {
        return sol;
    };
    sol.entry[0] = entry;
    for p in &main.params {
        sol.regs[0][p.0 as usize] = params.clone();
    }
    let mut callers = vec![BTreeSet::new(); n];
    for (site, inst) in module.sites() {
        if let Inst::Call { func, .. } = inst {
            callers[func.0 as usize].insert(site.func as usize);
        }
    }
    let mut work = Worklist {
        queue: (0..n).collect(),
        queued: vec![true; n],
    };
    let limit = (module.inst_count() + 64) * (n + 2) * 8;
    while let Some(fi) = work.queue.pop_front() {
        work.queued[fi] = false;
        sol.visits += 1;
        assert!(sol.visits as usize <= limit, "dataflow failed to converge");
        sol.visit(module, problem, fi, &callers[fi], &mut work);
    }
    sol
}

impl<S: Lattice, V: Lattice> Solution<S, V> {
    /// One pass over function `fi`'s blocks in order, queueing every
    /// function whose inputs grew: `fi` itself for its own in-states and
    /// registers, a callee for its entry state and parameters, the
    /// callers for `fi`'s exit state and return value.
    fn visit<P: Problem<State = S, Value = V>>(
        &mut self,
        module: &Module,
        problem: &mut P,
        fi: usize,
        callers: &BTreeSet<usize>,
        work: &mut Worklist,
    ) {
        let func = &module.functions[fi];
        let preds = func.predecessors();
        for (bi, block) in func.blocks.iter().enumerate() {
            let mut cur = if bi == 0 {
                self.entry[fi].clone()
            } else {
                S::bottom()
            };
            for p in &preds[bi] {
                // Branches leave the state alone: a block's out-state is
                // its terminator's in-state.
                if let Some(out) = self.states[fi][p.0 as usize].last() {
                    cur.join(out);
                }
            }
            for phi in &block.phis {
                let mut v = V::bottom();
                for (_, r) in &phi.incomings {
                    v.join(&self.regs[fi][r.0 as usize]);
                }
                if self.regs[fi][phi.dst.0 as usize].join(&v) {
                    work.push(fi);
                }
            }
            for (ii, inst) in block.insts.iter().enumerate() {
                if self.states[fi][bi][ii].join(&cur) {
                    work.push(fi);
                }
                let def = match inst {
                    Inst::Copy { src, .. } => Some(self.regs[fi][src.0 as usize].clone()),
                    Inst::Call { dst, func, args } => {
                        let ci = func.0 as usize;
                        if self.entry[ci].join(&cur) {
                            work.push(ci);
                        }
                        for (p, a) in module.functions[ci].params.iter().zip(args) {
                            let v = self.regs[fi][a.0 as usize].clone();
                            if self.regs[ci][p.0 as usize].join(&v) {
                                work.push(ci);
                            }
                        }
                        problem.call_return(&mut cur, &self.exit[ci]);
                        dst.map(|_| self.ret[ci].clone())
                    }
                    Inst::Ret(r) => {
                        let mut grew = self.exit[fi].join(&cur);
                        if let Some(r) = r {
                            let v = self.regs[fi][r.0 as usize].clone();
                            grew |= self.ret[fi].join(&v);
                        }
                        if grew {
                            callers.iter().for_each(|c| work.push(*c));
                        }
                        None
                    }
                    Inst::Br(_) | Inst::CondBr { .. } => None,
                    _ => match problem.transfer(
                        Site::new(fi, bi, ii),
                        inst,
                        &mut cur,
                        &self.regs[fi],
                    ) {
                        Effect::None => None,
                        Effect::Def(v) => Some(v),
                        Effect::Global => {
                            (0..module.functions.len()).for_each(|f| work.push(f));
                            None
                        }
                    },
                };
                if let (Some(v), Some(d)) = (def, inst.def()) {
                    if self.regs[fi][d.0 as usize].join(&v) {
                        work.push(fi);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BlockId, FuncId, Function, SegName};

    /// State: segments locked on some path. Values: the constants a
    /// register may hold.
    struct Probe;

    impl Problem for Probe {
        type State = BTreeSet<u32>;
        type Value = BTreeSet<u32>;

        fn transfer(
            &mut self,
            _site: Site,
            inst: &Inst,
            state: &mut BTreeSet<u32>,
            _regs: &[BTreeSet<u32>],
        ) -> Effect<BTreeSet<u32>> {
            match inst {
                Inst::Const { value, .. } => Effect::Def([*value as u32].into_iter().collect()),
                Inst::Lock(s) => {
                    state.insert(s.0);
                    Effect::None
                }
                _ => Effect::None,
            }
        }

        fn call_return(&self, state: &mut BTreeSet<u32>, exit: &BTreeSet<u32>) {
            state.join(exit);
        }
    }

    /// The solver binds parameters, returns values through calls, and
    /// carries the callee's exit state past the callsite.
    #[test]
    fn solver_owns_calls_returns_and_copies() {
        let mut m = Module::new();
        let mut main = Function::new("main", 0);
        let c = main.fresh_reg();
        let r = main.fresh_reg();
        let x = main.fresh_reg();
        main.push(BlockId(0), Inst::Const { dst: c, value: 7 });
        main.push(
            BlockId(0),
            Inst::Call {
                dst: Some(r),
                func: FuncId(1),
                args: vec![c],
            },
        );
        main.push(BlockId(0), Inst::Copy { dst: x, src: r });
        main.push(BlockId(0), Inst::Ret(None));
        let mut id = Function::new("id", 1);
        let p = id.params[0];
        id.push(BlockId(0), Inst::Lock(SegName(3)));
        id.push(BlockId(0), Inst::Ret(Some(p)));
        m.add_function(main);
        m.add_function(id);
        let sol = solve(&m, &mut Probe, BTreeSet::new(), BTreeSet::new());
        let seven: BTreeSet<u32> = [7].into_iter().collect();
        assert_eq!(sol.regs[1][p.0 as usize], seven);
        assert_eq!(sol.regs[0][x.0 as usize], seven);
        assert_eq!(sol.exit[1], [3].into_iter().collect());
        assert_eq!(sol.state_at(Site::new(0, 0, 2)), &sol.exit[1]);
    }

    #[test]
    fn empty_module_solves_to_nothing() {
        let sol = solve(&Module::new(), &mut Probe, BTreeSet::new(), BTreeSet::new());
        assert!(sol.states.is_empty());
        assert_eq!(sol.visits, 0);
    }
}
