//! # sjmp-safety — compiler support for safe multi-VAS programming
//!
//! SpaceJMP introduces "new kinds of unsafe memory access behavior that
//! programmers must carefully avoid" (Section 3.3): dereferencing a
//! pointer while the wrong address space is active, and storing pointers
//! where other address spaces (or processes) would misinterpret them. The
//! paper provides a compiler tool that proves most accesses safe and
//! inserts runtime checks only where it cannot (Section 4.3).
//!
//! This crate is that tool, reproduced over its own SSA IR:
//!
//! * [`ir`] — the Figure 5 instruction set (`switch`, `vcast`, `alloca`,
//!   `global`, `malloc`, copies, phis, loads, stores, calls, returns)
//!   with functions, basic blocks, and a builder;
//! * [`dataflow`] — the one monotone dataflow engine: a lattice trait
//!   and a chaotic-iteration solver over the call graph that keeps the
//!   in-state at every site, per-function entry/exit summaries and
//!   per-register facts, and does the phi, copy, parameter and return
//!   propagation itself; every analysis below is a set of transfer
//!   functions on it, as is the lockset pass in `sjmp-analyze`;
//! * [`analysis`] — the interprocedural fixpoint computing `VASvalid(p)`
//!   for every pointer and `VASin(i)`/`VASout(i)` for every instruction,
//!   plus the provenance verdicts over the same module, so every check
//!   policy is a selection over one result;
//! * [`checks`] — unsafe-access classification per the paper's three
//!   dereference conditions and two store conditions, plus the
//!   check-insertion transformation (with a naive check-everything
//!   baseline for ablation);
//! * [`interp`] — a tagged-pointer interpreter enforcing the Section 3.3
//!   rules at runtime: ground truth that instrumented unsafe programs
//!   trap at their checks and safe programs run unmodified;
//! * [`provenance`] — the interprocedural pointer-provenance pass: an
//!   abstract-object lattice (segment-of-origin × abstract-VAS set)
//!   propagated through stores/loads/calls/returns/phis on the
//!   [`dataflow`] solver, classifying every memory operation as
//!   proven-safe / proven-dangling / unknown with a full
//!   alloc → escape → switch → deref chain on each finding;
//! * [`examples`] — named example IR programs (healthy ones plus the
//!   classic injected dangling bug) shared by tests, docs, and the
//!   `sjmp_lint --ir` CI gate;
//! * [`genprog`] — a seeded (SimRng, fully offline) IR program generator
//!   and the soundness self-validation harness that runs generated
//!   programs under the interpreter and asserts no statically-elided
//!   check would ever have fired and every proven-dangling site that
//!   executes actually faults.
//!
//! # Examples
//!
//! ```
//! use sjmp_safety::analysis::Analysis;
//! use sjmp_safety::checks::{insert_checks, CheckPolicy};
//! use sjmp_safety::ir::{AbstractVas, BlockId, Function, Inst, Module, VasName};
//!
//! // p = malloc; switch v1; x = *p   -- an unsafe cross-VAS dereference.
//! let mut module = Module::new();
//! let mut main = Function::new("main", 0);
//! let p = main.fresh_reg();
//! let x = main.fresh_reg();
//! main.push(BlockId(0), Inst::Malloc { dst: p, size: 8 });
//! main.push(BlockId(0), Inst::Switch(VasName(1)));
//! main.push(BlockId(0), Inst::Load { dst: x, addr: p });
//! main.push(BlockId(0), Inst::Ret(None));
//! module.add_function(main);
//!
//! let entry = [AbstractVas::Vas(VasName(0))].into_iter().collect();
//! let analysis = Analysis::run(&module, entry);
//! let report = insert_checks(&mut module, &analysis, CheckPolicy::Analyzed);
//! assert_eq!(report.deref_checks, 1); // only the unsafe access is checked
//! ```

pub mod analysis;
pub mod checks;
pub mod dataflow;
pub mod examples;
pub mod genprog;
pub mod interp;
pub mod ir;
pub mod provenance;

pub use analysis::Analysis;
pub use checks::{insert_checks, plan_checks, CheckPlan, CheckPolicy, CheckReport};
pub use interp::{Interp, InterpStats, Region, SiteLog, Trap, Value};
pub use ir::{
    AbstractVas, Block, BlockId, FuncId, Function, Inst, Module, Phi, Reg, SegName, Site, VasName,
    VasSet,
};
pub use provenance::{DanglingFinding, Provenance, SiteClass, SiteVerdict, VerifyReport};
