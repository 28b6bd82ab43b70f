//! SSA intermediate representation for the pointer-safety analysis.
//!
//! The paper's compiler support (Sections 3.3 and 4.3) is defined over the
//! SSA instruction set of Figure 5: `switch v`, `vcast`, stack/global/heap
//! allocations, copies, phis, loads, stores, calls, and returns. This
//! module provides that IR — a small module/function/basic-block
//! structure with a builder — independent of any real compiler.

use std::collections::BTreeSet;
use std::fmt;

/// A virtual register (SSA value).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u32);

/// A basic-block id within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// A function id within a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// A concrete VAS name in the program text (`switch v`, `vcast y v`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VasName(pub u32);

/// A lockable shared segment named in the program text (`lock s`,
/// `unlock s`, `x = segaddr s`). Segments are the paper's unit of
/// sharing (Section 3.2); the lockset analysis is defined over these
/// names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegName(pub u32);

/// Abstract VAS values used by the analysis (Section 4.3):
/// concrete VAS ids, plus `vcommon` and `vunknown`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AbstractVas {
    /// A specific address space.
    Vas(VasName),
    /// The common region (stack, globals, code), mapped in every VAS.
    Common,
    /// Statically unknown.
    Unknown,
}

/// A set of abstract VASes — the lattice element for `VASvalid`/`VASin`.
pub type VasSet = BTreeSet<AbstractVas>;

/// A program point: function, block, and instruction index. The common
/// coordinate system shared by the analyses ([`crate::analysis`],
/// [`crate::provenance`]), the check planner, and the interpreter's
/// site log, so a static verdict and a runtime observation can be
/// compared site-for-site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Site {
    /// Function index within the module.
    pub func: u32,
    /// Block index within the function.
    pub block: u32,
    /// Instruction index within the block.
    pub idx: u32,
}

impl Site {
    /// Builds a site from usize coordinates.
    pub fn new(func: usize, block: usize, idx: usize) -> Site {
        Site {
            func: func as u32,
            block: block as u32,
            idx: idx as u32,
        }
    }
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}:bb{}[{}]", self.func, self.block, self.idx)
    }
}

/// The instructions of Figure 5 plus control flow and the checks the
/// transformation inserts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inst {
    /// `switch v` — make VAS `v` current.
    Switch(VasName),
    /// `x = vcast y v` — reinterpret `y` as valid in `v` (unsafe escape
    /// hatch provided "to override the safety rules").
    VCast { dst: Reg, src: Reg, vas: VasName },
    /// `x = alloca` — stack allocation (common region).
    Alloca { dst: Reg, size: u64 },
    /// `x = global` — address of a global (common region).
    Global { dst: Reg, name: &'static str },
    /// `x = malloc` — heap allocation in the current VAS.
    Malloc { dst: Reg, size: u64 },
    /// `x = y` — copy / arithmetic / cast.
    Copy { dst: Reg, src: Reg },
    /// `x = c` — integer constant.
    Const { dst: Reg, value: u64 },
    /// `x = *y` — load.
    Load { dst: Reg, addr: Reg },
    /// `*x = y` — store.
    Store { addr: Reg, val: Reg },
    /// `x = foo(y, ...)` — call.
    Call {
        dst: Option<Reg>,
        func: FuncId,
        args: Vec<Reg>,
    },
    /// `ret x` — return.
    Ret(Option<Reg>),
    /// Unconditional branch.
    Br(BlockId),
    /// Conditional branch on a register (nonzero = then).
    CondBr {
        cond: Reg,
        then_bb: BlockId,
        else_bb: BlockId,
    },
    /// Inserted check: `addr` must point into the current VAS or the
    /// common region. Traps at runtime otherwise.
    CheckDeref { addr: Reg },
    /// Inserted check: storing `val` through `addr` must satisfy the
    /// Section 3.3 store rules. Traps at runtime otherwise.
    CheckStore { addr: Reg, val: Reg },
    /// `lock s` — acquire shared segment `s`'s lock (blocking).
    Lock(SegName),
    /// `unlock s` — release shared segment `s`'s lock.
    Unlock(SegName),
    /// `x = segaddr s` — base address of shared segment `s`. Shared
    /// segments are mapped at the same address in every VAS that
    /// attaches them, so the result lives in the common region for
    /// `VASvalid` purposes; whether dereferences through it are *safe*
    /// is the lockset analysis's question, not the VAS analysis's.
    SegAddr { dst: Reg, seg: SegName },
}

impl Inst {
    /// The register this instruction defines, if any.
    pub fn def(&self) -> Option<Reg> {
        match self {
            Inst::VCast { dst, .. }
            | Inst::Alloca { dst, .. }
            | Inst::Global { dst, .. }
            | Inst::Malloc { dst, .. }
            | Inst::Copy { dst, .. }
            | Inst::Const { dst, .. }
            | Inst::SegAddr { dst, .. }
            | Inst::Load { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } => *dst,
            _ => None,
        }
    }

    /// Whether this is a block terminator.
    pub fn is_terminator(&self) -> bool {
        matches!(self, Inst::Ret(_) | Inst::Br(_) | Inst::CondBr { .. })
    }
}

/// A phi node at a block head: `dst = phi [(pred, reg), ...]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phi {
    /// Defined register.
    pub dst: Reg,
    /// Incoming value per predecessor block.
    pub incomings: Vec<(BlockId, Reg)>,
}

/// A basic block: phis, then instructions, ending in a terminator.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Phi nodes.
    pub phis: Vec<Phi>,
    /// Instructions (last one is the terminator once sealed).
    pub insts: Vec<Inst>,
}

impl Block {
    /// Successor blocks of this block's terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match self.insts.last() {
            Some(Inst::Br(b)) => vec![*b],
            Some(Inst::CondBr {
                then_bb, else_bb, ..
            }) => vec![*then_bb, *else_bb],
            _ => Vec::new(),
        }
    }
}

/// A function: parameters, blocks, entry block 0.
#[derive(Debug, Clone)]
pub struct Function {
    /// Function name (diagnostics).
    pub name: String,
    /// Parameter registers.
    pub params: Vec<Reg>,
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<Block>,
    next_reg: u32,
}

impl Function {
    /// Creates a function with `nparams` parameters (registers `0..n`).
    pub fn new(name: impl Into<String>, nparams: u32) -> Self {
        Function {
            name: name.into(),
            params: (0..nparams).map(Reg).collect(),
            blocks: vec![Block::default()],
            next_reg: nparams,
        }
    }

    /// Allocates a fresh register.
    pub fn fresh_reg(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Number of registers allocated (for dense analysis arrays).
    pub fn reg_count(&self) -> u32 {
        self.next_reg
    }

    /// Adds an empty block and returns its id.
    pub fn add_block(&mut self) -> BlockId {
        self.blocks.push(Block::default());
        BlockId(self.blocks.len() as u32 - 1)
    }

    /// Appends an instruction to a block.
    ///
    /// # Panics
    ///
    /// Panics if the block is already terminated.
    pub fn push(&mut self, bb: BlockId, inst: Inst) {
        let block = &mut self.blocks[bb.0 as usize];
        if let Some(last) = block.insts.last() {
            assert!(!last.is_terminator(), "block {bb:?} already terminated");
        }
        block.insts.push(inst);
    }

    /// Adds a phi node to a block.
    pub fn push_phi(&mut self, bb: BlockId, phi: Phi) {
        self.blocks[bb.0 as usize].phis.push(phi);
    }

    /// Predecessor map (recomputed on demand).
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (i, b) in self.blocks.iter().enumerate() {
            for s in b.successors() {
                preds[s.0 as usize].push(BlockId(i as u32));
            }
        }
        preds
    }
}

/// A module: a set of functions; function 0 is `main`.
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// Functions; id = index.
    pub functions: Vec<Function>,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Self {
        Module::default()
    }

    /// Adds a function, returning its id.
    pub fn add_function(&mut self, f: Function) -> FuncId {
        self.functions.push(f);
        FuncId(self.functions.len() as u32 - 1)
    }

    /// The entry function (id 0).
    ///
    /// # Panics
    ///
    /// Panics if the module is empty.
    pub fn main(&self) -> &Function {
        &self.functions[0]
    }

    /// Every instruction with its site, in program order.
    pub fn sites(&self) -> impl Iterator<Item = (Site, &Inst)> + '_ {
        self.functions.iter().enumerate().flat_map(|(fi, f)| {
            f.blocks.iter().enumerate().flat_map(move |(bi, b)| {
                b.insts
                    .iter()
                    .enumerate()
                    .map(move |(ii, inst)| (Site::new(fi, bi, ii), inst))
            })
        })
    }

    /// Total instruction count (for check-density reporting).
    pub fn inst_count(&self) -> usize {
        self.sites().count()
    }

    /// Number of inserted check instructions.
    pub fn check_count(&self) -> usize {
        self.sites()
            .filter(|(_, i)| matches!(i, Inst::CheckDeref { .. } | Inst::CheckStore { .. }))
            .count()
    }

    /// Number of memory operations (loads + stores), the naive check
    /// budget.
    pub fn mem_op_count(&self) -> usize {
        self.sites()
            .filter(|(_, i)| matches!(i, Inst::Load { .. } | Inst::Store { .. }))
            .count()
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (fi, func) in self.functions.iter().enumerate() {
            writeln!(f, "fn @{} {}({:?}):", fi, func.name, func.params)?;
            for (bi, b) in func.blocks.iter().enumerate() {
                writeln!(f, "  bb{bi}:")?;
                for phi in &b.phis {
                    writeln!(f, "    {:?} = phi {:?}", phi.dst, phi.incomings)?;
                }
                for inst in &b.insts {
                    writeln!(f, "    {inst:?}")?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn function_builder_basics() {
        let mut f = Function::new("main", 1);
        assert_eq!(f.params, vec![Reg(0)]);
        let r = f.fresh_reg();
        assert_eq!(r, Reg(1));
        let bb1 = f.add_block();
        f.push(BlockId(0), Inst::Br(bb1));
        f.push(bb1, Inst::Ret(None));
        assert_eq!(f.blocks[0].successors(), vec![bb1]);
        assert!(f.blocks[1].successors().is_empty());
        let preds = f.predecessors();
        assert_eq!(preds[1], vec![BlockId(0)]);
    }

    #[test]
    #[should_panic(expected = "already terminated")]
    fn push_after_terminator_panics() {
        let mut f = Function::new("f", 0);
        f.push(BlockId(0), Inst::Ret(None));
        f.push(BlockId(0), Inst::Ret(None));
    }

    #[test]
    fn inst_defs() {
        let mut f = Function::new("f", 0);
        let a = f.fresh_reg();
        assert_eq!(Inst::Malloc { dst: a, size: 8 }.def(), Some(a));
        assert_eq!(Inst::Store { addr: a, val: a }.def(), None);
        assert_eq!(Inst::Switch(VasName(1)).def(), None);
        assert!(Inst::Br(BlockId(0)).is_terminator());
        assert!(!Inst::Const { dst: a, value: 1 }.is_terminator());
    }

    #[test]
    fn module_counts() {
        let mut m = Module::new();
        let mut f = Function::new("main", 0);
        let p = f.fresh_reg();
        let v = f.fresh_reg();
        f.push(BlockId(0), Inst::Malloc { dst: p, size: 8 });
        f.push(BlockId(0), Inst::Load { dst: v, addr: p });
        f.push(BlockId(0), Inst::Store { addr: p, val: v });
        f.push(BlockId(0), Inst::CheckDeref { addr: p });
        f.push(BlockId(0), Inst::Ret(None));
        m.add_function(f);
        assert_eq!(m.inst_count(), 5);
        assert_eq!(m.mem_op_count(), 2);
        assert_eq!(m.check_count(), 1);
        assert!(!format!("{m}").is_empty());
    }

    #[test]
    fn cond_br_successors() {
        let mut f = Function::new("f", 0);
        let c = f.fresh_reg();
        let t = f.add_block();
        let e = f.add_block();
        f.push(BlockId(0), Inst::Const { dst: c, value: 1 });
        f.push(
            BlockId(0),
            Inst::CondBr {
                cond: c,
                then_bb: t,
                else_bb: e,
            },
        );
        assert_eq!(f.blocks[0].successors(), vec![t, e]);
    }
}
