//! Named example IR programs: the shared corpus for tests, docs, and
//! the `sjmp_lint --ir` CI gate.
//!
//! [`healthy`] returns programs that are correct multi-VAS code — the
//! verifier must report **zero** proven-dangling findings on every one
//! of them, and each runs to completion under the interpreter.
//! [`dangling_example`] is the injected bug from the paper's motivation:
//! a VAS-private pointer escapes through a stack slot, the program
//! switches, and the reloaded pointer is dereferenced in the wrong VAS.
//! The verifier reports it with the exact
//! alloc → escape → switch → deref chain.

use crate::ir::{
    AbstractVas, BlockId, FuncId, Function, Inst, Module, Phi, SegName, Site, VasName, VasSet,
};

/// The entry VAS set all examples assume: `{v0}`.
pub fn entry_set() -> VasSet {
    [AbstractVas::Vas(VasName(0))].into_iter().collect()
}

/// All healthy example programs, by name.
pub fn healthy() -> Vec<(&'static str, Module)> {
    vec![
        ("quickstart", quickstart()),
        ("boxed-reload", boxed_reload()),
        ("windowed", windowed()),
        ("call-chain", call_chain()),
        ("phi-merge", phi_merge()),
        ("seg-protocol", seg_protocol()),
        ("producer-consumer", producer_consumer()),
        ("vcast-bridge", vcast_bridge()),
    ]
}

/// `p = malloc; *p = 42; x = *p; ret x` — the README example.
fn quickstart() -> Module {
    let mut m = Module::new();
    let mut f = Function::new("main", 0);
    let p = f.fresh_reg();
    let c = f.fresh_reg();
    let x = f.fresh_reg();
    f.push(BlockId(0), Inst::Malloc { dst: p, size: 8 });
    f.push(BlockId(0), Inst::Const { dst: c, value: 42 });
    f.push(BlockId(0), Inst::Store { addr: p, val: c });
    f.push(BlockId(0), Inst::Load { dst: x, addr: p });
    f.push(BlockId(0), Inst::Ret(Some(x)));
    m.add_function(f);
    m
}

/// A heap pointer parked in a stack slot and reloaded in the *same*
/// VAS: `Analyzed` must check the reload, provenance proves it safe.
fn boxed_reload() -> Module {
    let mut m = Module::new();
    let mut f = Function::new("main", 0);
    let p = f.fresh_reg();
    let slot = f.fresh_reg();
    let c = f.fresh_reg();
    let q = f.fresh_reg();
    let x = f.fresh_reg();
    f.push(BlockId(0), Inst::Malloc { dst: p, size: 8 });
    f.push(BlockId(0), Inst::Alloca { dst: slot, size: 8 });
    f.push(BlockId(0), Inst::Store { addr: slot, val: p });
    f.push(BlockId(0), Inst::Const { dst: c, value: 7 });
    f.push(BlockId(0), Inst::Store { addr: p, val: c });
    f.push(BlockId(0), Inst::Load { dst: q, addr: slot });
    f.push(BlockId(0), Inst::Load { dst: x, addr: q });
    f.push(BlockId(0), Inst::Ret(Some(x)));
    m.add_function(f);
    m
}

/// Two switch windows, each touching only its own VAS's memory.
fn windowed() -> Module {
    let mut m = Module::new();
    let mut f = Function::new("main", 0);
    let c = f.fresh_reg();
    f.push(BlockId(0), Inst::Const { dst: c, value: 1 });
    for vas in 1..=2 {
        let p = f.fresh_reg();
        let x = f.fresh_reg();
        f.push(BlockId(0), Inst::Switch(VasName(vas)));
        f.push(BlockId(0), Inst::Malloc { dst: p, size: 8 });
        f.push(BlockId(0), Inst::Store { addr: p, val: c });
        f.push(BlockId(0), Inst::Load { dst: x, addr: p });
    }
    f.push(BlockId(0), Inst::Ret(None));
    m.add_function(f);
    m
}

/// A heap pointer handed to a callee that dereferences it in the same
/// VAS — interprocedural propagation proves the callee's deref safe.
fn call_chain() -> Module {
    let mut m = Module::new();
    let mut main = Function::new("main", 0);
    let p = main.fresh_reg();
    let c = main.fresh_reg();
    let r = main.fresh_reg();
    main.push(BlockId(0), Inst::Switch(VasName(1)));
    main.push(BlockId(0), Inst::Malloc { dst: p, size: 8 });
    main.push(BlockId(0), Inst::Const { dst: c, value: 11 });
    main.push(BlockId(0), Inst::Store { addr: p, val: c });
    main.push(
        BlockId(0),
        Inst::Call {
            dst: Some(r),
            func: FuncId(1),
            args: vec![p],
        },
    );
    main.push(BlockId(0), Inst::Ret(Some(r)));
    let mut helper = Function::new("read", 1);
    let arg = helper.params[0];
    let x = helper.fresh_reg();
    helper.push(BlockId(0), Inst::Load { dst: x, addr: arg });
    helper.push(BlockId(0), Inst::Ret(Some(x)));
    m.add_function(main);
    m.add_function(helper);
    m
}

/// Both branches allocate in the same VAS; the phi-joined pointer is
/// dereferenced there.
fn phi_merge() -> Module {
    let mut m = Module::new();
    let mut f = Function::new("main", 0);
    let cond = f.fresh_reg();
    let p1 = f.fresh_reg();
    let p2 = f.fresh_reg();
    let p = f.fresh_reg();
    let c = f.fresh_reg();
    let x = f.fresh_reg();
    let t = f.add_block();
    let e = f.add_block();
    let j = f.add_block();
    f.push(BlockId(0), Inst::Switch(VasName(1)));
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
            else_bb: e,
        },
    );
    f.push(t, Inst::Malloc { dst: p1, size: 8 });
    f.push(t, Inst::Br(j));
    f.push(e, Inst::Malloc { dst: p2, size: 8 });
    f.push(e, Inst::Br(j));
    f.push_phi(
        j,
        Phi {
            dst: p,
            incomings: vec![(t, p1), (e, p2)],
        },
    );
    f.push(j, Inst::Const { dst: c, value: 3 });
    f.push(j, Inst::Store { addr: p, val: c });
    f.push(j, Inst::Load { dst: x, addr: p });
    f.push(j, Inst::Ret(Some(x)));
    m.add_function(f);
    m
}

/// Locked access to a shared segment: all common-region, all safe.
fn seg_protocol() -> Module {
    let mut m = Module::new();
    let mut f = Function::new("main", 0);
    let seg = f.fresh_reg();
    let c = f.fresh_reg();
    let x = f.fresh_reg();
    f.push(BlockId(0), Inst::Lock(SegName(0)));
    f.push(
        BlockId(0),
        Inst::SegAddr {
            dst: seg,
            seg: SegName(0),
        },
    );
    f.push(BlockId(0), Inst::Const { dst: c, value: 5 });
    f.push(BlockId(0), Inst::Store { addr: seg, val: c });
    f.push(BlockId(0), Inst::Load { dst: x, addr: seg });
    f.push(BlockId(0), Inst::Unlock(SegName(0)));
    f.push(BlockId(0), Inst::Ret(Some(x)));
    m.add_function(f);
    m
}

/// A producer publishes a VAS-1 heap pointer through a shared segment;
/// the consumer attaches VAS 1 *before* dereferencing — the disciplined
/// version of the pattern [`dangling_example`] gets wrong.
fn producer_consumer() -> Module {
    let mut m = Module::new();
    let mut main = Function::new("main", 0);
    let seg = main.fresh_reg();
    let p = main.fresh_reg();
    let c = main.fresh_reg();
    let r = main.fresh_reg();
    main.push(BlockId(0), Inst::Switch(VasName(1)));
    main.push(BlockId(0), Inst::Malloc { dst: p, size: 8 });
    main.push(BlockId(0), Inst::Const { dst: c, value: 9 });
    main.push(BlockId(0), Inst::Store { addr: p, val: c });
    main.push(BlockId(0), Inst::Lock(SegName(1)));
    main.push(
        BlockId(0),
        Inst::SegAddr {
            dst: seg,
            seg: SegName(1),
        },
    );
    main.push(BlockId(0), Inst::Store { addr: seg, val: p });
    main.push(BlockId(0), Inst::Unlock(SegName(1)));
    main.push(
        BlockId(0),
        Inst::Call {
            dst: Some(r),
            func: FuncId(1),
            args: vec![],
        },
    );
    main.push(BlockId(0), Inst::Ret(Some(r)));
    let mut consumer = Function::new("consumer", 0);
    let seg2 = consumer.fresh_reg();
    let q = consumer.fresh_reg();
    let x = consumer.fresh_reg();
    consumer.push(BlockId(0), Inst::Switch(VasName(1)));
    consumer.push(BlockId(0), Inst::Lock(SegName(1)));
    consumer.push(
        BlockId(0),
        Inst::SegAddr {
            dst: seg2,
            seg: SegName(1),
        },
    );
    consumer.push(BlockId(0), Inst::Load { dst: q, addr: seg2 });
    consumer.push(BlockId(0), Inst::Load { dst: x, addr: q });
    consumer.push(BlockId(0), Inst::Unlock(SegName(1)));
    consumer.push(BlockId(0), Inst::Ret(Some(x)));
    m.add_function(main);
    m.add_function(consumer);
    m
}

/// `vcast` used legitimately: retagging a pointer to the VAS it really
/// belongs to, then dereferencing there.
fn vcast_bridge() -> Module {
    let mut m = Module::new();
    let mut f = Function::new("main", 0);
    let p = f.fresh_reg();
    let c = f.fresh_reg();
    let q = f.fresh_reg();
    let x = f.fresh_reg();
    f.push(BlockId(0), Inst::Switch(VasName(1)));
    f.push(BlockId(0), Inst::Malloc { dst: p, size: 8 });
    f.push(BlockId(0), Inst::Const { dst: c, value: 6 });
    f.push(BlockId(0), Inst::Store { addr: p, val: c });
    f.push(
        BlockId(0),
        Inst::VCast {
            dst: q,
            src: p,
            vas: VasName(1),
        },
    );
    f.push(BlockId(0), Inst::Load { dst: x, addr: q });
    f.push(BlockId(0), Inst::Ret(Some(x)));
    m.add_function(f);
    m
}

/// The injected bug: a VAS-0 heap pointer escapes into a stack slot,
/// the program switches to VAS 1, reloads the pointer, and both
/// dereferences it and stores through it. The verifier reports both
/// sites as proven-dangling; the load's chain is exactly
/// `alloc@0:bb0[0] -> escape@0:bb0[2] -> switch@0:bb0[3] -> load@0:bb0[5]`.
pub fn dangling_example() -> Module {
    let mut m = Module::new();
    let mut f = Function::new("main", 0);
    let p = f.fresh_reg();
    let slot = f.fresh_reg();
    let q = f.fresh_reg();
    let x = f.fresh_reg();
    let c = f.fresh_reg();
    f.push(BlockId(0), Inst::Malloc { dst: p, size: 8 }); // [0] alloc
    f.push(BlockId(0), Inst::Alloca { dst: slot, size: 8 }); // [1]
    f.push(BlockId(0), Inst::Store { addr: slot, val: p }); // [2] escape
    f.push(BlockId(0), Inst::Switch(VasName(1))); // [3] switch
    f.push(BlockId(0), Inst::Load { dst: q, addr: slot }); // [4]
    f.push(BlockId(0), Inst::Load { dst: x, addr: q }); // [5] dangling load
    f.push(BlockId(0), Inst::Const { dst: c, value: 1 }); // [6]
    f.push(BlockId(0), Inst::Store { addr: q, val: c }); // [7] dangling store
    f.push(BlockId(0), Inst::Ret(None));
    m.add_function(f);
    m
}

/// The sites of [`dangling_example`]'s chain, for tests and docs.
pub mod dangling_sites {
    use super::Site;
    /// `p = malloc` in VAS 0.
    pub const ALLOC: Site = Site {
        func: 0,
        block: 0,
        idx: 0,
    };
    /// `*slot = p` — the escape store.
    pub const ESCAPE: Site = Site {
        func: 0,
        block: 0,
        idx: 2,
    };
    /// `switch v1`.
    pub const SWITCH: Site = Site {
        func: 0,
        block: 0,
        idx: 3,
    };
    /// `x = *q` — the dangling dereference.
    pub const DEREF: Site = Site {
        func: 0,
        block: 0,
        idx: 5,
    };
    /// `*q = 1` — the dangling store.
    pub const STORE: Site = Site {
        func: 0,
        block: 0,
        idx: 7,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analysis;
    use crate::interp::Interp;
    use crate::provenance::SiteClass;

    /// Every healthy example runs to completion and has zero findings.
    #[test]
    fn healthy_examples_run_and_verify_clean() {
        for (name, m) in healthy() {
            let mut interp = Interp::new(&m, VasName(0));
            assert!(interp.run(&[]).is_ok(), "{name} should run clean");
            let report = Analysis::run(&m, entry_set()).verified;
            assert!(
                report.findings.is_empty(),
                "{name} should have no findings: {:?}",
                report.findings
            );
        }
    }

    /// The injected bug is caught with the exact chain.
    #[test]
    fn dangling_example_reports_exact_chain() {
        let m = dangling_example();
        let report = Analysis::run(&m, entry_set()).verified;
        let load = report
            .findings
            .iter()
            .find(|f| f.site == dangling_sites::DEREF)
            .expect("dangling load finding");
        assert_eq!(load.alloc_sites, vec![dangling_sites::ALLOC]);
        assert_eq!(load.escape_sites, vec![dangling_sites::ESCAPE]);
        assert_eq!(load.switch_sites, vec![dangling_sites::SWITCH]);
        assert_eq!(
            load.chain,
            "alloc@0:bb0[0] -> escape@0:bb0[2] -> switch@0:bb0[3] -> load@0:bb0[5]: \
             pointer valid in {v0}, current VAS {v1}"
        );
        let store = report
            .findings
            .iter()
            .find(|f| f.site == dangling_sites::STORE)
            .expect("dangling store finding");
        assert_eq!(store.kind, "store");
        assert_eq!(report.count(SiteClass::ProvenDangling), 2);
    }
}
