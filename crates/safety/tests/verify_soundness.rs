//! Soundness self-validation of the provenance verifier and the
//! interprocedural check-elision policy, plus dataflow edge cases the
//! interprocedural pass must handle.

use sjmp_safety::genprog::{validate_batch, validate_seed};
use sjmp_safety::ir::{
    AbstractVas, BlockId, FuncId, Function, Inst, Module, Phi, SegName, Site, VasName, VasSet,
};
use sjmp_safety::provenance::SiteClass;
use sjmp_safety::{examples, insert_checks, plan_checks, Analysis, CheckPolicy, Interp, Trap};

fn entry() -> VasSet {
    [AbstractVas::Vas(VasName(0))].into_iter().collect()
}

/// 500+ seeded generator programs: no elided check would ever have
/// fired, no proven-dangling site ever executed successfully, and
/// instrumented runs are observationally identical.
#[test]
fn soundness_over_512_seeds() {
    let report = validate_batch(0..512);
    assert_eq!(report.programs, 512);
    assert!(
        report.violations.is_empty(),
        "soundness violations: {:#?}",
        report.violations
    );
    assert!(report.mem_sites > 1000, "corpus should be substantial");
    assert!(
        report.proven_safe > 0,
        "verifier should prove some sites safe"
    );
    assert!(
        report.extra_elisions > 0,
        "Interprocedural should beat Analyzed somewhere in the corpus"
    );
}

/// The injected dangling bug faults at runtime exactly where the
/// verifier proved it would.
#[test]
fn dangling_example_faults_at_the_proven_site() {
    let m = examples::dangling_example();
    let report = Analysis::run(&m, examples::entry_set()).verified;
    assert_eq!(report.count(SiteClass::ProvenDangling), 2);
    let mut interp = Interp::new(&m, VasName(0)).with_site_log();
    let err = interp.run(&[]).unwrap_err();
    assert!(matches!(err, Trap::UnsafeDeref { .. }));
    let fault = interp.site_log().unwrap().fault.expect("fault site");
    assert_eq!(fault, examples::dangling_sites::DEREF);
    assert_eq!(
        report.verdict_at(fault).unwrap().class,
        SiteClass::ProvenDangling
    );
}

/// Healthy examples: zero findings, and Interprocedural instrumentation
/// never changes the observable result.
#[test]
fn healthy_examples_clean_and_equivalent_under_interproc() {
    for (name, m) in examples::healthy() {
        let report = Analysis::run(&m, examples::entry_set()).verified;
        assert!(report.findings.is_empty(), "{name}: {:?}", report.findings);
        let plain = Interp::new(&m, VasName(0)).run(&[]).unwrap();
        let mut instrumented = m.clone();
        let a = Analysis::run(&instrumented, examples::entry_set());
        insert_checks(&mut instrumented, &a, CheckPolicy::Interprocedural);
        let checked = Interp::new(&instrumented, VasName(0)).run(&[]).unwrap();
        assert_eq!(plain, checked, "{name}: instrumentation changed result");
    }
}

/// Edge case: a phi joining pointers minted in *different* VASes. The
/// join is ambiguous — neither provable safe nor provable dangling —
/// so every policy keeps the check, and the runtime check passes on
/// the arm that matches.
#[test]
fn phi_join_of_cross_vas_pointers_stays_checked() {
    let mut m = Module::new();
    let mut f = Function::new("main", 0);
    let cond = f.fresh_reg();
    let p1 = f.fresh_reg();
    let p2 = f.fresh_reg();
    let p = f.fresh_reg();
    let x = f.fresh_reg();
    let t = f.add_block();
    let e = f.add_block();
    let j = f.add_block();
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
    f.push(t, Inst::Switch(VasName(1)));
    f.push(t, Inst::Malloc { dst: p1, size: 8 });
    f.push(t, Inst::Br(j));
    f.push(e, Inst::Switch(VasName(2)));
    f.push(e, Inst::Malloc { dst: p2, size: 8 });
    f.push(e, Inst::Br(j));
    f.push_phi(
        j,
        Phi {
            dst: p,
            incomings: vec![(t, p1), (e, p2)],
        },
    );
    f.push(j, Inst::Load { dst: x, addr: p });
    f.push(j, Inst::Ret(None));
    m.add_function(f);
    let a = Analysis::run(&m, entry());
    let verdict = a.verified.verdict_at(Site::new(0, 3, 0)).unwrap();
    assert_eq!(verdict.class, SiteClass::Unknown);
    let plan = plan_checks(&m, &a, CheckPolicy::Interprocedural);
    assert!(plan.decision_at(Site::new(0, 3, 0)).need_deref);
    // Runtime: the taken arm (then) malloc'd in VAS 1 while VAS 1 is
    // current — the load traps UninitializedRead, not a VAS fault.
    let mut i = Interp::new(&m, VasName(0));
    assert!(matches!(
        i.run(&[]).unwrap_err(),
        Trap::UninitializedRead(_)
    ));
}

/// Edge case: `vcast` applied to an already-Unknown value. The cast
/// reasserts a concrete VAS; dereferencing it in that VAS is safe as
/// far as the VAS rules go, and nothing is proven dangling.
#[test]
fn vcast_on_unknown_value() {
    let mut m = Module::new();
    let mut f = Function::new("main", 0);
    let slot = f.fresh_reg();
    let c = f.fresh_reg();
    let u = f.fresh_reg();
    let y = f.fresh_reg();
    let x = f.fresh_reg();
    f.push(BlockId(0), Inst::Alloca { dst: slot, size: 8 });
    f.push(BlockId(0), Inst::Const { dst: c, value: 3 });
    f.push(BlockId(0), Inst::Store { addr: slot, val: c });
    // u loads from the common region: VASvalid(u) = {vunknown}.
    f.push(BlockId(0), Inst::Load { dst: u, addr: slot });
    f.push(
        BlockId(0),
        Inst::VCast {
            dst: y,
            src: u,
            vas: VasName(0),
        },
    );
    f.push(BlockId(0), Inst::Load { dst: x, addr: y });
    f.push(BlockId(0), Inst::Ret(None));
    m.add_function(f);
    let a = Analysis::run(&m, entry());
    assert_eq!(
        a.valid_of(0, u),
        [AbstractVas::Unknown].into_iter().collect::<VasSet>()
    );
    assert_eq!(
        a.valid_of(0, y),
        [AbstractVas::Vas(VasName(0))]
            .into_iter()
            .collect::<VasSet>()
    );
    let report = &a.verified;
    assert_eq!(report.count(SiteClass::ProvenDangling), 0);
    // The deref through the cast is region-safe in VAS 0 (the tag says
    // v0 and v0 is current), even though what it reads is anyone's
    // guess — a check, had one run, would also have passed.
    let verdict = report.verdict_at(Site::new(0, 0, 5)).unwrap();
    assert_eq!(verdict.class, SiteClass::ProvenSafe);
}

/// Edge case: recursion. Provenance propagates through the cycle in
/// the call graph and the verifier still proves the post-call deref
/// safe.
#[test]
fn recursive_call_provenance() {
    let mut m = Module::new();
    let mut main = Function::new("main", 0);
    let p = main.fresh_reg();
    let c = main.fresh_reg();
    let one = main.fresh_reg();
    let r = main.fresh_reg();
    let x = main.fresh_reg();
    main.push(BlockId(0), Inst::Malloc { dst: p, size: 8 });
    main.push(BlockId(0), Inst::Const { dst: c, value: 8 });
    main.push(BlockId(0), Inst::Store { addr: p, val: c });
    main.push(BlockId(0), Inst::Const { dst: one, value: 1 });
    main.push(
        BlockId(0),
        Inst::Call {
            dst: Some(r),
            func: FuncId(1),
            args: vec![one, p],
        },
    );
    main.push(BlockId(0), Inst::Load { dst: x, addr: r });
    main.push(BlockId(0), Inst::Ret(Some(x)));
    let mut rec = Function::new("rec", 2);
    let flag = rec.params[0];
    let q = rec.params[1];
    let body = rec.add_block();
    let base = rec.add_block();
    rec.push(
        BlockId(0),
        Inst::CondBr {
            cond: flag,
            then_bb: body,
            else_bb: base,
        },
    );
    let zero = rec.fresh_reg();
    let inner = rec.fresh_reg();
    rec.push(
        body,
        Inst::Const {
            dst: zero,
            value: 0,
        },
    );
    rec.push(
        body,
        Inst::Call {
            dst: Some(inner),
            func: FuncId(1),
            args: vec![zero, q],
        },
    );
    rec.push(body, Inst::Ret(Some(inner)));
    rec.push(base, Inst::Ret(Some(q)));
    m.add_function(main);
    m.add_function(rec);
    let report = Analysis::run(&m, entry()).verified;
    // The deref of the recursion's return value is proven safe: the
    // returned pointer is exactly the VAS-0 malloc.
    let verdict = report.verdict_at(Site::new(0, 0, 5)).unwrap();
    assert_eq!(verdict.class, SiteClass::ProvenSafe);
    let mut i = Interp::new(&m, VasName(0));
    assert_eq!(i.run(&[]).unwrap(), Some(sjmp_safety::Value::Int(8)));
}

/// Edge case: a pointer stored to a shared segment in one function and
/// loaded in another. Same-VAS consumption is proven safe (and the
/// check elided); wrong-VAS consumption is proven dangling.
#[test]
fn segment_stored_pointer_roundtrip() {
    let build = |consumer_switch: Option<VasName>| {
        let mut m = Module::new();
        let mut main = Function::new("main", 0);
        let p = main.fresh_reg();
        let c = main.fresh_reg();
        let seg = main.fresh_reg();
        main.push(BlockId(0), Inst::Switch(VasName(1)));
        main.push(BlockId(0), Inst::Malloc { dst: p, size: 8 });
        main.push(BlockId(0), Inst::Const { dst: c, value: 4 });
        main.push(BlockId(0), Inst::Store { addr: p, val: c });
        main.push(
            BlockId(0),
            Inst::SegAddr {
                dst: seg,
                seg: SegName(0),
            },
        );
        main.push(BlockId(0), Inst::Store { addr: seg, val: p });
        main.push(
            BlockId(0),
            Inst::Call {
                dst: None,
                func: FuncId(1),
                args: vec![],
            },
        );
        main.push(BlockId(0), Inst::Ret(None));
        let mut consumer = Function::new("consumer", 0);
        let seg2 = consumer.fresh_reg();
        let q = consumer.fresh_reg();
        let x = consumer.fresh_reg();
        if let Some(v) = consumer_switch {
            consumer.push(BlockId(0), Inst::Switch(v));
        }
        consumer.push(
            BlockId(0),
            Inst::SegAddr {
                dst: seg2,
                seg: SegName(0),
            },
        );
        consumer.push(BlockId(0), Inst::Load { dst: q, addr: seg2 });
        consumer.push(BlockId(0), Inst::Load { dst: x, addr: q });
        consumer.push(BlockId(0), Inst::Ret(None));
        m.add_function(main);
        m.add_function(consumer);
        m
    };

    // Consumer stays in VAS 1 (main switched and never leaves): safe,
    // and the interprocedural policy elides the deref check Analyzed
    // must keep.
    let safe = build(None);
    let a = Analysis::run(&safe, entry());
    assert_eq!(a.verified.count(SiteClass::ProvenDangling), 0);
    let deref = a.verified.verdict_at(Site::new(1, 0, 2)).unwrap();
    assert_eq!(deref.class, SiteClass::ProvenSafe);
    let analyzed = plan_checks(&safe, &a, CheckPolicy::Analyzed);
    let interproc = plan_checks(&safe, &a, CheckPolicy::Interprocedural);
    assert!(analyzed.decision_at(Site::new(1, 0, 2)).need_deref);
    assert!(!interproc.decision_at(Site::new(1, 0, 2)).need_deref);
    let mut i = Interp::new(&safe, VasName(0));
    assert!(i.run(&[]).is_ok());

    // Consumer switches to VAS 2 first: proven dangling, with the chain
    // crossing the function boundary.
    let bad = build(Some(VasName(2)));
    let report = Analysis::run(&bad, entry()).verified;
    let finding = report
        .findings
        .iter()
        .find(|f| f.site == Site::new(1, 0, 3))
        .expect("cross-function dangling detected");
    assert_eq!(finding.alloc_sites, vec![Site::new(0, 0, 1)]);
    assert_eq!(finding.escape_sites, vec![Site::new(0, 0, 5)]);
    assert_eq!(finding.func, "consumer");
    let mut i = Interp::new(&bad, VasName(0));
    assert!(matches!(i.run(&[]).unwrap_err(), Trap::UnsafeDeref { .. }));
}

/// Determinism: the same seed validates to the same outcome.
#[test]
fn validate_seed_deterministic() {
    for seed in [0u64, 7, 99] {
        let a = validate_seed(seed).expect("sound");
        let b = validate_seed(seed).expect("sound");
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
