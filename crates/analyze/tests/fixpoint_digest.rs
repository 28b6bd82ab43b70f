//! Golden digests of every fixpoint the safety IR analyses compute.
//!
//! Two FNV-1a hashes over the example corpus (`examples::healthy()`,
//! `examples::dangling_example()`) and generated programs 0..512:
//!
//! * the **safety** digest: `VASvalid` of every register, function
//!   entry/exit/return sets, `VASin` at every site, the check plan under
//!   all three policies, and the provenance verifier's per-register
//!   points-to sets, objects, verdicts and finding chains;
//! * the **lockset** digest: the access class of every load and store.
//!
//! A change that moves either hash changes what the analyses conclude,
//! not just how they get there; a pure refactor of the solver must leave
//! both untouched.

use sjmp_analyze::Lockset;
use sjmp_safety::ir::{BlockId, Module, Reg};
use sjmp_safety::{examples, genprog, plan_checks, Analysis, CheckPolicy};

/// Golden safety digest (see the module docs).
const SAFETY_DIGEST: u64 = 0xdca1_f262_4016_3f45;
/// Golden lockset digest (see the module docs).
const LOCKSET_DIGEST: u64 = 0xdee5_5f44_ff89_100b;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Hashes a value's `Debug` rendering. Every type hashed here is an
    /// ordered collection or a plain struct, so the rendering is stable.
    fn debug(&mut self, value: &impl std::fmt::Debug) {
        self.bytes(format!("{value:?}").as_bytes());
        self.bytes(&[0xff]);
    }
}

fn corpus() -> Vec<Module> {
    let mut modules: Vec<Module> = examples::healthy().into_iter().map(|(_, m)| m).collect();
    modules.push(examples::dangling_example());
    modules.extend((0..512).map(genprog::generate));
    modules
}

fn regs(module: &Module, fi: usize) -> impl Iterator<Item = Reg> {
    (0..module.functions[fi].reg_count()).map(Reg)
}

fn safety_digest(module: &Module, h: &mut Fnv) {
    let a = Analysis::run(module, examples::entry_set());
    for fi in 0..module.functions.len() {
        for r in regs(module, fi) {
            h.debug(&a.valid_of(fi, r));
        }
        h.debug(&(&a.entry[fi], &a.exit[fi], &a.ret_valid[fi]));
    }
    for (s, _) in module.sites() {
        h.debug(a.vas_in_of(s.func as usize, BlockId(s.block), s.idx as usize));
    }
    for policy in [
        CheckPolicy::Naive,
        CheckPolicy::Analyzed,
        CheckPolicy::Interprocedural,
    ] {
        let plan = plan_checks(module, &a, policy);
        let mut decisions: Vec<_> = plan.decisions.iter().collect();
        decisions.sort_by_key(|(site, _)| **site);
        h.debug(&decisions);
        h.debug(&plan.report);
    }
    let prov = &a.provenance;
    for fi in 0..module.functions.len() {
        for r in regs(module, fi) {
            h.debug(&prov.pts_of(fi, r));
        }
    }
    for (id, obj) in prov.objects.iter().enumerate() {
        h.debug(&(obj, prov.heap_of(id as u32), prov.escapes_of(id as u32)));
    }
    h.debug(&prov.heap_poisoned);
    for v in &a.verified.verdicts {
        h.debug(&(v.site, v.kind, v.deref, v.store, v.class));
    }
    for f in &a.verified.findings {
        h.debug(&f.chain);
    }
}

fn lockset_digest(module: &Module, h: &mut Fnv) {
    let a = Analysis::run(module, examples::entry_set());
    let l = Lockset::run(module, &a.provenance);
    for (s, _) in module.sites() {
        h.debug(&l.class_of(s.func as usize, BlockId(s.block), s.idx as usize));
    }
}

#[test]
fn safety_fixpoints_match_the_golden_digest() {
    let mut h = Fnv::new();
    for m in corpus() {
        safety_digest(&m, &mut h);
    }
    assert_eq!(h.0, SAFETY_DIGEST, "safety digest {:#018x}", h.0);
}

#[test]
fn lockset_classes_match_the_golden_digest() {
    let mut h = Fnv::new();
    for m in corpus() {
        lockset_digest(&m, &mut h);
    }
    assert_eq!(h.0, LOCKSET_DIGEST, "lockset digest {:#018x}", h.0);
}
