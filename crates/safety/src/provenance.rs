//! Interprocedural pointer-provenance analysis and the dangling-deref
//! verifier built on top of it.
//!
//! The `VASvalid` dataflow ([`crate::analysis`]) deliberately loses
//! information at memory: a pointer loaded from the common region becomes
//! `vunknown`, because the intraprocedural lattice has no way to say
//! *which* pointer was stored there. This module recovers that precision
//! with a provenance lattice of abstract objects:
//!
//! * every allocation site (`alloca`, `global`, `malloc`, `vcast`) mints
//!   one abstract object; `segaddr s` mints one object **per segment
//!   name** shared by every function that names it — segment-of-origin
//!   is part of provenance, which is what lets escapes through shared
//!   lockable segments be tracked across functions;
//! * each object carries the abstract-VAS set its memory belongs to
//!   (`malloc` → the final `VASin` at the site; `alloca`/`global`/
//!   `segaddr` → `{vcommon}`; `vcast y v` → `{v}`);
//! * a register's provenance is [`Pts`]: a set of objects plus
//!   "may be unknown" and "may be an integer" flags;
//! * a global abstract heap maps each object to the provenance of
//!   everything ever stored into it, so a load through object `o` yields
//!   `heap(o)` instead of `vunknown`.
//!
//! [`Provenance`] is a [`crate::dataflow`] problem with [`Pts`] as the
//! register fact and no flow state: the solver carries provenance
//! through copies, phis, parameters and returns, and the transfer
//! functions here mint objects and move provenance through memory. The
//! heap, its poison flag and the escape record are facts the problem
//! keeps for the whole module; when the heap grows, every function is
//! visited again. Escape stores are recorded per object so a verdict can
//! cite the full chain alloc site → escape store → `switch` →
//! dereference.
//!
//! Soundness hinges on one hazard: the interpreter's per-region bump
//! allocators hand out the *same* address sequence in every region, so a
//! `vcast` pointer (or a statically unknown one) can alias any tracked
//! object in its region. A store through such a pointer therefore
//! poisons the whole abstract heap — every later load degrades to
//! unknown — rather than silently missing the write.
//!
//! [`Analysis::run`](crate::analysis::Analysis::run) runs this pass once
//! and keeps its classification of every load/store as proven-safe /
//! proven-dangling / unknown in its `verified` report; [`crate::checks::CheckPolicy::Interprocedural`]
//! elides checks at proven-safe sites, and the seeded soundness harness
//! ([`crate::genprog`]) validates both claims against the interpreter.

use std::collections::{BTreeSet, HashMap};

use crate::dataflow::{self, Effect, Lattice, Problem};
use crate::ir::{AbstractVas, Inst, Module, Reg, SegName, Site, VasName, VasSet};

/// Index of an abstract object in [`Provenance::objects`].
pub type ObjId = u32;

/// Why an abstract object exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// `x = alloca` — a stack slot in the common region.
    Alloca,
    /// `x = global` — a global cell in the common region.
    Global,
    /// `x = malloc` — heap memory in the VAS(es) active at the site.
    Malloc,
    /// `x = segaddr s` — the shared lockable segment `s`. One object per
    /// segment *name*: every function naming `s` sees the same object.
    Seg(SegName),
    /// `x = vcast y v` — a retagged pointer. Aliases anything in `v`, so
    /// loads through it are unknown and stores poison the heap.
    VCast(VasName),
}

/// An abstract object: one allocation site (or shared segment).
#[derive(Debug, Clone)]
pub struct Object {
    /// Where it was minted (for segments: the first `segaddr` seen).
    pub site: Site,
    /// What minted it.
    pub origin: Origin,
    /// Abstract VASes its memory belongs to.
    pub vas: VasSet,
}

/// Provenance lattice element for one register: which abstract objects
/// it may point to, plus escape-to-the-unknown and may-be-integer flags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Pts {
    /// Objects the register may point to.
    pub objs: BTreeSet<ObjId>,
    /// May hold a pointer the analysis cannot attribute to any object.
    pub unknown: bool,
    /// May hold a plain integer.
    pub int: bool,
}

impl Pts {
    fn int_only() -> Pts {
        Pts {
            int: true,
            ..Pts::default()
        }
    }

    fn unknown_value() -> Pts {
        Pts {
            unknown: true,
            int: true,
            ..Pts::default()
        }
    }

    /// Bottom: no objects, no flags — an undefined or untracked value.
    pub fn is_bottom(&self) -> bool {
        self.objs.is_empty() && !self.unknown && !self.int
    }
}

impl Lattice for Pts {
    fn bottom() -> Pts {
        Pts::default()
    }

    fn join(&mut self, other: &Pts) -> bool {
        let before = (self.objs.len(), self.unknown, self.int);
        self.objs.extend(other.objs.iter().copied());
        self.unknown |= other.unknown;
        self.int |= other.int;
        before != (self.objs.len(), self.unknown, self.int)
    }
}

/// Verdict for one memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteClass {
    /// Cannot trap on the VAS rules: every execution dereferences live,
    /// attached memory (and any stored pointer satisfies the store rule).
    ProvenSafe,
    /// Every execution that reaches it violates the Section 3.3 rules.
    ProvenDangling,
    /// Neither provable — keep the runtime check.
    Unknown,
}

/// Kind of memory operation a verdict describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOpKind {
    /// `x = *p`.
    Load,
    /// `*p = v`.
    Store,
}

/// Classification of one load/store site.
#[derive(Debug, Clone)]
pub struct SiteVerdict {
    /// Where.
    pub site: Site,
    /// Load or store.
    pub kind: MemOpKind,
    /// Verdict on dereferencing the address operand.
    pub deref: SiteClass,
    /// Verdict on the stored value obeying the store rule (stores only).
    pub store: Option<SiteClass>,
    /// Combined verdict: dangling if either aspect is, safe only if all
    /// aspects are.
    pub class: SiteClass,
}

/// A proven-dangling site with its provenance chain.
#[derive(Debug, Clone)]
pub struct DanglingFinding {
    /// The faulting load/store.
    pub site: Site,
    /// Name of the function containing it.
    pub func: String,
    /// `"load"`, `"store"`, or `"store-value"` (the stored pointer, not
    /// the address, is what violates the rule).
    pub kind: &'static str,
    /// Allocation sites of the objects the stale pointer may denote.
    pub alloc_sites: Vec<Site>,
    /// Stores through which the pointer escaped into memory.
    pub escape_sites: Vec<Site>,
    /// `switch` sites that made the dereferencing VAS current.
    pub switch_sites: Vec<Site>,
    /// VASes the pointer is valid in.
    pub pointer_vas: VasSet,
    /// VASes that may be current at the site.
    pub current_vas: VasSet,
    /// Human-readable `alloc → escape → switch → deref` chain.
    pub chain: String,
}

/// The verifier's result
/// ([`Analysis::verified`](crate::analysis::Analysis::verified)): a
/// verdict per memory operation plus findings for every proven-dangling
/// site.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// One verdict per load/store, in program order.
    pub verdicts: Vec<SiteVerdict>,
    /// Diagnostics for the proven-dangling sites.
    pub findings: Vec<DanglingFinding>,
    /// Function visits the provenance solve used.
    pub iterations: u32,
    by_site: HashMap<Site, usize>,
}

impl VerifyReport {
    /// The verdict at a site, if it is a memory operation.
    pub fn verdict_at(&self, site: Site) -> Option<&SiteVerdict> {
        self.by_site.get(&site).map(|i| &self.verdicts[*i])
    }

    /// Memory operations classified.
    pub fn mem_ops(&self) -> usize {
        self.verdicts.len()
    }

    /// Count of sites with the given combined verdict.
    pub fn count(&self, class: SiteClass) -> usize {
        self.verdicts.iter().filter(|v| v.class == class).count()
    }
}

/// The interprocedural provenance analysis state.
#[derive(Debug, Clone, Default)]
pub struct Provenance {
    /// The abstract objects, indexed by [`ObjId`].
    pub objects: Vec<Object>,
    /// Provenance per function, per register number.
    regs: Vec<Vec<Pts>>,
    /// The global abstract heap: what each object's cells may contain.
    heap: HashMap<ObjId, Pts>,
    /// A store went through a `vcast` or unknown pointer: any cell in the
    /// program may have been overwritten with anything.
    pub heap_poisoned: bool,
    /// Sites where a pointer to each object was stored into memory.
    escapes: HashMap<ObjId, BTreeSet<Site>>,
    /// Object minted at each site (segaddr sites share per-name objects).
    site_obj: HashMap<Site, ObjId>,
    /// Function visits the solve used.
    pub iterations: u32,
}

impl Provenance {
    /// Solves provenance over `module`; `vas_in` is the final `VASin` of
    /// the same module, which gives each `malloc` object its VAS set.
    pub(crate) fn run(module: &Module, vas_in: &[Vec<Vec<VasSet>>]) -> Provenance {
        let mut p = Provenance::default();
        p.collect_objects(module, vas_in);
        // The interpreter passes integer arguments to main.
        let sol = dataflow::solve(module, &mut p, (), Pts::int_only());
        p.regs = sol.regs;
        p.iterations = sol.visits;
        p
    }

    /// Provenance of a register (bottom if never assigned).
    pub fn pts_of(&self, func: usize, reg: Reg) -> &Pts {
        &self.regs[func][reg.0 as usize]
    }

    /// Sites at which a pointer to `obj` was stored into memory.
    pub fn escapes_of(&self, obj: ObjId) -> Vec<Site> {
        self.escapes
            .get(&obj)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Abstract heap contents of `obj` (bottom if never stored to).
    pub fn heap_of(&self, obj: ObjId) -> Pts {
        self.heap.get(&obj).cloned().unwrap_or_default()
    }

    fn collect_objects(&mut self, module: &Module, vas_in: &[Vec<Vec<VasSet>>]) {
        let mut seg_obj: HashMap<SegName, ObjId> = HashMap::new();
        for (site, inst) in module.sites() {
            let (origin, vas) = match inst {
                Inst::Alloca { .. } => (Origin::Alloca, common_set()),
                Inst::Global { .. } => (Origin::Global, common_set()),
                Inst::Malloc { .. } => (
                    Origin::Malloc,
                    vas_in[site.func as usize][site.block as usize][site.idx as usize].clone(),
                ),
                Inst::VCast { vas, .. } => (
                    Origin::VCast(*vas),
                    [AbstractVas::Vas(*vas)].into_iter().collect(),
                ),
                Inst::SegAddr { seg, .. } => {
                    let id = *seg_obj.entry(*seg).or_insert_with(|| {
                        self.objects.push(Object {
                            site,
                            origin: Origin::Seg(*seg),
                            vas: common_set(),
                        });
                        (self.objects.len() - 1) as ObjId
                    });
                    self.site_obj.insert(site, id);
                    continue;
                }
                _ => continue,
            };
            let id = self.objects.len() as ObjId;
            self.objects.push(Object { site, origin, vas });
            self.site_obj.insert(site, id);
        }
    }

    /// Whether `obj` is a `vcast` pointer, which may alias any cell in
    /// its region.
    pub fn is_vcast(&self, obj: ObjId) -> bool {
        matches!(self.objects[obj as usize].origin, Origin::VCast(_))
    }

    /// The union of the VAS sets of the objects in `pts`.
    fn regions_of(&self, pts: &Pts) -> VasSet {
        let mut set = VasSet::new();
        for obj in &pts.objs {
            set.extend(self.objects[*obj as usize].vas.iter().copied());
        }
        set
    }

    /// Classifies dereferencing a pointer with provenance `pts` while the
    /// current VAS is (any element of) `vas_in`.
    pub fn deref_class(&self, pts: &Pts, vas_in: &VasSet) -> SiteClass {
        if pts.unknown || pts.objs.is_empty() {
            return SiteClass::Unknown;
        }
        let regions = self.regions_of(pts);
        if regions.is_empty() || regions.contains(&AbstractVas::Unknown) || vas_in.is_empty() {
            return SiteClass::Unknown;
        }
        let safe = !pts.int
            && regions.iter().all(|r| match r {
                AbstractVas::Common => true,
                AbstractVas::Vas(_) => vas_in.len() == 1 && vas_in.contains(r),
                AbstractVas::Unknown => false,
            });
        if safe {
            return SiteClass::ProvenSafe;
        }
        let dangling = !pts.int
            && vas_in.iter().all(|v| matches!(v, AbstractVas::Vas(_)))
            && regions
                .iter()
                .all(|r| matches!(r, AbstractVas::Vas(_)) && !vas_in.contains(r));
        if dangling {
            return SiteClass::ProvenDangling;
        }
        SiteClass::Unknown
    }

    /// Classifies storing a value with provenance `val` through an
    /// address with provenance `addr` (the Section 3.3 store rule).
    pub fn store_class(&self, addr: &Pts, val: &Pts) -> SiteClass {
        if val.objs.is_empty() && !val.unknown {
            // Integers (or undefined values, which trap before the store
            // rule matters) are always storable.
            return SiteClass::ProvenSafe;
        }
        if addr.unknown || addr.objs.is_empty() {
            return SiteClass::Unknown;
        }
        let targets = self.regions_of(addr);
        let values = self.regions_of(val);
        if targets.is_empty() || targets.contains(&AbstractVas::Unknown) {
            return SiteClass::Unknown;
        }
        if !val.unknown && !values.contains(&AbstractVas::Unknown) {
            let safe = targets.iter().all(|t| match t {
                AbstractVas::Common => true,
                AbstractVas::Vas(_) => !values.is_empty() && values.iter().all(|r| r == t),
                AbstractVas::Unknown => false,
            });
            if safe {
                return SiteClass::ProvenSafe;
            }
            // Always-faulting: the value is definitely a pointer and no
            // possible (target, value) pair satisfies the store rule.
            let dangling = !val.int
                && !values.is_empty()
                && targets
                    .iter()
                    .all(|t| matches!(t, AbstractVas::Vas(_)) && values.iter().all(|r| r != t));
            if dangling {
                return SiteClass::ProvenDangling;
            }
        }
        SiteClass::Unknown
    }

    /// Builds the [`VerifyReport`] for `module`, given its final `VASin`.
    pub(crate) fn report(&self, module: &Module, vas_in: &[Vec<Vec<VasSet>>]) -> VerifyReport {
        // Switch sites per VAS, for chain diagnostics.
        let mut switch_sites: HashMap<VasName, Vec<Site>> = HashMap::new();
        for (site, inst) in module.sites() {
            if let Inst::Switch(v) = inst {
                switch_sites.entry(*v).or_default().push(site);
            }
        }
        let mut report = VerifyReport {
            verdicts: Vec::new(),
            findings: Vec::new(),
            iterations: self.iterations,
            by_site: HashMap::new(),
        };
        for (site, inst) in module.sites() {
            let fi = site.func as usize;
            let vas_in = &vas_in[fi][site.block as usize][site.idx as usize];
            let (kind, addr, val) = match inst {
                Inst::Load { addr, .. } => (MemOpKind::Load, addr, None),
                Inst::Store { addr, val } => (MemOpKind::Store, addr, Some(val)),
                _ => continue,
            };
            let addr_pts = self.pts_of(fi, *addr);
            let deref = self.deref_class(addr_pts, vas_in);
            let store = val.map(|v| self.store_class(addr_pts, self.pts_of(fi, *v)));
            let class = combine(deref, store);
            if class == SiteClass::ProvenDangling {
                let (chain_kind, culprit) = if deref == SiteClass::ProvenDangling {
                    (
                        match kind {
                            MemOpKind::Load => "load",
                            MemOpKind::Store => "store",
                        },
                        addr_pts,
                    )
                } else {
                    ("store-value", self.pts_of(fi, *val.unwrap()))
                };
                let func = &module.functions[fi].name;
                report.findings.push(self.finding(
                    site,
                    func,
                    chain_kind,
                    culprit,
                    vas_in,
                    &switch_sites,
                ));
            }
            report.by_site.insert(site, report.verdicts.len());
            report.verdicts.push(SiteVerdict {
                site,
                kind,
                deref,
                store,
                class,
            });
        }
        report
    }

    fn finding(
        &self,
        site: Site,
        func: &str,
        kind: &'static str,
        culprit: &Pts,
        vas_in: &VasSet,
        switch_sites: &HashMap<VasName, Vec<Site>>,
    ) -> DanglingFinding {
        let mut alloc_sites: BTreeSet<Site> = BTreeSet::new();
        let mut escape_sites: BTreeSet<Site> = BTreeSet::new();
        for obj in &culprit.objs {
            alloc_sites.insert(self.objects[*obj as usize].site);
            if let Some(sites) = self.escapes.get(obj) {
                escape_sites.extend(sites.iter().copied().filter(|s| *s != site));
            }
        }
        let mut switches: BTreeSet<Site> = BTreeSet::new();
        for v in vas_in {
            if let AbstractVas::Vas(name) = v {
                if let Some(sites) = switch_sites.get(name) {
                    switches.extend(sites.iter().copied());
                }
            }
        }
        let pointer_vas = self.regions_of(culprit);
        let mut chain = String::new();
        for s in &alloc_sites {
            push_link(&mut chain, "alloc", *s);
        }
        for s in &escape_sites {
            push_link(&mut chain, "escape", *s);
        }
        for s in &switches {
            push_link(&mut chain, "switch", *s);
        }
        push_link(&mut chain, kind, site);
        chain.push_str(&format!(
            ": pointer valid in {}, current VAS {}",
            fmt_vasset(&pointer_vas),
            fmt_vasset(vas_in)
        ));
        DanglingFinding {
            site,
            func: func.to_string(),
            kind,
            alloc_sites: alloc_sites.into_iter().collect(),
            escape_sites: escape_sites.into_iter().collect(),
            switch_sites: switches.into_iter().collect(),
            pointer_vas,
            current_vas: vas_in.clone(),
            chain,
        }
    }
}

/// The provenance transfer functions: objects are minted at allocation
/// sites and provenance moves through memory via the abstract heap.
impl Problem for Provenance {
    type State = ();
    type Value = Pts;

    fn transfer(&mut self, site: Site, inst: &Inst, _: &mut (), regs: &[Pts]) -> Effect<Pts> {
        let pts = |r: &Reg| &regs[r.0 as usize];
        match inst {
            Inst::Alloca { .. }
            | Inst::Global { .. }
            | Inst::Malloc { .. }
            | Inst::VCast { .. }
            | Inst::SegAddr { .. } => Effect::Def(Pts {
                objs: [self.site_obj[&site]].into_iter().collect(),
                ..Pts::default()
            }),
            Inst::Const { .. } => Effect::Def(Pts::int_only()),
            Inst::Load { addr, .. } => {
                let a = pts(addr);
                let mut result = Pts::default();
                if a.unknown || self.heap_poisoned {
                    result.join(&Pts::unknown_value());
                }
                for obj in &a.objs {
                    if self.is_vcast(*obj) {
                        // A vcast pointer can alias any cell in its
                        // region — the load may see anything.
                        result.join(&Pts::unknown_value());
                    } else {
                        result.join(&self.heap_of(*obj));
                    }
                }
                Effect::Def(result)
            }
            Inst::Store { addr, val } => {
                let (a, v) = (pts(addr), pts(val));
                let mut grew = false;
                if !self.heap_poisoned && (a.unknown || a.objs.iter().any(|o| self.is_vcast(*o))) {
                    // Wild store: may overwrite any tracked cell.
                    self.heap_poisoned = true;
                    grew = true;
                }
                for obj in &a.objs {
                    if !self.is_vcast(*obj) {
                        grew |= self.heap.entry(*obj).or_default().join(v);
                    }
                }
                if !a.is_bottom() {
                    for vo in &v.objs {
                        self.escapes.entry(*vo).or_default().insert(site);
                    }
                }
                if grew {
                    Effect::Global
                } else {
                    Effect::None
                }
            }
            _ => Effect::None,
        }
    }

    fn call_return(&self, _: &mut (), _: &()) {}
}

fn combine(deref: SiteClass, store: Option<SiteClass>) -> SiteClass {
    match (deref, store) {
        (SiteClass::ProvenDangling, _) | (_, Some(SiteClass::ProvenDangling)) => {
            SiteClass::ProvenDangling
        }
        (SiteClass::ProvenSafe, None) | (SiteClass::ProvenSafe, Some(SiteClass::ProvenSafe)) => {
            SiteClass::ProvenSafe
        }
        _ => SiteClass::Unknown,
    }
}

fn push_link(chain: &mut String, label: &str, site: Site) {
    if !chain.is_empty() {
        chain.push_str(" -> ");
    }
    chain.push_str(label);
    chain.push_str(&site.to_string());
}

fn common_set() -> VasSet {
    [AbstractVas::Common].into_iter().collect()
}

/// Renders a [`VasSet`] as `{v0, common}`.
pub fn fmt_vasset(set: &VasSet) -> String {
    let mut out = String::from("{");
    for (i, v) in set.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match v {
            AbstractVas::Vas(n) => out.push_str(&format!("v{}", n.0)),
            AbstractVas::Common => out.push_str("common"),
            AbstractVas::Unknown => out.push_str("unknown"),
        }
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analysis;
    use crate::ir::{BlockId, FuncId, Function};

    fn entry() -> VasSet {
        [AbstractVas::Vas(VasName(0))].into_iter().collect()
    }

    /// p = malloc; slot = alloca; *slot = p; q = *slot; x = *q — the
    /// boxed reload the intraprocedural analysis loses: provenance
    /// recovers that q is exactly p.
    #[test]
    fn boxed_reload_is_proven_safe() {
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
        f.push(BlockId(0), Inst::Ret(None));
        m.add_function(f);
        let report = Analysis::run(&m, entry()).verified;
        let deref = report.verdict_at(Site::new(0, 0, 4)).unwrap();
        assert_eq!(deref.class, SiteClass::ProvenSafe);
        assert_eq!(report.count(SiteClass::ProvenDangling), 0);
    }

    /// The classic silent bug: escape through a stack slot, switch, then
    /// reload and dereference in the wrong VAS.
    #[test]
    fn escape_then_switch_is_proven_dangling() {
        let mut m = Module::new();
        let mut f = Function::new("main", 0);
        let p = f.fresh_reg();
        let slot = f.fresh_reg();
        let q = f.fresh_reg();
        let x = f.fresh_reg();
        f.push(BlockId(0), Inst::Malloc { dst: p, size: 8 }); // [0] alloc
        f.push(BlockId(0), Inst::Alloca { dst: slot, size: 8 }); // [1]
        f.push(BlockId(0), Inst::Store { addr: slot, val: p }); // [2] escape
        f.push(BlockId(0), Inst::Switch(VasName(1))); // [3] switch
        f.push(BlockId(0), Inst::Load { dst: q, addr: slot }); // [4]
        f.push(BlockId(0), Inst::Load { dst: x, addr: q }); // [5] deref
        f.push(BlockId(0), Inst::Ret(None));
        m.add_function(f);
        let report = Analysis::run(&m, entry()).verified;
        assert_eq!(report.findings.len(), 1);
        let finding = &report.findings[0];
        assert_eq!(finding.site, Site::new(0, 0, 5));
        assert_eq!(finding.alloc_sites, vec![Site::new(0, 0, 0)]);
        assert_eq!(finding.escape_sites, vec![Site::new(0, 0, 2)]);
        assert_eq!(finding.switch_sites, vec![Site::new(0, 0, 3)]);
        assert!(finding.chain.contains("alloc@0:bb0[0]"));
        assert!(finding.chain.contains("escape@0:bb0[2]"));
        assert!(finding.chain.contains("switch@0:bb0[3]"));
        assert!(finding.chain.contains("load@0:bb0[5]"));
    }

    /// Escape through a shared segment crosses function boundaries: the
    /// producer stores into segment 0, the consumer loads from it.
    #[test]
    fn segment_escape_crosses_functions() {
        let mut m = Module::new();
        let mut main = Function::new("main", 0);
        let p = main.fresh_reg();
        let seg = main.fresh_reg();
        main.push(BlockId(0), Inst::Malloc { dst: p, size: 8 });
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
        consumer.push(BlockId(0), Inst::Switch(VasName(1)));
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
        let report = Analysis::run(&m, entry()).verified;
        let finding = report
            .findings
            .iter()
            .find(|f| f.site == Site::new(1, 0, 3))
            .expect("cross-function dangling deref detected");
        assert_eq!(finding.alloc_sites, vec![Site::new(0, 0, 0)]);
        assert_eq!(finding.escape_sites, vec![Site::new(0, 0, 2)]);
        assert_eq!(finding.func, "consumer");
    }

    /// A store through a vcast pointer poisons the heap: every later
    /// load degrades to unknown instead of trusting stale contents.
    #[test]
    fn vcast_store_poisons_heap() {
        let mut m = Module::new();
        let mut f = Function::new("main", 0);
        let p = f.fresh_reg();
        let slot = f.fresh_reg();
        let wild = f.fresh_reg();
        let c = f.fresh_reg();
        let q = f.fresh_reg();
        f.push(BlockId(0), Inst::Malloc { dst: p, size: 8 });
        f.push(BlockId(0), Inst::Alloca { dst: slot, size: 8 });
        f.push(BlockId(0), Inst::Store { addr: slot, val: p });
        f.push(BlockId(0), Inst::Const { dst: c, value: 7 });
        f.push(
            BlockId(0),
            Inst::VCast {
                dst: wild,
                src: c,
                vas: VasName(0),
            },
        );
        f.push(BlockId(0), Inst::Store { addr: wild, val: c });
        f.push(BlockId(0), Inst::Load { dst: q, addr: slot });
        f.push(BlockId(0), Inst::Ret(None));
        m.add_function(f);
        let prov = Analysis::run(&m, entry()).provenance;
        assert!(prov.heap_poisoned);
        assert!(prov.pts_of(0, q).unknown, "poisoned heap degrades loads");
    }

    /// Recursion converges: a self-calling identity function.
    #[test]
    fn recursive_call_converges() {
        let mut m = Module::new();
        let mut main = Function::new("main", 0);
        let p = main.fresh_reg();
        let r = main.fresh_reg();
        main.push(BlockId(0), Inst::Malloc { dst: p, size: 8 });
        main.push(
            BlockId(0),
            Inst::Call {
                dst: Some(r),
                func: FuncId(1),
                args: vec![p],
            },
        );
        main.push(BlockId(0), Inst::Ret(None));
        let mut rec = Function::new("rec", 1);
        let arg = rec.params[0];
        let out = rec.fresh_reg();
        rec.push(
            BlockId(0),
            Inst::Call {
                dst: Some(out),
                func: FuncId(1),
                args: vec![arg],
            },
        );
        rec.push(BlockId(0), Inst::Ret(Some(arg)));
        m.add_function(main);
        m.add_function(rec);
        let prov = Analysis::run(&m, entry()).provenance;
        assert_eq!(prov.pts_of(0, r), prov.pts_of(0, p));
    }
}
