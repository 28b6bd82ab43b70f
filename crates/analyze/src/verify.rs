//! Bridge from the `sjmp-safety` provenance verifier to [`Finding`]s,
//! so IR-level dangling-pointer results ride the same report schema
//! (and `sjmp_lint` CI gate) as the trace and kernel analyzers.

use sjmp_safety::ir::{Module, VasSet};
use sjmp_safety::provenance::SiteClass;
use sjmp_safety::Analysis;

use crate::report::Finding;

/// Summary of running the dangling-deref verifier over one IR module.
#[derive(Debug, Clone)]
pub struct IrVerification {
    /// Memory operations classified.
    pub mem_ops: usize,
    /// Sites proven safe.
    pub proven_safe: usize,
    /// Sites proven dangling.
    pub proven_dangling: usize,
    /// Sites the verifier could not decide.
    pub unknown: usize,
    /// One finding per proven-dangling site, chain in the message.
    pub findings: Vec<Finding>,
}

/// Runs the provenance verifier over `module` entered in `entry_vas`
/// and converts every proven-dangling site into a
/// `cross-vas-dangling` finding whose message carries the full
/// alloc → escape → switch → deref chain.
pub fn verify_module(module: &Module, entry_vas: VasSet) -> IrVerification {
    let report = Analysis::run(module, entry_vas).verified;
    let findings = report
        .findings
        .iter()
        .map(|f| {
            Finding::new(
                "cross-vas-dangling",
                format!("dangling {} in `{}`: {}", f.kind, f.func, f.chain),
            )
        })
        .collect();
    IrVerification {
        mem_ops: report.mem_ops(),
        proven_safe: report.count(SiteClass::ProvenSafe),
        proven_dangling: report.count(SiteClass::ProvenDangling),
        unknown: report.count(SiteClass::Unknown),
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjmp_safety::examples;

    #[test]
    fn healthy_examples_produce_no_findings() {
        for (name, m) in examples::healthy() {
            let v = verify_module(&m, examples::entry_set());
            assert!(v.findings.is_empty(), "{name}: {:?}", v.findings);
            assert_eq!(v.proven_dangling, 0);
        }
    }

    #[test]
    fn dangling_example_yields_chain_finding() {
        let m = examples::dangling_example();
        let v = verify_module(&m, examples::entry_set());
        assert_eq!(v.proven_dangling, 2);
        assert_eq!(v.findings.len(), 2);
        let f = &v.findings[0];
        assert_eq!(f.rule, "cross-vas-dangling");
        assert!(f.message.contains("alloc@0:bb0[0]"));
        assert!(f.message.contains("escape@0:bb0[2]"));
        assert!(f.message.contains("switch@0:bb0[3]"));
    }
}
