//! # rel-sema
//!
//! Semantic analysis for Rel: turns a parsed [`rel_syntax::Program`] into an
//! executable [`ir::Module`] through four passes:
//!
//! 1. **Specialization** ([`specialize`]) — eliminates second-order relation
//!    variables by HiLog-style instantiation with lambda lifting (§4.2–4.4
//!    of the paper; DESIGN.md §2.1);
//! 2. **Lowering** ([`lower`]) — desugars to a first-order IR in negation
//!    normal form with numbered variables;
//! 3. **Safety analysis** ([`safety`]) — mode-based range-restriction
//!    checking over infinite built-ins (§3.1–3.2; ref. 28), assigning each
//!    predicate a bottom-up or demand-driven evaluation mode. Its
//!    per-conjunct check ([`safety::formula_binds`],
//!    [`safety::expr_binds`]) is also what the engine's planner calls to
//!    pick a runnable conjunct, so the two cannot disagree;
//! 4. **Stratification** ([`strata`]) — SCC condensation of the dependency
//!    graph, marking each stratum monotone (semi-naive) or non-monotone
//!    (partial fixpoint, for the non-stratified programs Rel permits).

pub mod builtins;
pub mod ir;
pub mod lower;
pub mod safety;
pub mod specialize;
pub mod strata;

use ir::{Module, PredInfo};
use rel_core::RelResult;
use rel_syntax::Program;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of full semantic-analysis runs performed by this process.
/// Every compilation (parse-and-analyze or analyze-only) bumps this
/// exactly once, so tests can assert that a prepared query really is
/// compiled a single time no matter how often it executes.
static COMPILATIONS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of semantic-analysis runs (see [`analyze`]).
pub fn compilations() -> u64 {
    COMPILATIONS.load(Ordering::Relaxed)
}

/// Run the full analysis pipeline on a parsed program.
pub fn analyze(program: &Program) -> RelResult<Module> {
    COMPILATIONS.fetch_add(1, Ordering::Relaxed);
    let sp = specialize::specialize(program)?;
    let (rules, constraints) = lower::lower(&sp)?;
    let modes = safety::infer_modes(&rules)?;
    let strata = strata::stratify(&rules);
    let stratum_deps = strata::stratum_deps(&rules, &strata);
    let stratum_reads = strata::stratum_read_sets(&rules, &strata);
    let mut pred_info = std::collections::BTreeMap::new();
    for (i, s) in strata.iter().enumerate() {
        for p in &s.preds {
            pred_info.insert(
                p.clone(),
                PredInfo { mode: modes[p].clone(), stratum: i },
            );
        }
    }
    // Collect the `?name` query parameters the program references: they
    // lower to reserved `?`-prefixed base relations, which only the
    // prepared-query execute path may populate.
    let mut params = std::collections::BTreeSet::new();
    let mut see = |n: &rel_core::Name| {
        if let Some(p) = ir::param_name(n) {
            params.insert(rel_core::name(p));
        }
    };
    for rs in rules.values() {
        for r in rs {
            ir::visit_rule_preds(r, &mut see);
        }
    }
    for c in &constraints {
        for p in &c.params {
            if let ir::AbsParam::In(_, dom) = p {
                ir::visit_rexpr_preds(dom, &mut see);
            }
        }
        ir::visit_rexpr_preds(&c.body, &mut see);
    }
    let params: Vec<rel_core::Name> = params.into_iter().collect();
    Ok(Module { rules, constraints, strata, stratum_deps, stratum_reads, pred_info, params })
}

/// Parse and analyze in one step.
pub fn compile(src: &str) -> RelResult<Module> {
    analyze(&rel_syntax::parse_program(src)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_small_program() {
        let m = compile(
            "def OrderWithPayment(y) : exists((x) | PaymentOrder(x,y))\n\
             def output(y) : OrderWithPayment(y)",
        )
        .unwrap();
        assert_eq!(m.rules.len(), 2);
        assert_eq!(m.strata.len(), 2);
        assert!(m.pred_info.contains_key(&rel_core::name("output")));
    }

    #[test]
    fn compile_reports_unsafe() {
        let err = compile("def Bad() : exists((x) | not R(x))").unwrap_err();
        assert!(matches!(err, rel_core::RelError::Unsafe(_)), "{err}");
    }

    #[test]
    fn params_are_collected_and_lower_to_reserved_relations() {
        let m = compile(
            "def output(x) : exists((y) | ProductPrice(x, y) and y > ?min)\n\
             def Also(x) : R(x, ?min) and S(x, ?other)",
        )
        .unwrap();
        assert_eq!(
            m.params,
            vec![rel_core::name("min"), rel_core::name("other")]
        );
        // The reserved relation is a plain materializable EDB reference.
        assert!(!m.rules.contains_key("?min"));
        let mut preds = std::collections::BTreeSet::new();
        for rs in m.rules.values() {
            for r in rs {
                ir::visit_rule_preds(r, &mut |n| {
                    preds.insert(n.clone());
                });
            }
        }
        assert!(preds.contains(&ir::param_relation("min")));
        assert!(preds.contains(&ir::param_relation("other")));
    }

    #[test]
    fn param_free_module_has_no_params() {
        let m = compile("def output(x) : R(x)").unwrap();
        assert!(m.params.is_empty());
    }

    #[test]
    fn compilations_counter_moves() {
        let before = compilations();
        compile("def output(x) : R(x)").unwrap();
        assert!(compilations() > before);
    }

    #[test]
    fn compile_full_paper_pipeline() {
        // The APSP program end to end.
        let m = compile(
            "def min[{A}] : reduce[minimum,A]\n\
             def APSP({V},{E},x,y,0) : V(x) and V(y) and x = y\n\
             def APSP({V},{E},x,y,i) :\n\
               i = min[(j) : exists((z) | E(x,z) and APSP[V,E](z,y,j-1))]\n\
             def output(x,y,d) : APSP(N, NN, x, y, d)",
        )
        .unwrap();
        // Strata: APSP instance must be recursive + non-monotone.
        let apsp_stratum = m
            .strata
            .iter()
            .find(|s| s.preds.iter().any(|p| p.starts_with("APSP@")))
            .expect("APSP stratum");
        assert!(apsp_stratum.recursive);
        assert!(!apsp_stratum.monotone);
    }
}
