//! Predicate dependency analysis and stratification.
//!
//! The dependency graph has an edge `p → q` when a rule for `p` mentions
//! `q` in its body. Edges are **negative** when the mention sits under
//! negation, inside a `reduce` input (aggregation), or on either side of a
//! left-override (which hides an implicit negation). The graph is condensed
//! into SCCs (Tarjan); each SCC becomes a [`Stratum`], ordered dependencies
//! first.
//!
//! Unlike textbook Datalog, a negative edge *inside* an SCC is not an
//! error: per §3.3/Addendum A, Rel admits non-stratified programs. Such
//! strata are marked non-monotone and the engine evaluates them with
//! partial-fixpoint iteration instead of semi-naive (DESIGN.md §2.3).
//!
//! Each rule's references are collected once, by one polarity walk over
//! the IR's child visitor, into a `References` map. [`crate::analyze`]
//! reads the strata and each stratum's read set off that one map, and
//! derives the strata's dependency edges from the read sets (the strata
//! of the names a stratum reads, itself excluded), so no rule is walked
//! twice per analysis.

use crate::builtins;
use crate::ir::{AbsParam, Atom, Formula, Node, RExpr, Rule, Stratum, StratumReads};
use rel_core::Name;
use std::collections::{BTreeMap, BTreeSet};

/// Edge polarity.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Polarity {
    /// Monotone dependency.
    Positive,
    /// Non-monotone dependency (negation / aggregation / override).
    Negative,
}

/// Every rule's references, collected once per analysis: for each head
/// predicate, the `(name, polarity)` pairs its rules reference (head domains
/// and bodies), builtins excluded. [`condense`] and [`stratum_read_sets`]
/// read this map, and [`stratum_deps`] is derived from the read sets, so no
/// analysis walks a rule twice.
pub(crate) type References = BTreeMap<Name, BTreeSet<(Name, Polarity)>>;

/// Walk every rule once and collect its references (see [`References`]).
pub(crate) fn references(rules: &BTreeMap<Name, Vec<Rule>>) -> References {
    rules
        .iter()
        .map(|(pred, rs)| {
            let mut out = BTreeSet::new();
            for r in rs {
                for p in &r.params {
                    if let AbsParam::In(_, dom) = p {
                        deps(Node::RExpr(dom), Polarity::Positive, &mut out);
                    }
                }
                deps(Node::RExpr(&r.body), Polarity::Positive, &mut out);
            }
            (pred.clone(), out)
        })
        .collect()
}

/// The polarity walk: a reference is negative under negation, in a
/// `reduce` input (aggregation is non-monotone in its input), or on either
/// side of a left-override (`a <++ b` contains `… and not a(…)`, so both
/// sides are treated as non-monotone to be safe). Negative stays negative.
fn deps(n: Node<'_>, pol: Polarity, out: &mut BTreeSet<(Name, Polarity)>) {
    match n {
        Node::Formula(Formula::Atom(Atom { pred, .. }))
        | Node::RExpr(RExpr::Pred(pred) | RExpr::PApp { pred, .. }) => {
            if !builtins::is_builtin(pred) {
                out.insert((pred.clone(), pol));
            }
        }
        Node::Formula(Formula::Not(g)) => deps(Node::Formula(g), Polarity::Negative, out),
        Node::RExpr(RExpr::Reduce { op, input, .. }) => {
            deps(Node::RExpr(op), pol, out);
            deps(Node::RExpr(input), Polarity::Negative, out);
        }
        Node::RExpr(RExpr::LeftOverride(..)) => {
            n.for_each_child(&mut |c| deps(c, Polarity::Negative, out))
        }
        _ => n.for_each_child(&mut |c| deps(c, pol, out)),
    }
}

/// Compute strata for a rule set: Tarjan SCC condensation in dependency
/// order (dependencies first).
pub fn stratify(rules: &BTreeMap<Name, Vec<Rule>>) -> Vec<Stratum> {
    condense(&references(rules))
}

/// [`stratify`] over already-collected [`references`].
pub(crate) fn condense(refs: &References) -> Vec<Stratum> {
    // Adjacency: pred → (dep, polarity), restricted to IDB preds.
    let idb: BTreeSet<&Name> = refs.keys().collect();
    let mut adj: BTreeMap<&Name, Vec<(&Name, Polarity)>> = BTreeMap::new();
    for (pred, deps) in refs {
        let entry = adj.entry(pred).or_default();
        for (d, pol) in deps.iter() {
            if let Some(key) = idb.get(d) {
                entry.push((key, *pol));
            }
        }
    }

    // Iterative Tarjan.
    struct T<'a> {
        index: BTreeMap<&'a Name, usize>,
        low: BTreeMap<&'a Name, usize>,
        on_stack: BTreeSet<&'a Name>,
        stack: Vec<&'a Name>,
        next: usize,
        sccs: Vec<Vec<&'a Name>>,
    }
    let mut t = T {
        index: BTreeMap::new(),
        low: BTreeMap::new(),
        on_stack: BTreeSet::new(),
        stack: Vec::new(),
        next: 0,
        sccs: Vec::new(),
    };

    // Explicit DFS stack frames: (node, child cursor).
    for start in refs.keys() {
        if t.index.contains_key(start) {
            continue;
        }
        let mut frames: Vec<(&Name, usize)> = vec![(start, 0)];
        t.index.insert(start, t.next);
        t.low.insert(start, t.next);
        t.next += 1;
        t.stack.push(start);
        t.on_stack.insert(start);
        while let Some((node, cursor)) = frames.last().copied() {
            let children = adj.get(&node).map(Vec::as_slice).unwrap_or(&[]);
            if cursor < children.len() {
                frames.last_mut().expect("nonempty").1 += 1;
                let (child, _) = children[cursor];
                if !t.index.contains_key(child) {
                    t.index.insert(child, t.next);
                    t.low.insert(child, t.next);
                    t.next += 1;
                    t.stack.push(child);
                    t.on_stack.insert(child);
                    frames.push((child, 0));
                } else if t.on_stack.contains(child) {
                    let cl = t.index[child];
                    let nl = t.low[&node].min(cl);
                    t.low.insert(node, nl);
                }
            } else {
                frames.pop();
                if let Some((parent, _)) = frames.last() {
                    let nl = t.low[parent].min(t.low[&node]);
                    t.low.insert(parent, nl);
                }
                if t.low[&node] == t.index[&node] {
                    let mut scc = Vec::new();
                    while let Some(top) = t.stack.pop() {
                        t.on_stack.remove(top);
                        scc.push(top);
                        if top == node {
                            break;
                        }
                    }
                    scc.sort();
                    t.sccs.push(scc);
                }
            }
        }
    }

    // Tarjan emits SCCs with all (transitive) dependencies already emitted
    // (successors complete first), which is exactly evaluation order.
    t.sccs
        .into_iter()
        .map(|members| {
            let set: BTreeSet<&&Name> = members.iter().collect();
            let mut recursive = members.len() > 1;
            let mut monotone = true;
            for m in &members {
                for (d, pol) in adj.get(*m).map(Vec::as_slice).unwrap_or(&[]) {
                    if set.contains(d) {
                        if *d == *m || members.len() > 1 {
                            recursive = true;
                        }
                        if *pol == Polarity::Negative {
                            monotone = false;
                        }
                    }
                }
            }
            Stratum {
                preds: members.into_iter().cloned().collect(),
                recursive,
                monotone: !recursive || monotone,
            }
        })
        .collect()
}

/// Compute each stratum's read set: every non-builtin relation name its
/// rules reference (including the stratum's own SCC members), split by
/// the polarity of the reference, so "negative" covers negation,
/// aggregation inputs, and left-override.
///
/// Indexing matches `strata`. The result feeds
/// [`crate::ir::Module::dependent_cone`] (which relations can invalidate
/// which strata), [`stratum_deps`], and the engine's incremental
/// maintenance (which changed inputs admit delta-seeded restart vs force
/// recomputation).
pub(crate) fn stratum_read_sets(refs: &References, strata: &[Stratum]) -> Vec<StratumReads> {
    strata
        .iter()
        .map(|s| {
            let mut positive = BTreeSet::new();
            let mut negative = BTreeSet::new();
            for (d, pol) in s.preds.iter().filter_map(|p| refs.get(p)).flatten() {
                match pol {
                    Polarity::Positive => positive.insert(d.clone()),
                    Polarity::Negative => negative.insert(d.clone()),
                };
            }
            StratumReads {
                positive: positive.into_iter().collect(),
                negative: negative.into_iter().collect(),
            }
        })
        .collect()
}

/// Compute the condensation's dependency edges from the read sets:
/// `deps[i]` lists the strata of the names stratum `i` reads (sorted,
/// deduplicated, self-edges omitted). Because [`stratify`] emits strata
/// dependencies-first, every entry of `deps[i]` is `< i` — the result is a
/// DAG in topological order, which is exactly what a parallel scheduler
/// needs: stratum `i` may start as soon as all of `deps[i]` have finished,
/// and strata with disjoint ancestries may run concurrently.
pub(crate) fn stratum_deps(reads: &[StratumReads], strata: &[Stratum]) -> Vec<Vec<usize>> {
    let stratum_of: BTreeMap<&Name, usize> = strata
        .iter()
        .enumerate()
        .flat_map(|(i, s)| s.preds.iter().map(move |p| (p, i)))
        .collect();
    reads
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let deps: BTreeSet<usize> =
                r.all().filter_map(|d| stratum_of.get(d).copied()).filter(|&j| j != i).collect();
            debug_assert!(deps.iter().all(|&j| j < i), "strata not in dependency order");
            deps.into_iter().collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::specialize::specialize;
    use rel_syntax::parse_program;

    fn strata_of(src: &str) -> Vec<Stratum> {
        let sp = specialize(&parse_program(src).unwrap()).unwrap();
        let (rules, _) = lower(&sp).unwrap();
        stratify(&rules)
    }

    fn strata_and_deps_of(src: &str) -> (Vec<Stratum>, Vec<Vec<usize>>) {
        let sp = specialize(&parse_program(src).unwrap()).unwrap();
        let (rules, _) = lower(&sp).unwrap();
        let refs = references(&rules);
        let strata = condense(&refs);
        let deps = stratum_deps(&stratum_read_sets(&refs, &strata), &strata);
        (strata, deps)
    }

    #[test]
    fn linear_chain() {
        let s = strata_of(
            "def A(x) : E(x)\n\
             def B(x) : A(x)\n\
             def C(x) : B(x)",
        );
        assert_eq!(s.len(), 3);
        assert_eq!(&*s[0].preds[0], "A");
        assert_eq!(&*s[1].preds[0], "B");
        assert_eq!(&*s[2].preds[0], "C");
        assert!(s.iter().all(|st| !st.recursive && st.monotone));
    }

    #[test]
    fn tc_is_recursive_monotone() {
        let s = strata_of(
            "def TC(x,y) : E(x,y)\n\
             def TC(x,y) : exists((z) | E(x,z) and TC(z,y))",
        );
        assert_eq!(s.len(), 1);
        assert!(s[0].recursive);
        assert!(s[0].monotone);
    }

    #[test]
    fn negation_between_strata_is_fine() {
        let s = strata_of(
            "def A(x) : E(x)\n\
             def B(x) : V(x) and not A(x)",
        );
        assert_eq!(s.len(), 2);
        assert!(s.iter().all(|st| st.monotone));
    }

    #[test]
    fn negation_through_recursion_is_nonmonotone() {
        let s = strata_of(
            "def Win(x) : exists((y) | Move(x,y) and not Win(y))",
        );
        assert_eq!(s.len(), 1);
        assert!(s[0].recursive);
        assert!(!s[0].monotone);
    }

    #[test]
    fn aggregation_through_recursion_is_nonmonotone() {
        let s = strata_of(
            "def D({V},{E},x,y,0) : V(x) and V(y) and x = y\n\
             def D({V},{E},x,y,i) : i = min[(j) : exists((z) | E(x,z) and D[V,E](z,y,j-1))]\n\
             def min[{A}] : reduce[minimum,A]\n\
             def out(x,y,d) : D(N, NN, x, y, d)",
        );
        let apsp = s
            .iter()
            .find(|st| st.preds.iter().any(|p| p.starts_with("D@")))
            .expect("instance stratum");
        assert!(apsp.recursive);
        assert!(!apsp.monotone, "aggregation inside recursion must force PFP");
    }

    #[test]
    fn mutual_recursion_single_scc() {
        let s = strata_of(
            "def Even(x) : Zero(x)\n\
             def Even(x) : exists((y) | Succ(y,x) and Odd(y))\n\
             def Odd(x) : exists((y) | Succ(y,x) and Even(y))",
        );
        let scc = s.iter().find(|st| st.preds.len() == 2).expect("mutual SCC");
        assert!(scc.recursive);
        assert!(scc.monotone);
    }

    #[test]
    fn dependencies_precede_dependents() {
        let s = strata_of(
            "def Out(x) : Mid(x)\n\
             def Mid(x) : Base(x)\n\
             def Base(x) : E(x)",
        );
        let pos = |n: &str| {
            s.iter()
                .position(|st| st.preds.iter().any(|p| &**p == n))
                .unwrap()
        };
        assert!(pos("Base") < pos("Mid"));
        assert!(pos("Mid") < pos("Out"));
    }

    #[test]
    fn dag_edges_point_at_dependencies() {
        let (strata, deps) = strata_and_deps_of(
            "def A(x) : E(x)\n\
             def B(x) : F(x)\n\
             def C(x) : A(x) and B(x)",
        );
        assert_eq!(deps.len(), strata.len());
        let pos = |n: &str| {
            strata
                .iter()
                .position(|st| st.preds.iter().any(|p| &**p == n))
                .unwrap()
        };
        // A and B are independent roots; C depends on exactly both.
        assert!(deps[pos("A")].is_empty());
        assert!(deps[pos("B")].is_empty());
        let mut c_deps = deps[pos("C")].clone();
        c_deps.sort_unstable();
        let mut expected = vec![pos("A"), pos("B")];
        expected.sort_unstable();
        assert_eq!(c_deps, expected);
    }

    #[test]
    fn dag_is_topologically_ordered_without_self_edges() {
        let (strata, deps) = strata_and_deps_of(
            "def TC(x,y) : E(x,y)\n\
             def TC(x,y) : exists((z) | E(x,z) and TC(z,y))\n\
             def Big(x) : exists((y) | TC(x,y) and not Small(x))\n\
             def Small(x) : E(x,x)",
        );
        for (i, ds) in deps.iter().enumerate() {
            for &d in ds {
                assert!(d < i, "edge {i} -> {d} breaks topological order");
            }
        }
        // The recursive TC stratum must not list itself as a dependency.
        let tc = strata
            .iter()
            .position(|st| st.preds.iter().any(|p| &**p == "TC"))
            .unwrap();
        assert!(!deps[tc].contains(&tc));
    }

    #[test]
    fn read_sets_split_by_polarity() {
        let sp = specialize(&parse_program(
            "def TC(x,y) : E(x,y)\n\
             def TC(x,y) : exists((z) | E(x,z) and TC(z,y))\n\
             def Far(x,y) : TC(x,y) and not E(x,y)",
        )
        .unwrap())
        .unwrap();
        let (rules, _) = lower(&sp).unwrap();
        let refs = references(&rules);
        let strata = condense(&refs);
        let reads = stratum_read_sets(&refs, &strata);
        assert_eq!(reads.len(), strata.len());
        let of = |n: &str| {
            let i = strata
                .iter()
                .position(|s| s.preds.iter().any(|p| &**p == n))
                .unwrap();
            &reads[i]
        };
        // TC reads E and itself, all positively.
        let tc = of("TC");
        assert!(tc.reads_positively(&rel_core::name("E")));
        assert!(tc.reads_positively(&rel_core::name("TC")));
        assert!(tc.negative.is_empty());
        // Far reads TC positively and E under negation.
        let far = of("Far");
        assert!(far.reads_positively(&rel_core::name("TC")));
        assert!(far.reads_negatively(&rel_core::name("E")));
        assert!(!far.reads_positively(&rel_core::name("E")));
    }

    #[test]
    fn aggregation_input_reads_negatively() {
        // Specialization lifts the aggregation lambda into its own
        // predicate, so the negative (reduce-input) read of E lives in the
        // lifted/instance stratum — and the consumer still lands in E's
        // dependent cone through the stratum DAG.
        let m = crate::compile(
            "def agg_sum[{A}] : reduce[add, A]\n\
             def Tot(x,s) : exists((q) | E(x,q)) and s = agg_sum[(v) : E(x,v)]",
        )
        .unwrap();
        let e = rel_core::name("E");
        assert!(
            m.stratum_reads.iter().any(|r| r.reads_negatively(&e)),
            "no stratum records the aggregation input as a negative read"
        );
        let tot = m
            .strata
            .iter()
            .position(|s| s.preds.iter().any(|p| &**p == "Tot"))
            .unwrap();
        let cone = m.dependent_cone(&[e].into_iter().collect());
        assert!(cone.contains(&tot), "aggregation consumer escaped the cone");
    }

    #[test]
    fn dependent_cone_closes_transitively() {
        let m = crate::compile(
            "def A(x) : E(x)\n\
             def B(x) : A(x)\n\
             def C(x) : B(x)\n\
             def D(x) : F(x)",
        )
        .unwrap();
        let pos = |n: &str| {
            m.strata
                .iter()
                .position(|s| s.preds.iter().any(|p| &**p == n))
                .unwrap()
        };
        let touched = |names: &[&str]| -> std::collections::BTreeSet<rel_core::Name> {
            names.iter().map(|n| rel_core::name(*n)).collect()
        };
        // Touching E pulls in A, B, C but not the disjoint D.
        let cone = m.dependent_cone(&touched(&["E"]));
        assert!(cone.contains(&pos("A")));
        assert!(cone.contains(&pos("B")));
        assert!(cone.contains(&pos("C")));
        assert!(!cone.contains(&pos("D")));
        // Touching F pulls in only D.
        assert_eq!(m.dependent_cone(&touched(&["F"])), vec![pos("D")]);
        // Touching nothing yields an empty cone.
        assert!(m.dependent_cone(&touched(&[])).is_empty());
        // Touching a base relation named after an IDB predicate puts that
        // predicate's stratum (and its dependents) in the cone even though
        // no rule *reads* the name.
        let cone = m.dependent_cone(&touched(&["C"]));
        assert_eq!(cone, vec![pos("C")]);
    }

    #[test]
    fn dag_independent_components_share_no_ancestry() {
        // Two disjoint TC components: neither stratum depends on the other,
        // so a DAG scheduler may materialize them concurrently.
        let (strata, deps) = strata_and_deps_of(
            "def TC1(x,y) : E1(x,y)\n\
             def TC1(x,y) : exists((z) | E1(x,z) and TC1(z,y))\n\
             def TC2(x,y) : E2(x,y)\n\
             def TC2(x,y) : exists((z) | E2(x,z) and TC2(z,y))",
        );
        assert_eq!(strata.len(), 2);
        assert!(deps.iter().all(Vec::is_empty));
    }
}
