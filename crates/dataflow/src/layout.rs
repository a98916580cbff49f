//! Data-structure layout inference and similarity — §III-D, Formula 2.
//!
//! At the binary level a `struct` survives only as a family of
//! `base + offset` accesses. DTaint reconstructs, per root pointer, the
//! set of observed fields, and compares two structures by the similarity
//! of their layouts:
//!
//! ```text
//! σ(A, B) = Σ (i,j) |A_i ∩ B_j| / |A_i ∪ B_j|
//! ```
//!
//! where `A_i`/`B_j` are field sets grouped by base address and the pairs
//! `(i, j)` align bases. Bases are compared *structurally* across
//! functions by their access path from the root (e.g. the base
//! `deref(root + 0x58)` has path `[0x58]`), which is what makes layouts
//! from different functions comparable at all.

use dtaint_symex::pool::{ExprPool, SymNode};
use dtaint_symex::{ExprId, FuncSummary, VType};
use std::collections::{BTreeMap, BTreeSet};

/// The access path of a base pointer relative to a root: the sequence of
/// field offsets dereferenced on the way. The root itself has the empty
/// path.
pub type AccessPath = Vec<i64>;

/// The reconstructed layout of one data structure (all fields reachable
/// from one root pointer).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Layout {
    /// Field sets grouped by base access path: `path → offset → type`.
    pub groups: BTreeMap<AccessPath, BTreeMap<i64, VType>>,
}

impl Layout {
    /// True when no field was observed.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The paper's two pre-conditions: one base set contains the other,
    /// and fields at the same base+offset have compatible types.
    pub fn compatible(&self, other: &Layout) -> bool {
        let a: BTreeSet<&AccessPath> = self.groups.keys().collect();
        let b: BTreeSet<&AccessPath> = other.groups.keys().collect();
        if !(a.is_subset(&b) || b.is_subset(&a)) {
            return false;
        }
        for (path, fields_a) in &self.groups {
            let Some(fields_b) = other.groups.get(path) else { continue };
            for (off, ta) in fields_a {
                if let Some(tb) = fields_b.get(off) {
                    if !types_compatible(*ta, *tb) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Formula 2: the sum over aligned bases of the Jaccard similarity of
    /// their field sets. Returns 0.0 for incompatible layouts.
    pub fn similarity(&self, other: &Layout) -> f64 {
        if !self.compatible(other) {
            return 0.0;
        }
        let mut sigma = 0.0;
        for (path, fields_a) in &self.groups {
            let Some(fields_b) = other.groups.get(path) else { continue };
            let a: BTreeSet<i64> = fields_a.keys().copied().collect();
            let b: BTreeSet<i64> = fields_b.keys().copied().collect();
            let inter = a.intersection(&b).count() as f64;
            let union = a.union(&b).count() as f64;
            if union > 0.0 {
                sigma += inter / union;
            }
        }
        sigma
    }
}

fn types_compatible(a: VType, b: VType) -> bool {
    a == VType::Unknown || b == VType::Unknown || a == b || (a.is_pointer() && b.is_pointer())
}

/// Extracts, for every root pointer, the structure layout observed in a
/// function summary.
///
/// Field accesses come from every expression the summary mentions —
/// definition pairs, call arguments, constraints — matching the paper's
/// "collects the `base + offset` expressions to construct the layout"
/// (§III-D). Roots are the function's formal arguments and other
/// non-derived pointers (taint-style structures usually arrive through
/// arguments).
pub fn infer_layouts(summary: &FuncSummary, pool: &ExprPool) -> BTreeMap<ExprId, Layout> {
    let mut layouts: BTreeMap<ExprId, Layout> = BTreeMap::new();
    let mut visit = |e: ExprId| {
        collect_fields(e, summary, pool, &mut layouts);
    };
    for dp in &summary.def_pairs {
        visit(dp.d);
        visit(dp.u);
    }
    for cs in &summary.callsites {
        for &a in &cs.args {
            visit(a);
        }
        if let dtaint_symex::CalleeRef::Indirect(e) = &cs.callee {
            visit(*e);
        }
    }
    for c in &summary.constraints {
        visit(c.lhs);
        visit(c.rhs);
    }
    layouts
}

/// Walks one expression, recording every `deref(base + off)` as a field
/// of the root structure `base` belongs to.
fn collect_fields(
    e: ExprId,
    summary: &FuncSummary,
    pool: &ExprPool,
    layouts: &mut BTreeMap<ExprId, Layout>,
) {
    let node = pool.node(e);
    let Some((a, b)) = node.operands() else { return };
    if let SymNode::Deref { addr, .. } = node {
        let (base, off) = pool.base_offset(addr);
        if let Some((root, path)) = root_and_path(base, pool) {
            let ftype = summary.type_of(e);
            layouts
                .entry(root)
                .or_default()
                .groups
                .entry(path)
                .or_default()
                .entry(off)
                .and_modify(|t| *t = t.join(ftype))
                .or_insert(ftype);
        }
    }
    collect_fields(a, summary, pool, layouts);
    if let Some(b) = b {
        collect_fields(b, summary, pool, layouts);
    }
}

/// Resolves a base expression to `(root, access path)`.
///
/// `arg0` → `(arg0, [])`; `deref(arg0 + 0x58)` → `(arg0, [0x58])`;
/// `deref(deref(arg0 + 0x58) + 0x10)` → `(arg0, [0x58, 0x10])`. The root
/// must be a leaf symbol (argument, return symbol, initial register,
/// stack base) — constant bases (globals) root at themselves.
pub fn root_and_path(base: ExprId, pool: &ExprPool) -> Option<(ExprId, AccessPath)> {
    match pool.node(base) {
        SymNode::Deref { addr, .. } => {
            let (inner_base, off) = pool.base_offset(addr);
            let (root, mut path) = root_and_path(inner_base, pool)?;
            path.push(off);
            Some((root, path))
        }
        node => node.operands().is_none().then(|| (base, Vec::new())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtaint_symex::DefPair;

    fn field(pool: &mut ExprPool, root: ExprId, off: i64) -> ExprId {
        let a = pool.add_const(root, off);
        pool.deref(a, 4)
    }

    /// Builds a summary whose def pairs access the given offsets through
    /// arg0, with optional nested fields through `deref(arg0 + link)`.
    fn summary_with_fields(
        pool: &mut ExprPool,
        offs: &[i64],
        nested: &[(i64, i64)],
    ) -> FuncSummary {
        let mut s = FuncSummary::default();
        let arg0 = pool.arg(0);
        let zero = pool.constant(0);
        for &o in offs {
            let d = field(pool, arg0, o);
            s.def_pairs.push(DefPair { d, u: zero, ins_addr: 0, path: 0 });
        }
        for &(link, o) in nested {
            let inner = field(pool, arg0, link);
            let a = pool.add_const(inner, o);
            let d = pool.deref(a, 4);
            s.def_pairs.push(DefPair { d, u: zero, ins_addr: 0, path: 0 });
        }
        s
    }

    #[test]
    fn infer_groups_by_access_path() {
        let mut pool = ExprPool::new();
        let s = summary_with_fields(&mut pool, &[0x4c, 0x58], &[(0x58, 0xec)]);
        let arg0 = pool.arg(0);
        let layouts = infer_layouts(&s, &pool);
        let layout = &layouts[&arg0];
        assert_eq!(layout.groups.len(), 2, "root group + nested group");
        assert_eq!(layout.groups[&vec![]].keys().copied().collect::<Vec<_>>(), vec![0x4c, 0x58]);
        assert_eq!(layout.groups[&vec![0x58]].keys().copied().collect::<Vec<_>>(), vec![0xec]);
        assert_eq!(layout.groups.values().map(|fields| fields.len()).sum::<usize>(), 3);
    }

    #[test]
    fn identical_layouts_have_maximal_similarity() {
        let mut pool = ExprPool::new();
        let s1 = summary_with_fields(&mut pool, &[0x10, 0x14, 0x18], &[]);
        let s2 = summary_with_fields(&mut pool, &[0x10, 0x14, 0x18], &[]);
        let arg0 = pool.arg(0);
        let a = &infer_layouts(&s1, &pool)[&arg0];
        let b = &infer_layouts(&s2, &pool)[&arg0];
        assert!((a.similarity(b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn partial_overlap_scores_jaccard() {
        let mut pool = ExprPool::new();
        let s1 = summary_with_fields(&mut pool, &[0x10, 0x14], &[]);
        let s2 = summary_with_fields(&mut pool, &[0x10, 0x14, 0x18, 0x1c], &[]);
        let arg0 = pool.arg(0);
        let a = &infer_layouts(&s1, &pool)[&arg0];
        let b = &infer_layouts(&s2, &pool)[&arg0];
        // |∩| = 2, |∪| = 4.
        assert!((a.similarity(b) - 0.5).abs() < 1e-9);
        assert!((a.similarity(b) - b.similarity(a)).abs() < 1e-9, "symmetric");
    }

    #[test]
    fn nested_groups_add_their_jaccard_terms() {
        let mut pool = ExprPool::new();
        let s1 = summary_with_fields(&mut pool, &[0x10], &[(0x10, 0x4)]);
        let s2 = summary_with_fields(&mut pool, &[0x10], &[(0x10, 0x4)]);
        let arg0 = pool.arg(0);
        let a = &infer_layouts(&s1, &pool)[&arg0];
        let b = &infer_layouts(&s2, &pool)[&arg0];
        assert!((a.similarity(b) - 2.0).abs() < 1e-9, "two groups, each 1.0");
    }

    #[test]
    fn type_conflict_breaks_compatibility() {
        let mut pool = ExprPool::new();
        let arg0 = pool.arg(0);
        let mut s1 = FuncSummary::default();
        let d1 = field(&mut pool, arg0, 0x10);
        let zero = pool.constant(0);
        s1.def_pairs.push(DefPair { d: d1, u: zero, ins_addr: 0, path: 0 });
        s1.observe_type(d1, VType::Int);
        let mut s2 = FuncSummary::default();
        s2.def_pairs.push(DefPair { d: d1, u: zero, ins_addr: 0, path: 0 });
        s2.observe_type(d1, VType::CharPtr);
        let a = &infer_layouts(&s1, &pool)[&arg0];
        let b = &infer_layouts(&s2, &pool)[&arg0];
        assert!(!a.compatible(b));
        assert_eq!(a.similarity(b), 0.0);
    }

    #[test]
    fn disjoint_base_sets_are_incompatible() {
        let mut pool = ExprPool::new();
        let s1 = summary_with_fields(&mut pool, &[0x10], &[(0x10, 0x4)]);
        let s2 = summary_with_fields(&mut pool, &[0x10], &[(0x20, 0x4)]);
        let arg0 = pool.arg(0);
        let a = &infer_layouts(&s1, &pool)[&arg0];
        let b = &infer_layouts(&s2, &pool)[&arg0];
        // base sets {[], [0x10]} vs {[], [0x20]} — neither contains the
        // other.
        assert!(!a.compatible(b));
    }

    #[test]
    fn pointer_flavours_are_compatible() {
        assert!(types_compatible(VType::Ptr, VType::CharPtr));
        assert!(types_compatible(VType::Unknown, VType::Int));
        assert!(!types_compatible(VType::Int, VType::CharPtr));
    }

    #[test]
    fn root_and_path_of_paper_example() {
        // deref(deref(arg0 + 0x58) + 0xEC): the base of the outer access
        // is deref(arg0+0x58) with path [0x58] from root arg0.
        let mut pool = ExprPool::new();
        let arg0 = pool.arg(0);
        let a1 = pool.add_const(arg0, 0x58);
        let inner = pool.deref(a1, 4);
        let (root, path) = root_and_path(inner, &pool).unwrap();
        assert_eq!(root, arg0);
        assert_eq!(path, vec![0x58]);
    }

    #[test]
    fn callsite_args_contribute_fields() {
        let mut pool = ExprPool::new();
        let arg0 = pool.arg(0);
        let f = field(&mut pool, arg0, 0x30);
        let mut s = FuncSummary::default();
        s.callsites.push(dtaint_symex::CallsiteInfo {
            ins_addr: 0,
            callee: dtaint_symex::CalleeRef::Import("strlen".into()),
            args: [f].into_iter().collect(),
            ret: pool.ret_sym(0),
            path: 0,
        });
        let layouts = infer_layouts(&s, &pool);
        assert!(layouts[&arg0].groups[&vec![]].contains_key(&0x30));
    }
}
