//! Predicate expressions.
//!
//! Decision-tree node conditions are conjunctions of edge predicates of the
//! form `A = v` (a split branch) or `A <> v` ("A = other", the complement
//! branch of a binary split). The middleware's server filter (§4.3.1) is the
//! disjunction `(S_1 OR ... OR S_k)` of the path predicates of the scheduled
//! active nodes. This module gives those shapes an AST with evaluation,
//! selectivity estimation, and SQL rendering.
//!
//! It also gives them a compiled form. A scan asks "which of these
//! predicates does this row satisfy?" of every row — the middleware to
//! find the row's node, the server to decide whether the row ships — and
//! the predicates are paths of one partial tree, so the answer is one
//! root-to-leaf walk of that tree rather than a search over the frontier.
//! [`PredSet`] is that tree: built once per scan from an ordered predicate
//! list, it merges the conjunctions by shared prefix into a trie of
//! `(column, value)` tests and routes a row in at most path-depth steps,
//! however many predicates were compiled in. [`Pred::eval`] stays the
//! single-row reference (and serves one-off statements); the property
//! suite holds the two equal.

use crate::types::{Code, Schema};
use std::fmt;
use std::ops::{ControlFlow, Range};

/// A boolean predicate over a coded row.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Pred {
    /// Always true (the root node's condition).
    True,
    /// Always false.
    False,
    /// `column = value`.
    Eq {
        /// Column index.
        col: usize,
        /// Value code compared against.
        value: Code,
    },
    /// `column <> value` — the "other" branch of a binary split.
    NotEq {
        /// Column index.
        col: usize,
        /// Value code compared against.
        value: Code,
    },
    /// Conjunction of all children (empty = true).
    And(Vec<Pred>),
    /// Disjunction of all children (empty = false).
    Or(Vec<Pred>),
}

impl Pred {
    /// Conjunction that collapses trivial cases.
    pub fn and(preds: Vec<Pred>) -> Pred {
        let mut out = Vec::with_capacity(preds.len());
        for p in preds {
            match p {
                Pred::True => {}
                Pred::False => return Pred::False,
                Pred::And(children) => out.extend(children),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Pred::True,
            1 => out.pop().expect("len checked"),
            _ => Pred::And(out),
        }
    }

    /// Disjunction that collapses trivial cases.
    pub fn or(preds: Vec<Pred>) -> Pred {
        let mut out = Vec::with_capacity(preds.len());
        for p in preds {
            match p {
                Pred::False => {}
                Pred::True => return Pred::True,
                Pred::Or(children) => out.extend(children),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Pred::False,
            1 => out.pop().expect("len checked"),
            _ => Pred::Or(out),
        }
    }

    /// Evaluate against a row of codes. Panics on a column index past the
    /// row's arity (predicates are built against the scanned schema).
    #[inline]
    pub fn eval(&self, row: &[Code]) -> bool {
        self.eval_with(&|col| row[col])
    }

    /// [`Pred::eval`] over any row access: `code(col)` is the row's code in
    /// column `col` (a row-major slice, or `cols[col][r]` of a column block).
    pub fn eval_with(&self, code: &impl Fn(usize) -> Code) -> bool {
        match self {
            Pred::True => true,
            Pred::False => false,
            Pred::Eq { col, value } => code(*col) == *value,
            Pred::NotEq { col, value } => code(*col) != *value,
            Pred::And(children) => children.iter().all(|p| p.eval_with(code)),
            Pred::Or(children) => children.iter().any(|p| p.eval_with(code)),
        }
    }

    /// Number of atomic comparisons in the expression (filter complexity;
    /// the paper's filter expressions grow with the scheduled frontier).
    pub fn atom_count(&self) -> usize {
        match self {
            Pred::True | Pred::False => 0,
            Pred::Eq { .. } | Pred::NotEq { .. } => 1,
            Pred::And(children) | Pred::Or(children) => children.iter().map(Pred::atom_count).sum(),
        }
    }

    /// Crude independence-based selectivity estimate in `[0, 1]`, using only
    /// column cardinalities (uniformity assumption). Used by tests and by
    /// the middleware's staging heuristics as a sanity bound, never for
    /// correctness.
    pub fn selectivity(&self, schema: &Schema) -> f64 {
        match self {
            Pred::True => 1.0,
            Pred::False => 0.0,
            Pred::Eq { col, .. } => 1.0 / f64::from(schema.column(*col).cardinality()),
            Pred::NotEq { col, .. } => 1.0 - 1.0 / f64::from(schema.column(*col).cardinality()),
            Pred::And(children) => children.iter().map(|p| p.selectivity(schema)).product(),
            Pred::Or(children) => {
                // Inclusion by independence: 1 - prod(1 - s_i), clamped.
                let miss: f64 = children
                    .iter()
                    .map(|p| 1.0 - p.selectivity(schema))
                    .product();
                (1.0 - miss).clamp(0.0, 1.0)
            }
        }
    }

    /// Render as a SQL text fragment using schema column names.
    pub fn to_sql(&self, schema: &Schema) -> String {
        match self {
            Pred::True => "1=1".to_string(),
            Pred::False => "1=0".to_string(),
            Pred::Eq { col, value } => {
                format!("{} = {}", schema.column(*col).name(), value)
            }
            Pred::NotEq { col, value } => {
                format!("{} <> {}", schema.column(*col).name(), value)
            }
            Pred::And(children) => {
                let parts: Vec<_> = children.iter().map(|p| p.to_sql(schema)).collect();
                format!("({})", parts.join(" AND "))
            }
            Pred::Or(children) => {
                let parts: Vec<_> = children.iter().map(|p| p.to_sql(schema)).collect();
                format!("({})", parts.join(" OR "))
            }
        }
    }

    /// True when this predicate can never be satisfied together with `other`
    /// for *structurally obvious* reasons (same column equal to two different
    /// values). Conservative: `false` means "unknown".
    pub fn obviously_disjoint(&self, other: &Pred) -> bool {
        fn eq_atoms(p: &Pred, out: &mut Vec<(usize, Code)>) {
            match p {
                Pred::Eq { col, value } => out.push((*col, *value)),
                Pred::And(children) => children.iter().for_each(|c| eq_atoms(c, out)),
                _ => {}
            }
        }
        let mut a = Vec::new();
        let mut b = Vec::new();
        eq_atoms(self, &mut a);
        eq_atoms(other, &mut b);
        a.iter()
            .any(|(ca, va)| b.iter().any(|(cb, vb)| ca == cb && va != vb))
    }
}

/// One `column = value` / `column <> value` atom of a conjunction.
#[derive(Clone, Copy)]
struct Atom {
    col: usize,
    value: Code,
    eq: bool,
}

/// Flatten `pred` into its atoms, in evaluation order, if it is a plain
/// conjunction of `Eq`/`NotEq` atoms (`True` and nested `And`s included).
/// `false` means some other shape is inside.
fn conjunction_atoms(pred: &Pred, out: &mut Vec<Atom>) -> bool {
    match pred {
        Pred::True => true,
        Pred::Eq { col, value } => {
            out.push(Atom {
                col: *col,
                value: *value,
                eq: true,
            });
            true
        }
        Pred::NotEq { col, value } => {
            out.push(Atom {
                col: *col,
                value: *value,
                eq: false,
            });
            true
        }
        Pred::And(children) => children.iter().all(|c| conjunction_atoms(c, out)),
        Pred::False | Pred::Or(_) => false,
    }
}

/// A trie node under construction: children are indices into the arena.
#[derive(Default)]
struct BuildNode {
    hits: Vec<usize>,
    groups: Vec<BuildGroup>,
}

/// The tests one trie node makes on one column.
struct BuildGroup {
    col: usize,
    /// `(value, child)`: taken when the row's code equals `value`.
    eq: Vec<(Code, u32)>,
    /// `(value, child)`: taken when the row's code differs from `value`.
    ne: Vec<(Code, u32)>,
}

impl BuildGroup {
    /// First and last equal-branch value of the (sorted) group.
    fn eq_span(&self) -> (Code, Code) {
        match (self.eq.first(), self.eq.last()) {
            (Some(first), Some(last)) => (first.0, last.0),
            _ => (0, 0),
        }
    }
}

/// "No such node": no equal-branch taken, or the end of a chain of tests.
const NONE: u32 = u32::MAX;

/// A node of the compiled trie — the predicates that end there and the
/// tests on one column that lead on. A node that tests several columns
/// (only unrelated predicates make one) chains one `Test` per further
/// column through `also`.
///
/// Nodes are numbered breadth-first, so the children a test reaches by
/// equality sit next to each other in ascending value order and a child is
/// found by arithmetic: `eq_base + position of the value`. When the values
/// are one consecutive run — the branches of a multiway split — the
/// position is the value's offset from the first; otherwise it is searched
/// for in `eq_values`.
#[derive(Debug, Clone)]
struct Test {
    /// Range of [`PredSet::hits`] (empty on chained tests).
    hits: Range<u32>,
    col: usize,
    /// First equal-branch child; there are `eq_len` of them.
    eq_base: u32,
    eq_len: u32,
    /// Value of the first equal-branch.
    eq_first: Code,
    /// Range of [`PredSet::eq_values`]: the equal-branch values, ascending
    /// — empty when they are consecutive from `eq_first`.
    eq_values: Range<u32>,
    /// Range of [`PredSet::ne`]: every entry with another value is taken.
    ne: Range<u32>,
    /// The same node's test on its next column, or [`NONE`].
    also: u32,
}

/// `range` of `items`, as the trie stores its sub-lists.
#[inline]
fn sub<'a, T>(items: &'a [T], range: &Range<u32>) -> &'a [T] {
    &items[range.start as usize..range.end as usize]
}

/// The range `items` grows by when `more` is appended.
fn extend_range<T>(items: &mut Vec<T>, more: impl IntoIterator<Item = T>) -> Range<u32> {
    let start = items.len() as u32;
    items.extend(more);
    start..items.len() as u32
}

/// An ordered list of predicates compiled for routing: "which of these
/// does this row satisfy?" in one walk.
///
/// Conjunctions of `Eq`/`NotEq` atoms — every tree path, since a child's
/// path is its parent's path and one more edge, in root-to-leaf order —
/// are merged by shared prefix into a trie whose edges are `(column,
/// value)` tests with an equal-branch and a not-equal-branch. A row walks
/// from the root and takes every edge whose test it passes, so its cost is
/// the depth of the paths it is on, not the number of predicates. `True`
/// is a hit at the root; any other shape (`Or`, `False`, something nested
/// in them) is kept on a short list evaluated with [`Pred::eval_with`].
///
/// Each predicate's atoms are tested in its own evaluation order and only
/// until the first fails, exactly as [`Pred::eval`] would: a column index
/// past the row's arity panics here precisely when it would there.
#[derive(Debug, Clone, Default)]
pub struct PredSet {
    /// The trie; node 0 is the root (absent only in the empty set).
    tests: Vec<Test>,
    /// Predicate indices, by trie node.
    hits: Vec<usize>,
    /// Equal-branch values of the tests whose values are not consecutive.
    eq_values: Vec<Code>,
    /// `(value, child node)` not-equal-branches, by test.
    ne: Vec<(Code, u32)>,
    /// Predicates that are not plain conjunctions, with their indices.
    generic: Vec<(usize, Pred)>,
    /// Predicates compiled in.
    len: usize,
}

impl PredSet {
    /// Compile an ordered list of predicates; [`PredSet::route`] reports
    /// matches by position in this list.
    pub fn new<'a>(preds: impl IntoIterator<Item = &'a Pred>) -> PredSet {
        let mut build = vec![BuildNode::default()];
        let mut generic = Vec::new();
        let mut atoms = Vec::new();
        let mut len = 0;
        for (idx, pred) in preds.into_iter().enumerate() {
            len += 1;
            atoms.clear();
            if !conjunction_atoms(pred, &mut atoms) {
                generic.push((idx, pred.clone()));
                continue;
            }
            let mut at = 0usize;
            for atom in &atoms {
                let fresh = build.len() as u32;
                let groups = &mut build[at].groups;
                let g = match groups.iter().position(|g| g.col == atom.col) {
                    Some(g) => g,
                    None => {
                        groups.push(BuildGroup {
                            col: atom.col,
                            eq: Vec::new(),
                            ne: Vec::new(),
                        });
                        groups.len() - 1
                    }
                };
                let edges = if atom.eq {
                    &mut groups[g].eq
                } else {
                    &mut groups[g].ne
                };
                let child = match edges.iter().find(|(v, _)| *v == atom.value) {
                    Some(&(_, child)) => child,
                    None => {
                        edges.push((atom.value, fresh));
                        build.push(BuildNode::default());
                        fresh
                    }
                };
                at = child as usize;
            }
            build[at].hits.push(idx);
        }
        PredSet {
            generic,
            len,
            ..PredSet::default()
        }
        .with_trie(build)
    }

    /// Lay the built trie out breadth-first (see [`Test`]).
    fn with_trie(mut self, mut build: Vec<BuildNode>) -> PredSet {
        // `order[new id]` is the arena index. A group's equal-branch
        // children are queued together, in ascending value order.
        let mut order = vec![0usize];
        let mut new_id = vec![0u32; build.len()];
        let mut next = 0;
        while let Some(&at) = order.get(next) {
            next += 1;
            let mut groups = std::mem::take(&mut build[at].groups);
            for group in &mut groups {
                group.eq.sort_unstable();
                // A few missing values (a pruned multiway split) cost less
                // as dead-end children than as a search per row.
                let (first, last) = group.eq_span();
                if usize::from(last - first) < 2 * group.eq.len() {
                    let missing = |v: &Code| group.eq.binary_search_by_key(v, |e| e.0).is_err();
                    let gaps: Vec<Code> = (first..last).filter(missing).collect();
                    for value in gaps {
                        group.eq.push((value, build.len() as u32));
                        build.push(BuildNode::default());
                        new_id.push(0);
                    }
                    group.eq.sort_unstable();
                }
                for &(_, child) in group.eq.iter().chain(&group.ne) {
                    new_id[child as usize] = order.len() as u32;
                    order.push(child as usize);
                }
            }
            build[at].groups = groups;
        }
        // A node's tests on its second and later columns go after all the
        // nodes, so they do not break the numbering.
        let nodes = order.len();
        let mut chained = Vec::new();
        for at in order {
            let node = std::mem::take(&mut build[at]);
            let mut tests: Vec<Test> = node
                .groups
                .into_iter()
                .map(|group| {
                    let (first, last) = group.eq_span();
                    let consecutive = usize::from(last - first) + 1 == group.eq.len();
                    let values = group.eq.iter().map(|&(value, _)| value);
                    let renumbered =
                        |&(value, child): &(Code, u32)| (value, new_id[child as usize]);
                    Test {
                        hits: 0..0,
                        col: group.col,
                        eq_base: group.eq.first().map_or(NONE, |e| renumbered(e).1),
                        eq_len: group.eq.len() as u32,
                        eq_first: first,
                        eq_values: extend_range(
                            &mut self.eq_values,
                            values.filter(|_| !consecutive),
                        ),
                        ne: extend_range(&mut self.ne, group.ne.iter().map(renumbered)),
                        also: NONE,
                    }
                })
                .collect();
            // Link the chain back to front; a leaf tests nothing.
            let mut also = NONE;
            while tests.len() > 1 {
                let mut test = tests.pop().expect("len checked");
                test.also = also;
                also = (nodes + chained.len()) as u32;
                chained.push(test);
            }
            let mut head = tests.pop().unwrap_or(Test {
                hits: 0..0,
                col: 0,
                eq_base: NONE,
                eq_len: 0,
                eq_first: 0,
                eq_values: 0..0,
                ne: 0..0,
                also: NONE,
            });
            head.hits = extend_range(&mut self.hits, node.hits);
            head.also = also;
            self.tests.push(head);
        }
        self.tests.extend(chained);
        self
    }

    /// Compile a pushed-down filter: an `Or` becomes the set of its
    /// disjuncts, anything else a set of one, so that
    /// [`PredSet::matches_any`] is the filter.
    pub fn from_filter(filter: &Pred) -> PredSet {
        match filter {
            Pred::Or(children) => PredSet::new(children),
            other => PredSet::new([other]),
        }
    }

    /// Number of predicates compiled in.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Were no predicates compiled in?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Write into `out` the indices of exactly the predicates `row`
    /// satisfies — `{i | preds[i].eval(row)}` — in ascending order.
    pub fn route(&self, row: &[Code], out: &mut Vec<usize>) {
        out.clear();
        let _ = self.for_each_match(&|col| row[col], &mut |idx| {
            out.push(idx);
            ControlFlow::Continue(())
        });
        // A tree frontier is disjoint, so this is the rare case.
        if out.len() > 1 {
            out.sort_unstable();
        }
    }

    /// Does `row` satisfy at least one predicate — `Pred::or(preds)`?
    pub fn matches_any(&self, row: &[Code]) -> bool {
        self.for_each_match(&|col| row[col], &mut |_| ControlFlow::Break(()))
            .is_break()
    }

    /// Call `on_match` with the index of every predicate the row behind
    /// `code` satisfies (`code(col)` is its code in column `col`), each
    /// once, in no particular order, until `on_match` breaks.
    pub fn for_each_match(
        &self,
        code: &impl Fn(usize) -> Code,
        on_match: &mut impl FnMut(usize) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if !self.tests.is_empty() {
            self.walk(0, code, on_match)?;
        }
        for (idx, pred) in &self.generic {
            if pred.eval_with(code) {
                on_match(*idx)?;
            }
        }
        ControlFlow::Continue(())
    }

    /// Report the predicates ending at trie node `at`, then descend every
    /// edge whose test the row passes: the last one in this loop, any
    /// before it (only overlapping predicates have several) by recursion.
    fn walk(
        &self,
        mut at: u32,
        code: &impl Fn(usize) -> Code,
        on_match: &mut impl FnMut(usize) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        loop {
            // analyze:allow(hot-path-panic): `at` is the root of a
            // non-empty trie or a child id `with_trie` minted over `tests`.
            let mut test = &self.tests[at as usize];
            if !test.hits.is_empty() {
                for &idx in sub(&self.hits, &test.hits) {
                    on_match(idx)?;
                }
            }
            let mut next = NONE;
            loop {
                if test.eq_len > 0 {
                    let v = code(test.col);
                    let position = if test.eq_values.is_empty() {
                        u32::from(v.wrapping_sub(test.eq_first))
                    } else {
                        let values = sub(&self.eq_values, &test.eq_values);
                        values.binary_search(&v).map_or(NONE, |i| i as u32)
                    };
                    if position < test.eq_len {
                        if next != NONE {
                            self.walk(next, code, on_match)?;
                        }
                        next = test.eq_base + position;
                    }
                }
                if !test.ne.is_empty() {
                    let v = code(test.col);
                    for &(value, child) in sub(&self.ne, &test.ne) {
                        if v != value {
                            if next != NONE {
                                self.walk(next, code, on_match)?;
                            }
                            next = child;
                        }
                    }
                }
                if test.also == NONE {
                    break;
                }
                // analyze:allow(hot-path-panic): a chain link `with_trie`
                // set to the index it pushed the next test at.
                test = &self.tests[test.also as usize];
            }
            if next == NONE {
                return ControlFlow::Continue(());
            }
            at = next;
        }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::True => write!(f, "TRUE"),
            Pred::False => write!(f, "FALSE"),
            Pred::Eq { col, value } => write!(f, "#{col} = {value}"),
            Pred::NotEq { col, value } => write!(f, "#{col} <> {value}"),
            Pred::And(children) => {
                write!(f, "(")?;
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        write!(f, " AND ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
            Pred::Or(children) => {
                write!(f, "(")?;
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        write!(f, " OR ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::from_pairs(&[("a", 4), ("b", 2), ("class", 3)])
    }

    #[test]
    fn atoms_evaluate() {
        let row = [2, 1, 0];
        assert!(Pred::Eq { col: 0, value: 2 }.eval(&row));
        assert!(!Pred::Eq { col: 0, value: 3 }.eval(&row));
        assert!(Pred::NotEq { col: 0, value: 3 }.eval(&row));
        assert!(Pred::True.eval(&row));
        assert!(!Pred::False.eval(&row));
    }

    #[test]
    fn and_or_collapse_trivial_cases() {
        assert_eq!(Pred::and(vec![]), Pred::True);
        assert_eq!(Pred::or(vec![]), Pred::False);
        assert_eq!(
            Pred::and(vec![Pred::True, Pred::Eq { col: 1, value: 0 }]),
            Pred::Eq { col: 1, value: 0 }
        );
        assert_eq!(
            Pred::and(vec![Pred::False, Pred::Eq { col: 1, value: 0 }]),
            Pred::False
        );
        assert_eq!(
            Pred::or(vec![Pred::True, Pred::Eq { col: 1, value: 0 }]),
            Pred::True
        );
    }

    #[test]
    fn nested_and_or_flatten() {
        let p = Pred::and(vec![
            Pred::And(vec![
                Pred::Eq { col: 0, value: 1 },
                Pred::Eq { col: 1, value: 0 },
            ]),
            Pred::Eq { col: 2, value: 2 },
        ]);
        match p {
            Pred::And(children) => assert_eq!(children.len(), 3),
            other => panic!("expected flattened AND, got {other}"),
        }
    }

    #[test]
    fn compound_evaluation() {
        let p = Pred::and(vec![
            Pred::Eq { col: 0, value: 2 },
            Pred::NotEq { col: 1, value: 0 },
        ]);
        assert!(p.eval(&[2, 1, 0]));
        assert!(!p.eval(&[2, 0, 0]));
        assert!(!p.eval(&[1, 1, 0]));
        let q = Pred::or(vec![
            Pred::Eq { col: 0, value: 9 },
            Pred::Eq { col: 2, value: 0 },
        ]);
        assert!(q.eval(&[2, 1, 0]));
        assert!(!q.eval(&[2, 1, 1]));
    }

    #[test]
    fn selectivity_bounds() {
        let s = schema();
        let eq = Pred::Eq { col: 0, value: 1 };
        assert!((eq.selectivity(&s) - 0.25).abs() < 1e-12);
        let ne = Pred::NotEq { col: 0, value: 1 };
        assert!((ne.selectivity(&s) - 0.75).abs() < 1e-12);
        let conj = Pred::and(vec![eq.clone(), Pred::Eq { col: 1, value: 0 }]);
        assert!((conj.selectivity(&s) - 0.125).abs() < 1e-12);
        let disj = Pred::or(vec![eq, Pred::Eq { col: 1, value: 0 }]);
        let sel = disj.selectivity(&s);
        assert!(sel > 0.25 && sel < 0.75);
    }

    #[test]
    fn sql_rendering() {
        let s = schema();
        let p = Pred::and(vec![
            Pred::Eq { col: 0, value: 2 },
            Pred::NotEq { col: 1, value: 0 },
        ]);
        assert_eq!(p.to_sql(&s), "(a = 2 AND b <> 0)");
        assert_eq!(Pred::True.to_sql(&s), "1=1");
    }

    #[test]
    fn atom_count_counts_leaves() {
        let p = Pred::or(vec![
            Pred::and(vec![
                Pred::Eq { col: 0, value: 1 },
                Pred::Eq { col: 1, value: 1 },
            ]),
            Pred::Eq { col: 2, value: 0 },
        ]);
        assert_eq!(p.atom_count(), 3);
        assert_eq!(Pred::True.atom_count(), 0);
    }

    #[test]
    fn disjointness_detection() {
        let p = Pred::and(vec![Pred::Eq { col: 0, value: 1 }]);
        let q = Pred::and(vec![Pred::Eq { col: 0, value: 2 }]);
        let r = Pred::and(vec![Pred::Eq { col: 1, value: 1 }]);
        assert!(p.obviously_disjoint(&q));
        assert!(!p.obviously_disjoint(&r));
        // NotEq atoms are ignored (conservative).
        let s = Pred::NotEq { col: 0, value: 1 };
        assert!(!p.obviously_disjoint(&s));
    }
}
