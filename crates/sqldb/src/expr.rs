//! Predicate expressions.
//!
//! Decision-tree node conditions are conjunctions of edge predicates of the
//! form `A = v` (a split branch) or `A <> v` ("A = other", the complement
//! branch of a binary split). The middleware's server filter (§4.3.1) is the
//! disjunction `(S_1 OR ... OR S_k)` of the path predicates of the scheduled
//! active nodes. This module gives those shapes an AST with evaluation,
//! selectivity estimation, and SQL rendering.
//!
//! It also gives them two compiled forms, one per side of the wire.
//!
//! The middleware asks "which of these predicates does this row
//! satisfy?" of every row, to find the row's node. The predicates are
//! paths of one partial tree, so the answer is one root-to-leaf walk of
//! that tree rather than a search over the frontier. [`PredSet`] is that
//! tree: built once per scan from an ordered predicate list, it merges the
//! conjunctions by shared prefix into a trie of `(column, value)` tests
//! and routes a row in at most path-depth steps, however many predicates
//! were compiled in — or a whole block at once ([`PredSet::route_block`]),
//! partitioning the block's selection vector one trie node at a time
//! instead of walking the trie once per row.
//!
//! The server asks one question of every row: does *any* disjunct of the
//! pushed-down filter match it? [`PageFilter`] answers it by bitmap
//! predicate evaluation (O'Neil & Quass 1997): per tested column, a table
//! from each value to the set of disjuncts that admit it, one bit each. A
//! page is filtered a column at a time (MonetDB/X100's vectors): each
//! selected row's bits are ANDed with its code's mask, the selection is
//! compacted to the rows with a bit left, and evaluation stops when none
//! is.
//!
//! [`Pred::eval`] stays the single-row reference (and serves one-off
//! statements); the property suite holds interpreter, row router, block
//! router and page filter equal.

use crate::types::{Code, Schema};
use std::cell::Cell;
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

impl Test {
    /// Which equal-branch a row holding `v` takes, counted from `eq_base`
    /// — `eq_len` or more for none; `values` is this test's range of
    /// [`PredSet::eq_values`].
    #[inline]
    fn position(&self, v: Code, values: &[Code]) -> u32 {
        if values.is_empty() {
            u32::from(v.wrapping_sub(self.eq_first))
        } else {
            values.binary_search(&v).map_or(NONE, |i| i as u32)
        }
    }

    /// The not-equal child when the test (`ne` is its range of
    /// [`PredSet::ne`]) is the two branches of a binary split, `A = v` and
    /// `A <> v`: every row takes exactly one of them.
    fn binary_pair(&self, ne: &[(Code, u32)]) -> Option<u32> {
        match ne {
            [(value, child)] if self.eq_len == 1 && *value == self.eq_first => Some(*child),
            _ => None,
        }
    }
}

/// The range `items` grows by when `more` is appended.
fn extend_range<T>(items: &mut Vec<T>, more: impl IntoIterator<Item = T>) -> Range<u32> {
    let start = items.len() as u32;
    items.extend(more);
    start..items.len() as u32
}

/// One column of a block as [`PredSet::route_block`] reads it: row `r`
/// holds `codes[r * stride]` — stride 1 over a decoded column, the arity
/// over `&flat[col..]` of a row-major block.
#[derive(Debug, Clone, Copy)]
pub struct ColumnView<'a> {
    /// The column's codes, `stride` apart.
    pub codes: &'a [Code],
    /// Distance between the codes of consecutive rows.
    pub stride: usize,
}

impl<'a> ColumnView<'a> {
    /// Column `col` of `rows`, packed row-major, `arity` codes each — a
    /// heap page, a wire fetch, a memory set — read in place. Panics on a
    /// column past the arity: it would read into the next row.
    pub fn row_major(rows: &'a [Code], arity: usize, col: usize) -> Self {
        assert!(
            col < arity,
            "column {col} is outside the rows' {arity} columns"
        );
        ColumnView {
            codes: rows.get(col..).unwrap_or(&[]),
            stride: arity,
        }
    }

    /// Row `row`'s code. Panics on a row past the block.
    #[inline]
    pub fn get(&self, row: u32) -> Code {
        self.codes[row as usize * self.stride]
    }
}

/// What [`PredSet::route_block`] found in a block — each predicate's
/// selection — and the scratch it partitions in, reused block after block.
///
/// Every selection made on the way down the trie is a range of one arena,
/// never freed within a block: at most `rows × (1 + 2 × trie depth)`
/// `u32`s for a tree frontier (a binary test reserves a slot per row on
/// each side, and on a block that takes one side all the way down the
/// other half stays unused), `rows ×` [`PredSet`]'s per-row slot bound in
/// general — and a slot per row more for their union, when asked for.
#[derive(Debug, Default)]
pub struct BlockRoute {
    /// The selections, back to back; `arena[..top]` is live.
    arena: Vec<u32>,
    top: usize,
    /// `(predicate, its selection's range of the arena)`, ascending.
    found: Vec<(usize, Range<u32>)>,
    /// Trie nodes reached and not yet partitioned, with their selections.
    todo: Vec<(u32, Range<u32>)>,
    /// Bucket bounds of the multiway counting pass.
    counts: Vec<u32>,
    /// Rows in the routed block.
    nrows: usize,
    /// The range of the arena [`BlockRoute::mark_matched`] left the union
    /// of the selections in, and the per-row mask it read a union of
    /// several off.
    matched: Range<u32>,
    taken: Vec<bool>,
    /// Trie nodes partitioned since this scratch was made.
    #[cfg(test)]
    visits: usize,
}

impl BlockRoute {
    /// The predicates at least one row of the block satisfies, ascending,
    /// each with the rows that satisfy it, ascending.
    pub fn selections(&self) -> impl Iterator<Item = (usize, &[u32])> {
        self.found
            .iter()
            .map(|(idx, range)| (*idx, sub(&self.arena, range)))
    }

    /// The block's rows that satisfy predicate `idx`, ascending.
    pub fn selected(&self, idx: usize) -> &[u32] {
        let at = self.found.binary_search_by_key(&idx, |found| found.0);
        at.ok()
            .and_then(|at| self.found.get(at))
            .map_or(&[], |(_, range)| sub(&self.arena, range))
    }

    /// Take the union of the selections — `{r | some predicate selects
    /// row r}`, each row once however many predicates select it — for
    /// [`BlockRoute::matched`] to read: what a hybrid split file keeps and
    /// a compacting memory scan records. One selection is its own union; a
    /// union of several is read off a per-row mask, without a branch.
    pub fn mark_matched(&mut self) {
        self.matched = match self.found.as_slice() {
            [] => 0..0,
            [(_, only)] => only.clone(),
            found => {
                self.taken.clear();
                self.taken.resize(self.nrows, false);
                for &r in found.iter().flat_map(|(_, range)| sub(&self.arena, range)) {
                    // analyze:allow(hot-path-panic): selections are minted
                    // over the block's `nrows` rows.
                    self.taken[r as usize] = true;
                }
                let (_, free) = arena_split(&mut self.arena, self.top, &(0..0), self.nrows);
                let mut kept = 0;
                for (r, &taken) in (0..).zip(&self.taken) {
                    // analyze:allow(hot-path-panic): `kept` counts rows kept
                    // so far, fewer than rows seen, and `free` has a slot
                    // per row.
                    free[kept] = r;
                    kept += usize::from(taken);
                }
                let start = self.top as u32;
                self.top += kept;
                start..self.top as u32
            }
        };
    }

    /// The block's rows that satisfy at least one predicate, ascending —
    /// empty until [`BlockRoute::mark_matched`] is asked for them.
    pub fn matched(&self) -> &[u32] {
        sub(&self.arena, &self.matched)
    }

    /// Slots of scratch held, so a caller can tell reuse from regrowth.
    pub fn capacity(&self) -> usize {
        self.arena.capacity()
            + self.found.capacity()
            + self.todo.capacity()
            + self.counts.capacity()
            + self.taken.capacity()
    }

    /// Append to the arena the rows of selection `sel` that pass `keep`, in
    /// order and without a branch on the outcome; the range they take.
    #[inline]
    fn filter(&mut self, sel: &Range<u32>, keep: impl Fn(u32) -> bool) -> Range<u32> {
        let (rows, free) = arena_split(&mut self.arena, self.top, sel, sel.len());
        let mut kept = 0;
        for &r in rows {
            // analyze:allow(hot-path-panic): `kept` counts rows kept so
            // far, fewer than rows seen, and `free` has a slot per row.
            free[kept] = r;
            kept += usize::from(keep(r));
        }
        let start = self.top as u32;
        self.top += kept;
        start..self.top as u32
    }
}

/// Trie node `child` is reached by the rows of `share`, if any.
fn reach(todo: &mut Vec<(u32, Range<u32>)>, child: u32, share: Range<u32>) {
    if !share.is_empty() {
        todo.push((child, share));
    }
}

/// The rows of `sel`, and `room` free slots above everything live in the
/// arena to write its partitions into.
fn arena_split<'a>(
    arena: &'a mut Vec<u32>,
    top: usize,
    sel: &Range<u32>,
    room: usize,
) -> (&'a [u32], &'a mut [u32]) {
    if arena.len() < top + room {
        arena.resize(top + room, 0);
    }
    let (live, free) = arena.split_at_mut(top);
    (sub(live, sel), &mut free[..room])
}

/// An ordered list of predicates compiled for the middleware's routing:
/// "which of these does this row satisfy?" in one walk — or "which rows
/// of this block satisfy each of these?" in one partition per trie node.
///
/// Conjunctions of `Eq`/`NotEq` atoms — every tree path, since a child's
/// path is its parent's path and one more edge, in root-to-leaf order —
/// are merged by shared prefix into a trie whose edges are `(column,
/// value)` tests with an equal-branch and a not-equal-branch. A row walks
/// from the root and takes every edge whose test it passes, so its cost is
/// the depth of the paths it is on, not the number of predicates
/// ([`PredSet::route`]: where a single row is the unit). A block is routed from the root down ([`PredSet::route_block`]):
/// the rows that reach a node are split among its children by the node's
/// test in one tight pass, so a level costs a compare and a store per row
/// in place of a mispredicted branch, and a node no row reaches costs
/// nothing. `True` is a hit at the root; any other shape (`Or`, `False`,
/// something nested in them) is kept on a short list evaluated with
/// [`Pred::eval_with`], per row on both paths.
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
    /// The most [`BlockRoute`] arena slots one block row can take.
    slots_per_row: usize,
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
        // What a row can reserve in the block router's arena at and below
        // each node, children (higher ids) before parents: a binary pair
        // two slots and one side of the subtree, any other edge a slot
        // and, if the row takes it, the child's.
        let mut below = vec![0usize; nodes];
        for at in (0..nodes).rev() {
            let mut test = &self.tests[at];
            let mut slots = 0;
            loop {
                let deepest_eq = (test.eq_base..test.eq_base.saturating_add(test.eq_len))
                    .map(|child| below[child as usize])
                    .max();
                let ne = sub(&self.ne, &test.ne);
                slots += match test.binary_pair(ne) {
                    Some(child) => 2 + below[child as usize].max(deepest_eq.unwrap_or(0)),
                    None => {
                        let ne_slots: usize = ne.iter().map(|e| 1 + below[e.1 as usize]).sum();
                        deepest_eq.map_or(0, |deepest| 1 + deepest) + ne_slots
                    }
                };
                match self.tests.get(test.also as usize) {
                    Some(next) => test = next,
                    None => break,
                }
            }
            below[at] = slots;
        }
        self.slots_per_row = 1 + below.first().copied().unwrap_or(0) + self.generic.len();
        self
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
                    let values = sub(&self.eq_values, &test.eq_values);
                    let position = test.position(code(test.col), values);
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

    /// Route a whole block: leave in `out`, for every predicate at least
    /// one of the block's `nrows` rows satisfies, exactly
    /// `{r | preds[i].eval(row r)}` ascending ([`BlockRoute::selections`]).
    /// `column(col)` is column `col` of the block.
    ///
    /// Where [`PredSet::route`] walks the trie once per row, this walks it
    /// once per block: the rows that reach a trie node — all of them at
    /// the root — are partitioned by the node's test in one tight pass
    /// into the selections of its children, and only children some row
    /// reached are visited. A predicate that ends at a node gets the
    /// node's selection. The short `generic` list is still interpreted
    /// per row. `column` is asked for a column only when some row reaches
    /// a test on it, so a column past the arity panics exactly when
    /// [`Pred::eval`] would on one of the rows.
    pub fn route_block<'a>(
        &self,
        nrows: usize,
        column: impl Fn(usize) -> ColumnView<'a>,
        out: &mut BlockRoute,
    ) {
        out.top = 0;
        out.found.clear();
        out.todo.clear();
        out.nrows = nrows;
        out.matched = 0..0;
        if nrows == 0 {
            return;
        }
        // Arena offsets are `u32`s, like the rows they index (the slot past
        // the selections' is `BlockRoute::mark_matched`'s union).
        let bound = nrows.saturating_mul(self.slots_per_row + 1);
        assert!(
            u32::try_from(bound).is_ok(),
            "a block of {nrows} rows is too large to route"
        );
        // The root's selection, every row, is `arena[..nrows]`.
        let every_row = 0..nrows as u32;
        let (_, all) = arena_split(&mut out.arena, 0, &(0..0), nrows);
        all.iter_mut().zip(0..).for_each(|(slot, r)| *slot = r);
        out.top = nrows;
        if !self.tests.is_empty() {
            out.todo.push((0, every_row.clone()));
        }
        while let Some((at, sel)) = out.todo.pop() {
            debug_assert!(!sel.is_empty(), "visited a node no row reached");
            #[cfg(test)]
            {
                out.visits += 1;
            }
            // analyze:allow(hot-path-panic): the root of a non-empty trie
            // or a child id `with_trie` minted over `tests`.
            let mut test = &self.tests[at as usize];
            let hits = sub(&self.hits, &test.hits);
            out.found.extend(hits.iter().map(|&idx| (idx, sel.clone())));
            loop {
                if test.eq_len > 0 || !test.ne.is_empty() {
                    self.partition(test, column(test.col), &sel, out);
                }
                if test.also == NONE {
                    break;
                }
                // analyze:allow(hot-path-panic): a chain link `with_trie`
                // set to the index it pushed the next test at.
                test = &self.tests[test.also as usize];
            }
        }
        for (idx, pred) in &self.generic {
            let share = out.filter(&every_row, |r| pred.eval_with(&|col| column(col).get(r)));
            if !share.is_empty() {
                out.found.push((*idx, share));
            }
        }
        out.found.sort_unstable_by_key(|found| found.0);
        debug_assert!(out.top <= bound, "the arena outgrew its bound");
    }

    /// Partition `sel`, the rows that reached a trie node, by one of the
    /// node's tests (`codes` is the tested column): every child some row
    /// goes to joins the to-do list with its share, in row order. The two
    /// branches of a binary split take one pass with two outputs, the
    /// branches of a multiway split one counting pass, any other edge a
    /// pass of its own.
    fn partition(
        &self,
        test: &Test,
        codes: ColumnView<'_>,
        sel: &Range<u32>,
        out: &mut BlockRoute,
    ) {
        let n = sel.len();
        let ne = sub(&self.ne, &test.ne);
        // The selection `len` rows long written `offset` above the top.
        let child_sel = |top: usize, offset: usize, len: usize| {
            let start = (top + offset) as u32;
            start..start + len as u32
        };
        if let Some(ne_child) = test.binary_pair(ne) {
            let (rows, free) = arena_split(&mut out.arena, out.top, sel, 2 * n);
            let (eq_out, ne_out) = free.split_at_mut(n);
            let (mut n_eq, mut n_ne) = (0, 0);
            for &r in rows {
                let eq = codes.get(r) == test.eq_first;
                // analyze:allow(hot-path-panic): `eq_out` has a slot per
                // row of `sel` and has taken fewer rows than were seen.
                eq_out[n_eq] = r;
                // analyze:allow(hot-path-panic): `ne_out` has a slot per
                // row of `sel` and has taken fewer rows than were seen.
                ne_out[n_ne] = r;
                n_eq += usize::from(eq);
                n_ne += usize::from(!eq);
            }
            reach(&mut out.todo, test.eq_base, child_sel(out.top, 0, n_eq));
            reach(&mut out.todo, ne_child, child_sel(out.top, n, n_ne));
            out.top += if n_ne > 0 { n + n_ne } else { n_eq };
            return;
        }
        if test.eq_len == 1 {
            let share = out.filter(sel, |r| codes.get(r) == test.eq_first);
            reach(&mut out.todo, test.eq_base, share);
        } else if test.eq_len > 1 {
            let values = sub(&self.eq_values, &test.eq_values);
            // Rows no branch takes go to one bucket past the branches.
            let bucket = |r: u32| test.position(codes.get(r), values).min(test.eq_len) as usize;
            let (rows, free) = arena_split(&mut out.arena, out.top, sel, n);
            let counts = &mut out.counts;
            counts.clear();
            counts.resize(test.eq_len as usize + 1, 0);
            for &r in rows {
                // analyze:allow(hot-path-panic): `bucket` is at most
                // `eq_len`, the last of the `eq_len + 1` counts.
                counts[bucket(r)] += 1;
            }
            // Counts become bucket starts, then (scattering) bucket ends.
            let mut start = 0;
            for count in counts.iter_mut() {
                let rows = *count;
                *count = start;
                start += rows;
            }
            for &r in rows {
                // analyze:allow(hot-path-panic): `bucket` is at most
                // `eq_len`, the last of the `eq_len + 1` bucket bounds.
                let next = &mut counts[bucket(r)];
                // analyze:allow(hot-path-panic): the buckets tile the `n`
                // free slots, and each holds as many rows as were counted.
                free[*next as usize] = r;
                *next += 1;
            }
            let mut from = 0;
            for (child, &to) in (test.eq_base..)
                .zip(counts.iter())
                .take(test.eq_len as usize)
            {
                let share = child_sel(out.top, from as usize, (to - from) as usize);
                reach(&mut out.todo, child, share);
                from = to;
            }
            out.top += from as usize;
        }
        for &(value, child) in ne {
            let share = out.filter(sel, |r| codes.get(r) != value);
            reach(&mut out.todo, child, share);
        }
    }
}

/// One tested column of a [`PageFilter`] word: the column, the range of
/// [`PageFilter`]'s mask arena holding one mask per value
/// `0..=col_max[col]`, and its place in the order columns are tested in.
#[derive(Debug, Clone)]
struct MaskColumn {
    col: usize,
    masks: Range<usize>,
    /// How much of the column's value range admits a disjunct: it is
    /// tested before the columns that rank higher.
    rank: u64,
}

/// Disjuncts one mask word holds.
const WORD_BITS: usize = 64;

/// A pushed-down filter compiled for the server: "does any disjunct match
/// this row?", asked of every row of a page at once ([`PageFilter::select`]).
///
/// The filter's disjuncts — the children of a top-level `Or`, or the
/// filter itself — that are conjunctions of `Eq`/`NotEq` atoms on columns
/// inside the arity get one bit each, 64 to a word. Per word and tested
/// column `c`, `mask_c[v]` has the bit of every disjunct whose atoms on
/// `c` admit `v` (all of them when it has none). The masks cover `v` in
/// `0..=col_max[c]` for the table's range certificate
/// ([`crate::Table::col_max`]), which bounds every code the table has
/// ever stored, so every row is covered. A row matches a word when the AND
/// of its codes' masks over the word's columns is not zero.
///
/// A page is filtered a word at a time and, within it, a column at a
/// time: the most restrictive column first over every row, each later one
/// over the rows still holding a bit, the selection compacted after each
/// column without a branch on the outcome, until no row is left. Columns
/// whose masks admit every disjunct of the word everywhere are not tested,
/// and a disjunct no column can reject (`True`) selects the whole page.
///
/// A bare `False` disjunct is dropped. Any other disjunct — a nested
/// `Or`, a `False` inside a conjunction, an atom on a column past the
/// arity — is interpreted with [`Pred::eval_with`] on every row of the
/// page, as [`PredSet::route_block`] interprets its generic list: a
/// column past the arity panics when a row reaches it, as under
/// [`Pred::eval`].
///
/// Compiled once per cursor or statement ([`PageFilter::compile`]): the
/// masks of all words live in one arena, and the scratch a page needs is
/// kept and reused page after page.
#[derive(Debug, Clone, Default)]
pub struct PageFilter {
    arity: usize,
    /// Per word, its range of `columns`, most restrictive first.
    words: Vec<Range<usize>>,
    columns: Vec<MaskColumn>,
    /// Every column's masks, back to back.
    masks: Vec<u64>,
    /// Some disjunct admits every row.
    every_row: bool,
    /// Disjuncts interpreted per row.
    generic: Vec<Pred>,
    /// Per selected row, the bits of its word still standing.
    acc: Vec<u64>,
    /// One word's selection, and per row whether some disjunct took it,
    /// when a page's selection is a union.
    part: Vec<u32>,
    taken: Vec<bool>,
}

impl PageFilter {
    /// Compile `filter` for rows of `col_max.len()` columns whose codes
    /// `col_max` bounds, column by column.
    pub fn compile(filter: &Pred, col_max: &[Code]) -> PageFilter {
        let arity = col_max.len();
        let disjuncts = match filter {
            Pred::Or(children) => children.as_slice(),
            other => std::slice::from_ref(other),
        };
        let mut out = PageFilter {
            arity,
            ..PageFilter::default()
        };
        // Each atom-only disjunct's range of `atoms`.
        let mut atoms = Vec::new();
        let mut spans = Vec::new();
        for pred in disjuncts {
            let start = atoms.len();
            if *pred == Pred::False {
                continue;
            }
            let atom_only = conjunction_atoms(pred, &mut atoms)
                && atoms
                    .get(start..)
                    .unwrap_or(&[])
                    .iter()
                    .all(|a| a.col < arity);
            if atom_only {
                spans.push(start..atoms.len());
            } else {
                atoms.truncate(start);
                out.generic.push(pred.clone());
            }
        }
        let mut tested = Vec::new();
        for word in spans.chunks(WORD_BITS) {
            let live = u64::MAX >> (WORD_BITS - word.len());
            let word_atoms = |bit: usize| word.get(bit).and_then(|span| atoms.get(span.clone()));
            tested.clear();
            tested.extend(
                (0..word.len())
                    .flat_map(word_atoms)
                    .flatten()
                    .map(|a| a.col),
            );
            tested.sort_unstable();
            tested.dedup();
            let first = out.columns.len();
            let mut always = live;
            for &col in &tested {
                let values = col_max.get(col).map_or(0, |&max| usize::from(max) + 1);
                let start = out.masks.len();
                out.masks.resize(start + values, live);
                let (_, masks) = out.masks.split_at_mut(start);
                for (bit, span) in word.iter().enumerate() {
                    let clear = !(1u64 << bit);
                    let on_col = atoms.get(span.clone()).unwrap_or(&[]).iter();
                    for atom in on_col.filter(|a| a.col == col) {
                        let value = usize::from(atom.value);
                        if atom.eq {
                            let others = masks.iter_mut().enumerate().filter(|(v, _)| *v != value);
                            others.for_each(|(_, m)| *m &= clear);
                        } else if let Some(m) = masks.get_mut(value) {
                            *m &= clear;
                        }
                    }
                }
                if masks.iter().all(|&m| m == live) {
                    // Every disjunct of the word admits every value.
                    out.masks.truncate(start);
                    continue;
                }
                always &= masks.iter().fold(live, |and, &m| and & m);
                let per_value = |n: usize| ((n as u64) << 20) / masks.len() as u64;
                let admitting = per_value(masks.iter().filter(|&&m| m != 0).count());
                let admitted = per_value(masks.iter().map(|m| m.count_ones() as usize).sum());
                out.columns.push(MaskColumn {
                    col,
                    masks: start..out.masks.len(),
                    rank: admitting << 32 | admitted,
                });
            }
            // Most restrictive first: the fewest values that admit some
            // disjunct, then the fewest disjuncts a value admits, both per
            // value (in 2^-20ths; the order moves no selection).
            if let Some(columns) = out.columns.get_mut(first..) {
                columns.sort_unstable_by_key(|column| column.rank);
            }
            out.every_row |= always != 0;
            out.words.push(first..out.columns.len());
        }
        out
    }

    /// Leave in `sel` the rows of `rows` — packed row-major, the arity's
    /// codes each, read in place — that satisfy the filter, ascending.
    pub fn select(&mut self, rows: &[Code], sel: &mut Vec<u32>) {
        let nrows = rows.len().checked_div(self.arity).unwrap_or(0) as u32;
        sel.clear();
        if self.generic.is_empty() {
            if self.every_row {
                sel.extend(0..nrows);
                return;
            }
            if let [word] = self.words.as_slice() {
                let columns = self.columns.get(word.clone()).unwrap_or(&[]);
                narrow(columns, &self.masks, rows, self.arity, sel, &mut self.acc);
                return;
            }
        }
        // The union of the words' selections and the generic disjuncts'.
        let taken = &mut self.taken;
        taken.clear();
        taken.resize(nrows as usize, self.every_row);
        if !self.every_row {
            for word in &self.words {
                let columns = self.columns.get(word.clone()).unwrap_or(&[]);
                narrow(
                    columns,
                    &self.masks,
                    rows,
                    self.arity,
                    &mut self.part,
                    &mut self.acc,
                );
                for &r in &self.part {
                    if let Some(taken) = taken.get_mut(r as usize) {
                        *taken = true;
                    }
                }
            }
        }
        let arity = self.arity;
        for pred in &self.generic {
            for (r, taken) in (0..).zip(taken.iter_mut()) {
                let hit = pred.eval_with(&|col| ColumnView::row_major(rows, arity, col).get(r));
                *taken |= hit;
            }
        }
        sel.extend(
            (0..)
                .zip(taken.iter())
                .filter_map(|(r, &taken)| taken.then_some(r)),
        );
    }
}

/// Leave in `sel` the rows of `rows` (row-major, `arity` codes each) that
/// one word's `columns` — masks in `masks` — leave a bit standing for,
/// ascending; `acc` is the bits' scratch.
fn narrow(
    columns: &[MaskColumn],
    masks: &[u64],
    rows: &[Code],
    arity: usize,
    sel: &mut Vec<u32>,
    acc: &mut Vec<u64>,
) {
    let nrows = rows.len().checked_div(arity).unwrap_or(0);
    sel.clear();
    let Some((first, rest)) = columns.split_first() else {
        sel.extend(0..nrows as u32);
        return;
    };
    // The first column reads every row in turn.
    sel.resize(nrows, 0);
    if acc.len() < nrows {
        acc.resize(nrows, 0);
    }
    let table = masks.get(first.masks.clone()).unwrap_or(&[]);
    let codes = rows.get(first.col..).unwrap_or(&[]).iter().step_by(arity);
    let mut kept = 0;
    for (r, &code) in (0..nrows as u32).zip(codes) {
        let bits = table.get(usize::from(code)).copied().unwrap_or(0);
        if let (Some(row), Some(acc)) = (sel.get_mut(kept), acc.get_mut(kept)) {
            (*row, *acc) = (r, bits);
        }
        kept += usize::from(bits != 0);
    }
    sel.truncate(kept);
    // Each later one reads the rows still selected, and compacts them in
    // place: a row is written at or before where it was read.
    for column in rest {
        if sel.is_empty() {
            return;
        }
        let table = masks.get(column.masks.clone()).unwrap_or(&[]);
        let rows_at = Cell::from_mut(sel.as_mut_slice()).as_slice_of_cells();
        let bits_at = Cell::from_mut(acc.as_mut_slice()).as_slice_of_cells();
        let mut kept = 0;
        for (row, bits) in rows_at.iter().zip(bits_at) {
            let r = row.get();
            let code = rows.get(r as usize * arity + column.col);
            let mask = code.and_then(|&code| table.get(usize::from(code)));
            let left = bits.get() & mask.copied().unwrap_or(0);
            if let (Some(row), Some(bits)) = (rows_at.get(kept), bits_at.get(kept)) {
                row.set(r);
                bits.set(left);
            }
            kept += usize::from(left != 0);
        }
        sel.truncate(kept);
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

    /// The block router visits only trie nodes some row reached: a wide
    /// frontier over a short block costs rows × depth, not the frontier.
    #[test]
    fn block_router_visits_no_node_without_rows() {
        // The leaves of a binary tree 12 levels deep, one column a level.
        let depth = 12;
        let leaves: Vec<Pred> = (0..3000u32)
            .map(|leaf| {
                let edge = |col: usize| match leaf >> col & 1 {
                    0 => Pred::Eq { col, value: 0 },
                    _ => Pred::NotEq { col, value: 0 },
                };
                Pred::And((0..depth).map(edge).collect())
            })
            .collect();
        let set = PredSet::new(&leaves);
        assert_eq!(set.slots_per_row, 1 + 2 * depth);
        let nrows = 64;
        let flat: Vec<Code> = (0..nrows * depth)
            .map(|i| ((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 37) as Code & 1)
            .collect();
        let mut route = BlockRoute::default();
        let column = |col| ColumnView {
            codes: &flat[col..],
            stride: depth,
        };
        set.route_block(nrows, column, &mut route);
        // (Every visit also passed `debug_assert!(!sel.is_empty())`.)
        assert!(
            route.visits <= nrows * (depth + 1),
            "{} visits",
            route.visits
        );
        assert!(route.top <= nrows * set.slots_per_row);
        let mut routed = Vec::new();
        for (leaf, sel) in route.selections() {
            for &r in sel {
                set.route(&flat[r as usize * depth..][..depth], &mut routed);
                assert_eq!(routed, [leaf]);
            }
        }
    }

    /// The page filter tests only columns that can reject a row, the most
    /// restrictive first, and takes a page whole for a disjunct no column
    /// rejects.
    #[test]
    fn page_filter_tests_the_columns_that_reject_most_first() {
        let col_max = [9, 9, 9];
        let tested = |filter: &Pred| {
            let compiled = PageFilter::compile(filter, &col_max);
            let columns: Vec<usize> = compiled.columns.iter().map(|c| c.col).collect();
            (compiled.words.len(), columns, compiled.every_row)
        };
        // `b = 2` admits one value in ten, `a <> 1` nine: `b` goes first,
        // and `c <> 12` (past the certificate) admits every row.
        let path = Pred::And(vec![
            Pred::NotEq { col: 0, value: 1 },
            Pred::Eq { col: 1, value: 2 },
            Pred::NotEq { col: 2, value: 12 },
        ]);
        assert_eq!(tested(&path), (1, vec![1, 0], false));
        // `True` among the disjuncts: the whole page, whatever the masks.
        let or_true = Pred::Or(vec![path.clone(), Pred::True]);
        assert!(tested(&or_true).2);
        let rows: Vec<Code> = (0..30).map(|i| i % 10).collect();
        let mut sel = Vec::new();
        PageFilter::compile(&or_true, &col_max).select(&rows, &mut sel);
        assert_eq!(sel, (0..10).collect::<Vec<u32>>());
        // `False` and the empty `Or` select nothing and test nothing.
        assert_eq!(tested(&Pred::False), (0, vec![], false));
        assert_eq!(tested(&Pred::Or(vec![])), (0, vec![], false));
        // 65 disjuncts take two words, each testing its own columns.
        let many: Vec<Pred> = (0..65)
            .map(|v| Pred::Eq {
                col: v / 64,
                value: 0,
            })
            .collect();
        assert_eq!(tested(&Pred::Or(many)), (2, vec![0, 1], false));
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
