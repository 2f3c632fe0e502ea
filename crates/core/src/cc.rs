//! CC tables — the sufficient statistics of §2.2.
//!
//! A CC (counts) table is the 4-column relation
//! `(attr_name, value, class, count)`: for every attribute present at a
//! tree node, the number of co-occurrences of each of its values with each
//! class value. Observation 1 of the paper: building this table is the
//! *only* operation that touches the data; all split scoring is computed
//! from it.
//!
//! Two physical representations back the same logical table:
//!
//! * **Sparse** — an ordered tree keyed by `(attr, value, class)`, as in
//!   the paper's implementation (§5). Handles arbitrary cardinalities;
//!   every `add_row` pays one `BTreeMap::entry` tree walk per attribute.
//! * **Dense** — when the attribute and class cardinalities are known (the
//!   scheduler takes them from the schema), counts live in one flat
//!   `Vec<u64>` indexed by `offset[attr] + value * n_classes + class`, so
//!   `add_row` is a handful of array increments. Any out-of-range code
//!   spills the table back to the sparse form, entry for entry, so the
//!   dense path is an invisible fast path rather than a semantic variant.
//!
//! The *modelled* memory footprint is entry-based (`CC_ENTRY_BYTES` ×
//! occupied slots, tracked by an occupancy counter) in **both**
//! representations: the §4.1.1 budget fallback, pressure eviction, and
//! scheduler accounting fire at exactly the same rows regardless of the
//! backend. Property tests in `tests/props.rs` pin this bit-identity.

use crate::error::{MwError, MwResult};
use crate::request::DataLocation;
use scaleclass_sqldb::{Code, ColumnView};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Modelled in-memory footprint of one counts-table entry: a 6-byte key,
/// an 8-byte count, and balanced-tree node overhead, rounded to the figure
/// the scheduler budgets with.
///
/// Deterministic by design — the experiments sweep the memory budget and
/// must not depend on allocator details (or on which physical
/// representation holds the counts).
pub const CC_ENTRY_BYTES: u64 = 48;

/// Reusable scratch of the block kernel ([`CountsTable::add_rows`]).
#[derive(Debug, Default)]
pub(crate) struct KernelScratch {
    /// Rows per class code of the rows being counted; all zero between
    /// calls.
    tally: Vec<u64>,
    /// The class code of each row being counted, in row order.
    classes: Vec<Code>,
}

/// Physical bytes one dense slot occupies (`u64` count).
const DENSE_SLOT_BYTES: u64 = 8;

/// Key of one counts-table entry.
pub type CcKey = (u16, Code, Code); // (attr column, value, class)

/// Telemetry from one [`CountsTable::add_block`] call. The nano fields
/// split the kernel time into the hoisted validation scan and the
/// accumulate loops (class totals included); both are wall-clock timing
/// and are excluded from determinism comparisons.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockOutcome {
    /// Nanoseconds spent in the hoisted range-validation max-scan.
    pub validate_nanos: u64,
    /// Nanoseconds spent in the kernel proper: reading the codes in place
    /// and incrementing (dense slots and class tally, or sparse run
    /// detection).
    pub accumulate_nanos: u64,
}

/// Physical footprint of a dense counts array over attributes with the
/// given value cardinalities: `Σ card × n_classes` slots of 8 bytes. The
/// scheduler compares this against `cc_dense_max_bytes` to decide the
/// backend; saturating so absurd cardinalities simply disqualify.
pub fn dense_physical_bytes(cards: impl IntoIterator<Item = u64>, n_classes: u64) -> u64 {
    cards
        .into_iter()
        .fold(0u64, |acc, card| {
            acc.saturating_add(card.saturating_mul(n_classes))
        })
        .saturating_mul(DENSE_SLOT_BYTES)
}

/// The immutable slot geometry of a dense counts array, shared (via `Arc`)
/// by every clone of a table. The one owner of the slot formula `offset + value·n_classes + class`
/// ([`DenseLayout::slot`]), of an attribute's slot range
/// ([`DenseLayout::span`]) and of the range check of codes against the
/// layout ([`DenseLayout::covers`]).
#[derive(Debug)]
struct DenseLayout {
    /// Tracked attribute columns, ascending (iteration order).
    attrs: Vec<u16>,
    /// Per column id: a tracked attribute's first slot and value
    /// cardinality (exclusive code bound); `None` for an untracked column.
    cols: Vec<Option<(u32, u32)>>,
    /// Class cardinality (exclusive class-code bound).
    n_classes: u32,
    /// Total slots.
    slots: u32,
}

impl DenseLayout {
    /// Build a layout, or `None` when the geometry doesn't fit the dense
    /// form (no classes, or a slot count beyond `u32`).
    fn build(attr_cards: &[(u16, u64)], n_classes: u64) -> Option<DenseLayout> {
        let n_classes = u32::try_from(n_classes).ok().filter(|&n| n != 0)?;
        let mut sorted: Vec<(u16, u64)> = attr_cards.to_vec();
        sorted.sort_unstable_by_key(|&(a, _)| a);
        sorted.dedup_by_key(|&mut (a, _)| a);
        let max_col = sorted.last().map_or(0, |&(a, _)| usize::from(a) + 1);
        let mut cols = vec![None; max_col];
        let mut next: u32 = 0;
        for &(attr, card) in &sorted {
            let card = u32::try_from(card).ok()?;
            *cols.get_mut(usize::from(attr))? = Some((next, card));
            next = next.checked_add(card.checked_mul(n_classes)?)?;
        }
        Some(DenseLayout {
            attrs: sorted.iter().map(|&(a, _)| a).collect(),
            cols,
            n_classes,
            slots: next,
        })
    }

    /// The slot counting `(attr, value, class)`, or `None` when the layout
    /// does not hold it: `attr` untracked, or a code at or past its
    /// cardinality.
    #[inline]
    fn slot(&self, attr: u16, value: Code, class: Code) -> Option<usize> {
        let &(offset, card) = self.cols.get(usize::from(attr))?.as_ref()?;
        let (value, class) = (u32::from(value), u32::from(class));
        // `build` proved `offset + card·n_classes` fits the `u32` slot count.
        (value < card && class < self.n_classes)
            .then(|| (offset + value * self.n_classes + class) as usize)
    }

    /// The slots of one tracked attribute: `card · n_classes` of them, value
    /// row after value row.
    fn span(&self, attr: u16) -> Option<Range<usize>> {
        let &(offset, card) = self.cols.get(usize::from(attr))?.as_ref()?;
        let start = offset as usize;
        Some(start..start + (card * self.n_classes) as usize)
    }

    /// Does the layout hold every code at or under `col_max`, per column,
    /// in the class column and the columns of `attrs`? That is, is the
    /// class bound below `n_classes` and every attribute tracked, its bound
    /// below its cardinality? A row is its own bound.
    fn covers(&self, col_max: &[Code], attrs: &[u16], class_col: u16) -> bool {
        let max_of = |col: u16| col_max.get(usize::from(col)).copied();
        max_of(class_col).is_some_and(|class| {
            u32::from(class) < self.n_classes
                && (attrs.iter())
                    .all(|&attr| max_of(attr).is_some_and(|v| self.slot(attr, v, class).is_some()))
        })
    }

    /// The slot of each attribute of `attrs` that `row` counts in, skipping
    /// any the layout does not hold — none, once [`DenseLayout::covers`]
    /// holds of the row.
    fn row_slots<'a>(
        &'a self,
        row: &'a [Code],
        attrs: &'a [u16],
        class_col: u16,
    ) -> impl Iterator<Item = usize> + 'a {
        let class = row.get(usize::from(class_col)).copied();
        (attrs.iter())
            .filter_map(move |&attr| self.slot(attr, *row.get(usize::from(attr))?, class?))
    }
}

/// Dense counts: one flat slot array over a shared layout, plus the
/// occupancy counter that keeps the modelled memory entry-based.
#[derive(Debug, Clone)]
struct DenseCounts {
    layout: Arc<DenseLayout>,
    slots: Vec<u64>,
    /// Non-zero slots — the "entries" the scheduler's memory model counts.
    occupied: usize,
}

impl DenseCounts {
    fn new(layout: Arc<DenseLayout>) -> DenseCounts {
        let n = layout.slots as usize;
        DenseCounts {
            layout,
            slots: vec![0; n],
            occupied: 0,
        }
    }

    /// Count one row. Returns `false` — without touching any slot — when a
    /// code falls outside the layout (caller spills to sparse and
    /// re-counts); the check-then-increment split keeps the operation
    /// all-or-nothing so no partial increments survive a spill.
    #[inline]
    fn add_row(&mut self, row: &[Code], attrs: &[u16], class_col: u16) -> bool {
        let l = &*self.layout;
        if !l.covers(row, attrs, class_col) {
            return false;
        }
        let mut newly = 0usize;
        for slot in l.row_slots(row, attrs, class_col) {
            if let Some(s) = self.slots.get_mut(slot) {
                newly += usize::from(*s == 0);
                *s += 1;
            }
        }
        self.occupied += newly;
        true
    }

    /// Un-count one row: the signed inverse of [`DenseCounts::add_row`].
    /// Returns `false` — without touching any slot — when a code falls
    /// outside the layout **or** any targeted slot is already zero (the
    /// row was never counted here); the validate-then-decrement split
    /// keeps the operation all-or-nothing, so a rejected removal leaves
    /// the table exactly as it was. `occupied` shrinks on every `1 → 0`
    /// transition, mirroring `add_row`'s `0 → 1` growth, so the modelled
    /// memory can shrink under deletes.
    #[inline]
    fn remove_row(&mut self, row: &[Code], attrs: &[u16], class_col: u16) -> bool {
        let l = &*self.layout;
        let empty = |slot: usize| self.slots.get(slot).is_none_or(|&n| n == 0);
        if !l.covers(row, attrs, class_col) || l.row_slots(row, attrs, class_col).any(empty) {
            return false;
        }
        let mut freed = 0usize;
        for slot in l.row_slots(row, attrs, class_col) {
            if let Some(s) = self.slots.get_mut(slot) {
                *s -= 1;
                freed += usize::from(*s == 0);
            }
        }
        self.occupied -= freed;
        true
    }

    /// Add `n` to one entry; `false` when the key is out of range.
    ///
    /// `occupied` counts *non-zero* slots, so a zero `n` landing on an
    /// empty slot must not count it as newly occupied — the `n > 0` term
    /// in the newly-counting mirrors `add_row`'s `0 → 1` transition
    /// exactly even though `CountsTable::bump` already screens `n == 0`
    /// (the screen is a caller convention, not a contract this method may
    /// rely on).
    #[inline]
    fn bump(&mut self, attr: u16, value: Code, class: Code, n: u64) -> bool {
        let slot = self.layout.slot(attr, value, class);
        let Some(s) = slot.and_then(|slot| self.slots.get_mut(slot)) else {
            return false;
        };
        self.occupied += usize::from(*s == 0 && n > 0);
        *s += n;
        true
    }

    /// The dense kernel: count `rows` of a block, whose class codes are
    /// `classes`, reading each attribute column in place through its
    /// strided view — one increment of `base + value·n_classes + class` per
    /// row and attribute, branch-light. The caller has proved every
    /// attr tracked and every code of those rows inside the layout
    /// ([`DenseLayout::covers`] of the scan's range certificate, or of the
    /// block's column maxima); the kernel does not check again.
    fn add_rows<'b>(
        &mut self,
        rows: impl Iterator<Item = u32> + Clone,
        column: impl Fn(usize) -> ColumnView<'b>,
        attrs: &[u16],
        classes: &[Code],
    ) {
        let l = &*self.layout;
        let nc = usize::try_from(l.n_classes).unwrap_or(usize::MAX);
        let mut newly = 0usize;
        for &attr in attrs {
            // analyze:allow(hot-path-panic): the caller proved `attr`
            // tracked.
            let base = l.span(attr).expect("a covered attribute").start;
            let col = column(usize::from(attr));
            for (r, &k) in rows.clone().zip(classes) {
                // analyze:allow(accounting-arith): hot kernel increment —
                // base + value·n_classes + class < slots was proved by the
                // caller's range check, so the arithmetic cannot overflow.
                let slot = base + usize::from(col.get(r)) * nc + usize::from(k);
                // analyze:allow(hot-path-panic): slot < layout.slots per the
                // caller's range check; slots holds exactly that many.
                let s = &mut self.slots[slot];
                // analyze:allow(accounting-arith): hot accumulate — newly is
                // bounded by the rows counted and the count by total rows
                // ever seen; neither can overflow its word.
                newly += usize::from(*s == 0);
                *s += 1; // analyze:allow(accounting-arith): hot accumulate increment, bounded by rows seen
            }
        }
        // analyze:allow(accounting-arith): occupied ≤ slots ≤ u32::MAX.
        self.occupied += newly;
    }

    #[inline]
    fn get(&self, attr: u16, value: Code, class: Code) -> u64 {
        let slot = self.layout.slot(attr, value, class);
        slot.and_then(|slot| self.slots.get(slot)).map_or(0, |&n| n)
    }

    /// The slot sub-slice of one tracked attribute.
    fn attr_slots(&self, attr: u16) -> Option<&[u64]> {
        self.slots.get(self.layout.span(attr)?)
    }

    /// [`DenseCounts::attr_slots`], to write.
    fn attr_slots_mut(&mut self, attr: u16) -> Option<&mut [u64]> {
        self.slots.get_mut(self.layout.span(attr)?)
    }

    /// One tracked attribute's slots as value rows: chunk `v` holds the
    /// class counts of `attr = v`, `n_classes` wide, in place.
    fn attr_rows(&self, attr: u16) -> Option<std::slice::ChunksExact<'_, u64>> {
        // `DenseLayout::build` rejects `n_classes == 0`, so the chunk
        // width is never zero.
        Some(
            self.attr_slots(attr)?
                .chunks_exact(self.layout.n_classes as usize),
        )
    }

    /// [`CountsTable::attr_vector`] of a dense table.
    fn attr_vector(&self, attr: u16) -> AttrVector<'_> {
        AttrVector(match self.attr_slots(attr) {
            Some(slots) => AttrVecInner::Dense {
                slots: slots.iter().enumerate(),
                n_classes: self.layout.n_classes as usize,
            },
            None => AttrVecInner::Empty,
        })
    }

    /// Non-zero entries in `(attr, value, class)` order.
    fn entries(&self) -> Entries<'_> {
        Entries(EntriesInner::Dense {
            d: self,
            attrs: self.layout.attrs.iter(),
            at: None,
        })
    }
}

/// The physical backing of a counts table.
#[derive(Debug, Clone)]
enum CcRepr {
    Sparse(BTreeMap<CcKey, u64>),
    Dense(DenseCounts),
}

impl Default for CcRepr {
    fn default() -> Self {
        CcRepr::Sparse(BTreeMap::new())
    }
}

impl CcRepr {
    /// [`CountsTable::attr_vector`], borrowing only the entries — so the
    /// table's totals can be rebuilt while it is walked.
    fn attr_vector(&self, attr: u16) -> AttrVector<'_> {
        match self {
            CcRepr::Sparse(map) => AttrVector(AttrVecInner::Sparse(
                map.range((attr, 0, 0)..=(attr, Code::MAX, Code::MAX)),
            )),
            CcRepr::Dense(d) => d.attr_vector(attr),
        }
    }
}

/// A counts table for one tree node.
#[derive(Debug, Clone, Default)]
pub struct CountsTable {
    repr: CcRepr,
    /// Total rows counted (each row increments this once).
    total: u64,
    /// Rows per class value at this node.
    class_totals: BTreeMap<Code, u64>,
}

impl CountsTable {
    /// An empty sparse counts table.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty dense counts table over the given `(attr column, value
    /// cardinality)` pairs and class cardinality. Cardinalities are
    /// *exclusive code bounds* — schema cardinalities, not the distinct
    /// counts at some tree node. Falls back to a sparse table when the
    /// geometry cannot be densified (zero classes, `u32` slot overflow).
    pub fn new_dense(attr_cards: &[(u16, u64)], n_classes: u64) -> Self {
        match DenseLayout::build(attr_cards, n_classes) {
            Some(layout) => CountsTable {
                repr: CcRepr::Dense(DenseCounts::new(Arc::new(layout))),
                total: 0,
                class_totals: BTreeMap::new(),
            },
            None => CountsTable::new(),
        }
    }

    /// Is this table currently backed by the dense array?
    pub fn is_dense(&self) -> bool {
        matches!(self.repr, CcRepr::Dense(_))
    }

    /// Convert a dense table to the sparse form, entry for entry. No-op on
    /// sparse tables. Occupancy equals map length, so the modelled memory
    /// is unchanged.
    fn spill_to_sparse(&mut self) {
        if let CcRepr::Dense(d) = &self.repr {
            let map: BTreeMap<CcKey, u64> = d.entries().collect();
            debug_assert_eq!(map.len(), d.occupied);
            self.repr = CcRepr::Sparse(map);
        }
    }

    /// Count one data row: for every attribute column in `attrs`, record the
    /// co-occurrence of its value with the row's class value.
    #[inline]
    pub fn add_row(&mut self, row: &[Code], attrs: &[u16], class_col: u16) {
        let class = row[class_col as usize];
        if let CcRepr::Dense(d) = &mut self.repr {
            if !d.add_row(row, attrs, class_col) {
                self.spill_to_sparse();
            }
        }
        if let CcRepr::Sparse(map) = &mut self.repr {
            for &attr in attrs {
                // analyze:allow(hot-path-panic): requests are validated
                // against the schema arity before scheduling; every attr
                // column exists in a decoded row.
                *map.entry((attr, row[attr as usize], class)).or_insert(0) += 1;
            }
        }
        *self.class_totals.entry(class).or_insert(0) += 1;
        self.total += 1;
    }

    /// Un-count one data row: the signed inverse of
    /// [`CountsTable::add_row`], used by the incremental-maintenance path
    /// to apply DELETE events (DESIGN.md §15). Returns `false` — with the
    /// table untouched — when the row was never counted here (some entry,
    /// class total, or the row total would underflow); that signals a
    /// corrupt delta stream and callers must escalate rather than continue.
    /// Entries, occupancy, and therefore [`CountsTable::memory_bytes`] may
    /// shrink; budget *admission* is unaffected (released bytes simply
    /// return to the lease at the next reconcile).
    pub fn remove_row(&mut self, row: &[Code], attrs: &[u16], class_col: u16) -> bool {
        let class = row[class_col as usize];
        if self.total == 0 || self.class_totals.get(&class).is_none_or(|&n| n == 0) {
            return false;
        }
        match &mut self.repr {
            CcRepr::Dense(d) => {
                if !d.remove_row(row, attrs, class_col) {
                    return false;
                }
            }
            CcRepr::Sparse(map) => {
                // Validate-then-decrement so a rejected removal leaves no
                // partial mutation behind.
                for &attr in attrs {
                    // analyze:allow(hot-path-panic): delta rows are full
                    // arity by construction (the delta log stores complete
                    // row images), so attr < row.len().
                    let key = (attr, row[attr as usize], class);
                    if map.get(&key).is_none_or(|&n| n == 0) {
                        return false;
                    }
                }
                for &attr in attrs {
                    // analyze:allow(hot-path-panic): same full-arity
                    // argument as the validation loop above.
                    let key = (attr, row[attr as usize], class);
                    // analyze:allow(hot-path-panic): the validation loop
                    // above proved the entry exists with a non-zero count.
                    let n = map.get_mut(&key).expect("validated entry");
                    *n -= 1;
                    if *n == 0 {
                        map.remove(&key);
                    }
                }
            }
        }
        // analyze:allow(hot-path-panic): presence with a non-zero count was
        // checked before any representation was touched.
        let t = self.class_totals.get_mut(&class).expect("validated class");
        *t -= 1;
        if *t == 0 {
            self.class_totals.remove(&class);
        }
        self.total -= 1;
        true
    }

    /// Count a whole column block: `cols` holds one `&[Code]` slice per
    /// table column (only the `attrs` entries and `cols[class_col]` are
    /// read, so other entries may be empty), all of the block's row count.
    /// Equivalent to calling [`add_row`](Self::add_row) once per block
    /// row, in row order — the dense backend takes one max-scan per read
    /// column and asks `covers` of those maxima as a scan asks it of its
    /// certificate; when some code escapes the layout it spills to sparse
    /// first, which ends with the entries, class totals and total a spill
    /// at that code's row ends with. Then the block kernel the executor's
    /// scans run counts every row.
    ///
    /// # Panics
    ///
    /// On a ragged block — an attribute column missing or of another
    /// length than the class column — or one of more rows than a `u32`
    /// indexes, before any count is touched.
    pub fn add_block(&mut self, cols: &[&[Code]], class_col: u16, attrs: &[u16]) -> BlockOutcome {
        let class: &[Code] = cols[usize::from(class_col)];
        let nrows = u32::try_from(class.len()).unwrap_or(u32::MAX);
        assert!(
            attrs.iter().all(|&a| {
                cols.get(usize::from(a))
                    .is_some_and(|c| c.len() == class.len())
            }) && usize::try_from(nrows) == Ok(class.len()),
            "ragged block: every attribute column must hold the class column's {} codes, \
             at most u32::MAX",
            class.len()
        );
        let mut out = BlockOutcome::default();
        if nrows == 0 {
            return out;
        }
        if self.is_dense() {
            let t0 = Instant::now();
            // The block's own column maxima are its certificate; a column
            // no count reads bounds nothing and stays 0.
            let mut col_max = vec![0; cols.len()];
            for &c in attrs.iter().chain([&class_col]) {
                let c = usize::from(c);
                if let (Some(max), Some(col)) = (col_max.get_mut(c), cols.get(c)) {
                    *max = col.iter().copied().max().unwrap_or(0);
                }
            }
            if !self.covers(&col_max, attrs, class_col) {
                self.spill_to_sparse();
            }
            out.validate_nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
        let t0 = Instant::now();
        // The assert above proved every read column `nrows` codes long.
        let column = |c: usize| ColumnView {
            codes: cols[c],
            stride: 1,
        };
        self.add_rows(
            0..nrows,
            column,
            attrs,
            class_col,
            &mut KernelScratch::default(),
        );
        out.accumulate_nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        out
    }

    /// The block kernel: count `rows` of a block whose column `c` is
    /// `column(c)` — every row for [`add_block`](Self::add_block), a node's
    /// selection for the executor's route-then-count pass — reading each
    /// code where it lies except the class column, which it reads once
    /// into `scratch`. A dense table tallies those class codes densely and
    /// folds the tally into the class totals once per class present, then
    /// runs [`DenseCounts::add_rows`]; a sparse one amortizes its tree
    /// walks by run detection. No range check and no timers — both are the
    /// caller's: a dense table must already be known to hold every code
    /// of these rows ([`covers`](Self::covers) of the scan), under
    /// which it cannot spill, so the result equals one
    /// [`add_row`](Self::add_row) per row in row order.
    pub(crate) fn add_rows<'b, R>(
        &mut self,
        rows: R,
        column: impl Fn(usize) -> ColumnView<'b>,
        attrs: &[u16],
        class_col: u16,
        scratch: &mut KernelScratch,
    ) where
        R: ExactSizeIterator<Item = u32> + Clone,
    {
        let class = column(usize::from(class_col));
        let KernelScratch { tally, classes } = scratch;
        classes.clear();
        classes.extend(rows.clone().map(|r| class.get(r)));
        match &mut self.repr {
            CcRepr::Dense(d) => {
                // Class codes are `Code`s, so no tally needs more entries
                // than the code space, whatever the layout declares.
                let nc = usize::try_from(d.layout.n_classes)
                    .unwrap_or(usize::MAX)
                    .min(1 << Code::BITS);
                if tally.len() < nc {
                    tally.resize(nc, 0);
                }
                let tally = &mut tally[..nc];
                for &k in classes.iter() {
                    // analyze:allow(hot-path-panic): the caller proved every
                    // class code below n_classes; a breach panics here, before
                    // any slot is touched, rather than counting wrongly.
                    // analyze:allow(accounting-arith): a tally is bounded by
                    // the rows of one call.
                    tally[usize::from(k)] += 1;
                }
                for (k, n) in (0..=Code::MAX).zip(tally.iter_mut()) {
                    let n = std::mem::take(n);
                    if n != 0 {
                        let total = self.class_totals.entry(k).or_insert(0);
                        *total = total.saturating_add(n);
                    }
                }
                d.add_rows(rows.clone(), column, attrs, classes);
            }
            CcRepr::Sparse(map) => {
                for &attr in attrs {
                    let col = column(usize::from(attr));
                    let keys = rows.clone().zip(classes.iter());
                    add_runs(map, keys.map(|(r, &k)| (attr, col.get(r), k)));
                }
                add_runs(&mut self.class_totals, classes.iter().copied());
            }
        }
        self.total = self
            .total
            .saturating_add(u64::try_from(rows.len()).unwrap_or(u64::MAX));
    }

    /// Can no code of a scan spill this table out of its dense form?
    /// `col_max[c]` bounds every code the scan reads in column `c` (its
    /// source table's range certificate, or a block's column maxima for
    /// [`add_block`](Self::add_block)). True for a sparse table (nothing
    /// to spill); for a dense one, [`DenseLayout::covers`]. This is the
    /// precondition of [`block_growth_bound`](Self::block_growth_bound)'s
    /// free-slot cap and of [`add_rows`](Self::add_rows); a scan settles
    /// it once per node when it certifies, and while it fails every row
    /// the node selects takes the executor's exact one-row step, so the
    /// spill fires at the row it always did.
    pub(crate) fn covers(&self, col_max: &[Code], attrs: &[u16], class_col: u16) -> bool {
        match &self.repr {
            CcRepr::Dense(d) => d.layout.covers(col_max, attrs, class_col),
            CcRepr::Sparse(_) => true,
        }
    }

    /// Upper bound, in modelled bytes, on how much this table can grow by
    /// counting `rows` of its own rows (a node's selection out of a block,
    /// not the block) over `n_attrs` attributes. Each counted row creates
    /// at most one entry per attribute; a dense table, in addition, cannot
    /// create more entries than it has empty slots — **provided no code of
    /// those rows falls outside its layout**, since a spill to sparse can
    /// mint entries the slot array has no room for. Callers establish that
    /// with `covers` first and count the rows of a table that fails it one
    /// at a time. Budget checkpoints use the bound to
    /// decide whether a whole block can be counted with no chance of
    /// crossing the memory budget mid-block.
    pub fn block_growth_bound(&self, rows: u64, n_attrs: usize) -> u64 {
        let by_rows = rows.saturating_mul(u64::try_from(n_attrs).unwrap_or(u64::MAX));
        let entries = match &self.repr {
            CcRepr::Sparse(_) => by_rows,
            CcRepr::Dense(d) => {
                let free = d.slots.len().saturating_sub(d.occupied);
                by_rows.min(u64::try_from(free).unwrap_or(u64::MAX))
            }
        };
        entries.saturating_mul(CC_ENTRY_BYTES)
    }

    /// Add `n` to one entry through whichever representation is active,
    /// spilling to sparse when dense can't hold the key. Zero counts are
    /// skipped — a zero-count entry carries no information and the dense
    /// form cannot distinguish it from an empty slot.
    fn bump(&mut self, attr: u16, value: Code, class: Code, n: u64) {
        if n == 0 {
            return;
        }
        if let CcRepr::Dense(d) = &mut self.repr {
            if d.bump(attr, value, class, n) {
                return;
            }
            self.spill_to_sparse();
        }
        if let CcRepr::Sparse(map) = &mut self.repr {
            *map.entry((attr, value, class)).or_insert(0) += n;
        }
    }

    /// Record a pre-aggregated count (used when assembling a CC table from
    /// SQL GROUP BY results). Does **not** touch row totals; call
    /// [`CountsTable::set_totals_from_attr`] once after loading one full
    /// attribute. Zero counts are ignored.
    pub fn add_aggregate(&mut self, attr: u16, value: Code, class: Code, count: u64) {
        self.bump(attr, value, class, count);
    }

    /// Record a pre-aggregated per-class row count (used when a node has no
    /// attributes left and only its class distribution is needed). Zero
    /// counts are ignored, as in [`CountsTable::add_aggregate`]: a class no
    /// row carries is not a class of the node.
    pub fn add_class_aggregate(&mut self, class: Code, count: u64) {
        if count == 0 {
            return;
        }
        *self.class_totals.entry(class).or_insert(0) += count;
        self.total += count;
    }

    /// Recompute `total` and per-class totals from the entries of one
    /// attribute (every row has exactly one value per attribute, so one
    /// attribute's counts partition the node's rows).
    pub fn set_totals_from_attr(&mut self, attr: u16) {
        self.class_totals.clear();
        self.total = 0;
        for (_, class, count) in self.repr.attr_vector(attr) {
            *self.class_totals.entry(class).or_insert(0) += count;
            self.total += count;
        }
    }

    /// Count for one `(attr, value, class)` combination.
    pub fn count(&self, attr: u16, value: Code, class: Code) -> u64 {
        match &self.repr {
            CcRepr::Sparse(map) => map.get(&(attr, value, class)).copied().unwrap_or(0),
            CcRepr::Dense(d) => d.get(attr, value, class),
        }
    }

    /// Total rows at the node.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `(class, rows)` pairs at this node, ascending by class code.
    pub fn class_distribution(&self) -> impl Iterator<Item = (Code, u64)> + Clone + '_ {
        self.class_totals.iter().map(|(&c, &n)| (c, n))
    }

    /// Number of distinct class values present.
    pub fn distinct_classes(&self) -> usize {
        self.class_totals.len()
    }

    /// The majority class and its count (`None` for an empty node).
    pub fn majority_class(&self) -> Option<(Code, u64)> {
        self.class_totals
            .iter()
            .max_by_key(|&(_, &n)| n)
            .map(|(&c, &n)| (c, n))
    }

    /// The counts vector for one attribute: `(value, class, count)` in
    /// `(value, class)` order — the paper's "vector of counts for the
    /// states of a class correlated with a particular attribute".
    pub fn attr_vector(&self, attr: u16) -> AttrVector<'_> {
        self.repr.attr_vector(attr)
    }

    /// The class axis this table's value rows are laid over. Dense tables
    /// whose every class lies inside the layout read their rows in place,
    /// position = class code; any other table gathers rows over the classes
    /// present at the node, ascending. Absent classes on the dense axis
    /// count zero in every row, so both axes describe the same
    /// contingency table.
    pub fn class_axis(&self) -> ClassAxis {
        if let CcRepr::Dense(d) = &self.repr {
            let width = d.layout.n_classes as usize;
            let max_class = self.class_totals.keys().next_back().copied();
            if width <= usize::from(Code::MAX) + 1
                && max_class.is_none_or(|c| usize::from(c) < width)
            {
                return ClassAxis(AxisRepr::Codes(width));
            }
        }
        ClassAxis(AxisRepr::Present(
            self.class_totals.keys().copied().collect(),
        ))
    }

    /// Rows per class over `axis` — the node's class distribution as one
    /// more value row (zero where the axis names a class the node lacks).
    pub fn class_row(&self, axis: &ClassAxis) -> Vec<u64> {
        axis.classes()
            .map(|c| self.class_totals.get(&c).copied().unwrap_or(0))
            .collect()
    }

    /// The value rows of `attr`: for each value present at the node,
    /// ascending, its class counts as a slice over `axis` (which must be
    /// this table's [`class_axis`](Self::class_axis)). A dense table hands
    /// out `slots[v·n_classes ..][..n_classes]` in place and never touches
    /// `scratch`; a sparse one gathers each row into `scratch`, reused
    /// from row to row. An attribute the table does not track has no rows.
    pub fn value_rows<'a>(
        &'a self,
        attr: u16,
        axis: &'a ClassAxis,
        scratch: &'a mut Vec<u64>,
    ) -> ValueRows<'a> {
        ValueRows(match (&self.repr, &axis.0) {
            (CcRepr::Dense(d), AxisRepr::Codes(width)) if *width == d.layout.n_classes as usize => {
                RowsInner::InPlace {
                    rows: d.attr_rows(attr).unwrap_or([].chunks_exact(1)),
                    value: 0,
                }
            }
            _ => RowsInner::Gathered {
                entries: self.attr_vector(attr),
                ahead: None,
                axis,
                row: scratch,
            },
        })
    }

    /// Distinct values of `attr` present at this node — `card(n, A)` of
    /// §4.2.1, known exactly once the node's CC table exists.
    pub fn distinct_values(&self, attr: u16) -> u64 {
        match &self.repr {
            CcRepr::Sparse(map) => {
                let mut card = 0;
                let mut last: Option<Code> = None;
                for (&(_, v, _), _) in map.range((attr, 0, 0)..=(attr, Code::MAX, Code::MAX)) {
                    if last != Some(v) {
                        card += 1;
                        last = Some(v);
                    }
                }
                card
            }
            CcRepr::Dense(d) => d.attr_rows(attr).map_or(0, |rows| {
                rows.filter(|row| row.iter().any(|&n| n != 0)).count() as u64
            }),
        }
    }

    /// Rows that would flow to the child reached via `attr = value` — exact
    /// (§4.2.1: "the data size of an active node can be calculated precisely
    /// from the count table of its parent").
    pub fn rows_with_value(&self, attr: u16, value: Code) -> u64 {
        match &self.repr {
            CcRepr::Sparse(map) => map
                .range((attr, value, 0)..=(attr, value, Code::MAX))
                .map(|(_, &n)| n)
                .sum(),
            CcRepr::Dense(d) => d
                .attr_rows(attr)
                .and_then(|mut rows| rows.nth(usize::from(value)))
                .map_or(0, |row| row.iter().sum()),
        }
    }

    /// Rows that would flow to the complement child `attr <> value`.
    pub fn rows_without_value(&self, attr: u16, value: Code) -> u64 {
        self.total - self.rows_with_value(attr, value)
    }

    /// Number of stored entries (non-zero slots when dense) — the unit of
    /// the scheduler's memory model.
    pub fn entries(&self) -> usize {
        match &self.repr {
            CcRepr::Sparse(map) => map.len(),
            CcRepr::Dense(d) => d.occupied,
        }
    }

    /// Has nothing been counted yet?
    pub fn is_empty(&self) -> bool {
        self.entries() == 0 && self.total == 0
    }

    /// Modelled memory footprint in bytes (deterministic; drives the
    /// scheduler's memory accounting). Entry-based in both representations
    /// so budget decisions are independent of the physical backend.
    pub fn memory_bytes(&self) -> u64 {
        self.entries() as u64 * CC_ENTRY_BYTES
    }

    /// Shadow accounting (DESIGN.md §9): recount the modelled footprint
    /// from first principles — walk the live representation and count
    /// non-zero entries, ignoring the incrementally maintained dense
    /// `occupied` counter. Debug checkpoints assert this equals
    /// [`memory_bytes`](Self::memory_bytes); a divergence means an
    /// add/remove path updated slots without updating occupancy (or vice
    /// versa), i.e. the scheduler has been budgeting against a lie.
    pub fn shadow_memory_bytes(&self) -> u64 {
        let entries = match &self.repr {
            CcRepr::Sparse(map) => map.values().filter(|&&n| n != 0).count(),
            CcRepr::Dense(d) => d.slots.iter().filter(|&&s| s != 0).count(),
        };
        entries as u64 * CC_ENTRY_BYTES
    }

    /// Physical bytes the live representation holds (dense slot array vs.
    /// modelled sparse entries) — reporting only, never budgeting.
    pub fn physical_bytes(&self) -> u64 {
        match &self.repr {
            CcRepr::Sparse(map) => map.len() as u64 * CC_ENTRY_BYTES,
            CcRepr::Dense(d) => d.slots.len() as u64 * DENSE_SLOT_BYTES,
        }
    }

    /// Iterate all (non-zero) entries in `(attr, value, class)` order.
    pub fn iter(&self) -> Entries<'_> {
        match &self.repr {
            CcRepr::Sparse(map) => Entries(EntriesInner::Sparse(map.iter())),
            CcRepr::Dense(d) => d.entries(),
        }
    }

    /// Slots of the dense array — what one pass over the table walks; 0
    /// for a sparse table.
    pub(crate) fn dense_slots(&self) -> u64 {
        match &self.repr {
            CcRepr::Dense(d) => d.slots.len() as u64,
            CcRepr::Sparse(_) => 0,
        }
    }

    /// Non-zero entries per tracked attribute of a dense table, ascending
    /// by attribute: the most any table over a subset of its rows can hold
    /// in that attribute (DESIGN.md §12b). Empty for a sparse table.
    pub(crate) fn entries_by_attr(&self) -> Vec<(u16, u64)> {
        let CcRepr::Dense(d) = &self.repr else {
            return Vec::new();
        };
        (d.layout.attrs.iter())
            .filter_map(|&attr| {
                let slots = d.attr_slots(attr)?;
                Some((attr, slots.iter().filter(|&&n| n != 0).count() as u64))
            })
            .collect()
    }

    /// Is this a dense table whose layout tracks every attribute of
    /// `attrs`?
    pub(crate) fn tracks(&self, attrs: &[u16]) -> bool {
        let CcRepr::Dense(d) = &self.repr else {
            return false;
        };
        attrs.iter().all(|&attr| d.layout.span(attr).is_some())
    }

    /// Rows per class code, `n_classes` wide, read exactly off this dense
    /// table (§4.2.1): `[0]` of its child on `attr = value`, `[1]` of the
    /// whole node. `None` when the table is sparse or does not track
    /// `attr`.
    pub(crate) fn class_split(&self, attr: u16, value: Code) -> Option<[Vec<u64>; 2]> {
        let CcRepr::Dense(d) = &self.repr else {
            return None;
        };
        let width = d.layout.n_classes as usize;
        let with =
            (d.attr_rows(attr)?.nth(usize::from(value))).map_or(vec![0; width], <[_]>::to_vec);
        let mut all = vec![0; width];
        for (&class, &n) in &self.class_totals {
            if let Some(slot) = all.get_mut(usize::from(class)) {
                *slot = n;
            }
        }
        Some([with, all])
    }

    /// Complete a table a scan counted in some classes only — in none of
    /// those it holds, for a child derived whole (DESIGN.md §12b) — by
    /// `sources`, per class code: in a [`ClassSource::Parent`]
    /// class add `parent`'s slots, class totals and rows; in a
    /// [`ClassSource::Sibling`] class add `parent`'s less `sibling`'s,
    /// which the scan counted there. `A = v` and `A ≠ v` partition the
    /// parent's rows, and where the node's complement holds no row of a
    /// class every such row of the parent is the node's, so the result is
    /// the table counting every class builds. A class past `sources` is
    /// counted. Returns the rows added.
    ///
    /// # Errors
    ///
    /// [`MwError::Internal`] when a count would underflow or the tables do
    /// not line up — either is sparse, their class axes differ, the parent
    /// does not track an attribute of this table at its cardinality, or a
    /// class comes from a sibling that is missing or does not account for
    /// one: `parent` is not the node's parent's table, or `sibling` not its
    /// sibling's.
    pub(crate) fn complete(
        &mut self,
        parent: &CountsTable,
        sibling: Option<(&CountsTable, SiblingEdge)>,
        sources: &[ClassSource],
    ) -> MwResult<u64> {
        let mismatch =
            || MwError::Internal("a sliced table does not line up with its parent's".into());
        let underflow = || {
            MwError::Internal(
                "a sibling counts more than the table a class is derived against".into(),
            )
        };
        let (CcRepr::Dense(own), CcRepr::Dense(p)) = (&mut self.repr, &parent.repr) else {
            return Err(mismatch());
        };
        if own.layout.n_classes != p.layout.n_classes {
            return Err(mismatch());
        }
        let sibling = match sibling {
            _ if !sources.contains(&ClassSource::Sibling) => None,
            Some((s, _)) if s.n_classes() != Some(p.layout.n_classes) => return Err(mismatch()),
            Some(sibling) => Some(sibling),
            None => return Err(mismatch()),
        };
        let source = |class: usize| sources.get(class).copied().unwrap_or(ClassSource::Counted);
        let width = own.layout.n_classes as usize;
        let by_class: Vec<ClassSource> = (0..width).map(source).collect();
        let zeros = vec![0; width];
        let layout = Arc::clone(&own.layout);
        let mut newly = 0;
        for &attr in &layout.attrs {
            let (Some(mine), Some(theirs)) = (own.attr_slots_mut(attr), p.attr_slots(attr)) else {
                return Err(mismatch());
            };
            if mine.len() != theirs.len() {
                return Err(mismatch());
            }
            let less = match sibling {
                Some((s, edge)) => Some(s.sibling_slots(attr, edge, &layout).ok_or_else(mismatch)?),
                None => None,
            };
            // Without a sibling, a row of zeros per value row.
            let less_rows = (less.as_deref().unwrap_or_default().chunks_exact(width))
                .chain(std::iter::repeat(zeros.as_slice()));
            let rows = mine.chunks_exact_mut(width).zip(theirs.chunks_exact(width));
            for ((row, from), less) in rows.zip(less_rows) {
                for (((n, &m), &s), &source) in row.iter_mut().zip(from).zip(less).zip(&by_class) {
                    let add = match source {
                        ClassSource::Counted => continue,
                        ClassSource::Parent => m,
                        ClassSource::Sibling => m.checked_sub(s).ok_or_else(underflow)?,
                    };
                    if add != 0 {
                        newly += usize::from(*n == 0);
                        *n += add;
                    }
                }
            }
        }
        own.occupied += newly;
        let mut rows = 0;
        for (&class, &n) in &parent.class_totals {
            let add = match source(usize::from(class)) {
                ClassSource::Counted => continue,
                ClassSource::Parent => n,
                ClassSource::Sibling => {
                    let theirs = sibling.and_then(|(s, _)| s.class_totals.get(&class));
                    n.checked_sub(theirs.copied().unwrap_or(0))
                        .ok_or_else(underflow)?
                }
            };
            if add != 0 {
                *self.class_totals.entry(class).or_insert(0) += add;
                rows += add;
            }
        }
        self.total += rows;
        Ok(rows)
    }

    /// The class axis of a dense table; `None` for a sparse one.
    fn n_classes(&self) -> Option<u32> {
        match &self.repr {
            CcRepr::Dense(d) => Some(d.layout.n_classes),
            CcRepr::Sparse(_) => None,
        }
    }

    /// This dense table's slots in `attr`, as its sibling across `edge`
    /// reads them when it is completed over `layout`'s span of `attr`: its
    /// own — or, when it is an `=` sibling that does not track the split
    /// attribute, its class totals in the split value's row, every one of
    /// its rows having that value. `None` when neither holds.
    fn sibling_slots(
        &self,
        attr: u16,
        edge: SiblingEdge,
        layout: &DenseLayout,
    ) -> Option<Cow<'_, [u64]>> {
        let CcRepr::Dense(d) = &self.repr else {
            return None;
        };
        let span = layout.span(attr)?;
        match d.attr_slots(attr) {
            Some(slots) if slots.len() == span.len() => Some(Cow::Borrowed(slots)),
            None if edge.eq && attr == edge.col => {
                let mut slots = vec![0; span.len()];
                for (&class, &n) in &self.class_totals {
                    let slot = layout.slot(attr, edge.value, class)?;
                    *slots.get_mut(slot - span.start)? = n;
                }
                Some(Cow::Owned(slots))
            }
            _ => None,
        }
    }
}

/// Where a table a scan counted in some classes only takes a class from
/// when it is completed ([`CountsTable::complete`], DESIGN.md §12b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ClassSource {
    /// The scan counts it.
    Counted,
    /// Its parent's counts less its sibling's, which the scan counts.
    Sibling,
    /// Its parent's counts: its complement holds no row of it.
    Parent,
}

/// Where the sibling a child takes classes from sits in their parent's
/// binary split on column `col` ([`CountsTable::complete`]): every one of
/// its rows has `col = value` (`eq`), or none has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SiblingEdge {
    pub(crate) col: u16,
    pub(crate) value: Code,
    pub(crate) eq: bool,
}

/// Add one to `map[key]` per key, in order, with one tree walk per run of
/// equal consecutive keys: the sparse backend's block path.
fn add_runs<K: Ord + Copy>(map: &mut BTreeMap<K, u64>, keys: impl Iterator<Item = K>) {
    let mut run_key: Option<K> = None;
    let mut run = 0u64;
    for key in keys {
        if run_key == Some(key) {
            run = run.saturating_add(1);
        } else {
            if let Some(pk) = run_key {
                let e = map.entry(pk).or_insert(0);
                *e = e.saturating_add(run);
            }
            run_key = Some(key);
            run = 1;
        }
    }
    if let Some(pk) = run_key {
        let e = map.entry(pk).or_insert(0);
        *e = e.saturating_add(run);
    }
}

/// Equality is *logical*: same totals, same class distribution, same
/// non-zero entries in key order — independent of the physical
/// representation, so a dense-built table equals its sparse twin.
impl PartialEq for CountsTable {
    fn eq(&self, other: &Self) -> bool {
        self.total == other.total
            && self.class_totals == other.class_totals
            && self
                .iter()
                .filter(|&(_, n)| n != 0)
                .eq(other.iter().filter(|&(_, n)| n != 0))
    }
}

impl Eq for CountsTable {}

/// Iterator over a table's `(key, count)` entries in key order.
pub struct Entries<'a>(EntriesInner<'a>);

enum EntriesInner<'a> {
    Sparse(std::collections::btree_map::Iter<'a, CcKey, u64>),
    Dense {
        d: &'a DenseCounts,
        /// Tracked attributes not yet begun.
        attrs: std::slice::Iter<'a, u16>,
        /// The attribute being walked, with its entries left.
        at: Option<(u16, AttrVector<'a>)>,
    },
}

impl Iterator for Entries<'_> {
    type Item = (CcKey, u64);

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.0 {
            EntriesInner::Sparse(it) => it.next().map(|(&k, &n)| (k, n)),
            EntriesInner::Dense { d, attrs, at } => loop {
                if let Some((attr, entries)) = at {
                    if let Some((value, class, n)) = entries.next() {
                        return Some(((*attr, value, class), n));
                    }
                }
                let &attr = attrs.next()?;
                *at = Some((attr, d.attr_vector(attr)));
            },
        }
    }
}

/// The class axis of a table's value rows
/// ([`CountsTable::class_axis`]): which class each row position counts.
#[derive(Debug)]
pub struct ClassAxis(AxisRepr);

#[derive(Debug)]
enum AxisRepr {
    /// Position = class code, over this many codes (the dense layout's
    /// class cardinality): rows are read in place.
    Codes(usize),
    /// The classes present at the node, ascending: rows are collected.
    Present(Vec<Code>),
}

impl ClassAxis {
    /// Row width: positions on the axis.
    pub fn width(&self) -> usize {
        match &self.0 {
            AxisRepr::Codes(width) => *width,
            AxisRepr::Present(classes) => classes.len(),
        }
    }

    /// The class counted at each position, in position (= ascending
    /// class) order.
    pub fn classes(&self) -> impl Iterator<Item = Code> + Clone + '_ {
        let (codes, present) = match &self.0 {
            AxisRepr::Codes(width) => (0..*width, [].iter()),
            AxisRepr::Present(classes) => (0..0, classes.iter()),
        };
        // `class_axis` caps an in-place axis at the `Code` range.
        codes.map(|c| c as Code).chain(present.copied())
    }

    /// Position of `class` on the axis, if it is on it.
    fn position(&self, class: Code) -> Option<usize> {
        match &self.0 {
            AxisRepr::Codes(width) => Some(usize::from(class)).filter(|p| p < width),
            AxisRepr::Present(classes) => classes.binary_search(&class).ok(),
        }
    }
}

/// One attribute's counts as value rows over a [`ClassAxis`]
/// ([`CountsTable::value_rows`]). A lending walk: each row borrows the
/// view, because a collected row lives in the one reused scratch.
pub struct ValueRows<'a>(RowsInner<'a>);

enum RowsInner<'a> {
    InPlace {
        rows: std::slice::ChunksExact<'a, u64>,
        /// The value the next chunk of `rows` belongs to.
        value: u32,
    },
    Gathered {
        entries: AttrVector<'a>,
        /// The entry that ended the previous row: the next row's first.
        ahead: Option<(Code, Code, u64)>,
        axis: &'a ClassAxis,
        row: &'a mut Vec<u64>,
    },
}

impl ValueRows<'_> {
    /// The next value present, ascending, with its class counts over the
    /// axis. A count whose class is not on the axis (a table whose class
    /// totals were never set) is left out.
    pub fn next_row(&mut self) -> Option<(Code, &[u64])> {
        match &mut self.0 {
            RowsInner::InPlace { rows, value } => loop {
                let row = rows.next()?;
                let v = *value;
                *value += 1;
                if row.iter().any(|&n| n != 0) {
                    // A non-zero count was stored under a `Code` value.
                    return Some((v as Code, row));
                }
            },
            RowsInner::Gathered {
                entries,
                ahead,
                axis,
                row,
            } => {
                let (value, mut class, mut n) = ahead.take().or_else(|| entries.next())?;
                row.clear();
                row.resize(axis.width(), 0);
                loop {
                    if let Some(slot) = axis.position(class).and_then(|p| row.get_mut(p)) {
                        *slot += n;
                    }
                    match entries.next() {
                        Some((v, c, m)) if v == value => (class, n) = (c, m),
                        other => {
                            *ahead = other;
                            return Some((value, row.as_slice()));
                        }
                    }
                }
            }
        }
    }
}

/// Iterator returned by [`CountsTable::attr_vector`].
pub struct AttrVector<'a>(AttrVecInner<'a>);

enum AttrVecInner<'a> {
    Sparse(std::collections::btree_map::Range<'a, CcKey, u64>),
    Dense {
        /// The attribute's slots left, each at its position
        /// `value · n_classes + class`.
        slots: std::iter::Enumerate<std::slice::Iter<'a, u64>>,
        n_classes: usize,
    },
    Empty,
}

impl Iterator for AttrVector<'_> {
    type Item = (Code, Code, u64);

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.0 {
            AttrVecInner::Sparse(range) => range.next().map(|(&(_, v, c), &n)| (v, c, n)),
            AttrVecInner::Dense { slots, n_classes } => {
                // A non-zero count was stored under `Code` value and class.
                let (pos, &n) = slots.find(|&(_, &n)| n != 0)?;
                Some(((pos / *n_classes) as Code, (pos % *n_classes) as Code, n))
            }
            AttrVecInner::Empty => None,
        }
    }
}

/// A fulfilled counts request handed back to the client.
#[derive(Debug, Clone)]
pub struct FulfilledCc {
    /// The client's node this answers.
    pub node: crate::request::NodeId,
    /// The counts table, shared: the session keeps a weak handle on an
    /// exact dense one, from which it may derive a child of this node while
    /// the client still holds it (DESIGN.md §12b).
    pub cc: Arc<CountsTable>,
    /// Where the data was read from (the S/I/L tag of Figure 1).
    pub source: DataLocation,
    /// True when memory pressure forced the §4.1.1 dynamic switch to
    /// SQL-based (lazy, per-attribute) counting for this node.
    pub via_sql_fallback: bool,
    /// Always `None`: every count is exact. Retired with sampled counting
    /// (DESIGN.md §13), and kept only because `benchmark/` still asserts
    /// it is `None`; ROADMAP item 1(g) removes that assertion, after which
    /// a change that touches only `crates/` deletes the field.
    pub sample: Option<std::convert::Infallible>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// rows: (a0, a1, class) with attrs = [0, 1], class col 2.
    fn table_from(rows: &[[Code; 3]]) -> CountsTable {
        let mut cc = CountsTable::new();
        for row in rows {
            cc.add_row(row, &[0, 1], 2);
        }
        cc
    }

    /// Dense twin of `table_from`: both attrs card 4, two classes.
    fn dense_from(rows: &[[Code; 3]]) -> CountsTable {
        let mut cc = CountsTable::new_dense(&[(0, 4), (1, 4)], 2);
        assert!(cc.is_dense());
        for row in rows {
            cc.add_row(row, &[0, 1], 2);
        }
        cc
    }

    #[test]
    fn counts_cooccurrences() {
        let cc = table_from(&[[0, 0, 0], [0, 1, 0], [1, 1, 1], [0, 0, 1]]);
        assert_eq!(cc.total(), 4);
        assert_eq!(cc.count(0, 0, 0), 2);
        assert_eq!(cc.count(0, 0, 1), 1);
        assert_eq!(cc.count(0, 1, 1), 1);
        assert_eq!(cc.count(0, 1, 0), 0);
        assert_eq!(cc.count(1, 1, 0), 1);
        assert_eq!(cc.count(9, 0, 0), 0, "unknown attr counts zero");
    }

    #[test]
    fn class_distribution_and_majority() {
        let cc = table_from(&[[0, 0, 0], [0, 1, 0], [1, 1, 1]]);
        let dist: Vec<_> = cc.class_distribution().collect();
        assert_eq!(dist, vec![(0, 2), (1, 1)]);
        assert_eq!(cc.majority_class(), Some((0, 2)));
        assert_eq!(cc.distinct_classes(), 2);
        assert_eq!(CountsTable::new().majority_class(), None);
    }

    #[test]
    fn attr_vector_is_range_ordered() {
        let cc = table_from(&[[1, 0, 0], [0, 0, 1], [1, 0, 1], [2, 0, 0]]);
        let v: Vec<_> = cc.attr_vector(0).collect();
        assert_eq!(v, vec![(0, 1, 1), (1, 0, 1), (1, 1, 1), (2, 0, 1)]);
        // attr 1 only ever sees value 0
        assert_eq!(cc.distinct_values(1), 1);
        assert_eq!(cc.distinct_values(0), 3);
    }

    #[test]
    fn child_sizes_are_exact() {
        let cc = table_from(&[[0, 0, 0], [0, 1, 1], [1, 0, 0], [2, 0, 0], [0, 0, 1]]);
        assert_eq!(cc.rows_with_value(0, 0), 3);
        assert_eq!(cc.rows_without_value(0, 0), 2);
        assert_eq!(cc.rows_with_value(0, 2), 1);
        assert_eq!(cc.rows_with_value(0, 3), 0);
    }

    #[test]
    fn memory_model_is_entry_proportional() {
        let cc = table_from(&[[0, 0, 0], [1, 1, 1]]);
        // entries: (0,0,0),(0,1,1),(1,0,0),(1,1,1) = 4
        assert_eq!(cc.entries(), 4);
        assert_eq!(cc.memory_bytes(), 4 * CC_ENTRY_BYTES);
    }

    #[test]
    fn aggregate_loading_matches_row_loading() {
        let rows: Vec<[Code; 3]> = vec![[0, 0, 0], [0, 1, 0], [1, 1, 1], [0, 0, 1]];
        let direct = table_from(&rows);
        let mut agg = CountsTable::new();
        for (key, n) in direct.iter() {
            agg.add_aggregate(key.0, key.1, key.2, n);
        }
        agg.set_totals_from_attr(0);
        assert_eq!(agg.total(), direct.total());
        assert_eq!(
            agg.class_distribution().collect::<Vec<_>>(),
            direct.class_distribution().collect::<Vec<_>>()
        );
        assert_eq!(agg, direct);
    }

    #[test]
    fn empty_table() {
        let cc = CountsTable::new();
        assert!(cc.is_empty());
        assert_eq!(cc.total(), 0);
        assert_eq!(cc.entries(), 0);
        assert_eq!(cc.attr_vector(0).count(), 0);
    }

    #[test]
    fn dense_matches_sparse_on_every_accessor() {
        let rows: Vec<[Code; 3]> = vec![
            [0, 0, 0],
            [0, 1, 0],
            [1, 1, 1],
            [0, 0, 1],
            [2, 3, 1],
            [3, 2, 0],
            [2, 3, 1],
        ];
        let sparse = table_from(&rows);
        let dense = dense_from(&rows);
        assert!(dense.is_dense());
        assert_eq!(dense, sparse);
        assert_eq!(dense.total(), sparse.total());
        assert_eq!(dense.entries(), sparse.entries());
        assert_eq!(dense.memory_bytes(), sparse.memory_bytes());
        assert_eq!(
            dense.iter().collect::<Vec<_>>(),
            sparse.iter().collect::<Vec<_>>()
        );
        for attr in [0u16, 1, 9] {
            assert_eq!(
                dense.attr_vector(attr).collect::<Vec<_>>(),
                sparse.attr_vector(attr).collect::<Vec<_>>(),
                "attr {attr}"
            );
            assert_eq!(dense.distinct_values(attr), sparse.distinct_values(attr));
        }
        for v in 0..4u16 {
            assert_eq!(dense.rows_with_value(0, v), sparse.rows_with_value(0, v));
            assert_eq!(
                dense.rows_without_value(1, v),
                sparse.rows_without_value(1, v)
            );
        }
        assert_eq!(dense.count(0, 0, 1), 1);
        assert_eq!(dense.count(0, 9, 0), 0, "value past cardinality is zero");
        assert_eq!(dense.majority_class(), sparse.majority_class());
    }

    #[test]
    fn dense_spills_to_sparse_on_out_of_range_codes() {
        let rows: &[[Code; 3]] = &[[0, 0, 0], [1, 1, 1]];
        let mut dense = dense_from(rows);
        assert!(dense.is_dense());
        // Value 7 exceeds cardinality 4 → silent spill, counts preserved.
        dense.add_row(&[7, 0, 0], &[0, 1], 2);
        assert!(!dense.is_dense());
        let mut expect = table_from(rows);
        expect.add_row(&[7, 0, 0], &[0, 1], 2);
        assert_eq!(dense, expect);
        assert_eq!(dense.entries(), expect.entries());
        // A class code past n_classes spills too.
        let mut d2 = dense_from(rows);
        d2.add_row(&[0, 0, 5], &[0, 1], 2);
        assert!(!d2.is_dense());
        assert_eq!(d2.total(), 3);
    }

    #[test]
    fn dense_occupancy_tracks_entries_not_slots() {
        let mut cc = CountsTable::new_dense(&[(0, 4), (1, 4)], 2);
        assert_eq!(cc.entries(), 0);
        assert_eq!(cc.memory_bytes(), 0, "empty slots cost nothing (modelled)");
        assert_eq!(cc.physical_bytes(), (4 + 4) * 2 * 8);
        cc.add_row(&[0, 0, 0], &[0, 1], 2);
        assert_eq!(cc.entries(), 2);
        cc.add_row(&[0, 0, 0], &[0, 1], 2);
        assert_eq!(cc.entries(), 2, "repeat row occupies no new slot");
        assert_eq!(cc.memory_bytes(), 2 * CC_ENTRY_BYTES);
    }

    #[test]
    fn dense_sizing_helper_saturates() {
        assert_eq!(dense_physical_bytes([4u64, 4], 2), (4 + 4) * 2 * 8);
        assert_eq!(dense_physical_bytes([], 2), 0);
        assert_eq!(dense_physical_bytes([u64::MAX], 10), u64::MAX);
    }

    #[test]
    fn degenerate_dense_geometries_fall_back_to_sparse() {
        assert!(!CountsTable::new_dense(&[(0, 4)], 0).is_dense());
        assert!(!CountsTable::new_dense(&[(0, u64::MAX)], 2).is_dense());
        // Empty attr set densifies trivially (zero slots) and spills on
        // first aggregate touch of an unknown attr.
        let mut empty = CountsTable::new_dense(&[], 2);
        empty.add_aggregate(3, 0, 0, 5);
        assert_eq!(empty.count(3, 0, 0), 5);
    }

    #[test]
    fn zero_aggregates_are_skipped_in_both_representations() {
        let mut sparse = CountsTable::new();
        sparse.add_aggregate(0, 0, 0, 0);
        assert_eq!(sparse.entries(), 0);
        let mut dense = CountsTable::new_dense(&[(0, 4)], 2);
        dense.add_aggregate(0, 0, 0, 0);
        assert_eq!(dense.entries(), 0);
        assert!(dense.is_dense());
    }

    #[test]
    fn zero_count_class_aggregate_is_no_class() {
        // The `sqlgen` fallback's loaders, fed a GROUP BY answer that
        // carries a zero-count class row, must assemble the table a scan
        // of the same rows builds.
        let scanned = table_from(&[[0, 0, 0], [1, 0, 0], [1, 1, 0]]);
        let mut loaded = CountsTable::new();
        for ((attr, value, class), n) in scanned.iter() {
            loaded.add_aggregate(attr, value, class, n);
        }
        loaded.add_aggregate(0, 0, 1, 0);
        loaded.add_class_aggregate(0, 3);
        loaded.add_class_aggregate(1, 0);
        assert_eq!(loaded, scanned);
        assert_eq!(loaded.distinct_classes(), 1);
        assert_eq!(loaded.majority_class(), scanned.majority_class());
        assert_eq!(loaded.total(), 3);
    }

    /// Every value row of `attr`, as `(value, (class, count) pairs)` with
    /// zero counts dropped: what the row means, whatever the axis.
    fn rows_of(cc: &CountsTable, attr: u16) -> Vec<(Code, Vec<(Code, u64)>)> {
        let axis = cc.class_axis();
        let mut scratch = Vec::new();
        let mut rows = cc.value_rows(attr, &axis, &mut scratch);
        let mut out = Vec::new();
        while let Some((value, row)) = rows.next_row() {
            assert_eq!(row.len(), axis.width());
            let pairs = axis.classes().zip(row.iter().copied());
            out.push((value, pairs.filter(|&(_, n)| n != 0).collect()));
        }
        out
    }

    #[test]
    fn value_rows_read_dense_in_place_and_gather_sparse_alike() {
        let rows: Vec<[Code; 3]> = vec![[0, 0, 1], [0, 1, 1], [2, 1, 0], [2, 3, 1], [2, 3, 1]];
        let sparse = table_from(&rows);
        let dense = dense_from(&rows);
        // Dense: the layout's two class codes, rows in place (the scratch
        // is never touched). Sparse: the classes present.
        assert_eq!(dense.class_axis().classes().collect::<Vec<_>>(), [0, 1]);
        assert_eq!(dense.class_row(&dense.class_axis()), [1, 4]);
        let mut scratch = Vec::new();
        let axis = dense.class_axis();
        let mut in_place = dense.value_rows(0, &axis, &mut scratch);
        assert_eq!(in_place.next_row(), Some((0, &[0u64, 2][..])));
        assert_eq!(
            in_place.next_row(),
            Some((2, &[1u64, 2][..])),
            "value 1 is absent"
        );
        assert_eq!(in_place.next_row(), None);
        assert_eq!(scratch.capacity(), 0);
        for attr in [0u16, 1, 9] {
            let expect: Vec<(Code, Vec<(Code, u64)>)> = {
                let mut by_value: Vec<(Code, Vec<(Code, u64)>)> = Vec::new();
                for (v, c, n) in sparse.attr_vector(attr) {
                    match by_value.last_mut() {
                        Some((last, pairs)) if *last == v => pairs.push((c, n)),
                        _ => by_value.push((v, vec![(c, n)])),
                    }
                }
                by_value
            };
            assert_eq!(rows_of(&sparse, attr), expect, "sparse attr {attr}");
            assert_eq!(rows_of(&dense, attr), expect, "dense attr {attr}");
        }
        assert!(
            rows_of(&dense, 9).is_empty(),
            "an untracked attribute has no rows"
        );
        // A class total outside the layout (an attribute-less aggregate
        // added) takes the dense table off the in-place axis; the rows mean
        // the same.
        let mut wide = dense.clone();
        wide.add_class_aggregate(5, 2);
        assert!(wide.is_dense());
        assert_eq!(wide.class_axis().classes().collect::<Vec<_>>(), [0, 1, 5]);
        assert_eq!(wide.class_row(&wide.class_axis()), [1, 4, 2]);
        assert_eq!(rows_of(&wide, 0), rows_of(&dense, 0));
    }

    /// Transpose row tuples into the three column vectors add_block wants.
    fn cols_of(rows: &[[Code; 3]]) -> [Vec<Code>; 3] {
        let mut cols: [Vec<Code>; 3] = Default::default();
        for row in rows {
            for (c, &v) in row.iter().enumerate() {
                cols[c].push(v);
            }
        }
        cols
    }

    fn block_into(cc: &mut CountsTable, rows: &[[Code; 3]]) {
        let cols = cols_of(rows);
        let refs: Vec<&[Code]> = cols.iter().map(Vec::as_slice).collect();
        cc.add_block(&refs, 2, &[0, 1]);
    }

    #[test]
    fn add_block_matches_add_row_on_both_backends() {
        let rows: Vec<[Code; 3]> = vec![
            [0, 0, 0],
            [0, 1, 0],
            [1, 1, 1],
            [0, 0, 1],
            [2, 3, 1],
            [3, 2, 0],
            [2, 3, 1],
        ];
        let mut sparse = CountsTable::new();
        block_into(&mut sparse, &rows);
        assert_eq!(sparse, table_from(&rows));
        assert_eq!(
            sparse.class_distribution().collect::<Vec<_>>(),
            table_from(&rows).class_distribution().collect::<Vec<_>>()
        );

        let mut dense = CountsTable::new_dense(&[(0, 4), (1, 4)], 2);
        block_into(&mut dense, &rows);
        assert!(dense.is_dense(), "in-range block keeps the dense form");
        assert_eq!(dense, dense_from(&rows));
        assert_eq!(dense.entries(), dense_from(&rows).entries());
        assert_eq!(dense.total(), rows.len() as u64);

        // Splitting the same rows across several blocks changes nothing.
        let mut chunked = CountsTable::new_dense(&[(0, 4), (1, 4)], 2);
        for chunk in rows.chunks(3) {
            block_into(&mut chunked, chunk);
        }
        assert_eq!(chunked, dense);
        // An empty block is a no-op.
        let before = dense.clone();
        block_into(&mut dense, &[]);
        assert_eq!(dense, before);
    }

    #[test]
    fn add_block_fallback_spills_exactly_like_the_row_path() {
        // Value 7 in the middle of the block exceeds cardinality 4: the
        // dense block pass spills before it counts, and ends where the
        // per-row path, spilling at that row, ends.
        let rows: Vec<[Code; 3]> = vec![[0, 0, 0], [1, 1, 1], [7, 0, 0], [2, 3, 1]];
        let mut dense = CountsTable::new_dense(&[(0, 4), (1, 4)], 2);
        block_into(&mut dense, &rows);
        assert!(!dense.is_dense(), "out-of-range code forces the spill");
        let mut rowwise = CountsTable::new_dense(&[(0, 4), (1, 4)], 2);
        for row in &rows {
            rowwise.add_row(row, &[0, 1], 2);
        }
        assert_eq!(dense, rowwise);
        assert_eq!(dense.total(), rowwise.total());
        assert_eq!(
            dense.class_distribution().collect::<Vec<_>>(),
            rowwise.class_distribution().collect::<Vec<_>>()
        );
        // Out-of-range class code trips the same contract.
        let mut d2 = CountsTable::new_dense(&[(0, 4), (1, 4)], 2);
        block_into(&mut d2, &[[0, 0, 0], [1, 1, 5]]);
        assert!(!d2.is_dense());
        assert_eq!(d2.total(), 2);
    }

    /// A ragged block is refused before any count moves, in release builds
    /// too: counting the short column's prefix against every class code
    /// would leave the attribute sums disagreeing with the total.
    #[test]
    #[should_panic(expected = "ragged block")]
    fn add_block_refuses_a_ragged_block() {
        let (full, short, class): (&[Code], &[Code], &[Code]) = (&[0, 1, 2], &[0, 1], &[0, 1, 1]);
        CountsTable::new().add_block(&[full, short, class], 2, &[0, 1]);
    }

    /// Recount the non-zero dense slots directly, bypassing `occupied`.
    fn recounted_occupied(cc: &CountsTable) -> usize {
        match &cc.repr {
            CcRepr::Dense(d) => d.slots.iter().filter(|&&n| n != 0).count(),
            CcRepr::Sparse(_) => panic!("expected dense"),
        }
    }

    #[test]
    fn occupied_stays_exact_under_interleaved_bump_row_and_block() {
        let mut cc = CountsTable::new_dense(&[(0, 4), (1, 4)], 2);
        cc.add_row(&[0, 0, 0], &[0, 1], 2);
        cc.add_aggregate(0, 2, 1, 5); // dense bump path
        block_into(&mut cc, &[[1, 1, 1], [0, 0, 0], [3, 2, 0]]);
        cc.add_aggregate(0, 2, 1, 3); // bump an already-counting slot
        cc.add_row(&[2, 3, 1], &[0, 1], 2);
        block_into(&mut cc, &[[2, 3, 1], [1, 1, 1]]);
        assert!(cc.is_dense());
        assert_eq!(cc.entries(), recounted_occupied(&cc));
        assert_eq!(cc.memory_bytes(), cc.shadow_memory_bytes());
        // A zero-count bump on an empty slot must not claim occupancy,
        // even when DenseCounts::bump is reached directly.
        if let CcRepr::Dense(d) = &mut cc.repr {
            let before = d.occupied;
            assert!(d.bump(1, 3, 0, 0));
            assert_eq!(d.occupied, before, "n == 0 never counts as newly occupied");
        }
        assert_eq!(cc.entries(), recounted_occupied(&cc));
    }

    /// Per-column maxima of some rows — what the executor hands `covers`.
    fn col_max_of(rows: &[[Code; 3]]) -> [Code; 3] {
        let mut max = [0; 3];
        for row in rows {
            for (m, &v) in max.iter_mut().zip(row) {
                *m = (*m).max(v);
            }
        }
        max
    }

    #[test]
    fn block_growth_bound_dominates_actual_growth() {
        // Generated blocks of 1–40 rows; every fifth block carries a code
        // outside the dense layout (value 4–7 against cardinality 4).
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % bound) as Code
        };
        let blocks: Vec<Vec<[Code; 3]>> = (0..60)
            .map(|b| {
                let card = if b % 5 == 4 { 8 } else { 4 };
                (0..1 + rng(40))
                    .map(|_| [rng(card), rng(4), rng(2)])
                    .collect()
            })
            .collect();
        for dense in [false, true] {
            // A fresh table per block sequence start, refilled after a
            // spill so the dense cap keeps being exercised.
            let fresh = || {
                if dense {
                    CountsTable::new_dense(&[(0, 4), (1, 4)], 2)
                } else {
                    CountsTable::new()
                }
            };
            let mut cc = fresh();
            for rows in &blocks {
                let n = rows.len() as u64;
                let loose = n * 2 * CC_ENTRY_BYTES;
                let in_range = col_max_of(rows)[0] < 4;
                assert_eq!(
                    cc.covers(&col_max_of(rows), &[0, 1], 2),
                    in_range || !cc.is_dense(),
                    "only a dense table can fail to cover a block"
                );
                let bound = cc.block_growth_bound(n, 2);
                assert!(bound <= loose, "never looser than rows x attrs");
                let before = cc.memory_bytes();
                let mut rowwise = cc.clone();
                for row in rows {
                    rowwise.add_row(row, &[0, 1], 2);
                }
                if cc.covers(&col_max_of(rows), &[0, 1], 2) {
                    // The executor's path: count unchecked, in place.
                    let cols = cols_of(rows);
                    let column = |c: usize| ColumnView {
                        codes: &cols[c],
                        stride: 1,
                    };
                    let n = rows.len() as u32;
                    cc.add_rows(0..n, column, &[0, 1], 2, &mut KernelScratch::default());
                    assert!(
                        cc.memory_bytes() <= before + bound,
                        "a covered block grew past its declared bound"
                    );
                    assert_eq!(cc.is_dense(), dense, "a covered block cannot spill");
                } else {
                    // Refused: the row path spills and may outgrow the
                    // capped bound — which is why the block was refused —
                    // but never rows x attrs.
                    block_into(&mut cc, rows);
                    assert!(!cc.is_dense());
                    assert!(cc.memory_bytes() <= before + loose);
                }
                assert_eq!(cc, rowwise, "block counting is row counting");
                assert_eq!(cc.entries(), rowwise.entries());
                if dense && !cc.is_dense() {
                    cc = fresh();
                }
            }
        }
        // A saturated dense table cannot grow at all — as long as the block
        // is covered. One that is not may mint entries outside the slots.
        let mut full = CountsTable::new_dense(&[(0, 1), (1, 1)], 1);
        full.add_row(&[0, 0, 0], &[0, 1], 2);
        assert_eq!(full.block_growth_bound(1000, 2), 0);
        let spilling: &[[Code; 3]] = &[[1, 1, 0], [2, 2, 0]];
        assert!(!full.covers(&col_max_of(spilling), &[0, 1], 2));
        assert!(!full.covers(&[0, 0], &[0, 1], 2), "class column missing");
        assert!(
            !full.covers(&[0, 0, 0], &[0, 5], 2),
            "attribute not tracked"
        );
        let before = full.memory_bytes();
        block_into(&mut full, spilling);
        assert!(!full.is_dense());
        assert_eq!(full.memory_bytes(), before + 4 * CC_ENTRY_BYTES);
    }

    #[test]
    fn add_then_remove_round_trips_on_both_backends() {
        let rows: Vec<[Code; 3]> = vec![[0, 0, 0], [0, 1, 0], [1, 1, 1], [0, 0, 1], [3, 2, 1]];
        for dense in [false, true] {
            let mut cc = if dense {
                dense_from(&rows)
            } else {
                table_from(&rows)
            };
            // Remove a middle subset; the survivors must equal a fresh
            // count of the surviving rows.
            for row in [[0, 1, 0], [3, 2, 1]] {
                assert!(cc.remove_row(&row, &[0, 1], 2), "counted row removes");
            }
            let survivors = table_from(&[[0, 0, 0], [1, 1, 1], [0, 0, 1]]);
            assert_eq!(cc, survivors, "dense={dense}");
            assert_eq!(cc.shadow_memory_bytes(), cc.memory_bytes());
            // Remove the rest: the table drains to empty and the modelled
            // memory shrinks all the way to zero.
            for row in [[0, 0, 0], [1, 1, 1], [0, 0, 1]] {
                assert!(cc.remove_row(&row, &[0, 1], 2));
            }
            assert!(cc.is_empty(), "dense={dense}");
            assert_eq!(cc.memory_bytes(), 0);
            assert_eq!(cc.total(), 0);
            assert_eq!(cc.distinct_classes(), 0);
            assert_eq!(cc.shadow_memory_bytes(), 0);
        }
    }

    #[test]
    fn remove_rejects_uncounted_rows_without_partial_mutation() {
        let rows: Vec<[Code; 3]> = vec![[0, 0, 0], [1, 1, 1]];
        for dense in [false, true] {
            let mut cc = if dense {
                dense_from(&rows)
            } else {
                table_from(&rows)
            };
            let before = cc.clone();
            // Never-counted row whose *first* attr entry exists but whose
            // second does not: (0,0,0) is present, (1,1,0) is not — a
            // non-atomic implementation would decrement the first before
            // noticing.
            assert!(!cc.remove_row(&[0, 1, 0], &[0, 1], 2));
            // Absent class value.
            assert!(!cc.remove_row(&[0, 0, 3], &[0, 1], 2));
            assert_eq!(cc, before, "rejected removals leave no trace");
            assert_eq!(cc.shadow_memory_bytes(), before.shadow_memory_bytes());
            // Drained table rejects everything.
            assert!(cc.remove_row(&[0, 0, 0], &[0, 1], 2));
            assert!(cc.remove_row(&[1, 1, 1], &[0, 1], 2));
            assert!(!cc.remove_row(&[0, 0, 0], &[0, 1], 2), "dense={dense}");
        }
    }

    /// A dense table over `attrs` (each card 4, two classes) counting `rows`.
    fn counted_over(attrs: &[u16], rows: &[[Code; 3]]) -> CountsTable {
        let cards: Vec<(u16, u64)> = attrs.iter().map(|&a| (a, 4)).collect();
        let mut cc = CountsTable::new_dense(&cards, 2);
        for row in rows {
            cc.add_row(row, attrs, 2);
        }
        cc
    }

    /// The table of a child derived whole, as a batch completes it: an
    /// empty dense table over `attrs` (each card 4, two classes) that takes
    /// every class it holds by `parent`'s table from its sibling across
    /// `edge` — the `≠` child when the sibling is on `=`.
    fn derive_whole(
        parent: &CountsTable,
        sibling: &CountsTable,
        attrs: &[u16],
        edge: SiblingEdge,
    ) -> MwResult<CountsTable> {
        let [with, all] = parent.class_split(edge.col, edge.value).unwrap_or_default();
        let held = |(&m, &n): (&u64, &u64)| if edge.eq { n > m } else { m > 0 };
        let sources: Vec<ClassSource> = (with.iter().zip(&all))
            .map(|k| match held(k) {
                true => ClassSource::Sibling,
                false => ClassSource::Counted,
            })
            .collect();
        let mut child = counted_over(attrs, &[]);
        child.complete(parent, Some((sibling, edge)), &sources)?;
        Ok(child)
    }

    /// Both children of a binary split derive whole from their parent and
    /// their sibling, completing an empty table: the `≠` child from an `=`
    /// sibling that does not track the split attribute (its class totals
    /// fill `v`'s row), and the `=` child, which drops the split attribute,
    /// from a `≠` sibling.
    #[test]
    fn derive_is_the_parent_minus_the_sibling() {
        let rows: Vec<[Code; 3]> = (0..60u16)
            .map(|r| [r % 4, (r * 7 / 3) % 4, (r / 5) % 2])
            .collect();
        let parent = counted_over(&[0, 1], &rows);
        for (col, value) in [(0u16, 1u16), (1, 3), (1, 2)] {
            let side = |eq: bool| -> Vec<[Code; 3]> {
                let on = |r: &&[Code; 3]| (r[usize::from(col)] == value) == eq;
                rows.iter().filter(on).copied().collect()
            };
            let other = [1 - col];
            let eq = counted_over(&other, &side(true));
            let neq = counted_over(&[0, 1], &side(false));
            let edge = SiblingEdge {
                col,
                value,
                eq: true,
            };
            let got = derive_whole(&parent, &eq, &[0, 1], edge).unwrap();
            assert_eq!(got, neq, "≠ of {col} = {value}");
            assert!(got.is_dense());
            assert_eq!(got.entries(), neq.entries());
            assert_eq!(got.memory_bytes(), got.shadow_memory_bytes());
            let edge = SiblingEdge {
                col,
                value,
                eq: false,
            };
            let got = derive_whole(&parent, &neq, &other, edge).unwrap();
            assert_eq!(got, eq, "= of {col} = {value}");
            assert!(got.is_dense() && got.tracks(&other) && !got.tracks(&[col]));
            assert_eq!(got.entries(), eq.entries());
            assert_eq!(got.memory_bytes(), got.shadow_memory_bytes());
        }
    }

    /// A table that is not the sibling's parent's does not complete a child
    /// derived whole: a count the sibling holds and the parent lacks, a
    /// sparse table, or an attribute of the child neither the sibling nor
    /// the split accounts for.
    #[test]
    fn derive_refuses_tables_that_are_not_the_parents() {
        let rows: &[[Code; 3]] = &[[0, 0, 0], [1, 1, 1], [1, 2, 0], [2, 3, 1]];
        let parent = counted_over(&[0, 1], rows);
        let eq = counted_over(&[1], &[[1, 1, 1], [1, 2, 0]]);
        let edge = SiblingEdge {
            col: 0,
            value: 1,
            eq: true,
        };
        assert!(derive_whole(&parent, &eq, &[0, 1], edge).is_ok());
        let stranger = counted_over(&[1], &[[1, 1, 1], [1, 1, 1]]);
        assert!(matches!(
            derive_whole(&parent, &stranger, &[0, 1], edge),
            Err(MwError::Internal(_))
        ));
        assert!(derive_whole(&parent, &table_from(&[[1, 1, 1]]), &[0, 1], edge).is_err());
        let sparse_parent = table_from(rows);
        assert!(derive_whole(&sparse_parent, &eq, &[0, 1], edge).is_err());
        let neq_edge = SiblingEdge { eq: false, ..edge };
        assert!(
            derive_whole(&parent, &eq, &[0, 1], neq_edge).is_err(),
            "a `≠` sibling must track the split attribute"
        );
        assert!(
            derive_whole(&parent, &eq, &[0, 5], edge).is_err(),
            "untracked"
        );
    }

    /// A child counted only in the classes its complement holds, then
    /// completed from its parent, is the table counting every class builds,
    /// slot for slot: an `=` child, a `≠` child that tracks the split
    /// attribute (its own value's row stays empty), one whose complement
    /// is pure (nothing counted at all), and a multiway `=` child.
    #[test]
    fn a_sliced_count_completed_from_the_parent_is_the_full_count() {
        // `a` picks the classes: 0 → {0, 1}, 1 → {1, 2}, 2 → {3}.
        let rows: Vec<[Code; 3]> = (0..90u16)
            .map(|r| {
                let a = r % 3;
                [a, (r * 7 / 3) % 4, [r % 2, 1 + r % 2, 3][usize::from(a)]]
            })
            .collect();
        let over = |attrs: &[u16], rows: &mut dyn Iterator<Item = &[Code; 3]>| {
            let cards: Vec<(u16, u64)> = attrs.iter().map(|&a| (a, 4)).collect();
            let mut cc = CountsTable::new_dense(&cards, 4);
            rows.for_each(|row| cc.add_row(row, attrs, 2));
            cc
        };
        let parent = over(&[0, 1], &mut rows.iter());
        // (edge value, `=`, the child's attributes, the classes copied).
        let children: [(Code, bool, &[u16], &[Code]); 4] = [
            (0, true, &[1], &[0]),
            (0, false, &[0, 1], &[2, 3]),
            (2, false, &[0, 1], &[0, 1, 2]),
            (1, true, &[0, 1], &[2]),
        ];
        for (value, eq, attrs, copied) in children {
            let what = format!("a {} {value}", if eq { "=" } else { "≠" });
            let mine = |r: &&[Code; 3]| (r[0] == value) == eq;
            let complement: Vec<Code> = (rows.iter().filter(|r| !mine(r))).map(|r| r[2]).collect();
            let counted: Vec<bool> = (0..4).map(|k| complement.contains(&k)).collect();
            let [with, all] = parent.class_split(0, value).unwrap();
            let child_rows: Vec<u64> = match eq {
                true => with,
                false => all.iter().zip(&with).map(|(n, m)| n - m).collect(),
            };
            let full = over(attrs, &mut rows.iter().filter(mine));
            let mut sliced = over(
                attrs,
                &mut (rows.iter().filter(mine)).filter(|r| counted[usize::from(r[2])]),
            );
            let sources: Vec<ClassSource> = (counted.iter())
                .map(|&c| match c {
                    true => ClassSource::Counted,
                    false => ClassSource::Parent,
                })
                .collect();
            let copied_rows = sliced.complete(&parent, None, &sources).unwrap();
            assert_eq!(sliced, full, "{what}");
            assert_eq!(sliced.entries(), full.entries(), "{what}");
            assert_eq!(
                sliced.memory_bytes(),
                sliced.shadow_memory_bytes(),
                "{what}"
            );
            let expected: u64 = copied.iter().map(|&k| child_rows[usize::from(k)]).sum();
            assert!(expected > 0, "{what}: copies a class");
            assert_eq!(copied_rows, expected, "{what}");
            let mut distribution = vec![0; 4];
            for (k, n) in sliced.class_distribution() {
                distribution[usize::from(k)] = n;
            }
            assert_eq!(
                distribution, child_rows,
                "{what}: S_k off the parent's table"
            );
        }
        let mut sparse = table_from(&rows);
        assert!(sparse
            .complete(&parent, None, &[ClassSource::Counted; 4])
            .is_err());
        let mut other = over(&[0, 1], &mut rows.iter().take(3));
        assert!(other
            .complete(
                &over(&[1], &mut rows.iter()),
                None,
                &[ClassSource::Parent; 4]
            )
            .is_err());
    }

    /// Both children of a binary split, each counted in some of the
    /// classes both hold and completed from the parent's table — less the
    /// sibling's counts in the classes the sibling counted, plus the
    /// parent's in the classes only it holds — are the tables counting
    /// every class builds, slot for slot: the `=` child over `b` alone,
    /// the `≠` child over `a` and `b`, whose `v` row of `a` reads the
    /// `=` sibling's class totals. Either may complete first, since each
    /// reads only classes the other counted. A class taken from a missing
    /// sibling does not complete.
    #[test]
    fn a_pair_completed_class_by_class_is_the_full_count() {
        let rows: Vec<[Code; 3]> = (0..120u16)
            .map(|r| [r % 3, (r * 7 / 3) % 4, (r / 2 + r % 3) % 4])
            .collect();
        let over = |attrs: &[u16], rows: &mut dyn Iterator<Item = &[Code; 3]>| {
            let cards: Vec<(u16, u64)> = attrs.iter().map(|&a| (a, 4)).collect();
            let mut cc = CountsTable::new_dense(&cards, 4);
            rows.for_each(|row| cc.add_row(row, attrs, 2));
            cc
        };
        let parent = over(&[0, 1], &mut rows.iter());
        let eq_rows = |r: &&[Code; 3]| r[0] == 1;
        let [eq_k, all] = parent.class_split(0, 1).unwrap();
        let neq_k: Vec<u64> = all.iter().zip(&eq_k).map(|(n, m)| n - m).collect();
        assert!((0..4).filter(|&k| eq_k[k] > 0 && neq_k[k] > 0).count() >= 2);
        for eq_counts_even in [true, false] {
            let what = format!(
                "= counts the {} shared classes",
                ["odd", "even"][usize::from(eq_counts_even)]
            );
            // Per class: does the `=` child count it, where both hold it?
            let on_eq = |k: usize| k.is_multiple_of(2) == eq_counts_even;
            let sources = |mine: &[u64],
                           theirs: &[u64],
                           counts: &dyn Fn(usize) -> bool|
             -> Vec<ClassSource> {
                (0..4)
                    .map(|k| match (mine[k], theirs[k]) {
                        (0, _) => ClassSource::Counted,
                        (_, 0) => ClassSource::Parent,
                        _ if counts(k) => ClassSource::Counted,
                        _ => ClassSource::Sibling,
                    })
                    .collect()
            };
            let eq_src = sources(&eq_k, &neq_k, &on_eq);
            let neq_src = sources(&neq_k, &eq_k, &|k| !on_eq(k));
            let counted =
                |src: &[ClassSource], r: &[Code; 3]| src[usize::from(r[2])] == ClassSource::Counted;
            let eq_full = over(&[1], &mut rows.iter().filter(eq_rows));
            let neq_full = over(&[0, 1], &mut rows.iter().filter(|r| !eq_rows(r)));
            let mut eq = over(
                &[1],
                &mut rows.iter().filter(eq_rows).filter(|r| counted(&eq_src, r)),
            );
            let mut neq = over(
                &[0, 1],
                &mut rows
                    .iter()
                    .filter(|r| !eq_rows(r))
                    .filter(|r| counted(&neq_src, r)),
            );
            let edge = |eq| SiblingEdge {
                col: 0,
                value: 1,
                eq,
            };
            let taken = |src: &[ClassSource], rows: &[u64]| -> u64 {
                (0..4)
                    .filter(|&k| src[k] != ClassSource::Counted)
                    .map(|k| rows[k])
                    .sum()
            };
            // Alternate which side completes first.
            let (mut eq2, mut neq2) = (eq.clone(), neq.clone());
            let added = eq
                .complete(&parent, Some((&neq, edge(false))), &eq_src)
                .unwrap();
            assert_eq!(added, taken(&eq_src, &eq_k), "{what}");
            let added = neq
                .complete(&parent, Some((&eq, edge(true))), &neq_src)
                .unwrap();
            assert_eq!(added, taken(&neq_src, &neq_k), "{what}");
            neq2.complete(&parent, Some((&eq2, edge(true))), &neq_src)
                .unwrap();
            eq2.complete(&parent, Some((&neq2, edge(false))), &eq_src)
                .unwrap();
            for (got, full) in [
                (&eq, &eq_full),
                (&neq, &neq_full),
                (&eq2, &eq_full),
                (&neq2, &neq_full),
            ] {
                assert_eq!(got, full, "{what}");
                assert_eq!(got.entries(), full.entries(), "{what}");
                assert_eq!(got.memory_bytes(), got.shadow_memory_bytes(), "{what}");
            }
        }
        let mut neq = over(&[0, 1], &mut rows.iter().take(0));
        assert!(neq
            .complete(&parent, None, &[ClassSource::Sibling; 4])
            .is_err());
    }

    #[test]
    fn signed_streams_match_reference_model_across_backends() {
        // Deterministic LCG so the property replays bit-identically.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let mut sparse = CountsTable::new();
        let mut dense = CountsTable::new_dense(&[(0, 4), (1, 4)], 2);
        assert!(dense.is_dense());
        let mut live: Vec<[Code; 3]> = Vec::new();
        for _ in 0..400 {
            let removing = !live.is_empty() && rng() % 3 == 0;
            if removing {
                let row = live.swap_remove(rng() as usize % live.len());
                assert!(sparse.remove_row(&row, &[0, 1], 2));
                assert!(dense.remove_row(&row, &[0, 1], 2));
            } else {
                let row = [
                    (rng() % 4) as Code,
                    (rng() % 4) as Code,
                    (rng() % 2) as Code,
                ];
                live.push(row);
                sparse.add_row(&row, &[0, 1], 2);
                dense.add_row(&row, &[0, 1], 2);
            }
            assert_eq!(sparse.shadow_memory_bytes(), sparse.memory_bytes());
            assert_eq!(dense.shadow_memory_bytes(), dense.memory_bytes());
        }
        // Both backends agree with each other and with a fresh count of
        // exactly the surviving rows.
        assert_eq!(sparse, dense);
        assert_eq!(sparse, table_from(&live));
        assert_eq!(sparse.total(), live.len() as u64);
    }
}
