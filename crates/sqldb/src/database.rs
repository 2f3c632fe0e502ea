//! The database catalog and the server-side access paths.
//!
//! Besides ordinary tables and sequential scans, this module implements the
//! three auxiliary server-side structures the paper evaluates (and finds
//! unhelpful) in §4.3.3 / §5.2.5:
//!
//! * (a) **copy data to a new temp table** ([`Database::copy_to_temp`]),
//! * (b) **copy TIDs and make indexed access** ([`Database::create_tid_set`]
//!   plus [`Database::tid_scan`]),
//! * (c) **keyset cursor + stored-procedure filter** (see
//!   [`crate::cursor::KeysetCursor`]).

use crate::delta::{DeltaLog, DeltaSign, RowDelta};
use crate::error::{DbError, DbResult};
use crate::expr::Pred;
use crate::stats::DbStats;
use crate::storage::Table;
use crate::types::{Code, Schema, Tid};
use std::collections::HashMap;
use std::sync::Arc;

/// A named collection of tables with shared server statistics.
///
/// Every DML entry point ([`Database::insert`], [`Database::delete_where`],
/// [`Database::update_where`]) advances the mutated table's **epoch** and
/// invalidates TID sets materialized from it (their TIDs dangle after a
/// compacting delete and silently miss rows after an insert). Tables with an
/// enabled [`DeltaLog`] additionally capture each mutation as signed row
/// events for the middleware's incremental-maintenance path (DESIGN.md §15).
#[derive(Debug)]
pub struct Database {
    tables: HashMap<String, Table>,
    /// Server-side TID sets ("indexes built on the fly", §4.3.3b).
    tid_sets: HashMap<String, TidSet>,
    /// Per-table mutation counters; bumped by every DML call that changed
    /// at least one row. Absent means epoch 0.
    epochs: HashMap<String, u64>,
    /// Opt-in per-table delta logs (see [`crate::delta`]).
    delta_logs: HashMap<String, DeltaLog>,
    stats: Arc<DbStats>,
    temp_counter: u64,
}

/// A materialized set of row identifiers for some base table.
#[derive(Debug, Clone)]
pub struct TidSet {
    /// Table the TIDs refer to.
    pub base_table: String,
    /// The materialized row identifiers.
    pub tids: Vec<Tid>,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// An empty catalog with fresh statistics.
    pub fn new() -> Self {
        Database {
            tables: HashMap::new(),
            tid_sets: HashMap::new(),
            epochs: HashMap::new(),
            delta_logs: HashMap::new(),
            stats: Arc::new(DbStats::new()),
            temp_counter: 0,
        }
    }

    /// Shared statistics handle.
    pub fn stats(&self) -> &Arc<DbStats> {
        &self.stats
    }

    /// Create an empty table. Fails if the name is taken.
    pub fn create_table(&mut self, name: impl Into<String>, schema: Schema) -> DbResult<()> {
        let name = name.into();
        if self.tables.contains_key(&name) {
            return Err(DbError::DuplicateTable(name));
        }
        self.tables.insert(name, Table::new(schema));
        Ok(())
    }

    /// Register a fully built table (bulk-load path used by the generators).
    pub fn register_table(&mut self, name: impl Into<String>, table: Table) -> DbResult<()> {
        let name = name.into();
        if self.tables.contains_key(&name) {
            return Err(DbError::DuplicateTable(name));
        }
        self.tables.insert(name, table);
        Ok(())
    }

    /// Remove a table from the catalog.
    pub fn drop_table(&mut self, name: &str) -> DbResult<()> {
        self.tables
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> DbResult<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Look up a table mutably.
    pub fn table_mut(&mut self, name: &str) -> DbResult<&mut Table> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Names of all catalogued tables (unordered).
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    /// Insert one validated row into a table. Advances the table's epoch
    /// and invalidates TID sets materialized from it (a cursor over a stale
    /// TID set would silently miss the new row).
    pub fn insert(&mut self, name: &str, row: &[Code]) -> DbResult<()> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))?
            .insert(row)?;
        if let Some(log) = self.delta_logs.get_mut(name) {
            log.record(DeltaSign::Insert, row);
        }
        self.note_mutation(name);
        Ok(())
    }

    /// Delete every row of `name` matching `pred` (compacting the heap; see
    /// [`Table::delete_where`] for the I/O charged). Returns rows removed.
    /// If anything was removed the table's epoch advances and its TID sets
    /// are invalidated — surviving TIDs renumber under compaction.
    pub fn delete_where(&mut self, name: &str, pred: &Pred) -> DbResult<u64> {
        let stats = Arc::clone(&self.stats);
        let table = self
            .tables
            .get_mut(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))?;
        let removed = match self.delta_logs.get_mut(name) {
            Some(log) => {
                table.delete_where_with(pred, &stats, |row| log.record(DeltaSign::Delete, row))
            }
            None => table.delete_where(pred, &stats),
        };
        if removed > 0 {
            self.note_mutation(name);
        }
        Ok(removed)
    }

    /// Apply `(column, value)` assignments to every row of `name` matching
    /// `pred` (see [`Table::update_where`] for validation and I/O). Returns
    /// rows actually changed. A change advances the epoch, invalidates the
    /// table's TID sets, and — with a delta log enabled — records each
    /// changed row as a delete of the old image plus an insert of the new.
    pub fn update_where(
        &mut self,
        name: &str,
        pred: &Pred,
        assignments: &[(usize, Code)],
    ) -> DbResult<u64> {
        let stats = Arc::clone(&self.stats);
        let table = self
            .tables
            .get_mut(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))?;
        let changed = match self.delta_logs.get_mut(name) {
            Some(log) => table.update_where_with(pred, assignments, &stats, |old, new| {
                log.record(DeltaSign::Delete, old);
                log.record(DeltaSign::Insert, new);
            })?,
            None => table.update_where(pred, assignments, &stats)?,
        };
        if changed > 0 {
            self.note_mutation(name);
        }
        Ok(changed)
    }

    /// The table's current mutation epoch (0 for never-mutated tables, and
    /// for unknown names — callers that care resolve the table first).
    pub fn table_epoch(&self, name: &str) -> u64 {
        self.epochs.get(name).copied().unwrap_or(0)
    }

    /// Start capturing signed row events for `name` (idempotent). Events
    /// accumulate until [`Database::take_deltas`] drains them.
    pub fn enable_delta_log(&mut self, name: &str) -> DbResult<()> {
        if !self.tables.contains_key(name) {
            return Err(DbError::UnknownTable(name.to_string()));
        }
        self.delta_logs.entry(name.to_string()).or_default();
        Ok(())
    }

    /// Stop capturing events for `name`, discarding any undrained ones.
    pub fn disable_delta_log(&mut self, name: &str) {
        self.delta_logs.remove(name);
    }

    /// Number of undrained events in `name`'s delta log (0 if no log).
    pub fn delta_log_len(&self, name: &str) -> usize {
        self.delta_logs.get(name).map_or(0, DeltaLog::len)
    }

    /// Drain the accumulated signed row events for `name`, in sequence
    /// order. Empty if logging was never enabled.
    pub fn take_deltas(&mut self, name: &str) -> Vec<RowDelta> {
        self.delta_logs
            .get_mut(name)
            .map(DeltaLog::take)
            .unwrap_or_default()
    }

    /// Record that `name`'s contents changed: advance its epoch and drop
    /// TID sets materialized from it. TIDs are heap positions, so they
    /// dangle after a compacting delete and under-cover after an insert;
    /// invalidation makes the staleness loud (lookup errors) instead of
    /// silent (wrong rows).
    fn note_mutation(&mut self, name: &str) {
        // The name is copied for a table's first mutation only.
        match self.epochs.get_mut(name) {
            Some(epoch) => *epoch += 1,
            None => {
                self.epochs.insert(name.to_string(), 1);
            }
        }
        if !self.tid_sets.is_empty() {
            self.tid_sets.retain(|_, set| set.base_table != name);
        }
    }

    /// Open a forward-only filtered cursor on a table (the middleware's
    /// primary access path). `batch_rows` rows travel per simulated round
    /// trip.
    pub fn open_cursor(
        &self,
        table: &str,
        pred: Pred,
        batch_rows: usize,
    ) -> DbResult<crate::cursor::ServerCursor<'_>> {
        let t = self.table(table)?;
        Ok(crate::cursor::ServerCursor::new(
            t,
            pred,
            batch_rows,
            &self.stats,
        ))
    }

    /// Open a filtered cursor restricted to the given half-open `[start,
    /// end)` TID ranges — the `TABLESAMPLE SYSTEM` analogue behind the
    /// middleware's sampled counting mode (DESIGN.md §13). Rows outside the
    /// ranges are never read and never charged.
    pub fn open_block_cursor(
        &self,
        table: &str,
        pred: Pred,
        batch_rows: usize,
        ranges: Vec<(u64, u64)>,
    ) -> DbResult<crate::cursor::BlockCursor<'_>> {
        let t = self.table(table)?;
        Ok(crate::cursor::BlockCursor::new(
            t,
            pred,
            batch_rows,
            ranges,
            &self.stats,
        ))
    }

    /// Open a keyset cursor: snapshot the TIDs satisfying `pred` now, allow
    /// residual-filtered re-scans later (§4.3.3c). Charges a full scan.
    pub fn open_keyset_cursor(
        &self,
        table: &str,
        pred: &Pred,
    ) -> DbResult<crate::cursor::KeysetCursor> {
        crate::cursor::KeysetCursor::open(self, table, pred)
    }

    fn next_temp_name(&mut self, prefix: &str) -> String {
        self.temp_counter += 1;
        format!("#{prefix}_{}", self.temp_counter)
    }

    /// §4.3.3(a): copy the subset of `src` satisfying `pred` into a fresh
    /// temp table; returns its name. Charges a full scan of `src` plus page
    /// writes for the copy — the "unacceptably high overhead" the paper
    /// observes falls directly out of these counters.
    pub fn copy_to_temp(&mut self, src: &str, pred: &Pred) -> DbResult<String> {
        let name = self.next_temp_name("temp");
        let stats = Arc::clone(&self.stats);
        let source = self.table(src)?;
        let mut copy = Table::new(source.schema().clone());
        source.scan_matching(pred, &stats, |_, row| {
            copy.insert_unchecked(row);
        });
        stats.add_pages_written(copy.npages());
        stats.add_temp_table();
        self.tables.insert(name.clone(), copy);
        Ok(name)
    }

    /// §4.3.3(b): materialize the TIDs of rows in `src` satisfying `pred`.
    /// Charges a full scan plus (cheap) writes for the TID list.
    pub fn create_tid_set(&mut self, src: &str, pred: &Pred) -> DbResult<String> {
        let name = self.next_temp_name("tids");
        let stats = Arc::clone(&self.stats);
        let source = self.table(src)?;
        let tids = source.matching_tids(pred, &stats);
        // TIDs are 8 bytes each; charge the pages the list occupies.
        let tid_pages = (tids.len() as u64 * 8).div_ceil(crate::page::PAGE_SIZE as u64);
        stats.add_pages_written(tid_pages.max(1));
        stats.add_temp_table();
        self.tid_sets.insert(
            name.clone(),
            TidSet {
                base_table: src.to_string(),
                tids,
            },
        );
        Ok(name)
    }

    /// Look up a materialized TID set by name.
    pub fn tid_set(&self, name: &str) -> DbResult<&TidSet> {
        self.tid_sets
            .get(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Remove a TID set.
    pub fn drop_tid_set(&mut self, name: &str) -> DbResult<()> {
        self.tid_sets
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// §4.3.3(b): fetch the rows of a TID set through random page reads
    /// ("join between T and the TID table"), applying a residual predicate,
    /// and ship the matches over the wire, `batch_rows` per round trip like
    /// a cursor's, appending them to `out` as a flat code vector. Returns
    /// the match count. The per-row random read — a page read and a TID
    /// fetch charged per TID — is what makes this path lose to a filtered
    /// sequential scan unless the TID set is very small.
    pub fn tid_scan(
        &self,
        tid_set: &str,
        residual: &Pred,
        batch_rows: usize,
        out: &mut Vec<Code>,
    ) -> DbResult<usize> {
        let set = self.tid_set(tid_set)?;
        let base = self.table(&set.base_table)?;
        let stats = &self.stats;
        let charge_run = |tids: u64| {
            stats.add_pages_read(tids);
            stats.add_tid_fetches(tids);
        };
        crate::cursor::ship_tids(
            base, &set.tids, residual, batch_rows, stats, charge_run, out,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with_data() -> Database {
        let mut db = Database::new();
        db.create_table("t", Schema::from_pairs(&[("a", 4), ("class", 2)]))
            .unwrap();
        for i in 0..100u16 {
            db.insert("t", &[i % 4, i % 2]).unwrap();
        }
        db
    }

    #[test]
    fn catalog_crud() {
        let mut db = db_with_data();
        assert!(db.table("t").is_ok());
        assert!(matches!(db.table("nope"), Err(DbError::UnknownTable(_))));
        assert!(matches!(
            db.create_table("t", Schema::from_pairs(&[("x", 2)])),
            Err(DbError::DuplicateTable(_))
        ));
        db.drop_table("t").unwrap();
        assert!(db.table("t").is_err());
    }

    #[test]
    fn copy_to_temp_filters_and_charges() {
        let mut db = db_with_data();
        let before = db.stats().snapshot();
        let temp = db
            .copy_to_temp("t", &Pred::Eq { col: 0, value: 1 })
            .unwrap();
        let delta = db.stats().snapshot() - before;
        assert_eq!(db.table(&temp).unwrap().nrows(), 25);
        assert_eq!(delta.rows_scanned, 100, "full source scan paid");
        assert!(delta.pages_written >= 1, "copy pays writes");
        assert_eq!(delta.temp_tables, 1);
    }

    #[test]
    fn tid_set_and_scan() {
        let mut db = db_with_data();
        let tids = db
            .create_tid_set("t", &Pred::Eq { col: 0, value: 2 })
            .unwrap();
        assert_eq!(db.tid_set(&tids).unwrap().tids.len(), 25);

        let before = db.stats().snapshot();
        let mut out = Vec::new();
        let n = db
            .tid_scan(&tids, &Pred::Eq { col: 1, value: 0 }, 1024, &mut out)
            .unwrap();
        let delta = db.stats().snapshot() - before;
        // a=2 rows have i%4==2, i even → class=i%2=0 always
        assert_eq!(n, 25);
        assert_eq!(out.len(), 50);
        assert_eq!(delta.tid_fetches, 25, "one random fetch per TID");
        db.drop_tid_set(&tids).unwrap();
        assert!(db.tid_set(&tids).is_err());
    }

    /// Regression: the TID join used to be charged one round trip however
    /// many rows it shipped — one even for none — and no batch headers, so
    /// the same rows cost less through §4.3.3(b) than through a cursor.
    #[test]
    fn tid_scan_pays_the_wire_a_cursor_pays() {
        let mut db = Database::new();
        db.create_table("t", Schema::from_pairs(&[("a", 4), ("class", 2)]))
            .unwrap();
        for i in 0..5000u32 {
            db.insert("t", &[(i % 4) as Code, (i % 2) as Code]).unwrap();
        }
        let filter = Pred::NotEq { col: 0, value: 3 };
        let before = db.stats().snapshot();
        let mut by_cursor = Vec::new();
        let shipped = db
            .open_cursor("t", filter.clone(), 1000)
            .unwrap()
            .fetch_all(&mut by_cursor);
        let cursor = db.stats().snapshot() - before;
        assert_eq!((shipped, cursor.wire_round_trips), (3750, 4));

        let tids = db.create_tid_set("t", &Pred::True).unwrap();
        let before = db.stats().snapshot();
        let mut by_join = Vec::new();
        assert_eq!(db.tid_scan(&tids, &filter, 1000, &mut by_join), Ok(3750));
        let join = db.stats().snapshot() - before;
        assert_eq!(by_join, by_cursor);
        assert_eq!(join.rows_shipped, cursor.rows_shipped);
        assert_eq!(join.bytes_shipped, cursor.bytes_shipped);
        assert_eq!(join.wire_round_trips, cursor.wire_round_trips);
        assert_eq!(join.tid_fetches, 5000, "one random fetch per TID");
        assert_eq!(join.pages_read, 5000, "each a page read");

        let before = db.stats().snapshot();
        assert_eq!(db.tid_scan(&tids, &Pred::False, 1000, &mut by_join), Ok(0));
        let empty = db.stats().snapshot() - before;
        assert_eq!(
            (
                empty.rows_shipped,
                empty.bytes_shipped,
                empty.wire_round_trips
            ),
            (0, 0, 0),
            "an empty result is free"
        );
    }

    #[test]
    fn temp_names_are_unique() {
        let mut db = db_with_data();
        let a = db.copy_to_temp("t", &Pred::True).unwrap();
        let b = db.copy_to_temp("t", &Pred::True).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn insert_invalidates_materialized_tid_sets() {
        // Regression: insert used to leave TID sets in place, so a cursor
        // over one silently missed the new rows.
        let mut db = db_with_data();
        let tids = db
            .create_tid_set("t", &Pred::Eq { col: 0, value: 2 })
            .unwrap();
        assert!(db.tid_set(&tids).is_ok());
        db.insert("t", &[2, 0]).unwrap();
        assert!(
            db.tid_set(&tids).is_err(),
            "mutation must invalidate TID sets over the base table"
        );
    }

    #[test]
    fn delete_and_update_invalidate_tid_sets_only_on_change() {
        let mut db = db_with_data();
        let tids = db.create_tid_set("t", &Pred::True).unwrap();
        db.create_table("u", Schema::from_pairs(&[("x", 2)]))
            .unwrap();
        db.insert("u", &[1]).unwrap();
        assert!(
            db.tid_set(&tids).is_ok(),
            "mutating another table keeps t's TID sets"
        );
        assert_eq!(db.update_where("t", &Pred::False, &[(1, 0)]).unwrap(), 0);
        assert_eq!(db.delete_where("t", &Pred::False).unwrap(), 0);
        assert!(db.tid_set(&tids).is_ok(), "no-op DML keeps TID sets");
        assert!(
            db.delete_where("t", &Pred::Eq { col: 0, value: 1 })
                .unwrap()
                > 0
        );
        assert!(db.tid_set(&tids).is_err(), "real delete invalidates");
    }

    #[test]
    fn epochs_advance_per_mutation_and_per_table() {
        let mut db = db_with_data();
        let e0 = db.table_epoch("t");
        db.insert("t", &[0, 0]).unwrap();
        assert_eq!(db.table_epoch("t"), e0 + 1);
        db.delete_where("t", &Pred::Eq { col: 0, value: 0 })
            .unwrap();
        assert_eq!(db.table_epoch("t"), e0 + 2);
        assert_eq!(
            db.update_where("t", &Pred::False, &[(1, 0)]).unwrap(),
            0,
            "predicate matches nothing"
        );
        assert_eq!(db.table_epoch("t"), e0 + 2, "no-op DML keeps the epoch");
        assert_eq!(db.table_epoch("untouched"), 0);
    }

    #[test]
    fn delta_log_captures_signed_events_in_sequence() {
        use crate::delta::DeltaSign;
        let mut db = db_with_data();
        assert!(db.enable_delta_log("missing").is_err());
        db.enable_delta_log("t").unwrap();
        db.insert("t", &[3, 1]).unwrap();
        let changed = db
            .update_where("t", &Pred::Eq { col: 0, value: 3 }, &[(1, 0)])
            .unwrap();
        let removed = db
            .delete_where("t", &Pred::Eq { col: 0, value: 3 })
            .unwrap();
        let events = db.take_deltas("t");
        assert_eq!(events[0].sign, DeltaSign::Insert);
        assert_eq!(events[0].row, vec![3, 1]);
        let deletes = events
            .iter()
            .filter(|e| e.sign == DeltaSign::Delete)
            .count() as u64;
        let inserts = events
            .iter()
            .filter(|e| e.sign == DeltaSign::Insert)
            .count() as u64;
        // 1 raw insert + one delete/insert pair per changed row + one
        // delete per removed row.
        assert_eq!(inserts, 1 + changed);
        assert_eq!(deletes, changed + removed);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(db.delta_log_len("t"), 0, "take drains");
        // Events without logging enabled: none.
        db.disable_delta_log("t");
        db.insert("t", &[0, 0]).unwrap();
        assert!(db.take_deltas("t").is_empty());
    }

    #[test]
    fn delta_replay_reconstructs_final_table_counts() {
        use crate::delta::DeltaSign;
        use std::collections::HashMap as Map;
        let mut db = db_with_data();
        db.enable_delta_log("t").unwrap();
        // Multiset of rows before mutations.
        let mut counts: Map<Vec<Code>, i64> = Map::new();
        for row in db.table("t").unwrap().rows_unaccounted() {
            *counts.entry(row.to_vec()).or_insert(0) += 1;
        }
        db.insert("t", &[1, 1]).unwrap();
        db.update_where("t", &Pred::Eq { col: 0, value: 2 }, &[(1, 1)])
            .unwrap();
        db.delete_where("t", &Pred::Eq { col: 0, value: 0 })
            .unwrap();
        for ev in db.take_deltas("t") {
            let slot = counts.entry(ev.row.clone()).or_insert(0);
            match ev.sign {
                DeltaSign::Insert => *slot += 1,
                DeltaSign::Delete => *slot -= 1,
            }
        }
        let mut actual: Map<Vec<Code>, i64> = Map::new();
        for row in db.table("t").unwrap().rows_unaccounted() {
            *actual.entry(row.to_vec()).or_insert(0) += 1;
        }
        counts.retain(|_, n| *n != 0);
        assert_eq!(counts, actual, "replayed deltas must equal a fresh scan");
    }
}
