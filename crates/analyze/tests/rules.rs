//! Fixture tests for the invariant analyzer: each rule fires exactly where
//! the bad fixtures say it should, `analyze:allow` suppresses exactly its
//! rule and line, and the CLI's `--deny` exit codes match.

use std::path::{Path, PathBuf};
use std::process::Command;

use scaleclass_analyze::{
    analyze_workspace, check_source, RULE_ACCOUNTING_ARITH, RULE_ATOMIC_ORDERING, RULE_ENV_READ,
    RULE_GUARD_BLOCKING, RULE_HOT_PATH_PANIC, RULE_IO_BYPASS, RULE_LOCK_ORDER, RULE_PAGE_WRITE,
    RULE_STALE_LOCK_SITE, RULE_STALE_SCOPE, RULE_STATS_COVERAGE,
};

fn fixture_root(which: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(which)
}

fn fixture(which: &str, rel: &str) -> String {
    std::fs::read_to_string(fixture_root(which).join(rel)).unwrap()
}

/// `(rule, line)` pairs of a report's violations, sorted.
fn fired(report: &scaleclass_analyze::Report) -> Vec<(&'static str, u32)> {
    report.violations.iter().map(|v| (v.rule, v.line)).collect()
}

#[test]
fn accounting_arith_fires_on_each_pattern() {
    let rel = "crates/core/src/scheduler.rs";
    let report = check_source(rel, &fixture("bad", rel));
    assert_eq!(
        fired(&report),
        vec![
            (RULE_ACCOUNTING_ARITH, 5), // reserved + bound
            (RULE_ACCOUNTING_ARITH, 6), // bound * 3
            (RULE_ACCOUNTING_ARITH, 7), // budget - bound
            (RULE_ACCOUNTING_ARITH, 8), // rows as u64
        ]
    );
    assert!(report.violations[3].msg.contains("`as u64`"));
    assert!(report.suppressed.is_empty());
}

#[test]
fn accounting_arith_is_fn_scoped_in_cc() {
    let rel = "crates/core/src/cc.rs";
    // Only the named kernel fns are in scope: the same arithmetic in a
    // neighbouring scan fn must not fire.
    let src = "impl DenseCounts {\n\
               fn add_block(&mut self, base: u32, v: u32, nc: u32) -> u32 {\n\
               base + v * nc\n\
               }\n\
               fn add_row(&mut self, a: u64, b: u64) -> u64 {\n\
               a + b\n\
               }\n\
               }\n\
               pub fn block_growth_bound(rows: u64, attrs: u64) -> u64 {\n\
               rows * attrs\n\
               }\n";
    let report = check_source(rel, src);
    assert_eq!(
        fired(&report),
        vec![
            (RULE_ACCOUNTING_ARITH, 3),  // base + ...
            (RULE_ACCOUNTING_ARITH, 3),  // ... v * nc
            (RULE_ACCOUNTING_ARITH, 10), // rows * attrs
        ]
    );

    // Allow directives inside the scoped fns suppress as usual.
    let src = "fn add_block(x: u32, y: u32) -> u32 {\n\
               x + y // analyze:allow(accounting-arith): proven in-bounds by the max-scan\n\
               }\n";
    let report = check_source(rel, src);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.suppressed.len(), 1);
}

#[test]
fn accounting_arith_fires_inside_the_block_kernel() {
    // The in-place kernel's slot index is scoped by name: an unvetted
    // `+`, `*` or cast in it fires.
    let rel = "crates/core/src/cc.rs";
    let report = check_source(rel, &fixture("bad", rel));
    assert_eq!(
        fired(&report),
        vec![
            (RULE_ACCOUNTING_ARITH, 7), // base + ...
            (RULE_ACCOUNTING_ARITH, 7), // ... value * nc
            (RULE_ACCOUNTING_ARITH, 8), // slot as usize
        ]
    );
}

#[test]
fn hot_path_panic_fires_on_each_pattern() {
    let rel = "crates/core/src/parallel.rs";
    let report = check_source(rel, &fixture("bad", rel));
    assert_eq!(
        fired(&report),
        vec![
            (RULE_HOT_PATH_PANIC, 7),  // .unwrap()
            (RULE_HOT_PATH_PANIC, 10), // row[i] inside the scan loop
            (RULE_HOT_PATH_PANIC, 13), // .expect()
            (RULE_HOT_PATH_PANIC, 15), // panic!
        ]
    );
}

#[test]
fn hot_path_panic_is_fn_scoped_in_the_router() {
    let rel = "crates/sqldb/src/expr.rs";
    // Only the router's walk fns are in scope: the same constructs in the
    // AST helpers beside them (never on a scan path) must not fire.
    let src = "impl Pred {\n\
               pub fn and(preds: Vec<Pred>) -> Pred {\n\
               loop { return preds[0].clone().pop().expect(\"len checked\"); }\n\
               }\n\
               }\n\
               impl PredSet {\n\
               fn walk(&self, mut at: u32) {\n\
               loop {\n\
               let test = &self.tests[at as usize];\n\
               at = test.next.unwrap();\n\
               }\n\
               }\n\
               fn partition(&self, rows: &[u32], free: &mut [u32]) {\n\
               let mut kept = 0;\n\
               for &r in rows {\n\
               free[kept] = r;\n\
               kept += 1;\n\
               }\n\
               }\n\
               }\n";
    let report = check_source(rel, src);
    assert_eq!(
        fired(&report),
        vec![
            (RULE_HOT_PATH_PANIC, 9),  // tests[at] inside the walk loop
            (RULE_HOT_PATH_PANIC, 10), // .unwrap()
            (RULE_HOT_PATH_PANIC, 16), // free[kept] inside the block router's pass
        ]
    );
}

#[test]
fn hot_path_panic_is_fn_scoped_in_the_server_page_and_fetch_path() {
    // The page filter, the cursor's fetch loop and the wire's bulk
    // marshalling are in scope; the catalog and keyset bookkeeping beside
    // them is not.
    let cursor = "impl KeysetCursor {\n\
                  pub fn len(&self) -> usize {\n\
                  loop { return self.tids[0].0.checked_add(1).unwrap() as usize; }\n\
                  }\n\
                  }\n\
                  impl ServerCursor<'_> {\n\
                  pub fn fetch(&mut self, out: &mut Vec<Code>) -> usize {\n\
                  loop {\n\
                  let last = self.sel[self.shipped];\n\
                  if !self.next_run() { break; }\n\
                  }\n\
                  self.batch.transmit(self.arity, self.stats, out)\n\
                  }\n\
                  }\n";
    let report = check_source("crates/sqldb/src/cursor.rs", cursor);
    assert_eq!(
        fired(&report),
        vec![(RULE_HOT_PATH_PANIC, 9)], // sel[shipped] inside the fetch loop
    );
    let wire = "impl WireBatch {\n\
                pub fn clear(&mut self) {\n\
                for b in 0..1 { self.buf[b] = 0; }\n\
                }\n\
                pub fn push_selected(&mut self, rows: &[Code], arity: usize, sel: &[u32]) {\n\
                for &r in sel {\n\
                let start = r as usize * arity;\n\
                encode(&rows[start..start + arity], &mut self.buf);\n\
                }\n\
                }\n\
                pub fn transmit(&mut self, out: &mut Vec<Code>) {\n\
                for pair in self.buf.chunks(2) {\n\
                out.push(Code::from_le_bytes(pair.try_into().unwrap()));\n\
                }\n\
                }\n\
                }\n";
    let report = check_source("crates/sqldb/src/wire.rs", wire);
    assert_eq!(
        fired(&report),
        vec![
            (RULE_HOT_PATH_PANIC, 8),  // rows[start..] inside the per-row copy
            (RULE_HOT_PATH_PANIC, 13), // .unwrap() in the unmarshal loop
        ]
    );
    let router = "impl BlockRoute {\n\
                  pub fn mark_matched(&mut self) {\n\
                  for &r in rows { self.taken[r as usize] = true; }\n\
                  }\n\
                  }\n";
    let report = check_source("crates/sqldb/src/expr.rs", router);
    assert_eq!(fired(&report), vec![(RULE_HOT_PATH_PANIC, 3)]);
    // The page filter: its masks' compile step, the page evaluation and
    // the column pass.
    let filter = "impl PageFilter {\n\
                  pub fn compile(filter: &Pred, col_max: &[Code]) -> PageFilter {\n\
                  for atom in atoms { masks[atom.value as usize] &= 1; }\n\
                  }\n\
                  pub fn select(&mut self, rows: &[Code], sel: &mut Vec<u32>) {\n\
                  let word = self.words.first().unwrap();\n\
                  }\n\
                  }\n\
                  fn narrow(rows: &[u32], sel: &mut [u32]) {\n\
                  for (k, &r) in rows.iter().enumerate() { sel[k] = r; }\n\
                  }\n";
    let report = check_source("crates/sqldb/src/expr.rs", filter);
    assert_eq!(
        fired(&report),
        vec![
            (RULE_HOT_PATH_PANIC, 3),  // masks[value] per atom
            (RULE_HOT_PATH_PANIC, 6),  // .unwrap() on a page
            (RULE_HOT_PATH_PANIC, 10), // sel[k] inside the column pass
        ]
    );
}

#[test]
fn hot_path_panic_is_fn_scoped_in_the_dml_path() {
    // `DELETE`/`UPDATE` filter a page at a time and then compact or assign
    // in place: their bodies and page-run helpers are in scope, bulk load
    // beside them is not.
    let rel = "crates/sqldb/src/storage.rs";
    let report = check_source(rel, &fixture("bad", rel));
    let panics: Vec<_> = fired(&report)
        .into_iter()
        .filter(|&(rule, _)| rule == RULE_HOT_PATH_PANIC)
        .collect();
    assert_eq!(
        panics,
        vec![
            (RULE_HOT_PATH_PANIC, 14), // pages[tid / per_page] per changed row
            (RULE_HOT_PATH_PANIC, 16), // row[col] per assignment
            (RULE_HOT_PATH_PANIC, 24), // .expect() in the page-run helper
        ]
    );
    // … and a page's append and in-place mutators with them.
    let page = "impl Page {\n\
                pub fn push_row(&mut self, row: &[Code]) -> bool {\n\
                for (i, &code) in row.iter().enumerate() { self.data[i] = code; }\n\
                true\n\
                }\n\
                pub(crate) fn truncate_rows(&mut self, nrows: usize) {\n\
                while self.nrows > nrows { self.data[self.nrows] = 0; self.nrows -= 1; }\n\
                }\n\
                }\n";
    let report = check_source("crates/sqldb/src/page.rs", page);
    assert_eq!(
        fired(&report),
        vec![(RULE_HOT_PATH_PANIC, 3), (RULE_HOT_PATH_PANIC, 7)]
    );
    // The per-row load loop carries the certificate now: it is in scope.
    let load = "impl Table {\n\
                pub fn insert_unchecked(&mut self, row: &[Code]) {\n\
                for (m, c) in self.col_max.iter_mut().zip(row) { self.seen[*c as usize] = true; }\n\
                self.pages.last_mut().unwrap().push_row(row);\n\
                }\n\
                }\n";
    let report = check_source(rel, load);
    assert_eq!(
        fired(&report),
        vec![(RULE_HOT_PATH_PANIC, 3), (RULE_HOT_PATH_PANIC, 4)]
    );
}

#[test]
fn page_write_fires_outside_the_certificates_two_writers() {
    let rel = "crates/sqldb/src/storage.rs";
    let report = check_source(rel, &fixture("bad", rel));
    let writes: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == RULE_PAGE_WRITE)
        .collect();
    assert_eq!(
        writes.iter().map(|v| v.line).collect::<Vec<_>>(),
        vec![
            7,  // push_row in a bulk loader that is not insert_unchecked
            30, // row_mut in a helper that is not update_where_with
        ]
    );
    assert!(writes[0].msg.contains("`push_row`") && writes[0].msg.contains("col_max"));
    // The same calls from the two writers, by path or method, and from
    // tests, are clean — and so is code outside the server crate.
    let src = "impl Table {\n\
               pub fn insert_unchecked(&mut self, row: &[Code]) {\n\
               if !Page::push_row(self.pages.last_mut()?, row) { self.grow(row); }\n\
               }\n\
               pub fn update_where_with(&mut self, tid: usize) {\n\
               self.pages[0].row_mut(tid)[0] = 1;\n\
               }\n\
               }\n\
               fn grow(page: &mut Page, row: &[Code]) { Page::push_row(page, row); }\n\
               #[cfg(test)]\n\
               mod tests {\n\
               fn t(p: &mut Page) { p.push_row(&[0]); p.row_mut(0); }\n\
               }\n";
    let report = check_source(rel, src);
    assert_eq!(fired(&report), vec![(RULE_PAGE_WRITE, 9)]);
    let report = check_source("crates/core/src/staging.rs", src);
    assert!(!report.violations.iter().any(|v| v.rule == RULE_PAGE_WRITE));
}

#[test]
fn hot_path_panic_is_fn_scoped_in_the_staged_file_byte_path() {
    let rel = "crates/core/src/staging.rs";
    // The extent reader parses bytes that come from disk: the shapes
    // `verify` and the decode loop used to have must fire, the same
    // constructs in the manager's bookkeeping beside them must not.
    let src = "impl StagingManager {\n\
               fn commit_file(&mut self, id: u64) {\n\
               for m in members { self.files.get_mut(&id).expect(\"live file\").members[0] = m; }\n\
               }\n\
               }\n\
               impl ExtentReader {\n\
               fn verify(&self) -> u32 {\n\
               u32::from_le_bytes(self.byte_buf[0..4].try_into().unwrap())\n\
               }\n\
               fn decode_extent_columns(&mut self, nrows: usize) {\n\
               for c in 0..self.layout.arity {\n\
               let col = &payload[c * nrows..];\n\
               }\n\
               }\n\
               }\n\
               fn load16(bytes: &[u8; 16]) -> u128 {\n\
               u128::from_le_bytes(bytes[..].try_into().unwrap())\n\
               }\n";
    let report = check_source(rel, src);
    assert_eq!(
        fired(&report),
        vec![
            (RULE_HOT_PATH_PANIC, 8),  // .unwrap() on a disk-derived slice
            (RULE_HOT_PATH_PANIC, 12), // payload[..] inside the column loop
            // A checksum kernel whose signature holds an array type.
            (RULE_HOT_PATH_PANIC, 17),
        ]
    );
}

#[test]
fn hot_path_panic_is_fn_scoped_in_the_split_enumeration() {
    let rel = "crates/dtree/src/split.rs";
    // The per-candidate kernel is in scope; `chi_square` beside it takes a
    // caller-shaped table and is not.
    let src = "pub fn chi_square(children: &[Vec<u64>]) -> f64 {\n\
               for row in children { total += row[0]; }\n\
               }\n\
               impl Parent {\n\
               fn binary(&self, left: &[u64], right: &mut [u64]) -> Option<f64> {\n\
               for c in 0..left.len() {\n\
               right[c] = self.counts[c] - left[c];\n\
               }\n\
               }\n\
               }\n\
               pub(crate) fn rank_splits(cc: &CountsTable, attrs: &[u16]) -> Ranking {\n\
               for &attr in attrs {\n\
               let best = ranking.best.unwrap();\n\
               }\n\
               }\n";
    let report = check_source(rel, src);
    assert_eq!(
        fired(&report),
        vec![
            (RULE_HOT_PATH_PANIC, 7), // right[c] / counts[c] / left[c] per candidate
            (RULE_HOT_PATH_PANIC, 7),
            (RULE_HOT_PATH_PANIC, 7),
            (RULE_HOT_PATH_PANIC, 13), // .unwrap() in the per-attribute loop
        ]
    );
}

#[test]
fn hot_path_panic_is_fn_scoped_in_the_client_loop() {
    let rel = "crates/dtree/src/grow.rs";
    // The loop and the exact fulfilment are in scope; a helper beside
    // them is not.
    let src = "impl GrowState {\n\
               fn drain(&mut self) {\n\
               let open = self.open.remove(&idx).expect(\"requested\");\n\
               }\n\
               fn apply_exact(&mut self) {\n\
               let d = decide(cc).unwrap();\n\
               }\n\
               fn request(&mut self) {\n\
               let n = req.node().unwrap();\n\
               }\n\
               }\n";
    let report = check_source(rel, src);
    assert_eq!(
        fired(&report),
        vec![(RULE_HOT_PATH_PANIC, 3), (RULE_HOT_PATH_PANIC, 6)]
    );
}

#[test]
fn hot_path_panic_is_fn_scoped_in_the_sibling_plans() {
    let rel = "crates/core/src/siblings.rs";
    // Planning a batch, a pair, one side and the class split are in scope;
    // the plan's own accessors beside them are not.
    let src = "impl Parents {\n\
               pub(crate) fn plan(&mut self, nodes: &[ScheduledNode]) -> Vec<Option<Plan>> {\n\
               for i in 0..nodes.len() { let node = &nodes[i]; }\n\
               }\n\
               }\n\
               fn pair(table: &CountsTable, rows: &[u64]) -> Option<Plan> {\n\
               for k in 0..rows.len() { let eq = rows[k] > 0; }\n\
               }\n\
               fn side(table: &CountsTable) -> Option<Plan> {\n\
               let split = table.class_split(0, 1).unwrap();\n\
               }\n\
               fn child_classes(table: &CountsTable) -> Option<[Vec<u64>; 2]> {\n\
               let [with, all] = table.class_split(col, value).expect(\"dense\");\n\
               }\n\
               impl Plan {\n\
               fn rows_from(&self, source: ClassSource) -> u64 {\n\
               for k in 0..self.rows.len() { n += self.rows[k]; }\n\
               }\n\
               }\n";
    let report = check_source(rel, src);
    assert_eq!(
        fired(&report),
        vec![
            (RULE_HOT_PATH_PANIC, 3),
            (RULE_HOT_PATH_PANIC, 7),
            (RULE_HOT_PATH_PANIC, 10),
            (RULE_HOT_PATH_PANIC, 13),
        ]
    );
}

#[test]
fn io_bypass_fires_on_each_pattern() {
    let rel = "crates/core/src/middleware.rs";
    let report = check_source(rel, &fixture("bad", rel));
    assert_eq!(
        fired(&report),
        vec![
            (RULE_IO_BYPASS, 3),  // use std::fs::File
            (RULE_IO_BYPASS, 7),  // File::open
            (RULE_IO_BYPASS, 12), // std::fs::write
        ]
    );
}

#[test]
fn io_bypass_exempts_the_staging_layer() {
    let src = fixture("bad", "crates/core/src/middleware.rs");
    let report = check_source("crates/core/src/staging.rs", &src);
    assert!(report.violations.is_empty(), "staging.rs may do raw I/O");
    let report = check_source("crates/sqldb/src/pager.rs", &src);
    assert!(report.violations.is_empty(), "sqldb may do raw I/O");
}

#[test]
fn stats_coverage_requires_write_and_test_assert() {
    let report = analyze_workspace(&fixture_root("bad")).unwrap();
    let stats: Vec<(u32, &str)> = report
        .violations
        .iter()
        .filter(|v| v.rule == RULE_STATS_COVERAGE)
        .map(|v| (v.line, v.msg.as_str()))
        .collect();
    assert_eq!(stats.len(), 3, "stats findings: {stats:?}");
    // `phantom_writes` is written but never asserted.
    assert_eq!(stats[0].0, 9);
    assert!(stats[0].1.contains("phantom_writes"));
    assert!(stats[0].1.contains("never asserted"));
    // `ghost_reads` is neither written nor asserted.
    assert_eq!(stats[1].0, 11);
    assert!(stats[1].1.contains("ghost_reads"));
    assert!(stats[1].1.contains("never"));
    assert_eq!(stats[2].0, 11);
    // `rounds` (written + asserted) must NOT be flagged.
    assert!(!stats
        .iter()
        .any(|(_, m)| m.contains("`MiddlewareStats.rounds`")));
}

#[test]
fn lock_order_guard_blocking_and_atomic_fire_at_pinned_lines() {
    let rel = "crates/core/src/session.rs";
    let report = check_source(rel, &fixture("bad", rel));
    assert_eq!(
        fired(&report),
        vec![
            (RULE_LOCK_ORDER, 10),      // inner.lock() while db guard live
            (RULE_GUARD_BLOCKING, 11),  // tx.send under the inner guard
            (RULE_ATOMIC_ORDERING, 13), // lease.load(Ordering::Relaxed)
        ]
    );
    assert!(report.violations[0].msg.contains("contradicts LOCK_ORDER"));
    assert!(report.violations[0].msg.contains("`arbiter.inner`"));
    assert!(report.violations[1].msg.contains("`.send(`"));
    assert!(report.violations[1].msg.contains("held since line 10"));
    assert!(report.violations[2].msg.contains("Relaxed"));
}

#[test]
fn lock_order_reentrant_and_unknown_lock() {
    let rel = "crates/core/src/catalog.rs";
    let report = check_source(rel, &fixture("bad", rel));
    assert_eq!(
        fired(&report),
        vec![
            (RULE_LOCK_ORDER, 8),  // second inner.lock() under the first
            (RULE_LOCK_ORDER, 11), // shadow.lock() matches no manifest row
        ]
    );
    assert!(report.violations[0].msg.contains("re-entrant"));
    assert!(report.violations[1].msg.contains("LOCK_SITES"));
    // The fixture's deliberately stale directive is reported as such.
    assert_eq!(report.stale.len(), 1);
    assert_eq!(report.stale[0].1.line, 16);
    assert_eq!(report.stale[0].1.rule, "accounting-arith");
}

#[test]
fn ordered_acquisition_and_dropped_guards_are_clean() {
    let rel = "crates/core/src/session.rs";
    let report = check_source(rel, &fixture("clean", rel));
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    // The vetted Relaxed load is suppressed, not dropped.
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].0.rule, RULE_ATOMIC_ORDERING);
    assert!(report.stale.is_empty());
}

#[test]
fn guard_liveness_ends_at_scope_statement_and_drop() {
    let rel = "crates/core/src/catalog.rs";
    // A guard bound inside a block dies at the block's close brace.
    let src = "pub fn f(&self, tx: &Sender<u64>) {\n\
               {\n\
               let g = self.inner.lock();\n\
               g.push(1);\n\
               }\n\
               tx.send(0);\n\
               }\n";
    let report = check_source(rel, src);
    assert!(report.violations.is_empty(), "{:?}", report.violations);

    // An unbound acquisition is a statement-scoped temporary.
    let src = "pub fn f(&self, tx: &Sender<u64>) {\n\
               self.inner.lock().clear();\n\
               tx.send(0);\n\
               }\n";
    let report = check_source(rel, src);
    assert!(report.violations.is_empty(), "{:?}", report.violations);

    // ...but later in the same statement the temporary is still live.
    let src = "pub fn f(&self, rx: &Receiver<u64>) {\n\
               merge(self.inner.lock(), rx.recv());\n\
               }\n";
    let report = check_source(rel, src);
    assert_eq!(fired(&report), vec![(RULE_GUARD_BLOCKING, 2)]);

    // `path.join(x)` is not a thread join; zero-arg `.join()` is.
    let src = "pub fn f(&self, h: Handle, p: &Path) {\n\
               let g = self.inner.lock();\n\
               let q = p.join(g.name());\n\
               drop(g);\n\
               h.join();\n\
               }\n";
    let report = check_source(rel, src);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    let src = "pub fn f(&self, h: Handle) {\n\
               let g = self.inner.lock();\n\
               h.join();\n\
               }\n";
    let report = check_source(rel, src);
    assert_eq!(fired(&report), vec![(RULE_GUARD_BLOCKING, 3)]);

    // The threaded front-ends join session threads: a database guard held
    // across that join is caught there too.
    let src = "pub fn f(&self, h: Handle) {\n\
               let db = self.backend.db();\n\
               h.join();\n\
               }\n";
    let report = check_source("crates/core/src/concurrent.rs", src);
    assert_eq!(fired(&report), vec![(RULE_GUARD_BLOCKING, 3)]);
}

#[test]
fn nested_locks_follow_the_manifest_order() {
    let rel = "crates/core/src/catalog.rs";
    // catalog.inner → backend.db matches LOCK_ORDER.
    let src = "pub fn publish(&self) {\n\
               let g = self.inner.lock();\n\
               let db = self.db.read();\n\
               drop(db);\n\
               drop(g);\n\
               }\n";
    let report = check_source(rel, src);
    assert!(report.violations.is_empty(), "{:?}", report.violations);

    // The inverse nesting contradicts it.
    let src = "pub fn publish(&self) {\n\
               let db = self.db.read();\n\
               let g = self.inner.lock();\n\
               drop(g);\n\
               drop(db);\n\
               }\n";
    let report = check_source(rel, src);
    assert_eq!(fired(&report), vec![(RULE_LOCK_ORDER, 3)]);
}

#[test]
fn env_read_fires_in_library_code_only() {
    let bad = analyze_workspace(&fixture_root("bad")).unwrap();
    let env: Vec<_> = bad
        .violations
        .iter()
        .filter(|v| v.rule == RULE_ENV_READ)
        .collect();
    assert_eq!(env.len(), 1, "env findings: {env:?}");
    assert_eq!(
        (env[0].file.as_str(), env[0].line),
        ("crates/core/src/envknob.rs", 5)
    );
    assert!(env[0].msg.contains("`std::env::var`"));

    // Every spelling of a read fires: a path call, an import, a grouped
    // import. Other `std::env` functions and test code do not.
    let src = "use std::env;\n\
               use std::env::var_os;\n\
               use std::env::{args, vars};\n\
               pub fn f() -> bool { env::var(\"X\").is_ok() }\n\
               pub fn g() -> PathBuf { std::env::temp_dir() }\n\
               #[cfg(test)]\n\
               mod tests { fn t() { std::env::var(\"X\").ok(); } }\n";
    let report = check_source("crates/dtree/src/grow.rs", src);
    assert_eq!(
        fired(&report),
        vec![(RULE_ENV_READ, 2), (RULE_ENV_READ, 3), (RULE_ENV_READ, 4)]
    );
    // Binaries, test crates and the benchmark harness may read it.
    for rel in [
        "crates/bench/src/bin/experiments.rs",
        "crates/core/tests/props.rs",
        "tests/src/lib.rs",
        "benchmark/src/main.rs",
    ] {
        let report = check_source(rel, src);
        assert!(
            report.violations.is_empty(),
            "{rel}: {:?}",
            report.violations
        );
    }

    let clean = analyze_workspace(&fixture_root("clean")).unwrap();
    assert!(!clean.violations.iter().any(|v| v.rule == RULE_ENV_READ));
}

#[test]
fn stale_allow_detection_across_trees() {
    // The stale tree has zero violations and exactly one stale directive.
    let stale = analyze_workspace(&fixture_root("stale")).unwrap();
    assert!(stale.violations.is_empty(), "{:?}", stale.violations);
    assert_eq!(stale.stale.len(), 1);
    assert_eq!(stale.stale[0].0, "crates/core/src/scheduler.rs");
    assert_eq!(stale.stale[0].1.line, 6);

    // Every clean-tree directive still earns its keep.
    let clean = analyze_workspace(&fixture_root("clean")).unwrap();
    assert!(clean.stale.is_empty(), "{:?}", clean.stale);
}

#[test]
fn a_lock_site_row_naming_no_fn_is_stale() {
    // The tree ships the manifest and defines every transient helper the
    // rows name but `publish`: that one row is reported, at its line.
    let report = analyze_workspace(&fixture_root("stale_site")).unwrap();
    let found: Vec<_> = report
        .violations
        .iter()
        .map(|v| (v.rule, v.file.as_str(), v.line))
        .collect();
    assert_eq!(
        found,
        vec![(RULE_STALE_LOCK_SITE, "crates/analyze/src/rules.rs", 5)]
    );
    assert!(report.violations[0].msg.contains("`publish`"));

    // A tree without the manifest is not checked: the clean tree defines
    // none of these functions and stays clean.
    let clean = analyze_workspace(&fixture_root("clean")).unwrap();
    assert!(clean.violations.is_empty(), "{:?}", clean.violations);

    // The workspace ships the manifest, and every row names a fn.
    let workspace = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let real = analyze_workspace(&workspace).unwrap();
    let stale: Vec<_> = real
        .violations
        .iter()
        .filter(|v| v.rule == RULE_STALE_LOCK_SITE)
        .collect();
    assert!(stale.is_empty(), "{stale:?}");
}

#[test]
fn a_scoped_fn_name_naming_no_fn_of_its_file_is_stale() {
    // The tree ships the manifest, `cc.rs` without `block_growth_bound`
    // and `grow.rs` with `apply_exact` only in its tests: each name is
    // reported, at its line of its scope's entry. The scoped files the
    // tree lacks are not checked.
    let report = analyze_workspace(&fixture_root("stale_scope")).unwrap();
    let found: Vec<_> = (report.violations.iter())
        .filter(|v| v.rule == RULE_STALE_SCOPE)
        .map(|v| (v.file.as_str(), v.line))
        .collect();
    let manifest = "crates/analyze/src/rules.rs";
    assert_eq!(found, vec![(manifest, 5), (manifest, 9)]);
    let msgs: Vec<&str> = (report.violations.iter())
        .filter(|v| v.rule == RULE_STALE_SCOPE)
        .map(|v| v.msg.as_str())
        .collect();
    assert!(msgs[0].contains("ARITH_SCOPED") && msgs[0].contains("`block_growth_bound`"));
    assert!(msgs[1].contains("PANIC_SCOPED") && msgs[1].contains("`apply_exact`"));

    // A tree that ships the manifest but no scoped file has nothing stale.
    let sites = analyze_workspace(&fixture_root("stale_site")).unwrap();
    assert!(!sites.violations.iter().any(|v| v.rule == RULE_STALE_SCOPE));

    // The workspace ships the manifest, and every scoped name is a fn of
    // its file.
    let workspace = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let real = analyze_workspace(&workspace).unwrap();
    let stale: Vec<_> = (real.violations.iter())
        .filter(|v| v.rule == RULE_STALE_SCOPE)
        .collect();
    assert!(stale.is_empty(), "{stale:?}");
}

#[test]
fn bad_tree_fires_every_rule_and_clean_tree_is_clean() {
    let bad = analyze_workspace(&fixture_root("bad")).unwrap();
    for rule in [
        RULE_IO_BYPASS,
        RULE_PAGE_WRITE,
        RULE_ACCOUNTING_ARITH,
        RULE_HOT_PATH_PANIC,
        RULE_STATS_COVERAGE,
        RULE_LOCK_ORDER,
        RULE_GUARD_BLOCKING,
        RULE_ATOMIC_ORDERING,
        RULE_ENV_READ,
    ] {
        assert!(
            bad.violations.iter().any(|v| v.rule == rule),
            "bad tree should trip {rule}"
        );
    }

    let clean = analyze_workspace(&fixture_root("clean")).unwrap();
    assert!(
        clean.violations.is_empty(),
        "clean tree should pass: {:?}",
        clean.violations
    );
    // The clean tree exercises the suppression path: one vetted cast, one
    // vetted index, and one vetted relaxed load, each with a reason the
    // inventory preserves.
    assert_eq!(clean.suppressed.len(), 3);
    assert!(clean
        .suppressed
        .iter()
        .all(|(_, reason)| !reason.is_empty()));
    assert_eq!(clean.allows.len(), 3);
    assert!(clean.stale.is_empty());
}

#[test]
fn allow_suppresses_only_its_rule_and_line() {
    let rel = "crates/core/src/scheduler.rs";
    // Same-line directive suppresses the violation on that line only.
    let src = "pub fn f(a: u64, b: u64) -> u64 {\n\
               let x = a + b; // analyze:allow(accounting-arith): vetted\n\
               x + a\n\
               }\n";
    let report = check_source(rel, src);
    assert_eq!(fired(&report), vec![(RULE_ACCOUNTING_ARITH, 3)]);
    assert_eq!(report.suppressed.len(), 1);

    // A directive for a different rule suppresses nothing.
    let src = "pub fn f(a: u64, b: u64) -> u64 {\n\
               // analyze:allow(hot-path-panic): wrong rule on purpose\n\
               a + b\n\
               }\n";
    let report = check_source(rel, src);
    assert_eq!(fired(&report), vec![(RULE_ACCOUNTING_ARITH, 3)]);

    // A standalone directive covers the next code line through comments.
    let src = "pub fn f(a: u64, b: u64) -> u64 {\n\
               // analyze:allow(accounting-arith): vetted\n\
               // (more commentary in between)\n\
               a + b\n\
               }\n";
    let report = check_source(rel, src);
    assert!(report.violations.is_empty());
    assert_eq!(report.suppressed.len(), 1);

    // ...but not past a non-comment line.
    let src = "pub fn f(a: u64, b: u64) -> u64 {\n\
               // analyze:allow(accounting-arith): vetted\n\
               let x = a;\n\
               x + b\n\
               }\n";
    let report = check_source(rel, src);
    assert_eq!(fired(&report), vec![(RULE_ACCOUNTING_ARITH, 4)]);
}

#[test]
fn allow_without_reason_is_rejected_and_does_not_suppress() {
    let rel = "crates/core/src/scheduler.rs";
    let src = "pub fn f(a: u64, b: u64) -> u64 {\n\
               a + b // analyze:allow(accounting-arith)\n\
               }\n";
    let report = check_source(rel, src);
    let rules: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
    assert!(rules.contains(&RULE_ACCOUNTING_ARITH), "not suppressed");
    assert!(
        rules.contains(&"allow-syntax"),
        "malformed directive flagged"
    );
}

#[test]
fn cli_deny_exit_codes() {
    let bin = env!("CARGO_BIN_EXE_scaleclass-analyze");
    let run = |args: &[&str]| Command::new(bin).args(args).output().unwrap();

    let bad_root = fixture_root("bad");
    let bad = bad_root.to_str().unwrap();
    let clean_root = fixture_root("clean");
    let clean = clean_root.to_str().unwrap();

    let out = run(&["--deny", bad]);
    assert_eq!(out.status.code(), Some(2), "violations + --deny exit 2");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("crates/core/src/scheduler.rs:5: [accounting-arith]"));

    let out = run(&[bad]);
    assert_eq!(out.status.code(), Some(0), "without --deny, report only");

    let out = run(&["--deny", clean]);
    assert_eq!(out.status.code(), Some(0), "clean tree passes --deny");

    let out = run(&["--deny", "--allows", clean]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("analyze:allow inventory"));
    assert!(stdout.contains("fixture"), "inventory shows the reasons");

    // A tree whose only finding is a stale directive exits 3 under --deny
    // (violations would take precedence with exit 2).
    let stale_root = fixture_root("stale");
    let stale = stale_root.to_str().unwrap();
    let out = run(&["--deny", stale]);
    assert_eq!(out.status.code(), Some(3), "stale-only tree exits 3");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("[stale-allow]"));
    assert!(stdout.contains("suppresses no violation"));
    let out = run(&[stale]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stale without --deny reports only"
    );

    let out = run(&["--deny", "/nonexistent/path/for/sure"]);
    assert_eq!(out.status.code(), Some(3), "unreadable root exits 3");
}

#[test]
fn cli_json_output() {
    let bin = env!("CARGO_BIN_EXE_scaleclass-analyze");
    let run = |args: &[&str]| Command::new(bin).args(args).output().unwrap();

    let bad_root = fixture_root("bad");
    let out = run(&["--json", bad_root.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    // A flat JSON array of {file, line, rule, message} records and nothing
    // else on stdout (CI pipes this straight into jq).
    assert!(stdout.trim_start().starts_with('['));
    assert!(stdout.trim_end().ends_with(']'));
    assert!(
        !stdout.contains("scaleclass-analyze:"),
        "no summary in json mode"
    );
    assert!(stdout.contains(r#""file":"crates/core/src/session.rs","line":10,"rule":"lock-order""#));
    assert!(stdout.contains(r#""rule":"guard-across-blocking""#));
    assert!(stdout.contains(r#""rule":"atomic-ordering""#));
    assert!(stdout.contains(r#""rule":"env-read""#));
    // The bad tree's stale directive rides along as a stale-allow record.
    assert!(
        stdout.contains(r#""file":"crates/core/src/catalog.rs","line":16,"rule":"stale-allow""#)
    );
    // Messages with quotes/backticks survive escaping: every quote in the
    // payload is either a structural quote or escaped.
    assert!(!stdout.contains("\n\""), "records are comma-joined");

    let clean_root = fixture_root("clean");
    let out = run(&["--json", clean_root.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.trim(), "[]", "clean tree emits an empty array");
}
