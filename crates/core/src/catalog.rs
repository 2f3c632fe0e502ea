//! Cross-session shared staging catalog.
//!
//! K sessions mining the same table stage K private copies of the same
//! per-node data sets, multiplying both memory and staging I/O by K. The
//! catalog removes that multiplier: the first session to stage a data set
//! pays for the build and *publishes* it; later sessions *attach*
//! copy-on-read instead of re-staging. An entry is keyed by `(path
//! predicate signature, tier)`, so one node's rows can be shared in memory
//! and as a file independently, and [`StagingCatalog::probe`] and
//! [`StagingCatalog::publish`] serve both tiers. Entries are refcounted
//! by reader session — an entry is reclaimable only when its reader count
//! drops to zero — and every live reader of a memory entry is charged an
//! equal share of the entry's modelled bytes against its budget lease
//! (`⌊bytes / readers⌋`, so `Σ shares ≤ bytes` by construction). File
//! entries charge nothing, the same way private staged files never count
//! against the memory budget.
//!
//! Every entry is stamped with the base-table **epoch** (mutation
//! counter, DESIGN.md §15) it was scanned at. Probes and publishes carry
//! the caller's current epoch: a stale entry is refused (and demoted from
//! the index so it can never be attached again) rather than served —
//! incremental maintenance must never count mutated rows out of a
//! pre-mutation snapshot. While `MiddlewareConfig::deltas` is off the
//! epoch is always 0 and this machinery is inert.
//!
//! The catalog is owned by the [`crate::session::Backend`] and engaged per
//! session when [`crate::config::MiddlewareConfig::shared_staging`] is on.
//! Its directory lives under the backend's `staging_dir` when one is set
//! (so a session's finished file moves in by a same-filesystem rename),
//! else under the system temp dir. It performs **no filesystem I/O**
//! itself: shared staged files are renamed into the catalog's directory
//! by [`crate::staging`] (the one module allowed raw file access), and
//! reclaim/teardown return the paths for the caller to remove. Charges
//! live in per-session `AtomicU64` cells recomputed under the catalog lock
//! on every reader-set change, so sessions read their own charge lock-free
//! on the scheduling hot path.
//!
//! Shadow accounting (DESIGN.md §9.3, §11): [`StagingCatalog::
//! assert_shadow_accounting`] recounts every session's charge from the
//! entry table and compares it with the incremental cells, and checks
//! `Σ reader shares ≤ entry bytes` for every entry.
//!
//! Lock discipline: `catalog.inner` is ranked by the `LOCK_ORDER`
//! manifest in `crates/analyze/src/rules.rs` (after `arbiter.inner`,
//! before `backend.db`); the analyzer's concurrency rules (DESIGN.md
//! §14) check every acquisition and every share-cell memory ordering in
//! this file.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::metrics::CatalogStats;
use crate::staging::{StagedRows, Tier};
use scaleclass_sqldb::Pred;

#[derive(Debug)]
struct SharedEntry {
    sig: String,
    /// Bytes held (`rows × arity × width` for memory entries, as
    /// `StagedSet::bytes` counts them; payload bytes for files,
    /// informational only — files charge nothing).
    bytes: u64,
    nrows: u64,
    arity: usize,
    /// Base-table epoch the entry's rows were scanned at (DESIGN.md §15).
    /// Probes at a different epoch refuse the entry; a publish at a newer
    /// epoch demotes it from the index. Always 0 while incremental
    /// maintenance (`MiddlewareConfig::deltas`) is off, so every probe
    /// matches.
    epoch: u64,
    /// Sessions currently attached, in attach order. Never empty for a
    /// live entry — the last detach reclaims it.
    readers: Vec<u64>,
    /// What an attaching reader gets: the row vector itself for memory
    /// entries (copy-on-read: readers only ever scan it), a path inside
    /// the catalog directory for files.
    rows: StagedRows,
}

impl SharedEntry {
    /// This entry's charge per reader: `⌊bytes / readers⌋` for memory
    /// entries, `None` for files (which charge nothing).
    fn share(&self) -> Option<u64> {
        let n = u64::try_from(self.readers.len()).unwrap_or(u64::MAX);
        (self.rows.tier() == Tier::Memory).then(|| self.bytes.checked_div(n).unwrap_or(0))
    }
}

#[derive(Debug)]
struct CatalogInner {
    entries: HashMap<u64, SharedEntry>,
    /// (signature, tier) → entry id.
    index: HashMap<(String, Tier), u64>,
    /// Registered session → its charge cell (Σ shares over the memory
    /// entries it reads; recomputed under the lock, read lock-free).
    sessions: HashMap<u64, Arc<AtomicU64>>,
    next_entry: u64,
    next_session: u64,
    stats: CatalogStats,
}

/// An entry handed back by [`StagingCatalog::probe`] /
/// [`StagingCatalog::publish`].
#[derive(Debug)]
pub struct Shared {
    /// Catalog entry id (detach with it when the local set is dropped).
    pub entry: u64,
    /// The entry's rows: the shared vector, or the file's path inside the
    /// catalog directory.
    pub rows: StagedRows,
    /// Number of rows.
    pub nrows: u64,
    /// Codes per row.
    pub arity: usize,
}

/// Refcounted, arbiter-charged shared staging catalog (one per
/// [`crate::session::Backend`]).
#[derive(Debug)]
pub struct StagingCatalog {
    /// Where shared staged files live. Computed at construction, created
    /// lazily by [`crate::staging`] on the first file publish, removed
    /// (with any remaining contents) on drop.
    dir: PathBuf,
    inner: Mutex<CatalogInner>,
}

impl StagingCatalog {
    /// An empty catalog with a fresh (not yet created) directory under
    /// `base`, or under the system temp dir when `base` is `None`.
    pub fn new(base: Option<&Path>) -> Self {
        StagingCatalog {
            dir: crate::staging::shared_catalog_dir(base),
            inner: Mutex::new(CatalogInner {
                entries: HashMap::new(),
                index: HashMap::new(),
                sessions: HashMap::new(),
                next_entry: 0,
                next_session: 0,
                stats: CatalogStats::default(),
            }),
        }
    }

    /// The canonical catalog signature of a path predicate. Lineage
    /// entries carry the *full* conjunction from the root, so identical
    /// tree shapes across sessions produce identical signatures.
    pub fn signature(pred: &Pred) -> String {
        format!("{pred:?}")
    }

    /// Directory shared staged files are published into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn lock(&self) -> MutexGuard<'_, CatalogInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Snapshot of the catalog's counters.
    pub fn stats(&self) -> CatalogStats {
        self.lock().stats
    }

    /// Live shared entries.
    pub fn entry_count(&self) -> usize {
        self.lock().entries.len()
    }

    /// Sessions currently attached to `entry` (0 for unknown entries).
    pub fn reader_count(&self, entry: u64) -> usize {
        self.lock()
            .entries
            .get(&entry)
            .map_or(0, |e| e.readers.len())
    }

    /// Register a reader session. Returns the session id and its charge
    /// cell (Σ shares of the memory entries it reads, maintained by the
    /// catalog, read lock-free by the session's scheduling path).
    pub fn register_session(&self) -> (u64, Arc<AtomicU64>) {
        let mut inner = self.lock();
        let id = inner.next_session;
        inner.next_session = inner.next_session.wrapping_add(1);
        let cell = Arc::new(AtomicU64::new(0));
        inner.sessions.insert(id, Arc::clone(&cell));
        (id, cell)
    }

    /// Detach `session` from every entry and forget it. Entries whose
    /// reader count drops to zero are reclaimed; the paths of reclaimed
    /// *file* entries are returned for the caller to remove (the catalog
    /// does no I/O). Surviving readers' charges are re-split.
    pub fn unregister_session(&self, session: u64) -> Vec<PathBuf> {
        let mut inner = self.lock();
        inner.sessions.remove(&session);
        let dead: Vec<u64> = inner
            .entries
            .iter_mut()
            .filter_map(|(&id, e)| {
                e.readers.retain(|&s| s != session);
                e.readers.is_empty().then_some(id)
            })
            .collect();
        let reclaimed = dead
            .into_iter()
            .filter_map(|id| Self::reclaim(&mut inner, id))
            .collect();
        Self::recompute_charges(&mut inner);
        reclaimed
    }

    /// Attach `session` to the `tier` entry published under `sig`, if one
    /// exists **at `epoch`**. A stale entry (published at a different
    /// epoch) is refused *and demoted from the index* — it stays alive for
    /// its current readers but can never be attached again — so a stale
    /// probe is a miss, not a wrong answer. Charges are re-split over the
    /// grown reader set; a file entry charges nothing, but the refcount
    /// still pins the on-disk file until the last reader detaches.
    pub fn probe(&self, sig: &str, tier: Tier, epoch: u64, session: u64) -> Option<Shared> {
        let mut inner = self.lock();
        let key = (sig.to_owned(), tier);
        let id = inner.index.get(&key).copied()?;
        if inner.entries.get(&id)?.epoch != epoch {
            inner.index.remove(&key);
            return None;
        }
        Self::join(&mut inner, id, session)
    }

    /// Publish a staged data set under `sig` at `epoch`, keyed by the
    /// tier of `rows`, attaching `session` as its first reader. A file's
    /// `rows` is a path the caller has already moved inside
    /// [`StagingCatalog::dir`]. If the key is already published **at the
    /// same epoch** (a publish race, or a re-stage while another session
    /// still reads the old copy), the session attaches to the existing
    /// entry instead and must adopt the returned rows — scans are
    /// deterministic over the shared table, so both builds hold identical
    /// codes; for a file that is another path, and the caller removes its
    /// duplicate. An existing entry at a *different* epoch is demoted from
    /// the index (it stays alive for its readers until they detach) and
    /// the fresh rows are published over it.
    #[allow(clippy::too_many_arguments)] // mirrors the staged artifact fields one-for-one
    pub fn publish(
        &self,
        sig: String,
        rows: StagedRows,
        bytes: u64,
        nrows: u64,
        arity: usize,
        epoch: u64,
        session: u64,
    ) -> Shared {
        let mut inner = self.lock();
        let key = (sig, rows.tier());
        let live = inner
            .index
            .get(&key)
            .copied()
            .filter(|id| inner.entries.get(id).is_some_and(|e| e.epoch == epoch));
        if let Some(out) = live.and_then(|id| Self::join(&mut inner, id, session)) {
            return out;
        }
        let id = inner.next_entry;
        inner.next_entry = inner.next_entry.wrapping_add(1);
        let out = Shared {
            entry: id,
            rows: rows.clone(),
            nrows,
            arity,
        };
        inner.entries.insert(
            id,
            SharedEntry {
                sig: key.0.clone(),
                bytes,
                nrows,
                arity,
                epoch,
                readers: vec![session],
                rows,
            },
        );
        inner.index.insert(key, id);
        inner.stats.publishes = inner.stats.publishes.saturating_add(1);
        Self::recompute_charges(&mut inner);
        out
    }

    /// Add `session` to live entry `id`'s readers (a hit) and hand the
    /// entry back; `None` if no such entry lives.
    fn join(inner: &mut CatalogInner, id: u64, session: u64) -> Option<Shared> {
        let e = inner.entries.get_mut(&id)?;
        if !e.readers.contains(&session) {
            e.readers.push(session);
        }
        let out = Shared {
            entry: id,
            rows: e.rows.clone(),
            nrows: e.nrows,
            arity: e.arity,
        };
        inner.stats.hits = inner.stats.hits.saturating_add(1);
        Self::recompute_charges(inner);
        Some(out)
    }

    /// Detach `session` from `entry`. The last reader's detach reclaims
    /// the entry; for file entries the on-disk path is returned for the
    /// caller to remove. Survivors' shares grow (re-split under the lock).
    pub fn detach(&self, entry: u64, session: u64) -> Option<PathBuf> {
        let mut inner = self.lock();
        let e = inner.entries.get_mut(&entry)?;
        e.readers.retain(|&s| s != session);
        let reclaimed = if e.readers.is_empty() {
            Self::reclaim(&mut inner, entry)
        } else {
            None
        };
        Self::recompute_charges(&mut inner);
        reclaimed
    }

    /// This session's charge share of `entry` (`⌊bytes / readers⌋` for
    /// memory entries it reads; 0 for files, unknown entries, and
    /// non-readers) — what detaching would free against its lease.
    pub fn share_of(&self, entry: u64, session: u64) -> u64 {
        let inner = self.lock();
        inner
            .entries
            .get(&entry)
            .filter(|e| e.readers.contains(&session))
            .and_then(SharedEntry::share)
            .unwrap_or(0)
    }

    /// Demote every entry published at an epoch other than `epoch` from
    /// the index, so no further probe or publish can reach it. Demoted
    /// entries stay alive for their current readers (copy-on-read scans
    /// in flight keep a consistent snapshot) and are reclaimed by their
    /// last detach as usual. Returns how many entries were demoted —
    /// callers count them into `MiddlewareStats::epochs_invalidated`.
    pub fn purge_stale(&self, epoch: u64) -> u64 {
        let mut inner = self.lock();
        let stale: Vec<(String, Tier)> = inner
            .index
            .iter()
            .filter(|(_, id)| inner.entries.get(id).is_some_and(|e| e.epoch != epoch))
            .map(|(k, _)| k.clone())
            .collect();
        let n = u64::try_from(stale.len()).unwrap_or(u64::MAX);
        for key in stale {
            inner.index.remove(&key);
        }
        n
    }

    /// Drop a reclaimed entry, returning its path if it owned a file. The
    /// index key is removed only if it still points at this entry — a
    /// stale entry demoted from the index may have been replaced there by
    /// a fresh publish under the same signature, which must survive.
    fn reclaim(inner: &mut CatalogInner, entry: u64) -> Option<PathBuf> {
        let e = inner.entries.remove(&entry)?;
        debug_assert!(e.readers.is_empty(), "reclaimed a live entry");
        let key = (e.sig, e.rows.tier());
        if inner.index.get(&key) == Some(&entry) {
            inner.index.remove(&key);
        }
        inner.stats.reclaims = inner.stats.reclaims.saturating_add(1);
        match e.rows {
            StagedRows::File(path) => Some(path),
            StagedRows::Memory(_) => None,
        }
    }

    /// Per-session charge totals recounted from the entry table.
    fn recount(inner: &CatalogInner) -> HashMap<u64, u64> {
        let mut totals: HashMap<u64, u64> = HashMap::with_capacity(inner.sessions.len());
        for e in inner.entries.values() {
            let Some(share) = e.share() else {
                continue;
            };
            for &s in &e.readers {
                let t = totals.entry(s).or_insert(0);
                *t = t.saturating_add(share);
            }
        }
        totals
    }

    /// Store freshly recounted charges into every session's cell. Runs
    /// under the catalog lock after any reader-set change, so a session's
    /// lock-free read always sees a total consistent with *some* recent
    /// reader configuration.
    fn recompute_charges(inner: &mut CatalogInner) {
        let totals = Self::recount(inner);
        for (s, cell) in &inner.sessions {
            cell.store(totals.get(s).copied().unwrap_or(0), Ordering::Release);
        }
    }

    /// Shadow accounting (DESIGN.md §9.3, §11): recount every session's
    /// charge from the entry table and compare with its incremental cell,
    /// and check `Σ reader shares ≤ entry bytes` per entry. Unconditional
    /// assert; call sites gate on `cfg(debug_assertions)`.
    pub fn assert_shadow_accounting(&self) {
        let inner = self.lock();
        for e in inner.entries.values() {
            assert!(
                !e.readers.is_empty(),
                "catalog entry for {:?} survived with no readers",
                e.sig
            );
            if let Some(share) = e.share() {
                let n = u64::try_from(e.readers.len()).unwrap_or(u64::MAX);
                assert!(
                    share.saturating_mul(n) <= e.bytes,
                    "entry shares over-charge: {n} readers × {share} B > {} B",
                    e.bytes
                );
            }
        }
        let totals = Self::recount(&inner);
        for (s, cell) in &inner.sessions {
            let want = totals.get(s).copied().unwrap_or(0);
            let got = cell.load(Ordering::Acquire);
            assert_eq!(
                got, want,
                "session {s}'s incremental charge cell drifted from the recount"
            );
        }
    }
}

impl Drop for StagingCatalog {
    fn drop(&mut self) {
        // Delegated to the staging module — the catalog itself does no
        // filesystem I/O. Removes the directory and any files a crashed
        // session failed to reclaim; a never-created directory is a no-op.
        crate::staging::cleanup_shared_dir(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::staging::{CodeWidth, MemRows};
    use scaleclass_sqldb::types::Code;

    /// `codes` as a memory set's rows (the catalog charges the bytes it is
    /// handed, whatever their width).
    fn codes(codes: &[Code]) -> MemRows {
        MemRows::from_codes(CodeWidth::Two, codes)
    }

    /// The shared vector of a memory entry's rows.
    fn mem(rows: &StagedRows) -> &Arc<MemRows> {
        match rows {
            StagedRows::Memory(rows) => rows,
            StagedRows::File(path) => panic!("expected memory rows, got {path:?}"),
        }
    }

    #[test]
    fn publish_probe_detach_lifecycle_and_charges() {
        let cat = StagingCatalog::new(None);
        let (s1, c1) = cat.register_session();
        let (s2, c2) = cat.register_session();

        let rows = Arc::new(codes(&[1, 2, 3, 4]));
        let staged = StagedRows::Memory(Arc::clone(&rows));
        let pub1 = cat.publish("sig-a".into(), staged, 1000, 2, 2, 0, s1);
        assert_eq!(c1.load(Ordering::Acquire), 1000, "sole reader pays all");
        assert_eq!(cat.stats().publishes, 1);
        assert_eq!(cat.reader_count(pub1.entry), 1);

        let hit = cat
            .probe("sig-a", Tier::Memory, 0, s2)
            .expect("published entry found");
        assert_eq!(hit.entry, pub1.entry);
        assert!(
            Arc::ptr_eq(mem(&hit.rows), &rows),
            "copy-on-read, not a copy"
        );
        assert_eq!(cat.stats().hits, 1);
        assert_eq!(c1.load(Ordering::Acquire), 500, "share re-split on attach");
        assert_eq!(c2.load(Ordering::Acquire), 500);
        cat.assert_shadow_accounting();

        assert!(
            cat.detach(pub1.entry, s1).is_none(),
            "mem entries return no path"
        );
        assert_eq!(c1.load(Ordering::Acquire), 0);
        assert_eq!(
            c2.load(Ordering::Acquire),
            1000,
            "survivor absorbs the share"
        );
        assert_eq!(cat.stats().reclaims, 0, "a reader remains");

        cat.detach(pub1.entry, s2);
        assert_eq!(cat.stats().reclaims, 1, "last detach reclaims");
        assert_eq!(cat.entry_count(), 0);
        assert!(
            cat.probe("sig-a", Tier::Memory, 0, s2).is_none(),
            "reclaimed entries miss"
        );
        cat.assert_shadow_accounting();
    }

    #[test]
    fn share_floors_never_oversubscribe() {
        let cat = StagingCatalog::new(None);
        let sessions: Vec<u64> = (0..3).map(|_| cat.register_session().0).collect();
        let rows = StagedRows::Memory(Arc::new(codes(&[0; 50])));
        // 1001 / 3 = 333 each: Σ = 999 ≤ 1001.
        let e = cat.publish("s".into(), rows, 1001, 25, 2, 0, sessions[0]);
        for &s in &sessions[1..] {
            cat.probe("s", Tier::Memory, 0, s).unwrap();
        }
        let total: u64 = sessions.iter().map(|&s| cat.share_of(e.entry, s)).sum();
        assert_eq!(total, 999);
        assert!(total <= 1001);
        cat.assert_shadow_accounting();
    }

    #[test]
    fn publish_race_attaches_to_existing_entry() {
        let cat = StagingCatalog::new(None);
        let (s1, _) = cat.register_session();
        let (s2, _) = cat.register_session();
        let first = Arc::new(codes(&[7, 8]));
        let second = StagedRows::Memory(Arc::new(codes(&[7, 8])));
        let e1 = cat.publish(
            "race".into(),
            StagedRows::Memory(Arc::clone(&first)),
            4,
            1,
            2,
            0,
            s1,
        );
        let e2 = cat.publish("race".into(), second, 4, 1, 2, 0, s2);
        assert_eq!(e1.entry, e2.entry);
        assert!(
            Arc::ptr_eq(mem(&e2.rows), &first),
            "loser adopts the winner's rows"
        );
        assert_eq!(cat.stats().publishes, 1);
        assert_eq!(cat.stats().hits, 1);
        assert_eq!(cat.reader_count(e1.entry), 2);
    }

    #[test]
    fn file_entries_charge_nothing_and_return_path_on_reclaim() {
        let cat = StagingCatalog::new(None);
        let (s1, c1) = cat.register_session();
        let (s2, _) = cat.register_session();
        let path = cat.dir().join("scx0m0_stage_1_0.rows");
        let staged = StagedRows::File(path.clone());
        let entry = cat.publish("f".into(), staged, 600, 100, 3, 0, s1).entry;
        assert_eq!(cat.stats().publishes, 1, "a fresh signature publishes");
        assert_eq!(c1.load(Ordering::Acquire), 0, "files charge nothing");
        let hit = cat.probe("f", Tier::File, 0, s2).unwrap();
        assert_eq!(hit.rows, StagedRows::File(path.clone()));
        assert_eq!(hit.nrows, 100);
        assert!(cat.detach(entry, s1).is_none(), "a reader remains");
        assert_eq!(
            cat.detach(entry, s2),
            Some(path),
            "last detach returns the path for removal"
        );
        assert_eq!(cat.stats().reclaims, 1);
    }

    #[test]
    fn file_publish_race_reports_existing_path() {
        let cat = StagingCatalog::new(None);
        let (s1, _) = cat.register_session();
        let (s2, _) = cat.register_session();
        let p1 = StagedRows::File(cat.dir().join("a.rows"));
        let p2 = StagedRows::File(cat.dir().join("b.rows"));
        let e1 = cat.publish("f".into(), p1.clone(), 6, 1, 3, 0, s1);
        assert_eq!(e1.rows, p1, "a fresh signature publishes");
        let e2 = cat.publish("f".into(), p2, 6, 1, 3, 0, s2);
        assert_eq!(e1.entry, e2.entry);
        assert_eq!(e2.rows, p1, "loser reads the winner's file");
    }

    #[test]
    fn unregister_detaches_everywhere_and_regrows_survivors() {
        let cat = StagingCatalog::new(None);
        let (s1, c1) = cat.register_session();
        let (s2, c2) = cat.register_session();
        let rows = StagedRows::Memory(Arc::new(codes(&[0; 4])));
        cat.publish("m".into(), rows, 800, 2, 2, 0, s1);
        cat.probe("m", Tier::Memory, 0, s2).unwrap();
        let file = StagedRows::File(cat.dir().join("x.rows"));
        cat.publish("f".into(), file, 10, 1, 5, 0, s1);
        assert_eq!(cat.stats().publishes, 2, "a fresh signature publishes");
        assert_eq!(c1.load(Ordering::Acquire), 400);

        let reclaimed = cat.unregister_session(s1);
        assert_eq!(reclaimed.len(), 1, "s1's sole file entry reclaimed");
        assert_eq!(
            c2.load(Ordering::Acquire),
            800,
            "survivor's share grows to the whole entry"
        );
        assert_eq!(cat.entry_count(), 1, "the shared mem entry survives");
        cat.assert_shadow_accounting();

        let reclaimed = cat.unregister_session(s2);
        assert!(reclaimed.is_empty(), "mem entries reclaim without paths");
        assert_eq!(cat.entry_count(), 0);
        assert_eq!(cat.stats().reclaims, 2);
    }

    #[test]
    fn stale_epoch_probe_refuses_and_demotes() {
        let cat = StagingCatalog::new(None);
        let (s1, _) = cat.register_session();
        let (s2, c2) = cat.register_session();
        let rows = StagedRows::Memory(Arc::new(codes(&[1, 2])));
        cat.publish("e".into(), rows, 100, 1, 2, 3, s1);
        // A probe at a newer epoch must miss — the pre-mutation snapshot
        // would yield wrong counts — and must not attach the prober.
        assert!(cat.probe("e", Tier::Memory, 4, s2).is_none());
        assert_eq!(
            c2.load(Ordering::Acquire),
            0,
            "refused probe charges nothing"
        );
        // The stale entry was demoted: even a probe at the *original*
        // epoch now misses.
        assert!(cat.probe("e", Tier::Memory, 3, s2).is_none());
        // ... but the publisher still reads it (entry alive until detach).
        assert_eq!(cat.entry_count(), 1);
        cat.assert_shadow_accounting();
    }

    #[test]
    fn republish_at_new_epoch_supersedes_stale_entry() {
        let cat = StagingCatalog::new(None);
        let (s1, _) = cat.register_session();
        let (s2, _) = cat.register_session();
        let rows = StagedRows::Memory(Arc::new(codes(&[1])));
        let old = cat.publish("e".into(), rows, 10, 1, 1, 0, s1);
        let fresh_rows = Arc::new(codes(&[9]));
        let staged = StagedRows::Memory(Arc::clone(&fresh_rows));
        let fresh = cat.publish("e".into(), staged, 10, 1, 1, 1, s2);
        assert_ne!(old.entry, fresh.entry, "new epoch publishes a new entry");
        assert!(Arc::ptr_eq(mem(&fresh.rows), &fresh_rows));
        assert_eq!(cat.entry_count(), 2, "old entry lives for its reader");
        // Probes at epoch 1 find the fresh entry.
        let hit = cat.probe("e", Tier::Memory, 1, s1).unwrap();
        assert_eq!(hit.entry, fresh.entry);
        // The stale entry's last detach must NOT clobber the fresh index
        // slot (the reclaim-only-own-key fix).
        cat.detach(old.entry, s1);
        assert!(
            cat.probe("e", Tier::Memory, 1, s2).is_some(),
            "fresh entry survives"
        );
        cat.assert_shadow_accounting();
    }

    #[test]
    fn purge_stale_demotes_old_epochs_only() {
        let cat = StagingCatalog::new(None);
        let (s1, _) = cat.register_session();
        let one = || StagedRows::Memory(Arc::new(codes(&[0])));
        cat.publish("a".into(), one(), 2, 1, 1, 0, s1);
        cat.publish("b".into(), one(), 2, 1, 1, 2, s1);
        let file = StagedRows::File(cat.dir().join("c.rows"));
        cat.publish("c".into(), file, 2, 1, 1, 0, s1);
        assert_eq!(cat.stats().publishes, 3, "a fresh signature publishes");
        assert_eq!(cat.purge_stale(2), 2, "the two epoch-0 entries demote");
        assert!(cat.probe("a", Tier::Memory, 0, s1).is_none());
        assert!(cat.probe("c", Tier::File, 0, s1).is_none());
        assert!(
            cat.probe("b", Tier::Memory, 2, s1).is_some(),
            "current epoch survives"
        );
        assert_eq!(cat.purge_stale(2), 0, "purge is idempotent");
        assert_eq!(cat.entry_count(), 3, "readers keep demoted entries alive");
    }

    /// One signature staged in both tiers is two entries: a probe of one
    /// tier never returns the other, detaching one leaves the other, and
    /// a purge demotes both.
    #[test]
    fn one_signature_in_both_tiers_is_two_independent_entries() {
        let cat = StagingCatalog::new(None);
        let (s1, c1) = cat.register_session();
        let (s2, _) = cat.register_session();
        let rows = Arc::new(codes(&[1, 2]));
        let path = cat.dir().join("both.rows");
        let m = cat.publish(
            "both".into(),
            StagedRows::Memory(Arc::clone(&rows)),
            4,
            1,
            2,
            0,
            s1,
        );
        let f = cat.publish(
            "both".into(),
            StagedRows::File(path.clone()),
            4,
            1,
            2,
            0,
            s1,
        );
        assert_ne!(m.entry, f.entry);
        assert_eq!(cat.stats().publishes, 2, "neither publish hit the other");
        assert_eq!(cat.stats().hits, 0);
        assert_eq!(
            c1.load(Ordering::Acquire),
            4,
            "only the memory entry charges"
        );

        let hit = cat.probe("both", Tier::Memory, 0, s2).unwrap();
        assert_eq!(hit.entry, m.entry);
        assert!(Arc::ptr_eq(mem(&hit.rows), &rows));
        let hit = cat.probe("both", Tier::File, 0, s2).unwrap();
        assert_eq!(hit.entry, f.entry);
        assert_eq!(hit.rows, StagedRows::File(path.clone()));

        // Both readers leaving the memory entry reclaims it alone.
        assert!(cat.detach(m.entry, s1).is_none());
        assert!(cat.detach(m.entry, s2).is_none());
        assert_eq!(cat.entry_count(), 1);
        assert!(cat.probe("both", Tier::Memory, 0, s1).is_none());
        let hit = cat.probe("both", Tier::File, 0, s1).unwrap();
        assert_eq!(hit.entry, f.entry, "the file entry survives");

        // Re-published in memory, both tiers are stale at a new epoch.
        cat.publish("both".into(), StagedRows::Memory(rows), 4, 1, 2, 0, s1);
        assert_eq!(cat.purge_stale(1), 2, "a purge demotes both tiers");
        assert!(cat.probe("both", Tier::Memory, 0, s1).is_none());
        assert!(cat.probe("both", Tier::File, 0, s1).is_none());
        assert_eq!(cat.detach(f.entry, s1), None, "s2 still reads the file");
        assert_eq!(cat.detach(f.entry, s2), Some(path));
        cat.assert_shadow_accounting();
    }

    #[test]
    fn signature_tracks_full_path_predicates() {
        let a = Pred::Eq { col: 0, value: 1 };
        let b = Pred::and(vec![
            Pred::Eq { col: 0, value: 1 },
            Pred::Eq { col: 1, value: 0 },
        ]);
        assert_ne!(StagingCatalog::signature(&a), StagingCatalog::signature(&b));
        assert_eq!(
            StagingCatalog::signature(&a),
            StagingCatalog::signature(&a.clone())
        );
    }
}
