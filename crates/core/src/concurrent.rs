//! Threaded client ↔ middleware protocol (Figure 3), single- and
//! multi-client.
//!
//! The paper's architecture is explicitly asynchronous: the client *queues*
//! batches of requests, *waits* for the middleware to notify it that some
//! have been fulfilled, and consumes the counts tables in whatever order it
//! likes, while the middleware independently decides scheduling. Two
//! front-ends implement that protocol, both over [`MiddlewareHandle`] — one
//! [`Session`] on its own thread with its own request/result channels:
//!
//! * [`spawn`] — the classic single-client form: the handle's thread hands
//!   the [`Middleware`] back at [`MiddlewareHandle::shutdown`].
//! * [`SessionPool`] — the multi-client service the middleware really is:
//!   K sessions over **one** shared [`Backend`], all leasing slices of the
//!   one `memory_budget_bytes` from the backend's
//!   [`crate::session::BudgetArbiter`]. A pool session drops on its own
//!   thread the moment its loop ends, so its lease returns to the arbiter
//!   then; its thread hands back only its statistics.
//!
//! Both front-ends drain deterministically on hangup: dropping a request
//! sender lets the service finish every queued request (results keep
//! flowing) before the thread exits. `shutdown()` reports the first batch
//! error the client never read — one that could not be delivered because
//! the client had dropped its receiver, or else one still queued on the
//! result channel — as the `MwError` it was, never silently discarding it.
//!
//! The synchronous [`Session::process_next_batch`] loop remains the
//! deterministic path used by the experiments; these front-ends exist to
//! demonstrate (and test) that the protocol itself imposes no ordering
//! beyond "requests in, counts out".

use std::sync::mpsc::{channel, Receiver, SendError, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::cc::FulfilledCc;
use crate::config::MiddlewareConfig;
use crate::error::{MwError, MwResult};
use crate::metrics::{MiddlewareStats, ScanStats};
use crate::request::CcRequest;
use crate::session::{Backend, Middleware, Session};
use scaleclass_sqldb::Database;

/// Send `outcome` to the client; when the client has hung up, park the
/// error (if it was one) in `deferred` instead of discarding it with the
/// channel. Returns whether the channel is still open.
fn deliver(
    results: &Sender<MwResult<Vec<FulfilledCc>>>,
    outcome: MwResult<Vec<FulfilledCc>>,
    deferred: &mut Option<MwError>,
) -> bool {
    match results.send(outcome) {
        Ok(()) => true,
        Err(SendError(payload)) => {
            if deferred.is_none() {
                *deferred = payload.err();
            }
            false
        }
    }
}

/// Service requests until the request sender is dropped *and* the queue is
/// drained (deterministic drain-on-hangup), or until an error terminates
/// the session. Returns any error that could not be delivered to the
/// client.
fn service_loop(
    session: &mut Session,
    requests: &Receiver<CcRequest>,
    results: &Sender<MwResult<Vec<FulfilledCc>>>,
) -> Option<MwError> {
    let mut deferred: Option<MwError> = None;
    'outer: loop {
        // Block for at least one request unless work is already queued.
        if !session.has_pending() {
            match requests.recv() {
                Ok(req) => {
                    if let Err(e) = session.enqueue(req) {
                        if !deliver(results, Err(e), &mut deferred) {
                            break 'outer;
                        }
                        continue;
                    }
                }
                Err(_) => break 'outer, // client hung up, queue empty
            }
        }
        // Drain whatever else has arrived, so one scan batches the full
        // frontier the client has queued so far.
        loop {
            match requests.try_recv() {
                Ok(req) => {
                    if let Err(e) = session.enqueue(req) {
                        deliver(results, Err(e), &mut deferred);
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => break,
            }
        }
        let outcome = session.process_next_batch();
        let failed = outcome.is_err();
        if !deliver(results, outcome, &mut deferred) || failed {
            break 'outer;
        }
    }
    deferred
}

/// Client-side handle to one session running on its own thread. When its
/// service loop ends, the thread hands back `T`: the [`Middleware`] itself
/// for [`spawn`], a pool session's statistics for [`SessionPool`].
pub struct MiddlewareHandle<T = Middleware> {
    requests: Option<Sender<CcRequest>>,
    results: Receiver<MwResult<Vec<FulfilledCc>>>,
    thread: Option<JoinHandle<(T, Option<MwError>)>>,
}

/// Run `mw` on a dedicated thread. The thread services requests until the
/// request sender is dropped *and* the queue is drained, then exits.
pub fn spawn(mw: Middleware) -> MiddlewareHandle {
    MiddlewareHandle::launch(mw, |mw| mw)
}

impl<T: Send + 'static> MiddlewareHandle<T> {
    /// Start `session`'s service loop on a new thread; `finish` turns the
    /// session into what the thread hands back once the loop ends.
    fn launch(mut session: Session, finish: impl FnOnce(Session) -> T + Send + 'static) -> Self {
        let (req_tx, req_rx) = channel::<CcRequest>();
        let (res_tx, res_rx) = channel::<MwResult<Vec<FulfilledCc>>>();
        let thread = std::thread::spawn(move || {
            let deferred = service_loop(&mut session, &req_rx, &res_tx);
            (finish(session), deferred)
        });
        MiddlewareHandle {
            requests: Some(req_tx),
            results: res_rx,
            thread: Some(thread),
        }
    }
}

impl<T> MiddlewareHandle<T> {
    /// Queue a request (client step 1 of Figure 3). Fails only if the
    /// session thread is gone.
    pub fn enqueue(&self, req: CcRequest) -> Result<(), &'static str> {
        self.requests
            .as_ref()
            .ok_or("session shutting down")?
            .send(req)
            .map_err(|_| "session thread terminated")
    }

    /// Wait for the next fulfilled batch (client step 2).
    pub fn wait_results(&self) -> Option<MwResult<Vec<FulfilledCc>>> {
        self.results.recv().ok()
    }

    /// Non-blocking poll for fulfilled batches.
    pub fn try_results(&self) -> Option<MwResult<Vec<FulfilledCc>>> {
        self.results.try_recv().ok()
    }

    /// Signal no more requests will come, wait for the session to finish
    /// every queued request, and return what its thread handed back. A
    /// batch error the client never read surfaces here as `Err`: one the
    /// thread could not deliver, or else the first still queued on the
    /// result channel. Unread successful batches are discarded.
    pub fn shutdown(mut self) -> MwResult<T> {
        let (out, deferred) = self
            .join()
            .expect("shutdown joins the thread once")
            .expect("session thread panicked");
        // The thread has exited and dropped its sender, so `iter` stops at
        // the end of what is queued instead of blocking.
        match deferred.or_else(|| self.results.iter().find_map(Result::err)) {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// Close the request channel and wait for the thread, unless it was
    /// already joined.
    fn join(&mut self) -> Option<std::thread::Result<(T, Option<MwError>)>> {
        self.requests = None;
        self.thread.take().map(JoinHandle::join)
    }
}

impl<T> Drop for MiddlewareHandle<T> {
    fn drop(&mut self) {
        let _ = self.join();
    }
}

/// A multi-client middleware service: `config.sessions` concurrent
/// tree-build sessions over **one** shared [`Backend`], each with its own
/// request/result channel pair and its own thread, all arbitrated under
/// the single global `memory_budget_bytes`.
///
/// Every lease is taken out *before* any session thread starts, so each
/// session schedules under the stable fair share `budget / K` for the
/// pool's whole life — making concurrent runs reproducible batch-for-batch
/// regardless of thread interleaving.
pub struct SessionPool {
    backend: Arc<Backend>,
    sessions: Vec<PoolHandle>,
}

/// A pool session's handle: its thread hands back the session's statistics.
type PoolHandle = MiddlewareHandle<(MiddlewareStats, ScanStats)>;

impl SessionPool {
    /// Build the shared backend over `table` and launch `config.sessions`
    /// session threads against it.
    pub fn new(
        db: Database,
        table: impl Into<String>,
        class_column: &str,
        config: MiddlewareConfig,
    ) -> MwResult<Self> {
        let k = config.sessions.max(1);
        let backend = Arc::new(Backend::new(db, table, class_column, config)?);
        // Open every session first: all K leases exist before any thread
        // runs, so the arbiter's fair share is stable from the first batch.
        let opened: Vec<Session> = (0..k)
            .map(|_| Session::open(Arc::clone(&backend)))
            .collect::<MwResult<_>>()?;
        let sessions = opened
            .into_iter()
            .map(|session| {
                // `session` drops on its thread once the loop ends: aux
                // structures are reclaimed from the shared catalog and the
                // budget lease returns to the arbiter.
                PoolHandle::launch(session, |s| (*s.stats(), s.scan_stats().clone()))
            })
            .collect();
        Ok(SessionPool { backend, sessions })
    }

    /// The shared backend substrate (schema, config, budget arbiter).
    pub fn backend(&self) -> &Arc<Backend> {
        &self.backend
    }

    /// Number of sessions the pool serves.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    fn session(&self, i: usize) -> Result<&PoolHandle, &'static str> {
        self.sessions.get(i).ok_or("no such session")
    }

    /// Queue a request on session `i`. Fails if the session does not exist
    /// or its thread is gone.
    pub fn enqueue(&self, i: usize, req: CcRequest) -> Result<(), &'static str> {
        self.session(i)?.enqueue(req)
    }

    /// Wait for session `i`'s next fulfilled batch.
    pub fn wait_results(&self, i: usize) -> Option<MwResult<Vec<FulfilledCc>>> {
        self.session(i).ok()?.wait_results()
    }

    /// Non-blocking poll for session `i`'s fulfilled batches.
    pub fn try_results(&self, i: usize) -> Option<MwResult<Vec<FulfilledCc>>> {
        self.session(i).ok()?.try_results()
    }

    /// Signal no more requests will come on any session, drain all of them
    /// deterministically, and tear the pool down: per-session statistics
    /// come back in session order, and the database is recovered from the
    /// backend. A batch error any session's client never read surfaces
    /// here as `Err` ([`MiddlewareHandle::shutdown`]; first session in
    /// order wins).
    pub fn shutdown(self) -> MwResult<(Database, Vec<(MiddlewareStats, ScanStats)>)> {
        // After the first error the handles left unvisited drop, which
        // joins their threads too.
        let stats = self
            .sessions
            .into_iter()
            .map(MiddlewareHandle::shutdown)
            .collect::<MwResult<Vec<_>>>()?;
        let backend = Arc::try_unwrap(self.backend)
            .ok()
            .expect("all sessions joined; pool holds the only backend reference");
        Ok((backend.into_db(), stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FileStagingPolicy, MiddlewareConfig};
    use crate::request::{CcRequest, NodeId};
    use scaleclass_sqldb::{Database, Pred, Schema};

    fn test_db(rows: u16) -> Database {
        let mut db = Database::new();
        db.create_table("d", Schema::from_pairs(&[("a", 4), ("class", 2)]))
            .unwrap();
        for i in 0..rows {
            db.insert("d", &[i % 4, u16::from(i % 4 >= 2)]).unwrap();
        }
        db
    }

    fn middleware(rows: u16) -> Middleware {
        Middleware::new(test_db(rows), "d", "class", MiddlewareConfig::default()).unwrap()
    }

    #[test]
    fn threaded_root_request_round_trip() {
        let mw = middleware(40);
        let root = mw.root_request(NodeId(0));
        let handle = spawn(mw);
        handle.enqueue(root).unwrap();
        let batch = handle.wait_results().unwrap().unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].cc.total(), 40);
        let stats = *handle.shutdown().unwrap().stats();
        assert_eq!(stats.requests_served, 1);
    }

    #[test]
    fn threaded_frontier_is_batched() {
        let mw = middleware(80);
        let root = mw.root_request(NodeId(0));
        let lineage = root.lineage.clone();
        let handle = spawn(mw);
        // Queue a whole frontier before the middleware wakes up on it.
        for v in 0..4u16 {
            handle
                .enqueue(CcRequest {
                    lineage: lineage.child(NodeId(1 + u64::from(v)), Pred::Eq { col: 0, value: v }),
                    attrs: vec![0],
                    class_col: 1,
                    rows: 20,
                    parent_rows: 80,
                    parent_cards: vec![4],
                })
                .unwrap();
        }
        let mut served = 0;
        while served < 4 {
            let batch = handle.wait_results().unwrap().unwrap();
            served += batch.len();
        }
        let stats = *handle.shutdown().unwrap().stats();
        assert_eq!(stats.requests_served, 4);
        // All four children were answered; batching may take 1..=4 rounds
        // depending on thread interleaving, but never more rounds than
        // requests.
        assert!(stats.rounds <= 4);
    }

    #[test]
    fn bad_request_surfaces_as_error_result() {
        let mw = middleware(8);
        let mut bad = mw.root_request(NodeId(0));
        bad.class_col = 0;
        let handle = spawn(mw);
        handle.enqueue(bad).unwrap();
        let result = handle.wait_results().unwrap();
        assert!(result.is_err());
        // The error *was* delivered on the result channel, so shutdown is
        // clean — nothing was lost.
        handle.shutdown().unwrap();
    }

    #[test]
    fn shutdown_without_requests_is_clean() {
        let mw = middleware(8);
        let handle = spawn(mw);
        let mw = handle.shutdown().unwrap();
        assert_eq!(mw.stats().rounds, 0);
        assert!(!mw.has_pending());
    }

    /// A config for `sessions` sessions whose first batch must create a
    /// staging file in a directory of its own (named by `tag`, unique per
    /// test): removing the directory once the sessions are open makes that
    /// batch fail.
    fn file_staging_config(tag: &str, sessions: usize) -> (MiddlewareConfig, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("scaleclass-{tag}-{}", std::process::id()));
        let cfg = MiddlewareConfig::builder()
            .memory_caching(false)
            .file_policy(FileStagingPolicy::Singleton)
            .staging_dir(&dir)
            .sessions(sessions)
            .build();
        (cfg, dir)
    }

    #[test]
    fn batch_error_after_hangup_surfaces_on_join() {
        // The batch fails, but only *after* the client hung up both
        // channels.
        let (cfg, dir) = file_staging_config("hangup", 1);
        let mut mw = Middleware::new(test_db(40), "d", "class", cfg).unwrap();
        let root = mw.root_request(NodeId(0));
        std::fs::remove_dir_all(&dir).unwrap();

        let (req_tx, req_rx) = channel::<CcRequest>();
        let (res_tx, res_rx) = channel::<MwResult<Vec<FulfilledCc>>>();
        req_tx.send(root).unwrap();
        // Client hangs up entirely before the middleware even runs.
        drop(req_tx);
        drop(res_rx);
        let deferred = service_loop(&mut mw, &req_rx, &res_tx);
        assert!(
            deferred.is_some(),
            "undeliverable batch error must be deferred, not discarded"
        );
    }

    #[test]
    fn unread_batch_error_surfaces_from_shutdown() {
        // The client queues a request whose batch fails and shuts down
        // without reading the result: the error is still on the result
        // channel, and shutdown must report it rather than drain it away.
        let (cfg, dir) = file_staging_config("unread", 1);
        let mw = Middleware::new(test_db(40), "d", "class", cfg).unwrap();
        let root = mw.root_request(NodeId(0));
        std::fs::remove_dir_all(&dir).unwrap();
        let handle = spawn(mw);
        handle.enqueue(root).unwrap();
        let outcome = handle.shutdown();
        assert!(
            matches!(outcome, Err(MwError::Staging(_))),
            "unread batch error must surface from shutdown"
        );
    }

    #[test]
    fn pool_shutdown_reports_an_unread_batch_error() {
        let (cfg, dir) = file_staging_config("pool-unread", 2);
        let pool = SessionPool::new(test_db(40), "d", "class", cfg).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        pool.enqueue(1, pool.backend().root_request(NodeId(0)))
            .unwrap();
        let outcome = pool.shutdown();
        assert!(
            matches!(outcome, Err(MwError::Staging(_))),
            "session 1's unread batch error must surface from shutdown"
        );
    }

    #[test]
    fn pool_serves_sessions_independently_under_one_backend() {
        let cfg = MiddlewareConfig::builder().sessions(3).build();
        let budget = cfg.memory_budget_bytes;
        let pool = SessionPool::new(test_db(40), "d", "class", cfg).unwrap();
        assert_eq!(pool.session_count(), 3);
        assert_eq!(pool.backend().arbiter().live_sessions(), 3);
        // Fair share: every session leased budget/3 before any work ran.
        assert_eq!(pool.backend().arbiter().stats().leases_granted, 3);

        let root = pool.backend().root_request(NodeId(0));
        for i in 0..3 {
            pool.enqueue(i, root.clone()).unwrap();
        }
        for i in 0..3 {
            let batch = pool.wait_results(i).unwrap().unwrap();
            assert_eq!(batch.len(), 1);
            assert_eq!(batch[0].cc.total(), 40);
        }
        let (db, stats) = pool.shutdown().unwrap();
        assert_eq!(stats.len(), 3);
        for (s, _) in &stats {
            assert_eq!(s.requests_served, 1, "per-session stats are private");
        }
        assert_eq!(db.table("d").unwrap().nrows(), 40);
        let _ = budget;
    }

    #[test]
    fn pool_enqueue_rejects_unknown_session() {
        let cfg = MiddlewareConfig::builder().sessions(2).build();
        let pool = SessionPool::new(test_db(8), "d", "class", cfg).unwrap();
        let root = pool.backend().root_request(NodeId(0));
        assert!(pool.enqueue(5, root).is_err());
        pool.shutdown().unwrap();
    }

    #[test]
    fn pool_shutdown_reclaims_every_lease() {
        let cfg = MiddlewareConfig::builder().sessions(4).build();
        let pool = SessionPool::new(test_db(8), "d", "class", cfg).unwrap();
        let backend = Arc::clone(pool.backend());
        let root = backend.root_request(NodeId(0));
        for i in 0..4 {
            pool.enqueue(i, root.clone()).unwrap();
        }
        for i in 0..4 {
            pool.wait_results(i).unwrap().unwrap();
        }
        let arbiter_stats = backend.arbiter().stats();
        assert_eq!(arbiter_stats.leases_granted, 4);
        drop(backend); // give the pool back its sole reference
        let (_db, stats) = pool.shutdown().unwrap();
        assert_eq!(stats.len(), 4);
    }
}
