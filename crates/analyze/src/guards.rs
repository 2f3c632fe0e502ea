//! Guard-aware structural pass: lock-guard binding and liveness tracking.
//!
//! The concurrency rules (DESIGN.md §14) need to know *which lock guards
//! are live* at each point of a function, not just which tokens appear.
//! This module walks a file's token stream once, tracking:
//!
//! - **bindings** — `let [mut] g = <acquisition>;` keeps the guard live
//!   until the binding's brace-depth scope ends or an explicit `drop(g)`;
//! - **temporaries** — an acquisition not bound by `let`
//!   (`self.lock().stats`) is live to the end of its statement;
//! - **acquisition edges** — every acquisition made while another guard is
//!   live contributes a `held → acquired` edge to the cross-file lock
//!   graph checked against the `LOCK_ORDER` manifest in [`crate::rules`];
//! - **blocking shapes** — `send(` / `recv(` / `join()` / `wait*(` /
//!   `File::` / `read_to_end(` reached while any guard is live (the shapes
//!   that turn a slow reader into a stalled arbiter).
//!
//! Lock identity is lexical: the analyzer has no type information, so the
//! `LOCK_SITES` manifest maps call shapes (method name, receiver tail
//! identifier, file) to canonical lock names. A `.lock()` whose receiver
//! matches no manifest row is itself reported, so new locks cannot ship
//! unordered. The pass is intra-function and over-approximates liveness
//! (a `let`-bound non-guard result of a manifest call is treated as a
//! guard until scope end); suppress genuine false positives with
//! `analyze:allow` and leave the interprocedural blind spots to the
//! ThreadSanitizer CI job.

use crate::lexer::TokKind;
use crate::rules::FileCtx;

/// One row of the `LOCK_SITES` manifest (`crate::rules::LOCK_SITES`):
/// how a lexical call shape maps to a named lock.
#[derive(Debug, Clone, Copy)]
pub struct LockSite {
    /// Method name at the call site (`lock`, `db_read`, …).
    pub method: &'static str,
    /// Required receiver tail identifier (`inner`, `db`, …); `None`
    /// matches any receiver.
    pub recv: Option<&'static str>,
    /// Restrict this row to one workspace-relative file; `None` = any.
    pub file: Option<&'static str>,
    /// Canonical lock name, as listed in `LOCK_ORDER`.
    pub lock: &'static str,
    /// True when the call returns the guard (a `let` binding keeps it
    /// live); false for helpers that acquire and release internally.
    pub binds: bool,
}

/// A `held → acquired` edge in the lock-acquisition graph.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// Lock whose guard was live when the acquisition happened.
    pub held: &'static str,
    /// Line the held guard was bound on.
    pub held_line: u32,
    /// Lock being acquired.
    pub acquired: &'static str,
    /// Workspace-relative file of the acquisition site.
    pub file: String,
    /// Line of the acquisition site.
    pub line: u32,
}

/// A blocking call shape reached while a guard was live.
#[derive(Debug, Clone)]
pub struct BlockingHit {
    /// Line of the blocking call.
    pub line: u32,
    /// The shape that matched (`.send(`, `File::`, …).
    pub shape: String,
    /// Lock whose guard was live.
    pub guard_lock: &'static str,
    /// Line the live guard was bound on.
    pub guard_line: u32,
}

/// Everything the guard pass found in one file.
#[derive(Debug, Default)]
pub struct GuardScan {
    /// Acquisition edges for the cross-file lock graph.
    pub edges: Vec<LockEdge>,
    /// Blocking shapes reached under a live guard.
    pub blocking: Vec<BlockingHit>,
    /// `.lock()` calls whose receiver matches no manifest row:
    /// `(line, receiver)`.
    pub unknown: Vec<(u32, String)>,
}

/// A guard currently live during the scan.
struct Guard {
    /// Binding name; `None` for statement-scoped temporaries.
    name: Option<String>,
    lock: &'static str,
    /// Brace depth the binding lives at (scope end kills it).
    depth: i64,
    line: u32,
}

/// The blocking shapes of DESIGN.md §14, as display labels.
fn blocking_shape(ctx: &FileCtx, i: usize) -> Option<String> {
    let t = ctx.text(i);
    if t == "File" && ctx.path_sep(i + 1) {
        return Some("File::".to_string());
    }
    if i > 0 && ctx.is_punct(i - 1, '.') && ctx.is_punct(i + 1, '(') {
        match t {
            "send" | "recv" | "read_to_end" => return Some(format!(".{t}(")),
            // Zero-arg `.join()` only: `path.join(x)` / `"".join(x)` are
            // not thread joins.
            "join" if ctx.is_punct(i + 2, ')') => return Some(".join()".to_string()),
            _ if t.starts_with("wait") => return Some(format!(".{t}(")),
            _ => {}
        }
    }
    None
}

/// Walk one file's tokens tracking guard liveness against `sites`.
///
/// Test code contributes no events (bindings, edges, blocking hits, or
/// unknown locks): tests routinely hold guards across asserts on purpose.
pub(crate) fn scan_guards(ctx: &FileCtx, sites: &[LockSite]) -> GuardScan {
    let n = ctx.lx.toks.len();
    let mut out = GuardScan::default();
    let mut live: Vec<Guard> = Vec::new();
    let mut depth: i64 = 0;
    // `let [mut] name [: Ty] = …` seen in the current statement: candidate
    // binding `(name, depth-at-let)` for an acquisition in the initializer.
    let mut pending_let: Option<(String, i64)> = None;

    for i in 0..n {
        if ctx.is_punct(i, '{') {
            depth += 1;
            continue;
        }
        if ctx.is_punct(i, '}') {
            depth -= 1;
            live.retain(|g| g.depth <= depth);
            continue;
        }
        if ctx.is_punct(i, ';') {
            // End of statement: temporaries die, the binding candidate
            // (consumed or not) is gone.
            live.retain(|g| g.name.is_some() || g.depth < depth);
            pending_let = None;
            continue;
        }
        if ctx.lx.toks[i].kind != TokKind::Ident {
            continue;
        }
        let t = ctx.text(i);
        if t == "let" {
            let mut j = i + 1;
            if ctx.is_ident(j, "mut") {
                j += 1;
            }
            // Plain `let name =` / `let name: Ty =`; pattern bindings
            // (`let Some(g) = …`, tuples) never bind a tracked guard.
            if j < n && ctx.lx.toks[j].kind == TokKind::Ident {
                let eq = ctx.is_punct(j + 1, '=') && !ctx.is_punct(j + 2, '=');
                let typed = ctx.is_punct(j + 1, ':') && !ctx.is_punct(j + 2, ':');
                if eq || typed {
                    pending_let = Some((ctx.text(j).to_string(), depth));
                }
            }
            continue;
        }
        // `drop(g)` / `mem::drop(g)` releases g early.
        if t == "drop"
            && !ctx.is_punct(i.wrapping_sub(1), '.')
            && ctx.is_punct(i + 1, '(')
            && i + 3 < n
            && ctx.lx.toks[i + 2].kind == TokKind::Ident
            && ctx.is_punct(i + 3, ')')
        {
            let name = ctx.text(i + 2);
            live.retain(|g| g.name.as_deref() != Some(name));
            continue;
        }
        if let Some(shape) = blocking_shape(ctx, i) {
            if !ctx.test[i] {
                if let Some(g) = live.last() {
                    out.blocking.push(BlockingHit {
                        line: ctx.line(i),
                        shape,
                        guard_lock: g.lock,
                        guard_line: g.line,
                    });
                }
            }
            continue;
        }
        // Method-call shape `.name(…` — the only acquisition surface.
        if i > 0 && ctx.is_punct(i - 1, '.') && ctx.is_punct(i + 1, '(') {
            let recv = if i >= 2 && ctx.lx.toks[i - 2].kind == TokKind::Ident {
                Some(ctx.text(i - 2))
            } else {
                None
            };
            let site = sites.iter().find(|s| {
                let file_ok = match s.file {
                    Some(f) => f == ctx.rel,
                    None => true,
                };
                let recv_ok = match s.recv {
                    Some(r) => recv == Some(r),
                    None => true,
                };
                s.method == t && file_ok && recv_ok
            });
            if ctx.test[i] {
                continue;
            }
            match site {
                Some(site) => {
                    for g in &live {
                        out.edges.push(LockEdge {
                            held: g.lock,
                            held_line: g.line,
                            acquired: site.lock,
                            file: ctx.rel.to_string(),
                            line: ctx.line(i),
                        });
                    }
                    if site.binds {
                        let (name, d, line) = match pending_let.take() {
                            Some((name, d)) => (Some(name), d, ctx.line(i)),
                            None => (None, depth, ctx.line(i)),
                        };
                        live.push(Guard {
                            name,
                            lock: site.lock,
                            depth: d,
                            line,
                        });
                    }
                }
                None if t == "lock" => {
                    out.unknown
                        .push((ctx.line(i), recv.unwrap_or("<expr>").to_string()));
                }
                None => {}
            }
        }
    }
    out
}
