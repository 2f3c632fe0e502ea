//! Data staging (§4.1.2): middleware files and middleware memory.
//!
//! As the tree grows, the relevant data set of the active frontier shrinks
//! monotonically, so data "smoothly migrates from the SQL server, to the
//! middleware file system, and to middleware memory". This module owns
//! those staged copies. Each is one [`StagedSet`], whichever tier holds
//! its rows ([`StagedRows`]: flat code vectors in memory, or binary row
//! files on disk), tagged with the tree node(s) whose data it holds. A
//! set is usable by any *descendant* of a member node (the descendant's
//! predicate selects the subset), and is reclaimed once no pending request
//! descends from any member. Both tiers commit through one `register`
//! (replace, then publish to the shared catalog when attached), and
//! delete, attach and epoch invalidation each run one path for both;
//! only the memory budget's policy (`evictable_mem_sets`, `mem_covers`,
//! the private byte counter) is memory-only.
//!
//! Lock discipline: this module acquires no locks of its own rank, but
//! its catalog `charge` cells are Σ-invariant — the analyzer's
//! `atomic-ordering` rule (DESIGN.md §14) rejects `Relaxed` on them, and
//! the guard rules check any lock guard passing through these paths.

use crate::catalog::StagingCatalog;
use crate::config::DEFAULT_EXTENT_ROWS;
use crate::error::{MwError, MwResult};
use crate::executor::Block;
use crate::metrics::{MiddlewareStats, WorkerScanStats};
use crate::request::{CcRequest, DataLocation, Lineage, NodeId};
use scaleclass_sqldb::types::{Code, CODE_BYTES};
use scaleclass_sqldb::Pred;
use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

static STAGE_DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Process-global staged-file name disambiguator. Per-manager ids both
/// start at 1, so concurrent sessions pointed at the *same* explicit
/// `staging_dir` would otherwise race to create the same `stage_1.rows`.
static STAGE_FILE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Process-global manager disambiguator, embedded (with the pid) in every
/// filename a manager creates. Dropping a manager that shares a
/// user-supplied staging directory sweeps by this prefix, so aborted
/// writers cannot orphan in the shared directory.
static MANAGER_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A process-unique directory path for a [`StagingCatalog`]'s shared
/// staged files, under `base` (the backend's staging directory, so a
/// finished file moves in by a same-filesystem rename) or else the system
/// temp dir. Computed only — the directory is created lazily by the
/// first file publish, so memory-only catalogs never touch the disk. Lives
/// here because the catalog module itself performs no filesystem I/O.
pub(crate) fn shared_catalog_dir(base: Option<&Path>) -> PathBuf {
    let base = base.map_or_else(std::env::temp_dir, Path::to_path_buf);
    base.join(format!(
        "scaleclass-shared-{}-{}",
        std::process::id(),
        STAGE_DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Remove a catalog's shared directory and anything still in it (files a
/// crashed session failed to reclaim). A never-created directory is a
/// no-op. I/O delegate for [`StagingCatalog`]'s `Drop`.
pub(crate) fn cleanup_shared_dir(dir: &Path) {
    let _ = fs::remove_dir_all(dir);
}

// ---------------------------------------------------------------------------
// Extent file format (version 3)
//
// Staged files are written as a 16-byte file header followed by a sequence
// of fixed-size *extents* so that reader threads can each own a disjoint
// extent range (the offset of extent `k` is computable — only the final
// extent may hold fewer than `extent_rows` rows).
//
//   file header (16 B): magic "SCXT" | version u32 LE | arity u32 LE
//                       | extent_rows u32 LE
//   extent  header (8 B): nrows u32 LE | extent index u32 LE
//   extent payload      : the extent's rows in order, each arity × Code
//                         u16 LE (row-major, as every scan counts: the
//                         writer buffers rows, the one decode yields rows)
//   extent  footer (8 B): CRC32(payload) u32 LE | nrows u32 LE (again)
//
// This is the only staged-file format: a file too short for the header,
// without the magic or of another version — version 2 stored each extent's
// payload column by column — is `MwError::Corrupt` (`ExtentLayout::detect`).
// ---------------------------------------------------------------------------

/// Magic prefix of extent-format staged files.
pub const EXTENT_MAGIC: [u8; 4] = *b"SCXT";
/// Format version stamped in the file header (1 was a headerless
/// row-major layout, 2 a column-major payload; neither is read).
pub const EXTENT_VERSION: u32 = 3;
/// Bytes of the per-file header.
pub const FILE_HEADER_BYTES: u64 = 16;
/// Bytes of per-extent framing (8 header + 8 footer).
pub const EXTENT_OVERHEAD_BYTES: u64 = 16;

/// CRC-32 (IEEE 802.3, poly 0xEDB88320) lookup tables for slicing-by-16,
/// built at compile time — the repo deliberately takes no external crates.
/// Table 0 is the classic byte table; `CRC32_TABLES[k][b]` is the CRC
/// state byte `b` leaves behind once `k` zero bytes have followed it, so
/// sixteen independent lookups advance the state by sixteen bytes where
/// the bytewise loop waits on each lookup in turn.
static CRC32_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// One bytewise step of the CRC state.
fn crc32_step(c: u32, b: u8) -> u32 {
    CRC32_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8)
}

/// CRC-32 (IEEE) of `data`: folded by carry-less multiplication on a CPU
/// that has it, sliced everywhere else. Both kernels compute the same
/// value, so which one ran never shows on disk.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_folded(data).unwrap_or_else(|| crc32_sliced(data))
}

/// `data`'s CRC by [`clmul::crc32_clmul`], or `None` on a CPU without
/// `pclmulqdq` and `sse4.1`: the run-time detection that picks the kernel.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn crc32_folded(data: &[u8]) -> Option<u32> {
    if std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `crc32_clmul` enables exactly the two features this
        // CPU was just found to have.
        return Some(unsafe { clmul::crc32_clmul(data) });
    }
    None
}

/// No folded kernel off x86_64: [`crc32`] always slices.
#[cfg(not(target_arch = "x86_64"))]
fn crc32_folded(_: &[u8]) -> Option<u32> {
    None
}

/// The IEEE CRC-32 by carry-less-multiply folding (Gopal et al., "Fast
/// CRC Computation for Generic Polynomials Using PCLMULQDQ Instruction",
/// Intel 2009 — the construction and constants Linux `crc32-pclmul` and
/// zlib use). Every function here is a safe `#[target_feature]` function
/// compiled for `pclmulqdq` + `sse4.1`; calling one from code compiled
/// without them is `unsafe`, and [`crc32_folded`] is the one caller.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::{crc32_sliced, crc32_step};
    use std::arch::x86_64::*;

    /// Inputs shorter than this slice: folding pays a fixed 128 → 32-bit
    /// reduction that a short buffer does not amortise.
    const FOLD_MIN_BYTES: usize = 128;

    // Bit-reflected constants: (K1, K2) fold a lane 512 bits on, (K3, K4)
    // 128 bits on; K4 then K5 reduce 128 → 64 → 32 bits; P is the
    // polynomial with its x³² term and MU its Barrett constant ⌊x⁶⁴ / P⌋.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// Four 128-bit lanes folded 64 bytes a stride, combined into one,
    /// folded 16 bytes a block, reduced 128 → 64 → 32 bits (Barrett),
    /// and the last 0–15 bytes bytewise from that state.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn crc32_clmul(data: &[u8]) -> u32 {
        let (blocks, tail) = data.as_chunks::<16>();
        let (strides, singles) = blocks.as_chunks::<4>();
        let ([b0, b1, b2, b3], strides) = match strides.split_first() {
            Some(first) if data.len() >= FOLD_MIN_BYTES => first,
            _ => return crc32_sliced(data),
        };
        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut x0 = _mm_xor_si128(load16(b0), _mm_cvtsi32_si128(!0));
        let (mut x1, mut x2, mut x3) = (load16(b1), load16(b2), load16(b3));
        for [y0, y1, y2, y3] in strides {
            x0 = fold16(x0, k1k2, load16(y0));
            x1 = fold16(x1, k1k2, load16(y1));
            x2 = fold16(x2, k1k2, load16(y2));
            x3 = fold16(x3, k1k2, load16(y3));
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold16(fold16(fold16(x0, k3k4, x1), k3k4, x2), k3k4, x3);
        for y in singles {
            x = fold16(x, k3k4, load16(y));
        }
        // 128 → 64 bits: the low half times K4 into the high half, then
        // the low 32 bits of that times K5 into the rest.
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        x = _mm_xor_si128(
            _mm_srli_si128::<8>(x),
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
        );
        x = _mm_xor_si128(
            _mm_srli_si128::<4>(x),
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
        );
        // Barrett: q = ⌊x · μ⌋ on the low 32 bits, then x − q · P.
        let poly_mu = _mm_set_epi64x(MU, P);
        let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), poly_mu);
        let qp = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), poly_mu);
        let c = _mm_extract_epi32::<1>(_mm_xor_si128(x, qp)) as u32;
        tail.iter().fold(c, |c, &b| crc32_step(c, b)) ^ 0xFFFF_FFFF
    }

    /// 16 bytes as one lane, little-endian, as the reflected CRC reads
    /// them.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load16(bytes: &[u8; 16]) -> __m128i {
        let v = u128::from_le_bytes(*bytes);
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }

    /// Fold lane `x` over `next`, 128 bits on: `x.lo · k.lo ⊕ x.hi · k.hi
    /// ⊕ next` in GF(2)[x].
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold16(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_xor_si128(
                _mm_clmulepi64_si128::<0x00>(x, k),
                _mm_clmulepi64_si128::<0x11>(x, k),
            ),
            next,
        )
    }
}

/// CRC-32 (IEEE) of `data` by slicing-by-16: sixteen bytes a step, the
/// tail bytewise. The kernel on CPUs without carry-less multiply.
fn crc32_sliced(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(16);
    for word in &mut words {
        // The state folds into the word's first four bytes; byte `i` then
        // has `15 - i` bytes after it.
        let fold = c.to_le_bytes().into_iter().chain(std::iter::repeat(0));
        let mut next = 0;
        for ((&b, f), table) in word.iter().zip(fold).zip(CRC32_TABLES.iter().rev()) {
            // analyze:allow(hot-path-panic): a `u8` indexes a 256-entry table.
            next ^= table[usize::from(b ^ f)];
        }
        c = next;
    }
    c = words.remainder().iter().fold(c, |c, &b| crc32_step(c, b));
    c ^ 0xFFFF_FFFF
}

/// The little-endian `u32` at byte `at` of `buf`; `None` when `buf` is too
/// short to hold it.
fn le_u32(buf: &[u8], at: usize) -> Option<u32> {
    let bytes = buf.get(at..at.checked_add(4)?)?;
    Some(u32::from_le_bytes(bytes.try_into().ok()?))
}

/// Append the little-endian codes in `bytes` to `out`.
fn extend_from_le(out: &mut Vec<Code>, bytes: &[u8]) {
    out.extend(
        bytes
            .chunks_exact(CODE_BYTES)
            .map(|b| Code::from_le_bytes([b[0], b[1]])),
    );
}

/// Write `codes` little-endian over `bytes` (`CODE_BYTES` apiece).
fn write_le(bytes: &mut [u8], codes: &[Code]) {
    for (b, c) in bytes.chunks_exact_mut(CODE_BYTES).zip(codes) {
        b.copy_from_slice(&c.to_le_bytes());
    }
}

/// How many bytes a memory set stores each code in. Staged files, the
/// wire and the server's pages keep two-byte codes; a memory set takes
/// the width its scan's range certificate (`Table::col_max`) allows, fixed
/// before its first row is teed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodeWidth {
    /// One byte a code: every column is bounded by 255.
    One,
    /// Two bytes a code, little-endian.
    Two,
}

impl CodeWidth {
    /// The narrowest width holding every code at or under `certificate`,
    /// per column.
    pub fn holding(certificate: &[Code]) -> Self {
        if certificate.iter().all(|&max| max <= Code::from(u8::MAX)) {
            CodeWidth::One
        } else {
            CodeWidth::Two
        }
    }

    /// Bytes a code.
    pub fn bytes(self) -> usize {
        match self {
            CodeWidth::One => 1,
            CodeWidth::Two => CODE_BYTES,
        }
    }

    /// Bytes a row of `arity` codes.
    pub fn row_bytes(self, arity: usize) -> u64 {
        (arity * self.bytes()) as u64
    }
}

/// A memory set's rows, or a memory tee's: row-major codes, each stored in
/// [`CodeWidth`] bytes. What it holds is what the budget charges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemRows {
    width: CodeWidth,
    bytes: Vec<u8>,
}

impl MemRows {
    /// No rows, codes `width` bytes wide.
    pub fn new(width: CodeWidth) -> Self {
        Self::with_capacity(width, 0)
    }

    /// No rows, codes `width` bytes wide, room for `capacity` bytes.
    pub fn with_capacity(width: CodeWidth, capacity: usize) -> Self {
        MemRows {
            width,
            bytes: Vec::with_capacity(capacity),
        }
    }

    /// `codes` stored `width` bytes apiece.
    pub fn from_codes(width: CodeWidth, codes: &[Code]) -> Self {
        let mut rows = Self::with_capacity(width, codes.len() * width.bytes());
        rows.push(codes);
        rows
    }

    /// The width each code is stored in.
    pub fn width(&self) -> CodeWidth {
        self.width
    }

    /// Fix the width of rows not yet written: a tee takes its scan's.
    pub(crate) fn set_width(&mut self, width: CodeWidth) {
        debug_assert!(self.bytes.is_empty(), "the width of a tee holding rows");
        self.width = width;
    }

    /// Bytes held: codes × width.
    pub fn len_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Codes held.
    pub fn codes(&self) -> usize {
        self.bytes.len() / self.width.bytes()
    }

    /// Append `codes`, each in this width. A one-byte set holds only codes
    /// its certificate bounded by 255.
    pub fn push(&mut self, codes: &[Code]) {
        match self.width {
            CodeWidth::One => self.bytes.extend(codes.iter().map(|&c| {
                debug_assert!(c <= Code::from(u8::MAX), "code {c} in a one-byte set");
                c as u8
            })),
            CodeWidth::Two => self
                .bytes
                .extend(codes.iter().flat_map(|c| c.to_le_bytes())),
        }
    }

    /// Append to `out` the `len` codes from code `start` on, decoded (as
    /// many as there are).
    pub(crate) fn decode(&self, start: usize, len: usize, out: &mut Vec<Code>) {
        let w = self.width.bytes();
        let from = start.saturating_mul(w).min(self.bytes.len());
        let to = start
            .saturating_add(len)
            .saturating_mul(w)
            .min(self.bytes.len());
        let bytes = self.bytes.get(from..to).unwrap_or_default();
        match self.width {
            CodeWidth::One => out.extend(bytes.iter().map(|&b| Code::from(b))),
            CodeWidth::Two => extend_from_le(out, bytes),
        }
    }

    /// Every code, decoded.
    pub fn to_codes(&self) -> Vec<Code> {
        let mut out = Vec::with_capacity(self.codes());
        self.decode(0, self.codes(), &mut out);
        out
    }

    /// Keep only the rows of `row_codes` codes at the offsets `kept`
    /// (ascending, in bounds), in place.
    fn keep_rows(&mut self, kept: &[u32], row_codes: usize) {
        let row = row_codes * self.width.bytes();
        for (to, &from) in kept.iter().enumerate() {
            let from = from as usize * row;
            self.bytes.copy_within(from..from + row, to * row);
        }
        self.bytes.truncate(kept.len() * row);
    }
}

/// Which tier of middleware storage holds a staged set's rows (§4.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Flat codes in middleware memory.
    Memory,
    /// A staged middleware file.
    File,
}

/// A staged set's rows, in the tier that holds them.
#[derive(Debug, Clone, PartialEq)]
pub enum StagedRows {
    /// Row-major codes (`nrows × arity`, each [`MemRows::width`] bytes),
    /// behind an `Arc` so a catalog-shared set is scanned copy-on-read by
    /// every attached session without duplicating the codes.
    Memory(Arc<MemRows>),
    /// On-disk location of an extent-format staged file.
    File(PathBuf),
}

impl StagedRows {
    /// The tier holding these rows.
    pub fn tier(&self) -> Tier {
        match self {
            StagedRows::Memory(_) => Tier::Memory,
            StagedRows::File(_) => Tier::File,
        }
    }
}

/// A staged copy of tree nodes' rows, in memory or in a file.
///
/// `members` are the tree nodes whose data the set *fully* contains. A
/// memory set is staged with one member, its owner, and a per-node cache
/// file has one; a split file produced by the hybrid policy (§4.3.2)
/// contains the union of several scheduled nodes' rows and lists all of
/// them, and so does a memory set compacted to a batch's rows
/// ([`StagingManager::compact_mem`]). The set is usable by any descendant
/// of any member, and reclaimable once no pending request descends from
/// one.
#[derive(Debug)]
pub struct StagedSet {
    /// Staging-manager id, unique across both tiers.
    pub id: u64,
    /// Nodes whose data the set fully contains.
    pub members: Vec<NodeId>,
    /// Disjunction of the members' path predicates (every row satisfies
    /// it).
    pub pred: Pred,
    /// Number of rows.
    pub nrows: u64,
    /// Codes per row.
    pub arity: usize,
    /// Base-table epoch the set's rows were scanned at (DESIGN.md §15);
    /// 0 forever while incremental maintenance is off.
    pub epoch: u64,
    /// Catalog entry id when the set is shared across sessions: a shared
    /// memory set's bytes are charged through the catalog's equal-share
    /// cells, not this manager's private `staged_bytes` counter, and a
    /// shared file lives in the catalog directory and is removed by its
    /// last reader's detach, not by this manager's delete.
    pub shared: Option<u64>,
    /// The rows themselves.
    pub rows: StagedRows,
}

impl StagedSet {
    /// Footprint in bytes, as stored: `rows × arity × width`, where a
    /// memory set's width is the one its codes are held in
    /// ([`CodeWidth`]) and a file's is two — what the budget charges a
    /// memory set, and a file's payload.
    pub fn bytes(&self) -> u64 {
        let width = match &self.rows {
            StagedRows::Memory(rows) => rows.width().bytes(),
            StagedRows::File(_) => CODE_BYTES,
        };
        self.nrows * (self.arity * width) as u64
    }

    /// The tier holding the rows.
    pub fn tier(&self) -> Tier {
        self.rows.tier()
    }
}

/// A staging manager's link to its backend's shared [`StagingCatalog`]
/// (present only when `config.shared_staging` is on).
#[derive(Debug)]
struct SharedHandle {
    catalog: Arc<StagingCatalog>,
    /// This manager's reader-session id in the catalog.
    session: u64,
    /// Σ of this session's equal shares over the shared memory entries it
    /// reads — maintained by the catalog under its lock, read lock-free
    /// here on every scheduling decision.
    charge: Arc<AtomicU64>,
}

/// Owns every staged dataset and the node → dataset bookkeeping.
#[derive(Debug)]
pub struct StagingManager {
    dir: PathBuf,
    owns_dir: bool,
    /// Unique `scx{pid}m{n}_` filename prefix for everything this manager
    /// creates — the drop-time sweep key for shared directories.
    prefix: String,
    next_id: u64,
    sets: HashMap<u64, StagedSet>,
    /// Memory set owned by each node.
    mem_of: HashMap<NodeId, u64>,
    /// Most recent (smallest) staged file containing each node's data.
    file_of: HashMap<NodeId, u64>,
    /// Rows per extent for files written from now on (existing files keep
    /// the extent size recorded in their header).
    extent_rows: usize,
    /// Incrementally maintained total of [`StagedSet::bytes`] over the
    /// memory sets — read on every scheduling decision, so O(1) instead of
    /// a re-sum. Shadow-checked against the first-principles recount at
    /// batch checkpoints (DESIGN.md §9). Catalog-shared sets are
    /// *excluded* — their bytes are charged through the catalog's
    /// equal-share cells.
    staged_bytes: u64,
    /// Current base-table epoch (DESIGN.md §15). Stamped onto every data
    /// set committed or attached from now on; advanced by
    /// [`StagingManager::advance_epoch`] when the session drains mutation
    /// deltas. Stays 0 while incremental maintenance is off.
    epoch: u64,
    /// Link to the backend's cross-session staging catalog, when shared
    /// staging is enabled for this session.
    shared: Option<SharedHandle>,
    /// The width a memory set staged now would store its codes in, as last
    /// read off the table's range certificate
    /// ([`StagingManager::set_mem_width`]); two until then.
    mem_width: CodeWidth,
}

impl StagingManager {
    /// Create a manager. With `dir = None` a fresh directory is created
    /// under the system temp dir and removed on drop.
    pub fn new(dir: Option<PathBuf>) -> MwResult<Self> {
        let (dir, owns_dir) = match dir {
            Some(d) => {
                fs::create_dir_all(&d)?;
                (d, false)
            }
            None => {
                let d = std::env::temp_dir().join(format!(
                    "scaleclass-stage-{}-{}",
                    std::process::id(),
                    STAGE_DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
                ));
                fs::create_dir_all(&d)?;
                (d, true)
            }
        };
        let prefix = format!(
            "scx{}m{}_",
            std::process::id(),
            MANAGER_COUNTER.fetch_add(1, Ordering::Relaxed)
        );
        Ok(StagingManager {
            dir,
            owns_dir,
            prefix,
            next_id: 0,
            sets: HashMap::new(),
            mem_of: HashMap::new(),
            file_of: HashMap::new(),
            extent_rows: DEFAULT_EXTENT_ROWS,
            staged_bytes: 0,
            epoch: 0,
            shared: None,
            mem_width: CodeWidth::Two,
        })
    }

    /// The width a memory set staged now would store its codes in: what
    /// the scheduler charges a memory set it plans (Rule 5). A scan fixes
    /// its tees' width from its own certificate, which never falls, so the
    /// width can only have widened by then.
    pub fn mem_width(&self) -> CodeWidth {
        self.mem_width
    }

    /// Take `width`, read off the table's range certificate, as the width
    /// of the memory sets planned from now on.
    pub fn set_mem_width(&mut self, width: CodeWidth) {
        self.mem_width = width;
    }

    /// The epoch stamped onto newly staged data sets.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Seed the epoch at session open, before anything is staged, so a
    /// first drain over an unmutated table is a no-op. Load-time inserts
    /// advance the table epoch like any mutation, so a fresh session over
    /// a loaded table starts well past 0; without seeding, its first drain
    /// would spuriously invalidate every artifact staged since open.
    pub fn seed_epoch(&mut self, epoch: u64) {
        debug_assert!(
            self.sets.is_empty(),
            "seed_epoch must run before anything is staged"
        );
        self.epoch = epoch;
    }

    /// Move to `epoch` after the session drained a batch of mutation
    /// deltas: every locally staged data set built at an older epoch is
    /// invalidated (its rows no longer reflect the base table), and stale
    /// shared-catalog entries are demoted from the index so no session
    /// can attach them again. Returns how many artifacts were invalidated
    /// and counts them into `stats.epochs_invalidated`. A no-op when the
    /// epoch is unchanged — in particular, forever while incremental
    /// maintenance is off and both sides stay at 0.
    pub fn advance_epoch(&mut self, epoch: u64, stats: &mut MiddlewareStats) -> u64 {
        if epoch == self.epoch {
            return 0;
        }
        self.epoch = epoch;
        let stale: Vec<u64> = self
            .sets
            .values()
            .filter(|s| s.epoch != epoch)
            .map(|s| s.id)
            .collect();
        let mut invalidated = stale.len() as u64;
        for id in stale {
            self.delete(id, stats);
        }
        if let Some(h) = &self.shared {
            invalidated += h.catalog.purge_stale(epoch);
        }
        stats.epochs_invalidated += invalidated;
        invalidated
    }

    /// Join the backend's shared staging catalog: staged data sets this
    /// manager commits from now on are published for other sessions, and
    /// [`StagingManager::attach_from_catalog`] can adopt entries other
    /// sessions already paid to build. Registers this manager as a reader
    /// session; idempotent.
    pub fn attach_catalog(&mut self, catalog: Arc<StagingCatalog>) {
        if self.shared.is_some() {
            return;
        }
        let (session, charge) = catalog.register_session();
        self.shared = Some(SharedHandle {
            catalog,
            session,
            charge,
        });
    }

    /// Is this manager attached to a shared staging catalog?
    pub fn catalog_attached(&self) -> bool {
        self.shared.is_some()
    }

    /// Where staged files live.
    pub fn staging_dir(&self) -> &Path {
        &self.dir
    }

    /// Set rows-per-extent for subsequently written files (min 1).
    pub fn set_extent_rows(&mut self, rows: usize) {
        self.extent_rows = rows.clamp(1, 1 << 20);
    }

    fn next_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Total bytes of memory-staged data that count against this session's
    /// lease: privately staged bytes (maintained incrementally on
    /// stage/evict) plus this session's equal share of every catalog
    /// entry it reads.
    pub fn staged_mem_bytes(&self) -> u64 {
        self.staged_bytes.saturating_add(self.shared_charge_bytes())
    }

    /// This session's Σ equal-share charge over the shared catalog entries
    /// it reads (0 when shared staging is off). Lock-free read of the
    /// catalog-maintained cell.
    pub fn shared_charge_bytes(&self) -> u64 {
        self.shared
            .as_ref()
            .map_or(0, |h| h.charge.load(Ordering::Acquire))
    }

    /// Shadow accounting (DESIGN.md §9): recompute the *private*
    /// staged-byte total from first principles — the bytes every live
    /// memory set not backed by the shared catalog holds.
    pub fn shadow_staged_mem_bytes(&self) -> u64 {
        (self.sets.values())
            .filter_map(|s| match (&s.rows, s.shared) {
                (StagedRows::Memory(rows), None) => Some(rows.len_bytes() as u64),
                _ => None,
            })
            .sum()
    }

    /// Assert the incremental staged-byte counter matches the recount, and
    /// (when attached) that the catalog's incremental charge cells match
    /// its own entry-table recount. Unconditional assert; call sites gate
    /// on `cfg(debug_assertions)`.
    pub fn assert_shadow_accounting(&self) {
        assert_eq!(
            self.shadow_staged_mem_bytes(),
            self.staged_bytes,
            "incremental staged_bytes drifted from the live memory sets"
        );
        if let Some(h) = &self.shared {
            h.catalog.assert_shadow_accounting();
        }
    }

    /// Staged set by id.
    pub fn set(&self, id: u64) -> Option<&StagedSet> {
        self.sets.get(&id)
    }

    /// Live staged sets in `tier`.
    pub fn count(&self, tier: Tier) -> usize {
        self.sets.values().filter(|s| s.tier() == tier).count()
    }

    /// Does a set in `tier` already hold this node's data?
    pub fn holds(&self, node: NodeId, tier: Tier) -> bool {
        match tier {
            Tier::Memory => self.mem_of.contains_key(&node),
            Tier::File => self.file_of.contains_key(&node),
        }
    }

    /// The node → set map of `tier`.
    fn nodes_mut(&mut self, tier: Tier) -> &mut HashMap<NodeId, u64> {
        match tier {
            Tier::Memory => &mut self.mem_of,
            Tier::File => &mut self.file_of,
        }
    }

    /// Begin writing a staged file whose content will be the union of the
    /// rows of `members` (predicate `pred`). Rows are appended through the
    /// returned writer; call [`StagingManager::commit_file`] to register it.
    pub fn start_file(
        &mut self,
        members: Vec<NodeId>,
        pred: Pred,
        arity: usize,
    ) -> MwResult<FileWriter> {
        debug_assert!(!members.is_empty());
        debug_assert!(arity >= 1 && arity <= u32::MAX as usize);
        let id = self.next_id();
        let uniq = STAGE_FILE_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = self
            .dir
            .join(format!("{}stage_{id}_{uniq}.rows", self.prefix));
        FileWriter::create(path, id, members, pred, arity, self.extent_rows)
    }

    /// Register a finished staged file through `register`, after moving
    /// it into the catalog directory when shared staging is on.
    pub fn commit_file(
        &mut self,
        mut writer: FileWriter,
        stats: &mut MiddlewareStats,
    ) -> MwResult<u64> {
        writer.finish()?;
        let (id, members, pred, mut path, arity, nrows, bytes, physical_bytes) =
            writer.into_committed();
        stats.files_created += 1;
        stats.file_rows_written += nrows;
        stats.file_bytes_written += bytes;
        stats.file_bytes_physical_written += physical_bytes;
        if let Some(h) = &self.shared {
            let dest = h.catalog.dir().join(path.file_name().unwrap_or_default());
            fs::create_dir_all(h.catalog.dir())?;
            fs::rename(&path, &dest)?;
            path = dest;
        }
        Ok(self.register(
            StagedSet {
                id,
                members,
                pred,
                nrows,
                arity,
                epoch: self.epoch,
                shared: None,
                rows: StagedRows::File(path),
            },
            stats,
        ))
    }

    /// Register a memory-staged data set for `owner` through `register`.
    pub fn commit_mem(
        &mut self,
        owner: NodeId,
        pred: Pred,
        rows: MemRows,
        arity: usize,
        stats: &mut MiddlewareStats,
    ) -> u64 {
        let id = self.next_id();
        let nrows = (rows.codes() / arity.max(1)) as u64;
        stats.memory_sets_created += 1;
        stats.memory_rows_staged += nrows;
        self.register(
            StagedSet {
                id,
                members: vec![owner],
                pred,
                nrows,
                arity,
                epoch: self.epoch,
                shared: None,
                rows: StagedRows::Memory(Arc::new(rows)),
            },
            stats,
        )
    }

    /// Register a freshly staged set. Each member is re-pointed at it, and
    /// a set of the same tier left with no member is deleted: this is both
    /// the §4.3.2 "creating a smaller middleware file" operation and a
    /// node's new memory set replacing its old one. Then, when shared
    /// staging is on, the set is published — or the copy that won a
    /// publish race is adopted (scans over the shared table are
    /// deterministic, so both builds hold identical rows) and a duplicate
    /// file removed. Replacing before publishing lets a re-stage under
    /// its predecessor's signature publish afresh rather than attach to
    /// the entry that predecessor's delete reclaims. A private memory
    /// set's bytes go on the private counter.
    fn register(&mut self, mut set: StagedSet, stats: &mut MiddlewareStats) -> u64 {
        let (id, tier) = (set.id, set.tier());
        self.repoint(&set.members, id, tier, stats);
        if let Some(h) = &self.shared {
            let s = h.catalog.publish(
                StagingCatalog::signature(&set.pred),
                set.rows.clone(),
                set.bytes(),
                set.nrows,
                set.arity,
                set.epoch,
                h.session,
            );
            if let (StagedRows::File(mine), StagedRows::File(theirs)) = (&set.rows, &s.rows) {
                if mine != theirs {
                    let _ = fs::remove_file(mine);
                }
            }
            set.rows = s.rows;
            set.shared = Some(s.entry);
        } else if tier == Tier::Memory {
            self.staged_bytes += set.bytes();
        }
        self.sets.insert(id, set);
        id
    }

    /// Point each of `members` at set `id` of `tier`, taking it from the
    /// set it pointed at before; a set left with no member is deleted.
    fn repoint(&mut self, members: &[NodeId], id: u64, tier: Tier, stats: &mut MiddlewareStats) {
        for &m in members {
            let old = match self.nodes_mut(tier).insert(m, id) {
                Some(old) if old != id => old,
                _ => continue,
            };
            let emptied = self.sets.get_mut(&old).is_some_and(|old| {
                old.members.retain(|&x| x != m);
                old.members.is_empty()
            });
            if emptied {
                self.delete(old, stats);
            }
        }
    }

    /// Shrink the private memory set `id` in place to the rows at offsets
    /// `kept` (ascending, as a scan met them), and hand it from its members
    /// to the nodes whose paths `members` are — the batch that scanned it,
    /// whose rows `kept` are. The memory-tier twin of the hybrid split file
    /// (§4.3.2): later scans of the members' descendants read only those
    /// rows, the set's bytes fall, and nothing is copied — the rows move
    /// down inside the one buffer. Charges `memory_rows_compacted`.
    ///
    /// # Errors
    ///
    /// [`MwError::Internal`] when `id` is no private memory set, another
    /// handle holds its rows, or `kept` is not ascending within its rows.
    pub fn compact_mem(
        &mut self,
        id: u64,
        kept: &[u32],
        members: &[&Lineage],
        stats: &mut MiddlewareStats,
    ) -> MwResult<()> {
        let internal = |what: &str| Err(MwError::Internal(format!("memory set {id} {what}")));
        let Some(set) = self.sets.get_mut(&id) else {
            return internal("to compact is missing");
        };
        let (StagedRows::Memory(rows), None) = (&mut set.rows, set.shared) else {
            return internal("to compact is not a private memory set");
        };
        let Some(rows) = Arc::get_mut(rows) else {
            return internal("is held by another handle");
        };
        let ascending = kept.windows(2).all(|w| w[0] < w[1]);
        if !ascending || kept.last().is_some_and(|&r| u64::from(r) >= set.nrows) {
            return internal("keeps rows out of order or past its end");
        }
        rows.keep_rows(kept, set.arity);
        let before = set.bytes();
        set.nrows = kept.len() as u64;
        self.staged_bytes -= before - set.bytes();
        set.pred = Pred::or(members.iter().map(|l| l.pred().clone()).collect());
        let members: Vec<NodeId> = members.iter().map(|l| l.node()).collect();
        let old = std::mem::replace(&mut set.members, members.clone());
        stats.memory_rows_compacted += set.nrows;
        for m in old {
            if self.mem_of.get(&m) == Some(&id) {
                self.mem_of.remove(&m);
            }
        }
        self.repoint(&members, id, Tier::Memory, stats);
        Ok(())
    }

    fn delete(&mut self, id: u64, stats: &mut MiddlewareStats) {
        let Some(set) = self.sets.remove(&id) else {
            return;
        };
        let nodes = self.nodes_mut(set.tier());
        for m in &set.members {
            if nodes.get(m) == Some(&id) {
                nodes.remove(m);
            }
        }
        match (set.shared, &self.shared, &set.rows) {
            // A shared set belongs to the catalog: detaching drops this
            // session's charge (and re-grows survivors'), and only the
            // last reader's detach removes a file's bytes on disk.
            (Some(entry), Some(h), _) => {
                if let Some(path) = h.catalog.detach(entry, h.session) {
                    let _ = fs::remove_file(path);
                }
            }
            (_, _, StagedRows::File(path)) => {
                let _ = fs::remove_file(path);
            }
            (_, _, StagedRows::Memory(_)) => self.staged_bytes -= set.bytes(),
        }
        match set.tier() {
            Tier::Memory => stats.memory_sets_evicted += 1,
            Tier::File => stats.files_deleted += 1,
        }
    }

    /// The validated extent layout of a staged file — what every file
    /// scan opens the file through. `None` means no staged
    /// file has this id; a file that fails validation is an error.
    pub fn extent_layout(&self, id: u64) -> MwResult<Option<ExtentLayout>> {
        match self.sets.get(&id) {
            Some(StagedSet {
                rows: StagedRows::File(path),
                nrows,
                arity,
                ..
            }) => ExtentLayout::detect(path, *arity, *nrows).map(Some),
            _ => Ok(None),
        }
    }

    /// The cheapest staged dataset usable by a node: walk its lineage and
    /// pick the candidate (memory or file, any ancestor) with the fewest
    /// rows; memory wins ties (Rule 1's cost ordering), and between equals
    /// the ancestor nearest the root.
    pub fn best_location(&self, lineage: &Lineage) -> DataLocation {
        // The walk runs from the node up, so an equal candidate further up
        // displaces the one below it.
        let mut best: Option<(u64, u8, DataLocation)> = None; // (rows, prio, loc)
        let mut consider = |id: u64, prio: u8, loc: DataLocation| {
            let rows = self.sets[&id].nrows;
            let better = match &best {
                None => true,
                Some((brows, bprio, _)) => {
                    (rows, std::cmp::Reverse(prio)) <= (*brows, std::cmp::Reverse(*bprio))
                }
            };
            if better {
                best = Some((rows, prio, loc));
            }
        };
        for (node, _) in lineage.entries() {
            if let Some(&id) = self.mem_of.get(&node) {
                consider(id, 2, DataLocation::Memory(id));
            }
            if let Some(&id) = self.file_of.get(&node) {
                consider(id, 1, DataLocation::File(id));
            }
        }
        best.map(|(_, _, loc)| loc).unwrap_or(DataLocation::Server)
    }

    /// Memory sets that may be sacrificed under counting pressure:
    /// `(id, bytes)` ascending by size — consumers pop from the back, so
    /// the largest (most memory freed per eviction) goes first — excluding
    /// `exclude` (the current scan's source must survive the scan).
    pub fn evictable_mem_sets(&self, exclude: Option<u64>) -> Vec<(u64, u64)> {
        let mut sets: Vec<(u64, u64)> = self
            .sets
            .values()
            .filter(|s| s.tier() == Tier::Memory && Some(s.id) != exclude)
            .map(|s| (s.id, self.mem_set_charge(s)))
            .collect();
        sets.sort_by_key(|&(id, bytes)| (bytes, id));
        sets
    }

    /// What evicting this memory set frees against the lease: its full
    /// bytes for a private set, this session's equal share for a
    /// catalog-shared set (a sole reader's share is the full bytes, so
    /// single-session behaviour is unchanged).
    fn mem_set_charge(&self, set: &StagedSet) -> u64 {
        match (set.shared, &self.shared) {
            (Some(entry), Some(h)) => h.catalog.share_of(entry, h.session),
            _ => set.bytes(),
        }
    }

    /// Drop one memory set by id (pressure eviction).
    pub fn evict_mem_set(&mut self, id: u64, stats: &mut MiddlewareStats) {
        self.delete(id, stats);
    }

    /// Is some ancestor-or-self of this lineage already memory-staged
    /// (i.e. the node's data is fully contained in middleware memory)?
    pub fn mem_covers(&self, lineage: &Lineage) -> bool {
        lineage
            .entries()
            .any(|(node, _)| self.mem_of.contains_key(&node))
    }

    /// Reclaim every dataset none of whose members is an ancestor-or-self
    /// of any pending request (§4.2.2: once a staged subtree is fully
    /// expanded its data is flushed, "freeing up the resource").
    pub fn evict_unreachable(&mut self, pending: &[CcRequest], stats: &mut MiddlewareStats) {
        let reachable = |node: NodeId| pending.iter().any(|r| r.lineage.contains(node));
        let dead: Vec<u64> = self
            .sets
            .values()
            .filter(|s| !s.members.iter().any(|&m| reachable(m)))
            .map(|s| s.id)
            .collect();
        for id in dead {
            self.delete(id, stats);
        }
    }

    /// Adopt catalog entries other sessions already paid to build: for
    /// every node on a pending request's lineage with no local data set
    /// of a wanted tier, probe the shared catalog by the node's full path
    /// predicate and attach copy-on-read on a hit. Runs before scheduling,
    /// so the scheduler sees the attached sets as ordinary staged data and
    /// routes scans to them instead of re-staging from the server.
    /// Attaching a memory entry immediately charges this session an equal
    /// share of its bytes; the batch-boundary lease reconcile evicts if
    /// that overshoots.
    pub fn attach_from_catalog(&mut self, pending: &[CcRequest], want_mem: bool, want_files: bool) {
        if self.shared.is_none() || !(want_mem || want_files) {
            return;
        }
        let mut root_first = Vec::new();
        for req in pending {
            // Root first, as the attach order has always been.
            root_first.extend(req.lineage.entries());
            for (node, pred) in root_first.drain(..).rev() {
                for (tier, want) in [(Tier::Memory, want_mem), (Tier::File, want_files)] {
                    if want && !self.holds(node, tier) {
                        self.attach(node, pred, tier);
                    }
                }
            }
        }
    }

    /// Attach `node` to the catalog's `tier` entry for its path predicate,
    /// if one is published at this manager's epoch.
    fn attach(&mut self, node: NodeId, pred: &Pred, tier: Tier) {
        let sig = StagingCatalog::signature(pred);
        let Some(s) = self
            .shared
            .as_ref()
            .and_then(|h| h.catalog.probe(&sig, tier, self.epoch, h.session))
        else {
            return;
        };
        let id = self.next_id();
        self.nodes_mut(tier).insert(node, id);
        self.sets.insert(
            id,
            StagedSet {
                id,
                members: vec![node],
                pred: pred.clone(),
                nrows: s.nrows,
                arity: s.arity,
                epoch: self.epoch,
                shared: Some(s.entry),
                rows: s.rows,
            },
        );
    }
}

impl Drop for StagingManager {
    fn drop(&mut self) {
        // Leave the shared catalog first: survivors' charges re-split via
        // the reader-set recompute, and any entry this session was the
        // last reader of is reclaimed (file entries hand their paths back
        // for removal here — the catalog does no I/O).
        if let Some(h) = self.shared.take() {
            for path in h.catalog.unregister_session(h.session) {
                let _ = fs::remove_file(path);
            }
        }
        if self.owns_dir {
            let _ = fs::remove_dir_all(&self.dir);
        } else {
            // Leave the user's directory, but sweep everything carrying
            // this manager's unique prefix — tracked staged files, but
            // also aborted-writer partials that the per-object drop guards
            // could not reach (e.g. after a leak or a process-level panic
            // unwind skipping them).
            let Ok(entries) = fs::read_dir(&self.dir) else {
                return;
            };
            for entry in entries.flatten() {
                if entry
                    .file_name()
                    .to_string_lossy()
                    .starts_with(&self.prefix)
                {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
    }
}

/// Incremental writer for one staged file in the extent format: rows — one
/// at a time, or a block's selection — accumulate in one row-major buffer
/// until an extent is full, which is then framed with the header/CRC
/// footer and written. The file is a function of the row sequence alone,
/// not of how it was handed over.
#[derive(Debug)]
pub struct FileWriter {
    id: u64,
    members: Vec<NodeId>,
    pred: Pred,
    path: PathBuf,
    arity: usize,
    extent_rows: usize,
    nrows: u64,
    /// Payload bytes (`rows × row width`) — format-independent.
    bytes: u64,
    /// On-disk bytes including file header and extent framing.
    physical_bytes: u64,
    extent_index: u32,
    /// The extent being accumulated, row-major (below `extent_rows` rows
    /// between calls).
    rows: Vec<Code>,
    /// Reusable serialization buffer of one extent's payload.
    payload: Vec<u8>,
    out: BufWriter<File>,
    /// Set by [`StagingManager::commit_file`]; an uncommitted writer
    /// removes its partial on-disk output when dropped.
    committed: bool,
}

impl Drop for FileWriter {
    fn drop(&mut self) {
        if !self.committed {
            let _ = fs::remove_file(&self.path);
        }
    }
}

impl FileWriter {
    /// Create `path` and write its file header: a writer of `arity`-code
    /// rows in extents of `extent_rows`.
    fn create(
        path: PathBuf,
        id: u64,
        members: Vec<NodeId>,
        pred: Pred,
        arity: usize,
        extent_rows: usize,
    ) -> MwResult<Self> {
        let file = File::create(&path)?;
        let mut out = BufWriter::new(file);
        out.write_all(&EXTENT_MAGIC)?;
        out.write_all(&EXTENT_VERSION.to_le_bytes())?;
        out.write_all(&(arity as u32).to_le_bytes())?;
        out.write_all(&(extent_rows as u32).to_le_bytes())?;
        Ok(FileWriter {
            id,
            members,
            pred,
            path,
            arity,
            extent_rows,
            nrows: 0,
            bytes: 0,
            physical_bytes: FILE_HEADER_BYTES,
            extent_index: 0,
            rows: Vec::new(),
            payload: Vec::new(),
            out,
            committed: false,
        })
    }

    /// Account `n` rows just buffered and write the extent out if full.
    fn pushed(&mut self, n: usize) -> MwResult<()> {
        self.nrows += n as u64;
        self.bytes += (n * self.arity * CODE_BYTES) as u64;
        if self.rows.len() >= self.extent_rows * self.arity {
            self.flush_extent()?;
        }
        Ok(())
    }

    /// Append one row.
    pub fn push(&mut self, row: &[Code]) -> MwResult<()> {
        debug_assert_eq!(row.len(), self.arity);
        self.rows.extend_from_slice(row);
        self.pushed(1)
    }

    /// Append the rows of `block` that `sel` names, in selection order —
    /// each selected row's slice, or the whole block in one copy when
    /// `sel` names every row — cut where an extent fills. The bytes
    /// written are those of [`FileWriter::push`] over the same rows.
    pub(crate) fn push_selected(&mut self, block: &Block<'_>, sel: &[u32]) -> MwResult<()> {
        // Selections ascend, so a full one is the block itself.
        if sel.len() == block.nrows() {
            let mut rows = block.flat;
            while !rows.is_empty() {
                let room = self.extent_rows * self.arity - self.rows.len();
                let (fits, rest) = rows.split_at(room.min(rows.len()));
                self.rows.extend_from_slice(fits);
                self.pushed(fits.len() / self.arity)?;
                rows = rest;
            }
            return Ok(());
        }
        for &r in sel {
            let start = r as usize * self.arity;
            // Selections are minted over this block's rows, so `get` finds
            // every one.
            let row = block
                .flat
                .get(start..start + self.arity)
                .unwrap_or_default();
            self.rows.extend_from_slice(row);
            self.pushed(1)?;
        }
        Ok(())
    }

    /// Write the buffered rows (if any) as one extent.
    fn flush_extent(&mut self) -> MwResult<()> {
        let nrows = self.rows.len() / self.arity.max(1);
        if nrows == 0 {
            return Ok(());
        }
        self.payload.resize(self.rows.len() * CODE_BYTES, 0);
        write_le(&mut self.payload, &self.rows);
        self.rows.clear();
        let crc = crc32(&self.payload);
        self.out.write_all(&(nrows as u32).to_le_bytes())?;
        self.out.write_all(&self.extent_index.to_le_bytes())?;
        self.out.write_all(&self.payload)?;
        self.out.write_all(&crc.to_le_bytes())?;
        self.out.write_all(&(nrows as u32).to_le_bytes())?;
        self.physical_bytes += EXTENT_OVERHEAD_BYTES + self.payload.len() as u64;
        self.extent_index += 1;
        Ok(())
    }

    /// Flush the partial tail extent and the OS buffer.
    fn finish(&mut self) -> MwResult<()> {
        self.flush_extent()?;
        self.out.flush()?;
        Ok(())
    }

    /// Mark the writer committed and hand its registration fields to the
    /// manager. (A by-value destructure would fight the `Drop` impl, so
    /// the owned fields are taken out one by one.)
    fn into_committed(mut self) -> (u64, Vec<NodeId>, Pred, PathBuf, usize, u64, u64, u64) {
        self.committed = true;
        (
            self.id,
            std::mem::take(&mut self.members),
            std::mem::replace(&mut self.pred, Pred::True),
            std::mem::take(&mut self.path),
            self.arity,
            self.nrows,
            self.bytes,
            self.physical_bytes,
        )
    }

    /// Rows written so far.
    pub fn nrows(&self) -> u64 {
        self.nrows
    }

    /// Nodes whose data this file will fully contain.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Predicate selecting the rows this file should hold.
    pub fn pred(&self) -> &Pred {
        &self.pred
    }
}

/// Validated geometry of an extent-format staged file: everything a reader
/// thread needs to seek straight to its extent range without coordination.
///
/// Built by [`ExtentLayout::detect`], which verifies the file header and
/// that the file length decomposes exactly into whole extents (all
/// full-sized except possibly the last) totalling the registered row
/// count — so truncation is caught at open time, before any row is served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtentLayout {
    /// On-disk location (each reader opens its own handle).
    pub path: PathBuf,
    /// Codes per row.
    pub arity: usize,
    /// Rows per full extent (from the file header).
    pub extent_rows: usize,
    /// Total rows in the file.
    pub nrows: u64,
    /// Number of extents.
    pub extents: u64,
    /// Rows in the final extent (== `extent_rows` unless the row count
    /// doesn't divide evenly; 0 only when the file has no extents).
    pub last_rows: usize,
}

impl ExtentLayout {
    /// Inspect the file at `path`: the layout of a well-formed extent
    /// file, or [`MwError::Corrupt`] when the header is short or missing,
    /// or its magic, version, arity, or the file length don't add up.
    pub fn detect(path: &Path, arity: usize, expected_rows: u64) -> MwResult<Self> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < FILE_HEADER_BYTES {
            return Err(MwError::Corrupt(format!(
                "{}: {file_len} bytes is shorter than the {FILE_HEADER_BYTES}-byte \
                 extent file header (truncated?)",
                path.display()
            )));
        }
        let mut header = [0u8; FILE_HEADER_BYTES as usize];
        file.read_exact(&mut header)?;
        if header[0..4] != EXTENT_MAGIC {
            return Err(MwError::Corrupt(format!(
                "{}: extent file header lacks the SCXT magic",
                path.display()
            )));
        }
        let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if version != EXTENT_VERSION {
            return Err(MwError::Corrupt(format!(
                "{}: unsupported extent format version {version}",
                path.display()
            )));
        }
        let file_arity = u32::from_le_bytes(header[8..12].try_into().unwrap()) as usize;
        if file_arity != arity {
            return Err(MwError::Corrupt(format!(
                "{}: header says {file_arity} columns, catalog says {arity}",
                path.display()
            )));
        }
        let extent_rows = u32::from_le_bytes(header[12..16].try_into().unwrap()) as usize;
        if extent_rows == 0 {
            return Err(MwError::Corrupt(format!(
                "{}: header declares zero rows per extent",
                path.display()
            )));
        }
        let row_bytes = (arity * CODE_BYTES) as u64;
        let full_extent = EXTENT_OVERHEAD_BYTES + extent_rows as u64 * row_bytes;
        let body = file_len - FILE_HEADER_BYTES;
        let full = body / full_extent;
        let rem = body % full_extent;
        let (extents, last_rows) = if rem == 0 {
            (full, if full == 0 { 0 } else { extent_rows })
        } else {
            if rem < EXTENT_OVERHEAD_BYTES + row_bytes
                || !(rem - EXTENT_OVERHEAD_BYTES).is_multiple_of(row_bytes)
            {
                return Err(MwError::Corrupt(format!(
                    "{}: trailing {rem} bytes are not a whole extent (truncated?)",
                    path.display()
                )));
            }
            (
                full + 1,
                ((rem - EXTENT_OVERHEAD_BYTES) / row_bytes) as usize,
            )
        };
        let total = if rem == 0 {
            full * extent_rows as u64
        } else {
            full * extent_rows as u64 + last_rows as u64
        };
        if total != expected_rows {
            return Err(MwError::Corrupt(format!(
                "{}: layout holds {total} rows but {expected_rows} were staged (truncated?)",
                path.display()
            )));
        }
        Ok(ExtentLayout {
            path: path.to_path_buf(),
            arity,
            extent_rows,
            nrows: expected_rows,
            extents,
            last_rows,
        })
    }

    /// Rows in extent `k`.
    pub fn rows_in_extent(&self, k: u64) -> usize {
        debug_assert!(k < self.extents);
        if k + 1 == self.extents {
            self.last_rows
        } else {
            self.extent_rows
        }
    }

    /// Byte offset of extent `k` — computable because every extent before
    /// the last is full-sized.
    pub fn extent_offset(&self, k: u64) -> u64 {
        let row_bytes = (self.arity * CODE_BYTES) as u64;
        FILE_HEADER_BYTES + k * (EXTENT_OVERHEAD_BYTES + self.extent_rows as u64 * row_bytes)
    }

    /// On-disk bytes of extent `k` (framing + payload).
    pub fn extent_physical_bytes(&self, k: u64) -> u64 {
        EXTENT_OVERHEAD_BYTES + (self.rows_in_extent(k) * self.arity * CODE_BYTES) as u64
    }

    /// Total file size implied by the layout (equals the on-disk length).
    pub fn total_physical_bytes(&self) -> u64 {
        if self.extents == 0 {
            FILE_HEADER_BYTES
        } else {
            self.extent_offset(self.extents - 1) + self.extent_physical_bytes(self.extents - 1)
        }
    }
}

/// Random-access extent reader over its own file handle.
#[derive(Debug)]
pub struct ExtentReader {
    file: File,
    layout: ExtentLayout,
    byte_buf: Vec<u8>,
    /// Where the file handle stands (`None` after a failed read): reading
    /// the extent that starts there needs no seek, so a sequential scan
    /// seeks once, off the file header.
    pos: Option<u64>,
}

impl ExtentReader {
    /// Open a reader over a validated layout.
    pub fn open(layout: &ExtentLayout) -> MwResult<Self> {
        Ok(ExtentReader {
            file: File::open(&layout.path)?,
            layout: layout.clone(),
            byte_buf: Vec::new(),
            pos: Some(0),
        })
    }

    /// The layout this reader serves.
    pub fn layout(&self) -> &ExtentLayout {
        &self.layout
    }

    /// `MwError::Corrupt` about extent `k` of this reader's file.
    fn corrupt(&self, k: u64, what: impl std::fmt::Display) -> MwError {
        MwError::Corrupt(format!("{}: extent {k} {what}", self.layout.path.display()))
    }

    /// Read extent `k` from disk into the internal byte buffer, charging
    /// `stats.read_bytes`. Verification and decode happen in the caller so
    /// `decode_ns` covers checksum + decode work but never file I/O.
    fn fetch(&mut self, k: u64, stats: &mut WorkerScanStats) -> MwResult<usize> {
        let nrows = self.layout.rows_in_extent(k);
        let offset = self.layout.extent_offset(k);
        let phys = self.layout.extent_physical_bytes(k);
        self.byte_buf.resize(phys as usize, 0);
        // Unknown from here until the read has succeeded.
        if self.pos.take() != Some(offset) {
            self.file.seek(SeekFrom::Start(offset))?;
        }
        self.file.read_exact(&mut self.byte_buf).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                self.corrupt(k, "truncated mid-read")
            } else {
                e.into()
            }
        })?;
        self.pos = Some(offset + phys);
        stats.read_bytes += phys;
        Ok(nrows)
    }

    /// Verify the fetched extent's header, footer, and payload CRC, and
    /// return the payload. Every field is read checked: bytes that came
    /// from disk can be `Corrupt`, never a panic.
    fn verify(&self, k: u64, nrows: usize) -> MwResult<&[u8]> {
        let buf = self.byte_buf.as_slice();
        let payload_end = nrows
            .checked_mul(self.layout.arity * CODE_BYTES)
            .and_then(|len| len.checked_add(8));
        let framed = payload_end.and_then(|end| {
            Some((
                le_u32(buf, 0)?,
                le_u32(buf, 4)?,
                buf.get(8..end)?,
                le_u32(buf, end)?,
                le_u32(buf, end.checked_add(4)?)?,
            ))
        });
        let Some((hdr_rows, hdr_idx, payload, ftr_crc, ftr_rows)) = framed else {
            return Err(self.corrupt(
                k,
                format!(
                    "is {} bytes, too short for its framing and {nrows} rows",
                    buf.len()
                ),
            ));
        };
        if hdr_rows as usize != nrows || u64::from(hdr_idx) != k {
            return Err(self.corrupt(
                k,
                format!(
                    "header says index {hdr_idx} / {hdr_rows} rows, \
                     layout says index {k} / {nrows} rows"
                ),
            ));
        }
        if ftr_rows != hdr_rows {
            return Err(self.corrupt(
                k,
                format!("footer row count {ftr_rows} != header {hdr_rows}"),
            ));
        }
        let actual_crc = crc32(payload);
        if actual_crc != ftr_crc {
            return Err(self.corrupt(
                k,
                format!("CRC mismatch (stored {ftr_crc:#010x}, computed {actual_crc:#010x})"),
            ));
        }
        Ok(payload)
    }

    /// Read and verify extent `k`, decoding its payload — the extent's rows,
    /// in order — into `out`, row-major (cleared first, so one buffer
    /// serves every extent): the one decode every file scan runs. Returns
    /// the row count. I/O bytes, rows and the extent accrue to `stats`, and
    /// `decode_ns` covers verification + decode, never file I/O.
    pub fn decode_extent(
        &mut self,
        k: u64,
        out: &mut Vec<Code>,
        stats: &mut WorkerScanStats,
    ) -> MwResult<usize> {
        let nrows = self.fetch(k, stats)?;
        let t0 = Instant::now();
        let payload = self.verify(k, nrows)?;
        out.clear();
        extend_from_le(out, payload);
        stats.decode_ns += t0.elapsed().as_nanos() as u64;
        stats.rows += nrows as u64;
        stats.extents += 1;
        Ok(nrows)
    }

    /// [`ExtentReader::decode_extent`], then its rows scattered into one
    /// `Vec<Code>` per column in `cols` (resized to the arity, each
    /// cleared first). No scan reads it: it stays only for the
    /// benchmark's staging probe, and goes once that probe calls
    /// `decode_extent` (ROADMAP 1(g)).
    pub fn decode_extent_columns(
        &mut self,
        k: u64,
        cols: &mut Vec<Vec<Code>>,
        stats: &mut WorkerScanStats,
    ) -> MwResult<usize> {
        let mut rows = Vec::new();
        let nrows = self.decode_extent(k, &mut rows, stats)?;
        let arity = self.layout.arity;
        cols.resize_with(arity, Vec::new);
        for (c, col) in cols.iter_mut().enumerate() {
            col.clear();
            col.extend(rows.iter().skip(c).step_by(arity));
        }
        Ok(nrows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> StagingManager {
        StagingManager::new(None).unwrap()
    }

    /// Decoded rows, one `Vec` a row.
    fn split_rows(codes: &[Code], arity: usize) -> Vec<Vec<Code>> {
        codes.chunks_exact(arity).map(<[Code]>::to_vec).collect()
    }

    /// Every row of staged file `id`, extent by extent through the one
    /// decode, plus the reader's I/O counters (the 16-byte file header is
    /// read by layout detection, not by the reader).
    fn read_all(m: &StagingManager, id: u64) -> MwResult<(Vec<Vec<Code>>, WorkerScanStats)> {
        let layout = m.extent_layout(id)?.expect("staged file exists");
        let mut reader = ExtentReader::open(&layout)?;
        let mut ws = WorkerScanStats::default();
        let (mut rows, mut decoded) = (Vec::new(), Vec::new());
        for k in 0..layout.extents {
            let n = reader.decode_extent(k, &mut decoded, &mut ws)?;
            assert_eq!(decoded.len(), n * layout.arity, "extent {k}");
            rows.extend(split_rows(&decoded, layout.arity));
        }
        Ok((rows, ws))
    }

    /// Where staged file `id` lives.
    fn path_of(m: &StagingManager, id: u64) -> PathBuf {
        match &m.set(id).expect("staged set exists").rows {
            StagedRows::File(path) => path.clone(),
            StagedRows::Memory(_) => panic!("set {id} is in memory"),
        }
    }

    /// The shared vector of a memory set's rows.
    fn mem_rows(set: &StagedSet) -> &Arc<MemRows> {
        match &set.rows {
            StagedRows::Memory(rows) => rows,
            StagedRows::File(path) => panic!("set {} is the file {path:?}", set.id),
        }
    }

    /// `codes` as a one-byte memory set's rows.
    fn narrow(codes: &[Code]) -> MemRows {
        MemRows::from_codes(CodeWidth::One, codes)
    }

    fn lineage_chain() -> (Lineage, Lineage, Lineage) {
        let root = Lineage::root(NodeId(0));
        let child = root.child(NodeId(1), Pred::Eq { col: 0, value: 1 });
        let grand = child.child(NodeId(2), Pred::Eq { col: 1, value: 0 });
        (root, child, grand)
    }

    fn dummy_request(lineage: Lineage) -> CcRequest {
        CcRequest {
            lineage,
            attrs: vec![0, 1],
            class_col: 2,
            rows: 1,
            parent_rows: 1,
            parent_cards: vec![1, 1],
        }
    }

    #[test]
    fn file_round_trip() {
        let mut m = mgr();
        let mut stats = MiddlewareStats::new();
        let mut w = m.start_file(vec![NodeId(0)], Pred::True, 3).unwrap();
        w.push(&[1, 2, 3]).unwrap();
        w.push(&[4, 5, 6]).unwrap();
        let id = m.commit_file(w, &mut stats).unwrap();
        assert_eq!(m.set(id).unwrap().nrows, 2);
        assert_eq!(stats.files_created, 1);
        assert_eq!(stats.file_rows_written, 2);

        let (rows, _) = read_all(&m, id).unwrap();
        assert_eq!(rows, vec![vec![1, 2, 3], vec![4, 5, 6]]);
        assert!(m.extent_layout(id + 1).unwrap().is_none(), "no such file");
    }

    #[test]
    fn mem_set_round_trip_and_bytes() {
        let mut m = mgr();
        let mut stats = MiddlewareStats::new();
        let id = m.commit_mem(NodeId(1), Pred::True, narrow(&[1, 2, 3, 4]), 2, &mut stats);
        let set = m.set(id).unwrap();
        assert_eq!(set.nrows, 2);
        assert_eq!(set.bytes(), 4, "one byte a code");
        assert_eq!(mem_rows(set).to_codes(), [1, 2, 3, 4]);
        assert_eq!(m.staged_mem_bytes(), 4);
        assert_eq!(stats.memory_rows_staged, 2);

        // Two bytes a code, little-endian, when a code needs them.
        let wide = MemRows::from_codes(CodeWidth::Two, &[300, 65_535, 0, 7]);
        assert_eq!(wide.len_bytes(), 8);
        let id = m.commit_mem(NodeId(2), Pred::True, wide, 2, &mut stats);
        let set = m.set(id).unwrap();
        assert_eq!((set.nrows, set.bytes()), (2, 8));
        assert_eq!(mem_rows(set).to_codes(), [300, 65_535, 0, 7]);
        assert_eq!(m.staged_mem_bytes(), 4 + 8);
        m.assert_shadow_accounting();
    }

    #[test]
    fn a_width_holds_every_code_its_certificate_bounds() {
        assert_eq!(CodeWidth::holding(&[]), CodeWidth::One);
        assert_eq!(CodeWidth::holding(&[3, 255, 0]), CodeWidth::One);
        assert_eq!(CodeWidth::holding(&[3, 256, 0]), CodeWidth::Two);
        assert_eq!(CodeWidth::holding(&[Code::MAX]), CodeWidth::Two);
        for (width, codes) in [
            (CodeWidth::One, vec![0, 1, 254, 255]),
            (CodeWidth::Two, vec![0, 255, 256, 299, 65_535]),
        ] {
            let rows = MemRows::from_codes(width, &codes);
            assert_eq!(rows.len_bytes(), codes.len() * width.bytes());
            assert_eq!(rows.to_codes(), codes);
            let mut part = Vec::new();
            rows.decode(1, 2, &mut part);
            assert_eq!(part, codes[1..3]);
            part.clear();
            rows.decode(3, 10, &mut part);
            assert_eq!(part, codes[3..], "cut at the end");
        }
    }

    #[test]
    fn compact_mem_keeps_the_batchs_rows_in_order_for_its_nodes() {
        let mut m = mgr();
        let mut stats = MiddlewareStats::new();
        let root = Lineage::root(NodeId(0));
        // Eight rows `[i, i % 4]` under the root; children on column 1.
        let rows: Vec<Code> = (0..8u16).flat_map(|i| [i, i % 4]).collect();
        let id = m.commit_mem(NodeId(0), Pred::True, narrow(&rows), 2, &mut stats);
        let child = |n: u64, v: u16| root.child(NodeId(n), Pred::Eq { col: 1, value: v });
        let (one, three, two) = (child(1, 1), child(3, 3), child(2, 2));
        m.compact_mem(id, &[1, 3, 5, 7], &[&one, &three], &mut stats)
            .unwrap();

        let set = m.set(id).unwrap();
        assert_eq!(mem_rows(set).to_codes(), [1, 1, 3, 3, 5, 1, 7, 3]);
        assert_eq!((set.nrows, set.bytes()), (4, 8));
        assert_eq!(set.members, vec![NodeId(1), NodeId(3)]);
        assert_eq!(
            set.pred,
            Pred::or(vec![one.pred().clone(), three.pred().clone()])
        );
        assert!(
            !m.holds(NodeId(0), Tier::Memory),
            "the root no longer owns it"
        );
        assert!(m.holds(NodeId(1), Tier::Memory) && m.holds(NodeId(3), Tier::Memory));
        assert_eq!(m.staged_mem_bytes(), 8);
        m.assert_shadow_accounting();
        assert_eq!(
            (stats.memory_rows_compacted, stats.memory_rows_staged),
            (4, 8)
        );

        // A member's descendant still reads the set; a non-member sibling
        // (its rows are gone) goes back to the server.
        let grand = one.child(NodeId(4), Pred::Eq { col: 0, value: 5 });
        assert_eq!(m.best_location(&grand), DataLocation::Memory(id));
        assert!(m.mem_covers(&grand));
        assert_eq!(m.best_location(&two), DataLocation::Server);
        // Once no pending request descends from a member, it is reclaimed.
        m.evict_unreachable(&[dummy_request(grand)], &mut stats);
        assert!(m.set(id).is_some());
        m.evict_unreachable(&[dummy_request(two)], &mut stats);
        assert!(m.set(id).is_none());
        assert_eq!(m.staged_mem_bytes(), 0);
    }

    #[test]
    fn compact_mem_refuses_what_it_cannot_rewrite() {
        let mut m = mgr();
        let mut stats = MiddlewareStats::new();
        let root = Lineage::root(NodeId(0));
        let id = m.commit_mem(NodeId(0), Pred::True, narrow(&[0; 8]), 2, &mut stats);
        let internal = |r: MwResult<()>| matches!(r, Err(MwError::Internal(_)));
        // Out of order, or past the set's rows.
        assert!(internal(m.compact_mem(id, &[2, 1], &[&root], &mut stats)));
        assert!(internal(m.compact_mem(id, &[4], &[&root], &mut stats)));
        // A second handle on the rows (a scan still reading them).
        let reader = Arc::clone(mem_rows(m.set(id).unwrap()));
        assert!(internal(m.compact_mem(id, &[0], &[&root], &mut stats)));
        drop(reader);
        // A staged file is not a memory set.
        let mut w = m.start_file(vec![NodeId(5)], Pred::True, 2).unwrap();
        w.push(&[0, 0]).unwrap();
        let file = m.commit_file(w, &mut stats).unwrap();
        assert!(internal(m.compact_mem(file, &[0], &[&root], &mut stats)));
        assert_eq!(
            (m.set(id).unwrap().nrows, stats.memory_rows_compacted),
            (4, 0)
        );
        m.assert_shadow_accounting();
    }

    #[test]
    fn advance_epoch_invalidates_stale_local_artifacts() {
        let mut m = mgr();
        let mut stats = MiddlewareStats::new();
        let mut w = m.start_file(vec![NodeId(0)], Pred::True, 2).unwrap();
        w.push(&[1, 2]).unwrap();
        let fid = m.commit_file(w, &mut stats).unwrap();
        let mid = m.commit_mem(NodeId(1), Pred::True, narrow(&[1, 2]), 2, &mut stats);
        assert_eq!(m.set(fid).unwrap().epoch, 0);
        assert_eq!(m.set(mid).unwrap().epoch, 0);

        // Same epoch: nothing happens (the deltas-off fast path).
        assert_eq!(m.advance_epoch(0, &mut stats), 0);
        assert_eq!(stats.epochs_invalidated, 0);
        assert_eq!(m.count(Tier::File), 1);

        // New epoch: every pre-mutation artifact is invalidated.
        assert_eq!(m.advance_epoch(3, &mut stats), 2);
        assert_eq!(stats.epochs_invalidated, 2);
        assert_eq!(m.count(Tier::File), 0);
        assert_eq!(m.count(Tier::Memory), 0);
        assert_eq!(m.staged_mem_bytes(), 0);
        m.assert_shadow_accounting();

        // Data sets staged after the advance carry the new epoch and
        // survive a same-epoch re-advance.
        let mid = m.commit_mem(NodeId(1), Pred::True, narrow(&[1, 2]), 2, &mut stats);
        assert_eq!(m.set(mid).unwrap().epoch, 3);
        assert_eq!(m.advance_epoch(3, &mut stats), 0);
        assert_eq!(m.count(Tier::Memory), 1);
    }

    #[test]
    fn advance_epoch_demotes_stale_catalog_entries() {
        let catalog = Arc::new(StagingCatalog::new(None));
        let mut stats = MiddlewareStats::new();
        let mut m1 = mgr();
        let mut m2 = mgr();
        m1.attach_catalog(Arc::clone(&catalog));
        m2.attach_catalog(Arc::clone(&catalog));

        // m1 publishes the root set at epoch 0.
        m1.commit_mem(NodeId(0), Pred::True, narrow(&[1, 2, 3, 4]), 2, &mut stats);
        assert_eq!(catalog.stats().publishes, 1);

        // m2 observes the mutation first: its advance invalidates the
        // shared entry for every session (demoted from the index), plus
        // nothing locally — it had staged nothing.
        let mut stats2 = MiddlewareStats::new();
        assert_eq!(m2.advance_epoch(1, &mut stats2), 1);
        assert_eq!(stats2.epochs_invalidated, 1);

        // Neither session can attach the stale entry now; m2's probe at
        // epoch 1 misses instead of adopting pre-mutation rows.
        let pending = vec![dummy_request(Lineage::root(NodeId(0)))];
        m2.attach_from_catalog(&pending, true, true);
        assert!(!m2.holds(NodeId(0), Tier::Memory));

        // m1 still reads its own (stale) copy until it drains too; its
        // advance then drops the local set and its catalog reader pin.
        let mut stats1 = MiddlewareStats::new();
        assert_eq!(m1.advance_epoch(1, &mut stats1), 1);
        assert_eq!(m1.count(Tier::Memory), 0);
        assert_eq!(catalog.entry_count(), 0, "last detach reclaimed it");
        catalog.assert_shadow_accounting();
    }

    #[test]
    fn best_location_prefers_smallest_then_memory() {
        let mut m = mgr();
        let mut stats = MiddlewareStats::new();
        let (root, child, grand) = lineage_chain();

        assert_eq!(m.best_location(&grand), DataLocation::Server);

        // Stage a large file at root.
        let mut w = m.start_file(vec![NodeId(0)], Pred::True, 2).unwrap();
        for i in 0..100u16 {
            w.push(&[i, 0]).unwrap();
        }
        let file_id = m.commit_file(w, &mut stats).unwrap();
        assert_eq!(m.best_location(&grand), DataLocation::File(file_id));
        assert_eq!(m.best_location(&root), DataLocation::File(file_id));

        // Stage a smaller memory set at the child → preferred for
        // descendants of the child, not for the root itself.
        let mem_id = m.commit_mem(
            NodeId(1),
            child.pred().clone(),
            narrow(&[1; 40]),
            2,
            &mut stats,
        );
        assert_eq!(m.best_location(&grand), DataLocation::Memory(mem_id));
        assert_eq!(m.best_location(&child), DataLocation::Memory(mem_id));
        assert_eq!(m.best_location(&root), DataLocation::File(file_id));
    }

    #[test]
    fn memory_wins_ties_at_equal_size() {
        let mut m = mgr();
        let mut stats = MiddlewareStats::new();
        let (root, ..) = lineage_chain();
        let mut w = m.start_file(vec![NodeId(0)], Pred::True, 2).unwrap();
        w.push(&[1, 1]).unwrap();
        let _file = m.commit_file(w, &mut stats).unwrap();
        let mem = m.commit_mem(NodeId(0), Pred::True, narrow(&[1, 1]), 2, &mut stats);
        assert_eq!(m.best_location(&root), DataLocation::Memory(mem));
    }

    #[test]
    fn eviction_reclaims_unreachable_datasets() {
        let mut m = mgr();
        let mut stats = MiddlewareStats::new();
        let (_root, child, grand) = lineage_chain();

        let mut w = m
            .start_file(vec![NodeId(1)], child.pred().clone(), 2)
            .unwrap();
        w.push(&[1, 0]).unwrap();
        m.commit_file(w, &mut stats).unwrap();
        m.commit_mem(
            NodeId(2),
            grand.pred().clone(),
            narrow(&[1, 0]),
            2,
            &mut stats,
        );
        assert_eq!(m.count(Tier::File), 1);
        assert_eq!(m.count(Tier::Memory), 1);

        // A pending request under the grandchild keeps both alive (its
        // lineage passes through nodes 1 and 2).
        let pending = vec![dummy_request(
            grand.child(NodeId(5), Pred::Eq { col: 0, value: 0 }),
        )];
        m.evict_unreachable(&pending, &mut stats);
        assert_eq!(m.count(Tier::File), 1);
        assert_eq!(m.count(Tier::Memory), 1);

        // A pending request in a different subtree frees everything.
        let other = vec![dummy_request(
            Lineage::root(NodeId(0)).child(NodeId(9), Pred::Eq { col: 0, value: 3 }),
        )];
        m.evict_unreachable(&other, &mut stats);
        assert_eq!(m.count(Tier::File), 0);
        assert_eq!(m.count(Tier::Memory), 0);
        assert_eq!(stats.files_deleted, 1);
        assert_eq!(stats.memory_sets_evicted, 1);
    }

    #[test]
    fn split_file_remaps_members_and_reclaims_emptied_files() {
        let mut m = mgr();
        let mut stats = MiddlewareStats::new();
        // One big file holding data of nodes 1 and 2.
        let mut w = m
            .start_file(vec![NodeId(1), NodeId(2)], Pred::True, 2)
            .unwrap();
        for i in 0..10u16 {
            w.push(&[i, 0]).unwrap();
        }
        let big = m.commit_file(w, &mut stats).unwrap();

        // Split: node 1 gets its own smaller file; the big file survives
        // because node 2 still points at it.
        let mut w1 = m
            .start_file(vec![NodeId(1)], Pred::Eq { col: 0, value: 1 }, 2)
            .unwrap();
        w1.push(&[1, 0]).unwrap();
        let small = m.commit_file(w1, &mut stats).unwrap();
        assert!(m.set(big).is_some());
        assert_eq!(m.set(big).unwrap().members, vec![NodeId(2)]);
        let l1 = Lineage::root(NodeId(1));
        assert_eq!(m.best_location(&l1), DataLocation::File(small));

        // Re-pointing node 2 as well empties and deletes the big file.
        let mut w2 = m
            .start_file(vec![NodeId(2)], Pred::Eq { col: 0, value: 2 }, 2)
            .unwrap();
        w2.push(&[2, 0]).unwrap();
        m.commit_file(w2, &mut stats).unwrap();
        assert!(m.set(big).is_none(), "emptied file reclaimed");
        assert_eq!(stats.files_deleted, 1);
        assert_eq!(m.count(Tier::File), 2);
    }

    #[test]
    fn recommit_replaces_solely_owned_dataset() {
        let mut m = mgr();
        let mut stats = MiddlewareStats::new();
        let mut w1 = m.start_file(vec![NodeId(1)], Pred::True, 2).unwrap();
        for i in 0..10u16 {
            w1.push(&[i, 0]).unwrap();
        }
        let id1 = m.commit_file(w1, &mut stats).unwrap();
        let mut w2 = m.start_file(vec![NodeId(1)], Pred::True, 2).unwrap();
        w2.push(&[0, 0]).unwrap();
        let id2 = m.commit_file(w2, &mut stats).unwrap();
        assert_ne!(id1, id2);
        assert!(m.set(id1).is_none(), "old file reclaimed");
        assert_eq!(m.set(id2).unwrap().nrows, 1);
        assert_eq!(m.count(Tier::File), 1);
        assert_eq!(stats.files_deleted, 1);

        // Memory sets replace the same way.
        let m1 = m.commit_mem(NodeId(1), Pred::True, narrow(&[1, 1, 2, 2]), 2, &mut stats);
        let m2 = m.commit_mem(NodeId(1), Pred::True, narrow(&[3, 3]), 2, &mut stats);
        assert!(m.set(m1).is_none());
        assert_eq!(m.set(m2).unwrap().nrows, 1);
        assert_eq!(m.staged_mem_bytes(), 2);
    }

    #[test]
    fn aborted_writer_rolls_back_and_shadow_accounting_agrees() {
        let mut m = mgr();
        let mut stats = MiddlewareStats::new();
        // Pre-existing staged state: one memory set, one committed file.
        m.commit_mem(NodeId(1), Pred::True, narrow(&[1, 2, 3, 4]), 2, &mut stats);
        let mut ok = m.start_file(vec![NodeId(2)], Pred::True, 2).unwrap();
        ok.push(&[5, 6]).unwrap();
        m.commit_file(ok, &mut stats).unwrap();

        // A scan fails mid-stage and drops its writer.
        let mut w = m.start_file(vec![NodeId(3)], Pred::True, 2).unwrap();
        for i in 0..50u16 {
            w.push(&[i, i]).unwrap();
        }
        let aborted_path = w.path.clone();
        drop(w);

        // Nothing about the surviving staged state moved, and the shadow
        // recount agrees with the incremental byte counter.
        assert!(!aborted_path.exists(), "partial output removed");
        assert_eq!(m.count(Tier::File), 1);
        assert_eq!(m.count(Tier::Memory), 1);
        assert_eq!(m.staged_mem_bytes(), 4);
        assert_eq!(stats.files_created, 1);
        m.assert_shadow_accounting();
    }

    #[test]
    fn dropped_writer_removes_partial_output() {
        let mut m = mgr();
        let path;
        {
            let mut w = m.start_file(vec![NodeId(0)], Pred::True, 1).unwrap();
            w.push(&[9]).unwrap();
            path = w.path.clone();
            assert!(path.exists());
            // Dropped without commit_file — e.g. an error
            // return unwinding through the executor.
        }
        assert!(!path.exists(), "uncommitted writer cleans up on drop");
    }

    #[test]
    fn shared_dir_drop_sweeps_only_this_managers_files() {
        let dir = std::env::temp_dir().join(format!(
            "scaleclass-shared-test-{}-{}",
            std::process::id(),
            STAGE_DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let mut stats = MiddlewareStats::new();
        let mut m1 = StagingManager::new(Some(dir.clone())).unwrap();
        let mut m2 = StagingManager::new(Some(dir.clone())).unwrap();

        // Manager 1: one committed file, plus a writer leaked past its drop
        // guard (simulating a crashed scan).
        let mut w = m1.start_file(vec![NodeId(0)], Pred::True, 1).unwrap();
        w.push(&[1]).unwrap();
        let committed1 = m1.commit_file(w, &mut stats).unwrap();
        let committed1_path = path_of(&m1, committed1);
        let mut leaked = m1.start_file(vec![NodeId(1)], Pred::True, 1).unwrap();
        leaked.push(&[2]).unwrap();
        let leaked_path = leaked.path.clone();
        std::mem::forget(leaked);

        // Manager 2: one committed file of its own.
        let mut w2 = m2.start_file(vec![NodeId(0)], Pred::True, 1).unwrap();
        w2.push(&[3]).unwrap();
        let committed2 = m2.commit_file(w2, &mut stats).unwrap();
        let committed2_path = path_of(&m2, committed2);

        assert!(leaked_path.exists());
        drop(m1);
        assert!(!committed1_path.exists(), "m1's committed file swept");
        assert!(!leaked_path.exists(), "m1's leaked writer partial swept");
        assert!(
            committed2_path.exists(),
            "m2's file untouched by m1's sweep"
        );
        assert!(dir.exists(), "shared dir itself survives");

        drop(m2);
        assert!(!committed2_path.exists());
        assert_eq!(
            fs::read_dir(&dir).unwrap().count(),
            0,
            "no orphans remain in the shared dir"
        );
        fs::remove_dir(&dir).unwrap();
    }

    #[test]
    fn shared_mem_publish_attach_and_charge_split() {
        let catalog = Arc::new(StagingCatalog::new(None));
        let mut stats = MiddlewareStats::new();
        let mut m1 = mgr();
        let mut m2 = mgr();
        m1.attach_catalog(Arc::clone(&catalog));
        m2.attach_catalog(Arc::clone(&catalog));
        assert!(m1.catalog_attached() && m2.catalog_attached());

        // m1 stages the root set: published and charged fully to m1.
        m1.commit_mem(
            NodeId(0),
            Pred::True,
            MemRows::from_codes(CodeWidth::Two, &[1, 2, 3, 4]),
            2,
            &mut stats,
        );
        assert_eq!(catalog.stats().publishes, 1);
        assert_eq!(m1.shared_charge_bytes(), 8, "sole reader pays everything");
        assert_eq!(m1.staged_mem_bytes(), 8);
        assert_eq!(
            m1.shadow_staged_mem_bytes(),
            0,
            "shared sets are excluded from the private counter"
        );

        // m2's pending request walks the same lineage: attach, don't re-stage.
        let pending = vec![dummy_request(Lineage::root(NodeId(0)))];
        m2.attach_from_catalog(&pending, true, false);
        assert!(m2.holds(NodeId(0), Tier::Memory));
        assert_eq!(catalog.stats().hits, 1);
        assert_eq!(m1.shared_charge_bytes(), 4, "charges re-split on attach");
        assert_eq!(m2.shared_charge_bytes(), 4);
        m1.assert_shadow_accounting();
        m2.assert_shadow_accounting();

        // Copy-on-read: both managers scan the same allocation.
        let s1 = m1.set(m1.mem_of[&NodeId(0)]).unwrap();
        let s2 = m2.set(m2.mem_of[&NodeId(0)]).unwrap();
        assert!(Arc::ptr_eq(mem_rows(s1), mem_rows(s2)));

        // Evicting m1's handle re-grows m2's share to the whole entry.
        let id1 = m1.mem_of[&NodeId(0)];
        m1.evict_mem_set(id1, &mut stats);
        assert_eq!(m1.shared_charge_bytes(), 0);
        assert_eq!(m2.shared_charge_bytes(), 8, "survivor absorbs the share");
        assert_eq!(catalog.stats().reclaims, 0, "m2 still reads the entry");
        assert_eq!(stats.memory_sets_evicted, 1);

        // The last reader leaving reclaims the entry.
        drop(m2);
        assert_eq!(catalog.stats().reclaims, 1);
        assert_eq!(catalog.entry_count(), 0);
    }

    #[test]
    fn shared_mem_publish_race_adopts_winner() {
        let catalog = Arc::new(StagingCatalog::new(None));
        let mut stats = MiddlewareStats::new();
        let mut m1 = mgr();
        let mut m2 = mgr();
        m1.attach_catalog(Arc::clone(&catalog));
        m2.attach_catalog(Arc::clone(&catalog));

        // Both sessions stage the same signature (deterministic scans
        // produce identical codes): one publish, one hit, shared charges.
        m1.commit_mem(
            NodeId(3),
            Pred::Eq { col: 0, value: 1 },
            MemRows::from_codes(CodeWidth::Two, &[1, 0]),
            2,
            &mut stats,
        );
        m2.commit_mem(
            NodeId(3),
            Pred::Eq { col: 0, value: 1 },
            MemRows::from_codes(CodeWidth::Two, &[1, 0]),
            2,
            &mut stats,
        );
        assert_eq!(catalog.stats().publishes, 1);
        assert_eq!(catalog.stats().hits, 1);
        let s1 = m1.set(m1.mem_of[&NodeId(3)]).unwrap();
        let s2 = m2.set(m2.mem_of[&NodeId(3)]).unwrap();
        assert!(
            Arc::ptr_eq(mem_rows(s1), mem_rows(s2)),
            "loser adopts winner's rows"
        );
        assert_eq!(m1.shared_charge_bytes(), 2);
        assert_eq!(m2.shared_charge_bytes(), 2);
        m1.assert_shadow_accounting();
    }

    #[test]
    fn shared_file_survives_until_last_reader_detaches() {
        let catalog = Arc::new(StagingCatalog::new(None));
        let catalog_dir = catalog.dir().to_path_buf();
        let mut stats = MiddlewareStats::new();
        let mut m1 = mgr();
        let mut m2 = mgr();
        m1.attach_catalog(Arc::clone(&catalog));
        m2.attach_catalog(Arc::clone(&catalog));

        // m1 stages a file: it moves into the catalog directory.
        let mut w = m1.start_file(vec![NodeId(0)], Pred::True, 2).unwrap();
        w.push(&[1, 2]).unwrap();
        w.push(&[3, 4]).unwrap();
        let fid = m1.commit_file(w, &mut stats).unwrap();
        let shared_path = path_of(&m1, fid);
        assert!(
            shared_path.starts_with(&catalog_dir),
            "published into the catalog dir"
        );
        assert_eq!(catalog.stats().publishes, 1);
        assert_eq!(m1.shared_charge_bytes(), 0, "file entries charge nothing");

        // m2 attaches and reads the very same file.
        let pending = vec![dummy_request(Lineage::root(NodeId(0)))];
        m2.attach_from_catalog(&pending, false, true);
        assert!(m2.holds(NodeId(0), Tier::File));
        let id2 = m2.file_of[&NodeId(0)];
        assert_eq!(path_of(&m2, id2), shared_path);
        let (rows, _) = read_all(&m2, id2).unwrap();
        assert_eq!(rows[0], vec![1, 2]);

        // m1 dropping its handle leaves the file for m2; m2 leaving last
        // reclaims it, and the catalog directory disappears with the
        // catalog itself.
        let unrelated = vec![dummy_request(Lineage::root(NodeId(7)))];
        m1.evict_unreachable(&unrelated, &mut stats);
        assert!(!m1.holds(NodeId(0), Tier::File));
        assert!(shared_path.exists(), "m2 still reads the shared file");
        assert_eq!(stats.files_deleted, 1);
        drop(m2);
        assert!(!shared_path.exists(), "last reader's exit removes the file");
        assert_eq!(catalog.stats().reclaims, 1);
        drop(m1);
        drop(catalog);
        assert!(!catalog_dir.exists(), "catalog drop removes its directory");
    }

    /// A re-stage of a shared file under its predecessor's predicate, at
    /// the same epoch, replaces the old set before it publishes: the new
    /// set reads back its own rows, from the one live catalog entry.
    #[test]
    fn shared_file_recommit_under_the_same_signature_stays_readable() {
        let catalog = Arc::new(StagingCatalog::new(None));
        let mut stats = MiddlewareStats::new();
        let mut m = mgr();
        m.attach_catalog(Arc::clone(&catalog));
        let p = Pred::Eq { col: 0, value: 1 };

        let mut w = m.start_file(vec![NodeId(1)], p.clone(), 2).unwrap();
        w.push(&[1, 0]).unwrap();
        w.push(&[1, 1]).unwrap();
        let first = m.commit_file(w, &mut stats).unwrap();
        let mut w = m.start_file(vec![NodeId(1)], p, 2).unwrap();
        w.push(&[1, 2]).unwrap();
        let second = m.commit_file(w, &mut stats).unwrap();

        assert!(m.set(first).is_none(), "the old file was replaced");
        let (rows, _) = read_all(&m, second).unwrap();
        assert_eq!(rows, vec![vec![1, 2]]);
        assert_eq!(catalog.entry_count(), 1);
        let entry = m.set(second).unwrap().shared.expect("published");
        assert_eq!(catalog.reader_count(entry), 1, "the set's entry is live");
        catalog.assert_shadow_accounting();
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Stage `n` rows of arity 3 with `extent_rows` per extent; return
    /// (manager, file id, stats).
    fn staged(n: u16, extent_rows: usize) -> (StagingManager, u64, MiddlewareStats) {
        let mut m = mgr();
        m.set_extent_rows(extent_rows);
        let mut stats = MiddlewareStats::new();
        let mut w = m.start_file(vec![NodeId(0)], Pred::True, 3).unwrap();
        for i in 0..n {
            w.push(&[i, i.wrapping_add(1), i.wrapping_mul(3)]).unwrap();
        }
        let id = m.commit_file(w, &mut stats).unwrap();
        (m, id, stats)
    }

    #[test]
    fn extent_file_round_trip_with_partial_tail() {
        let (m, id, stats) = staged(10, 4);
        let layout = m.extent_layout(id).unwrap().expect("extent format");
        assert_eq!(layout.extents, 3);
        assert_eq!(layout.rows_in_extent(0), 4);
        assert_eq!(layout.rows_in_extent(2), 2);
        assert_eq!(layout.nrows, 10);

        let (rows, ws) = read_all(&m, id).unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[0], vec![0, 1, 0]);
        assert_eq!(rows[9], vec![9, 10, 27]);

        // Physical accounting matches the bytes actually on disk; logical
        // payload accounting is format-independent.
        let disk = fs::metadata(path_of(&m, id)).unwrap().len();
        assert_eq!(stats.file_bytes_physical_written, disk);
        assert_eq!(layout.total_physical_bytes(), disk);
        assert_eq!(stats.file_bytes_written, 10 * 3 * CODE_BYTES as u64);

        // A full scan's reader stats cover every byte past the file header.
        assert_eq!(ws.read_bytes + FILE_HEADER_BYTES, disk);
        assert_eq!(ws.rows, 10);
        assert_eq!(ws.extents, 3);
    }

    #[test]
    fn empty_extent_file_yields_no_rows() {
        let (m, id, _) = staged(0, 4);
        let layout = m.extent_layout(id).unwrap().expect("extent format");
        assert_eq!(layout.extents, 0);
        assert_eq!(layout.total_physical_bytes(), FILE_HEADER_BYTES);
        assert!(read_all(&m, id).unwrap().0.is_empty());
    }

    #[test]
    fn truncated_extent_file_fails_with_corrupt() {
        // Chop 5 bytes off the tail: the length no longer decomposes.
        let (m, id, _) = staged(10, 4);
        let path = path_of(&m, id);
        let len = fs::metadata(&path).unwrap().len();
        let f = fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        assert!(matches!(m.extent_layout(id), Err(MwError::Corrupt(_))));

        // Chop off exactly the final (partial, 2-row) extent: the length
        // decomposes cleanly but the row total disagrees with the catalog.
        let f = fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - (EXTENT_OVERHEAD_BYTES + 2 * 3 * CODE_BYTES as u64))
            .unwrap();
        drop(f);
        match m.extent_layout(id) {
            Err(MwError::Corrupt(msg)) => assert!(msg.contains("truncated"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_extent_payload_fails_crc() {
        let (m, id, _) = staged(10, 4);
        let path = path_of(&m, id);
        let mut bytes = fs::read(&path).unwrap();
        // Flip a bit inside the first extent's payload (after the 16-byte
        // file header and 8-byte extent header).
        let target = FILE_HEADER_BYTES as usize + 8 + 3;
        bytes[target] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        // The layout is still well-formed, so detection succeeds, but
        // reading the damaged extent fails the CRC.
        assert!(m.extent_layout(id).unwrap().is_some());
        match read_all(&m, id) {
            Err(MwError::Corrupt(msg)) => assert!(msg.contains("CRC"), "{msg}"),
            other => panic!("expected Corrupt(CRC), got {other:?}"),
        }
    }

    #[test]
    fn short_or_magicless_header_is_corrupt_not_legacy() {
        let (m, id, _) = staged(10, 4);
        let path = path_of(&m, id);
        let good = fs::read(&path).unwrap();
        // Truncated inside (or before) the 16-byte file header.
        for len in [0usize, 8, 15] {
            fs::write(&path, &good[..len]).unwrap();
            match m.extent_layout(id) {
                Err(MwError::Corrupt(msg)) => assert!(msg.contains("header"), "{len} B: {msg}"),
                other => panic!("{len} B: expected Corrupt, got {other:?}"),
            }
        }
        // Full length, one magic byte flipped.
        let mut bad = good.clone();
        bad[2] ^= 0x01;
        fs::write(&path, &bad).unwrap();
        match m.extent_layout(id) {
            Err(MwError::Corrupt(msg)) => assert!(msg.contains("magic"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // A headerless row-major file (the pre-extent layout) is no
        // longer a format: same error, whatever its length.
        let legacy: Vec<u8> = (0..10u16 * 3).flat_map(u16::to_le_bytes).collect();
        fs::write(&path, &legacy).unwrap();
        assert!(matches!(m.extent_layout(id), Err(MwError::Corrupt(_))));
    }

    #[test]
    fn extent_reader_serves_random_access() {
        let (m, id, _) = staged(10, 4);
        let layout = m.extent_layout(id).unwrap().unwrap();
        let mut r = ExtentReader::open(&layout).unwrap();
        let mut rows = Vec::new();
        let mut ws = WorkerScanStats::default();
        // Read the middle extent directly (rows 4..8).
        assert_eq!(r.decode_extent(1, &mut rows, &mut ws).unwrap(), 4);
        assert_eq!(rows[..3], [4, 5, 12]);
        assert_eq!(ws.extents, 1);
        assert_eq!(ws.read_bytes, layout.extent_physical_bytes(1));
        // Reading on needs no seek: the handle stands at the next extent.
        assert_eq!(r.pos, Some(layout.extent_offset(2)));
        // The tail extent (rows 8..10), then back to the first.
        assert_eq!(r.decode_extent(2, &mut rows, &mut ws).unwrap(), 2);
        assert_eq!(rows, [8, 9, 24, 9, 10, 27]);
        assert_eq!(r.decode_extent(0, &mut rows, &mut ws).unwrap(), 4);
        assert_eq!(rows[9..], [3, 4, 9]);
        assert_eq!(r.pos, Some(layout.extent_offset(1)));
    }

    /// The column shim is the row decode transposed, and accounts the scan
    /// alike; CRC damage is `Corrupt` on both, and decodes nothing.
    #[test]
    fn columnar_decode_accounts_the_scan_and_fails_on_crc_damage() {
        let (m, id, _) = staged(10, 4);
        let layout = m.extent_layout(id).unwrap().unwrap();
        let mut by_rows = ExtentReader::open(&layout).unwrap();
        let mut by_cols = ExtentReader::open(&layout).unwrap();
        let mut rows = vec![99; 11]; // stale
        let mut cols: Vec<Vec<Code>> = vec![vec![99; 7]; 5]; // stale, wrong shape
        let (mut row_ws, mut col_ws) = (WorkerScanStats::default(), WorkerScanStats::default());
        for k in 0..layout.extents {
            let n = by_rows.decode_extent(k, &mut rows, &mut row_ws).unwrap();
            assert_eq!(n, layout.rows_in_extent(k));
            for (r, row) in rows.chunks_exact(3).enumerate() {
                let i = (k as usize * 4 + r) as u16;
                assert_eq!(row, [i, i + 1, i * 3], "extent {k} row {r}");
            }
            assert_eq!(
                by_cols
                    .decode_extent_columns(k, &mut cols, &mut col_ws)
                    .unwrap(),
                n
            );
            let transposed: Vec<Vec<Code>> = (0..3)
                .map(|c| rows.iter().skip(c).step_by(3).copied().collect())
                .collect();
            assert_eq!(cols, transposed, "extent {k}");
        }
        for ws in [&mut row_ws, &mut col_ws] {
            assert!(ws.decode_ns > 0);
            ws.decode_ns = 0;
            assert_eq!(
                *ws,
                WorkerScanStats {
                    read_bytes: layout.total_physical_bytes() - FILE_HEADER_BYTES,
                    rows: 10,
                    extents: 3,
                    decode_ns: 0,
                }
            );
        }
        let path = path_of(&m, id);
        let mut bytes = fs::read(&path).unwrap();
        bytes[FILE_HEADER_BYTES as usize + 8 + 3] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let corrupt = |outcome: MwResult<usize>| match outcome {
            Err(MwError::Corrupt(msg)) => assert!(msg.contains("CRC"), "{msg}"),
            other => panic!("expected Corrupt(CRC), got {other:?}"),
        };
        let mut damaged = ExtentReader::open(&layout).unwrap();
        corrupt(damaged.decode_extent(0, &mut rows, &mut row_ws));
        corrupt(damaged.decode_extent_columns(0, &mut cols, &mut col_ws));
        for ws in [row_ws, col_ws] {
            assert_eq!((ws.rows, ws.extents), (10, 3), "nothing more was served");
        }
    }

    /// The bytewise table loop the sliced and folded kernels replaced,
    /// kept as their reference.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        data.iter().fold(0xFFFF_FFFF, |c, &b| crc32_step(c, b)) ^ 0xFFFF_FFFF
    }

    /// One full extent payload at the default geometry the benchmark
    /// stages: 8192 rows × 26 codes × 2 B.
    const EXTENT_PAYLOAD_BYTES: usize = 8192 * 26 * CODE_BYTES;

    /// Hold `kernel` to the bytewise reference: every length 0..=512 at
    /// every alignment 0..16 of one shared buffer (across the folded
    /// kernel's 128-byte cutoff, its 64-byte strides and 16-byte blocks,
    /// and every tail), generated buffers up to 1 MiB, and one full
    /// extent payload.
    fn equals_the_bytewise_reference(kernel: impl Fn(&[u8]) -> u32) {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let shared: Vec<u8> = (0..16 + 512).map(|_| next() as u8).collect();
        for start in 0..16 {
            for len in 0..=512 {
                let data = &shared[start..start + len];
                assert_eq!(
                    kernel(data),
                    crc32_bytewise(data),
                    "start {start} len {len}"
                );
            }
        }
        for round in 0..24 {
            let len = match round {
                0 => 1 << 20,
                1 => EXTENT_PAYLOAD_BYTES,
                _ => next() as usize % (1 << 20),
            };
            let data: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(kernel(&data), crc32_bytewise(&data), "{len} bytes");
        }
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_reference() {
        equals_the_bytewise_reference(crc32_sliced);
    }

    #[test]
    fn folded_crc32_equals_the_bytewise_reference() {
        if crc32_folded(b"").is_none() {
            eprintln!("skipped: this CPU has no carry-less multiply, so crc32 slices");
            return;
        }
        equals_the_bytewise_reference(|data| crc32_folded(data).unwrap());
    }

    #[test]
    fn a_flipped_bit_in_any_byte_lane_is_corrupt() {
        // 70 rows x 3 columns: a 420-byte payload, which the folded kernel
        // reads as six 64-byte strides (bytes 0..384), two single 16-byte
        // blocks (384..416) and a 4-byte bytewise tail.
        let (m, id, _) = staged(70, 70);
        let layout = m.extent_layout(id).unwrap().unwrap();
        let path = path_of(&m, id);
        let good = fs::read(&path).unwrap();
        let payload = layout.extent_offset(0) as usize + 8;
        assert_eq!(layout.extent_physical_bytes(0), 420 + EXTENT_OVERHEAD_BYTES);
        // Every bit of every byte lane of the first stride's first word
        // (the one the initial state folds into), of the last single
        // block, and of the tail.
        for (start, lanes) in [(0usize, 16usize), (400, 16), (416, 4)] {
            for at in start..start + lanes {
                for bit in 0..8 {
                    let mut bad = good.clone();
                    bad[payload + at] ^= 1 << bit;
                    fs::write(&path, &bad).unwrap();
                    let mut reader = ExtentReader::open(&layout).unwrap();
                    let mut rows = Vec::new();
                    let mut ws = WorkerScanStats::default();
                    match reader.decode_extent(0, &mut rows, &mut ws) {
                        Err(MwError::Corrupt(msg)) => assert!(msg.contains("CRC"), "{msg}"),
                        other => panic!("payload byte {at} bit {bit}: {other:?}"),
                    }
                    assert_eq!(ws.rows, 0, "no rows from a damaged extent");
                }
            }
        }
    }

    #[test]
    fn short_extent_bytes_are_corrupt_not_a_panic() {
        let (m, id, _) = staged(10, 4);
        let layout = m.extent_layout(id).unwrap().unwrap();
        let mut reader = ExtentReader::open(&layout).unwrap();
        let mut ws = WorkerScanStats::default();
        let nrows = reader.fetch(1, &mut ws).unwrap();
        let whole = reader.byte_buf.clone();
        assert_eq!(reader.verify(1, nrows).unwrap().len(), 4 * 3 * CODE_BYTES);
        // Every proper prefix of the extent — cut inside the header, the
        // payload, the footer — and a row count no buffer could hold.
        for len in 0..whole.len() {
            reader.byte_buf.truncate(len);
            match reader.verify(1, nrows) {
                Err(MwError::Corrupt(msg)) => {
                    assert!(msg.contains("extent 1") && msg.contains("short"), "{msg}")
                }
                other => panic!("{len} of {} bytes: {other:?}", whole.len()),
            }
        }
        reader.byte_buf = whole;
        assert!(matches!(
            reader.verify(1, usize::MAX),
            Err(MwError::Corrupt(_))
        ));
    }

    /// A staged file of arity 3, five rows, two rows per extent (a partial
    /// tail), written out by hand from the format: each extent's payload is
    /// its rows in order, little-endian, and its CRC is checked against the
    /// bytewise reference below, so no byte here comes from the writer it
    /// pins.
    const GOLDEN_ROWS: [[Code; 3]; 5] = [
        [1, 2, 3],
        [4, 5, 6],
        [7, 8, 9],
        [10, 11, 12],
        [513, 65535, 0],
    ];
    #[rustfmt::skip]
    const GOLDEN_FILE: [u8; 94] = [
        // "SCXT", version 3, arity 3, 2 rows per extent
        0x53, 0x43, 0x58, 0x54, 0x03, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
        // extent 0: 2 rows, index 0 | rows [1 2 3] [4 5 6] | CRC, 2 rows
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x01, 0x00, 0x02, 0x00, 0x03, 0x00, 0x04, 0x00, 0x05, 0x00, 0x06, 0x00,
        0x7c, 0x48, 0x1f, 0x90, 0x02, 0x00, 0x00, 0x00,
        // extent 1: 2 rows, index 1 | rows [7 8 9] [10 11 12] | CRC, 2 rows
        0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
        0x07, 0x00, 0x08, 0x00, 0x09, 0x00, 0x0a, 0x00, 0x0b, 0x00, 0x0c, 0x00,
        0x54, 0x9f, 0xfa, 0xd9, 0x02, 0x00, 0x00, 0x00,
        // extent 2: 1 row, index 2 | row [513 65535 0] | CRC, 1 row
        0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
        0x01, 0x02, 0xff, 0xff, 0x00, 0x00,
        0x7a, 0x13, 0xc3, 0x60, 0x01, 0x00, 0x00, 0x00,
    ];

    #[test]
    fn writer_reproduces_the_golden_file_by_rows_and_by_blocks() {
        use crate::executor::Block;
        // The constant itself: each extent's payload is its rows,
        // little-endian, and its stored CRC the bytewise reference's.
        let mut at = FILE_HEADER_BYTES as usize;
        for rows in GOLDEN_ROWS.chunks(2) {
            let len = rows.len() * 3 * CODE_BYTES;
            let payload = &GOLDEN_FILE[at + 8..at + 8 + len];
            let codes: Vec<u8> = rows
                .iter()
                .flatten()
                .flat_map(|c| c.to_le_bytes())
                .collect();
            assert_eq!(payload, codes);
            let stored = le_u32(&GOLDEN_FILE, at + 8 + len).unwrap();
            assert_eq!(stored, crc32_bytewise(payload), "extent at byte {at}");
            at += len + EXTENT_OVERHEAD_BYTES as usize;
        }
        assert_eq!(at, GOLDEN_FILE.len());

        let mut m = mgr();
        m.set_extent_rows(2);
        let mut stats = MiddlewareStats::new();
        let mut committed = |m: &mut StagingManager, w: FileWriter| {
            let id = m.commit_file(w, &mut stats).unwrap();
            (id, fs::read(path_of(m, id)).unwrap())
        };
        let start = |m: &mut StagingManager| m.start_file(vec![NodeId(0)], Pred::True, 3).unwrap();

        // Row by row.
        let mut w = start(&mut m);
        for row in &GOLDEN_ROWS {
            w.push(row).unwrap();
        }
        let (id, bytes) = committed(&mut m, w);
        assert_eq!(bytes, GOLDEN_FILE, "push(row)");
        // ... and the reader decodes it.
        let (rows, ws) = read_all(&m, id).unwrap();
        assert_eq!(rows, GOLDEN_ROWS);
        assert_eq!(ws.read_bytes + FILE_HEADER_BYTES, GOLDEN_FILE.len() as u64);

        // The golden rows scattered over two larger blocks, with selections
        // that straddle the extent boundaries: rows 0-2 from the first
        // (extents 0 | 1), 3-4 from the second (1 | 2), mixed with a row
        // push in between; and blocks taken whole, one of them after a row
        // push, so that its copy is cut at two extent boundaries.
        let junk = [9, 9, 9];
        let a = [junk, GOLDEN_ROWS[0], junk, GOLDEN_ROWS[1], GOLDEN_ROWS[2]].concat();
        let b = [GOLDEN_ROWS[3], junk, junk, GOLDEN_ROWS[4]].concat();
        let (whole, rest) = (GOLDEN_ROWS.concat(), GOLDEN_ROWS[1..].concat());
        let block = |flat| Block { flat, arity: 3 };
        let (a, b, whole, rest) = (block(&a), block(&b), block(&whole), block(&rest));
        let mut w = start(&mut m);
        w.push_selected(&a, &[1, 3, 4]).unwrap();
        w.push_selected(&b, &[]).unwrap();
        w.push_selected(&b, &[0, 3]).unwrap();
        assert_eq!(w.nrows(), 5);
        assert_eq!(committed(&mut m, w).1, GOLDEN_FILE, "block entry");

        let mut w = start(&mut m);
        w.push_selected(&a, &[1]).unwrap();
        w.push(&GOLDEN_ROWS[1]).unwrap();
        w.push_selected(&a, &[4]).unwrap();
        w.push_selected(&b, &[0, 3]).unwrap();
        assert_eq!(committed(&mut m, w).1, GOLDEN_FILE, "rows and blocks mixed");

        let mut w = start(&mut m);
        w.push_selected(&whole, &[0, 1, 2, 3, 4]).unwrap();
        assert_eq!(committed(&mut m, w).1, GOLDEN_FILE, "a whole block");
        let mut w = start(&mut m);
        w.push(&GOLDEN_ROWS[0]).unwrap();
        w.push_selected(&rest, &[0, 1, 2, 3]).unwrap();
        assert_eq!(
            committed(&mut m, w).1,
            GOLDEN_FILE,
            "a row, then a whole block"
        );
        assert_eq!(stats.file_rows_written, 25);
        assert_eq!(stats.file_bytes_physical_written, 5 * 94);
    }

    #[test]
    fn staging_dir_cleanup_on_drop() {
        let dir;
        {
            let mut m = mgr();
            dir = m.staging_dir().to_path_buf();
            let mut stats = MiddlewareStats::new();
            let mut w = m.start_file(vec![NodeId(0)], Pred::True, 1).unwrap();
            w.push(&[7]).unwrap();
            m.commit_file(w, &mut stats).unwrap();
            assert!(dir.exists());
        }
        assert!(!dir.exists(), "owned temp dir removed on drop");
    }
}
