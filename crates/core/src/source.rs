//! The input side of a counting scan.
//!
//! The execution module scans one data source once and counts every
//! scheduled node from it (§4.1.1), wherever that source lives (§4.2).
//! [`BlockSource`] is that "wherever": each kind yields its blocks in
//! source order, every one row-major (`executor::Block`), so the one scan
//! loop in `session.rs` never knows which kind it drives. A block is a
//! unit of the source's *physical* layout:
//!
//! * memory set, or a materialised TID/keyset result — the k-th run of
//!   `scan_block_rows` rows; a memory set's narrow codes ([`MemRows`]) are
//!   decoded a block at a time into the reusable buffer a cursor fetches
//!   into;
//! * extent file — extent k: read, CRC-checked and decoded by
//!   [`ExtentReader::decode_extent`] into that same buffer;
//! * server or temp-table cursor — the k-th block shipped (each wire fetch
//!   cut at `scan_block_rows`).

use crate::error::MwResult;
use crate::executor::Block;
use crate::metrics::WorkerScanStats;
use crate::staging::{ExtentLayout, ExtentReader, MemRows, FILE_HEADER_BYTES};
use scaleclass_sqldb::{Code, ServerCursor};

/// One wire fetch of a server cursor: appends the rows it shipped to the
/// buffer, none at the end of the scan.
type Fetch<'a> = Box<dyn FnMut(&mut Vec<Code>) -> MwResult<()> + 'a>;

enum Kind<'a> {
    /// Rows already in middleware memory.
    Flat(&'a [Code]),
    /// A memory set, decoded one block at a time into `buf`.
    Mem(&'a MemRows),
    /// A staged extent file, decoded one extent at a time into `buf`.
    Extents(ExtentReader),
    /// A server cursor, fetched one wire batch at a time into `buf`.
    Cursor(Fetch<'a>),
}

/// One scan's input: blocks in source order, each with the index the
/// source's layout gives it. See the module docs for the kinds.
pub(crate) struct BlockSource<'a> {
    kind: Kind<'a>,
    arity: usize,
    /// Codes per full block of the flat and cursor kinds.
    block_codes: usize,
    /// Index of the next block.
    next: u64,
    /// The last wire fetch, `buf[at..]` not yet yielded (`at` means
    /// nothing to the other kinds), or the last memory-set block or extent
    /// decoded.
    buf: Vec<Code>,
    at: usize,
    /// Rows in the blocks yielded so far.
    pub(crate) rows_read: u64,
    /// Extent-file I/O and decode counters (what the session's
    /// `ScanStats` absorbs); zero for the other kinds.
    pub(crate) io: WorkerScanStats,
}

impl<'a> BlockSource<'a> {
    fn new(kind: Kind<'a>, arity: usize, block_rows: usize) -> Self {
        BlockSource {
            kind,
            arity,
            block_codes: block_rows.max(1) * arity,
            next: 0,
            buf: Vec::new(),
            at: 0,
            rows_read: 0,
            io: WorkerScanStats::default(),
        }
    }

    /// Flat row-major rows (`rows.len()` a multiple of `arity`), cut every
    /// `block_rows` rows: a materialised result.
    pub(crate) fn flat(rows: &'a [Code], arity: usize, block_rows: usize) -> Self {
        Self::new(Kind::Flat(rows), arity, block_rows)
    }

    /// A memory set's rows, cut every `block_rows` rows like
    /// [`BlockSource::flat`]'s, each block decoded as it is yielded.
    pub(crate) fn memory_set(rows: &'a MemRows, arity: usize, block_rows: usize) -> Self {
        Self::new(Kind::Mem(rows), arity, block_rows)
    }

    /// A staged extent file; block `k` is extent `k`.
    pub(crate) fn extents(layout: &ExtentLayout) -> MwResult<Self> {
        let kind = Kind::Extents(ExtentReader::open(layout)?);
        let mut source = Self::new(kind, layout.arity, layout.extent_rows);
        // Layout detection read the file header; charge it here so a full
        // scan's bytes sum to the file size.
        source.io.read_bytes = FILE_HEADER_BYTES;
        Ok(source)
    }

    /// A filtered cursor over a base or temp table; each wire fetch is
    /// cut every `block_rows` rows.
    pub(crate) fn table_cursor(mut cursor: ServerCursor<'a>, block_rows: usize) -> Self {
        let arity = cursor.arity();
        let fetch = move |out: &mut Vec<Code>| {
            cursor.fetch(out);
            Ok(())
        };
        Self::new(Kind::Cursor(Box::new(fetch)), arity, block_rows)
    }

    /// The next block; `None` at the end of the source.
    pub(crate) fn next_block(&mut self) -> MwResult<Option<Block<'_>>> {
        let k = self.next;
        // Run `k` of `len` codes in memory: where it starts, and its codes.
        let block_codes = self.block_codes;
        let run = |len: usize| {
            let start = (k as usize).saturating_mul(block_codes);
            (start, len.saturating_sub(start).min(block_codes))
        };
        // Where block `k` starts and how many codes it holds.
        let (start, codes) = match &mut self.kind {
            Kind::Flat(rows) => run(rows.len()),
            Kind::Mem(rows) => run(rows.codes()),
            Kind::Extents(reader) => {
                let layout = reader.layout();
                let nrows = if k < layout.extents {
                    layout.rows_in_extent(k)
                } else {
                    0
                };
                (0, nrows * self.arity)
            }
            Kind::Cursor(fetch) => {
                if self.at >= self.buf.len() {
                    self.buf.clear();
                    self.at = 0;
                    fetch(&mut self.buf)?;
                }
                (self.at, (self.buf.len() - self.at).min(self.block_codes))
            }
        };
        if codes == 0 {
            return Ok(None);
        }
        self.next += 1;
        self.at = start + codes;
        self.rows_read += (codes / self.arity) as u64;
        let (rows, start) = match &mut self.kind {
            Kind::Flat(rows) => (*rows, start),
            Kind::Cursor(_) => (self.buf.as_slice(), start),
            Kind::Mem(rows) => {
                self.buf.clear();
                rows.decode(start, codes, &mut self.buf);
                (self.buf.as_slice(), 0)
            }
            Kind::Extents(reader) => {
                reader.decode_extent(k, &mut self.buf, &mut self.io)?;
                (self.buf.as_slice(), 0)
            }
        };
        Ok(Some(Block {
            // `start + codes` was clamped to the length of these same rows
            // above (a memory set's block and an extent are decoded whole,
            // from 0).
            flat: &rows[start..start + codes],
            arity: self.arity,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MiddlewareStats;
    use crate::request::NodeId;
    use crate::staging::{CodeWidth, StagingManager};
    use scaleclass_sqldb::{Database, Pred, Schema};

    const ARITY: usize = 3;
    const ROWS: u64 = 1000;
    /// Rows per block *and* per extent, so every source has one geometry
    /// (15 full blocks and a 40-row tail).
    const BLOCK: usize = 64;

    type Blocks = Vec<Vec<Code>>;

    /// A generated table (xorshift) as flat rows, a server table, and a
    /// staged extent file (the manager keeps the file alive).
    fn fixture() -> (Vec<Code>, Database, StagingManager, ExtentLayout) {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let data: Vec<Code> = (0..ROWS as usize * ARITY)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % [4, 4, 2][i % ARITY]) as Code
            })
            .collect();
        let mut db = Database::new();
        db.create_table("d", Schema::from_pairs(&[("a", 4), ("b", 4), ("class", 2)]))
            .unwrap();
        let mut staging = StagingManager::new(None).unwrap();
        staging.set_extent_rows(BLOCK);
        let mut w = staging
            .start_file(vec![NodeId(0)], Pred::True, ARITY)
            .unwrap();
        for row in data.chunks_exact(ARITY) {
            db.insert("d", row).unwrap();
            w.push(row).unwrap();
        }
        let id = staging.commit_file(w, &mut MiddlewareStats::new()).unwrap();
        let layout = staging.extent_layout(id).unwrap().unwrap();
        (data, db, staging, layout)
    }

    /// Everything `src` yields; the source keeps its tallies.
    fn drain(src: &mut BlockSource<'_>) -> Blocks {
        let mut out = Vec::new();
        while let Some(block) = src.next_block().unwrap() {
            out.push(block.flat.to_vec());
        }
        out
    }

    /// A table-cursor source with `wire_rows` rows per fetch.
    fn server(db: &Database, wire_rows: usize) -> BlockSource<'_> {
        BlockSource::table_cursor(db.open_cursor("d", Pred::True, wire_rows).unwrap(), BLOCK)
    }

    /// The raw data re-chunked at the block size.
    fn rechunked(data: &[Code]) -> Blocks {
        data.chunks(BLOCK * ARITY).map(<[Code]>::to_vec).collect()
    }

    #[test]
    fn every_source_yields_the_rechunked_table() {
        let (data, db, _staging, layout) = fixture();
        let expect = rechunked(&data);
        // A wire batch of a whole number of blocks keeps the server's cut
        // points on the same rows as the other sources'.
        let (narrow, wide) = (
            MemRows::from_codes(CodeWidth::One, &data),
            MemRows::from_codes(CodeWidth::Two, &data),
        );
        for (name, mut src) in [
            (
                "one-byte memory set",
                BlockSource::memory_set(&narrow, ARITY, BLOCK),
            ),
            (
                "two-byte memory set",
                BlockSource::memory_set(&wide, ARITY, BLOCK),
            ),
            (
                "materialised result",
                BlockSource::flat(&data, ARITY, BLOCK),
            ),
            ("extent file", BlockSource::extents(&layout).unwrap()),
            ("server cursor", server(&db, 2 * BLOCK)),
        ] {
            assert_eq!(drain(&mut src), expect, "{name}");
            assert_eq!(src.rows_read, ROWS, "{name}");
        }
        // One that is not still ships every row once, in order, in blocks
        // no larger than the block size.
        let ragged = drain(&mut server(&db, 100));
        assert!(ragged.iter().all(|b| b.len() <= BLOCK * ARITY));
        let rows: Vec<Code> = ragged.into_iter().flatten().collect();
        assert_eq!(rows, data);
        assert!(drain(&mut BlockSource::flat(&[], ARITY, BLOCK)).is_empty());
    }

    #[test]
    fn a_damaged_extent_is_corrupt_and_yields_no_block() {
        let (data, _db, _staging, layout) = fixture();
        // One payload bit of extent 7, in the middle of the file.
        let mut bytes = std::fs::read(&layout.path).unwrap();
        bytes[layout.extent_offset(7) as usize + 8 + 5] ^= 0x10;
        std::fs::write(&layout.path, &bytes).unwrap();

        let mut src = BlockSource::extents(&layout).unwrap();
        for expect in rechunked(&data).into_iter().take(7) {
            let block = src.next_block().unwrap().unwrap();
            assert_eq!(block.flat, expect);
        }
        match src.next_block() {
            Err(crate::error::MwError::Corrupt(msg)) => {
                assert!(msg.contains("extent 7") && msg.contains("CRC"), "{msg}")
            }
            Ok(_) => panic!("the damaged extent was served"),
            Err(other) => panic!("expected Corrupt, got {other:?}"),
        }
        assert_eq!(src.io.extents, 7, "the damaged extent decoded nothing");
        assert_eq!(src.io.rows, 7 * BLOCK as u64);
    }
}
