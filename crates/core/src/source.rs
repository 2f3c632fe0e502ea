//! The input side of a counting scan.
//!
//! The execution module scans one data source once and counts every
//! scheduled node from it (§4.1.1), wherever that source lives (§4.2).
//! [`BlockSource`] is that "wherever": each kind yields `(block index,
//! block)` in source order, the block in the layout the source has —
//! row-major where rows arrive as rows, column-major where they lie in
//! columns, both read through `executor::Block` — and passes over a block
//! it is told to skip without reading it, so the one scan loop in
//! `session.rs` — and the sampling admission filter it puts between source
//! and sink (DESIGN.md §13) — never knows which kind it drives. A block
//! index names a unit of the source's *physical* layout, which is what
//! makes skipping free:
//!
//! * memory set, or a materialised TID/keyset result — the k-th run of
//!   `scan_block_rows` rows, row-major; a memory set's narrow codes
//!   ([`MemRows`]) are decoded a block at a time into the reusable buffer
//!   a cursor fetches into;
//! * extent file — extent k, column-major: read, CRC-checked and decoded
//!   by [`ExtentReader::decode_extent_columns`], the routine the sharded
//!   readers run too, and never transposed;
//! * server or temp-table cursor — the k-th block shipped (each wire fetch
//!   cut at `scan_block_rows`), row-major. Shipped rows cannot be
//!   un-shipped, so a sampled server scan names its blocks to the server up
//!   front ([`admitted_ranges`] → `Database::open_block_cursor`, the
//!   `TABLESAMPLE SYSTEM` analogue) and the loop sees admitted rows only.

use crate::error::MwResult;
use crate::executor::{ColBlock, RowBlock};
use crate::metrics::WorkerScanStats;
use crate::sample::BlockSampler;
use crate::staging::{ExtentLayout, ExtentReader, MemRows, FILE_HEADER_BYTES};
use scaleclass_sqldb::{BlockCursor, Code, ServerCursor};

/// One wire fetch of a server cursor: appends the rows it shipped to the
/// buffer, none at the end of the scan.
type Fetch<'a> = Box<dyn FnMut(&mut Vec<Code>) -> MwResult<()> + 'a>;

enum Kind<'a> {
    /// Rows already in middleware memory.
    Flat(&'a [Code]),
    /// A memory set, decoded one block at a time into `buf`.
    Mem(&'a MemRows),
    /// A staged extent file, decoded one extent at a time into `cols`;
    /// `row` is the scratch a block's rows are assembled in when asked for.
    Extents {
        reader: ExtentReader,
        cols: Vec<Vec<Code>>,
        row: Vec<Code>,
    },
    /// A server cursor, fetched one wire batch at a time into `buf`.
    Cursor(Fetch<'a>),
}

/// A block as its source lays it out.
pub(crate) enum SourceBlock<'a> {
    /// A run of a memory set or of a wire fetch.
    Rows(RowBlock<'a>),
    /// One decoded extent.
    Cols(ColBlock<'a>),
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
    /// nothing to the other kinds), or the last memory-set block decoded.
    buf: Vec<Code>,
    at: usize,
    /// Rows in the blocks yielded so far.
    pub(crate) rows_read: u64,
    /// Rows in the blocks passed over so far.
    pub(crate) rows_skipped: u64,
    /// Extent-file I/O and decode counters (reader 0 of the per-reader
    /// scan stats); zero for the other kinds.
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
            rows_skipped: 0,
            io: WorkerScanStats::default(),
        }
    }

    /// Flat row-major rows (`rows.len()` a multiple of `arity`), cut every
    /// `block_rows` rows: a materialised result.
    pub(crate) fn flat(rows: &'a [Code], arity: usize, block_rows: usize) -> Self {
        Self::new(Kind::Flat(rows), arity, block_rows)
    }

    /// A memory set's rows, cut every `block_rows` rows like
    /// [`BlockSource::flat`]'s; a block is decoded only when admitted.
    pub(crate) fn memory_set(rows: &'a MemRows, arity: usize, block_rows: usize) -> Self {
        Self::new(Kind::Mem(rows), arity, block_rows)
    }

    /// A staged extent file; block `k` is extent `k`.
    pub(crate) fn extents(layout: &ExtentLayout) -> MwResult<Self> {
        let kind = Kind::Extents {
            reader: ExtentReader::open(layout)?,
            cols: Vec::new(),
            row: Vec::new(),
        };
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

    /// A filtered cursor over the TID ranges a sampled scan admitted.
    pub(crate) fn range_cursor(mut cursor: BlockCursor<'a>, block_rows: usize) -> Self {
        let arity = cursor.arity();
        let fetch = move |out: &mut Vec<Code>| Ok(cursor.fetch(out).map(drop)?);
        Self::new(Kind::Cursor(Box::new(fetch)), arity, block_rows)
    }

    /// The next block `admit` lets through, with its index; `None` at the
    /// end of the source. A block `admit` refuses is passed over unread:
    /// no extent I/O or decode, no touch of the memory rows. (A cursor has
    /// already paid the wire for what it fetched — see the module docs.)
    pub(crate) fn next_block(
        &mut self,
        mut admit: impl FnMut(u64) -> bool,
    ) -> MwResult<Option<(u64, SourceBlock<'_>)>> {
        loop {
            let k = self.next;
            // Run `k` of `len` codes in memory: where it starts, and its
            // codes.
            let block_codes = self.block_codes;
            let run = |len: usize| {
                let start = (k as usize).saturating_mul(block_codes);
                (start, len.saturating_sub(start).min(block_codes))
            };
            // Where block `k` starts and how many codes it holds, known
            // without reading it.
            let (start, codes) = match &mut self.kind {
                Kind::Flat(rows) => run(rows.len()),
                Kind::Mem(rows) => run(rows.codes()),
                Kind::Extents { reader, .. } => {
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
            let nrows = (codes / self.arity) as u64;
            if !admit(k) {
                self.rows_skipped += nrows;
                continue;
            }
            self.rows_read += nrows;
            let (rows, start) = match &mut self.kind {
                Kind::Flat(rows) => (*rows, start),
                Kind::Cursor(_) => (self.buf.as_slice(), start),
                Kind::Mem(rows) => {
                    self.buf.clear();
                    rows.decode(start, codes, &mut self.buf);
                    (self.buf.as_slice(), 0)
                }
                Kind::Extents { reader, cols, row } => {
                    let nrows = reader.decode_extent_columns(k, cols, &mut self.io)?;
                    return Ok(Some((k, SourceBlock::Cols(ColBlock { cols, nrows, row }))));
                }
            };
            let block = RowBlock {
                // analyze:allow(hot-path-panic): `start + codes` was clamped
                // to the length of these same rows above (a memory set's
                // block is decoded whole, from 0).
                flat: &rows[start..start + codes],
                arity: self.arity,
            };
            return Ok(Some((k, SourceBlock::Rows(block))));
        }
    }
}

/// Sampling pushed into the server: the half-open TID ranges of the
/// `block_rows`-row physical blocks of a `table_rows`-row table that
/// `sampler` admits, adjacent blocks merged, and the rows they cover. The
/// server's block cursor then never touches — and never charges — the rows
/// in between.
pub(crate) fn admitted_ranges(
    sampler: &BlockSampler,
    table_rows: u64,
    block_rows: u64,
) -> (Vec<(u64, u64)>, u64) {
    let block_rows = block_rows.max(1);
    let mut ranges: Vec<(u64, u64)> = Vec::new();
    let mut covered = 0u64;
    for b in (0..table_rows.div_ceil(block_rows)).filter(|&b| sampler.admits(b)) {
        let start = b * block_rows;
        let end = (start + block_rows).min(table_rows);
        covered += end - start;
        match ranges.last_mut() {
            Some(last) if last.1 == start => last.1 = end,
            _ => ranges.push((start, end)),
        }
    }
    (ranges, covered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Block;
    use crate::metrics::MiddlewareStats;
    use crate::request::NodeId;
    use crate::staging::{CodeWidth, StagingManager};
    use scaleclass_sqldb::{Database, Pred, Schema};

    const ARITY: usize = 3;
    const ROWS: u64 = 1000;
    /// Rows per block *and* per extent, so every source has one geometry
    /// (15 full blocks and a 40-row tail).
    const BLOCK: usize = 64;

    type Blocks = Vec<(u64, Vec<Code>)>;

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

    /// The block's rows, row-major, whichever layout it came in.
    fn rows_of(block: SourceBlock<'_>) -> Vec<Code> {
        let mut rows = Vec::new();
        let collect = |row: &[Code]| {
            rows.extend_from_slice(row);
            Ok(())
        };
        match block {
            SourceBlock::Rows(mut b) => b.for_each_row(None, collect),
            SourceBlock::Cols(mut b) => b.for_each_row(None, collect),
        }
        .unwrap();
        rows
    }

    /// Everything `src` yields under `sampler`; the source keeps its tallies.
    fn drain(src: &mut BlockSource<'_>, sampler: Option<&BlockSampler>) -> Blocks {
        let mut out = Vec::new();
        while let Some((k, block)) = src
            .next_block(|k| sampler.is_none_or(|s| s.admits(k)))
            .unwrap()
        {
            out.push((k, rows_of(block)));
        }
        out
    }

    /// A table-cursor source with `wire_rows` rows per fetch.
    fn server(db: &Database, wire_rows: usize) -> BlockSource<'_> {
        BlockSource::table_cursor(db.open_cursor("d", Pred::True, wire_rows).unwrap(), BLOCK)
    }

    /// The raw data re-chunked at the block size, with chunk indices.
    fn rechunked(data: &[Code]) -> Blocks {
        data.chunks(BLOCK * ARITY)
            .enumerate()
            .map(|(k, c)| (k as u64, c.to_vec()))
            .collect()
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
            assert_eq!(drain(&mut src, None), expect, "{name}");
            assert_eq!((src.rows_read, src.rows_skipped), (ROWS, 0), "{name}");
        }
        // One that is not still ships every row once, in order, in blocks
        // no larger than the block size, numbered as they arrive.
        let ragged = drain(&mut server(&db, 100), None);
        assert!(ragged.iter().all(|(_, b)| b.len() <= BLOCK * ARITY));
        assert!(ragged.iter().enumerate().all(|(i, (k, _))| *k == i as u64));
        let rows: Vec<Code> = ragged.into_iter().flat_map(|(_, b)| b).collect();
        assert_eq!(rows, data);
        assert!(drain(&mut BlockSource::flat(&[], ARITY, BLOCK), None).is_empty());

        // Each in the layout it has: an extent stays in columns.
        let mut file = BlockSource::extents(&layout).unwrap();
        let first = file.next_block(|_| true).unwrap().unwrap().1;
        assert!(matches!(first, SourceBlock::Cols(_)), "extent file");
        for (name, mut src) in [
            ("memory set", BlockSource::memory_set(&narrow, ARITY, BLOCK)),
            (
                "materialised result",
                BlockSource::flat(&data, ARITY, BLOCK),
            ),
            ("server cursor", server(&db, 2 * BLOCK)),
        ] {
            let first = src.next_block(|_| true).unwrap().unwrap().1;
            assert!(matches!(first, SourceBlock::Rows(_)), "{name}");
        }
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
            let (k, block) = src.next_block(|_| true).unwrap().unwrap();
            assert_eq!((k, rows_of(block)), expect);
        }
        match src.next_block(|_| true) {
            Err(crate::error::MwError::Corrupt(msg)) => {
                assert!(msg.contains("extent 7") && msg.contains("CRC"), "{msg}")
            }
            Ok(_) => panic!("the damaged extent was served"),
            Err(other) => panic!("expected Corrupt, got {other:?}"),
        }
        assert_eq!(src.io.extents, 7, "the damaged extent decoded nothing");
        assert_eq!(src.io.rows, 7 * BLOCK as u64);
    }

    #[test]
    fn admission_is_the_same_filter_over_every_source() {
        let (data, db, _staging, layout) = fixture();
        for fraction in [0.1, 0.5, 0.9] {
            let sampler = BlockSampler::new(fraction);
            let expect: Blocks = rechunked(&data)
                .into_iter()
                .filter(|(k, _)| sampler.admits(*k))
                .collect();
            let admitted = expect.iter().map(|(_, b)| (b.len() / ARITY) as u64).sum();
            let narrow = MemRows::from_codes(CodeWidth::One, &data);
            let mut file = BlockSource::extents(&layout).unwrap();
            for (name, src) in [
                (
                    "memory set",
                    &mut BlockSource::memory_set(&narrow, ARITY, BLOCK),
                ),
                ("extent file", &mut file),
            ] {
                assert_eq!(drain(src, Some(&sampler)), expect, "{name} at {fraction}");
                assert_eq!(src.rows_read, admitted);
                assert_eq!(
                    src.rows_read + src.rows_skipped,
                    ROWS,
                    "admitted or skipped"
                );
            }
            // A file skips without reading: only admitted extents cost I/O.
            assert_eq!(file.io.extents, expect.len() as u64);
            let extent_bytes = |(k, _): &(u64, Vec<Code>)| layout.extent_physical_bytes(*k);
            assert_eq!(
                file.io.read_bytes,
                FILE_HEADER_BYTES + expect.iter().map(extent_bytes).sum::<u64>()
            );

            // The server is told the same blocks up front and scans and
            // ships the same rows — and only those.
            let (ranges, covered) = admitted_ranges(&sampler, ROWS, BLOCK as u64);
            assert_eq!(covered, admitted);
            assert!(ranges.windows(2).all(|w| w[0].1 < w[1].0), "merged, sorted");
            let before = db.stats().snapshot();
            let cursor = db.open_block_cursor("d", Pred::True, 128, ranges).unwrap();
            let shipped = drain(&mut BlockSource::range_cursor(cursor, BLOCK), None);
            let shipped: Vec<Code> = shipped.into_iter().flat_map(|(_, b)| b).collect();
            let expect: Vec<Code> = expect.into_iter().flat_map(|(_, b)| b).collect();
            assert_eq!(shipped, expect, "server ranges at {fraction}");
            let cost = db.stats().snapshot() - before;
            assert_eq!((cost.rows_scanned, cost.rows_shipped), (covered, covered));
        }
    }
}
