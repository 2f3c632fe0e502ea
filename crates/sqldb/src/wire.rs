//! Simulated client/server wire.
//!
//! In the paper the middleware fetches rows from SQL Server through an
//! OLE-DB cursor: every shipped row pays marshalling plus (amortized) a
//! network round trip per buffer. We reproduce that cost structure by
//! actually serializing each shipped row to a byte buffer and deserializing
//! it on the "client" side, and by accounting one round trip per batch.
//! This keeps the central asymmetry of the experiments — a row obtained
//! from the server is substantially more expensive than a row read from a
//! middleware staging file, which in turn beats an in-memory row — without
//! resorting to `sleep`-based fakery.
//!
//! The fetch is the unit of marshalling: the server reserves once for the
//! rows a page's filter selected and copies each as one fixed-width run of
//! little-endian codes ([`WireBatch::push_selected`]), and the client
//! unmarshals the whole buffer in one pass ([`WireBatch::transmit`]). The
//! buffer is row-major, like the heap page the rows come from and the
//! block the client cuts them into. What is charged is what a row at a
//! time would charge: `rows × arity × 2` bytes plus
//! [`BATCH_HEADER_BYTES`], and one round trip, per non-empty batch — an
//! empty batch costs nothing.

use crate::stats::DbStats;
use crate::types::{Code, CODE_BYTES};

/// Default number of rows per fetch buffer (one simulated round trip each).
pub const DEFAULT_BATCH_ROWS: usize = 1024;

/// Per-batch header bytes (message framing overhead on the simulated wire).
pub const BATCH_HEADER_BYTES: u64 = 64;

/// Write `codes` over `bytes`, little-endian, two bytes each.
#[inline]
fn encode(codes: &[Code], bytes: &mut [u8]) {
    for (dst, code) in bytes.chunks_exact_mut(CODE_BYTES).zip(codes) {
        dst.copy_from_slice(&code.to_le_bytes());
    }
}

/// A reusable batch buffer representing one fetch round trip.
#[derive(Debug, Default)]
pub struct WireBatch {
    buf: Vec<u8>,
    rows: usize,
}

impl WireBatch {
    /// An empty batch buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Discard buffered rows without transmitting.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.rows = 0;
    }

    /// Rows currently buffered.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Server side: marshal a row into the batch.
    pub fn push(&mut self, row: &[Code]) {
        self.push_selected(row, row.len(), &[0]);
    }

    /// Server side: marshal rows `sel` (ascending, each once) of `rows` —
    /// packed row-major, `arity` codes each, as a heap page holds them —
    /// into the batch: one reserve, and one fixed-width copy per row.
    /// Panics on a row past `rows`.
    pub fn push_selected(&mut self, rows: &[Code], arity: usize, sel: &[u32]) {
        let row_bytes = arity * CODE_BYTES;
        let at = self.buf.len();
        self.buf.resize(at + sel.len() * row_bytes, 0);
        let bytes = &mut self.buf[at..];
        if sel.len() * arity == rows.len() {
            // Selections ascend, so a full one is the rows themselves.
            encode(rows, bytes);
        } else {
            for (dst, &r) in bytes.chunks_exact_mut(row_bytes).zip(sel) {
                let start = r as usize * arity;
                // analyze:allow(hot-path-panic): selections are minted over
                // the rows of `rows`; a row past them is the caller's bug.
                encode(&rows[start..start + arity], dst);
            }
        }
        self.rows += sel.len();
    }

    /// Transmit the batch: charge wire statistics and unmarshal every row
    /// into `out` as a flat code vector (client side). Returns rows shipped.
    pub fn transmit(&mut self, arity: usize, stats: &DbStats, out: &mut Vec<Code>) -> usize {
        if self.rows == 0 {
            return 0;
        }
        stats.add_wire_round_trip();
        stats.add_rows_shipped(self.rows as u64);
        stats.add_bytes_shipped(self.buf.len() as u64 + BATCH_HEADER_BYTES);
        debug_assert_eq!(self.buf.len(), self.rows * arity * CODE_BYTES);
        let codes = self.buf.chunks_exact(CODE_BYTES);
        out.extend(codes.map(|pair| Code::from_le_bytes([pair[0], pair[1]])));
        let shipped = self.rows;
        self.clear();
        shipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ship `batch` and return what the client unmarshalled.
    fn shipped(batch: &mut WireBatch, arity: usize) -> Vec<Code> {
        let mut out = Vec::new();
        batch.transmit(arity, &DbStats::new(), &mut out);
        out
    }

    #[test]
    fn bulk_encode_decode_round_trips() {
        let rows = [0, 0, 0, 1, 65535, 42, 0xFFFF, 0xFFFF, 0xFFFF, 7, 0, 9];
        let mut batch = WireBatch::new();
        batch.push_selected(&rows, 3, &[0, 1, 2, 3]);
        assert_eq!(batch.rows(), 4);
        assert_eq!(shipped(&mut batch, 3), rows, "a full selection");
        batch.push_selected(&rows, 3, &[1, 3]);
        batch.push_selected(&rows, 3, &[]);
        batch.push_selected(&rows, 3, &[2]);
        assert_eq!(batch.rows(), 3);
        assert_eq!(
            shipped(&mut batch, 3),
            [1, 65535, 42, 7, 0, 9, 0xFFFF, 0xFFFF, 0xFFFF],
            "selections append in push order"
        );
    }

    /// The wire is little-endian on every host: the bulk copy must not
    /// become a native-endian one.
    #[test]
    fn wire_bytes_are_little_endian() {
        let mut batch = WireBatch::new();
        batch.push_selected(&[1, 0xFFFF], 2, &[0]);
        assert_eq!(batch.buf, [0x01, 0x00, 0xff, 0xff]);
        batch.clear();
        batch.push_selected(&[9, 9, 0x1234, 0xABCD], 2, &[1]);
        assert_eq!(batch.buf, [0x34, 0x12, 0xcd, 0xab]);
    }

    #[test]
    fn push_and_push_selected_marshal_the_same_bytes() {
        let rows = [3, 0, 0xFFFF, 258, 1, 2, 40, 41, 42];
        let mut by_row = WireBatch::new();
        for row in rows.chunks_exact(3) {
            by_row.push(row);
        }
        let mut whole = WireBatch::new();
        whole.push_selected(&rows, 3, &[0, 1, 2]);
        assert_eq!(whole.buf, by_row.buf);
        assert_eq!(whole.rows(), by_row.rows());

        by_row.clear();
        by_row.push(&rows[..3]);
        by_row.push(&rows[6..]);
        let mut some = WireBatch::new();
        some.push_selected(&rows, 3, &[0, 2]);
        assert_eq!(some.buf, by_row.buf);
        assert_eq!(some.rows(), by_row.rows());
    }

    #[test]
    fn batch_transmit_charges_stats_and_resets() {
        let stats = DbStats::new();
        let mut batch = WireBatch::new();
        batch.push(&[1, 2]);
        batch.push(&[3, 4]);
        let mut out = Vec::new();
        let n = batch.transmit(2, &stats, &mut out);
        assert_eq!(n, 2);
        assert_eq!(out, vec![1, 2, 3, 4]);
        assert!(batch.is_empty());
        let snap = stats.snapshot();
        assert_eq!(snap.rows_shipped, 2);
        assert_eq!(snap.wire_round_trips, 1);
        assert_eq!(snap.bytes_shipped, 8 + BATCH_HEADER_BYTES);
    }

    #[test]
    fn empty_batch_is_free() {
        let stats = DbStats::new();
        let mut batch = WireBatch::new();
        batch.push_selected(&[1, 2, 3], 3, &[]);
        let mut out = Vec::new();
        assert_eq!(batch.transmit(3, &stats, &mut out), 0);
        assert_eq!(stats.snapshot(), DbStats::new().snapshot());
        assert!(out.is_empty());
    }
}
