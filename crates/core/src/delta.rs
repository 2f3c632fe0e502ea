//! Per-leaf accumulation of signed mutation deltas (DESIGN.md §15).
//!
//! The maintenance client drains a table's [`RowDelta`] stream, routes each
//! event down its current tree to the leaf that row reaches, and records it
//! here. A [`DeltaMap`] batches the signed row images per leaf so one pass
//! can later patch every touched node's retained CC table — an insert is a
//! `+row`, a delete a `-row`, and counts being pure sums, the patched table
//! equals what a from-scratch rescan at the new epoch would produce.
//!
//! Buffered row images are middleware memory like any staged artifact, so
//! the map models its footprint (`rows × arity × CODE_BYTES`, the width
//! of the rows it holds) for the session to weigh against its lease. The
//! modelled figure is recomputable from the stored vectors at any time;
//! [`DeltaMap::assert_shadow_accounting`] checks that identity.
//!
//! This file is under the analyzer's `accounting-arith` rule: all count and
//! byte arithmetic is checked or saturating, and widths convert through
//! `try_from` only.

use crate::error::{MwError, MwResult};
use crate::request::NodeId;
use scaleclass_sqldb::{Code, DeltaSign, RowDelta, CODE_BYTES};
use std::collections::BTreeMap;

/// Signed row images accumulated for one leaf, arity-strided and flat (the
/// same layout staged mem sets use).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafDelta {
    arity: usize,
    inserted: Vec<Code>,
    deleted: Vec<Code>,
}

impl LeafDelta {
    fn new(arity: usize) -> Self {
        LeafDelta {
            arity,
            inserted: Vec::new(),
            deleted: Vec::new(),
        }
    }

    /// Row width every recorded image must match.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Inserted row images, one per iterator item.
    pub fn inserted_rows(&self) -> impl Iterator<Item = &[Code]> {
        self.inserted.chunks_exact(self.arity.max(1))
    }

    /// Deleted row images, one per iterator item.
    pub fn deleted_rows(&self) -> impl Iterator<Item = &[Code]> {
        self.deleted.chunks_exact(self.arity.max(1))
    }

    /// Number of inserted rows buffered.
    pub fn inserted_count(&self) -> u64 {
        rows_in(&self.inserted, self.arity)
    }

    /// Number of deleted rows buffered.
    pub fn deleted_count(&self) -> u64 {
        rows_in(&self.deleted, self.arity)
    }

    /// Total signed events buffered — the |Δ| that bounds how far this
    /// leaf's class counts (and any ancestor's split scores) can have moved.
    pub fn magnitude(&self) -> u64 {
        self.inserted_count().saturating_add(self.deleted_count())
    }

    /// Net row-count change (inserted − deleted); negative when the leaf
    /// shrank.
    pub fn net_rows(&self) -> i64 {
        let ins = i64::try_from(self.inserted_count()).unwrap_or(i64::MAX);
        let del = i64::try_from(self.deleted_count()).unwrap_or(i64::MAX);
        ins.saturating_sub(del)
    }

    /// Modelled bytes held by this leaf's buffered images.
    pub fn modelled_bytes(&self) -> u64 {
        let codes = self.inserted.len().saturating_add(self.deleted.len());
        let bytes = codes.saturating_mul(CODE_BYTES);
        u64::try_from(bytes).unwrap_or(u64::MAX)
    }
}

fn rows_in(flat: &[Code], arity: usize) -> u64 {
    let n = flat.len() / arity.max(1);
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Signed mutation deltas batched by the leaf each routed row reaches.
///
/// Ordering inside one leaf does not matter — counts are sums, so the
/// events commute once bucketed — but callers must route a drain's events
/// in ascending `seq` order so a delete lands in the same bucket as the
/// earlier insert of the same row image.
#[derive(Debug, Default)]
pub struct DeltaMap {
    arity: usize,
    leaves: BTreeMap<NodeId, LeafDelta>,
    /// Modelled bytes across every buffered image; kept incrementally and
    /// checked against a recount by [`DeltaMap::assert_shadow_accounting`].
    modelled_bytes: u64,
    events: u64,
}

impl DeltaMap {
    /// An empty map for rows of width `arity`.
    pub fn new(arity: usize) -> Self {
        DeltaMap {
            arity,
            leaves: BTreeMap::new(),
            modelled_bytes: 0,
            events: 0,
        }
    }

    /// Row width every recorded image must match.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Route one signed event into `leaf`'s bucket.
    pub fn record(&mut self, leaf: NodeId, sign: DeltaSign, row: &[Code]) -> MwResult<()> {
        if row.len() != self.arity {
            return Err(MwError::BadRequest(format!(
                "delta row has arity {}, table has {}",
                row.len(),
                self.arity
            )));
        }
        let bucket = self
            .leaves
            .entry(leaf)
            .or_insert_with(|| LeafDelta::new(self.arity));
        match sign {
            DeltaSign::Insert => bucket.inserted.extend_from_slice(row),
            DeltaSign::Delete => bucket.deleted.extend_from_slice(row),
        }
        let row_bytes = u64::try_from(row.len().saturating_mul(CODE_BYTES)).unwrap_or(u64::MAX);
        self.modelled_bytes = self.modelled_bytes.saturating_add(row_bytes);
        self.events = self.events.saturating_add(1);
        Ok(())
    }

    /// Route one drained [`RowDelta`] (convenience over [`DeltaMap::record`]).
    pub fn record_event(&mut self, leaf: NodeId, event: &RowDelta) -> MwResult<()> {
        self.record(leaf, event.sign, &event.row)
    }

    /// Leaves with buffered deltas, ascending by node id.
    pub fn leaves(&self) -> impl Iterator<Item = (NodeId, &LeafDelta)> {
        self.leaves.iter().map(|(&id, d)| (id, d))
    }

    /// Buffered deltas for one leaf.
    pub fn leaf(&self, leaf: NodeId) -> Option<&LeafDelta> {
        self.leaves.get(&leaf)
    }

    /// Total signed events recorded since construction or the last drain.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Σ per-leaf [`LeafDelta::magnitude`].
    pub fn total_magnitude(&self) -> u64 {
        self.leaves
            .values()
            .fold(0u64, |acc, d| acc.saturating_add(d.magnitude()))
    }

    /// Modelled bytes across every buffered image — what the session weighs
    /// against its budget lease before admitting more events.
    pub fn modelled_bytes(&self) -> u64 {
        self.modelled_bytes
    }

    /// Is the map empty?
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Remove and return one leaf's buffered deltas, releasing their
    /// modelled bytes.
    pub fn take(&mut self, leaf: NodeId) -> Option<LeafDelta> {
        let d = self.leaves.remove(&leaf)?;
        self.modelled_bytes = self.modelled_bytes.saturating_sub(d.modelled_bytes());
        Some(d)
    }

    /// Drain every bucket, ascending by node id, resetting the modelled
    /// footprint (the events counter keeps its lifetime total).
    pub fn drain(&mut self) -> Vec<(NodeId, LeafDelta)> {
        self.modelled_bytes = 0;
        std::mem::take(&mut self.leaves).into_iter().collect()
    }

    /// Shadow accounting (DESIGN.md §9.3): the incrementally maintained
    /// byte figure must equal a recount from the stored vectors.
    /// Unconditional assert; call sites gate on `cfg(debug_assertions)`.
    pub fn assert_shadow_accounting(&self) {
        let recount = self
            .leaves
            .values()
            .fold(0u64, |acc, d| acc.saturating_add(d.modelled_bytes()));
        assert!(
            recount == self.modelled_bytes,
            "delta map models {} B but holds {recount} B",
            self.modelled_bytes
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, sign: DeltaSign, row: &[Code]) -> RowDelta {
        RowDelta {
            seq,
            sign,
            row: row.to_vec(),
        }
    }

    #[test]
    fn records_bucket_by_leaf_and_sign() {
        let mut map = DeltaMap::new(3);
        map.record(NodeId(1), DeltaSign::Insert, &[1, 2, 0])
            .unwrap();
        map.record(NodeId(1), DeltaSign::Insert, &[1, 0, 1])
            .unwrap();
        map.record(NodeId(2), DeltaSign::Delete, &[0, 0, 0])
            .unwrap();
        map.record_event(NodeId(1), &ev(3, DeltaSign::Delete, &[1, 2, 0]))
            .unwrap();
        assert_eq!(map.events(), 4);
        assert_eq!(map.total_magnitude(), 4);
        let l1 = map.leaf(NodeId(1)).unwrap();
        assert_eq!(l1.inserted_count(), 2);
        assert_eq!(l1.deleted_count(), 1);
        assert_eq!(l1.magnitude(), 3);
        assert_eq!(l1.net_rows(), 1);
        assert_eq!(
            l1.inserted_rows().collect::<Vec<_>>(),
            vec![&[1, 2, 0][..], &[1, 0, 1][..]]
        );
        let l2 = map.leaf(NodeId(2)).unwrap();
        assert_eq!(l2.net_rows(), -1);
        let ids: Vec<NodeId> = map.leaves().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![NodeId(1), NodeId(2)]);
        map.assert_shadow_accounting();
    }

    #[test]
    fn modelled_bytes_track_row_images() {
        let mut map = DeltaMap::new(2);
        assert_eq!(map.modelled_bytes(), 0);
        map.record(NodeId(0), DeltaSign::Insert, &[1, 0]).unwrap();
        map.record(NodeId(0), DeltaSign::Delete, &[1, 0]).unwrap();
        let expect = (4 * CODE_BYTES) as u64;
        assert_eq!(map.modelled_bytes(), expect);
        map.assert_shadow_accounting();
        let taken = map.take(NodeId(0)).unwrap();
        assert_eq!(taken.modelled_bytes(), expect);
        assert_eq!(map.modelled_bytes(), 0);
        assert!(map.is_empty());
        map.assert_shadow_accounting();
    }

    #[test]
    fn drain_empties_and_resets_bytes_but_not_events() {
        let mut map = DeltaMap::new(1);
        map.record(NodeId(5), DeltaSign::Insert, &[1]).unwrap();
        map.record(NodeId(3), DeltaSign::Insert, &[0]).unwrap();
        let drained = map.drain();
        let ids: Vec<NodeId> = drained.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![NodeId(3), NodeId(5)], "ascending by node id");
        assert!(map.is_empty());
        assert_eq!(map.modelled_bytes(), 0);
        assert_eq!(map.events(), 2, "lifetime counter survives the drain");
        map.assert_shadow_accounting();
    }

    #[test]
    fn arity_mismatch_is_refused_and_charges_nothing() {
        let mut map = DeltaMap::new(3);
        let err = map.record(NodeId(0), DeltaSign::Insert, &[1, 2]);
        assert!(matches!(err, Err(MwError::BadRequest(_))));
        assert_eq!(map.modelled_bytes(), 0);
        assert_eq!(map.events(), 0);
        assert!(map.is_empty());
    }
}
