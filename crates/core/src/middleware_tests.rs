//! One client's [`Middleware`](crate::Middleware) end to end: a lone
//! session over a backend of its own ([`Session::new`](crate::Session::new)),
//! which leases the whole budget, driven through the synchronous client
//! loop of Figure 3.

#[cfg(test)]
mod tests {
    use crate::config::{FileStagingPolicy, MiddlewareConfig};
    use crate::request::{CcRequest, DataLocation, NodeId};
    use crate::Middleware;
    use scaleclass_sqldb::{Database, Pred, Schema, CODE_BYTES};

    /// A deterministic table: attrs a (card 4), b (card 3), class (card 2);
    /// class = 1 iff a >= 2.
    fn test_db(rows: u16) -> Database {
        let mut db = Database::new();
        db.create_table("d", Schema::from_pairs(&[("a", 4), ("b", 3), ("class", 2)]))
            .unwrap();
        for i in 0..rows {
            let a = i % 4;
            let b = (i / 4) % 3;
            let c = u16::from(a >= 2);
            db.insert("d", &[a, b, c]).unwrap();
        }
        db
    }

    fn middleware(rows: u16, config: MiddlewareConfig) -> Middleware {
        Middleware::new(test_db(rows), "d", "class", config).unwrap()
    }

    #[test]
    fn session_setup_derives_attrs_and_classes() {
        let mw = middleware(40, MiddlewareConfig::default());
        assert_eq!(mw.attrs(), &[0, 1]);
        assert_eq!(mw.class_col(), 2);
        assert_eq!(mw.table_rows(), 40);
    }

    #[test]
    fn unknown_class_column_rejected() {
        let err = Middleware::new(test_db(4), "d", "zzz", MiddlewareConfig::default());
        assert!(err.is_err());
    }

    #[test]
    fn root_request_counts_whole_table() {
        let mut mw = middleware(40, MiddlewareConfig::default());
        let req = mw.root_request(NodeId(0));
        assert_eq!(req.rows, 40);
        assert_eq!(req.parent_cards, vec![4, 3]);
        mw.enqueue(req).unwrap();
        let results = mw.process_next_batch().unwrap();
        assert_eq!(results.len(), 1);
        let cc = &results[0].cc;
        assert_eq!(cc.total(), 40);
        // a is uniform over 4 values: 10 rows each; a>=2 → class 1.
        assert_eq!(cc.count(0, 0, 0), 10);
        assert_eq!(cc.count(0, 3, 1), 10);
        assert_eq!(cc.count(0, 0, 1), 0);
        assert!(!results[0].via_sql_fallback);
    }

    #[test]
    fn enqueue_validation() {
        let mut mw = middleware(8, MiddlewareConfig::default());
        let mut bad_class = mw.root_request(NodeId(0));
        bad_class.class_col = 0;
        assert!(mw.enqueue(bad_class).is_err());

        let mut bad_attr = mw.root_request(NodeId(0));
        bad_attr.attrs = vec![2]; // the class column
        bad_attr.parent_cards = vec![2];
        assert!(mw.enqueue(bad_attr).is_err());

        let mut misaligned = mw.root_request(NodeId(0));
        misaligned.parent_cards.pop();
        assert!(mw.enqueue(misaligned).is_err());
    }

    #[test]
    fn batch_of_children_served_in_one_scan() {
        let mut mw = middleware(80, MiddlewareConfig::default());
        let root = mw.root_request(NodeId(0));
        let lineage = root.lineage.clone();
        // Children a=0..3, as a client would create them after the root CC.
        for v in 0..4u16 {
            let child = CcRequest {
                lineage: lineage.child(NodeId(1 + u64::from(v)), Pred::Eq { col: 0, value: v }),
                attrs: vec![1],
                class_col: 2,
                rows: 20,
                parent_rows: 80,
                parent_cards: vec![3],
            };
            mw.enqueue(child).unwrap();
        }
        let before = mw.db_stats();
        let results = mw.process_next_batch().unwrap();
        let delta = mw.db_stats() - before;
        assert_eq!(results.len(), 4, "all four children in one batch");
        assert_eq!(delta.seq_scans, 1, "single scan services the whole batch");
        for r in &results {
            assert_eq!(r.cc.total(), 20);
        }
    }

    #[test]
    fn memory_staging_eliminates_later_server_scans() {
        let mut mw = middleware(80, MiddlewareConfig::default()); // caching on, big budget
        let root = mw.root_request(NodeId(0));
        let lineage = root.lineage.clone();
        mw.enqueue(root).unwrap();
        let r1 = mw.process_next_batch().unwrap();
        assert_eq!(r1[0].source, DataLocation::Server);
        assert_eq!(mw.stats().server_scans, 1, "root comes from the server");
        assert_eq!(mw.stats().memory_sets_created, 1, "root staged to memory");
        assert!(mw.stats().scan_nanos > 0, "scan wall-clock is recorded");

        // A child request is served from memory, with zero extra server work.
        let r2_lineage = lineage.child(NodeId(1), Pred::Eq { col: 0, value: 1 });
        let child = CcRequest {
            lineage: r2_lineage.clone(),
            attrs: vec![1],
            class_col: 2,
            rows: 20,
            parent_rows: 80,
            parent_cards: vec![3],
        };
        mw.enqueue(child).unwrap();
        let before = mw.db_stats();
        let r2 = mw.process_next_batch().unwrap();
        let delta = mw.db_stats() - before;
        assert!(matches!(r2[0].source, DataLocation::Memory(_)));
        assert_eq!(r2[0].cc.total(), 20);
        assert_eq!(delta.seq_scans, 0, "no server scan needed");
        assert_eq!(delta.rows_shipped, 0);
        assert_eq!(mw.stats().server_scans, 1, "still only the root scan");
        assert_eq!(mw.stats().memory_scans, 1, "child served by a memory scan");
        assert_eq!(
            mw.stats().memory_rows_read,
            80,
            "memory scan reads the whole staged parent set"
        );
        // Nothing else waits on the set and 2·20 ≤ 80: it shrinks in place
        // to the child's rows, so a grandchild's scan reads only those.
        assert_eq!(mw.stats().memory_rows_compacted, 20);
        assert_eq!(mw.staged_mem_bytes(), 20 * 3, "one byte a code");
        let grandchild = CcRequest {
            lineage: r2_lineage.child(NodeId(2), Pred::Eq { col: 1, value: 0 }),
            attrs: vec![0],
            class_col: 2,
            rows: 7,
            parent_rows: 20,
            parent_cards: vec![1],
        };
        mw.enqueue(grandchild).unwrap();
        let r3 = mw.process_next_batch().unwrap();
        assert_eq!(r3[0].source, r2[0].source, "the same set, compacted");
        assert_eq!(r3[0].cc.total(), 7);
        assert_eq!(mw.stats().memory_scans, 2);
        assert_eq!(mw.stats().memory_rows_read, 80 + 20);
        assert_eq!(mw.stats().server_scans, 1);
    }

    #[test]
    fn no_caching_means_every_batch_hits_the_server() {
        let cfg = MiddlewareConfig::builder().memory_caching(false).build();
        let mut mw = middleware(80, cfg);
        let root = mw.root_request(NodeId(0));
        let lineage = root.lineage.clone();
        mw.enqueue(root).unwrap();
        mw.process_next_batch().unwrap();
        assert_eq!(mw.stats().memory_sets_created, 0);

        let child = CcRequest {
            lineage: lineage.child(NodeId(1), Pred::Eq { col: 0, value: 1 }),
            attrs: vec![1],
            class_col: 2,
            rows: 20,
            parent_rows: 80,
            parent_cards: vec![3],
        };
        mw.enqueue(child).unwrap();
        let before = mw.db_stats();
        let r = mw.process_next_batch().unwrap();
        assert_eq!(r[0].source, DataLocation::Server);
        let delta = mw.db_stats() - before;
        assert_eq!(delta.seq_scans, 1);
        assert_eq!(delta.rows_shipped, 20, "filter ships only relevant rows");
    }

    #[test]
    fn file_staging_roundtrip() {
        let cfg = MiddlewareConfig::builder()
            .memory_caching(false)
            .file_policy(FileStagingPolicy::Singleton)
            .build();
        let mut mw = middleware(80, cfg);
        let root = mw.root_request(NodeId(0));
        let lineage = root.lineage.clone();
        mw.enqueue(root).unwrap();
        mw.process_next_batch().unwrap();
        assert_eq!(mw.stats().files_created, 1, "singleton file staged");
        assert_eq!(mw.stats().file_rows_written, 80);

        let child = CcRequest {
            lineage: lineage.child(NodeId(1), Pred::Eq { col: 0, value: 2 }),
            attrs: vec![1],
            class_col: 2,
            rows: 20,
            parent_rows: 80,
            parent_cards: vec![3],
        };
        mw.enqueue(child).unwrap();
        let before = mw.db_stats();
        let r = mw.process_next_batch().unwrap();
        let delta = mw.db_stats() - before;
        assert!(matches!(r[0].source, DataLocation::File(_)));
        assert_eq!(r[0].cc.total(), 20);
        assert_eq!(delta.seq_scans, 0, "served from middleware file");
        assert_eq!(mw.stats().file_scans, 1);
        assert_eq!(mw.stats().file_rows_read, 80, "whole file scanned");
        let row_bytes = (mw.attrs().len() + 1) as u64 * CODE_BYTES as u64;
        assert_eq!(
            mw.stats().file_bytes_read,
            80 * row_bytes,
            "file read accounting is rows x row_bytes"
        );
    }

    #[test]
    fn sql_fallback_produces_correct_counts_under_tiny_budget() {
        let cfg = MiddlewareConfig::builder()
            .memory_budget_bytes(64) // roomy enough for ~1 entry
            .memory_caching(false)
            .build();
        let mut mw = middleware(80, cfg);
        mw.enqueue(mw.root_request(NodeId(0))).unwrap();
        let r = mw.process_next_batch().unwrap();
        assert!(r[0].via_sql_fallback);
        assert_eq!(mw.stats().sql_fallbacks, 1);
        // The SQL-computed CC is still exact.
        assert_eq!(r[0].cc.total(), 80);
        assert_eq!(r[0].cc.count(0, 0, 0), 20);
        assert_eq!(r[0].cc.count(0, 2, 1), 20);
    }

    #[test]
    fn run_to_completion_drives_follow_ups() {
        let mut mw = middleware(80, MiddlewareConfig::default());
        let root = mw.root_request(NodeId(0));
        let root_lineage = root.lineage.clone();
        mw.enqueue(root).unwrap();
        let mut seen = Vec::new();
        mw.run_to_completion(|f| {
            seen.push(f.node);
            if f.node == NodeId(0) {
                // expand once
                vec![CcRequest {
                    lineage: root_lineage.child(NodeId(1), Pred::Eq { col: 0, value: 0 }),
                    attrs: vec![1],
                    class_col: 2,
                    rows: 20,
                    parent_rows: 80,
                    parent_cards: vec![3],
                }]
            } else {
                vec![]
            }
        })
        .unwrap();
        assert_eq!(seen, vec![NodeId(0), NodeId(1)]);
        assert!(!mw.has_pending());
    }

    #[test]
    fn aux_structure_is_built_once_and_reused() {
        // Tiny aux threshold = 1.0 so the first qualifying server scan
        // builds a keyset; later server scans for descendants reuse it.
        let cfg = MiddlewareConfig::builder()
            .memory_caching(false)
            .aux_mode(crate::config::AuxMode::Keyset)
            .aux_threshold(1.0)
            .build();
        let mut mw = middleware(80, cfg);
        let root = mw.root_request(NodeId(0));
        let lineage = root.lineage.clone();
        mw.enqueue(root).unwrap();
        mw.process_next_batch().unwrap();
        assert_eq!(mw.stats().aux_builds, 1, "root scan builds the keyset");
        assert!(
            mw.stats().aux_build_cost.rows_scanned >= 80,
            "keyset construction cost (a full qualifying scan) is captured"
        );

        for v in 0..4u16 {
            mw.enqueue(CcRequest {
                lineage: lineage.child(NodeId(1 + u64::from(v)), Pred::Eq { col: 0, value: v }),
                attrs: vec![1],
                class_col: 2,
                rows: 20,
                parent_rows: 80,
                parent_cards: vec![3],
            })
            .unwrap();
        }
        let results = mw.process_next_batch().unwrap();
        assert_eq!(results.len(), 4);
        assert_eq!(mw.stats().aux_builds, 1, "children reuse the keyset");
        assert_eq!(mw.stats().aux_scans, 2, "both scans went through it");
        for r in &results {
            assert_eq!(r.cc.total(), 20, "keyset scans count correctly");
        }
    }

    #[test]
    fn admit_by_estimate_matches_paper_literal_behaviour() {
        // With Est_cc admission and a budget sized to the (small) estimate
        // of many children, all of them are admitted into one batch even
        // though the hard bound would split them up.
        let cfg_est = MiddlewareConfig::builder()
            .memory_budget_bytes(16 * 1024)
            .memory_caching(false)
            .admit_by_estimate(true)
            .build();
        let cfg_bound = MiddlewareConfig::builder()
            .memory_budget_bytes(16 * 1024)
            .memory_caching(false)
            .build();
        let run = |cfg: MiddlewareConfig| {
            let mut mw = middleware(80, cfg);
            let root = mw.root_request(NodeId(0));
            let lineage = root.lineage.clone();
            for v in 0..4u16 {
                mw.enqueue(CcRequest {
                    lineage: lineage.child(NodeId(1 + u64::from(v)), Pred::Eq { col: 0, value: v }),
                    attrs: vec![1],
                    class_col: 2,
                    rows: 20,
                    parent_rows: 80,
                    parent_cards: vec![3],
                })
                .unwrap();
            }
            let mut rounds = 0;
            while mw.has_pending() {
                mw.process_next_batch().unwrap();
                rounds += 1;
            }
            rounds
        };
        // Both finish correctly; est-admission never needs more rounds
        // than bound-admission on this workload.
        assert!(run(cfg_est) <= run(cfg_bound));
    }

    #[test]
    fn into_db_drops_auxiliary_structures() {
        let cfg = MiddlewareConfig::builder()
            .memory_caching(false)
            .aux_mode(crate::config::AuxMode::TempTable)
            .aux_threshold(1.0)
            .build();
        let mut mw = middleware(40, cfg);
        mw.enqueue(mw.root_request(NodeId(0))).unwrap();
        mw.process_next_batch().unwrap();
        assert_eq!(mw.stats().aux_builds, 1);
        let backend = mw.close();
        let db = backend.db();
        let temps: Vec<&str> = db.table_names().filter(|n| n.starts_with('#')).collect();
        assert!(temps.is_empty(), "leaked temp tables: {temps:?}");
    }

    #[test]
    fn shared_staging_flag_is_invisible_to_a_lone_session() {
        // The session is the only one on its backend, so with shared
        // staging ON every published entry has exactly one reader and the
        // equal share equals the full bytes: scheduling, staging, and
        // eviction decisions — hence all logical counters — must be
        // identical to the default path.
        let run = |shared: bool| {
            let cfg = MiddlewareConfig::builder().shared_staging(shared).build();
            let mut mw = middleware(80, cfg);
            let root = mw.root_request(NodeId(0));
            let lineage = root.lineage.clone();
            mw.enqueue(root).unwrap();
            let mut totals = Vec::new();
            mw.run_to_completion(|f| {
                totals.push(f.cc.total());
                if f.node == NodeId(0) {
                    (0..4u16)
                        .map(|v| CcRequest {
                            lineage: lineage
                                .child(NodeId(1 + u64::from(v)), Pred::Eq { col: 0, value: v }),
                            attrs: vec![1],
                            class_col: 2,
                            rows: 20,
                            parent_rows: 80,
                            parent_cards: vec![3],
                        })
                        .collect()
                } else {
                    vec![]
                }
            })
            .unwrap();
            mw.assert_shadow_accounting();
            let mut stats = *mw.stats();
            // Wall-clock timing is the one legitimate difference.
            stats.scan_nanos = 0;
            stats.kernel_nanos = 0;
            stats.kernel_validate_nanos = 0;
            stats.kernel_accumulate_nanos = 0;
            (totals, stats)
        };
        let (totals_off, stats_off) = run(false);
        let (totals_on, stats_on) = run(true);
        assert_eq!(totals_off, totals_on, "identical counts tables");
        assert_eq!(stats_off, stats_on, "identical logical counters");
    }

    #[test]
    fn corrupt_staged_file_fails_the_batch_without_stray_files() {
        // Stage the root into a file in an explicit directory, corrupt it
        // on disk, and drive a child batch through it: the scan must fail
        // with Corrupt, the batch's in-progress writers must clean up
        // after themselves (no partial files strand in the directory), and
        // the staged-byte accounting must still reconcile.
        let dir =
            std::env::temp_dir().join(format!("scaleclass-corrupt-test-{}", std::process::id()));
        let cfg = MiddlewareConfig::builder()
            .memory_caching(false)
            .file_policy(FileStagingPolicy::PerNode)
            .staging_dir(&dir)
            // Pinned off: this test inspects the *private* staged file in
            // `dir`; with the catalog on, committed files move to the
            // shared catalog dir.
            .shared_staging(false)
            .build();
        let mut mw = middleware(80, cfg);
        let root = mw.root_request(NodeId(0));
        let lineage = root.lineage.clone();
        mw.enqueue(root).unwrap();
        mw.process_next_batch().unwrap();
        assert_eq!(mw.stats().files_created, 1);

        // Flip a payload byte of the staged file (past the 16-byte file
        // header and 8-byte extent header) so the CRC check trips.
        let staged: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(staged.len(), 1);
        let mut bytes = std::fs::read(&staged[0]).unwrap();
        bytes[16 + 8 + 3] ^= 0x40;
        std::fs::write(&staged[0], &bytes).unwrap();

        mw.enqueue(CcRequest {
            lineage: lineage.child(NodeId(1), Pred::Eq { col: 0, value: 1 }),
            attrs: vec![1],
            class_col: 2,
            rows: 20,
            parent_rows: 80,
            parent_cards: vec![3],
        })
        .unwrap();
        let err = mw.process_next_batch();
        assert!(
            matches!(err, Err(crate::error::MwError::Corrupt(_))),
            "expected Corrupt, got {err:?}"
        );
        mw.assert_shadow_accounting();
        // The failed batch's per-node file writer rolled itself back: only
        // the (corrupt) root file remains in the staging directory.
        let leftover: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(leftover, staged, "no partial writer output strands");
        drop(mw);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn extraction_baseline_ships_every_row() {
        let mw = middleware(80, MiddlewareConfig::default());
        let before = mw.db_stats();
        let flat = mw.extract_all(Pred::True).unwrap();
        let delta = mw.db_stats() - before;
        assert_eq!(flat.len(), 80 * 3);
        assert_eq!(delta.rows_shipped, 80);
    }
}
