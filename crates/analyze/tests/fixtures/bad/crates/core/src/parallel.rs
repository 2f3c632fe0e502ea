//! Fixture: hot-path-panic violations in a scan-loop lookalike.

/// Sum candidate slots the panicky way.
pub fn scan(rows: &[Vec<u64>], idxs: &[usize]) -> u64 {
    let mut total = 0u64;
    for row in rows {
        let first = row.first().unwrap();
        total = total.saturating_add(*first);
        for &i in idxs {
            total = total.saturating_add(row[i]);
        }
    }
    let guard = idxs.first().expect("an index");
    if *guard == 0 {
        panic!("no guard");
    }
    total
}
