//! The pinned workloads: generator parameters, middleware policy, and the
//! churn script. Everything that fixes the amount of work is a constant
//! here; `--seed` only draws the physical row order of the table.
//!
//! Why the seed does not reach the generator: `datagen::random_tree` draws
//! the generating tree *and* the leaf classes from one RNG stream, so the
//! learned tree jumps with either the seed or the row count (450 k rows:
//! 313 to 1833 nodes, 1.7 to 7.0 s, over generator seeds 1..8 on the
//! reference host). A benchmark whose work changes fivefold between seeds
//! cannot bound a regression at a tenth. The concept is therefore a pinned
//! workload parameter like the row count, and the seed permutes the rows —
//! which leaves every count the program makes exactly equal across seeds
//! (CC tables are sums) while still moving every timing the way a
//! differently laid-out table would.

use scaleclass::{FileStagingPolicy, MiddlewareConfig};
use scaleclass_datagen::random_tree::{generate, RandomTreeParams};
use scaleclass_sqldb::{Code, Pred, Schema};
use std::path::Path;

/// Where the middleware may keep data between scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Budget = data/8, no memory caching, no files: every level is a
    /// filtered server scan.
    Rescan,
    /// Budget = data/8, no memory caching, hybrid file staging.
    StagedFile,
    /// Budget = 3 x data: one server scan, then memory-set scans.
    StagedMem,
}

/// Mutation rounds after the initial build (`churn-maintain` only). Each
/// round applies `inserts` single-row inserts (3 in 10 with one attribute
/// perturbed), `deletes` `delete_where` statements over `delete_attrs`
/// equality terms and `updates` class-flipping `update_where` statements
/// over `update_attrs` terms, then one `dtree::maintain`.
#[derive(Debug, Clone, Copy)]
pub struct Churn {
    /// Mutate + maintain rounds.
    pub rounds: usize,
    /// Inserts per round.
    pub inserts: usize,
    /// `delete_where` statements per round.
    pub deletes: usize,
    /// Equality terms per delete predicate.
    pub delete_attrs: usize,
    /// `update_where` statements per round.
    pub updates: usize,
    /// Equality terms per update predicate.
    pub update_attrs: usize,
}

/// One pinned workload.
#[derive(Debug)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it exists, as in `BENCHMARK.json`.
    pub why: &'static str,
    /// Leaves of the generating tree.
    pub leaves: usize,
    /// Rows generated per leaf.
    pub cases_per_leaf: usize,
    /// Seed of the generating tree and leaf classes (the concept).
    pub gen_seed: u64,
    /// Staging policy.
    pub policy: Policy,
    /// Mutation rounds, if any.
    pub churn: Option<Churn>,
}

/// The workloads, in run order. Sizes were probed on the 2-core reference
/// host so each build lasts 1.0–1.1 s: short enough for a run to hold
/// [`crate::run::TIMED_REPS`] of them, so that some fall into a quiet
/// stretch of the shared host. Because tree shape jumps with row count and
/// generator seed, each (leaves, cases, seed) triple is pinned as found,
/// never scaled.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "rescan-server",
        why: "every level is a filtered server scan: sqldb cursor, wire and filter dispatch do the work, staging none",
        leaves: 100,
        cases_per_leaf: 1900,
        gen_seed: 2,
        policy: Policy::Rescan,
        churn: None,
    },
    Workload {
        name: "staged-file",
        why: "one server scan, then staging write, extent read/decode and hybrid file splits do the work",
        leaves: 100,
        cases_per_leaf: 1900,
        gen_seed: 42,
        policy: Policy::StagedFile,
        churn: None,
    },
    Workload {
        name: "staged-mem",
        why: "one server scan, then memory-set scans: re-blocking, executor and the cc kernel dominate; no wire, no files",
        leaves: 100,
        cases_per_leaf: 1900,
        gen_seed: 42,
        policy: Policy::StagedMem,
        churn: None,
    },
    Workload {
        name: "wide-frontier",
        why: "trivial data, 6 k nodes in wide batches: per-row filter dispatch over a wide frontier, CC allocation, scheduler, client scoring",
        leaves: 1000,
        cases_per_leaf: 20,
        gen_seed: 42,
        policy: Policy::StagedMem,
        churn: None,
    },
    Workload {
        name: "churn-maintain",
        why: "writes beside reads: storage mutation, delta log, signed cc decrements and re-splits after a maintainable build",
        leaves: 100,
        cases_per_leaf: 1000,
        gen_seed: 42,
        policy: Policy::StagedMem,
        churn: Some(Churn {
            rounds: 10,
            inserts: 400,
            deletes: 4,
            delete_attrs: 6,
            updates: 1,
            update_attrs: 8,
        }),
    },
];

/// Name of the table every workload mines.
pub const TABLE: &str = "t";
/// Name of its class column.
pub const CLASS_COLUMN: &str = "class";

/// splitmix64 — drives the row shuffle.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Fisher–Yates over whole rows.
fn shuffle_rows(rows: &mut [Code], arity: usize, seed: u64) {
    let mut rng = SplitMix(seed);
    for i in (1..rows.len() / arity).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        if i != j {
            let (head, tail) = rows.split_at_mut(i * arity);
            head[j * arity..(j + 1) * arity].swap_with_slice(&mut tail[..arity]);
        }
    }
}

/// A generated table: schema (attributes then `class`) and flat rows.
#[derive(Debug, Clone)]
pub struct Table {
    /// Attributes then `class`.
    pub schema: Schema,
    /// Flat row-major codes.
    pub rows: Vec<Code>,
}

impl Table {
    /// Codes per row.
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Rows in the table.
    pub fn nrows(&self) -> usize {
        self.rows.len() / self.arity()
    }

    /// Stored size: rows x row width.
    pub fn data_bytes(&self) -> u64 {
        (self.rows.len() * scaleclass_sqldb::CODE_BYTES) as u64
    }
}

impl Workload {
    /// The workload called `name`.
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Rows per leaf actually generated: `--smoke` shrinks tables fifty-fold.
    fn cases(&self, smoke: bool) -> usize {
        if smoke {
            (self.cases_per_leaf / 50).max(2)
        } else {
            self.cases_per_leaf
        }
    }

    /// The concept's rows in generator order (leaf by leaf). Identical for
    /// every `--seed`; the churn script picks its row images from here.
    pub fn generate_base(&self, smoke: bool) -> Table {
        let d = generate(&RandomTreeParams {
            leaves: self.leaves,
            attributes: 25,
            mean_values: 4.0,
            values_stddev: 0.0,
            classes: 10,
            skew: 0.0,
            complete_splits: true,
            cases_per_leaf: self.cases(smoke) as f64,
            cases_stddev: 0.0,
            seed: self.gen_seed,
        });
        Table {
            schema: d.schema,
            rows: d.rows,
        }
    }

    /// The table a rep loads: the concept's rows in the order `seed` draws.
    pub fn generate_table(&self, seed: u64, smoke: bool) -> Table {
        let mut t = self.generate_base(smoke);
        let arity = t.arity();
        shuffle_rows(&mut t.rows, arity, seed);
        t
    }

    /// Middleware configuration for a table of `data_bytes`, staging under
    /// `staging_dir`. Every knob with an environment default is set
    /// explicitly, so a stray `SCALECLASS_*` variable cannot move the ruler.
    pub fn config(&self, data_bytes: u64, staging_dir: &Path) -> MiddlewareConfig {
        let b = MiddlewareConfig::builder()
            .staging_dir(staging_dir)
            .scan_workers(1)
            .sessions(1)
            .shared_staging(false)
            .batch_kernel(true)
            .sampled_counting(0.0)
            .stage_extent_rows(scaleclass::config::DEFAULT_EXTENT_ROWS)
            .cc_dense_max_bytes(scaleclass::config::DEFAULT_CC_DENSE_MAX_BYTES)
            .deltas(self.churn.is_some());
        match self.policy {
            Policy::Rescan => b
                .memory_budget_bytes(data_bytes / 8)
                .memory_caching(false)
                .file_policy(FileStagingPolicy::Disabled),
            Policy::StagedFile => b
                .memory_budget_bytes(data_bytes / 8)
                .memory_caching(false)
                .file_policy(FileStagingPolicy::Hybrid {
                    split_threshold: 0.5,
                }),
            Policy::StagedMem => b
                .memory_budget_bytes(data_bytes * 3)
                .memory_caching(true)
                .file_policy(FileStagingPolicy::Disabled),
        }
        .build()
    }
}

/// One mutation statement of the churn script.
#[derive(Debug, Clone)]
pub enum Mutation {
    /// `insert_row`
    Insert(Vec<Code>),
    /// `delete_where`
    Delete(Pred),
    /// `update_where`, assigning the class column.
    Update(Pred, Code),
}

/// Knuth MMIX LCG — drives the churn script. Pinned seed: the script is
/// part of the workload, not of the `--seed` draw, so the exact-count
/// metrics repeat across seeds.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, bound: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 16) % bound.max(1) as u64) as usize
    }
}

/// The churn script: one statement list per round, built outside every
/// timed interval. Row images come from `base` (generator order), so the
/// statements — and the rows they touch — do not depend on the shuffle.
pub fn churn_script(churn: &Churn, base: &Table) -> Vec<Vec<Mutation>> {
    let arity = base.arity();
    let class_col = arity - 1;
    let card = |col: usize| usize::from(base.schema.column(col).cardinality());
    let mut rng = Lcg(0x5ca1_ec1a);
    let pick = |rng: &mut Lcg| {
        let i = rng.below(base.nrows());
        &base.rows[i * arity..(i + 1) * arity]
    };
    // A conjunction of `k` equality terms on consecutive attributes of a
    // picked row, starting at a drawn column.
    let conj = |row: &[Code], start: usize, k: usize| {
        Pred::And(
            (0..k)
                .map(|j| {
                    let col = (start + j) % class_col;
                    Pred::Eq {
                        col,
                        value: row[col],
                    }
                })
                .collect(),
        )
    };
    (0..churn.rounds)
        .map(|_| {
            let mut round = Vec::with_capacity(churn.inserts + churn.deletes + churn.updates);
            for _ in 0..churn.inserts {
                let mut row = pick(&mut rng).to_vec();
                if rng.below(10) < 3 {
                    let col = rng.below(class_col);
                    row[col] = rng.below(card(col)) as Code;
                }
                round.push(Mutation::Insert(row));
            }
            for _ in 0..churn.deletes {
                let row = pick(&mut rng);
                let start = rng.below(class_col);
                round.push(Mutation::Delete(conj(row, start, churn.delete_attrs)));
            }
            for _ in 0..churn.updates {
                let row = pick(&mut rng);
                let start = rng.below(class_col);
                let flipped = ((usize::from(row[class_col]) + 1) % card(class_col)) as Code;
                round.push(Mutation::Update(
                    conj(row, start, churn.update_attrs),
                    flipped,
                ));
            }
            round
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_permutes_rows_and_nothing_else() {
        let w = &WORKLOADS[0];
        let base = w.generate_base(true);
        let a = w.generate_table(1, true);
        let b = w.generate_table(2, true);
        assert_eq!(
            a.rows,
            w.generate_table(1, true).rows,
            "same seed, same rows"
        );
        assert_ne!(a.rows, b.rows, "different seed, different order");
        let sorted = |t: &Table| {
            let mut r: Vec<&[Code]> = t.rows.chunks_exact(t.arity()).collect();
            r.sort();
            r.concat()
        };
        assert_eq!(sorted(&a), sorted(&base));
        assert_eq!(sorted(&b), sorted(&base));
    }

    #[test]
    fn churn_script_is_pinned_and_mixed() {
        let w = Workload::find("churn-maintain").unwrap();
        let churn = w.churn.unwrap();
        let base = w.generate_base(true);
        let script = churn_script(&churn, &base);
        assert_eq!(script.len(), churn.rounds);
        let per_round = churn.inserts + churn.deletes + churn.updates;
        assert!(script.iter().all(|r| r.len() == per_round));
        let again = churn_script(&churn, &base);
        assert_eq!(format!("{script:?}"), format!("{again:?}"));
    }
}
