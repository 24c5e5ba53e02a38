//! `cached-rw`: zipfian repeated reads with the result cache installed,
//! under deployment settings (a deadline, the admission gate, the standard
//! retry policy). One operation in ten is a write that invalidates the
//! cached reads of one partition. The pool of distinct reads is twice the
//! cache's entry budget, so eviction runs; a read the cache cannot serve
//! recomputes through a CAST over the wire.

use crate::workload::{front_door, one_row_affected, Expected, Kind, Layers, Op, Rng, Workload};
use bigdawg_bench::experiments::result_cache::ZIPF_S;
use bigdawg_common::{Batch, DataType, Row, Schema, Value};
use bigdawg_core::shims::{LatencyShim, RelationalShim};
use bigdawg_core::{BigDawg, CachePolicy};
use std::rc::Rc;
use std::time::Duration;

/// Partitions: one table each, `kv_0` … `kv_15`, on the remote engine.
pub const PARTS: usize = 16;
/// Keys per partition; the table never grows (writes update in place).
pub const KEYS: usize = 128;
/// Groups per partition (`grp = k % GROUPS`); a read returns one group.
pub const GROUPS: usize = 8;
/// Distinct reads: one per (partition, group).
pub const POOL: usize = PARTS * GROUPS;
/// The cache's entry budget: half the pool.
pub const CACHE_ENTRIES: usize = POOL / 2;
/// A round is nine reads and one write.
pub const READS_PER_ROUND: usize = 9;
/// Every block of this many rounds reads each rank exactly its zipfian
/// share of times, in an order of its own.
pub const BLOCK_ROUNDS: usize = 100;
/// The operation sequence repeats every this many rounds.
pub const PERIOD_ROUNDS: usize = 5 * BLOCK_ROUNDS;
/// Emulated one-way wire latency of the remote engine.
pub const WIRE: Duration = Duration::from_millis(2);

#[derive(Debug, Clone, Copy)]
pub enum Spec {
    Read { part: usize, group: usize },
    Write { part: usize, key: usize, val: i64 },
}

pub struct CachedRw {
    bd: BigDawg,
    /// The benchmark's model of every `val`: what a fresh read must see.
    model: Vec<Vec<i64>>,
    /// One period of rounds: read ranks and write targets.
    period: Vec<Vec<Spec>>,
    round: usize,
    /// Every write stores a larger value than any before it, so an answer
    /// older than the last acknowledged write shows as a smaller value.
    next_val: i64,
}

/// Exact zipfian counts over `POOL` ranks for `reads` draws, by largest
/// remainder, so every seed reads each rank equally often.
fn zipf_counts(reads: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=POOL).map(|r| (r as f64).powf(-ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * reads as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..POOL).collect();
    by_remainder.sort_by(|&a, &b| {
        let fa = exact[a] - exact[a].floor();
        let fb = exact[b] - exact[b].floor();
        fb.total_cmp(&fa).then(a.cmp(&b))
    });
    let short = reads - counts.iter().sum::<usize>();
    for &r in by_remainder.iter().take(short) {
        counts[r] += 1;
    }
    counts
}

fn initial_val(seed: u64, part: usize, key: usize) -> i64 {
    let mut rng = Rng::new(seed ^ ((part * KEYS + key) as u64).wrapping_mul(0x9E37_79B9));
    -(rng.below(1_000) as i64) - 1
}

fn read_query(part: usize, group: usize) -> String {
    format!(
        "RELATIONAL(SELECT k, val FROM CAST(kv_{part}, pg_local) WHERE grp = {group} ORDER BY k)"
    )
}

impl CachedRw {
    fn period(seed: u64) -> Vec<Vec<Spec>> {
        let mut rng = Rng::new(seed ^ 0xCAC4E);
        let block: Vec<usize> = zipf_counts(READS_PER_ROUND * BLOCK_ROUNDS)
            .iter()
            .enumerate()
            .flat_map(|(rank, &n)| std::iter::repeat_n(rank, n))
            .collect();
        let mut ranks = Vec::with_capacity(block.len() * PERIOD_ROUNDS / BLOCK_ROUNDS);
        for _ in 0..PERIOD_ROUNDS / BLOCK_ROUNDS {
            let mut b = block.clone();
            rng.shuffle(&mut b);
            ranks.extend(b);
        }
        ranks
            .chunks(READS_PER_ROUND)
            .map(|chunk| {
                // hot ranks spread over the partitions
                let mut round: Vec<Spec> = chunk
                    .iter()
                    .map(|&r| Spec::Read {
                        part: r % PARTS,
                        group: r / PARTS,
                    })
                    .collect();
                let at = rng.below(READS_PER_ROUND as u64 + 1) as usize;
                let write = Spec::Write {
                    part: rng.below(PARTS as u64) as usize,
                    key: rng.below(KEYS as u64) as usize,
                    val: 0,
                };
                round.insert(at, write);
                round
            })
            .collect()
    }
}

impl Workload for CachedRw {
    type Spec = Spec;
    const NAME: &'static str = "cached-rw";
    const SLICE_ROUNDS: u64 = BLOCK_ROUNDS as u64;
    const COUNT_ROUNDS: u64 = BLOCK_ROUNDS as u64;

    fn build(seed: u64) -> Result<Self, String> {
        let model: Vec<Vec<i64>> = (0..PARTS)
            .map(|p| (0..KEYS).map(|k| initial_val(seed, p, k)).collect())
            .collect();
        let schema = Schema::from_pairs(&[
            ("k", DataType::Int),
            ("grp", DataType::Int),
            ("val", DataType::Int),
        ]);
        let mut remote = RelationalShim::new("pg_remote");
        for (p, vals) in model.iter().enumerate() {
            let rows: Vec<Row> = vals
                .iter()
                .enumerate()
                .map(|(k, &v)| {
                    vec![
                        Value::Int(k as i64),
                        Value::Int((k % GROUPS) as i64),
                        Value::Int(v),
                    ]
                })
                .collect();
            let batch = Batch::new(schema.clone(), rows).map_err(|e| e.to_string())?;
            remote
                .load_table(&format!("kv_{p}"), batch)
                .map_err(|e| e.to_string())?;
        }
        let mut bd = BigDawg::new();
        bd.add_engine(Box::new(RelationalShim::new("pg_local")));
        bd.add_engine(Box::new(LatencyShim::new(Box::new(remote), WIRE)));
        bd.refresh_catalog();
        // deterministic admission: every fault-free result is stored, and
        // only the entry budget (never the byte budget) evicts
        bd.set_result_cache(Some(CachePolicy {
            max_bytes: 64 << 20,
            max_entries: CACHE_ENTRIES,
            min_cost: Duration::ZERO,
            adaptive: false,
        }));
        front_door(&bd, seed, true);
        Ok(CachedRw {
            bd,
            model,
            period: Self::period(seed),
            round: 0,
            next_val: 1,
        })
    }

    fn warmed(&self, rounds: u64) -> bool {
        let entries = self.bd.cache_stats().map_or(0, |s| s.entries);
        entries >= CACHE_ENTRIES as u64 || rounds >= 10 * PERIOD_ROUNDS as u64
    }

    fn oracle(&mut self) {
        // the model is made from the seed before the data is loaded
    }

    fn bd(&self) -> &BigDawg {
        &self.bd
    }

    fn next_round(&mut self) -> Vec<Op<Spec>> {
        let specs = self.period[self.round % PERIOD_ROUNDS].clone();
        self.round += 1;
        specs
            .into_iter()
            .map(|spec| match spec {
                Spec::Read { part, group } => Op {
                    kind: Kind::Read,
                    query: read_query(part, group),
                    spec,
                },
                Spec::Write { part, key, .. } => {
                    let val = self.next_val;
                    self.next_val += 1;
                    Op {
                        kind: Kind::Write,
                        query: format!(
                            "RELATIONAL(UPDATE kv_{part} SET val = {val} WHERE k = {key})"
                        ),
                        spec: Spec::Write { part, key, val },
                    }
                }
            })
            .collect()
    }

    fn expected(&self, op: &Op<Spec>) -> Rc<Expected> {
        match op.spec {
            Spec::Read { part, group } => Rc::new(Expected {
                columns: vec!["k", "val"],
                rows: (group..KEYS)
                    .step_by(GROUPS)
                    .map(|k| vec![Value::Int(k as i64), Value::Int(self.model[part][k])])
                    .collect(),
            }),
            Spec::Write { .. } => one_row_affected(),
        }
    }

    fn acknowledge(&mut self, op: &Op<Spec>) {
        if let Spec::Write { part, key, val } = op.spec {
            self.model[part][key] = val;
        }
    }

    fn freshness_self_test(&mut self, op: &Op<Spec>, rows: &[Row]) -> Result<(), String> {
        let Spec::Read { part, group } = op.spec else {
            return Ok(());
        };
        // pretend a write to the group's first key was acknowledged after
        // the answer was read: the answer is now stale and must be refused
        let before = self.model[part][group];
        self.model[part][group] = self.next_val;
        let names = ["k", "val"];
        let stale = crate::workload::compare(&names, rows, &self.expected(op));
        self.model[part][group] = before;
        match stale {
            Err(_) => Ok(()),
            Ok(()) => Err(format!("{}: a stale answer passed the check", op.query)),
        }
    }

    fn layers(&self) -> Layers {
        Layers {
            sources: vec!["pg_remote"],
            wide: ("pg_remote", "kv_0"),
            coordinator: "pg_local",
            objects: (0..PARTS).map(|p| format!("kv_{p}")).collect(),
            probe_write: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_counts_are_exact_and_skewed() {
        let c = zipf_counts(900);
        assert_eq!(c.len(), POOL);
        assert_eq!(c.iter().sum::<usize>(), 900);
        assert!(c[0] > c[1] && c[1] > c[10]);
    }

    #[test]
    fn every_seed_reads_the_same_multiset() {
        let count = |seed| {
            let mut n = vec![0usize; POOL];
            for round in CachedRw::period(seed) {
                assert_eq!(round.len(), READS_PER_ROUND + 1);
                for s in round {
                    if let Spec::Read { part, group } = s {
                        n[group * PARTS + part] += 1;
                    }
                }
            }
            n
        };
        assert_eq!(count(1), count(2));
    }
}
