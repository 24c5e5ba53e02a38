//! Set-up and the closed loop: one client thread that waits for each
//! answer, checks it, and only then sends the next operation.

use crate::stats::{median, ms, process_cpu};
use crate::workload::{check, Kind, Layers, Workload};
use bigdawg_common::metrics::labeled;
use bigdawg_core::{BigDawg, CacheStats};
use std::time::{Duration, Instant};

/// Set-ups per run, at least; the run reports their median, and the timed
/// run rotates over the last this many federations.
pub const SETUP_REPS: usize = 5;
/// More set-ups run while their total stays under this many seconds, so a
/// quick set-up is timed often enough for its median to repeat.
const SETUP_SECONDS: f64 = 1.0;

/// Build the federation, load it and warm it up at least `SETUP_REPS`
/// times. Returns the last `SETUP_REPS` federations, oldest first, with
/// each set-up's time in seconds. Warm-up answers are not checked (the
/// oracle is not built yet), but its writes are recorded, so every later
/// answer is checked against the whole history.
pub fn setup<W: Workload>(seed: u64) -> Result<(Vec<W>, Vec<f64>), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut kept: Vec<W> = Vec::new();
    while times.len() < SETUP_REPS || times.iter().sum::<f64>() < SETUP_SECONDS {
        if kept.len() == SETUP_REPS {
            drop(kept.remove(0));
        }
        let started = Instant::now();
        let mut w = W::build(seed)?;
        let mut rounds = 0;
        while !w.warmed(rounds) {
            for op in w.next_round() {
                w.bd()
                    .execute(&op.query)
                    .map_err(|e| format!("warm-up {}: {e}", op.query))?;
                if op.kind == Kind::Write {
                    w.acknowledge(&op);
                }
            }
            rounds += 1;
        }
        times.push(started.elapsed().as_secs_f64());
        kept.push(w);
    }
    for w in &mut kept {
        w.oracle();
    }
    Ok((kept, times))
}

/// What one closed-loop run measured.
#[derive(Debug, Default)]
pub struct Timed {
    /// Latency of each read, in ms.
    pub reads: Vec<f64>,
    /// Latency of each write, in ms.
    pub writes: Vec<f64>,
    /// Latency of each read the result cache did not serve, in ms.
    pub recompute: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Sum of operation latencies: the client's busy time.
    pub busy: Duration,
    /// System CPU time spent inside operations.
    pub sys: Duration,
    /// Bytes across the emulated wire.
    pub wire_bytes: u64,
    /// Requests the leaf engines served.
    pub requests: u64,
    /// Cache events over the first `W::COUNT_ROUNDS` rounds of the first
    /// federation, and the reads among them.
    pub counted: Option<(CacheStats, u64)>,
    /// Per slice of `W::SLICE_ROUNDS` rounds: operations completed, busy
    /// time and CPU time.
    pub slices: Vec<Slice>,
}

#[derive(Debug, Default, Clone, Copy)]
pub struct Slice {
    /// The federation the slice ran on.
    pub fed: usize,
    pub completed: u64,
    pub busy: Duration,
    pub cpu: Duration,
}

impl Timed {
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// `per_slice` of each federation's slices, the median per federation
    /// and the mean over federations: a slice a neighbour's burst slowed
    /// does not move it, and neither does the state one federation's
    /// history happened to steer it into.
    fn over_slices(&self, per_slice: impl Fn(&Slice) -> f64) -> f64 {
        let feds = self.slices.iter().map(|s| s.fed + 1).max().unwrap_or(0);
        let medians: Vec<f64> = (0..feds)
            .map(|fed| {
                let v: Vec<f64> = self
                    .slices
                    .iter()
                    .filter(|s| s.fed == fed && s.completed > 0)
                    .map(&per_slice)
                    .collect();
                median(&v)
            })
            .collect();
        medians.iter().sum::<f64>() / medians.len() as f64
    }

    /// Operations per busy second.
    pub fn qps(&self) -> f64 {
        self.over_slices(|s| s.completed as f64 / s.busy.as_secs_f64())
    }

    /// CPU ms per operation.
    pub fn cpu_ms_per_op(&self) -> f64 {
        self.over_slices(|s| ms(s.cpu) / s.completed as f64)
    }
}

/// Requests the given engines have served so far, of every kind.
pub fn requests(bd: &BigDawg, engines: &[&str]) -> u64 {
    let m = bd.metrics();
    engines
        .iter()
        .flat_map(|e| {
            ["read", "write", "drop", "native"].map(|op| {
                m.counter_value(&labeled(
                    "bigdawg_engine_ops_total",
                    &[("engine", e), ("op", op)],
                ))
            })
        })
        .sum()
}

pub fn wire_bytes(bd: &BigDawg) -> u64 {
    bd.metrics().counter_value("bigdawg_wire_bytes_total")
}

fn hits(bd: &BigDawg) -> u64 {
    bd.cache_stats().map_or(0, |s| s.hits)
}

fn stats(bd: &BigDawg) -> CacheStats {
    bd.cache_stats().unwrap_or_default()
}

/// Run whole slices of `W::SLICE_ROUNDS` rounds, one federation after
/// another, until `seconds` have passed and every federation has run a
/// slice, checking every answer. A wrong answer ends the run with an
/// error; a failed operation is counted.
pub fn closed_loop<W: Workload>(
    ws: &mut [W],
    seconds: f64,
    layers: &Layers,
) -> Result<Timed, String> {
    let mut t = Timed::default();
    let sum = |ws: &[W], f: &dyn Fn(&BigDawg) -> u64| ws.iter().map(|w| f(w.bd())).sum::<u64>();
    let wire0 = sum(ws, &wire_bytes);
    let req0 = sum(ws, &|bd| requests(bd, &layers.sources));
    let stats0 = stats(ws[0].bd());
    let (mut rounds0, mut reads0) = (0, 0);
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds || t.slices.len() < ws.len() {
        let fed = t.slices.len() % ws.len();
        let w = &mut ws[fed];
        let mut slice = Slice {
            fed,
            ..Slice::default()
        };
        for _ in 0..W::SLICE_ROUNDS {
            for op in w.next_round() {
                t.attempted += 1;
                let hits0 = hits(w.bd());
                let (u0, s0) = process_cpu();
                let op_started = Instant::now();
                let out = w.bd().execute(&op.query);
                let elapsed = op_started.elapsed();
                let (u1, s1) = process_cpu();
                match out {
                    Ok(batch) => check(w, &op, &batch)?,
                    Err(e) => {
                        if t.failed == 0 {
                            eprintln!("{}: operation failed: {e}", op.query);
                        }
                        t.failed += 1;
                        continue;
                    }
                }
                let cpu = (u1 + s1).saturating_sub(u0 + s0);
                t.busy += elapsed;
                slice.completed += 1;
                slice.busy += elapsed;
                slice.cpu += cpu;
                t.sys += s1.saturating_sub(s0);
                match op.kind {
                    Kind::Read => {
                        t.reads.push(ms(elapsed));
                        if fed == 0 && rounds0 < W::COUNT_ROUNDS {
                            reads0 += 1;
                        }
                        if hits(w.bd()) == hits0 {
                            t.recompute.push(ms(elapsed));
                        }
                    }
                    Kind::Write => t.writes.push(ms(elapsed)),
                }
            }
            if fed == 0 {
                rounds0 += 1;
                if rounds0 == W::COUNT_ROUNDS {
                    let s = stats(w.bd());
                    let delta = CacheStats {
                        hits: s.hits - stats0.hits,
                        misses: s.misses - stats0.misses,
                        stale_drops: s.stale_drops - stats0.stale_drops,
                        evictions: s.evictions - stats0.evictions,
                        ..CacheStats::default()
                    };
                    t.counted = Some((delta, reads0));
                }
            }
        }
        t.slices.push(slice);
    }
    t.wire_bytes = sum(ws, &wire_bytes) - wire0;
    t.requests = sum(ws, &|bd| requests(bd, &layers.sources)) - req0;
    Ok(t)
}
