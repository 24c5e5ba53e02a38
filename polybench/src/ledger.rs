//! The traced run: the per-layer ledger.
//!
//! Three phases on one federation:
//!
//! * **A, untraced.** The closed loop, as in an end-to-end run: read and
//!   recompute medians, CPU, leaf requests, cache events.
//! * **B, traced.** For each operation, the decomposed layer calls — parse,
//!   plan, `exec::run`, each leaf alone, its materialization, the gather,
//!   the temp drops, the placement epochs — and then the normal `execute`
//!   of the same query, each inside a span recorded by this file.
//! * **C, single layers.** Calls outside the query path: a remote
//!   `get_table`, a full-object CAST, the codec, a write, the cache probe
//!   and the front door.
//!
//! Whatever read time the critical-path layers do not claim is reported as
//! `exec.unattributed_us`; the traced minus the untraced read median is the
//! tracing overhead.

use crate::drive::{closed_loop, Timed};
use crate::stats::{median, ms, us};
use crate::workload::{check, compare, front_door, one_row_affected, Kind, Op, Workload};
use bigdawg_common::{Batch, Result as BdResult};
use bigdawg_core::exec::{self, LeafSource};
use bigdawg_core::{cast, plan, CachePolicy, CacheStatus, Transport};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded call.
struct Span {
    op: u64,
    id: u64,
    parent: u64,
    name: &'static str,
    start: Duration,
    end: Duration,
}

/// Spans kept in memory until the run ends.
struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// Time `f` as a span named `name` under `parent` (0 for a root).
    fn span<T>(
        &mut self,
        op: u64,
        parent: u64,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, u64, Duration) {
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            op,
            id,
            parent,
            name,
            start,
            end,
        });
        (out, id, end - start)
    }

    /// Open a root span whose end is set by [`Recorder::close`].
    fn open(&mut self, op: u64, name: &'static str) -> u64 {
        let (_, id, _) = self.span(op, 0, name, || ());
        id
    }

    fn close(&mut self, id: u64) {
        let end = self.origin.elapsed();
        self.spans[id as usize - 1].end = end;
    }

    fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"op\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.op,
                s.id,
                s.parent,
                s.name,
                us(s.start),
                us(s.end)
            );
        }
        out
    }
}

/// Per-read figures of the decomposed path.
#[derive(Default)]
struct Decomposed {
    parse: Vec<f64>,
    plan: Vec<f64>,
    run: Vec<f64>,
    leaf_max: Vec<f64>,
    leaf_sum: Vec<f64>,
    materialize: Vec<f64>,
    gather: Vec<f64>,
    drop: Vec<f64>,
    epoch: Vec<f64>,
    /// Parse + plan + slowest (leaf + materialize) + gather + drops.
    critical: Vec<f64>,
    execute: Vec<f64>,
    write: Vec<f64>,
}

fn err(e: bigdawg_common::BigDawgError) -> String {
    e.to_string()
}

/// The leaf's rows, read alone on its own engine's island: a nested query
/// runs its body; an object is read there with the pushed-down filter and
/// projection applied.
fn leaf_alone(bd: &bigdawg_core::BigDawg, leaf: &exec::Leaf) -> BdResult<Batch> {
    match &leaf.source {
        LeafSource::SubQuery(q) => {
            let ast = plan::parse_query(q)?;
            bd.island_execute(&ast.island, &ast.body.render())
        }
        LeafSource::Object(o) => {
            let engine = bd.locate(o)?;
            let cols = leaf
                .pushdown
                .columns
                .as_ref()
                .map_or("*".to_string(), |c| c.join(", "));
            let filter = leaf
                .pushdown
                .predicate
                .as_ref()
                .map_or(String::new(), |p| format!(" WHERE {p}"));
            bd.island_execute(&engine, &format!("SELECT {cols} FROM {o}{filter}"))
        }
    }
}

/// The decomposed read: every layer call the executor would make, one at a
/// time, each answer checked.
fn decompose<W: Workload>(
    w: &W,
    op: &Op<W::Spec>,
    objects: &[String],
    rec: &mut Recorder,
    id: u64,
    root: u64,
    d: &mut Decomposed,
) -> Result<(), String> {
    let bd = w.bd();
    let (ast, _, parse) = rec.span(id, root, "plan.parse", || plan::parse_query(&op.query));
    let ast = ast.map_err(err)?;
    let (p, _, planned) = rec.span(id, root, "plan.plan", || plan::plan_query(bd, &ast, true));
    let p = p.map_err(err)?;
    let (out, _, run) = rec.span(id, root, "exec.run", || exec::run(bd, &p));
    let ran = out.map_err(err)?;
    // a second plan names fresh temporaries for the one-call-at-a-time path
    let p = plan::plan_query(bd, &ast, true).map_err(err)?;
    let (mut leaf_max, mut leaf_sum, mut slowest) = (0.0f64, 0.0, 0.0f64);
    for leaf in &p.leaves {
        let (rows, _, t_leaf) = rec.span(id, root, "islands.leaf", || leaf_alone(bd, leaf));
        let rows = rows.map_err(err)?;
        let (m, _, t_mat) = rec.span(id, root, "cast.materialize", || {
            bd.materialize(rows, &leaf.target_engine, &leaf.temp, leaf.transport)
        });
        m.map_err(err)?;
        leaf_max = leaf_max.max(us(t_leaf));
        leaf_sum += us(t_leaf);
        slowest = slowest.max(us(t_leaf + t_mat));
        d.materialize.push(us(t_mat));
    }
    let (gathered, _, gather) = rec.span(id, root, "islands.gather", || {
        bd.island_execute(&p.island, &p.body)
    });
    let mut drops = 0.0;
    for leaf in &p.leaves {
        let (r, _, t) = rec.span(id, root, "catalog.drop", || bd.drop_object(&leaf.temp));
        r.map_err(err)?;
        drops += us(t);
        d.drop.push(us(t));
    }
    for o in objects {
        let (r, _, t) = rec.span(id, root, "catalog.epoch", || bd.placement_epoch(o));
        r.map_err(err)?;
        d.epoch.push(us(t));
    }
    let gathered = gathered.map_err(err)?;
    let want = w.expected(op);
    for (path, out) in [("exec::run", &ran), ("gather", &gathered)] {
        compare(&out.schema().names(), out.rows(), &want)
            .map_err(|e| format!("{} via {path}: {e}", op.query))?;
    }
    d.parse.push(us(parse));
    d.plan.push(us(planned));
    d.run.push(us(run));
    d.leaf_max.push(leaf_max);
    d.leaf_sum.push(leaf_sum);
    d.gather.push(us(gather));
    d.critical
        .push(us(parse) + us(planned) + slowest + us(gather) + drops);
    Ok(())
}

/// Median time of `n` calls of `f`, in ms; every call must succeed.
fn time_calls<T>(n: usize, mut f: impl FnMut() -> BdResult<T>) -> Result<f64, String> {
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        let started = Instant::now();
        f().map_err(err)?;
        v.push(ms(started.elapsed()));
    }
    Ok(median(&v))
}

/// A per-layer metric: value and unit.
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// Run the three phases for `seconds` in all. Returns every per-layer
/// metric and the operations attempted and failed in phases A and B; the
/// spans go to `spans_path`.
pub fn traced<W: Workload>(
    w: &mut W,
    seed: u64,
    seconds: f64,
    spans_path: &str,
) -> Result<(Metrics, u64, u64), String> {
    let layers = w.layers();

    // phase A: untraced
    let a: Timed = closed_loop(std::slice::from_mut(w), seconds * 0.4, &layers)?;
    let read_p50 = median(&a.reads);
    let recompute_p50 = median(&a.recompute);

    // phase B: traced
    let mut rec = Recorder {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let mut d = Decomposed::default();
    let started = Instant::now();
    let mut id = 0;
    while started.elapsed().as_secs_f64() < seconds * 0.4 {
        for op in w.next_round() {
            id += 1;
            let root = rec.open(
                id,
                if op.kind == Kind::Read {
                    "op.read"
                } else {
                    "op.write"
                },
            );
            if op.kind == Kind::Read {
                decompose(w, &op, &layers.objects, &mut rec, id, root, &mut d)?;
            } else {
                // the write alone on its island, then again through the
                // front door; both store the same value
                let ast = plan::parse_query(&op.query).map_err(err)?;
                let (r, _, t) = rec.span(id, root, "islands.write", || {
                    w.bd().island_execute(&ast.island, &ast.body.render())
                });
                let r = r.map_err(err)?;
                compare(&r.schema().names(), r.rows(), &one_row_affected())?;
                d.write.push(us(t));
            }
            let (out, _, t) = rec.span(id, root, "exec.execute", || w.bd().execute(&op.query));
            check(w, &op, &out.map_err(err)?)?;
            if op.kind == Kind::Read {
                d.execute.push(ms(t));
            }
            rec.close(root);
        }
    }

    // phase C: single layers
    let bd = w.bd();
    let (wide_engine, wide_object) = layers.wide;
    let get_table = time_calls(20, || bd.engine(wide_engine)?.lock().get_table(wide_object))?;
    let full_cast = time_calls(20, || {
        let temp = bd.temp_name();
        bd.cast_object(wide_object, layers.coordinator, &temp, Transport::Binary)?;
        bd.drop_object(&temp)
    })?;
    let wide = bd
        .engine(wide_engine)
        .map_err(err)?
        .lock()
        .get_table(wide_object)
        .map_err(err)?;
    let codec = time_calls(20, || cast::ship(&wide, Transport::Binary))?;
    let (write_us, write_p50) = match &layers.probe_write {
        Some(q) => {
            let ast = plan::parse_query(q).map_err(err)?;
            let body = ast.body.render();
            let alone = time_calls(50, || {
                let r = bd.island_execute(&ast.island, &body)?;
                compare(&r.schema().names(), r.rows(), &one_row_affected())
                    .map_err(bigdawg_common::BigDawgError::Internal)
            })?;
            let through = time_calls(50, || {
                let r = bd.execute(q)?;
                compare(&r.schema().names(), r.rows(), &one_row_affected())
                    .map_err(bigdawg_common::BigDawgError::Internal)
            })?;
            (alone * 1e3, through)
        }
        None => (median(&d.write), median(&a.writes)),
    };
    let (probe_us, front_door_us) = front_door_and_probe(w, seed)?;

    if let Some(dir) = std::path::Path::new(spans_path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(spans_path, rec.to_jsonl()).map_err(|e| format!("{spans_path}: {e}"))?;

    let per_op = |x: f64| x / a.completed().max(1) as f64;
    let (counts, reads) = a.counted.unwrap_or_default();
    let per_kread = |x: u64| x as f64 * 1e3 / reads.max(1) as f64;
    let mut m = Metrics::new();
    m.insert("plan.parse_us", (median(&d.parse), "us"));
    m.insert("plan.plan_us", (median(&d.plan), "us"));
    m.insert("exec.run_us", (median(&d.run), "us"));
    m.insert("islands.leaf_max_us", (median(&d.leaf_max), "us"));
    m.insert("islands.leaf_sum_us", (median(&d.leaf_sum), "us"));
    m.insert("cast.materialize_us", (median(&d.materialize), "us"));
    m.insert("catalog.drop_us", (median(&d.drop), "us"));
    m.insert("islands.gather_us", (median(&d.gather), "us"));
    m.insert(
        "exec.unattributed_us",
        (recompute_p50 * 1e3 - median(&d.critical), "us"),
    );
    m.insert("os.sys_cpu_ms_per_query", (per_op(ms(a.sys)), "ms"));
    m.insert("shims.get_table_ms", (get_table, "ms"));
    m.insert(
        "shims.requests_per_query",
        (per_op(a.requests as f64), "count"),
    );
    m.insert("cast.full_object_ms", (full_cast, "ms"));
    m.insert("cast.codec_ms", (codec, "ms"));
    m.insert(
        "exec.leaf_ms",
        (
            recompute_p50 - (median(&d.parse) + median(&d.plan) + median(&d.gather)) / 1e3,
            "ms",
        ),
    );
    m.insert("cache.probe_us", (probe_us, "us"));
    m.insert("catalog.epoch_us", (median(&d.epoch), "us"));
    m.insert("cache.hits_per_kread", (per_kread(counts.hits), "count"));
    m.insert(
        "cache.misses_per_kread",
        (per_kread(counts.misses), "count"),
    );
    m.insert(
        "cache.stale_per_kread",
        (per_kread(counts.stale_drops), "count"),
    );
    m.insert(
        "cache.evictions_per_kread",
        (per_kread(counts.evictions), "count"),
    );
    m.insert("cache.recompute_ms", (recompute_p50, "ms"));
    m.insert("admission.front_door_us", (front_door_us, "us"));
    m.insert("islands.write_us", (write_us, "us"));
    m.insert("exec.write_p50_ms", (write_p50, "ms"));
    m.insert(
        "trace.overhead_us",
        ((median(&d.execute) - read_p50) * 1e3, "us"),
    );
    println!(
        "traced {}: phase A {} ops (read p50 {:.4} ms, recompute p50 {:.4} ms over {} reads); \
         phase B {} reads, {} spans -> {spans_path}",
        W::NAME,
        a.attempted,
        read_p50,
        recompute_p50,
        a.recompute.len(),
        d.parse.len(),
        rec.spans.len()
    );
    Ok((m, a.attempted + id, a.failed))
}

/// `cache.probe_us` and `admission.front_door_us`, both on a cache hit of
/// the workload's first read. A workload without a cache gets one for the
/// measurement. The front door is the hit median with the deadline,
/// admission gate and retry policy installed minus the same with them
/// removed, in alternating pairs.
fn front_door_and_probe<W: Workload>(w: &mut W, seed: u64) -> Result<(f64, f64), String> {
    let op = w
        .next_round()
        .into_iter()
        .find(|op| op.kind == Kind::Read)
        .ok_or("a workload with no read")?;
    let had_cache = w.bd().result_cache().is_some();
    let had_front_door = w.bd().deadline().is_some();
    if !had_cache {
        w.bd().set_result_cache(Some(CachePolicy::admit_all()));
    }
    let out = w.bd().execute(&op.query).map_err(err)?;
    check(w, &op, &out)?;
    let ast = plan::parse_query(&op.query).map_err(err)?;
    let body = ast.body.render();
    let cache = w.bd().result_cache().expect("installed above");
    let status = cache.probe(w.bd(), &ast.island, &body);
    if status != CacheStatus::Hit {
        return Err(format!(
            "{}: expected a cache hit, the probe says {status}",
            op.query
        ));
    }
    let mut probes = Vec::with_capacity(500);
    for _ in 0..500 {
        let started = Instant::now();
        std::hint::black_box(cache.probe(w.bd(), &ast.island, &body));
        probes.push(us(started.elapsed()));
    }
    let (mut on, mut off) = (Vec::with_capacity(500), Vec::with_capacity(500));
    for _ in 0..500 {
        for (installed, into) in [(true, &mut on), (false, &mut off)] {
            front_door(w.bd(), seed, installed);
            let started = Instant::now();
            let out = w.bd().execute(&op.query).map_err(err)?;
            into.push(us(started.elapsed()));
            check(w, &op, &out)?;
        }
    }
    front_door(w.bd(), seed, had_front_door);
    if !had_cache {
        w.bd().set_result_cache(None);
    }
    Ok((median(&probes), median(&on) - median(&off)))
}
