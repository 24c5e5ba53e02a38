//! What every workload provides, and the answer checks they share.

use bigdawg_common::{Batch, Row, Value};
use bigdawg_core::{AdmissionConfig, BigDawg, RetryPolicy};
use std::rc::Rc;
use std::time::Duration;

/// Whether an operation reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
}

/// One operation a client sends: a SCOPE query plus what the workload needs
/// to know the right answer.
#[derive(Debug, Clone)]
pub struct Op<S> {
    pub kind: Kind,
    pub query: String,
    pub spec: S,
}

/// The answer an operation must return, computed by the benchmark alone.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub columns: Vec<&'static str>,
    pub rows: Vec<Row>,
}

/// The acknowledgement every single-row write returns.
pub fn one_row_affected() -> Rc<Expected> {
    Rc::new(Expected {
        columns: vec!["rows_affected"],
        rows: vec![vec![Value::Int(1)]],
    })
}

/// Where the traced run times single layers outside the query path.
pub struct Layers {
    /// Engines whose requests count as leaf requests.
    pub sources: Vec<&'static str>,
    /// The engine holding the workload's widest source object, and the
    /// object: the table a full CAST, a `get_table` and the codec move.
    pub wide: (&'static str, &'static str),
    /// Engine the gathers run on: where a full CAST lands.
    pub coordinator: &'static str,
    /// Catalog objects the read queries name (placement epochs are read).
    pub objects: Vec<String>,
    /// A write whose answer is one affected row and which changes no value,
    /// for workloads whose rounds hold no write.
    pub probe_write: Option<String>,
}

/// A workload: a federation, its data, the operations a client sends, and
/// an oracle for their answers that shares no code with the program.
pub trait Workload: Sized {
    type Spec: Clone;
    /// Name on the command line.
    const NAME: &'static str;
    /// Rounds the traced run counts cache events over, so the counts are
    /// taken over the same operations on every run of a seed.
    const COUNT_ROUNDS: u64 = 1;
    /// Rounds per slice of a timed run: throughput and CPU per operation
    /// are medians over slices.
    const SLICE_ROUNDS: u64;

    /// Build the federation and load its data.
    fn build(seed: u64) -> Result<Self, String>;
    /// True once warm-up, run in whole rounds after [`Workload::build`],
    /// has filled the caches the timed run relies on.
    fn warmed(&self, rounds: u64) -> bool;
    /// Compute the benchmark's own expectations (not timed as set-up).
    fn oracle(&mut self);
    fn bd(&self) -> &BigDawg;
    /// The next round; every round has the same length and mix.
    fn next_round(&mut self) -> Vec<Op<Self::Spec>>;
    /// The answer `op` must return now.
    fn expected(&self, op: &Op<Self::Spec>) -> Rc<Expected>;
    /// Record an acknowledged write in the benchmark's model.
    fn acknowledge(&mut self, _op: &Op<Self::Spec>) {}
    /// Show that a fresh answer to `op` would be rejected after a later
    /// write; `Ok` where the workload does not write.
    fn freshness_self_test(&mut self, _op: &Op<Self::Spec>, _rows: &[Row]) -> Result<(), String> {
        Ok(())
    }
    fn layers(&self) -> Layers;
}

/// Check an answer and, for a write, record it: the one path every
/// operation's result takes.
pub fn check<W: Workload>(w: &mut W, op: &Op<W::Spec>, out: &Batch) -> Result<(), String> {
    let names = out.schema().names();
    compare(&names, out.rows(), &w.expected(op)).map_err(|e| format!("{}: {e}", op.query))?;
    if op.kind == Kind::Write {
        w.acknowledge(op);
    }
    Ok(())
}

/// Cell-by-cell comparison. Integers must match exactly; a float matches
/// within a relative 1e-9 (engines may sum in another order).
pub fn compare(names: &[&str], rows: &[Row], want: &Expected) -> Result<(), String> {
    if names != want.columns.as_slice() {
        return Err(format!("columns {names:?}, expected {:?}", want.columns));
    }
    if rows.len() != want.rows.len() {
        return Err(format!("{} rows, expected {}", rows.len(), want.rows.len()));
    }
    for (r, (got, exp)) in rows.iter().zip(&want.rows).enumerate() {
        for (c, (g, e)) in got.iter().zip(exp).enumerate() {
            if !same(g, e) {
                return Err(format!(
                    "row {r} column {}: {g:?}, expected {e:?}",
                    want.columns[c]
                ));
            }
        }
        if got.len() != exp.len() {
            return Err(format!("row {r} has {} cells", got.len()));
        }
    }
    Ok(())
}

fn same(got: &Value, want: &Value) -> bool {
    match (got, want) {
        (Value::Int(a), Value::Int(b)) => a == b,
        (Value::Float(_) | Value::Int(_), Value::Float(_) | Value::Int(_)) => {
            let (a, b) = (num(got), num(want));
            (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
        }
        _ => got == want,
    }
}

fn num(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        _ => f64::NAN,
    }
}

/// `rows` with the cell at (`row`, `col`) made wrong.
pub fn corrupt(rows: &[Row], row: usize, col: usize) -> Vec<Row> {
    let mut out = rows.to_vec();
    let cell = &mut out[row][col];
    *cell = match cell {
        Value::Int(i) => Value::Int(*i + 1),
        Value::Float(f) => Value::Float(*f + 1.0 + f.abs() * 1e-3),
        Value::Text(s) => Value::Text(format!("{s}x")),
        Value::Bool(b) => Value::Bool(!*b),
        Value::Timestamp(t) => Value::Timestamp(*t + 1),
        _ => Value::Int(0),
    };
    out
}

/// Run the first round's operations and show that the check accepts each
/// real answer and rejects it with any one cell wrong, with its last row
/// missing, or with a row repeated. The round counts as warm-up: it is not
/// timed.
pub fn self_test<W: Workload>(w: &mut W) -> Result<usize, String> {
    let mut rejected = 0;
    for op in w.next_round() {
        let out = w.bd().execute(&op.query).map_err(|e| e.to_string())?;
        let names = out.schema().names();
        let rows = out.rows().to_vec();
        let want = w.expected(&op);
        compare(&names, &rows, &want).map_err(|e| format!("{}: {e}", op.query))?;
        if rows.is_empty() {
            return Err(format!("{}: self-test needs a non-empty answer", op.query));
        }
        let mid = rows.len() / 2;
        let mut wrong: Vec<Vec<Row>> = (0..names.len()).map(|c| corrupt(&rows, mid, c)).collect();
        wrong.push(rows[..rows.len() - 1].to_vec());
        let mut repeated = rows.clone();
        repeated.push(rows[mid].clone());
        wrong.push(repeated);
        for bad in &wrong {
            if compare(&names, bad, &want).is_ok() {
                return Err(format!("{}: the check accepted a wrong answer", op.query));
            }
            rejected += 1;
        }
        if op.kind == Kind::Read {
            w.freshness_self_test(&op, &rows)?;
        } else {
            w.acknowledge(&op);
        }
    }
    Ok(rejected)
}

/// The settings a deployment puts in front of the executor: a per-query
/// deadline, the admission gate and the standard retry policy.
pub fn front_door(bd: &BigDawg, seed: u64, on: bool) {
    if on {
        bd.set_deadline(Some(Duration::from_secs(1)));
        bd.set_admission(Some(AdmissionConfig::default()));
        bd.set_retry_policy(RetryPolicy::standard(seed));
    } else {
        bd.set_deadline(None);
        bd.set_admission(None);
        bd.set_retry_policy(RetryPolicy::none());
    }
}

/// A small deterministic generator (SplitMix64) for workload inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5851_F42D_4C95_7F2D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer() -> Expected {
        Expected {
            columns: vec!["id", "v", "site"],
            rows: vec![
                vec![Value::Int(1), Value::Float(0.5), Value::Text("a".into())],
                vec![Value::Int(2), Value::Float(1e6), Value::Text("b".into())],
            ],
        }
    }

    #[test]
    fn compare_accepts_the_answer_and_float_rounding() {
        let want = answer();
        let mut rows = want.rows.clone();
        rows[1][1] = Value::Float(1e6 * (1.0 + 1e-12));
        assert!(compare(&want.columns, &rows, &want).is_ok());
    }

    #[test]
    fn compare_rejects_any_one_wrong_cell() {
        let want = answer();
        for r in 0..2 {
            for c in 0..3 {
                let bad = corrupt(&want.rows, r, c);
                assert!(compare(&want.columns, &bad, &want).is_err(), "({r}, {c})");
            }
        }
        assert!(compare(&want.columns, &want.rows[..1], &want).is_err());
        assert!(compare(&["id", "v", "x"], &want.rows, &want).is_err());
    }

    #[test]
    fn rng_is_deterministic() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }
}
