//! `wire-scan`: filtered, projected scans of a wide table on a remote
//! engine behind the emulated wire, at several selectivities; one query in
//! four also joins a table on a second remote engine. Bytes, round-trips
//! and the leaf's pushed-down filter dominate.

use crate::workload::{Expected, Kind, Layers, Op, Rng, Workload};
use bigdawg_common::{Batch, DataType, Row, Schema, Value};
use bigdawg_core::shims::{LatencyShim, RelationalShim};
use bigdawg_core::BigDawg;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

/// Rows of the wide `readings` table.
pub const ROWS: i64 = 10_000;
/// Rows of the `sensors` table the joins read.
pub const SENSORS: i64 = 64;
/// Emulated one-way wire latency of both remote engines.
pub const WIRE: Duration = Duration::from_millis(2);
/// One round: `(join, threshold)` per query. `v` is uniform over 0..100, so
/// `v >= t` keeps `100 - t` percent of the rows. Three scans at 10% sit
/// between the cheaper 1% scans and the dearer 25% scan and joins, so the
/// median latency falls inside one group of identical queries.
pub const ROUND: [(bool, i64); 8] = [
    (false, 99),
    (false, 99),
    (false, 90),
    (false, 90),
    (false, 90),
    (false, 75),
    (true, 95),
    (true, 95),
];
/// Rounds of warm-up before the first timed query.
const WARM_ROUNDS: u64 = 2;

/// The generation formula, fixed by the seed.
#[derive(Debug, Clone, Copy)]
pub struct Formula {
    v_mul: i64,
    v_add: i64,
    sid_mul: i64,
    sid_add: i64,
    tag: i64,
}

impl Formula {
    pub fn new(seed: u64) -> Self {
        // multipliers coprime to 100 and 64 make every value of `v` and of
        // the sensor id occur equally often, whatever the seed
        const V_MULS: [i64; 8] = [1, 3, 7, 9, 11, 13, 17, 19];
        let mut rng = Rng::new(seed);
        Formula {
            v_mul: V_MULS[rng.below(8) as usize],
            v_add: rng.below(100) as i64,
            sid_mul: 2 * rng.below(32) as i64 + 1,
            sid_add: rng.below(64) as i64,
            tag: rng.below(10_000) as i64,
        }
    }

    pub fn v(&self, id: i64) -> i64 {
        (id * self.v_mul + self.v_add) % 100
    }

    pub fn sid(&self, id: i64) -> i64 {
        (id * self.sid_mul + self.sid_add) % SENSORS
    }

    pub fn site(&self, sid: i64) -> String {
        format!("site-{sid:02}-{:04}", (sid * 37 + self.tag) % 10_000)
    }

    pub fn readings(&self) -> Batch {
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("v", DataType::Int),
            ("a", DataType::Int),
            ("b", DataType::Float),
            ("note", DataType::Text),
        ]);
        let rows = (0..ROWS)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(self.v(i)),
                    Value::Int(self.sid(i)),
                    Value::Float((i % 97) as f64 + 0.25),
                    Value::Text(format!("reading {i:06} from bank {:02}", i % 8)),
                ]
            })
            .collect();
        Batch::new(schema, rows).expect("rows match the schema")
    }

    pub fn sensors(&self) -> Batch {
        let schema = Schema::from_pairs(&[("sid", DataType::Int), ("site", DataType::Text)]);
        let rows = (0..SENSORS)
            .map(|s| vec![Value::Int(s), Value::Text(self.site(s))])
            .collect();
        Batch::new(schema, rows).expect("rows match the schema")
    }

    /// The answer of one round entry, straight from the formula.
    pub fn answer(&self, join: bool, threshold: i64) -> Expected {
        let ids = (0..ROWS).filter(|&i| self.v(i) >= threshold);
        if join {
            Expected {
                columns: vec!["id", "v", "site"],
                rows: ids
                    .map(|i| {
                        vec![
                            Value::Int(i),
                            Value::Int(self.v(i)),
                            Value::Text(self.site(self.sid(i))),
                        ]
                    })
                    .collect(),
            }
        } else {
            Expected {
                columns: vec!["id", "v"],
                rows: ids
                    .map(|i| vec![Value::Int(i), Value::Int(self.v(i))])
                    .collect::<Vec<Row>>(),
            }
        }
    }
}

pub fn query(join: bool, threshold: i64) -> String {
    if join {
        format!(
            "RELATIONAL(SELECT r.id, r.v, s.site FROM CAST(readings, pg_local) r \
             JOIN CAST(sensors, pg_local) s ON r.a = s.sid WHERE r.v >= {threshold} ORDER BY r.id)"
        )
    } else {
        format!(
            "RELATIONAL(SELECT id, v FROM CAST(readings, pg_local) WHERE v >= {threshold} ORDER BY id)"
        )
    }
}

pub struct WireScan {
    bd: BigDawg,
    formula: Formula,
    round: Vec<(bool, i64)>,
    answers: HashMap<(bool, i64), Rc<Expected>>,
}

impl Workload for WireScan {
    type Spec = (bool, i64);
    const NAME: &'static str = "wire-scan";
    const SLICE_ROUNDS: u64 = 4;

    fn build(seed: u64) -> Result<Self, String> {
        let formula = Formula::new(seed);
        let err = |e: bigdawg_common::BigDawgError| e.to_string();
        let mut bd = BigDawg::new();
        bd.add_engine(Box::new(RelationalShim::new("pg_local")));
        let mut remote = RelationalShim::new("pg_remote");
        remote
            .load_table("readings", formula.readings())
            .map_err(err)?;
        bd.add_engine(Box::new(LatencyShim::new(Box::new(remote), WIRE)));
        let mut remote2 = RelationalShim::new("pg_remote2");
        remote2
            .load_table("sensors", formula.sensors())
            .map_err(err)?;
        bd.add_engine(Box::new(LatencyShim::new(Box::new(remote2), WIRE)));
        bd.refresh_catalog();
        let mut round = ROUND.to_vec();
        Rng::new(seed ^ 0x5CA1).shuffle(&mut round);
        Ok(WireScan {
            bd,
            formula,
            round,
            answers: HashMap::new(),
        })
    }

    fn warmed(&self, rounds: u64) -> bool {
        rounds >= WARM_ROUNDS
    }

    fn oracle(&mut self) {
        for &(join, t) in &ROUND {
            self.answers
                .entry((join, t))
                .or_insert_with(|| Rc::new(self.formula.answer(join, t)));
        }
    }

    fn bd(&self) -> &BigDawg {
        &self.bd
    }

    fn next_round(&mut self) -> Vec<Op<(bool, i64)>> {
        self.round
            .iter()
            .map(|&(join, t)| Op {
                kind: Kind::Read,
                query: query(join, t),
                spec: (join, t),
            })
            .collect()
    }

    fn expected(&self, op: &Op<(bool, i64)>) -> Rc<Expected> {
        self.answers[&op.spec].clone()
    }

    fn layers(&self) -> Layers {
        Layers {
            sources: vec!["pg_remote", "pg_remote2"],
            wide: ("pg_remote", "readings"),
            coordinator: "pg_local",
            objects: vec!["readings".into(), "sensors".into()],
            probe_write: Some("RELATIONAL(UPDATE sensors SET site = site WHERE sid = 0)".into()),
        }
    }
}
