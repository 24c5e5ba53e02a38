//! `fanout-inproc`: the five-engine E11 query on the in-process demo
//! federation at its tiny scale. Four CAST leaves (SciDB, TileDB,
//! Tupleware, Accumulo) each push an aggregate down to their engine and
//! the relational engine joins the four one-row results. Each leaf's
//! engine work takes tens of microseconds, so the fixed per-query cost of
//! parsing, planning, scatter threads and temporaries dominates.

use crate::workload::{Expected, Kind, Layers, Op, Workload};
use bigdawg_bench::setup::{demo_polystore, Demo, DemoConfig};
use bigdawg_common::Value;
use bigdawg_core::BigDawg;
use bigdawg_mimic::{generate, plant_anomalies, MimicConfig, WaveformGen};
use std::rc::Rc;

/// The E11 query, unchanged.
pub const QUERY: &str = "RELATIONAL(\
    SELECT w.avg_v AS wave_avg, t.sum AS tile_sum, u.result AS stay_sum, n.docs AS note_docs \
    FROM CAST(SCIDB(aggregate(waveform_0, avg, v)), relation) w \
    JOIN CAST(TILEDB(sum(waveform_tiles)), relation) t ON 1 = 1 \
    JOIN CAST(TUPLEWARE(run compiled sum(c1) from age_stay), relation) u ON 1 = 1 \
    JOIN CAST(ACCUMULO(count()), relation) n ON 1 = 1)";

/// Rounds of warm-up before the first timed query.
const WARM_ROUNDS: u64 = 100;

pub struct Fanout {
    demo: Demo,
    expected: Option<Rc<Expected>>,
}

fn config(seed: u64) -> DemoConfig {
    DemoConfig {
        seed,
        ..DemoConfig::tiny()
    }
}

/// The answer computed from the MIMIC generator alone: the mean of
/// patient 0's waveform, the sum of the regridded waveform matrix, the sum
/// of stay days over the dense (age, stay) rows, and the note count.
pub fn oracle_answer(cfg: &DemoConfig) -> Expected {
    let data = generate(&MimicConfig {
        seed: cfg.seed,
        patients: cfg.patients,
        ..MimicConfig::default()
    });
    let samples = cfg.waveform_samples as u64;
    let wave = |pid: u64| {
        let events = plant_anomalies(
            cfg.seed,
            pid,
            samples,
            cfg.anomalies_per_patient,
            500,
            2_000,
        );
        WaveformGen::new(cfg.seed, pid, 125.0, events)
    };
    let w0 = wave(0);
    let wave_avg = (0..samples).map(|i| w0.sample(i)).sum::<f64>() / samples as f64;
    // the matrix holds 256 columns per patient, sampled every `step`
    let step = (samples / 256).max(1);
    let tile_sum: f64 = (0..cfg.waveform_patients)
        .map(|pid| {
            let w = wave(pid);
            (0..256u64).map(|c| w.sample(c * step)).sum::<f64>()
        })
        .sum();
    let stay_sum: f64 = data
        .admissions
        .iter()
        .take(data.patients.len())
        .map(|a| a.stay_days)
        .sum();
    Expected {
        columns: vec!["wave_avg", "tile_sum", "stay_sum", "note_docs"],
        rows: vec![vec![
            Value::Float(wave_avg),
            Value::Float(tile_sum),
            Value::Float(stay_sum),
            Value::Int(data.notes.len() as i64),
        ]],
    }
}

impl Workload for Fanout {
    type Spec = ();
    const NAME: &'static str = "fanout-inproc";
    const SLICE_ROUNDS: u64 = 1_000;

    fn build(seed: u64) -> Result<Self, String> {
        let demo = demo_polystore(config(seed)).map_err(|e| e.to_string())?;
        Ok(Fanout {
            demo,
            expected: None,
        })
    }

    fn warmed(&self, rounds: u64) -> bool {
        rounds >= WARM_ROUNDS
    }

    fn oracle(&mut self) {
        self.expected = Some(Rc::new(oracle_answer(&self.demo.config)));
    }

    fn bd(&self) -> &BigDawg {
        &self.demo.bd
    }

    fn next_round(&mut self) -> Vec<Op<()>> {
        vec![Op {
            kind: Kind::Read,
            query: QUERY.to_string(),
            spec: (),
        }]
    }

    fn expected(&self, _op: &Op<()>) -> Rc<Expected> {
        self.expected
            .clone()
            .expect("oracle() runs before any check")
    }

    fn layers(&self) -> Layers {
        Layers {
            sources: vec!["scidb", "tiledb", "tupleware", "accumulo"],
            wide: ("scidb", "waveform_0"),
            coordinator: "postgres",
            objects: ["waveform_0", "waveform_tiles", "age_stay"]
                .map(String::from)
                .to_vec(),
            probe_write: Some("RELATIONAL(UPDATE patients SET age = age WHERE id = 0)".into()),
        }
    }
}
