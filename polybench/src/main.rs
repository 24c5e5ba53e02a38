//! The polystore benchmark.
//!
//! ```text
//! polybench --workload <fanout-inproc|wire-scan|cached-rw> --seed <n>
//!           --seconds <s> --trace <0|1>
//! polybench --self-test
//! ```
//!
//! One closed-loop client drives the public `BigDawg` API. With
//! `--trace 0` the run prints the end-to-end metrics; with `--trace 1` it
//! prints the per-layer ledger (see `ledger.rs`) and writes its spans to
//! `polybench/out/spans-<workload>-<seed>.jsonl`. The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! A wrong answer, or a check that fails to reject a wrong answer, exits
//! with code 1.

mod cachedrw;
mod drive;
mod fanout;
mod ledger;
mod stats;
mod wirescan;
mod workload;

use cachedrw::CachedRw;
use drive::{closed_loop, setup};
use fanout::Fanout;
use ledger::Metrics;
use stats::{median, quantile};
use std::process::ExitCode;
use wirescan::WireScan;
use workload::{self_test, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            return Ok(None);
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("a whole number"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("within (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

/// The last line of a run.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A timing with the highest percentile that has at least ten samples
/// beyond it, and the sample count.
fn tail(label: &str, samples: &[f64]) -> String {
    let n = samples.len();
    let p50 = median(samples);
    let tail = [0.999, 0.99, 0.9]
        .into_iter()
        .find(|q| (n as f64 * (1.0 - q)) >= 10.0);
    match tail {
        Some(q) => format!(
            "{label} p50 {p50:.4} ms, p{} {:.4} ms (n={n})",
            q * 100.0,
            quantile(samples, q)
        ),
        None => format!("{label} p50 {p50:.4} ms (n={n})"),
    }
}

fn run<W: Workload>(args: &Args) -> Result<(u64, u64, Metrics), String> {
    let (mut ws, setups) = setup::<W>(args.seed)?;
    let rejected = self_test(&mut ws[0])?;
    let layers = ws[0].layers();
    println!(
        "{} seed {}: set-up {:.4} s (median of {} set-ups); self-test rejected {rejected} wrong answers",
        W::NAME,
        args.seed,
        median(&setups),
        setups.len()
    );
    if args.trace {
        let path = format!("polybench/out/spans-{}-{}.jsonl", W::NAME, args.seed);
        let (m, attempted, failed) = ledger::traced(&mut ws[0], args.seed, args.seconds, &path)?;
        for (name, (value, unit)) in &m {
            println!("  {name:<28} {value:>12.4} {unit}");
        }
        return Ok((attempted, failed, m));
    }
    let t = closed_loop(&mut ws, args.seconds, &layers)?;
    let done = t.completed().max(1) as f64;
    println!(
        "{} operations ({} reads, {} writes) in {} slices, {} failed, busy {:.3} s",
        t.attempted,
        t.reads.len(),
        t.writes.len(),
        t.slices.len(),
        t.failed,
        t.busy.as_secs_f64()
    );
    println!("{}", tail("read", &t.reads));
    if !t.writes.is_empty() {
        println!("{}", tail("write", &t.writes));
    }
    println!(
        "wire {:.4} KiB/op, leaf requests {:.4}/op",
        t.wire_bytes as f64 / 1024.0 / done,
        t.requests as f64 / done
    );
    let mut m = Metrics::new();
    m.insert("setup_s", (median(&setups), "s"));
    m.insert("qps", (t.qps(), "1/s"));
    m.insert("p50_ms", (median(&t.reads), "ms"));
    m.insert("cpu_ms_per_query", (t.cpu_ms_per_op(), "ms"));
    // only a workload with an engine behind the wire reports wire bytes
    if layers.sources.iter().any(|e| !ws[0].bd().co_resident(e)) {
        m.insert(
            "wire_kib_per_query",
            (t.wire_bytes as f64 / 1024.0 / done, "KiB"),
        );
    }
    Ok((t.attempted, t.failed, m))
}

/// Every workload's checks against real answers, at one seed and a short
/// run: the checks accept the answers and reject each corrupted one.
fn self_test_all() -> Result<(), String> {
    fn one<W: Workload>() -> Result<(), String> {
        let (mut ws, _) = setup::<W>(1)?;
        let rejected = self_test(&mut ws[0])?;
        let layers = ws[0].layers();
        let t = closed_loop(&mut ws, 0.5, &layers)?;
        println!(
            "{}: {rejected} wrong answers rejected; {} operations checked",
            W::NAME,
            t.completed()
        );
        Ok(())
    }
    one::<Fanout>()?;
    one::<WireScan>()?;
    one::<CachedRw>()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            return match self_test_all() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("self-test failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == Fanout::NAME {
        // In-process fan-out hands each query between threads on every
        // vCPU; confined to one CPU it measures the program's work rather
        // than the host's scheduling of the second vCPU.
        match stats::pin_to_one_cpu() {
            Ok(cpu) => println!("confined to CPU {cpu}"),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let outcome = match args.workload.as_str() {
        Fanout::NAME => run::<Fanout>(&args),
        WireScan::NAME => run::<WireScan>(&args),
        CachedRw::NAME => run::<CachedRw>(&args),
        other => {
            eprintln!("unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok((attempted, failed, metrics)) => {
            println!("{}", result_line(true, attempted, failed, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("wrong answer or broken run: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_check_rejects_wrong_answers() {
        super::self_test_all().unwrap();
    }
}
