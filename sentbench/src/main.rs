//! Sentinel end-to-end and per-layer benchmark.
//!
//! ```text
//! sentbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! sentbench --selftest
//! ```
//!
//! Workloads: `embedded_detect`, `wire_batch`, `durable_ingest`,
//! `oodb_txn` (see README.md). `--trace 0` measures the workload and
//! prints its end-to-end metrics; `--trace 1` measures it untraced, then
//! traced, prints both sets of end-to-end figures, and reports the
//! per-layer metrics derived from the benchmark's own spans. The last line
//! of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod catalog;
mod common;
mod detect;
mod durable;
mod oodb;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use common::{Outcome, Tracer};
use sentinel_core::obs::json;

#[global_allocator]
static ALLOC: common::CountingAlloc = common::CountingAlloc;

pub const WORKLOADS: [&str; 4] = ["embedded_detect", "wire_batch", "durable_ingest", "oodb_txn"];

/// Sizes and lengths of one pass.
#[derive(Clone)]
pub struct Cfg {
    pub seed: u64,
    /// Measured phase, seconds.
    pub seconds: f64,
    /// Unmeasured warm-up before it, seconds.
    pub warmup: f64,
    /// Disjoint components in the detection catalog.
    pub components: usize,
    /// Epoch templates in the seeded stream.
    pub epochs: usize,
    /// Set-ups per pass; `setup_s` is their median.
    pub setups: usize,
    /// Stream epochs ingested per `durable_ingest` cycle.
    pub durable_cycle: usize,
    /// Transactions per `oodb_txn` cycle.
    pub oodb_cycle: usize,
    /// Adds one to an oracle expectation (self-test of the checks).
    pub skew_oracle: bool,
}

impl Cfg {
    fn full(seed: u64, seconds: f64) -> Cfg {
        Cfg {
            seed,
            seconds,
            warmup: (seconds / 10.0).min(1.0),
            components: 16,
            epochs: 32,
            setups: 9,
            durable_cycle: 96,
            oodb_cycle: 8192,
            skew_oracle: false,
        }
    }

    fn quick(seed: u64) -> Cfg {
        Cfg {
            seconds: 0.3,
            warmup: 0.05,
            components: 4,
            epochs: 4,
            setups: 2,
            durable_cycle: 8,
            oodb_cycle: 256,
            ..Cfg::full(seed, 1.0)
        }
    }
}

fn run_pass(workload: &str, cfg: &Cfg, traced: bool, data: &Path) -> Outcome {
    // Fast workloads trace one operation in 8 to bound the span memory.
    let tracer = traced.then(|| Arc::new(Tracer::new(if workload == "oodb_txn" { 1 } else { 8 })));
    common::set_alloc_counting(traced);
    let mut out = match workload {
        "embedded_detect" => detect::embedded(cfg, tracer.as_deref()),
        "wire_batch" => detect::wire(cfg, tracer.as_deref()),
        "durable_ingest" => durable::run(cfg, tracer.as_deref(), data),
        "oodb_txn" => oodb::run(cfg, tracer.clone()),
        other => panic!("unknown workload `{other}`"),
    };
    common::set_alloc_counting(false);
    if traced {
        let parse_us = if workload == "oodb_txn" {
            catalog::parse_us(&oodb::SOURCES.map(|(_, src)| src))
        } else {
            catalog::parse_us(&catalog::sources(cfg.components))
        };
        out.layer.push(("snoop.parse_us", parse_us, "us"));
    }
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    selftest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, selftest: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = val()? == "1",
            "--selftest" => a.selftest = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !a.selftest && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sentbench: {e}");
            std::process::exit(2);
        }
    };
    let data = PathBuf::from(".sentbench_data").join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&data);
    let code = if args.selftest { selftest(&data) } else { measure(&args, &data) };
    let _ = std::fs::remove_dir_all(&data);
    std::process::exit(code);
}

fn print_metrics(prefix: &str, metrics: &[(&str, f64, &str)]) {
    for (name, value, unit) in metrics {
        println!("{prefix} {name} = {value} {unit}");
    }
}

fn report_errors(workload: &str, out: &Outcome) {
    for e in &out.errors {
        eprintln!("sentbench: {workload}: oracle divergence: {e}");
    }
}

fn measure(args: &Args, data: &Path) -> i32 {
    let cfg = Cfg::full(args.seed, args.seconds);
    let w = args.workload.as_str();
    println!("workload {w} seed {} seconds {} trace {}", args.seed, args.seconds, args.trace as u8);
    let main = run_pass(w, &cfg, false, data);
    report_errors(w, &main);
    let mut correct = main.errors.is_empty();
    let (attempted, failed) = (main.attempted, main.failed);
    println!("attempted {attempted} failed {failed} latency samples {}", main.samples);
    let q = |p| common::quantile(main.slice_rates.clone(), p);
    println!(
        "ops_per_s over {} slices: q1 {:.0} median {:.0} q3 {:.0} best fiftieth {:.0}",
        main.slice_rates.len(),
        q(0.25),
        q(0.5),
        q(0.75),
        q(1.0 - common::BEST)
    );
    let setups: Vec<String> = main.setup_times.iter().map(|t| format!("{:.2}", t * 1e3)).collect();
    println!("set-up times, ms: {}", setups.join(" "));
    if !main.restart_times.is_empty() {
        let restarts: Vec<String> =
            main.restart_times.iter().map(|t| format!("{:.2}", t * 1e3)).collect();
        println!("restart probe times, ms: {}", restarts.join(" "));
    }
    let metrics: Vec<(&str, f64, &str)> = if !args.trace {
        print_metrics("end_to_end", &main.e2e);
        main.e2e.clone()
    } else {
        print_metrics("end_to_end untraced", &main.e2e);
        let mut layer: BTreeMap<&str, (f64, &str, &str)> = BTreeMap::new();
        let others = WORKLOADS.iter().filter(|o| **o != w);
        // The other workloads run a quarter as long, with one set-up: only
        // their per-layer figures are kept.
        let short = Cfg { seconds: cfg.seconds / 4.0, setups: 1, ..cfg.clone() };
        for (i, o) in std::iter::once(&w).chain(others).enumerate() {
            let pass = run_pass(o, if i == 0 { &cfg } else { &short }, true, data);
            report_errors(o, &pass);
            correct &= pass.errors.is_empty();
            if i == 0 {
                print_metrics("end_to_end traced", &pass.e2e);
                println!("traced attempted {} failed {}", pass.attempted, pass.failed);
            }
            for (name, value, unit) in &pass.layer {
                layer.entry(name).or_insert((*value, unit, o));
            }
            let path = Path::new(".sentbench_out").join(format!("{o}-seed{}-spans.tsv", args.seed));
            if let Err(e) = common::write_spans(&path, &pass.spans) {
                eprintln!("sentbench: writing {}: {e}", path.display());
            }
        }
        for (name, (value, unit, from)) in &layer {
            println!("per_layer {name} = {value} {unit} (measured on {from})");
        }
        layer.into_iter().map(|(n, (v, u, _))| (n, v, u)).collect()
    };
    println!("{}", result_json(correct, attempted, failed, &metrics));
    0
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let m = json::Value::Obj(
        metrics
            .iter()
            .map(|(n, v, u)| {
                (
                    n.to_string(),
                    json::Value::obj([
                        ("value", json::Value::Float(*v)),
                        ("unit", json::Value::str(*u)),
                    ]),
                )
            })
            .collect(),
    );
    json::Value::obj([
        ("correct", json::Value::Bool(correct)),
        ("attempted", json::Value::UInt(attempted)),
        ("failed", json::Value::UInt(failed)),
        ("metrics", m),
    ])
    .to_string()
}

/// Quick mode: every workload at small size, untraced and traced, with
/// every oracle checked; every metric of BENCHMARK.json must be reported
/// with its unit; and a skewed oracle expectation must fail each workload.
fn selftest(data: &Path) -> i32 {
    let spec =
        std::fs::read_to_string("BENCHMARK.json").ok().and_then(|s| json::Value::parse(&s).ok());
    let Some(spec) = spec else {
        eprintln!("selftest: BENCHMARK.json missing or malformed");
        return 1;
    };
    let listed = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .and_then(json::Value::as_arr)
            .map(|a| {
                a.iter()
                    .filter_map(|m| {
                        let s = |k| m.get(k).and_then(json::Value::as_str).map(str::to_string);
                        Some((s("name")?, s("unit")?))
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let (e2e, layer) = (listed("end_to_end"), listed("per_layer"));
    let mut failures = Vec::new();
    let mut layer_seen: BTreeMap<String, String> = BTreeMap::new();
    for w in WORKLOADS {
        let before = failures.len();
        let cfg = Cfg::quick(7);
        for traced in [false, true] {
            let out = run_pass(w, &cfg, traced, data);
            if !out.errors.is_empty() || out.attempted == 0 || out.failed != 0 {
                failures.push(format!("{w} (traced {traced}): {:?}", out.errors));
            }
            for (name, unit) in &e2e {
                match out.e2e.iter().find(|m| m.0 == name) {
                    Some(m) if m.2 == unit && m.1.is_finite() && m.1 > 0.0 => {}
                    other => failures.push(format!("{w}: end-to-end {name} [{unit}]: {other:?}")),
                }
            }
            for (n, _, u) in &out.layer {
                layer_seen.insert(n.to_string(), u.to_string());
            }
        }
        let skewed = run_pass(w, &Cfg { skew_oracle: true, ..cfg.clone() }, false, data);
        if skewed.errors.is_empty() {
            failures.push(format!("{w}: a skewed oracle expectation went unnoticed"));
        }
        let status = if failures.len() == before { "ok" } else { "FAILED" };
        println!("selftest {w}: {status}");
    }
    for (name, unit) in &layer {
        if layer_seen.get(name) != Some(unit) {
            failures.push(format!(
                "per-layer {name} [{unit}] not reported ({:?})",
                layer_seen.get(name)
            ));
        }
    }
    for f in &failures {
        eprintln!("selftest: FAIL {f}");
    }
    println!("selftest: {}", if failures.is_empty() { "passed" } else { "FAILED" });
    i32::from(!failures.is_empty())
}
