//! The repository's benchmark. One invocation runs one workload:
//!
//! ```text
//! perfbench --workload <tpch_query|tpch_refresh|serve_mixed> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! It prints human-readable lines, then, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! records spans around every layer call, writes them to
//! `.bench_trace/<workload>-<seed>.json`, and reports the per-layer
//! metrics. A failed correctness or steady-state check prints
//! `"correct": false` with no metrics and exits with code 1. See
//! `README.md` for the workloads and how the metrics relate.

mod host;
mod metrics;
mod sched;
mod serve_wl;
mod spans;
mod tpch_wl;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{result_line, Metrics, END_TO_END, PER_LAYER};
use spans::Tracer;

/// Untimed ops before each window.
const WARMUP: Duration = Duration::from_secs(1);

/// State shared by a run's phases.
pub struct Run {
    pub seed: u64,
    pub trace: bool,
    pub window: Duration,
    pub warmup: Duration,
    pub m: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub tracer: Tracer,
}

impl Run {
    /// Records a failed check; the run will report `correct: false`.
    pub fn fail(&mut self, why: String) {
        println!("FAILED: {why}");
        self.problems.push(why);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workload: fn(&mut Run) = match args.workload.as_str() {
        "tpch_query" => tpch_wl::run_query,
        "tpch_refresh" => tpch_wl::run_refresh,
        "serve_mixed" => serve_wl::run_mixed,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench: workload {} seed {} window {} s trace {} ({threads} hardware threads)",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let started = Instant::now();
    let mut run = Run {
        seed: args.seed,
        trace: args.trace,
        window: Duration::from_secs(args.seconds),
        warmup: WARMUP,
        m: Metrics::default(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        tracer: Tracer::new(false, 0, started),
    };

    let calib_before = host::calib_ms();
    workload(&mut run);
    if run.trace && run.problems.is_empty() {
        // Every traced run reports every layer: layers the workload's own
        // window does not cross are measured by a short phase of the other
        // workload family, and the isolated serving probes always run.
        if args.workload == "serve_mixed" {
            tpch_wl::layer_probe(&mut run);
        } else {
            serve_wl::layer_probe(&mut run);
        }
        serve_wl::isolated_probes(run.seed, &mut run.m);
    }
    let calib_after = host::calib_ms();
    println!("host.calib_ms: before {calib_before:.3} ms, after {calib_after:.3} ms");
    run.m
        .set("host.calib_ms", (calib_before + calib_after) / 2.0);
    let error_rate = run.failed as f64 / run.attempted.max(1) as f64;
    println!(
        "error_rate: {error_rate} ({} failed of {} attempted)",
        run.failed, run.attempted
    );
    run.m.set("error_rate", error_rate);

    if run.trace {
        let path =
            PathBuf::from(".bench_trace").join(format!("{}-{}.json", args.workload, args.seed));
        match run.tracer.write_chrome(&path) {
            Ok(()) => println!(
                "trace: {} spans written to {}",
                run.tracer.spans().len(),
                path.display()
            ),
            Err(e) => run.fail(format!("writing {}: {e}", path.display())),
        }
        for (name, us) in run.tracer.self_time_p50_us() {
            println!("span self time p50: {name} {us:.1} us");
        }
    }

    let table = if run.trace { PER_LAYER } else { END_TO_END };
    let missing = run.m.missing(table);
    if !missing.is_empty() {
        run.fail(format!("metrics not measured: {missing:?}"));
    }
    if run.attempted == 0 {
        run.fail("no operation was attempted".into());
    }
    let correct = run.problems.is_empty() && run.failed == 0;
    for (name, unit) in table {
        if let Some(v) = run.m.get(name) {
            println!("{name} = {v} {unit}");
        }
    }
    println!("run took {:.1} s", started.elapsed().as_secs_f64());
    if correct {
        println!(
            "{}",
            result_line(true, run.attempted, run.failed, &run.m.to_json(table))
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "{}",
            result_line(false, run.attempted.max(1), run.failed, "{}")
        );
        ExitCode::from(1)
    }
}
