//! End-to-end benchmark of the `cfd` binary, with a per-layer breakdown
//! measured from outside the program.
//!
//! ```text
//! benchmark run   [--workload mine|bulk|serve|watch] [--seed N] [--seconds S]
//!                 [--trace 0|1] [--smoke] [--out FILE]
//! benchmark agree --base FILE... [--change FILE...]
//! ```
//!
//! `run` builds `target/release/cfd` from the repository, generates every
//! input from the seed, and drives the binary through one workload (all
//! four without `--workload`) with the program's own tracing off. It then
//! replays the same operations in-process, timing each layer's public
//! call, and checks every output against that replay. The last stdout
//! line is the result: the end-to-end metrics of `BENCHMARK.json`, or
//! with `--trace 1` its per-layer metrics. `--out` appends a fuller record
//! (both metric sets, quartiles, per-kind detail) that `agree` compares.
//! See `benchmark/README.md` for the workloads and metric definitions.

mod agree;
mod inputs;
mod proc;
mod report;
mod spec;
mod speed;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Every fallible step reports a message and aborts the run: the
/// benchmark prints no result line unless every step ran.
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

const USAGE: &str = "usage:
  benchmark run   [--workload mine|bulk|serve|watch] [--seed N] [--seconds S]
                  [--trace 0|1] [--smoke] [--out FILE]
  benchmark agree --base FILE... [--change FILE...]";

/// The repository root: the benchmark package lives in its `benchmark/`
/// directory.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

struct RunArgs {
    workloads: Vec<workloads::Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Res<RunArgs> {
    let mut a = RunArgs {
        workloads: workloads::Workload::ALL.to_vec(),
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workloads = vec![workloads::Workload::parse(v)
                    .ok_or_else(|| format!("unknown workload {v:?}"))?];
            }
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}").into()),
                }
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}").into()),
        }
    }
    Ok(a)
}

fn run(args: &[String]) -> Res<ExitCode> {
    let a = parse_run(args)?;
    let root = repo_root();
    let spec = spec::load(&root.join("BENCHMARK.json"))?;
    let cfd = proc::build_cfd(&root)?;
    let seconds = a
        .seconds
        .unwrap_or(if a.smoke { 0.5 } else { spec.run_seconds });
    let scale = if a.smoke {
        inputs::Scale::smoke()
    } else {
        inputs::Scale::full()
    };
    let out_dir = root.join("benchmark").join("out");
    let mut all_correct = true;
    for &w in &a.workloads {
        let work = out_dir.join(format!(
            "work-{}-{}-{}",
            w.name(),
            a.seed,
            std::process::id()
        ));
        let _cleanup = workloads::WorkDir::create(&work)?;
        let ctx = workloads::Ctx {
            cfd: &cfd,
            work: &work,
            seed: a.seed,
            seconds,
            trace: a.trace,
            scale: &scale,
        };
        let outcome = workloads::run(w, &ctx)?;
        let result = report::Report::new(w, &outcome);
        result.summary(&spec);
        if a.trace {
            let path = out_dir.join(format!("trace-{}-{}.json", w.name(), a.seed));
            std::fs::write(&path, format!("{}\n", outcome.tracer.to_json(w.name())))?;
            eprintln!("# {}: trace written to {}", w.name(), path.display());
        }
        if let Some(path) = &a.out {
            report::append_record(path, &result.record(a.seed, a.trace))?;
        }
        all_correct &= result.failed == 0;
        let listed = if a.trace {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        println!("{}", result.result_line(listed)?);
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("agree") => agree::main(&args[1..], &repo_root().join("BENCHMARK.json")),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
