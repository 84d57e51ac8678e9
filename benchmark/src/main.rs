//! The repo benchmark. See `README.md` beside this crate for the metric
//! and workload definitions; `BENCHMARK.json` at the repo root for the
//! contract the driver runs it under.
//!
//! ```text
//! dsg-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! dsg-benchmark run   --seed <n> [--seconds <s>]   # all workloads, end to end
//! dsg-benchmark trace --seed <n> [--seconds <s>]   # all workloads, per layer
//! dsg-benchmark agree A.json B.json
//! dsg-benchmark --smoke
//! ```

#![deny(clippy::unwrap_used)]

mod catalog;
mod churn;
mod harness;
mod json;
mod layers;
mod reference;
mod report;
mod spans;
mod stats;
mod workloads;

use crate::harness::Pass;
use crate::json::Value;
use crate::report::Reported;
use crate::spans::Recorder;
use crate::workloads::{Job, Scale, WORKLOADS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::rc::Rc;

/// `run_seconds` of `BENCHMARK.json`, the default of `run` and `trace`.
const DEFAULT_SECONDS: f64 = 20.0;

/// The checkout: the directory holding `BENCHMARK.json` and this crate.
/// The driver runs the benchmark from there; a person runs it from
/// `benchmark/`.
fn checkout_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let parent = cwd.parent().map(Path::to_path_buf);
    std::iter::once(cwd.clone())
        .chain(parent)
        .find(|dir| {
            dir.join("BENCHMARK.json").is_file() && dir.join("benchmark/Cargo.toml").is_file()
        })
        .ok_or_else(|| {
            format!(
                "no BENCHMARK.json beside benchmark/ at or above {}",
                cwd.display()
            )
        })
}

fn out_dir(root: &Path) -> Result<PathBuf, String> {
    let dir = root.join("benchmark/out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// A scratch directory inside the checkout, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(out: &Path, workload: &str) -> Result<Self, String> {
        let dir = out.join(format!("tmp-{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one invocation on one workload produced; `print_result` prints the
/// table, then the result line as the last line of standard output.
struct WorkloadResult {
    metrics: Vec<Reported>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    notes: String,
}

fn job(workload: &str, seed: u64, scale: Scale, observe: bool, scratch: &Path) -> Job {
    Job {
        workload: workload.to_string(),
        seed,
        scale,
        observe,
        scratch: scratch.to_path_buf(),
    }
}

/// `--trace 0`: one pass as production runs (metrics on, flight recorder
/// off, no spans), reported end to end.
fn measure_end_to_end(
    workload: &str,
    seed: u64,
    scale: Scale,
    out: &Path,
) -> Result<WorkloadResult, String> {
    let scratch = Scratch::new(out, workload)?;
    let pass = Pass::new(Rc::new(Recorder::off()));
    let outcome = workloads::run(&job(workload, seed, scale, false, &scratch.0), pass)?;
    Ok(WorkloadResult {
        metrics: report::end_to_end(&outcome),
        attempted: outcome.pass.attempted,
        failed: outcome.pass.failed,
        failures: outcome.pass.failures.clone(),
        notes: String::new(),
    })
}

/// `--trace 1`: the same work twice — once untraced for the base wall,
/// once with the flight recorder on and harness spans around every layer
/// call — then the layer micro-loops on what the traced pass left
/// standing. Writes `trace-<workload>.json`.
fn measure_per_layer(
    workload: &str,
    seed: u64,
    scale: Scale,
    out: &Path,
) -> Result<WorkloadResult, String> {
    let scratch = Scratch::new(out, workload)?;
    let untraced_dir = scratch.0.join("untraced");
    let base = workloads::run(
        &job(workload, seed, scale, false, &untraced_dir),
        Pass::new(Rc::new(Recorder::off())),
    )?;
    let base_wall = base.pass.work_wall.get();
    let (base_attempted, base_failed) = (base.pass.attempted, base.pass.failed);
    let mut failures = base.pass.failures.clone();
    drop(base);

    let rec = Rc::new(Recorder::on());
    let traced_dir = scratch.0.join("traced");
    let outcome = rec.span("workload", || {
        workloads::run(
            &job(workload, seed, scale, true, &traced_dir),
            Pass::new(Rc::clone(&rec)),
        )
    })?;
    let overhead_pct =
        100.0 * (outcome.pass.work_wall.get().as_secs_f64() / base_wall.as_secs_f64() - 1.0);
    let values = rec.span("micro", || {
        layers::measure(&outcome.live, workload == "cut_small", &scratch.0, &rec)
    })?;
    let spans = rec.spans();
    let trace_path = out.join(format!("trace-{workload}.json"));
    std::fs::write(&trace_path, spans::to_json(&spans))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    failures.extend(outcome.pass.failures.iter().cloned());
    Ok(WorkloadResult {
        metrics: report::per_layer(&outcome, &values, &spans, overhead_pct),
        attempted: base_attempted + outcome.pass.attempted,
        failed: base_failed + outcome.pass.failed,
        failures,
        notes: format!(
            "{} spans -> {}\n{}",
            spans.len(),
            trace_path.display(),
            report::self_time_summary(&spans)
        ),
    })
}

/// One workload, as the driver invokes it.
fn drive(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<WorkloadResult, String> {
    let root = checkout_root()?;
    let out = out_dir(&root)?;
    let scale = Scale::of(workload, if trace { seconds / 2.0 } else { seconds }, smoke)
        .ok_or_else(|| format!("unknown workload '{workload}'"))?;
    let result = if trace {
        measure_per_layer(workload, seed, scale, &out)?
    } else {
        measure_end_to_end(workload, seed, scale, &out)?
    };
    for metric in &result.metrics {
        if !metric.value.is_finite() {
            return Err(format!("{} is not finite", metric.def.name));
        }
    }
    Ok(result)
}

fn print_result(workload: &str, seed: u64, result: &WorkloadResult) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {workload}, seed {seed}, {cores} cores, WAL flush policy: fsync every batch (SyncPolicy::EveryBatch)"
    );
    print!("{}", report::table(workload, &result.metrics));
    print!("{}", result.notes);
    for failure in &result.failures {
        eprintln!("FAILED: {failure}");
    }
    println!(
        "{}",
        report::result_line(result.attempted, result.failed, &result.metrics)
    );
}

/// `run` / `trace`: every workload in a child process of its own (so that
/// `peak_rss_mb` is the workload's and not the set's), results gathered
/// into one result set under `benchmark/out/`.
fn run_all(kind: &str, seed: u64, seconds: f64) -> Result<ExitCode, String> {
    let root = checkout_root()?;
    let out = out_dir(&root)?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let trace = if kind == "trace" { "1" } else { "0" };
    let mut lines = Vec::new();
    let mut all_correct = true;
    for (workload, _) in WORKLOADS {
        let output = std::process::Command::new(&exe)
            .current_dir(&root)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", trace])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("could not start the {workload} child: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        if !output.status.success() {
            return Err(format!(
                "the {workload} child exited with {}",
                output.status
            ));
        }
        let line = stdout.lines().last().unwrap_or_default().to_string();
        let parsed = json::parse(&line).map_err(|e| format!("{workload}: bad result line: {e}"))?;
        all_correct &= parsed.get("correct").and_then(Value::as_bool) == Some(true);
        lines.push((workload.to_string(), line));
    }
    let path = out.join(format!("results-{kind}-seed{seed}.json"));
    std::fs::write(&path, report::result_set(kind, seed, seconds, &lines))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("result set -> {}", path.display());
    if all_correct {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("at least one answer failed its reference check");
        Ok(ExitCode::FAILURE)
    }
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Names in `BENCHMARK.json` under `list`, with their bounds where given.
fn manifest_list(manifest: &Value, list: &str) -> Vec<(String, Option<f64>)> {
    manifest
        .get(list)
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
        .filter_map(|entry| {
            let name = entry.get("name")?.as_str()?.to_string();
            Some((name, entry.get("bound").and_then(Value::as_f64)))
        })
        .collect()
}

fn agree(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let manifest = read_json(&checkout_root()?.join("BENCHMARK.json"))?;
    let bounds: BTreeMap<String, f64> = manifest_list(&manifest, "end_to_end")
        .into_iter()
        .filter_map(|(name, bound)| Some((name, bound?)))
        .collect();
    let (rows, disagreements) = report::agree(&read_json(a)?, &read_json(b)?, &bounds);
    print!("{rows}");
    if disagreements == 0 {
        println!("the two result sets agree");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("{disagreements} disagreement(s)");
        Ok(ExitCode::FAILURE)
    }
}

/// `--smoke`: every workload, untraced and traced, on graphs of n ≤ 128,
/// asserting that each metric `BENCHMARK.json` lists comes out exactly
/// once per workload with a finite value and that no check fails.
fn smoke() -> Result<ExitCode, String> {
    let manifest = read_json(&checkout_root()?.join("BENCHMARK.json"))?;
    let workloads = manifest_list(&manifest, "workloads");
    let mut problems = Vec::new();
    for (workload, _) in &workloads {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let started = std::time::Instant::now();
            let result = drive(workload, 1, 1.0, trace, true)?;
            let line = report::result_line(result.attempted, result.failed, &result.metrics);
            // Counted on the emitted list, since a parsed object cannot
            // hold a name twice; read back from the line for the values.
            let emitted = report::metrics_of(&json::parse(&line)?);
            let listed = manifest_list(&manifest, list);
            for (name, _) in &listed {
                let times = result.metrics.iter().filter(|m| m.def.name == name).count();
                if times != 1 || !emitted.get(name).is_some_and(|v| v.is_finite()) {
                    problems.push(format!("{workload}: {name} emitted {times} time(s)"));
                }
            }
            if result.metrics.len() != listed.len() {
                problems.push(format!(
                    "{workload}: {} metrics under {list}",
                    result.metrics.len()
                ));
            }
            if result.failed > 0 || result.attempted == 0 {
                problems.push(format!(
                    "{workload} ({list}): {} of {} operations failed: {:?}",
                    result.failed, result.attempted, result.failures
                ));
            }
            println!(
                "smoke {workload:<16} {list:<10} {} metrics, {} operations checked, {:.1} s",
                emitted.len(),
                result.attempted,
                started.elapsed().as_secs_f64()
            );
        }
    }
    for problem in &problems {
        eprintln!("SMOKE: {problem}");
    }
    Ok(if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `--name value` pairs after the optional subcommand.
fn flags(args: &[String]) -> Result<BTreeMap<&str, &str>, String> {
    let mut flags = BTreeMap::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let name = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{arg}'"))?;
        let value = rest
            .next()
            .ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name, value.as_str());
    }
    Ok(flags)
}

fn parsed<T: std::str::FromStr>(
    flags: &BTreeMap<&str, &str>,
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flags.get(name) {
        Some(text) => text
            .parse()
            .map_err(|_| format!("--{name}: cannot read '{text}'")),
        None => default.ok_or_else(|| format!("--{name} is required")),
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("--smoke" | "smoke") => smoke(),
        Some("agree") => match args {
            [_, a, b] => agree(Path::new(a), Path::new(b)),
            _ => Err("usage: agree A.json B.json".into()),
        },
        Some(kind @ ("run" | "trace")) => {
            let flags = flags(&args[1..])?;
            let seconds = parsed(&flags, "seconds", Some(DEFAULT_SECONDS))?;
            run_all(kind, parsed(&flags, "seed", None)?, seconds)
        }
        Some(_) => {
            let flags = flags(args)?;
            let workload: String = parsed(&flags, "workload", None)?;
            let seed = parsed(&flags, "seed", None)?;
            let seconds: f64 = parsed(&flags, "seconds", None)?;
            let trace = match parsed::<u8>(&flags, "trace", None)? {
                0 => false,
                1 => true,
                other => return Err(format!("--trace takes 0 or 1, not {other}")),
            };
            if !(seconds.is_finite() && seconds > 0.0) {
                return Err("--seconds must be positive".into());
            }
            let result = drive(&workload, seed, seconds, trace, false)?;
            print_result(&workload, seed, &result);
            Ok(ExitCode::SUCCESS)
        }
        None => Err("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> | run | trace | agree | --smoke".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|message| {
        eprintln!("dsg-benchmark: {message}");
        ExitCode::from(2)
    })
}
