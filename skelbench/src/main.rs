//! The repository benchmark: four seeded workloads driven through the
//! public APIs of `vgpu`, `skelcl`, `skelcl-executor` and the app crates,
//! measured on two clocks — modeled device seconds (deterministic) and host
//! wall seconds (what the simulator costs on this machine).
//!
//! ```text
//! cargo run --release --manifest-path skelbench/Cargo.toml -- \
//!     --workload <heat_iterate|canny_fused|osem_recon|serve_burst|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a provenance line, one `metric value unit` line per metric, and
//! as its last line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`). `--workload all` runs every workload in its
//! own child process. METRICS.md documents every metric.

mod account;
mod measure;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use account::Tally;
use measure::{measure, Measured, Metric};
use workloads::{CannyFused, HeatIterate, OsemRecon, ServeBurst};

const WORKLOADS: &[&str] = &["heat_iterate", "canny_fused", "osem_recon", "serve_burst"];

/// Host threads the simulator runs kernel bodies on.
const SIMULATOR_THREADS: &str = "1";

const USAGE: &str =
    "usage: skelbench --workload <heat_iterate|canny_fused|osem_recon|serve_burst|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}"));
        }
        if !(seconds.is_finite() && seconds >= 0.0) {
            return Err(format!("--seconds {seconds} must be a non-negative number"));
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// Where a run came from, and whether its host times are comparable.
struct Provenance {
    git: String,
    parallelism: usize,
    skelcl_check: Option<String>,
    vgpu_threads: Option<String>,
}

impl Provenance {
    fn capture() -> Provenance {
        Provenance {
            git: git_revision().unwrap_or_else(|| "unknown".into()),
            parallelism: std::thread::available_parallelism().map_or(0, |n| n.get()),
            skelcl_check: std::env::var("SKELCL_CHECK").ok(),
            vgpu_threads: std::env::var("VGPU_THREADS").ok(),
        }
    }

    fn json(&self) -> String {
        let opt = |v: &Option<String>| {
            v.as_ref().map_or("null".into(), |s| {
                format!("\"{}\"", skelcl::report::json_escape(s))
            })
        };
        format!(
            "{{\"git\": \"{}\", \"available_parallelism\": {}, \"SKELCL_CHECK\": {}, \"VGPU_THREADS\": {}, \"simulator_threads\": {SIMULATOR_THREADS}}}",
            skelcl::report::json_escape(&self.git),
            self.parallelism,
            opt(&self.skelcl_check),
            opt(&self.vgpu_threads)
        )
    }
}

/// The commit checked out in the working directory or an ancestor, read
/// from `.git` directly (no child process); `None` outside a repository.
fn git_revision() -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let git = cwd
        .ancestors()
        .map(|d| d.join(".git"))
        .find(|g| g.is_dir())?;
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

fn result_json(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            // A non-finite value is counted as a failure; keep the JSON valid.
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn run_workload(args: &Args, cache_root: &Path, tally: &mut Tally) -> Result<Measured, String> {
    let run = match args.workload.as_str() {
        "heat_iterate" => measure::<HeatIterate>,
        "canny_fused" => measure::<CannyFused>,
        "osem_recon" => measure::<OsemRecon>,
        "serve_burst" => measure::<ServeBurst>,
        other => unreachable!("workload {other} was validated by Args::parse"),
    };
    run(args.seed, args.seconds, args.trace, cache_root, tally)
}

/// `--workload all`: each workload in a child process of its own, so
/// `rss_peak_bytes` stays per workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        println!("== {w}");
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let provenance = Provenance::capture();
    println!("provenance {}", provenance.json());
    // Kernel bodies run on one host thread: the host time of a unit then
    // does not depend on how many cores the machine lends the run. This
    // overrides any VGPU_THREADS the caller set; provenance records it.
    std::env::set_var("VGPU_THREADS", SIMULATOR_THREADS);
    let mut tally = Tally::default();
    if matches!(provenance.skelcl_check.as_deref(), Some("1") | Some("on")) {
        // The online hazard checker changes host time: refuse to measure.
        tally.attempt();
        tally.fail("SKELCL_CHECK is set; host times would not be comparable".into());
        eprintln!("{}", tally.messages[0]);
        println!("{}", result_json(false, &tally, &[]));
        return ExitCode::FAILURE;
    }

    let cache_root =
        PathBuf::from(".bench_build").join(format!("skelbench-kernels-{}", std::process::id()));
    let measured = run_workload(&args, &cache_root, &mut tally);
    let _ = std::fs::remove_dir_all(&cache_root);
    let (reported, status) = match measured {
        Ok(m) => {
            println!(
                "{} seed {} ({} s per run)",
                args.workload, args.seed, args.seconds
            );
            let shown: &[Metric] = if args.trace { &m.per_layer } else { &[] };
            for (name, v, unit) in m.end_to_end.iter().chain(shown) {
                println!("  {name:<34} {v:>14.6e} {unit}");
            }
            if !m
                .end_to_end
                .iter()
                .chain(&m.per_layer)
                .all(|(_, v, _)| v.is_finite())
            {
                tally.fail("a metric is not a finite number".into());
            }
            let reported = if args.trace {
                m.per_layer
            } else {
                m.end_to_end
            };
            (reported, ExitCode::SUCCESS)
        }
        Err(e) => {
            tally.attempt();
            tally.fail(e);
            (Vec::new(), ExitCode::FAILURE)
        }
    };
    for m in &tally.messages {
        eprintln!("failure: {m}");
    }
    println!("{}", result_json(tally.failed == 0, &tally, &reported));
    status
}
