//! `gsbench` — the greensprint benchmark.
//!
//! ```text
//! gsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process and prints, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` times the workload and reports the end-to-end
//! metrics; `--trace 1` runs the traced layer pass instead and reports the
//! per-layer metrics. The line before it records the machine, the seed,
//! the output digest and the sample counts. See `README.md` beside this
//! file for the workloads and the metric → layer → workload table.

mod layers;
mod stats;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use workloads::{Size, Workload};

/// One reported figure.
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

pub type Metrics = BTreeMap<String, Metric>;

struct Cli {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run one cold set-up in this fresh process and print its
    /// seconds (`--setup-probe 1`; the timed run spawns these).
    probe: bool,
}

const USAGE: &str =
    "usage: gsbench --workload <burst_analytic|burst_des|datacenter_site|serve_site> \
     --seed <n> --seconds <s> --trace <0|1>";

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}"))?;
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), v.clone());
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("--{k} is required"));
    let workload = get("workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    if flags.get("setup-probe").is_some_and(|v| v == "1") {
        return Ok(Cli {
            workload,
            seed,
            seconds: 0.0,
            trace: false,
            probe: true,
        });
    }
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Cli {
        workload,
        seed,
        seconds,
        trace,
        probe: false,
    })
}

/// One cold set-up in a child process of this executable; NaN on failure.
fn spawn_probe(cli: &Cli) -> f64 {
    let Ok(exe) = std::env::current_exe() else {
        return f64::NAN;
    };
    let out = std::process::Command::new(exe)
        .args(["--setup-probe", "1", "--workload", cli.workload.name()])
        .args(["--seed", &cli.seed.to_string()])
        .stdin(std::process::Stdio::null())
        .output();
    out.ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            let text = String::from_utf8_lossy(&o.stdout).to_string();
            text.lines().last().and_then(|l| l.trim().parse().ok())
        })
        .unwrap_or(f64::NAN)
}

/// Output digests recorded per workload and seed: `<workload> <seed> <digest>`.
const RECORDED_DIGESTS: &str = include_str!("../digests.txt");

/// Machine facts stamped on every result.
fn machine() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    format!(
        "{{\"nproc\":{},\"cpu\":{:?},\"rustc\":{:?},\"git_sha\":{:?}}}",
        greensprint_repro::prelude::default_jobs(),
        cpu,
        run("rustc", &["-V"]),
        run("git", &["rev-parse", "--short=12", "HEAD"]),
    )
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, m)| format!("{k:?}: {{\"value\": {}, \"unit\": {:?}}}", m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Scratch directory for one run, inside the working directory.
fn run_dir(cli: &Cli) -> PathBuf {
    Path::new(".bench_run").join(format!(
        "{}-{}-{}",
        cli.workload.name(),
        cli.seed,
        std::process::id()
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("gsbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir = run_dir(&cli);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("gsbench: cannot create {}: {e}", dir.display());
        return ExitCode::from(1);
    }
    let size = Size::full();
    if cli.probe {
        let s = workloads::setup_probe(cli.workload, &size, cli.seed, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        println!("{s}");
        return ExitCode::SUCCESS;
    }
    let jobs = greensprint_repro::prelude::default_jobs();
    let recorded = workloads::recorded_digest(RECORDED_DIGESTS, cli.workload, cli.seed);
    let out = if cli.trace {
        layers::traced_run(
            cli.workload,
            &size,
            &layers::Traced::full(),
            cli.seed,
            jobs,
            &dir,
            recorded.as_deref(),
        )
    } else {
        workloads::measure(
            cli.workload,
            &size,
            cli.seed,
            cli.seconds,
            jobs,
            &dir,
            recorded.as_deref(),
            || spawn_probe(&cli),
        )
    };
    let _ = std::fs::remove_dir_all(&dir);
    for p in &out.problems {
        eprintln!("gsbench: {}: {p}", cli.workload.name());
    }
    let finite = out.metrics.values().all(|m| m.value.is_finite());
    let correct = out.failed == 0 && finite;
    println!(
        "{{\"workload\":{:?},\"seed\":{},\"trace\":{},\"machine\":{},\"digest\":{:?},\
         \"digest_recorded\":{},\"passes\":{},\"tick_samples\":{},\"jobs\":{jobs}}}",
        cli.workload.name(),
        cli.seed,
        cli.trace,
        machine(),
        out.digest,
        recorded.is_some(),
        out.passes,
        out.tick_samples,
    );
    println!(
        "{}",
        result_line(correct, out.attempted.max(1), out.failed, &out.metrics)
    );
    ExitCode::SUCCESS
}
