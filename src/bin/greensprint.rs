//! `greensprint` — the operator CLI.
//!
//! ```text
//! greensprint simulate [--app jbb|websearch|memcached] [--config re-batt|re-only|re-sbatt|sre-sbatt]
//!                      [--strategy greedy|parallel|pacing|hybrid|normal] [--availability min|med|max]
//!                      [--minutes N] [--intensity K] [--seed N] [--analytic]
//!                      [--hysteresis F] [--trace FILE.csv]
//!                      [--warm-policy FILE] [--save-policy FILE] [--scenario FILE.json]
//!                      [--checkpoint FILE] [--snapshot-every N]
//! greensprint campaign [--days N] [--spikes N] [--app ...] [--strategy ...] [--seed N]
//!                      [--checkpoint FILE] [--snapshot-every N]
//! greensprint sweep [--apps A,B] [--strategies S,..] [--availabilities L,..] [--minutes M,..]
//!                   [--configs C,..] [--days N] [--intensity K] [--seed N] [--jobs N] [--analytic]
//!                   [--checkpoint FILE | --resume FILE] [--retries N] [--task-timeout-epochs N]
//! greensprint chaos [--plan FILE.json] [--fault-seed N] [--runs R] [--jobs N]
//!                   [--fleet] [--crashes N] [--flaps N] [--stragglers N]
//!                   [--app ...] [--strategy ...] [--availability ...] [--minutes N] [--analytic]
//!                   [--checkpoint FILE | --resume FILE] [--retries N] [--task-timeout-epochs N]
//! greensprint datacenter [--racks N] [--apps A,B] [--configs C,..] [--strategies S,..]
//!                   [--availability min|med|max] [--minutes N] [--intensity K] [--seed N]
//!                   [--analytic] [--jobs N] [--site-plan FILE.json | --site-seed N]
//!                   [--checkpoint FILE | --resume FILE] [--snapshot-every N]
//! greensprint serve [--sim-time] [--rate F] [--throttle-ms N] [--tick-budget-ms N]
//!                   [--overrun skip|degrade] [--stale-after N] [--disturb-seed N]
//!                   [--metrics FILE] [--heartbeat FILE] [--snapshot FILE] [--snapshot-every N]
//!                   [--feed FILE|-] [--control none|sim|sysfs] [--sysfs-root DIR] [--retries N]
//!                   [--resume FILE] [--drain-after N] [--metrics-buffer N]
//!                   [--app ...] [--strategy ...] [--guardrail on] [--scenario FILE.json]
//! greensprint resume FILE [--jobs N] [--retries N] [--task-timeout-epochs N] [--snapshot-every N]
//! greensprint qtable (validate|dump) FILE
//! greensprint trace (solar|wind) [--days N] [--seed N] --out FILE.csv
//! greensprint tco [--hours H]
//! greensprint bench [--quick] [--force] [--reps N] [--out FILE.json]
//! ```

use greensprint_repro::core::checkpoint::{encode, write_atomic, SnapshotPayload};
use greensprint_repro::power::trace_io;
use greensprint_repro::power::wind::WindModel;
use greensprint_repro::prelude::*;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::exit;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage("missing subcommand");
    }
    let cmd = args.remove(0);
    let (flags, positional) = parse_flags(&args, known_flags(&cmd))
        .unwrap_or_else(|flag| usage(&format!("unknown flag --{flag} for `greensprint {cmd}`")));
    match cmd.as_str() {
        "simulate" => simulate(&flags),
        "campaign" => campaign(&flags),
        "sweep" => sweep(&flags),
        "chaos" => chaos(&flags),
        "datacenter" => datacenter(&flags),
        "serve" => serve_cmd(&flags),
        "resume" => resume_cmd(&positional, &flags),
        "qtable" => qtable(&positional),
        "trace" => trace(&positional, &flags),
        "tco" => tco(&flags),
        "bench" => bench(&flags),
        "help" | "--help" | "-h" => usage(""),
        other => usage(&format!("unknown subcommand: {other}")),
    }
}

/// Split `--key value` pairs (and bare `--switch`es) from positional args.
/// Flags of every subcommand that builds an engine configuration.
const ENGINE_FLAGS: &[&str] = &[
    "scenario",
    "app",
    "config",
    "strategy",
    "availability",
    "minutes",
    "intensity",
    "seed",
    "analytic",
    "hysteresis",
    "trace",
    "warm-policy",
];

/// The guardrail switches (see `apply_guardrail_flags`).
const GUARDRAIL_FLAGS: &[&str] = &["guardrail", "fallback", "quarantine-dir"];

/// Flags of the supervised sweep executor and its journal.
const SUPERVISION_FLAGS: &[&str] = &[
    "jobs",
    "checkpoint",
    "resume",
    "retries",
    "task-timeout-epochs",
];

/// Every flag `cmd` reads, or `None` when `cmd` is not a subcommand that
/// takes flags (help and unknown subcommands report their own usage).
fn known_flags(cmd: &str) -> Option<Vec<&'static str>> {
    let (own, shared): (&[&str], &[&[&str]]) = match cmd {
        "simulate" => (
            &["checkpoint", "snapshot-every", "save-policy"],
            &[ENGINE_FLAGS, GUARDRAIL_FLAGS],
        ),
        "campaign" => (
            &["days", "spikes", "checkpoint", "snapshot-every"],
            &[ENGINE_FLAGS, GUARDRAIL_FLAGS],
        ),
        "sweep" => (
            &[
                "apps",
                "strategies",
                "availabilities",
                "minutes",
                "configs",
                "days",
                "spikes",
                "intensity",
                "seed",
                "analytic",
            ],
            &[SUPERVISION_FLAGS, GUARDRAIL_FLAGS],
        ),
        "chaos" => (
            &[
                "plan",
                "fault-seed",
                "runs",
                "fleet",
                "crashes",
                "flaps",
                "stragglers",
            ],
            &[SUPERVISION_FLAGS, ENGINE_FLAGS, GUARDRAIL_FLAGS],
        ),
        "datacenter" => (
            &[
                "jobs",
                "racks",
                "apps",
                "configs",
                "strategies",
                "availability",
                "minutes",
                "intensity",
                "seed",
                "analytic",
                "site-plan",
                "site-seed",
                "checkpoint",
                "resume",
                "snapshot-every",
            ],
            &[],
        ),
        "serve" => (
            &[
                "sim-time",
                "rate",
                "throttle-ms",
                "tick-budget-ms",
                "overrun",
                "stale-after",
                "disturb-seed",
                "metrics",
                "heartbeat",
                "snapshot",
                "snapshot-every",
                "feed",
                "control",
                "sysfs-root",
                "retries",
                "resume",
                "drain-after",
                "metrics-buffer",
                "max-line-len",
                "racks",
                "rack-restarts",
                "rack-snapshot-every",
                "listen",
                "metrics-listen",
                "admin-token",
                "max-conns",
                "conn-timeout-ms",
            ],
            &[ENGINE_FLAGS, GUARDRAIL_FLAGS],
        ),
        "resume" => (
            &[
                "jobs",
                "retries",
                "task-timeout-epochs",
                "snapshot-every",
                "save-policy",
            ],
            &[],
        ),
        "qtable" => (&[], &[]),
        "trace" => (&["days", "seed", "out"], &[]),
        "tco" => (&["hours"], &[]),
        "bench" => (&["quick", "force", "reps", "out"], &[]),
        _ => return None,
    };
    Some(
        shared
            .iter()
            .flat_map(|s| s.iter())
            .chain(own)
            .copied()
            .collect(),
    )
}

/// Split `args` into `--key [value]` flags and positionals. With a
/// `known` list, the first flag outside it is returned as the error, so a
/// typo fails loudly instead of silently running without it.
fn parse_flags(
    args: &[String],
    known: Option<Vec<&str>>,
) -> Result<(HashMap<String, String>, Vec<String>), String> {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(key) = a.strip_prefix("--") {
            if known.as_ref().is_some_and(|k| !k.contains(&key)) {
                return Err(key.to_string());
            }
            let next_is_value = args.get(i + 1).is_some_and(|v| !v.starts_with("--"));
            if next_is_value {
                flags.insert(key.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                flags.insert(key.to_string(), String::from("true"));
                i += 1;
            }
        } else {
            positional.push(a.clone());
            i += 1;
        }
    }
    Ok((flags, positional))
}

fn get<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> T {
    match flags.get(key) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("error: --{key} cannot parse {v:?}");
            exit(2);
        }),
    }
}

/// A runtime (non-usage) failure: message to stderr, exit 1.
fn fatal(msg: &str) -> ! {
    eprintln!("error: {msg}");
    exit(1);
}

/// Serialize one sweep record as its JSON output line.
fn result_line(r: &SweepResult) -> String {
    serde_json::to_string(r).unwrap_or_else(|e| fatal(&format!("cannot serialize result: {e}")))
}

/// A snapshot sink that durably replaces the checkpoint at `path`, so a
/// crash mid-write leaves the previous snapshot intact.
fn checkpoint_to<P: SnapshotPayload>(path: &str) -> impl FnMut(&P) + '_ {
    move |snap| {
        write_atomic(Path::new(path), &encode(snap))
            .unwrap_or_else(|e| fatal(&format!("cannot write checkpoint {path}: {e}")));
    }
}

fn supervisor_policy(flags: &HashMap<String, String>) -> SupervisorPolicy {
    SupervisorPolicy {
        max_retries: get(flags, "retries", 2_u32),
        task_timeout_epochs: get(flags, "task-timeout-epochs", 0_u64),
    }
}

fn snapshot_every(flags: &HashMap<String, String>) -> u64 {
    let every: u64 = get(flags, "snapshot-every", 10);
    if every == 0 {
        usage("--snapshot-every must be at least 1");
    }
    every
}

/// Run a prepared point list, supervised when any robustness flag
/// (`--checkpoint`, `--retries`, `--task-timeout-epochs`) asks for it,
/// on the plain executor otherwise. Returns the full result set in
/// submission order; `on_result` streams completion-order output.
fn execute_points(
    points: Vec<SweepPoint>,
    master_seed: u64,
    jobs: usize,
    flags: &HashMap<String, String>,
    mode: &str,
    on_result: impl FnMut(&SweepResult),
) -> Vec<SweepResult> {
    let supervised = flags.contains_key("checkpoint")
        || flags.contains_key("retries")
        || flags.contains_key("task-timeout-epochs");
    if !supervised {
        return run_sweep_streaming(points, master_seed, jobs, on_result);
    }
    let mut journal = flags.get("checkpoint").map(|path| {
        let p = Path::new(path);
        if p.exists() {
            usage(&format!(
                "checkpoint {path} already exists; `greensprint resume {path}` continues it, \
                 or remove the file to start over"
            ));
        }
        Journal::create(p, &JournalHeader::new(mode, master_seed, points.clone()))
            .unwrap_or_else(|e| fatal(&format!("cannot create checkpoint {path}: {e}")))
    });
    let policy = supervisor_policy(flags);
    let (results, report) = run_supervised_sweep(
        points,
        master_seed,
        jobs,
        &policy,
        &HashSet::new(),
        journal.as_mut(),
        on_result,
    );
    report_supervision(&report);
    results
}

fn report_supervision(report: &SweepReport) {
    eprintln!("supervisor: {}", report.summary());
    for r in &report.retried {
        eprintln!(
            "  retried #{} {}: {} attempts",
            r.index, r.label, r.attempts
        );
    }
    for f in &report.failed {
        eprintln!("  failed #{} {}: {}", f.index, f.label, f.error);
    }
}

/// The chaos pass/fail verdict over a completed result set: exit 1 when
/// any run lost the Normal floor, overdrew the grid cap, tripped the
/// runtime invariant auditor, or did not complete at all.
fn chaos_gate(results: &[SweepResult]) {
    let runs = results.len();
    let mut violations = 0usize;
    let mut failures = 0usize;
    for r in results {
        match &r.outcome {
            SweepOutcome::Burst(b) => {
                if !b.floor_held || b.grid_overload_wh != 0.0 || !b.audit_violations.is_empty() {
                    violations += 1;
                }
            }
            SweepOutcome::Failed(_) => failures += 1,
            SweepOutcome::Campaign(_) => {}
        }
    }
    if violations > 0 || failures > 0 {
        if violations > 0 {
            eprintln!(
                "error: {violations} chaos run(s) violated the safety floor or the invariant audit"
            );
        }
        if failures > 0 {
            eprintln!("error: {failures} chaos run(s) did not complete");
        }
        exit(1);
    }
    eprintln!(
        "chaos: {runs} run(s), all held the Normal floor with zero grid overload and a clean \
         invariant audit"
    );
}

fn parse_app(s: &str) -> Application {
    match s {
        "jbb" | "specjbb" => Application::SpecJbb,
        "websearch" | "ws" | "web-search" => Application::WebSearch,
        "memcached" | "mc" => Application::Memcached,
        other => usage(&format!("unknown --app {other}")),
    }
}

fn app_of(flags: &HashMap<String, String>) -> Application {
    parse_app(flags.get("app").map(String::as_str).unwrap_or("jbb"))
}

fn parse_green(s: &str) -> GreenConfig {
    match s {
        "re-batt" => GreenConfig::re_batt(),
        "re-only" => GreenConfig::re_only(),
        "re-sbatt" => GreenConfig::re_sbatt(),
        "sre-sbatt" => GreenConfig::sre_sbatt(),
        other => usage(&format!("unknown --config {other}")),
    }
}

fn green_of(flags: &HashMap<String, String>) -> GreenConfig {
    parse_green(flags.get("config").map(String::as_str).unwrap_or("re-batt"))
}

fn parse_strategy(s: &str) -> Strategy {
    match s {
        "normal" => Strategy::Normal,
        "greedy" => Strategy::Greedy,
        "parallel" => Strategy::Parallel,
        "pacing" => Strategy::Pacing,
        "hybrid" => Strategy::Hybrid,
        other => usage(&format!("unknown --strategy {other}")),
    }
}

fn strategy_of(flags: &HashMap<String, String>) -> Strategy {
    parse_strategy(
        flags
            .get("strategy")
            .map(String::as_str)
            .unwrap_or("hybrid"),
    )
}

fn parse_availability(s: &str) -> AvailabilityLevel {
    match s {
        "min" | "minimum" => AvailabilityLevel::Minimum,
        "med" | "medium" => AvailabilityLevel::Medium,
        "max" | "maximum" => AvailabilityLevel::Maximum,
        other => usage(&format!("unknown --availability {other}")),
    }
}

fn availability_of(flags: &HashMap<String, String>) -> AvailabilityLevel {
    parse_availability(
        flags
            .get("availability")
            .map(String::as_str)
            .unwrap_or("med"),
    )
}

/// A comma-separated grid axis: `--apps jbb,memcached`.
fn axis<'a>(flags: &'a HashMap<String, String>, key: &str, default: &'a str) -> Vec<&'a str> {
    flags
        .get(key)
        .map(String::as_str)
        .unwrap_or(default)
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect()
}

/// Apply the guardrail flags (`--guardrail on|off`, `--fallback STRATEGY`,
/// `--quarantine-dir DIR`) on top of a base configuration. Used by every
/// subcommand that builds an [`EngineConfig`], so scenario files, plain
/// flag runs, and sweep/chaos grids all accept the same switches.
fn apply_guardrail_flags(cfg: &mut EngineConfig, flags: &HashMap<String, String>) {
    if let Some(v) = flags.get("guardrail") {
        cfg.guardrail.enabled = match v.as_str() {
            "on" | "true" => true,
            "off" | "false" => false,
            other => usage(&format!("--guardrail takes on|off, got {other}")),
        };
    }
    if let Some(s) = flags.get("fallback") {
        cfg.guardrail.fallback = parse_strategy(s);
    }
    if let Some(dir) = flags.get("quarantine-dir") {
        cfg.guardrail.quarantine_dir = Some(dir.clone());
    }
}

fn engine_cfg(flags: &HashMap<String, String>) -> EngineConfig {
    // A scenario file provides the base configuration; every other flag
    // then overrides it. Missing fields take the library defaults
    // (EngineConfig deserializes with per-field defaults).
    if let Some(path) = flags.get("scenario") {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| usage(&format!("cannot read scenario {path}: {e}")));
        let mut cfg: EngineConfig = serde_json::from_str(&text)
            .unwrap_or_else(|e| usage(&format!("invalid scenario {path}: {e}")));
        // Flag overrides on top of the file.
        if flags.contains_key("app") {
            cfg.app = app_of(flags);
        }
        if flags.contains_key("config") {
            cfg.green = green_of(flags);
        }
        if flags.contains_key("strategy") {
            cfg.strategy = strategy_of(flags);
        }
        if flags.contains_key("availability") {
            cfg.availability = availability_of(flags);
        }
        if flags.contains_key("minutes") {
            cfg.burst_duration = SimDuration::from_mins(get(flags, "minutes", 10_u64));
        }
        if flags.contains_key("seed") {
            cfg.seed = get(flags, "seed", 7_u64);
        }
        if flags.contains_key("analytic") {
            cfg.measurement = MeasurementMode::Analytic;
        }
        apply_guardrail_flags(&mut cfg, flags);
        return cfg;
    }
    let trace_override = flags.get("trace").map(|path| {
        trace_io::read_csv(path)
            .unwrap_or_else(|e| usage(&format!("cannot read trace {path}: {e}")))
    });
    let warm_policy_json = flags.get("warm-policy").map(|path| {
        std::fs::read_to_string(path)
            .unwrap_or_else(|e| usage(&format!("cannot read policy {path}: {e}")))
    });
    let mut cfg = EngineConfig {
        app: app_of(flags),
        green: green_of(flags),
        strategy: strategy_of(flags),
        availability: availability_of(flags),
        burst_duration: SimDuration::from_mins(get(flags, "minutes", 10_u64)),
        burst_intensity_cores: get(flags, "intensity", 12_u8),
        measurement: if flags.contains_key("analytic") {
            MeasurementMode::Analytic
        } else {
            MeasurementMode::Des
        },
        switch_hysteresis: get(flags, "hysteresis", 0.0_f64),
        trace_override,
        warm_policy_json,
        seed: get(flags, "seed", 7_u64),
        ..EngineConfig::default()
    };
    apply_guardrail_flags(&mut cfg, flags);
    cfg
}

fn simulate(flags: &HashMap<String, String>) {
    let cfg = engine_cfg(flags);
    println!(
        "simulating: {} on {} ({} servers, {:.1} Ah), {} strategy, {} availability, {} burst",
        cfg.app,
        cfg.green.name,
        cfg.green.green_servers,
        cfg.green.battery_ah,
        cfg.strategy,
        cfg.availability,
        cfg.burst_duration,
    );
    let save_policy = flags.get("save-policy").cloned();
    let engine = Engine::try_new(cfg).unwrap_or_else(|e| usage(&e.to_string()));
    let (out, _, policy) = match flags.get("checkpoint") {
        None => engine.run_full(),
        Some(path) => engine
            .run_full_with_snapshots(snapshot_every(flags), &mut checkpoint_to(path))
            .unwrap_or_else(|e| usage(&e.to_string())),
    };
    print_burst_result(&out);
    if let (Some(path), Some(json)) = (save_policy, policy) {
        std::fs::write(&path, json).unwrap_or_else(|e| fatal(&format!("cannot write {path}: {e}")));
        println!("  policy            : saved to {path}");
    }
}

fn print_burst_result(out: &BurstOutcome) {
    println!("\nresult:");
    println!("  speedup vs Normal : {:.2}x", out.speedup_vs_normal);
    println!(
        "  goodput           : {:.1} req/s/server (Normal {:.1})",
        out.mean_goodput_rps, out.normal_baseline_rps
    );
    println!("  SLO attainment    : {:.1}%", out.slo_attainment * 100.0);
    println!(
        "  energy            : {:.1} Wh renewable + {:.1} Wh battery ({:.1} Wh curtailed)",
        out.re_used_wh, out.battery_used_wh, out.curtailed_wh
    );
    println!(
        "  battery           : {:.3} equivalent cycles; {:.1} Wh grid recharge afterwards",
        out.battery_cycles, out.grid_recharge_wh
    );
    println!(
        "  thermals          : peak {:.1} degC, {} throttled epochs",
        out.peak_temp_c, out.thermal_throttle_epochs
    );
    println!(
        "  knob churn        : {} setting transitions",
        out.setting_transitions
    );
    if !out.audit_violations.is_empty() {
        eprintln!(
            "warning: {} invariant audit violation(s); first: {}",
            out.audit_violations.len(),
            out.audit_violations[0]
        );
    }
}

fn campaign(flags: &HashMap<String, String>) {
    let cfg = CampaignConfig {
        engine: engine_cfg(flags),
        days: get(flags, "days", 3_u32),
        spikes_per_day: get(flags, "spikes", 4_u32),
        peak_intensity_cores: get(flags, "intensity", 12_u8),
    };
    let out = match flags.get("checkpoint") {
        None => try_run_campaign(&cfg),
        Some(path) => {
            try_run_campaign_with_snapshots(&cfg, snapshot_every(flags), &mut checkpoint_to(path))
        }
    }
    .unwrap_or_else(|e| usage(&e.to_string()));
    print_campaign_result(&out);
}

fn print_campaign_result(out: &CampaignOutcome) {
    let tco = TcoParams::paper();
    println!("campaign over {} day(s):", out.days);
    println!(
        "  sprint hours        : {:.1} ({:.1} server-hours)",
        out.sprint_hours, out.sprint_server_hours
    );
    println!(
        "  extrapolated        : {:.0} h/year (break-even {:.1})",
        out.sprint_hours_per_year,
        tco.crossover_hours()
    );
    println!("  goodput vs Normal   : {:.2}x", out.goodput_vs_normal);
    println!(
        "  POI                 : {:+.0} $/KW/year",
        tco.poi(out.sprint_hours_per_year)
    );
    if !out.run.audit_violations.is_empty() {
        eprintln!(
            "warning: {} invariant audit violation(s); first: {}",
            out.run.audit_violations.len(),
            out.run.audit_violations[0]
        );
    }
}

/// `greensprint sweep` — run a grid of bursts (or campaigns, with
/// `--days`) through the deterministic parallel executor, one JSON line
/// per completed point, in completion order. Results are bit-identical
/// for any `--jobs` value.
fn sweep(flags: &HashMap<String, String>) {
    let jobs: usize = get(flags, "jobs", default_jobs());
    if jobs == 0 {
        usage("--jobs must be at least 1");
    }
    if resume_flag(flags, "sweep") {
        return;
    }
    let seed: u64 = get(flags, "seed", 7);
    let intensity: u8 = get(flags, "intensity", 12);
    let measurement = if flags.contains_key("analytic") {
        MeasurementMode::Analytic
    } else {
        MeasurementMode::Des
    };
    let days: u32 = get(flags, "days", 0);

    let apps = axis(flags, "apps", "jbb");
    let strategies = axis(flags, "strategies", "greedy,parallel,pacing,hybrid");
    let availabilities = axis(flags, "availabilities", "min,med,max");
    let minutes = axis(flags, "minutes", "10,15,30,60");
    let greens = axis(flags, "configs", "re-batt");

    let mut points = Vec::new();
    for app in &apps {
        for green in &greens {
            for strat in &strategies {
                for avail in &availabilities {
                    let mut base = EngineConfig {
                        app: parse_app(app),
                        green: parse_green(green),
                        strategy: parse_strategy(strat),
                        availability: parse_availability(avail),
                        burst_intensity_cores: intensity,
                        measurement,
                        ..EngineConfig::default()
                    };
                    apply_guardrail_flags(&mut base, flags);
                    if days > 0 {
                        let label = format!("{app}/{green}/{strat}/{avail}/{days}day");
                        points.push(SweepPoint::campaign(
                            label,
                            CampaignConfig {
                                engine: base,
                                days,
                                spikes_per_day: get(flags, "spikes", 4),
                                peak_intensity_cores: intensity,
                            },
                        ));
                    } else {
                        for mins in &minutes {
                            let m: u64 = mins.parse().unwrap_or_else(|_| {
                                usage(&format!("--minutes cannot parse {mins:?}"))
                            });
                            let label = format!("{app}/{green}/{strat}/{avail}/{m}min");
                            let cfg = EngineConfig {
                                burst_duration: SimDuration::from_mins(m),
                                ..base.clone()
                            };
                            points.push(SweepPoint::burst(label, cfg));
                        }
                    }
                }
            }
        }
    }
    // Reject bad configurations up front with a usage message instead of
    // letting a worker thread panic mid-sweep.
    for p in &points {
        let check = match &p.task {
            SweepTask::Burst(cfg) => cfg.validate(),
            SweepTask::Campaign(cfg) => cfg.validate(),
        };
        if let Err(e) = check {
            usage(&format!("invalid sweep point {}: {e}", p.label));
        }
    }
    execute_points(points, seed, jobs, flags, "sweep", |r| {
        println!("{}", result_line(r));
    });
}

/// Handle `sweep --resume FILE` / `chaos --resume FILE`: continue the
/// journal in place (its embedded points define the grid; grid flags are
/// ignored). Returns true when a resume ran.
fn resume_flag(flags: &HashMap<String, String>, mode: &str) -> bool {
    let Some(path) = flags.get("resume") else {
        return false;
    };
    if flags.contains_key("checkpoint") {
        usage("--resume and --checkpoint are mutually exclusive; a resumed journal keeps appending in place");
    }
    let (journal, loaded) = Journal::resume(Path::new(path))
        .unwrap_or_else(|e| usage(&format!("cannot resume {path}: {e}")));
    if loaded.header.mode != mode {
        usage(&format!(
            "checkpoint {path} is a {} journal; resume it with `greensprint {} --resume` or `greensprint resume`",
            loaded.header.mode, loaded.header.mode
        ));
    }
    resume_journal(path, journal, loaded, flags);
    true
}

/// `greensprint chaos` — fault-injection runs. Each run applies a
/// [`FaultPlan`] (loaded from `--plan FILE.json`, or generated from
/// `--fault-seed`; `--fleet` generates server crash/flap/straggler plans
/// instead, with `--crashes/--flaps/--stragglers` picking the mix) to a
/// burst and fans the batch through the same deterministic executor as
/// `sweep`: one JSON line per run, bit-identical for any `--jobs`. Exits 1
/// if any run loses the Normal goodput floor or overdraws the grid cap —
/// the invariants safe mode and capacity re-planning exist to keep.
fn chaos(flags: &HashMap<String, String>) {
    let jobs: usize = get(flags, "jobs", default_jobs());
    if jobs == 0 {
        usage("--jobs must be at least 1");
    }
    if resume_flag(flags, "chaos") {
        return;
    }
    let runs: usize = get(flags, "runs", 4);
    if runs == 0 {
        usage("--runs must be at least 1");
    }
    let fault_seed: u64 = get(flags, "fault-seed", 42);
    let fleet = flags.contains_key("fleet");
    let default_mix = FleetMix::default();
    let mix = FleetMix {
        crashes: get(flags, "crashes", default_mix.crashes),
        flaps: get(flags, "flaps", default_mix.flaps),
        stragglers: get(flags, "stragglers", default_mix.stragglers),
    };
    if !fleet
        && ["crashes", "flaps", "stragglers"]
            .iter()
            .any(|k| flags.contains_key(*k))
    {
        usage("--crashes/--flaps/--stragglers shape fleet plans; add --fleet");
    }
    if fleet && flags.contains_key("plan") {
        usage("--fleet generates plans; it cannot be combined with --plan");
    }
    let base = engine_cfg(flags);
    let file_plan: Option<FaultPlan> = flags.get("plan").map(|path| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| usage(&format!("cannot read fault plan {path}: {e}")));
        FaultPlan::from_json(&text)
            .unwrap_or_else(|e| usage(&format!("invalid fault plan {path}: {e}")))
    });
    let start = SimTime::from_secs_f64(base.burst_start_hour * 3_600.0);
    let n_servers = base.green.green_servers.min(u8::MAX as usize) as u8;

    let mut points = Vec::new();
    for r in 0..runs {
        // A file plan repeats across runs (the engine seed still varies
        // per run via the executor); otherwise each run gets its own
        // independently seeded plan.
        let plan = file_plan.clone().unwrap_or_else(|| {
            if fleet {
                FaultPlan::generate_fleet(
                    derive_seed(fault_seed, r as u64),
                    start,
                    base.burst_duration,
                    n_servers,
                    mix,
                )
            } else {
                FaultPlan::generate(
                    derive_seed(fault_seed, r as u64),
                    start,
                    base.burst_duration,
                    n_servers,
                )
            }
        });
        let kind = if fleet { "fleet" } else { "plan" };
        let label = format!(
            "chaos/{}/{}/{}/{kind}{r}",
            base.app, base.strategy, base.availability
        );
        points.push(SweepPoint::burst(
            label,
            EngineConfig {
                fault_plan: Some(plan),
                ..base.clone()
            },
        ));
    }
    for p in &points {
        if let SweepTask::Burst(cfg) = &p.task {
            if let Err(e) = cfg.validate() {
                usage(&format!("invalid chaos point {}: {e}", p.label));
            }
        }
    }

    let results = execute_points(points, get(flags, "seed", 7), jobs, flags, "chaos", |r| {
        println!("{}", result_line(r));
    });
    chaos_gate(&results);
}

/// Build the [`DatacenterConfig`] from the flag grid: `--racks N` racks
/// cycling through the `--apps`/`--configs`/`--strategies` axes, a shared
/// template for everything else, and an optional site fault plan from
/// `--site-plan FILE` or a seeded `--site-seed` generator.
fn datacenter_cfg(flags: &HashMap<String, String>) -> DatacenterConfig {
    let n_racks: usize = get(flags, "racks", 4);
    if n_racks == 0 {
        usage("--racks must be at least 1");
    }
    let apps: Vec<Application> = axis(flags, "apps", "jbb,websearch,memcached")
        .iter()
        .map(|s| parse_app(s))
        .collect();
    let greens: Vec<GreenConfig> = axis(flags, "configs", "re-batt")
        .iter()
        .map(|s| parse_green(s))
        .collect();
    let strategies: Vec<Strategy> = axis(flags, "strategies", "hybrid")
        .iter()
        .map(|s| parse_strategy(s))
        .collect();
    if apps.is_empty() || greens.is_empty() || strategies.is_empty() {
        usage("--apps/--configs/--strategies need at least one entry each");
    }
    let racks: Vec<RackSpec> = (0..n_racks)
        .map(|i| RackSpec {
            app: apps[i % apps.len()],
            green: greens[i % greens.len()].clone(),
            strategy: strategies[i % strategies.len()],
        })
        .collect();
    let template = EngineConfig {
        availability: availability_of(flags),
        burst_duration: SimDuration::from_mins(get(flags, "minutes", 10_u64)),
        burst_intensity_cores: get(flags, "intensity", 12_u8),
        measurement: if flags.contains_key("analytic") {
            MeasurementMode::Analytic
        } else {
            MeasurementMode::Des
        },
        seed: get(flags, "seed", 7_u64),
        ..EngineConfig::default()
    };
    if flags.contains_key("site-plan") && flags.contains_key("site-seed") {
        usage("--site-plan and --site-seed both name a site fault plan; pick one");
    }
    let site_fault_plan = if let Some(path) = flags.get("site-plan") {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| usage(&format!("cannot read site fault plan {path}: {e}")));
        Some(
            FaultPlan::from_json(&text)
                .unwrap_or_else(|e| usage(&format!("invalid site fault plan {path}: {e}"))),
        )
    } else if flags.contains_key("site-seed") {
        let start = SimTime::from_secs_f64(template.burst_start_hour * 3_600.0);
        let n = n_racks.min(u8::MAX as usize) as u8;
        Some(FaultPlan::generate_site(
            get(flags, "site-seed", 42_u64),
            start,
            template.burst_duration,
            n,
        ))
    } else {
        None
    };
    DatacenterConfig {
        racks,
        template,
        site_fault_plan,
    }
}

/// Print a completed datacenter run — one JSON line per rack, the
/// human summary on stderr — and apply the chaos-style gate: exit 1 when
/// any rack lost the Normal floor, overdrew the grid, tripped its own
/// invariant auditor, or the site-level audit recorded a violation.
fn report_datacenter(out: &DatacenterOutcome) {
    #[derive(serde::Serialize)]
    struct RackLine {
        rack: usize,
        outcome: BurstOutcome,
        route: Option<RackRouteStats>,
    }
    for (i, o) in out.racks.iter().enumerate() {
        let line = RackLine {
            rack: i,
            outcome: o.clone(),
            route: out.route_stats.get(i).cloned(),
        };
        let text = serde_json::to_string(&line)
            .unwrap_or_else(|e| fatal(&format!("cannot serialize rack result: {e}")));
        println!("{text}");
    }
    eprint!(
        "{}",
        greensprint_repro::core::report::datacenter_summary(out)
    );
    let broken = out.racks.iter().filter(|o| !o.floor_held).count();
    let overloads = out
        .racks
        .iter()
        .filter(|o| o.grid_overload_wh != 0.0)
        .count();
    let rack_violations: usize = out.racks.iter().map(|o| o.audit_violations.len()).sum();
    if broken > 0 || overloads > 0 || rack_violations > 0 || !out.site_audit_violations.is_empty() {
        if broken > 0 {
            eprintln!("error: {broken} rack(s) lost the Normal floor");
        }
        if overloads > 0 {
            eprintln!("error: {overloads} rack(s) overdrew the grid cap");
        }
        if rack_violations > 0 {
            eprintln!("error: {rack_violations} rack-level invariant audit violation(s)");
        }
        for v in &out.site_audit_violations {
            eprintln!("error: site audit: {v}");
        }
        exit(1);
    }
    eprintln!(
        "datacenter: {} rack(s), all held the Normal floor with a clean site audit",
        out.racks.len()
    );
}

/// `greensprint datacenter` — run a multi-rack fleet through the
/// partition-tolerant broker, optionally under a site-level fault plan
/// (rack blackouts, broker partitions, lossy/laggy control links).
/// Flag parsing and exit codes only — behavior lives in
/// `greensprint::broker`.
fn datacenter(flags: &HashMap<String, String>) {
    let jobs: usize = get(flags, "jobs", default_jobs());
    if jobs == 0 {
        usage("--jobs must be at least 1");
    }
    if let Some(path) = flags.get("resume") {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| usage(&format!("cannot read checkpoint {path}: {e}")));
        let snap = DatacenterSnapshot::from_json(&text)
            .unwrap_or_else(|e| usage(&format!("invalid datacenter checkpoint {path}: {e}")));
        eprintln!(
            "resume: {path} — continuing at epoch {}",
            snap.broker.next_epoch
        );
        let every = snapshot_every(flags);
        let out = resume_datacenter_snapshot(snap, jobs, every, &mut checkpoint_to(path))
            .unwrap_or_else(|e| usage(&e));
        report_datacenter(&out);
        return;
    }
    let cfg = datacenter_cfg(flags);
    if let Err(e) = cfg.validate() {
        usage(&e);
    }
    let out = match flags.get("checkpoint") {
        None => try_run_datacenter(&cfg, jobs),
        Some(path) => {
            if Path::new(path).exists() {
                usage(&format!(
                    "checkpoint {path} already exists; `greensprint datacenter --resume {path}` \
                     continues it, or remove the file to start over"
                ));
            }
            let every = snapshot_every(flags);
            run_datacenter_with_snapshots(&cfg, jobs, every, &mut checkpoint_to(path))
        }
    }
    .unwrap_or_else(|e| usage(&e));
    report_datacenter(&out);
}

/// `greensprint resume FILE` — continue an interrupted run from its
/// checkpoint. The file kind is detected: a sweep/chaos journal re-runs
/// the missing points (appending to the journal) and prints the *full*
/// result set, one JSON line per point in index order — byte-identical to
/// an uninterrupted `--jobs 1` run whatever `--jobs` is used here; an
/// engine snapshot finishes the burst or campaign and prints the usual
/// report.
fn resume_cmd(positional: &[String], flags: &HashMap<String, String>) {
    let path = positional.first().map(String::as_str).unwrap_or_else(|| {
        usage("resume needs a checkpoint FILE (a sweep journal or an engine snapshot)")
    });
    match Journal::resume(Path::new(path)) {
        Ok((journal, loaded)) => resume_journal(path, journal, loaded, flags),
        Err(JournalError::NotAJournal(_)) => resume_engine_snapshot(path, flags),
        Err(e) => usage(&format!("cannot resume {path}: {e}")),
    }
}

/// Finish a journaled sweep: verify the header, skip journaled points,
/// run the rest under supervision (appending to the same journal), and
/// print every result — journaled and fresh — in index order.
fn resume_journal(
    path: &str,
    mut journal: Journal,
    loaded: LoadedJournal,
    flags: &HashMap<String, String>,
) {
    let header = loaded.header;
    let points_json = serde_json::to_string(&header.points)
        .unwrap_or_else(|e| fatal(&format!("cannot serialize journal points: {e}")));
    if header.fingerprint != journal_fingerprint(&points_json)
        || header.points_digest != points_digest(&header.points)
    {
        usage(&format!(
            "cannot resume {path}: the journal was written by a different build or its \
             point list was edited; re-run the sweep from scratch"
        ));
    }
    let n = header.points.len();
    let mut slots: Vec<Option<SweepResult>> = (0..n).map(|_| None).collect();
    for r in loaded.results {
        if r.index >= n || r.seed != derive_seed(header.master_seed, r.index as u64) {
            usage(&format!(
                "cannot resume {path}: journaled record for index {} does not match the \
                 journal's own point list",
                r.index
            ));
        }
        let i = r.index;
        slots[i] = Some(r);
    }
    let jobs: usize = get(flags, "jobs", default_jobs());
    if jobs == 0 {
        usage("--jobs must be at least 1");
    }
    let done = slots.iter().filter(|s| s.is_some()).count();
    if loaded.dropped_tail {
        eprintln!("resume: dropped a truncated tail record; that point will re-run");
    }
    eprintln!("resume: {path} — {done}/{n} point(s) already journaled");
    let skip: HashSet<usize> = (0..n).filter(|&i| slots[i].is_some()).collect();
    let policy = supervisor_policy(flags);
    let (fresh, report) = run_supervised_sweep(
        header.points.clone(),
        header.master_seed,
        jobs,
        &policy,
        &skip,
        Some(&mut journal),
        |_| {},
    );
    for r in fresh {
        let i = r.index;
        slots[i] = Some(r);
    }
    let results: Vec<SweepResult> = slots.into_iter().flatten().collect();
    for r in &results {
        println!("{}", result_line(r));
    }
    report_supervision(&report);
    if header.mode == "chaos" {
        chaos_gate(&results);
    }
}

/// Finish a snapshotted burst or campaign, continuing to checkpoint into
/// the same file while it runs.
fn resume_engine_snapshot(path: &str, flags: &HashMap<String, String>) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage(&format!("cannot read checkpoint {path}: {e}")));
    let snap = EngineSnapshot::from_json(&text).unwrap_or_else(|e| {
        usage(&format!(
            "{path} is neither a sweep journal nor an engine snapshot: {e}"
        ))
    });
    let every = snapshot_every(flags);
    eprintln!(
        "resume: {path} — continuing at epoch {}",
        snap.state.next_epoch
    );
    match resume_snapshot(snap, every, &mut checkpoint_to(path)) {
        Ok(ResumedRun::Burst {
            outcome, policy, ..
        }) => {
            print_burst_result(&outcome);
            if let (Some(sp), Some(json)) = (flags.get("save-policy"), policy) {
                std::fs::write(sp, json)
                    .unwrap_or_else(|e| fatal(&format!("cannot write {sp}: {e}")));
                println!("  policy            : saved to {sp}");
            }
        }
        Ok(ResumedRun::Campaign(out)) => print_campaign_result(&out),
        Err(e) => usage(&e.to_string()),
    }
}

fn trace(positional: &[String], flags: &HashMap<String, String>) {
    let kind = positional.first().map(String::as_str).unwrap_or_else(|| {
        usage("trace needs a kind: solar | wind");
    });
    let days = get(flags, "days", 1_u32);
    let seed = get(flags, "seed", 7_u64);
    let out_path = flags
        .get("out")
        .unwrap_or_else(|| usage("trace needs --out FILE.csv"));
    let mut rng = SimRng::seed_from_u64(seed);
    let trace = match kind {
        "solar" => SolarTrace::generate(days, &WeatherModel::default(), &mut rng),
        "wind" => WindModel::default().generate(days, &mut rng),
        other => usage(&format!("unknown trace kind: {other}")),
    };
    trace_io::write_csv(&trace, out_path).unwrap_or_else(|e| {
        eprintln!("error: cannot write {out_path}: {e}");
        exit(1);
    });
    let mean: f64 = trace.samples().iter().sum::<f64>() / trace.len() as f64;
    println!(
        "wrote {} minute-samples of {kind} to {out_path} (capacity factor {:.0}%)",
        trace.len(),
        mean * 100.0
    );
}

fn tco(flags: &HashMap<String, String>) {
    let tco = TcoParams::paper();
    let hours = get(flags, "hours", 24.0_f64);
    println!("green-provision TCO (paper constants):");
    println!("  yearly capex   : {:.1} $/KW", tco.yearly_capex_per_kw());
    println!(
        "  revenue        : {:.1} $/KW at {hours} sprint-hours/year",
        tco.yearly_revenue_per_kw(hours)
    );
    println!("  POI            : {:+.1} $/KW/year", tco.poi(hours));
    println!(
        "  break-even     : {:.1} sprint-hours/year",
        tco.crossover_hours()
    );
}

/// `greensprint qtable validate|dump FILE` — offline forensics on a
/// serialized Q-table: either a raw policy JSON (`simulate --save-policy`)
/// or a quarantine sidecar written by the guardrail. `validate` exits 0
/// for a healthy table and 2 with the typed rejection otherwise; `dump`
/// prints what it can of any table, corrupt or not.
fn qtable(positional: &[String]) {
    let action = positional.first().map(String::as_str).unwrap_or_else(|| {
        usage("qtable needs an action: validate | dump");
    });
    let path = positional.get(1).map(String::as_str).unwrap_or_else(|| {
        usage("qtable needs a FILE (a saved policy or a quarantine sidecar)");
    });
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage(&format!("cannot read {path}: {e}")));
    // A quarantine sidecar wraps the policy with provenance; unwrap it.
    let (policy, sidecar) = match QuarantineRecord::from_json(&text) {
        Ok(rec) => (rec.policy.clone(), Some(rec)),
        Err(_) => (text, None),
    };
    if let Some(rec) = &sidecar {
        println!("quarantine sidecar:");
        println!("  epoch     : {}", rec.epoch);
        println!("  reason    : {}", rec.reason);
        println!("  checksum  : {}", rec.checksum);
        match rec.verify() {
            Ok(()) => println!("  integrity : checksum ok"),
            Err(e) => println!("  integrity : MISMATCH ({e})"),
        }
    }
    match action {
        "validate" => match QLearner::from_json(&policy) {
            Ok(l) => {
                print_table_stats(&l);
                println!("verdict: ok");
            }
            Err(e) => {
                eprintln!("error: invalid Q-table: {e}");
                exit(2);
            }
        },
        "dump" => match QLearner::from_json_unchecked(&policy) {
            Ok(l) => {
                print_table_stats(&l);
                match l.validate() {
                    Ok(()) => println!("verdict: ok"),
                    Err(e) => println!("verdict: CORRUPT ({e})"),
                }
            }
            Err(e) => {
                eprintln!("error: cannot parse Q-table: {e}");
                exit(2);
            }
        },
        other => usage(&format!("unknown qtable action: {other}")),
    }
}

fn print_table_stats(l: &QLearner) {
    let s = l.table_stats();
    println!("q-table:");
    println!(
        "  hyperparams : alpha {} gamma {} epsilon {}",
        l.learning_rate, l.discount, l.epsilon
    );
    println!("  cells       : {}", s.cells);
    println!("  non-finite  : {}", s.non_finite);
    println!(
        "  range       : [{:.6}, {:.6}] mean {:.6} max|q| {:.6}",
        s.min, s.max, s.mean, s.max_abs
    );
}

/// The machine-readable bench artifact (`BENCH_<sha>.json`), schema
/// `greensprint-bench/v1`. CI's bench-smoke job validates these fields.
#[derive(serde::Serialize)]
struct BenchArtifact {
    schema: &'static str,
    git_sha: String,
    quick: bool,
    reps: usize,
    peak_rss_kb: Option<u64>,
    epoch_loop: EpochLoopBench,
    des: DesBench,
    sweep: SweepBench,
    datacenter: DatacenterBench,
}

#[derive(serde::Serialize)]
struct EpochLoopBench {
    servers: usize,
    epochs: u64,
    table_build_s: f64,
    best_wall_s: f64,
    epochs_per_sec: f64,
}

#[derive(serde::Serialize)]
struct DesBench {
    epochs: usize,
    epoch_secs: f64,
    events: u64,
    best_wall_s: f64,
    events_per_sec: f64,
}

#[derive(serde::Serialize)]
struct SweepBench {
    points: usize,
    jobs: usize,
    best_wall_s: f64,
    points_per_sec: f64,
}

#[derive(serde::Serialize)]
struct DatacenterBench {
    racks: usize,
    servers_per_rack: usize,
    epochs: u64,
    jobs: usize,
    best_wall_s: f64,
    rack_epochs_per_sec: f64,
}

/// The current git short sha, for stamping bench artifacts. Falls back
/// to `"unknown"` outside a git checkout (e.g. an installed binary).
fn git_short_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| String::from("unknown"))
}

/// Peak resident set size in kB, from `/proc/self/status` `VmHWM`.
/// Degrades to `None` — never an error, never a misleading `0` — when
/// the file is absent (non-Linux), the field is missing (old kernels,
/// hardened procfs), or the value is unparsable; the bench artifact
/// serializes that as JSON `null`.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status)
}

/// Extract `VmHWM` in kB from `/proc/self/status` text. A reported 0 is
/// treated as unavailable: a live process has touched at least one page,
/// so 0 only appears on broken or stubbed procfs.
fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    (kb > 0).then_some(kb)
}

/// Time `body` `reps` times after one untimed warm-up call, returning the
/// best (minimum) wall time in seconds. Best-of-N because shared machines
/// are noisy: the minimum is the least-perturbed observation.
fn best_wall_s(reps: usize, mut body: impl FnMut()) -> f64 {
    body(); // warm-up: touch caches, fault in pages
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = std::time::Instant::now();
        body();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// `greensprint bench` — run the standardized hot-path workloads (engine
/// epoch loop, request-level DES, parallel sweep) and write
/// `BENCH_<git-short-sha>.json` so the performance trajectory is tracked
/// commit by commit. The one-time `ProfileTable` build is done *before*
/// any timed region and each workload gets an untimed warm-up rep, so the
/// numbers measure the steady-state loops, not cold caches; wall times are
/// best-of-`--reps` (minimum) because shared machines are noisy. Refuses
/// to overwrite an existing artifact for the same sha without `--force`
/// (exit 2).
fn bench(flags: &HashMap<String, String>) {
    let quick = flags.contains_key("quick");
    let force = flags.contains_key("force");
    let reps: usize = get(flags, "reps", if quick { 2 } else { 5 });
    if reps == 0 {
        usage("--reps must be at least 1");
    }
    let sha = git_short_sha();
    let out_path = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| format!("BENCH_{sha}.json"));
    if Path::new(&out_path).exists() && !force {
        eprintln!("error: {out_path} already exists for sha {sha}; pass --force to overwrite it");
        exit(2);
    }

    // Workload 1 — engine epoch loop: a green fleet driven by the Pacing
    // strategy in Analytic mode (the learner-free configuration every
    // sweep cell and campaign epoch runs through). One engine run
    // simulates 2× the burst minutes of 1-minute epochs: the strategy run
    // plus its Normal baseline.
    let servers: usize = if quick { 200 } else { 1000 };
    let minutes: u64 = if quick { 60 } else { 240 };
    let epochs_per_run = 2 * minutes;
    let t0 = std::time::Instant::now();
    let _ = ProfileTable::cached(Application::SpecJbb);
    let table_build_s = t0.elapsed().as_secs_f64();
    let epoch_cfg = || EngineConfig {
        green: GreenConfig {
            name: "bench".into(),
            green_servers: servers,
            panels: servers as u32,
            battery_ah: 10.0,
        },
        strategy: Strategy::Pacing,
        availability: AvailabilityLevel::Medium,
        burst_duration: SimDuration::from_mins(minutes),
        measurement: MeasurementMode::Analytic,
        thermal: ThermalModel::Disabled,
        ..EngineConfig::default()
    };
    Engine::try_new(epoch_cfg()).unwrap_or_else(|e| fatal(&e.to_string()));
    let epoch_wall = best_wall_s(reps, || {
        let out = Engine::new(epoch_cfg()).run();
        assert!(out.speedup_vs_normal.is_finite());
    });
    let epochs_per_sec = epochs_per_run as f64 / epoch_wall;
    eprintln!(
        "bench: epoch_loop  {servers} servers x {epochs_per_run} epochs: \
         {epoch_wall:.3} s best-of-{reps} = {epochs_per_sec:.1} epochs/s \
         (profile table {table_build_s:.3} s, untimed)"
    );

    // Workload 2 — request-level DES: one Memcached server at its SLO
    // capacity under max sprint (the highest event rate the engine ever
    // asks of a single server). Events = arrivals + completions.
    let app = Application::Memcached.profile();
    let setting = ServerSetting::max_sprint();
    let offered = app.slo_capacity(setting);
    let des_epoch = SimDuration::from_secs(10);
    let des_epochs: usize = if quick { 6 } else { 60 };
    let mut des_events = 0u64;
    let des_wall = best_wall_s(reps, || {
        let mut sim = greensprint_repro::workload::des::ServerSim::new(SimRng::seed_from_u64(1));
        let mut events = 0.0;
        for _ in 0..des_epochs {
            let perf = sim.advance_epoch(&app, setting, offered, offered, des_epoch);
            events += (perf.offered_rps + perf.completed_rps) * des_epoch.as_secs_f64();
        }
        des_events = events.round() as u64;
    });
    let events_per_sec = des_events as f64 / des_wall;
    eprintln!(
        "bench: des         {des_events} events over {des_epochs} x {des_epoch} epochs: \
         {des_wall:.3} s best-of-{reps} = {events_per_sec:.0} events/s"
    );

    // Workload 3 — parallel sweep: a small strategy x app grid of analytic
    // bursts through the deterministic executor at the default job count.
    let strategies: &[Strategy] = if quick {
        &[Strategy::Greedy, Strategy::Pacing]
    } else {
        &[
            Strategy::Greedy,
            Strategy::Parallel,
            Strategy::Pacing,
            Strategy::Hybrid,
        ]
    };
    let jobs = default_jobs();
    let sweep_points = || {
        let mut points = Vec::new();
        for &strategy in strategies {
            for app in [Application::SpecJbb, Application::Memcached] {
                let cfg = EngineConfig {
                    app,
                    strategy,
                    green: GreenConfig::re_batt(),
                    availability: AvailabilityLevel::Medium,
                    burst_duration: SimDuration::from_mins(5),
                    measurement: MeasurementMode::Analytic,
                    ..EngineConfig::default()
                };
                points.push(SweepPoint::burst(format!("{app}/{strategy}"), cfg));
            }
        }
        points
    };
    let n_points = sweep_points().len();
    let sweep_wall = best_wall_s(reps, || {
        let results = run_sweep(sweep_points(), 7, jobs);
        assert_eq!(results.len(), n_points);
    });
    let points_per_sec = n_points as f64 / sweep_wall;
    eprintln!(
        "bench: sweep       {n_points} points on {jobs} jobs: \
         {sweep_wall:.3} s best-of-{reps} = {points_per_sec:.1} points/s"
    );

    // Workload 4 — datacenter broker: racks of 10 servers stepped in
    // lockstep through the partition-tolerant broker under a seeded site
    // fault plan (blackouts, partitions, lossy/laggy links), so the
    // number tracks the broker's routing + messaging machinery, not just
    // the per-rack epoch loop. Each run is the strategy pass plus the
    // per-rack baseline replays.
    let dc_racks: usize = if quick { 3 } else { 8 };
    let dc_minutes: u64 = if quick { 5 } else { 10 };
    let dc_cfg = || {
        let template = EngineConfig {
            strategy: Strategy::Pacing,
            availability: AvailabilityLevel::Medium,
            burst_duration: SimDuration::from_mins(dc_minutes),
            measurement: MeasurementMode::Analytic,
            thermal: ThermalModel::Disabled,
            ..EngineConfig::default()
        };
        let start = SimTime::from_secs_f64(template.burst_start_hour * 3_600.0);
        DatacenterConfig {
            racks: (0..dc_racks)
                .map(|i| RackSpec {
                    app: Application::ALL[i % Application::ALL.len()],
                    green: GreenConfig {
                        name: "bench".into(),
                        green_servers: 10,
                        panels: 10,
                        battery_ah: 10.0,
                    },
                    strategy: Strategy::Pacing,
                })
                .collect(),
            site_fault_plan: Some(FaultPlan::generate_site(
                42,
                start,
                template.burst_duration,
                dc_racks as u8,
            )),
            template,
        }
    };
    let dc_jobs = default_jobs();
    let dc_epochs = 2 * dc_minutes;
    let dc_wall = best_wall_s(reps, || {
        let out = try_run_datacenter(&dc_cfg(), dc_jobs)
            .unwrap_or_else(|e| fatal(&format!("bench datacenter: {e}")));
        assert!(out.mean_speedup.is_finite());
    });
    let rack_epochs_per_sec = (dc_racks as u64 * dc_epochs) as f64 / dc_wall;
    eprintln!(
        "bench: datacenter  {dc_racks} racks x 10 servers x {dc_epochs} epochs on {dc_jobs} jobs: \
         {dc_wall:.3} s best-of-{reps} = {rack_epochs_per_sec:.1} rack-epochs/s"
    );

    let artifact = BenchArtifact {
        schema: "greensprint-bench/v1",
        git_sha: sha,
        quick,
        reps,
        peak_rss_kb: peak_rss_kb(),
        epoch_loop: EpochLoopBench {
            servers,
            epochs: epochs_per_run,
            table_build_s,
            best_wall_s: epoch_wall,
            epochs_per_sec,
        },
        des: DesBench {
            epochs: des_epochs,
            epoch_secs: des_epoch.as_secs_f64(),
            events: des_events,
            best_wall_s: des_wall,
            events_per_sec,
        },
        sweep: SweepBench {
            points: n_points,
            jobs,
            best_wall_s: sweep_wall,
            points_per_sec,
        },
        datacenter: DatacenterBench {
            racks: dc_racks,
            servers_per_rack: 10,
            epochs: dc_epochs,
            jobs: dc_jobs,
            best_wall_s: dc_wall,
            rack_epochs_per_sec,
        },
    };
    let text = serde_json::to_string_pretty(&artifact)
        .unwrap_or_else(|e| fatal(&format!("cannot serialize bench artifact: {e}")));
    std::fs::write(&out_path, text + "\n")
        .unwrap_or_else(|e| fatal(&format!("cannot write {out_path}: {e}")));
    println!("wrote {out_path}");
}

/// `greensprint serve`: the epoch loop as a crash-tolerant rack-controller
/// daemon. Flag parsing and exit codes only — all behavior lives in
/// `greensprint::serve`.
fn serve_cmd(flags: &HashMap<String, String>) {
    let cfg = engine_cfg(flags);
    let sim_time = flags.contains_key("sim-time");
    let rate: f64 = get(flags, "rate", 1.0);
    if rate <= 0.0 || rate.is_nan() {
        usage("--rate must be positive");
    }

    let overrun = match flags.get("overrun").map(String::as_str).unwrap_or("skip") {
        "skip" => OverrunPolicy::Skip,
        "degrade" => OverrunPolicy::Degrade,
        other => usage(&format!("--overrun takes skip|degrade, got {other}")),
    };
    let n_epochs = cfg.burst_duration.div_duration(cfg.epoch).unwrap_or(0);
    let disturbances = flags
        .get("disturb-seed")
        .map(|_| DisturbancePlan::generate(get(flags, "disturb-seed", 0_u64), n_epochs));
    let options = ServeOptions {
        overrun,
        stale_after_epochs: get(flags, "stale-after", 3_u32),
        disturbances,
        metrics_buffer: get(flags, "metrics-buffer", 1024_usize),
        snapshot_every: get(flags, "snapshot-every", 10_u64),
        control_retries: get(flags, "retries", 2_u32),
        max_line_len: get(
            flags,
            "max-line-len",
            greensprint::net::DEFAULT_MAX_LINE_LEN,
        ),
        racks: get(flags, "racks", 1_u32),
        rack_restarts: get(flags, "rack-restarts", 2_u32),
        rack_snapshot_every: get(flags, "rack-snapshot-every", 0_u64),
    };
    if options.metrics_buffer == 0 {
        usage("--metrics-buffer must be at least 1");
    }
    if options.racks == 0 {
        usage("--racks must be at least 1");
    }

    let control = match flags.get("control").map(String::as_str).unwrap_or("none") {
        "none" => ControlBackend::None,
        "sim" => ControlBackend::Sim,
        "sysfs" => {
            let root = flags
                .get("sysfs-root")
                .unwrap_or_else(|| usage("--control sysfs needs --sysfs-root DIR"));
            ControlBackend::Sysfs(PathBuf::from(root))
        }
        other => usage(&format!("--control takes none|sim|sysfs, got {other}")),
    };

    // Network plane: any of the listener flags turns it on; the knob
    // flags are validated here (exit 2) before the daemon starts.
    let net_flags_used = ["listen", "metrics-listen", "admin-token"]
        .iter()
        .any(|f| flags.contains_key(*f));
    let net = net_flags_used.then(|| {
        let netcfg = NetConfig {
            listen: flags.get("listen").cloned(),
            metrics_listen: flags.get("metrics-listen").cloned(),
            admin_token: flags.get("admin-token").cloned(),
            max_conns: get(flags, "max-conns", greensprint::net::DEFAULT_MAX_CONNS),
            conn_timeout_ms: get(
                flags,
                "conn-timeout-ms",
                greensprint::net::DEFAULT_CONN_TIMEOUT_MS,
            ),
            max_line_len: options.max_line_len,
            ..NetConfig::default()
        };
        if let Err(e) = netcfg.validate() {
            usage(&e);
        }
        netcfg
    });
    if !net_flags_used && (flags.contains_key("max-conns") || flags.contains_key("conn-timeout-ms"))
    {
        usage("--max-conns/--conn-timeout-ms need a listener: pass --listen or --metrics-listen");
    }

    let args = ServeArgs {
        cfg,
        options,
        sim_time,
        rate,
        throttle_ms: get(flags, "throttle-ms", 0_u64),
        tick_budget_ms: flags
            .contains_key("tick-budget-ms")
            .then(|| get(flags, "tick-budget-ms", 0_u64)),
        metrics_path: flags.get("metrics").map(PathBuf::from),
        heartbeat_path: flags.get("heartbeat").map(PathBuf::from),
        snapshot_path: flags.get("snapshot").map(PathBuf::from),
        feed_path: flags.get("feed").map(PathBuf::from),
        control,
        resume_path: flags.get("resume").map(PathBuf::from),
        drain_after_epochs: flags
            .contains_key("drain-after")
            .then(|| get(flags, "drain-after", 0_u64)),
        net,
    };

    let summary = serve(args).unwrap_or_else(|e| match e {
        ServeError::Config(_) | ServeError::Snapshot(_) => usage(&e.to_string()),
        _ => fatal(&e.to_string()),
    });
    let text = serde_json::to_string_pretty(&summary)
        .unwrap_or_else(|e| fatal(&format!("cannot serialize serve summary: {e}")));
    println!("{text}");
    if summary.racks >= 2 {
        eprint!("{}", greensprint::report::rack_fleet_summary(&summary));
    }
    if let Some(n) = &summary.net {
        eprint!("{}", greensprint::report::net_plane_summary(n));
    }
    // A completed run that lost the Normal floor or tripped the auditor is
    // an operational failure, same contract as `chaos`.
    if summary.audit_violations > 0 || summary.floor_held == Some(false) {
        exit(1);
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "greensprint — renewable-energy-driven computational sprinting

usage:
  greensprint simulate [--app jbb|websearch|memcached] [--config re-batt|re-only|re-sbatt|sre-sbatt]
                       [--strategy normal|greedy|parallel|pacing|hybrid] [--availability min|med|max]
                       [--minutes N] [--intensity K] [--seed N] [--analytic] [--hysteresis F]
                       [--trace FILE.csv] [--warm-policy FILE] [--save-policy FILE]
                       [--scenario FILE.json] [--checkpoint FILE] [--snapshot-every N]
  greensprint campaign [--days N] [--spikes N] [--app A] [--strategy S] [--seed N] [--analytic]
                       [--checkpoint FILE] [--snapshot-every N]
  greensprint sweep    [--apps A,B] [--strategies S,..] [--availabilities L,..] [--minutes M,..]
                       [--configs C,..] [--days N] [--intensity K] [--seed N] [--jobs N] [--analytic]
                       [--checkpoint FILE | --resume FILE] [--retries N] [--task-timeout-epochs N]
                       grid sweep on the deterministic parallel executor; one JSON line
                       per point (completion order), identical results for any --jobs
  greensprint chaos    [--plan FILE.json] [--fault-seed N] [--runs R] [--jobs N] [--seed N]
                       [--fleet] [--crashes N] [--flaps N] [--stragglers N]
                       [--app A] [--strategy S] [--availability L] [--minutes N] [--analytic]
                       [--checkpoint FILE | --resume FILE] [--retries N] [--task-timeout-epochs N]
                       fault-injection runs (sensor dropout, inverter derate, stuck servers,
                       ...); one JSON line per run; exits 1 if any run loses the Normal
                       floor, overdraws the grid, or trips the invariant auditor.
                       --fleet switches the generator to server-level fault domains
                       (crashes, power flaps, stragglers) with --crashes/--flaps/
                       --stragglers picking the per-plan mix (2/1/1); dead servers shed
                       their load to the survivors and rejoin after a clean streak
  greensprint datacenter [--racks N] [--apps A,B] [--configs C,..] [--strategies S,..]
                       [--availability min|med|max] [--minutes N] [--intensity K] [--seed N]
                       [--analytic] [--jobs N] [--site-plan FILE.json | --site-seed N]
                       [--checkpoint FILE | --resume FILE] [--snapshot-every N]
                       run --racks racks (cycling the app/config/strategy axes) under
                       the partition-tolerant broker: load routes toward racks with
                       renewable surplus, partitioned racks degrade to local autonomy
                       and rejoin through probation, blacked-out racks shed their load
                       to the survivors. --site-seed generates a seeded site fault
                       plan (blackouts, partitions, lossy/laggy links); --site-plan
                       loads one from JSON. One JSON line per rack, byte-identical
                       for any --jobs; --checkpoint snapshots the whole fleet
                       (Analytic mode) and --resume finishes it byte-identically.
                       Exits 1 if any rack loses the Normal floor, overdraws the
                       grid, or the rack/site invariant audits record a violation
  greensprint serve    [--sim-time] [--rate F] [--throttle-ms N] [--tick-budget-ms N]
                       [--overrun skip|degrade] [--stale-after N] [--disturb-seed N]
                       [--metrics FILE] [--heartbeat FILE] [--snapshot FILE] [--snapshot-every N]
                       [--feed FILE|-] [--control none|sim|sysfs] [--sysfs-root DIR] [--retries N]
                       [--resume FILE] [--drain-after N] [--metrics-buffer N]
                       [--racks N] [--rack-restarts N] [--rack-snapshot-every N]
                       [--listen ADDR] [--metrics-listen ADDR] [--admin-token SECRET]
                       [--max-conns N] [--conn-timeout-ms N] [engine flags]
                       run the controller as a crash-tolerant daemon: trace replay at
                       --rate sim-seconds per wall-second (or --sim-time at full speed),
                       an optional line-delimited supply feed whose silence routes into
                       PSS safe mode after --stale-after epochs, per-tick deadline
                       budgets with an explicit overrun policy (a tick wedged past 4x
                       its budget also trips the watchdog: counted, guardrail-logged,
                       one ladder demotion), bounded deterministic actuation retries, a
                       drop-oldest metrics buffer, a heartbeat file, SIGTERM drain, and
                       --resume restart from the last snapshot with a byte-identical
                       --sim-time metrics stream. --racks N drives N racks as
                       supervised worker threads: a crashed or admin-killed worker
                       restarts from its last rack snapshot within --rack-restarts
                       attempts (deterministic replay — the aggregate stream stays
                       byte-identical), then is quarantined with its load rerouted to
                       the survivors; rack snapshots ride --rack-snapshot-every (0 =
                       follow --snapshot-every) and the whole fleet checkpoints into
                       one v2 --snapshot for mid-outage --resume. --listen opens the
                       TCP network plane (JSON-lines telemetry ingest in the --feed
                       formats, SUB [?from_epoch=N][&rack=R] metrics fan-out with
                       gap-free catch-up replay, STATUS/DRAIN/KILL-RACK/RESTART-RACK
                       admin gated by --admin-token), bounded by --max-conns (>= 1)
                       and --conn-timeout-ms (> 0); network activity never perturbs
                       the --sim-time metrics stream
  greensprint resume   FILE [--jobs N] [--retries N] [--task-timeout-epochs N] [--snapshot-every N]
                       continue an interrupted run from its checkpoint: a sweep/chaos
                       journal re-runs only the missing points and prints the full result
                       set in index order; an engine snapshot (simulate/campaign
                       --checkpoint, Analytic mode only) finishes from the last epoch
  greensprint qtable   (validate|dump) FILE
                       offline Q-table forensics: FILE is a saved policy or a guardrail
                       quarantine sidecar; validate exits 2 on a corrupt table, dump
                       prints stats for any table
  greensprint trace (solar|wind) [--days N] [--seed N] --out FILE.csv
  greensprint tco [--hours H]
  greensprint bench    [--quick] [--force] [--reps N] [--out FILE.json]
                       standardized hot-path benchmarks (engine epoch loop, request
                       DES, parallel sweep); writes BENCH_<git-short-sha>.json with
                       wall times, epochs/events/points per second, and peak RSS.
                       Best-of---reps timing after untimed warm-up; refuses to
                       overwrite the same sha's artifact without --force (exit 2)

guardrail flags (simulate/campaign/sweep/chaos):
  --guardrail on|off       shadow a certified fallback strategy each epoch; on
                           deterministic detector trips (SLO streak, SoC-vs-plan
                           divergence, reward regression vs shadow, Q-table corruption)
                           demote down the failover ladder Hybrid > Parallel > Pacing >
                           Normal, quarantine the offending Q-table, and re-promote
                           after a clean probation window (off)
  --fallback STRATEGY      certified fallback to shadow and land on (pacing)
  --quarantine-dir DIR     where quarantined Q-table sidecars are written

robustness flags:
  --checkpoint FILE        sweep/chaos: fsync'd JSON-lines journal of completed points
                           simulate/campaign: engine snapshot, rewritten atomically
  --resume FILE            continue a journal in place (grid flags are ignored)
  --retries N              re-attempts for a panicking task before recording it failed (2)
  --task-timeout-epochs N  deterministic per-task epoch budget; over-budget tasks are
                           failed up front without running (0 = unlimited)
  --snapshot-every N       epochs between engine snapshots (10)"
    );
    exit(2);
}

#[cfg(test)]
mod tests {
    use super::parse_vm_hwm_kb;

    #[test]
    fn vm_hwm_parses_normal_status() {
        let status =
            "Name:\tgreensprint\nVmPeak:\t  201844 kB\nVmHWM:\t   73216 kB\nVmRSS:\t   73216 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(73216));
    }

    #[test]
    fn vm_hwm_missing_field_is_none() {
        let status = "Name:\tgreensprint\nVmPeak:\t  201844 kB\nVmRSS:\t   73216 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), None);
    }

    #[test]
    fn vm_hwm_empty_or_garbage_is_none() {
        assert_eq!(parse_vm_hwm_kb(""), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tpotato kB\n"), None);
    }

    #[test]
    fn vm_hwm_zero_is_unavailable_not_zero() {
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t       0 kB\n"), None);
    }
}
