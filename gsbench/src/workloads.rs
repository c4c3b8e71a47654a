//! The four end-to-end workloads, their output checks and their metrics.
//!
//! Each workload is a *pass*: a fixed input shape built from the seed and
//! run through the program's public API. A timed run repeats passes for the
//! requested seconds and reports medians over passes, so one slow pass
//! cannot move a figure. Every pass hashes its deterministic outputs; the
//! digest must equal the first pass's and, when one is recorded for the
//! workload and seed, the recorded one.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use greensprint_repro::core::guardrail::GuardrailConfig;
use greensprint_repro::prelude::*;

use crate::stats::{median, Digest};
use crate::trace::Tracer;
use crate::Metrics;

/// The named workloads, in the order `BENCHMARK.json` lists them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BurstAnalytic,
    BurstDes,
    DatacenterSite,
    ServeSite,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BurstAnalytic,
        Workload::BurstDes,
        Workload::DatacenterSite,
        Workload::ServeSite,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BurstAnalytic => "burst_analytic",
            Workload::BurstDes => "burst_des",
            Workload::DatacenterSite => "datacenter_site",
            Workload::ServeSite => "serve_site",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input shape of every workload. [`Size::full`] is the benchmark;
/// [`Size::tiny`] is the smoke test's.
#[derive(Clone, Debug)]
pub struct Size {
    pub analytic_servers: usize,
    pub analytic_minutes: u64,
    pub des_servers: usize,
    pub des_minutes: u64,
    pub dc_racks: usize,
    pub dc_minutes: u64,
    pub serve_racks: u32,
    pub serve_ticks: u64,
    pub serve_snapshot_every: u64,
    /// Open-loop ingest rate of the serve client, frames per second.
    pub ingest_hz: f64,
    /// Set-up repetitions per run (their median is `setup_s`).
    pub setup_reps: usize,
    /// Passes every timed run makes at least.
    pub min_passes: usize,
}

impl Size {
    pub fn full() -> Size {
        Size {
            analytic_servers: 100,
            analytic_minutes: 240,
            des_servers: 10,
            des_minutes: 10,
            dc_racks: 8,
            dc_minutes: 240,
            serve_racks: 4,
            serve_ticks: 720,
            serve_snapshot_every: 60,
            ingest_hz: 500.0,
            setup_reps: 7,
            min_passes: 3,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Size {
        Size {
            analytic_servers: 4,
            analytic_minutes: 6,
            des_servers: 2,
            des_minutes: 2,
            dc_racks: 3,
            dc_minutes: 6,
            serve_racks: 2,
            serve_ticks: 60,
            serve_snapshot_every: 10,
            ingest_hz: 200.0,
            setup_reps: 2,
            min_passes: 2,
        }
    }
}

/// A rack of `servers` green servers, one panel and one 10 Ah battery each.
pub fn green_rack(servers: usize) -> GreenConfig {
    GreenConfig {
        name: "bench".into(),
        green_servers: servers,
        panels: servers as u32,
        battery_ah: 10.0,
    }
}

/// `burst_analytic`: 3 apps x {Pacing, Hybrid} x {min, med, max}.
///
/// Points are submitted longest first (Hybrid before Pacing), so the
/// sweep's tail is short Pacing points and a pass's length does not hinge
/// on which worker draws the last Hybrid point.
pub fn analytic_points(size: &Size) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for strategy in [Strategy::Hybrid, Strategy::Pacing] {
        for app in Application::ALL {
            for availability in AvailabilityLevel::ALL {
                let cfg = EngineConfig {
                    app,
                    green: green_rack(size.analytic_servers),
                    strategy,
                    availability,
                    burst_duration: SimDuration::from_mins(size.analytic_minutes),
                    measurement: MeasurementMode::Analytic,
                    thermal: ThermalModel::Disabled,
                    ..EngineConfig::default()
                };
                let label = format!("{app}/{strategy}/{}", availability.label());
                points.push(SweepPoint::burst(label, cfg));
            }
        }
    }
    points
}

/// `burst_des`: 3 apps x {Pacing, Hybrid}, request-level DES, submitted
/// longest first (Memcached's event rate is far above the others').
pub fn des_points(size: &Size) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for app in [
        Application::Memcached,
        Application::WebSearch,
        Application::SpecJbb,
    ] {
        for strategy in [Strategy::Hybrid, Strategy::Pacing] {
            let cfg = EngineConfig {
                app,
                green: green_rack(size.des_servers),
                strategy,
                availability: AvailabilityLevel::Medium,
                burst_duration: SimDuration::from_mins(size.des_minutes),
                measurement: MeasurementMode::Des,
                ..EngineConfig::default()
            };
            points.push(SweepPoint::burst(format!("{app}/{strategy}/des"), cfg));
        }
    }
    points
}

/// `datacenter_site`: racks of 10 servers, apps cycling, Pacing and Hybrid
/// alternating, under a seeded site fault plan.
pub fn datacenter_config(racks: usize, minutes: u64, seed: u64) -> DatacenterConfig {
    let template = EngineConfig {
        strategy: Strategy::Pacing,
        availability: AvailabilityLevel::Medium,
        burst_duration: SimDuration::from_mins(minutes),
        measurement: MeasurementMode::Analytic,
        thermal: ThermalModel::Disabled,
        seed,
        ..EngineConfig::default()
    };
    let start = SimTime::from_secs_f64(template.burst_start_hour * 3_600.0);
    DatacenterConfig {
        racks: (0..racks)
            .map(|i| RackSpec {
                app: Application::ALL[i % Application::ALL.len()],
                green: green_rack(10),
                strategy: if i % 2 == 0 {
                    Strategy::Pacing
                } else {
                    Strategy::Hybrid
                },
            })
            .collect(),
        site_fault_plan: Some(FaultPlan::generate_site(
            seed,
            start,
            template.burst_duration,
            racks as u8,
        )),
        template,
    }
}

/// `serve_site`'s engine configuration: Hybrid with the guardrail on.
pub fn serve_config(ticks: u64, seed: u64) -> EngineConfig {
    EngineConfig {
        strategy: Strategy::Hybrid,
        availability: AvailabilityLevel::Medium,
        burst_duration: SimDuration::from_mins(ticks),
        measurement: MeasurementMode::Analytic,
        guardrail: GuardrailConfig {
            enabled: true,
            ..GuardrailConfig::default()
        },
        seed,
        ..EngineConfig::default()
    }
}

/// What one pass did and how long it took.
#[derive(Debug, Default)]
pub struct Pass {
    pub wall_s: f64,
    pub digest: String,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Simulated green-server-epochs (strategy runs plus Normal baselines).
    pub server_epochs: f64,
    pub rack_epochs: f64,
    /// Requests offered to the measurement plane, computed from the
    /// returned epoch records.
    pub requests: f64,
    /// Site epochs the pass advanced: the epochs of one run pair for batch
    /// workloads, the ticks for serve.
    pub ticks: f64,
    /// Host seconds the pass spent advancing them (serve: first to last
    /// epoch line at the subscriber; batch: the whole pass).
    pub busy_s: f64,
    /// Sweep only: when each result arrived, s since the pass started.
    pub arrivals_s: Vec<f64>,
    /// Serve only: gaps between consecutive live epoch lines, ms.
    pub tick_gaps_ms: Vec<f64>,
    /// Serve only: serve call to the first epoch line, s.
    pub first_line_s: Option<f64>,
    /// Serve only: per-run details the traced pass reports.
    pub serve: Option<ServeDetail>,
}

impl Pass {
    /// Count `n` operations of which `bad` failed.
    fn ops(&mut self, n: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 && self.problems.len() < 8 {
            self.problems.push(what());
        }
    }

    /// Count one operation.
    fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.ops(1, u64::from(!ok), what);
    }
}

#[derive(Debug, Default, Clone)]
pub struct ServeDetail {
    pub summary: Option<ServeSummary>,
    pub ready_s: f64,
    pub snapshot_path: Option<PathBuf>,
    pub ingest_lateness_ms: Vec<f64>,
    pub status_rtt_ms: Vec<f64>,
}

/// Offered requests of one burst's strategy run plus its Normal baseline
/// (same offered stream), from the records.
fn burst_requests(b: &BurstOutcome, epoch_s: f64) -> f64 {
    2.0 * b
        .epochs
        .iter()
        .map(|r| r.offered_rps * f64::from(r.live_servers) * epoch_s)
        .sum::<f64>()
}

/// A burst (or rack) fails when it audits dirty or loses the Normal floor.
fn check_burst(pass: &mut Pass, label: &str, b: &BurstOutcome) {
    pass.op(b.audit_violations.is_empty() && b.floor_held, || {
        format!(
            "{label}: floor_held {}, audit violations {:?}",
            b.floor_held, b.audit_violations
        )
    });
}

/// One sweep pass over `points` (either burst grid).
pub fn sweep_pass(
    points: &[SweepPoint],
    seed: u64,
    jobs: usize,
    tracer: Option<&mut Tracer>,
) -> Pass {
    let mut arrivals = Vec::with_capacity(points.len());
    let t0 = Instant::now();
    let mut run = || {
        run_sweep_streaming(points.to_vec(), seed, jobs, |_| {
            arrivals.push(t0.elapsed().as_secs_f64())
        })
    };
    let results = match tracer {
        Some(t) => t.span("sweep.run_sweep_streaming", 0, |_| run()),
        None => run(),
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let mut pass = Pass {
        wall_s,
        busy_s: wall_s,
        arrivals_s: arrivals,
        ..Pass::default()
    };
    let mut digest = Digest::default();
    for (r, p) in results.iter().zip(points) {
        digest.update(
            serde_json::to_string(r)
                .expect("result serializes")
                .as_bytes(),
        );
        let SweepTask::Burst(cfg) = &p.task else {
            unreachable!("benchmark sweeps are bursts")
        };
        let epochs = cfg.burst_duration.div_duration(cfg.epoch).unwrap_or(0) as f64;
        pass.server_epochs += 2.0 * epochs * cfg.green.green_servers as f64;
        pass.rack_epochs += 2.0 * epochs;
        pass.ticks = pass.ticks.max(2.0 * epochs);
        match &r.outcome {
            SweepOutcome::Burst(b) => {
                pass.requests += burst_requests(b, cfg.epoch.as_secs_f64());
                check_burst(&mut pass, &r.label, b);
            }
            other => pass.op(false, || format!("{}: {other:?}", r.label)),
        }
    }
    pass.digest = digest.hex();
    pass
}

/// One `datacenter_site` pass.
pub fn datacenter_pass(cfg: &DatacenterConfig, jobs: usize) -> Pass {
    let t0 = Instant::now();
    let out = try_run_datacenter(cfg, jobs);
    let wall_s = t0.elapsed().as_secs_f64();
    let mut pass = Pass {
        wall_s,
        busy_s: wall_s,
        ..Pass::default()
    };
    let out = match out {
        Ok(o) => o,
        Err(e) => {
            pass.op(false, || format!("datacenter run: {e}"));
            return pass;
        }
    };
    let epochs = cfg
        .template
        .burst_duration
        .div_duration(cfg.template.epoch)
        .unwrap_or(0) as f64;
    let epoch_s = cfg.template.epoch.as_secs_f64();
    for (i, (rack, spec)) in out.racks.iter().zip(&cfg.racks).enumerate() {
        pass.server_epochs += 2.0 * epochs * spec.green.green_servers as f64;
        pass.rack_epochs += 2.0 * epochs;
        pass.requests += burst_requests(rack, epoch_s);
        check_burst(&mut pass, &format!("rack {i}"), rack);
    }
    pass.op(out.site_audit_violations.is_empty(), || {
        format!("site audit: {:?}", out.site_audit_violations)
    });
    pass.ticks = 2.0 * epochs;
    let mut digest = Digest::default();
    digest.update(
        serde_json::to_string(&out)
            .expect("outcome serializes")
            .as_bytes(),
    );
    pass.digest = digest.hex();
    pass
}

/// Knobs of one serve run beyond the workload's shape.
#[derive(Clone, Debug)]
pub struct ServeRun {
    pub racks: u32,
    pub ticks: u64,
    pub snapshots: bool,
    pub listeners: bool,
    pub ingest: bool,
    /// Admin `STATUS` round trips to time (sequential, on the connection
    /// the ingest client would otherwise use).
    pub status_requests: usize,
}

/// Epoch of a metrics line, for the site stream (`{"epoch":N,...`).
fn line_epoch(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"epoch\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

fn wait_ready(ready: &OnceLock<NetAddrs>, give_up: &AtomicBool) -> Option<SocketAddr> {
    let deadline = Instant::now() + Duration::from_secs(60);
    while Instant::now() < deadline && !give_up.load(Ordering::SeqCst) {
        if let Some(a) = ready.get() {
            return a.listen;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    None
}

/// Lines the subscriber read: (arrival since serve call, s; line).
type Received = Vec<(f64, String)>;

fn subscribe(
    addr: SocketAddr,
    t0: Instant,
    last_epoch: u64,
    near_end: &AtomicBool,
    stop_at: u64,
) -> std::io::Result<Received> {
    let s = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    s.set_read_timeout(Some(Duration::from_secs(20)))?;
    let mut w = s.try_clone()?;
    writeln!(w, "SUB ?from_epoch=0")?;
    let mut reader = BufReader::new(s);
    let mut got = Vec::new();
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let at = t0.elapsed().as_secs_f64();
        let text = line.trim_end().to_string();
        let epoch = line_epoch(&text);
        got.push((at, text));
        if let Some(e) = epoch {
            if e >= stop_at {
                near_end.store(true, Ordering::SeqCst);
            }
            if e >= last_epoch {
                break;
            }
        }
    }
    Ok(got)
}

/// Open-loop ingest: frame `i` is due `i / hz` after the first; each is
/// timed from when it was due. Returns (frames sent, lateness ms).
fn ingest(
    addr: SocketAddr,
    hz: f64,
    seed: u64,
    stop: &AtomicBool,
) -> std::io::Result<(u64, Vec<f64>)> {
    let mut s = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    s.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut rng = SimRng::seed_from_u64(seed ^ 0x001a_9e57);
    let start = Instant::now();
    let mut sent = 0u64;
    let mut late = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        let due = start + Duration::from_secs_f64(sent as f64 / hz);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let watts = 150.0 + 300.0 * rng.uniform();
        let frame = if sent.is_multiple_of(2) {
            format!("{watts:.3}\n")
        } else {
            format!("{{\"supply_w\":{watts:.3}}}\n")
        };
        s.write_all(frame.as_bytes())?;
        late.push(due.elapsed().as_secs_f64() * 1e3);
        sent += 1;
    }
    s.flush()?;
    s.shutdown(std::net::Shutdown::Write)?;
    Ok((sent, late))
}

fn status_loop(addr: SocketAddr, n: usize, stop: &AtomicBool) -> Vec<f64> {
    let mut rtts = Vec::with_capacity(n);
    while rtts.len() < n && !stop.load(Ordering::SeqCst) {
        let t = Instant::now();
        match admin_request(addr, "STATUS", Duration::from_secs(5)) {
            Ok(_) => rtts.push(t.elapsed().as_secs_f64() * 1e3),
            Err(_) => break,
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    rtts
}

/// One in-process `serve --sim-time` run. With listeners on, one
/// connection subscribes to the live stream and one writes ingest frames
/// (or times `STATUS` requests).
pub fn serve_pass(run: &ServeRun, size: &Size, seed: u64, dir: &Path, tag: &str) -> Pass {
    let _ = std::fs::remove_dir_all(dir.join(tag));
    std::fs::create_dir_all(dir.join(tag)).expect("create serve run directory");
    let metrics_path = dir.join(tag).join("metrics.jsonl");
    let snapshot_path = dir.join(tag).join("snapshot.json");
    let ready: Arc<OnceLock<NetAddrs>> = Arc::new(OnceLock::new());
    let args = ServeArgs {
        cfg: serve_config(run.ticks, seed),
        options: ServeOptions {
            racks: run.racks,
            snapshot_every: if run.snapshots {
                size.serve_snapshot_every
            } else {
                0
            },
            ..ServeOptions::default()
        },
        sim_time: true,
        control: ControlBackend::Sim,
        metrics_path: Some(metrics_path.clone()),
        snapshot_path: run.snapshots.then(|| snapshot_path.clone()),
        net: run.listeners.then(|| NetConfig {
            listen: Some("127.0.0.1:0".to_string()),
            admin_token: Some(format!("bench-{seed}")),
            ready: Some(ready.clone()),
            ..NetConfig::default()
        }),
        ..ServeArgs::default()
    };
    let last_epoch = run.ticks - 1;
    // The ingest client stops once the stream is nine tenths through, so
    // every frame it sent lands before the plane shuts down.
    let stop_at = run.ticks * 9 / 10;
    let near_end = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    let ready_at = AtomicU64::new(0);
    let t0 = Instant::now();
    let (result, received, ingest_out, rtts) = std::thread::scope(|s| {
        let sub = run.listeners.then(|| {
            s.spawn(|| {
                let addr = wait_ready(&ready, &done)?;
                ready_at.store(t0.elapsed().as_nanos() as u64, Ordering::SeqCst);
                subscribe(addr, t0, last_epoch, &near_end, stop_at).ok()
            })
        });
        let second = (run.listeners && (run.ingest || run.status_requests > 0)).then(|| {
            s.spawn(|| {
                let addr = wait_ready(&ready, &done)?;
                if run.ingest {
                    ingest(addr, size.ingest_hz, seed, &near_end)
                        .ok()
                        .map(|(n, late)| (n, late, Vec::new()))
                } else {
                    Some((
                        0,
                        Vec::new(),
                        status_loop(addr, run.status_requests, &near_end),
                    ))
                }
            })
        });
        let result = serve(args);
        done.store(true, Ordering::SeqCst);
        near_end.store(true, Ordering::SeqCst);
        let received = sub.map(|h| h.join().expect("subscriber thread"));
        let second = second.and_then(|h| h.join().expect("client thread"));
        let (ingest_out, rtts) = match second {
            Some((n, late, rtts)) => (Some((n, late)), rtts),
            None => (None, Vec::new()),
        };
        (result, received, ingest_out, rtts)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut pass = Pass {
        wall_s,
        busy_s: wall_s,
        ticks: run.ticks as f64,
        ..Pass::default()
    };
    let summary = match result {
        Ok(s) => s,
        Err(e) => {
            pass.op(false, || format!("serve: {e}"));
            return pass;
        }
    };
    let text = std::fs::read_to_string(&metrics_path).unwrap_or_default();
    let mut digest = Digest::default();
    digest.update(text.as_bytes());
    pass.digest = digest.hex();
    let file_lines: Vec<&str> = text.lines().collect();
    let cfg = serve_config(run.ticks, seed);
    let epoch_s = cfg.epoch.as_secs_f64();
    for (k, line) in file_lines.iter().enumerate() {
        let v: Result<serde_json::Value, _> = serde_json::from_str(line);
        let rec = v.as_ref().ok().and_then(|v| v.get("record"));
        let num = |key: &str| {
            rec.and_then(|r| r.get(key))
                .and_then(|x| x.as_number())
                .map_or(0.0, |n| n.as_f64())
        };
        pass.requests += num("offered_rps") * num("live_servers") * epoch_s;
        pass.op(line_epoch(line) == Some(k as u64), || {
            format!("metrics line {k} is out of order")
        });
    }
    // Ticks the daemon never wrote a line for.
    let missing = run.ticks.saturating_sub(file_lines.len() as u64);
    pass.ops(missing, missing, || {
        format!("served {} of {} epochs", summary.epochs_executed, run.ticks)
    });
    pass.op(
        summary.audit_violations == 0 && summary.floor_held == Some(true),
        || {
            format!(
                "{} audit violations, floor_held {:?}",
                summary.audit_violations, summary.floor_held
            )
        },
    );
    let servers = cfg.green.green_servers as f64 * f64::from(run.racks);
    pass.server_epochs = servers * run.ticks as f64;
    pass.rack_epochs = f64::from(run.racks) * run.ticks as f64;
    let mut detail = ServeDetail {
        ready_s: ready_at.load(Ordering::SeqCst) as f64 * 1e-9,
        snapshot_path: run.snapshots.then_some(snapshot_path),
        status_rtt_ms: rtts,
        ..ServeDetail::default()
    };
    if let Some(received) = received {
        let got = received.unwrap_or_default();
        // Every file line must reach the subscriber, in order and intact.
        for (k, want) in file_lines.iter().enumerate() {
            let ok = got.get(k).is_some_and(|(_, l)| l == want);
            pass.op(ok, || format!("subscriber line {k} missing or different"));
        }
        let drops = summary.net.as_ref().map_or(0, |n| n.subscriber_drops);
        pass.ops(0, drops, || format!("{drops} subscriber drops"));
        if got.len() >= 2 {
            pass.first_line_s = Some(got[0].0);
            pass.busy_s = got[got.len() - 1].0 - got[0].0;
            // Lines replayed on connect arrive back to back; the live
            // stream starts once the subscriber has caught up. Skip the
            // first few gaps so only live ticks count.
            let skip = LIVE_SKIP.min(got.len() / 4);
            pass.tick_gaps_ms = got[skip..]
                .windows(2)
                .map(|w| (w[1].0 - w[0].0) * 1e3)
                .collect();
            pass.ticks = (got.len() - 1) as f64;
        }
    }
    if let Some((sent, late)) = ingest_out {
        let received = summary.net.as_ref().map_or(0, |n| n.frames_received);
        let discarded = summary.net.as_ref().map_or(0, |n| n.frames_discarded);
        detail.ingest_lateness_ms = late;
        // A frame sent but not received, or received and discarded, failed.
        let landed = received.saturating_sub(discarded).min(sent);
        pass.ops(sent, sent - landed, || {
            format!("ingest: {sent} sent, {received} received, {discarded} discarded")
        });
    }
    detail.summary = Some(summary);
    pass.serve = Some(detail);
    pass
}

/// Gaps skipped at the start of the subscriber's stream (catch-up replay).
const LIVE_SKIP: usize = 16;

/// One cold set-up, meant to run in a fresh process: from the call to
/// the first unit of work done. For the batch workloads that is a
/// one-epoch run of every burst or rack configuration the workload runs
/// (profile tables, the Q-learning bootstrap, solar traces, fault plan,
/// engine and broker set-up, and two epochs; `burst_des` runs its one
/// epoch on the analytic plane, so no DES work counts as set-up). For
/// `serve_site` it is the `serve` call to the first epoch line at a
/// subscriber. Returns seconds.
pub fn setup_probe(w: Workload, size: &Size, seed: u64, dir: &Path) -> f64 {
    let t0 = Instant::now();
    let bursts = |points: Vec<SweepPoint>| {
        for p in points {
            let SweepTask::Burst(mut cfg) = p.task else {
                continue;
            };
            cfg.burst_duration = cfg.epoch;
            cfg.seed = seed;
            cfg.measurement = MeasurementMode::Analytic;
            black_box(Engine::new(cfg).run());
        }
    };
    match w {
        Workload::BurstAnalytic => bursts(analytic_points(size)),
        Workload::BurstDes => bursts(des_points(size)),
        Workload::DatacenterSite => {
            let cfg = datacenter_config(size.dc_racks, 1, seed);
            black_box(try_run_datacenter(&cfg, default_jobs()).is_ok());
        }
        Workload::ServeSite => {
            let run = ServeRun {
                racks: size.serve_racks,
                ticks: 2,
                snapshots: true,
                listeners: true,
                ingest: false,
                status_requests: 0,
            };
            let p = serve_pass(&run, size, seed, dir, "probe");
            let _ = std::fs::remove_dir_all(dir.join("probe"));
            return p
                .first_line_s
                .map_or(f64::NAN, |s| t0.elapsed().as_secs_f64() - p.wall_s + s);
        }
    }
    t0.elapsed().as_secs_f64()
}

/// Warm the process-wide caches every workload reads, so timed passes
/// measure steady state.
pub fn warm_caches() {
    for app in Application::ALL {
        black_box(ProfileTable::cached(app));
        black_box(QLearner::bootstrapped_cached(app));
    }
}

/// Run one pass of `w`; with a tracer, inside a span around each public
/// call the pass makes.
pub fn pass(
    w: Workload,
    size: &Size,
    seed: u64,
    jobs: usize,
    dir: &Path,
    n: usize,
    tracer: Option<&mut Tracer>,
) -> Pass {
    let spanned = |t: Option<&mut Tracer>, name: &str, f: &mut dyn FnMut() -> Pass| match t {
        Some(t) => t.span(name, n as u64, |_| f()),
        None => f(),
    };
    match w {
        Workload::BurstAnalytic => sweep_pass(&analytic_points(size), seed, jobs, tracer),
        Workload::BurstDes => sweep_pass(&des_points(size), seed, jobs, tracer),
        Workload::DatacenterSite => {
            let cfg = datacenter_config(size.dc_racks, size.dc_minutes, seed);
            spanned(tracer, "broker.try_run_datacenter", &mut || {
                datacenter_pass(&cfg, jobs)
            })
        }
        Workload::ServeSite => spanned(tracer, "serve.serve", &mut || {
            serve_pass(
                &ServeRun {
                    racks: size.serve_racks,
                    ticks: size.serve_ticks,
                    snapshots: true,
                    listeners: true,
                    ingest: true,
                    status_requests: 0,
                },
                size,
                seed,
                dir,
                &format!("serve-{n}"),
            )
        }),
    }
}

/// Everything a timed run produced.
pub struct Measured {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub digest: String,
    pub passes: usize,
    pub tick_samples: usize,
    pub problems: Vec<String>,
}

/// Timed run of `w` for at least `seconds`: `size.setup_reps` cold
/// set-ups through `probe`, then passes until the time is used.
#[allow(clippy::too_many_arguments)]
pub fn measure(
    w: Workload,
    size: &Size,
    seed: u64,
    seconds: f64,
    jobs: usize,
    dir: &Path,
    recorded: Option<&str>,
    mut probe: impl FnMut() -> f64,
) -> Measured {
    let setups: Vec<f64> = (0..size.setup_reps.max(1)).map(|_| probe()).collect();
    warm_caches();
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < size.min_passes || start.elapsed().as_secs_f64() < seconds {
        let n = passes.len();
        passes.push(pass(w, size, seed, jobs, dir, n, None));
        let _ = std::fs::remove_dir_all(dir.join(format!("serve-{n}")));
    }
    summarize(w, &setups, &passes, recorded)
}

/// Fold passes into the end-to-end metrics and the output check.
pub fn summarize(w: Workload, setups: &[f64], passes: &[Pass], recorded: Option<&str>) -> Measured {
    let mut attempted = 0;
    let mut failed = 0;
    let mut problems = Vec::new();
    let want = recorded.map_or_else(|| passes[0].digest.clone(), str::to_string);
    for (i, p) in passes.iter().enumerate() {
        attempted += p.attempted;
        failed += p.failed;
        problems.extend(p.problems.iter().cloned());
        // A pass whose outputs differ fails as a whole.
        if p.digest != want {
            failed += p.attempted.max(1) - p.failed.min(p.attempted.max(1));
            problems.push(format!("pass {i}: output digest {} != {want}", p.digest));
        }
    }
    // Rates are medians over passes of work per busy second: the whole
    // pass for batch workloads, the first to the last epoch line at the
    // subscriber for serve (which leaves out its set-up).
    let rate = |work: fn(&Pass) -> f64| {
        median(
            &passes
                .iter()
                .map(|p| work(p) / p.busy_s)
                .collect::<Vec<_>>(),
        )
    };
    let serve_site = w == Workload::ServeSite;
    let gaps: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.tick_gaps_ms.iter().copied())
        .collect();
    let tick_ms_p50 = if serve_site {
        median(&gaps)
    } else {
        median(
            &passes
                .iter()
                .map(|p| p.busy_s * 1e3 / p.ticks)
                .collect::<Vec<_>>(),
        )
    };
    let mut metrics = Metrics::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.insert(name.to_string(), crate::Metric { value, unit });
    };
    put("setup_s", median(setups), "s");
    put("server_epochs_per_s", rate(|p| p.server_epochs), "1/s");
    put("rack_epochs_per_s", rate(|p| p.rack_epochs), "1/s");
    put("sim_requests_per_s", rate(|p| p.requests), "1/s");
    put("ticks_per_s", rate(|p| p.ticks), "1/s");
    put("tick_ms_p50", tick_ms_p50, "ms");
    put("peak_rss_mb", peak_rss_mb(), "MB");
    Measured {
        metrics,
        attempted,
        failed,
        digest: want,
        passes: passes.len(),
        tick_samples: if serve_site { gaps.len() } else { passes.len() },
        problems,
    }
}

/// Peak resident set of this process (VmHWM), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Recorded digests, `<workload> <seed> <digest>` per line.
pub fn recorded_digest(table: &str, w: Workload, seed: u64) -> Option<String> {
    let map: BTreeMap<(String, u64), String> = table
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            Some((
                (it.next()?.to_string(), it.next()?.parse().ok()?),
                it.next()?.to_string(),
            ))
        })
        .collect();
    map.get(&(w.name().to_string(), seed)).cloned()
}
