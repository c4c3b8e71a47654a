//! The traced pass: per-layer metrics from spans around the benchmark's
//! own calls into each layer's public functions.
//!
//! Nothing inside the program is instrumented. Each layer is measured from
//! outside: the epoch-loop layers by replaying one recorded burst's
//! per-epoch inputs into their public calls, the engine and broker by
//! timing whole runs at two burst lengths (set-up is the intercept, the
//! per-epoch cost the slope), and serve and net by driving the daemon
//! in-process. Replay spans cover one pass over the recorded epochs, so a
//! span's own cost (two clock reads) is far below the work it times.
//!
//! A replayed call runs standalone, without the memo tables the engine
//! keeps (Pacing's decision memo, the analytic-perf cache, the Peukert
//! memo), so its ns per call is an upper bound on what the loop pays.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use greensprint_repro::core::checkpoint::RunPhase;
use greensprint_repro::core::guardrail::{EpochSignals, Guardrail, GuardrailConfig};
use greensprint_repro::core::monitor::{Monitor, Observation};
use greensprint_repro::core::net::parse_frame;
use greensprint_repro::core::pmk::{Pmk, PmkContext};
use greensprint_repro::core::qlearning::{reward, RewardInputs};
use greensprint_repro::power::pss::PowerSourceSelector;
use greensprint_repro::prelude::*;
use greensprint_repro::workload::des::ServerSim;

use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::workloads::{self, Measured, ServeRun, Size, Workload};
use crate::{Metric, Metrics};

/// Layers reported with a self time, as the repository's modules name them.
pub const LAYERS: [&str; 18] = [
    "profiler",
    "qlearning",
    "pmk",
    "predictor",
    "pss",
    "battery",
    "solar",
    "queueing",
    "des",
    "audit",
    "guardrail",
    "monitor",
    "engine",
    "sweep",
    "broker",
    "checkpoint",
    "serve",
    "net",
];

/// Shape of the traced pass. [`Traced::full`] is the benchmark's;
/// [`Traced::tiny`] is the smoke test's.
#[derive(Clone, Debug)]
pub struct Traced {
    /// Servers of the replayed and two-length engine bursts.
    pub engine_servers: usize,
    /// The longer of the two burst lengths, minutes (the other is half).
    pub engine_minutes: u64,
    pub engine_reps: usize,
    pub replay_reps: usize,
    pub sweep_minutes: u64,
    pub des_epochs: usize,
    pub broker_minutes: u64,
    pub broker_reps: usize,
    pub serve_ticks: u64,
    pub status_requests: usize,
}

impl Traced {
    pub fn full() -> Traced {
        Traced {
            engine_servers: 100,
            engine_minutes: 240,
            engine_reps: 5,
            replay_reps: 9,
            sweep_minutes: 60,
            des_epochs: 10,
            broker_minutes: 120,
            broker_reps: 3,
            serve_ticks: 360,
            status_requests: 200,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Traced {
        Traced {
            engine_servers: 4,
            engine_minutes: 8,
            engine_reps: 2,
            replay_reps: 2,
            sweep_minutes: 4,
            des_epochs: 2,
            broker_minutes: 8,
            broker_reps: 2,
            serve_ticks: 60,
            status_requests: 10,
        }
    }
}

struct Out {
    m: Metrics,
}

impl Out {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.m.insert(name.into(), Metric { value, unit });
    }
}

/// Seconds the overhead comparison alternates passes for.
const OVERHEAD_S: f64 = 6.0;

fn ms(s: f64) -> f64 {
    s * 1e3
}

/// The traced run of `w`: the workload's pass untraced and traced (the
/// tracing overhead), then every layer's measurements.
pub fn traced_run(
    w: Workload,
    size: &Size,
    shape: &Traced,
    seed: u64,
    jobs: usize,
    dir: &Path,
    recorded: Option<&str>,
) -> Measured {
    let mut t = Tracer::default();
    let mut o = Out { m: Metrics::new() };
    workloads::warm_caches();

    // Tracing overhead: the same pass untraced, then with a span around
    // every public call the pass makes, alternating for at least
    // `OVERHEAD_S` (one pair at least).
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let start = Instant::now();
    while plain.is_empty() || start.elapsed().as_secs_f64() < OVERHEAD_S {
        let n = 2 * plain.len();
        plain.push(workloads::pass(w, size, seed, jobs, dir, n, None));
        traced.push(workloads::pass(
            w,
            size,
            seed,
            jobs,
            dir,
            n + 1,
            Some(&mut t),
        ));
    }
    let wall = |ps: &[workloads::Pass]| median(&ps.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    o.put(
        "trace.overhead_share",
        wall(&traced) / wall(&plain) - 1.0,
        "ratio",
    );

    setup_layers(&mut t, &mut o, seed, shape);
    engine_and_replay(&mut t, &mut o, seed, shape);
    sweep_layer(&mut t, &mut o, seed, shape, size, jobs);
    des_layer(&mut t, &mut o, seed, shape, size);
    broker_layer(&mut t, &mut o, seed, shape, size, jobs);
    checkpoint_layer(&mut t, &mut o, seed, shape);
    let serve_ok = serve_layer(&mut t, &mut o, seed, shape, size, dir);

    let self_times = t.self_times();
    for layer in LAYERS {
        let v = self_times.get(layer).copied().unwrap_or(0.0);
        o.put(format!("self_s.{layer}"), v, "s");
    }
    o.put("trace.spans", t.len() as f64, "count");
    let spans = Path::new(".bench_run").join(format!("spans-{}-{seed}.jsonl", w.name()));
    if let Err(e) = t.write(&spans) {
        eprintln!("gsbench: cannot write {}: {e}", spans.display());
    }

    // The passes' output check (their timings are the overhead above).
    plain.extend(traced);
    let mut out = workloads::summarize(w, &[0.0], &plain, recorded);
    out.attempted += serve_ok.0;
    out.failed += serve_ok.1;
    out.metrics = o.m;
    out
}

/// `profiler.build_s`, `qlearning.bootstrap_s`, `solar.trace_generate_s`.
fn setup_layers(t: &mut Tracer, o: &mut Out, seed: u64, shape: &Traced) {
    let reps = shape.engine_reps.max(2);
    let mut build = Vec::new();
    let mut boot = Vec::new();
    let mut solar = Vec::new();
    for rep in 0..reps {
        for app in Application::ALL {
            let profile = app.profile();
            let table = t.span("profiler.build", rep as u64, |_| {
                ProfileTable::build(&profile)
            });
            build.push(t.last_s("profiler.build"));
            t.span("qlearning.bootstrap", rep as u64, |_| {
                let max = table.get(ServerSetting::max_sprint());
                let mut q = QLearner::new(max.full_load_power_w, max.slo_capacity);
                q.bootstrap(&table);
                black_box(q)
            });
            boot.push(t.last_s("qlearning.bootstrap"));
        }
        let mut rng = SimRng::seed_from_u64(seed.wrapping_add(rep as u64));
        t.span("solar.trace_generate", rep as u64, |_| {
            black_box(SolarTrace::generate(2, &WeatherModel::default(), &mut rng))
        });
        solar.push(t.last_s("solar.trace_generate"));
    }
    o.put("profiler.build_s", median(&build), "s");
    o.put("qlearning.bootstrap_s", median(&boot), "s");
    o.put("solar.trace_generate_s", median(&solar), "s");
}

fn engine_cfg(shape: &Traced, strategy: Strategy, minutes: u64, seed: u64) -> EngineConfig {
    EngineConfig {
        app: Application::SpecJbb,
        green: workloads::green_rack(shape.engine_servers),
        strategy,
        availability: AvailabilityLevel::Medium,
        burst_duration: SimDuration::from_mins(minutes),
        measurement: MeasurementMode::Analytic,
        thermal: ThermalModel::Disabled,
        seed,
        ..EngineConfig::default()
    }
}

/// Two-length engine timing, burst percentiles, the controller replay
/// over the recorded epochs of one burst per strategy, and the size of
/// the Hybrid burst's serialized Monitor.
fn engine_and_replay(t: &mut Tracer, o: &mut Out, seed: u64, shape: &Traced) {
    let long = shape.engine_minutes;
    let short = long / 2;
    for strategy in [Strategy::Pacing, Strategy::Hybrid] {
        let key = strategy.label().to_lowercase();
        let mut t_long = Vec::new();
        let mut t_short = Vec::new();
        for rep in 0..shape.engine_reps {
            for (minutes, times) in [(short, &mut t_short), (long, &mut t_long)] {
                let engine = Engine::new(engine_cfg(shape, strategy, minutes, seed));
                let out = t.span("engine.run", rep as u64, |_| engine.run());
                black_box(out);
                times.push(t.last_s("engine.run"));
            }
        }
        let (tl, ts) = (median(&t_long), median(&t_short));
        // Each run is the strategy pass plus its Normal baseline.
        let epochs_short = 2.0 * short as f64;
        let per_epoch = (tl - ts) / epochs_short;
        o.put(format!("engine.burst_ms_p50.{key}"), ms(tl), "ms");
        o.put(
            format!("engine.burst_ms_p90.{key}"),
            ms(quantile(&t_long, 0.9)),
            "ms",
        );
        o.put(
            format!("engine.setup_ms.{key}"),
            ms(ts - epochs_short * per_epoch),
            "ms",
        );
        o.put(format!("engine.epoch_us.{key}"), per_epoch * 1e6, "us");

        let engine = Engine::new(engine_cfg(shape, strategy, long, seed));
        let (outcome, monitor) =
            t.span("engine.run_with_monitor", 99, |_| engine.run_with_monitor());
        let replay_s = replay_controller(t, o, &outcome.epochs, strategy, shape);
        o.put(
            format!("engine.unattributed_share.{key}"),
            1.0 - replay_s / tl,
            "ratio",
        );
        if strategy == Strategy::Hybrid {
            let bytes = serde_json::to_string(&monitor).map_or(0, |s| s.len());
            o.put("monitor.bytes", bytes as f64, "bytes");
        }
    }
}

/// Time `reps` replays of `f` over the recorded epochs inside spans named
/// `name`; returns the median seconds of one replay.
fn replay(t: &mut Tracer, name: &str, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times = Vec::with_capacity(reps);
    for rep in 0..reps {
        t.span(name, 1_000 + rep as u64, |_| f());
        times.push(t.last_s(name));
    }
    median(&times)
}

/// Replay one burst's per-epoch inputs into the controller layers' public
/// calls. Reports ns per call and calls per epoch; returns the summed
/// replay seconds of one burst (strategy pass plus Normal baseline, whose
/// non-PMK layers do the same work).
fn replay_controller(
    t: &mut Tracer,
    o: &mut Out,
    records: &[greensprint_repro::core::engine::EpochRecord],
    strategy: Strategy,
    shape: &Traced,
) -> f64 {
    let app = Application::SpecJbb;
    let profile = app.profile();
    let profiles = ProfileTable::cached(app);
    let n = shape.engine_servers;
    let epochs = records.len().max(1) as f64;
    let green = workloads::green_rack(n);
    let spec = green.battery_spec().expect("bench racks carry batteries");

    let horizon = SimDuration::from_mins(10);
    let reps = shape.replay_reps;
    let mut per_call = |o: &mut Out, name: &str, secs: f64, calls_per_epoch: f64| {
        o.put(
            format!("{name}_ns"),
            secs * 1e9 / (calls_per_epoch * epochs),
            "ns",
        );
        o.put(format!("{name}.calls_per_epoch"), calls_per_epoch, "count");
        secs
    };
    // Battery budgets follow the recorded drain: one battery discharged
    // at the per-server share of each epoch's recorded battery power.
    let mut drained = Battery::new_full(spec.clone());
    let ctxs: Vec<PmkContext> = records
        .iter()
        .map(|r| {
            let ctx = PmkContext {
                predicted_load_rps: r.offered_rps,
                re_share_w: r.re_supply_w / n as f64,
                battery_instant_w: if drained.at_dod_floor() {
                    0.0
                } else {
                    spec.max_discharge_power_w()
                },
                battery_sustained_w: drained.sustainable_power(horizon),
            };
            drained.discharge(r.battery_w / n as f64, SimDuration::from_secs(60));
            ctx
        })
        .collect();

    // PMK: every live server decides every epoch.
    let key = strategy.label().to_lowercase();
    let mut rng = SimRng::seed_from_u64(7);
    let pmk_s = replay(t, &format!("pmk.{key}.choose"), reps, || {
        let mut pmk = Pmk::new(strategy, profiles);
        for ctx in &ctxs {
            for _ in 0..n {
                black_box(pmk.choose(profiles, ctx, &mut rng));
            }
        }
    });
    let mut total = per_call(o, &format!("pmk.{key}.choose"), pmk_s, n as f64);
    if strategy != Strategy::Hybrid {
        return total + 2.0 * shared_layers(t, o, records, &ctxs, shape, &mut per_call, &spec);
    }

    // Q-learning: the Hybrid half — state + best action per server, one
    // reward and Bellman update per epoch on the representative server.
    let learner0 = QLearner::bootstrapped_cached(app).clone();
    let all = ServerSetting::all();
    let best_s = replay(t, "qlearning.best_action", reps, || {
        for ctx in &ctxs {
            for _ in 0..n {
                let s = learner0.state(ctx.instant_budget_w(), ctx.predicted_load_rps);
                black_box(learner0.best_action(s, &all, &mut rng));
            }
        }
    });
    // Already inside `Pmk::choose`: reported, not added to the total.
    per_call(o, "qlearning.best_action", best_s, n as f64);
    let update_s = replay(t, "qlearning.update", reps, || {
        let mut learner = learner0.clone();
        let mut prev = None;
        for (r, ctx) in records.iter().zip(&ctxs) {
            let inputs = RewardInputs {
                power_supply_w: ctx.instant_budget_w(),
                power_current_w: r.demand_w / n as f64,
                qos_target_s: profile.slo_deadline_s,
                qos_current_s: profile.slo_deadline_s * 0.5,
                offered_slo_fraction: if r.offered_rps > 0.0 {
                    (r.goodput_rps / n as f64 / r.offered_rps).min(1.0)
                } else {
                    1.0
                },
                slo_percentile: profile.slo_percentile,
            };
            let next = learner.state(ctx.instant_budget_w(), r.offered_rps);
            if let Some(s) = prev {
                learner.update(s, r.setting, reward(&inputs), next);
            }
            prev = Some(next);
        }
        black_box(learner);
    });
    total += per_call(o, "qlearning.update", update_s, 1.0);

    // Guardrail shadow: one observation per epoch (serve_site runs it).
    let guard_s = replay(t, "guardrail.observe", reps, || {
        let cfg = GuardrailConfig {
            enabled: true,
            ..GuardrailConfig::default()
        };
        let mut g = Guardrail::new(cfg, Strategy::Hybrid).expect("Hybrid has a ladder");
        for (k, r) in records.iter().enumerate() {
            black_box(g.observe(&EpochSignals {
                epoch_index: k as u64,
                active_reward: 0.5,
                shadow_reward: 0.45,
                active_slo_ok: true,
                shadow_slo_ok: true,
                battery_discharge_w: r.battery_w,
                planned_battery_w: r.battery_w.max(1.0) * 1.5,
                table_corrupt: false,
                live_fraction: 1.0,
            }));
        }
    });
    per_call(o, "guardrail.observe", guard_s, 1.0);
    total + 2.0 * shared_layers(t, o, records, &ctxs, shape, &mut per_call, &spec)
}

/// The layers every epoch of every strategy (and the Normal baseline)
/// runs: predictor, PSS, profiler lookups, the queueing tail, battery
/// settlement, the audit and the Monitor. Returns seconds per replay.
fn shared_layers(
    t: &mut Tracer,
    o: &mut Out,
    records: &[greensprint_repro::core::engine::EpochRecord],
    ctxs: &[PmkContext],
    shape: &Traced,
    per_call: &mut impl FnMut(&mut Out, &str, f64, f64) -> f64,
    spec: &BatterySpec,
) -> f64 {
    let app = Application::SpecJbb;
    let profile = app.profile();
    let profiles = ProfileTable::cached(app);
    let n = shape.engine_servers;
    let reps = shape.replay_reps;
    let epoch = SimDuration::from_secs(60);
    let epoch_h = 1.0 / 60.0;
    let mut total = 0.0;

    let s = replay(t, "predictor.observe", reps, || {
        let mut p = greensprint_repro::core::predictor::Predictor::new();
        for r in records {
            black_box(p.observe_re_supply(r.re_supply_w));
            black_box(p.observe_workload(r.offered_rps));
            black_box(p.re_supply_w(r.re_supply_w));
        }
    });
    total += per_call(o, "predictor.observe", s, 3.0);

    let s = replay(t, "pss.plan", reps, || {
        let pss = PowerSourceSelector::new();
        for (r, ctx) in records.iter().zip(ctxs) {
            black_box(pss.plan(
                r.demand_w,
                r.re_supply_w,
                ctx.battery_instant_w * n as f64,
                0.0,
                0.0,
            ));
        }
    });
    total += per_call(o, "pss.plan", s, 1.0);

    let pacing = ServerSetting::pacing_axis();
    let s = replay(t, "profiler.lookup", reps, || {
        for (r, ctx) in records.iter().zip(ctxs) {
            for _ in 0..n {
                black_box(profiles.expected_perf(r.setting, r.offered_rps));
                black_box(profiles.planned_power_w(r.setting, r.offered_rps));
                black_box(profiles.best_within_budget(
                    &pacing,
                    r.offered_rps,
                    ctx.sustained_budget_w(),
                ));
            }
        }
    });
    total += per_call(o, "profiler.lookup", s, 3.0 * n as f64);

    let stations: Vec<_> = records
        .iter()
        .map(|r| {
            let st = profile.station(r.setting);
            let grid = st.service_grid();
            let admitted = r.offered_rps.min(profiles.get(r.setting).slo_capacity);
            (st, grid, admitted)
        })
        .collect();
    let s = replay(t, "queueing.sojourn_tail", reps, || {
        for (st, grid, admitted) in &stations {
            black_box(st.sojourn_tail_with(grid, *admitted, profile.slo_deadline_s));
        }
    });
    total += per_call(o, "queueing.sojourn_tail", s, 1.0);

    let mut batteries: Vec<Battery> = (0..n).map(|_| Battery::new_full(spec.clone())).collect();
    let s = replay(t, "battery.discharge", reps, || {
        for b in batteries.iter_mut() {
            b.reset_full();
        }
        for r in records {
            for b in batteries.iter_mut() {
                black_box(b.discharge(r.battery_w / n as f64, epoch));
            }
        }
    });
    total += per_call(o, "battery.discharge", s, n as f64);
    let s = replay(t, "battery.charge", reps, || {
        for r in records {
            let surplus = (r.re_supply_w - r.re_used_w).max(0.0) / n as f64;
            for b in batteries.iter_mut() {
                black_box(b.charge(surplus, epoch));
            }
        }
    });
    total += per_call(o, "battery.charge", s, n as f64);

    let flows: Vec<EpochFlows> = records
        .iter()
        .enumerate()
        .map(|(k, r)| {
            let supply = r.re_supply_w * epoch_h;
            let used = r.re_used_w * epoch_h;
            let batt = r.battery_w * epoch_h;
            EpochFlows {
                epoch_index: k,
                supply_wh: supply,
                battery_discharge_wh: batt,
                grid_wh: 0.0,
                server_wh: used + batt,
                charge_wh: 0.0,
                curtailed_wh: supply - used,
                socs: vec![(1.0, spec.max_dod); n],
                grid_cap_w: f64::INFINITY,
                epoch_hours: epoch_h,
                failover_floor: None,
                live_servers: n,
                dead_server_wh: 0.0,
                goodput_capacity: None,
            }
        })
        .collect();
    let s = replay(t, "audit.check_epoch", reps, || {
        let mut aud = InvariantAuditor::new();
        for f in &flows {
            aud.check_epoch(f);
        }
        black_box(aud);
    });
    total += per_call(o, "audit.check_epoch", s, 1.0);

    let s = replay(t, "monitor.record", reps, || {
        let mut m = Monitor::new();
        for r in records {
            m.record(
                r.t,
                Observation {
                    re_supply_w: r.re_supply_w,
                    demand_w: r.demand_w,
                    battery_w: r.battery_w,
                    battery_soc: r.battery_soc,
                    goodput_rps: r.goodput_rps,
                    offered_rps: r.offered_rps,
                },
            );
        }
        black_box(m);
    });
    total += per_call(o, "monitor.record", s, 1.0);
    total
}

/// `sweep.parallel_efficiency` and `sweep.tail_idle_s` on the analytic grid.
fn sweep_layer(t: &mut Tracer, o: &mut Out, seed: u64, shape: &Traced, size: &Size, jobs: usize) {
    let grid_size = Size {
        analytic_minutes: shape.sweep_minutes,
        ..size.clone()
    };
    let points = workloads::analytic_points(&grid_size);
    let mut one = Vec::new();
    let mut many = Vec::new();
    let mut idle = Vec::new();
    for _ in 0..2 {
        one.push(workloads::sweep_pass(&points, seed, 1, Some(t)).wall_s);
        let p = workloads::sweep_pass(&points, seed, jobs, Some(t));
        many.push(p.wall_s);
        // The last `jobs` results finish as workers run out of points:
        // from the first of them to the last, workers sit idle.
        let a = &p.arrivals_s;
        let k = a.len().saturating_sub(jobs.min(a.len()));
        idle.push(a.last().copied().unwrap_or(0.0) - a.get(k).copied().unwrap_or(0.0));
    }
    o.put(
        "sweep.parallel_efficiency",
        median(&one) / (jobs as f64 * median(&many)),
        "ratio",
    );
    o.put("sweep.tail_idle_s", median(&idle), "s");
}

/// `des.*`: `ServerSim::advance_epoch` at the offered loads and settings
/// an analytic run of the `burst_des` burst records.
fn des_layer(t: &mut Tracer, o: &mut Out, seed: u64, shape: &Traced, size: &Size) {
    let mut backlog_max = 0usize;
    for (i, point) in workloads::des_points(size).into_iter().enumerate() {
        let SweepTask::Burst(mut cfg) = point.task else {
            continue;
        };
        if cfg.strategy != Strategy::Hybrid {
            continue;
        }
        cfg.measurement = MeasurementMode::Analytic;
        cfg.seed = seed;
        let app = cfg.app;
        let profile = app.profile();
        let profiles = ProfileTable::cached(app);
        let records = Engine::new(cfg.clone()).run().epochs;
        let mut sim = ServerSim::new(SimRng::seed_from_u64(seed ^ i as u64));
        let mut times = Vec::new();
        let mut events = 0.0;
        for (k, r) in records.iter().cycle().take(shape.des_epochs).enumerate() {
            let admit = profiles.get(r.setting).slo_capacity;
            let perf = t.span("des.advance_epoch", k as u64, |_| {
                sim.advance_epoch(&profile, r.setting, r.offered_rps, admit, cfg.epoch)
            });
            times.push(t.last_s("des.advance_epoch"));
            events += (perf.offered_rps + perf.completed_rps) * cfg.epoch.as_secs_f64();
            backlog_max = backlog_max.max(sim.backlog());
        }
        let name = app.to_string().to_lowercase();
        o.put(
            format!("des.advance_epoch_ms.{name}"),
            ms(median(&times)),
            "ms",
        );
        o.put(
            format!("des.events_per_s.{name}"),
            events / times.iter().sum::<f64>(),
            "1/s",
        );
    }
    o.put("des.backlog_max", backlog_max as f64, "count");
}

/// `broker.*` and `audit.check_site_epoch_ns` on the `datacenter_site`
/// configuration.
fn broker_layer(t: &mut Tracer, o: &mut Out, seed: u64, shape: &Traced, size: &Size, jobs: usize) {
    let long = shape.broker_minutes;
    let short = long / 2;
    let racks = size.dc_racks;
    let mut t_long = Vec::new();
    let mut t_short = Vec::new();
    for rep in 0..shape.broker_reps {
        for (minutes, times) in [(short, &mut t_short), (long, &mut t_long)] {
            let cfg = workloads::datacenter_config(racks, minutes, seed);
            let _ = t.span("broker.run", rep as u64, |_| {
                black_box(try_run_datacenter(&cfg, jobs))
            });
            times.push(t.last_s("broker.run"));
        }
    }
    let (tl, ts) = (median(&t_long), median(&t_short));
    let epochs_short = 2.0 * short as f64;
    let per_epoch = (tl - ts) / epochs_short;
    o.put("broker.setup_ms", ms(ts - epochs_short * per_epoch), "ms");
    o.put("broker.epoch_us", per_epoch * 1e6, "us");

    let cfg = workloads::datacenter_config(racks, long, seed);
    let mut serial = Vec::new();
    for rep in 0..shape.broker_reps {
        let _ = t.span("broker.run", 100 + rep as u64, |_| {
            black_box(try_run_datacenter(&cfg, 1))
        });
        serial.push(t.last_s("broker.run"));
    }
    o.put(
        "broker.parallel_efficiency",
        median(&serial) / (jobs as f64 * tl),
        "ratio",
    );

    // Epoch-boundary timestamps from a snapshot every epoch: the gaps
    // include the snapshot capture, whose cost is reported beside them.
    let mut stamps = Vec::new();
    let t0 = Instant::now();
    let snap_run = t.span("broker.run_with_snapshots", 200, |_| {
        run_datacenter_with_snapshots(&cfg, jobs, 1, &mut |_| {
            stamps.push(t0.elapsed().as_secs_f64());
        })
    });
    let snap_s = t.last_s("broker.run_with_snapshots");
    let gaps: Vec<f64> = stamps.windows(2).map(|w| (w[1] - w[0]) * 1e6).collect();
    o.put("broker.epoch_us_p50", median(&gaps), "us");
    o.put("broker.epoch_us_p99", quantile(&gaps, 0.99), "us");
    o.put(
        "broker.capture_us",
        (snap_s - tl) * 1e6 / stamps.len().max(1) as f64,
        "us",
    );

    let mut bytes = 0usize;
    let _ = run_datacenter_with_snapshots(&cfg, jobs, short.max(1), &mut |s| {
        bytes = s.to_json().map(|j| j.len()).unwrap_or(0);
    });
    o.put("checkpoint.dc_snapshot_bytes", bytes as f64, "bytes");

    // Site audit replay over the broker's own factor rows.
    if let Ok(out) = snap_run {
        let flows: Vec<SiteFlows> = out
            .applied_factors
            .iter()
            .enumerate()
            .map(|(k, row)| SiteFlows {
                epoch_index: k,
                factors: row.clone(),
                dark: vec![false; row.len()],
                rack_demand_w: vec![0.0; row.len()],
            })
            .collect();
        let s = replay(t, "audit.check_site_epoch", shape.replay_reps, || {
            let mut aud = InvariantAuditor::new();
            for f in &flows {
                aud.check_site_epoch(f);
            }
            black_box(aud);
        });
        o.put(
            "audit.check_site_epoch_ns",
            s * 1e9 / flows.len().max(1) as f64,
            "ns",
        );
    }

    // Exact counts of the full-size site run.
    let full = workloads::datacenter_config(racks, size.dc_minutes, seed);
    if let Ok(out) = t.span("broker.run", 300, |_| try_run_datacenter(&full, jobs)) {
        o.put("broker.link_retries", out.link_retries as f64, "count");
        o.put(
            "broker.rerouted_epochs",
            out.rerouted_epochs as f64,
            "count",
        );
        o.put(
            "broker.partition_epochs",
            out.partition_epochs as f64,
            "count",
        );
    }
}

/// Snapshot growth of a single burst and the Q-table size.
fn checkpoint_layer(t: &mut Tracer, o: &mut Out, seed: u64, shape: &Traced) {
    let cfg = engine_cfg(shape, Strategy::Hybrid, shape.engine_minutes, seed);
    let every = (shape.engine_minutes / 4).max(1);
    let mut sizes: Vec<(u64, usize)> = Vec::new();
    let _ = t.span("checkpoint.engine_snapshots", 0, |_| {
        Engine::new(cfg).run_full_with_snapshots(every, &mut |s| {
            if s.phase == RunPhase::Strategy {
                sizes.push((s.state.next_epoch, s.to_json().len()));
            }
        })
    });
    // Growth between the first and last capture of the strategy pass.
    let slope = match (sizes.first(), sizes.last()) {
        (Some(a), Some(b)) if b.0 > a.0 => (b.1 as f64 - a.1 as f64) / (b.0 - a.0) as f64,
        _ => 0.0,
    };
    o.put("checkpoint.engine_snapshot_bytes_per_epoch", slope, "bytes");
    let table = QLearner::bootstrapped_cached(Application::SpecJbb).to_json();
    o.put("qlearning.table_bytes", table.len() as f64, "bytes");
}

/// Serve and net: the daemon with snapshots and listeners, without
/// snapshots, without listeners, and on one rack. Returns the operations
/// attempted and failed by these runs' output checks.
fn serve_layer(
    t: &mut Tracer,
    o: &mut Out,
    seed: u64,
    shape: &Traced,
    size: &Size,
    dir: &Path,
) -> (u64, u64) {
    let base = ServeRun {
        racks: size.serve_racks,
        ticks: shape.serve_ticks,
        snapshots: true,
        listeners: true,
        ingest: true,
        status_requests: 0,
    };
    let run = |t: &mut Tracer, r: &ServeRun, tag: &str| {
        t.span("serve.serve", 0, |_| {
            workloads::serve_pass(r, size, seed, dir, tag)
        })
    };
    let main = run(t, &base, "traced-main");
    let nosnap = run(
        t,
        &ServeRun {
            snapshots: false,
            ..base.clone()
        },
        "traced-nosnap",
    );
    let quiet = run(
        t,
        &ServeRun {
            listeners: false,
            ingest: false,
            ..base.clone()
        },
        "traced-quiet",
    );
    let one = run(
        t,
        &ServeRun {
            racks: 1,
            ingest: false,
            status_requests: shape.status_requests,
            ..base.clone()
        },
        "traced-rack1",
    );

    let tick_ms = |p: &workloads::Pass| p.busy_s * 1e3 / p.ticks.max(1.0);
    let p50_main = median(&main.tick_gaps_ms);
    o.put("serve.tick_ms_p50", p50_main, "ms");
    o.put(
        "serve.tick_ms_p99",
        quantile(&main.tick_gaps_ms, 0.99),
        "ms",
    );
    o.put(
        "serve.tick_samples",
        main.tick_gaps_ms.len() as f64,
        "count",
    );
    o.put(
        "checkpoint.tick_share",
        1.0 - tick_ms(&nosnap) / tick_ms(&main),
        "ratio",
    );
    o.put("net.tick_share", 1.0 - quiet.wall_s / main.wall_s, "ratio");
    let p50_one = median(&one.tick_gaps_ms);
    o.put("serve.rack1_tick_ms_p50", p50_one, "ms");
    o.put("serve.rack_scaling", p50_main / p50_one, "ratio");

    let d = main.serve.clone().unwrap_or_default();
    let s = d.summary.clone().unwrap_or_default();
    let net = s.net.unwrap_or_default();
    o.put("serve.ready_ms", ms(d.ready_s), "ms");
    o.put("serve.overrun_ticks", s.overrun_ticks as f64, "count");
    o.put(
        "serve.dropped_metrics_lines",
        s.dropped_metrics_lines as f64,
        "count",
    );
    o.put("net.frames_received", net.frames_received as f64, "count");
    o.put("net.frames_discarded", net.frames_discarded as f64, "count");
    o.put("net.subscriber_drops", net.subscriber_drops as f64, "count");
    o.put(
        "net.ingest_lateness_ms_p50",
        median(&d.ingest_lateness_ms),
        "ms",
    );
    o.put(
        "net.ingest_lateness_ms_p99",
        quantile(&d.ingest_lateness_ms, 0.99),
        "ms",
    );
    let rtts = one
        .serve
        .as_ref()
        .map(|d| d.status_rtt_ms.clone())
        .unwrap_or_default();
    o.put("net.status_rtt_ms_p50", median(&rtts), "ms");
    o.put("net.status_rtt_ms_p99", quantile(&rtts, 0.99), "ms");

    // The final snapshot file of the one-rack run: its size, decode and
    // re-encode (decoding the four-rack file costs seconds).
    let text = one
        .serve
        .as_ref()
        .and_then(|d| d.snapshot_path.as_ref())
        .and_then(|p| std::fs::read_to_string(p).ok())
        .unwrap_or_default();
    o.put(
        "checkpoint.serve_snapshot_bytes",
        text.len() as f64,
        "bytes",
    );
    let mut dec = Vec::new();
    let mut enc = Vec::new();
    for rep in 0..3 {
        let snap = t.span("checkpoint.serve_decode", rep, |_| {
            ServeSnapshot::from_json(&text)
        });
        dec.push(t.last_s("checkpoint.serve_decode"));
        if let Ok(snap) = snap {
            let _ = t.span("checkpoint.serve_encode", rep, |_| {
                black_box(serde_json::to_string(&snap))
            });
            enc.push(t.last_s("checkpoint.serve_encode"));
        }
    }
    o.put("checkpoint.serve_decode_ms", ms(median(&dec)), "ms");
    o.put("checkpoint.serve_encode_ms", ms(median(&enc)), "ms");

    // Frame parsing, plain and JSON frames alternating.
    let frames: Vec<String> = (0..10_000)
        .map(|i| {
            if i % 2 == 0 {
                format!("{}.5", 100 + i % 300)
            } else {
                format!("{{\"supply_w\":{}.25}}", 100 + i % 300)
            }
        })
        .collect();
    let s = replay(t, "net.parse_frame", 5, || {
        for f in &frames {
            black_box(parse_frame(f));
        }
    });
    o.put("net.parse_frame_ns", s * 1e9 / frames.len() as f64, "ns");

    let mut attempted = 0;
    let mut failed = 0;
    for p in [&main, &nosnap, &quiet, &one] {
        attempted += p.attempted;
        failed += p.failed;
    }
    (attempted, failed)
}
