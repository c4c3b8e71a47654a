//! End-to-end tests for multi-rack `greensprint serve`: supervised
//! rack-worker isolation (an injected panic or stall recovers via a
//! bounded restart-from-snapshot with byte-identical aggregate metrics),
//! quarantine + conserved rerouting within two epochs, whole-daemon site
//! snapshots (drain/SIGKILL + `--resume` byte-identity, including
//! mid-rack-outage), the tick watchdog, and a golden multi-rack stream.

use greensprint_repro::prelude::*;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gs-serve-dc-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn serve_cfg(minutes: u64) -> EngineConfig {
    EngineConfig {
        burst_duration: SimDuration::from_mins(minutes),
        measurement: MeasurementMode::Analytic,
        seed: 11,
        ..EngineConfig::default()
    }
}

/// Multi-rack `--sim-time` args with a hand-written disturbance plan
/// (`DisturbancePlan::generate` never schedules rack faults, so every
/// rack-fault test constructs its plan explicitly).
fn dc_args(cfg: EngineConfig, racks: u32, plan: DisturbancePlan) -> ServeArgs {
    ServeArgs {
        cfg,
        options: ServeOptions {
            disturbances: Some(plan),
            snapshot_every: 5,
            racks,
            ..ServeOptions::default()
        },
        sim_time: true,
        control: ControlBackend::Sim,
        ..ServeArgs::default()
    }
}

#[test]
fn multi_rack_clean_run_reports_rack_counters() {
    let dir = tmp_dir("clean");
    let metrics = dir.join("metrics.jsonl");

    let mut args = dc_args(serve_cfg(12), 3, DisturbancePlan::default());
    args.metrics_path = Some(metrics.clone());
    let summary = serve(args).expect("clean multi-rack serve");

    assert_eq!(summary.epochs_executed, 12);
    assert_eq!(summary.racks, 3);
    assert_eq!(summary.rack_restarts, 0);
    assert_eq!(summary.rack_panics, 0);
    assert_eq!(summary.rack_stalls, 0);
    assert_eq!(summary.racks_quarantined, 0);
    assert_eq!(summary.rerouted_epochs, 0);
    assert_eq!(summary.audit_violations, 0, "{summary:?}");
    assert_eq!(summary.rack_health, vec![RackHealth::Live; 3]);
    assert_ne!(summary.floor_held, Some(false), "{summary:?}");

    // One aggregate line per epoch; per-rack topics are hub-only and
    // must never leak into the durable stream.
    let text = std::fs::read_to_string(&metrics).unwrap();
    assert_eq!(text.lines().count(), 12);
    assert!(
        !text.contains("{\"rack\":"),
        "per-rack topic lines leaked into the aggregate file"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The tentpole determinism contract: a worker panic *and* a worker
/// stall, each recovered by a restart-from-snapshot that replays the
/// directive history, leave the aggregate `--sim-time` stream
/// byte-identical to an unfaulted run.
#[test]
fn injected_rack_faults_recover_byte_identical() {
    let dir = tmp_dir("faults");
    let clean = dir.join("clean.jsonl");
    let faulted = dir.join("faulted.jsonl");

    let mut want = dc_args(serve_cfg(16), 3, DisturbancePlan::default());
    want.metrics_path = Some(clean.clone());
    let want = serve(want).expect("unfaulted multi-rack serve");
    assert_eq!(want.epochs_executed, 16);

    let plan = DisturbancePlan {
        rack_panics: vec![(3, 1)],
        rack_stalls: vec![(7, 2)],
        ..DisturbancePlan::default()
    };
    let mut got = dc_args(serve_cfg(16), 3, plan);
    got.metrics_path = Some(faulted.clone());
    let got = serve(got).expect("faulted multi-rack serve");

    assert_eq!(got.rack_panics, 1, "{got:?}");
    assert_eq!(got.rack_stalls, 1, "{got:?}");
    assert_eq!(got.rack_restarts, 2, "one restart per injected death");
    assert_eq!(got.racks_quarantined, 0);
    assert_eq!(got.rerouted_epochs, 0, "recovered racks never reroute");
    assert_eq!(got.audit_violations, 0);
    assert!(
        got.rack_events.iter().any(|e| e.contains("restart")),
        "supervision log records the restarts: {:?}",
        got.rack_events
    );

    let want_bytes = std::fs::read(&clean).unwrap();
    let got_bytes = std::fs::read(&faulted).unwrap();
    assert!(!want_bytes.is_empty());
    assert_eq!(
        want_bytes, got_bytes,
        "a recovered rack restart changed the aggregate stream bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Restart-budget exhaustion quarantines the rack and the broker's
/// conserved factors route its load to the survivors by the next epoch
/// (the ≤ 2-epoch failover bar), with zero conservation-audit
/// violations.
#[test]
fn exhausted_restarts_quarantine_and_reroute_within_two_epochs() {
    let dir = tmp_dir("quarantine");
    let snap = dir.join("snap.json");

    let plan = DisturbancePlan {
        rack_panics: vec![(3, 1)],
        ..DisturbancePlan::default()
    };
    let mut args = dc_args(serve_cfg(12), 3, plan);
    args.options.rack_restarts = 0;
    args.snapshot_path = Some(snap.clone());
    args.drain_after_epochs = Some(8);
    let summary = serve(args).expect("quarantine serve");

    assert!(summary.drained);
    assert_eq!(summary.racks_quarantined, 1, "{summary:?}");
    assert_eq!(summary.rack_health[1], RackHealth::Quarantined);
    assert_eq!(summary.rack_health[0], RackHealth::Live);
    assert_eq!(summary.audit_violations, 0, "{summary:?}");
    assert_eq!(
        summary.rerouted_epochs, 4,
        "panic at epoch 3 reroutes epochs 4..8: {summary:?}"
    );
    assert!(
        summary.rack_events.iter().any(|e| e.contains("quarantin")),
        "supervision log records the quarantine: {:?}",
        summary.rack_events
    );

    // The drained site snapshot's directive log shows the failover
    // landing within two epochs of the death: the dead rack's factor
    // collapses to zero and the survivors absorb its load.
    let snap = ServeSnapshot::from_json(&std::fs::read_to_string(&snap).unwrap())
        .expect("site snapshot parses");
    let ServeEngineState::Site { dc, .. } = snap.engine else {
        panic!("a multi-rack daemon writes the site form");
    };
    assert_eq!(dc.rows.len(), 8, "one directive row per executed epoch");
    assert!(
        dc.rows[3].factors[1] > 0.5,
        "the panic epoch itself was still routed normally: {:?}",
        dc.rows[3]
    );
    let rerouted = &dc.rows[4];
    assert!(
        rerouted.factors[1] <= 0.01,
        "dead rack not dark by epoch 4: {rerouted:?}"
    );
    assert!(
        rerouted.factors.iter().any(|&f| f > 1.01),
        "survivors absorbed no load: {rerouted:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Drain + `--resume` mid-rack-outage: a daemon checkpointed *while* a
/// rack is quarantined resumes to a stream byte-identical to the same
/// faulted run executed without interruption.
#[test]
fn drain_resume_mid_quarantine_is_byte_identical() {
    let dir = tmp_dir("resume-quarantine");
    let full = dir.join("full.jsonl");
    let part = dir.join("part.jsonl");
    let snap = dir.join("snap.json");
    let plan = DisturbancePlan {
        rack_panics: vec![(3, 1)],
        ..DisturbancePlan::default()
    };

    let mut uninterrupted = dc_args(serve_cfg(20), 3, plan.clone());
    uninterrupted.options.rack_restarts = 0;
    uninterrupted.metrics_path = Some(full.clone());
    let want = serve(uninterrupted).expect("uninterrupted faulted serve");
    assert_eq!(want.racks_quarantined, 1);
    assert_eq!(want.epochs_executed, 20);

    let mut first = dc_args(serve_cfg(20), 3, plan);
    first.options.rack_restarts = 0;
    first.metrics_path = Some(part.clone());
    first.snapshot_path = Some(snap.clone());
    first.drain_after_epochs = Some(6);
    let drained = serve(first).expect("drained serve");
    assert!(drained.drained);
    assert_eq!(drained.racks_quarantined, 1, "outage predates the drain");

    let resumed = serve(ServeArgs {
        metrics_path: Some(part.clone()),
        resume_path: Some(snap.clone()),
        control: ControlBackend::Sim,
        sim_time: true,
        ..ServeArgs::default()
    })
    .expect("resumed serve");
    assert_eq!(resumed.resumed_from_epoch, Some(6));
    assert_eq!(resumed.epochs_executed, 20);
    assert_eq!(resumed.racks, 3, "rack count rides the snapshot");
    assert_eq!(
        resumed.rack_health[1],
        RackHealth::Quarantined,
        "quarantine survives the restart"
    );
    assert_eq!(resumed.audit_violations, 0);

    let want_bytes = std::fs::read(&full).unwrap();
    let got_bytes = std::fs::read(&part).unwrap();
    assert!(!want_bytes.is_empty());
    assert_eq!(
        want_bytes, got_bytes,
        "drain + resume mid-quarantine changed the stream bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGKILL (no drain, no destructor) on a multi-rack daemon, then
/// `--resume` from the periodic site snapshot: bytes identical to an
/// uninterrupted run.
#[test]
fn multi_rack_sigkilled_then_resumed_stream_is_byte_identical() {
    let dir = tmp_dir("sigkill");
    let full = dir.join("full.jsonl");
    let part = dir.join("part.jsonl");
    let snap = dir.join("snap.json");
    let base = [
        "serve",
        "--sim-time",
        "--analytic",
        "--minutes",
        "30",
        "--seed",
        "11",
        "--disturb-seed",
        "3",
        "--control",
        "sim",
        "--snapshot-every",
        "5",
        "--racks",
        "3",
    ];

    let status = Command::new(env!("CARGO_BIN_EXE_greensprint"))
        .args(base)
        .args(["--metrics", full.to_str().unwrap()])
        .status()
        .expect("uninterrupted run");
    assert!(status.success());

    // Throttled purely so SIGKILL lands mid-stream; pacing never enters
    // the metrics bytes.
    let mut child = Command::new(env!("CARGO_BIN_EXE_greensprint"))
        .args(base)
        .args(["--metrics", part.to_str().unwrap()])
        .args(["--snapshot", snap.to_str().unwrap()])
        .args(["--throttle-ms", "40"])
        .spawn()
        .expect("throttled run");
    std::thread::sleep(std::time::Duration::from_millis(700));
    child.kill().expect("SIGKILL");
    let _ = child.wait();
    assert!(
        snap.exists(),
        "the run died before its first snapshot; raise the sleep"
    );
    let text = std::fs::read_to_string(&snap).unwrap();
    assert!(
        matches!(
            ServeSnapshot::from_json(&text).map(|s| s.engine),
            Ok(ServeEngineState::Site { .. })
        ),
        "multi-rack daemon did not write the site form"
    );

    let status = Command::new(env!("CARGO_BIN_EXE_greensprint"))
        .args([
            "serve",
            "--sim-time",
            "--control",
            "sim",
            "--resume",
            snap.to_str().unwrap(),
            "--metrics",
            part.to_str().unwrap(),
        ])
        .status()
        .expect("resumed run");
    assert!(status.success());

    let want_bytes = std::fs::read(&full).unwrap();
    let got_bytes = std::fs::read(&part).unwrap();
    assert_eq!(
        want_bytes, got_bytes,
        "SIGKILL + resume changed the multi-rack stream bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A wedged site tick trips the watchdog: counted, logged through the
/// guardrail, and answered with a one-rung ladder demotion on the next
/// epoch.
#[test]
fn watchdog_stall_is_counted_and_demotes() {
    let mut cfg = serve_cfg(12);
    cfg.guardrail.enabled = true;
    let plan = DisturbancePlan {
        wedges: vec![4],
        ..DisturbancePlan::default()
    };
    let summary = serve(ServeArgs {
        cfg,
        options: ServeOptions {
            disturbances: Some(plan),
            ..ServeOptions::default()
        },
        sim_time: true,
        control: ControlBackend::Sim,
        ..ServeArgs::default()
    })
    .expect("wedged serve");

    assert_eq!(summary.epochs_executed, 12);
    assert_eq!(summary.watchdog_stalls, 1, "{summary:?}");
    assert!(
        summary
            .guardrail_events
            .iter()
            .any(|e| e.contains("watchdog")),
        "watchdog demotion missing from the guardrail log: {:?}",
        summary.guardrail_events
    );
    assert!(summary.ladder_level >= 1, "{summary:?}");
}

/// `--racks >= 2` cannot drive one physical rack's sysfs tree.
#[test]
fn multi_rack_rejects_sysfs_control() {
    let err = serve(ServeArgs {
        cfg: serve_cfg(5),
        options: ServeOptions {
            racks: 2,
            ..ServeOptions::default()
        },
        sim_time: true,
        control: ControlBackend::Sysfs(std::env::temp_dir().join("gs-serve-dc-sysfs")),
        ..ServeArgs::default()
    })
    .expect_err("sysfs multi-rack must be rejected");
    assert!(
        matches!(&err, ServeError::Config(m) if m.contains("sysfs")),
        "{err:?}"
    );
}

/// The multi-rack aggregate stream for a disturbed (stale/overrun)
/// 3-rack run, pinned as golden bytes. Regenerate only when the
/// intended stream changes: `GOLDEN_REGEN=1 cargo test --test serve_dc`.
#[test]
fn golden_multi_rack_stream_is_byte_identical() {
    let dir = tmp_dir("golden");
    let metrics = dir.join("metrics.jsonl");

    let cfg = serve_cfg(20);
    let n_epochs = cfg.burst_duration.div_duration(cfg.epoch).unwrap();
    let mut args = dc_args(cfg, 3, DisturbancePlan::generate(3, n_epochs));
    args.metrics_path = Some(metrics.clone());
    let summary = serve(args).expect("golden multi-rack serve");
    assert_eq!(summary.audit_violations, 0);

    let actual = std::fs::read_to_string(&metrics).unwrap();
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/serve_dc_metrics.jsonl");
    if std::env::var_os("GOLDEN_REGEN").is_some_and(|v| v == "1") {
        std::fs::write(&fixture, &actual).expect("write fixture");
    } else {
        let expected = std::fs::read_to_string(&fixture)
            .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", fixture.display()));
        assert_eq!(
            expected, actual,
            "multi-rack serve stream diverged from golden bytes \
             (if the change is intended, regenerate with GOLDEN_REGEN=1)"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Differential check between the two callers of the lockstep rack
/// runtime: batch `datacenter` and multi-rack `serve` on the same
/// homogeneous, fault-free fleet must route identically. The broker's
/// conserved factors for the first `K` epochs equal the factor rows
/// serve logged into its drained site snapshot, bit for bit.
#[test]
fn batch_and_serve_route_a_fleet_identically() {
    const RACKS: usize = 3;
    const K: u64 = 8;
    let dir = tmp_dir("batch-vs-serve");
    let snap = dir.join("snap.json");

    let mut cfg = serve_cfg(12);
    cfg.guardrail.enabled = false;
    let dc = DatacenterConfig {
        racks: (0..RACKS)
            .map(|_| RackSpec {
                app: cfg.app,
                green: cfg.green.clone(),
                strategy: cfg.strategy,
            })
            .collect(),
        template: cfg.clone(),
        site_fault_plan: None,
    };
    let batch = try_run_datacenter(&dc, 2).expect("batch datacenter");

    let args = ServeArgs {
        cfg,
        options: ServeOptions {
            racks: RACKS as u32,
            ..ServeOptions::default()
        },
        sim_time: true,
        snapshot_path: Some(snap.clone()),
        drain_after_epochs: Some(K),
        ..ServeArgs::default()
    };
    let summary = serve(args).expect("drained multi-rack serve");
    assert!(summary.drained);
    let text = std::fs::read_to_string(&snap).unwrap();
    let snapshot = ServeSnapshot::from_json(&text).expect("site snapshot");
    let ServeEngineState::Site { dc, .. } = snapshot.engine else {
        panic!("a multi-rack daemon writes the site form");
    };
    let rows = dc.rows;
    assert_eq!(rows.len() as u64, K);

    for (k, (want, row)) in batch.factors.iter().zip(&rows).enumerate() {
        assert_eq!(
            want, &row.factors,
            "batch and serve routing diverge at epoch {k}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Admin `RESTART-RACK` re-admits a rack quarantined before its first
/// capture: the replacement replays the directive log from epoch 0,
/// handing over every boundary capture it passes, and rejoins the fleet
/// with the site audit clean.
#[test]
fn admin_restart_readmits_a_quarantined_rack_through_catch_up() {
    let dir = tmp_dir("readmit");
    let metrics = dir.join("metrics.jsonl");
    let ready = Arc::new(OnceLock::new());

    let cfg = serve_cfg(40);
    let mut args = dc_args(
        cfg,
        3,
        DisturbancePlan {
            rack_panics: vec![(2, 1)],
            ..DisturbancePlan::default()
        },
    );
    args.options.rack_restarts = 0;
    args.metrics_path = Some(metrics.clone());
    // Pacing only: keeps the run alive while the admin client acts.
    args.throttle_ms = 50;
    args.net = Some(NetConfig {
        listen: Some("127.0.0.1:0".to_string()),
        admin_token: Some("t0k".to_string()),
        ready: Some(Arc::clone(&ready)),
        ..NetConfig::default()
    });
    let daemon = std::thread::spawn(move || serve(args));

    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Some(a) = ready.get().and_then(|a: &NetAddrs| a.listen) {
            break a;
        }
        assert!(Instant::now() < deadline, "listener never came up");
        std::thread::sleep(Duration::from_millis(5));
    };
    // Wait past two snapshot boundaries, so the catch-up crosses both.
    let t = Duration::from_secs(2);
    loop {
        let reply = admin_request(addr, "STATUS t0k", t).unwrap();
        let status: serde_json::Value = serde_json::from_str(&reply).unwrap();
        let epoch = status
            .get("epoch")
            .and_then(|e| e.as_number())
            .and_then(|n| n.as_u64())
            .unwrap_or(0);
        if epoch >= 12 && reply.contains("quarantined") {
            break;
        }
        assert!(Instant::now() < deadline, "rack 1 was never quarantined");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        admin_request(addr, "RESTART-RACK 1 t0k", t).unwrap(),
        "ok restart-rack 1"
    );
    let summary = daemon.join().unwrap().expect("multi-rack serve");

    assert_eq!(summary.racks_quarantined, 1, "{summary:?}");
    assert!(
        summary
            .rack_events
            .iter()
            .any(|e| e.contains("admin re-admitted rack 1")),
        "{:?}",
        summary.rack_events
    );
    assert_ne!(summary.rack_health[1], RackHealth::Quarantined);
    assert_eq!(summary.audit_violations, 0, "{summary:?}");
    let text = std::fs::read_to_string(&metrics).unwrap();
    assert_eq!(text.lines().count(), 40);
    let _ = std::fs::remove_dir_all(&dir);
}
