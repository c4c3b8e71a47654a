//! Failure injection: the unhappy paths a power-aware controller exists
//! for. Each scenario wires real substrate components into a fault and
//! checks the system degrades the way the paper's design intends —
//! shedding sprint intensity, never shedding correctness.

use greensprint_repro::core::cluster_view::{run_cluster, GridSprintPolicy};
use greensprint_repro::power::pdu::CircuitBreaker;
use greensprint_repro::prelude::*;

#[test]
fn renewable_collapse_mid_burst_degrades_to_normal_not_zero() {
    // The sky goes black half-way through a burst (storm front): the
    // controller must ride batteries down and land on Normal mode — never
    // below it, never tripping anything.
    let mut samples = vec![1.0_f64; 11 * 60 + 15]; // full sun until 11:15
    samples.extend(vec![0.0; 24 * 60]); // then nothing
    let trace = SolarTrace::from_samples(samples);
    let cfg = EngineConfig {
        green: GreenConfig::re_sbatt(),
        trace_override: Some(trace),
        burst_duration: SimDuration::from_mins(30),
        measurement: MeasurementMode::Analytic,
        ..EngineConfig::default()
    };
    let out = Engine::new(cfg).run();
    // Sprinted while the sun was up, degraded after.
    let early = &out.epochs[..10];
    let late = &out.epochs[20..];
    assert!(early.iter().all(|e| e.setting.is_sprinting()));
    assert!(late.iter().all(|e| e.setting == ServerSetting::normal()));
    // Average still beats Normal; floor holds.
    assert!(out.speedup_vs_normal > 1.3);
    assert!(out.epochs.iter().all(|e| e.goodput_rps > 0.0));
    assert_eq!(out.grid_overload_wh, 0.0);
}

#[test]
fn dead_battery_and_dark_sky_is_exactly_normal() {
    let cfg = EngineConfig {
        green: GreenConfig::re_only(),
        availability: AvailabilityLevel::Minimum,
        burst_duration: SimDuration::from_mins(20),
        measurement: MeasurementMode::Analytic,
        ..EngineConfig::default()
    };
    let out = Engine::new(cfg).run();
    assert!((out.speedup_vs_normal - 1.0).abs() < 0.02);
    assert_eq!(out.battery_used_wh, 0.0);
    assert_eq!(out.re_used_wh, 0.0);
}

#[test]
fn breaker_protects_the_grid_from_reckless_sprinting() {
    let cfg = EngineConfig {
        availability: AvailabilityLevel::Maximum,
        burst_duration: SimDuration::from_mins(10),
        measurement: MeasurementMode::Analytic,
        ..EngineConfig::default()
    };
    let reckless = run_cluster(&cfg, GridSprintPolicy::Reckless);
    assert!(reckless.breaker_tripped);
    // The disciplined policy with the same burst never trips.
    let disciplined = run_cluster(&cfg, GridSprintPolicy::SubOptimal);
    assert!(!disciplined.breaker_tripped);
    assert!(disciplined.cluster_speedup_vs_normal > reckless.cluster_speedup_vs_normal);
}

#[test]
fn utility_outage_during_a_sprint_is_survivable() {
    // Fig. 2: the green rack sprints on its own bus through a utility
    // outage, oblivious. (The utility side's ATS + diesel path is not
    // modelled.)
    let cfg = EngineConfig {
        availability: AvailabilityLevel::Maximum,
        burst_duration: SimDuration::from_mins(30),
        measurement: MeasurementMode::Analytic,
        ..EngineConfig::default()
    };
    let green = Engine::new(cfg).run();
    assert!(green.speedup_vs_normal > 4.0, "green bus unaffected");
}

#[test]
fn utility_outage_while_re_telemetry_is_stale_still_holds_the_floor() {
    // The compound nightmare: the utility feed drops at the same moment
    // the green rack loses its RE sensor mid-burst. The controller must
    // enter safe mode on stale telemetry, ride batteries down against
    // the worst recent observation, and land on Normal — under both
    // measurement planes.
    let dropout = FaultEvent {
        at: SimTime::from_hours(11) + SimDuration::from_mins(5),
        duration: SimDuration::from_mins(25),
        kind: FaultKind::ReSensorDropout,
    };
    for measurement in [MeasurementMode::Analytic, MeasurementMode::Des] {
        let cfg = EngineConfig {
            availability: AvailabilityLevel::Maximum,
            burst_duration: SimDuration::from_mins(30),
            measurement,
            fault_plan: Some(FaultPlan::new(vec![dropout])),
            ..EngineConfig::default()
        };
        let out = Engine::new(cfg).run();
        let floor = match measurement {
            MeasurementMode::Analytic => 0.99,
            MeasurementMode::Des => 0.95,
        };
        assert!(
            out.speedup_vs_normal >= floor,
            "{measurement:?}: speedup {}",
            out.speedup_vs_normal
        );
        assert!(out.floor_held, "{measurement:?}");
        assert!(
            out.safe_mode_epochs > 0,
            "{measurement:?}: never entered safe mode"
        );
        assert_eq!(out.grid_overload_wh, 0.0, "{measurement:?}");
        // Safe mode starts when the dropout does, not before.
        assert!(!out.epochs[0].safe_mode, "{measurement:?}");
    }
}

#[test]
fn thermal_runaway_without_pcm_is_contained_by_throttling() {
    let cfg = EngineConfig {
        availability: AvailabilityLevel::Maximum,
        burst_duration: SimDuration::from_mins(30),
        thermal: ThermalModel::NoPcm,
        measurement: MeasurementMode::Analytic,
        ..EngineConfig::default()
    };
    let out = Engine::new(cfg).run();
    // The guard fired, the chip never exceeded the limit band, and the
    // duty-cycled sprint still beat Normal.
    assert!(out.thermal_throttle_epochs > 0);
    assert!(out.peak_temp_c < 86.0, "peak {}", out.peak_temp_c);
    assert!(out.speedup_vs_normal > 1.2);
}

#[test]
fn breaker_recovers_after_reset() {
    let mut cb = CircuitBreaker::new(1_000.0);
    cb.advance(5_000.0, SimDuration::from_secs(30));
    assert!(cb.is_tripped());
    cb.reset();
    // Back in service at rated load.
    assert!(!cb.advance(1_000.0, SimDuration::from_mins(10)));
}
