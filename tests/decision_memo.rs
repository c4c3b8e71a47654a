//! The per-epoch decision memo may serve Hybrid only while its decisions
//! draw no randomness (ε = 0). An exploring learner (ε > 0) must decide
//! every server afresh: servers presenting identical inputs still get
//! independent random picks, and the run stays deterministic per seed.

use greensprint_repro::core::checkpoint::RunPhase;
use greensprint_repro::prelude::*;
use std::collections::HashSet;

/// A 10-server analytic Hybrid burst whose warm policy explores on every
/// decision.
fn exploring_cfg() -> EngineConfig {
    let app = Application::SpecJbb;
    let mut policy = QLearner::bootstrapped_cached(app).clone();
    policy.epsilon = 1.0;
    EngineConfig {
        app,
        green: GreenConfig {
            green_servers: 10,
            ..GreenConfig::re_batt()
        },
        strategy: Strategy::Hybrid,
        availability: AvailabilityLevel::Medium,
        burst_duration: SimDuration::from_mins(10),
        measurement: MeasurementMode::Analytic,
        seed: 5,
        warm_policy_json: Some(policy.to_json()),
        ..EngineConfig::default()
    }
}

#[test]
fn exploring_hybrid_is_never_memoized() {
    // Every epoch-boundary snapshot carries the previous epoch's applied
    // per-server settings.
    let mut per_epoch: Vec<Vec<ServerSetting>> = Vec::new();
    let (outcome, _, _) = Engine::new(exploring_cfg())
        .run_full_with_snapshots(1, &mut |s| {
            if s.phase == RunPhase::Strategy {
                per_epoch.push(s.state.prev_settings.clone());
            }
        })
        .expect("analytic snapshots");
    assert!(!per_epoch.is_empty());
    assert_eq!(outcome.dead_server_epochs, 0, "every server stays live");
    // Epoch 0 starts every server from identical inputs (full batteries,
    // Normal incumbents), so a memo would hand all ten the same pick.
    let distinct: HashSet<ServerSetting> = per_epoch[0].iter().copied().collect();
    assert!(
        distinct.len() >= 2,
        "all servers chose {:?} in epoch 0",
        per_epoch[0][0]
    );

    let first = serde_json::to_string(&Engine::new(exploring_cfg()).run()).unwrap();
    let second = serde_json::to_string(&Engine::new(exploring_cfg()).run()).unwrap();
    assert_eq!(first, second, "same seed, same outcome");
}
