//! Long-horizon campaigns: days of diurnal operation instead of one
//! controlled burst.
//!
//! The paper's TCO argument (§IV-F) prices green provisioning against the
//! *yearly hours of sprinting* a real workload generates — breaking even
//! near 14 h/year. A campaign runs the controller against the Google-style
//! diurnal load curve of Fig. 1 (daily plateau plus flash spikes) under
//! generated weather for multiple days, counts sprint hours, and
//! extrapolates them to a year so [`gs_tco`]-style models can be fed with
//! *measured* sprint activity instead of an assumption.

use crate::checkpoint::{EngineSnapshot, MainCarry, RunPhase, SnapshotScope};
use crate::engine::{
    resumed_phase, run_window, run_window_resumable, BurstOutcome, EngineConfig, EngineError,
    EpochHooks, MeasurementMode, RunWindow, SnapshotSink,
};
use crate::fleet::EngineScratch;
use crate::pmk::Strategy;
use crate::profiler::ProfileTable;
use gs_cluster::{ServerSetting, NUM_FREQ_LEVELS};
use gs_power::solar::{SolarTrace, WeatherModel};
use gs_sim::{SimDuration, SimRng, SimTime};
use gs_workload::arrivals::DiurnalTrace;
use serde::{Deserialize, Serialize};

/// Configuration of a multi-day campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(default)]
pub struct CampaignConfig {
    /// The burst-level engine configuration supplying app, provisioning,
    /// strategy, epoch, measurement, thermal model, and seed. Its burst
    /// fields (`availability`, `burst_duration`, `burst_intensity_cores`,
    /// `burst_start_hour`) are ignored — the campaign provides its own
    /// load and sky.
    pub engine: EngineConfig,
    /// Days of operation.
    pub days: u32,
    /// Daily flash spikes in the diurnal load (paper Fig. 1 shows several).
    pub spikes_per_day: u32,
    /// Peak offered load as a core-equivalent intensity (12 = the paper's
    /// saturating `Int=12`).
    pub peak_intensity_cores: u8,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            engine: EngineConfig::default(),
            days: 3,
            spikes_per_day: 4,
            peak_intensity_cores: 12,
        }
    }
}

/// What a campaign produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignOutcome {
    /// Days simulated.
    pub days: u32,
    /// Server-hours of sprinting (sum over green servers).
    pub sprint_server_hours: f64,
    /// Wall-clock hours during which at least one server sprinted.
    pub sprint_hours: f64,
    /// Extrapolation of `sprint_hours` to a 365-day year.
    pub sprint_hours_per_year: f64,
    /// Total goodput relative to a Normal-mode run of the same days.
    pub goodput_vs_normal: f64,
    /// The underlying strategy-run outcome (energy accounting etc.).
    pub run: BurstOutcome,
}

impl CampaignConfig {
    /// Validate this configuration without running it.
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.days < 1 {
            return Err(EngineError::ZeroDays);
        }
        self.engine.validate_base()
    }
}

/// Run a campaign: the configured strategy plus a Normal baseline over
/// identical load and weather. Panics on an invalid configuration; see
/// [`try_run_campaign`] for the reporting variant.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignOutcome {
    try_run_campaign(cfg).unwrap_or_else(|e| panic!("invalid campaign configuration: {e}"))
}

/// As [`run_campaign`], surfacing configuration errors instead of
/// panicking — for callers handling untrusted input (the CLI).
pub fn try_run_campaign(cfg: &CampaignConfig) -> Result<CampaignOutcome, EngineError> {
    let mut scratch = EngineScratch::new();
    try_run_campaign_in(cfg, &mut scratch)
}

/// As [`try_run_campaign`], reusing a caller-provided scratch arena
/// across the strategy and baseline windows (sweep workers thread one
/// arena through every task).
pub(crate) fn try_run_campaign_in(
    cfg: &CampaignConfig,
    scratch: &mut EngineScratch,
) -> Result<CampaignOutcome, EngineError> {
    cfg.validate()?;
    let (run, normal) = with_campaign_window(cfg, |profiles, window| {
        let (run, _) = run_window(&cfg.engine, cfg.engine.strategy, profiles, window, scratch);
        let (normal, _) = run_window(&cfg.engine, Strategy::Normal, profiles, window, scratch);
        (run, normal)
    });
    Ok(assemble_outcome(cfg, run, &normal))
}

/// Rebuild the campaign's deterministic load and sky from its seed and
/// hand the window to `f` — the one place both fresh runs and snapshot
/// resumes derive the environment, so they cannot diverge.
fn with_campaign_window<T>(
    cfg: &CampaignConfig,
    f: impl FnOnce(&ProfileTable, &RunWindow<'_>) -> T,
) -> T {
    let profiles = ProfileTable::cached(cfg.engine.app);
    let app = cfg.engine.app.profile();

    let mut rng = SimRng::seed_from_u64(cfg.engine.seed ^ 0xCA3A_16E5);
    let load = DiurnalTrace::generate(cfg.days, cfg.spikes_per_day, &mut rng);
    let sky = SolarTrace::generate(cfg.days, &WeatherModel::default(), &mut rng);
    let peak_rps = app.slo_capacity(ServerSetting::new(
        cfg.peak_intensity_cores,
        (NUM_FREQ_LEVELS - 1) as u8,
    ));
    let offered = move |t: SimTime| load.offered_rps(t, peak_rps);

    let window = RunWindow {
        offered_rps: &offered,
        trace: &sky,
        start: SimTime::ZERO,
        duration: SimDuration::from_hours(cfg.days as u64 * 24),
    };
    f(profiles, &window)
}

/// Derive the campaign-level metrics from the finished strategy and
/// Normal-baseline runs. The baseline's auditor findings fold into the
/// strategy outcome — a physics violation in either run taints the result.
fn assemble_outcome(
    cfg: &CampaignConfig,
    mut run: BurstOutcome,
    normal: &BurstOutcome,
) -> CampaignOutcome {
    run.audit_violations.extend(
        normal
            .audit_violations
            .iter()
            .map(|v| format!("baseline: {v}")),
    );
    let epoch_hours = cfg.engine.epoch.as_hours_f64();
    let sprint_server_hours: f64 = run
        .epochs
        .iter()
        .map(|e| e.sprinting_servers as f64 * epoch_hours)
        .sum();
    let sprint_hours: f64 = run
        .epochs
        .iter()
        .filter(|e| e.sprinting_servers > 0)
        .count() as f64
        * epoch_hours;
    let goodput_vs_normal = if normal.mean_goodput_rps > 0.0 {
        run.mean_goodput_rps / normal.mean_goodput_rps
    } else {
        1.0
    };
    CampaignOutcome {
        days: cfg.days,
        sprint_server_hours,
        sprint_hours,
        sprint_hours_per_year: sprint_hours * 365.0 / cfg.days as f64,
        goodput_vs_normal,
        run,
    }
}

/// As [`try_run_campaign`], emitting a resumable [`EngineSnapshot`] at
/// every `every_epochs`-th epoch boundary (0 = never) of both the
/// strategy and the Normal-baseline run. Requires analytic measurement
/// (snapshots serialize the full controller state; DES state cannot).
pub fn try_run_campaign_with_snapshots(
    cfg: &CampaignConfig,
    every_epochs: u64,
    sink: &mut dyn FnMut(&EngineSnapshot),
) -> Result<CampaignOutcome, EngineError> {
    run_campaign_snapshotted(cfg, None, every_epochs, sink)
}

/// Resume a campaign from a mid-run snapshot; called through
/// [`crate::engine::resume_snapshot`].
pub(crate) fn resume_campaign_snapshot(
    cfg: &CampaignConfig,
    snap: EngineSnapshot,
    every_epochs: u64,
    sink: &mut dyn FnMut(&EngineSnapshot),
) -> Result<CampaignOutcome, EngineError> {
    run_campaign_snapshotted(cfg, Some(snap), every_epochs, sink)
}

/// Run a campaign with snapshotting, or resume one from `resume`: the
/// strategy run, then its Normal baseline. Baseline-phase snapshots
/// carry the finished strategy run so a resume from one still has
/// everything.
fn run_campaign_snapshotted(
    cfg: &CampaignConfig,
    resume: Option<EngineSnapshot>,
    every_epochs: u64,
    sink: &mut dyn FnMut(&EngineSnapshot),
) -> Result<CampaignOutcome, EngineError> {
    cfg.validate()?;
    if cfg.engine.measurement != MeasurementMode::Analytic {
        return Err(EngineError::SnapshotRequiresAnalytic);
    }
    let (carry, mut state) = resumed_phase(resume)?;
    let mut scratch = EngineScratch::new();
    let mut snapshot = |phase, main_carry, state| {
        sink(&EngineSnapshot {
            scope: SnapshotScope::Campaign(cfg.clone()),
            phase,
            main_carry,
            state,
        });
    };
    let (run, normal) = with_campaign_window(cfg, |profiles, window| {
        let mut run_window_from = |strategy, resume, hooks: &mut dyn EpochHooks| {
            run_window_resumable(
                &cfg.engine,
                strategy,
                profiles,
                window,
                resume,
                every_epochs,
                &mut scratch,
                hooks,
            )
            .0
        };
        let run = match carry {
            Some(carry) => carry.outcome,
            None => {
                let mut hooks = SnapshotSink(|s| snapshot(RunPhase::Strategy, None, s));
                run_window_from(cfg.engine.strategy, state.take(), &mut hooks)
            }
        };
        let carry = MainCarry {
            outcome: run,
            monitor: None,
            policy: None,
        };
        let mut hooks = SnapshotSink(|s| snapshot(RunPhase::Baseline, Some(carry.clone()), s));
        let normal = run_window_from(Strategy::Normal, state, &mut hooks);
        (carry.outcome, normal)
    });
    Ok(assemble_outcome(cfg, run, &normal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GreenConfig;
    use crate::engine::MeasurementMode;

    fn campaign(strategy: Strategy) -> CampaignOutcome {
        let cfg = CampaignConfig {
            engine: EngineConfig {
                strategy,
                green: GreenConfig::re_batt(),
                measurement: MeasurementMode::Analytic,
                seed: 3,
                ..EngineConfig::default()
            },
            days: 1,
            spikes_per_day: 3,
            peak_intensity_cores: 12,
        };
        run_campaign(&cfg)
    }

    #[test]
    fn hybrid_campaign_sprints_and_outperforms_normal() {
        let out = campaign(Strategy::Hybrid);
        assert!(out.sprint_hours > 0.5, "sprint hours {}", out.sprint_hours);
        assert!(out.sprint_hours < 24.0);
        assert!(
            out.goodput_vs_normal > 1.3,
            "gain {}",
            out.goodput_vs_normal
        );
        assert!(out.sprint_server_hours >= out.sprint_hours);
        // Extrapolation is consistent.
        assert!((out.sprint_hours_per_year - out.sprint_hours * 365.0).abs() < 1e-6);
    }

    #[test]
    fn normal_campaign_never_sprints() {
        let out = campaign(Strategy::Normal);
        assert_eq!(out.sprint_hours, 0.0);
        assert!((out.goodput_vs_normal - 1.0).abs() < 1e-9);
    }

    #[test]
    fn a_single_day_of_real_load_clears_the_tco_crossover() {
        // The paper's punchline: break-even is ~14 sprint-hours a year; a
        // bursty interactive service generates that in days.
        let out = campaign(Strategy::Hybrid);
        let tco = gs_tco::TcoParams::paper();
        assert!(
            out.sprint_hours_per_year > tco.crossover_hours(),
            "{} h/yr vs crossover {}",
            out.sprint_hours_per_year,
            tco.crossover_hours()
        );
    }

    #[test]
    fn batteries_grid_recharge_in_the_overnight_valley() {
        // After daytime sprinting drains the packs, the diurnal trough
        // (offered load below Normal capacity, zero sun) lets the paper's
        // case-3 grid recharge run — visible as SoC climbing through
        // epochs with no renewable supply.
        let out = campaign(Strategy::Hybrid);
        let recharged_in_the_dark = out.run.epochs.windows(2).any(|w| {
            w[1].re_supply_w < 1.0
                && w[1].battery_soc > w[0].battery_soc + 1e-4
                && !w[1].setting.is_sprinting()
        });
        assert!(recharged_in_the_dark, "no overnight grid recharge observed");
    }

    #[test]
    #[should_panic(expected = "at least one day")]
    fn rejects_zero_days() {
        let cfg = CampaignConfig {
            days: 0,
            ..CampaignConfig::default()
        };
        run_campaign(&cfg);
    }

    #[test]
    fn campaign_snapshot_resume_is_byte_identical() {
        let cfg = CampaignConfig {
            engine: EngineConfig {
                strategy: Strategy::Hybrid,
                green: GreenConfig::re_batt(),
                measurement: MeasurementMode::Analytic,
                seed: 3,
                ..EngineConfig::default()
            },
            days: 1,
            spikes_per_day: 3,
            peak_intensity_cores: 12,
        };
        let want = serde_json::to_string(&try_run_campaign(&cfg).unwrap()).unwrap();

        let mut snaps = Vec::new();
        let direct =
            try_run_campaign_with_snapshots(&cfg, 500, &mut |s| snaps.push(s.clone())).unwrap();
        assert_eq!(serde_json::to_string(&direct).unwrap(), want);
        assert!(snaps.iter().any(|s| s.phase == RunPhase::Strategy));
        assert!(snaps.iter().any(|s| s.phase == RunPhase::Baseline));

        // Resume once from each phase, through the on-disk JSON form.
        let picks = [
            snaps
                .iter()
                .find(|s| s.phase == RunPhase::Strategy)
                .unwrap(),
            snaps
                .iter()
                .rfind(|s| s.phase == RunPhase::Baseline)
                .unwrap(),
        ];
        for snap in picks {
            let snap = EngineSnapshot::from_json(&snap.to_json()).unwrap();
            match crate::engine::resume_snapshot(snap, 0, &mut |_| {}).unwrap() {
                crate::engine::ResumedRun::Campaign(out) => {
                    assert_eq!(serde_json::to_string(&out).unwrap(), want);
                }
                other => panic!("expected a campaign, got {other:?}"),
            }
        }
    }

    #[test]
    fn try_run_campaign_reports_instead_of_panicking() {
        let cfg = CampaignConfig {
            days: 0,
            ..CampaignConfig::default()
        };
        assert_eq!(try_run_campaign(&cfg).unwrap_err(), EngineError::ZeroDays);

        let mut cfg = CampaignConfig::default();
        cfg.engine.warm_policy_json = Some("not json".to_string());
        assert!(matches!(
            try_run_campaign(&cfg).unwrap_err(),
            EngineError::InvalidWarmPolicy(_)
        ));
    }

    #[test]
    fn campaigns_reject_degenerate_engine_configs_too() {
        let mut cfg = CampaignConfig::default();
        cfg.engine.green.green_servers = 0;
        assert_eq!(cfg.validate().unwrap_err(), EngineError::ZeroServers);

        let mut cfg = CampaignConfig::default();
        cfg.engine.switch_hysteresis = f64::NAN;
        assert!(matches!(
            cfg.validate().unwrap_err(),
            EngineError::InvalidThreshold(_)
        ));
    }
}
