//! The scheduling-epoch engine.
//!
//! Reproduces the prototype's control loop (paper §III/§IV): a workload
//! burst hits the cluster; every epoch the Monitor publishes observations,
//! the Predictor forecasts the next epoch, the PSS classifies the supply
//! case and allocates renewable/battery/grid power, and the PMK picks each
//! green server's sprint setting. The workload layer then *measures* the
//! epoch — by request-level DES by default, or by the analytic queueing
//! model for fast sweeps — and the energy flows are settled against the
//! battery and the meters.
//!
//! Performance is reported exactly as in the paper: the mean goodput of
//! the green-provisioned servers over the burst, normalized to a Normal
//! (no-sprint) run of the same burst.

#![deny(clippy::too_many_lines)]

use crate::audit::{EpochFlows, InvariantAuditor};
use crate::checkpoint::{EngineSnapshot, LoopState, MainCarry, RunPhase, SnapshotScope};
use crate::config::{AvailabilityLevel, GreenConfig};
use crate::faults::{ActiveFaults, FaultPlan};
use crate::fleet::{AnalyticCache, EngineScratch, FleetState};
use crate::guardrail::{
    EpochSignals, Guardrail, GuardrailAction, GuardrailConfig, QuarantineRecord,
};
use crate::monitor::{Monitor, Observation, ObservationQuality};
use crate::pmk::{ActuationWatchdog, Pmk, PmkContext, Strategy};
use crate::predictor::{ClearSkyIndexedPredictor, Predictor};
use crate::profiler::ProfileTable;
use crate::qlearning::{reward, QState, RewardInputs};
use gs_cluster::{PowerModel, ServerSetting};
use gs_power::battery::Battery;
use gs_power::meter::{PowerMeter, Source};
use gs_power::pss::{PowerSourceSelector, SafeSupplyEstimator, SupplyCase, SupplyPlan};
use gs_power::solar::{PvArray, SolarTrace};
use gs_sim::{SimDuration, SimRng, SimTime};
use gs_thermal::ThermalPackage;
use gs_workload::apps::{AppProfile, Application};
use gs_workload::arrivals::BurstPattern;
use gs_workload::des::ServerSim;
use gs_workload::metrics::EpochPerf;
use serde::{Deserialize, Serialize};

/// Why a configuration cannot run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The scheduling epoch is zero.
    ZeroEpoch,
    /// The burst is shorter than one epoch.
    SubEpochBurst,
    /// `warm_policy_json` is not a valid exported policy.
    InvalidWarmPolicy(String),
    /// A campaign was asked to run zero days.
    ZeroDays,
    /// `trace_override` is unusable (empty or non-finite samples — e.g. a
    /// scenario file that deserialized garbage straight into the trace).
    InvalidTrace(String),
    /// `fault_plan` contains a physically meaningless event.
    InvalidFaultPlan(String),
    /// The green cluster has zero servers — every per-server share would
    /// divide by zero.
    ZeroServers,
    /// A numeric threshold (named inside) is NaN or outside its legal
    /// range.
    InvalidThreshold(String),
    /// The guardrail configuration cannot supervise anything (a learned
    /// fallback, zero-length streaks, non-finite thresholds).
    InvalidGuardrail(String),
    /// Snapshots capture the full controller state, which the DES
    /// measurement plane cannot serialize — checkpointed runs must use
    /// `MeasurementMode::Analytic`.
    SnapshotRequiresAnalytic,
    /// A snapshot cannot resume here: its shape is inconsistent, or its
    /// state does not fit its configuration.
    SnapshotMismatch(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::ZeroEpoch => f.write_str("epoch must be positive"),
            EngineError::SubEpochBurst => f.write_str("burst must span at least one epoch"),
            EngineError::InvalidWarmPolicy(e) => write!(f, "invalid warm_policy_json: {e}"),
            EngineError::ZeroDays => f.write_str("campaign needs at least one day"),
            EngineError::InvalidTrace(e) => write!(f, "invalid trace_override: {e}"),
            EngineError::InvalidFaultPlan(e) => write!(f, "invalid fault_plan: {e}"),
            EngineError::ZeroServers => f.write_str("green cluster needs at least one server"),
            EngineError::InvalidThreshold(e) => write!(f, "invalid threshold: {e}"),
            EngineError::InvalidGuardrail(e) => write!(f, "invalid guardrail: {e}"),
            EngineError::SnapshotRequiresAnalytic => f.write_str(
                "snapshots require analytic measurement (DES state is not serializable)",
            ),
            EngineError::SnapshotMismatch(e) => write!(f, "snapshot mismatch: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Which thermal package the green servers carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ThermalModel {
    /// The paper's assumption: PCM-buffered package; sprints of the
    /// evaluated durations never hit the junction limit.
    PaperPcm,
    /// No phase-change buffer: classic minutes-scale sprint headroom; the
    /// engine throttles to Normal when the junction limit trips.
    NoPcm,
    /// Skip thermal simulation entirely (fast sweeps).
    Disabled,
}

/// Which renewable-supply predictor the controller runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PredictorKind {
    /// The paper's raw EWMA over observed production (Eq. 1, α = 0.3).
    PaperEwma,
    /// Clear-sky-indexed EWMA: smooth the cloud attenuation and project it
    /// onto the known solar-geometry curve (extension; strictly better on
    /// dawn/dusk ramps).
    ClearSkyIndexed,
}

/// How epochs are measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MeasurementMode {
    /// Request-level discrete-event simulation (the default; slower,
    /// higher fidelity, stochastic).
    Des,
    /// Closed-form queueing model (deterministic, fast; used for wide
    /// parameter sweeps and quick tests).
    Analytic,
}

/// Everything one burst experiment needs.
///
/// Deserializes with per-field defaults, so a scenario file only needs to
/// name the fields it changes.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(default)]
pub struct EngineConfig {
    /// The hosted application.
    pub app: Application,
    /// Green-provisioning option (Table I).
    pub green: GreenConfig,
    /// The PMK strategy under test.
    pub strategy: Strategy,
    /// Renewable availability level (paper Fig. 5 windows).
    pub availability: AvailabilityLevel,
    /// Burst length (the paper sweeps 10/15/30/60 minutes).
    pub burst_duration: SimDuration,
    /// Burst intensity `Int=k`: offered load equals the capacity of `k`
    /// cores at 2.0 GHz (paper §IV-D).
    pub burst_intensity_cores: u8,
    /// Scheduling epoch (the paper uses minutes-scale epochs).
    pub epoch: SimDuration,
    /// Horizon over which Parallel/Pacing budget battery energy.
    pub planning_horizon: SimDuration,
    /// Epoch measurement mode.
    pub measurement: MeasurementMode,
    /// Thermal package on the green servers.
    pub thermal: ThermalModel,
    /// Hour of day the burst starts (near solar noon by default so the
    /// Maximum availability window is genuinely maximal).
    pub burst_start_hour: f64,
    /// PMK switching hysteresis: keep the previous epoch's setting when
    /// its expected performance is within this fraction of the new
    /// choice's (0 = always switch, the paper's behaviour).
    pub switch_hysteresis: f64,
    /// Replay a specific irradiance trace (e.g. loaded from an NREL CSV
    /// via `gs_power::trace_io`) instead of the synthetic one implied by
    /// `availability`.
    pub trace_override: Option<SolarTrace>,
    /// Renewable-supply predictor (the paper's EWMA by default).
    pub predictor: PredictorKind,
    /// Warm-start the Hybrid learner from a policy exported by a previous
    /// run (`QLearner::to_json`); `None` bootstraps from the profiling
    /// tables as in the paper. Ignored by the other strategies.
    pub warm_policy_json: Option<String>,
    /// Deterministic fault-injection schedule replayed over the run
    /// (telemetry, supply, and actuation faults); `None` runs fault-free.
    pub fault_plan: Option<FaultPlan>,
    /// Run the invariant auditor inside the epoch loop (energy
    /// conservation, SoC bounds, breaker cap, non-negative flows),
    /// accumulating violations into the outcome. On by default; the cost
    /// is a handful of additions per epoch.
    pub audit: bool,
    /// Consecutive commanded-vs-observed actuation mismatches before the
    /// watchdog clamps a server to Normal (must be at least 1).
    pub watchdog_threshold: u32,
    /// Policy guardrail: shadow fallback scoring, misbehavior detectors,
    /// and the failover ladder. Disabled by default — the paper-faithful
    /// controller runs unsupervised.
    pub guardrail: GuardrailConfig,
    /// Master seed; all stochastic components derive from it.
    pub seed: u64,
}

impl EngineConfig {
    /// Checks shared by every epoch loop this config can drive (bursts
    /// and campaigns): a positive epoch and a parseable warm policy.
    pub(crate) fn validate_base(&self) -> Result<(), EngineError> {
        if self.epoch.is_zero() {
            return Err(EngineError::ZeroEpoch);
        }
        if self.green.green_servers == 0 {
            return Err(EngineError::ZeroServers);
        }
        if !(0.0..=1.0).contains(&self.switch_hysteresis) {
            // NaN is not contained in any range, so it fails here too.
            return Err(EngineError::InvalidThreshold(format!(
                "switch_hysteresis must be in [0, 1], got {}",
                self.switch_hysteresis
            )));
        }
        if let Some(json) = &self.warm_policy_json {
            if let Err(e) = crate::qlearning::QLearner::from_json(json) {
                return Err(EngineError::InvalidWarmPolicy(e.to_string()));
            }
        }
        // Scenario JSON deserializes the trace's private samples directly,
        // bypassing the clamping constructors — validate before running.
        if let Some(trace) = &self.trace_override {
            if let Err(e) = trace.validate() {
                return Err(EngineError::InvalidTrace(e.to_string()));
            }
        }
        if let Some(plan) = &self.fault_plan {
            // Validate against this rack's size too: an event targeting a
            // server the rack does not have would silently no-op (or
            // worse, index out of range) mid-burst.
            if let Err(e) = plan.validate_for(self.green.green_servers) {
                return Err(EngineError::InvalidFaultPlan(e));
            }
        }
        if self.watchdog_threshold == 0 {
            return Err(EngineError::InvalidThreshold(
                "watchdog_threshold must be at least 1, got 0".to_string(),
            ));
        }
        if let Err(e) = self.guardrail.validate() {
            return Err(EngineError::InvalidGuardrail(e));
        }
        Ok(())
    }

    /// Validate this configuration for a single-burst run.
    pub fn validate(&self) -> Result<(), EngineError> {
        self.validate_base()?;
        if self.burst_duration.div_duration(self.epoch).unwrap_or(0) < 1 {
            return Err(EngineError::SubEpochBurst);
        }
        if !(0.0..24.0).contains(&self.burst_start_hour) {
            // NaN is not contained in any range, so it fails here too.
            return Err(EngineError::InvalidThreshold(format!(
                "burst_start_hour must be in [0, 24), got {}",
                self.burst_start_hour
            )));
        }
        Ok(())
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            app: Application::SpecJbb,
            green: GreenConfig::re_batt(),
            strategy: Strategy::Hybrid,
            availability: AvailabilityLevel::Maximum,
            burst_duration: SimDuration::from_mins(10),
            burst_intensity_cores: 12,
            epoch: SimDuration::from_secs(60),
            planning_horizon: SimDuration::from_mins(10),
            measurement: MeasurementMode::Des,
            thermal: ThermalModel::PaperPcm,
            burst_start_hour: 11.0,
            switch_hysteresis: 0.0,
            predictor: PredictorKind::PaperEwma,
            trace_override: None,
            warm_policy_json: None,
            fault_plan: None,
            audit: true,
            watchdog_threshold: crate::pmk::WATCHDOG_THRESHOLD,
            guardrail: GuardrailConfig::default(),
            seed: 7,
        }
    }
}

/// Consecutive healthy epochs a returning server must string together
/// before it rejoins the plan and regains load — the fleet's rejoin
/// hysteresis. A flapping server keeps resetting its streak, so it can
/// never oscillate the capacity plan.
pub const REJOIN_EPOCHS: u32 = 3;

/// One epoch's record for reporting.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Epoch start time.
    pub t: SimTime,
    /// The setting chosen for the green servers this epoch.
    pub setting: ServerSetting,
    /// The PSS supply case this epoch fell into.
    pub case: SupplyCase,
    /// Renewable power available (W).
    pub re_supply_w: f64,
    /// Renewable power consumed by the sprint (W).
    pub re_used_w: f64,
    /// Battery power consumed (W).
    pub battery_w: f64,
    /// Aggregate green-server demand (W).
    pub demand_w: f64,
    /// Mean battery state of charge after the epoch.
    pub battery_soc: f64,
    /// Offered load per server (req/s).
    pub offered_rps: f64,
    /// Goodput summed over the green servers (req/s).
    pub goodput_rps: f64,
    /// How many green servers were sprinting this epoch.
    pub sprinting_servers: u8,
    /// True if the controller planned this epoch in safe mode (no verified
    /// supply observation). Absent in pre-fault serialized records.
    #[serde(default)]
    pub safe_mode: bool,
    /// The guardrail ladder level that steered this epoch (0 = the
    /// configured strategy; always 0 with the guardrail off). Absent in
    /// pre-guardrail serialized records.
    #[serde(default)]
    pub ladder_level: u8,
    /// Servers carrying load this epoch (the full rack minus crashed,
    /// flapping, and rejoin-probation servers). Absent in pre-fleet
    /// serialized records.
    #[serde(default)]
    pub live_servers: u8,
}

/// The result of one burst experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BurstOutcome {
    /// Mean per-server goodput over the burst (req/s).
    pub mean_goodput_rps: f64,
    /// The Normal baseline's mean per-server goodput (req/s).
    pub normal_baseline_rps: f64,
    /// The paper's headline metric: goodput normalized to Normal.
    pub speedup_vs_normal: f64,
    /// Fraction of offered requests that met the SLO over the burst.
    pub slo_attainment: f64,
    /// Renewable energy used for serving (Wh).
    pub re_used_wh: f64,
    /// Renewable energy stored into batteries (Wh).
    pub re_charged_wh: f64,
    /// Renewable energy curtailed (Wh).
    pub curtailed_wh: f64,
    /// Battery energy discharged (Wh).
    pub battery_used_wh: f64,
    /// Emergency grid-overload energy (Wh).
    pub grid_overload_wh: f64,
    /// Grid energy to recharge the batteries after the burst (Wh).
    pub grid_recharge_wh: f64,
    /// Mean equivalent battery cycles consumed per unit.
    pub battery_cycles: f64,
    /// Total sprint-setting changes across green servers and epochs
    /// (knob churn; hysteresis reduces it).
    pub setting_transitions: usize,
    /// Epochs in which any green server was thermally throttled.
    pub thermal_throttle_epochs: usize,
    /// Hottest chip temperature reached during the burst (°C; ambient if
    /// thermal simulation is disabled).
    pub peak_temp_c: f64,
    /// Epochs during which at least one injected fault was active.
    #[serde(default)]
    pub fault_epochs: usize,
    /// Epochs the controller planned in safe mode (no verified supply
    /// observation: sensor dropout, or a delayed reading not yet arrived).
    #[serde(default)]
    pub safe_mode_epochs: usize,
    /// Epochs with at least one server clamped to Normal by the
    /// commanded-vs-observed actuation watchdog.
    #[serde(default)]
    pub watchdog_clamped_epochs: usize,
    /// Whether goodput stayed at or above the Normal-mode degradation
    /// floor (within measurement tolerance) — the invariant that defines
    /// graceful degradation under faults.
    #[serde(default = "default_floor_held")]
    pub floor_held: bool,
    /// Invariant-auditor violations (energy conservation, SoC bounds,
    /// breaker cap, negative flows). Empty on a healthy run — and when
    /// the auditor is disabled. Absent in pre-auditor serialized records.
    #[serde(default)]
    pub audit_violations: Vec<String>,
    /// Epochs steered by a demoted ladder level (0 with the guardrail
    /// off or never triggered).
    #[serde(default)]
    pub failover_epochs: usize,
    /// Deepest guardrail ladder level reached during the burst.
    #[serde(default)]
    pub ladder_level: usize,
    /// Q-tables quarantined by the guardrail during the burst.
    #[serde(default)]
    pub quarantined_tables: usize,
    /// Human-readable guardrail demotion/promotion/quarantine log.
    #[serde(default)]
    pub guardrail_events: Vec<String>,
    /// Server-epochs spent physically down (crashed or flapping). Zero
    /// without fleet faults.
    #[serde(default)]
    pub dead_server_epochs: usize,
    /// Server-epochs spent alive but goodput-degraded by a straggler
    /// fault.
    #[serde(default)]
    pub straggler_epochs: usize,
    /// Smallest number of load-carrying servers seen in any epoch (the
    /// full rack size on a healthy run; 0 in old serialized records).
    #[serde(default)]
    pub min_live_servers: usize,
    /// Human-readable fleet crash/flap/rejoin log.
    #[serde(default)]
    pub fleet_events: Vec<String>,
    /// Per-epoch records.
    pub epochs: Vec<EpochRecord>,
}

fn default_floor_held() -> bool {
    true
}

/// The burst engine.
#[derive(Debug)]
pub struct Engine {
    cfg: EngineConfig,
}

impl Engine {
    /// Create an engine for a configuration, panicking on an invalid one.
    /// The panic message carries the full [`EngineError`] display so
    /// callers bypassing [`Engine::try_new`] still learn what was wrong.
    pub fn new(cfg: EngineConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("invalid engine configuration: {e}"))
    }

    /// Create an engine for a configuration, reporting what is wrong with
    /// an invalid one instead of panicking — the entry point for callers
    /// handling untrusted input (the CLI, scenario files).
    pub fn try_new(cfg: EngineConfig) -> Result<Self, EngineError> {
        cfg.validate()?;
        Ok(Engine { cfg })
    }

    /// The configuration under test.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Run the experiment: the strategy run plus a Normal-baseline run of
    /// the same burst, returning the normalized outcome.
    pub fn run(self) -> BurstOutcome {
        self.run_with_monitor().0
    }

    /// As [`Engine::run`], reusing a caller-provided [`EngineScratch`]
    /// arena. Purely an allocation optimization: a run begins by
    /// resetting the arena, so the outcome is byte-identical to
    /// [`Engine::run`] whatever the arena previously ran.
    pub fn run_with_scratch(self, scratch: &mut EngineScratch) -> BurstOutcome {
        self.run_full_in(scratch).0
    }

    /// As [`Engine::run`], also returning the Monitor streams of the
    /// strategy run (paper Fig. 5).
    pub fn run_with_monitor(self) -> (BurstOutcome, Monitor) {
        let (outcome, monitor, _) = self.run_full();
        (outcome, monitor)
    }

    /// As [`Engine::run_with_monitor`], additionally returning the Hybrid
    /// learner's post-burst policy (JSON) so the next burst can warm-start
    /// from it — the paper's "we also continue to update the values in
    /// the lookup table" carried across sprints.
    pub fn run_full(self) -> (BurstOutcome, Monitor, Option<String>) {
        let mut scratch = EngineScratch::new();
        self.run_full_in(&mut scratch)
    }

    fn run_full_in(self, scratch: &mut EngineScratch) -> (BurstOutcome, Monitor, Option<String>) {
        let profiles = ProfileTable::cached(self.cfg.app);
        let (main, monitor, policy) = run_once(&self.cfg, self.cfg.strategy, profiles, scratch);
        let baseline = (self.cfg.strategy != Strategy::Normal)
            .then(|| run_once(&self.cfg, Strategy::Normal, profiles, scratch).0);
        (judge(&self.cfg, main, baseline), monitor, policy)
    }

    /// As [`Engine::run_full`], emitting a resumable [`EngineSnapshot`]
    /// at every `every_epochs`-th epoch boundary (0 = never) of both the
    /// strategy run and the Normal-baseline run. A run killed between two
    /// snapshots can be continued from the last one with
    /// [`resume_snapshot`] and finishes with a byte-identical outcome.
    ///
    /// Snapshots capture the full controller state, which the DES
    /// measurement plane cannot serialize — requires
    /// [`MeasurementMode::Analytic`].
    pub fn run_full_with_snapshots(
        self,
        every_epochs: u64,
        sink: &mut dyn FnMut(&EngineSnapshot),
    ) -> Result<(BurstOutcome, Monitor, Option<String>), EngineError> {
        run_burst_snapshotted(&self.cfg, None, every_epochs, sink)
    }
}

/// Apply the Normal-baseline normalization and the graceful-degradation
/// floor judgment to a finished strategy run.
pub(crate) fn judge(
    cfg: &EngineConfig,
    mut outcome: BurstOutcome,
    baseline: Option<BurstOutcome>,
) -> BurstOutcome {
    let normal_mean = match baseline {
        None => outcome.mean_goodput_rps,
        Some(b) => {
            // The baseline run audits too; its violations are just as much
            // a physics regression as the strategy run's.
            outcome
                .audit_violations
                .extend(b.audit_violations.iter().map(|v| format!("baseline: {v}")));
            b.mean_goodput_rps
        }
    };
    outcome.normal_baseline_rps = normal_mean;
    outcome.speedup_vs_normal = if normal_mean > 0.0 {
        outcome.mean_goodput_rps / normal_mean
    } else {
        1.0
    };
    // Graceful-degradation floor: even under faults, the sprint must
    // not end up below a Normal run of the same burst. The tolerance
    // absorbs analytic blend rounding (and, for DES, the different rng
    // streams the strategy and baseline runs consume).
    let floor_tolerance = match cfg.measurement {
        MeasurementMode::Analytic => 0.99,
        MeasurementMode::Des => 0.95,
    };
    outcome.floor_held = outcome.speedup_vs_normal >= floor_tolerance;
    outcome
}

/// Run a burst experiment with snapshotting, or resume one from
/// `resume`: the strategy run, then its Normal baseline. The finished
/// strategy run rides inside every baseline-phase snapshot so a resume
/// from one still has everything.
fn run_burst_snapshotted(
    cfg: &EngineConfig,
    resume: Option<EngineSnapshot>,
    every_epochs: u64,
    sink: &mut dyn FnMut(&EngineSnapshot),
) -> Result<(BurstOutcome, Monitor, Option<String>), EngineError> {
    if cfg.measurement != MeasurementMode::Analytic {
        return Err(EngineError::SnapshotRequiresAnalytic);
    }
    let (carry, mut state) = resumed_phase(resume)?;
    let profiles = ProfileTable::cached(cfg.app);
    let mut scratch = EngineScratch::new();
    let mut snapshot = |phase, main_carry, state| {
        sink(&EngineSnapshot {
            scope: SnapshotScope::Burst(cfg.clone()),
            phase,
            main_carry,
            state,
        });
    };
    let carry = match carry {
        Some(carry) => carry,
        None => {
            let mut hooks = SnapshotSink(|s| snapshot(RunPhase::Strategy, None, s));
            let (outcome, monitor, policy) = run_once_resumable(
                cfg,
                cfg.strategy,
                profiles,
                state.take(),
                every_epochs,
                &mut scratch,
                &mut hooks,
            );
            MainCarry {
                outcome,
                monitor: Some(monitor),
                policy,
            }
        }
    };
    let monitor = carry.monitor.clone().ok_or_else(|| {
        EngineError::SnapshotMismatch(
            "burst snapshot is missing the strategy run's monitor".to_string(),
        )
    })?;
    let baseline = (cfg.strategy != Strategy::Normal).then(|| {
        let mut hooks = SnapshotSink(|s| snapshot(RunPhase::Baseline, Some(carry.clone()), s));
        let resume = state.take();
        run_once_resumable(
            cfg,
            Strategy::Normal,
            profiles,
            resume,
            every_epochs,
            &mut scratch,
            &mut hooks,
        )
        .0
    });
    Ok((judge(cfg, carry.outcome, baseline), monitor, carry.policy))
}

/// Split a snapshot to resume into the finished strategy run it carries
/// (baseline phase only) and the loop state to continue from.
pub(crate) fn resumed_phase(
    resume: Option<EngineSnapshot>,
) -> Result<(Option<MainCarry>, Option<LoopState>), EngineError> {
    let Some(snap) = resume else {
        return Ok((None, None));
    };
    let carry = match snap.phase {
        RunPhase::Strategy => None,
        RunPhase::Baseline => Some(snap.main_carry.ok_or_else(|| {
            EngineError::SnapshotMismatch(
                "baseline-phase snapshot is missing the finished strategy run".to_string(),
            )
        })?),
    };
    Ok((carry, Some(snap.state)))
}

/// The completed result of resuming a snapshot, whichever experiment
/// kind it came from.
// One value exists per resumed process; boxing the bigger variant would
// complicate every caller to save bytes that never multiply.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum ResumedRun {
    /// A resumed single-burst experiment.
    Burst {
        /// The normalized outcome, identical to the uninterrupted run's.
        outcome: BurstOutcome,
        /// The strategy run's Monitor streams.
        monitor: Monitor,
        /// The strategy run's exported policy, if any.
        policy: Option<String>,
    },
    /// A resumed multi-day campaign.
    Campaign(crate::campaign::CampaignOutcome),
}

/// Resume a checkpointed run from its last snapshot, finishing with
/// output byte-identical to the uninterrupted run. Continues emitting
/// snapshots at the same cadence through `sink`.
///
/// Refuses a loop state that does not fit its configuration; the
/// snapshot's schema and fingerprint were checked when it was decoded.
pub fn resume_snapshot(
    snap: EngineSnapshot,
    every_epochs: u64,
    sink: &mut dyn FnMut(&EngineSnapshot),
) -> Result<ResumedRun, EngineError> {
    let engine_cfg = match &snap.scope {
        SnapshotScope::Burst(cfg) => cfg,
        SnapshotScope::Campaign(ccfg) => &ccfg.engine,
    };
    snap.state.check_restorable(engine_cfg)?;
    match snap.scope.clone() {
        SnapshotScope::Burst(cfg) => {
            cfg.validate()?;
            let (outcome, monitor, policy) =
                run_burst_snapshotted(&cfg, Some(snap), every_epochs, sink)?;
            Ok(ResumedRun::Burst {
                outcome,
                monitor,
                policy,
            })
        }
        SnapshotScope::Campaign(ccfg) => {
            crate::campaign::resume_campaign_snapshot(&ccfg, snap, every_epochs, sink)
                .map(ResumedRun::Campaign)
        }
    }
}

/// A simulation window: when it runs, which sky it sees, and the offered
/// load at every instant. Single bursts and long campaigns share the same
/// epoch loop through this.
pub(crate) struct RunWindow<'a> {
    /// Offered per-server load (req/s) at a given time.
    pub offered_rps: &'a dyn Fn(SimTime) -> f64,
    /// Normalized irradiance trace.
    pub trace: &'a SolarTrace,
    /// Window start.
    pub start: SimTime,
    /// Window length (must be a multiple of the epoch).
    pub duration: SimDuration,
}

/// Execute one burst under one strategy.
pub(crate) fn run_once(
    cfg: &EngineConfig,
    strategy: Strategy,
    profiles: &ProfileTable,
    scratch: &mut EngineScratch,
) -> (BurstOutcome, Monitor, Option<String>) {
    run_once_resumable(cfg, strategy, profiles, None, 0, scratch, &mut NoHooks)
}

/// As [`run_once`], optionally restarting from a captured [`LoopState`]
/// and handing `hooks` a fresh capture every `snapshot_every` epochs.
pub(crate) fn run_once_resumable(
    cfg: &EngineConfig,
    strategy: Strategy,
    profiles: &ProfileTable,
    resume: Option<LoopState>,
    snapshot_every: u64,
    scratch: &mut EngineScratch,
    hooks: &mut dyn EpochHooks,
) -> (BurstOutcome, Monitor, Option<String>) {
    let app = cfg.app.profile();
    let trace: SolarTrace = cfg
        .trace_override
        .clone()
        .unwrap_or_else(|| cfg.availability.trace(cfg.seed));
    let start = SimTime::from_secs_f64(cfg.burst_start_hour * 3_600.0);
    let end = start + cfg.burst_duration;
    let burst = BurstPattern::intensity(&app, cfg.burst_intensity_cores, start, end);
    let window = RunWindow {
        offered_rps: &|t| burst.offered_rps(t),
        trace: &trace,
        start,
        duration: cfg.burst_duration,
    };
    run_window_resumable(
        cfg,
        strategy,
        profiles,
        &window,
        resume,
        snapshot_every,
        scratch,
        hooks,
    )
}

/// The scheduling-epoch loop over an arbitrary window.
pub(crate) fn run_window(
    cfg: &EngineConfig,
    strategy: Strategy,
    profiles: &ProfileTable,
    window: &RunWindow<'_>,
    scratch: &mut EngineScratch,
) -> (BurstOutcome, Monitor) {
    let (outcome, monitor, _) = run_window_resumable(
        cfg,
        strategy,
        profiles,
        window,
        None,
        0,
        scratch,
        &mut NoHooks,
    );
    (outcome, monitor)
}

/// What an external driver injects into one epoch, decided before the
/// epoch executes. The default directive is a strict no-op: every field
/// leaves the loop's own arithmetic untouched, so a driver that returns
/// `TickDirective::default()` forever reproduces a batch run bit-for-bit.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct TickDirective {
    /// Replace the trace-derived renewable AC supply with a live reading
    /// (watts, clamped non-negative; plan-driven supply faults still
    /// scale it — a live feed does not bypass the physical fault layer).
    pub supply_w: Option<f64>,
    /// Declare the telemetry feed stale for this epoch: the controller
    /// sees no fresh supply observation and the PSS routes into safe
    /// mode, exactly as under a sensor-dropout fault.
    pub telemetry_stale: bool,
    /// Force one rung of failover-ladder demotion before this epoch
    /// plans (serve's `--overrun degrade` policy). Ignored when the
    /// guardrail is off or already at the Normal floor.
    pub demote: Option<String>,
    /// Scale the window's nominal offered load by this factor for the
    /// epoch (clamped non-negative). The datacenter broker's routing
    /// seam: `Some(0.0)` drains a rack, `Some(2.0)` doubles its share.
    /// `None` leaves the nominal stream untouched.
    pub load_factor: Option<f64>,
}

/// Driver hooks for the epoch loop: the seam `greensprint serve` uses to
/// run the *identical* control path against a tick clock, and the loop's
/// one snapshot sink. Plain batch runs pass [`NoHooks`] and snapshotting
/// batch runs [`SnapshotSink`]; their defaults make every hook invisible —
/// the golden-output suite pins that equivalence.
pub(crate) trait EpochHooks {
    /// Called at the top of epoch `k` (sim time `t`), before anything of
    /// the epoch has executed. The returned directive shapes this epoch.
    fn before_epoch(&mut self, _k: u64, _t: SimTime) -> TickDirective {
        TickDirective::default()
    }
    /// Called after epoch `k` fully settled, with its record and the
    /// fleet's applied per-server settings. Return `false` to stop at
    /// this boundary (graceful drain): the loop captures a final
    /// [`LoopState`], hands it to [`EpochHooks::on_snapshot`], and
    /// returns the partial outcome.
    fn after_epoch(&mut self, _k: u64, _rec: &EpochRecord, _settings: &[ServerSetting]) -> bool {
        true
    }
    /// Called with every captured [`LoopState`]: the periodic boundary
    /// captures and the final drain capture.
    fn on_snapshot(&mut self, _state: LoopState) {}
}

/// The batch driver: every hook is a no-op and every directive a
/// default, so the loop behaves exactly as it did before hooks existed.
pub(crate) struct NoHooks;

impl EpochHooks for NoHooks {}

/// The snapshotting batch driver: [`NoHooks`], except that every capture
/// goes to the wrapped closure.
pub(crate) struct SnapshotSink<F>(pub F);

impl<F: FnMut(LoopState)> EpochHooks for SnapshotSink<F> {
    fn on_snapshot(&mut self, state: LoopState) {
        (self.0)(state);
    }
}

/// The resumable scheduling-epoch loop: continues from `resume` when
/// given, and hands `hooks` a capture of the loop's state at each
/// `snapshot_every`-th epoch boundary.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_window_resumable(
    cfg: &EngineConfig,
    strategy: Strategy,
    profiles: &ProfileTable,
    window: &RunWindow<'_>,
    resume: Option<LoopState>,
    snapshot_every: u64,
    scratch: &mut EngineScratch,
    hooks: &mut dyn EpochHooks,
) -> (BurstOutcome, Monitor, Option<String>) {
    let mut run = EpochLoop::new(cfg, strategy, profiles, window, scratch);
    if let Some(state) = resume {
        run.restore(state);
    }
    run.run(snapshot_every, hooks)
}

/// A controller for `strategy` with the run's switching hysteresis.
fn strategy_pmk(cfg: &EngineConfig, profiles: &ProfileTable, strategy: Strategy) -> Pmk {
    let mut p = Pmk::new(strategy, profiles);
    p.hysteresis = cfg.switch_hysteresis;
    p
}

/// The hosted application with its analytic measurement plane.
struct Plant<'a> {
    app: AppProfile,
    profiles: &'a ProfileTable,
    cache: &'a mut AnalyticCache,
}

impl Plant<'_> {
    /// The analytic measurement of `setting` at `rps`, through the run
    /// cache.
    fn perf(&mut self, setting: ServerSetting, rps: f64) -> EpochPerf {
        let (app, profiles) = (&self.app, self.profiles);
        self.cache
            .entry((setting, rps.to_bits()))
            .or_insert_with(|| measure_analytic(app, profiles, setting, rps))
            .clone()
    }
}

/// Algorithm 1's reward inputs for a server that drew `power_w` of its
/// `supply_w` and performed as `perf`.
fn reward_inputs(app: &AppProfile, supply_w: f64, power_w: f64, perf: &EpochPerf) -> RewardInputs {
    RewardInputs {
        power_supply_w: supply_w,
        power_current_w: power_w,
        qos_target_s: app.slo_deadline_s,
        qos_current_s: perf.slo_percentile_latency_s,
        offered_slo_fraction: if perf.offered_rps > 0.0 {
            perf.goodput_rps / perf.offered_rps
        } else {
            1.0
        },
        slo_percentile: app.slo_percentile,
    }
}

/// The loop's state before epoch 0, plus the per-server DES simulators.
fn fresh_state(
    cfg: &EngineConfig,
    strategy: Strategy,
    pv: &PvArray,
) -> (LoopState, Vec<ServerSim>) {
    let n = cfg.green.green_servers;
    let mut rng = SimRng::seed_from_u64(cfg.seed ^ strategy_salt(strategy));
    // Forking the per-server DES streams is part of the pinned master rng
    // sequence whether or not the run is analytic; only DES mode pays to
    // materialize the simulators themselves.
    let sims: Vec<ServerSim> = match cfg.measurement {
        MeasurementMode::Des => (0..n).map(|_| ServerSim::new(rng.fork())).collect(),
        MeasurementMode::Analytic => {
            for _ in 0..n {
                let _ = rng.fork();
            }
            Vec::new()
        }
    };
    // Thermal packages, pre-warmed at Normal-mode load so the burst does
    // not start from a cold heatsink.
    let mut thermals: Vec<ThermalPackage> = match cfg.thermal {
        ThermalModel::Disabled => Vec::new(),
        ThermalModel::PaperPcm => (0..n).map(|_| ThermalPackage::paper_spec()).collect(),
        ThermalModel::NoPcm => (0..n).map(|_| ThermalPackage::without_pcm()).collect(),
    };
    for pkg in &mut thermals {
        pkg.advance(100.0, SimDuration::from_hours(2));
    }
    let state = LoopState {
        next_epoch: 0,
        rng,
        batteries: (0..n)
            .map(|_| cfg.green.battery_spec().map(Battery::new_full))
            .collect(),
        grid_recharging: vec![false; n],
        in_burst_grid_recharge_wh: 0.0,
        predictor: Predictor::new(),
        cs_predictor: ClearSkyIndexedPredictor::new(pv.peak_ac_watts()),
        // Owned live by the Pmk; filled in on capture.
        learner: None,
        pending_q: None,
        prev_settings: vec![ServerSetting::normal(); n],
        setting_transitions: 0,
        fade_done: cfg
            .fault_plan
            .as_ref()
            .map_or_else(Vec::new, |p| vec![false; p.events.len()]),
        watchdog: ActuationWatchdog::with_threshold(n, cfg.watchdog_threshold),
        safe_supply: SafeSupplyEstimator::new(),
        last_raw_obs_w: None,
        fault_epochs: 0,
        safe_mode_epochs: 0,
        watchdog_clamped_epochs: 0,
        meter: PowerMeter::new(),
        monitor: Monitor::new(),
        epochs: Vec::new(),
        goodput_sum: 0.0,
        offered_sum: 0.0,
        re_sum_w: 0.0,
        peak_temp_c: thermals.first().map_or(0.0, |p| p.temp_c()),
        thermals,
        thermal_throttle_epochs: 0,
        // Owned live by the InvariantAuditor; filled in on capture.
        audit_violations: Vec::new(),
        audited_grid_wh: 0.0,
        audited_curtailed_wh: 0.0,
        // Owned live by the Guardrail; filled in on capture.
        guardrail: None,
        down_left: vec![0; n],
        // A full fleet starts with every streak at the rejoin threshold:
        // every server is trusted with load from epoch 0.
        health_streak: vec![REJOIN_EPOCHS; n],
        dead_server_epochs: 0,
        straggler_epochs: 0,
        min_live_servers: n,
        fleet_events: Vec::new(),
    };
    (state, sims)
}

/// One run of the epoch loop: the run's fixed inputs, its controllers,
/// the per-epoch scratch arrays, and the live [`LoopState`] that the
/// stage methods mutate in place.
struct EpochLoop<'a> {
    cfg: &'a EngineConfig,
    profiles: &'a ProfileTable,
    window: &'a RunWindow<'a>,
    plant: Plant<'a>,
    power_model: PowerModel,
    pv: PvArray,
    n: usize,
    epoch_hours: f64,
    /// The auditor's breaker cap: every server at Normal mode full-tilt
    /// plus every charger at its C-rate limit. Fades only ever lower the
    /// real draw below the cap computed from the fresh specs.
    grid_cap_w: f64,
    /// The configured strategy's controller; Hybrid's learner lives here.
    pmk: Pmk,
    /// The guardrail's fallback, scored every epoch in shadow.
    shadow_pmk: Option<Pmk>,
    /// The demoted rung's controller, steering instead of `pmk` while the
    /// ladder level is above 0. Rebuilt from the guardrail level rather
    /// than persisted: every rung below the top is learner-free, so the
    /// strategy name is its entire state.
    fallback_pmk: Option<Pmk>,
    /// Policy guardrail: shadow-score a certified fallback each epoch and
    /// demote down the failover ladder when the active policy misbehaves.
    /// Normal has no ladder, so the baseline run is never supervised.
    guard: Option<Guardrail>,
    auditor: Option<InvariantAuditor>,
    /// Per-server request-level simulators (DES measurement only).
    sims: Vec<ServerSim>,
    fleet: &'a mut FleetState,
    st: LoopState,
}

/// What one epoch's stages hand to the stages after them. Each field is
/// written by one stage and starts at its default until then.
#[derive(Default)]
struct Epoch {
    k: u64,
    t: SimTime,
    /// Planning lookahead: within a single burst the time to the burst's
    /// end; campaigns cap it at an hour (the controller cannot know a day
    /// ahead when load will subside).
    remaining: SimDuration,
    dir: TickDirective,
    faults: ActiveFaults,
    /// Renewable power the bus physically delivers (W).
    re_actual_w: f64,
    live_count: usize,
    /// `live_count`, at least 1: the fleet the plan divides supply over.
    plan_n: usize,
    /// The representative server for reward scoring.
    rep: Option<usize>,
    /// This epoch's supply reading, before any telemetry delay.
    fresh_obs_w: Option<f64>,
    /// The supply reading the controller sees; `None` is safe mode.
    obs_w: Option<f64>,
    re_believed_w: f64,
    offered: f64,
    re_pred_w: f64,
    load_pred: f64,
    waterfall: bool,
    use_instant: bool,
    /// Hybrid's state at decision time, for the Bellman update.
    q_state: Option<QState>,
    /// Per-server load after redistribution onto the live servers.
    served_rps: f64,
    re_used_w: f64,
    battery_w: f64,
    charged_w: f64,
    /// Source-side energy delivered into servers, kept independently of
    /// the meters so the auditor can balance the books against it (Wh).
    settled_server_wh: f64,
    dead_server_wh: f64,
    epoch_grid_recharge_wh: f64,
    goodput: f64,
    soc: f64,
    steering_level: usize,
}

impl<'a> EpochLoop<'a> {
    fn new(
        cfg: &'a EngineConfig,
        strategy: Strategy,
        profiles: &'a ProfileTable,
        window: &'a RunWindow<'a>,
        scratch: &'a mut EngineScratch,
    ) -> Self {
        let n = cfg.green.green_servers;
        scratch.begin_run(n);
        let pv = cfg.green.pv_array();
        let (st, sims) = fresh_state(cfg, strategy, &pv);
        let mut pmk = strategy_pmk(cfg, profiles, strategy);
        if let (Some(json), Some(learner)) = (&cfg.warm_policy_json, pmk.learner_mut()) {
            match crate::qlearning::QLearner::from_json(json) {
                Ok(warm) => *learner = warm,
                Err(e) => panic!("invalid warm_policy_json: {e}"),
            }
        }
        let guard = if cfg.guardrail.enabled {
            Guardrail::new(cfg.guardrail.clone(), strategy)
        } else {
            None
        };
        let shadow_pmk = guard
            .as_ref()
            .map(|_| strategy_pmk(cfg, profiles, cfg.guardrail.fallback));
        let app = cfg.app.profile();
        let power_model = app.power_model();
        let grid_cap_w = n as f64 * power_model.power_w(ServerSetting::normal(), 1.0)
            + st.batteries
                .iter()
                .flatten()
                .map(|b| b.spec().max_charge_power_w())
                .sum::<f64>();
        EpochLoop {
            cfg,
            profiles,
            window,
            plant: Plant {
                app,
                profiles,
                cache: &mut scratch.analytic_cache,
            },
            power_model,
            pv,
            n,
            epoch_hours: cfg.epoch.as_hours_f64(),
            grid_cap_w,
            pmk,
            shadow_pmk,
            fallback_pmk: None,
            guard,
            auditor: cfg.audit.then(InvariantAuditor::new),
            sims,
            fleet: &mut scratch.fleet,
            st,
        }
    }

    /// Continue from a captured state: the fields the controllers own
    /// live move into them, and the rest becomes the loop's state. The
    /// DES `sims` stay fresh (snapshots are gated to analytic
    /// measurement) and the analytic cache re-derives itself on demand.
    fn restore(&mut self, mut state: LoopState) {
        if let (Some(saved), Some(learner)) = (state.learner.take(), self.pmk.learner_mut()) {
            *learner = saved;
        }
        if let (Some(saved), Some(g)) = (state.guardrail.take(), self.guard.as_mut()) {
            *g = Guardrail::restore(self.cfg.guardrail.clone(), saved);
            if g.level() > 0 {
                self.fallback_pmk =
                    Some(strategy_pmk(self.cfg, self.profiles, g.active_strategy()));
            }
        }
        let violations = std::mem::take(&mut state.audit_violations);
        if let Some(aud) = self.auditor.as_mut() {
            *aud = InvariantAuditor::with_violations(violations);
        }
        self.st = state;
    }

    /// The loop's state as a snapshot: a clone, with the fields the
    /// controllers own live filled in from them.
    fn capture(&mut self) -> LoopState {
        let mut state = self.st.clone();
        state.learner = self.pmk.learner_mut().cloned();
        state.guardrail = self.guard.as_ref().map(|g| g.state().clone());
        state.audit_violations = self
            .auditor
            .as_ref()
            .map_or_else(Vec::new, |a| a.violations().to_vec());
        state
    }

    /// Run the window's remaining epochs, one stage at a time, and
    /// assemble the outcome.
    fn run(
        mut self,
        snapshot_every: u64,
        hooks: &mut dyn EpochHooks,
    ) -> (BurstOutcome, Monitor, Option<String>) {
        let start_k = self.st.next_epoch;
        let n_epochs = self.window.duration.div_duration(self.cfg.epoch);
        let n_epochs = n_epochs.expect("validated in Engine::new");
        // Pre-size the per-epoch append targets (capacity only — none of
        // it is serialized) so the loop never reallocates them.
        let epochs_left = n_epochs.saturating_sub(start_k) as usize;
        self.st.epochs.reserve(epochs_left);
        self.st.monitor.reserve_epochs(self.n, epochs_left);
        while self.st.next_epoch < n_epochs {
            let k = self.st.next_epoch;
            // Capture at the epoch boundary: nothing of epoch k has
            // happened yet, so a resume from this state replays epoch k
            // first. The resume boundary itself is not re-captured.
            if snapshot_every > 0 && k > start_k && k.is_multiple_of(snapshot_every) {
                hooks.on_snapshot(self.capture());
            }
            let t = self.window.start + SimDuration::from_micros(self.cfg.epoch.as_micros() * k);
            // The driver's per-tick directive: live supply override,
            // declared telemetry staleness, or a forced degrade. Batch
            // runs always get the default no-op directive.
            let mut ep = self.faults_and_liveness(k, t, hooks.before_epoch(k, t));
            self.telemetry_and_prediction(&mut ep);
            self.battery_budgets(&ep);
            let case = self.decide_and_replan(&mut ep);
            self.actuate(&ep);
            self.measure(&mut ep);
            self.settle(&mut ep);
            self.recharge(&mut ep);
            self.audit(&ep);
            self.thermal_advance(&ep);
            self.observe(&mut ep);
            self.learn_and_supervise(&mut ep);
            self.record(&ep, case);
            self.st.next_epoch = k + 1;
            let rec = self.st.epochs.last().expect("just recorded");
            if !hooks.after_epoch(k, rec, &self.fleet.settings) {
                // Graceful drain: the driver asked to stop at this
                // boundary. The capture is exactly what the periodic one
                // of epoch k+1 would be, so a restart resumes with the
                // next unexecuted epoch and zero warmup.
                hooks.on_snapshot(self.capture());
                break;
            }
        }
        self.finish()
    }

    /// Stage 1 (Monitor, physical side): apply a driver-forced demotion,
    /// replay the fault plan, and settle which servers are up and which
    /// carry load.
    fn faults_and_liveness(&mut self, k: u64, t: SimTime, dir: TickDirective) -> Epoch {
        let cfg = self.cfg;
        self.fleet.begin_epoch();
        if let (Some(reason), Some(g)) = (&dir.demote, self.guard.as_mut()) {
            if g.force_demote(k, reason) {
                self.fallback_pmk = Some(strategy_pmk(cfg, self.profiles, g.active_strategy()));
                // The learner is not suspect (the trigger was a deadline
                // overrun, not corruption), so it is benched rather than
                // quarantined — but a Bellman update graded on an epoch
                // the fallback steered would be bogus, so the pending
                // update is dropped.
                self.st.pending_q = None;
            }
        }
        let window_end = self.window.start + self.window.duration;
        let remaining = (window_end - t).min(SimDuration::from_mins(60));
        let faults = cfg
            .fault_plan
            .as_ref()
            .map_or_else(ActiveFaults::default, |p| p.active_during(t, t + cfg.epoch));
        if faults.any() {
            self.st.fault_epochs += 1;
        }
        // Supply faults are physical: the inverter/breaker shapes what the
        // bus actually delivers, before any sensor sees it. A live-feed
        // directive replaces the trace-derived input, not the fault layer.
        let supply_w = dir.supply_w.map_or_else(
            || {
                self.pv
                    .ac_output(self.window.trace.window_mean(t, t + cfg.epoch))
            },
            |w| w.max(0.0),
        );
        let re_actual_w = supply_w * faults.supply_factor;
        // The plan's one-shot events each apply exactly once, when they
        // first overlap an epoch. Battery fade is permanent.
        let st = &mut self.st;
        for &(idx, factor) in &faults.fades {
            if !st.fade_done[idx] {
                st.fade_done[idx] = true;
                for b in st.batteries.iter_mut().flatten() {
                    b.fade_capacity(factor);
                }
            }
        }
        // Q-table poisoning is software corruption: it hits whichever
        // policy is steering. While a learner-free ladder level steers
        // there is nothing to poison and the event is spent.
        for &(idx, magnitude) in &faults.poisons {
            if !st.fade_done[idx] {
                st.fade_done[idx] = true;
                let steering = self.fallback_pmk.as_mut().unwrap_or(&mut self.pmk);
                if let Some(l) = steering.learner_mut() {
                    l.poison(magnitude);
                }
            }
        }
        // A crash charges its outage onto the server's countdown.
        for &(idx, server, crash_epochs) in &faults.crashes {
            let i = usize::from(server);
            if i < self.n && !st.fade_done[idx] {
                st.fade_done[idx] = true;
                st.down_left[i] = st.down_left[i].max(crash_epochs);
                st.fleet_events.push(format!(
                    "epoch {k}: server {i} crashed for {crash_epochs} epoch(s)"
                ));
            }
        }
        self.update_liveness(k, t, &faults);
        let fleet = &*self.fleet;
        let live_count = fleet.live.iter().filter(|&&l| l).count();
        self.st.min_live_servers = self.st.min_live_servers.min(live_count);
        let first_up = || fleet.up.iter().position(|&u| u);
        let rep = fleet.live.iter().position(|&l| l).or_else(first_up);
        Epoch {
            k,
            t,
            remaining,
            dir,
            faults,
            re_actual_w,
            live_count,
            // Plan against the believed live capacity.
            plan_n: live_count.max(1),
            rep,
            ..Epoch::default()
        }
    }

    /// Fleet liveness. A crashed server counts its outage down; a flap
    /// takes the server down on alternating epochs of its window; either
    /// way the server's health streak resets, and it only regains load
    /// after `REJOIN_EPOCHS` consecutive healthy epochs.
    fn update_liveness(&mut self, k: u64, t: SimTime, faults: &ActiveFaults) {
        let (st, fleet) = (&mut self.st, &mut *self.fleet);
        for i in 0..self.n {
            fleet.up[i] = st.down_left[i] == 0 && !faults.flap_down(i, t, self.cfg.epoch);
        }
        for i in 0..self.n {
            if fleet.up[i] {
                if st.health_streak[i] + 1 == REJOIN_EPOCHS {
                    st.fleet_events
                        .push(format!("epoch {k}: server {i} rejoined the plan"));
                }
                st.health_streak[i] = (st.health_streak[i] + 1).min(REJOIN_EPOCHS);
            } else {
                if st.health_streak[i] > 0 {
                    st.fleet_events
                        .push(format!("epoch {k}: server {i} went down"));
                }
                st.health_streak[i] = 0;
                st.dead_server_epochs += 1;
                // A dead server's control state is gone with it: the
                // watchdog forgets its streaks and the hysteresis
                // incumbent resets to Normal (it reboots into Normal).
                st.watchdog.reset(i);
                st.prev_settings[i] = ServerSetting::normal();
                if st.down_left[i] > 0 {
                    st.down_left[i] -= 1;
                }
            }
        }
        // `live` servers carry load and are sprint-planned; `up` servers
        // that have not yet served their rejoin probation idle at Normal.
        for i in 0..self.n {
            fleet.live[i] = fleet.up[i] && st.health_streak[i] >= REJOIN_EPOCHS;
        }
    }

    /// Stage 2 (Monitor → Predictor): what the controller believes about
    /// supply and load, and its forecasts for the epoch.
    fn telemetry_and_prediction(&mut self, ep: &mut Epoch) {
        let st = &mut self.st;
        // Telemetry faults shape what the controller *believes*: a dropout
        // yields no reading at all; a delay serves last epoch's raw
        // reading; meter bias scales whatever the sensor outputs. A
        // driver-declared stale feed is indistinguishable from a dropout.
        ep.fresh_obs_w = (!ep.faults.sensor_dropout && !ep.dir.telemetry_stale)
            .then_some(ep.re_actual_w * ep.faults.meter_factor);
        ep.obs_w = if ep.faults.telemetry_delay {
            st.last_raw_obs_w
        } else {
            ep.fresh_obs_w
        };
        ep.re_believed_w = match ep.obs_w {
            Some(w) => {
                st.safe_supply.observe_good(w);
                w
            }
            None => {
                // Safe mode: never plan against unverified supply — assume
                // the worst recent verified observation, decayed.
                st.safe_supply.mark_stale();
                st.predictor.mark_re_stale();
                st.safe_mode_epochs += 1;
                st.safe_supply.planning_supply_w()
            }
        };
        // The broker's routing seam: a driver-supplied load factor scales
        // the nominal offered stream (None — every batch path — is exactly
        // the nominal stream, so routing-free runs stay byte-identical).
        let route_factor = ep.dir.load_factor.map(|f| f.max(0.0));
        ep.offered = (self.window.offered_rps)(ep.t) * route_factor.unwrap_or(1.0);
        if let Some(f) = route_factor {
            st.monitor.record_route(ep.t, f);
        }
        // Predictions (fall back to the live observation on the first
        // epoch — the Monitor publishes it either way). In safe mode every
        // prediction is capped by the safe-mode supply estimate.
        let in_safe_mode = ep.obs_w.is_none();
        let believed = ep.re_believed_w;
        ep.re_pred_w = match self.cfg.predictor {
            PredictorKind::PaperEwma => {
                if in_safe_mode {
                    st.predictor.re_supply_conservative(believed).min(believed)
                } else {
                    st.predictor.re_supply_w(believed)
                }
            }
            PredictorKind::ClearSkyIndexed => {
                let p = if ep.k == 0 {
                    believed
                } else {
                    st.cs_predictor.predict_w(ep.t)
                };
                if in_safe_mode {
                    p.min(believed)
                } else {
                    p
                }
            }
        };
        ep.load_pred = st.predictor.workload_rps(ep.offered);
    }

    /// Stage 3 (PSS, battery side): what every battery can sustain over
    /// this epoch, the planning horizon, and the remaining burst.
    fn battery_budgets(&mut self, ep: &Epoch) {
        let epoch = self.cfg.epoch;
        let horizon = ep.remaining.min(self.cfg.planning_horizon).max(epoch);
        let (batteries, fleet) = (&self.st.batteries, &mut *self.fleet);
        for (slot, b) in fleet.instant_w.iter_mut().zip(batteries) {
            *slot = b.as_ref().map_or(0.0, |b| {
                sustainable_power_memo(&mut fleet.budget_memo[0], b, epoch)
            });
        }
        for (slot, b) in fleet.sustained_horizon_w.iter_mut().zip(batteries) {
            *slot = b.as_ref().map_or(0.0, |b| {
                sustainable_power_memo(&mut fleet.budget_memo[1], b, horizon)
            });
        }
        for (slot, b) in fleet.sustained_remaining_w.iter_mut().zip(batteries) {
            *slot = b.as_ref().map_or(0.0, |b| {
                sustainable_power_memo(&mut fleet.budget_memo[2], b, ep.remaining.max(epoch))
            });
        }
        // SoC misreport scales the *controller's view* of every battery
        // budget; the physical packs (and settlement) are untouched.
        if ep.faults.soc_report_factor != 1.0 {
            for v in fleet
                .instant_w
                .iter_mut()
                .chain(fleet.sustained_horizon_w.iter_mut())
                .chain(fleet.sustained_remaining_w.iter_mut())
            {
                *v *= ep.faults.soc_report_factor;
            }
        }
    }

    /// Stage 4 (PMK + PSS): choose every server's setting, then check the
    /// rack-level plan against the *observed* renewable supply
    /// (identical to the physical supply while telemetry is clean; the
    /// safe-mode estimate when it is not). The PSS "performs switch
    /// tuning based on the discrepancy between the workload power demand
    /// and the green power supply" (paper §II): when the prediction
    /// overshot, the PMK re-plans against the power the sensors can vouch
    /// for before the epoch commits.
    fn decide_and_replan(&mut self, ep: &mut Epoch) -> SupplyCase {
        // A demoted ladder level plans as the strategy actually steering.
        let steering = self.guard.as_ref().map(Guardrail::active_strategy);
        let planning = matches!(
            steering.unwrap_or(self.pmk.strategy()),
            Strategy::Parallel | Strategy::Pacing | Strategy::Hybrid
        );
        self.st.re_sum_w += ep.re_believed_w;
        let re_mean_w = self.st.re_sum_w / (ep.k + 1) as f64;
        let max_sprint = ServerSetting::max_sprint();
        let full_sprint_w = self.profiles.planned_power_w(max_sprint, ep.load_pred);
        // Capacity re-plan: the deficit and the sustainability test are
        // taken over the *live* fleet — dead servers neither claim supply
        // nor owe battery coverage. `plan_n == n` on a healthy fleet, so
        // the arithmetic (and its float bits) is unchanged there.
        let deficit_share = (full_sprint_w - re_mean_w / ep.plan_n as f64).max(0.0);
        let fleet = &*self.fleet;
        let uniform_sustainable = deficit_share <= 1e-9
            || (0..self.n)
                .all(|i| !fleet.live[i] || fleet.sustained_remaining_w[i] >= deficit_share);
        ep.waterfall = planning && !uniform_sustainable;
        // When the whole remaining burst is energetically covered, sprint
        // freely (instantaneous battery budget); otherwise hedge with the
        // planning-horizon sustainable power.
        ep.use_instant = planning && uniform_sustainable;
        ep.q_state = self.decide(ep, ep.re_pred_w);
        let batt_accept: f64 = self
            .st
            .batteries
            .iter()
            .map(|b| {
                b.as_ref().map_or(0.0, |b| {
                    if b.is_full() {
                        0.0
                    } else {
                        b.spec().max_charge_power_w()
                    }
                })
            })
            .sum();
        let mut plan = self.pss_plan(ep, batt_accept);
        if plan.unmet_w > 1.0 {
            ep.q_state = self.decide(ep, ep.re_believed_w);
            plan = self.pss_plan(ep, batt_accept);
            if plan.unmet_w > 1.0 {
                // Genuine power emergency: finish sprinting (paper §III-B).
                for s in &mut self.fleet.settings {
                    *s = ServerSetting::normal();
                }
            }
        }
        plan.case
    }

    /// The PMK decision per green server against `re_plan_w` of renewable
    /// supply, approximating the paper's per-server optimization
    /// (Eq. 2–3):
    ///
    /// * If every battery can cover its share of the full-sprint deficit
    ///   for the *whole remaining burst*, the optimum is the uniform one —
    ///   everyone sprints, renewable split evenly, batteries topping up.
    /// * Otherwise scarce green power is allocated *waterfall*-style:
    ///   earlier servers claim what they need and later ones plan with
    ///   the remainder, concentrating supply on a subset of full-sprint
    ///   servers instead of spreading it below the idle floor.
    ///
    /// Greedy is uniform by definition ("simply activate all cores") and
    /// always splits the supply evenly. Returns Hybrid's state for the
    /// representative server.
    fn decide(&mut self, ep: &Epoch, re_plan_w: f64) -> Option<QState> {
        let (st, fleet, profiles) = (&mut self.st, &mut *self.fleet, self.profiles);
        let pmk = self.fallback_pmk.as_mut().unwrap_or(&mut self.pmk);
        // An rng-free PMK decides as a pure function of (renewable share,
        // battery budgets, hysteresis incumbent) — everything else,
        // Hybrid's Q-table included, is constant across both passes of an
        // epoch — so one memo entry serves every server presenting the
        // same inputs. Hybrid with ε > 0 draws from the rng inside
        // `choose`, so it is never memoized.
        let memoize = pmk.is_rng_free();
        let mut q_state = None;
        let mut re_unclaimed = re_plan_w;
        for i in 0..self.n {
            if !fleet.live[i] {
                // Dead and rejoin-probation servers take no part in sprint
                // planning — and consume no decision randomness, so
                // liveness alone steers the stream.
                fleet.settings[i] = ServerSetting::normal();
                continue;
            }
            let re_share = if ep.waterfall {
                re_unclaimed
            } else {
                re_plan_w / ep.plan_n as f64
            };
            let sustained = if ep.use_instant {
                fleet.instant_w[i]
            } else {
                fleet.sustained_horizon_w[i]
            };
            if Some(i) == ep.rep {
                if let Some(learner) = pmk.learner_mut() {
                    // Same bits as `PmkContext::instant_budget_w`.
                    q_state = Some(learner.state(re_share + fleet.instant_w[i], ep.load_pred));
                }
            }
            let key = (
                re_share.to_bits(),
                fleet.instant_w[i].to_bits(),
                sustained.to_bits(),
                st.prev_settings[i],
            );
            let memo_hit = if memoize {
                fleet.decision_memo.get(key)
            } else {
                None
            };
            let s = match memo_hit {
                Some(s) => s,
                None => {
                    let ctx = PmkContext {
                        predicted_load_rps: ep.load_pred,
                        re_share_w: re_share,
                        battery_instant_w: fleet.instant_w[i],
                        battery_sustained_w: sustained,
                    };
                    let s = pmk.choose(profiles, &ctx, &mut st.rng);
                    let s = pmk.apply_hysteresis(profiles, &ctx, st.prev_settings[i], s);
                    if memoize {
                        fleet.decision_memo.insert(key, s);
                    }
                    s
                }
            };
            if ep.waterfall && s.is_sprinting() {
                re_unclaimed = (re_unclaimed - profiles.planned_power_w(s, ep.load_pred)).max(0.0);
            }
            fleet.settings[i] = s;
        }
        q_state
    }

    /// The PSS allocation of the current settings' sprint demand against
    /// the observed supply and the sprinters' one-epoch battery budgets.
    fn pss_plan(&self, ep: &Epoch, batt_accept: f64) -> SupplyPlan {
        let fleet = &*self.fleet;
        let sprinting = || (0..self.n).filter(|&i| fleet.settings[i].is_sprinting());
        PowerSourceSelector::new().plan(
            sprinting()
                .map(|i| {
                    self.profiles
                        .planned_power_w(fleet.settings[i], ep.load_pred)
                })
                .sum(),
            ep.re_believed_w,
            sprinting().map(|i| fleet.instant_w[i]).sum(),
            batt_accept,
            0.0,
        )
    }

    /// Stage 5: what the control plane *applies* can differ from what the
    /// PMK commanded. Servers the watchdog has clamped are commanded
    /// Normal (the only setting needing no actuation); lost commands and
    /// stuck servers keep their previous setting; a core-activation
    /// failure caps how many cores can come up (deactivation always works
    /// and Normal's cores are already active, so the effective cap never
    /// drops below Normal). Then the thermal guard.
    fn actuate(&mut self, ep: &Epoch) {
        let (st, fleet, faults) = (&mut self.st, &mut *self.fleet, &ep.faults);
        for i in 0..self.n {
            fleet.commanded[i] = if st.watchdog.is_clamped(i) {
                ServerSetting::normal()
            } else {
                fleet.settings[i]
            };
        }
        if st.watchdog.clamped_count() > 0 {
            st.watchdog_clamped_epochs += 1;
        }
        for i in 0..self.n {
            if !fleet.up[i] {
                // A dead server applies nothing and the watchdog stays
                // quiet (it was reset on the down transition); it reboots
                // into Normal.
                fleet.settings[i] = ServerSetting::normal();
                continue;
            }
            let applied = if faults.command_lost(i) || faults.is_stuck(i) {
                st.prev_settings[i]
            } else if let Some(cap) = faults.core_cap {
                let cap = cap.clamp(gs_cluster::NORMAL_CORES, gs_cluster::MAX_CORES);
                let c = fleet.commanded[i];
                if c.cores > cap {
                    ServerSetting::new(cap, c.freq_idx)
                } else {
                    c
                }
            } else {
                fleet.commanded[i]
            };
            st.watchdog.observe(i, fleet.commanded[i], applied);
            fleet.settings[i] = applied;
        }
        // Thermal guard: a server at its junction limit cannot sprint,
        // whatever the power situation (paper §II assumes the PCM package
        // keeps this from ever firing during the evaluated bursts; the
        // NoPcm model shows why that assumption was needed).
        for (setting, th) in fleet.settings.iter_mut().zip(&st.thermals) {
            if setting.is_sprinting() && th.is_throttling() {
                *setting = ServerSetting::normal();
            }
        }
    }

    /// Stage 6: measure the epoch. The offered load redistributes onto
    /// the live servers (a shrunken fleet serves the same rack-level
    /// demand); the `live_count == n` guard keeps the healthy-fleet
    /// arithmetic bit-identical to the pre-fleet code path.
    fn measure(&mut self, ep: &mut Epoch) {
        let n = self.n;
        ep.served_rps = if ep.live_count == n || ep.live_count == 0 {
            ep.offered
        } else {
            ep.offered * n as f64 / ep.live_count as f64
        };
        let fleet = &mut *self.fleet;
        for i in 0..n {
            if !fleet.live[i] {
                // Dead servers serve nothing; probation servers idle at
                // Normal without load until their streak completes.
                fleet.perfs[i] = EpochPerf::default();
                continue;
            }
            let setting = fleet.settings[i];
            fleet.perfs[i] = match self.cfg.measurement {
                MeasurementMode::Des => {
                    let admit = self.profiles.get(setting).slo_capacity;
                    self.sims[i].advance_epoch(
                        &self.plant.app,
                        setting,
                        ep.served_rps,
                        admit,
                        self.cfg.epoch,
                    )
                }
                // Within one epoch the served rate is constant, so the
                // per-epoch memo (a short linear scan) answers repeats
                // without hashing into the run-scoped cache.
                MeasurementMode::Analytic => {
                    match fleet.perf_memo.iter().find(|(s, _)| *s == setting) {
                        Some((_, p)) => p.clone(),
                        None => {
                            let p = self.plant.perf(setting, ep.served_rps);
                            fleet.perf_memo.push((setting, p.clone()));
                            p
                        }
                    }
                }
            };
        }
        // Stragglers degrade delivered goodput on an otherwise-alive
        // server (slow disk, thermal neighbor, NIC trouble) — applied
        // after measurement so power and latency stay those of the chosen
        // setting.
        if !ep.faults.stragglers.is_empty() {
            for i in 0..n {
                if fleet.up[i] {
                    let factor = ep.faults.straggler_factor(i);
                    if factor != 1.0 {
                        fleet.perfs[i].goodput_rps *= factor;
                        self.st.straggler_epochs += 1;
                    }
                }
            }
        }
    }

    /// Stage 7: settle the actual energy flows of serving against the
    /// meters, then charge the batteries from surplus renewable.
    fn settle(&mut self, ep: &mut Epoch) {
        let (n, epoch_hours, epoch) = (self.n, self.epoch_hours, self.cfg.epoch);
        let (st, fleet, power_model) = (&mut self.st, &mut *self.fleet, self.power_model);
        fleet.sprinting.clear();
        for i in 0..n {
            if fleet.settings[i].is_sprinting() {
                fleet.sprinting.push(i);
            }
        }
        // A dead server draws nothing — 0 W, not an idle floor; the
        // auditor checks the settled books agree.
        for i in 0..n {
            fleet.actual_power[i] = if fleet.up[i] {
                power_model.power_w(fleet.settings[i], fleet.perfs[i].utilization)
            } else {
                0.0
            };
        }
        ep.dead_server_wh = (0..n)
            .filter(|&i| !fleet.up[i])
            .map(|i| fleet.actual_power[i] * epoch_hours)
            .sum();
        let mut re_left = ep.re_actual_w;
        for &i in &fleet.sprinting {
            // Mirror the planning-time allocation: waterfall strategies
            // let earlier servers claim their full draw; uniform ones
            // split the supply evenly.
            let re_share = if ep.waterfall {
                re_left
            } else {
                re_left.min(ep.re_actual_w / fleet.sprinting.len() as f64)
            };
            let from_re = fleet.actual_power[i].min(re_share);
            re_left -= from_re;
            ep.re_used_w += from_re;
            ep.settled_server_wh += from_re * epoch_hours;
            let shortfall = fleet.actual_power[i] - from_re;
            if shortfall > 0.0 {
                let drain_memo = &mut fleet.drain_memo;
                let out = st.batteries[i]
                    .as_mut()
                    .map(|b| {
                        b.discharge_memoized(shortfall, epoch, &mut |spec, current| {
                            let key = (current.to_bits(), spec.capacity_ah.to_bits());
                            drain_memo
                                .get_or_insert_with(key, || spec.peukert_drain_ah_per_hour(current))
                        })
                    })
                    .unwrap_or(gs_power::battery::DischargeOutcome {
                        delivered_wh: 0.0,
                        sustained: SimDuration::ZERO,
                    });
                ep.battery_w += out.delivered_wh / epoch_hours;
                ep.settled_server_wh += out.delivered_wh;
                let gap_wh = shortfall * epoch_hours - out.delivered_wh;
                if gap_wh > 1e-9 {
                    // The battery (or a renewable prediction error) could
                    // not carry the sprint through the whole epoch: the
                    // server drops back to Normal mode on the grid for the
                    // remainder, and the epoch's performance is settled as
                    // the time-weighted blend of the two regimes.
                    let w = (out.sustained.as_secs_f64() / epoch.as_secs_f64()).clamp(0.0, 1.0);
                    let normal_perf = self.plant.perf(ServerSetting::normal(), ep.served_rps);
                    fleet.perfs[i] = blend_perf(&fleet.perfs[i], &normal_perf, w);
                    let normal_power =
                        power_model.power_w(ServerSetting::normal(), normal_perf.utilization);
                    st.meter
                        .record(Source::Grid, normal_power * (1.0 - w), epoch_hours);
                    ep.settled_server_wh += normal_power * (1.0 - w) * epoch_hours;
                }
            }
        }
        st.meter
            .record(Source::Renewable, ep.re_used_w, epoch_hours);
        st.meter.record(Source::Battery, ep.battery_w, epoch_hours);
        // Normal-mode servers ride the grid budget; dead servers draw
        // nothing and are never metered.
        for i in 0..n {
            if !fleet.settings[i].is_sprinting() && fleet.up[i] {
                st.meter
                    .record(Source::Grid, fleet.actual_power[i], epoch_hours);
                ep.settled_server_wh += fleet.actual_power[i] * epoch_hours;
            }
        }
        // Surplus renewable charges the batteries; the rest is curtailed.
        if re_left > 0.0 {
            fleet.open.clear();
            for (i, b) in st.batteries.iter().enumerate() {
                if b.as_ref().is_some_and(|b| !b.is_full()) {
                    fleet.open.push(i);
                }
            }
            if !fleet.open.is_empty() {
                let share = re_left / fleet.open.len() as f64;
                for &i in &fleet.open {
                    let drawn = st.batteries[i]
                        .as_mut()
                        .expect("filtered to Some")
                        .charge(share, epoch);
                    ep.charged_w += drawn;
                }
            }
            st.meter
                .record_curtailment(re_left - ep.charged_w, epoch_hours);
        }
    }

    /// Stage 7, continued — grid recharge (paper case 3): once a battery
    /// reaches its DoD goal it recharges from the grid, but only "if the
    /// workload burst can be completed in this period", i.e. while no
    /// sprint-worthy demand is pending. Recharging *during* a burst would
    /// amortize grid energy into the sprint, exactly the budget overdraw
    /// the green bus exists to avoid.
    fn recharge(&mut self, ep: &mut Epoch) {
        let burst_pending = ep.offered > self.profiles.get(ServerSetting::normal()).slo_capacity;
        let st = &mut self.st;
        for i in 0..self.n {
            let Some(b) = st.batteries[i].as_mut() else {
                continue;
            };
            // The latch: trigger at (or within a whisker of) the DoD goal —
            // exact floor equality rarely happens because the PSS re-plan
            // backs off just before the last milliamp-hour. Once
            // triggered, the grid tops the unit back up whenever its
            // server is not sprinting, until full.
            if b.dod_fraction() >= b.spec().max_dod - 0.02 {
                st.grid_recharging[i] = true;
            }
            if st.grid_recharging[i] && !self.fleet.settings[i].is_sprinting() && !burst_pending {
                let drawn = b.charge(b.spec().max_charge_power_w(), self.cfg.epoch);
                if drawn > 0.0 {
                    st.meter.record(Source::Grid, drawn, self.epoch_hours);
                    st.in_burst_grid_recharge_wh += drawn * self.epoch_hours;
                    ep.epoch_grid_recharge_wh += drawn * self.epoch_hours;
                }
            }
            if b.is_full() {
                st.grid_recharging[i] = false;
            }
        }
    }

    /// Stage 8: audit the epoch's settled books before anything else runs.
    fn audit(&mut self, ep: &Epoch) {
        let Some(aud) = self.auditor.as_mut() else {
            return;
        };
        let (st, fleet, epoch_hours) = (&mut self.st, &mut *self.fleet, self.epoch_hours);
        let goodput: f64 = fleet.perfs.iter().map(|p| p.goodput_rps).sum();
        // While a demoted ladder level steers, the rack must never serve
        // below the Normal floor — failover is a degradation bound, not a
        // license to collapse. The floor is owed by the *live* fleet: a
        // dead server serves nothing and owes nothing. The tolerance
        // absorbs blend rounding (and DES stochasticity vs the analytic
        // floor estimate).
        let failover_floor = match self.guard.as_ref() {
            Some(g) if g.level() > 0 => {
                let normal_perf = self.plant.perf(ServerSetting::normal(), ep.served_rps);
                let tol = match self.cfg.measurement {
                    MeasurementMode::Analytic => 0.99,
                    MeasurementMode::Des => 0.85,
                };
                // A straggler degrades Normal-mode serving just as much as
                // demoted serving; weight its share of the floor
                // accordingly (1.0 per healthy server).
                let live_weight: f64 = (0..self.n)
                    .filter(|&i| fleet.live[i])
                    .map(|i| ep.faults.straggler_factor(i))
                    .sum();
                Some((goodput, normal_perf.goodput_rps * live_weight * tol))
            }
            _ => None,
        };
        let grid_now = st.meter.energy_wh(Source::Grid);
        let curtailed_now = st.meter.curtailed_wh();
        fleet.socs.clear();
        fleet.socs.extend(
            st.batteries
                .iter()
                .flatten()
                .map(|b| (b.soc_fraction(), b.spec().max_dod)),
        );
        let max_sprint_capacity = self.profiles.get(ServerSetting::max_sprint()).slo_capacity;
        let mut flows = EpochFlows {
            epoch_index: ep.k as usize,
            supply_wh: ep.re_actual_w * epoch_hours,
            battery_discharge_wh: ep.battery_w * epoch_hours,
            grid_wh: grid_now - st.audited_grid_wh,
            server_wh: ep.settled_server_wh,
            charge_wh: ep.charged_w * epoch_hours + ep.epoch_grid_recharge_wh,
            curtailed_wh: curtailed_now - st.audited_curtailed_wh,
            socs: std::mem::take(&mut fleet.socs),
            grid_cap_w: self.grid_cap_w,
            epoch_hours,
            failover_floor,
            live_servers: ep.live_count,
            dead_server_wh: ep.dead_server_wh,
            // The capacity ceiling is exact only on the analytic plane;
            // DES queue drain can legitimately complete a few requests
            // above the per-epoch steady-state capacity.
            goodput_capacity: matches!(self.cfg.measurement, MeasurementMode::Analytic)
                .then(|| (goodput, ep.live_count as f64 * max_sprint_capacity)),
        };
        aud.check_epoch(&flows);
        // Reclaim the SoC list's allocation for the next epoch.
        fleet.socs = std::mem::take(&mut flows.socs);
        st.audited_grid_wh = grid_now;
        st.audited_curtailed_wh = curtailed_now;
    }

    /// Stage 9: advance the thermal state under the power actually drawn.
    /// A sprint that crosses the junction limit mid-epoch throttles to
    /// Normal for the remainder (hardware DVFS reacts in milliseconds) and
    /// the epoch's performance is blended accordingly.
    fn thermal_advance(&mut self, ep: &Epoch) {
        let (st, fleet, epoch) = (&mut self.st, &mut *self.fleet, self.cfg.epoch);
        let power_model = self.power_model;
        let mut any_thermal_throttle = false;
        for (i, pkg) in st.thermals.iter_mut().enumerate() {
            if !fleet.settings[i].is_sprinting() {
                pkg.advance(fleet.actual_power[i], epoch);
                st.peak_temp_c = st.peak_temp_c.max(pkg.temp_c());
                continue;
            }
            let total_s = epoch.as_secs().max(1);
            let mut crossed_at: Option<u64> = None;
            for s in 0..total_s {
                if pkg.is_throttling() {
                    crossed_at = Some(s);
                    break;
                }
                pkg.advance(fleet.actual_power[i], SimDuration::from_secs(1));
            }
            if let Some(s) = crossed_at {
                any_thermal_throttle = true;
                let w = s as f64 / total_s as f64;
                let normal_perf = self.plant.perf(ServerSetting::normal(), ep.offered);
                fleet.perfs[i] = blend_perf(&fleet.perfs[i], &normal_perf, w);
                let normal_power =
                    power_model.power_w(ServerSetting::normal(), normal_perf.utilization);
                pkg.advance(normal_power, SimDuration::from_secs(total_s - s));
            }
            st.peak_temp_c = st.peak_temp_c.max(pkg.temp_c());
        }
        if any_thermal_throttle {
            st.thermal_throttle_epochs += 1;
        }
    }

    /// Stage 10 (Monitor → Predictor): publish the epoch's observations.
    /// The Monitor (and everything downstream of it) sees what the
    /// *sensors* report — held-over last-good values during dropout,
    /// biased readings under meter faults — with quality flags saying
    /// which readings to trust. The EpochRecord keeps the physical values
    /// for energy audits.
    fn observe(&mut self, ep: &mut Epoch) {
        let (st, fleet) = (&mut self.st, &*self.fleet);
        ep.goodput = fleet.perfs.iter().map(|p| p.goodput_rps).sum();
        ep.soc = mean_soc(&st.batteries);
        let soc_reported = (ep.soc * ep.faults.soc_report_factor).min(1.0);
        st.monitor.record_q(
            ep.t,
            Observation {
                re_supply_w: ep.obs_w.unwrap_or(0.0),
                demand_w: fleet.actual_power.iter().sum(),
                battery_w: ep.battery_w,
                battery_soc: soc_reported,
                goodput_rps: ep.goodput,
                offered_rps: ep.offered,
            },
            ObservationQuality {
                re_fresh: ep.obs_w.is_some(),
                soc_trusted: ep.faults.soc_report_factor == 1.0,
            },
        );
        // The EWMA holds its last-good state through dropouts: only
        // verified readings are fed.
        if let Some(w) = ep.obs_w {
            st.predictor.observe_re_supply(w);
            st.cs_predictor.observe(ep.t, w);
        }
        st.predictor.observe_workload(ep.offered);
        // The telemetry delay line advances every epoch; a reading lost to
        // a dropout stays lost (a delayed read of nothing is nothing).
        st.last_raw_obs_w = ep.fresh_obs_w;
        st.monitor.record_fleet(ep.t, &fleet.up);
    }

    /// Stage 11 (PMK learning, Algorithm 1): grade the epoch with the
    /// reward on the representative server, apply Hybrid's Bellman
    /// update, and let the guardrail supervise. With the whole fleet down
    /// there is nothing to score and no detector has signal.
    fn learn_and_supervise(&mut self, ep: &mut Epoch) {
        ep.steering_level = self.guard.as_ref().map_or(0, |g| g.level());
        let Some(r0) = ep.rep else {
            // Whole fleet down: drop any pending Bellman update (there is
            // no epoch to grade it against) and keep the ladder stream
            // continuous for the Monitor.
            self.st.pending_q = None;
            if let Some(g) = self.guard.as_ref() {
                self.st.monitor.record_ladder(ep.t, g.level());
            }
            return;
        };
        let (fleet, app) = (&*self.fleet, &self.plant.app);
        let supply0_w = ep.re_believed_w / ep.plan_n as f64 + fleet.instant_w[r0];
        let active = reward_inputs(app, supply0_w, fleet.actual_power[r0], &fleet.perfs[r0]);
        // While a demoted ladder level steers, `pending_q` stays `None`
        // (the steering controller is learner-free), so no update fires.
        if let Some(learner) = self.pmk.learner_mut() {
            let r = reward(&active);
            let next_state = learner.state(supply0_w, ep.offered);
            if let Some((s_prev, a_prev)) = self.st.pending_q {
                learner.update(s_prev, a_prev, r, next_state);
            }
            self.st.pending_q = ep.q_state.map(|s| (s, fleet.settings[r0]));
        }
        if self.guard.is_some() {
            self.supervise(ep, r0, supply0_w, &active);
        }
    }

    /// The guardrail: score the shadow fallback on the same planning
    /// context, feed the detectors, and act on the ladder verdict.
    /// Demotions and promotions take effect from the next epoch.
    fn supervise(&mut self, ep: &Epoch, r0: usize, supply0_w: f64, active: &RewardInputs) {
        let (cfg, profiles, fleet) = (self.cfg, self.profiles, &*self.fleet);
        let (Some(g), Some(shadow)) = (self.guard.as_mut(), self.shadow_pmk.as_mut()) else {
            return;
        };
        // Shadow decision for the representative server. The fallback
        // strategies are rng-free by construction (GuardrailConfig
        // validation rejects Hybrid), so the throwaway rng preserves the
        // run's main stream byte-for-byte.
        let shadow_ctx = PmkContext {
            predicted_load_rps: ep.load_pred,
            re_share_w: ep.re_believed_w / ep.plan_n as f64,
            battery_instant_w: fleet.instant_w[r0],
            battery_sustained_w: if ep.use_instant {
                fleet.instant_w[r0]
            } else {
                fleet.sustained_horizon_w[r0]
            },
        };
        let mut throwaway = SimRng::seed_from_u64(0);
        let chosen = shadow.choose(profiles, &shadow_ctx, &mut throwaway);
        let shadow_setting =
            shadow.apply_hysteresis(profiles, &shadow_ctx, g.shadow_prev(), chosen);
        g.set_shadow_prev(shadow_setting);
        let shadow_perf = self.plant.perf(shadow_setting, ep.served_rps);
        let (app, power_model) = (&self.plant.app, self.power_model);
        let shadow_power = power_model.power_w(shadow_setting, shadow_perf.utilization);
        let shadow_inputs = reward_inputs(app, supply0_w, shadow_power, &shadow_perf);
        let slo_ok = |p: &EpochPerf| {
            p.slo_percentile_latency_s <= app.slo_deadline_s
                && (p.offered_rps <= 0.0 || p.goodput_rps >= 0.9 * p.offered_rps)
        };
        // Corruption scan on whichever policy is steering; a learner-free
        // rung has no table to corrupt.
        let cap = g.config().value_explosion_cap;
        let pending_q = self.st.pending_q;
        let table_corrupt = self
            .fallback_pmk
            .as_mut()
            .unwrap_or(&mut self.pmk)
            .learner_mut()
            .is_some_and(|l| {
                let stats = l.table_stats();
                stats.non_finite > 0
                    || stats.max_abs > cap
                    || pending_q.is_some_and(|(s, _)| !s.in_range())
            });
        self.st.monitor.record_ladder(ep.t, ep.steering_level);
        match g.observe(&EpochSignals {
            epoch_index: ep.k,
            active_reward: reward(active),
            shadow_reward: reward(&shadow_inputs),
            active_slo_ok: slo_ok(&fleet.perfs[r0]),
            shadow_slo_ok: slo_ok(&shadow_perf),
            battery_discharge_w: ep.battery_w,
            planned_battery_w: if ep.use_instant {
                fleet.instant_w.iter().sum()
            } else {
                fleet.sustained_horizon_w.iter().sum()
            },
            table_corrupt,
            live_fraction: ep.live_count as f64 / self.n as f64,
        }) {
            GuardrailAction::Demote { reason } => {
                // Quarantine the learner the demoted rung steered with;
                // rungs below the top are learner-free.
                if self.fallback_pmk.is_none() {
                    if let Some(l) = self.pmk.learner_mut() {
                        let rec = QuarantineRecord::new(ep.k, &reason, l.to_json());
                        let detail = match g.config().quarantine_dir.clone() {
                            Some(dir) => match rec.write_to(&dir) {
                                Ok(path) => format!(" -> {path}"),
                                Err(e) => format!(" (sidecar write failed: {e})"),
                            },
                            None => String::new(),
                        };
                        g.note_quarantine(ep.k, &rec.checksum, &detail);
                        // The quarantined table never steers again: a
                        // future re-promotion restarts from the
                        // deterministic profile bootstrap.
                        self.pmk = strategy_pmk(cfg, profiles, self.pmk.strategy());
                        self.st.pending_q = None;
                    }
                }
                self.fallback_pmk = Some(strategy_pmk(cfg, profiles, g.active_strategy()));
            }
            GuardrailAction::Promote => {
                self.fallback_pmk =
                    (g.level() > 0).then(|| strategy_pmk(cfg, profiles, g.active_strategy()));
                self.st.pending_q = None;
            }
            GuardrailAction::Hold => {}
        }
    }

    /// Stage 12: count knob churn, roll the hysteresis incumbents, and
    /// append the epoch's record.
    fn record(&mut self, ep: &Epoch, case: SupplyCase) {
        let (st, fleet, n) = (&mut self.st, &*self.fleet, self.n);
        for i in 0..n {
            if fleet.settings[i] != st.prev_settings[i] {
                st.setting_transitions += 1;
            }
        }
        st.prev_settings.copy_from_slice(&fleet.settings);
        st.goodput_sum += ep.goodput / n as f64;
        st.offered_sum += ep.offered;
        st.epochs.push(EpochRecord {
            t: ep.t,
            setting: ep
                .rep
                .map_or_else(ServerSetting::normal, |r| fleet.settings[r]),
            case,
            re_supply_w: ep.re_actual_w,
            re_used_w: ep.re_used_w,
            battery_w: ep.battery_w,
            demand_w: fleet.actual_power.iter().sum(),
            battery_soc: ep.soc,
            offered_rps: ep.offered,
            goodput_rps: ep.goodput,
            sprinting_servers: fleet.settings.iter().filter(|s| s.is_sprinting()).count() as u8,
            safe_mode: ep.obs_w.is_none(),
            ladder_level: ep.steering_level as u8,
            live_servers: ep.live_count as u8,
        });
    }

    /// The run's outcome (normalized to Normal later, by [`judge`]), its
    /// Monitor streams, and Hybrid's exported policy.
    fn finish(self) -> (BurstOutcome, Monitor, Option<String>) {
        let EpochLoop {
            mut pmk,
            guard,
            auditor,
            st,
            epoch_hours,
            ..
        } = self;
        // Post-burst grid recharge back to full (paper case 3: "we charge
        // the battery with grid power in anticipation of future sprints").
        let mut grid_recharge_wh = st.in_burst_grid_recharge_wh;
        for b in st.batteries.iter().flatten() {
            let missing_ah = (1.0 - b.soc_fraction()) * b.spec().capacity_ah;
            grid_recharge_wh += missing_ah * b.spec().voltage_v / b.spec().charge_efficiency;
        }
        // Completed-epoch count, not the window's nominal count: identical
        // for every run that finishes the window, and the honest divisor
        // for a drain-stopped serve run.
        let completed = st.epochs.len().max(1) as u64;
        let mean_goodput = st.goodput_sum / completed as f64;
        let guardrail = guard.as_ref().map(Guardrail::state);
        let outcome = BurstOutcome {
            mean_goodput_rps: mean_goodput,
            normal_baseline_rps: mean_goodput, // replaced by `judge`
            speedup_vs_normal: 1.0,
            slo_attainment: if st.offered_sum > 0.0 {
                mean_goodput / (st.offered_sum / completed as f64)
            } else {
                1.0
            },
            re_used_wh: st.meter.energy_wh(Source::Renewable),
            re_charged_wh: {
                // Charged energy is tracked inside the batteries; report
                // the drawn side of it (what left the green bus).
                let used = st.meter.energy_wh(Source::Renewable);
                let avail = used + st.meter.curtailed_wh();
                // Anything produced, not used and not curtailed went to
                // charge.
                let produced: f64 = st.epochs.iter().map(|e| e.re_supply_w * epoch_hours).sum();
                (produced - avail).max(0.0)
            },
            curtailed_wh: st.meter.curtailed_wh(),
            battery_used_wh: st.meter.energy_wh(Source::Battery),
            grid_overload_wh: 0.0,
            grid_recharge_wh,
            battery_cycles: st
                .batteries
                .iter()
                .flatten()
                .map(Battery::equivalent_cycles)
                .sum::<f64>()
                / st.batteries.iter().flatten().count().max(1) as f64,
            setting_transitions: st.setting_transitions,
            thermal_throttle_epochs: st.thermal_throttle_epochs,
            peak_temp_c: st.peak_temp_c,
            fault_epochs: st.fault_epochs,
            safe_mode_epochs: st.safe_mode_epochs,
            watchdog_clamped_epochs: st.watchdog_clamped_epochs,
            floor_held: default_floor_held(), // judged against Normal in `judge`
            audit_violations: auditor.map_or_else(Vec::new, InvariantAuditor::into_violations),
            failover_epochs: guardrail.map_or(0, |g| g.failover_epochs),
            ladder_level: guardrail.map_or(0, |g| g.peak_level),
            quarantined_tables: guardrail.map_or(0, |g| g.quarantined_tables),
            guardrail_events: guardrail.map_or_else(Vec::new, |g| g.events.clone()),
            dead_server_epochs: st.dead_server_epochs,
            straggler_epochs: st.straggler_epochs,
            min_live_servers: st.min_live_servers,
            fleet_events: st.fleet_events,
            epochs: st.epochs,
        };
        let policy = pmk.learner_mut().map(|l| l.to_json());
        (outcome, st.monitor, policy)
    }
}

/// Deterministic analytic measurement of one epoch.
pub(crate) fn measure_analytic(
    app: &AppProfile,
    profiles: &ProfileTable,
    setting: ServerSetting,
    offered_rps: f64,
) -> EpochPerf {
    let e = profiles.get(setting);
    let admitted = offered_rps.min(e.slo_capacity);
    let station = app.station(setting);
    let grid = station.service_grid();
    let tail = station.sojourn_tail_with(&grid, admitted, app.slo_deadline_s);
    let goodput = admitted * (1.0 - tail);
    // The percentile latency only grades the Hybrid reward's magnitude, so
    // a decimated quadrature grid and a short bisection are plenty.
    let coarse: Vec<f64> = grid.iter().step_by(8).copied().collect();
    let latency = {
        let target = 1.0 - app.slo_percentile;
        let mut hi = station.mean_service_s * 4.0;
        for _ in 0..40 {
            if station.sojourn_tail_with(&coarse, admitted, hi) <= target {
                break;
            }
            hi *= 2.0;
        }
        let mut lo = 0.0;
        for _ in 0..25 {
            let mid = 0.5 * (lo + hi);
            if station.sojourn_tail_with(&coarse, admitted, mid) <= target {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    };
    EpochPerf {
        offered_rps,
        admitted_rps: admitted,
        completed_rps: admitted,
        goodput_rps: goodput,
        shed_rps: offered_rps - admitted,
        mean_latency_s: station.mean_service_s, // lower bound; diagnostics only
        slo_percentile_latency_s: latency,
        utilization: (admitted / e.raw_capacity).clamp(0.0, 1.0),
    }
}

/// Time-weighted blend of a sprint epoch that collapsed to Normal mode
/// `w` of the way through.
fn blend_perf(sprint: &EpochPerf, normal: &EpochPerf, w: f64) -> EpochPerf {
    let mix = |a: f64, b: f64| w * a + (1.0 - w) * b;
    EpochPerf {
        offered_rps: sprint.offered_rps,
        admitted_rps: mix(sprint.admitted_rps, normal.admitted_rps),
        completed_rps: mix(sprint.completed_rps, normal.completed_rps),
        goodput_rps: mix(sprint.goodput_rps, normal.goodput_rps),
        shed_rps: mix(sprint.shed_rps, normal.shed_rps),
        mean_latency_s: mix(sprint.mean_latency_s, normal.mean_latency_s),
        slo_percentile_latency_s: sprint
            .slo_percentile_latency_s
            .max(normal.slo_percentile_latency_s),
        utilization: mix(sprint.utilization, normal.utilization),
    }
}

/// Per-epoch memoized [`Battery::sustainable_power`]. The Peukert math
/// is pure in the battery's `(usable_rated_ah, capacity_ah)` — every
/// other input is a per-run spec constant — so equal keys provably give
/// equal results. A short linear scan: fleets cluster into a handful of
/// battery states.
fn sustainable_power_memo(
    memo: &mut crate::fleet::InlineMemo<(u64, u64), f64>,
    b: &Battery,
    d: SimDuration,
) -> f64 {
    let key = (
        b.usable_rated_ah().to_bits(),
        b.spec().capacity_ah.to_bits(),
    );
    memo.get_or_insert_with(key, || b.sustainable_power(d))
}

fn mean_soc(batteries: &[Option<Battery>]) -> f64 {
    let count = batteries.iter().flatten().count();
    if count == 0 {
        return 1.0;
    }
    batteries
        .iter()
        .flatten()
        .map(Battery::soc_fraction)
        .sum::<f64>()
        / count as f64
}

/// Decorrelate the strategy run from the Normal baseline while keeping
/// both reproducible from the master seed.
fn strategy_salt(s: Strategy) -> u64 {
    match s {
        Strategy::Normal => 0x6e6f_726d,
        Strategy::Greedy => 0x6772_6565,
        Strategy::Parallel => 0x7061_7261,
        Strategy::Pacing => 0x7061_6369,
        Strategy::Hybrid => 0x6879_6272,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{with_fingerprint, SnapshotError};

    fn quick_cfg() -> EngineConfig {
        EngineConfig {
            app: Application::SpecJbb,
            green: GreenConfig::re_batt(),
            strategy: Strategy::Greedy,
            availability: AvailabilityLevel::Maximum,
            burst_duration: SimDuration::from_mins(5),
            measurement: MeasurementMode::Analytic,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn max_availability_reaches_full_sprint_speedup() {
        let out = Engine::new(quick_cfg()).run();
        let expect = Application::SpecJbb.profile().max_speedup();
        assert!(
            (out.speedup_vs_normal - expect).abs() < 0.25,
            "speedup {} vs model {expect}",
            out.speedup_vs_normal
        );
        // All epochs ran green-only.
        assert!(out
            .epochs
            .iter()
            .all(|e| e.case == SupplyCase::GreenOnly && e.setting == ServerSetting::max_sprint()));
        assert_eq!(out.grid_overload_wh, 0.0);
    }

    #[test]
    fn min_availability_without_battery_is_normal() {
        let cfg = EngineConfig {
            green: GreenConfig::re_only(),
            availability: AvailabilityLevel::Minimum,
            ..quick_cfg()
        };
        let out = Engine::new(cfg).run();
        assert!(
            (out.speedup_vs_normal - 1.0).abs() < 0.05,
            "speedup {}",
            out.speedup_vs_normal
        );
        assert!(out
            .epochs
            .iter()
            .all(|e| e.setting == ServerSetting::normal()));
        assert_eq!(out.battery_used_wh, 0.0);
    }

    #[test]
    fn min_availability_short_burst_runs_on_battery() {
        let cfg = EngineConfig {
            availability: AvailabilityLevel::Minimum,
            burst_duration: SimDuration::from_mins(10),
            ..quick_cfg()
        };
        let out = Engine::new(cfg).run();
        // 10 Ah batteries carry a full 10-minute sprint (paper Fig. 6a).
        assert!(
            out.speedup_vs_normal > 4.0,
            "speedup {}",
            out.speedup_vs_normal
        );
        assert!(out.battery_used_wh > 0.0);
        assert!(out.epochs.iter().all(|e| e.case == SupplyCase::BatteryOnly));
        assert!(out.battery_cycles > 0.0);
        assert!(out.grid_recharge_wh > 0.0);
    }

    #[test]
    fn long_battery_only_burst_degrades() {
        let cfg = EngineConfig {
            availability: AvailabilityLevel::Minimum,
            burst_duration: SimDuration::from_mins(60),
            ..quick_cfg()
        };
        let out = Engine::new(cfg).run();
        // Battery carries ~11 of 60 minutes at full sprint: the average
        // sits well below the 10-minute case but above Normal.
        assert!(
            out.speedup_vs_normal > 1.2,
            "speedup {}",
            out.speedup_vs_normal
        );
        assert!(
            out.speedup_vs_normal < 3.0,
            "speedup {}",
            out.speedup_vs_normal
        );
        // Late epochs are back to Normal mode.
        assert_eq!(out.epochs.last().unwrap().setting, ServerSetting::normal());
    }

    #[test]
    fn des_and_analytic_agree_at_max_availability() {
        let a = Engine::new(quick_cfg()).run();
        let d = Engine::new(EngineConfig {
            measurement: MeasurementMode::Des,
            ..quick_cfg()
        })
        .run();
        let rel = (a.speedup_vs_normal - d.speedup_vs_normal).abs() / a.speedup_vs_normal;
        assert!(
            rel < 0.12,
            "analytic {} vs DES {}",
            a.speedup_vs_normal,
            d.speedup_vs_normal
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            Engine::new(EngineConfig {
                seed,
                measurement: MeasurementMode::Des,
                ..quick_cfg()
            })
            .run()
            .mean_goodput_rps
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn hybrid_runs_and_beats_normal_at_medium() {
        let cfg = EngineConfig {
            strategy: Strategy::Hybrid,
            availability: AvailabilityLevel::Medium,
            burst_duration: SimDuration::from_mins(15),
            ..quick_cfg()
        };
        let out = Engine::new(cfg).run();
        assert!(
            out.speedup_vs_normal > 1.5,
            "speedup {}",
            out.speedup_vs_normal
        );
    }

    #[test]
    fn monitor_streams_cover_every_epoch() {
        let (out, monitor) = Engine::new(quick_cfg()).run_with_monitor();
        assert_eq!(monitor.re_supply().len(), out.epochs.len());
        assert_eq!(monitor.goodput().len(), out.epochs.len());
    }

    #[test]
    #[should_panic(expected = "at least one epoch")]
    fn rejects_sub_epoch_burst() {
        Engine::new(EngineConfig {
            burst_duration: SimDuration::from_secs(10),
            ..quick_cfg()
        });
    }

    #[test]
    fn paper_pcm_never_throttles_evaluated_bursts() {
        // The paper's standing assumption: with the PCM package, thermal
        // limits never bind during its 10–60 minute bursts.
        let cfg = EngineConfig {
            burst_duration: SimDuration::from_mins(60),
            ..quick_cfg()
        };
        let out = Engine::new(cfg).run();
        assert_eq!(out.thermal_throttle_epochs, 0);
        assert!(out.peak_temp_c < 85.0, "peak {}", out.peak_temp_c);
        assert!(
            out.peak_temp_c > 70.0,
            "thermals look unsimulated: {}",
            out.peak_temp_c
        );
    }

    #[test]
    fn without_pcm_long_sprints_thermally_throttle() {
        let base = EngineConfig {
            burst_duration: SimDuration::from_mins(60),
            ..quick_cfg()
        };
        let with_pcm = Engine::new(base.clone()).run();
        let without = Engine::new(EngineConfig {
            thermal: ThermalModel::NoPcm,
            ..base
        })
        .run();
        assert!(without.thermal_throttle_epochs > 0);
        assert!(
            without.speedup_vs_normal < with_pcm.speedup_vs_normal - 0.5,
            "no-PCM {} vs PCM {}",
            without.speedup_vs_normal,
            with_pcm.speedup_vs_normal
        );
        assert!(without.peak_temp_c >= 85.0 - 1.0);
    }

    #[test]
    fn disabled_thermals_report_nothing() {
        let out = Engine::new(EngineConfig {
            thermal: ThermalModel::Disabled,
            ..quick_cfg()
        })
        .run();
        assert_eq!(out.thermal_throttle_epochs, 0);
        assert_eq!(out.peak_temp_c, 0.0);
    }

    #[test]
    fn hybrid_policy_persists_across_bursts() {
        // Burst 1 exports its learned policy; burst 2 warm-starts from it.
        let cfg = EngineConfig {
            strategy: Strategy::Hybrid,
            availability: AvailabilityLevel::Medium,
            burst_duration: SimDuration::from_mins(10),
            measurement: MeasurementMode::Analytic,
            ..quick_cfg()
        };
        let (out1, _, policy) = Engine::new(cfg.clone()).run_full();
        let policy = policy.expect("hybrid exports a policy");
        assert!(policy.len() > 100);
        let warm_cfg = EngineConfig {
            warm_policy_json: Some(policy),
            seed: cfg.seed + 1, // different weather, same learned table
            ..cfg
        };
        let out2 = Engine::new(warm_cfg).run();
        // The warm-started controller still sprints competitively.
        assert!(out2.speedup_vs_normal > out1.speedup_vs_normal * 0.8);
        assert!(out2.speedup_vs_normal > 2.0);
    }

    #[test]
    fn non_hybrid_strategies_export_no_policy() {
        let (_, _, policy) = Engine::new(quick_cfg()).run_full();
        assert!(policy.is_none()); // quick_cfg is Greedy
    }

    #[test]
    #[should_panic(expected = "invalid warm_policy_json")]
    fn garbage_warm_policy_is_rejected() {
        let cfg = EngineConfig {
            strategy: Strategy::Hybrid,
            warm_policy_json: Some("{broken".to_string()),
            measurement: MeasurementMode::Analytic,
            ..quick_cfg()
        };
        let _ = Engine::new(cfg).run();
    }

    #[test]
    fn try_new_reports_config_errors_instead_of_panicking() {
        let bad_policy = EngineConfig {
            warm_policy_json: Some("{broken".to_string()),
            ..quick_cfg()
        };
        assert!(matches!(
            Engine::try_new(bad_policy).unwrap_err(),
            EngineError::InvalidWarmPolicy(_)
        ));

        let zero_epoch = EngineConfig {
            epoch: SimDuration::ZERO,
            ..quick_cfg()
        };
        assert_eq!(
            Engine::try_new(zero_epoch).unwrap_err(),
            EngineError::ZeroEpoch
        );

        let sub_epoch = EngineConfig {
            burst_duration: SimDuration::from_secs(1),
            ..quick_cfg()
        };
        assert_eq!(
            Engine::try_new(sub_epoch).unwrap_err(),
            EngineError::SubEpochBurst
        );

        assert!(Engine::try_new(quick_cfg()).is_ok());
    }

    #[test]
    fn zero_server_configs_are_rejected() {
        let mut cfg = quick_cfg();
        cfg.green.green_servers = 0;
        assert_eq!(Engine::try_new(cfg).unwrap_err(), EngineError::ZeroServers);
    }

    #[test]
    fn nan_hysteresis_is_rejected() {
        for bad in [f64::NAN, -0.1, 1.5, f64::INFINITY] {
            let cfg = EngineConfig {
                switch_hysteresis: bad,
                ..quick_cfg()
            };
            assert!(
                matches!(
                    Engine::try_new(cfg).unwrap_err(),
                    EngineError::InvalidThreshold(ref m) if m.contains("switch_hysteresis")
                ),
                "hysteresis {bad} slipped through"
            );
        }
    }

    #[test]
    fn nan_burst_start_hour_is_rejected() {
        for bad in [f64::NAN, -1.0, 24.0, f64::NEG_INFINITY] {
            let cfg = EngineConfig {
                burst_start_hour: bad,
                ..quick_cfg()
            };
            assert!(
                matches!(
                    Engine::try_new(cfg).unwrap_err(),
                    EngineError::InvalidThreshold(ref m) if m.contains("burst_start_hour")
                ),
                "start hour {bad} slipped through"
            );
        }
    }

    #[test]
    fn grid_never_recharges_while_burst_demand_is_pending() {
        // Paper case 3's conditional: recharge happens "if the workload
        // burst can be completed in this period" — during a battery-only
        // burst the SoC is monotone non-increasing.
        let cfg = EngineConfig {
            availability: AvailabilityLevel::Minimum,
            burst_duration: SimDuration::from_mins(40),
            ..quick_cfg()
        };
        let out = Engine::new(cfg).run();
        for w in out.epochs.windows(2) {
            assert!(
                w[1].battery_soc <= w[0].battery_soc + 1e-9,
                "SoC rose mid-burst at {}",
                w[1].t
            );
        }
    }

    #[test]
    fn sprinting_servers_field_tracks_settings() {
        let out = Engine::new(quick_cfg()).run();
        for e in &out.epochs {
            if e.setting.is_sprinting() {
                assert!(e.sprinting_servers >= 1, "at {}", e.t);
            }
        }
        // Max availability: all three green servers sprint.
        assert!(out.epochs.iter().all(|e| e.sprinting_servers == 3));
    }

    #[test]
    fn cached_profiles_are_shared_and_consistent() {
        let a = ProfileTable::cached(Application::SpecJbb);
        let b = ProfileTable::cached(Application::SpecJbb);
        assert!(std::ptr::eq(a, b), "cached tables must be the same object");
        let fresh = ProfileTable::build(&Application::SpecJbb.profile());
        for s in ServerSetting::all() {
            assert_eq!(a.get(s).slo_capacity, fresh.get(s).slo_capacity);
        }
    }

    #[test]
    fn energy_conservation_roughly_holds() {
        let cfg = EngineConfig {
            availability: AvailabilityLevel::Medium,
            burst_duration: SimDuration::from_mins(20),
            ..quick_cfg()
        };
        let out = Engine::new(cfg).run();
        let epoch_hours = 60.0 / 3600.0;
        let produced: f64 = out.epochs.iter().map(|e| e.re_supply_w * epoch_hours).sum();
        let accounted = out.re_used_wh + out.re_charged_wh + out.curtailed_wh;
        assert!(
            (produced - accounted).abs() < produced * 0.02 + 1.0,
            "produced {produced} vs accounted {accounted}"
        );
    }

    #[test]
    fn auditor_is_clean_on_healthy_runs() {
        for strategy in [Strategy::Greedy, Strategy::Pacing, Strategy::Hybrid] {
            let out = Engine::new(EngineConfig {
                strategy,
                availability: AvailabilityLevel::Medium,
                ..quick_cfg()
            })
            .run();
            assert!(
                out.audit_violations.is_empty(),
                "{strategy:?}: {:?}",
                out.audit_violations
            );
        }
        // The DES settlement path balances the same books.
        let out = Engine::new(EngineConfig {
            measurement: MeasurementMode::Des,
            ..quick_cfg()
        })
        .run();
        assert!(
            out.audit_violations.is_empty(),
            "{:?}",
            out.audit_violations
        );
    }

    #[test]
    fn auditor_can_be_disabled() {
        let out = Engine::new(EngineConfig {
            audit: false,
            ..quick_cfg()
        })
        .run();
        assert!(out.audit_violations.is_empty());
    }

    // ---- checkpoint snapshots ----

    fn json<T: Serialize>(v: &T) -> String {
        serde_json::to_string(v).expect("serializes")
    }

    #[test]
    fn snapshot_resume_is_byte_identical_for_bursts() {
        // Hybrid at Medium exercises everything a snapshot must carry:
        // the RNG stream (ε-greedy exploration), the Q-table, the EWMA
        // predictors, battery state, and the meters.
        let cfg = EngineConfig {
            strategy: Strategy::Hybrid,
            availability: AvailabilityLevel::Medium,
            burst_duration: SimDuration::from_mins(10),
            ..quick_cfg()
        };
        let (want_out, want_mon, want_pol) = Engine::new(cfg.clone()).run_full();

        let mut snaps = Vec::new();
        let (out, mon, pol) = Engine::new(cfg)
            .run_full_with_snapshots(7, &mut |s| snaps.push(s.clone()))
            .unwrap();
        assert_eq!(json(&out), json(&want_out), "snapshotting changed the run");
        assert_eq!(json(&mon), json(&want_mon));
        assert_eq!(pol, want_pol);
        assert!(snaps.iter().any(|s| s.phase == RunPhase::Strategy));
        assert!(snaps.iter().any(|s| s.phase == RunPhase::Baseline));

        // Resume from every captured snapshot — strategy-phase and
        // baseline-phase alike — through a JSON round trip (the on-disk
        // checkpoint): all must converge on the same bytes.
        for snap in snaps {
            let snap = EngineSnapshot::from_json(&snap.to_json()).unwrap();
            match resume_snapshot(snap, 0, &mut |_| {}).unwrap() {
                ResumedRun::Burst {
                    outcome,
                    monitor,
                    policy,
                } => {
                    assert_eq!(json(&outcome), json(&want_out));
                    assert_eq!(json(&monitor), json(&want_mon));
                    assert_eq!(policy, want_pol);
                }
                other => panic!("expected a burst, got {other:?}"),
            }
        }
    }

    #[test]
    fn snapshot_resume_is_byte_identical_under_faults() {
        // The fault-plan cursor (fade_done), the watchdog, and the
        // safe-mode estimator all live in the snapshot too.
        let cfg = EngineConfig {
            availability: AvailabilityLevel::Medium,
            burst_duration: SimDuration::from_mins(10),
            fault_plan: Some(FaultPlan::generate(
                77,
                SimTime::from_hours(11),
                SimDuration::from_mins(10),
                4,
            )),
            ..quick_cfg()
        };
        let (want_out, want_mon, _) = Engine::new(cfg.clone()).run_full();
        let mut snaps = Vec::new();
        Engine::new(cfg)
            .run_full_with_snapshots(5, &mut |s| snaps.push(s.clone()))
            .unwrap();
        let snap = snaps.swap_remove(snaps.len() / 2);
        let snap = EngineSnapshot::from_json(&snap.to_json()).unwrap();
        match resume_snapshot(snap, 0, &mut |_| {}).unwrap() {
            ResumedRun::Burst {
                outcome, monitor, ..
            } => {
                assert_eq!(json(&outcome), json(&want_out));
                assert_eq!(json(&monitor), json(&want_mon));
            }
            other => panic!("expected a burst, got {other:?}"),
        }
    }

    #[test]
    fn snapshots_require_analytic_measurement() {
        let err = Engine::new(EngineConfig {
            measurement: MeasurementMode::Des,
            ..quick_cfg()
        })
        .run_full_with_snapshots(5, &mut |_| {})
        .unwrap_err();
        assert_eq!(err, EngineError::SnapshotRequiresAnalytic);
    }

    #[test]
    fn resume_refuses_a_stale_fingerprint() {
        let mut snaps = Vec::new();
        Engine::new(EngineConfig {
            availability: AvailabilityLevel::Medium,
            burst_duration: SimDuration::from_mins(10),
            ..quick_cfg()
        })
        .run_full_with_snapshots(5, &mut |s| snaps.push(s.clone()))
        .unwrap();
        let text = with_fingerprint(&snaps[0].to_json(), "0000000000000000");
        match EngineSnapshot::from_json(&text) {
            Err(e @ SnapshotError::Fingerprint { .. }) => {
                assert!(e.to_string().contains("fingerprint"), "{e}");
            }
            other => panic!("expected a fingerprint refusal, got {other:?}"),
        }
    }

    /// A mid-run Hybrid snapshot, with a learner and a pending update.
    fn hybrid_snapshot() -> EngineSnapshot {
        let mut snaps = Vec::new();
        Engine::new(EngineConfig {
            strategy: Strategy::Hybrid,
            availability: AvailabilityLevel::Medium,
            burst_duration: SimDuration::from_mins(10),
            ..quick_cfg()
        })
        .run_full_with_snapshots(5, &mut |s| snaps.push(s.clone()))
        .unwrap();
        let snap = snaps.swap_remove(0);
        assert!(snap.state.learner.is_some() && snap.state.pending_q.is_some());
        snap
    }

    /// Resume `snap`, expecting a typed refusal that names `field`.
    fn assert_refused(snap: EngineSnapshot, field: &str) {
        match resume_snapshot(snap, 0, &mut |_| {}) {
            Err(EngineError::SnapshotMismatch(m)) => {
                assert!(m.contains(&format!("`{field}`")), "{m}");
            }
            other => panic!("expected SnapshotMismatch, got {other:?}"),
        }
    }

    #[test]
    fn resume_refuses_an_out_of_range_pending_update() {
        let mut snap = hybrid_snapshot();
        if let Some((s, _)) = &mut snap.state.pending_q {
            s.power_level = 420;
        }
        assert_refused(snap, "pending_q");
    }

    #[test]
    fn resume_refuses_a_short_q_table() {
        let mut snap = hybrid_snapshot();
        let mut v: serde_json::Value =
            serde_json::from_str(&snap.state.learner.take().unwrap().to_json()).unwrap();
        if let serde_json::Value::Object(fields) = &mut v {
            if let Some((_, serde_json::Value::Array(cells))) =
                fields.iter_mut().find(|(k, _)| k == "table")
            {
                cells.pop();
            }
        }
        let short =
            crate::qlearning::QLearner::from_json_unchecked(&serde_json::to_string(&v).unwrap())
                .unwrap();
        snap.state.learner = Some(short);
        assert_refused(snap, "learner");
    }

    #[test]
    fn resume_refuses_prev_settings_of_the_wrong_length() {
        let mut snap = hybrid_snapshot();
        snap.state.prev_settings.pop();
        assert_refused(snap, "prev_settings");
    }

    /// The JSON object member `key` of `v`.
    fn member<'v>(v: &'v mut serde_json::Value, key: &str) -> &'v mut serde_json::Value {
        match v {
            serde_json::Value::Object(fields) => {
                &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1
            }
            other => panic!("`{key}` looked up in a non-object {other:?}"),
        }
    }

    /// `snap` with its state edited as JSON, for state whose fields are
    /// private to their module.
    fn edit_state(
        snap: &EngineSnapshot,
        edit: impl FnOnce(&mut serde_json::Value),
    ) -> EngineSnapshot {
        let mut v = serde_json::to_value(snap).unwrap();
        edit(member(&mut v, "state"));
        serde_json::from_value(v).unwrap()
    }

    #[test]
    fn resume_refuses_state_that_does_not_fit_its_config() {
        // A 3-server rack.
        let snap = hybrid_snapshot();
        let tampered = |edit: &dyn Fn(&mut LoopState)| {
            let mut s = snap.clone();
            edit(&mut s.state);
            s
        };
        assert_refused(tampered(&|st| st.batteries.truncate(2)), "batteries");
        assert_refused(
            tampered(&|st| st.grid_recharging.truncate(2)),
            "grid_recharging",
        );
        assert_refused(tampered(&|st| st.down_left.truncate(2)), "down_left");
        assert_refused(tampered(&|st| st.health_streak.push(0)), "health_streak");
        assert_refused(
            tampered(&|st| st.thermals.extend(st.thermals.clone())),
            "thermals",
        );
        assert_refused(tampered(&|st| st.fade_done.push(true)), "fade_done");
        assert_refused(tampered(&|st| st.min_live_servers = 4), "min_live_servers");
        assert_refused(tampered(&|st| st.next_epoch = 1_000_000), "next_epoch");
        let watchdog = edit_state(&snap, |st| {
            if let serde_json::Value::Array(c) = member(member(st, "watchdog"), "clamped") {
                c.pop();
            }
        });
        assert_refused(watchdog, "watchdog");

        // No thermal packages at all under a disabled thermal model.
        let mut snaps = Vec::new();
        Engine::new(EngineConfig {
            thermal: ThermalModel::Disabled,
            ..quick_cfg()
        })
        .run_full_with_snapshots(2, &mut |s| snaps.push(s.clone()))
        .unwrap();
        let mut cold = snaps.swap_remove(0);
        assert!(cold.state.thermals.is_empty());
        cold.state.thermals = snap.state.thermals.clone();
        assert_refused(cold, "thermals");

        // The guardrail level must index its ladder.
        let mut snaps = Vec::new();
        Engine::new(guarded_hybrid_cfg())
            .run_full_with_snapshots(5, &mut |s| snaps.push(s.clone()))
            .unwrap();
        let mut guarded = snaps.swap_remove(0);
        guarded
            .state
            .guardrail
            .as_mut()
            .expect("guardrail on")
            .level = 9;
        assert_refused(guarded, "guardrail");
    }

    // ---- fault injection ----

    use crate::faults::{FaultEvent, FaultKind, FleetMix};

    /// An event active across the whole default burst window.
    fn whole_burst(kind: FaultKind) -> FaultEvent {
        FaultEvent {
            at: SimTime::from_hours(11),
            duration: SimDuration::from_hours(1),
            kind,
        }
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        let clean = Engine::new(quick_cfg()).run();
        let cfg = EngineConfig {
            fault_plan: Some(FaultPlan::new(vec![])),
            ..quick_cfg()
        };
        let with_plan = Engine::new(cfg).run();
        assert_eq!(
            serde_json::to_string(&clean).unwrap(),
            serde_json::to_string(&with_plan).unwrap(),
            "an empty plan must be bit-identical to no plan"
        );
        assert_eq!(with_plan.fault_epochs, 0);
        assert!(with_plan.floor_held);
    }

    #[test]
    fn sensor_dropout_enters_safe_mode_and_holds_the_floor() {
        let cfg = EngineConfig {
            fault_plan: Some(FaultPlan::new(vec![whole_burst(
                FaultKind::ReSensorDropout,
            )])),
            ..quick_cfg()
        };
        let out = Engine::new(cfg).run();
        assert!(out.safe_mode_epochs > 0, "dropout must trigger safe mode");
        assert_eq!(out.fault_epochs, out.epochs.len());
        assert!(out.epochs.iter().all(|e| e.safe_mode));
        // With no verified observation ever, safe mode plans against 0 W:
        // the rack rides batteries down and lands on Normal — never below.
        assert!(out.floor_held, "speedup {}", out.speedup_vs_normal);
        assert_eq!(out.grid_overload_wh, 0.0);
    }

    #[test]
    fn breaker_trip_mid_burst_degrades_gracefully() {
        let trip = FaultEvent {
            at: SimTime::from_hours(11) + SimDuration::from_mins(2),
            duration: SimDuration::from_mins(10),
            kind: FaultKind::BreakerTrip,
        };
        let cfg = EngineConfig {
            burst_duration: SimDuration::from_mins(10),
            fault_plan: Some(FaultPlan::new(vec![trip])),
            ..quick_cfg()
        };
        let out = Engine::new(cfg).run();
        assert!(out.fault_epochs >= 8);
        // The physical record shows the outage...
        assert!(out.epochs[3].re_supply_w < 1.0, "breaker open");
        // ...and the first post-trip epochs still beat or match Normal.
        assert!(out.floor_held, "speedup {}", out.speedup_vs_normal);
        assert_eq!(out.grid_overload_wh, 0.0);
    }

    #[test]
    fn meter_over_report_never_overdraws_the_grid() {
        // The meter claims 3× the real supply: the controller plans rich,
        // settlement finds the gap, servers blend down to Normal-on-grid
        // at their baseline share — never grid overload.
        let cfg = EngineConfig {
            availability: AvailabilityLevel::Medium,
            fault_plan: Some(FaultPlan::new(vec![whole_burst(FaultKind::MeterBias {
                factor: 3.0,
            })])),
            ..quick_cfg()
        };
        let out = Engine::new(cfg).run();
        assert_eq!(out.grid_overload_wh, 0.0);
        assert!(out.floor_held, "speedup {}", out.speedup_vs_normal);
    }

    #[test]
    fn stuck_server_trips_the_watchdog() {
        let cfg = EngineConfig {
            burst_duration: SimDuration::from_mins(10),
            fault_plan: Some(FaultPlan::new(vec![whole_burst(FaultKind::StuckServer {
                server: 0,
            })])),
            ..quick_cfg()
        };
        let out = Engine::new(cfg).run();
        // Server 0 starts at Normal and stays stuck there; commands to
        // sprint keep missing, so the watchdog clamps it within a few
        // epochs and the epochs-with-clamp counter reflects that.
        assert!(
            out.watchdog_clamped_epochs > 0,
            "watchdog never clamped: {out:?}"
        );
        assert!(out.floor_held);
        assert_eq!(out.grid_overload_wh, 0.0);
    }

    #[test]
    fn core_activation_cap_limits_the_sprint() {
        let cfg = EngineConfig {
            fault_plan: Some(FaultPlan::new(vec![whole_burst(
                FaultKind::CoreActivationFail { max_cores: 8 },
            )])),
            ..quick_cfg()
        };
        let out = Engine::new(cfg).run();
        assert!(out.epochs.iter().all(|e| e.setting.cores <= 8));
        // 8 cores at full frequency still beats Normal.
        assert!(out.speedup_vs_normal > 1.0);
        assert!(out.floor_held);
    }

    #[test]
    fn battery_fade_applies_once_and_shortens_the_ride() {
        let night = EngineConfig {
            availability: AvailabilityLevel::Minimum,
            burst_duration: SimDuration::from_mins(10),
            ..quick_cfg()
        };
        let clean = Engine::new(night.clone()).run();
        let faded = Engine::new(EngineConfig {
            fault_plan: Some(FaultPlan::new(vec![whole_burst(FaultKind::BatteryFade {
                factor: 0.5,
            })])),
            ..night
        })
        .run();
        assert!(
            faded.battery_used_wh < clean.battery_used_wh,
            "faded {} vs clean {}",
            faded.battery_used_wh,
            clean.battery_used_wh
        );
        assert!(faded.floor_held);
        assert_eq!(faded.grid_overload_wh, 0.0);
    }

    #[test]
    fn soc_misreport_is_contained() {
        for factor in [0.5, 1.4] {
            let cfg = EngineConfig {
                availability: AvailabilityLevel::Minimum,
                burst_duration: SimDuration::from_mins(10),
                fault_plan: Some(FaultPlan::new(vec![whole_burst(FaultKind::SocMisreport {
                    factor,
                })])),
                ..quick_cfg()
            };
            let out = Engine::new(cfg).run();
            assert!(out.floor_held, "factor {factor}: {}", out.speedup_vs_normal);
            assert_eq!(out.grid_overload_wh, 0.0, "factor {factor}");
        }
    }

    #[test]
    fn telemetry_delay_is_softer_than_dropout() {
        let delay = EngineConfig {
            fault_plan: Some(FaultPlan::new(vec![whole_burst(FaultKind::TelemetryDelay)])),
            ..quick_cfg()
        };
        let out = Engine::new(delay).run();
        // The first epoch has no prior reading (degrades to a dropout);
        // afterwards the one-epoch-old readings keep the controller fed.
        assert_eq!(out.safe_mode_epochs, 1);
        assert!(out.floor_held);
        assert!(
            out.speedup_vs_normal > 1.0,
            "stale-but-present telemetry still sprints"
        );
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let plan = FaultPlan::generate(99, SimTime::from_hours(11), SimDuration::from_mins(5), 3);
        let cfg = EngineConfig {
            fault_plan: Some(plan),
            ..quick_cfg()
        };
        let a = Engine::new(cfg.clone()).run();
        let b = Engine::new(cfg).run();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn invalid_fault_plan_is_rejected() {
        let cfg = EngineConfig {
            fault_plan: Some(FaultPlan::new(vec![whole_burst(FaultKind::MeterBias {
                factor: f64::NAN,
            })])),
            ..quick_cfg()
        };
        let err = Engine::try_new(cfg).unwrap_err();
        assert!(matches!(err, EngineError::InvalidFaultPlan(_)));
        assert!(err.to_string().contains("invalid fault_plan"), "{err}");
    }

    #[test]
    fn invalid_trace_override_is_rejected() {
        let cfg = EngineConfig {
            trace_override: Some(SolarTrace::from_samples(vec![])),
            ..quick_cfg()
        };
        let err = Engine::try_new(cfg).unwrap_err();
        assert!(matches!(err, EngineError::InvalidTrace(_)));
        assert!(err.to_string().contains("invalid trace_override"), "{err}");
    }

    #[test]
    #[should_panic(expected = "invalid engine configuration")]
    fn new_panics_with_configuration_context() {
        let cfg = EngineConfig {
            burst_duration: SimDuration::from_secs(1),
            ..quick_cfg()
        };
        let _ = Engine::new(cfg);
    }

    // ---- fleet fault domains ----

    /// A crash event: `duration` only marks the injection instant; the
    /// outage length is carried by `down_epochs`.
    fn crash_at(offset_mins: u64, server: u8, down_epochs: u32) -> FaultEvent {
        FaultEvent {
            at: SimTime::from_hours(11) + SimDuration::from_mins(offset_mins),
            duration: SimDuration::from_mins(1),
            kind: FaultKind::ServerCrash {
                server,
                down_epochs,
            },
        }
    }

    #[test]
    fn server_crash_sheds_load_to_survivors_and_rejoins_with_hysteresis() {
        let cfg = EngineConfig {
            burst_duration: SimDuration::from_mins(10),
            fault_plan: Some(FaultPlan::new(vec![crash_at(2, 1, 3)])),
            ..quick_cfg()
        };
        let out = Engine::new(cfg).run();
        // Down for exactly the commanded outage; probation epochs are
        // powered (up) but carry no load, so they are not "dead".
        assert_eq!(out.dead_server_epochs, 3, "{:?}", out.fleet_events);
        assert_eq!(out.min_live_servers, 2);
        // Epochs 2..=4 down, 5..=6 probation: five epochs at 2 live
        // servers, then full strength from epoch 7 on.
        let degraded = out.epochs.iter().filter(|e| e.live_servers == 2).count();
        assert_eq!(degraded, 3 + REJOIN_EPOCHS as usize - 1);
        assert_eq!(out.epochs.last().unwrap().live_servers, 3);
        assert!(out
            .fleet_events
            .iter()
            .any(|e| e.contains("server 1 crashed")));
        assert!(out
            .fleet_events
            .iter()
            .any(|e| e.contains("server 1 rejoined")));
        // Survivors absorb the load without dropping below Normal and
        // without drawing grid power beyond the baseline share.
        assert!(out.floor_held, "speedup {}", out.speedup_vs_normal);
        assert_eq!(out.grid_overload_wh, 0.0);
        assert!(
            out.audit_violations.is_empty(),
            "{:?}",
            out.audit_violations
        );
    }

    #[test]
    fn three_of_ten_servers_crash_mid_sprint_and_the_run_stays_clean() {
        // The ISSUE acceptance scenario: a 10-server green rack loses 3
        // servers mid-sprint, holds the Normal floor, books no energy to
        // the dead servers, and replans back to full strength after the
        // hysteretic rejoin.
        let cfg = EngineConfig {
            green: GreenConfig {
                name: "RE-Batt-10".into(),
                green_servers: 10,
                panels: 10,
                battery_ah: 10.0,
            },
            burst_duration: SimDuration::from_mins(12),
            fault_plan: Some(FaultPlan::new(vec![
                crash_at(2, 2, 2),
                crash_at(2, 5, 2),
                crash_at(3, 7, 2),
            ])),
            ..quick_cfg()
        };
        let out = Engine::new(cfg).run();
        assert_eq!(out.min_live_servers, 7);
        assert_eq!(out.dead_server_epochs, 6);
        assert!(out.floor_held, "speedup {}", out.speedup_vs_normal);
        assert_eq!(out.grid_overload_wh, 0.0);
        assert!(
            out.audit_violations.is_empty(),
            "{:?}",
            out.audit_violations
        );
        // Hot rejoin restores full-fleet planning before the burst ends.
        assert_eq!(out.epochs.last().unwrap().live_servers, 10);
        for server in [2, 5, 7] {
            assert!(
                out.fleet_events
                    .iter()
                    .any(|e| e.contains(&format!("server {server} rejoined"))),
                "{:?}",
                out.fleet_events
            );
        }
    }

    #[test]
    fn whole_fleet_crash_is_survivable() {
        // Every server down at once: no load is served, no power flows,
        // and the books still balance. The baseline suffers identically,
        // so the floor comparison stays fair.
        let cfg = EngineConfig {
            burst_duration: SimDuration::from_mins(10),
            fault_plan: Some(FaultPlan::new(vec![
                crash_at(2, 0, 2),
                crash_at(2, 1, 2),
                crash_at(2, 2, 2),
            ])),
            ..quick_cfg()
        };
        let out = Engine::new(cfg).run();
        assert_eq!(out.min_live_servers, 0);
        assert_eq!(out.dead_server_epochs, 6);
        assert!(out.floor_held, "speedup {}", out.speedup_vs_normal);
        assert_eq!(out.grid_overload_wh, 0.0);
        assert!(
            out.audit_violations.is_empty(),
            "{:?}",
            out.audit_violations
        );
        assert_eq!(out.epochs.last().unwrap().live_servers, 3);
    }

    #[test]
    fn flapping_server_is_held_out_until_it_stays_healthy() {
        // A flapping server alternates power states every epoch, so its
        // health streak never reaches REJOIN_EPOCHS inside the flap
        // window: the planner treats it as out for the whole window plus
        // the probation tail.
        let flap = FaultEvent {
            at: SimTime::from_hours(11) + SimDuration::from_mins(1),
            duration: SimDuration::from_mins(4),
            kind: FaultKind::ServerFlap { server: 0 },
        };
        let cfg = EngineConfig {
            burst_duration: SimDuration::from_mins(10),
            fault_plan: Some(FaultPlan::new(vec![flap])),
            ..quick_cfg()
        };
        let out = Engine::new(cfg).run();
        assert_eq!(out.min_live_servers, 2);
        assert!(out.dead_server_epochs >= 2, "{}", out.dead_server_epochs);
        assert!(out
            .fleet_events
            .iter()
            .any(|e| e.contains("server 0 rejoined")));
        assert_eq!(out.epochs.last().unwrap().live_servers, 3);
        assert!(out.floor_held, "speedup {}", out.speedup_vs_normal);
        assert!(
            out.audit_violations.is_empty(),
            "{:?}",
            out.audit_violations
        );
    }

    #[test]
    fn straggler_degrades_goodput_but_stays_in_the_plan() {
        let clean = Engine::new(quick_cfg()).run();
        let cfg = EngineConfig {
            fault_plan: Some(FaultPlan::new(vec![whole_burst(
                FaultKind::ServerStraggler {
                    server: 0,
                    goodput_factor: 0.5,
                },
            )])),
            ..quick_cfg()
        };
        let out = Engine::new(cfg).run();
        // A straggler still counts as live — it carries load, just slowly.
        assert_eq!(out.min_live_servers, 3);
        assert_eq!(out.dead_server_epochs, 0);
        assert_eq!(out.straggler_epochs, out.epochs.len());
        assert!(
            out.mean_goodput_rps < clean.mean_goodput_rps,
            "straggler {} vs clean {}",
            out.mean_goodput_rps,
            clean.mean_goodput_rps
        );
        // The baseline straggles identically, so the floor stays fair,
        // and the audit floor is weighted by the degraded capacity.
        assert!(out.floor_held, "speedup {}", out.speedup_vs_normal);
        assert!(
            out.audit_violations.is_empty(),
            "{:?}",
            out.audit_violations
        );
    }

    #[test]
    fn fleet_plan_out_of_range_server_is_rejected() {
        let cfg = EngineConfig {
            fault_plan: Some(FaultPlan::new(vec![crash_at(1, 9, 1)])),
            ..quick_cfg()
        };
        let err = Engine::try_new(cfg).unwrap_err();
        assert!(matches!(err, EngineError::InvalidFaultPlan(_)));
        assert!(err.to_string().contains("targets server"), "{err}");
    }

    #[test]
    fn generated_fleet_plans_run_deterministically() {
        for seed in [3, 17, 99] {
            let plan = FaultPlan::generate_fleet(
                seed,
                SimTime::from_hours(11),
                SimDuration::from_mins(10),
                3,
                FleetMix::default(),
            );
            let cfg = EngineConfig {
                burst_duration: SimDuration::from_mins(10),
                fault_plan: Some(plan),
                ..quick_cfg()
            };
            let a = Engine::new(cfg.clone()).run();
            let b = Engine::new(cfg).run();
            assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b).unwrap()
            );
            assert!(a.floor_held, "seed {seed}: {}", a.speedup_vs_normal);
            assert!(
                a.audit_violations.is_empty(),
                "seed {seed}: {:?}",
                a.audit_violations
            );
        }
    }

    #[test]
    fn snapshot_resume_is_byte_identical_through_a_crash() {
        // The liveness vectors (down_left, health_streak) and the fleet
        // counters all live in the snapshot: resuming from an epoch while
        // a server is down or on probation must replay the same rejoin.
        let flap = FaultEvent {
            at: SimTime::from_hours(11) + SimDuration::from_mins(5),
            duration: SimDuration::from_mins(2),
            kind: FaultKind::ServerFlap { server: 0 },
        };
        let straggle = whole_burst(FaultKind::ServerStraggler {
            server: 2,
            goodput_factor: 0.7,
        });
        let cfg = EngineConfig {
            availability: AvailabilityLevel::Medium,
            burst_duration: SimDuration::from_mins(10),
            fault_plan: Some(FaultPlan::new(vec![crash_at(2, 1, 2), flap, straggle])),
            ..quick_cfg()
        };
        let (want_out, want_mon, _) = Engine::new(cfg.clone()).run_full();
        assert!(want_out.dead_server_epochs > 0, "scenario must bite");
        let mut snaps = Vec::new();
        Engine::new(cfg)
            .run_full_with_snapshots(2, &mut |s| snaps.push(s.clone()))
            .unwrap();
        for snap in snaps {
            let snap = EngineSnapshot::from_json(&snap.to_json()).unwrap();
            match resume_snapshot(snap, 0, &mut |_| {}).unwrap() {
                ResumedRun::Burst {
                    outcome, monitor, ..
                } => {
                    assert_eq!(json(&outcome), json(&want_out));
                    assert_eq!(json(&monitor), json(&want_mon));
                }
                other => panic!("expected a burst, got {other:?}"),
            }
        }
    }

    // ---- policy guardrails ----

    use crate::guardrail::GuardrailConfig;

    fn guarded_hybrid_cfg() -> EngineConfig {
        EngineConfig {
            strategy: Strategy::Hybrid,
            availability: AvailabilityLevel::Medium,
            burst_duration: SimDuration::from_mins(15),
            measurement: MeasurementMode::Analytic,
            guardrail: GuardrailConfig {
                enabled: true,
                ..GuardrailConfig::default()
            },
            ..quick_cfg()
        }
    }

    /// A poison event landing exactly in epoch 1 of the default burst.
    fn poison_at_epoch_1() -> FaultPlan {
        FaultPlan::new(vec![FaultEvent {
            at: SimTime::from_hours(11) + SimDuration::from_secs(60),
            duration: SimDuration::from_secs(60),
            kind: FaultKind::QTablePoison { magnitude: 1e9 },
        }])
    }

    #[test]
    fn zero_watchdog_threshold_is_rejected() {
        let cfg = EngineConfig {
            watchdog_threshold: 0,
            ..quick_cfg()
        };
        assert!(matches!(
            Engine::try_new(cfg).unwrap_err(),
            EngineError::InvalidThreshold(ref m) if m.contains("watchdog_threshold")
        ));
        let cfg = EngineConfig {
            watchdog_threshold: 5,
            ..quick_cfg()
        };
        assert!(Engine::try_new(cfg).is_ok());
    }

    #[test]
    fn degenerate_guardrail_configs_are_rejected() {
        let mut cfg = guarded_hybrid_cfg();
        cfg.guardrail.fallback = Strategy::Hybrid;
        let err = Engine::try_new(cfg).unwrap_err();
        assert!(matches!(err, EngineError::InvalidGuardrail(_)));
        assert!(err.to_string().contains("invalid guardrail"), "{err}");

        let mut cfg = guarded_hybrid_cfg();
        cfg.guardrail.probation_epochs = 0;
        assert!(matches!(
            Engine::try_new(cfg).unwrap_err(),
            EngineError::InvalidGuardrail(_)
        ));
    }

    #[test]
    fn guardrail_is_quiet_on_healthy_runs() {
        let out = Engine::new(guarded_hybrid_cfg()).run();
        assert_eq!(out.failover_epochs, 0, "events: {:?}", out.guardrail_events);
        assert_eq!(out.ladder_level, 0);
        assert_eq!(out.quarantined_tables, 0);
        assert!(out.guardrail_events.is_empty());
        assert!(out.epochs.iter().all(|e| e.ladder_level == 0));
        assert!(
            out.audit_violations.is_empty(),
            "{:?}",
            out.audit_violations
        );
        assert!(out.speedup_vs_normal > 1.5, "{}", out.speedup_vs_normal);
    }

    #[test]
    fn poisoned_qtable_fails_over_quarantines_and_recovers() {
        let cfg = EngineConfig {
            fault_plan: Some(poison_at_epoch_1()),
            ..guarded_hybrid_cfg()
        };
        let out = Engine::new(cfg.clone()).run();
        // Corruption fires in the poisoned epoch itself: the table is
        // quarantined and the next rung (Parallel) steers.
        assert_eq!(
            out.quarantined_tables, 1,
            "events: {:?}",
            out.guardrail_events
        );
        assert!(out.ladder_level >= 1);
        assert!(out.failover_epochs > 0);
        assert!(out
            .guardrail_events
            .iter()
            .any(|e| e.contains("corruption")));
        assert_eq!(out.epochs[1].ladder_level, 0, "demotion lands next epoch");
        assert_eq!(out.epochs[2].ladder_level, 1);
        // Probation (6 clean epochs) passes and control re-promotes to
        // the fresh Hybrid bootstrap before the burst ends.
        assert!(out
            .guardrail_events
            .iter()
            .any(|e| e.contains("re-promoted")));
        assert_eq!(out.epochs.last().unwrap().ladder_level, 0);
        // The failover never violates the Normal floor or the books.
        assert!(out.floor_held, "speedup {}", out.speedup_vs_normal);
        assert_eq!(out.grid_overload_wh, 0.0);
        assert!(
            out.audit_violations.is_empty(),
            "{:?}",
            out.audit_violations
        );
        // Deterministic: same plan, same bytes.
        let again = Engine::new(cfg).run();
        assert_eq!(json(&out), json(&again));
    }

    #[test]
    fn quarantine_sidecar_lands_in_the_configured_dir() {
        let dir = std::env::temp_dir().join(format!("gs-engine-quar-{}", std::process::id()));
        let dir_s = dir.display().to_string();
        let mut cfg = EngineConfig {
            fault_plan: Some(poison_at_epoch_1()),
            ..guarded_hybrid_cfg()
        };
        cfg.guardrail.quarantine_dir = Some(dir_s.clone());
        let out = Engine::new(cfg).run();
        assert_eq!(out.quarantined_tables, 1);
        let files: Vec<_> = std::fs::read_dir(&dir)
            .expect("quarantine dir exists")
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(files.len(), 1, "{files:?}");
        assert!(files[0].starts_with("qtable-e1-"), "{files:?}");
        let text = std::fs::read_to_string(dir.join(&files[0])).unwrap();
        let rec = crate::guardrail::QuarantineRecord::from_json(&text).unwrap();
        // The captured table carries the poison signature and is
        // loadable for forensics but rejected for reuse.
        let learner = crate::qlearning::QLearner::from_json_unchecked(&rec.policy).unwrap();
        assert!(learner.table_stats().non_finite > 0);
        assert!(crate::qlearning::QLearner::from_json(&rec.policy).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_resume_is_byte_identical_across_a_failover() {
        let cfg = EngineConfig {
            fault_plan: Some(poison_at_epoch_1()),
            ..guarded_hybrid_cfg()
        };
        let (want_out, want_mon, want_pol) = Engine::new(cfg.clone()).run_full();
        assert!(want_out.failover_epochs > 0, "fixture must fail over");

        let mut snaps = Vec::new();
        let (out, ..) = Engine::new(cfg)
            .run_full_with_snapshots(3, &mut |s| snaps.push(s.clone()))
            .unwrap();
        assert_eq!(json(&out), json(&want_out), "snapshotting changed the run");
        // Resume from every boundary — before, during, and after the
        // failover window — and converge on the same bytes.
        for snap in snaps {
            let snap = EngineSnapshot::from_json(&snap.to_json()).unwrap();
            match resume_snapshot(snap, 0, &mut |_| {}).unwrap() {
                ResumedRun::Burst {
                    outcome,
                    monitor,
                    policy,
                } => {
                    assert_eq!(json(&outcome), json(&want_out));
                    assert_eq!(json(&monitor), json(&want_mon));
                    assert_eq!(policy, want_pol);
                }
                other => panic!("expected a burst, got {other:?}"),
            }
        }
    }

    /// A 10-server analytic Hybrid burst under the guardrail and the
    /// no-PCM package, long enough to throttle, whose fault plan reaches
    /// every part of the loop's state.
    fn every_field_cfg() -> EngineConfig {
        let at = |mins: u64, span_mins: u64, kind: FaultKind| FaultEvent {
            at: SimTime::from_hours(11) + SimDuration::from_mins(mins),
            duration: SimDuration::from_mins(span_mins),
            kind,
        };
        EngineConfig {
            green: GreenConfig {
                name: "RE-Batt-10".into(),
                green_servers: 10,
                panels: 10,
                battery_ah: 10.0,
            },
            thermal: ThermalModel::NoPcm,
            burst_duration: SimDuration::from_mins(30),
            fault_plan: Some(FaultPlan::new(vec![
                at(2, 1, FaultKind::BatteryFade { factor: 0.25 }),
                at(4, 2, FaultKind::ReSensorDropout),
                at(7, 2, FaultKind::TelemetryDelay),
                at(10, 1, FaultKind::QTablePoison { magnitude: 1e9 }),
                at(
                    12,
                    1,
                    FaultKind::ServerCrash {
                        server: 3,
                        down_epochs: 2,
                    },
                ),
                at(16, 4, FaultKind::ServerFlap { server: 5 }),
                at(
                    0,
                    30,
                    FaultKind::ServerStraggler {
                        server: 7,
                        goodput_factor: 0.6,
                    },
                ),
                at(20, 5, FaultKind::CoreActivationFail { max_cores: 8 }),
            ])),
            ..guarded_hybrid_cfg()
        }
    }

    /// What the loop would capture before its first epoch.
    fn fresh_capture(cfg: &EngineConfig) -> LoopState {
        let app = cfg.app.profile();
        let trace = cfg.availability.trace(cfg.seed);
        let start = SimTime::from_secs_f64(cfg.burst_start_hour * 3_600.0);
        let end = start + cfg.burst_duration;
        let burst = BurstPattern::intensity(&app, cfg.burst_intensity_cores, start, end);
        let window = RunWindow {
            offered_rps: &|t| burst.offered_rps(t),
            trace: &trace,
            start,
            duration: cfg.burst_duration,
        };
        let mut scratch = EngineScratch::new();
        let profiles = ProfileTable::cached(cfg.app);
        EpochLoop::new(cfg, cfg.strategy, profiles, &window, &mut scratch).capture()
    }

    #[test]
    fn resume_from_every_boundary_of_a_run_that_changes_every_field() {
        let cfg = every_field_cfg();
        let (want_out, want_mon, want_pol) = Engine::new(cfg.clone()).run_full();
        assert!(
            want_out.thermal_throttle_epochs > 0,
            "the burst must throttle"
        );
        assert!(
            want_out.quarantined_tables > 0,
            "the poison must quarantine"
        );
        let mut snaps = Vec::new();
        Engine::new(cfg.clone())
            .run_full_with_snapshots(1, &mut |s| snaps.push(s.clone()))
            .unwrap();

        // Every field moves off its fresh value in some capture, so a
        // field that resume dropped would show up below.
        let serde_json::Value::Object(fresh) = serde_json::to_value(&fresh_capture(&cfg)).unwrap()
        else {
            panic!("a state serializes to an object");
        };
        let mut captures: Vec<serde_json::Value> = snaps
            .iter()
            .filter(|s| s.phase == RunPhase::Strategy)
            .map(|s| serde_json::to_value(&s.state).unwrap())
            .collect();
        assert_eq!(captures.len() as u64, want_out.epochs.len() as u64 - 1);
        // The fields that cannot move in this run, and why.
        let unmoved = [
            // Hybrid at the paper's ε = 0 draws no decision randomness,
            // and analytic measurement none either: the stream stays
            // where the per-server forks left it.
            "rng",
            // A burst keeps sprint-worthy demand pending in every epoch,
            // which defers grid recharge to after the burst.
            "in_burst_grid_recharge_wh",
            // A healthy run records no invariant violations.
            "audit_violations",
        ];
        for (name, fresh_value) in &fresh {
            let moved = captures.iter_mut().any(|c| member(c, name) != fresh_value);
            let excused = unmoved.contains(&name.as_str());
            assert!(
                moved != excused,
                "`{name}`: moved {moved}, excused {excused}"
            );
        }

        for snap in snaps {
            let snap = EngineSnapshot::from_json(&snap.to_json()).unwrap();
            let k = snap.state.next_epoch;
            match resume_snapshot(snap, 0, &mut |_| {}).unwrap() {
                ResumedRun::Burst {
                    outcome,
                    monitor,
                    policy,
                } => {
                    assert_eq!(json(&outcome), json(&want_out), "resumed at {k}");
                    assert_eq!(json(&monitor), json(&want_mon), "resumed at {k}");
                    assert_eq!(policy, want_pol, "resumed at {k}");
                }
                other => panic!("expected a burst, got {other:?}"),
            }
        }
    }

    #[test]
    fn guardrail_supervises_non_learned_strategies_too() {
        // Greedy has no Q-table to poison, but the ladder still arms for
        // its comparative detectors; a healthy run never triggers.
        let cfg = EngineConfig {
            strategy: Strategy::Greedy,
            ..guarded_hybrid_cfg()
        };
        let out = Engine::new(cfg).run();
        assert_eq!(out.quarantined_tables, 0);
        assert_eq!(out.failover_epochs, 0, "events: {:?}", out.guardrail_events);
        assert!(out.floor_held);
    }
}
