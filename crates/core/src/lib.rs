//! # greensprint — renewable-energy-driven computational sprinting
//!
//! The paper's primary contribution (Fig. 3): a controller that lets a
//! green data center sprint through workload bursts on renewable power,
//! batteries, and — as a bounded last resort — the grid.
//!
//! * [`config`] — the green-provisioning options of Table I and the
//!   renewable-availability levels of the evaluation.
//! * [`profiler`] — the a-priori `LoadPower(L, S)` / performance tables the
//!   paper collects "using an exhaustive method on real servers".
//! * [`monitor`] — the Monitor: power and performance observation streams.
//! * [`predictor`] — the Predictor: EWMA forecasts of renewable supply and
//!   workload intensity (paper Eq. 1, α = 0.3).
//! * [`qlearning`] — the tabular reinforcement learner behind *Hybrid*
//!   (paper Algorithm 1).
//! * [`pmk`] — the Power Management Knob strategies: Normal, Greedy,
//!   Parallel, Pacing, Hybrid.
//! * [`engine`] — the scheduling-epoch engine tying PSS, PMK, batteries,
//!   solar supply, and the workload measurement plane together.
//!
//! ## Quick start
//!
//! ```
//! use greensprint::config::{AvailabilityLevel, GreenConfig};
//! use greensprint::engine::{Engine, EngineConfig};
//! use greensprint::pmk::Strategy;
//! use gs_sim::SimDuration;
//! use gs_workload::apps::Application;
//!
//! let cfg = EngineConfig {
//!     app: Application::SpecJbb,
//!     green: GreenConfig::re_batt(),
//!     strategy: Strategy::Hybrid,
//!     availability: AvailabilityLevel::Medium,
//!     burst_duration: SimDuration::from_mins(10),
//!     burst_intensity_cores: 12,
//!     seed: 42,
//!     ..EngineConfig::default()
//! };
//! let outcome = Engine::new(cfg).run();
//! assert!(outcome.speedup_vs_normal > 1.0);
//! ```

pub mod audit;
pub mod broker;
pub mod campaign;
pub mod checkpoint;
pub mod cluster_view;
pub mod config;
pub mod datacenter;
pub mod engine;
pub mod faults;
pub mod fleet;
pub mod guardrail;
pub mod monitor;
pub mod net;
pub mod pmk;
pub mod predictor;
pub mod profiler;
pub mod qlearning;
mod rack;
pub mod report;
pub mod serve;
pub mod supervisor;
pub mod sweep;

pub use audit::{EpochFlows, InvariantAuditor, SiteFlows};
pub use broker::{
    resume_datacenter_snapshot, run_datacenter_with_snapshots, try_run_datacenter, BrokerState,
    DatacenterSnapshot, RackBelief, RackRouteStats,
};
pub use campaign::{
    run_campaign, try_run_campaign, try_run_campaign_with_snapshots, CampaignConfig,
    CampaignOutcome,
};
pub use checkpoint::{
    decode, encode, fingerprint, journal_fingerprint, points_digest, write_atomic, EngineSnapshot,
    Journal, JournalError, JournalHeader, LoadedJournal, LoopState, MainCarry, RunPhase,
    SnapshotError, SnapshotPayload, SnapshotScope,
};
pub use cluster_view::{run_cluster, ClusterOutcome, GridSprintPolicy};
pub use config::{AvailabilityLevel, GreenConfig};
pub use datacenter::{run_datacenter, DatacenterConfig, DatacenterOutcome, RackSpec};
pub use engine::{resume_snapshot, ResumedRun};
pub use engine::{
    BurstOutcome, Engine, EngineConfig, EngineError, MeasurementMode, PredictorKind, ThermalModel,
};
pub use faults::{ActiveFaults, FaultEvent, FaultKind, FaultPlan};
pub use fleet::EngineScratch;
pub use guardrail::{
    ladder_for, EpochSignals, Guardrail, GuardrailAction, GuardrailConfig, GuardrailState,
    QuarantineRecord,
};
pub use monitor::Monitor;
pub use net::{
    admin_request, parse_frame, run_fault_plan, subscribe_collect, NetAddrs, NetConfig, NetFaultOp,
    NetFaultPlan, NetHarnessReport, NetPlane, NetSummary, RackStat,
};
pub use pmk::Strategy;
pub use predictor::{ClearSkyIndexedPredictor, Predictor};
pub use profiler::ProfileTable;
pub use qlearning::{PolicyError, QLearner, TableStats};
pub use serve::{
    serve, ControlBackend, DirectiveRow, DisturbancePlan, OverrunPolicy, ServeArgs,
    ServeDcSideState, ServeEngineState, ServeError, ServeOptions, ServeSnapshot, ServeSummary,
};
pub use supervisor::{
    epoch_budget, panic_message, run_supervised_sweep, FailureRecord, RackHealth, RackSupervisor,
    RetryRecord, SupervisorPolicy, SweepReport,
};
pub use sweep::{
    default_jobs, derive_seed, run_sweep, run_sweep_streaming, SweepOutcome, SweepPoint,
    SweepResult, SweepTask,
};

/// Everything a sweep-driving binary or notebook needs, in one import.
pub mod prelude {
    pub use crate::audit::{EpochFlows, InvariantAuditor, SiteFlows};
    pub use crate::broker::{
        resume_datacenter_snapshot, run_datacenter_with_snapshots, try_run_datacenter, BrokerState,
        DatacenterSnapshot, RackRouteStats,
    };
    pub use crate::campaign::{run_campaign, try_run_campaign, CampaignConfig, CampaignOutcome};
    pub use crate::checkpoint::{
        journal_fingerprint, EngineSnapshot, Journal, JournalError, JournalHeader, LoadedJournal,
    };
    pub use crate::config::{AvailabilityLevel, GreenConfig};
    pub use crate::datacenter::{run_datacenter, DatacenterConfig, DatacenterOutcome, RackSpec};
    pub use crate::engine::{resume_snapshot, ResumedRun};
    pub use crate::engine::{
        BurstOutcome, Engine, EngineConfig, EngineError, MeasurementMode, ThermalModel,
    };
    pub use crate::faults::{ActiveFaults, FaultEvent, FaultKind, FaultPlan};
    pub use crate::guardrail::{Guardrail, GuardrailConfig, GuardrailState, QuarantineRecord};
    pub use crate::net::{
        admin_request, run_fault_plan, subscribe_collect, NetAddrs, NetConfig, NetFaultPlan,
        NetPlane, NetSummary, RackStat,
    };
    pub use crate::pmk::Strategy;
    pub use crate::profiler::ProfileTable;
    pub use crate::qlearning::{PolicyError, QLearner};
    pub use crate::supervisor::{
        epoch_budget, run_supervised_sweep, RackHealth, RackSupervisor, SupervisorPolicy,
        SweepReport,
    };
    pub use crate::sweep::{
        default_jobs, derive_seed, run_sweep, run_sweep_streaming, SweepOutcome, SweepPoint,
        SweepResult, SweepTask,
    };
}
