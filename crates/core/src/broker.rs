//! The datacenter broker: deterministic cross-rack load balancing with
//! site-level fault domains.
//!
//! The paper provisions renewables "on the PDU level … in a data center on
//! a per-rack basis" (§II). [`crate::datacenter`] runs those racks as
//! independent experiments; this module makes them a *fleet*: a broker
//! steps every rack through the scheduling-epoch loop in lockstep and
//! routes the datacenter's offered load toward the racks with renewable
//! surplus, while tolerating the site-level failures a real control plane
//! sees — rack blackouts, inverter derates, broker↔rack partitions, lossy
//! and laggy links ([`crate::faults::FaultKind::RackBlackout`] and
//! friends).
//!
//! # Architecture
//!
//! Each rack is a worker of the rack runtime (`rack.rs`) — the
//! unmodified engine epoch loop on its own OS thread: at the top of every
//! epoch the rack blocks on a broker *directive* (its routed load factor
//! for the epoch), and after the epoch settles it reports telemetry
//! (believed supply, battery state of charge, live servers, demand) back
//! to the broker. The rack runtime is shared with `serve --racks N`; what
//! is the broker's own is the site-fault directive policy. The broker:
//!
//! 1. computes a *conserved* allocation — per-rack load factors summing
//!    exactly to the rack count — from last epoch's telemetry, favouring
//!    racks with renewable surplus;
//! 2. pushes each directive through a simulated control link (partition,
//!    loss with seeded retries and [`crate::supervisor::backoff_ms`]
//!    virtual latency, delay serving stale factors);
//! 3. collects telemetry in rack-index order and audits the settled epoch
//!    with [`crate::audit::InvariantAuditor::check_site_epoch`].
//!
//! A partitioned rack receives nothing and degrades to *local autonomy*:
//! it holds its last-good factor, which by construction keeps it at or
//! above the Normal floor (the Normal baseline replays the identical
//! applied factors). After the link heals the rack stays pinned for
//! [`crate::engine::REJOIN_EPOCHS`] probationary epochs — mirroring the
//! fleet's server-rejoin hysteresis — before fresh allocations resume.
//!
//! # Determinism and durability
//!
//! Results are byte-identical at any `jobs` level: concurrency only bounds
//! how many racks compute an epoch simultaneously (a counting gate), while
//! every RNG draw and every aggregation happens on the broker thread in
//! rack-index order. Mid-run [`DatacenterSnapshot`]s capture the broker
//! state plus every rack's [`LoopState`] at the same epoch boundary, so a
//! run killed mid-partition resumes to a byte-identical outcome.

use crate::checkpoint::{decode, encode, LoopState, SnapshotError, SnapshotPayload};
use crate::datacenter::{DatacenterConfig, DatacenterOutcome};
use crate::engine::{BurstOutcome, EngineConfig, MeasurementMode, REJOIN_EPOCHS};
use crate::faults::{FaultEvent, FaultKind, FaultPlan};
pub use crate::rack::RackBelief;
use crate::rack::{
    judge_racks, rack_seed, settle_site_epoch, DirectiveRow, JobGate, RackDirective, RackWorker,
};
use crate::supervisor::backoff_ms;
use gs_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// EWMA-style smoothing weight on the surplus-driven share: a factor is
/// `(1 − β)` of an even split plus `β` of the rack's surplus share, so
/// routing follows the sun without whiplashing the fleet.
const ROUTE_BETA: f64 = 0.3;
/// Watts of routable surplus one fully charged battery is credited with
/// when scoring racks (battery headroom counts toward surplus, scaled by
/// state of charge and rack size).
const SOC_WEIGHT_W: f64 = 50.0;
/// Directive retransmissions the broker attempts on a lossy link before
/// declaring the epoch's directive lost.
const LINK_RETRIES: u32 = 3;
/// Salt for the broker's link-loss RNG stream ("link!"), keeping it
/// decorrelated from every engine and generator stream.
const LINK_SALT: u64 = 0x006c_696e_6b21;

/// Per-rack routing statistics, summarized into the outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RackRouteStats {
    /// Mean applied load factor over the run.
    pub mean_factor: f64,
    /// Smallest applied load factor in any epoch.
    pub min_factor: f64,
    /// Largest applied load factor in any epoch.
    pub max_factor: f64,
    /// Epochs this rack spent partitioned from the broker.
    pub partition_epochs: usize,
    /// Epochs this rack ran degraded (partitioned, on probation, or with
    /// its directive lost) — applying a held factor instead of a fresh
    /// allocation.
    pub degraded_epochs: usize,
}

/// Every piece of mutable state the broker carries across epochs.
/// Snapshotting it alongside each rack's [`LoopState`] and restoring both
/// later continues the datacenter run byte-identically.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BrokerState {
    /// The next epoch index to execute.
    pub next_epoch: u64,
    /// The link-loss RNG stream position.
    pub link_rng: SimRng,
    /// Per-rack beliefs from the latest telemetry.
    pub beliefs: Vec<RackBelief>,
    /// True once the first epoch's telemetry has been ingested.
    pub has_telemetry: bool,
    /// Per-rack pinned factor while partitioned or on rejoin probation.
    pub pinned: Vec<Option<f64>>,
    /// Per-rack probationary epochs left before rejoining routing.
    pub probation_left: Vec<u32>,
    /// Computed (conserved) factors, one row per epoch.
    pub computed: Vec<Vec<f64>>,
    /// Applied factors — what each rack actually ran — one row per epoch.
    pub applied: Vec<Vec<f64>>,
    /// Per-rack epochs spent partitioned.
    pub per_rack_partition: Vec<usize>,
    /// Per-rack epochs spent degraded (partition + probation + lost
    /// directives).
    pub per_rack_degraded: Vec<usize>,
    /// Rack-epochs spent inside an active blackout event.
    pub blackout_epochs: usize,
    /// Rack-epochs that applied a stale (link-delayed) factor.
    pub stale_factor_epochs: usize,
    /// Epochs in which load was re-routed away from a drained rack.
    pub rerouted_epochs: usize,
    /// Directive retransmissions attempted on lossy links.
    pub link_retries: usize,
    /// Virtual retransmission latency accumulated from
    /// [`backoff_ms`] (bookkeeping only — never part of results timing).
    pub link_latency_ms: u64,
    /// Racks re-admitted to routing after probation.
    pub rejoins: usize,
    /// Human-readable partition/degrade/rejoin log.
    pub site_events: Vec<String>,
    /// Site-level audit violations so far.
    pub site_audit_violations: Vec<String>,
}

impl BrokerState {
    /// A fresh broker for `n` racks under `master_seed`.
    fn fresh(n: usize, master_seed: u64) -> Self {
        BrokerState {
            next_epoch: 0,
            link_rng: SimRng::seed_from_u64(master_seed ^ LINK_SALT),
            beliefs: Vec::new(),
            has_telemetry: false,
            pinned: vec![None; n],
            probation_left: vec![0; n],
            computed: Vec::new(),
            applied: Vec::new(),
            per_rack_partition: vec![0; n],
            per_rack_degraded: vec![0; n],
            blackout_epochs: 0,
            stale_factor_epochs: 0,
            rerouted_epochs: 0,
            link_retries: 0,
            link_latency_ms: 0,
            rejoins: 0,
            site_events: Vec::new(),
            site_audit_violations: Vec::new(),
        }
    }
}

/// A resumable mid-run checkpoint of a datacenter run: the broker state
/// plus every rack's engine [`LoopState`], captured at the same epoch
/// boundary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatacenterSnapshot {
    /// The full datacenter configuration, embedded so resume is
    /// self-contained.
    pub cfg: DatacenterConfig,
    /// The broker's state as of the snapshot epoch.
    pub broker: BrokerState,
    /// Each rack's engine loop state, in rack order.
    pub racks: Vec<LoopState>,
}

impl SnapshotPayload for DatacenterSnapshot {
    const SCHEMA: &'static str = "gs-datacenter-2";
    type Config = DatacenterConfig;
    fn config(&self) -> &DatacenterConfig {
        &self.cfg
    }
}

impl DatacenterSnapshot {
    /// Encode as a snapshot file's text ([`encode`]); never fails.
    pub fn to_json(&self) -> Result<String, String> {
        Ok(encode(self))
    }

    /// Decode a snapshot file's text ([`decode`]).
    pub fn from_json(json: &str) -> Result<Self, SnapshotError> {
        decode(json)
    }
}

/// The engine configuration rack `i` of `cfg` runs: the rack's
/// app/green/strategy over the template, the decorrelated-but-reproducible
/// per-rack seed, and the rack's translated fault plan.
pub(crate) fn rack_engine_config(cfg: &DatacenterConfig, i: usize) -> EngineConfig {
    let rack = &cfg.racks[i];
    EngineConfig {
        app: rack.app,
        green: rack.green.clone(),
        strategy: rack.strategy,
        seed: rack_seed(cfg.template.seed, i),
        fault_plan: translate_plan(cfg, i),
        ..cfg.template.clone()
    }
}

/// Build rack `i`'s engine-level fault plan from the template plan plus
/// the site plan: site kinds targeting this rack translate to engine
/// kinds (blackout → per-server crashes, derate → inverter derate),
/// rack-local kinds in the site plan replicate to every rack, and the
/// broker-side kinds (partition, link loss/delay) stay out of the engine
/// entirely.
fn translate_plan(cfg: &DatacenterConfig, rack: usize) -> Option<FaultPlan> {
    let n_servers = cfg.racks[rack].green.green_servers;
    let mut events: Vec<FaultEvent> = cfg
        .template
        .fault_plan
        .as_ref()
        .map(|p| p.events.clone())
        .unwrap_or_default();
    let mut seed = cfg.template.fault_plan.as_ref().map_or(0, |p| p.seed);
    if let Some(site) = &cfg.site_fault_plan {
        if !site.events.is_empty() {
            seed = site.seed;
        }
        for e in &site.events {
            match e.kind {
                FaultKind::RackBlackout { rack: r, epochs } if usize::from(r) == rack => {
                    // Server indices are u8; DatacenterConfig::validate
                    // bounds blackout-target rack sizes accordingly.
                    for s in 0..n_servers.min(usize::from(u8::MAX) + 1) {
                        events.push(FaultEvent {
                            at: e.at,
                            duration: e.duration,
                            kind: FaultKind::ServerCrash {
                                server: s as u8,
                                down_epochs: epochs,
                            },
                        });
                    }
                }
                FaultKind::RackInverterDerate { rack: r, factor } if usize::from(r) == rack => {
                    events.push(FaultEvent {
                        at: e.at,
                        duration: e.duration,
                        kind: FaultKind::InverterDerate { factor },
                    });
                }
                ref k if k.is_site() => {} // other racks', or broker-side
                _ => events.push(*e),      // rack-local kinds replicate
            }
        }
    }
    (!events.is_empty()).then_some(FaultPlan { seed, events })
}

/// The epoch index containing `at` (clamped to the window start).
fn epoch_of(at: SimTime, start: SimTime, epoch: SimDuration) -> u64 {
    at.since(start).div_duration(epoch).unwrap_or(0)
}

/// True if a [`FaultKind::BrokerPartition`] on `rack` covers epoch `k`.
/// Epoch-counted faults start at the epoch containing the event start.
fn partitioned(site: &FaultPlan, k: u64, rack: usize, start: SimTime, epoch: SimDuration) -> bool {
    site.events.iter().any(|e| match e.kind {
        FaultKind::BrokerPartition { rack: r, epochs } if usize::from(r) == rack => {
            let e0 = epoch_of(e.at, start, epoch);
            k >= e0 && k < e0.saturating_add(u64::from(epochs))
        }
        _ => false,
    })
}

/// True if a [`FaultKind::RackBlackout`] on `rack` covers epoch `k`.
fn blackout_active(
    site: &FaultPlan,
    k: u64,
    rack: usize,
    start: SimTime,
    epoch: SimDuration,
) -> bool {
    site.events.iter().any(|e| match e.kind {
        FaultKind::RackBlackout { rack: r, epochs } if usize::from(r) == rack => {
            let e0 = epoch_of(e.at, start, epoch);
            k >= e0 && k < e0.saturating_add(u64::from(epochs))
        }
        _ => false,
    })
}

/// The loss probability of the first [`FaultKind::LinkLoss`] event on
/// `rack` overlapping epoch `k`'s window, if any.
fn link_loss_p(
    site: &FaultPlan,
    k: u64,
    rack: usize,
    start: SimTime,
    epoch: SimDuration,
) -> Option<f64> {
    let from = start + SimDuration::from_micros(epoch.as_micros() * k);
    let to = from + epoch;
    site.events.iter().find_map(|e| match e.kind {
        FaultKind::LinkLoss { rack: r, p } if usize::from(r) == rack && e.overlaps(from, to) => {
            Some(p)
        }
        _ => None,
    })
}

/// The delivery lag of the first [`FaultKind::LinkDelay`] event on `rack`
/// overlapping epoch `k`'s window, if any.
fn link_delay(
    site: &FaultPlan,
    k: u64,
    rack: usize,
    start: SimTime,
    epoch: SimDuration,
) -> Option<u32> {
    let from = start + SimDuration::from_micros(epoch.as_micros() * k);
    let to = from + epoch;
    site.events.iter().find_map(|e| match e.kind {
        FaultKind::LinkDelay { rack: r, epochs }
            if usize::from(r) == rack && e.overlaps(from, to) =>
        {
            Some(epochs)
        }
        _ => None,
    })
}

/// Compute the conserved allocation for the next epoch from the current
/// beliefs: factors sum to exactly the rack count, dark racks get zero
/// (their load re-routes to survivors), and each survivor's share blends
/// an even split with its renewable-surplus share.
fn compute_factors(st: &BrokerState, cfg: &DatacenterConfig) -> Vec<f64> {
    let rack_servers: Vec<usize> = cfg.racks.iter().map(|r| r.green.green_servers).collect();
    conserved_factors(&st.beliefs, &rack_servers, st.has_telemetry)
}

/// The conserved-allocation core shared by the batch broker and
/// [`crate::serve`]'s multi-rack orchestrator: given per-rack beliefs
/// and rack sizes, produce factors summing to exactly the rack count,
/// with dark racks at zero and survivors blending an even split with
/// their renewable-surplus share.
pub(crate) fn conserved_factors(
    beliefs: &[RackBelief],
    rack_servers: &[usize],
    has_telemetry: bool,
) -> Vec<f64> {
    let n = beliefs.len();
    if !has_telemetry {
        return vec![1.0; n];
    }
    let scores: Vec<f64> = beliefs
        .iter()
        .enumerate()
        .map(|(r, b)| {
            if b.live_servers == 0 {
                0.0
            } else {
                let n_srv = rack_servers.get(r).copied().unwrap_or(1) as f64;
                let live_frac = b.live_servers as f64 / n_srv.max(1.0);
                (b.re_supply_w.max(0.0) + SOC_WEIGHT_W * b.battery_soc.clamp(0.0, 1.0) * n_srv)
                    * live_frac
            }
        })
        .collect();
    let alive: Vec<usize> = (0..n).filter(|&r| beliefs[r].live_servers > 0).collect();
    if alive.is_empty() {
        // The whole fleet is believed dark: there is nowhere to shed load,
        // so every rack keeps its nominal share.
        return vec![1.0; n];
    }
    let m = alive.len() as f64;
    let total: f64 = alive.iter().map(|&r| scores[r]).sum();
    let mut factors = vec![0.0; n];
    for &r in &alive {
        let share = if total > 0.0 {
            scores[r] / total
        } else {
            1.0 / m
        };
        factors[r] = n as f64 * ((1.0 - ROUTE_BETA) / m + ROUTE_BETA * share);
    }
    factors
}

/// Run the datacenter through the stepped broker without snapshots.
pub fn try_run_datacenter(
    cfg: &DatacenterConfig,
    jobs: usize,
) -> Result<DatacenterOutcome, String> {
    run_datacenter_with_snapshots(cfg, jobs, 0, &mut |_| {})
}

/// Run the datacenter through the stepped broker, emitting a resumable
/// [`DatacenterSnapshot`] at every `snapshot_every`-th epoch boundary
/// (0 = never). Snapshots capture the full controller state, which the
/// DES measurement plane cannot serialize — `snapshot_every > 0` requires
/// [`MeasurementMode::Analytic`].
pub fn run_datacenter_with_snapshots(
    cfg: &DatacenterConfig,
    jobs: usize,
    snapshot_every: u64,
    sink: &mut dyn FnMut(&DatacenterSnapshot),
) -> Result<DatacenterOutcome, String> {
    cfg.validate()?;
    run_stepped(cfg, jobs, snapshot_every, None, sink)
}

/// Resume a checkpointed datacenter run from its snapshot, finishing with
/// output byte-identical to the uninterrupted run. Continues emitting
/// snapshots at the same cadence through `sink`.
pub fn resume_datacenter_snapshot(
    snap: DatacenterSnapshot,
    jobs: usize,
    snapshot_every: u64,
    sink: &mut dyn FnMut(&DatacenterSnapshot),
) -> Result<DatacenterOutcome, String> {
    let cfg = snap.cfg.clone();
    cfg.validate()?;
    if snap.racks.len() != cfg.racks.len() || snap.broker.pinned.len() != cfg.racks.len() {
        return Err("checkpoint rack count does not match its configuration".to_string());
    }
    for (r, state) in snap.racks.iter().enumerate() {
        state
            .check_restorable(&rack_engine_config(&cfg, r))
            .map_err(|e| format!("rack {r}: {e}"))?;
    }
    run_stepped(
        &cfg,
        jobs,
        snapshot_every,
        Some((snap.broker, snap.racks)),
        sink,
    )
}

/// The broker loop over the rack runtime, then the per-rack baseline
/// replays. `resume` restarts from a snapshot's broker state and rack
/// loop states.
fn run_stepped(
    cfg: &DatacenterConfig,
    jobs: usize,
    snapshot_every: u64,
    resume: Option<(BrokerState, Vec<LoopState>)>,
    sink: &mut dyn FnMut(&DatacenterSnapshot),
) -> Result<DatacenterOutcome, String> {
    if snapshot_every > 0 && cfg.template.measurement != MeasurementMode::Analytic {
        return Err(
            "datacenter snapshots capture full controller state and require analytic \
             measurement mode"
                .to_string(),
        );
    }
    let n = cfg.racks.len();
    let jobs = jobs.max(1);
    let start = SimTime::from_secs_f64(cfg.template.burst_start_hour * 3_600.0);
    let epoch = cfg.template.epoch;
    let n_epochs = cfg.template.burst_duration.div_duration(epoch).unwrap_or(0);
    let rack_cfgs: Vec<EngineConfig> = (0..n).map(|i| rack_engine_config(cfg, i)).collect();
    let empty_site = FaultPlan::default();
    let site = cfg.site_fault_plan.as_ref().unwrap_or(&empty_site);

    let (mut st, rack_resume) = match resume {
        Some((broker, racks)) => (broker, Some(racks)),
        None => {
            let mut s = BrokerState::fresh(n, cfg.template.seed);
            s.beliefs = (0..n)
                .map(|r| RackBelief::initial(cfg.racks[r].green.green_servers))
                .collect();
            (s, None)
        }
    };
    let start_k = st.next_epoch;
    if let Some(states) = &rack_resume {
        if states.iter().any(|s| s.next_epoch != start_k) {
            return Err("checkpoint rack states are not aligned with the broker epoch".to_string());
        }
    }

    let gate = JobGate::new(jobs);
    let mut rack_resume = rack_resume.map(Vec::into_iter);
    let workers: Vec<RackWorker> = (0..n)
        .map(|r| {
            // On resume the rack's local-autonomy factor is the last
            // applied one, exactly what the uninterrupted rack thread
            // would be holding.
            let held = st.applied.last().map_or(1.0, |row| row[r]);
            let resume_r = rack_resume.as_mut().and_then(Iterator::next);
            RackWorker::spawn(
                r,
                &rack_cfgs[r],
                resume_r,
                Vec::new(),
                held,
                snapshot_every,
                &gate,
            )
        })
        .collect();

    // A rack death (panicked worker, closed channel, protocol slip) aborts
    // the epoch loop with the typed death message.
    let mut lockstep = || -> Result<(), String> {
        for k in start_k..n_epochs {
            // Snapshot boundary: every rack captures its LoopState at the
            // top of epoch k (before receiving the directive), so the
            // broker pairs those captures with its own pre-epoch-k state.
            if snapshot_every > 0 && k > start_k && k % snapshot_every == 0 {
                let racks = workers
                    .iter()
                    .map(|w| w.recv_capture(k))
                    .collect::<Result<_, _>>()?;
                sink(&DatacenterSnapshot {
                    cfg: cfg.clone(),
                    broker: st.clone(),
                    racks,
                });
            }

            let computed_k = compute_factors(&st, cfg);
            let mut applied_k = vec![0.0; n];
            for (r, w) in workers.iter().enumerate() {
                let prev_applied = st.applied.last().map_or(1.0, |row| row[r]);
                if blackout_active(site, k, r, start, epoch) {
                    st.blackout_epochs += 1;
                }
                // `None` is a lost directive: the rack degrades to local
                // autonomy and holds its last applied factor.
                let (load_factor, applied) = if partitioned(site, k, r, start, epoch) {
                    if st.pinned[r].is_none() {
                        st.pinned[r] = Some(prev_applied);
                        st.site_events.push(format!(
                            "epoch {k}: rack {r} partitioned from broker; local autonomy \
                             holds factor {prev_applied:.3}"
                        ));
                    }
                    st.probation_left[r] = REJOIN_EPOCHS;
                    st.per_rack_partition[r] += 1;
                    st.per_rack_degraded[r] += 1;
                    (None, prev_applied)
                } else if let Some(pin) = st.pinned[r] {
                    if st.probation_left[r] == REJOIN_EPOCHS {
                        st.site_events.push(format!(
                            "epoch {k}: rack {r} link healed; {REJOIN_EPOCHS} probationary \
                             epoch(s) at held factor {pin:.3}"
                        ));
                    }
                    st.probation_left[r] = st.probation_left[r].saturating_sub(1);
                    st.per_rack_degraded[r] += 1;
                    if st.probation_left[r] == 0 {
                        st.pinned[r] = None;
                        st.rejoins += 1;
                        st.site_events
                            .push(format!("epoch {k}: rack {r} rejoined routing"));
                    }
                    (Some(pin), pin)
                } else if let Some(p) = link_loss_p(site, k, r, start, epoch) {
                    let mut lost_all = true;
                    for attempt in 0..=LINK_RETRIES {
                        if !st.link_rng.chance(p) {
                            lost_all = false;
                            break;
                        }
                        if attempt < LINK_RETRIES {
                            st.link_retries += 1;
                            st.link_latency_ms += backoff_ms(attempt);
                        }
                    }
                    if lost_all {
                        st.per_rack_degraded[r] += 1;
                        st.site_events.push(format!(
                            "epoch {k}: rack {r} directive lost after {LINK_RETRIES} \
                             retries; local autonomy holds factor {prev_applied:.3}"
                        ));
                        (None, prev_applied)
                    } else {
                        (Some(computed_k[r]), computed_k[r])
                    }
                } else if let Some(d) = link_delay(site, k, r, start, epoch) {
                    st.stale_factor_epochs += 1;
                    let f = if k >= u64::from(d) {
                        let row = (k - u64::from(d)) as usize;
                        st.computed.get(row).map_or(1.0, |c| c[r])
                    } else {
                        1.0
                    };
                    (Some(f), f)
                } else {
                    (Some(computed_k[r]), computed_k[r])
                };
                applied_k[r] = applied;
                w.send(
                    k,
                    RackDirective {
                        load_factor,
                        ..RackDirective::default()
                    },
                )?;
            }
            st.computed.push(computed_k);
            st.applied.push(applied_k);

            // Telemetry in rack-index order: the aggregation order — not
            // thread completion order — defines the result.
            for (r, w) in workers.iter().enumerate() {
                let (rec, _) = w.recv_report(k)?;
                if partitioned(site, k, r, start, epoch) {
                    // The partition blocks both directions: hold the
                    // last-good belief, marked stale.
                    st.beliefs[r].stale = true;
                } else {
                    st.beliefs[r] = RackBelief::from_record(&rec);
                }
            }
            st.has_telemetry = true;

            // "Dark" for the zero-draw invariant means *inside an active
            // blackout*: after the outage, servers on rejoin probation
            // draw power without carrying load, which is correct
            // behaviour, not a violation. A stale (partition-held) belief
            // cannot attest either way, so it is skipped.
            let dark = (0..n)
                .map(|r| blackout_active(site, k, r, start, epoch) && !st.beliefs[r].stale)
                .collect();
            let factors = st.computed.last().map_or(&[][..], Vec::as_slice);
            if settle_site_epoch(k, factors, &st.beliefs, dark, &mut st.site_audit_violations) {
                st.rerouted_epochs += 1;
            }
            st.next_epoch = k + 1;
        }
        Ok(())
    };
    let stepped = lockstep();
    // Joining releases any rack still waiting for a directive, so every
    // thread is reaped before the error (if any) is reported.
    let mains: Vec<Option<BurstOutcome>> = workers.into_iter().map(RackWorker::join).collect();
    stepped?;
    if let Some(r) = mains.iter().position(Option::is_none) {
        return Err(format!("rack {r} died after its final report"));
    }

    // Baseline phase: replay each rack's applied factors under Normal so
    // the floor judgment is like-for-like through site faults. Bounded by
    // the same jobs level; snapshots cover the strategy phase only — a
    // resume re-runs the (deterministic) baselines.
    let rows: Vec<DirectiveRow> = st
        .applied
        .iter()
        .cloned()
        .map(DirectiveRow::routing)
        .collect();
    let outcomes: Vec<BurstOutcome> = judge_racks(&rack_cfgs, mains, &rows, jobs)?
        .into_iter()
        .flatten()
        .collect();

    let route_stats: Vec<RackRouteStats> = (0..n)
        .map(|r| {
            let col: Vec<f64> = st.applied.iter().map(|row| row[r]).collect();
            let sum: f64 = col.iter().sum();
            RackRouteStats {
                mean_factor: if col.is_empty() {
                    1.0
                } else {
                    sum / col.len() as f64
                },
                min_factor: col.iter().copied().fold(f64::INFINITY, f64::min),
                max_factor: col.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                partition_epochs: st.per_rack_partition[r],
                degraded_epochs: st.per_rack_degraded[r],
            }
        })
        .collect();

    let mean_speedup =
        outcomes.iter().map(|o| o.speedup_vs_normal).sum::<f64>() / outcomes.len() as f64;
    Ok(DatacenterOutcome {
        mean_speedup,
        re_used_wh: outcomes.iter().map(|o| o.re_used_wh).sum(),
        battery_used_wh: outcomes.iter().map(|o| o.battery_used_wh).sum(),
        curtailed_wh: outcomes.iter().map(|o| o.curtailed_wh).sum(),
        racks: outcomes,
        partition_epochs: st.per_rack_partition.iter().sum(),
        degraded_epochs: st.per_rack_degraded.iter().sum(),
        blackout_epochs: st.blackout_epochs,
        stale_factor_epochs: st.stale_factor_epochs,
        rerouted_epochs: st.rerouted_epochs,
        link_retries: st.link_retries,
        link_latency_ms: st.link_latency_ms,
        rejoins: st.rejoins,
        site_events: st.site_events,
        site_audit_violations: st.site_audit_violations,
        route_stats,
        factors: st.computed,
        applied_factors: st.applied,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AvailabilityLevel, GreenConfig};
    use crate::datacenter::{DatacenterConfig, RackSpec};
    use crate::pmk::Strategy;
    use crate::rack::REROUTE_EPS;
    use gs_workload::apps::Application;

    fn template() -> EngineConfig {
        EngineConfig {
            availability: AvailabilityLevel::Maximum,
            burst_duration: SimDuration::from_mins(10),
            measurement: MeasurementMode::Analytic,
            seed: 17,
            ..EngineConfig::default()
        }
    }

    fn fleet(n: usize) -> DatacenterConfig {
        DatacenterConfig {
            racks: (0..n)
                .map(|i| RackSpec {
                    app: Application::ALL[i % 3],
                    green: GreenConfig::re_batt(),
                    strategy: Strategy::Hybrid,
                })
                .collect(),
            template: template(),
            site_fault_plan: None,
        }
    }

    /// A site event starting `mins` minutes into the burst.
    fn site_event(mins: u64, kind: FaultKind) -> FaultEvent {
        FaultEvent {
            at: SimTime::from_hours(11) + SimDuration::from_mins(mins),
            duration: SimDuration::from_mins(2),
            kind,
        }
    }

    #[test]
    fn site_plans_translate_per_rack() {
        let mut cfg = fleet(3);
        cfg.site_fault_plan = Some(FaultPlan::new(vec![
            site_event(1, FaultKind::RackBlackout { rack: 1, epochs: 2 }),
            site_event(
                3,
                FaultKind::RackInverterDerate {
                    rack: 0,
                    factor: 0.5,
                },
            ),
            site_event(4, FaultKind::BrokerPartition { rack: 2, epochs: 2 }),
            site_event(5, FaultKind::ReSensorDropout),
        ]));
        // Rack 0: the derate, plus the replicated rack-local dropout.
        let p0 = translate_plan(&cfg, 0).unwrap();
        assert_eq!(p0.events.len(), 2);
        assert!(matches!(
            p0.events[0].kind,
            FaultKind::InverterDerate { factor } if factor == 0.5
        ));
        assert!(matches!(p0.events[1].kind, FaultKind::ReSensorDropout));
        // Rack 1: one crash per server from the blackout, plus the dropout.
        let p1 = translate_plan(&cfg, 1).unwrap();
        let crashes: Vec<_> = p1
            .events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::ServerCrash {
                    server,
                    down_epochs,
                } => Some((server, down_epochs)),
                _ => None,
            })
            .collect();
        assert_eq!(crashes.len(), cfg.racks[1].green.green_servers);
        assert!(crashes.iter().all(|&(_, d)| d == 2));
        // Rack 2: the partition stays broker-side — only the dropout.
        let p2 = translate_plan(&cfg, 2).unwrap();
        assert_eq!(p2.events.len(), 1);
        assert!(matches!(p2.events[0].kind, FaultKind::ReSensorDropout));
        // Every translated plan passes engine validation.
        for i in 0..3 {
            rack_engine_config(&cfg, i).validate().unwrap();
        }
    }

    #[test]
    fn blackout_reroutes_load_within_two_epochs() {
        let mut cfg = fleet(3);
        cfg.site_fault_plan = Some(FaultPlan::new(vec![site_event(
            2,
            FaultKind::RackBlackout { rack: 1, epochs: 3 },
        )]));
        let out = try_run_datacenter(&cfg, 4).unwrap();
        assert!(
            out.site_audit_violations.is_empty(),
            "{:?}",
            out.site_audit_violations
        );
        assert!(out.blackout_epochs >= 3, "{}", out.blackout_epochs);
        // The blackout lands at epoch 2; within two epochs the broker must
        // have drained the dark rack and shifted its share to survivors.
        let drained = out
            .factors
            .iter()
            .enumerate()
            .find(|(_, row)| row[1] <= REROUTE_EPS);
        let (k, row) = drained.expect("dark rack never drained");
        assert!(k <= 4, "drained only at epoch {k}");
        assert!(
            row[0] > 1.0 + REROUTE_EPS && row[2] > 1.0 + REROUTE_EPS,
            "{row:?}"
        );
        assert!(out.rerouted_epochs >= 1);
        // Conservation holds every epoch, dark or not.
        for (k, row) in out.factors.iter().enumerate() {
            let sum: f64 = row.iter().sum();
            assert!((sum - 3.0).abs() < 1e-9, "epoch {k}: {row:?}");
        }
        // Every rack still holds its Normal floor, judged like-for-like.
        for (r, o) in out.racks.iter().enumerate() {
            assert!(
                o.floor_held,
                "rack {r} broke the floor: {}",
                o.speedup_vs_normal
            );
        }
    }

    #[test]
    fn partition_degrades_to_local_autonomy_then_rejoins() {
        let mut cfg = fleet(3);
        cfg.site_fault_plan = Some(FaultPlan::new(vec![site_event(
            2,
            FaultKind::BrokerPartition { rack: 1, epochs: 2 },
        )]));
        let out = try_run_datacenter(&cfg, 2).unwrap();
        assert!(
            out.site_audit_violations.is_empty(),
            "{:?}",
            out.site_audit_violations
        );
        // Two partitioned epochs, then REJOIN_EPOCHS of probation.
        assert_eq!(out.partition_epochs, 2);
        assert_eq!(
            out.degraded_epochs,
            2 + REJOIN_EPOCHS as usize,
            "events: {:?}",
            out.site_events
        );
        assert_eq!(out.rejoins, 1);
        // Local autonomy: the rack held its last-delivered factor through
        // the partition and the probation window (epochs 2..=6).
        let held = out.applied_factors[1][1];
        for k in 2..=6usize {
            assert_eq!(out.applied_factors[k][1], held, "epoch {k}");
        }
        // After rejoin the broker's fresh allocation flows again.
        assert_eq!(out.applied_factors[7][1], out.factors[7][1]);
        let log = out.site_events.join("\n");
        assert!(log.contains("partitioned"), "{log}");
        assert!(log.contains("rejoined"), "{log}");
        for o in &out.racks {
            assert!(o.floor_held);
        }
    }

    #[test]
    fn lossy_and_laggy_links_degrade_gracefully() {
        let mut cfg = fleet(2);
        cfg.site_fault_plan = Some(FaultPlan::new(vec![
            FaultEvent {
                at: SimTime::from_hours(11) + SimDuration::from_mins(1),
                duration: SimDuration::from_mins(3),
                kind: FaultKind::LinkLoss { rack: 0, p: 0.9 },
            },
            FaultEvent {
                at: SimTime::from_hours(11) + SimDuration::from_mins(5),
                duration: SimDuration::from_mins(3),
                kind: FaultKind::LinkDelay { rack: 1, epochs: 2 },
            },
        ]));
        let out = try_run_datacenter(&cfg, 2).unwrap();
        assert!(
            out.site_audit_violations.is_empty(),
            "{:?}",
            out.site_audit_violations
        );
        // p=0.9 over 3 epochs × 4 attempts: retries are all but certain
        // under the pinned seed.
        assert!(out.link_retries > 0);
        assert!(out.link_latency_ms > 0);
        assert_eq!(out.stale_factor_epochs, 3);
        for o in &out.racks {
            assert!(o.floor_held);
        }
    }

    #[test]
    fn outcome_is_byte_identical_across_jobs() {
        let mut cfg = fleet(4);
        cfg.site_fault_plan = Some(FaultPlan::generate_site(
            9,
            SimTime::from_hours(11),
            SimDuration::from_mins(10),
            4,
        ));
        let a = try_run_datacenter(&cfg, 1).unwrap();
        let b = try_run_datacenter(&cfg, 4).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn snapshot_resume_is_byte_identical_through_a_partition() {
        let mut cfg = fleet(3);
        cfg.site_fault_plan = Some(FaultPlan::new(vec![site_event(
            2,
            FaultKind::BrokerPartition { rack: 0, epochs: 3 },
        )]));
        let mut snaps: Vec<DatacenterSnapshot> = Vec::new();
        let uninterrupted =
            run_datacenter_with_snapshots(&cfg, 2, 2, &mut |s| snaps.push(s.clone())).unwrap();
        // Boundary snapshots at epochs 2, 4, 6, 8 — epoch 4 is
        // mid-partition.
        assert_eq!(snaps.len(), 4);
        let mid = snaps[1].clone();
        assert_eq!(mid.broker.next_epoch, 4);
        assert!(mid.broker.pinned[0].is_some(), "not mid-partition");
        // Round-trip through JSON, as a real crash recovery would.
        let restored = DatacenterSnapshot::from_json(&mid.to_json().unwrap()).unwrap();
        let resumed = resume_datacenter_snapshot(restored, 3, 2, &mut |_| {}).unwrap();
        assert_eq!(
            serde_json::to_string(&uninterrupted).unwrap(),
            serde_json::to_string(&resumed).unwrap()
        );
    }

    #[test]
    fn resume_mid_probation_replays_the_identical_rejoin_epoch() {
        let mut cfg = fleet(3);
        cfg.site_fault_plan = Some(FaultPlan::new(vec![site_event(
            2,
            FaultKind::BrokerPartition { rack: 0, epochs: 2 },
        )]));
        let mut snaps: Vec<DatacenterSnapshot> = Vec::new();
        let uninterrupted =
            run_datacenter_with_snapshots(&cfg, 2, 5, &mut |s| snaps.push(s.clone())).unwrap();
        // One boundary at epoch 5: the partition (epochs 2..4) has
        // healed, but rack 0 is still pinned, serving out its rejoin
        // probation — the resume must replay the held-factor epochs and
        // the identical rejoin epoch.
        assert_eq!(snaps.len(), 1);
        let mid = snaps[0].clone();
        assert_eq!(mid.broker.next_epoch, 5);
        assert!(mid.broker.pinned[0].is_some(), "not pinned mid-probation");
        assert!(
            mid.broker.probation_left[0] > 0 && mid.broker.probation_left[0] < REJOIN_EPOCHS,
            "snapshot not mid-probation: {} epochs left",
            mid.broker.probation_left[0]
        );
        let restored = DatacenterSnapshot::from_json(&mid.to_json().unwrap()).unwrap();
        let resumed = resume_datacenter_snapshot(restored, 2, 5, &mut |_| {}).unwrap();
        assert_eq!(
            serde_json::to_string(&uninterrupted).unwrap(),
            serde_json::to_string(&resumed).unwrap()
        );
        assert_eq!(resumed.rejoins, 1);
        // Local autonomy held one factor from the partition through the
        // end of probation (epochs 2..=6), then fresh allocations flow.
        let held = resumed.applied_factors[2][0];
        for k in 2..=6usize {
            assert_eq!(resumed.applied_factors[k][0], held, "epoch {k}");
        }
        assert_eq!(resumed.applied_factors[7][0], resumed.factors[7][0]);
    }

    #[test]
    fn resume_rejects_a_tampered_fingerprint() {
        let cfg = fleet(2);
        let mut snaps: Vec<DatacenterSnapshot> = Vec::new();
        run_datacenter_with_snapshots(&cfg, 2, 3, &mut |s| snaps.push(s.clone())).unwrap();
        let original: serde_json::Value =
            serde_json::from_str(&snaps[0].to_json().unwrap()).unwrap();
        let stamped = original
            .get("fingerprint")
            .and_then(|v| v.as_str())
            .unwrap();
        // An edited configuration under the original's fingerprint.
        let mut snap = snaps[0].clone();
        snap.cfg.template.seed ^= 1;
        let text = crate::checkpoint::with_fingerprint(&snap.to_json().unwrap(), stamped);
        let err = DatacenterSnapshot::from_json(&text).unwrap_err();
        assert!(err.to_string().contains("fingerprint"), "{err}");
    }

    #[test]
    fn resume_rejects_a_tampered_rack_state() {
        let cfg = fleet(2);
        let mut snaps: Vec<DatacenterSnapshot> = Vec::new();
        run_datacenter_with_snapshots(&cfg, 2, 3, &mut |s| snaps.push(s.clone())).unwrap();
        let mut snap = snaps[0].clone();
        snap.racks[1]
            .prev_settings
            .push(gs_cluster::ServerSetting::normal());
        let err = resume_datacenter_snapshot(snap, 2, 3, &mut |_| {}).unwrap_err();
        assert!(
            err.contains("rack 1") && err.contains("`prev_settings`"),
            "{err}"
        );
    }

    #[test]
    fn snapshots_require_analytic_measurement() {
        let mut cfg = fleet(2);
        cfg.template.measurement = MeasurementMode::Des;
        let err = run_datacenter_with_snapshots(&cfg, 2, 2, &mut |_| {}).unwrap_err();
        assert!(err.contains("analytic"), "{err}");
        // Without snapshots DES is fine.
        assert!(try_run_datacenter(&cfg, 2).is_ok());
    }
}
