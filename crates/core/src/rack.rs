//! The rack runtime: the lockstep protocol every multi-rack driver uses
//! to step N green racks through the engine epoch loop together.
//!
//! GreenSprint's controller (PSS supply plan + PMK sprint decision) runs
//! per rack. Batch `datacenter` ([`crate::broker`]) and `serve --racks N`
//! ([`crate::serve`]) both drive a fleet of such racks under the
//! conserved-routing broker; this module is everything they share:
//!
//! * the protocol — one [`RackDirective`] down per epoch, one [`RackMsg`]
//!   back (a boundary capture, a settled report, or a death notice);
//! * [`RackWorker`] — a rack's engine loop on its own thread behind
//!   `catch_unwind`, with a [`JobGate`] bounding how many racks compute
//!   an epoch at once, and typed receives that turn anything but the
//!   awaited message into a death message;
//! * [`ReplayHooks`] — the directive log replayed into one rack's loop,
//!   for a restarted worker's catch-up and for the Normal-floor baseline;
//! * the settle step — [`RackBelief::from_record`] and
//!   [`settle_site_epoch`] (reroute count + site conservation audit);
//! * [`rack_seed`] — the per-rack seed derivation.
//!
//! What differs stays with the callers: the broker owns the site-fault
//! directive policy (partition, probation, lossy and laggy links) and
//! fails the run on a rack death; serve owns the tick clock, the admin
//! verbs, the supervised restart ladder and the metrics fan-out. See
//! DESIGN.md §6e for the picture.
//!
//! Determinism: every RNG draw and aggregation happens on the driver
//! thread in rack-index order, so the gate's acquisition order never
//! reaches a result.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use gs_cluster::ServerSetting;
use gs_sim::SimTime;
use serde::{Deserialize, Serialize};

use crate::audit::{InvariantAuditor, SiteFlows};
use crate::checkpoint::LoopState;
use crate::engine::{
    judge, run_once_resumable, BurstOutcome, EngineConfig, EpochHooks, EpochRecord, TickDirective,
};
use crate::fleet::EngineScratch;
use crate::pmk::Strategy;
use crate::profiler::ProfileTable;
use crate::supervisor::panic_message;

/// A computed factor at or below this counts as "drained" when counting
/// rerouted epochs.
pub(crate) const REROUTE_EPS: f64 = 0.01;

/// Rack `rack`'s engine seed: decorrelated from its siblings, yet
/// reproducible from the site seed alone.
pub(crate) fn rack_seed(site_seed: u64, rack: usize) -> u64 {
    site_seed.wrapping_add(rack as u64 * 0x9E37_79B9)
}

/// The driver's belief about one rack, refreshed from its settled
/// telemetry each epoch (or held stale across a partition).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RackBelief {
    /// Believed renewable supply (W).
    pub re_supply_w: f64,
    /// Mean battery state of charge.
    pub battery_soc: f64,
    /// Servers carrying load.
    pub live_servers: usize,
    /// Settled power demand (W).
    pub demand_w: f64,
    /// Goodput summed over the rack (req/s).
    pub goodput_rps: f64,
    /// True while the belief is held over from before a partition.
    pub stale: bool,
}

impl RackBelief {
    /// The pre-telemetry belief for a healthy rack of `n` servers.
    pub(crate) fn initial(n: usize) -> Self {
        RackBelief {
            re_supply_w: 0.0,
            battery_soc: 1.0,
            live_servers: n,
            demand_w: 0.0,
            goodput_rps: 0.0,
            stale: true,
        }
    }

    /// The fresh belief one settled epoch's record attests.
    pub(crate) fn from_record(rec: &EpochRecord) -> Self {
        RackBelief {
            re_supply_w: rec.re_supply_w,
            battery_soc: rec.battery_soc,
            live_servers: usize::from(rec.live_servers),
            demand_w: rec.demand_w,
            goodput_rps: rec.goodput_rps,
            stale: false,
        }
    }
}

/// One epoch of the directive log: what every rack was told, so a
/// restarted worker and the Normal-floor baseline can replay it exactly —
/// the same supply override, staleness verdict, demotion, and routed
/// load factors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DirectiveRow {
    /// Live supply override handed to every rack (None = trace).
    pub supply_w: Option<f64>,
    /// Telemetry declared stale this epoch.
    pub stale: bool,
    /// Forced ladder demotion, if any.
    pub demote: Option<String>,
    /// Per-rack load factors.
    pub factors: Vec<f64>,
}

impl DirectiveRow {
    /// A row that only routes load: the batch broker's applied factors.
    pub(crate) fn routing(factors: Vec<f64>) -> Self {
        DirectiveRow {
            supply_w: None,
            stale: false,
            demote: None,
            factors,
        }
    }
}

/// What a driver tells one rack for one epoch.
#[derive(Debug, Clone, Default)]
pub(crate) struct RackDirective {
    /// The routed load factor; `None` means the directive was lost and
    /// the rack holds the last factor it applied (local autonomy).
    pub load_factor: Option<f64>,
    /// Live supply override (None = trace).
    pub supply_w: Option<f64>,
    /// Telemetry declared stale this epoch.
    pub telemetry_stale: bool,
    /// Forced ladder demotion, if any.
    pub demote: Option<String>,
    /// Drain after this epoch: capture a final state and exit cleanly.
    pub last: bool,
    /// Fault injection: die with this payload *before* executing the
    /// epoch, so the epoch is never half-executed.
    pub panic_with: Option<String>,
}

impl RackDirective {
    /// Rack `rack`'s directive from a logged row.
    pub(crate) fn from_row(row: &DirectiveRow, rack: usize) -> Self {
        RackDirective {
            load_factor: Some(row.factors.get(rack).copied().unwrap_or(1.0)),
            supply_w: row.supply_w,
            telemetry_stale: row.stale,
            demote: row.demote.clone(),
            ..RackDirective::default()
        }
    }

    /// The engine tick this directive drives, with `held` standing in for
    /// a lost load factor.
    fn into_tick(self, held: f64) -> TickDirective {
        TickDirective {
            supply_w: self.supply_w,
            telemetry_stale: self.telemetry_stale,
            demote: self.demote,
            load_factor: Some(self.load_factor.unwrap_or(held)),
        }
    }
}

/// What a rack worker sends back, in stream order.
pub(crate) enum RackMsg {
    /// A boundary (or drain) [`LoopState`] capture.
    Snapshot(Box<LoopState>),
    /// The epoch settled: its record plus the applied settings.
    Report(Box<EpochRecord>, Vec<ServerSetting>),
    /// The worker is dying with this panic payload.
    Died(String),
}

/// A counting gate bounding how many racks compute an epoch at once.
/// Purely a concurrency throttle: acquisition order never influences
/// results, because drivers aggregate in rack-index order.
pub(crate) struct JobGate {
    permits: Mutex<usize>,
    cv: Condvar,
}

/// One held [`JobGate`] permit, returned on drop — so a rack that
/// unwinds mid-epoch can never starve its siblings.
pub(crate) struct Permit(Arc<JobGate>);

impl JobGate {
    /// A gate admitting `n` (at least one) racks at a time.
    pub(crate) fn new(n: usize) -> Arc<Self> {
        Arc::new(JobGate {
            permits: Mutex::new(n.max(1)),
            cv: Condvar::new(),
        })
    }

    // The gate only ever holds a counter, so a poisoned lock still
    // carries a usable value: ride the poison rather than cascading a
    // panic into every sibling rack.
    pub(crate) fn acquire(self: &Arc<Self>) -> Permit {
        let mut p = self.permits.lock().unwrap_or_else(PoisonError::into_inner);
        while *p == 0 {
            p = self.cv.wait(p).unwrap_or_else(PoisonError::into_inner);
        }
        *p -= 1;
        Permit(Arc::clone(self))
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        *self
            .0
            .permits
            .lock()
            .unwrap_or_else(PoisonError::into_inner) += 1;
        self.0.cv.notify_one();
    }
}

/// Replays a directive log into one rack's epoch loop. Epochs past the
/// log's end run the nominal window.
pub(crate) struct ReplayHooks<'a> {
    pub rows: &'a [DirectiveRow],
    pub rack: usize,
}

impl EpochHooks for ReplayHooks<'_> {
    fn before_epoch(&mut self, k: u64, _t: SimTime) -> TickDirective {
        self.rows
            .get(k as usize)
            .map_or_else(TickDirective::default, |row| {
                RackDirective::from_row(row, self.rack).into_tick(1.0)
            })
    }
}

/// The worker-side hooks: each epoch either replays the catch-up log or
/// blocks on the driver's directive, then reports the settled record.
/// Captures ride the same channel so the driver sees them in order.
struct WorkerHooks {
    rack: usize,
    dir_rx: mpsc::Receiver<RackDirective>,
    msg_tx: mpsc::Sender<RackMsg>,
    gate: Arc<JobGate>,
    permit: Option<Permit>,
    /// The last load factor applied: local autonomy on a lost directive.
    held: f64,
    /// Epochs below this log's length replay from it without reporting —
    /// they already settled into the driver's aggregate.
    catch_up: Vec<DirectiveRow>,
    last: bool,
}

impl EpochHooks for WorkerHooks {
    fn before_epoch(&mut self, k: u64, t: SimTime) -> TickDirective {
        let tick = if (k as usize) < self.catch_up.len() {
            ReplayHooks {
                rows: &self.catch_up,
                rack: self.rack,
            }
            .before_epoch(k, t)
        } else {
            // A vanished driver ends the worker: unwind (without the
            // panic hook's noise) into the worker's catch_unwind.
            let Ok(d) = self.dir_rx.recv() else {
                resume_unwind(Box::new(format!("rack {} lost its driver", self.rack)));
            };
            if let Some(msg) = d.panic_with {
                panic!("{msg}");
            }
            self.last = d.last;
            d.into_tick(self.held)
        };
        if let Some(f) = tick.load_factor {
            self.held = f;
        }
        self.permit = Some(self.gate.acquire());
        tick
    }

    fn after_epoch(&mut self, k: u64, rec: &EpochRecord, settings: &[ServerSetting]) -> bool {
        self.permit = None;
        if k as usize >= self.catch_up.len() {
            let _ = self
                .msg_tx
                .send(RackMsg::Report(Box::new(*rec), settings.to_vec()));
        }
        !self.last
    }

    fn on_snapshot(&mut self, state: LoopState) {
        let _ = self.msg_tx.send(RackMsg::Snapshot(Box::new(state)));
    }
}

/// The driver's handle on one rack worker thread.
pub(crate) struct RackWorker {
    rack: usize,
    dir_tx: mpsc::Sender<RackDirective>,
    msg_rx: mpsc::Receiver<RackMsg>,
    handle: JoinHandle<Option<BurstOutcome>>,
}

impl RackWorker {
    /// Start rack `rack`'s engine loop on its own thread behind
    /// `catch_unwind`, resuming from `resume` when given and replaying
    /// `catch_up` for every epoch below its length. `held` is the factor a
    /// lost directive falls back on until one is applied. A panic anywhere
    /// inside becomes a [`RackMsg::Died`] — the typed receives are the
    /// only place deaths surface.
    pub(crate) fn spawn(
        rack: usize,
        cfg: &EngineConfig,
        resume: Option<LoopState>,
        catch_up: Vec<DirectiveRow>,
        held: f64,
        snapshot_every: u64,
        gate: &Arc<JobGate>,
    ) -> RackWorker {
        let (dir_tx, dir_rx) = mpsc::channel();
        let (msg_tx, msg_rx) = mpsc::channel();
        let death_tx = msg_tx.clone();
        let cfg = cfg.clone();
        let mut hooks = WorkerHooks {
            rack,
            dir_rx,
            msg_tx,
            gate: Arc::clone(gate),
            permit: None,
            held,
            catch_up,
            last: false,
        };
        let handle = std::thread::spawn(move || {
            let run = catch_unwind(AssertUnwindSafe(|| {
                let profiles = ProfileTable::cached(cfg.app);
                let mut scratch = EngineScratch::new();
                run_once_resumable(
                    &cfg,
                    cfg.strategy,
                    profiles,
                    resume,
                    snapshot_every,
                    &mut scratch,
                    &mut hooks,
                )
                .0
            }));
            // Dropping the hooks returns a permit a dying epoch held.
            drop(hooks);
            match run {
                Ok(outcome) => Some(outcome),
                Err(p) => {
                    let _ = death_tx.send(RackMsg::Died(panic_message(p.as_ref())));
                    None
                }
            }
        });
        RackWorker {
            rack,
            dir_tx,
            msg_rx,
            handle,
        }
    }

    /// Hand the worker its directive for epoch `k`.
    pub(crate) fn send(&self, k: u64, d: RackDirective) -> Result<(), String> {
        self.dir_tx
            .send(d)
            .map_err(|_| format!("rack {} exited before its epoch {k} directive", self.rack))
    }

    /// The worker's epoch-`k` boundary (or drain) capture.
    pub(crate) fn recv_capture(&self, k: u64) -> Result<LoopState, String> {
        match self.msg_rx.recv() {
            Ok(RackMsg::Snapshot(s)) => Ok(*s),
            other => Err(self.death(k, "boundary capture", other)),
        }
    }

    /// The worker's settled epoch-`k` report.
    pub(crate) fn recv_report(&self, k: u64) -> Result<(EpochRecord, Vec<ServerSetting>), String> {
        match self.msg_rx.recv() {
            Ok(RackMsg::Report(rec, settings)) => Ok((*rec, settings)),
            other => Err(self.death(k, "report", other)),
        }
    }

    /// The typed death message for whatever arrived in place of the
    /// awaited message: an out-of-order message, a closed channel, or the
    /// worker's own death notice.
    fn death(&self, k: u64, awaited: &str, got: Result<RackMsg, RecvError>) -> String {
        let r = self.rack;
        match got {
            Ok(RackMsg::Died(m)) => format!("rack {r} panicked: {m}"),
            Ok(RackMsg::Snapshot(_)) => {
                format!(
                    "protocol error: rack {r} sent a capture in place of its epoch {k} {awaited}"
                )
            }
            Ok(RackMsg::Report(..)) => {
                format!(
                    "protocol error: rack {r} sent a report in place of its epoch {k} {awaited}"
                )
            }
            Err(_) => format!("rack {r} exited before its epoch {k} {awaited}"),
        }
    }

    /// Release the worker (a worker still waiting for a directive exits)
    /// and collect its outcome; `None` if it died.
    pub(crate) fn join(self) -> Option<BurstOutcome> {
        drop(self.dir_tx);
        self.handle.join().ok().flatten()
    }
}

/// Judge each rack's strategy outcome against its Normal floor, replayed
/// like-for-like through the directive log `rows` (routed factors, supply
/// overrides and staleness verdicts; Normal has no ladder, so logged
/// demotions are inert). At most `jobs` replays run at once. A Normal
/// rack is its own baseline; a rack without an outcome stays `None`.
pub(crate) fn judge_racks(
    cfgs: &[EngineConfig],
    outcomes: Vec<Option<BurstOutcome>>,
    rows: &[DirectiveRow],
    jobs: usize,
) -> Result<Vec<Option<BurstOutcome>>, String> {
    let gate = JobGate::new(jobs);
    std::thread::scope(|scope| {
        let handles: Vec<_> = outcomes
            .into_iter()
            .enumerate()
            .map(|(rack, main)| {
                let cfg = &cfgs[rack];
                let gate = &gate;
                scope.spawn(move || {
                    let main = main?;
                    if cfg.strategy == Strategy::Normal {
                        return Some(judge(cfg, main, None));
                    }
                    let _permit = gate.acquire();
                    let (baseline, _, _) = run_once_resumable(
                        cfg,
                        Strategy::Normal,
                        ProfileTable::cached(cfg.app),
                        None,
                        0,
                        &mut EngineScratch::new(),
                        &mut ReplayHooks { rows, rack },
                    );
                    Some(judge(cfg, main, Some(baseline)))
                })
            })
            .collect();
        let mut judged = Vec::with_capacity(handles.len());
        let mut panics = Vec::new();
        for (r, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(o) => judged.push(o),
                Err(p) => panics.push(format!(
                    "rack {r} baseline panicked: {}",
                    panic_message(p.as_ref())
                )),
            }
        }
        if panics.is_empty() {
            Ok(judged)
        } else {
            Err(panics.join("; "))
        }
    })
}

/// The site half of settling lockstep epoch `k`, once every rack's
/// belief is updated: audit conservation — the factor row must route
/// exactly the fleet's load, and a `dark` rack must draw nothing — into
/// `violations`, and return whether the row rerouted load away from a
/// drained rack.
pub(crate) fn settle_site_epoch(
    k: u64,
    factors: &[f64],
    beliefs: &[RackBelief],
    dark: Vec<bool>,
    violations: &mut Vec<String>,
) -> bool {
    let mut aud = InvariantAuditor::with_violations(std::mem::take(violations));
    aud.check_site_epoch(&SiteFlows {
        epoch_index: k as usize,
        factors: factors.to_vec(),
        dark,
        rack_demand_w: beliefs.iter().map(|b| b.demand_w).collect(),
    });
    *violations = aud.into_violations();
    factors.iter().any(|&f| f <= REROUTE_EPS) && factors.iter().any(|&f| f > 1.0 + REROUTE_EPS)
}
