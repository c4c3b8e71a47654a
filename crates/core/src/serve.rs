//! `greensprint serve`: the epoch loop as a crash-tolerant rack
//! controller daemon.
//!
//! The batch engine answers "what would the controller have done"; serve
//! answers "do it, now, and survive the real world doing it". The same
//! [`crate::engine`] loop runs tick-by-tick against a clock, with:
//!
//! * **Live telemetry** — trace replay at a configurable real-time rate,
//!   plus an optional line-delimited supply feed (file or stdin) whose
//!   readings override the trace. A feed that goes quiet routes into the
//!   existing PSS safe mode via a staleness timeout instead of blocking.
//! * **Deadline budgets** — each tick has an explicit overrun policy:
//!   `skip` logs the overrun in the metrics stream and carries on;
//!   `degrade` additionally demotes one rung down the PR-4 failover
//!   ladder (the controller trades policy sophistication for headroom).
//! * **Hardened actuation** — per-server settings are applied through
//!   the [`gs_cluster::control`] retry layer: transient I/O errors back
//!   off deterministically and bounded; a server that keeps failing is
//!   clamped to Normal by a serve-level watchdog. Nothing panics the
//!   control loop.
//! * **Backpressured metrics** — one JSON line per epoch through a
//!   bounded drop-oldest buffer with a drop counter; a stalled sink
//!   never blocks the control path.
//! * **Liveness + restart** — a heartbeat file for external supervisors,
//!   a graceful SIGTERM drain that writes a final snapshot, and
//!   crash-restart (`--resume`) from the last [`ServeSnapshot`] with
//!   zero warmup.
//!
//! `--sim-time` runs the *identical* code path at full speed with no
//! wall-clock input anywhere in the stream: overruns, staleness, sink
//! stalls, and actuation failures come only from a seeded
//! [`DisturbancePlan`], so an interrupted-then-resumed serve emits a
//! metrics stream byte-identical to an uninterrupted run. The metrics
//! buffer is flushed before every snapshot write, which is the whole
//! restart guarantee: every epoch the snapshot believes executed is
//! already durable in the metrics file, so resume emission can start
//! exactly one line after the last durable one.

use std::collections::VecDeque;
use std::fs;
use std::io::{BufRead, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gs_cluster::control::{
    apply_with_retry, FlakyControl, RetryPolicy, ServerControl, SimControl, SysfsControl,
};
use gs_cluster::ServerSetting;
use gs_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

use crate::broker::conserved_factors;
use crate::checkpoint::{decode, encode, write_atomic, LoopState, SnapshotPayload};
use crate::engine::{
    judge, run_once, run_once_resumable, BurstOutcome, EngineConfig, EpochHooks, EpochRecord,
    MeasurementMode, TickDirective,
};
use crate::fleet::EngineScratch;
use crate::net::{
    parse_frame, NetConfig, NetPlane, NetShared, NetSummary, RackStat, DEFAULT_MAX_LINE_LEN,
};
use crate::pmk::Strategy;
use crate::profiler::ProfileTable;
pub use crate::rack::DirectiveRow;
use crate::rack::{
    judge_racks, rack_seed, settle_site_epoch, JobGate, RackBelief, RackDirective, RackWorker,
};
use crate::supervisor::{RackHealth, RackSupervisor};

/// Serve-level watchdog: consecutive actuation failures on one server
/// before serve stops commanding sprint settings to it.
const CLAMP_AFTER_FAILURES: u32 = 3;

/// Tick watchdog: a tick that exceeds this multiple of its deadline
/// budget is a *stall* (a wedged feed reader or actuation backend), not
/// a mere overrun — counted separately and demoted one ladder rung.
const WATCHDOG_FACTOR: u32 = 4;

/// What to do when a tick overruns its deadline budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OverrunPolicy {
    /// Log the overrun in the metrics stream and carry on.
    Skip,
    /// Log it *and* demote one rung down the failover ladder — requires
    /// the guardrail.
    Degrade,
}

/// A seeded, serializable schedule of real-world misbehavior, replayed
/// deterministically so `--sim-time` runs exercise every robustness path
/// without a wall clock. All epoch lists are sorted and deduplicated.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct DisturbancePlan {
    /// Generator seed (`0` for hand-written plans; provenance only).
    pub seed: u64,
    /// Epochs whose telemetry feed is declared stale.
    pub stale: Vec<u64>,
    /// Epochs whose tick overruns its deadline budget.
    pub overruns: Vec<u64>,
    /// Epochs where the metrics sink stalls (lines stay buffered).
    pub stalls: Vec<u64>,
    /// `(epoch, failures)`: injected transient actuation failures per
    /// server on that epoch.
    pub actuation: Vec<(u64, u32)>,
    /// `(epoch, rack)`: panic that rack's worker thread at the top of
    /// that epoch (multi-rack serve only; ignored single-rack).
    pub rack_panics: Vec<(u64, u32)>,
    /// `(epoch, rack)`: wedge that rack's worker thread at the top of
    /// that epoch. Serve cannot un-wedge a thread, so a stall is
    /// surfaced the same way as a panic (the worker dies) but counted
    /// separately.
    pub rack_stalls: Vec<(u64, u32)>,
    /// Epochs whose site tick is wedged past the watchdog threshold
    /// (deterministic stand-in for a real-time tick exceeding
    /// `WATCHDOG_FACTOR`× its deadline budget).
    pub wedges: Vec<u64>,
}

impl DisturbancePlan {
    /// Generate a plan over `n_epochs` epochs. Pure function of the
    /// arguments: the same seed always yields the same plan.
    pub fn generate(seed: u64, n_epochs: u64) -> Self {
        if n_epochs == 0 {
            return DisturbancePlan {
                seed,
                ..DisturbancePlan::default()
            };
        }
        let mut rng = SimRng::seed_from_u64(seed ^ 0x7365_7276_6521); // "serve!"
        let pick = |rng: &mut SimRng, count: usize| -> Vec<u64> {
            let mut v: Vec<u64> = (0..count)
                .map(|_| rng.index(n_epochs as usize) as u64)
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let budget = (n_epochs as usize / 8).max(1);
        let n_stale = 1 + rng.index(budget);
        let stale = pick(&mut rng, n_stale);
        let n_over = 1 + rng.index(budget);
        let overruns = pick(&mut rng, n_over);
        let n_stall = 1 + rng.index(budget);
        let stalls = pick(&mut rng, n_stall);
        let n_act = 1 + rng.index(budget);
        let actuation = pick(&mut rng, n_act)
            .into_iter()
            .map(|k| {
                let fails = 1 + rng.index(2) as u32;
                (k, fails)
            })
            .collect();
        // Rack-fault fields stay empty here: generating them would spend
        // extra RNG draws and silently shift every existing golden
        // stream keyed to a seed. Multi-rack fault tests write them
        // explicitly.
        DisturbancePlan {
            seed,
            stale,
            overruns,
            stalls,
            actuation,
            ..DisturbancePlan::default()
        }
    }

    fn is_stale(&self, k: u64) -> bool {
        self.stale.binary_search(&k).is_ok()
    }
    fn is_overrun(&self, k: u64) -> bool {
        self.overruns.binary_search(&k).is_ok()
    }
    fn is_stalled(&self, k: u64) -> bool {
        self.stalls.binary_search(&k).is_ok()
    }
    fn actuation_failures(&self, k: u64) -> u32 {
        self.actuation
            .iter()
            .find(|&&(e, _)| e == k)
            .map_or(0, |&(_, f)| f)
    }
    // The rack-fault lists may be hand-written (and so unsorted): scan,
    // don't binary-search.
    fn rack_panic_at(&self, k: u64, rack: u32) -> bool {
        self.rack_panics.iter().any(|&(e, r)| e == k && r == rack)
    }
    fn rack_stall_at(&self, k: u64, rack: u32) -> bool {
        self.rack_stalls.iter().any(|&(e, r)| e == k && r == rack)
    }
    fn is_wedged(&self, k: u64) -> bool {
        self.wedges.contains(&k)
    }
}

/// The deterministic, snapshot-persisted half of serve's configuration:
/// everything that shapes the *content* of the metrics stream. Runtime
/// pacing (rate, throttle, tick budget) and file paths live in
/// [`ServeArgs`] instead — they may differ between an interrupted run
/// and its resume without breaking byte-identity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct ServeOptions {
    /// Deadline-overrun policy.
    pub overrun: OverrunPolicy,
    /// Feed-silence epochs before telemetry is declared stale.
    pub stale_after_epochs: u32,
    /// Seeded misbehavior schedule (None = clean run).
    pub disturbances: Option<DisturbancePlan>,
    /// Metrics buffer capacity in lines (drop-oldest beyond it).
    pub metrics_buffer: usize,
    /// Snapshot every N epochs (0 = only the drain snapshot).
    pub snapshot_every: u64,
    /// Bounded retries per actuation failure.
    pub control_retries: u32,
    /// Max accepted telemetry line length in bytes; longer feed frames
    /// count as malformed (the network plane enforces its own copy of
    /// this cap at the socket layer).
    pub max_line_len: usize,
    /// Racks served by this daemon. `1` is the classic single-rack path;
    /// `>= 2` runs each rack's epoch loop on a supervised worker thread
    /// with the conserved-routing broker math between them.
    pub racks: u32,
    /// Restarts allowed per rack worker before it is quarantined and its
    /// load rerouted to the survivors.
    pub rack_restarts: u32,
    /// Per-rack [`LoopState`] capture cadence in epochs (0 = use
    /// `snapshot_every`). Rack captures and whole-daemon site snapshots
    /// share this cadence so every checkpoint is mutually consistent.
    pub rack_snapshot_every: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            overrun: OverrunPolicy::Skip,
            stale_after_epochs: 3,
            disturbances: None,
            metrics_buffer: 1024,
            snapshot_every: 10,
            control_retries: 2,
            max_line_len: DEFAULT_MAX_LINE_LEN,
            racks: 1,
            rack_restarts: 2,
            rack_snapshot_every: 0,
        }
    }
}

/// Serve's own mutable state alongside the engine's [`LoopState`] —
/// snapshotted with it so counters and the feed cursor survive a crash.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct ServeSideState {
    /// Ticks driven (== epochs entered, across resumes).
    pub ticks: u64,
    /// Ticks that overran their deadline budget.
    pub overrun_ticks: u64,
    /// Epochs the driver declared telemetry-stale.
    pub stale_epochs: u64,
    /// Metrics lines dropped to backpressure.
    pub dropped_metrics_lines: u64,
    /// Actuation retries consumed (across all servers).
    pub actuation_retries: u64,
    /// Actuation attempts that exhausted their retries.
    pub actuation_failures: u64,
    /// Epoch-server pairs clamped to Normal by the serve watchdog.
    pub control_clamped: u64,
    /// Next unread feed line (sim-time file feeds).
    pub feed_cursor: u64,
    /// Malformed feed lines skipped.
    pub feed_malformed: u64,
    /// Consecutive epochs without a fresh feed sample.
    pub feed_stale_streak: u32,
    /// Last good feed reading, held while the streak is short.
    pub last_feed_w: Option<f64>,
    /// Per-server consecutive actuation-failure streaks.
    pub fail_streaks: Vec<u32>,
    /// Ticks the watchdog judged wedged (>= `WATCHDOG_FACTOR`× the
    /// deadline budget, or plan-scheduled in sim time).
    pub watchdog_stalls: u64,
}

/// The multi-rack orchestrator's snapshot-persisted state: everything
/// beyond the per-rack [`LoopState`]s that shapes the deterministic
/// stream or the restart ladder.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct ServeDcSideState {
    /// Next epoch the orchestrator will execute. Explicit rather than
    /// derived from a rack state: every rack could be quarantined.
    pub next_epoch: u64,
    /// Last settled telemetry per rack (drives the routing factors).
    pub beliefs: Vec<RackBelief>,
    /// False until the first epoch settles (epoch 0 routes evenly).
    pub has_telemetry: bool,
    /// Per-rack health ladder position.
    pub health: Vec<RackHealth>,
    /// Per-rack restarts consumed.
    pub restarts_used: Vec<u32>,
    /// Per-rack probation epochs remaining.
    pub probation_left: Vec<u32>,
    /// Full directive history from epoch 0 (indexed by epoch), kept for
    /// restart replay and the end-of-run baseline comparison.
    pub rows: Vec<DirectiveRow>,
    /// Worker restarts performed.
    pub rack_restarts: u64,
    /// Worker deaths classified as panics.
    pub rack_panics_seen: u64,
    /// Worker deaths classified as stalls.
    pub rack_stalls_seen: u64,
    /// Racks pushed to quarantine (restart budget exhausted).
    pub racks_quarantined: u64,
    /// Epochs in which load was actively rerouted around a dead rack.
    pub rerouted_epochs: u64,
    /// Site-level conservation audit violations (must stay empty).
    pub site_audit_violations: Vec<String>,
    /// Human-readable supervision event log.
    pub events: Vec<String>,
}

/// The engine state a [`ServeSnapshot`] carries: one rack's, or the
/// whole site's.
// One value exists per snapshot; boxing the loop state would complicate
// every reader to save bytes that never multiply.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ServeEngineState {
    /// A single-rack daemon's captured loop state.
    Rack(LoopState),
    /// A multi-rack daemon's whole state, so SIGKILL + `--resume` is
    /// byte-identical even mid-rack-outage.
    Site {
        /// Per-rack captured loop states (`None` for a rack quarantined
        /// before its first capture).
        racks: Vec<Option<LoopState>>,
        /// The orchestrator's state.
        dc: ServeDcSideState,
    },
}

impl ServeEngineState {
    /// The epoch a resume from this state executes first.
    fn next_epoch(&self) -> u64 {
        match self {
            ServeEngineState::Rack(state) => state.next_epoch,
            ServeEngineState::Site { dc, .. } => dc.next_epoch,
        }
    }
}

/// A serve checkpoint: engine state plus serve state plus enough
/// configuration to restart with no flags beyond `--resume`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeSnapshot {
    /// The engine configuration the daemon is serving.
    pub cfg: EngineConfig,
    /// The deterministic serve options.
    pub options: ServeOptions,
    /// The engine's captured state: one rack's or the site's.
    pub engine: ServeEngineState,
    /// Serve's own captured state.
    pub serve: ServeSideState,
}

impl SnapshotPayload for ServeSnapshot {
    const SCHEMA: &'static str = "gs-serve-3";
    type Config = EngineConfig;
    fn config(&self) -> &EngineConfig {
        &self.cfg
    }
}

impl ServeSnapshot {
    /// Decode a snapshot file's text ([`decode`]).
    pub fn from_json(text: &str) -> Result<Self, ServeError> {
        decode(text).map_err(|e| ServeError::Snapshot(e.to_string()))
    }
}

/// Which control plane the applied settings are mirrored onto.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlBackend {
    /// No mirroring (pure simulation).
    None,
    /// In-memory [`SimControl`] per server.
    Sim,
    /// Sysfs-format trees under `root/server<i>/` (created if missing).
    Sysfs(PathBuf),
}

/// Everything the CLI hands to [`serve`]. Paths and pacing are runtime
/// knobs; [`ServeArgs::options`] is the deterministic half.
#[derive(Debug, Clone)]
pub struct ServeArgs {
    /// The engine configuration (measurement is forced to Analytic).
    pub cfg: EngineConfig,
    /// Deterministic serve options (ignored on resume — the snapshot's
    /// embedded options win).
    pub options: ServeOptions,
    /// Full-speed deterministic mode (no wall clock in the stream).
    pub sim_time: bool,
    /// Sim-seconds per wall-second in real-time mode.
    pub rate: f64,
    /// Extra sleep per tick in milliseconds (pacing only — lets tests
    /// SIGKILL a `--sim-time` run mid-flight; never enters the stream).
    pub throttle_ms: u64,
    /// Tick deadline budget in wall milliseconds (real-time mode only;
    /// in sim-time, overruns come only from the disturbance plan).
    pub tick_budget_ms: Option<u64>,
    /// JSON-lines metrics stream (appended; `None` = discard).
    pub metrics_path: Option<PathBuf>,
    /// Heartbeat file rewritten atomically each tick.
    pub heartbeat_path: Option<PathBuf>,
    /// Snapshot file rewritten atomically every `snapshot_every` epochs
    /// and on drain.
    pub snapshot_path: Option<PathBuf>,
    /// Line-delimited supply feed (`Some("-")` = stdin).
    pub feed_path: Option<PathBuf>,
    /// Control plane to mirror applied settings onto.
    pub control: ControlBackend,
    /// Resume from this [`ServeSnapshot`] file.
    pub resume_path: Option<PathBuf>,
    /// Stop gracefully after this many executed epochs (this run).
    pub drain_after_epochs: Option<u64>,
    /// TCP network plane (`None` = no listeners). Runtime-only: network
    /// activity never shapes the `--sim-time` metrics stream.
    pub net: Option<NetConfig>,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            cfg: EngineConfig::default(),
            options: ServeOptions::default(),
            sim_time: true,
            rate: 1.0,
            throttle_ms: 0,
            tick_budget_ms: None,
            metrics_path: None,
            heartbeat_path: None,
            snapshot_path: None,
            feed_path: None,
            control: ControlBackend::None,
            resume_path: None,
            drain_after_epochs: None,
            net: None,
        }
    }
}

/// Why serve could not run (or finish).
#[derive(Debug)]
pub enum ServeError {
    /// Invalid configuration or flag combination.
    Config(String),
    /// A snapshot that failed to load or verify.
    Snapshot(String),
    /// An I/O failure on a serve-owned file.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(s) => write!(f, "serve config error: {s}"),
            ServeError::Snapshot(s) => write!(f, "serve snapshot error: {s}"),
            ServeError::Io(e) => write!(f, "serve I/O error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// The end-of-run report printed by the CLI (stdout, never the metrics
/// stream).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ServeSummary {
    /// Epochs executed across the run's whole life (resumes included).
    pub epochs_executed: u64,
    /// Epoch the run resumed from (`None` for a fresh start).
    pub resumed_from_epoch: Option<u64>,
    /// True if the run stopped at a drain boundary instead of finishing.
    pub drained: bool,
    /// Ticks driven.
    pub ticks: u64,
    /// Deadline overruns.
    pub overrun_ticks: u64,
    /// Driver-declared stale-telemetry epochs.
    pub stale_epochs: u64,
    /// Engine safe-mode epochs (driver-declared staleness lands here).
    pub safe_mode_epochs: usize,
    /// Metrics lines dropped to backpressure.
    pub dropped_metrics_lines: u64,
    /// Actuation retries consumed.
    pub actuation_retries: u64,
    /// Actuation attempts that exhausted their retries.
    pub actuation_failures: u64,
    /// Serve-watchdog clamps to Normal.
    pub control_clamped: u64,
    /// Malformed feed lines skipped.
    pub feed_malformed: u64,
    /// Runtime invariant-audit violations (must be zero).
    pub audit_violations: usize,
    /// Peak failover-ladder level reached.
    pub ladder_level: usize,
    /// Guardrail event log.
    pub guardrail_events: Vec<String>,
    /// Normal-floor judgment over the full window (`None` when drained
    /// early — the truncated window has no comparable baseline).
    pub floor_held: Option<bool>,
    /// Mean goodput over executed epochs (rps per server).
    pub mean_goodput_rps: f64,
    /// Ticks the watchdog judged wedged.
    #[serde(default)]
    pub watchdog_stalls: u64,
    /// Racks this daemon served.
    #[serde(default)]
    pub racks: u32,
    /// Rack-worker restarts performed.
    #[serde(default)]
    pub rack_restarts: u64,
    /// Rack-worker deaths classified as panics.
    #[serde(default)]
    pub rack_panics: u64,
    /// Rack-worker deaths classified as stalls.
    #[serde(default)]
    pub rack_stalls: u64,
    /// Racks quarantined after restart exhaustion.
    #[serde(default)]
    pub racks_quarantined: u64,
    /// Epochs in which load was actively rerouted around a dead rack.
    #[serde(default)]
    pub rerouted_epochs: u64,
    /// Final per-rack health ladder positions.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub rack_health: Vec<RackHealth>,
    /// Supervision event log (restarts, quarantines, re-admissions).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub rack_events: Vec<String>,
    /// Network-plane counters (`None` when no listener was configured).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub net: Option<NetSummary>,
}

/// SIGTERM latch. Registering a handler that only stores an atomic is
/// async-signal-safe; the loop polls it at each epoch boundary.
static TERM_REQUESTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_sigterm(_signum: i32) {
    TERM_REQUESTED.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
fn install_sigterm_handler() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_sigterm);
    }
}

#[cfg(not(unix))]
fn install_sigterm_handler() {}

/// One metrics line: the epoch record plus serve's per-epoch robustness
/// annotations. Every field derives from the epoch index, the engine
/// record, and the disturbance plan — never from a wall clock — so the
/// line bytes are identical across interrupted and uninterrupted runs.
#[derive(Serialize)]
struct MetricsLine {
    epoch: u64,
    overrun: bool,
    stale: bool,
    retries: u64,
    failures: u64,
    clamped: u64,
    record: EpochRecord,
}

/// Bounded drop-oldest metrics buffer over an append-only file.
struct MetricsSink {
    path: Option<PathBuf>,
    buf: VecDeque<String>,
    cap: usize,
}

impl MetricsSink {
    fn new(path: Option<PathBuf>, cap: usize) -> Self {
        MetricsSink {
            path,
            buf: VecDeque::new(),
            cap: cap.max(1),
        }
    }

    /// Enqueue a line; returns how many old lines were dropped to make
    /// room. Never blocks, never errors.
    fn push(&mut self, line: String) -> u64 {
        let mut dropped = 0;
        while self.buf.len() >= self.cap {
            self.buf.pop_front();
            dropped += 1;
        }
        self.buf.push_back(line);
        dropped
    }

    /// Append every buffered line to the file. A write error leaves the
    /// unwritten tail buffered for the next attempt — the control path
    /// never sees it.
    fn drain(&mut self) -> bool {
        let Some(path) = &self.path else {
            self.buf.clear();
            return true;
        };
        if self.buf.is_empty() {
            return true;
        }
        let Ok(mut f) = fs::OpenOptions::new().create(true).append(true).open(path) else {
            return false;
        };
        while let Some(line) = self.buf.front() {
            if writeln!(f, "{line}").is_err() {
                return false;
            }
            self.buf.pop_front();
        }
        f.sync_all().is_ok()
    }
}

/// The telemetry feed: pre-read lines in sim-time (deterministic cursor),
/// a reader thread in real time.
enum FeedSource {
    /// All lines up front; `ServeSideState::feed_cursor` indexes it.
    Preloaded(Vec<String>),
    /// Live channel drained non-blockingly each tick.
    Live(mpsc::Receiver<String>),
}

fn open_feed(path: &Path, sim_time: bool) -> Result<FeedSource, ServeError> {
    let is_stdin = path.as_os_str() == "-";
    if sim_time {
        let text = if is_stdin {
            let mut s = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin(), &mut s)?;
            s
        } else {
            fs::read_to_string(path)?
        };
        Ok(FeedSource::Preloaded(
            text.lines().map(str::to_string).collect(),
        ))
    } else {
        let (tx, rx) = mpsc::channel();
        if is_stdin {
            std::thread::spawn(move || {
                let stdin = std::io::stdin();
                for line in stdin.lock().lines().map_while(Result::ok) {
                    if tx.send(line).is_err() {
                        break;
                    }
                }
            });
        } else {
            let file = fs::File::open(path)?;
            std::thread::spawn(move || {
                let reader = std::io::BufReader::new(file);
                for line in reader.lines().map_while(Result::ok) {
                    if tx.send(line).is_err() {
                        break;
                    }
                }
            });
        }
        Ok(FeedSource::Live(rx))
    }
}

/// A control backend per server, wrapped for deterministic fault
/// injection.
enum AnyControl {
    Sim(SimControl),
    Sysfs(SysfsControl),
}

impl ServerControl for AnyControl {
    fn apply(&mut self, setting: ServerSetting) -> Result<(), gs_cluster::ControlError> {
        match self {
            AnyControl::Sim(c) => c.apply(setting),
            AnyControl::Sysfs(c) => c.apply(setting),
        }
    }
    fn read(&self) -> Result<ServerSetting, gs_cluster::ControlError> {
        match self {
            AnyControl::Sim(c) => c.read(),
            AnyControl::Sysfs(c) => c.read(),
        }
    }
}

/// The serve driver's handle on a running network plane: the shared
/// state for publish/drain/counters, plus the bounded ingest channel.
struct NetHandle {
    shared: Arc<NetShared>,
    rx: mpsc::Receiver<f64>,
}

/// The serve driver: implements [`EpochHooks`] over the engine loop.
struct ServeDriver {
    opts: ServeOptions,
    cfg: EngineConfig,
    sim_time: bool,
    rate: f64,
    throttle: Duration,
    tick_budget: Option<Duration>,
    tick_started: Option<Instant>,
    feed: Option<FeedSource>,
    net: Option<NetHandle>,
    metrics: MetricsSink,
    heartbeat_path: Option<PathBuf>,
    snapshot_path: Option<PathBuf>,
    controls: Vec<FlakyControl<AnyControl>>,
    side: ServeSideState,
    /// Suppress metrics emission for epochs below this (already durable
    /// from the interrupted run).
    emit_from: u64,
    /// Stop after this many epochs executed *this process*.
    drain_after: Option<u64>,
    executed_this_run: u64,
    epochs_executed: u64,
    drained: bool,
    /// Stale/overrun annotation for the epoch in flight (before_epoch
    /// decides, after_epoch records).
    cur_stale: bool,
    cur_overrun: bool,
    /// One epoch of sim time in seconds (cached from the config).
    epoch_secs: f64,
}

impl ServeDriver {
    /// Write a snapshot of `engine` plus serve's own state.
    /// Flush-before-snapshot: every epoch the snapshot believes executed
    /// must already be durable in the metrics file, or a crash right
    /// after this write would leave a gap no resume can fill. A stalled
    /// sink therefore skips the snapshot too.
    fn write_snapshot(&mut self, engine: impl FnOnce() -> ServeEngineState) {
        if !self.metrics.drain() {
            return;
        }
        let Some(path) = &self.snapshot_path else {
            return;
        };
        let snap = ServeSnapshot {
            cfg: self.cfg.clone(),
            options: self.opts.clone(),
            engine: engine(),
            serve: self.side.clone(),
        };
        let _ = write_atomic(path, &encode(&snap));
    }

    /// Drain the network ingest channel. In sim-time the frames were
    /// already validated and counted by the plane but may not shape the
    /// deterministic stream, so the freshest reading is discarded here;
    /// in real time it outranks the file feed (a socket sensor is the
    /// more live source).
    fn poll_net_sample(&mut self) -> Option<f64> {
        let net = self.net.as_ref()?;
        let mut fresh: Option<f64> = None;
        while let Ok(w) = net.rx.try_recv() {
            fresh = Some(w);
        }
        if self.sim_time {
            None
        } else {
            fresh
        }
    }

    /// Drain the `--feed` source: one line per tick from a preloaded
    /// file (deterministic cursor), everything pending from a live
    /// reader. Oversized and unparseable lines count as malformed.
    fn poll_feed_sample(&mut self) -> Option<f64> {
        let feed = self.feed.as_mut()?;
        let cap = self.opts.max_line_len;
        let mut fresh: Option<f64> = None;
        match feed {
            FeedSource::Preloaded(lines) => {
                if let Some(line) = lines.get(self.side.feed_cursor as usize) {
                    self.side.feed_cursor += 1;
                    match (line.len() <= cap).then(|| parse_frame(line)).flatten() {
                        Some(w) => fresh = Some(w),
                        None => self.side.feed_malformed += 1,
                    }
                }
            }
            FeedSource::Live(rx) => {
                // Drain everything pending; the newest reading wins.
                while let Ok(line) = rx.try_recv() {
                    self.side.feed_cursor += 1;
                    match (line.len() <= cap).then(|| parse_frame(&line)).flatten() {
                        Some(w) => fresh = Some(w),
                        None => self.side.feed_malformed += 1,
                    }
                }
            }
        }
        fresh
    }

    /// True when any telemetry source can go stale: a feed, or the
    /// network ingest in real time (sim-time network frames are counted
    /// but deliberately outside the stream).
    fn live_telemetry(&self) -> bool {
        self.feed.is_some() || (self.net.is_some() && !self.sim_time)
    }

    fn take_telemetry_sample(&mut self) -> Option<f64> {
        let net_fresh = self.poll_net_sample();
        let feed_fresh = self.poll_feed_sample();
        if !self.live_telemetry() {
            return None;
        }
        match net_fresh.or(feed_fresh) {
            Some(w) => {
                self.side.feed_stale_streak = 0;
                self.side.last_feed_w = Some(w);
                Some(w)
            }
            None => {
                self.side.feed_stale_streak = self.side.feed_stale_streak.saturating_add(1);
                // Short silences serve the held reading (a delayed
                // sensor, not a dead one); past the threshold the
                // directive declares staleness instead.
                if self.side.feed_stale_streak < self.opts.stale_after_epochs {
                    self.side.last_feed_w
                } else {
                    None
                }
            }
        }
    }

    fn telemetry_is_stale(&self) -> bool {
        self.live_telemetry() && self.side.feed_stale_streak >= self.opts.stale_after_epochs
    }

    fn write_heartbeat(&self, k: u64, t: SimTime) {
        let Some(path) = &self.heartbeat_path else {
            return;
        };
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        // The heartbeat carries the network counters so a watchdog sees
        // plane health without opening a socket of its own.
        let net_part = self
            .net
            .as_ref()
            .and_then(|n| serde_json::to_string(&n.shared.summary()).ok())
            .map_or(String::new(), |j| format!(",\"net\":{j}"));
        let line = format!(
            "{{\"epoch\":{k},\"sim_time_s\":{:.3},\"ticks\":{},\"wall_unix_ms\":{unix_ms}{net_part}}}\n",
            t.as_secs_f64(),
            self.side.ticks
        );
        // Liveness is advisory: a failed heartbeat write must not take
        // down the control loop it is supposed to vouch for.
        let _ = write_atomic(path, &line);
    }

    fn actuate(&mut self, k: u64, settings: &[ServerSetting]) {
        if self.controls.is_empty() {
            return;
        }
        let injected = self
            .opts
            .disturbances
            .as_ref()
            .map_or(0, |p| p.actuation_failures(k));
        let policy = RetryPolicy::with_retries(self.opts.control_retries);
        let real_time = !self.sim_time;
        for (i, control) in self.controls.iter_mut().enumerate() {
            if injected > 0 {
                control.fail_applies(injected, std::io::ErrorKind::Interrupted);
            }
            let clamped = self
                .side
                .fail_streaks
                .get(i)
                .is_some_and(|&s| s >= CLAMP_AFTER_FAILURES);
            let want = if clamped {
                ServerSetting::normal()
            } else {
                settings
                    .get(i)
                    .copied()
                    .unwrap_or_else(ServerSetting::normal)
            };
            if clamped {
                self.side.control_clamped += 1;
            }
            let mut sleeper = |ms: u64| {
                if real_time {
                    std::thread::sleep(Duration::from_millis(ms));
                }
            };
            match apply_with_retry(control, want, policy, &mut sleeper) {
                Ok(retries) => {
                    self.side.actuation_retries += u64::from(retries);
                    if let Some(s) = self.side.fail_streaks.get_mut(i) {
                        *s = 0;
                    }
                }
                Err(_) => {
                    // Bounded failure: count it, advance the watchdog
                    // streak, and keep the loop alive. The engine's own
                    // actuation watchdog handles the modelled side.
                    self.side.actuation_retries += u64::from(policy.max_retries);
                    self.side.actuation_failures += 1;
                    if let Some(s) = self.side.fail_streaks.get_mut(i) {
                        *s = s.saturating_add(1);
                    }
                }
            }
        }
    }

    fn pace(&mut self, epoch: Duration) {
        if !self.throttle.is_zero() {
            std::thread::sleep(self.throttle);
        }
        if self.sim_time {
            return;
        }
        // Real-time replay: one epoch of sim time per (epoch / rate) of
        // wall time, measured from the previous tick's start.
        let target = epoch.div_f64(self.rate.max(1e-9));
        if let Some(started) = self.tick_started {
            let elapsed = started.elapsed();
            if elapsed < target {
                std::thread::sleep(target - elapsed);
            }
        }
        self.tick_started = Some(Instant::now());
    }
}

impl ServeDriver {
    /// One site tick: deadline/watchdog accounting, telemetry sampling,
    /// staleness, heartbeat. The single-rack path calls this through
    /// [`EpochHooks::before_epoch`]; the multi-rack orchestrator calls
    /// it directly, once per epoch for the whole site.
    fn tick_directive(&mut self, k: u64, t: SimTime) -> TickDirective {
        self.side.ticks += 1;
        // Deadline check for the *previous* tick in real time; plan-driven
        // in sim time so the stream stays deterministic.
        let mut overrun = self
            .opts
            .disturbances
            .as_ref()
            .is_some_and(|p| p.is_overrun(k));
        // Watchdog: a tick that blew far past its budget (or a
        // plan-scheduled wedge in sim time) is a stall, not a mere
        // overrun — counted separately and always worth a ladder rung.
        let mut wedged = self
            .opts
            .disturbances
            .as_ref()
            .is_some_and(|p| p.is_wedged(k));
        if let (false, Some(budget), Some(started)) =
            (self.sim_time, self.tick_budget, self.tick_started)
        {
            let elapsed = started.elapsed();
            if elapsed > budget {
                overrun = true;
            }
            if elapsed > budget.saturating_mul(WATCHDOG_FACTOR) {
                wedged = true;
            }
        }
        if wedged {
            overrun = true;
            self.side.watchdog_stalls += 1;
        }
        self.cur_overrun = overrun;
        if overrun {
            self.side.overrun_ticks += 1;
        }

        let supply_w = self.take_telemetry_sample();
        let plan_stale = self
            .opts
            .disturbances
            .as_ref()
            .is_some_and(|p| p.is_stale(k));
        let stale = plan_stale || self.telemetry_is_stale();
        self.cur_stale = stale;
        if stale {
            self.side.stale_epochs += 1;
        }

        self.write_heartbeat(k, t);

        // A wedge demotes even under `--overrun skip`: a tick that sat
        // at WATCHDOG_FACTOR× its budget is evidence the control path
        // itself is unhealthy, not just late. With the guardrail off the
        // engine ignores the demotion (the counter still records it).
        let demote = if wedged {
            Some(format!(
                "watchdog stall: tick exceeded {WATCHDOG_FACTOR}x its deadline budget"
            ))
        } else if overrun && self.opts.overrun == OverrunPolicy::Degrade {
            Some("tick deadline overrun".to_string())
        } else {
            None
        };
        TickDirective {
            supply_w: if stale { None } else { supply_w },
            telemetry_stale: stale,
            demote,
            load_factor: None,
        }
    }

    /// Serialize and emit one epoch's metrics line — TCP fan-out plus
    /// the durable sink — honoring the resume emission gate and
    /// plan-scheduled sink stalls. Shared by the single-rack hook path
    /// and the multi-rack orchestrator (which emits the aggregate).
    fn emit_record(
        &mut self,
        k: u64,
        rec: &EpochRecord,
        retries: u64,
        failures: u64,
        clamped: u64,
    ) {
        if k < self.emit_from {
            return;
        }
        let line = MetricsLine {
            epoch: k,
            overrun: self.cur_overrun,
            stale: self.cur_stale,
            retries,
            failures,
            clamped,
            record: *rec,
        };
        match serde_json::to_string(&line) {
            Ok(json) => {
                // Fan the identical bytes out to TCP subscribers;
                // publish never blocks (drop-oldest per subscriber).
                if let Some(net) = &self.net {
                    net.shared.publish(k, json.clone());
                }
                self.side.dropped_metrics_lines += self.metrics.push(json);
            }
            // A line that cannot serialize is a dropped line, not a
            // dead control loop.
            Err(_) => self.side.dropped_metrics_lines += 1,
        }
        let stalled = self
            .opts
            .disturbances
            .as_ref()
            .is_some_and(|p| p.is_stalled(k));
        if !stalled {
            self.metrics.drain();
        }
    }
}

impl EpochHooks for ServeDriver {
    fn before_epoch(&mut self, k: u64, t: SimTime) -> TickDirective {
        self.tick_directive(k, t)
    }

    fn after_epoch(&mut self, k: u64, rec: &EpochRecord, settings: &[ServerSetting]) -> bool {
        let retries_before = self.side.actuation_retries;
        let failures_before = self.side.actuation_failures;
        let clamped_before = self.side.control_clamped;
        self.actuate(k, settings);
        self.emit_record(
            k,
            rec,
            self.side.actuation_retries - retries_before,
            self.side.actuation_failures - failures_before,
            self.side.control_clamped - clamped_before,
        );

        self.executed_this_run += 1;
        self.epochs_executed += 1;
        let drain = TERM_REQUESTED.load(Ordering::SeqCst)
            || self
                .drain_after
                .is_some_and(|d| self.executed_this_run >= d)
            || self
                .net
                .as_ref()
                .is_some_and(|n| n.shared.drain_requested());
        if drain {
            self.drained = true;
            return false;
        }
        self.pace(Duration::from_secs_f64(self.epoch_secs));
        true
    }

    fn on_snapshot(&mut self, state: LoopState) {
        self.write_snapshot(|| ServeEngineState::Rack(state));
    }
}

/// Trim a metrics file to its last complete line (a SIGKILL can land
/// mid-write) and return the last durable epoch index, if any.
fn prepare_metrics_for_resume(path: &Path) -> Result<Option<u64>, ServeError> {
    let Ok(text) = fs::read_to_string(path) else {
        return Ok(None); // no file yet — nothing durable
    };
    let complete = match text.rfind('\n') {
        Some(pos) => &text[..=pos],
        None => "",
    };
    if complete.len() != text.len() {
        fs::write(path, complete)?;
    }
    let last_epoch = complete
        .lines()
        .rfind(|l| !l.trim().is_empty())
        .and_then(|l| serde_json::from_str::<serde_json::Value>(l).ok())
        .and_then(|v| {
            v.get("epoch")
                .and_then(|e| e.as_number())
                .and_then(|n| n.as_u64())
        });
    Ok(last_epoch)
}

// ---------------------------------------------------------------------------
// Multi-rack serving: one supervised rack-runtime (`rack.rs`) worker per
// rack, the conserved-routing broker math between them,
// deterministic restart-from-snapshot, and a whole-daemon site snapshot.
// ---------------------------------------------------------------------------

/// Render one per-rack metrics line for the TCP fan-out (the `?rack=N`
/// topic), never written to the durable aggregate file. The `rack` key
/// leads so every line starts `{"rack":N,` — the subscriber-side topic
/// filter is a prefix match on these bytes.
fn rack_metrics_line(rack: usize, epoch: u64, rec: &EpochRecord) -> Option<String> {
    let record = serde_json::to_string(rec).ok()?;
    Some(format!(
        "{{\"rack\":{rack},\"epoch\":{epoch},\"record\":{record}}}"
    ))
}

/// Where in the epoch protocol a rack worker died — decides how the
/// restarted worker is re-synchronized with the fleet. Every restart
/// first catches the replacement up to the top of epoch `k`, taking
/// over each boundary capture it passes on the way.
#[derive(Clone, Copy)]
enum DeathPhase {
    /// Before the epoch-`k` directive was sent (at the boundary capture,
    /// or on an admin re-admission): catching up is the whole restart.
    PreTick,
    /// Holding or executing the epoch-`k` directive: the directive is
    /// re-sent (without injection) and the epoch re-executes.
    Tick {
        /// Whether the re-sent directive is the drain epoch.
        last: bool,
    },
    /// During the drain capture after epoch `k` settled: the epoch
    /// re-executes (its report is discarded — the aggregate already
    /// includes it) and the drain capture is re-taken.
    DrainCapture,
}

/// The orchestrator's mutable multi-rack state, bundled so the restart
/// protocol can be a method instead of a 9-argument function.
struct DcRun {
    rack_cfgs: Vec<EngineConfig>,
    every: u64,
    gate: Arc<JobGate>,
    workers: Vec<Option<RackWorker>>,
    rack_states: Vec<Option<LoopState>>,
    sup: RackSupervisor,
    dc: ServeDcSideState,
}

impl DcRun {
    /// Mirror the supervisor's ladder into the snapshot-persisted state.
    fn sync_supervisor(&mut self) {
        self.dc.health = self.sup.health.clone();
        self.dc.restarts_used = self.sup.restarts_used.clone();
        self.dc.probation_left = self.sup.probation_left.clone();
    }

    /// Spawn rack `r`'s worker from its last captured state, replaying
    /// the logged directives up to (not including) epoch `k` — those
    /// epochs already settled into the aggregate stream.
    fn spawn(&self, r: usize, k: u64) -> RackWorker {
        RackWorker::spawn(
            r,
            &self.rack_cfgs[r],
            self.rack_states[r].clone(),
            self.dc.rows[..k as usize].to_vec(),
            1.0,
            self.every,
            &self.gate,
        )
    }

    /// Restart rack `r`, which died at epoch `k` in `phase`: catch a
    /// fresh worker up to the top of epoch `k`, taking over every boundary
    /// capture it passes, then re-synchronize it with the fleet. On `Err`
    /// the replacement died too.
    fn restart(&mut self, r: usize, k: u64, phase: DeathPhase) -> Result<(), String> {
        let fresh = self.spawn(r, k);
        let w = self.workers[r].insert(fresh);
        let from = self.rack_states[r].as_ref().map_or(0, |s| s.next_epoch);
        // The engine captures at every boundary past its resume epoch.
        for b in from + 1..=k {
            if self.every > 0 && b % self.every == 0 {
                self.rack_states[r] = Some(w.recv_capture(b)?);
            }
        }
        let redo = |last| RackDirective {
            last,
            ..RackDirective::from_row(&self.dc.rows[k as usize], r)
        };
        match phase {
            DeathPhase::PreTick => {}
            DeathPhase::Tick { last } => w.send(k, redo(last))?,
            DeathPhase::DrainCapture => {
                w.send(k, redo(true))?;
                w.recv_report(k)?;
                self.rack_states[r] = Some(w.recv_capture(k)?);
            }
        }
        Ok(())
    }

    /// A worker for rack `r` died at epoch `k`: classify the death,
    /// restart from the rack's last captured [`LoopState`] within the
    /// budget (deterministically replaying every epoch it missed), or
    /// quarantine it and zero its belief so the next factor computation
    /// reroutes its share to the survivors. Returns true if the rack is
    /// alive again.
    fn handle_death(&mut self, r: usize, k: u64, mut msg: String, phase: DeathPhase) -> bool {
        loop {
            if msg.contains("injected rack stall") {
                self.dc.rack_stalls_seen += 1;
            } else {
                self.dc.rack_panics_seen += 1;
            }
            // Reap the dead thread before spawning its replacement.
            if let Some(w) = self.workers[r].take() {
                let _ = w.join();
            }
            if !self.sup.record_death(r, msg.clone()) {
                self.dc.racks_quarantined += 1;
                self.dc.events.push(format!(
                    "epoch {k}: rack {r} quarantined after exhausting {} restarts: {msg}",
                    self.sup.max_restarts
                ));
                self.dc.beliefs[r] = RackBelief {
                    re_supply_w: 0.0,
                    battery_soc: 0.0,
                    live_servers: 0,
                    demand_w: 0.0,
                    goodput_rps: 0.0,
                    stale: false,
                };
                if self.sup.live_count() == 0 {
                    self.dc.events.push(format!(
                        "epoch {k}: all racks quarantined; aggregate stream suspended"
                    ));
                }
                return false;
            }
            self.dc.rack_restarts += 1;
            let from = self.rack_states[r].as_ref().map_or(0, |s| s.next_epoch);
            self.dc.events.push(format!(
                "epoch {k}: {msg}; restart {}/{} from snapshot epoch {from}",
                self.sup.restarts_used[r], self.sup.max_restarts
            ));
            match self.restart(r, k, phase) {
                Ok(()) => return true,
                Err(m) => msg = m,
            }
        }
    }

    /// Wait for rack `r`'s drain capture (restarting on death).
    fn await_drain_capture(&mut self, r: usize, k: u64) {
        let Some(w) = self.workers[r].as_ref() else {
            return;
        };
        match w.recv_capture(k) {
            Ok(s) => self.rack_states[r] = Some(s),
            // On success the restart protocol re-takes the capture itself.
            Err(m) => {
                let _ = self.handle_death(r, k, m, DeathPhase::DrainCapture);
            }
        }
    }

    /// Collect rack `r`'s epoch-`k` report, restarting through deaths.
    /// `None` means the rack exhausted its budget and was quarantined.
    fn collect_report(
        &mut self,
        r: usize,
        k: u64,
        last: bool,
    ) -> Option<(EpochRecord, Vec<ServerSetting>)> {
        loop {
            let msg = match self.workers[r].as_ref()?.recv_report(k) {
                Ok(report) => return Some(report),
                Err(m) => m,
            };
            if !self.handle_death(r, k, msg, DeathPhase::Tick { last }) {
                return None;
            }
        }
    }
}

/// Sum the per-rack records into the site aggregate line (SoC is
/// averaged). Every field derives from the rack records alone, so the
/// aggregate is byte-identical whenever the per-rack records are.
/// `None` when no rack reported (all quarantined).
fn aggregate_reports(reports: &[Option<(EpochRecord, Vec<ServerSetting>)>]) -> Option<EpochRecord> {
    let mut it = reports.iter().flatten();
    let (first, _) = it.next()?;
    let mut agg = *first;
    let mut n = 1u32;
    for (rec, _) in it {
        agg.re_supply_w += rec.re_supply_w;
        agg.re_used_w += rec.re_used_w;
        agg.battery_w += rec.battery_w;
        agg.demand_w += rec.demand_w;
        agg.battery_soc += rec.battery_soc;
        agg.offered_rps += rec.offered_rps;
        agg.goodput_rps += rec.goodput_rps;
        agg.sprinting_servers = agg.sprinting_servers.saturating_add(rec.sprinting_servers);
        agg.live_servers = agg.live_servers.saturating_add(rec.live_servers);
        agg.safe_mode |= rec.safe_mode;
        agg.ladder_level = agg.ladder_level.max(rec.ladder_level);
        n += 1;
    }
    agg.battery_soc /= f64::from(n);
    Some(agg)
}

/// The multi-rack serve loop: drives the site tick once per epoch, the
/// conserved routing factors between the rack workers, the supervision
/// ladder over their deaths, and the aggregate + per-rack metrics
/// fan-out. See DESIGN.md §8b for the thread/ownership picture.
fn run_multi_rack(
    mut driver: ServeDriver,
    resume: Option<(Vec<Option<LoopState>>, ServeDcSideState)>,
    resumed_from: Option<u64>,
    n_epochs: u64,
    net_plane: Option<NetPlane>,
) -> Result<ServeSummary, ServeError> {
    let n_racks = driver.opts.racks as usize;
    let n_servers = driver.cfg.green.green_servers;
    let rack_servers = vec![n_servers; n_racks];
    let every = if driver.opts.rack_snapshot_every > 0 {
        driver.opts.rack_snapshot_every
    } else {
        driver.opts.snapshot_every
    };
    // A homogeneous fleet of the served config with the rack runtime's
    // per-rack seed derivation.
    let rack_cfgs: Vec<EngineConfig> = (0..n_racks)
        .map(|i| EngineConfig {
            seed: rack_seed(driver.cfg.seed, i),
            ..driver.cfg.clone()
        })
        .collect();

    let (mut dc, rack_states) = match resume {
        Some((resume_racks, dc)) => {
            if resume_racks.len() != n_racks
                || dc.health.len() != n_racks
                || dc.beliefs.len() != n_racks
            {
                return Err(ServeError::Snapshot(
                    "snapshot rack states do not match the embedded rack count".to_string(),
                ));
            }
            if dc.rows.len() as u64 != dc.next_epoch {
                return Err(ServeError::Snapshot(
                    "snapshot directive log is not aligned with its resume epoch".to_string(),
                ));
            }
            for (r, s) in resume_racks.iter().enumerate() {
                if dc.health[r] != RackHealth::Quarantined
                    && s.as_ref().map(|st| st.next_epoch) != Some(dc.next_epoch)
                {
                    return Err(ServeError::Snapshot(format!(
                        "rack {r} state is not aligned with the snapshot epoch"
                    )));
                }
            }
            (dc, resume_racks)
        }
        None => (
            ServeDcSideState {
                beliefs: (0..n_racks)
                    .map(|_| RackBelief::initial(n_servers))
                    .collect(),
                health: vec![RackHealth::Live; n_racks],
                restarts_used: vec![0; n_racks],
                probation_left: vec![0; n_racks],
                ..ServeDcSideState::default()
            },
            (0..n_racks).map(|_| None).collect(),
        ),
    };
    let start_k = dc.next_epoch;
    let sup = RackSupervisor::restore(
        driver.opts.rack_restarts,
        std::mem::take(&mut dc.health),
        std::mem::take(&mut dc.restarts_used),
        std::mem::take(&mut dc.probation_left),
    );
    let mut run = DcRun {
        rack_cfgs,
        every,
        gate: JobGate::new(n_racks),
        workers: (0..n_racks).map(|_| None).collect(),
        rack_states,
        sup,
        dc,
    };
    for r in 0..n_racks {
        if !run.sup.quarantined(r) {
            run.workers[r] = Some(run.spawn(r, start_k));
        }
    }

    let start_t = SimTime::from_secs_f64(driver.cfg.burst_start_hour * 3_600.0);
    let epoch_d = driver.cfg.epoch;

    for k in start_k..n_epochs {
        // Boundary: collect every live rack's capture, then write the
        // whole-daemon site snapshot — same cadence, mutually consistent.
        if run.every > 0 && k > start_k && k % run.every == 0 {
            for r in 0..n_racks {
                let Some(w) = run.workers[r].as_ref() else {
                    continue;
                };
                match w.recv_capture(k) {
                    Ok(s) => run.rack_states[r] = Some(s),
                    // Restarted (capture re-taken by the catch-up) or
                    // quarantined — either way this rack is settled.
                    Err(m) => {
                        let _ = run.handle_death(r, k, m, DeathPhase::PreTick);
                    }
                }
            }
            run.dc.next_epoch = k;
            run.sync_supervisor();
            driver.write_snapshot(|| ServeEngineState::Site {
                racks: run.rack_states.clone(),
                dc: run.dc.clone(),
            });
        }

        // One site tick for the whole fleet: deadline/watchdog, feed
        // sampling, staleness, heartbeat.
        let t = start_t + SimDuration::from_micros(epoch_d.as_micros() * k);
        let tick = driver.tick_directive(k, t);

        // Admin plane: re-admissions first (a lifted rack catches up and
        // takes this epoch's directive), then kill marks.
        let (kills, readmits) = driver
            .net
            .as_ref()
            .map_or((Vec::new(), Vec::new()), |n| n.shared.take_rack_requests());
        for r in readmits {
            let r = r as usize;
            if r < n_racks && run.sup.quarantined(r) {
                run.sup.lift_quarantine(r);
                run.dc.events.push(format!(
                    "epoch {k}: admin re-admitted rack {r}; replaying from its last snapshot"
                ));
                if let Err(m) = run.restart(r, k, DeathPhase::PreTick) {
                    let _ = run.handle_death(r, k, m, DeathPhase::PreTick);
                }
            }
        }
        let mut admin_kill = vec![false; n_racks];
        for r in kills {
            let r = r as usize;
            if r < n_racks && !run.sup.quarantined(r) {
                admin_kill[r] = true;
                run.dc
                    .events
                    .push(format!("epoch {k}: admin kill for rack {r}"));
            }
        }

        // Drain decision at the top of the tick so the directives can
        // carry it (a directive already dispatched cannot be recalled).
        let last = TERM_REQUESTED.load(Ordering::SeqCst)
            || driver
                .net
                .as_ref()
                .is_some_and(|n| n.shared.drain_requested())
            || driver
                .drain_after
                .is_some_and(|d| driver.executed_this_run + 1 >= d);

        // Conserved routing factors from the last settled beliefs, and
        // the directive row every restart replay will reproduce.
        let factors = conserved_factors(&run.dc.beliefs, &rack_servers, run.dc.has_telemetry);
        run.dc.rows.push(DirectiveRow {
            supply_w: tick.supply_w,
            stale: tick.telemetry_stale,
            demote: tick.demote.clone(),
            factors,
        });
        debug_assert_eq!(run.dc.rows.len() as u64, k + 1);

        // Dispatch, then collect in rack order. Injected faults ride the
        // directive so the worker dies *before* executing the epoch —
        // the restart replays it identically and the stream never forks.
        for (r, &kill) in admin_kill.iter().enumerate() {
            if run.sup.quarantined(r) {
                continue;
            }
            let inject = driver
                .opts
                .disturbances
                .as_ref()
                .and_then(|p| {
                    if p.rack_stall_at(k, r as u32) {
                        Some(format!("injected rack stall at epoch {k}"))
                    } else if p.rack_panic_at(k, r as u32) {
                        Some(format!("injected rack panic at epoch {k}"))
                    } else {
                        None
                    }
                })
                .or_else(|| kill.then(|| format!("admin kill at epoch {k}")));
            let d = RackDirective {
                last,
                panic_with: inject,
                ..RackDirective::from_row(&run.dc.rows[k as usize], r)
            };
            if let Some(w) = run.workers[r].as_ref() {
                // A send to a just-died worker surfaces at collection.
                let _ = w.send(k, d);
            }
        }
        let mut reports: Vec<Option<(EpochRecord, Vec<ServerSetting>)>> =
            (0..n_racks).map(|_| None).collect();
        for (r, slot) in reports.iter_mut().enumerate() {
            if !run.sup.quarantined(r) {
                *slot = run.collect_report(r, k, last);
            }
        }

        // Settle beliefs (quarantined racks stay dark) and walk the
        // probation ladder on clean epochs.
        for (r, rep) in reports.iter().enumerate() {
            if let Some((rec, _)) = rep {
                run.dc.beliefs[r] = RackBelief::from_record(rec);
                if run.sup.record_clean_epoch(r) {
                    run.dc
                        .events
                        .push(format!("epoch {k}: rack {r} finished probation; live"));
                }
            }
        }
        run.dc.has_telemetry = true;

        // Actuate the site's concatenated settings, emit the aggregate
        // line, then the per-rack topic lines (hub/ring only).
        let mut all_settings: Vec<ServerSetting> = Vec::with_capacity(n_racks * n_servers);
        for rep in &reports {
            match rep {
                Some((_, settings)) => {
                    all_settings.extend(settings.iter().copied());
                    let missing = n_servers.saturating_sub(settings.len());
                    all_settings.extend(std::iter::repeat_n(ServerSetting::normal(), missing));
                }
                None => {
                    all_settings.extend(std::iter::repeat_n(ServerSetting::normal(), n_servers))
                }
            }
        }
        let retries_before = driver.side.actuation_retries;
        let failures_before = driver.side.actuation_failures;
        let clamped_before = driver.side.control_clamped;
        driver.actuate(k, &all_settings);
        if let Some(agg) = aggregate_reports(&reports) {
            driver.emit_record(
                k,
                &agg,
                driver.side.actuation_retries - retries_before,
                driver.side.actuation_failures - failures_before,
                driver.side.control_clamped - clamped_before,
            );
            if k >= driver.emit_from {
                if let Some(net) = &driver.net {
                    for (r, rep) in reports.iter().enumerate() {
                        if let Some((rec, _)) = rep {
                            if let Some(json) = rack_metrics_line(r, k, rec) {
                                net.shared.publish(k, json);
                            }
                        }
                    }
                }
            }
        }
        driver.executed_this_run += 1;
        driver.epochs_executed += 1;

        // Settle the site: a quarantined (dark) rack must draw nothing.
        let dark = run.dc.beliefs.iter().map(|b| b.live_servers == 0).collect();
        if settle_site_epoch(
            k,
            &run.dc.rows[k as usize].factors,
            &run.dc.beliefs,
            dark,
            &mut run.dc.site_audit_violations,
        ) {
            run.dc.rerouted_epochs += 1;
        }

        // Live rack-health mirror for the admin STATUS verb (runtime
        // observability only — never enters the deterministic stream).
        if let Some(net) = &driver.net {
            net.shared.set_rack_status(
                (0..n_racks)
                    .map(|r| RackStat {
                        rack: r as u32,
                        health: run.sup.health[r].to_string(),
                        restarts: run.sup.restarts_used[r],
                        factor: run.dc.rows[k as usize]
                            .factors
                            .get(r)
                            .copied()
                            .unwrap_or(0.0),
                    })
                    .collect(),
            );
        }

        run.dc.next_epoch = k + 1;
        if last {
            for r in 0..n_racks {
                if !run.sup.quarantined(r) {
                    run.await_drain_capture(r, k);
                }
            }
            driver.drained = true;
            run.sync_supervisor();
            driver.write_snapshot(|| ServeEngineState::Site {
                racks: run.rack_states.clone(),
                dc: run.dc.clone(),
            });
            break;
        }
        driver.pace(Duration::from_secs_f64(driver.epoch_secs));
    }

    // Join the fleet for its outcomes (quarantined racks have none).
    let rack_outs: Vec<Option<BurstOutcome>> = run
        .workers
        .iter_mut()
        .map(|w| w.take().and_then(RackWorker::join))
        .collect();

    driver.metrics.drain();
    let net_summary = net_plane.map(NetPlane::stop);
    let drained = driver.drained;

    // Floor judgment: replay each surviving rack's directive history
    // under Strategy::Normal for a like-for-like baseline. A drained
    // run's truncated window has none, exactly as single-rack — and a
    // resumed run's outcomes cover only the tail window, so they have
    // no comparable full-window baseline either.
    let judging = !drained && start_k == 0;
    let rack_outs = if judging {
        judge_racks(&run.rack_cfgs, rack_outs, &run.dc.rows, n_racks)
            .map_err(|e| ServeError::Io(std::io::Error::other(e)))?
    } else {
        rack_outs
    };
    let per_rack: Vec<(usize, BurstOutcome)> = rack_outs
        .into_iter()
        .enumerate()
        .filter_map(|(r, o)| Some((r, o?)))
        .collect();
    let floor_held =
        (judging && !per_rack.is_empty()).then(|| per_rack.iter().all(|(_, o)| o.floor_held));

    let audit_violations = run.dc.site_audit_violations.len()
        + per_rack
            .iter()
            .map(|(_, o)| o.audit_violations.len())
            .sum::<usize>();
    let mut guardrail_events = Vec::new();
    for (r, o) in &per_rack {
        guardrail_events.extend(o.guardrail_events.iter().map(|e| format!("rack {r}: {e}")));
    }
    let mean_goodput_rps = if per_rack.is_empty() {
        0.0
    } else {
        per_rack
            .iter()
            .map(|(_, o)| o.mean_goodput_rps)
            .sum::<f64>()
            / per_rack.len() as f64
    };

    Ok(ServeSummary {
        epochs_executed: driver.epochs_executed,
        resumed_from_epoch: resumed_from,
        drained,
        ticks: driver.side.ticks,
        overrun_ticks: driver.side.overrun_ticks,
        stale_epochs: driver.side.stale_epochs,
        safe_mode_epochs: per_rack
            .iter()
            .map(|(_, o)| o.safe_mode_epochs)
            .max()
            .unwrap_or(0),
        dropped_metrics_lines: driver.side.dropped_metrics_lines,
        actuation_retries: driver.side.actuation_retries,
        actuation_failures: driver.side.actuation_failures,
        control_clamped: driver.side.control_clamped,
        feed_malformed: driver.side.feed_malformed,
        audit_violations,
        ladder_level: per_rack
            .iter()
            .map(|(_, o)| o.ladder_level)
            .max()
            .unwrap_or(0),
        guardrail_events,
        floor_held,
        mean_goodput_rps,
        watchdog_stalls: driver.side.watchdog_stalls,
        racks: driver.opts.racks,
        rack_restarts: run.dc.rack_restarts,
        rack_panics: run.dc.rack_panics_seen,
        rack_stalls: run.dc.rack_stalls_seen,
        racks_quarantined: run.dc.racks_quarantined,
        rerouted_epochs: run.dc.rerouted_epochs,
        rack_health: run.sup.health.clone(),
        rack_events: run.dc.events.clone(),
        net: net_summary,
    })
}

/// Run the serve daemon to completion (or drain). See the module docs
/// for the architecture; the CLI wraps this with flag parsing and exit
/// codes.
pub fn serve(mut args: ServeArgs) -> Result<ServeSummary, ServeError> {
    // The snapshot layer requires analytic measurement; serve inherits
    // the constraint (and documents it) rather than offering a mode that
    // cannot restart.
    args.cfg.measurement = MeasurementMode::Analytic;
    args.cfg
        .validate()
        .map_err(|e| ServeError::Config(e.to_string()))?;

    // Resume: the snapshot's embedded config and options win wholesale.
    let mut resume = None;
    let mut side = ServeSideState::default();
    if let Some(path) = &args.resume_path {
        let text = fs::read_to_string(path)
            .map_err(|e| ServeError::Snapshot(format!("cannot read {}: {e}", path.display())))?;
        let snap = ServeSnapshot::from_json(&text)?;
        let mut cfg = snap.cfg;
        cfg.measurement = MeasurementMode::Analytic;
        args.cfg = cfg;
        args.options = snap.options;
        let states: Vec<&LoopState> = match &snap.engine {
            ServeEngineState::Rack(state) => vec![state],
            ServeEngineState::Site { racks, .. } => racks.iter().flatten().collect(),
        };
        for state in states {
            state
                .check_restorable(&args.cfg)
                .map_err(|e| ServeError::Snapshot(e.to_string()))?;
        }
        side = snap.serve;
        resume = Some(snap.engine);
    }
    let resumed_from = resume.as_ref().map(ServeEngineState::next_epoch);
    if args.options.overrun == OverrunPolicy::Degrade && !args.cfg.guardrail.enabled {
        return Err(ServeError::Config(
            "--overrun degrade needs the failover ladder: pass --guardrail on".to_string(),
        ));
    }
    if args.options.racks == 0 {
        return Err(ServeError::Config("--racks must be at least 1".to_string()));
    }
    let n_racks = args.options.racks as usize;
    let (resume_rack, resume_site) = match resume {
        None => (None, None),
        Some(ServeEngineState::Rack(state)) if n_racks == 1 => (Some(state), None),
        Some(ServeEngineState::Site { racks, dc }) if n_racks >= 2 => (None, Some((racks, dc))),
        Some(_) => {
            return Err(ServeError::Snapshot(
                "snapshot engine state does not match the rack count it was taken with".to_string(),
            ))
        }
    };
    if n_racks >= 2 && matches!(args.control, ControlBackend::Sysfs(_)) {
        return Err(ServeError::Config(
            "--control sysfs drives one physical rack; it cannot serve --racks >= 2".to_string(),
        ));
    }

    // Multi-rack runs actuate the site's concatenated settings.
    let n = args.cfg.green.green_servers * n_racks;
    let n_epochs = args
        .cfg
        .burst_duration
        .div_duration(args.cfg.epoch)
        .ok_or_else(|| ServeError::Config("burst duration must be whole epochs".to_string()))?;

    // Durable-metrics reconciliation: emission restarts one line after
    // the last complete line already on disk. The flush-before-snapshot
    // invariant guarantees last_epoch >= next_epoch - 1; anything less
    // means the file was tampered with — warn, then emit the gap's
    // epochs fresh (they are recomputed identically anyway).
    let mut emit_from = 0u64;
    if resumed_from.is_none() {
        // A fresh start owns its metrics file: stale lines from an
        // earlier run would corrupt the byte-identity contract.
        if let Some(path) = &args.metrics_path {
            if path.exists() {
                fs::write(path, "")?;
            }
        }
    } else {
        if let Some(path) = &args.metrics_path {
            if let Some(last) = prepare_metrics_for_resume(path)? {
                emit_from = last + 1;
            }
        }
        let next = resumed_from.unwrap_or(0);
        if emit_from < next {
            eprintln!(
                "serve: warning: metrics file ends at epoch {} but snapshot resumes at {} — \
                 re-emitting the missing lines",
                emit_from as i64 - 1,
                next
            );
        }
    }

    let feed = match &args.feed_path {
        Some(p) => Some(open_feed(p, args.sim_time)?),
        None => None,
    };

    // The network plane starts after the fresh-start metrics truncation
    // above, so `?from_epoch=` replay can never serve a stale run's
    // lines. Telemetry frames flow through a bounded channel; overflow
    // is counted by the plane, never blocking a sender or the loop.
    let mut net_plane: Option<NetPlane> = None;
    let mut net_handle: Option<NetHandle> = None;
    if let Some(netcfg) = &args.net {
        netcfg.validate().map_err(ServeError::Config)?;
        let (tx, rx) = mpsc::sync_channel(1024);
        let plane = NetPlane::start(netcfg, tx, args.metrics_path.clone())?;
        if let Some(a) = plane.addrs.listen {
            eprintln!("serve: listening on {a}");
        }
        if let Some(a) = plane.addrs.metrics {
            eprintln!("serve: metrics listener on {a}");
        }
        net_handle = Some(NetHandle {
            shared: plane.shared(),
            rx,
        });
        net_plane = Some(plane);
    }

    let controls: Vec<FlakyControl<AnyControl>> = match &args.control {
        ControlBackend::None => Vec::new(),
        ControlBackend::Sim => (0..n)
            .map(|_| FlakyControl::new(AnyControl::Sim(SimControl::new())))
            .collect(),
        ControlBackend::Sysfs(root) => (0..n)
            .map(|i| {
                let dir = root.join(format!("server{i}"));
                let c = if dir.join("cpu0").exists() {
                    SysfsControl::new(&dir)
                } else {
                    SysfsControl::create_fake_tree(&dir)?
                };
                Ok(FlakyControl::new(AnyControl::Sysfs(c)))
            })
            .collect::<Result<_, std::io::Error>>()?,
    };
    if side.fail_streaks.len() != n {
        side.fail_streaks = vec![0; n];
    }

    install_sigterm_handler();
    TERM_REQUESTED.store(false, Ordering::SeqCst);

    let epoch_secs = args.cfg.epoch.as_secs_f64();
    let mut driver = ServeDriver {
        cfg: args.cfg.clone(),
        sim_time: args.sim_time,
        rate: args.rate,
        throttle: Duration::from_millis(args.throttle_ms),
        tick_budget: args.tick_budget_ms.map(Duration::from_millis),
        tick_started: None,
        feed,
        net: net_handle,
        metrics: MetricsSink::new(args.metrics_path.clone(), args.options.metrics_buffer),
        heartbeat_path: args.heartbeat_path.clone(),
        snapshot_path: args.snapshot_path.clone(),
        controls,
        emit_from,
        drain_after: args.drain_after_epochs,
        executed_this_run: 0,
        epochs_executed: resumed_from.unwrap_or(0),
        drained: false,
        cur_stale: false,
        cur_overrun: false,
        epoch_secs,
        opts: args.options.clone(),
        side,
    };

    if n_racks >= 2 {
        return run_multi_rack(driver, resume_site, resumed_from, n_epochs, net_plane);
    }

    let profiles = ProfileTable::cached(args.cfg.app);
    let mut scratch = EngineScratch::new();
    let (outcome, _monitor, _policy) = run_once_resumable(
        &args.cfg,
        args.cfg.strategy,
        profiles,
        resume_rack,
        args.options.snapshot_every,
        &mut scratch,
        &mut driver,
    );

    // Whatever the loop left buffered goes out now; a run that ends
    // cleanly (or drains) leaves no line hostage to the buffer.
    driver.metrics.drain();

    // Stop the plane after the final drain: subscribers get every
    // emitted line flushed before the FIN, reader connections are
    // slammed, every thread joins (bounded by the connection timeouts).
    let net_summary = net_plane.map(NetPlane::stop);

    let drained = driver.drained || outcome.epochs.len() < n_epochs as usize;
    // Floor judgment needs a like-for-like Normal baseline; a drained
    // run's truncated window has none, so the field stays None there.
    let judged = if drained {
        None
    } else {
        let baseline = run_once(&args.cfg, Strategy::Normal, profiles, &mut scratch).0;
        Some(judge(&args.cfg, outcome.clone(), Some(baseline)))
    };
    let floor_held = judged.as_ref().map(|j| j.floor_held);
    let report = judged.unwrap_or(outcome);

    Ok(ServeSummary {
        epochs_executed: driver.epochs_executed,
        resumed_from_epoch: resumed_from,
        drained,
        ticks: driver.side.ticks,
        overrun_ticks: driver.side.overrun_ticks,
        stale_epochs: driver.side.stale_epochs,
        safe_mode_epochs: report.safe_mode_epochs,
        dropped_metrics_lines: driver.side.dropped_metrics_lines,
        actuation_retries: driver.side.actuation_retries,
        actuation_failures: driver.side.actuation_failures,
        control_clamped: driver.side.control_clamped,
        feed_malformed: driver.side.feed_malformed,
        audit_violations: report.audit_violations.len(),
        ladder_level: report.ladder_level,
        guardrail_events: report.guardrail_events.clone(),
        floor_held,
        mean_goodput_rps: report.mean_goodput_rps,
        watchdog_stalls: driver.side.watchdog_stalls,
        racks: 1,
        rack_restarts: 0,
        rack_panics: 0,
        rack_stalls: 0,
        racks_quarantined: 0,
        rerouted_epochs: 0,
        rack_health: Vec::new(),
        rack_events: Vec::new(),
        net: net_summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disturbance_plan_is_a_pure_function_of_seed() {
        let a = DisturbancePlan::generate(42, 100);
        let b = DisturbancePlan::generate(42, 100);
        assert_eq!(a, b);
        let c = DisturbancePlan::generate(43, 100);
        assert_ne!(a, c, "different seeds should differ");
        // Lists come back sorted + deduplicated so binary_search lookups hold.
        for list in [&a.stale, &a.overruns, &a.stalls] {
            assert!(list.windows(2).all(|w| w[0] < w[1]), "{list:?}");
            assert!(list.iter().all(|&k| k < 100));
        }
        // Every category is non-empty: a generated plan always exercises
        // each robustness path at least once.
        assert!(!a.stale.is_empty() && !a.overruns.is_empty());
        assert!(!a.stalls.is_empty() && !a.actuation.is_empty());
    }

    #[test]
    fn disturbance_plan_survives_a_json_roundtrip() {
        let plan = DisturbancePlan::generate(7, 30);
        let json = serde_json::to_string(&plan).unwrap();
        let back: DisturbancePlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn metrics_sink_drops_oldest_and_counts() {
        let mut sink = MetricsSink::new(None, 3);
        assert_eq!(sink.push("a".into()), 0);
        assert_eq!(sink.push("b".into()), 0);
        assert_eq!(sink.push("c".into()), 0);
        assert_eq!(sink.push("d".into()), 1, "capacity 3: the oldest goes");
        assert_eq!(
            sink.buf.iter().cloned().collect::<Vec<_>>(),
            vec!["b", "c", "d"],
            "drop-oldest keeps the newest lines"
        );
    }

    #[test]
    fn metrics_sink_unwritable_path_keeps_lines_buffered() {
        let dir = std::env::temp_dir().join("gs_serve_sink_test_dir");
        let _ = fs::create_dir_all(&dir);
        // The path is a directory: open-for-append fails, drain reports
        // the stall, and nothing is lost from the buffer.
        let mut sink = MetricsSink::new(Some(dir.clone()), 8);
        sink.push("line".into());
        assert!(!sink.drain());
        assert_eq!(sink.buf.len(), 1, "failed drain must not discard");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_writes_never_expose_a_torn_file() {
        let dir = std::env::temp_dir().join("gs_serve_atomic_test");
        let _ = fs::create_dir_all(&dir);
        let path = dir.join("heartbeat.json");
        // Two payloads of very different lengths: a torn write would
        // show a prefix of the long one or a mix of both.
        let short = "{\"epoch\":1}\n".to_string();
        let long = format!("{{\"epoch\":2,\"pad\":\"{}\"}}\n", "x".repeat(4096));
        write_atomic(&path, &short).unwrap();
        let writer = {
            let (path, short, long) = (path.clone(), short.clone(), long.clone());
            std::thread::spawn(move || {
                for i in 0..200 {
                    let payload = if i % 2 == 0 { &long } else { &short };
                    write_atomic(&path, payload).unwrap();
                }
            })
        };
        let mut reads = 0u32;
        while !writer.is_finished() {
            let text = fs::read_to_string(&path).unwrap();
            assert!(
                text == short || text == long,
                "torn heartbeat observed ({} bytes)",
                text.len()
            );
            reads += 1;
        }
        writer.join().unwrap();
        assert!(reads > 0, "the reader must actually race the writer");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_trims_a_torn_metrics_tail() {
        let path = std::env::temp_dir().join("gs_serve_trim_test.jsonl");
        fs::write(
            &path,
            "{\"epoch\":0,\"x\":1}\n{\"epoch\":1,\"x\":2}\n{\"epoch\":2,\"x\"",
        )
        .unwrap();
        let last = prepare_metrics_for_resume(&path).unwrap();
        assert_eq!(last, Some(1), "the torn line does not count");
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.ends_with("{\"epoch\":1,\"x\":2}\n"), "{text:?}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn resume_of_a_missing_metrics_file_is_a_fresh_stream() {
        let path = std::env::temp_dir().join("gs_serve_no_such_file.jsonl");
        let _ = fs::remove_file(&path);
        assert_eq!(prepare_metrics_for_resume(&path).unwrap(), None);
    }

    #[test]
    fn serve_snapshot_rejects_schema_and_fingerprint_drift() {
        let dir = std::env::temp_dir().join("gs_serve_snaptest");
        let _ = fs::create_dir_all(&dir);
        let snap_path = dir.join("snap.json");
        let args = ServeArgs {
            snapshot_path: Some(snap_path.clone()),
            drain_after_epochs: Some(1),
            ..ServeArgs::default()
        };
        let summary = serve(args).expect("drain serve runs");
        assert!(summary.drained);
        let json = fs::read_to_string(&snap_path).unwrap();
        let snap = ServeSnapshot::from_json(&json).expect("a real snapshot verifies");
        assert!(matches!(snap.engine, ServeEngineState::Rack(st) if st.next_epoch == 1));

        let bad_schema = json.replacen(ServeSnapshot::SCHEMA, "gs-serve-0", 1);
        assert!(matches!(
            ServeSnapshot::from_json(&bad_schema),
            Err(ServeError::Snapshot(_))
        ));

        let tampered_json = crate::checkpoint::with_fingerprint(&json, "0000000000000000");
        assert!(matches!(
            ServeSnapshot::from_json(&tampered_json),
            Err(ServeError::Snapshot(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Drain a one-epoch serve into a single-rack snapshot, apply `edit` to its
    /// engine state, and resume from it; `Err` carries the refusal.
    fn resume_tampered(name: &str, edit: impl FnOnce(&mut LoopState)) -> Result<(), String> {
        let dir = std::env::temp_dir().join(name);
        let _ = fs::create_dir_all(&dir);
        let snap_path = dir.join("snap.json");
        let args = ServeArgs {
            snapshot_path: Some(snap_path.clone()),
            drain_after_epochs: Some(1),
            ..ServeArgs::default()
        };
        serve(args).expect("drain serve runs");
        let mut snap = ServeSnapshot::from_json(&fs::read_to_string(&snap_path).unwrap()).unwrap();
        let ServeEngineState::Rack(state) = &mut snap.engine else {
            panic!("a single-rack daemon writes one rack's state");
        };
        edit(state);
        fs::write(&snap_path, encode(&snap)).unwrap();
        let resumed = serve(ServeArgs {
            resume_path: Some(snap_path),
            ..ServeArgs::default()
        });
        let _ = fs::remove_dir_all(&dir);
        match resumed {
            Err(ServeError::Snapshot(m)) => Err(m),
            other => panic!("expected a snapshot error, got {other:?}"),
        }
    }

    #[test]
    fn resume_refuses_a_tampered_engine_state() {
        let m = resume_tampered("gs_serve_tamper_test", |st| st.prev_settings.clear());
        assert!(m.as_ref().unwrap_err().contains("`prev_settings`"), "{m:?}");
    }

    #[test]
    fn resume_refuses_a_short_battery_vector() {
        let m = resume_tampered("gs_serve_tamper_batteries", |st| {
            st.batteries.pop();
        });
        assert!(m.as_ref().unwrap_err().contains("`batteries`"), "{m:?}");
    }

    #[test]
    fn degrade_without_guardrail_is_a_config_error() {
        let args = ServeArgs {
            options: ServeOptions {
                overrun: OverrunPolicy::Degrade,
                ..ServeOptions::default()
            },
            ..ServeArgs::default()
        };
        assert!(matches!(serve(args), Err(ServeError::Config(_))));
    }
}
