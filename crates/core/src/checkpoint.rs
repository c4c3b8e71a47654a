//! Crash-safe checkpointing: a write-ahead journal for sweep results and
//! serializable mid-run snapshots.
//!
//! Two durability mechanisms, for the two shapes of long work:
//!
//! * **Journal** — a JSON-lines write-ahead log of completed
//!   [`SweepResult`]s. The first line is a [`JournalHeader`] carrying the
//!   master seed, a digest of the point list, the full point list itself
//!   (so `greensprint resume FILE` needs no flags re-specified), and a
//!   code/config fingerprint. Every append is fsync'd before the executor
//!   moves on, so a SIGKILL loses at most the record being written — and
//!   reload tolerates exactly that: an unparseable *final* line is treated
//!   as a truncated tail and dropped; garbage anywhere earlier is
//!   corruption and a hard error.
//! * **Snapshot** — the full serializable controller state of a running
//!   engine window ([`LoopState`]: Monitor history, predictor EWMAs,
//!   Q-table, battery state, fault cursor, RNG stream position, meters),
//!   wrapped with enough context to resume the run and finish with output
//!   byte-identical to the uninterrupted run. Every kind of snapshot file
//!   is one envelope `{"schema", "fingerprint", "payload"}`: [`encode`]
//!   writes it, [`decode`] is the one reader, and [`write_atomic`] the
//!   one durable writer. The payload is an [`EngineSnapshot`] (burst or
//!   campaign), a [`crate::broker::DatacenterSnapshot`] or a
//!   [`crate::serve::ServeSnapshot`].
//!
//! A snapshot's fingerprint covers its schema tag, the crate version and
//! its embedded configuration; [`decode`] refuses a file whose tag or
//! fingerprint no longer matches, instead of silently continuing a run
//! whose physics changed underneath it.

use crate::campaign::CampaignConfig;
use crate::engine::{BurstOutcome, EngineConfig, EngineError, EpochRecord, ThermalModel};
use crate::monitor::Monitor;
use crate::pmk::ActuationWatchdog;
use crate::predictor::{ClearSkyIndexedPredictor, Predictor};
use crate::qlearning::{PolicyError, QLearner, QState};
use crate::sweep::{SweepPoint, SweepResult};
use gs_cluster::ServerSetting;
use gs_power::battery::Battery;
use gs_power::meter::PowerMeter;
use gs_power::pss::SafeSupplyEstimator;
use gs_sim::SimRng;
use serde::{Deserialize, Serialize, Value};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Salt of the journal header's fingerprint. It predates the snapshot
/// envelope and stays, so journals written before the envelope still
/// resume.
const JOURNAL_SALT: &str = "gs-ckpt-1";

/// FNV-1a over the given parts, rendered as a compact hex tag.
pub fn fingerprint(parts: &[&str]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for b in part.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separate the parts so ("ab","c") != ("a","bc").
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The compatibility fingerprint a journal header is stamped with: the
/// journal salt, crate version, and the JSON of its point list. A resume
/// across a code or config change fails fast.
pub fn journal_fingerprint(points_json: &str) -> String {
    fingerprint(&[JOURNAL_SALT, env!("CARGO_PKG_VERSION"), points_json])
}

/// Digest of a sweep's point list, stored in the journal header so resume
/// can verify it is continuing the same grid.
pub fn points_digest(points: &[SweepPoint]) -> String {
    let json = serde_json::to_string(&points).expect("sweep points serialize");
    fingerprint(&[&json])
}

// ---------------------------------------------------------------------------
// The snapshot envelope
// ---------------------------------------------------------------------------

/// The payload of a snapshot envelope: the state one kind of resumable
/// run writes. It names its schema tag and the configuration its
/// fingerprint covers; [`encode`] and [`decode`] do the rest.
pub trait SnapshotPayload: Serialize + Deserialize {
    /// The envelope's schema tag. Change it whenever the payload's
    /// serialized shape changes incompatibly.
    const SCHEMA: &'static str;
    /// The configuration the fingerprint covers.
    type Config: Serialize;
    /// This payload's embedded configuration.
    fn config(&self) -> &Self::Config;
}

/// Why a snapshot file was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Not JSON, not an envelope, or a payload that does not parse.
    Malformed(String),
    /// The envelope's schema tag is not the one the reader expects.
    Schema {
        /// The tag the file carries (`None`: no tag, as in a file from
        /// before the envelope).
        found: Option<String>,
        /// The tag this reader decodes.
        expected: &'static str,
    },
    /// The fingerprint does not match this build and the embedded
    /// configuration.
    Fingerprint {
        /// The fingerprint the file carries.
        found: String,
        /// The fingerprint this build computes for its configuration.
        expected: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Malformed(m) => write!(f, "malformed snapshot: {m}"),
            SnapshotError::Schema {
                found: Some(found),
                expected,
            } => write!(
                f,
                "snapshot schema {found:?} is not {expected:?}, the only one this build reads"
            ),
            SnapshotError::Schema {
                found: None,
                expected,
            } => write!(
                f,
                "snapshot has no schema tag (a file from before the snapshot envelope); \
                 this build reads only {expected:?}"
            ),
            SnapshotError::Fingerprint { found, expected } => write!(
                f,
                "snapshot fingerprint {found} does not match this build/config ({expected}); \
                 the code or configuration changed since the snapshot was written"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The fingerprint of `payload`'s envelope: schema tag, crate version
/// and configuration JSON.
fn snapshot_fingerprint<P: SnapshotPayload>(payload: &P) -> String {
    // A configuration that cannot serialize fingerprints as "" on both
    // the write and the read side, so the comparison still behaves.
    let config = serde_json::to_string(payload.config()).unwrap_or_default();
    fingerprint(&[P::SCHEMA, env!("CARGO_PKG_VERSION"), &config])
}

/// Encode `payload` as the text of a snapshot file.
pub fn encode<P: SnapshotPayload>(payload: &P) -> String {
    let envelope = Value::Object(vec![
        ("schema".to_string(), Value::String(P::SCHEMA.to_string())),
        (
            "fingerprint".to_string(),
            Value::String(snapshot_fingerprint(payload)),
        ),
        ("payload".to_string(), payload.to_value()),
    ]);
    serde_json::to_string(&envelope).expect("a JSON value tree renders")
}

/// Decode the text of a snapshot file: the one place that checks an
/// envelope's schema tag and fingerprint.
pub fn decode<P: SnapshotPayload>(text: &str) -> Result<P, SnapshotError> {
    let malformed = |m: &str| SnapshotError::Malformed(m.to_string());
    let envelope: Value = serde_json::from_str(text).map_err(|e| malformed(&e.to_string()))?;
    let found = envelope.get("schema").and_then(Value::as_str);
    if found != Some(P::SCHEMA) {
        return Err(SnapshotError::Schema {
            found: found.map(str::to_string),
            expected: P::SCHEMA,
        });
    }
    let stamped = envelope
        .get("fingerprint")
        .and_then(Value::as_str)
        .ok_or_else(|| malformed("missing envelope field `fingerprint`"))?;
    let payload = envelope
        .get("payload")
        .ok_or_else(|| malformed("missing envelope field `payload`"))?;
    let payload = P::from_value(payload).map_err(|e| malformed(&e.to_string()))?;
    let expected = snapshot_fingerprint(&payload);
    if stamped != expected {
        return Err(SnapshotError::Fingerprint {
            found: stamped.to_string(),
            expected,
        });
    }
    Ok(payload)
}

/// Durable atomic file replace: write a sibling temp file, fsync it,
/// rename it over `path`, fsync the directory. The temp name carries the
/// pid and a per-process sequence number, so two writers pointed at the
/// same path — processes or threads — never interleave halves of each
/// other's writes; a reader sees the old file or the new one, whole.
pub fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{seq}", std::process::id()));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // The rename survives a crash only once its directory entry does.
    #[cfg(unix)]
    {
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Engine snapshots
// ---------------------------------------------------------------------------

/// Every piece of mutable state the scheduling-epoch loop carries across
/// epochs — and, while the loop runs, that state itself: the loop's
/// stages mutate one `LoopState` in place. Three fields are owned live by
/// the controllers instead (`learner` by the PMK, `guardrail` by the
/// guardrail, `audit_violations` by the invariant auditor) and are filled
/// in only on capture. A capture is a clone and a resume a move, so a new
/// field is carried across a snapshot without being named anywhere else;
/// the outcome of a resumed run is byte-identical to the uninterrupted
/// run's.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoopState {
    /// The next epoch index to execute.
    pub next_epoch: u64,
    /// RNG stream position.
    pub rng: SimRng,
    /// Battery packs (charge state and wear).
    pub batteries: Vec<Option<Battery>>,
    /// Per-battery grid-recharge latches.
    pub grid_recharging: Vec<bool>,
    /// Grid energy already spent on in-burst recharge (Wh).
    pub in_burst_grid_recharge_wh: f64,
    /// The paper's EWMA predictor state.
    pub predictor: Predictor,
    /// The clear-sky-indexed predictor state.
    pub cs_predictor: ClearSkyIndexedPredictor,
    /// Hybrid's Q-table, if the strategy carries one.
    pub learner: Option<QLearner>,
    /// Hybrid's pending (state, action) awaiting its Bellman update.
    pub pending_q: Option<(QState, ServerSetting)>,
    /// Last epoch's applied settings (hysteresis and actuation faults).
    pub prev_settings: Vec<ServerSetting>,
    /// Knob transitions so far.
    pub setting_transitions: usize,
    /// Which battery-fade fault events have already applied.
    pub fade_done: Vec<bool>,
    /// Commanded-vs-observed actuation watchdog state.
    pub watchdog: ActuationWatchdog,
    /// Safe-mode supply estimator state.
    pub safe_supply: SafeSupplyEstimator,
    /// The telemetry one-epoch delay line.
    pub last_raw_obs_w: Option<f64>,
    /// Epochs with an active fault so far.
    pub fault_epochs: usize,
    /// Epochs planned in safe mode so far.
    pub safe_mode_epochs: usize,
    /// Epochs with a watchdog clamp so far.
    pub watchdog_clamped_epochs: usize,
    /// Energy meters.
    pub meter: PowerMeter,
    /// Monitor observation streams.
    pub monitor: Monitor,
    /// Per-epoch records so far.
    pub epochs: Vec<EpochRecord>,
    /// Goodput accumulator.
    pub goodput_sum: f64,
    /// Offered-load accumulator.
    pub offered_sum: f64,
    /// Cumulative believed renewable supply (planner mean).
    pub re_sum_w: f64,
    /// Thermal package states.
    pub thermals: Vec<gs_thermal::ThermalPackage>,
    /// Epochs with a thermal throttle so far.
    pub thermal_throttle_epochs: usize,
    /// Hottest temperature seen so far (°C).
    pub peak_temp_c: f64,
    /// Invariant-auditor violations so far.
    pub audit_violations: Vec<String>,
    /// Grid energy already audited (Wh).
    pub audited_grid_wh: f64,
    /// Curtailed energy already audited (Wh).
    pub audited_curtailed_wh: f64,
    /// Guardrail ladder/probation state, when the guardrail is enabled.
    /// Absent in pre-guardrail snapshots.
    #[serde(default)]
    pub guardrail: Option<crate::guardrail::GuardrailState>,
    /// Per-server remaining crash-outage epochs (fleet faults).
    #[serde(default)]
    pub down_left: Vec<u32>,
    /// Per-server consecutive-healthy-epoch streaks (rejoin hysteresis).
    #[serde(default)]
    pub health_streak: Vec<u32>,
    /// Server-epochs spent dead so far.
    #[serde(default)]
    pub dead_server_epochs: usize,
    /// Server-epochs spent straggling so far.
    #[serde(default)]
    pub straggler_epochs: usize,
    /// Smallest live-fleet size seen so far.
    #[serde(default)]
    pub min_live_servers: usize,
    /// Human-readable fleet crash/flap/rejoin log.
    #[serde(default)]
    pub fleet_events: Vec<String>,
}

impl LoopState {
    /// Check a deserialized state against the configuration it resumes
    /// under: every value the epoch loop indexes with or trusts as a
    /// length. A snapshot's fingerprint covers only its configuration, so
    /// a tampered state must fail here, with a typed error naming the
    /// field, rather than panic mid-run or silently truncate it.
    pub(crate) fn check_restorable(&self, cfg: &EngineConfig) -> Result<(), EngineError> {
        let bad = |field: &str, why: String| {
            Err(EngineError::SnapshotMismatch(format!(
                "snapshot field `{field}` {why}"
            )))
        };
        let n = cfg.green.green_servers;
        if let Some(learner) = &self.learner {
            match learner.validate() {
                // A chaos-poisoned table is live state: the run carries it
                // on (and the guardrail, when on, quarantines it).
                Ok(()) | Err(PolicyError::NonFinite { .. }) => {}
                Err(e) => return bad("learner", e.to_string()),
            }
        }
        if let Some((s, a)) = self.pending_q {
            if !s.in_range() || !a.in_range() {
                return bad("pending_q", format!("is out of range: {s:?}, {a:?}"));
            }
        }
        if let Some(a) = self.prev_settings.iter().find(|a| !a.in_range()) {
            return bad("prev_settings", format!("holds an out-of-range {a:?}"));
        }
        let thermals = if cfg.thermal == ThermalModel::Disabled {
            0
        } else {
            n
        };
        let fault_events = cfg.fault_plan.as_ref().map_or(0, |p| p.events.len());
        let lengths = [
            ("batteries", self.batteries.len(), n),
            ("grid_recharging", self.grid_recharging.len(), n),
            ("prev_settings", self.prev_settings.len(), n),
            ("down_left", self.down_left.len(), n),
            ("health_streak", self.health_streak.len(), n),
            ("thermals", self.thermals.len(), thermals),
            ("fade_done", self.fade_done.len(), fault_events),
            // Every capture holds one record per executed epoch.
            (
                "next_epoch",
                usize::try_from(self.next_epoch).unwrap_or(usize::MAX),
                self.epochs.len(),
            ),
        ];
        if let Some((field, len, want)) = lengths.iter().find(|(_, len, want)| len != want) {
            return bad(field, format!("counts {len} where the run needs {want}"));
        }
        let consistent = [
            ("watchdog", self.watchdog.tracks(n)),
            ("min_live_servers", self.min_live_servers <= n),
            (
                "guardrail",
                self.guardrail
                    .as_ref()
                    .is_none_or(|g| g.level < g.ladder.len()),
            ),
        ];
        if let Some((field, _)) = consistent.iter().find(|(_, ok)| !ok) {
            return bad(
                field,
                format!("does not fit a {n}-server run of this configuration"),
            );
        }
        Ok(())
    }
}

/// Which of the two runs inside an experiment the snapshot was taken in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunPhase {
    /// The strategy-under-test run.
    Strategy,
    /// The Normal-baseline run (the strategy run already finished).
    Baseline,
}

/// The finished strategy run, carried inside baseline-phase snapshots so
/// resume can still assemble the final normalized outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MainCarry {
    /// The strategy run's raw outcome (not yet normalized to Normal).
    pub outcome: BurstOutcome,
    /// The strategy run's Monitor streams (bursts carry them; campaigns
    /// drop them).
    pub monitor: Option<Monitor>,
    /// The strategy run's exported policy, if any.
    pub policy: Option<String>,
}

/// What kind of experiment the snapshot belongs to, with its full
/// configuration embedded — `greensprint resume FILE` needs nothing else.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SnapshotScope {
    /// A single controlled burst.
    Burst(EngineConfig),
    /// A multi-day campaign.
    Campaign(CampaignConfig),
}

/// A resumable mid-run checkpoint of a burst or campaign experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineSnapshot {
    /// The experiment this snapshot belongs to.
    pub scope: SnapshotScope,
    /// Which run inside the experiment was in flight.
    pub phase: RunPhase,
    /// The finished strategy run, when `phase` is [`RunPhase::Baseline`].
    pub main_carry: Option<MainCarry>,
    /// The captured loop state.
    pub state: LoopState,
}

impl SnapshotPayload for EngineSnapshot {
    const SCHEMA: &'static str = "gs-engine-2";
    type Config = SnapshotScope;
    fn config(&self) -> &SnapshotScope {
        &self.scope
    }
}

impl EngineSnapshot {
    /// Encode as a snapshot file's text ([`encode`]).
    pub fn to_json(&self) -> String {
        encode(self)
    }

    /// Decode a snapshot file's text ([`decode`]).
    pub fn from_json(json: &str) -> Result<Self, SnapshotError> {
        decode(json)
    }
}

// ---------------------------------------------------------------------------
// The write-ahead sweep journal
// ---------------------------------------------------------------------------

/// First line of a journal file: what sweep this is.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JournalHeader {
    /// File-format tag.
    pub magic: String,
    /// Compatibility fingerprint ([`journal_fingerprint`] of the
    /// serialized point list).
    pub fingerprint: String,
    /// `"sweep"` or `"chaos"` — which CLI mode wrote it.
    pub mode: String,
    /// The sweep's master seed (per-task seeds derive from it).
    pub master_seed: u64,
    /// [`points_digest`] of `points`.
    pub points_digest: String,
    /// The full point list, embedded so resume is self-contained.
    pub points: Vec<SweepPoint>,
}

/// The magic tag identifying a journal file.
pub const JOURNAL_MAGIC: &str = "greensprint-journal";

impl JournalHeader {
    /// Build a header for a sweep about to run.
    pub fn new(mode: &str, master_seed: u64, points: Vec<SweepPoint>) -> Self {
        let points_json = serde_json::to_string(&points).expect("sweep points serialize");
        JournalHeader {
            magic: JOURNAL_MAGIC.to_string(),
            fingerprint: journal_fingerprint(&points_json),
            mode: mode.to_string(),
            master_seed,
            points_digest: points_digest(&points),
            points,
        }
    }
}

/// Why a journal could not be loaded.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem trouble.
    Io(std::io::Error),
    /// The file is not a journal (bad or missing header).
    NotAJournal(String),
    /// A record *before* the final line failed to parse — truncation can
    /// only eat the tail, so this is corruption, not a crash artifact.
    Corrupt {
        /// 1-based line number of the bad record.
        line: usize,
        /// Parser message.
        message: String,
    },
    /// The journal belongs to a different sweep than the caller expected.
    Mismatch(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::NotAJournal(m) => write!(f, "not a greensprint journal: {m}"),
            JournalError::Corrupt { line, message } => {
                write!(f, "journal corrupt at line {line}: {message}")
            }
            JournalError::Mismatch(m) => write!(f, "journal mismatch: {m}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Parse one journal line. Invalid UTF-8 fails like malformed JSON, so
/// a flipped byte is corruption rather than a replacement character.
fn parse_line<T: Deserialize>(line: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(line).map_err(|e| format!("invalid UTF-8: {e}"))?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

/// A journal parsed back from disk.
#[derive(Debug)]
pub struct LoadedJournal {
    /// The header line.
    pub header: JournalHeader,
    /// Every intact result record, in file (completion) order.
    pub results: Vec<SweepResult>,
    /// Byte length of the valid prefix (header + intact records).
    pub valid_len: u64,
    /// True when a truncated final line was dropped.
    pub dropped_tail: bool,
}

impl LoadedJournal {
    /// Indices of the points that already have a journaled result.
    pub fn completed_indices(&self) -> std::collections::HashSet<usize> {
        self.results.iter().map(|r| r.index).collect()
    }
}

/// An open, append-only journal. Every append is flushed and fsync'd
/// before returning: once `append` comes back, that record survives a
/// SIGKILL.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl Journal {
    /// Create a fresh journal at `path` (truncating anything there),
    /// writing and fsyncing the header line.
    pub fn create(path: &Path, header: &JournalHeader) -> Result<Journal, JournalError> {
        let mut file = File::create(path)?;
        let line = serde_json::to_string(header).expect("journal header serializes");
        file.write_all(line.as_bytes())?;
        file.write_all(b"\n")?;
        file.sync_data()?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Parse the journal at `path` without modifying it.
    pub fn load(path: &Path) -> Result<LoadedJournal, JournalError> {
        let mut raw = Vec::new();
        File::open(path)?.read_to_end(&mut raw)?;

        let mut results = Vec::new();
        let mut header: Option<JournalHeader> = None;
        let mut valid_len = 0u64;
        let mut dropped_tail = false;

        // Walk newline-terminated segments of the raw bytes, so offsets
        // are file offsets; a final segment without its newline is by
        // definition the interrupted tail.
        let mut offset = 0usize;
        let mut line_no = 0usize;
        let mut segments = raw.split_inclusive(|&b| b == b'\n').peekable();
        while let Some(seg) = segments.next() {
            line_no += 1;
            let is_last = segments.peek().is_none();
            let complete = seg.ends_with(b"\n");
            let body_len = seg
                .iter()
                .rposition(|b| !matches!(b, b'\n' | b'\r'))
                .map_or(0, |i| i + 1);
            let body = &seg[..body_len];
            if body.is_empty() {
                offset += seg.len();
                if complete {
                    valid_len = offset as u64;
                }
                continue;
            }
            if line_no == 1 {
                let h: JournalHeader = parse_line(body).map_err(JournalError::NotAJournal)?;
                if h.magic != JOURNAL_MAGIC {
                    return Err(JournalError::NotAJournal(format!(
                        "unexpected magic {:?}",
                        h.magic
                    )));
                }
                if !complete {
                    return Err(JournalError::NotAJournal(
                        "header line is truncated".to_string(),
                    ));
                }
                header = Some(h);
                offset += seg.len();
                valid_len = offset as u64;
                continue;
            }
            match parse_line::<SweepResult>(body) {
                Ok(r) if complete => {
                    results.push(r);
                    offset += seg.len();
                    valid_len = offset as u64;
                }
                Err(message) if !is_last => {
                    return Err(JournalError::Corrupt {
                        line: line_no,
                        message,
                    });
                }
                // Either parsed but the newline never landed (the append
                // was cut between its two writes; appending after it
                // would corrupt the line, so drop and re-run it), or an
                // unparseable final line torn mid-record or mid-character:
                // the crash artifact the journal is designed for.
                _ => dropped_tail = true,
            }
        }

        let header = header
            .ok_or_else(|| JournalError::NotAJournal("empty file (no header)".to_string()))?;
        Ok(LoadedJournal {
            header,
            results,
            valid_len,
            dropped_tail,
        })
    }

    /// Reopen an existing journal for appending: parse it, truncate any
    /// damaged tail, and return the loaded state alongside the open
    /// handle.
    pub fn resume(path: &Path) -> Result<(Journal, LoadedJournal), JournalError> {
        let loaded = Self::load(path)?;
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(loaded.valid_len)?;
        file.seek(std::io::SeekFrom::End(0))?;
        file.sync_data()?;
        Ok((
            Journal {
                file,
                path: path.to_path_buf(),
            },
            loaded,
        ))
    }

    /// Append one result record durably (write + fsync).
    pub fn append(&mut self, result: &SweepResult) -> Result<(), JournalError> {
        let line = serde_json::to_string(result).expect("sweep result serializes");
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Where this journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// `text`, a snapshot envelope, re-stamped with `fingerprint`.
#[cfg(test)]
pub(crate) fn with_fingerprint(text: &str, fingerprint: &str) -> String {
    let Ok(Value::Object(mut fields)) = serde_json::from_str::<Value>(text) else {
        panic!("not a snapshot envelope");
    };
    for (key, value) in &mut fields {
        if key == "fingerprint" {
            *value = Value::String(fingerprint.to_string());
        }
    }
    serde_json::to_string(&Value::Object(fields)).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AvailabilityLevel, GreenConfig};
    use crate::engine::MeasurementMode;
    use crate::pmk::Strategy;
    use crate::sweep::{derive_seed, run_sweep};
    use gs_sim::SimDuration;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("gs-journal-{}-{name}", std::process::id()))
    }

    fn points(n: usize) -> Vec<SweepPoint> {
        (0..n)
            .map(|i| {
                SweepPoint::burst(
                    format!("p{i}"),
                    EngineConfig {
                        strategy: Strategy::Greedy,
                        green: GreenConfig::re_batt(),
                        availability: AvailabilityLevel::Medium,
                        burst_duration: SimDuration::from_mins(5),
                        measurement: MeasurementMode::Analytic,
                        ..EngineConfig::default()
                    },
                )
            })
            .collect()
    }

    #[test]
    fn fingerprint_separates_parts_and_is_stable() {
        assert_eq!(fingerprint(&["a", "b"]), fingerprint(&["a", "b"]));
        assert_ne!(fingerprint(&["ab"]), fingerprint(&["a", "b"]));
        assert_ne!(fingerprint(&["a", "bc"]), fingerprint(&["ab", "c"]));
    }

    #[test]
    fn journal_round_trips() {
        let path = tmp("roundtrip");
        let pts = points(3);
        let results = run_sweep(pts.clone(), 7, 2);
        let header = JournalHeader::new("sweep", 7, pts);
        let mut j = Journal::create(&path, &header).unwrap();
        for r in &results {
            j.append(r).unwrap();
        }
        drop(j);

        let loaded = Journal::load(&path).unwrap();
        assert_eq!(loaded.header.master_seed, 7);
        assert_eq!(loaded.header.mode, "sweep");
        assert_eq!(
            loaded.header.points_digest,
            points_digest(&loaded.header.points)
        );
        assert!(!loaded.dropped_tail);
        assert_eq!(
            serde_json::to_string(&loaded.results).unwrap(),
            serde_json::to_string(&results).unwrap()
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncated_tail_is_dropped_and_resume_truncates_the_file() {
        let path = tmp("tail");
        let pts = points(2);
        let results = run_sweep(pts.clone(), 7, 1);
        let mut j = Journal::create(&path, &JournalHeader::new("sweep", 7, pts)).unwrap();
        for r in &results {
            j.append(r).unwrap();
        }
        drop(j);

        // Simulate a SIGKILL mid-append: chop the last record in half.
        let full = std::fs::read(&path).unwrap();
        let cut = full.len() - 37;
        std::fs::write(&path, &full[..cut]).unwrap();

        let loaded = Journal::load(&path).unwrap();
        assert!(loaded.dropped_tail);
        assert_eq!(loaded.results.len(), 1);
        assert_eq!(loaded.completed_indices().len(), 1);

        // Resume truncates the damage; the journal is appendable again.
        let (mut j, loaded) = Journal::resume(&path).unwrap();
        assert_eq!(loaded.results.len(), 1);
        j.append(&results[1]).unwrap();
        drop(j);
        let reloaded = Journal::load(&path).unwrap();
        assert!(!reloaded.dropped_tail);
        assert_eq!(
            serde_json::to_string(&reloaded.results).unwrap(),
            serde_json::to_string(&results).unwrap()
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn mid_file_corruption_is_a_hard_error() {
        let path = tmp("corrupt");
        let pts = points(2);
        let results = run_sweep(pts.clone(), 7, 1);
        let mut j = Journal::create(&path, &JournalHeader::new("sweep", 7, pts)).unwrap();
        for r in &results {
            j.append(r).unwrap();
        }
        drop(j);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines[1] = "{mangled";
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        match Journal::load(&path) {
            Err(JournalError::Corrupt { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(path).ok();
    }

    /// Write a two-record journal for `pts` and return its bytes.
    fn two_record_journal(path: &Path, pts: Vec<SweepPoint>) -> Vec<u8> {
        let results = run_sweep(pts.clone(), 7, 1);
        let mut j = Journal::create(path, &JournalHeader::new("sweep", 7, pts)).unwrap();
        for r in &results {
            j.append(r).unwrap();
        }
        drop(j);
        std::fs::read(path).unwrap()
    }

    /// Byte offset of the first `needle` at or after `from`.
    fn find(hay: &[u8], from: usize, needle: &[u8]) -> usize {
        from + hay[from..]
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("needle present")
    }

    #[test]
    fn invalid_utf8_inside_an_earlier_record_is_corruption() {
        let path = tmp("flipped");
        let mut raw = two_record_journal(&path, points(2));
        let record_1 = raw.iter().position(|&b| b == b'\n').unwrap() + 1;
        let label = find(&raw, record_1, b"\"label\":\"p") + b"\"label\":\"".len();
        raw[label] = 0xF0;
        std::fs::write(&path, &raw).unwrap();
        match Journal::load(&path) {
            Err(JournalError::Corrupt { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn a_tail_torn_inside_a_multi_byte_character_is_dropped_at_its_line_start() {
        let path = tmp("torn-char");
        let mut pts = points(2);
        pts[1].label = "p1-\u{e9}".to_string();
        let full = two_record_journal(&path, pts);
        let last_line = full[..full.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap()
            + 1;
        let e_acute = find(&full, last_line, "\u{e9}".as_bytes());
        // Cut between the two bytes of the character.
        std::fs::write(&path, &full[..=e_acute]).unwrap();

        let loaded = Journal::load(&path).unwrap();
        assert!(loaded.dropped_tail);
        assert_eq!(loaded.results.len(), 1);
        assert_eq!(loaded.valid_len, last_line as u64);
        let (_, resumed) = Journal::resume(&path).unwrap();
        assert_eq!(resumed.valid_len, last_line as u64);
        assert_eq!(std::fs::read(&path).unwrap(), &full[..last_line]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn non_journal_files_are_rejected() {
        let path = tmp("notjournal");
        std::fs::write(&path, "just some text\n").unwrap();
        assert!(matches!(
            Journal::load(&path),
            Err(JournalError::NotAJournal(_))
        ));
        std::fs::write(&path, "").unwrap();
        assert!(matches!(
            Journal::load(&path),
            Err(JournalError::NotAJournal(_))
        ));
        std::fs::remove_file(path).ok();
    }

    /// One real encoded snapshot of each kind: burst (Hybrid, with its
    /// learner), campaign, datacenter, single-rack serve and site serve.
    fn encoded_snapshots() -> Vec<(&'static str, String)> {
        use crate::broker::{run_datacenter_with_snapshots, DatacenterSnapshot};
        use crate::campaign::{try_run_campaign_with_snapshots, CampaignConfig};
        use crate::datacenter::{DatacenterConfig, RackSpec};
        use crate::engine::Engine;
        use crate::serve::{serve, ServeArgs, ServeOptions};
        use gs_workload::apps::Application;

        let cfg = |strategy| EngineConfig {
            strategy,
            green: GreenConfig::re_batt(),
            availability: AvailabilityLevel::Medium,
            burst_duration: SimDuration::from_mins(6),
            measurement: MeasurementMode::Analytic,
            ..EngineConfig::default()
        };
        let mut out = Vec::new();
        let mut first = None;
        Engine::new(cfg(Strategy::Hybrid))
            .run_full_with_snapshots(3, &mut |s: &EngineSnapshot| {
                first.get_or_insert_with(|| s.to_json());
            })
            .unwrap();
        out.push(("burst", first.take().unwrap()));
        let campaign = CampaignConfig {
            engine: cfg(Strategy::Pacing),
            days: 1,
            spikes_per_day: 2,
            peak_intensity_cores: 12,
        };
        try_run_campaign_with_snapshots(&campaign, 700, &mut |s| {
            first.get_or_insert_with(|| s.to_json());
        })
        .unwrap();
        out.push(("campaign", first.take().unwrap()));
        let dc = DatacenterConfig {
            racks: (0..2)
                .map(|_| RackSpec {
                    app: Application::SpecJbb,
                    green: GreenConfig::re_batt(),
                    strategy: Strategy::Pacing,
                })
                .collect(),
            template: cfg(Strategy::Pacing),
            site_fault_plan: None,
        };
        run_datacenter_with_snapshots(&dc, 1, 3, &mut |s: &DatacenterSnapshot| {
            first.get_or_insert_with(|| s.to_json().unwrap());
        })
        .unwrap();
        out.push(("datacenter", first.take().unwrap()));
        for (kind, racks) in [("serve rack", 1), ("serve site", 2)] {
            let path = tmp(&format!("hostile-{racks}.json"));
            serve(ServeArgs {
                cfg: cfg(Strategy::Pacing),
                options: ServeOptions {
                    racks,
                    ..ServeOptions::default()
                },
                snapshot_path: Some(path.clone()),
                drain_after_epochs: Some(2),
                ..ServeArgs::default()
            })
            .unwrap();
            let text = std::fs::read_to_string(&path).unwrap();
            assert_eq!(text.contains("\"engine\":{\"Site\""), racks > 1, "{kind}");
            out.push((kind, text));
            std::fs::remove_file(path).ok();
        }
        out
    }

    /// Decode `text` as the payload of `kind`, then run every state an
    /// `Ok` carries through the restore check its resume path runs.
    /// `Ok(())` means it decoded; a refusal either way is fine.
    fn decode_and_check(kind: &str, text: &str) -> Result<(), SnapshotError> {
        use crate::broker::{rack_engine_config, DatacenterSnapshot};
        use crate::serve::{ServeEngineState, ServeSnapshot};
        match kind {
            "burst" | "campaign" => {
                let snap: EngineSnapshot = decode(text)?;
                let cfg = match &snap.scope {
                    SnapshotScope::Burst(cfg) => cfg,
                    SnapshotScope::Campaign(c) => &c.engine,
                };
                let _ = snap.state.check_restorable(cfg);
            }
            "datacenter" => {
                let snap: DatacenterSnapshot = decode(text)?;
                if snap.cfg.validate().is_ok() && snap.racks.len() == snap.cfg.racks.len() {
                    for (r, state) in snap.racks.iter().enumerate() {
                        let _ = state.check_restorable(&rack_engine_config(&snap.cfg, r));
                    }
                }
            }
            _ => {
                let snap: ServeSnapshot = decode(text)?;
                let states: Vec<&LoopState> = match &snap.engine {
                    ServeEngineState::Rack(state) => vec![state],
                    ServeEngineState::Site { racks, .. } => racks.iter().flatten().collect(),
                };
                for state in states {
                    let _ = state.check_restorable(&snap.cfg);
                }
            }
        }
        Ok(())
    }

    /// `text` minus the `i`-th field of its envelope (or, with
    /// `payload`, of its payload object); `None` past the last field.
    fn drop_field(text: &str, payload: bool, i: usize) -> Option<String> {
        let mut envelope: Value = serde_json::from_str(text).unwrap();
        let Value::Object(fields) = &mut envelope else {
            panic!("an envelope is an object");
        };
        let fields = if payload {
            let Value::Object(payload) = &mut fields[2].1 else {
                panic!("every payload is an object");
            };
            payload
        } else {
            fields
        };
        if i >= fields.len() {
            return None;
        }
        fields.remove(i);
        Some(serde_json::to_string(&envelope).unwrap())
    }

    #[test]
    fn hostile_snapshot_text_never_panics_the_decoder() {
        let mut rng = SimRng::seed_from_u64(0x5eed);
        for (kind, text) in encoded_snapshots() {
            assert_eq!(decode_and_check(kind, &text), Ok(()), "{kind}");
            let bytes = text.as_bytes();
            for i in 0..64 {
                let cut = i * bytes.len() / 64;
                let truncated = String::from_utf8_lossy(&bytes[..cut]);
                assert!(
                    decode_and_check(kind, &truncated).is_err(),
                    "{kind}: cut at {cut}"
                );
            }
            for _ in 0..64 {
                let mut flipped = bytes.to_vec();
                let at = rng.index(flipped.len());
                flipped[at] ^= (rng.next_u64() as u8) | 1;
                let _ = decode_and_check(kind, &String::from_utf8_lossy(&flipped));
            }
            for i in 0.. {
                let Some(dropped) = drop_field(&text, false, i) else {
                    break;
                };
                assert!(
                    decode_and_check(kind, &dropped).is_err(),
                    "{kind}: envelope field {i}"
                );
            }
            for i in 0.. {
                let Some(dropped) = drop_field(&text, true, i) else {
                    break;
                };
                let _ = decode_and_check(kind, &dropped);
            }
        }
    }

    #[test]
    fn derive_seed_matches_journal_expectations() {
        // The journal stores the master seed; re-derivation must give the
        // same per-task seeds the original run used.
        let pts = points(3);
        let results = run_sweep(pts, 99, 2);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.seed, derive_seed(99, i as u64));
        }
    }
}
