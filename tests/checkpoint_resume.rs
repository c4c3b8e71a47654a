//! End-to-end crash/resume tests for the durable-execution layer: a
//! sweep killed mid-run (simulated by truncating its journal inside a
//! half-written record) must resume to output byte-identical to an
//! uninterrupted run, at any `--jobs` value.

use std::path::PathBuf;
use std::process::Command;

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_greensprint"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gs-ckpt-{}-{name}", std::process::id()))
}

/// A small three-point grid, cheap enough to run several times per test.
const SWEEP_ARGS: &[&str] = &[
    "sweep",
    "--apps",
    "jbb",
    "--strategies",
    "greedy,pacing,hybrid",
    "--availabilities",
    "med",
    "--minutes",
    "5",
    "--analytic",
    "--seed",
    "7",
];

fn sweep_with(extra: &[&str]) -> (String, String, bool) {
    let mut args: Vec<&str> = SWEEP_ARGS.to_vec();
    args.extend_from_slice(extra);
    run(&args)
}

/// Journal bytes cut inside the `record`-th result line (0-based): the
/// shape a SIGKILL between `write_all` and the newline leaves behind.
fn cut_mid_record(journal: &[u8], record: usize) -> Vec<u8> {
    let mut newlines = 0usize;
    let mut cut = None;
    for (i, b) in journal.iter().enumerate() {
        if *b == b'\n' {
            newlines += 1;
            // Header line is newline 1; record `r` ends at newline r+2.
            if newlines == record + 1 {
                cut = Some(i + 1);
            }
        }
    }
    let start = cut.expect("journal has enough records to cut");
    let end = (start + 40).min(journal.len());
    journal[..end].to_vec()
}

#[test]
fn killed_sweep_resumes_byte_identical_at_any_job_count() {
    let (golden, _, ok) = sweep_with(&["--jobs", "1"]);
    assert!(ok);
    assert_eq!(golden.lines().count(), 3);

    for jobs in ["1", "4"] {
        let journal = tmp(&format!("kill-{jobs}.jsonl"));
        let path = journal.to_str().unwrap();
        let (_, _, ok) = sweep_with(&["--jobs", "1", "--checkpoint", path]);
        assert!(ok);

        // "Kill" the run inside the second record's append.
        let full = std::fs::read(&journal).expect("journal written");
        std::fs::write(&journal, cut_mid_record(&full, 1)).unwrap();

        let (resumed, stderr, ok) = run(&["resume", path, "--jobs", jobs]);
        assert!(ok, "{stderr}");
        assert_eq!(
            resumed, golden,
            "resume --jobs {jobs} diverged from the uninterrupted run"
        );
        assert!(
            stderr.contains("dropped a truncated tail record"),
            "{stderr}"
        );
        assert!(
            stderr.contains("1/3 point(s) already journaled"),
            "{stderr}"
        );
        std::fs::remove_file(&journal).ok();
    }
}

#[test]
fn resume_reruns_only_the_missing_points() {
    let journal = tmp("skip.jsonl");
    let path = journal.to_str().unwrap();
    let (_, _, ok) = sweep_with(&["--jobs", "1", "--checkpoint", path]);
    assert!(ok);

    // Truncate cleanly after two full records: two journaled, one missing.
    let full = std::fs::read(&journal).unwrap();
    let mut seen = 0usize;
    let clean_cut = full
        .iter()
        .position(|b| {
            if *b == b'\n' {
                seen += 1;
            }
            seen == 3 // header + 2 records
        })
        .unwrap()
        + 1;
    std::fs::write(&journal, &full[..clean_cut]).unwrap();

    let (_, stderr, ok) = run(&["resume", path]);
    assert!(ok, "{stderr}");
    assert!(
        stderr.contains("2/3 point(s) already journaled"),
        "{stderr}"
    );
    assert!(
        stderr.contains("1 completed, 0 retried, 0 failed, 2 skipped"),
        "{stderr}"
    );
    std::fs::remove_file(&journal).ok();
}

#[test]
fn resume_refuses_an_edited_journal() {
    let journal = tmp("edited.jsonl");
    let path = journal.to_str().unwrap();
    let (_, _, ok) = sweep_with(&["--jobs", "1", "--checkpoint", path]);
    assert!(ok);

    // Tamper with the header's embedded point list.
    let text = std::fs::read_to_string(&journal).unwrap();
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    lines[0] = lines[0].replacen("pacing", "racing", 1);
    std::fs::write(&journal, lines.join("\n") + "\n").unwrap();

    let (_, stderr, ok) = run(&["resume", path]);
    assert!(!ok);
    assert!(
        stderr.contains("different build or its point list was edited"),
        "{stderr}"
    );
    std::fs::remove_file(&journal).ok();
}

#[test]
fn a_completed_journal_resumes_to_the_full_result_set() {
    // Nothing to re-run: resume acts as a deterministic replay.
    let (golden, _, ok) = sweep_with(&["--jobs", "1"]);
    assert!(ok);
    let journal = tmp("replay.jsonl");
    let path = journal.to_str().unwrap();
    let (_, _, ok) = sweep_with(&["--jobs", "2", "--checkpoint", path]);
    assert!(ok);
    let (replayed, stderr, ok) = run(&["resume", path]);
    assert!(ok, "{stderr}");
    assert_eq!(replayed, golden);
    std::fs::remove_file(&journal).ok();
}

#[test]
fn an_existing_checkpoint_is_never_clobbered() {
    let journal = tmp("guard.jsonl");
    let path = journal.to_str().unwrap();
    let (_, _, ok) = sweep_with(&["--jobs", "1", "--checkpoint", path]);
    assert!(ok);
    let before = std::fs::read(&journal).unwrap();
    let (_, stderr, ok) = sweep_with(&["--jobs", "1", "--checkpoint", path]);
    assert!(!ok);
    assert!(stderr.contains("already exists"), "{stderr}");
    assert_eq!(std::fs::read(&journal).unwrap(), before);
    std::fs::remove_file(&journal).ok();
}

#[test]
fn over_budget_points_fail_without_aborting_the_sweep() {
    // 5 min at 60 s epochs needs 10 epochs (strategy + baseline); 30 min
    // needs 60. A 20-epoch budget deterministically fails only the latter.
    let (stdout, stderr, ok) = run(&[
        "sweep",
        "--apps",
        "jbb",
        "--strategies",
        "greedy",
        "--availabilities",
        "med",
        "--minutes",
        "5,30",
        "--analytic",
        "--jobs",
        "2",
        "--task-timeout-epochs",
        "20",
    ]);
    assert!(ok, "{stderr}");
    assert_eq!(stdout.lines().count(), 2);
    assert_eq!(stdout.lines().filter(|l| l.contains("Failed")).count(), 1);
    assert!(stderr.contains("epoch budget exceeded"), "{stderr}");
    assert!(stderr.contains("1 completed"), "{stderr}");
}

#[test]
fn snapshot_checkpoint_resumes_a_burst_identically() {
    let (golden, _, ok) = run(&[
        "simulate",
        "--strategy",
        "hybrid",
        "--minutes",
        "10",
        "--analytic",
    ]);
    assert!(ok);

    let snap = tmp("snap.json");
    let path = snap.to_str().unwrap();
    let (ckpt_out, _, ok) = run(&[
        "simulate",
        "--strategy",
        "hybrid",
        "--minutes",
        "10",
        "--analytic",
        "--checkpoint",
        path,
        "--snapshot-every",
        "3",
    ]);
    assert!(ok);
    assert_eq!(ckpt_out, golden, "snapshotting changed the run");

    // The file holds a late-run snapshot; resuming it must land on the
    // same result block (golden minus its "simulating:" banner line).
    let tail = golden.split_once('\n').unwrap().1;
    let (resumed, stderr, ok) = run(&["resume", path, "--snapshot-every", "3"]);
    assert!(ok, "{stderr}");
    assert_eq!(resumed, tail);
    std::fs::remove_file(&snap).ok();
    std::fs::remove_file(format!("{path}.tmp")).ok();
}

#[test]
fn checkpoint_requires_analytic_measurement() {
    let snap = tmp("des.json");
    let (_, stderr, ok) = run(&[
        "simulate",
        "--minutes",
        "5",
        "--checkpoint",
        snap.to_str().unwrap(),
    ]);
    assert!(!ok);
    assert!(stderr.contains("analytic"), "{stderr}");
}

#[test]
fn resume_of_a_tampered_snapshot_is_a_usage_error() {
    let snap = tmp("tampered.json");
    let path = snap.to_str().unwrap();
    let (_, _, ok) = run(&[
        "simulate",
        "--strategy",
        "hybrid",
        "--minutes",
        "10",
        "--analytic",
        "--checkpoint",
        path,
        "--snapshot-every",
        "3",
    ]);
    assert!(ok);
    let text = std::fs::read_to_string(&snap).unwrap();
    let mut tampered = greensprint_repro::prelude::EngineSnapshot::from_json(&text).unwrap();
    tampered.state.prev_settings.pop();
    std::fs::write(&snap, tampered.to_json()).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_greensprint"))
        .args(["resume", path])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("`prev_settings`"), "{stderr}");
    std::fs::remove_file(&snap).ok();
    std::fs::remove_file(format!("{path}.tmp")).ok();
}
