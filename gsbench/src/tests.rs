//! The benchmark's own checks, on tiny inputs:
//!
//! * every workload's output digest is the same at `jobs = 1` and
//!   `jobs = nproc`;
//! * the smoke test: all four workloads and the traced pass report every
//!   metric `BENCHMARK.json` names, finite and with its unit, with no
//!   failed operation.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::layers::{self, Traced};
use crate::workloads::{self, Size, Workload};
use crate::Metrics;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const SEED: u64 = 3;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(".bench_run").join(format!("test-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("test scratch directory");
    dir
}

/// `name -> unit` of one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    let v: serde_json::Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    v.get(list)
        .and_then(|l| l.as_array())
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(|x| x.as_str()).expect("name and unit");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn assert_reports(what: &str, metrics: &Metrics, want: &BTreeMap<String, String>) {
    let got: Vec<&String> = metrics.keys().collect();
    let names: Vec<&String> = want.keys().collect();
    assert_eq!(
        got, names,
        "{what}: reported metrics differ from BENCHMARK.json"
    );
    for (name, m) in metrics {
        assert!(m.value.is_finite(), "{what}: {name} = {}", m.value);
        assert_eq!(m.unit, want[name], "{what}: unit of {name}");
    }
}

#[test]
fn digests_match_at_one_and_all_jobs() {
    let size = Size::tiny();
    let dir = scratch("jobs");
    let many = greensprint_repro::prelude::default_jobs().max(2);
    for w in Workload::ALL {
        let one = workloads::pass(w, &size, SEED, 1, &dir, 0, None);
        let all = workloads::pass(w, &size, SEED, many, &dir, 1, None);
        assert_eq!(one.failed, 0, "{}: {:?}", w.name(), one.problems);
        assert_eq!(all.failed, 0, "{}: {:?}", w.name(), all.problems);
        assert_eq!(
            one.digest,
            all.digest,
            "{}: outputs depend on jobs",
            w.name()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn smoke_every_metric_is_reported_and_nothing_fails() {
    let size = Size::tiny();
    let dir = scratch("smoke");
    let jobs = greensprint_repro::prelude::default_jobs();
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for w in Workload::ALL {
        let probe = || workloads::setup_probe(w, &size, SEED, &dir);
        let m = workloads::measure(w, &size, SEED, 0.01, jobs, &dir, None, probe);
        assert_eq!(m.failed, 0, "{}: {:?}", w.name(), m.problems);
        assert!(m.attempted > 0);
        assert_reports(w.name(), &m.metrics, &end_to_end);
    }
    let m = layers::traced_run(
        Workload::DatacenterSite,
        &size,
        &Traced::tiny(),
        SEED,
        jobs,
        &dir,
        None,
    );
    assert_eq!(m.failed, 0, "traced: {:?}", m.problems);
    assert_reports("traced", &m.metrics, &per_layer);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recorded_digests_parse() {
    let table = "# comment\nburst_des 7 00ff\nserve_site 7 abcd\n";
    assert_eq!(
        workloads::recorded_digest(table, Workload::ServeSite, 7).as_deref(),
        Some("abcd")
    );
    assert_eq!(
        workloads::recorded_digest(table, Workload::ServeSite, 8),
        None
    );
}
