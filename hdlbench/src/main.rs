//! `hdlbench` — the end-to-end and per-layer benchmark of hypothetical
//! Datalog: what-if reads, reads beside durable writes, and hypothetical
//! search.
//!
//! ```console
//! $ cargo run --release --manifest-path hdlbench/Cargo.toml -- \
//!       --workload whatif --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Workloads: `whatif`, `mixed_rw` (see [`serving`]) and `search` (see
//! [`search`]). With `--trace 0` the last line of standard output is
//! the end-to-end result; with `--trace 1` a separate traced run gives
//! the per-layer metrics. Every answer is checked; failures are counted,
//! never fatal. Lines before the last carry the host and run
//! fingerprint and either the sample counts (untraced) or the
//! deterministic count block (traced). Spans
//! and count blocks are also written under `<target dir>/hdlbench-runs`.

mod host;
mod measure;
mod rng;
mod search;
mod serving;
mod university;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Named metric values of one run.
pub type Metrics = Vec<(&'static str, f64)>;
/// A deterministic count block: counters that must repeat exactly for
/// the same seed and source.
pub type Counts = Vec<(&'static str, u64)>;

/// Operations attempted and failed (wrong answer, refused, or error).
#[derive(Default, Clone, Copy, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// End-to-end metrics (untraced runs) and their units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("queries_per_s", "1/s"),
    ("mutation_p50_us", "us"),
    ("mutations_per_s", "1/s"),
    ("ok_rate", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced runs) and their units. A layer a workload
/// does not run reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("server.request_parse_us", "us"),
    ("server.reply_encode_us", "us"),
    ("server.hit_us", "us"),
    ("tenant.query_us", "us"),
    ("tenant.mutation_us", "us"),
    ("tenant.mutation_p99_us", "us"),
    ("snapshot.publish_us", "us"),
    ("snapshot.facts_cloned", "count"),
    ("service.query_us", "us"),
    ("service.query_p99_us", "us"),
    ("service.hit_us", "us"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.worker_busy_frac", "ratio"),
    ("topdown.rebuild_us", "us"),
    ("topdown.holds_us", "us"),
    ("topdown.holds_p99_us", "us"),
    ("topdown.expansions_per_query", "count"),
    ("topdown.memo_hit_ratio", "ratio"),
    ("topdown.databases_per_query", "count"),
    ("parser.query_us", "us"),
    ("parser.program_us", "us"),
    ("analysis.stratify_us", "us"),
    ("bottomup.holds_ms", "ms"),
    ("bottomup.rounds_per_search", "count"),
    ("bottomup.attempts_per_search", "count"),
    ("bottomup.databases_per_search", "count"),
    ("bottomup.index_hit_ratio", "ratio"),
    ("overlay.delta_share", "ratio"),
    ("overlay.flattens", "count"),
    ("persist.commit_us", "us"),
    ("persist.commit_p99_us", "us"),
    ("persist.fsyncs_per_mutation", "count"),
    ("persist.wal_bytes_per_mutation", "B"),
    ("persist.fsync_probe_us", "us"),
    ("trace.coverage_query", "ratio"),
    ("trace.coverage_mutation", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.count_mismatches", "count"),
    ("trace.traced_ops", "count"),
];

const WORKLOADS: &[&str] = &["whatif", "mixed_rw", "search"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected {WORKLOADS:?})"
        ));
    }
    let seconds: f64 = seconds.unwrap_or(15.0);
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// `<target dir>/hdlbench-runs`, next to the build that runs.
fn runs_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("current executable path");
    let target = exe
        .parent()
        .and_then(Path::parent)
        .expect("executable lives in <target>/<profile>");
    target.join("hdlbench-runs")
}

/// Renders `pairs` as one JSON object.
fn json_object<V: std::fmt::Display>(pairs: impl IntoIterator<Item = (String, V)>) -> String {
    let body: Vec<String> = pairs
        .into_iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Compares a count block with the one stored for the same workload,
/// seed and source, storing it when none is; returns the entries that
/// differ.
fn check_stored_counts(path: &Path, counts: &Counts) -> usize {
    let rendered: String = counts.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    match std::fs::read_to_string(path) {
        Ok(stored) => stored
            .lines()
            .zip(rendered.lines())
            .filter(|(a, b)| a != b)
            .count(),
        Err(_) => {
            let _ = std::fs::write(path, rendered);
            0
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: hdlbench --workload whatif|mixed_rw|search --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let runs = runs_dir();
    let scratch = runs.join(format!("scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create the run's scratch directory");

    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fsync_probe = measure::fsync_probe_us(&scratch);
    let fingerprint = json_object([
        ("workload".to_owned(), format!("\"{}\"", args.workload)),
        ("seed".to_owned(), args.seed.to_string()),
        ("seconds".to_owned(), args.seconds.to_string()),
        ("trace".to_owned(), u8::from(args.trace).to_string()),
        ("host_threads".to_owned(), host_threads.to_string()),
        ("fsync_probe_us".to_owned(), format!("{fsync_probe:.1}")),
        (
            "commit".to_owned(),
            format!("\"{}\"", env!("HDLBENCH_COMMIT")),
        ),
        (
            "source_hash".to_owned(),
            format!("\"{}\"", env!("HDLBENCH_SOURCE_HASH")),
        ),
        (
            "profile".to_owned(),
            format!("\"{}\"", env!("HDLBENCH_PROFILE")),
        ),
    ]);
    println!("{{\"fingerprint\":{fingerprint}}}");
    // Same-host comparisons only: flag a host change since the last run.
    let host_file = runs.join("host_threads");
    if let Ok(prev) = std::fs::read_to_string(&host_file) {
        if prev.trim() != host_threads.to_string() {
            println!(
                "{{\"comparison\":\"invalid\",\"reason\":\"host_threads {} here, {} in the previous run\"}}",
                host_threads,
                prev.trim()
            );
        }
    }
    let _ = std::fs::write(&host_file, host_threads.to_string());

    let mut tally = Tally::default();
    let spans = runs.join(format!("spans-{}.jsonl", args.workload));
    let (seed, secs) = (args.seed, args.seconds);
    let kind = match args.workload.as_str() {
        "whatif" => Some(serving::Kind::WhatIf),
        "mixed_rw" => Some(serving::Kind::MixedRw),
        _ => None,
    };
    let (table, mut metrics) = if args.trace {
        let (mut metrics, first, again) = match kind {
            Some(k) => serving::run_traced(k, seed, secs, &scratch, &spans, &mut tally),
            None => search::run_traced(seed, secs, &spans, &mut tally),
        };
        let mut mismatches = first.iter().zip(&again).filter(|(a, b)| a != b).count();
        let stored = runs.join(format!(
            "counts-{}-seed{}-{}.txt",
            args.workload,
            seed,
            env!("HDLBENCH_SOURCE_HASH")
        ));
        mismatches += check_stored_counts(&stored, &first);
        if mismatches > 0 {
            eprintln!("warning: {mismatches} deterministic counts differ between runs of one seed");
        }
        let block = json_object(first.iter().map(|(k, v)| (k.to_string(), v)));
        println!("{{\"counts\":{block},\"count_mismatches\":{mismatches}}}");
        metrics.push(("persist.fsync_probe_us", fsync_probe));
        metrics.push(("trace.count_mismatches", mismatches as f64));
        (PER_LAYER, metrics)
    } else {
        let mut raw = Metrics::new();
        let metrics = match kind {
            Some(k) => serving::run(k, seed, secs, &scratch, &mut tally, &mut raw),
            None => search::run(seed, secs, &mut tally, &mut raw),
        };
        let raw = json_object(raw.iter().map(|(k, v)| (k.to_string(), v)));
        println!("{{\"raw\":{raw}}}");
        (END_TO_END, metrics)
    };
    metrics.push((
        "ok_rate",
        1.0 - measure::ratio(tally.failed as f64, tally.attempted as f64),
    ));
    let _ = std::fs::remove_dir_all(&scratch);

    let mut body = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v);
        let value = if value.is_finite() { value } else { 0.0 };
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            body,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{body}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed
    );
}
