//! The `search` workload: the batch/REPL path with no server. Each
//! operation loads one generated Example 7 program (Hamiltonian path
//! with `reach` pruning) into a fresh bottom-up [`Session`] at the
//! REPL's defaults and asks `?- yes.`; the verdict must equal
//! [`Digraph::has_hamiltonian_path`].
//!
//! The traced run times the same operation through its public pieces —
//! `parse_program`, `global_negation_strata`, `BottomUpEngine::new`,
//! `parse_query` and `BottomUpEngine::holds` — next to the `Session`
//! calls they make up.

use crate::host::{Reference, Speed};
use crate::measure::{mean, p50, pct, ratio, us, PeakRss, Tracer};
use crate::{Counts, Metrics, Tally};
use hdl_base::{Database, SymbolTable};
use hdl_bench::workloads::{hamiltonian_reach_program, random_digraph};
use hdl_core::analysis::stratify::global_negation_strata;
use hdl_core::engine::BottomUpEngine;
use hdl_core::parser::{parse_program, parse_query, split_facts};
use hdl_core::session::{EngineKind, Session};
use hdl_core::{call_with_deep_stack, pretty, Rulebase};
use std::time::{Duration, Instant};

/// Graph size and edge density of every search.
pub const NODES: usize = 8;
pub const DENSITY: f64 = 0.35;
/// Distinct programs generated per run; a run cycles through them.
const POOL: usize = 2048;
/// Graph of the set-up's program, the same for every seed, so that
/// `setup_s` compares runs of different seeds on the same work.
const SETUP_GRAPH: u64 = 0x0073_6574_7570;
/// Phases of an untraced run's measured window, and the timed set-ups
/// before each. Every end-to-end figure is the median of its per-phase
/// values (`setup_s` the median over all set-ups), so a burst of other
/// load on the host moves a few phases, not the result.
const PHASES: usize = 8;
const SETUPS_PER_PHASE: usize = 2;
/// Slices of a phase, with the host's speed sampled between them.
const SLICES: usize = 8;
/// `peak_rss_mb` is the median peak of this many windows of searches.
const RSS_WINDOWS: usize = 8;
const RSS_WINDOW_OPS: u64 = 40;
/// Searches whose counts make the deterministic count block.
const COUNT_OPS: usize = 24;

/// The Example 7 program over `random_digraph(NODES, DENSITY, graph)`
/// as source text, and its verdict.
fn program(graph: u64) -> (String, bool) {
    let g = random_digraph(NODES, DENSITY, graph);
    let (rules, db, symbols) = hamiltonian_reach_program(&g);
    let src = pretty::rulebase(&rules, &symbols) + &pretty::database(&db, &symbols);
    (src, g.has_hamiltonian_path())
}

/// The run's [`POOL`] programs, drawn from `seed`.
fn pool(seed: u64) -> Vec<(String, bool)> {
    (0..POOL as u64)
        .map(|i| program((seed << 20) + i))
        .collect()
}

/// The REPL's default worker count: the host's hardware threads.
fn host_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// One search through the `Session` API, as the REPL runs it: returns
/// (load µs, ask µs, verdict correct).
fn search(src: &str, want: bool) -> (f64, f64, bool) {
    let mut session = Session::new()
        .with_engine(EngineKind::BottomUp)
        .with_parallelism(host_threads());
    let t = Instant::now();
    let loaded = session.load(src).is_ok();
    let load = us(t.elapsed());
    let t = Instant::now();
    let verdict = session.ask("?- yes.");
    let ask = us(t.elapsed());
    (load, ask, loaded && verdict.ok() == Some(want))
}

/// The untraced run: searches back to back for `seconds` on one
/// long-lived thread, as the REPL runs them, in [`PHASES`] phases of
/// [`SLICES`] slices with the host's speed sampled between them (see
/// [`host`](crate::host)). A timed set-up — a fresh session, its load
/// and its first ask, on the [`SETUP_GRAPH`] program — runs once before
/// the run and [`SETUPS_PER_PHASE`] times before each phase. Returns the
/// figures at the reference speed; the raw ones go into `raw`.
pub fn run(seed: u64, seconds: f64, tally: &mut Tally, raw: &mut Metrics) -> Metrics {
    let pool = pool(seed);
    let (setup_src, setup_want) = program(SETUP_GRAPH);
    let mut speed = Speed::start(Reference::Cpu);
    // Each set-up's time and host factor.
    let mut setups: Vec<[f64; 2]> = Vec::new();
    let rss = PeakRss::new(RSS_WINDOW_OPS, RSS_WINDOWS);
    let mut timed_setup = |tally: &mut Tally, speed: &mut Speed| {
        rss.excluding(|| {
            let t = Instant::now();
            let ok = search(&setup_src, setup_want).2;
            setups.push([t.elapsed().as_secs_f64(), speed.slice()]);
            tally.record(ok);
        });
    };
    timed_setup(tally, &mut speed);
    let mut done = 0;
    // Per phase: ask p50, load p50, searches per second and the phase's
    // host factor; and every ask. A phase holds ~200 searches, too few
    // for a p99, so the ask p99 is taken over the whole run.
    let mut phases: Vec<[f64; 4]> = Vec::new();
    let mut asks = Vec::new();
    let slice_secs = seconds / (PHASES * SLICES) as f64;
    for _ in 0..PHASES {
        for _ in 0..SETUPS_PER_PHASE {
            timed_setup(tally, &mut speed);
        }
        let first = asks.len();
        let mut loads = Vec::new();
        let (mut busy, mut factor) = (0.0, 0.0);
        for _ in 0..SLICES {
            let start = Instant::now();
            let deadline = start + Duration::from_secs_f64(slice_secs);
            while Instant::now() < deadline {
                let (src, want) = &pool[done % POOL];
                done += 1;
                let (load, ask, ok) = search(src, *want);
                tally.record(ok);
                rss.tick();
                loads.push(load);
                asks.push(ask);
            }
            busy += start.elapsed().as_secs_f64();
            factor += speed.slice() / SLICES as f64;
        }
        phases.push([
            p50(&asks[first..]),
            p50(&loads),
            (asks.len() - first) as f64 / busy,
            factor,
        ]);
    }
    println!(
        "{{\"samples\":{{\"phases\":{PHASES},\"slices\":{},\"searches\":{done},\"setups\":{}}}}}",
        PHASES * SLICES,
        setups.len()
    );
    let run_factor = mean(&phases.iter().map(|p| p[3]).collect::<Vec<_>>());
    // Times are divided by, rates multiplied by, the host factor of the
    // set-up or phase they were measured in; the whole-run p99 by the
    // mean factor of the phases.
    let figures = |at_reference: bool| {
        let at = |f: f64| if at_reference { f } else { 1.0 };
        let median = |v: Vec<f64>| p50(&v);
        let setup = median(setups.iter().map(|s| s[0] / at(s[1])).collect());
        let phase_time = |j: usize| median(phases.iter().map(|p| p[j] / at(p[3])).collect());
        let rate = median(phases.iter().map(|p| p[2] * at(p[3])).collect());
        vec![
            ("setup_s", setup),
            ("query_p50_us", phase_time(0)),
            ("query_p99_us", pct(&asks, 0.99) / at(run_factor)),
            ("queries_per_s", rate),
            ("mutation_p50_us", phase_time(1)),
            ("mutations_per_s", rate),
            ("peak_rss_mb", rss.mb()),
        ]
    };
    *raw = figures(false);
    raw.push(("host_factor", speed.median()));
    figures(true)
}

/// Layer times (µs) and engine counters of one traced search.
#[derive(Default, Clone, Copy)]
struct SearchTimes {
    load: f64,
    ask: f64,
    parse_program: f64,
    stratify: f64,
    engine_new: f64,
    parse_query: f64,
    holds: f64,
    rounds: u64,
    attempts: u64,
    databases: u64,
    index_probes: u64,
    index_hits: u64,
    delta_facts: u64,
    materialized_facts: u64,
    flattens: u64,
}

/// The search again through its public pieces, each under a span of
/// its own.
fn search_pieces(tr: &mut Tracer, op: u64, src: &str, times: &mut SearchTimes) -> Option<bool> {
    let mut symbols = SymbolTable::new();
    let (parsed, t) = tr.span("parser.program", op, || {
        parse_program(src, &mut symbols).map(split_facts)
    });
    times.parse_program = t;
    let (rules, facts): (Rulebase, Vec<_>) = parsed.ok()?;
    let db: Database = facts.into_iter().collect();
    let (strata, t) = tr.span("analysis.stratify", op, || global_negation_strata(&rules));
    times.stratify = t;
    strata.ok()?;
    let (query, t) = tr.span("parser.query", op, || parse_query("?- yes.", &mut symbols));
    times.parse_query = t;
    let query = query.ok()?;
    call_with_deep_stack(|| {
        let (engine, t) = tr.span("bottomup.new", op, || {
            BottomUpEngine::new(&rules, &db).map(|e| e.with_parallelism(host_threads()))
        });
        times.engine_new = t;
        let mut engine = engine.ok()?;
        let (verdict, t) = tr.span("bottomup.holds", op, || engine.holds(&query));
        times.holds = t;
        let s = engine.stats();
        times.rounds = s.rounds;
        times.attempts = s.goal_expansions;
        times.databases = s.databases_created;
        times.index_probes = s.index_probes;
        times.index_hits = s.index_hits;
        times.delta_facts = s.overlay.delta_facts;
        times.materialized_facts = s.overlay.materialized_facts;
        times.flattens = s.overlay.flattens;
        verdict.ok()
    })
}

/// Sums the count block over `ops`.
fn counts(ops: &[SearchTimes]) -> Counts {
    let sum = |f: fn(&SearchTimes) -> u64| ops.iter().map(f).sum();
    vec![
        ("searches", ops.len() as u64),
        ("bottomup_rounds", sum(|o| o.rounds)),
        ("bottomup_attempts", sum(|o| o.attempts)),
        ("bottomup_databases", sum(|o| o.databases)),
        ("bottomup_index_probes", sum(|o| o.index_probes)),
        ("bottomup_index_hits", sum(|o| o.index_hits)),
        ("overlay_delta_facts", sum(|o| o.delta_facts)),
        ("overlay_materialized_facts", sum(|o| o.materialized_facts)),
        ("overlay_flattens", sum(|o| o.flattens)),
    ]
}

/// The traced run: the traced pass for two thirds of `seconds`, a
/// reference pass of the same searches without spans, and a count-only
/// replay of the first [`COUNT_OPS`] searches.
pub fn run_traced(
    seed: u64,
    seconds: f64,
    spans_out: &std::path::Path,
    tally: &mut Tally,
) -> (Metrics, Counts, Counts) {
    let pool = pool(seed);
    let mut tr = Tracer::default();
    let mut ops: Vec<SearchTimes> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * 2.0 / 3.0);
    while ops.len() < COUNT_OPS || Instant::now() < deadline {
        let op = ops.len() as u64;
        let (src, want) = &pool[ops.len() % POOL];
        let mut session = Session::new()
            .with_engine(EngineKind::BottomUp)
            .with_parallelism(host_threads());
        let (loaded, load) = tr.span("session.load", op, || session.load(src).is_ok());
        let (verdict, ask) = tr.span("session.ask", op, || session.ask("?- yes."));
        let mut times = SearchTimes {
            load,
            ask,
            ..SearchTimes::default()
        };
        let pieces = search_pieces(&mut tr, op, src, &mut times);
        tally.record(loaded && verdict.ok() == Some(*want) && pieces == Some(*want));
        ops.push(times);
    }
    if let Err(e) = tr.write_jsonl(spans_out) {
        eprintln!(
            "warning: cannot write spans to {}: {e}",
            spans_out.display()
        );
    }

    // Reference pass: the same searches without spans or pieces.
    let mut ref_asks = Vec::new();
    for i in 0..ops.len() {
        let (src, want) = &pool[i % POOL];
        let (_, ask, ok) = search(src, *want);
        tally.record(ok);
        ref_asks.push(ask);
    }

    let mut again = Vec::new();
    let mut scratch = Tracer::default();
    for i in 0..COUNT_OPS {
        let (src, want) = &pool[i % POOL];
        let mut times = SearchTimes::default();
        let verdict = search_pieces(&mut scratch, i as u64, src, &mut times);
        tally.record(verdict == Some(*want));
        again.push(times);
    }

    let first = counts(&ops[..COUNT_OPS]);
    let c = |name: &str| {
        first
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v as f64)
    };
    let col = |f: fn(&SearchTimes) -> f64| ops.iter().map(f).collect::<Vec<_>>();
    let n = COUNT_OPS as f64;
    let metrics = vec![
        ("bottomup.holds_ms", p50(&col(|o| o.holds)) / 1e3),
        ("bottomup.rounds_per_search", c("bottomup_rounds") / n),
        ("bottomup.attempts_per_search", c("bottomup_attempts") / n),
        ("bottomup.databases_per_search", c("bottomup_databases") / n),
        (
            "bottomup.index_hit_ratio",
            ratio(c("bottomup_index_hits"), c("bottomup_index_probes")),
        ),
        ("parser.query_us", p50(&col(|o| o.parse_query))),
        ("parser.program_us", p50(&col(|o| o.parse_program))),
        ("analysis.stratify_us", p50(&col(|o| o.stratify))),
        (
            "overlay.delta_share",
            ratio(c("overlay_delta_facts"), c("overlay_materialized_facts")),
        ),
        ("overlay.flattens", c("overlay_flattens") / n),
        (
            "trace.coverage_query",
            ratio(
                p50(&col(|o| o.parse_query + o.engine_new + o.holds)),
                p50(&col(|o| o.ask)),
            ),
        ),
        (
            "trace.coverage_mutation",
            ratio(p50(&col(|o| o.parse_program)), p50(&col(|o| o.load))),
        ),
        (
            "trace.overhead_frac",
            ratio(p50(&col(|o| o.ask)), p50(&ref_asks)) - 1.0,
        ),
        ("trace.traced_ops", ops.len() as f64),
    ];
    (metrics, first, counts(&again))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn searches_agree_with_the_direct_check() {
        let mut tally = Tally::default();
        let pool = pool(5);
        for i in 0..6 {
            let (src, want) = &pool[i % POOL];
            tally.record(search(src, *want).2);
        }
        assert_eq!(tally.failed, 0);
    }
}
