//! The serving workloads, `whatif` and `mixed_rw`: closed-loop clients
//! speaking the wire protocol to an in-process [`Server`] at its
//! defaults, every reply checked against the [`University`] oracle.
//!
//! `whatif` reads an ephemeral tenant; its mutation figures come from
//! the chunked `load`s that build the tenant during set-up. `mixed_rw`
//! mixes Zipf-skewed reads with durable `load`/`retract` of `take`
//! facts; each connection owns the students whose number is its index
//! modulo [`CONNS`], so its expected answers follow from its own writes.
//!
//! The traced run replays the connections' operations in one thread,
//! alternating between `mixed_rw`'s two, so its counts repeat exactly. Each
//! operation goes over TCP to the real server (the client-observed
//! span), then again through twins of the layers below it, built from
//! the same public types and fed the same operations in the same order:
//! a [`Tenant`] from a [`Registry`] configured like the server's, a
//! [`QueryService`], a [`DurableSession`] with its own group committer,
//! and a [`TopDownEngine`] rebuilt per published snapshot as a service
//! worker does. Each call is a span of its own: the twins are separate
//! copies, so their spans are siblings of the client span, and a
//! layer's figure is the total time of its calls. A read is then asked
//! again over TCP and of the service twin, where it is an answer-cache
//! hit, which times those layers without any engine work.

use crate::host::{Reference, Speed};
use crate::measure::{mean, p50, pct, ratio, us, PeakRss, Tracer};
use crate::rng::{scramble, Rng, Zipf};
use crate::university::{Mix, Query, University};
use crate::{Counts, Metrics, Tally};
use hdl_base::SymbolTable;
use hdl_core::analysis::stratify::global_negation_strata;
use hdl_core::engine::{EngineStats, TopDownEngine};
use hdl_core::parser::{parse_program, parse_query, split_facts};
use hdl_core::Snapshot;
use hdl_persist::{DurableSession, GroupCommitStats, GroupCommitter};
use hdl_server::{
    outcome_reply, Json, Registry, RegistryConfig, Reply, Request, Server, ServerConfig, Tenant,
};
use hdl_service::{Outcome, QueryRequest, QueryService, ServiceConfig};
use std::collections::HashSet;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Seed of the generated program. The program is the same in every
/// run, so runs differ only in the operations `--seed` draws: the
/// engine's costs depend on where required courses fall in its scan
/// order, and a program drawn per seed would move every figure by more
/// than a change under test.
const PROGRAM_SEED: u64 = 0x756e_6976;
/// Students in the generated program.
pub const STUDENTS: usize = 256;
/// Courses in the generated program.
pub const COURSES: usize = 40;
/// Facts per set-up `load`.
pub const LOAD_CHUNK: usize = 16;
/// Client connections of `mixed_rw` (closed loop, one thread each);
/// `whatif` uses one.
pub const CONNS: usize = 2;
/// Share of `mixed_rw` operations that are durable writes, in percent.
pub const WRITE_PERCENT: usize = 10;
/// Zipf skew and rank count of `mixed_rw` reads.
pub const ZIPF_THETA: f64 = 0.99;
pub const ZIPF_RANKS: usize = 1 << 16;
/// Phases of an untraced run's measured window, and the timed set-ups
/// of fresh servers before each. Every client-observed figure is the
/// median of its per-phase values, and `setup_s` and `whatif`'s load
/// figures are medians over all set-ups, so a burst of other load on the
/// host moves a few phases or set-ups, not the result.
const PHASES: usize = 8;
const SETUPS_PER_PHASE: usize = 2;
/// Slices of a phase, with the host's speed sampled between them.
const SLICES: usize = 8;
/// `peak_rss_mb` is the median peak of this many windows of operations.
const RSS_WINDOWS: usize = 8;
const RSS_WINDOW_OPS: u64 = 1000;
/// Operations whose counts make the deterministic count block.
const COUNT_OPS: u64 = 1000;

/// Which serving workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    WhatIf,
    MixedRw,
}

impl Kind {
    fn tenant(self) -> &'static str {
        match self {
            Kind::WhatIf => "whatif",
            Kind::MixedRw => "mixed_rw",
        }
    }

    fn durable(self) -> bool {
        self == Kind::MixedRw
    }

    /// Percent of each query kind (see [`Query`]). Most answers are
    /// cheap refutations; true `grad`s in fresh overlays and the nested
    /// `one_more` are the heavy tail. `mixed_rw` keeps the nested kind
    /// rare: with rebuilds after every write already slowing a fifth of
    /// its reads, more slow reads would put its median on the edge
    /// between the fast and the slow reads.
    fn mix(self) -> Mix {
        match self {
            Kind::WhatIf => [30, 30, 25, 15],
            Kind::MixedRw => [35, 35, 25, 5],
        }
    }

    /// Closed-loop client connections.
    fn conns(self) -> usize {
        match self {
            Kind::WhatIf => 1,
            Kind::MixedRw => CONNS,
        }
    }
}

/// One client operation.
#[derive(Clone, Copy, Debug)]
enum Op {
    Query(Query),
    Load { s: usize, c: usize },
    Retract { s: usize, c: usize },
}

impl Op {
    fn is_write(&self) -> bool {
        !matches!(self, Op::Query(_))
    }

    fn fact(s: usize, c: usize) -> String {
        format!("take(s{s}, c{c})")
    }

    /// The request line, tagged with `id`.
    fn line(&self, id: u64) -> String {
        match self {
            Op::Query(q) => format!("{{\"op\":\"query\",\"q\":\"{}\",\"id\":{id}}}", q.text()),
            Op::Load { s, c } => format!(
                "{{\"op\":\"load\",\"program\":\"{}.\",\"id\":{id}}}",
                Op::fact(*s, *c)
            ),
            Op::Retract { s, c } => format!(
                "{{\"op\":\"retract\",\"fact\":\"{}\",\"id\":{id}}}",
                Op::fact(*s, *c)
            ),
        }
    }
}

/// What a correct reply says.
#[derive(Clone, Copy, Debug)]
enum Expect {
    Answer(bool),
    Loaded,
    Removed,
}

/// Whether a reply line is the correct reply.
fn reply_is(reply: &str, expect: Expect) -> bool {
    reply.contains("\"ok\":true")
        && match expect {
            Expect::Answer(true) => reply.contains("\"result\":\"true\""),
            Expect::Answer(false) => reply.contains("\"result\":\"false\""),
            Expect::Loaded => reply.contains("\"op\":\"load\""),
            Expect::Removed => reply.contains("\"removed\":true"),
        }
}

fn outcome_is(outcome: &Outcome, expect: Expect) -> bool {
    matches!(
        (outcome, expect),
        (Outcome::True, Expect::Answer(true)) | (Outcome::False, Expect::Answer(false))
    )
}

/// One client's deterministic operation stream and its oracle state.
struct Client {
    conn: usize,
    rng: Rng,
    salt: u64,
    /// Transcripts as this client knows them; only its own students
    /// change, and only through its own acknowledged writes.
    taken: Vec<u64>,
}

impl Client {
    fn new(uni: &University, seed: u64, conn: usize) -> Client {
        let salt = seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ conn as u64;
        Client {
            conn,
            rng: Rng::new(salt),
            salt,
            taken: uni.taken.clone(),
        }
    }

    fn next(&mut self, kind: Kind, uni: &University, zipf: &Zipf) -> (Op, Expect) {
        let courses = uni.courses();
        let op = match kind {
            Kind::WhatIf => {
                let s = self.rng.below(uni.students());
                let key = self.rng.next_u64();
                Op::Query(Query::pick(key, s, self.taken[s], courses, &kind.mix()))
            }
            Kind::MixedRw => {
                let own = uni.students() / CONNS;
                let conn = self.conn;
                if self.rng.below(100) < WRITE_PERCENT {
                    let s = self.rng.below(own) * CONNS + conn;
                    let c = self.rng.below(courses);
                    if self.taken[s] & (1 << c) != 0 {
                        Op::Retract { s, c }
                    } else {
                        Op::Load { s, c }
                    }
                } else {
                    let rank = zipf.sample(&mut self.rng) as u64;
                    let key = scramble(rank, self.salt);
                    let s = (key % own as u64) as usize * CONNS + conn;
                    let key = key / own as u64;
                    Op::Query(Query::pick(key, s, self.taken[s], courses, &kind.mix()))
                }
            }
        };
        let expect = match &op {
            Op::Query(q) => Expect::Answer(uni.expected(q, self.taken[q.student()])),
            Op::Load { .. } => Expect::Loaded,
            Op::Retract { .. } => Expect::Removed,
        };
        (op, expect)
    }

    /// Records an acknowledged write.
    fn applied(&mut self, op: &Op) {
        match *op {
            Op::Load { s, c } => self.taken[s] |= 1 << c,
            Op::Retract { s, c } => self.taken[s] &= !(1 << c),
            Op::Query(_) => {}
        }
    }
}

/// A wire-protocol connection bound to one tenant.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    reply: String,
}

impl Conn {
    fn open(addr: SocketAddr, tenant: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::new(stream.try_clone()?);
        let mut conn = Conn {
            stream,
            reader,
            reply: String::new(),
        };
        let reply = conn.call(&format!("{{\"op\":\"open\",\"tenant\":\"{tenant}\"}}"))?;
        if !reply.contains("\"ok\":true") {
            return Err(io::Error::other(format!("open refused: {reply}")));
        }
        Ok(conn)
    }

    /// Sends one request line and returns the reply line.
    fn call(&mut self, line: &str) -> io::Result<&str> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        Ok(self.reply.trim_end())
    }
}

/// A running server with the workload's tenant loaded.
struct Live {
    server: Server,
    persist: Option<PathBuf>,
}

impl Live {
    /// Starts a server at its defaults (durable under `dir` for
    /// `mixed_rw`), loads the program in chunks over one connection —
    /// timing each `load` into `loads` — and asks one query of each
    /// kind so the tenant's engine is built before timing starts.
    fn start(
        kind: Kind,
        uni: &University,
        dir: &Path,
        loads: &mut Vec<f64>,
        tally: &mut Tally,
    ) -> io::Result<Live> {
        let persist = kind.durable().then(|| dir.to_path_buf());
        if let Some(p) = &persist {
            let _ = std::fs::remove_dir_all(p);
            std::fs::create_dir_all(p)?;
        }
        let server = Server::start(ServerConfig {
            persist_root: persist.clone(),
            ..ServerConfig::default()
        })?;
        let live = Live { server, persist };
        let mut conn = Conn::open(live.server.addr(), kind.tenant())?;
        for (i, text) in uni.load_texts(LOAD_CHUNK).iter().enumerate() {
            let line = format!("{{\"op\":\"load\",\"program\":\"{text}\",\"id\":{i}}}");
            let t = Instant::now();
            let ok = reply_is(conn.call(&line)?, Expect::Loaded);
            loads.push(us(t.elapsed()));
            tally.record(ok);
        }
        for key in 0..4 {
            let q = Query::pick(key * 25, 0, uni.taken[0], uni.courses(), &[25, 25, 25, 25]);
            let want = Expect::Answer(uni.expected(&q, uni.taken[q.student()]));
            tally.record(reply_is(conn.call(&Op::Query(q).line(key))?, want));
        }
        Ok(live)
    }

    fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    fn stop(self) {
        self.server.drain();
        if let Some(p) = &self.persist {
            let _ = std::fs::remove_dir_all(p);
        }
    }
}

/// Latencies one closed-loop client observed.
#[derive(Default)]
struct Observed {
    queries: Vec<f64>,
    mutations: Vec<f64>,
}

/// Runs the clients closed-loop for `secs` over their connections;
/// returns what they observed and the wall time it took.
#[allow(clippy::too_many_arguments)]
fn phase(
    kind: Kind,
    uni: &University,
    zipf: &Zipf,
    rss: &PeakRss,
    clients: &mut [Client],
    conns: &mut [Conn],
    secs: f64,
    tally: &mut Tally,
) -> (Observed, f64) {
    let barrier = Barrier::new(clients.len() + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(conns.iter_mut())
            .map(|(client, wire)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let mut seen = Observed::default();
                    barrier.wait();
                    let deadline = Instant::now() + Duration::from_secs_f64(secs);
                    let mut id = 0;
                    while Instant::now() < deadline {
                        let (op, expect) = client.next(kind, uni, zipf);
                        let line = op.line(id);
                        id += 1;
                        let t = Instant::now();
                        let ok = match wire.call(&line) {
                            Ok(reply) => reply_is(reply, expect),
                            Err(_) => {
                                tally.record(false);
                                break;
                            }
                        };
                        let took = us(t.elapsed());
                        tally.record(ok);
                        rss.tick();
                        if op.is_write() {
                            seen.mutations.push(took);
                            if ok {
                                client.applied(&op);
                            }
                        } else {
                            seen.queries.push(took);
                        }
                    }
                    (seen, tally)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let mut all = Observed::default();
        for handle in handles {
            let (seen, t) = handle.join().expect("client thread");
            all.queries.extend(seen.queries);
            all.mutations.extend(seen.mutations);
            tally.merge(&t);
        }
        (all, start.elapsed().as_secs_f64())
    })
}

/// The untraced run: the workload's closed-loop clients for `seconds`
/// against one server, in [`PHASES`] phases with fresh timed set-ups
/// before each, so the set-up figures sample the whole run. Each phase
/// runs in [`SLICES`] slices with the host's speed sampled between
/// them (see [`host`](crate::host)). Returns the figures at the
/// reference speed; the raw ones go into `raw`.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    scratch: &Path,
    tally: &mut Tally,
    raw: &mut Metrics,
) -> Metrics {
    let uni = University::generate(STUDENTS, COURSES, PROGRAM_SEED);
    let mut speed = Speed::start(Reference::Rpc);
    // Per set-up: its time, its loads' p50 and rate, and its host
    // factor.
    let mut setups: Vec<[f64; 4]> = Vec::new();
    let mut setup_loads = 0;
    let mut rep = 0;
    let rss = PeakRss::new(RSS_WINDOW_OPS, RSS_WINDOWS);
    let mut timed_setup = |tally: &mut Tally, speed: &mut Speed| {
        rss.excluding(|| {
            let t = Instant::now();
            let dir = scratch.join(format!("persist-{rep}"));
            rep += 1;
            let mut loads = Vec::new();
            let live = Live::start(kind, &uni, &dir, &mut loads, tally).expect("server set-up");
            let took = t.elapsed().as_secs_f64();
            let rate = loads.len() as f64 / (loads.iter().sum::<f64>() / 1e6);
            setups.push([took, p50(&loads), rate, speed.slice()]);
            setup_loads += loads.len();
            live
        })
    };
    let live = timed_setup(tally, &mut speed);
    let zipf = Zipf::new(ZIPF_RANKS, ZIPF_THETA);
    let mut clients: Vec<Client> = (0..kind.conns())
        .map(|conn| Client::new(&uni, seed, conn))
        .collect();
    let mut conns: Vec<Conn> = (0..kind.conns())
        .map(|_| Conn::open(live.addr(), kind.tenant()).expect("connect to the server"))
        .collect();
    // Per phase: query p50, p99 and rate, mutation p50 and rate, and the
    // phase's host factor.
    let mut phases: Vec<[f64; 6]> = Vec::new();
    let (mut queries, mut mutations) = (0, 0);
    let slice_secs = seconds / (PHASES * SLICES) as f64;
    for _ in 0..PHASES {
        for _ in 0..SETUPS_PER_PHASE {
            let fresh = timed_setup(tally, &mut speed);
            // Draining checkpoints the tenant: set-up work too.
            rss.excluding(|| fresh.stop());
        }
        let mut seen = Observed::default();
        let (mut busy, mut factor) = (0.0, 0.0);
        for _ in 0..SLICES {
            let (slice, secs) = phase(
                kind,
                &uni,
                &zipf,
                &rss,
                &mut clients,
                &mut conns,
                slice_secs,
                tally,
            );
            seen.queries.extend(slice.queries);
            seen.mutations.extend(slice.mutations);
            busy += secs;
            factor += speed.slice() / SLICES as f64;
        }
        let (q, m) = (&seen.queries, &seen.mutations);
        phases.push([
            p50(q),
            pct(q, 0.99),
            q.len() as f64 / busy,
            p50(m),
            m.len() as f64 / busy,
            factor,
        ]);
        (queries, mutations) = (queries + q.len(), mutations + m.len());
    }
    drop(conns);
    live.stop();
    println!(
        "{{\"samples\":{{\"phases\":{PHASES},\"slices\":{},\"queries\":{queries},\"mutations\":{mutations},\"setups\":{},\"setup_loads\":{setup_loads}}}}}",
        PHASES * SLICES,
        setups.len()
    );
    // Mutation p50, rate and host factor per set-up or phase. No
    // writes while reading on `whatif`: the tenant's own chunked loads
    // are its mutations, back to back (so their rate is count / time).
    let samples: Vec<[f64; 3]> = match kind {
        Kind::WhatIf => setups.iter().map(|s| [s[1], s[2], s[3]]).collect(),
        Kind::MixedRw => phases.iter().map(|p| [p[3], p[4], p[5]]).collect(),
    };
    // Times are divided by, rates multiplied by, the host factor of the
    // set-up or phase they were measured in.
    let figures = |at_reference: bool| {
        let at = |f: f64| if at_reference { f } else { 1.0 };
        let median = |v: Vec<f64>| p50(&v);
        let setup = median(setups.iter().map(|s| s[0] / at(s[3])).collect());
        let phase_time = |j: usize| median(phases.iter().map(|p| p[j] / at(p[5])).collect());
        let queries_per_s = median(phases.iter().map(|p| p[2] * at(p[5])).collect());
        let mutation_p50 = median(samples.iter().map(|s| s[0] / at(s[2])).collect());
        let mutations_per_s = median(samples.iter().map(|s| s[1] * at(s[2])).collect());
        vec![
            ("setup_s", setup),
            ("query_p50_us", phase_time(0)),
            ("query_p99_us", phase_time(1)),
            ("queries_per_s", queries_per_s),
            ("mutation_p50_us", mutation_p50),
            ("mutations_per_s", mutations_per_s),
            ("peak_rss_mb", rss.mb()),
        ]
    };
    *raw = figures(false);
    raw.push(("host_factor", speed.median()));
    figures(true)
}

/// Per-operation layer times of the traced run, in µs (0 where a layer
/// did not run).
#[derive(Default, Clone, Copy)]
struct OpTimes {
    write: bool,
    e2e: f64,
    /// The same read again over TCP, an answer-cache hit.
    e2e_hit: f64,
    parse: f64,
    encode: f64,
    tenant: f64,
    service: f64,
    /// The same read again through the service twin, a cache hit.
    service_hit: f64,
    rebuild: f64,
    holds: f64,
    query_parse: f64,
    persist: f64,
    snapshot: f64,
    /// Base facts in the snapshot a write published.
    cloned: f64,
}

/// Twins of the layers under the server, fed the replayed operations.
struct Twins {
    /// `None` when only counting (no tenant or service twin).
    tenant: Option<(Registry, Arc<Tenant>, QueryService)>,
    session: DurableSession,
    committer: Option<Arc<GroupCommitter>>,
    /// Engine counters of retired engines, plus overlay storage.
    engine_totals: EngineStats,
    evaluated: u64,
    reads: u64,
    mutations: u64,
    /// WAL offset and committer counters when set-up ended.
    wal_start: u64,
    commit_start: GroupCommitStats,
}

impl Twins {
    fn new(kind: Kind, uni: &University, dir: &Path, with_tenant: bool) -> io::Result<Twins> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir)?;
        let committer = kind.durable().then(GroupCommitter::new);
        let defaults = ServerConfig::default();
        let mut session = match &committer {
            Some(c) => DurableSession::open_grouped_pipelined(
                dir.join("session"),
                defaults.fsync,
                c.clone(),
            )
            .map_err(io::Error::other)?,
            None => DurableSession::ephemeral(),
        };
        let texts = uni.load_texts(LOAD_CHUNK);
        for text in &texts {
            session.load(text).map_err(io::Error::other)?;
            for ticket in session.take_pending_commits() {
                ticket.wait().map_err(io::Error::other)?;
            }
        }
        let tenant = if with_tenant {
            let registry = Registry::new(RegistryConfig {
                root: kind.durable().then(|| dir.join("registry")),
                policy: defaults.fsync,
                committer: kind.durable().then(GroupCommitter::new),
                workers: defaults.workers_per_tenant,
                quotas: defaults.quotas.clone(),
                ..RegistryConfig::default()
            });
            let tenant = registry
                .open(kind.tenant())
                .map_err(|e| io::Error::other(e.message))?;
            for text in &texts {
                tenant.load(text).map_err(|e| io::Error::other(e.message))?;
            }
            let service = QueryService::with_config(
                session.snapshot(),
                ServiceConfig {
                    workers: defaults.workers_per_tenant,
                    queue_cap: defaults.quotas.queue_cap,
                    max_facts: defaults.quotas.query_max_facts,
                    max_overlay_depth: defaults.quotas.max_overlay_depth,
                    ..ServiceConfig::default()
                },
            );
            Some((registry, tenant, service))
        } else {
            None
        };
        let wal_start = wal_offset(&session);
        let commit_start = committer.as_ref().map(|c| c.stats()).unwrap_or_default();
        Ok(Twins {
            tenant,
            session,
            committer,
            engine_totals: EngineStats::default(),
            evaluated: 0,
            reads: 0,
            mutations: 0,
            wal_start,
            commit_start,
        })
    }

    fn retire(&mut self, engine: &TopDownEngine<'_>) {
        add_stats(&mut self.engine_totals, engine.stats());
    }

    /// The deterministic count block so far (`live` = the engine still
    /// serving the current snapshot).
    fn counts(&self, live: Option<&TopDownEngine<'_>>) -> Counts {
        let mut s = self.engine_totals.clone();
        if let Some(e) = live {
            add_stats(&mut s, e.stats());
        }
        let commit = self
            .committer
            .as_ref()
            .map(|c| c.stats())
            .unwrap_or_default();
        vec![
            ("reads", self.reads),
            ("engine_queries", self.evaluated),
            ("topdown_expansions", s.goal_expansions),
            ("topdown_databases", s.databases_created),
            ("topdown_calls", s.calls),
            ("topdown_memo_hits", s.memo_hits),
            ("overlay_delta_facts", s.overlay.delta_facts),
            ("overlay_materialized_facts", s.overlay.materialized_facts),
            ("overlay_flattens", s.overlay.flattens),
            ("mutations", self.mutations),
            ("wal_bytes", wal_offset(&self.session) - self.wal_start),
            ("group_commits", commit.commits - self.commit_start.commits),
            (
                "fsync_groups",
                commit.fsync_groups - self.commit_start.fsync_groups,
            ),
        ]
    }
}

fn wal_offset(session: &DurableSession) -> u64 {
    session.wal_tap().map_or(0, |t| t.position().offset)
}

/// Adds the counters of `s` to `into`; overlay figures add up across
/// engines because each engine owns its own database lattice.
fn add_stats(into: &mut EngineStats, s: &EngineStats) {
    into.goal_expansions += s.goal_expansions;
    into.databases_created += s.databases_created;
    into.calls += s.calls;
    into.memo_hits += s.memo_hits;
    into.overlay.delta_facts += s.overlay.delta_facts;
    into.overlay.materialized_facts += s.overlay.materialized_facts;
    into.overlay.flattens += s.overlay.flattens;
}

/// What one replay pass produced.
#[derive(Default)]
struct Replay {
    ops: Vec<OpTimes>,
    counts: Counts,
}

/// Replays the two connections' operations alternately from one
/// thread until `deadline` has passed and at least `min_ops` ran (or
/// exactly `max_ops` ran). `wire` sends each operation to the server;
/// `twins` re-executes it below the server, under spans when `tracer`
/// is given.
#[allow(clippy::too_many_arguments)]
fn replay(
    kind: Kind,
    uni: &University,
    seed: u64,
    mut wire: Option<&mut [Conn]>,
    mut twins: Option<&mut Twins>,
    tracer: Option<&mut Tracer>,
    (deadline, min_ops, max_ops): (Instant, u64, u64),
    tally: &mut Tally,
) -> Replay {
    let zipf = Zipf::new(ZIPF_RANKS, ZIPF_THETA);
    let conns = kind.conns() as u64;
    let mut clients: Vec<Client> = (0..conns as usize)
        .map(|c| Client::new(uni, seed, c))
        .collect();
    let mut out = Replay::default();
    // Without a tracer the twins still run under spans, into a log that
    // is dropped; the client call is then timed without one.
    let mut scratch = Tracer::default();
    let keep = tracer.is_some();
    let tr = tracer.unwrap_or(&mut scratch);
    let mut id = 0u64;
    let engine_kind = ServerConfig::default().default_engine;
    let mut snap: Option<Arc<Snapshot>> = twins.as_ref().map(|t| t.session.snapshot());
    'segments: loop {
        // One published snapshot: the engine twin is rebuilt lazily on
        // its first read, and remembers which goals it answered so a
        // repeat is skipped as the service's answer cache would.
        let seg_snap = snap.clone();
        let mut engine: Option<TopDownEngine<'_>> = None;
        let mut symbols: Option<SymbolTable> = None;
        let mut answered: HashSet<String> = HashSet::new();
        loop {
            let done = id >= max_ops || (id >= min_ops && Instant::now() >= deadline);
            if done {
                if let (Some(t), Some(e)) = (twins.as_deref_mut(), &engine) {
                    t.retire(e);
                }
                break 'segments;
            }
            let client = &mut clients[(id % conns) as usize];
            let (op, expect) = client.next(kind, uni, &zipf);
            let line = op.line(id);
            let mut times = OpTimes {
                write: op.is_write(),
                ..OpTimes::default()
            };
            let mut ok = true;
            if let Some(conns) = wire.as_deref_mut() {
                let conn = &mut conns[client.conn];
                let mut call = || {
                    conn.call(&line)
                        .map(|r| reply_is(r, expect))
                        .unwrap_or(false)
                };
                if !keep {
                    let start = Instant::now();
                    ok = call();
                    times.e2e = us(start.elapsed());
                } else if op.is_write() {
                    (ok, times.e2e) = tr.span("client.mutation", id, call);
                } else {
                    (ok, times.e2e) = tr.span("client.query", id, &mut call);
                    let (hit, took) = tr.span("client.query_hit", id, call);
                    ok &= hit;
                    times.e2e_hit = took;
                }
            }
            if let Some(tw) = twins.as_deref_mut() {
                let seg = seg_snap.as_deref().expect("twins publish snapshots");
                match op {
                    Op::Query(q) => {
                        tw.reads += 1;
                        let text = q.text();
                        let req = QueryRequest::ask(text.clone()).with_engine(engine_kind);
                        if let Some((_, tenant, service)) = &tw.tenant {
                            let (parsed, t_parse) =
                                tr.span("server.request_parse", id, || Request::parse(&line));
                            ok &= parsed.is_ok();
                            let (outcome, t_tenant) =
                                tr.span("tenant.query", id, || tenant.query(req.clone()));
                            ok &= outcome_is(&outcome, expect);
                            let (_, t_encode) = tr.span("server.reply_encode", id, || {
                                outcome_reply("query", &outcome).render(Some(id))
                            });
                            let (outcome, t_service) =
                                tr.span("service.query", id, || service.submit(req.clone()).wait());
                            ok &= outcome_is(&outcome, expect);
                            let (outcome, t_hit) =
                                tr.span("service.query_hit", id, || service.submit(req).wait());
                            ok &= outcome_is(&outcome, expect);
                            times.parse = t_parse;
                            times.tenant = t_tenant;
                            times.encode = t_encode;
                            times.service = t_service;
                            times.service_hit = t_hit;
                        }
                        if answered.insert(text.clone()) {
                            tw.evaluated += 1;
                            if engine.is_none() {
                                let (built, t_rebuild) = tr.span("topdown.rebuild", id, || {
                                    TopDownEngine::new(seg.rulebase(), seg.database())
                                });
                                times.rebuild = t_rebuild;
                                engine = built.ok();
                                symbols = Some(seg.symbols().clone());
                            }
                            let syms = symbols.as_mut().expect("set with the engine");
                            let (premise, t_qparse) = tr.span("parser.query", id, || {
                                parse_query(&format!("?- {text}."), syms)
                            });
                            times.query_parse = t_qparse;
                            let verdict = match (engine.as_mut(), premise) {
                                (Some(e), Ok(p)) => {
                                    let (v, t_holds) = tr.span("topdown.holds", id, || e.holds(&p));
                                    times.holds = t_holds;
                                    v.ok()
                                }
                                _ => None,
                            };
                            ok &= verdict == Some(matches!(expect, Expect::Answer(true)));
                        }
                    }
                    Op::Load { s, c } | Op::Retract { s, c } => {
                        tw.mutations += 1;
                        let fact = Op::fact(s, c);
                        let load = matches!(op, Op::Load { .. });
                        if let Some((_, tenant, _)) = &tw.tenant {
                            let (parsed, t_parse) =
                                tr.span("server.request_parse", id, || Request::parse(&line));
                            ok &= parsed.is_ok();
                            let (applied, t_tenant) = tr.span("tenant.mutation", id, || {
                                if load {
                                    tenant.load(&format!("{fact}.")).is_ok()
                                } else {
                                    tenant.retract(&fact) == Ok(true)
                                }
                            });
                            ok &= applied;
                            let (_, t_encode) = tr.span("server.reply_encode", id, || {
                                let reply = if load {
                                    Reply::ok("load")
                                        .with("epoch", Json::num(tenant.epoch() as f64))
                                } else {
                                    Reply::ok("retract").with("removed", Json::Bool(true))
                                };
                                reply.render(Some(id))
                            });
                            times.parse = t_parse;
                            times.tenant = t_tenant;
                            times.encode = t_encode;
                        }
                        let session = &mut tw.session;
                        let (committed, t_persist) = tr.span("persist.commit", id, || {
                            let applied = if load {
                                session.load(&format!("{fact}.")).is_ok()
                            } else {
                                let text = format!("{fact}.");
                                let parsed = parse_program(&text, session.symbols_mut());
                                match parsed.map(split_facts) {
                                    Ok((_, facts)) if facts.len() == 1 => {
                                        session.retract_fact(&facts[0]) == Ok(true)
                                    }
                                    _ => false,
                                }
                            };
                            let durable = session
                                .take_pending_commits()
                                .into_iter()
                                .all(|ticket| ticket.wait().is_ok());
                            applied && durable
                        });
                        ok &= committed;
                        let (published, t_snapshot) =
                            tr.span("snapshot.publish", id, || session.snapshot());
                        if let Some((_, _, service)) = &tw.tenant {
                            tr.span("service.publish", id, || {
                                service.publish(Arc::clone(&published))
                            });
                        }
                        times.persist = t_persist;
                        times.snapshot = t_snapshot;
                        times.cloned = published.database().len() as f64;
                        snap = Some(published);
                    }
                }
            }
            tally.record(ok);
            if ok {
                clients[(id % conns) as usize].applied(&op);
            }
            out.ops.push(times);
            id += 1;
            if id == COUNT_OPS {
                if let Some(tw) = twins.as_deref() {
                    out.counts = tw.counts(engine.as_ref());
                }
            }
            if op.is_write() && twins.is_some() {
                if let (Some(t), Some(e)) = (twins.as_deref_mut(), &engine) {
                    t.retire(e);
                }
                continue 'segments;
            }
        }
    }
    out
}

/// Service counters read over the wire with the `stats` op:
/// (cache hits, cache misses, worker busy ms).
fn service_counters(conn: &mut Conn) -> (f64, f64, f64) {
    let Ok(reply) = conn.call("{\"op\":\"stats\"}") else {
        return (0.0, 0.0, 0.0);
    };
    let Ok(json) = Json::parse(reply) else {
        return (0.0, 0.0, 0.0);
    };
    let service = json.get("service");
    let num = |key: &str| {
        service
            .and_then(|s| s.get(key))
            .and_then(|v| match v {
                Json::Num(n) => Some(*n),
                _ => None,
            })
            .unwrap_or(0.0)
    };
    let busy = match service.and_then(|s| s.get("worker_busy_ms")) {
        Some(Json::Arr(ms)) => ms
            .iter()
            .map(|v| if let Json::Num(n) = v { *n } else { 0.0 })
            .sum(),
        _ => 0.0,
    };
    (num("cache_hits"), num("cache_misses"), busy)
}

/// The traced run: the traced pass with twins and spans for two thirds
/// of `seconds`, a reference pass replaying the same operations without
/// them, and a second count-only replay of the first [`COUNT_OPS`]
/// operations.
/// Returns the per-layer metrics and the two count blocks.
pub fn run_traced(
    kind: Kind,
    seed: u64,
    seconds: f64,
    scratch: &Path,
    spans_out: &Path,
    tally: &mut Tally,
) -> (Metrics, Counts, Counts) {
    let uni = University::generate(STUDENTS, COURSES, PROGRAM_SEED);
    let mut loads = Vec::new();
    let open = |live: &Live| -> Vec<Conn> {
        (0..kind.conns())
            .map(|_| Conn::open(live.addr(), kind.tenant()).expect("connect"))
            .collect()
    };

    // Traced pass.
    let live = Live::start(kind, &uni, &scratch.join("traced"), &mut loads, tally).expect("set-up");
    let mut conns = open(&live);
    let mut twins = Twins::new(kind, &uni, &scratch.join("twins"), true).expect("twin set-up");
    let mut tracer = Tracer::default();
    let window = (
        Instant::now() + Duration::from_secs_f64(seconds * 2.0 / 3.0),
        COUNT_OPS,
        u64::MAX,
    );
    let traced = replay(
        kind,
        &uni,
        seed,
        Some(&mut conns),
        Some(&mut twins),
        Some(&mut tracer),
        window,
        tally,
    );
    drop(conns);
    drop(twins);
    live.stop();
    if let Err(e) = tracer.write_jsonl(spans_out) {
        eprintln!(
            "warning: cannot write spans to {}: {e}",
            spans_out.display()
        );
    }

    // Reference pass: the same operations, no twins, no spans.
    let live = Live::start(kind, &uni, &scratch.join("ref"), &mut loads, tally).expect("set-up");
    let mut conns = open(&live);
    let (h0, m0, b0) = service_counters(&mut conns[0]);
    let start = Instant::now();
    let n = traced.ops.len() as u64;
    let reference = replay(
        kind,
        &uni,
        seed,
        Some(&mut conns),
        None,
        None,
        (start, n, n),
        tally,
    );
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let (h1, m1, b1) = service_counters(&mut conns[0]);
    drop(conns);
    live.stop();

    // Count-only replay: fresh twins without tenant or service.
    let mut recount = Twins::new(kind, &uni, &scratch.join("recount"), false).expect("twin set-up");
    let window = (Instant::now(), COUNT_OPS, COUNT_OPS);
    let mut count_tally = Tally::default();
    let again = replay(
        kind,
        &uni,
        seed,
        None,
        Some(&mut recount),
        None,
        window,
        &mut count_tally,
    );
    tally.merge(&count_tally);
    drop(recount);
    let _ = std::fs::remove_dir_all(scratch.join("twins"));
    let _ = std::fs::remove_dir_all(scratch.join("recount"));

    let reads: Vec<&OpTimes> = traced.ops.iter().filter(|o| !o.write).collect();
    let writes: Vec<&OpTimes> = traced.ops.iter().filter(|o| o.write).collect();
    let col =
        |ops: &[&OpTimes], f: fn(&OpTimes) -> f64| ops.iter().map(|o| f(o)).collect::<Vec<_>>();
    let nonzero = |v: Vec<f64>| v.into_iter().filter(|&x| x > 0.0).collect::<Vec<_>>();
    let ref_q: Vec<f64> = reference
        .ops
        .iter()
        .filter(|o| !o.write)
        .map(|o| o.e2e)
        .collect();
    let c = |name: &str| -> f64 {
        traced
            .counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v as f64)
    };
    let parse_us: Vec<f64> = uni
        .load_texts(LOAD_CHUNK)
        .iter()
        .map(|t| {
            let mut syms = SymbolTable::new();
            let start = Instant::now();
            let _ = parse_program(t, &mut syms);
            us(start.elapsed())
        })
        .collect();
    let rulebase = {
        let mut syms = SymbolTable::new();
        split_facts(parse_program(crate::university::RULES, &mut syms).expect("rules parse")).0
    };
    let stratify_us: Vec<f64> = (0..32)
        .map(|_| {
            let start = Instant::now();
            let _ = global_negation_strata(&rulebase);
            us(start.elapsed())
        })
        .collect();
    let engine_ops: Vec<&OpTimes> = reads.iter().copied().filter(|o| o.holds > 0.0).collect();
    let metrics = vec![
        (
            "server.request_parse_us",
            p50(&col(&traced.ops.iter().collect::<Vec<_>>(), |o| o.parse)),
        ),
        (
            "server.reply_encode_us",
            p50(&col(&traced.ops.iter().collect::<Vec<_>>(), |o| o.encode)),
        ),
        ("server.hit_us", p50(&col(&reads, |o| o.e2e_hit))),
        ("tenant.query_us", p50(&col(&reads, |o| o.tenant))),
        ("tenant.mutation_us", p50(&col(&writes, |o| o.tenant))),
        (
            "tenant.mutation_p99_us",
            pct(&col(&writes, |o| o.tenant), 0.99),
        ),
        ("snapshot.publish_us", p50(&col(&writes, |o| o.snapshot))),
        ("snapshot.facts_cloned", mean(&col(&writes, |o| o.cloned))),
        ("service.query_us", p50(&col(&reads, |o| o.service))),
        (
            "service.query_p99_us",
            pct(&col(&reads, |o| o.service), 0.99),
        ),
        ("service.hit_us", p50(&col(&reads, |o| o.service_hit))),
        (
            "service.cache_hit_ratio",
            ratio(h1 - h0, (h1 - h0) + (m1 - m0)),
        ),
        ("service.worker_busy_frac", ratio(b1 - b0, wall_ms)),
        (
            "topdown.rebuild_us",
            p50(&nonzero(col(&reads, |o| o.rebuild))),
        ),
        ("topdown.holds_us", p50(&col(&engine_ops, |o| o.holds))),
        (
            "topdown.holds_p99_us",
            pct(&col(&engine_ops, |o| o.holds), 0.99),
        ),
        (
            "topdown.expansions_per_query",
            ratio(c("topdown_expansions"), c("engine_queries")),
        ),
        (
            "topdown.memo_hit_ratio",
            ratio(c("topdown_memo_hits"), c("topdown_calls")),
        ),
        (
            "topdown.databases_per_query",
            ratio(c("topdown_databases"), c("engine_queries")),
        ),
        ("parser.query_us", p50(&col(&engine_ops, |o| o.query_parse))),
        ("parser.program_us", p50(&parse_us)),
        ("analysis.stratify_us", p50(&stratify_us)),
        (
            "overlay.delta_share",
            ratio(c("overlay_delta_facts"), c("overlay_materialized_facts")),
        ),
        ("overlay.flattens", c("overlay_flattens")),
        ("persist.commit_us", p50(&col(&writes, |o| o.persist))),
        (
            "persist.commit_p99_us",
            pct(&col(&writes, |o| o.persist), 0.99),
        ),
        (
            "persist.fsyncs_per_mutation",
            ratio(c("fsync_groups"), c("mutations")),
        ),
        (
            "persist.wal_bytes_per_mutation",
            ratio(c("wal_bytes"), c("mutations")),
        ),
        (
            "trace.coverage_query",
            ratio(
                p50(&col(&reads, |o| o.parse + o.tenant + o.encode)),
                p50(&col(&reads, |o| o.e2e)),
            ),
        ),
        (
            "trace.coverage_mutation",
            ratio(
                p50(&col(&writes, |o| o.parse + o.tenant + o.encode)),
                p50(&col(&writes, |o| o.e2e)),
            ),
        ),
        (
            "trace.overhead_frac",
            ratio(p50(&col(&reads, |o| o.e2e)), p50(&ref_q)) - 1.0,
        ),
        ("trace.traced_ops", traced.ops.len() as f64),
    ];
    (metrics, traced.counts, again.counts)
}
