//! The three workloads: set-up, the timed window, and the metrics.
//!
//! All load comes from this process, closed loop, with at most two load
//! threads. Every workload serves with the service defaults (ProbeSim
//! engine, 1,024-entry result cache, 8 retained versions), so the
//! workloads differ only in their inputs:
//!
//! * `cold_static` — HepTh-like graph; two clients each ask
//!   `SingleSource` on a source never asked before. The cache cannot
//!   hit and nothing writes during the window, so the fused sweep
//!   dominates. After the window, an idle write probe (commits each
//!   chased by a read-your-writes read, on an otherwise idle service)
//!   gives this workload its write-path numbers.
//! * `hot_churn` — AS-like power-law graph; one reader asks
//!   `TopK{k: 50}` over a Zipf-ranked hot set while one writer commits
//!   one edge update per 16 completed reads and chases each commit with
//!   a read-your-writes read. Walk sampling and trie build dominate a
//!   miss, and repeats hit the cache.
//! * `fleet_churn` — `hot_churn`'s graph and traffic served by a `Fleet`
//!   with two log-tailing replicas: its difference from `hot_churn` is
//!   the log append, replication and routing.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use probesim_core::{walk, ProbeSimConfig, Query, QueryStats, WalkTrie};
use probesim_datasets::{Dataset, Scale};
use probesim_eval::ZipfRanks;
use probesim_fleet::Fleet;
use probesim_graph::{Commit, CsrGraph, GraphSnapshot, GraphStore, GraphUpdate, GraphView, NodeId};
use probesim_service::{Consistency, QueryService, Request, Response, ServiceBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::check;
use crate::report::{quantile, secs, Report};
use crate::trace::{self, SpanBuf, Tracer};

/// The paper's query parameters: c = 0.6, εa = 0.1, δ = 0.01.
const DECAY: f64 = 0.6;
const EPSILON: f64 = 0.1;
const DELTA: f64 = 0.01;
const TOP_K: usize = 50;
const HOT_SET: usize = 256;
const HOT_SET_SEED: u64 = 0x407_5E7;
const WRITE_POOL: usize = 64;
const WRITE_POOL_SEED: u64 = 0x0032_17E5;
/// The engine's own seed is configuration, not input: fixed, so a
/// query's cost depends only on the graph and the query.
const ENGINE_SEED: u64 = 2017;
const READS_PER_COMMIT: u64 = 16;
/// Set-up is timed this many times per run and the median reported.
const SETUP_REPEATS: usize = 7;
/// Commits of `cold_static`'s idle write probe, made by two writers:
/// two deletions and two re-insertions of every pool edge. Fewer left
/// its fresh-read figures swinging 25% between runs.
const IDLE_WRITES: usize = 4 * WRITE_POOL;
/// Answers each load thread keeps for the correctness check, per kind.
const CHECKED_PER_KIND: usize = 6;
/// In a traced run, every this-many-th miss of a load thread is followed
/// by timing walk sampling + trie build for its source on the snapshot
/// it ran on. This is done in the window, beside the load, so the time
/// compares with the miss's own execution time.
const WALK_TRIE_STRIDE: u64 = 16;
const CATCH_UP_TIMEOUT: Duration = Duration::from_secs(5);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdStatic,
    HotChurn,
    FleetChurn,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold_static" => Some(Workload::ColdStatic),
            "hot_churn" => Some(Workload::HotChurn),
            "fleet_churn" => Some(Workload::FleetChurn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdStatic => "cold_static",
            Workload::HotChurn => "hot_churn",
            Workload::FleetChurn => "fleet_churn",
        }
    }

    fn dataset(self) -> Dataset {
        match self {
            Workload::ColdStatic => Dataset::HepTh,
            Workload::HotChurn | Workload::FleetChurn => Dataset::As,
        }
    }
}

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run measured.
pub struct Outcome {
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable lines printed above the result.
    pub notes: Vec<String>,
}

/// The system under test: one service, or a fleet.
enum Serving {
    Service(QueryService),
    Fleet(Fleet),
}

impl Serving {
    fn build(workload: Workload, config: ProbeSimConfig, graph: CsrGraph) -> Serving {
        match workload {
            Workload::ColdStatic | Workload::HotChurn => {
                Serving::Service(ServiceBuilder::new(config).build(GraphStore::from_csr(graph)))
            }
            Workload::FleetChurn => Serving::Fleet(
                Fleet::builder(config)
                    .replicas(2)
                    .workers(1)
                    .cache_capacity(1024)
                    .retained_versions(8)
                    .build(graph),
            ),
        }
    }

    fn call(&self, request: Request) -> Result<Response, String> {
        match self {
            Serving::Service(service) => service.call(request).map_err(|e| e.to_string()),
            Serving::Fleet(fleet) => fleet.call(request).map_err(|e| e.to_string()),
        }
    }

    fn commit(&self, update: GraphUpdate) -> Commit {
        match self {
            Serving::Service(service) => service.commit(update),
            Serving::Fleet(fleet) => fleet.commit(update),
        }
    }

    /// The newest snapshot of the endpoint `Latest` reads go to.
    fn snapshot(&self) -> GraphSnapshot {
        match self {
            Serving::Service(service) => service.snapshot(),
            Serving::Fleet(fleet) => fleet.primary().snapshot(),
        }
    }

    fn fleet(&self) -> Option<&Fleet> {
        match self {
            Serving::Service(_) => None,
            Serving::Fleet(fleet) => Some(fleet),
        }
    }

    /// Visits every endpoint: the service, or the fleet's primary and
    /// replicas.
    fn for_each_endpoint(&self, mut visit: impl FnMut(&QueryService)) {
        match self {
            Serving::Service(service) => visit(service),
            Serving::Fleet(fleet) => {
                visit(fleet.primary());
                for replica in fleet.replicas() {
                    visit(&replica.service());
                }
            }
        }
    }

    /// Cache hits and misses summed over the endpoints.
    fn cache_counts(&self) -> (u64, u64) {
        let (mut hits, mut misses) = (0, 0);
        self.for_each_endpoint(|service| {
            let stats = service.stats();
            hits += stats.cache_hits;
            misses += stats.cache_misses;
        });
        (hits, misses)
    }

    fn queue_depth(&self) -> u64 {
        let mut depth = 0;
        self.for_each_endpoint(|service| depth += service.queue_depth());
        depth
    }

    fn call_span(&self) -> &'static str {
        match self {
            Serving::Service(_) => "service.call",
            Serving::Fleet(_) => "fleet.call",
        }
    }

    fn commit_span(&self) -> &'static str {
        match self {
            Serving::Service(_) => "service.commit",
            Serving::Fleet(_) => "fleet.commit",
        }
    }
}

/// A set-up system plus what the set-up cost.
struct Setup {
    graph: CsrGraph,
    serving: Serving,
    generate: Duration,
    total: Duration,
}

/// Generates the graph and builds the serving tier, up to its first
/// answer.
fn set_up(workload: Workload, config: &ProbeSimConfig) -> Result<Setup, String> {
    let start = Instant::now();
    let graph = workload.dataset().generate(Scale::Laptop);
    let generate = start.elapsed();
    let serving = Serving::build(workload, config.clone(), graph.clone());
    let first = graph
        .nodes()
        .find(|&v| graph.has_in_edges(v))
        .ok_or("the generated graph has no node with in-edges")?;
    // `k = 1` keys the cache apart from every timed query.
    serving.call(Request::new(Query::TopK { node: first, k: 1 }))?;
    Ok(Setup {
        graph,
        serving,
        generate,
        total: start.elapsed(),
    })
}

/// The nodes with in-edges (the paper's query protocol), shuffled.
fn shuffled_sources(graph: &CsrGraph, rng: &mut StdRng) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = graph.nodes().filter(|&v| graph.has_in_edges(v)).collect();
    shuffle(&mut nodes, rng);
    nodes
}

/// Fisher–Yates.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// The writer side of a run: an update stream that alternately deletes
/// a live edge and re-inserts it (so every update is effective), the
/// updates committed so far in commit order, and, in a traced run, the
/// mirror store the same stream is fed to.
///
/// The edges come from a pool that, like the graph and the hot set, is
/// part of the workload: one random in-edge of each of `WRITE_POOL`
/// nodes drawn uniformly from those with in-edges, so the
/// read-your-writes read on an edge's target follows the paper's query
/// protocol. Deletions cycle through the pool, each cycle in an order
/// the seed shuffles, so every pool edge is updated equally often and a
/// run's fresh reads cover the same targets whatever the seed.
struct Writes {
    pool: Vec<(NodeId, NodeId)>,
    /// Next pool index of the current cycle.
    cursor: usize,
    rng: StdRng,
    deleted: Option<(NodeId, NodeId)>,
    committed: Vec<GraphUpdate>,
    mirror: Option<GraphStore>,
}

impl Writes {
    fn new(graph: &CsrGraph, seed: u64, traced: bool) -> Writes {
        let mut pool_rng = StdRng::seed_from_u64(WRITE_POOL_SEED);
        let targets = shuffled_sources(graph, &mut pool_rng);
        let pool = targets
            .into_iter()
            .take(WRITE_POOL)
            .map(|v| {
                let sources = graph.in_neighbors(v);
                (sources[pool_rng.gen_range(0..sources.len())], v)
            })
            .collect();
        Writes {
            pool,
            cursor: WRITE_POOL,
            rng: StdRng::seed_from_u64(seed),
            deleted: None,
            committed: Vec::new(),
            mirror: traced.then(|| GraphStore::from_csr(graph.clone())),
        }
    }

    fn next_update(&mut self) -> GraphUpdate {
        match self.deleted.take() {
            Some((u, v)) => GraphUpdate::Insert { u, v },
            None => {
                if self.cursor == self.pool.len() {
                    shuffle(&mut self.pool, &mut self.rng);
                    self.cursor = 0;
                }
                let (u, v) = self.pool[self.cursor];
                self.cursor += 1;
                self.deleted = Some((u, v));
                GraphUpdate::Remove { u, v }
            }
        }
    }
}

/// A seeded reservoir sample of fixed size.
struct Reservoir<T> {
    items: Vec<T>,
    seen: u64,
    rng: StdRng,
}

impl<T> Reservoir<T> {
    fn new(seed: u64) -> Reservoir<T> {
        Reservoir {
            items: Vec::new(),
            seen: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn offer(&mut self, item: T) {
        self.seen += 1;
        if self.items.len() < CHECKED_PER_KIND {
            self.items.push(item);
        } else {
            let slot = self.rng.gen_range(0..self.seen) as usize;
            if slot < CHECKED_PER_KIND {
                self.items[slot] = item;
            }
        }
    }
}

struct ReadRecord {
    latency: Duration,
    queue_wait: Duration,
    exec_time: Duration,
    cache_hit: bool,
    stats: QueryStats,
}

/// Everything one load thread observed; merged after the window.
struct Log {
    reads: Vec<ReadRecord>,
    commits: Vec<Duration>,
    fresh_reads: Vec<Duration>,
    misses: Reservoir<Response>,
    hits: Reservoir<Response>,
    fresh: Reservoir<Response>,
    /// Traced runs only: misses seen, and `(walk + trie time, execution
    /// time)` of every `WALK_TRIE_STRIDE`-th.
    misses_seen: u64,
    walk_trie: Vec<(Duration, Duration)>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    // Traced runs only.
    queue_depth_max: u64,
    mirror_apply: Vec<Duration>,
    mirror_snapshot: Vec<Duration>,
    replica_lag_max: u64,
}

impl Log {
    fn new(seed: u64) -> Log {
        Log {
            reads: Vec::new(),
            commits: Vec::new(),
            fresh_reads: Vec::new(),
            misses: Reservoir::new(seed ^ 1),
            hits: Reservoir::new(seed ^ 2),
            fresh: Reservoir::new(seed ^ 3),
            misses_seen: 0,
            walk_trie: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            queue_depth_max: 0,
            mirror_apply: Vec::new(),
            mirror_snapshot: Vec::new(),
            replica_lag_max: 0,
        }
    }

    fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(error);
        }
    }

    fn merge(&mut self, other: Log) {
        self.reads.extend(other.reads);
        self.commits.extend(other.commits);
        self.fresh_reads.extend(other.fresh_reads);
        self.misses.items.extend(other.misses.items);
        self.hits.items.extend(other.hits.items);
        self.fresh.items.extend(other.fresh.items);
        self.walk_trie.extend(other.walk_trie);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.queue_depth_max = self.queue_depth_max.max(other.queue_depth_max);
        self.mirror_apply.extend(other.mirror_apply);
        self.mirror_snapshot.extend(other.mirror_snapshot);
        self.replica_lag_max = self.replica_lag_max.max(other.replica_lag_max);
    }
}

/// Shared, read-only state of the timed window.
struct Ctx<'a> {
    serving: &'a Serving,
    config: &'a ProbeSimConfig,
    tracer: Option<&'a Tracer>,
    requests: AtomicU64,
}

impl Ctx<'_> {
    fn next_request(&self) -> u64 {
        self.requests.fetch_add(1, Ordering::Relaxed)
    }

    /// One read: submit, wait for the answer, and (traced) record the
    /// call's span plus the queue and execution spans the response
    /// reports.
    fn read(
        &self,
        query: Query,
        consistency: Consistency,
        request: u64,
        parent: Option<u64>,
        spans: &mut Option<SpanBuf<'_>>,
        log: &mut Log,
    ) -> (Result<Response, String>, Instant) {
        if spans.is_some() {
            log.queue_depth_max = log.queue_depth_max.max(self.serving.queue_depth());
        }
        log.attempted += 1;
        let start = Instant::now();
        let result = self
            .serving
            .call(Request::new(query).with_consistency(consistency));
        let end = Instant::now();
        if let (Some(buf), Ok(response)) = (spans.as_mut(), &result) {
            let call = buf.record(self.serving.call_span(), parent, request, start, end);
            let queued = start + response.queue_wait;
            buf.record("service.queue_wait", Some(call), request, start, queued);
            let exec = if response.cache_hit {
                "service.cache_hit"
            } else {
                "core.query"
            };
            buf.record(
                exec,
                Some(call),
                request,
                queued,
                queued + response.exec_time,
            );
        }
        (result, end)
    }

    /// A timed read of the workload's read stream.
    fn timed_read(&self, query: Query, spans: &mut Option<SpanBuf<'_>>, log: &mut Log) {
        let request = self.next_request();
        let start = Instant::now();
        match self.read(query, Consistency::Latest, request, None, spans, log) {
            (Ok(response), end) => {
                log.reads.push(ReadRecord {
                    latency: end - start,
                    queue_wait: response.queue_wait,
                    exec_time: response.exec_time,
                    cache_hit: response.cache_hit,
                    stats: response.output.stats,
                });
                if response.cache_hit {
                    log.hits.offer(response);
                } else {
                    if spans.is_some() {
                        self.time_walk_trie(query.node(), &response, request, log);
                    }
                    log.misses.offer(response);
                }
            }
            (Err(error), _) => log.fail(format!("read {query:?}: {error}")),
        }
    }

    /// Times walk sampling + trie build for every `WALK_TRIE_STRIDE`-th
    /// miss, on the snapshot the miss ran on. No commit overlaps a timed
    /// read (`cold_static` makes none in its window, and the churn
    /// reader waits for each commit), so that is the latest snapshot;
    /// the version check guards it.
    fn time_walk_trie(&self, source: NodeId, miss: &Response, request: u64, log: &mut Log) {
        log.misses_seen += 1;
        if !log.misses_seen.is_multiple_of(WALK_TRIE_STRIDE) {
            return;
        }
        let snapshot = self.serving.snapshot();
        if snapshot.version() == miss.version {
            let time = walk_trie_time(&snapshot, source, self.config, request);
            log.walk_trie.push((time, miss.exec_time));
        }
    }

    /// One commit of the next update, chased by a read-your-writes
    /// `TopK` on the edge's target. `committed` runs as soon as the
    /// commit returns. The update is drawn and committed under the
    /// writer lock, so concurrent writers commit in stream order; in a
    /// traced run the same lock covers feeding the mirror store, and the
    /// commit is handed to the catch-up watcher.
    fn write(
        &self,
        writes: &Mutex<Writes>,
        committed: &dyn Fn(),
        spans: &mut Option<SpanBuf<'_>>,
        catch_up: Option<&mpsc::Sender<CatchUp>>,
        log: &mut Log,
    ) {
        let request = self.next_request();
        let step = self.tracer.map(Tracer::reserve_id);
        log.attempted += 1;
        let (update, commit, start, returned) = {
            let mut w = writes.lock().expect("writer lock poisoned");
            let update = w.next_update();
            let start = Instant::now();
            let commit = self.serving.commit(update);
            let returned = Instant::now();
            committed();
            if commit.was_effective() {
                w.committed.push(update);
            }
            if let (Some(store), Some(buf)) = (w.mirror.as_mut(), spans.as_mut()) {
                let applied_at = Instant::now();
                store.commit(update);
                let snapshot_at = Instant::now();
                let snapshot = store.snapshot();
                let done = Instant::now();
                drop(snapshot);
                buf.record("graph.commit", step, request, applied_at, snapshot_at);
                buf.record("graph.snapshot", step, request, snapshot_at, done);
                log.mirror_apply.push(snapshot_at - applied_at);
                log.mirror_snapshot.push(done - snapshot_at);
            }
            (update, commit, start, returned)
        };
        if !commit.was_effective() {
            log.fail(format!("commit {update:?} was a no-op"));
            return;
        }
        log.commits.push(returned - start);
        if let Some(buf) = spans.as_mut() {
            buf.record(self.serving.commit_span(), step, request, start, returned);
            if let Some(fleet) = self.serving.fleet() {
                let oldest = fleet
                    .status()
                    .iter()
                    .map(|s| s.applied_version)
                    .min()
                    .unwrap_or(commit.version);
                log.replica_lag_max = log
                    .replica_lag_max
                    .max(commit.version.saturating_sub(oldest));
            }
        }
        if let Some(tx) = catch_up {
            // The watcher outlives every sender, so a send cannot fail
            // while the window runs.
            let _ = tx.send(CatchUp {
                version: commit.version,
                committed: returned,
                request,
                parent: step,
            });
        }
        let (_, target) = update.edge();
        let query = Query::TopK {
            node: target,
            k: TOP_K,
        };
        let floor = Consistency::AtLeastVersion(commit.version);
        match self.read(query, floor, request, step, spans, log) {
            (Ok(response), end) => {
                if response.version < commit.version {
                    log.fail(format!(
                        "fresh read answered at version {} below its token {}",
                        response.version, commit.version
                    ));
                } else {
                    log.fresh_reads.push(end - start);
                    log.fresh.offer(response);
                }
                if let (Some(buf), Some(step)) = (spans.as_mut(), step) {
                    buf.record_as(step, "bench.write", None, request, start, end);
                }
            }
            (Err(error), _) => log.fail(format!("fresh read {query:?}: {error}")),
        }
    }
}

/// A commit whose replication the watcher times.
struct CatchUp {
    version: u64,
    committed: Instant,
    request: u64,
    parent: Option<u64>,
}

/// Blocks on each commit until every replica reports it applied, and
/// returns how long after the commit returned that happened.
fn watch_catch_up(
    fleet: &Fleet,
    tracer: &Tracer,
    commits: mpsc::Receiver<CatchUp>,
    log: &mut Log,
) -> Vec<Duration> {
    let mut spans = tracer.buffer();
    let mut times = Vec::new();
    for c in commits {
        let caught_up = fleet.wait_for_replication(c.version, CATCH_UP_TIMEOUT)
            && fleet
                .status()
                .iter()
                .all(|s| s.applied_version >= c.version);
        let at = Instant::now();
        if caught_up {
            times.push(at.saturating_duration_since(c.committed));
            spans.record("fleet.catch_up", c.parent, c.request, c.committed, at);
        } else {
            log.fail(format!("replicas did not apply version {}", c.version));
        }
    }
    times
}

/// The handshake between the reader and the writer it paces: after
/// every `READS_PER_COMMIT` completed reads the writer commits, and the
/// reader waits for that commit before its next read. Every epoch of
/// reads therefore sees one version, so the cache hits and misses of a
/// seed repeat from run to run.
#[derive(Default)]
struct Pace {
    state: Mutex<PaceState>,
    cv: Condvar,
}

#[derive(Default)]
struct PaceState {
    reads: u64,
    commits: u64,
    stopped: bool,
}

impl Pace {
    /// Reader: counts a completed read; at the end of an epoch, blocks
    /// until the writer has committed.
    fn read_done(&self) {
        let mut state = self.state.lock().expect("pace poisoned");
        state.reads += 1;
        if state.reads.is_multiple_of(READS_PER_COMMIT) {
            self.cv.notify_all();
            let epoch = state.reads / READS_PER_COMMIT;
            while state.commits < epoch {
                state = self.cv.wait(state).expect("pace poisoned");
            }
        }
    }

    /// Reader: the window is over.
    fn stop(&self) {
        self.state.lock().expect("pace poisoned").stopped = true;
        self.cv.notify_all();
    }

    /// Writer: blocks until the reader finished the epoch after
    /// `commits`; false once the reader stopped.
    fn next_epoch(&self, commits: u64) -> bool {
        let mut state = self.state.lock().expect("pace poisoned");
        while state.reads < READS_PER_COMMIT * (commits + 1) && !state.stopped {
            state = self.cv.wait(state).expect("pace poisoned");
        }
        !state.stopped
    }

    /// Writer: the epoch's commit returned.
    fn committed(&self) {
        self.state.lock().expect("pace poisoned").commits += 1;
        self.cv.notify_all();
    }
}

/// Time to sample `num_walks(n)` √c-walks from `u` under the engine's
/// walk cap and insert them into a [`WalkTrie`]: the engine's stage
/// before the sweep, run from outside. Like the engine, it reuses one
/// walk buffer.
fn walk_trie_time(
    snapshot: &GraphSnapshot,
    u: NodeId,
    config: &ProbeSimConfig,
    seed: u64,
) -> Duration {
    let walks = config.num_walks(snapshot.num_nodes());
    let cap = config.budget().walk_cap;
    let sqrt_c = config.sqrt_decay();
    let mut rng = StdRng::seed_from_u64(seed);
    let start = Instant::now();
    let mut trie = WalkTrie::new(u);
    let mut buf = Vec::with_capacity(8);
    for _ in 0..walks {
        buf.clear();
        buf.push(u);
        walk::extend_walk(snapshot, &mut buf, sqrt_c, cap, &mut rng);
        trie.insert(&buf);
    }
    std::hint::black_box(&trie);
    start.elapsed()
}

/// Runs `client` on two load threads, each with its own log and span
/// buffer, and merges their logs into `log`.
fn on_clients<F>(ctx: &Ctx<'_>, rng: &mut StdRng, log: &mut Log, client: F)
where
    F: Fn(&mut Option<SpanBuf<'_>>, &mut Log) + Sync,
{
    let seeds: [u64; 2] = [rng.gen(), rng.gen()];
    let logs: Vec<Log> = std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                let client = &client;
                scope.spawn(move || {
                    let mut log = Log::new(seed);
                    let mut spans = ctx.tracer.map(Tracer::buffer);
                    client(&mut spans, &mut log);
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    for l in logs {
        log.merge(l);
    }
}

/// Runs one workload end to end.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let config = ProbeSimConfig::new(DECAY, EPSILON, DELTA).with_seed(ENGINE_SEED);
    let mut setup_times = Vec::new();
    let mut generate_times = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous instance first so set-ups never overlap.
        drop(setup.take());
        let s = set_up(args.workload, &config)?;
        setup_times.push(secs(s.total));
        generate_times.push(secs(s.generate));
        setup = Some(s);
    }
    let Setup { graph, serving, .. } = setup.expect("invariant: SETUP_REPEATS > 0");

    let tracer = args.trace.then(Tracer::new);
    let ctx = Ctx {
        serving: &serving,
        config: &config,
        tracer: tracer.as_ref(),
        requests: AtomicU64::new(1),
    };
    let mut rng = StdRng::seed_from_u64(args.seed);
    let writes = Mutex::new(Writes::new(&graph, rng.gen(), args.trace));
    let (hits_before, misses_before) = serving.cache_counts();
    let mut log = Log::new(rng.gen());
    let mut catch_up = Vec::new();

    let window_start = Instant::now();
    let deadline = window_start + Duration::from_secs_f64(args.seconds);
    match args.workload {
        Workload::ColdStatic => {
            let sources = shuffled_sources(&graph, &mut rng);
            let cursor = AtomicUsize::new(0);
            on_clients(&ctx, &mut rng, &mut log, |spans, log| {
                while Instant::now() < deadline {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&node) = sources.get(i) else { break };
                    ctx.timed_read(Query::SingleSource { node }, spans, log);
                }
            });
        }
        Workload::HotChurn | Workload::FleetChurn => {
            // Like the graph, the hot set is part of the workload, not of
            // the seed: which 256 sources are hot sets most of the read
            // cost, and a seed-drawn set moved p50 and p99 by 15-50%
            // between seeds. The seed draws the Zipf sequence instead.
            let hot: Vec<NodeId> =
                shuffled_sources(&graph, &mut StdRng::seed_from_u64(HOT_SET_SEED))
                    .into_iter()
                    .take(HOT_SET)
                    .collect();
            let zipf = ZipfRanks::new(hot.len());
            let pace = Pace::default();
            let (reader_seed, writer_seed) = (rng.gen::<u64>(), rng.gen::<u64>());
            let watch = match (tracer.as_ref(), serving.fleet()) {
                (Some(tracer), Some(fleet)) => Some((tracer, fleet)),
                _ => None,
            };
            let (tx, rx) = mpsc::channel();
            let tx = watch.is_some().then_some(tx);
            let (reader, writer, watcher) = std::thread::scope(|scope| {
                let (ctx, pace, writes) = (&ctx, &pace, &writes);
                let reader = scope.spawn(|| {
                    let mut log = Log::new(reader_seed);
                    let mut spans = ctx.tracer.map(Tracer::buffer);
                    let mut draws = StdRng::seed_from_u64(reader_seed);
                    while Instant::now() < deadline {
                        let node = hot[zipf.rank(draws.gen::<f64>())];
                        ctx.timed_read(Query::TopK { node, k: TOP_K }, &mut spans, &mut log);
                        pace.read_done();
                    }
                    pace.stop();
                    log
                });
                let writer = scope.spawn(move || {
                    let mut log = Log::new(writer_seed);
                    let mut spans = ctx.tracer.map(Tracer::buffer);
                    let mut commits = 0;
                    while pace.next_epoch(commits) {
                        let committed = || pace.committed();
                        ctx.write(writes, &committed, &mut spans, tx.as_ref(), &mut log);
                        commits += 1;
                    }
                    log
                });
                let watcher = watch.map(|(tracer, fleet)| {
                    scope.spawn(move || {
                        let mut log = Log::new(0);
                        let times = watch_catch_up(fleet, tracer, rx, &mut log);
                        (times, log)
                    })
                });
                (
                    reader.join().expect("reader thread panicked"),
                    writer.join().expect("writer thread panicked"),
                    watcher.map(|w| w.join().expect("catch-up watcher panicked")),
                )
            });
            log.merge(reader);
            log.merge(writer);
            if let Some((times, watcher_log)) = watcher {
                catch_up = times;
                log.merge(watcher_log);
            }
        }
    }
    let window = window_start.elapsed();
    let (hits_after, misses_after) = serving.cache_counts();

    if args.workload == Workload::ColdStatic {
        let remaining = AtomicUsize::new(IDLE_WRITES);
        on_clients(&ctx, &mut rng, &mut log, |spans, log| {
            while remaining
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok()
            {
                ctx.write(&writes, &|| {}, spans, None, log);
            }
        });
    }
    let Writes {
        committed: updates,
        mirror,
        ..
    } = writes.into_inner().expect("writer lock poisoned");

    // Correctness check on the mirror snapshots the answers name.
    let mut answers: Vec<Response> = Vec::new();
    answers.extend(log.misses.items.iter().cloned());
    answers.extend(log.hits.items.iter().cloned());
    answers.extend(log.fresh.items.iter().cloned());
    let versions: BTreeSet<u64> = answers.iter().map(|r| r.version).collect();
    let snapshots = check::snapshots_at(&graph, &updates, &versions);
    let checked = check::check_answers(&answers, &snapshots, DECAY, EPSILON, args.seed);
    log.failed += checked.failed;

    let mut report = Report::default();
    let latencies: Vec<f64> = log.reads.iter().map(|r| secs(r.latency)).collect();
    report.quantile("query_p50_ms", &latencies, 0.5, 1e3, "ms");
    report.quantile("query_p99_ms", &latencies, 0.99, 1e3, "ms");
    report.push(
        "query_qps",
        log.reads.len() as f64 / secs(window),
        "1/s",
        log.reads.len(),
    );
    let commits: Vec<f64> = log.commits.iter().copied().map(secs).collect();
    report.quantile("commit_p50_us", &commits, 0.5, 1e6, "us");
    let fresh: Vec<f64> = log.fresh_reads.iter().copied().map(secs).collect();
    report.quantile("fresh_read_p50_ms", &fresh, 0.5, 1e3, "ms");
    report.quantile("fresh_read_p99_ms", &fresh, 0.99, 1e3, "ms");
    report.push(
        "setup_s",
        quantile(&setup_times, 0.5),
        "s",
        setup_times.len(),
    );

    let mut notes = vec![
        format!(
            "workload {} seed {} traced {} window {:.3}s reads {} commits {}",
            args.workload.name(),
            args.seed,
            args.trace,
            secs(window),
            log.reads.len(),
            log.commits.len()
        ),
        format!(
            "check: {} answers, {} pairs, max |error| {:.4}, {} out of bounds",
            checked.answers, checked.pairs, checked.abs_error_max, checked.failed
        ),
    ];
    notes.extend(log.errors.iter().map(|e| format!("error: {e}")));

    if let Some(tracer) = tracer.as_ref() {
        let layer = LayerInputs {
            log: &log,
            mirror: mirror.as_ref(),
            serving: &serving,
            catch_up: &catch_up,
            cache_hits: hits_after - hits_before,
            cache_misses: misses_after - misses_before,
            abs_error_max: checked.abs_error_max,
            generate_s: quantile(&generate_times, 0.5),
        };
        layer_metrics(&mut report, &layer);
        let walk: Duration = log.walk_trie.iter().map(|&(walk, _)| walk).sum();
        let exec: Duration = log.walk_trie.iter().map(|&(_, exec)| exec).sum();
        notes.push(format!(
            "walk + trie share of sampled miss execution: {:.1}% over {} misses",
            100.0 * secs(walk) / secs(exec).max(f64::MIN_POSITIVE),
            log.walk_trie.len()
        ));
        let spans = tracer.spans();
        let path = std::path::PathBuf::from(format!(
            ".perfbench_out/spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        trace::write_jsonl(&path, &spans)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        ));
        notes.push("self time by span (median us, total ms, count):".to_string());
        for (name, times) in trace::self_times(&spans) {
            let us: Vec<f64> = times.iter().map(|&ns| ns as f64 / 1e3).collect();
            notes.push(format!(
                "  {:<20} {:>10.1} {:>10.1} {:>7}",
                name,
                quantile(&us, 0.5),
                us.iter().sum::<f64>() / 1e3,
                us.len()
            ));
        }
    }

    // Read last, so everything the run allocated counts.
    report.push(
        "peak_rss_mb",
        crate::report::peak_rss_mb().unwrap_or(0.0),
        "MB",
        1,
    );
    Ok(Outcome {
        report,
        attempted: log.attempted,
        failed: log.failed,
        notes,
    })
}

struct LayerInputs<'a> {
    log: &'a Log,
    mirror: Option<&'a GraphStore>,
    serving: &'a Serving,
    catch_up: &'a [Duration],
    cache_hits: u64,
    cache_misses: u64,
    abs_error_max: f64,
    generate_s: f64,
}

/// The per-layer metrics of a traced run.
fn layer_metrics(report: &mut Report, l: &LayerInputs<'_>) {
    let log = l.log;
    let apply: Vec<f64> = log.mirror_apply.iter().copied().map(secs).collect();
    let snapshot: Vec<f64> = log.mirror_snapshot.iter().copied().map(secs).collect();
    report.quantile("graph.apply_us", &apply, 0.5, 1e6, "us");
    report.quantile("graph.apply_p99_us", &apply, 0.99, 1e6, "us");
    report.quantile("graph.snapshot_us", &snapshot, 0.5, 1e6, "us");
    let end_samples = usize::from(!apply.is_empty());
    let (compactions, touched) = l.mirror.map_or((0.0, 0.0), |m| {
        (m.compactions() as f64, m.touched_fraction())
    });
    report.push("graph.compactions", compactions, "count", end_samples);
    report.push("graph.touched_fraction", touched, "ratio", end_samples);

    let walk: Vec<f64> = log.walk_trie.iter().map(|&(w, _)| secs(w)).collect();
    let sweep: Vec<f64> = log
        .walk_trie
        .iter()
        .map(|&(w, exec)| secs(exec) - secs(w))
        .collect();
    report.quantile("core.walk_trie_ms", &walk, 0.5, 1e3, "ms");
    report.quantile("core.sweep_ms", &sweep, 0.5, 1e3, "ms");
    let misses: Vec<&ReadRecord> = log.reads.iter().filter(|r| !r.cache_hit).collect();
    let ns_per_work: Vec<f64> = misses
        .iter()
        .filter(|r| r.stats.total_work() > 0)
        .map(|r| secs(r.exec_time) * 1e9 / r.stats.total_work() as f64)
        .collect();
    report.quantile("core.ns_per_work", &ns_per_work, 0.5, 1.0, "ns");
    let counter = |f: fn(&QueryStats) -> usize| -> Vec<f64> {
        misses.iter().map(|r| f(&r.stats) as f64).collect()
    };
    report.mean("core.walks", &counter(|s| s.walks), "count");
    report.mean("core.walk_nodes", &counter(|s| s.walk_nodes), "count");
    report.mean(
        "core.edges_expanded",
        &counter(|s| s.edges_expanded),
        "count",
    );
    report.mean("core.nodes_sampled", &counter(|s| s.nodes_sampled), "count");
    report.mean(
        "core.frontier_merges",
        &counter(|s| s.frontier_merges),
        "count",
    );
    report.mean(
        "core.levels_expanded",
        &counter(|s| s.levels_expanded),
        "count",
    );
    report.mean("core.total_work", &counter(QueryStats::total_work), "count");
    report.push("core.abs_error_max", l.abs_error_max, "score", 1);

    let queue: Vec<f64> = log.reads.iter().map(|r| secs(r.queue_wait)).collect();
    report.quantile("service.queue_wait_ms", &queue, 0.5, 1e3, "ms");
    report.quantile("service.queue_wait_p99_ms", &queue, 0.99, 1e3, "ms");
    report.push(
        "service.queue_depth_max",
        log.queue_depth_max as f64,
        "count",
        queue.len(),
    );
    let lookups = l.cache_hits + l.cache_misses;
    report.push(
        "service.hit_rate",
        l.cache_hits as f64 / lookups.max(1) as f64,
        "ratio",
        lookups as usize,
    );
    let hit_exec: Vec<f64> = log
        .reads
        .iter()
        .filter(|r| r.cache_hit)
        .map(|r| secs(r.exec_time))
        .collect();
    report.quantile("service.hit_us", &hit_exec, 0.5, 1e6, "us");
    let commits: Vec<f64> = log.commits.iter().copied().map(secs).collect();
    let (service_commits, fleet_commits): (&[f64], &[f64]) = match l.serving.fleet() {
        None => (&commits, &[]),
        Some(_) => (&[], &commits),
    };
    report.quantile("service.commit_us", service_commits, 0.5, 1e6, "us");

    report.quantile("fleet.commit_us", fleet_commits, 0.5, 1e6, "us");
    let catch_up: Vec<f64> = l.catch_up.iter().copied().map(secs).collect();
    report.quantile("fleet.catch_up_ms", &catch_up, 0.5, 1e3, "ms");
    report.quantile("fleet.catch_up_p99_ms", &catch_up, 0.99, 1e3, "ms");
    let (lag, restarts, failovers, fleet_samples) = match l.serving.fleet() {
        Some(fleet) => (
            log.replica_lag_max as f64,
            fleet.registry().total_restarts() as f64,
            fleet.failovers() as f64,
            1,
        ),
        None => (0.0, 0.0, 0.0, 0),
    };
    report.push(
        "fleet.replica_lag_max",
        lag,
        "versions",
        fleet_commits.len(),
    );
    report.push("fleet.restarts", restarts, "count", fleet_samples);
    report.push("fleet.failovers", failovers, "count", fleet_samples);

    report.push("datasets.generate_s", l.generate_s, "s", SETUP_REPEATS);
}
