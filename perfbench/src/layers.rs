//! Per-layer measurement from outside the engine, used only by traced
//! runs: per-operator self time from `ExecContext::with_trace` spans,
//! `ExecStats` counts, worker-pool and metrics-registry deltas, timed
//! `IntervalSet` operations, and a timing `Vfs` wrapped around `RealFs`.

use crate::util::{ratio, Metrics, Samples, NS, US};
use ongoing_core::IntervalSet;
use ongoing_engine::obs::MetricsSnapshot;
use ongoing_engine::{
    ExecContext, ExecStats, PhysicalPlan, RealFs, SpanNode, TraceCollector, Vfs, WorkerPool,
};
use ongoing_relation::OngoingRelation;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The physical operators whose self time is reported.
pub const OPERATORS: [&str; 9] = [
    "seqscan",
    "indexscan",
    "keyscan",
    "filter",
    "project",
    "hashjoin",
    "sweepjoin",
    "nestedloopjoin",
    "aggregate",
];

/// Executor-side totals over the traced queries of a run.
#[derive(Debug, Default)]
pub struct ExecTotals {
    self_ns: BTreeMap<String, u64>,
    stats: ExecStats,
    fixed_pairs: u64,
    results: u64,
    queries: u64,
    fixed_queries: u64,
}

impl ExecTotals {
    /// Folds one traced ongoing execution: its span tree, work counters
    /// and result size.
    pub fn add_query(&mut self, roots: &[SpanNode], stats: &ExecStats, result_len: usize) {
        fn walk(span: &SpanNode, out: &mut BTreeMap<String, u64>) {
            let children: u64 = span.children.iter().map(|c| c.wall_ns).sum();
            let op: String = span
                .label
                .chars()
                .take_while(char::is_ascii_alphabetic)
                .collect::<String>()
                .to_ascii_lowercase();
            *out.entry(op).or_default() += span.wall_ns.saturating_sub(children);
            for c in &span.children {
                walk(c, out);
            }
        }
        for r in roots {
            walk(r, &mut self.self_ns);
        }
        self.stats.merge(stats);
        self.results += result_len as u64;
        self.queries += 1;
    }

    pub fn add_fixed(&mut self, stats: &ExecStats) {
        self.fixed_pairs += stats.pairs_compared;
        self.fixed_queries += 1;
    }

    pub fn report(&self, m: &mut Metrics) {
        let q = self.queries as f64;
        for op in OPERATORS {
            let ns = self.self_ns.get(op).copied().unwrap_or(0) as f64;
            m.set(&format!("exec.{op}.self_ms"), ratio(ns / 1e6, q), "ms");
        }
        let s = &self.stats;
        for (name, v) in [
            ("exec.tuples_scanned", s.tuples_scanned),
            ("exec.tuples_filtered", s.tuples_filtered),
            ("exec.pairs_compared", s.pairs_compared),
            ("exec.index_candidates", s.index_candidates),
            ("exec.intervals_merged", s.intervals_merged),
        ] {
            m.set(name, ratio(v as f64, q), "count");
        }
        m.set(
            "exec.results_per_pair",
            ratio(self.results as f64, s.pairs_compared as f64),
            "ratio",
        );
        m.set(
            "exec.fixed_pairs_compared",
            ratio(self.fixed_pairs as f64, self.fixed_queries as f64),
            "count",
        );
    }
}

/// Executes `phys` in ongoing mode. With `totals` the execution is traced
/// and its spans and counters are folded into them.
pub fn execute(
    phys: &PhysicalPlan,
    ctx: ExecContext,
    totals: Option<&mut ExecTotals>,
) -> ongoing_engine::Result<OngoingRelation> {
    let Some(totals) = totals else {
        return phys.execute_ctx(&ctx);
    };
    let tc = Arc::new(TraceCollector::new());
    let (rel, stats) = phys.execute_with_stats(&ctx.with_trace(Arc::clone(&tc)))?;
    totals.add_query(&tc.finish(), &stats, rel.len());
    Ok(rel)
}

/// The process-wide worker pool's metrics (empty before its first use).
pub fn pool_snapshot() -> MetricsSnapshot {
    WorkerPool::global_peek()
        .map(|p| p.metrics_snapshot())
        .unwrap_or_default()
}

/// Pool work per query over a measured interval.
pub fn report_pool(m: &mut Metrics, before: &MetricsSnapshot, queries: u64) {
    let d = pool_snapshot().delta(before);
    let q = queries as f64;
    m.set(
        "pool.tasks_executed",
        ratio(d.value("ongoingdb_pool_tasks_executed") as f64, q),
        "count",
    );
    m.set(
        "pool.tasks_stolen",
        ratio(d.value("ongoingdb_pool_tasks_stolen") as f64, q),
        "count",
    );
    let wait = d.histogram("ongoingdb_pool_admission_wait_us");
    m.set(
        "pool.admission_wait_us",
        wait.map_or(0.0, |h| ratio(h.sum as f64, h.count as f64)),
        "us",
    );
}

/// Reference-time shape and `IntervalSet` operation cost, timed on the
/// reference-time sets of result tuples.
pub fn report_core(m: &mut Metrics, results: &[&OngoingRelation]) {
    let sets: Vec<IntervalSet> = results
        .iter()
        .flat_map(|r| r.iter().take(2048).map(|t| t.rt().clone()))
        .collect();
    let ranges: usize = sets.iter().map(|s| s.ranges().len()).sum();
    m.set(
        "core.rt_ranges_per_tuple",
        ratio(ranges as f64, sets.len() as f64),
        "count",
    );
    if sets.len() < 2 {
        return;
    }
    let pairs = sets.len() - 1;
    let t0 = Instant::now();
    let mut sink = 0usize;
    for w in sets.windows(2) {
        sink += std::hint::black_box(w[0].intersect(&w[1])).ranges().len();
    }
    let inter = t0.elapsed();
    let t1 = Instant::now();
    for w in sets.windows(2) {
        sink += std::hint::black_box(w[0].union(&w[1])).ranges().len();
    }
    let union = t1.elapsed();
    std::hint::black_box(sink);
    m.set(
        "core.set_intersect_ns",
        inter.as_secs_f64() * NS / pairs as f64,
        "ns",
    );
    m.set(
        "core.set_union_ns",
        union.as_secs_f64() * NS / pairs as f64,
        "ns",
    );
}

/// Result-cache behaviour from registry deltas, with read latencies split
/// by whether the hit counter moved.
pub fn report_rescache(
    m: &mut Metrics,
    delta: &MetricsSnapshot,
    resident: u64,
    hit_us: &Samples,
    miss_us: &Samples,
) {
    let hits = delta.value("ongoingdb_result_cache_hits") as f64;
    let misses = delta.value("ongoingdb_result_cache_misses") as f64;
    m.set("rescache.hit_ratio", ratio(hits, hits + misses), "ratio");
    m.set(
        "rescache.evictions",
        delta.value("ongoingdb_result_cache_evictions") as f64,
        "count",
    );
    m.set("rescache.bytes", resident as f64, "B");
    m.set("rescache.hit_read_us", hit_us.p50(), "us");
    m.set("rescache.miss_read_us", miss_us.p50(), "us");
}

/// Commit-path figures shared by the two write workloads.
#[derive(Debug, Default)]
pub struct CommitTimes {
    pub wall_us: Samples,
    pub closure_us: Samples,
    pub overhead_us: Samples,
}

impl CommitTimes {
    /// `write_work` is the growth of the store's write-work gauge over the
    /// measured commits.
    pub fn report(
        &self,
        m: &mut Metrics,
        delta: &MetricsSnapshot,
        write_work: u64,
        commits_per_s: f64,
    ) {
        let n = self.wall_us.len() as f64;
        m.set("catalog.commit_p50_us", self.wall_us.p50(), "us");
        m.set("catalog.commits_per_s", commits_per_s, "1/s");
        m.set("catalog.commit_overhead_us", self.overhead_us.p50(), "us");
        m.set(
            "catalog.cas_conflicts",
            delta.value("ongoingdb_cas_conflicts") as f64,
            "count",
        );
        m.set("relation.modify_closure_us", self.closure_us.p50(), "us");
        m.set(
            "relation.write_work_per_commit",
            ratio(write_work as f64, n),
            "count",
        );
    }
}

/// Counters of the timing file system.
#[derive(Debug, Default)]
pub struct IoCounters {
    pub syncs: AtomicU64,
    pub chunk_reads: AtomicU64,
    pub bytes_written: AtomicU64,
    sync_us: Mutex<Samples>,
    chunk_read_us: Mutex<Samples>,
}

impl IoCounters {
    pub fn sync_us(&self) -> Samples {
        self.sync_us.lock().expect("sync sample lock").clone()
    }

    pub fn chunk_read_us(&self) -> Samples {
        self.chunk_read_us.lock().expect("read sample lock").clone()
    }

    pub fn reset(&self) {
        self.syncs.store(0, Ordering::Relaxed);
        self.chunk_reads.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        *self.sync_us.lock().expect("sync sample lock") = Samples::default();
        *self.chunk_read_us.lock().expect("read sample lock") = Samples::default();
    }
}

/// `RealFs` with every fsync and chunk read timed and written bytes
/// counted.
#[derive(Debug)]
pub struct TimingVfs {
    inner: RealFs,
    pub io: Arc<IoCounters>,
}

impl TimingVfs {
    pub fn new(io: Arc<IoCounters>) -> TimingVfs {
        TimingVfs { inner: RealFs, io }
    }

    fn timed_sync(&self, f: impl FnOnce() -> io::Result<()>) -> io::Result<()> {
        let t0 = Instant::now();
        let r = f();
        self.io.syncs.fetch_add(1, Ordering::Relaxed);
        self.io
            .sync_us
            .lock()
            .expect("sync sample lock")
            .push_dur(t0.elapsed(), US);
        r
    }
}

impl Vfs for TimingVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let chunk = path
            .parent()
            .and_then(Path::file_name)
            .is_some_and(|d| d == ongoing_engine::storage::durable::CHUNKS_DIR);
        let t0 = Instant::now();
        let r = self.inner.read(path);
        if chunk {
            self.io.chunk_reads.fetch_add(1, Ordering::Relaxed);
            self.io
                .chunk_read_us
                .lock()
                .expect("read sample lock")
                .push_dur(t0.elapsed(), US);
        }
        r
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.io
            .bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.inner.write(path, data)
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.io
            .bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.inner.append(path, data)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        self.timed_sync(|| self.inner.sync(path))
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.timed_sync(|| self.inner.sync_dir(path))
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.inner.truncate(path, len)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.list(dir)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }
}
