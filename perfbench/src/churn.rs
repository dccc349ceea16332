//! `durable-churn`: a durable database where storage does most of the
//! work, larger than its chunk cache.
//!
//! Set-up: a durable database loads a cold table `C` (64 chunks of 512
//! rows) and two written tables (`W0`, `W1`, 2 048 rows each),
//! checkpoints and closes. The engine writes its files to an in-memory
//! `Vfs`, and they reach the data directory afterwards, untimed. The run
//! reopens with `Database::open_with` (fsync on, default checkpoint
//! threshold) and `memory_budget` set to a fifth of the chunk bytes on
//! disk, so `C` is more than 4× the chunk cache.
//!
//! Load: one closed-loop client. Each cycle makes 8 fsynced
//! `modify_table` commits (`insert_open` / `update` / `terminate`),
//! alternating between `W0` and `W1`, which share one WAL, then one
//! filtered scan `σ_{P < p}(C)` through the chunk cache — ongoing
//! (compile + execute), bound at a seeded reference time, and evaluated
//! in instantiated mode at that time. (Two concurrent writer threads kept
//! both cores of a two-core machine busy, and CPU steal then moved whole
//! runs by half; one client leaves a core free.)
//!
//! Recovery: the database is checkpointed and closed, then reopened five
//! times; each reopen is followed by a full first touch of every table.
//!
//! Checks: every scan against `C`'s model (tuple for tuple, and at the
//! reference time through the fixed-time oracle); every table after each
//! reopen against the models kept in step with each acknowledged commit.

use crate::layers::{self, CommitTimes, ExecTotals, IoCounters, TimingVfs};
use crate::memfs::MemFs;
use crate::model::{self, TableModel, WriteOp};
use crate::util::{ratio, timed, Fingerprint, Metrics, Ops, Rng, Samples, MS, NS, US};
use crate::{Args, Outcome};
use ongoing_core::date::date;
use ongoing_core::TimePoint;
use ongoing_engine::plan::optimizer::compile;
use ongoing_engine::{Database, DurableOptions, LogicalPlan, PlannerConfig, QueryBuilder, Vfs};
use ongoing_relation::{Expr, OngoingRelation, Tuple, TARGET_CHUNK_ROWS};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

const COLD_CHUNKS: i64 = 64;
const WRITER_ROWS: i64 = 2_048;
/// Written tables; the commits alternate between them.
const WRITTEN: usize = 2;
/// Commits between two scans of `C`.
const COMMITS_PER_SCAN: usize = 8;
/// Set-ups per run; the set-up is short, so its median takes more samples.
const SETUPS: usize = 15;
const REOPENS: usize = 5;
/// Scan cases, taken in turn. Their thresholds lie close together, so the
/// cases cost about the same and the 90th percentile is taken over every
/// scan rather than over the costliest case alone.
const SCAN_CASES: usize = 5;

/// Where the database lives: inside the working directory, removed at the
/// end of the run.
fn data_dir() -> PathBuf {
    PathBuf::from("perfbench")
        .join(".data")
        .join(format!("churn-{}", std::process::id()))
}

fn options(memory_budget: u64) -> DurableOptions {
    DurableOptions {
        fsync: true,
        memory_budget,
        ..DurableOptions::default()
    }
}

fn open(dir: &Path, budget: u64, io: Option<&Arc<IoCounters>>) -> Database {
    match io {
        Some(io) => {
            let vfs: Arc<dyn Vfs> = Arc::new(TimingVfs::new(Arc::clone(io)));
            Database::open_with_vfs(dir, options(budget), vfs)
        }
        None => Database::open_with(dir, options(budget)),
    }
    .expect("open durable database")
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

fn writer_name(i: usize) -> String {
    format!("W{i}")
}

struct Tables {
    cold: Vec<Tuple>,
    writers: Vec<Vec<Tuple>>,
}

fn generate(seed: u64) -> Tables {
    let mut rng = Rng::new(seed);
    let span = (date(2009, 1, 1), date(2019, 1, 1));
    let cold_rows = COLD_CHUNKS * TARGET_CHUNK_ROWS as i64;
    let cold = model::generate(&mut rng, cold_rows / 4, 4, span, 5);
    let writers = (0..WRITTEN)
        .map(|_| model::generate(&mut rng, WRITER_ROWS / 4, 4, span, 5))
        .collect();
    Tables { cold, writers }
}

/// Creates, bulk-loads and checkpoints the database on an in-memory
/// `Vfs`, then closes it. Written to disk, set-up time followed the
/// virtual disk's write-back: ten seeds spread by 0.3–0.7 with or without
/// fsync. Every commit of the measured phase fsyncs to the real disk.
fn setup(dir: &Path, seed: u64) -> (Tables, Arc<MemFs>) {
    let tables = generate(seed);
    let fs = Arc::new(MemFs::default());
    let vfs: Arc<dyn Vfs> = fs.clone();
    let db = Database::open_with_vfs(dir, options(u64::MAX), vfs).expect("open durable database");
    let rel = |rows: &[Tuple]| OngoingRelation::from_tuples(model::schema(), rows.to_vec());
    db.create_table("C", rel(&tables.cold).expect("schema"))
        .expect("fresh table");
    for (i, rows) in tables.writers.iter().enumerate() {
        db.create_table(&writer_name(i), rel(rows).expect("schema"))
            .expect("fresh table");
    }
    db.persist().expect("checkpoint");
    drop(db);
    (tables, fs)
}

/// `σ_{P < p_below}(C)`: the filter evaluates every tuple, so the whole
/// cold table streams through the chunk cache.
fn scan_plan(db: &Database, p_below: i64) -> LogicalPlan {
    QueryBuilder::scan(db, "C")
        .and_then(|q| q.filter(|s| Ok(Expr::col(s, "P")?.lt(Expr::lit(p_below)))))
        .expect("table C")
        .build()
}

/// One scan of `C` and its expected answers from the model.
struct ColdCase {
    p_below: i64,
    rt: TimePoint,
    /// The ongoing result, tuple for tuple.
    tuples: Fingerprint,
    /// The result at `rt`.
    at_rt: Fingerprint,
}

pub fn run(args: &Args) -> Outcome {
    let dir = data_dir();
    let mut setup_s = Samples::default();
    let mut set_up = None;
    for _ in 0..SETUPS {
        drop(set_up.take());
        let (t, d) = timed(|| setup(&dir, args.seed));
        setup_s.push(d.as_secs_f64());
        set_up = Some(t);
    }
    let (tables, fs) = set_up.expect("set up");
    let _ = std::fs::remove_dir_all(&dir);
    fs.save().expect("write the set-up files");
    drop(fs);
    let budget = dir_bytes(&dir.join(ongoing_engine::storage::durable::CHUNKS_DIR)) / 5;

    let cold_model = TableModel::from_tuples(&tables.cold);
    let mut rng = Rng::new(args.seed ^ 0xC01D);
    // Thresholds and reference times are stratified over their ranges and
    // only jittered by the seed, so every seed scans the same mix of
    // result sizes.
    let (first, last) = (date(2009, 1, 1).ticks(), date(2020, 1, 1).ticks());
    let cold: Vec<ColdCase> = (0..SCAN_CASES as i64)
        .map(|i| {
            let p_below = 450 + 100 * i / SCAN_CASES as i64 + rng.range(0, 10);
            let stride = (last - first) / SCAN_CASES as i64;
            let rt = TimePoint::new(first + stride * i + rng.range(0, stride));
            ColdCase {
                p_below,
                rt,
                tuples: Fingerprint::of_tuples(
                    cold_model.tuples().filter(|t| model::payload(t) < p_below),
                ),
                at_rt: cold_model.select_at(rt, |r| model::int(r, 1) < p_below),
            }
        })
        .collect();
    let mut models: Vec<TableModel> = tables.writers.iter().map(TableModel::from_tuples).collect();
    drop(tables);

    let io = args.trace.then(|| Arc::new(IoCounters::default()));
    let db = open(&dir, budget, io.as_ref());
    // Materialize the catalog entries (cold: no tuples are read) so the
    // measured loop starts from an opened database.
    for name in ["C", "W0", "W1"] {
        db.table(name).expect("recovered table");
    }
    if let Some(io) = &io {
        io.reset();
    }
    let metrics_before = db.metrics_snapshot();

    // The closed loop: commits alternate between the written tables, then
    // one scan of `C`.
    let mut ops = Ops::default();
    let mut commits = CommitTimes::default();
    let (mut scan_ms, mut fixed_ms, mut bind_ms, mut compile_us) = (
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
    );
    let mut exec = ExecTotals::default();
    let (mut bound_tuples, mut user_bytes_written, mut busy_s) = (0u64, 0u64, 0.0);
    let mut last_scan = None;
    let mut rng = Rng::new(args.seed ^ 0xA11CE);
    let names: Vec<String> = (0..models.len()).map(writer_name).collect();
    let keys = WRITER_ROWS / 4;
    let mut now = date(2018, 1, 1);
    let cfg = PlannerConfig::default();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut cycles = 0usize;
    while cycles == 0 || Instant::now() < deadline {
        cycles += 1;
        for step in 0..COMMITS_PER_SCAN {
            let (name, model) = (&names[step % names.len()], &mut models[step % names.len()]);
            let key = rng.range(0, keys);
            let payload = rng.range(0, 1000);
            let op = match rng.below(3) {
                0 => WriteOp::InsertOpen {
                    key,
                    payload,
                    start: now,
                },
                1 => WriteOp::Update {
                    key,
                    payload,
                    at: now,
                },
                _ => WriteOp::Terminate { key, at: now },
            };
            let mut closure = Duration::ZERO;
            let (r, t) = timed(|| {
                db.modify_table(name, |rel| {
                    let (r, t) = timed(|| op.apply_engine(rel));
                    closure += t;
                    r
                })
            });
            if ops.record("commit", r).is_none() {
                continue;
            }
            busy_s += t.as_secs_f64();
            commits.wall_us.push_dur(t, US);
            commits.closure_us.push_dur(closure, US);
            commits.overhead_us.push_dur(t.saturating_sub(closure), US);
            user_bytes_written += model.apply(op) as u64;
            now = TimePoint::new(now.ticks() + 1);
        }

        let case = &cold[cycles % cold.len()];
        let rt = case.rt;
        ops.attempt("query");
        let t0 = Instant::now();
        let phys = compile(&db, &scan_plan(&db, case.p_below), &cfg);
        let t_compile = t0.elapsed();
        let run = phys
            .and_then(|p| layers::execute(&p, cfg.exec_context(), args.trace.then_some(&mut exec)));
        let t = t0.elapsed();
        let rel = match run {
            Ok(rel) => {
                busy_s += t.as_secs_f64();
                scan_ms.push_dur(t, MS);
                compile_us.push_dur(t_compile, US);
                rel
            }
            Err(e) => {
                ops.fail("query", e);
                continue;
            }
        };
        if Fingerprint::of_tuples(rel.iter()) != case.tuples {
            ops.mismatch(format!("scan of C below {}", case.p_below));
        }

        ops.attempt("instantiate");
        let (bound, t) = timed(|| rel.bind(rt));
        busy_s += t.as_secs_f64();
        bind_ms.push_dur(t, MS);
        bound_tuples += rel.len() as u64;
        if Fingerprint::of_rows(bound.rows()) != case.at_rt {
            ops.mismatch(format!("scan of C bound at {rt:?}"));
        }

        ops.attempt("fixed_query");
        let (fixed, t) = timed(|| {
            compile(&db, &scan_plan(&db, case.p_below), &cfg)
                .and_then(|p| p.execute_at_with_stats(rt, &cfg.exec_context()))
        });
        match fixed {
            Ok((f, stats)) => {
                busy_s += t.as_secs_f64();
                fixed_ms.push_dur(t, MS);
                exec.add_fixed(&stats);
                if Fingerprint::of_rows(f.rows()) != case.at_rt {
                    ops.mismatch(format!("scan of C instantiated at {rt:?}"));
                }
            }
            Err(e) => ops.fail("fixed_query", e),
        }
        last_scan = Some(rel);
    }
    let churn_delta = db.metrics_snapshot().delta(&metrics_before);
    let write_work = db.metrics_snapshot().value("ongoingdb_store_write_work")
        - metrics_before.value("ongoingdb_store_write_work");
    let n_ops = commits.wall_us.len() + scan_ms.len() + bind_ms.len() + fixed_ms.len();
    let ops_per_s = ratio(n_ops as f64, busy_s);
    let churn_io = io.as_ref().map(|io| {
        (
            io.syncs.load(Ordering::Relaxed),
            io.chunk_reads.load(Ordering::Relaxed),
            io.bytes_written.load(Ordering::Relaxed),
            io.sync_us(),
            io.chunk_read_us(),
        )
    });

    // Final checkpoint, then space amplification over the live user data.
    ops.record("checkpoint", db.persist());
    let live_bytes =
        cold_model.user_bytes() + models.iter().map(TableModel::user_bytes).sum::<u64>();
    let space_amp = ratio(dir_bytes(&dir) as f64, live_bytes as f64);
    drop(db);

    // Recovery: reopen, touch every tuple, compare with the models.
    let (mut open_ms, mut touch_ms, mut recovery_ms, mut loaded) = (
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
    );
    let expect: Vec<(String, Fingerprint)> =
        std::iter::once(("C".to_string(), cold_model.fingerprint()))
            .chain(
                models
                    .iter()
                    .enumerate()
                    .map(|(i, m)| (writer_name(i), m.fingerprint())),
            )
            .collect();
    for _ in 0..REOPENS {
        ops.attempt("reopen");
        let t0 = Instant::now();
        let db = open(&dir, budget, io.as_ref());
        let t_open = t0.elapsed();
        let touched: usize = expect
            .iter()
            .map(|(name, _)| db.table(name).map_or(0, |t| t.data().iter().count()))
            .sum();
        let t_all = t0.elapsed();
        std::hint::black_box(touched);
        open_ms.push_dur(t_open, MS);
        touch_ms.push_dur(t_all - t_open, MS);
        recovery_ms.push_dur(t_all, MS);
        loaded.push(db.durable_stats().map_or(0, |s| s.tuples_loaded) as f64);
        for (name, want) in &expect {
            let got = db
                .table(name)
                .map(|t| Fingerprint::of_tuples(t.data().iter()));
            if got.as_ref().ok() != Some(want) {
                ops.mismatch(format!("table {name} after reopen"));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(dir.parent().expect("data root"));

    let mut e2e = Metrics::default();
    e2e.set("setup_s", setup_s.p50(), "s");
    e2e.set("ops_per_s", ops_per_s, "1/s");
    e2e.set("query_p50_ms", scan_ms.p50(), "ms");
    e2e.set("fixed_query_p50_ms", fixed_ms.p50(), "ms");
    e2e.set("instantiate_p50_ms", bind_ms.p50(), "ms");
    let n_commits = commits.wall_us.len() as f64;
    eprintln!(
        "perfbench: durable-churn {} commits, {} scans (p90 {:.3} ms), budget {budget} B",
        n_commits,
        scan_ms.len(),
        scan_ms.quantile(0.9)
    );

    let mut layers = Metrics::default();
    if args.trace {
        let scans = scan_ms.len() as f64;
        layers::report_core(&mut layers, &last_scan.iter().collect::<Vec<_>>());
        layers.set(
            "relation.bind_ns_per_tuple",
            ratio(bind_ms.sum() / MS * NS, bound_tuples as f64),
            "ns",
        );
        layers.set("plan.compile_us", compile_us.p50(), "us");
        exec.report(&mut layers);
        layers::report_rescache(
            &mut layers,
            &churn_delta,
            0,
            &Samples::default(),
            &Samples::default(),
        );
        let commits_per_s = ratio(n_commits, commits.wall_us.sum() / US);
        commits.report(&mut layers, &churn_delta, write_work, commits_per_s);
        if let Some((syncs, chunk_reads, written, sync_us, chunk_read_us)) = churn_io {
            layers.set("storage.fsync_us", sync_us.p50(), "us");
            layers.set(
                "storage.fsyncs_per_commit",
                ratio(syncs as f64, n_commits),
                "count",
            );
            layers.set(
                "storage.bytes_written_per_user_byte",
                ratio(written as f64, user_bytes_written as f64),
                "ratio",
            );
            layers.set(
                "storage.chunk_reads_per_scan",
                ratio(chunk_reads as f64, scans),
                "count",
            );
            layers.set("storage.chunk_read_us", chunk_read_us.p50(), "us");
        }
        layers.set(
            "storage.wal_bytes_per_commit",
            ratio(churn_delta.value("ongoingdb_wal_bytes") as f64, n_commits),
            "B",
        );
        layers.set(
            "storage.checkpoints",
            churn_delta.value("ongoingdb_checkpoints") as f64,
            "count",
        );
        let (hits, misses) = (
            churn_delta.value("ongoingdb_cache_hits") as f64,
            churn_delta.value("ongoingdb_cache_misses") as f64,
        );
        layers.set(
            "storage.chunk_cache_hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
        );
        layers.set("storage.open_ms", open_ms.p50(), "ms");
        layers.set("storage.first_touch_ms", touch_ms.p50(), "ms");
        layers.set("storage.tuples_loaded", loaded.p50(), "count");
        layers.set("storage.recovery_ms", recovery_ms.p50(), "ms");
        layers.set("storage.space_amp", space_amp, "ratio");
    }
    Outcome { ops, e2e, layers }
}
