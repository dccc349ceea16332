//! `hot-serving`: API-style traffic through `sql` on an in-memory
//! database, from one closed-loop client.
//!
//! Table `T(K, P, VT)`: 5 000 keys × 4 versions, one key in five still
//! open, key index on `K`, statistics collected. The reused results (16
//! prepared statements and the view) fit the default 64 MiB result-cache
//! budget; one-shot results fill the rest and are evicted.
//!
//! Each round of 200 requests, in a seeded order fixed for the run:
//! 171 prepared reads (12 keyed `K = k`, 4 temporal-range `VT OVERLAPS
//! PERIOD(..)` statements — result-cache hits between commits), 16
//! one-shot ongoing SQL queries with literals never repeated (cache
//! misses: parse, plan, compile, execute), 6 one-shot queries evaluated in
//! instantiated mode, 6 materialized-view reads (`refresh`, then
//! `instantiate` at the current reference time) and 1 `modify_table`
//! commit (`insert_open` / `update` / `terminate`), which publishes a new
//! version of `T`, invalidates its cached results and advances the
//! reference time by one day.
//!
//! Every result is compared with the table model: keyed reads tuple for
//! tuple, everything else at the current reference time through the
//! fixed-time oracle.

use crate::layers::{self, CommitTimes, ExecTotals};
use crate::model::{self, int, overlaps_window, TableModel, WriteOp};
use crate::util::{ratio, timed, Fingerprint, Metrics, Ops, Rng, Samples, MS, US};
use crate::{Args, Outcome};
use ongoing_core::date::{civil_from_days, date};
use ongoing_core::TimePoint;
use ongoing_datasets::History;
use ongoing_engine::exec::rescache::RESULT_CACHE_HITS_METRIC;
use ongoing_engine::plan::optimizer::compile;
use ongoing_engine::sql::{self, Prepared};
use ongoing_engine::{Database, MaterializedView, PlannerConfig, RefreshOutcome};
use ongoing_relation::{OngoingRelation, Tuple};
use std::time::{Duration, Instant};

const KEYS: i64 = 5_000;
const PER_KEY: i64 = 4;
/// Set-ups per run; the set-up is short, so its median takes more samples.
const SETUPS: usize = 15;
const HOT_KEYS: usize = 12;
const RANGES: usize = 4;
/// The view's predicate `P < VIEW_P` keeps about a tenth of `T`.
const VIEW_P: i64 = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Req {
    Read,
    Query,
    FixedQuery,
    View,
    Commit,
}

/// The request mix of one round.
const MIX: [(Req, usize); 5] = [
    (Req::Read, 171),
    (Req::Query, 16),
    (Req::FixedQuery, 6),
    (Req::View, 6),
    (Req::Commit, 1),
];

fn sql_date(t: TimePoint) -> String {
    let c = civil_from_days(t.ticks());
    format!("DATE '{:04}-{:02}-{:02}'", c.year, c.month, c.day)
}

enum Stmt {
    Keyed(i64, Prepared),
    Range((TimePoint, TimePoint), Prepared),
}

impl Stmt {
    fn prepared(&self) -> &Prepared {
        match self {
            Stmt::Keyed(_, p) | Stmt::Range(_, p) => p,
        }
    }
}

struct Served {
    db: Database,
    stmts: Vec<Stmt>,
    view: MaterializedView,
}

fn setup(rows: &[Tuple], rng: &mut Rng) -> Served {
    let db = Database::new();
    let rel = OngoingRelation::from_tuples(model::schema(), rows.to_vec()).expect("schema");
    db.create_table("T", rel).expect("fresh table");
    db.create_key_index("T", "K").expect("key index");
    db.analyze_all();
    let h = History::synthetic();
    let mut stmts = Vec::new();
    for _ in 0..HOT_KEYS {
        let k = rng.range(0, KEYS);
        let p = sql::prepare(&db, &format!("SELECT * FROM T WHERE K = {k}")).expect("prepare");
        stmts.push(Stmt::Keyed(k, p));
    }
    for _ in 0..RANGES {
        let a = rng.range(h.start.ticks(), h.end.ticks());
        let w = (TimePoint::new(a), TimePoint::new(a + rng.range(1, 6)));
        let text = format!(
            "SELECT * FROM T WHERE VT OVERLAPS PERIOD({}, {})",
            sql_date(w.0),
            sql_date(w.1)
        );
        stmts.push(Stmt::Range(w, sql::prepare(&db, &text).expect("prepare")));
    }
    for s in &stmts {
        s.prepared().execute(&db).expect("warm-up read");
    }
    let plan =
        sql::plan_query(&db, &format!("SELECT * FROM T WHERE P < {VIEW_P}")).expect("view plan");
    let view =
        MaterializedView::create(&db, "low_payload", plan, PlannerConfig::default()).expect("view");
    Served { db, stmts, view }
}

/// A one-shot query over `T` whose text never repeats within a run.
struct OneShot {
    text: String,
    p_below: i64,
    window: (TimePoint, TimePoint),
}

fn one_shot(rng: &mut Rng, serial: i64) -> OneShot {
    let h = History::synthetic();
    let p_below = rng.range(1, 1000);
    let a = rng.range(h.start.ticks(), h.end.ticks());
    let window = (TimePoint::new(a), TimePoint::new(a + rng.range(1, 400)));
    // `K < 1 000 000 + serial` holds for every key; it keeps each text
    // distinct so the result cache never serves a one-shot query.
    let text = format!(
        "SELECT * FROM T WHERE P < {p_below} AND K < {} AND VT OVERLAPS PERIOD({}, {})",
        1_000_000 + serial,
        sql_date(window.0),
        sql_date(window.1)
    );
    OneShot {
        text,
        p_below,
        window,
    }
}

fn write_op(rng: &mut Rng, hot: &[i64], at: TimePoint) -> WriteOp {
    let key = if rng.below(2) == 0 {
        hot[rng.below(hot.len())]
    } else {
        rng.range(0, KEYS)
    };
    let payload = rng.range(0, 1000);
    match rng.below(3) {
        0 => WriteOp::InsertOpen {
            key,
            payload,
            start: at,
        },
        1 => WriteOp::Update { key, payload, at },
        _ => WriteOp::Terminate { key, at },
    }
}

/// Per-layer timers of a traced run for one ongoing SQL text: parse and
/// plan, compile, and a traced execution.
fn trace_sql(
    db: &Database,
    text: &str,
    plan_us: &mut Samples,
    compile_us: &mut Samples,
    exec: &mut ExecTotals,
) {
    let (plan, t) = timed(|| sql::plan_query(db, text));
    plan_us.push_dur(t, US);
    let Ok(plan) = plan else { return };
    let cfg = PlannerConfig::default();
    let (phys, t) = timed(|| compile(db, &plan, &cfg));
    compile_us.push_dur(t, US);
    if let Ok(phys) = phys {
        let _ = layers::execute(&phys, cfg.exec_context(), Some(exec));
    }
}

pub fn run(args: &Args) -> Outcome {
    let span = (date(2009, 1, 1), date(2019, 1, 1));
    let mut setup_s = Samples::default();
    let mut served = None;
    for _ in 0..SETUPS {
        drop(served.take());
        let ((s, rows), t) = timed(|| {
            let rows = model::generate(&mut Rng::new(args.seed), KEYS, PER_KEY, span, 5);
            (setup(&rows, &mut Rng::new(args.seed ^ 0x5E7)), rows)
        });
        setup_s.push(t.as_secs_f64());
        served = Some((s, rows));
    }
    let (served, rows) = served.expect("set up");
    let Served {
        db,
        stmts,
        mut view,
    } = served;
    let mut tmodel = TableModel::from_tuples(&rows);
    drop(rows);
    let hot: Vec<i64> = stmts
        .iter()
        .filter_map(|s| match s {
            Stmt::Keyed(k, _) => Some(*k),
            Stmt::Range(..) => None,
        })
        .collect();

    let mut rng = Rng::new(args.seed ^ 0xC11E);
    let mut schedule: Vec<Req> = MIX
        .iter()
        .flat_map(|&(r, n)| std::iter::repeat_n(r, n))
        .collect();
    for i in (1..schedule.len()).rev() {
        schedule.swap(i, rng.below(i + 1));
    }

    let mut ops = Ops::default();
    let (mut read_us, mut hit_us, mut miss_us) =
        (Samples::default(), Samples::default(), Samples::default());
    let (mut query_ms, mut fixed_ms, mut view_ms) =
        (Samples::default(), Samples::default(), Samples::default());
    let (mut refresh_ms, mut unchanged, mut refreshes) = (Samples::default(), 0u64, 0u64);
    let (mut plan_us, mut compile_us, mut exec) = (
        Samples::default(),
        Samples::default(),
        ExecTotals::default(),
    );
    let mut commits = CommitTimes::default();
    let (mut bind_ns, mut bound) = (0.0, 0u64);
    let mut last_query: Option<OngoingRelation> = None;

    let mut now = date(2018, 1, 1);
    // Oracle answers valid until the next commit, by statement index.
    let mut expected: Vec<Option<Fingerprint>> = vec![None; stmts.len()];
    let mut view_expected: Option<Fingerprint> = None;
    let mut serial = 0i64;
    let hits = db.observability().metrics.counter(RESULT_CACHE_HITS_METRIC);
    let metrics_before = db.metrics_snapshot();

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut rounds = 0u64;
    while rounds == 0 || Instant::now() < deadline {
        rounds += 1;
        for &req in &schedule {
            match req {
                Req::Read => {
                    let i = rng.below(stmts.len());
                    let h0 = if args.trace { hits.get() } else { 0 };
                    let (r, t) = timed(|| stmts[i].prepared().execute(&db));
                    let Some(rel) = ops.record("read", r) else {
                        continue;
                    };
                    read_us.push_dur(t, US);
                    if args.trace {
                        if hits.get() > h0 {
                            &mut hit_us
                        } else {
                            &mut miss_us
                        }
                        .push_dur(t, US);
                    }
                    let ok = match &stmts[i] {
                        Stmt::Keyed(k, _) => {
                            Fingerprint::of_tuples(rel.iter())
                                == Fingerprint::of_tuples(tmodel.key_rows(*k))
                        }
                        Stmt::Range(w, _) => {
                            let want = *expected[i].get_or_insert_with(|| {
                                tmodel.select_at(now, |r| overlaps_window(r, *w))
                            });
                            Fingerprint::of_rows(rel.bind(now).rows()) == want
                        }
                    };
                    if !ok {
                        ops.mismatch(format!(
                            "prepared read {} at {now:?}",
                            stmts[i].prepared().text()
                        ));
                    }
                }
                Req::Query => {
                    serial += 1;
                    let q = one_shot(&mut rng, serial);
                    let (r, t) = timed(|| sql::query(&db, &q.text));
                    let Some(rel) = ops.record("query", r) else {
                        continue;
                    };
                    query_ms.push_dur(t, MS);
                    let want = tmodel.select_at(now, |r| {
                        int(r, 1) < q.p_below && overlaps_window(r, q.window)
                    });
                    if Fingerprint::of_rows(rel.bind(now).rows()) != want {
                        ops.mismatch(format!("one-shot {} at {now:?}", q.text));
                    }
                    if args.trace {
                        trace_sql(&db, &q.text, &mut plan_us, &mut compile_us, &mut exec);
                    }
                    last_query = Some(rel);
                }
                Req::FixedQuery => {
                    serial += 1;
                    let q = one_shot(&mut rng, serial);
                    let cfg = PlannerConfig::default();
                    let (r, t) = timed(|| {
                        sql::plan_query(&db, &q.text)
                            .and_then(|plan| compile(&db, &plan, &cfg))
                            .and_then(|phys| phys.execute_at_with_stats(now, &cfg.exec_context()))
                    });
                    let Some((fixed, stats)) = ops.record("fixed_query", r) else {
                        continue;
                    };
                    fixed_ms.push_dur(t, MS);
                    exec.add_fixed(&stats);
                    let want = tmodel.select_at(now, |r| {
                        int(r, 1) < q.p_below && overlaps_window(r, q.window)
                    });
                    if Fingerprint::of_rows(fixed.rows()) != want {
                        ops.mismatch(format!("instantiated one-shot {} at {now:?}", q.text));
                    }
                }
                Req::View => {
                    ops.attempt("instantiate");
                    let t0 = Instant::now();
                    let outcome = view.refresh(&db);
                    let t_refresh = t0.elapsed();
                    let outcome = match outcome {
                        Ok(o) => o,
                        Err(e) => {
                            ops.fail("instantiate", e);
                            continue;
                        }
                    };
                    let fixed = view.instantiate(now);
                    let t = t0.elapsed();
                    view_ms.push_dur(t, MS);
                    bind_ns += (t - t_refresh).as_secs_f64() * 1e9;
                    bound += view.len() as u64;
                    refreshes += 1;
                    match outcome {
                        RefreshOutcome::Unchanged => unchanged += 1,
                        RefreshOutcome::Recomputed => refresh_ms.push_dur(t_refresh, MS),
                    }
                    let want = *view_expected
                        .get_or_insert_with(|| tmodel.select_at(now, |r| int(r, 1) < VIEW_P));
                    if Fingerprint::of_rows(fixed.rows()) != want {
                        ops.mismatch(format!("view instantiated at {now:?}"));
                    }
                }
                Req::Commit => {
                    let op = write_op(&mut rng, &hot, now);
                    let mut closure = Duration::ZERO;
                    let (r, t) = timed(|| {
                        db.modify_table("T", |rel| {
                            let (r, t) = timed(|| op.apply_engine(rel));
                            closure += t;
                            r
                        })
                    });
                    if ops.record("commit", r).is_none() {
                        continue;
                    }
                    commits.wall_us.push_dur(t, US);
                    commits.closure_us.push_dur(closure, US);
                    commits.overhead_us.push_dur(t.saturating_sub(closure), US);
                    tmodel.apply(op);
                    now = TimePoint::new(now.ticks() + 1);
                    expected.iter_mut().for_each(|e| *e = None);
                    view_expected = None;
                }
            }
        }
    }

    let busy_s = (read_us.sum() / US)
        + (query_ms.sum() + fixed_ms.sum() + view_ms.sum()) / MS
        + commits.wall_us.sum() / US;
    let n_ops =
        (read_us.len() + query_ms.len() + fixed_ms.len() + view_ms.len() + commits.wall_us.len())
            as f64;
    let mut e2e = Metrics::default();
    e2e.set("setup_s", setup_s.p50(), "s");
    e2e.set("ops_per_s", ratio(n_ops, busy_s), "1/s");
    e2e.set("query_p50_ms", query_ms.p50(), "ms");
    e2e.set("fixed_query_p50_ms", fixed_ms.p50(), "ms");
    e2e.set("instantiate_p50_ms", view_ms.p50(), "ms");
    eprintln!(
        "perfbench: hot-serving {rounds} rounds, {} reads, {} one-shot queries \
         (p90 {:.3} ms), table of {} rows",
        read_us.len(),
        query_ms.len(),
        query_ms.quantile(0.9),
        tmodel.len()
    );

    let mut layers = Metrics::default();
    if args.trace {
        let delta = db.metrics_snapshot().delta(&metrics_before);
        let mut results = vec![view.result()];
        results.extend(last_query.as_ref());
        layers::report_core(&mut layers, &results);
        layers.set(
            "relation.bind_ns_per_tuple",
            ratio(bind_ns, bound as f64),
            "ns",
        );
        layers.set("sql.plan_query_us", plan_us.p50(), "us");
        let (ph, pm) = (
            delta.value("ongoingdb_prepared_hits") as f64,
            delta.value("ongoingdb_prepared_misses") as f64,
        );
        layers.set("sql.prepared_hit_ratio", ratio(ph, ph + pm), "ratio");
        layers.set("sql.read_p50_us", read_us.p50(), "us");
        layers.set(
            "sql.reads_per_s",
            ratio(read_us.len() as f64, read_us.sum() / US),
            "1/s",
        );
        layers.set("plan.compile_us", compile_us.p50(), "us");
        exec.report(&mut layers);
        layers::report_rescache(
            &mut layers,
            &delta,
            db.result_cache().resident_bytes(),
            &hit_us,
            &miss_us,
        );
        layers.set("matview.refresh_ms", refresh_ms.p50(), "ms");
        layers.set(
            "matview.unchanged_ratio",
            ratio(unchanged as f64, refreshes as f64),
            "ratio",
        );
        let commits_per_s = ratio(commits.wall_us.len() as f64, commits.wall_us.sum() / US);
        let write_work = db.metrics_snapshot().value("ongoingdb_store_write_work")
            - metrics_before.value("ongoingdb_store_write_work");
        commits.report(&mut layers, &delta, write_work, commits_per_s);
    }
    Outcome { ops, e2e, layers }
}
