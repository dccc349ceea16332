//! `paper-queries`: the paper's read path (Figs. 8–13) with no result
//! cache and no storage involved.
//!
//! Input: Dex and Dsh (n = 30 000 each, `repro_fig9` scale) with their
//! ongoing anchors in each of the five history segments, plus MozillaBugs
//! at 3 000 bugs (inside the `repro_fig11` range). Queries: `Q⋈_ovlp` and
//! `Q⋈_before` self-joins on all ten synthetic tables, `QC⋈_ovlp`, and
//! `Qσ_ovlp`/`Qσ_before` with and without the interval index — 25 plans
//! whose costs spread over a continuum rather than a few classes.
//!
//! Per query and round: one ongoing evaluation (compile + execute), one
//! instantiated evaluation at Cliff_max (compile + execute), and binds of
//! the ongoing result at three seeded reference times. Plans are compiled
//! and executed directly, so the result cache is never consulted. Every
//! bind and every instantiated result is compared with the fixed-time
//! oracle evaluated over the base tables at the same reference time.
//!
//! The measured loop executes serially. After it, every query runs once
//! more on the engine's worker pool at its default size, checked against
//! the oracle the same way; the `pool.*` metrics of traced runs come from
//! that round.

use crate::layers::{self, ExecTotals};
use crate::oracle::{self, Allen};
use crate::util::{ratio, timed, Fingerprint, Metrics, Ops, Rng, Samples, MS, NS, US};
use crate::{Args, Outcome};
use ongoing_core::allen::TemporalPredicate;
use ongoing_core::TimePoint;
use ongoing_datasets::mozilla::{self, MozillaConfig};
use ongoing_datasets::synthetic::{self, SyntheticConfig};
use ongoing_datasets::History;
use ongoing_engine::baseline::clifford;
use ongoing_engine::plan::optimizer::compile;
use ongoing_engine::{queries, Database, ExecContext, LogicalPlan, PlannerConfig};
use ongoing_relation::{OngoingRelation, Value};
use std::time::{Duration, Instant};

const N: usize = 30_000;
const BUGS: usize = 3_000;
const SETUPS: usize = 5;
const BINDS: usize = 3;
const SEGMENTS: usize = 5;

#[derive(Debug, Clone)]
enum Shape {
    SelfJoin(String, Allen),
    Complex(Allen),
    Selection(Allen, (TimePoint, TimePoint)),
}

struct Query {
    label: String,
    plan: LogicalPlan,
    cfg: PlannerConfig,
    rts: Vec<TimePoint>,
    /// Oracle fingerprints at each of `rts`.
    expect: Vec<Fingerprint>,
    /// Oracle fingerprint at Cliff_max.
    expect_fixed: Fingerprint,
}

fn temporal(p: Allen) -> TemporalPredicate {
    match p {
        Allen::Overlaps => TemporalPredicate::Overlaps,
        Allen::Before => TemporalPredicate::Before,
    }
}

/// Generates and loads every table, collects statistics and builds the
/// interval index — the set-up a user of this workload pays once.
fn setup(seed: u64) -> Database {
    let db = Database::new();
    for seg in 0..SEGMENTS {
        let s = seed.wrapping_mul(31).wrapping_add(seg as u64);
        let dex = synthetic::generate(&SyntheticConfig::dex(N, Some(seg), s));
        db.create_table(&format!("Dex{seg}"), dex)
            .expect("fresh table");
        let dsh = synthetic::generate(&SyntheticConfig::dsh(N, Some(seg), s ^ 0xD5));
        db.create_table(&format!("Dsh{seg}"), dsh)
            .expect("fresh table");
    }
    let m = mozilla::generate(&MozillaConfig::scaled(BUGS, seed));
    db.create_table("BugInfo", m.bug_info).expect("fresh table");
    db.create_table("BugAssignment", m.bug_assignment)
        .expect("fresh table");
    db.create_table("BugSeverity", m.bug_severity)
        .expect("fresh table");
    db.analyze_all();
    let info = db.table("BugInfo").expect("loaded");
    let vt = info.schema().index_of("VT").expect("BugInfo.VT");
    info.interval_index(vt).expect("interval index");
    db
}

fn rows(db: &Database, table: &str, rt: TimePoint) -> Vec<oracle::Row> {
    let t = db.table(table).expect("loaded");
    oracle::instantiate(t.data().iter(), rt)
}

/// `Q(∥D∥rt)` by the oracle.
fn oracle_at(db: &Database, shape: &Shape, rt: TimePoint) -> Fingerprint {
    match shape {
        Shape::SelfJoin(table, pred) => {
            let d = rows(db, table, rt);
            oracle::fingerprint(oracle::hash_join(&d, &d, &[1], &[1], |l, r| {
                pred.holds(&l[2], &r[2])
            }))
        }
        Shape::Complex(pred) => {
            let (a, s, b) = (
                rows(db, "BugAssignment", rt),
                rows(db, "BugSeverity", rt),
                rows(db, "BugInfo", rt),
            );
            let major = Value::str("major");
            let a_s = oracle::hash_join(&a, &s, &[0], &[0], |x, y| {
                Allen::Overlaps.holds(&x[2], &y[2]) && y[1] == major
            });
            let asb = oracle::hash_join(&a_s, &b, &[0], &[0], |_, _| true);
            // B.(Product, Component, OS) sit at 7..10 of A ++ S ++ B.
            oracle::fingerprint(oracle::hash_join(
                &asb,
                &b,
                &[7, 8, 9],
                &[1, 2, 3],
                |x, y| pred.holds(&x[2], &y[5]),
            ))
        }
        Shape::Selection(pred, window) => {
            let w = Value::Span(window.0, window.1);
            oracle::fingerprint(
                rows(db, "BugInfo", rt)
                    .into_iter()
                    .filter(|r| pred.holds(&r[5], &w))
                    .collect(),
            )
        }
    }
}

fn sample_rt(rng: &mut Rng, h: History) -> TimePoint {
    TimePoint::new(rng.range(h.start.ticks(), h.end.ticks()))
}

fn build_queries(db: &Database, rng: &mut Rng) -> Vec<Query> {
    let cliff = clifford::cliff_max_reference_time(db);
    let (syn, moz) = (History::synthetic(), History::mozilla());
    let mut shapes = Vec::new();
    for seg in 0..SEGMENTS {
        for kind in ["Dex", "Dsh"] {
            for pred in [Allen::Overlaps, Allen::Before] {
                shapes.push((Shape::SelfJoin(format!("{kind}{seg}"), pred), false, syn));
            }
        }
    }
    shapes.push((Shape::Complex(Allen::Overlaps), false, moz));
    for pred in [Allen::Overlaps, Allen::Before] {
        let start = sample_rt(rng, moz).ticks();
        let window = (
            TimePoint::new(start),
            TimePoint::new(start + rng.range(30, 720)),
        );
        for index in [false, true] {
            shapes.push((Shape::Selection(pred, window), index, moz));
        }
    }
    shapes
        .into_iter()
        .map(|(shape, index, history)| {
            let plan = match &shape {
                Shape::SelfJoin(t, p) => queries::self_join(db, t, "K", temporal(*p)),
                Shape::Complex(p) => queries::complex_join(db, temporal(*p)),
                Shape::Selection(p, w) => queries::selection(db, "BugInfo", temporal(*p), *w),
            }
            .expect("query builds");
            let rts: Vec<TimePoint> = (0..BINDS).map(|_| sample_rt(rng, history)).collect();
            let expect = rts.iter().map(|&rt| oracle_at(db, &shape, rt)).collect();
            Query {
                label: format!("{shape:?}{}", if index { " +index" } else { "" }),
                plan,
                cfg: PlannerConfig {
                    use_interval_index: index,
                    ..PlannerConfig::default()
                },
                rts,
                expect,
                expect_fixed: oracle_at(db, &shape, cliff),
            }
        })
        .collect()
}

pub fn run(args: &Args) -> Outcome {
    let mut setup_s = Samples::default();
    let mut db = None;
    for _ in 0..SETUPS {
        drop(db.take());
        let (d, t) = timed(|| setup(args.seed));
        setup_s.push(t.as_secs_f64());
        db = Some(d);
    }
    let db = db.expect("set up");
    let mut rng = Rng::new(args.seed);
    let queries = build_queries(&db, &mut rng);
    let cliff = clifford::cliff_max_reference_time(&db);

    let mut ops = Ops::default();
    let (mut query_ms, mut fixed_ms, mut inst_ms) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut compile_us = Samples::default();
    let mut exec = ExecTotals::default();
    let (mut bind_ns, mut bound_tuples) = (0.0, 0u64);
    let mut last_results: Vec<OngoingRelation> = Vec::new();
    let metrics_before = db.metrics_snapshot();

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut rounds = 0;
    while rounds == 0 || Instant::now() < deadline {
        rounds += 1;
        last_results.clear();
        for q in &queries {
            ops.attempt("query");
            let t0 = Instant::now();
            let phys = compile(&db, &q.plan, &q.cfg);
            let t_compile = t0.elapsed();
            let run = phys.and_then(|p| {
                layers::execute(&p, q.cfg.exec_context(), args.trace.then_some(&mut exec))
            });
            let elapsed = t0.elapsed();
            let rel = match run {
                Ok(rel) => {
                    query_ms.push_dur(elapsed, MS);
                    compile_us.push_dur(t_compile, US);
                    rel
                }
                Err(e) => {
                    ops.fail("query", e);
                    continue;
                }
            };

            ops.attempt("fixed_query");
            let (fixed, elapsed) = timed(|| {
                compile(&db, &q.plan, &q.cfg)
                    .and_then(|p| p.execute_at_with_stats(cliff, &q.cfg.exec_context()))
            });
            match fixed {
                Ok((f, stats)) => {
                    fixed_ms.push_dur(elapsed, MS);
                    exec.add_fixed(&stats);
                    if Fingerprint::of_rows(f.rows()) != q.expect_fixed {
                        ops.mismatch(format!("{} instantiated at Cliff_max", q.label));
                    }
                }
                Err(e) => ops.fail("fixed_query", e),
            }

            for (rt, expect) in q.rts.iter().zip(&q.expect) {
                ops.attempt("instantiate");
                let (bound, elapsed) = timed(|| rel.bind(*rt));
                inst_ms.push_dur(elapsed, MS);
                bind_ns += elapsed.as_secs_f64() * NS;
                bound_tuples += rel.len() as u64;
                if Fingerprint::of_rows(bound.rows()) != *expect {
                    ops.mismatch(format!("{} bound at {rt:?}", q.label));
                }
            }
            last_results.push(rel);
        }
    }

    // One more round, after the measured window, on the engine's worker
    // pool at its default size: the measured loop runs serially, so this
    // is where the partition-parallel executor is exercised and checked.
    let pool_before = layers::pool_snapshot();
    let mut pool_ms = Samples::default();
    for q in &queries {
        let ctx = ExecContext::new(args.pool_threads);
        let (run, elapsed) =
            timed(|| compile(&db, &q.plan, &q.cfg).and_then(|p| p.execute_ctx(&ctx)));
        let Some(rel) = ops.record("parallel_query", run) else {
            continue;
        };
        pool_ms.push_dur(elapsed, MS);
        for (rt, expect) in q.rts.iter().zip(&q.expect) {
            if Fingerprint::of_rows(rel.bind(*rt).rows()) != *expect {
                ops.mismatch(format!("{} on the pool bound at {rt:?}", q.label));
            }
        }
    }

    let busy_s = (query_ms.sum() + fixed_ms.sum() + inst_ms.sum()) / MS;
    let n_ops = (query_ms.len() + fixed_ms.len() + inst_ms.len()) as f64;
    let mut e2e = Metrics::default();
    e2e.set("setup_s", setup_s.p50(), "s");
    e2e.set("ops_per_s", ratio(n_ops, busy_s), "1/s");
    e2e.set("query_p50_ms", query_ms.p50(), "ms");
    e2e.set("fixed_query_p50_ms", fixed_ms.p50(), "ms");
    e2e.set("instantiate_p50_ms", inst_ms.p50(), "ms");
    eprintln!(
        "perfbench: paper-queries {} rounds of {} queries, {} query samples, query p90 {:.3} ms, \
         {:.3} ms p50 on a pool of {} threads",
        rounds,
        queries.len(),
        query_ms.len(),
        query_ms.quantile(0.9),
        pool_ms.p50(),
        args.pool_threads
    );

    let mut layers = Metrics::default();
    if args.trace {
        let refs: Vec<&OngoingRelation> = last_results.iter().collect();
        layers::report_core(&mut layers, &refs);
        layers.set(
            "relation.bind_ns_per_tuple",
            ratio(bind_ns, bound_tuples as f64),
            "ns",
        );
        layers.set("plan.compile_us", compile_us.p50(), "us");
        exec.report(&mut layers);
        layers::report_pool(&mut layers, &pool_before, pool_ms.len() as u64);
        layers.set("pool.query_p50_ms", pool_ms.p50(), "ms");
        let delta = db.metrics_snapshot().delta(&metrics_before);
        layers::report_rescache(
            &mut layers,
            &delta,
            db.result_cache().resident_bytes(),
            &Samples::default(),
            &Samples::default(),
        );
    }
    Outcome { ops, e2e, layers }
}
