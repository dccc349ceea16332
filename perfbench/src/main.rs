//! `ongoing-perfbench`: seeded end-to-end workloads against the ongoing
//! engine's public API, each output checked against the benchmark's own
//! oracle or table models.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-queries|hot-serving|durable-churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`. A result that
//! disagrees with the oracle or a model exits with status 1.

mod churn;
mod layers;
mod memfs;
mod model;
mod oracle;
mod paper;
mod serving;
mod util;

use util::{Metrics, Ops};

/// End-to-end metrics every workload reports, with their units. The 90th
/// percentile of query latency is printed on standard error only: on
/// `durable-churn` it did not repeat within a quarter between runs.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("fixed_query_p50_ms", "ms"),
    ("instantiate_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of traced runs; a layer a workload does not exercise
/// reads 0.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("core.rt_ranges_per_tuple", "count"),
    ("core.set_intersect_ns", "ns"),
    ("core.set_union_ns", "ns"),
    ("relation.bind_ns_per_tuple", "ns"),
    ("relation.modify_closure_us", "us"),
    ("relation.write_work_per_commit", "count"),
    ("sql.plan_query_us", "us"),
    ("sql.prepared_hit_ratio", "ratio"),
    ("sql.read_p50_us", "us"),
    ("sql.reads_per_s", "1/s"),
    ("plan.compile_us", "us"),
    ("exec.seqscan.self_ms", "ms"),
    ("exec.indexscan.self_ms", "ms"),
    ("exec.keyscan.self_ms", "ms"),
    ("exec.filter.self_ms", "ms"),
    ("exec.project.self_ms", "ms"),
    ("exec.hashjoin.self_ms", "ms"),
    ("exec.sweepjoin.self_ms", "ms"),
    ("exec.nestedloopjoin.self_ms", "ms"),
    ("exec.aggregate.self_ms", "ms"),
    ("exec.tuples_scanned", "count"),
    ("exec.tuples_filtered", "count"),
    ("exec.pairs_compared", "count"),
    ("exec.index_candidates", "count"),
    ("exec.intervals_merged", "count"),
    ("exec.results_per_pair", "ratio"),
    ("exec.fixed_pairs_compared", "count"),
    ("pool.tasks_executed", "count"),
    ("pool.tasks_stolen", "count"),
    ("pool.admission_wait_us", "us"),
    ("pool.query_p50_ms", "ms"),
    ("rescache.hit_ratio", "ratio"),
    ("rescache.evictions", "count"),
    ("rescache.bytes", "B"),
    ("rescache.hit_read_us", "us"),
    ("rescache.miss_read_us", "us"),
    ("matview.refresh_ms", "ms"),
    ("matview.unchanged_ratio", "ratio"),
    ("catalog.commit_p50_us", "us"),
    ("catalog.commits_per_s", "1/s"),
    ("catalog.commit_overhead_us", "us"),
    ("catalog.cas_conflicts", "count"),
    ("storage.fsync_us", "us"),
    ("storage.fsyncs_per_commit", "count"),
    ("storage.wal_bytes_per_commit", "B"),
    ("storage.bytes_written_per_user_byte", "ratio"),
    ("storage.checkpoints", "count"),
    ("storage.chunk_cache_hit_ratio", "ratio"),
    ("storage.chunk_reads_per_scan", "count"),
    ("storage.chunk_read_us", "us"),
    ("storage.open_ms", "ms"),
    ("storage.first_touch_ms", "ms"),
    ("storage.tuples_loaded", "count"),
    ("storage.recovery_ms", "ms"),
    ("storage.space_amp", "ratio"),
];

/// The command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The worker-pool size the engine would choose by default:
    /// `ONGOINGDB_THREADS` as the caller set it, else the machine's cores.
    pub pool_threads: usize,
}

/// What a workload hands back: operation counts (with any oracle or model
/// mismatches), end-to-end metrics, and — traced — per-layer metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub ops: Ops,
    pub e2e: Metrics,
    pub layers: Metrics,
}

/// The engine's own resolution of its default parallelism, made here
/// because asking the engine would cache the value before `main` pins the
/// measured phases to one thread.
fn default_pool_threads() -> usize {
    std::env::var(ongoing_engine::THREADS_ENV)
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&p| p > 0)
        .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
        .unwrap_or(1)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 0.0,
        trace: false,
        pool_threads: default_pool_threads(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value for {flag}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(bad(&other)),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seconds == 0.0 {
        return Err("--seconds is required".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: --workload <paper-queries|hot-serving|durable-churn> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    // Measured phases run one executor thread per query. On a small shared
    // machine, CPU steal on either core stalls a partition-parallel query
    // at its join point, and whole-run medians moved by 15–30 % with the
    // default pool; serial execution keeps them within a few percent.
    // `paper-queries` then runs a round at `args.pool_threads`. Set after
    // `parse_args` has read the caller's value; the engine caches it on
    // first use.
    std::env::set_var(ongoing_engine::THREADS_ENV, "1");
    if let Err(e) = oracle::self_check() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    let mut out = match args.workload.as_str() {
        "paper-queries" => paper::run(&args),
        "hot-serving" => serving::run(&args),
        "durable-churn" => churn::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    out.e2e.set("peak_rss_mb", util::peak_rss_mb(), "MB");
    for (name, _) in END_TO_END {
        assert!(
            out.e2e.get(name).is_some(),
            "workload {} did not measure {name}",
            args.workload
        );
    }
    out.ops.print();
    let metrics = if args.trace {
        println!("traced end-to-end: {}", out.e2e.to_json());
        out.layers.complete(&PER_LAYER)
    } else {
        out.e2e.complete(&END_TO_END)
    };
    let correct = out.ops.mismatches.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.ops.attempted(),
        out.ops.failed(),
        metrics.to_json()
    );
    if !correct {
        std::process::exit(1);
    }
}
