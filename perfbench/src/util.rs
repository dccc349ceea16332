//! Measurement plumbing shared by the workloads: latency samples and
//! percentiles, order-independent result fingerprints, operation
//! counters, peak memory, and the metric report printed as JSON.

use ongoing_relation::{Tuple, Value};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// Latency (or any other) samples of one operation class.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn push_dur(&mut self, d: Duration, unit: f64) {
        self.0.push(d.as_secs_f64() * unit);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// The `q`-quantile with linear interpolation between the two nearest
    /// ranks; 0 for an empty sample.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// Runs `f` and returns its result with the elapsed wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

pub const MS: f64 = 1e3;
pub const US: f64 = 1e6;
pub const NS: f64 = 1e9;

/// An order-independent fingerprint of a *set* of rows: the row count plus
/// the wrapping sum of per-row SipHash values (fixed keys, so the same set
/// always gives the same fingerprint). Callers deduplicate first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Fingerprint {
    pub rows: usize,
    pub sum: u64,
}

impl Fingerprint {
    pub fn add_row(&mut self, row: &[Value]) {
        let mut h = DefaultHasher::new();
        row.hash(&mut h);
        self.rows += 1;
        self.sum = self.sum.wrapping_add(h.finish());
    }

    /// Adds an ongoing tuple: its values and its reference-time set.
    pub fn add_tuple(&mut self, t: &Tuple) {
        let mut h = DefaultHasher::new();
        t.values().hash(&mut h);
        t.rt().hash(&mut h);
        self.rows += 1;
        self.sum = self.sum.wrapping_add(h.finish());
    }

    pub fn of_rows<'a>(rows: impl IntoIterator<Item = &'a Vec<Value>>) -> Fingerprint {
        let mut fp = Fingerprint::default();
        for r in rows {
            fp.add_row(r);
        }
        fp
    }

    pub fn of_tuples<'a>(tuples: impl IntoIterator<Item = &'a Tuple>) -> Fingerprint {
        let mut fp = Fingerprint::default();
        for t in tuples {
            fp.add_tuple(t);
        }
        fp
    }
}

/// Attempted / failed counts per operation type, plus the count of
/// results that disagreed with the benchmark's own oracle or model.
#[derive(Debug, Default)]
pub struct Ops {
    counts: BTreeMap<&'static str, (u64, u64)>,
    pub mismatches: Vec<String>,
}

impl Ops {
    pub fn attempt(&mut self, op: &'static str) {
        self.counts.entry(op).or_default().0 += 1;
    }

    pub fn fail(&mut self, op: &'static str, err: impl std::fmt::Display) {
        let e = self.counts.entry(op).or_default();
        e.1 += 1;
        if e.1 <= 3 {
            eprintln!("perfbench: {op} failed: {err}");
        }
    }

    /// Records the outcome of one attempted operation, returning its value.
    pub fn record<T, E: std::fmt::Display>(
        &mut self,
        op: &'static str,
        r: Result<T, E>,
    ) -> Option<T> {
        self.attempt(op);
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(op, e);
                None
            }
        }
    }

    /// Notes a result that disagrees with the benchmark's reference.
    pub fn mismatch(&mut self, what: String) {
        if self.mismatches.len() < 8 {
            eprintln!("perfbench: MISMATCH {what}");
        }
        self.mismatches.push(what);
    }

    pub fn attempted(&self) -> u64 {
        self.counts.values().map(|c| c.0).sum()
    }

    pub fn failed(&self) -> u64 {
        self.counts.values().map(|c| c.1).sum()
    }

    pub fn print(&self) {
        for (op, (a, f)) in &self.counts {
            println!("ops {op}: attempted {a}, failed {f}");
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where the
/// kernel does not expose it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metrics with units, in insertion-independent name order.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(name.to_string(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|v| v.0)
    }

    /// Restricts the report to `names` (in that set), filling every name
    /// the workload did not exercise with 0 in its declared unit.
    pub fn complete(&self, names: &[(&str, &'static str)]) -> Metrics {
        let mut out = Metrics::default();
        for (name, unit) in names {
            let v = self.0.get(*name).map_or(0.0, |v| v.0);
            out.set(name, v, unit);
        }
        out
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, (v, u))| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Ratio that reads 0 instead of NaN when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A small deterministic generator (SplitMix64) for the benchmark's own
/// choices — request mixes, keys, reference-time sweeps — so they depend
/// on `--seed` alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}
