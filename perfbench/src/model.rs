//! The benchmark's own copy of each written table, kept in step with every
//! acknowledged commit. Modifications follow the reference semantics of
//! `ongoing_bench::naive` (iterate, rebuild, in order), applied per key:
//! every operation touches only the rows of its key, so the model keeps
//! one row vector per key and stays cheap to update.
//!
//! Tables use the layout those semantics assume: `K` (int key), `P` (int
//! payload), `VT` (ongoing valid-time interval).

use crate::oracle::{self, Allen, Row};
use crate::util::Fingerprint;
use ongoing_bench::naive;
use ongoing_core::{OngoingInterval, TimePoint};
use ongoing_engine::modify::Modifier;
use ongoing_relation::{Expr, OngoingRelation, Schema, Tuple, Value};
use std::collections::BTreeMap;

pub fn schema() -> Schema {
    Schema::builder().int("K").int("P").interval("VT").build()
}

/// One now-relative modification, applied once through the engine's
/// `Modifier` and once to the model.
#[derive(Debug, Clone, Copy)]
pub enum WriteOp {
    InsertOpen {
        key: i64,
        payload: i64,
        start: TimePoint,
    },
    Terminate {
        key: i64,
        at: TimePoint,
    },
    Update {
        key: i64,
        payload: i64,
        at: TimePoint,
    },
}

impl WriteOp {
    pub fn key(self) -> i64 {
        match self {
            WriteOp::InsertOpen { key, .. }
            | WriteOp::Terminate { key, .. }
            | WriteOp::Update { key, .. } => key,
        }
    }

    /// Applies the operation to an engine relation (inside a
    /// `modify_table` closure).
    pub fn apply_engine(self, rel: &mut OngoingRelation) -> ongoing_engine::Result<()> {
        let mut m = Modifier::new(rel, "VT")?;
        let on_key = |k: i64| Expr::Col(0).eq(Expr::lit(k));
        match self {
            WriteOp::InsertOpen {
                key,
                payload,
                start,
            } => m.insert_open(
                vec![Value::Int(key), Value::Int(payload), Value::Int(0)],
                start,
            ),
            WriteOp::Terminate { key, at } => m.terminate(&on_key(key), at).map(drop),
            WriteOp::Update { key, payload, at } => m
                .update(&on_key(key), &[(1, Value::Int(payload))], at)
                .map(drop),
        }
    }
}

/// A keyed model of one table.
#[derive(Debug, Default, Clone)]
pub struct TableModel {
    rows: BTreeMap<i64, Vec<Tuple>>,
}

impl TableModel {
    pub fn from_tuples<'a>(tuples: impl IntoIterator<Item = &'a Tuple>) -> TableModel {
        let mut m = TableModel::default();
        for t in tuples {
            let k = t.value(naive::KEY_COL).as_int().expect("int key");
            m.rows.entry(k).or_default().push(t.clone());
        }
        m
    }

    /// Applies `op` with the reference semantics; returns the encoded size
    /// of the key's rows afterwards — the user data the commit wrote.
    pub fn apply(&mut self, op: WriteOp) -> usize {
        let rows = self.rows.entry(op.key()).or_default();
        match op {
            WriteOp::InsertOpen {
                key,
                payload,
                start,
            } => naive::insert_open(rows, key, payload, start),
            WriteOp::Terminate { key, at } => naive::terminate(rows, key, at),
            WriteOp::Update { key, payload, at } => naive::update(rows, key, payload, at),
        }
        rows.iter()
            .map(|t| ongoing_engine::storage::codec::encode_tuple(t).len())
            .sum()
    }

    pub fn key_rows(&self, key: i64) -> &[Tuple] {
        self.rows.get(&key).map_or(&[], Vec::as_slice)
    }

    pub fn tuples(&self) -> impl Iterator<Item = &Tuple> {
        self.rows.values().flatten()
    }

    pub fn len(&self) -> usize {
        self.rows.values().map(Vec::len).sum()
    }

    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint::of_tuples(self.tuples())
    }

    /// Encoded bytes of every live tuple: the user data the table holds.
    pub fn user_bytes(&self) -> u64 {
        self.tuples()
            .map(|t| ongoing_engine::storage::codec::encode_tuple(t).len() as u64)
            .sum()
    }

    /// `∥σ(T)∥rt` by the oracle: rows live at `rt`, instantiated, that
    /// satisfy `keep`.
    pub fn select_at(&self, rt: TimePoint, keep: impl Fn(&Row) -> bool) -> Fingerprint {
        oracle::fingerprint(
            oracle::instantiate(self.tuples(), rt)
                .into_iter()
                .filter(|r| keep(r))
                .collect(),
        )
    }
}

/// Row predicate helpers over the `K, P, VT` layout, for the oracle side.
pub fn overlaps_window(row: &Row, window: (TimePoint, TimePoint)) -> bool {
    Allen::Overlaps.holds(&row[2], &Value::Span(window.0, window.1))
}

/// The payload `P` of a stored tuple.
pub fn payload(t: &Tuple) -> i64 {
    t.value(naive::PAYLOAD_COL).as_int().expect("int payload")
}

pub fn int(row: &Row, col: usize) -> i64 {
    row[col].as_int().expect("int column")
}

/// A seeded table: `keys` keys with `per_key` versions each, fixed valid
/// times inside `[start, end)` and one in `open_every` keys still open
/// (`[a, now)`).
pub fn generate(
    rng: &mut crate::util::Rng,
    keys: i64,
    per_key: i64,
    span: (TimePoint, TimePoint),
    open_every: i64,
) -> Vec<Tuple> {
    let days = span.1.ticks() - span.0.ticks();
    let mut out = Vec::with_capacity((keys * per_key) as usize);
    for k in 0..keys {
        for v in 0..per_key {
            let s = span.0.ticks() + rng.range(0, days - 1);
            let vt = if v == per_key - 1 && k % open_every == 0 {
                OngoingInterval::from_until_now(TimePoint::new(s))
            } else {
                let e = (s + rng.range(1, 120)).min(span.1.ticks());
                OngoingInterval::fixed(TimePoint::new(s), TimePoint::new(e.max(s + 1)))
            };
            out.push(Tuple::base(vec![
                Value::Int(k),
                Value::Int(rng.range(0, 1000)),
                Value::Interval(vt),
            ]));
        }
    }
    out
}
