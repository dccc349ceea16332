//! A fixed-time evaluator written apart from the engine's executor: it
//! instantiates base tuples at one reference time `rt` and evaluates a
//! query over plain rows with hash joins and Allen predicates on fixed
//! intervals. Its answers are `Q(∥D∥rt)`, the right-hand side of the
//! paper's criterion `∀rt: ∥Q(D)∥rt ≡ Q(∥D∥rt)`.
//!
//! It shares no evaluation code with the engine: instantiation, the
//! reference-time membership test, the predicates and the joins are all
//! re-implemented here from their definitions in the paper.

use crate::util::Fingerprint;
use ongoing_core::date::md;
use ongoing_core::{OngoingInterval, OngoingPoint, TimePoint};
use ongoing_relation::{Tuple, Value};
use std::collections::{HashMap, HashSet};

pub type Row = Vec<Value>;

/// `a+b` instantiated at `rt`: `rt` clamped into `[a, b]`.
fn clamp(rt: TimePoint, p: OngoingPoint) -> TimePoint {
    if rt < p.a() {
        p.a()
    } else if rt > p.b() {
        p.b()
    } else {
        rt
    }
}

/// One attribute value instantiated at `rt`.
pub fn instantiate_value(v: &Value, rt: TimePoint) -> Value {
    match v {
        Value::Interval(iv) => Value::Span(clamp(rt, iv.ts()), clamp(rt, iv.te())),
        Value::Point(p) => Value::Time(clamp(rt, *p)),
        Value::Count(_) => panic!("the oracle does not instantiate ongoing integers"),
        fixed => fixed.clone(),
    }
}

/// Is `rt` in the tuple's reference-time set?
pub fn alive(t: &Tuple, rt: TimePoint) -> bool {
    t.rt().ranges().iter().any(|r| r.ts() <= rt && rt < r.te())
}

/// `∥R∥rt` as a row bag: live tuples with every value instantiated.
pub fn instantiate<'a>(tuples: impl IntoIterator<Item = &'a Tuple>, rt: TimePoint) -> Vec<Row> {
    tuples
        .into_iter()
        .filter(|t| alive(t, rt))
        .map(|t| {
            t.values()
                .iter()
                .map(|v| instantiate_value(v, rt))
                .collect()
        })
        .collect()
}

/// The Allen predicates the benchmark's queries use, over fixed
/// half-open intervals; an empty interval satisfies neither.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Allen {
    Overlaps,
    Before,
}

fn span(v: &Value) -> (TimePoint, TimePoint) {
    match v {
        Value::Span(s, e) => (*s, *e),
        other => panic!("expected an instantiated interval, got {other:?}"),
    }
}

impl Allen {
    pub fn holds(self, l: &Value, r: &Value) -> bool {
        let ((ls, le), (rs, re)) = (span(l), span(r));
        let nonempty = ls < le && rs < re;
        nonempty
            && match self {
                Allen::Overlaps => ls < re && rs < le,
                Allen::Before => le <= rs,
            }
    }
}

/// Equi-join on `lk = rk` keeping pairs that satisfy `keep`; output rows
/// are `l ++ r`.
pub fn hash_join(
    left: &[Row],
    right: &[Row],
    lk: &[usize],
    rk: &[usize],
    keep: impl Fn(&[Value], &[Value]) -> bool,
) -> Vec<Row> {
    let mut index: HashMap<Vec<&Value>, Vec<&Row>> = HashMap::new();
    for r in right {
        index
            .entry(rk.iter().map(|&c| &r[c]).collect())
            .or_default()
            .push(r);
    }
    let mut out = Vec::new();
    for l in left {
        let key: Vec<&Value> = lk.iter().map(|&c| &l[c]).collect();
        for r in index.get(&key).into_iter().flatten() {
            if keep(l, r) {
                out.push(l.iter().chain(r.iter()).cloned().collect());
            }
        }
    }
    out
}

/// The fingerprint of a row bag as a set.
pub fn fingerprint(rows: Vec<Row>) -> Fingerprint {
    let set: HashSet<Row> = rows.into_iter().collect();
    Fingerprint::of_rows(set.iter())
}

/// Checks the oracle against answers computed by hand on the paper's
/// bug-tracker running example (Sec. II): bugs `B`, patches `P` and
/// technical leads `L`, joined on the component with `before` (B, P) and
/// `overlaps` (B, L) at three reference times.
pub fn self_check() -> Result<(), String> {
    let iv = |v: OngoingInterval| Value::Interval(v);
    let t = |vals: Vec<Value>| Tuple::base(vals);
    let spam = || Value::str("Spam filter");
    let bugs = [
        t(vec![
            Value::Int(500),
            spam(),
            iv(OngoingInterval::from_until_now(md(1, 25))),
        ]),
        t(vec![
            Value::Int(501),
            spam(),
            iv(OngoingInterval::fixed(md(3, 30), md(8, 21))),
        ]),
    ];
    let patches = [
        t(vec![
            Value::Int(201),
            spam(),
            iv(OngoingInterval::fixed(md(8, 15), md(8, 24))),
        ]),
        t(vec![
            Value::Int(202),
            spam(),
            iv(OngoingInterval::fixed(md(8, 24), md(8, 27))),
        ]),
    ];
    let leads = [
        t(vec![
            Value::str("Ann"),
            spam(),
            iv(OngoingInterval::fixed(md(1, 20), md(8, 18))),
        ]),
        t(vec![
            Value::str("Bob"),
            spam(),
            iv(OngoingInterval::from_until_now(md(8, 18))),
        ]),
    ];
    // (rt, B before P as (BID, PID), B overlaps L as (BID, Name)), by hand:
    // at 08/01 b1 = [01/25, 08/01) ends before both patches, b2 = [03/30,
    // 08/21) only before p2; l2 = [08/18, 08/01) is empty. At 08/20 b1 =
    // [01/25, 08/20) no longer precedes p1 = [08/15, 08/24). At 09/01 b1
    // precedes no patch, and l2 = [08/18, 09/01) overlaps both bugs.
    type Case = (TimePoint, Vec<(i64, i64)>, Vec<(i64, &'static str)>);
    let cases: [Case; 3] = [
        (
            md(8, 1),
            vec![(500, 201), (500, 202), (501, 202)],
            vec![(500, "Ann"), (501, "Ann")],
        ),
        (
            md(8, 20),
            vec![(500, 202), (501, 202)],
            vec![(500, "Ann"), (500, "Bob"), (501, "Ann"), (501, "Bob")],
        ),
        (
            md(9, 1),
            vec![(501, 202)],
            vec![(500, "Ann"), (500, "Bob"), (501, "Ann"), (501, "Bob")],
        ),
    ];
    for (rt, before, overlaps) in cases {
        let (b, p, l) = (
            instantiate(&bugs, rt),
            instantiate(&patches, rt),
            instantiate(&leads, rt),
        );
        let bp: HashSet<(i64, i64)> =
            hash_join(&b, &p, &[1], &[1], |x, y| Allen::Before.holds(&x[2], &y[2]))
                .iter()
                .map(|r| (r[0].as_int().unwrap(), r[3].as_int().unwrap()))
                .collect();
        let bl: HashSet<(i64, String)> = hash_join(&b, &l, &[1], &[1], |x, y| {
            Allen::Overlaps.holds(&x[2], &y[2])
        })
        .iter()
        .map(|r| (r[0].as_int().unwrap(), r[3].as_str().unwrap().to_string()))
        .collect();
        let want_bp: HashSet<(i64, i64)> = before.into_iter().collect();
        let want_bl: HashSet<(i64, String)> = overlaps
            .into_iter()
            .map(|(b, n)| (b, n.to_string()))
            .collect();
        if bp != want_bp || bl != want_bl {
            return Err(format!(
                "oracle disagrees with the hand-computed running example at rt {rt:?}: \
                 before {bp:?} vs {want_bp:?}, overlaps {bl:?} vs {want_bl:?}"
            ));
        }
    }
    Ok(())
}
