//! Binary tuple codec.
//!
//! Serializes tuples into the byte layout described in
//! [`super::layout`] — the rows of chunk files ([`super::chunkfile`]) and
//! WAL records ([`super::wal`]). The codec is self-describing per value (a
//! 1-byte tag precedes each payload) and round-trips exactly. Decoding
//! parses straight off the borrowed bytes; a chunk's worth of tuples
//! shares one scratch buffer for the values.
//!
//! Time points are stored as full 8-byte ticks (the 4-byte date figure in
//! the *layout model* mirrors PostgreSQL's `date`; the wire codec keeps the
//! full i64 so both granularities — dates and microsecond timestamps —
//! round-trip losslessly).

use crate::error::{EngineError, Result};
use bytes::{BufMut, Bytes};
use ongoing_core::{IntervalSet, OngoingInt, OngoingInterval, OngoingPoint, TimePoint};
use ongoing_relation::{Tuple, Value};

const TAG_INT: u8 = 0;
const TAG_STR: u8 = 1;
const TAG_BOOL: u8 = 2;
const TAG_TIME: u8 = 3;
const TAG_SPAN: u8 = 4;
const TAG_POINT: u8 = 5;
const TAG_INTERVAL: u8 = 6;
const TAG_ONGOING_INT: u8 = 7;

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(x) => {
            buf.put_u8(TAG_INT);
            buf.put_i64_le(*x);
        }
        Value::Str(s) => {
            buf.put_u8(TAG_STR);
            buf.put_u32_le(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
        Value::Bool(b) => {
            buf.put_u8(TAG_BOOL);
            buf.put_u8(u8::from(*b));
        }
        Value::Time(t) => {
            buf.put_u8(TAG_TIME);
            buf.put_i64_le(t.ticks());
        }
        Value::Span(s, e) => {
            buf.put_u8(TAG_SPAN);
            buf.put_i64_le(s.ticks());
            buf.put_i64_le(e.ticks());
        }
        Value::Point(p) => {
            buf.put_u8(TAG_POINT);
            buf.put_i64_le(p.a().ticks());
            buf.put_i64_le(p.b().ticks());
        }
        Value::Interval(i) => {
            buf.put_u8(TAG_INTERVAL);
            buf.put_i64_le(i.ts().a().ticks());
            buf.put_i64_le(i.ts().b().ticks());
            buf.put_i64_le(i.te().a().ticks());
            buf.put_i64_le(i.te().b().ticks());
        }
        Value::Count(c) => {
            buf.put_u8(TAG_ONGOING_INT);
            buf.put_u32_le(c.piece_count() as u32);
            for (start, coef, offset) in c.pieces() {
                buf.put_i64_le(start.ticks());
                buf.put_i64_le(coef);
                buf.put_i64_le(offset);
            }
        }
    }
}

/// A bounds-checked little-endian cursor over borrowed bytes. Every read
/// names the error it fails with, so a short input is a typed
/// [`EngineError::Storage`], never a panic.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(EngineError::Storage(what.into()));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N]> {
        let (head, rest) = self
            .buf
            .split_first_chunk::<N>()
            .ok_or_else(|| EngineError::Storage(what.into()))?;
        self.buf = rest;
        Ok(*head)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8> {
        Ok(self.array::<1>(what)?[0])
    }

    fn u32(&mut self, what: &'static str) -> Result<u32> {
        self.array(what).map(u32::from_le_bytes)
    }

    fn i64(&mut self, what: &'static str) -> Result<i64> {
        self.array(what).map(i64::from_le_bytes)
    }

    fn time(&mut self, what: &'static str) -> Result<TimePoint> {
        self.i64(what).map(TimePoint::new)
    }
}

fn point(a: TimePoint, b: TimePoint) -> Result<OngoingPoint> {
    OngoingPoint::new(a, b).map_err(|e| EngineError::Storage(e.to_string()))
}

fn get_value(r: &mut Reader<'_>) -> Result<Value> {
    let p = "truncated value payload";
    match r.u8("truncated value")? {
        TAG_INT => Ok(Value::Int(r.i64(p)?)),
        TAG_STR => {
            let len = r.u32(p)? as usize;
            let s = std::str::from_utf8(r.take(len, p)?)
                .map_err(|_| EngineError::Storage("invalid utf-8 string".into()))?;
            Ok(Value::str(s))
        }
        TAG_BOOL => Ok(Value::Bool(r.u8(p)? != 0)),
        TAG_TIME => Ok(Value::Time(r.time(p)?)),
        TAG_SPAN => {
            let raw: [u8; 16] = r.array(p)?;
            let (s, e) = split_pair(&raw);
            Ok(Value::Span(s, e))
        }
        TAG_POINT => {
            let raw: [u8; 16] = r.array(p)?;
            let (a, b) = split_pair(&raw);
            Ok(Value::Point(point(a, b)?))
        }
        TAG_INTERVAL => {
            let raw: [u8; 32] = r.array(p)?;
            let (tsa, tsb) = split_pair(&raw[..16]);
            let (tea, teb) = split_pair(&raw[16..]);
            Ok(Value::Interval(OngoingInterval::new(
                point(tsa, tsb)?,
                point(tea, teb)?,
            )))
        }
        TAG_ONGOING_INT => {
            let n = r.u32(p)? as usize;
            let mut pieces = Vec::with_capacity(n.min(r.buf.len() / 24));
            for _ in 0..n {
                let start = r.time(p)?;
                let coef = r.i64(p)?;
                let offset = r.i64(p)?;
                pieces.push((start, coef, offset));
            }
            let c = OngoingInt::from_pieces(pieces)
                .ok_or_else(|| EngineError::Storage("malformed ongoing integer".into()))?;
            Ok(Value::Count(c))
        }
        t => Err(EngineError::Storage(format!("unknown value tag {t}"))),
    }
}

/// Two little-endian time points from a 16-byte slice.
fn split_pair(raw: &[u8]) -> (TimePoint, TimePoint) {
    let (a, b) = raw.split_at(8);
    let tick = |s: &[u8]| TimePoint::new(i64::from_le_bytes(s.try_into().expect("8 bytes")));
    (tick(a), tick(b))
}

/// Writes `t`'s unframed encoding (values + `RT`) to the end of `buf`.
fn write_tuple(buf: &mut Vec<u8>, t: &Tuple) {
    buf.put_u16_le(t.arity() as u16);
    for v in t.values() {
        put_value(buf, v);
    }
    let rt = t.rt();
    buf.put_u32_le(rt.cardinality() as u32);
    for r in rt.ranges() {
        buf.put_i64_le(r.ts().ticks());
        buf.put_i64_le(r.te().ticks());
    }
}

/// Appends `t` to `buf` framed as `[tuple len u32][tuple bytes]` — the
/// row framing of chunk files and WAL records. The tuple is written in
/// place and its length back-patched, so no per-tuple buffer exists.
pub fn encode_tuple_into(buf: &mut Vec<u8>, t: &Tuple) {
    let at = buf.len();
    buf.put_u32_le(0);
    write_tuple(buf, t);
    let len = (buf.len() - at - 4) as u32;
    buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Encodes a tuple (values + `RT`) into bytes, unframed.
pub fn encode_tuple(t: &Tuple) -> Bytes {
    let mut buf = Vec::with_capacity(64);
    write_tuple(&mut buf, t);
    buf.into()
}

/// Decodes a tuple encoded by [`encode_tuple`].
pub fn decode_tuple(buf: &[u8]) -> Result<Tuple> {
    decode_tuple_with(buf, &mut Vec::new())
}

/// [`decode_tuple`] reusing `scratch` for the values, so decoding a run
/// of tuples (a chunk) allocates per tuple only the shared value slice,
/// one `Arc<str>` per string and the `RT` ranges. `scratch` is left
/// empty.
pub(crate) fn decode_tuple_with(buf: &[u8], scratch: &mut Vec<Value>) -> Result<Tuple> {
    let mut r = Reader { buf };
    let arity = u16::from_le_bytes(r.array("truncated tuple")?) as usize;
    scratch.clear();
    scratch.reserve(arity);
    for _ in 0..arity {
        scratch.push(get_value(&mut r)?);
    }
    let n = r.u32("truncated RT")? as usize;
    let raw = r.take(n.saturating_mul(16), "truncated RT range")?;
    // The common case is one range; `range` builds exactly what
    // `from_ranges` would (empty for `ts >= te`) without its buffers.
    let rt = if n == 1 {
        let (ts, te) = split_pair(raw);
        IntervalSet::range(ts, te)
    } else {
        IntervalSet::from_ranges(raw.chunks_exact(16).map(split_pair))
    };
    Ok(Tuple::from_shared(scratch.drain(..).collect(), rt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ongoing_core::time::tp;

    fn roundtrip(t: &Tuple) {
        let bytes = encode_tuple(t);
        let back = decode_tuple(&bytes).unwrap();
        assert_eq!(&back, t);
    }

    #[test]
    fn all_value_kinds_round_trip() {
        let t = Tuple::with_rt(
            vec![
                Value::Int(-42),
                Value::str("héllo wörld"),
                Value::Bool(true),
                Value::Time(tp(123)),
                Value::Span(tp(1), tp(9)),
                Value::Point(OngoingPoint::now()),
                Value::Interval(OngoingInterval::from_until_now(tp(7))),
            ],
            IntervalSet::from_ranges([(tp(0), tp(5)), (tp(10), TimePoint::POS_INF)]),
        );
        roundtrip(&t);
    }

    #[test]
    fn empty_string_and_full_rt() {
        let t = Tuple::base(vec![Value::str("")]);
        roundtrip(&t);
    }

    #[test]
    fn limits_round_trip() {
        let t = Tuple::base(vec![
            Value::Time(TimePoint::NEG_INF),
            Value::Time(TimePoint::POS_INF),
            Value::Point(OngoingPoint::growing(tp(3))),
            Value::Point(OngoingPoint::limited(tp(3))),
        ]);
        roundtrip(&t);
    }

    #[test]
    fn truncated_input_is_an_error() {
        let t = Tuple::base(vec![Value::Int(7)]);
        let bytes = encode_tuple(&t);
        for cut in 0..bytes.len() {
            assert!(
                decode_tuple(&bytes[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn garbage_tag_is_an_error() {
        let mut raw = encode_tuple(&Tuple::base(vec![Value::Int(7)])).to_vec();
        raw[2] = 99; // clobber the value tag
        assert!(decode_tuple(&raw).is_err());
    }

    #[test]
    fn invalid_point_is_an_error() {
        // Hand-craft a point with a > b.
        let mut buf = Vec::new();
        buf.put_u16_le(1);
        buf.put_u8(5); // TAG_POINT
        buf.put_i64_le(9);
        buf.put_i64_le(3);
        buf.put_u32_le(0);
        assert!(decode_tuple(&buf).is_err());
    }

    /// Hand-encodes a one-column tuple whose `RT` stores `ranges` verbatim.
    fn raw_rt(ranges: &[(i64, i64)]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_u16_le(1);
        buf.put_u8(TAG_INT);
        buf.put_i64_le(7);
        buf.put_u32_le(ranges.len() as u32);
        for &(ts, te) in ranges {
            buf.put_i64_le(ts);
            buf.put_i64_le(te);
        }
        buf
    }

    #[test]
    fn stored_ranges_decode_as_from_ranges_would() {
        let cases: &[&[(i64, i64)]] = &[
            &[],
            &[(3, 9)],
            &[(9, 3)],
            &[(5, 5)],
            &[(i64::MIN, i64::MAX)],
            &[(20, 30), (0, 5), (4, 10)],
            &[(1, 1), (7, 2)],
        ];
        for ranges in cases {
            let t = decode_tuple(&raw_rt(ranges)).unwrap();
            let expect = IntervalSet::from_ranges(ranges.iter().map(|&(a, b)| (tp(a), tp(b))));
            assert_eq!(t.rt(), &expect, "stored ranges {ranges:?}");
            assert_eq!(t.values(), &[Value::Int(7)]);
        }
    }

    #[test]
    fn invalid_utf8_is_a_typed_error() {
        let mut buf = Vec::new();
        buf.put_u16_le(1);
        buf.put_u8(TAG_STR);
        buf.put_u32_le(2);
        buf.put_slice(&[0xC3, 0x28]);
        buf.put_u32_le(0);
        match decode_tuple(&buf) {
            Err(EngineError::Storage(m)) => assert_eq!(m, "invalid utf-8 string"),
            other => panic!("expected a storage error, got {other:?}"),
        }
    }
}
