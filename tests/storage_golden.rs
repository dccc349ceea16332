//! Golden bytes of the on-disk formats.
//!
//! The constants below were recorded from the reference encoder and pin
//! the chunk-file, WAL and MANIFEST byte layouts: any change to tuple
//! encoding, chunk framing, WAL record framing or manifest layout fails
//! here. The fixture covers every value kind, reference times of 0, 1
//! and 3 ranges, ±∞ bounds, and empty, ASCII and non-ASCII strings. A
//! directory holding the recorded bytes must also open and verify, both
//! loaded eagerly and paged through the chunk cache.

use ongoing_core::time::tp;
use ongoing_core::{IntervalSet, OngoingInt, OngoingInterval, OngoingPoint, TimePoint};
use ongoing_relation::{Attribute, Expr, OngoingRelation, Schema, Tuple, Value, ValueType};
use ongoingdb::engine::modify::Modifier;
use ongoingdb::engine::storage::chunkfile::{decode_chunk, encode_chunk};
use ongoingdb::engine::storage::{DurableOptions, TempDir};
use ongoingdb::engine::Database;
use std::path::Path;

fn schema() -> Schema {
    Schema::new(vec![
        Attribute::new("K", ValueType::Int),
        Attribute::new("S", ValueType::Str),
        Attribute::new("B", ValueType::Bool),
        Attribute::new("T", ValueType::Time),
        Attribute::new("SP", ValueType::Span),
        Attribute::new("P", ValueType::OngoingPoint),
        Attribute::new("VT", ValueType::OngoingInterval),
        Attribute::new("C", ValueType::OngoingInt),
    ])
}

fn row(k: i64, s: &str, b: bool, t: TimePoint, vt: OngoingInterval, rt: IntervalSet) -> Tuple {
    let count = OngoingInt::from_pieces([(TimePoint::NEG_INF, 0, 3), (tp(10), 1, -7)])
        .expect("canonical pieces");
    Tuple::with_rt(
        vec![
            Value::Int(k),
            Value::str(s),
            Value::Bool(b),
            Value::Time(t),
            Value::Span(tp(k.rem_euclid(50)), TimePoint::POS_INF),
            Value::Point(OngoingPoint::growing(tp(3))),
            Value::Interval(vt),
            Value::Count(count),
        ],
        rt,
    )
}

/// Mixed-type rows whose `RT` holds 0, 1 and 3 ranges, with ±∞ bounds
/// in values and ranges, and empty, ASCII and non-ASCII strings.
fn rows() -> Vec<Tuple> {
    vec![
        row(
            1,
            "",
            true,
            TimePoint::NEG_INF,
            OngoingInterval::from_until_now(tp(7)),
            IntervalSet::full(),
        ),
        row(
            -42,
            "héllo wörld",
            false,
            TimePoint::POS_INF,
            OngoingInterval::fixed(tp(2), tp(9)),
            IntervalSet::from_ranges([
                (tp(0), tp(5)),
                (tp(10), tp(20)),
                (tp(30), TimePoint::POS_INF),
            ]),
        ),
        row(
            i64::MAX,
            "ongoing",
            true,
            tp(123),
            OngoingInterval::from_now_until(tp(40)),
            IntervalSet::empty(),
        ),
        row(
            i64::MIN,
            "a longer string value, to span more than one CRC block",
            false,
            tp(-5),
            OngoingInterval::new(OngoingPoint::limited(tp(4)), OngoingPoint::now()),
            IntervalSet::range(TimePoint::NEG_INF, tp(100)),
        ),
    ]
}

fn k_eq(k: i64) -> Expr {
    Expr::Col(0).eq(Expr::lit(k))
}

fn opts() -> DurableOptions {
    DurableOptions {
        fsync: false,
        checkpoint_bytes: u64::MAX,
        memory_budget: u64::MAX,
    }
}

/// Writes the fixture directory: a table created, edited, checkpointed
/// (chunk file + MANIFEST with an overlay), then edited again (one WAL
/// commit record). Returns the table's final rows.
fn write_fixture(dir: &Path) -> Vec<Tuple> {
    let db = Database::open_with(dir, opts()).unwrap();
    db.create_table("G", OngoingRelation::from_tuples(schema(), rows()).unwrap())
        .unwrap();
    db.modify_table("G", |rel| {
        Modifier::new(rel, "VT")?.terminate(&k_eq(1), tp(50))
    })
    .unwrap();
    db.persist().unwrap();
    db.modify_table("G", |rel| {
        let mut m = Modifier::new(rel, "VT")?;
        m.insert_open(
            vec![
                Value::Int(7),
                Value::str("new"),
                Value::Bool(false),
                Value::Time(tp(8)),
                Value::Span(tp(1), tp(2)),
                Value::Point(OngoingPoint::now()),
                Value::Int(0),
                Value::Count(OngoingInt::constant(-1)),
            ],
            tp(60),
        )?;
        m.delete(&k_eq(-42))
    })
    .unwrap();
    let out = db.table("G").unwrap().data().iter().cloned().collect();
    out
}

/// `encode_chunk(&rows())`.
const CHUNK_IMAGE: &str = "\
    4f44433104000000a70000000800000100000000000000010000000002010300\
    00000000000080040100000000000000ffffffffffffff7f0503000000000000\
    00ffffffffffffff7f0607000000000000000700000000000000000000000000\
    0080ffffffffffffff7f07020000000000000000000080000000000000000003\
    000000000000000a000000000000000100000000000000f9ffffffffffffff01\
    0000000000000000000080ffffffffffffff7fd4000000080000d6ffffffffff\
    ffff010d00000068c3a96c6c6f2077c3b6726c64020003ffffffffffffff7f04\
    0800000000000000ffffffffffffff7f050300000000000000ffffffffffffff\
    7f06020000000000000002000000000000000900000000000000090000000000\
    000007020000000000000000000080000000000000000003000000000000000a\
    000000000000000100000000000000f9ffffffffffffff030000000000000000\
    00000005000000000000000a0000000000000014000000000000001e00000000\
    000000ffffffffffffff7f9e000000080000ffffffffffffff7f01070000006f\
    6e676f696e670201037b00000000000000040700000000000000ffffffffffff\
    ff7f050300000000000000ffffffffffffff7f060000000000000080ffffffff\
    ffffff7f28000000000000002800000000000000070200000000000000000000\
    80000000000000000003000000000000000a0000000000000001000000000000\
    00f9ffffffffffffff00000000dd000000080000000000000000008001360000\
    0061206c6f6e67657220737472696e672076616c75652c20746f207370616e20\
    6d6f7265207468616e206f6e652043524320626c6f636b020003fbffffffffff\
    ffff042a00000000000000ffffffffffffff7f050300000000000000ffffffff\
    ffffff7f06000000000000008004000000000000000000000000000080ffffff\
    ffffffff7f070200000000000000000000800000000000000000030000000000\
    00000a000000000000000100000000000000f9ffffffffffffff010000000000\
    00000000008064000000000000001b4765b4";
/// `MANIFEST` of the fixture directory.
const MANIFEST_IMAGE: &str = "\
    4f444d3101000000020000000000000002000000000000000100000001000000\
    470800010000004b000100000053010100000042020100000054030200000053\
    5004010000005005020000005654060100000043070000010000000100000000\
    00000004000000000000005f672ec1";
/// `chunks/1.odc` of the fixture directory.
const CHUNK_FILE_1: &str = "\
    4f44433104000000a70000000800000100000000000000010000000002010300\
    00000000000080040100000000000000ffffffffffffff7f0503000000000000\
    00ffffffffffffff7f0607000000000000000700000000000000000000000000\
    0080320000000000000007020000000000000000000080000000000000000003\
    000000000000000a000000000000000100000000000000f9ffffffffffffff01\
    0000000000000000000080ffffffffffffff7fd4000000080000d6ffffffffff\
    ffff010d00000068c3a96c6c6f2077c3b6726c64020003ffffffffffffff7f04\
    0800000000000000ffffffffffffff7f050300000000000000ffffffffffffff\
    7f06020000000000000002000000000000000900000000000000090000000000\
    000007020000000000000000000080000000000000000003000000000000000a\
    000000000000000100000000000000f9ffffffffffffff030000000000000000\
    00000005000000000000000a0000000000000014000000000000001e00000000\
    000000ffffffffffffff7f9e000000080000ffffffffffffff7f01070000006f\
    6e676f696e670201037b00000000000000040700000000000000ffffffffffff\
    ff7f050300000000000000ffffffffffffff7f060000000000000080ffffffff\
    ffffff7f28000000000000002800000000000000070200000000000000000000\
    80000000000000000003000000000000000a0000000000000001000000000000\
    00f9ffffffffffffff00000000dd000000080000000000000000008001360000\
    0061206c6f6e67657220737472696e672076616c75652c20746f207370616e20\
    6d6f7265207468616e206f6e652043524320626c6f636b020003fbffffffffff\
    ffff042a00000000000000ffffffffffffff7f050300000000000000ffffffff\
    ffffff7f06000000000000008004000000000000000000000000000080ffffff\
    ffffffff7f070200000000000000000000800000000000000000030000000000\
    00000a000000000000000100000000000000f9ffffffffffffff010000000000\
    0000000000806400000000000000ac9be77b";
/// `wal.log` of the fixture directory.
const WAL_IMAGE: &str = "\
    c3000000223e11c4030000000000000002010000004703000000009200000008\
    0000070000000000000001030000006e65770200030800000000000000040100\
    0000000000000200000000000000050000000000000080ffffffffffffff7f06\
    3c000000000000003c000000000000000000000000000080ffffffffffffff7f\
    070100000000000000000000800000000000000000ffffffffffffffff010000\
    000000000000000080ffffffffffffff7f010100000000000000010000000100\
    0000000000000000000002";

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit pair"))
        .collect()
}

/// The fixture directory's files, relative path → recorded bytes.
fn golden_files() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("MANIFEST", unhex(MANIFEST_IMAGE)),
        ("chunks/1.odc", unhex(CHUNK_FILE_1)),
        ("wal.log", unhex(WAL_IMAGE)),
    ]
}

/// Every file under `dir`, relative path → bytes, sorted by path.
fn files_under(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for sub in ["", "chunks"] {
        for entry in std::fs::read_dir(dir.join(sub)).unwrap() {
            let path = entry.unwrap().path();
            if path.is_file() {
                let rel = path
                    .strip_prefix(dir)
                    .unwrap()
                    .to_string_lossy()
                    .into_owned();
                out.push((rel, std::fs::read(&path).unwrap()));
            }
        }
    }
    out.sort();
    out
}

#[test]
fn chunk_image_is_byte_identical() {
    let golden = unhex(CHUNK_IMAGE);
    assert_eq!(encode_chunk(&rows()), golden);
    assert_eq!(decode_chunk(&golden).unwrap(), rows());
}

#[test]
fn durable_directory_is_byte_identical() {
    let dir = TempDir::new("golden-write");
    write_fixture(dir.path());
    let written = files_under(dir.path());
    let golden: Vec<(String, Vec<u8>)> = golden_files()
        .into_iter()
        .map(|(p, b)| (p.to_string(), b))
        .collect();
    assert_eq!(written.len(), golden.len(), "file set differs");
    for ((path, bytes), (gpath, gbytes)) in written.iter().zip(&golden) {
        assert_eq!(path, gpath);
        assert_eq!(bytes, gbytes, "{path} differs from its recorded bytes");
    }
}

#[test]
fn recorded_directory_opens_and_verifies() {
    let reference = TempDir::new("golden-reference");
    let expect = write_fixture(reference.path());
    assert_eq!(expect.len(), 4);
    // Eagerly loaded, and cold behind a chunk cache too small to hold it.
    for memory_budget in [u64::MAX, 1] {
        let dir = TempDir::new("golden-read");
        std::fs::create_dir_all(dir.path().join("chunks")).unwrap();
        for (path, bytes) in golden_files() {
            std::fs::write(dir.path().join(path), bytes).unwrap();
        }
        let db = Database::open_with(
            dir.path(),
            DurableOptions {
                memory_budget,
                ..opts()
            },
        )
        .unwrap();
        let got: Vec<Tuple> = db.table("G").unwrap().data().iter().cloned().collect();
        assert_eq!(got, expect, "budget {memory_budget}");
    }
}
