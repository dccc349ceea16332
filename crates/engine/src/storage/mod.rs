//! Storage substrate: tuple codec, byte layout model, and the durability
//! stack (checksums, chunk files, write-ahead log, manifest, fault
//! injection, durable state).
//!
//! The durable layout and its crash-recovery contract are documented on
//! [`durable`]; the individual formats on [`wal`], [`chunkfile`] and
//! [`manifest`].

pub mod cache;
pub mod checksum;
pub mod chunkfile;
pub mod codec;
pub mod durable;
pub mod fault;
pub mod layout;
pub mod manifest;
pub mod vfs;
pub mod wal;

pub use cache::{CacheStats, ChunkCache, CHUNK_DECODE_US_METRIC, CHUNK_READ_US_METRIC};
pub use durable::{DurableOptions, DurableStats};
pub use fault::{FaultFs, FaultKind, FaultMode, FaultPlan, FaultVfs, OpKind, TempDir};
pub use layout::{measure_relation, measure_tuple, RelationFootprint, TupleFootprint};
pub use vfs::{DiskError, RealFs, Vfs};
