//! # sjmp-kv — Redis and RedisJMP (Section 5.3)
//!
//! A Redis-style key-value store built twice over the same storage
//! engine, reproducing the paper's comparison:
//!
//! * **Classic Redis** ([`server::RedisServer`]): a single-threaded
//!   server process owns the data; clients send RESP commands over
//!   simulated UNIX-domain sockets and pay per-message kernel costs.
//! * **RedisJMP** ([`jmp::JmpClient`]): no server process at all. The
//!   store lives in a lockable segment inside a shared VAS; clients
//!   *switch into* the address space and run the command path themselves.
//!   GETs enter through a read-only mapping (shared lock, parallel
//!   readers); SETs through a writable mapping (exclusive lock); each
//!   client brings a private scratch heap for command parsing, and the
//!   hash table resizes only under the exclusive lock.
//!
//! The storage engine ([`dict::SegDict`]) is a chaining hash table with
//! Redis-style incremental rehash whose buckets, entries, keys, and
//! values all live in segment memory behind the simulated MMU — pointers
//! are plain virtual addresses valid in any attaching process.
//!
//! [`mod@bench`] regenerates Figure 10 (GET/SET throughput vs. client count
//! and the mixed-ratio sweep) with a deterministic discrete-event
//! simulation fed by per-op costs measured from these code paths.
//!
//! Beyond the paper's closed loops, [`mod@shard`] scales RedisJMP out —
//! the store consistent-hash-sharded over multiple segments/VASes with
//! admission control and pressure-driven read-only degradation — and
//! [`mod@overload`] drives the sharded store with *open-loop* traffic
//! (Poisson and bursty arrivals) to measure goodput, shed rate, and
//! tail latency across the saturation point.

pub mod bench;
pub mod dict;
pub mod jmp;
pub mod overload;
pub mod resp;
pub mod server;
pub mod shard;

pub use bench::{
    measure_costs, measure_costs_on, run_classic, run_jmp, KvBenchConfig, OpCosts, Throughput,
};
pub use dict::{DictStats, SegDict};
pub use jmp::{JmpClient, JoinOpts};
pub use overload::{
    rps_to_mean_gap, run_overload, run_overload_at, saturation_rps, OverloadConfig, OverloadResult,
};
pub use resp::{Command, CommandRef, Reply, RespError};
pub use server::RedisServer;
pub use shard::{RejectReason, ShardError, ShardHealth, ShardRouter, ShardedKv, MAX_SHARDS};
