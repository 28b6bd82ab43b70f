//! # sjmp-rpc — communication substrates SpaceJMP is compared against
//!
//! The paper evaluates address-space switching against classical
//! communication mechanisms. Two are reproduced here with the calibrated
//! cost model of [`sjmp_mem::cost`]:
//!
//! * [`urpc`] — Barrelfish's polled cache-line URPC channels (`URPC L` /
//!   `URPC X` in Figure 7);
//! * [`mp`] — the OpenMPI-style master/slave message passing of the GUPS
//!   "MP" design (Figure 8), including the busy-wait oversubscription
//!   collapse past the machine's core count.
//!
//! The third, the UNIX-domain sockets of baseline Redis (Figure 10), is
//! charged per message by `sjmp_kv::bench::run_classic`.

pub mod mp;
pub mod urpc;

pub use mp::{MpCluster, MpStats};
pub use urpc::{Placement, RpcError, UrpcChannel, UrpcPair, CACHE_LINE, LINE_PAYLOAD};
