//! # sjmp-sim — the deterministic multi-core simulation engine
//!
//! Every multi-actor experiment in the SpaceJMP reproduction — the
//! Figure 8 GUPS designs, the Figure 10 Redis closed loops, the URPC and
//! message-passing baselines — runs on the primitives in this crate
//! rather than on host threads. Host threads would measure the machine
//! the suite happens to run on; these primitives measure the *modeled*
//! machine, deterministically, so two identical runs produce bit-identical
//! results.
//!
//! The engine has two cooperating halves:
//!
//! * **Time** — [`CycleClock`] is one hardware thread's cycle counter;
//!   [`CoreClocks`] is the full machine's set of per-core counters, where
//!   *global* time is the per-core maximum and blocking interactions are
//!   expressed with [`CoreClocks::catch_up`] (a core that waits for
//!   another jumps forward to the moment the awaited work finished).
//!   [`CoreCtx`] names the hardware thread a piece of work executes on.
//! * **Events** — [`EventQueue`] orders scheduled work by
//!   `(time, insertion order)`; [`Sim`] drains it through a handler;
//!   [`Cores`] models a bounded core pool; [`SimRwLock`] models the FIFO
//!   reader/writer segment lock; [`ClosedLoop`] tracks the classic
//!   closed-loop client population used by the throughput benchmarks;
//!   [`OpenLoop`] generates Poisson or bursty open-loop arrival
//!   sequences for the overload experiments, where offered load is
//!   decoupled from service completions.
//! * **Randomness** — [`SimRng`] is the workspace's seeded PRNG;
//!   workloads, fault plans, and arrival processes all draw from it so
//!   any run can be replayed exactly.
//! * **Id tables** — [`IdTable`] is the table every crate uses for
//!   values keyed by simulator-minted integer ids: the id is the slot
//!   index, so lookups hash nothing and iteration runs in id order.
//!   [`IdMap`], a `HashMap` with the fixed [`IdHasher`], is left for
//!   integer keys that are not minted ids (the MMU's host walk cache).
//!
//! The crate is dependency-free and sits below `sjmp-mem`: the MMU, the
//! kernel, and the workloads all charge cycles to clocks defined here.

pub mod clock;
pub mod cores;
pub mod engine;
pub mod event;
pub mod idmap;
pub mod idtable;
pub mod openloop;
pub mod rng;
pub mod rwlock;

pub use clock::{CoreClocks, CoreCtx, CycleClock};
pub use cores::Cores;
pub use engine::{ClosedLoop, Sim};
pub use event::EventQueue;
pub use idmap::{IdHasher, IdMap};
pub use idtable::{IdTable, TableId};
pub use openloop::{Arrival, OpenLoop, ReqId};
pub use rng::SimRng;
pub use rwlock::{ActorId, LockMode, SimRwLock};
