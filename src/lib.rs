//! # spacejmp — programming with multiple virtual address spaces
//!
//! A comprehensive Rust reproduction of *SpaceJMP: Programming with
//! Multiple Virtual Address Spaces* (El Hajj, Merritt, Zellweger, et al.,
//! ASPLOS 2016).
//!
//! SpaceJMP promotes virtual address spaces to first-class OS objects:
//! processes create, name, attach, and **switch** between many address
//! spaces, with **lockable segments** as the unit of sharing and
//! protection. This lets data-centric applications address more physical
//! memory than their VA bits cover, keep pointer-rich data structures
//! alive across process lifetimes without serialization, and share large
//! memory between processes without a server in the middle.
//!
//! The paper's prototypes live inside DragonFly BSD and Barrelfish on
//! real x86-64 hardware; this reproduction supplies those layers as
//! simulated substrates (see `DESIGN.md` for the substitution map):
//!
//! * [`mem`] — simulated hardware: sparse physical memory, 4-level page
//!   tables, an ASID-tagged TLB, per-core MMUs, and a cycle cost model
//!   calibrated from the paper's Tables 1-2 and Figure 1;
//! * [`sim`] — the deterministic multi-core simulation engine: per-core
//!   cycle clocks, the event queue, busy-core reservation, and FIFO
//!   reader-writer locks shared by every layer above;
//! * [`blk`] — the durability substrate: a simulated block device with
//!   explicit flush barriers and crash semantics, a write-ahead journal,
//!   and the crash-consistent snapshot store behind swap and
//!   `vas_save`/`vas_load`;
//! * [`os`] — the kernel substrate: processes pinned to cores, multiple
//!   vmspaces, VM objects, mmap/munmap, faults, and capabilities
//!   (Barrelfish flavor);
//! * [`core`] — **the paper's contribution**: first-class VASes, lockable
//!   segments, and the Figure 3 API (`vas_create/attach/switch/...`,
//!   `seg_alloc/attach/...`), plus segment-resident heaps;
//! * [`alloc`] — the dlmalloc-style `mspace` allocator whose state lives
//!   inside the managed segment;
//! * [`safety`] — the Section 4.3 compiler support: SSA IR, the
//!   `VASvalid`/`VASin` dataflow analysis, check insertion, and a
//!   tagged-pointer interpreter;
//! * [`rpc`] — the communication baselines (URPC rings, message passing,
//!   sockets);
//! * [`gups`], [`kv`], [`genome`] — the three evaluation applications:
//!   GUPS, Redis/RedisJMP, and the SAMTools workflow;
//! * [`analyze`] — the race & lock-order analyzer: a static lockset
//!   pass over the safety IR, trace-replay data-race and deadlock-cycle
//!   detection, and kernel audit lints (driven by `sjmp-lint`).
//!
//! # Quickstart
//!
//! The Figure 4 pattern — create a VAS, give it a segment, attach,
//! switch, and use plain pointers:
//!
//! ```
//! use spacejmp::prelude::*;
//!
//! # fn main() -> Result<(), spacejmp::core::SjError> {
//! let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M2));
//! let pid = sj.kernel_mut().spawn("app", Creds::new(100, 100))?;
//!
//! let va = VirtAddr::new(0x1000_C0DE_0000);
//! let vid = sj.vas_create(pid, "v0", Mode(0o660))?;
//! let sid = sj.seg_alloc(pid, "s0", va, 1 << 20, Mode(0o660))?;
//! sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite)?;
//!
//! let vh = sj.vas_attach(pid, vid)?;
//! sj.vas_switch(pid, vh)?;
//! sj.kernel_mut().store_u64(pid, va, 42)?;
//! assert_eq!(sj.kernel_mut().load_u64(pid, va)?, 42);
//! # Ok(()) }
//! ```
//!
//! Run the experiment harness with, for example,
//! `cargo run -p sjmp-bench --bin fig8_gups` — see `EXPERIMENTS.md` for
//! the full paper-vs-measured index.

pub use sjmp_alloc as alloc;
pub use sjmp_analyze as analyze;
pub use sjmp_blk as blk;
pub use sjmp_genome as genome;
pub use sjmp_gups as gups;
pub use sjmp_kv as kv;
pub use sjmp_mem as mem;
pub use sjmp_os as os;
pub use sjmp_rpc as rpc;
pub use sjmp_safety as safety;
pub use sjmp_sim as sim;
pub use sjmp_trace as trace;
pub use spacejmp_core as core;

/// The common imports for SpaceJMP programs.
pub mod prelude {
    pub use sjmp_mem::{Asid, CoreCtx, KernelFlavor, Machine, MachineId, PteFlags, VirtAddr};
    pub use sjmp_os::{Backing, Creds, Kernel, Mode, Pid};
    pub use spacejmp_core::{
        AttachMode, RetryPolicy, SegCtl, SegId, SjError, SjResult, SpaceJmp, VasCtl, VasHandle,
        VasHeap, VasId,
    };
}
