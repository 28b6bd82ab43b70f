//! # sjmp-os — the simulated operating-system substrate for SpaceJMP
//!
//! SpaceJMP (ASPLOS 2016) is implemented inside two real kernels —
//! DragonFly BSD and Barrelfish. This crate reproduces the kernel layer
//! those prototypes modify: processes with **multiple vmspace instances**,
//! BSD-style VM objects, eager/lazy page-table management over the
//! simulated hardware of [`sjmp_mem`], per-flavor kernel-entry costs, and
//! a miniature capability system for the Barrelfish personality. The
//! discrete-event primitives multi-actor experiments run on live in the
//! `sjmp-sim` crate; every syscall runs on a [`CoreCtx`] resolved from
//! the calling process's pinned core, so every modeled cost lands on the
//! executing hardware thread's clock.
//!
//! The SpaceJMP abstractions themselves (first-class VASes, lockable
//! segments, the Figure 3 API) live in the `spacejmp-core` crate, layered
//! on top of this one just as the paper layers its implementation on the
//! BSD memory subsystem.
//!
//! # Examples
//!
//! ```
//! use sjmp_mem::{KernelFlavor, MachineId, PageSize, PteFlags};
//! use sjmp_os::acl::Creds;
//! use sjmp_os::kernel::{Kernel, MmapSource};
//!
//! # fn main() -> Result<(), sjmp_os::error::OsError> {
//! let mut kernel = Kernel::new(KernelFlavor::DragonFly, MachineId::M2);
//! let pid = kernel.spawn("worker", Creds::new(1000, 1000))?;
//! kernel.activate(pid)?;
//! let flags = PteFlags::USER | PteFlags::WRITABLE;
//! let va = kernel.sys_mmap(pid, MmapSource::New(PageSize::Size4K), 1 << 20, flags, false)?;
//! kernel.store_u64(pid, va, 42)?;
//! assert_eq!(kernel.load_u64(pid, va)?, 42);
//! # Ok(()) }
//! ```

pub mod acl;
pub mod caps;
pub mod error;
pub mod fault;
pub mod kernel;
pub mod process;
pub mod vmobject;
pub mod vmspace;

pub use acl::{Acl, Creds, Mode};
pub use caps::{CSpace, CapKind, CapRights, CapSlot, Capability, ObjClass};
pub use error::{CapError, OsError};
pub use fault::{FaultOutcome, FaultPlan, FaultSite, FaultStats};
pub use kernel::{
    Kernel, KernelSnapshot, KernelStats, MmapSource, OsResult, PhysStats, PressureLevel, ProcMem,
    GLOBAL_HI, GLOBAL_LO, PRIVATE_HI, PRIVATE_LO,
};
pub use process::{Pid, Process};
pub use sjmp_mem::cost::CoreCtx;
pub use sjmp_sim::{table_id, IdTable};
pub use vmobject::{Backing, PageSource, PageState, VmObject, VmObjectId};
pub use vmspace::{MapPolicy, Region, Vmspace, VmspaceId};
