//! # spacejmp-core — first-class virtual address spaces
//!
//! This crate implements the primary contribution of *SpaceJMP:
//! Programming with Multiple Virtual Address Spaces* (ASPLOS 2016) over
//! the simulated kernel of [`sjmp_os`]:
//!
//! * **Virtual address spaces as first-class objects** ([`vas::Vas`]):
//!   created, named, cloned, and destroyed independently of processes; a
//!   VAS can outlive its creator and be attached by many processes at
//!   once.
//! * **Lockable segments** ([`segment::Segment`]): contiguous,
//!   fixed-address, physically-backed memory regions that are the unit of
//!   sharing and protection. Switching into a VAS acquires each lockable
//!   segment's reader/writer lock in the mode the VAS maps it (read-only
//!   mapped segments are acquired shared, writable ones exclusive).
//! * **The Figure 3 API** ([`spacejmp::SpaceJmp`]): `vas_create`,
//!   `vas_find`, `vas_clone`, `vas_attach`, `vas_detach`, `vas_switch`,
//!   `vas_ctl`, `seg_alloc`, `seg_find`, `seg_clone`, `seg_attach`,
//!   `seg_detach`, `seg_ctl`. `seg_alloc` reserves DRAM;
//!   `seg_alloc_with` takes any [`sjmp_os::Backing`] (superpage-aligned,
//!   demand-paged and swappable, or NVM).
//! * **Persistence across reboots**: `vas_save`/`vas_load` write a VAS
//!   to the kernel's snapshot disk and rebuild it, pointers intact, on a
//!   freshly booted machine.
//! * **VAS-aware heap allocation** ([`heap`]): `malloc`/`free` backed by
//!   per-segment allocator state, following the dlmalloc `mspace` design
//!   of Section 4.1.
//!
//! Attachment instantiates a per-process `vmspace` whose root page table
//! links the VAS's shared template subtrees (the Barrelfish design), so
//! segment attach/detach propagates to every attached process, and
//! switching is a CR3 reload plus lock acquisition — the cycle costs of
//! the paper's Table 2 are reproduced exactly.
//!
//! See the crate-level example on [`spacejmp::SpaceJmp`] for the Figure 4
//! usage pattern.

pub mod error;
pub mod heap;
pub mod image;
pub mod segment;
pub mod spacejmp;
pub mod vas;

pub use error::{SjError, SjResult};
pub use heap::VasHeap;
pub use image::{Catalog, SegmentImage, VasImage};
pub use segment::{AttachMode, SegId, Segment};
pub use spacejmp::{RetryPolicy, SegCtl, SjStats, SpaceJmp, VasCtl};
pub use vas::{Attachment, Vas, VasHandle, VasId};
