//! # sjmp-mem — simulated memory hardware for the SpaceJMP reproduction
//!
//! This crate is the hardware substrate under the SpaceJMP operating-system
//! reproduction (ASPLOS 2016): simulated physical memory, x86-64-style
//! four-level page tables, an ASID-tagged TLB, a per-core MMU, and a cycle
//! cost model calibrated from the paper's measurements.
//!
//! The layering mirrors a real machine:
//!
//! * [`phys`] — sparse, demand-materialized DRAM ([`phys::PhysMem`]) with a
//!   frame allocator.
//! * [`paging`] — page tables stored *inside* simulated frames, with
//!   mapping, unmapping, walking, and subtree sharing.
//! * [`tlb`] — a set-associative TLB with 12-bit ASID tags, where tag zero
//!   is reserved to always flush (the paper's convention).
//! * [`backend`] — how the MMU charges translation ([`backend::Backend`]):
//!   a TLB and the four-level walk, or the no-VM base+bound check over
//!   the same tree.
//! * [`mmu`] — CR3, translation, and data access with cycle accounting.
//! * [`cost`] — machine profiles (Table 1) and event costs (Table 2,
//!   Figure 1 anchors), plus the shared [`cost::CycleClock`].
//!
//! # Examples
//!
//! Building an address space and accessing memory through it:
//!
//! ```
//! use sjmp_mem::addr::{PageSize, VirtAddr};
//! use sjmp_mem::cost::{CostModel, CycleClock};
//! use sjmp_mem::mmu::Mmu;
//! use sjmp_mem::paging::{self, PteFlags};
//! use sjmp_mem::phys::PhysMem;
//! use sjmp_mem::tlb::Asid;
//!
//! # fn main() -> Result<(), sjmp_mem::error::MemError> {
//! let mut phys = PhysMem::new(16 << 20);
//! let root = paging::new_root(&mut phys)?;
//! let frame = phys.alloc_frame()?;
//! paging::map(&mut phys, root, VirtAddr::new(0x4000), frame.base(),
//!             PageSize::Size4K, PteFlags::WRITABLE | PteFlags::USER)?;
//!
//! let mut mmu = Mmu::new(512, 4, CostModel::default(), CycleClock::new());
//! mmu.load_cr3(root, Asid::UNTAGGED);
//! mmu.write_u64(&mut phys, VirtAddr::new(0x4000), 42)?;
//! assert_eq!(mmu.read_u64(&mut phys, VirtAddr::new(0x4000))?, 42);
//! # Ok(()) }
//! ```

pub mod addr;
pub mod backend;
pub mod cost;
pub mod error;
pub mod machine;
pub mod mmu;
pub mod paging;
pub mod phys;
pub mod tlb;

pub use addr::{PageSize, Pfn, PhysAddr, VirtAddr, Vpn, PAGE_SIZE};
pub use backend::{Backend, TranslationKind};
pub use cost::{
    CoreClocks, CoreCtx, CostModel, CycleClock, KernelFlavor, MachineId, MachineProfile,
};
pub use error::{Access, MemError};
pub use machine::Machine;
pub use mmu::Mmu;
pub use paging::PteFlags;
pub use phys::PhysMem;
pub use tlb::{Asid, Tlb, TlbStats};
