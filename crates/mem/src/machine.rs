//! The simulated machine: one MMU and one cycle clock per hardware
//! thread.
//!
//! Before this type existed the substrate modeled exactly one implicit
//! core — one shared clock, one TLB — so a tagged `vas_switch` on core 0
//! could warm (or flush) the TLB that "core 1" would later translate
//! through. [`Machine`] makes the hardware threads explicit: the
//! [`MachineProfile`]'s `total_cores()` determines how many [`Mmu`]s are
//! built, each with its private TLB, CR3, stats, and per-core
//! [`CycleClock`](crate::cost::CycleClock) drawn from one shared
//! [`CoreClocks`] set.

use crate::backend::Backend;
use crate::cost::{CoreClocks, CostModel, MachineProfile};
use crate::mmu::Mmu;
use sjmp_trace::Tracer;

/// A full simulated machine: `total_cores()` hardware threads, each with
/// a private MMU (TLB + CR3 + stats) and its own cycle clock.
///
/// # Examples
///
/// ```
/// use sjmp_mem::cost::{CostModel, MachineId, MachineProfile};
/// use sjmp_mem::machine::Machine;
///
/// let m = Machine::new(MachineProfile::of(MachineId::M1), &CostModel::default());
/// assert_eq!(m.num_cores(), 12, "M1 is the twelve-core machine");
/// assert_eq!(m.clocks().count(), m.num_cores());
/// ```
#[derive(Debug)]
pub struct Machine {
    profile: MachineProfile,
    clocks: CoreClocks,
    mmus: Vec<Mmu>,
}

impl Machine {
    /// Boots a machine per `profile`: one MMU per hardware thread, each
    /// charging its own core's clock.
    pub fn new(profile: MachineProfile, cost: &CostModel) -> Self {
        let cores = profile.total_cores() as usize;
        let clocks = CoreClocks::new(cores);
        let mmus = (0..cores)
            .map(|core| {
                Mmu::new(
                    profile.tlb_entries,
                    profile.tlb_ways,
                    cost.clone(),
                    clocks.clock(core).clone(),
                )
            })
            .collect();
        Machine {
            profile,
            clocks,
            mmus,
        }
    }

    /// Hardware parameters of this machine.
    pub fn profile(&self) -> &MachineProfile {
        &self.profile
    }

    /// Number of hardware threads (equals `profile().total_cores()`).
    pub fn num_cores(&self) -> usize {
        self.mmus.len()
    }

    /// The per-core cycle clocks (clones share the counters).
    pub fn clocks(&self) -> &CoreClocks {
        &self.clocks
    }

    /// Core `core`'s MMU.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn mmu(&self, core: usize) -> &Mmu {
        &self.mmus[core]
    }

    /// Core `core`'s MMU, mutably.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn mmu_mut(&mut self, core: usize) -> &mut Mmu {
        &mut self.mmus[core]
    }

    /// All MMUs, indexed by core.
    pub fn mmus(&self) -> &[Mmu] {
        &self.mmus
    }

    /// All MMUs, mutably.
    pub fn mmus_mut(&mut self) -> &mut [Mmu] {
        &mut self.mmus
    }

    /// Installs `tracer` on every core's MMU, stamping each with its
    /// hardware-thread id.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        for (core, mmu) in self.mmus.iter_mut().enumerate() {
            mmu.set_tracer(tracer.clone(), core as u32);
        }
    }

    /// Enables or disables TLB tagging on every core.
    pub fn set_tagging(&mut self, enabled: bool) {
        for mmu in &mut self.mmus {
            mmu.set_tagging(enabled);
        }
    }

    /// Installs `backend` on every core's MMU. Call before any address
    /// space is populated so all cores translate through the same model.
    pub fn set_backend(&mut self, backend: &Backend) {
        for mmu in &mut self.mmus {
            mmu.set_backend(backend.clone());
        }
    }

    /// Enables or disables the host-side walk cache on every core.
    pub fn set_host_walk_cache(&mut self, enabled: bool) {
        for mmu in &mut self.mmus {
            mmu.set_host_walk_cache(enabled);
        }
    }

    /// Drops every core's host-side walk-cache entries. Must accompany
    /// any page-table *free*: a recycled root frame would otherwise
    /// resurrect the freed space's cached walks.
    pub fn flush_host_walk_caches(&mut self) {
        for mmu in &mut self.mmus {
            mmu.flush_host_walk_cache();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{PageSize, VirtAddr};
    use crate::cost::MachineId;
    use crate::error::Access;
    use crate::paging::{self, PteFlags};
    use crate::phys::PhysMem;
    use crate::tlb::Asid;

    #[test]
    fn one_mmu_and_clock_per_hardware_thread() {
        for (id, cores) in [
            (MachineId::M1, 12),
            (MachineId::M2, 20),
            (MachineId::M3, 36),
        ] {
            let m = Machine::new(MachineProfile::of(id), &CostModel::default());
            assert_eq!(m.num_cores(), cores);
            assert_eq!(m.mmus().len(), cores);
            assert_eq!(m.clocks().count(), cores);
        }
    }

    #[test]
    fn mmu_charges_its_own_core_clock() {
        let mut m = Machine::new(MachineProfile::of(MachineId::M1), &CostModel::default());
        let mut phys = PhysMem::new(1 << 22);
        let root = paging::new_root(&mut phys).unwrap();
        let frame = phys.alloc_frame().unwrap();
        paging::map(
            &mut phys,
            root,
            VirtAddr::new(0x1000),
            frame.base(),
            PageSize::Size4K,
            PteFlags::USER | PteFlags::WRITABLE,
        )
        .unwrap();
        m.mmu_mut(3).load_cr3(root, Asid::UNTAGGED);
        m.mmu_mut(3)
            .translate(&mut phys, VirtAddr::new(0x1000), Access::Read)
            .unwrap();
        assert!(m.clocks().now_on(3) > 0, "core 3 did the work");
        assert_eq!(m.clocks().now_on(0), 0, "core 0 stayed idle");
        assert_eq!(m.clocks().now(), m.clocks().now_on(3));
        assert_eq!(m.clocks().total(), m.clocks().now_on(3));
    }

    #[test]
    fn tlbs_are_private_per_core() {
        let mut m = Machine::new(MachineProfile::of(MachineId::M1), &CostModel::default());
        let mut phys = PhysMem::new(1 << 22);
        let root = paging::new_root(&mut phys).unwrap();
        let frame = phys.alloc_frame().unwrap();
        paging::map(
            &mut phys,
            root,
            VirtAddr::new(0x2000),
            frame.base(),
            PageSize::Size4K,
            PteFlags::USER,
        )
        .unwrap();
        for core in [0usize, 1] {
            m.mmu_mut(core).load_cr3(root, Asid::UNTAGGED);
            m.mmu_mut(core)
                .translate(&mut phys, VirtAddr::new(0x2000), Access::Read)
                .unwrap();
        }
        // A flush on core 1 must not disturb core 0's entry.
        m.mmu_mut(1).flush_tlb();
        m.mmu_mut(0)
            .translate(&mut phys, VirtAddr::new(0x2000), Access::Read)
            .unwrap();
        m.mmu_mut(1)
            .translate(&mut phys, VirtAddr::new(0x2000), Access::Read)
            .unwrap();
        assert_eq!(m.mmu(0).stats().walks, 1, "core 0's TLB survived");
        assert_eq!(m.mmu(1).stats().walks, 2, "core 1 had to rewalk");
    }
}
