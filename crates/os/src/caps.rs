//! A miniature seL4-style capability system (Barrelfish flavor).
//!
//! Barrelfish "prohibits dynamic memory allocation in the kernel"; every
//! memory region is *typed* by a capability, and "retyping of memory is
//! checked by the kernel and performed by system calls" (Section 4.2).
//! SpaceJMP on Barrelfish is therefore implemented almost entirely in user
//! space: VAS management operations become explicit capability
//! invocations, and switching into a VAS is "a capability invocation to
//! replace the thread's root page table."
//!
//! This module reproduces the parts of that model SpaceJMP relies on:
//!
//! * typed capabilities over physical frames, page tables, and kernel
//!   objects (VASes, segments — identified by class + id);
//! * checked **retype** (RAM -> Frame / PageTable) with descendant
//!   tracking;
//! * **revocation** that invalidates all descendants, the mechanism the
//!   paper uses to reclaim a VAS ("revoking the process' root page table
//!   prohibits the process from switching into the VAS").

use crate::error::CapError;
use sjmp_mem::Pfn;

/// Kernel-object classes referenced by object capabilities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjClass {
    /// A SpaceJMP virtual address space.
    Vas,
    /// A SpaceJMP segment.
    Segment,
}

/// What a capability refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapKind {
    /// Untyped RAM: `frames` physical frames starting at `base`.
    Ram {
        /// First frame.
        base: Pfn,
        /// Number of frames.
        frames: u64,
    },
    /// Mappable frame memory (retyped from RAM).
    Frame {
        /// First frame.
        base: Pfn,
        /// Number of frames.
        frames: u64,
    },
    /// A page-table node (retyped from RAM); `level` 4 = root (PML4).
    PageTable {
        /// Backing frame.
        frame: Pfn,
        /// Table level, 1 (PT) to 4 (PML4).
        level: u8,
    },
    /// A reference to a kernel/service object (VAS, segment).
    Object {
        /// Object class.
        class: ObjClass,
        /// Object identifier in the owning registry.
        id: u64,
    },
}

/// Rights carried by a capability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapRights {
    /// May read / map read-only.
    pub read: bool,
    /// May write / map writable.
    pub write: bool,
    /// May retype, mint, or revoke.
    pub grant: bool,
}

impl CapRights {
    /// Full rights.
    pub const ALL: CapRights = CapRights {
        read: true,
        write: true,
        grant: true,
    };
    /// Read-only rights.
    pub const READ: CapRights = CapRights {
        read: true,
        write: false,
        grant: false,
    };

    /// Whether `self` covers everything `other` asks for.
    pub fn covers(self, other: CapRights) -> bool {
        (!other.read || self.read) && (!other.write || self.write) && (!other.grant || self.grant)
    }
}

/// A capability: a typed reference plus rights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capability {
    /// What the capability names.
    pub kind: CapKind,
    /// What the holder may do with it.
    pub rights: CapRights,
    /// Generation for revocation: a capability is live only while its
    /// generation matches the slot's.
    revoked: bool,
}

impl Capability {
    /// Creates a live capability.
    pub fn new(kind: CapKind, rights: CapRights) -> Self {
        Capability {
            kind,
            rights,
            revoked: false,
        }
    }

    /// Whether the capability is still valid.
    pub fn is_live(&self) -> bool {
        !self.revoked
    }
}

/// A slot index in a [`CSpace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CapSlot(pub usize);

/// A process's capability space: a flat array of slots (a one-level
/// CNode), with parent/child edges for revocation.
#[derive(Debug)]
pub struct CSpace {
    slots: Vec<Option<Capability>>,
    /// children[i] = slots retyped or minted from slot i.
    children: Vec<Vec<usize>>,
}

impl CSpace {
    /// Creates a CSpace with `n` slots.
    pub fn new(n: usize) -> Self {
        CSpace {
            slots: vec![None; n],
            children: vec![Vec::new(); n],
        }
    }

    /// Finds a free slot.
    fn free_slot(&self) -> Result<usize, CapError> {
        self.slots
            .iter()
            .position(|s| s.is_none())
            .ok_or(CapError::NoSlots)
    }

    /// Installs a capability, returning its slot.
    ///
    /// # Errors
    ///
    /// [`CapError::NoSlots`] when the CSpace is full.
    pub fn insert(&mut self, cap: Capability) -> Result<CapSlot, CapError> {
        let i = self.free_slot()?;
        self.slots[i] = Some(cap);
        self.children[i].clear();
        Ok(CapSlot(i))
    }

    /// Reads the capability in `slot`.
    ///
    /// # Errors
    ///
    /// * [`CapError::EmptySlot`] if nothing is there.
    /// * [`CapError::Revoked`] if it was revoked.
    pub fn lookup(&self, slot: CapSlot) -> Result<&Capability, CapError> {
        let cap = self
            .slots
            .get(slot.0)
            .and_then(|s| s.as_ref())
            .ok_or(CapError::EmptySlot)?;
        if !cap.is_live() {
            return Err(CapError::Revoked);
        }
        Ok(cap)
    }

    /// Checks that `slot` holds a live capability with at least `rights`.
    ///
    /// # Errors
    ///
    /// Lookup errors, plus [`CapError::InsufficientRights`].
    pub fn check(&self, slot: CapSlot, rights: CapRights) -> Result<&Capability, CapError> {
        let cap = self.lookup(slot)?;
        if !cap.rights.covers(rights) {
            return Err(CapError::InsufficientRights);
        }
        Ok(cap)
    }

    /// Mints a copy of `slot` with (possibly reduced) `rights` into a new
    /// slot. The copy is a revocation descendant of the original.
    ///
    /// # Errors
    ///
    /// Lookup errors; [`CapError::InsufficientRights`] if the source lacks
    /// grant rights or the requested rights exceed the source's.
    pub fn mint(&mut self, slot: CapSlot, rights: CapRights) -> Result<CapSlot, CapError> {
        let src = *self.lookup(slot)?;
        if !src.rights.grant || !src.rights.covers(rights) {
            return Err(CapError::InsufficientRights);
        }
        let new = self.insert(Capability::new(src.kind, rights))?;
        self.children[slot.0].push(new.0);
        Ok(new)
    }

    /// Retypes untyped RAM into a frame or page-table capability.
    ///
    /// This is the Barrelfish security model's core rule: "a user-space
    /// process can allocate memory for its own page tables ... and frames
    /// for mapping memory into the virtual address spaces", with the
    /// kernel checking the retype.
    ///
    /// # Errors
    ///
    /// * [`CapError::BadRetype`] if the source is not RAM, is too small,
    ///   or the target kind is not RAM-derivable.
    /// * Lookup/rights errors as in [`Self::check`].
    pub fn retype(&mut self, slot: CapSlot, target: CapKind) -> Result<CapSlot, CapError> {
        let src = *self.check(
            slot,
            CapRights {
                read: false,
                write: false,
                grant: true,
            },
        )?;
        let (base, frames) = match src.kind {
            CapKind::Ram { base, frames } => (base, frames),
            _ => return Err(CapError::BadRetype),
        };
        let ok = match target {
            CapKind::Frame { base: b, frames: f } => b.0 >= base.0 && b.0 + f <= base.0 + frames,
            CapKind::PageTable { frame, .. } => frame.0 >= base.0 && frame.0 < base.0 + frames,
            _ => false,
        };
        if !ok {
            return Err(CapError::BadRetype);
        }
        let new = self.insert(Capability::new(target, src.rights))?;
        self.children[slot.0].push(new.0);
        Ok(new)
    }

    /// Revokes `slot` and, transitively, every descendant minted or
    /// retyped from it.
    ///
    /// # Errors
    ///
    /// [`CapError::EmptySlot`] if nothing is there.
    pub fn revoke(&mut self, slot: CapSlot) -> Result<(), CapError> {
        if self.slots.get(slot.0).and_then(|s| s.as_ref()).is_none() {
            return Err(CapError::EmptySlot);
        }
        let mut stack = vec![slot.0];
        while let Some(i) = stack.pop() {
            if let Some(cap) = self.slots[i].as_mut() {
                cap.revoked = true;
            }
            stack.append(&mut self.children[i]);
        }
        Ok(())
    }

    /// Deletes a capability from its slot (the object survives).
    pub fn delete(&mut self, slot: CapSlot) {
        if let Some(s) = self.slots.get_mut(slot.0) {
            *s = None;
        }
    }

    /// Deletes every capability naming object `id` of `class`, as when
    /// the object is destroyed. Uncharged, like [`Self::delete`].
    pub fn delete_object(&mut self, class: ObjClass, id: u64) {
        let named = Some(CapKind::Object { class, id });
        for slot in &mut self.slots {
            if slot.map(|c| c.kind) == named {
                *slot = None;
            }
        }
    }

    /// Every live capability with its slot, in slot order.
    pub fn live(&self) -> impl Iterator<Item = (CapSlot, &Capability)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().filter(|c| c.is_live()).map(|c| (CapSlot(i), c)))
    }

    /// Number of live capabilities.
    pub fn live_count(&self) -> usize {
        self.live().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ram(frames: u64) -> Capability {
        Capability::new(
            CapKind::Ram {
                base: Pfn(100),
                frames,
            },
            CapRights::ALL,
        )
    }

    #[test]
    fn insert_lookup_delete() {
        let mut cs = CSpace::new(4);
        let slot = cs.insert(ram(8)).unwrap();
        assert!(cs.lookup(slot).is_ok());
        cs.delete(slot);
        assert_eq!(cs.lookup(slot).unwrap_err(), CapError::EmptySlot);
    }

    #[test]
    fn deleting_an_object_frees_every_slot_naming_it() {
        let object = |id| {
            let kind = CapKind::Object {
                class: ObjClass::Vas,
                id,
            };
            Capability::new(kind, CapRights::ALL)
        };
        let mut cs = CSpace::new(4);
        let doomed = cs.insert(object(1)).unwrap();
        let copy = cs.mint(doomed, CapRights::READ).unwrap();
        let other = cs.insert(object(2)).unwrap();
        cs.delete_object(ObjClass::Vas, 1);
        assert_eq!(cs.lookup(doomed).unwrap_err(), CapError::EmptySlot);
        assert_eq!(cs.lookup(copy).unwrap_err(), CapError::EmptySlot);
        assert!(cs.lookup(other).is_ok());
        assert_eq!(cs.live_count(), 1);
    }

    #[test]
    fn cspace_fills_up() {
        let mut cs = CSpace::new(2);
        cs.insert(ram(1)).unwrap();
        cs.insert(ram(1)).unwrap();
        assert_eq!(cs.insert(ram(1)).unwrap_err(), CapError::NoSlots);
    }

    #[test]
    fn retype_ram_to_frame_and_table() {
        let mut cs = CSpace::new(8);
        let r = cs.insert(ram(8)).unwrap();
        let f = cs
            .retype(
                r,
                CapKind::Frame {
                    base: Pfn(100),
                    frames: 4,
                },
            )
            .unwrap();
        let t = cs
            .retype(
                r,
                CapKind::PageTable {
                    frame: Pfn(104),
                    level: 4,
                },
            )
            .unwrap();
        assert!(matches!(cs.lookup(f).unwrap().kind, CapKind::Frame { .. }));
        assert!(matches!(
            cs.lookup(t).unwrap().kind,
            CapKind::PageTable { level: 4, .. }
        ));
    }

    #[test]
    fn retype_checked_bounds() {
        let mut cs = CSpace::new(8);
        let r = cs.insert(ram(4)).unwrap();
        // Out of the RAM region.
        assert_eq!(
            cs.retype(
                r,
                CapKind::Frame {
                    base: Pfn(102),
                    frames: 4
                }
            )
            .unwrap_err(),
            CapError::BadRetype
        );
        // Frame caps cannot be retyped further.
        let f = cs
            .retype(
                r,
                CapKind::Frame {
                    base: Pfn(100),
                    frames: 1,
                },
            )
            .unwrap();
        assert_eq!(
            cs.retype(
                f,
                CapKind::PageTable {
                    frame: Pfn(100),
                    level: 1
                }
            )
            .unwrap_err(),
            CapError::BadRetype
        );
        // Object kinds are not RAM-derivable.
        assert_eq!(
            cs.retype(
                r,
                CapKind::Object {
                    class: ObjClass::Vas,
                    id: 1
                }
            )
            .unwrap_err(),
            CapError::BadRetype
        );
    }

    #[test]
    fn mint_reduces_rights() {
        let mut cs = CSpace::new(8);
        let r = cs.insert(ram(4)).unwrap();
        let ro = cs.mint(r, CapRights::READ).unwrap();
        assert_eq!(cs.lookup(ro).unwrap().rights, CapRights::READ);
        // A read-only cap cannot mint (no grant right).
        assert_eq!(
            cs.mint(ro, CapRights::READ).unwrap_err(),
            CapError::InsufficientRights
        );
        // Cannot mint rights you do not have.
        let obj = cs
            .insert(Capability::new(
                CapKind::Object {
                    class: ObjClass::Segment,
                    id: 9,
                },
                CapRights {
                    read: true,
                    write: false,
                    grant: true,
                },
            ))
            .unwrap();
        assert_eq!(
            cs.mint(obj, CapRights::ALL).unwrap_err(),
            CapError::InsufficientRights
        );
    }

    #[test]
    fn revoke_cascades_to_descendants() {
        let mut cs = CSpace::new(16);
        let r = cs.insert(ram(8)).unwrap();
        let f = cs
            .retype(
                r,
                CapKind::Frame {
                    base: Pfn(100),
                    frames: 2,
                },
            )
            .unwrap();
        let m = cs.mint(f, CapRights::READ).unwrap();
        assert_eq!(cs.live_count(), 3);
        cs.revoke(r).unwrap();
        assert_eq!(cs.lookup(r).unwrap_err(), CapError::Revoked);
        assert_eq!(cs.lookup(f).unwrap_err(), CapError::Revoked);
        assert_eq!(cs.lookup(m).unwrap_err(), CapError::Revoked);
        assert_eq!(cs.live_count(), 0);
    }

    #[test]
    fn check_rights() {
        let mut cs = CSpace::new(4);
        let slot = cs
            .insert(Capability::new(
                CapKind::Object {
                    class: ObjClass::Vas,
                    id: 3,
                },
                CapRights::READ,
            ))
            .unwrap();
        assert!(cs.check(slot, CapRights::READ).is_ok());
        assert_eq!(
            cs.check(
                slot,
                CapRights {
                    read: true,
                    write: true,
                    grant: false
                }
            )
            .unwrap_err(),
            CapError::InsufficientRights
        );
    }
}
