//! Process control blocks.
//!
//! The paper's key change to the BSD process structure (Section 4.1): "A
//! slight modification of the process context structure was necessary to
//! hold references to more than one vmspace object, along with a pointer
//! to the current address space." [`Process`] carries exactly that — a
//! list of vmspace instances plus a current pointer — along with
//! credentials for the ACL model and a capability space for the
//! Barrelfish flavor.

use crate::acl::Creds;
use crate::caps::CSpace;
use crate::vmspace::VmspaceId;

/// Process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u64);
sjmp_sim::table_id!(Pid);

/// A simulated process.
#[derive(Debug)]
pub struct Process {
    pid: Pid,
    name: String,
    creds: Creds,
    /// The vmspace created at spawn (the "traditional" address space).
    initial_space: VmspaceId,
    /// All vmspace instances this process may switch between.
    spaces: Vec<VmspaceId>,
    /// The currently active vmspace (what CR3 points at when running).
    current: VmspaceId,
    /// Capability space (Barrelfish flavor).
    cspace: CSpace,
    /// Core this process is pinned to (for MMU selection).
    core: usize,
}

impl Process {
    /// Creates a process with its initial vmspace already instantiated.
    pub fn new(pid: Pid, name: impl Into<String>, creds: Creds, initial_space: VmspaceId) -> Self {
        Process {
            pid,
            name: name.into(),
            creds,
            initial_space,
            spaces: vec![initial_space],
            current: initial_space,
            cspace: CSpace::new(64),
            core: 0,
        }
    }

    /// The process id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The process name (diagnostics only).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The process credentials.
    pub fn creds(&self) -> Creds {
        self.creds
    }

    /// The vmspace created at spawn.
    pub fn initial_space(&self) -> VmspaceId {
        self.initial_space
    }

    /// The currently active vmspace.
    pub fn current_space(&self) -> VmspaceId {
        self.current
    }

    /// Makes `space` current. The kernel calls this after loading CR3.
    ///
    /// # Panics
    ///
    /// Panics if the process does not hold `space` — switching into an
    /// unattached vmspace would be a kernel bug.
    pub fn set_current_space(&mut self, space: VmspaceId) {
        assert!(
            self.spaces.contains(&space),
            "process {:?} does not hold {:?}",
            self.pid,
            space
        );
        self.current = space;
    }

    /// Records a newly attached vmspace instance.
    pub fn add_space(&mut self, space: VmspaceId) {
        if !self.spaces.contains(&space) {
            self.spaces.push(space);
        }
    }

    /// Forgets a vmspace instance (detach). Returns whether it was held.
    ///
    /// The current space and the initial space cannot be removed.
    pub fn remove_space(&mut self, space: VmspaceId) -> bool {
        if space == self.current || space == self.initial_space {
            return false;
        }
        let before = self.spaces.len();
        self.spaces.retain(|&s| s != space);
        before != self.spaces.len()
    }

    /// Whether the process holds `space`.
    pub fn holds_space(&self, space: VmspaceId) -> bool {
        self.spaces.contains(&space)
    }

    /// All held vmspaces.
    pub fn spaces(&self) -> &[VmspaceId] {
        &self.spaces
    }

    /// The capability space.
    pub fn cspace(&self) -> &CSpace {
        &self.cspace
    }

    /// Mutable capability space.
    pub fn cspace_mut(&mut self) -> &mut CSpace {
        &mut self.cspace
    }

    /// Core this process runs on.
    pub fn core(&self) -> usize {
        self.core
    }

    /// Pins the process to a core.
    pub fn set_core(&mut self, core: usize) {
        self.core = core;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proc() -> Process {
        Process::new(Pid(1), "test", Creds::new(100, 100), VmspaceId(10))
    }

    #[test]
    fn initial_state() {
        let p = proc();
        assert_eq!(p.pid(), Pid(1));
        assert_eq!(p.name(), "test");
        assert_eq!(p.current_space(), VmspaceId(10));
        assert_eq!(p.initial_space(), VmspaceId(10));
        assert_eq!(p.spaces(), &[VmspaceId(10)]);
    }

    #[test]
    fn add_switch_remove() {
        let mut p = proc();
        p.add_space(VmspaceId(20));
        p.add_space(VmspaceId(20)); // idempotent
        assert_eq!(p.spaces().len(), 2);
        p.set_current_space(VmspaceId(20));
        assert_eq!(p.current_space(), VmspaceId(20));
        assert!(!p.remove_space(VmspaceId(20)), "cannot remove current");
        p.set_current_space(VmspaceId(10));
        assert!(p.remove_space(VmspaceId(20)));
        assert!(!p.holds_space(VmspaceId(20)));
        assert!(!p.remove_space(VmspaceId(10)), "cannot remove initial");
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn switch_to_unattached_space_panics() {
        let mut p = proc();
        p.set_current_space(VmspaceId(99));
    }

    #[test]
    fn core_pinning() {
        let mut p = proc();
        assert_eq!(p.core(), 0);
        p.set_core(5);
        assert_eq!(p.core(), 5);
    }
}
