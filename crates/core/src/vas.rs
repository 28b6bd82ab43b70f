//! First-class virtual address spaces.
//!
//! A [`Vas`] is an OS object independent of any process (Section 3.2): it
//! is created and named globally, holds a set of attached segments, can be
//! attached by many processes, and "can also continue to exist beyond the
//! lifetime of its creating process."
//!
//! Concretely, a VAS owns a **template page table** containing the
//! translations of its globally attached segments. Attaching a process
//! instantiates a private `vmspace` whose root links the template's
//! subtrees (so updates propagate to all attached processes — the
//! Barrelfish design of Section 4.2) plus the process's own private
//! segments. Switching loads that vmspace's root into CR3.

use sjmp_mem::Pfn;
use sjmp_os::{Acl, IdTable, Pid, VmspaceId};

use crate::segment::{AttachMode, SegId};

/// VAS identifier (the `vid` of the Figure 3 API).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VasId(pub u64);
sjmp_os::table_id!(VasId);

/// Handle to one process's attachment of a VAS (the `vh` of Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VasHandle(pub u64);
sjmp_os::table_id!(VasHandle);

/// One process's attachment state for a VAS.
#[derive(Debug, Clone)]
pub struct Attachment {
    /// Owning process.
    pub pid: Pid,
    /// The attached VAS.
    pub vid: VasId,
    /// The per-process vmspace instance for this VAS.
    pub vmspace: VmspaceId,
    /// Segments attached process-locally through this handle
    /// (`seg_attach(vh, sid)`), as opposed to the VAS's global set.
    pub local_segments: Vec<(SegId, AttachMode)>,
    /// Barrelfish flavor: the capability to this attachment's root page
    /// table ("Upon attaching to a VAS, a process obtains a new
    /// capability to a root page table", Section 4.2). Switching is the
    /// invocation of this capability; revoking it bars the process from
    /// the VAS.
    pub root_cap: Option<sjmp_os::CapSlot>,
}

/// A first-class virtual address space.
#[derive(Debug)]
pub struct Vas {
    vid: VasId,
    name: String,
    acl: Acl,
    template_root: Pfn,
    segments: Vec<(SegId, AttachMode)>,
    /// pid -> attachment handle (a process attaches a VAS at most once).
    attached: IdTable<Pid, VasHandle>,
    /// Whether a TLB tag was requested via `vas_ctl`.
    tag_requested: bool,
}

impl Vas {
    /// Creates an empty VAS whose template root has been allocated.
    pub fn new(vid: VasId, name: impl Into<String>, acl: Acl, template_root: Pfn) -> Self {
        Vas {
            vid,
            name: name.into(),
            acl,
            template_root,
            segments: Vec::new(),
            attached: IdTable::default(),
            tag_requested: false,
        }
    }

    /// The VAS id.
    pub fn vid(&self) -> VasId {
        self.vid
    }

    /// The global name (`vas_find` key).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Access-control list.
    pub fn acl(&self) -> &Acl {
        &self.acl
    }

    /// Mutable ACL (`vas_ctl` permission changes).
    pub fn acl_mut(&mut self) -> &mut Acl {
        &mut self.acl
    }

    /// Root of the shared template page table.
    pub fn template_root(&self) -> Pfn {
        self.template_root
    }

    /// Globally attached segments with their mapping modes.
    pub fn segments(&self) -> &[(SegId, AttachMode)] {
        &self.segments
    }

    /// The mode a segment is mapped with, if attached.
    pub fn segment_mode(&self, sid: SegId) -> Option<AttachMode> {
        self.segments
            .iter()
            .find(|(s, _)| *s == sid)
            .map(|(_, m)| *m)
    }

    /// Records a global segment attachment.
    pub fn add_segment(&mut self, sid: SegId, mode: AttachMode) {
        debug_assert!(self.segment_mode(sid).is_none());
        self.segments.push((sid, mode));
    }

    /// Removes a global segment attachment; returns whether it existed.
    pub fn remove_segment(&mut self, sid: SegId) -> bool {
        let before = self.segments.len();
        self.segments.retain(|(s, _)| *s != sid);
        before != self.segments.len()
    }

    /// Processes currently attached.
    pub fn attached_pids(&self) -> impl Iterator<Item = Pid> + '_ {
        self.attached.keys()
    }

    /// Number of attached processes.
    pub fn attach_count(&self) -> usize {
        self.attached.len()
    }

    /// The handle `pid` attached with, if attached.
    pub fn handle_of(&self, pid: Pid) -> Option<VasHandle> {
        self.attached.get(&pid).copied()
    }

    /// Records a process attachment.
    pub fn add_attachment(&mut self, pid: Pid, handle: VasHandle) {
        self.attached.insert(pid, handle);
    }

    /// Removes a process attachment.
    pub fn remove_attachment(&mut self, pid: Pid) {
        self.attached.remove(&pid);
    }

    /// Whether a TLB tag was requested for this VAS.
    pub fn tag_requested(&self) -> bool {
        self.tag_requested
    }

    /// Requests (or clears) TLB tagging for this VAS.
    pub fn set_tag_requested(&mut self, requested: bool) {
        self.tag_requested = requested;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjmp_os::{Creds, Mode};

    fn vas() -> Vas {
        Vas::new(
            VasId(1),
            "v0",
            Acl::new(Creds::new(1, 1), Mode(0o660)),
            Pfn(7),
        )
    }

    #[test]
    fn segment_bookkeeping() {
        let mut v = vas();
        v.add_segment(SegId(1), AttachMode::ReadWrite);
        v.add_segment(SegId(2), AttachMode::ReadOnly);
        assert_eq!(v.segment_mode(SegId(1)), Some(AttachMode::ReadWrite));
        assert_eq!(v.segment_mode(SegId(3)), None);
        assert!(v.remove_segment(SegId(1)));
        assert!(!v.remove_segment(SegId(1)));
        assert_eq!(v.segments().len(), 1);
    }

    #[test]
    fn attachment_bookkeeping() {
        let mut v = vas();
        v.add_attachment(Pid(1), VasHandle(10));
        v.add_attachment(Pid(2), VasHandle(11));
        assert_eq!(v.attach_count(), 2);
        assert_eq!(v.handle_of(Pid(1)), Some(VasHandle(10)));
        v.remove_attachment(Pid(1));
        assert_eq!(v.handle_of(Pid(1)), None);
        let pids: Vec<_> = v.attached_pids().collect();
        assert_eq!(pids, vec![Pid(2)]);
    }

    #[test]
    fn tag_request() {
        let mut v = vas();
        assert!(!v.tag_requested());
        v.set_tag_requested(true);
        assert!(v.tag_requested());
    }

    #[test]
    fn identity() {
        let v = vas();
        assert_eq!(v.vid(), VasId(1));
        assert_eq!(v.name(), "v0");
        assert_eq!(v.template_root(), Pfn(7));
    }
}
