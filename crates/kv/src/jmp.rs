//! RedisJMP: the store as a shared address space, clients switch in.
//!
//! "RedisJMP avoids a server process entirely, retaining only the server
//! data, and clients access the server data by switching into its address
//! space. RedisJMP is therefore implemented as a client-side library, and
//! the server data is initialized lazily by its first client."
//!
//! Each client creates **two VASes** over the store segment — one mapping
//! it read-only (GETs take the segment lock shared) and one read-write
//! (SETs take it exclusive) — plus a small private **scratch heap**
//! attached locally to both, because the Redis command path allocates
//! heap objects even for read-only requests. Resizes and rehashing happen
//! only under the exclusive lock.

use sjmp_mem::VirtAddr;
use sjmp_os::kernel::GLOBAL_LO;
use sjmp_os::{Backing, Mode, Pid};
use spacejmp_core::{AttachMode, RetryPolicy, SjError, SjResult, SpaceJmp, VasHandle, VasHeap};

use crate::dict::{DictStats, SegDict};
use crate::resp::{CommandRef, Reply};
use crate::server::{self, COMMAND_OVERHEAD, STORE_SEGMENT_BYTES};

/// Scratch heap size per client.
const SCRATCH_BYTES: u64 = 64 << 10;
/// PML4 slot index where the (unsharded) store segment lives.
const STORE_SLOT: u64 = 0;
/// First PML4 slot used for client scratch segments.
const SCRATCH_SLOT_BASE: u64 = 8;

/// Options for [`JmpClient::join_cfg`], the fully general join.
///
/// The defaults reproduce [`JmpClient::join`]: untagged, pinned store
/// frames, store slot 0. A sharded deployment
/// ([`crate::shard::ShardedKv`]) gives each shard its own `store_slot`
/// so every shard's segment occupies a distinct 512 GiB PML4 slot of
/// the global half and they can all be attached side by side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinOpts {
    /// Request TLB tags for both VASes (`RedisJMP (Tags)`).
    pub tagged: bool,
    /// Back a fresh store with a swappable, demand-paged segment.
    pub swappable_store: bool,
    /// PML4 slot (512 GiB stride above `GLOBAL_LO`) for the store.
    pub store_slot: u64,
}

impl Default for JoinOpts {
    fn default() -> Self {
        JoinOpts {
            tagged: false,
            swappable_store: false,
            store_slot: STORE_SLOT,
        }
    }
}

/// A RedisJMP client handle.
///
/// # Examples
///
/// ```
/// use sjmp_mem::{KernelFlavor, MachineId};
/// use sjmp_os::{Creds, Kernel};
/// use sjmp_kv::JmpClient;
/// use spacejmp_core::SpaceJmp;
///
/// # fn main() -> Result<(), spacejmp_core::SjError> {
/// let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M1));
/// let pid = sj.kernel_mut().spawn("client", Creds::new(100, 100))?;
/// sj.kernel_mut().activate(pid)?;
///
/// // The first client initializes the store; later ones share it.
/// let mut client = JmpClient::join(&mut sj, pid, "cache", 0)?;
/// client.set(&mut sj, b"answer", b"42")?;
/// assert_eq!(client.get(&mut sj, b"answer")?, Some(b"42".to_vec()));
/// # Ok(()) }
/// ```
#[derive(Debug)]
pub struct JmpClient {
    pid: Pid,
    vh_read: VasHandle,
    vh_write: VasHandle,
    scratch: VasHeap,
    dict: SegDict,
    stats: DictStats,
    /// Backoff schedule for contended switches; every command retries
    /// with this before surfacing [`SjError::WouldBlock`].
    retry: RetryPolicy,
    /// Host buffers for the command bytes, reused by every request.
    wire: WireBuffers,
}

/// The host side of staging a command in the scratch heap: its encoded
/// bytes and the copy read back. Both keep their capacity between
/// requests, so a steady-state GET or SET allocates no host memory for
/// them.
#[derive(Debug, Default)]
struct WireBuffers {
    encoded: Vec<u8>,
    copy: Vec<u8>,
}

impl WireBuffers {
    /// Simulates the Redis command-parsing path: the encoded command is
    /// staged in a scratch-heap object (Redis allocates heap objects even
    /// for GETs), read back, the object freed, and the copy parsed. The
    /// parsed command borrows from the copy.
    fn stage(
        &mut self,
        sj: &mut SpaceJmp,
        pid: Pid,
        scratch: VasHeap,
        cmd: CommandRef<'_>,
    ) -> SjResult<CommandRef<'_>> {
        self.encoded.clear();
        cmd.encode_into(&mut self.encoded);
        let len = self.encoded.len();
        let buf = scratch.malloc(sj, pid, len as u64)?;
        sj.kernel_mut().store_bytes(pid, buf, &self.encoded)?;
        self.copy.clear();
        self.copy.resize(len, 0);
        sj.kernel_mut().load_bytes(pid, buf, &mut self.copy)?;
        scratch.free(sj, pid, buf)?;
        CommandRef::parse(&self.copy).map_err(|_| SjError::InvalidArgument("bad command"))
    }
}

impl JmpClient {
    /// Joins (or lazily initializes) the store named `store`, creating
    /// this client's read and write VASes and its scratch heap.
    /// `client_idx` must be unique per client (it selects the scratch
    /// segment's address slot).
    ///
    /// # Errors
    ///
    /// Propagates SpaceJMP failures.
    pub fn join(
        sj: &mut SpaceJmp,
        pid: Pid,
        store: &str,
        client_idx: usize,
    ) -> SjResult<JmpClient> {
        Self::join_with_tags(sj, pid, store, client_idx, false)
    }

    /// Like [`Self::join`], optionally requesting TLB tags for both VASes
    /// (the `RedisJMP (Tags)` configuration of Figure 10a). Requires
    /// [`sjmp_os::Kernel::set_tagging`] to be enabled.
    ///
    /// # Errors
    ///
    /// Propagates SpaceJMP failures.
    pub fn join_with_tags(
        sj: &mut SpaceJmp,
        pid: Pid,
        store: &str,
        client_idx: usize,
        tagged: bool,
    ) -> SjResult<JmpClient> {
        Self::join_opts(sj, pid, store, client_idx, tagged, false)
    }

    /// Like [`Self::join_with_tags`], optionally backing a **fresh**
    /// store with a swappable, demand-paged segment
    /// ([`SpaceJmp::seg_alloc_with`] on [`Backing::Demand`]) instead of
    /// pinned frames: the constrained-memory configuration. The store
    /// then survives DRAM
    /// oversubscription — cold store pages are evicted to swap and
    /// faulted back on access — at swap cycle cost. `swappable_store` is
    /// ignored when the store already exists; clients share whatever
    /// backing the first client chose.
    ///
    /// # Errors
    ///
    /// Propagates SpaceJMP failures.
    pub fn join_opts(
        sj: &mut SpaceJmp,
        pid: Pid,
        store: &str,
        client_idx: usize,
        tagged: bool,
        swappable_store: bool,
    ) -> SjResult<JmpClient> {
        Self::join_cfg(
            sj,
            pid,
            store,
            client_idx,
            JoinOpts {
                tagged,
                swappable_store,
                ..JoinOpts::default()
            },
        )
    }

    /// The fully general join: every knob in one [`JoinOpts`]. All other
    /// join variants delegate here.
    ///
    /// # Errors
    ///
    /// Propagates SpaceJMP failures.
    pub fn join_cfg(
        sj: &mut SpaceJmp,
        pid: Pid,
        store: &str,
        client_idx: usize,
        opts: JoinOpts,
    ) -> SjResult<JmpClient> {
        let JoinOpts {
            tagged,
            swappable_store,
            store_slot,
        } = opts;
        let store_base = VirtAddr::new(GLOBAL_LO.raw() + store_slot * (1 << 39));
        let (sid, fresh) = match sj.seg_find(&format!("jmp-store-{store}")) {
            Ok(sid) => (sid, false),
            Err(SjError::NotFound) => {
                let name = format!("jmp-store-{store}");
                let backing = if swappable_store {
                    Backing::Demand
                } else {
                    Backing::Dram
                };
                let size = STORE_SEGMENT_BYTES;
                let sid = sj.seg_alloc_with(pid, &name, store_base, size, Mode(0o666), backing)?;
                (sid, true)
            }
            Err(e) => return Err(e),
        };

        let vid_r = sj.vas_create(pid, &format!("jmp-{store}-r-{}", pid.0), Mode(0o600))?;
        sj.seg_attach(pid, vid_r, sid, AttachMode::ReadOnly)?;
        let vid_w = sj.vas_create(pid, &format!("jmp-{store}-w-{}", pid.0), Mode(0o600))?;
        sj.seg_attach(pid, vid_w, sid, AttachMode::ReadWrite)?;
        if tagged {
            sj.vas_ctl(pid, spacejmp_core::VasCtl::RequestTag, vid_r)?;
            sj.vas_ctl(pid, spacejmp_core::VasCtl::RequestTag, vid_w)?;
        }
        let vh_read = sj.vas_attach(pid, vid_r)?;
        let vh_write = sj.vas_attach(pid, vid_w)?;

        // Per-client scratch segment in its own 512 GiB slot, attached
        // process-locally to both VASes.
        let scratch_base =
            VirtAddr::new(GLOBAL_LO.raw() + (SCRATCH_SLOT_BASE + client_idx as u64) * (1 << 39));
        let scratch_sid = sj.seg_alloc(
            pid,
            &format!("jmp-scratch-{store}-{}", pid.0),
            scratch_base,
            SCRATCH_BYTES,
            Mode(0o600),
        )?;
        sj.seg_attach_local(pid, vh_read, scratch_sid, AttachMode::ReadWrite)?;
        sj.seg_attach_local(pid, vh_write, scratch_sid, AttachMode::ReadWrite)?;

        // Initialize or open the store under the write mapping, and
        // format the scratch heap.
        let retry = RetryPolicy::default();
        sj.vas_switch_retry(pid, vh_write, &retry)?;
        let scratch = VasHeap::format(sj, pid, scratch_sid)?;
        let dict = if fresh {
            let heap = VasHeap::format(sj, pid, sid)?;
            SegDict::create(sj, pid, heap)?
        } else {
            let heap = VasHeap::open(sj, pid, sid)?;
            SegDict::open(sj, pid, heap)?
        };
        sj.vas_switch_home(pid)?;
        Ok(JmpClient {
            pid,
            vh_read,
            vh_write,
            scratch,
            dict,
            stats: DictStats::default(),
            retry,
            wire: WireBuffers::default(),
        })
    }

    /// The client's process.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Handle of the read-only VAS (shared lock on switch-in).
    pub fn read_handle(&self) -> VasHandle {
        self.vh_read
    }

    /// Handle of the writable VAS (exclusive lock on switch-in).
    pub fn write_handle(&self) -> VasHandle {
        self.vh_write
    }

    /// Executes a GET by switching into the read-only VAS.
    ///
    /// # Errors
    ///
    /// [`SjError::WouldBlock`] when a writer holds the store's lock.
    pub fn get(&mut self, sj: &mut SpaceJmp, key: &[u8]) -> SjResult<Option<Vec<u8>>> {
        sj.vas_switch_retry(self.pid, self.vh_read, &self.retry)?;
        sj.kernel().clock().advance(COMMAND_OVERHEAD);
        let result = (|| {
            let cmd = self
                .wire
                .stage(sj, self.pid, self.scratch, CommandRef::Get(key))?;
            let CommandRef::Get(k) = cmd else {
                unreachable!("encoded a GET")
            };
            self.dict.get(sj, self.pid, k)
        })();
        sj.vas_switch_home(self.pid)?;
        result
    }

    /// Executes a SET by switching into the writable VAS (exclusive).
    ///
    /// # Errors
    ///
    /// [`SjError::WouldBlock`] when readers or a writer hold the lock.
    pub fn set(&mut self, sj: &mut SpaceJmp, key: &[u8], val: &[u8]) -> SjResult<()> {
        sj.vas_switch_retry(self.pid, self.vh_write, &self.retry)?;
        sj.kernel().clock().advance(COMMAND_OVERHEAD);
        let result = (|| {
            let cmd = self
                .wire
                .stage(sj, self.pid, self.scratch, CommandRef::Set(key, val))?;
            let CommandRef::Set(k, v) = cmd else {
                unreachable!("encoded a SET")
            };
            // Exclusive lock held: resizing and rehashing permitted.
            self.dict.set(sj, self.pid, k, v, true, &mut self.stats)
        })();
        sj.vas_switch_home(self.pid)?;
        result
    }

    /// Executes an INCR under the exclusive mapping (parse integer,
    /// add one, store back), mirroring the server's semantics.
    ///
    /// # Errors
    ///
    /// [`SjError::InvalidArgument`] for non-integer values and for a
    /// value of `i64::MAX`, which is left unchanged; lock errors as in
    /// [`Self::set`].
    pub fn incr(&mut self, sj: &mut SpaceJmp, key: &[u8]) -> SjResult<i64> {
        sj.vas_switch_retry(self.pid, self.vh_write, &self.retry)?;
        sj.kernel().clock().advance(COMMAND_OVERHEAD);
        let result = server::incr(&mut self.dict, sj, self.pid, key, &mut self.stats)
            .and_then(|next| next.map_err(SjError::InvalidArgument));
        sj.vas_switch_home(self.pid)?;
        result
    }

    /// Executes an APPEND under the exclusive mapping; returns the new
    /// value length.
    ///
    /// # Errors
    ///
    /// Lock errors as in [`Self::set`].
    pub fn append(&mut self, sj: &mut SpaceJmp, key: &[u8], val: &[u8]) -> SjResult<usize> {
        sj.vas_switch_retry(self.pid, self.vh_write, &self.retry)?;
        sj.kernel().clock().advance(COMMAND_OVERHEAD);
        let result = server::append(&mut self.dict, sj, self.pid, key, val, &mut self.stats);
        sj.vas_switch_home(self.pid)?;
        result
    }

    /// Executes a DEL under the exclusive mapping.
    ///
    /// # Errors
    ///
    /// As [`Self::set`].
    pub fn del(&mut self, sj: &mut SpaceJmp, key: &[u8]) -> SjResult<bool> {
        sj.vas_switch_retry(self.pid, self.vh_write, &self.retry)?;
        sj.kernel().clock().advance(COMMAND_OVERHEAD);
        let result = self.dict.del(sj, self.pid, key, true, &mut self.stats);
        sj.vas_switch_home(self.pid)?;
        result
    }

    /// Wire-level execute: parses `raw`, runs it in the appropriate VAS,
    /// and returns the encoded reply (used by benchmarks to keep the code
    /// path identical to the socket server).
    ///
    /// # Errors
    ///
    /// As [`Self::get`]/[`Self::set`].
    pub fn handle_request(&mut self, sj: &mut SpaceJmp, raw: &[u8]) -> SjResult<Vec<u8>> {
        let reply = match CommandRef::parse(raw) {
            Ok(CommandRef::Get(k)) => Reply::Bulk(self.get(sj, k)?),
            Ok(CommandRef::Set(k, v)) => {
                self.set(sj, k, v)?;
                Reply::Ok
            }
            Ok(CommandRef::Del(k)) => Reply::Int(self.del(sj, k)? as i64),
            Ok(CommandRef::Incr(k)) => match self.incr(sj, k) {
                Ok(n) => Reply::Int(n),
                Err(SjError::InvalidArgument(e)) => Reply::Error(e.to_string()),
                Err(e) => return Err(e),
            },
            Ok(CommandRef::Append(k, v)) => Reply::Int(self.append(sj, k, v)? as i64),
            Err(e) => Reply::Error(e.to_string()),
        };
        Ok(reply.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resp::Command;
    use sjmp_mem::{KernelFlavor, MachineId};
    use sjmp_os::{Creds, Kernel};

    fn setup(n: usize) -> (SpaceJmp, Vec<JmpClient>) {
        let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M1));
        let clients = (0..n)
            .map(|i| {
                let pid = sj
                    .kernel_mut()
                    .spawn(&format!("client{i}"), Creds::new(100, 100))
                    .unwrap();
                sj.kernel_mut().activate(pid).unwrap();
                JmpClient::join(&mut sj, pid, "bench", i).unwrap()
            })
            .collect();
        (sj, clients)
    }

    #[test]
    fn first_client_initializes_store() {
        let (mut sj, mut clients) = setup(1);
        let c = &mut clients[0];
        assert_eq!(c.get(&mut sj, b"missing").unwrap(), None);
        c.set(&mut sj, b"k", b"v").unwrap();
        assert_eq!(c.get(&mut sj, b"k").unwrap(), Some(b"v".to_vec()));
        assert!(c.del(&mut sj, b"k").unwrap());
        assert_eq!(c.get(&mut sj, b"k").unwrap(), None);
    }

    #[test]
    fn clients_share_the_store() {
        let (mut sj, mut clients) = setup(3);
        clients[0].set(&mut sj, b"shared", b"data").unwrap();
        for c in &mut clients[1..] {
            assert_eq!(c.get(&mut sj, b"shared").unwrap(), Some(b"data".to_vec()));
        }
        // A later write by another client is seen by the first.
        clients[2].set(&mut sj, b"shared", b"updated").unwrap();
        assert_eq!(
            clients[0].get(&mut sj, b"shared").unwrap(),
            Some(b"updated".to_vec())
        );
    }

    #[test]
    fn concurrent_readers_allowed_writer_excluded() {
        let (mut sj, mut clients) = setup(3);
        clients[0].set(&mut sj, b"k", b"v").unwrap();
        // Put client 1 "inside" the read VAS (switched in, not yet home).
        let (p1, vh1) = (clients[1].pid(), clients[1].read_handle());
        sj.vas_switch(p1, vh1).unwrap();
        // Client 2 can still read (shared)...
        assert_eq!(clients[2].get(&mut sj, b"k").unwrap(), Some(b"v".to_vec()));
        // ...but cannot write (reader holds the lock).
        assert_eq!(
            clients[2].set(&mut sj, b"k", b"x"),
            Err(SjError::WouldBlock)
        );
        sj.vas_switch_home(p1).unwrap();
        clients[2].set(&mut sj, b"k", b"x").unwrap();
    }

    #[test]
    fn wire_level_requests() {
        let (mut sj, mut clients) = setup(1);
        let set = Command::Set(b"a".to_vec(), b"1".to_vec()).encode();
        assert_eq!(
            clients[0].handle_request(&mut sj, &set).unwrap(),
            b"+OK\r\n"
        );
        let get = Command::Get(b"a".to_vec()).encode();
        let resp = clients[0].handle_request(&mut sj, &get).unwrap();
        assert_eq!(
            Reply::parse(&resp).unwrap(),
            Reply::Bulk(Some(b"1".to_vec()))
        );
    }

    #[test]
    fn many_writes_with_rehash_under_exclusive_lock() {
        let (mut sj, mut clients) = setup(2);
        for i in 0..150u32 {
            let c = (i % 2) as usize;
            clients[c]
                .set(
                    &mut sj,
                    format!("k{i}").as_bytes(),
                    format!("v{i}").as_bytes(),
                )
                .unwrap();
        }
        for i in 0..150u32 {
            assert_eq!(
                clients[(i % 2) as usize]
                    .get(&mut sj, format!("k{i}").as_bytes())
                    .unwrap(),
                Some(format!("v{i}").into_bytes())
            );
        }
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::resp::Command;
    use crate::server::INCR_OVERFLOW;
    use sjmp_mem::{KernelFlavor, MachineId};
    use sjmp_os::{Creds, Kernel};

    #[test]
    fn incr_and_append() {
        let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M1));
        let pid = sj.kernel_mut().spawn("c", Creds::new(1, 1)).unwrap();
        sj.kernel_mut().activate(pid).unwrap();
        let mut c = JmpClient::join(&mut sj, pid, "ia", 0).unwrap();
        assert_eq!(c.incr(&mut sj, b"n").unwrap(), 1);
        assert_eq!(c.incr(&mut sj, b"n").unwrap(), 2);
        c.set(&mut sj, b"s", b"ab").unwrap();
        assert_eq!(c.append(&mut sj, b"s", b"cd").unwrap(), 4);
        assert_eq!(c.get(&mut sj, b"s").unwrap(), Some(b"abcd".to_vec()));
        // INCR on a non-integer is an error and releases the lock.
        assert!(matches!(
            c.incr(&mut sj, b"s"),
            Err(SjError::InvalidArgument(_))
        ));
        c.set(&mut sj, b"s", b"1").unwrap(); // lock not stuck
    }

    #[test]
    fn incr_overflow_is_an_error_reply_and_keeps_the_value() {
        let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M1));
        let pid = sj.kernel_mut().spawn("c", Creds::new(1, 1)).unwrap();
        sj.kernel_mut().activate(pid).unwrap();
        let mut c = JmpClient::join(&mut sj, pid, "io", 0).unwrap();
        let max = i64::MAX.to_string();
        let set = Command::Set(b"n".to_vec(), max.clone().into_bytes()).encode();
        assert_eq!(c.handle_request(&mut sj, &set).unwrap(), b"+OK\r\n");
        let incr = Command::Incr(b"n".to_vec()).encode();
        let reply = c.handle_request(&mut sj, &incr).unwrap();
        assert_eq!(
            Reply::parse(&reply).unwrap(),
            Reply::Error(INCR_OVERFLOW.to_string())
        );
        assert_eq!(c.get(&mut sj, b"n").unwrap(), Some(max.into_bytes()));
        c.set(&mut sj, b"n", b"1").unwrap(); // lock not stuck
    }

    #[test]
    fn pressured_store_survives_2x_oversubscription() {
        use sjmp_mem::cost::{CostModel, MachineProfile};
        use sjmp_mem::PAGE_SIZE;
        // Roughly: two clients' pinned footprint (spawn segments,
        // scratch heaps, page tables for five vmspaces each — about 290
        // frames) plus *half* the ~170 store pages the writes below
        // touch: the store working set oversubscribes what DRAM has
        // left for it by about 2x and must swap.
        let mut profile = MachineProfile::of(MachineId::M1);
        profile.mem_bytes = 380 * PAGE_SIZE;
        let mut sj = SpaceJmp::new(Kernel::with_profile(
            KernelFlavor::DragonFly,
            profile,
            CostModel::default(),
        ));
        sj.kernel_mut().set_low_watermark(Some(8));
        let mut clients = Vec::new();
        for i in 0..2 {
            let pid = sj
                .kernel_mut()
                .spawn(&format!("pc{i}"), Creds::new(100, 100))
                .unwrap();
            sj.kernel_mut().activate(pid).unwrap();
            clients.push(JmpClient::join_opts(&mut sj, pid, "pressed", i, false, true).unwrap());
        }
        // ~2 KiB values x 300 keys: the live heap inside the store
        // segment far exceeds the frames left after the pinned footprint.
        let val = vec![0xabu8; 2048];
        for i in 0..300u32 {
            let c = (i % 2) as usize;
            clients[c]
                .set(&mut sj, format!("key{i}").as_bytes(), &val)
                .unwrap();
        }
        for i in (0..300u32).step_by(17) {
            let got = clients[(i % 2) as usize]
                .get(&mut sj, format!("key{i}").as_bytes())
                .unwrap();
            assert_eq!(got, Some(val.clone()), "key{i} corrupted by swap");
        }
        let stats = sj.kernel_mut().sys_stats().kernel;
        assert!(stats.evictions > 0, "store never swapped: not constrained");
        assert!(stats.major_faults > 0, "no page ever came back from swap");
        let problems = sj.check_invariants();
        assert!(problems.is_empty(), "audit failed: {problems:?}");
    }

    #[test]
    fn wire_level_incr_append() {
        let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M1));
        let pid = sj.kernel_mut().spawn("c", Creds::new(1, 1)).unwrap();
        sj.kernel_mut().activate(pid).unwrap();
        let mut c = JmpClient::join(&mut sj, pid, "wire", 0).unwrap();
        let incr = Command::Incr(b"x".to_vec()).encode();
        assert_eq!(c.handle_request(&mut sj, &incr).unwrap(), b":1\r\n");
        let app = Command::Append(b"x".to_vec(), b"0".to_vec()).encode();
        assert_eq!(c.handle_request(&mut sj, &app).unwrap(), b":2\r\n");
        assert_eq!(c.get(&mut sj, b"x").unwrap(), Some(b"10".to_vec()));
    }
}
