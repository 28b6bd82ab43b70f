//! Sharded RedisJMP: the store split across multiple shared VASes, with
//! consistent-hash routing, admission control, and graceful degradation.
//!
//! One store segment means one segment lock, and Figure 10 shows what
//! that costs: every SET serializes the whole keyspace. Sharding splits
//! the keyspace over `S` independent store segments, each in its own
//! 512 GiB PML4 slot with its own lockable segment and its own pair of
//! read/write VASes per client — writes to different shards proceed in
//! parallel, and a reader run on one shard never waits behind a writer
//! on another.
//!
//! The overload machinery lives here too:
//!
//! * **Routing** — [`ShardRouter`], a consistent-hash ring with virtual
//!   nodes, so adding a shard remaps only ~1/S of the keyspace.
//! * **Admission** — a request to a shard whose switch queue is at its
//!   bound is rejected with [`RejectReason::Shed`] *before* it burns a
//!   core spinning on the segment lock; the caller retries with
//!   bounded exponential backoff or gives up.
//! * **Degradation** — when the kernel reports critical memory
//!   pressure ([`sjmp_os::PressureLevel`]), shards flip to read-only:
//!   SETs fail fast with [`RejectReason::ShardUnavailable`] while GETs
//!   keep serving, and writes resume when pressure clears.
//! * **Deadlines** — [`ShardedKv::get_by`] and [`ShardedKv::set_by`]
//!   reject requests whose deadline already passed with
//!   [`RejectReason::DeadlineExceeded`] instead of doing work nobody is
//!   waiting for.

use sjmp_os::{Pid, PressureLevel};
use sjmp_trace::EventKind;
use spacejmp_core::{SegId, SjError, SjResult, SpaceJmp};

use crate::dict::hash_key;
use crate::jmp::{JmpClient, JoinOpts};

/// Maximum shard count: store slots 0..8 precede the scratch slots.
pub const MAX_SHARDS: usize = 8;

/// Virtual nodes per shard on the consistent-hash ring.
const VNODES: usize = 64;

/// Why a request was refused without being served.
///
/// Typed so callers can react differently: `Shed` is transient (retry
/// with backoff), `ShardUnavailable` is a mode (fail writes fast, keep
/// reading), `DeadlineExceeded` is final (the client already gave up).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// The shard's admission queue is at its bound; retry after backoff.
    Shed,
    /// The request's deadline passed before it could be dispatched.
    DeadlineExceeded,
    /// The shard is degraded to read-only (memory pressure); writes are
    /// refused until pressure clears.
    ShardUnavailable,
}

impl RejectReason {
    /// Stable lowercase name for reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            RejectReason::Shed => "shed",
            RejectReason::DeadlineExceeded => "deadline_exceeded",
            RejectReason::ShardUnavailable => "shard_unavailable",
        }
    }
}

/// A sharded-store request failure: either a typed rejection by the
/// admission layer or an underlying SpaceJMP error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// Refused by admission control; the store did no work.
    Rejected(RejectReason),
    /// The dispatched operation itself failed.
    Inner(SjError),
}

impl From<SjError> for ShardError {
    fn from(e: SjError) -> Self {
        ShardError::Inner(e)
    }
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Rejected(r) => write!(f, "rejected: {}", r.name()),
            ShardError::Inner(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// The dictionary's FNV-1a key hash with a 64-bit finalizer. Plain
/// FNV-1a avalanches poorly into the high bits for short, similar keys —
/// and ring placement orders by the *full* `u64`, so without the mix,
/// `key:001` and `key:002` land on the same arc and one shard owns the
/// whole keyspace. The final mixer (Murmur3/SplitMix-style) spreads
/// low-bit differences across the word.
fn ring_hash(bytes: &[u8]) -> u64 {
    let mut h = hash_key(bytes);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// A consistent-hash ring mapping keys to shard indices.
///
/// Each shard contributes 64 virtual nodes on a `u64` ring; a key routes
/// to the first point clockwise from its hash. Adding or removing one
/// shard therefore remaps only the keys between its points and their
/// predecessors — about `1/S` of the keyspace — instead of reshuffling
/// everything the way `hash % S` does.
///
/// # Examples
///
/// ```
/// use sjmp_kv::ShardRouter;
/// let router = ShardRouter::new(4);
/// let s = router.route(b"user:1001");
/// assert!(s < 4);
/// assert_eq!(s, router.route(b"user:1001"), "routing is stable");
/// ```
#[derive(Debug, Clone)]
pub struct ShardRouter {
    /// `(point, shard)` sorted by point.
    ring: Vec<(u64, usize)>,
    shards: usize,
}

impl ShardRouter {
    /// A ring over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        let mut ring = Vec::with_capacity(shards * VNODES);
        for s in 0..shards {
            for v in 0..VNODES {
                ring.push((ring_hash(format!("shard-{s}-vnode-{v}").as_bytes()), s));
            }
        }
        ring.sort_unstable();
        ring.dedup_by_key(|&mut (p, _)| p);
        ShardRouter { ring, shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key`.
    pub fn route(&self, key: &[u8]) -> usize {
        let h = ring_hash(key);
        let i = match self.ring.binary_search_by_key(&h, |&(p, _)| p) {
            Ok(i) => i,
            // First point clockwise; wrap past the highest point.
            Err(i) => i % self.ring.len(),
        };
        self.ring[i].1
    }
}

/// Live health of one shard, as seen by admission control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHealth {
    /// Switchers blocked on this shard's store segment right now.
    pub wait_depth: usize,
    /// Whether the shard is currently read-only.
    pub degraded: bool,
}

/// A sharded RedisJMP store handle for one client process.
///
/// Holds one [`JmpClient`] per shard (each over its own store segment
/// and slot) plus the router and the admission policy. All shards share
/// the calling process, so a `ShardedKv` is per-`Pid` the way a
/// `JmpClient` is.
///
/// # Examples
///
/// ```
/// use sjmp_mem::{KernelFlavor, MachineId};
/// use sjmp_os::{Creds, Kernel};
/// use sjmp_kv::{JoinOpts, ShardedKv};
/// use spacejmp_core::SpaceJmp;
///
/// # fn main() -> Result<(), sjmp_kv::ShardError> {
/// let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M1));
/// let pid = sj.kernel_mut().spawn("client", Creds::new(100, 100)).map_err(spacejmp_core::SjError::from)?;
/// sj.kernel_mut().activate(pid).map_err(spacejmp_core::SjError::from)?;
/// let mut kv = ShardedKv::join(&mut sj, pid, "cache", 0, 4, JoinOpts::default())?;
/// kv.set_by(&mut sj, b"answer", b"42", None)?;
/// assert_eq!(kv.get_by(&mut sj, b"answer", None)?, Some(b"42".to_vec()));
/// # Ok(()) }
/// ```
#[derive(Debug)]
pub struct ShardedKv {
    router: ShardRouter,
    clients: Vec<JmpClient>,
    store_sids: Vec<SegId>,
    /// Per-shard admission bound on switch-queue depth.
    queue_cap: usize,
    /// This handle's client index (stamped into request ids and
    /// `ReqArrive.arg1` so traces can attribute requests to clients).
    client_idx: usize,
    /// Requests issued through this handle so far; the next request's
    /// id is `client_idx << 32 | req_seq`, unique across handles.
    req_seq: u64,
    /// Requests this handle had shed by admission control (fairness
    /// accounting: under uniform load no client should absorb a
    /// disproportionate share).
    sheds: u64,
}

/// Default per-shard admission bound: more blocked switchers than this
/// and new arrivals are shed instead of queued.
const DEFAULT_QUEUE_CAP: usize = 32;

impl ShardedKv {
    /// Joins (or lazily initializes) `shards` stores named
    /// `"{store}-s{shard}"`, one per PML4 slot, each with `opts` (whose
    /// `store_slot` is overridden per shard). `client_idx` must be unique
    /// per joining process; scratch segments are slotted as
    /// `client_idx * shards + shard` so every (client, shard) pair gets
    /// a distinct address slot.
    ///
    /// # Errors
    ///
    /// Propagates SpaceJMP failures.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or exceeds [`MAX_SHARDS`].
    pub fn join(
        sj: &mut SpaceJmp,
        pid: Pid,
        store: &str,
        client_idx: usize,
        shards: usize,
        opts: JoinOpts,
    ) -> Result<ShardedKv, ShardError> {
        assert!(shards > 0, "need at least one shard");
        assert!(shards <= MAX_SHARDS, "at most {MAX_SHARDS} shards");
        let mut clients = Vec::with_capacity(shards);
        let mut store_sids = Vec::with_capacity(shards);
        for s in 0..shards {
            let name = format!("{store}-s{s}");
            let client = JmpClient::join_cfg(
                sj,
                pid,
                &name,
                client_idx * shards + s,
                JoinOpts {
                    store_slot: s as u64,
                    ..opts
                },
            )?;
            store_sids.push(sj.seg_find(&format!("jmp-store-{name}"))?);
            clients.push(client);
        }
        Ok(ShardedKv {
            router: ShardRouter::new(shards),
            clients,
            store_sids,
            queue_cap: DEFAULT_QUEUE_CAP,
            client_idx,
            req_seq: 0,
            sheds: 0,
        })
    }

    /// Sets the per-shard admission bound (default 32 queued switchers).
    pub fn set_queue_cap(&mut self, cap: usize) {
        self.queue_cap = cap.max(1);
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.clients.len()
    }

    /// The router (stable key → shard mapping).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The shard that owns `key`.
    pub fn shard_of(&self, key: &[u8]) -> usize {
        self.router.route(key)
    }

    /// The store segment backing shard `s`.
    pub fn store_sid(&self, s: usize) -> SegId {
        self.store_sids[s]
    }

    /// Whether the shards are currently degraded to read-only. Memory
    /// pressure is a kernel-global signal, so under pressure every shard
    /// degrades at once.
    pub fn degraded(&self, sj: &SpaceJmp) -> bool {
        sj.kernel().mem_pressure() >= PressureLevel::Critical
    }

    /// Health snapshot of every shard (queue depth + degraded flag).
    pub fn health(&self, sj: &SpaceJmp) -> Vec<ShardHealth> {
        (0..self.shards())
            .map(|s| ShardHealth {
                wait_depth: sj.seg_wait_depth(self.store_sids[s]),
                degraded: self.degraded(sj),
            })
            .collect()
    }

    /// Requests this handle has had shed by admission control.
    pub fn sheds(&self) -> u64 {
        self.sheds
    }

    /// Admission check for shard `s`: shed when the shard's switch
    /// queue is at the bound, refuse writes when degraded. Tallies
    /// sheds per handle for fairness accounting.
    fn admit(&mut self, sj: &SpaceJmp, s: usize, write: bool) -> Result<(), ShardError> {
        if write && self.degraded(sj) {
            return Err(ShardError::Rejected(RejectReason::ShardUnavailable));
        }
        if sj.seg_wait_depth(self.store_sids[s]) >= self.queue_cap {
            self.sheds += 1;
            return Err(ShardError::Rejected(RejectReason::Shed));
        }
        Ok(())
    }

    /// The calling core and its cycle timestamp, for trace attribution.
    fn now_core(&self, sj: &SpaceJmp) -> (u64, u32) {
        let core = sj
            .kernel()
            .ctx_of(self.clients[0].pid())
            .map_or(0, |c| c.core);
        (sj.kernel().clocks().now_on(core), core as u32)
    }

    /// Mints a request id and emits `ReqArrive`, or `None` when the
    /// tracer is off — request tracing is strictly zero-cost then (no
    /// id minting, no clock reads, no modeled cycles ever).
    fn req_begin(&mut self, sj: &SpaceJmp) -> Option<u64> {
        if !sj.tracer().enabled() {
            return None;
        }
        let id = ((self.client_idx as u64) << 32) | self.req_seq;
        self.req_seq += 1;
        let (ts, core) = self.now_core(sj);
        sj.tracer()
            .instant(ts, core, EventKind::ReqArrive, id, self.client_idx as u64);
        Some(id)
    }

    /// Emits a request-lifecycle instant for a minted id.
    fn req_mark(&self, sj: &SpaceJmp, id: Option<u64>, kind: EventKind, arg1: u64) {
        let Some(id) = id else { return };
        let (ts, core) = self.now_core(sj);
        sj.tracer().instant(ts, core, kind, id, arg1);
    }

    /// Emits `ReqShed` with the rejection's stable shed code.
    fn req_reject(&self, sj: &SpaceJmp, id: Option<u64>, e: &ShardError) {
        let code = match e {
            ShardError::Rejected(RejectReason::Shed) => 0,
            ShardError::Rejected(RejectReason::DeadlineExceeded) => 1,
            ShardError::Rejected(RejectReason::ShardUnavailable) => 2,
            ShardError::Inner(_) => return,
        };
        self.req_mark(sj, id, EventKind::ReqShed, code);
    }

    /// Emits `ReqComplete` with the within-deadline flag.
    fn req_complete(&self, sj: &SpaceJmp, id: Option<u64>, deadline: Option<u64>) {
        if id.is_none() {
            return;
        }
        let within = deadline.is_none_or(|d| sj.kernel().clock().now() <= d);
        self.req_mark(sj, id, EventKind::ReqComplete, u64::from(within));
    }

    /// One request to the shard owning `key`: rejects it when its
    /// `deadline` (absolute cycles) already passed or admission refuses
    /// it, otherwise dispatches `op` to that shard's client, tracing
    /// every step of the request's life.
    fn request<T>(
        &mut self,
        sj: &mut SpaceJmp,
        key: &[u8],
        write: bool,
        deadline: Option<u64>,
        op: impl FnOnce(&mut JmpClient, &mut SpaceJmp) -> SjResult<T>,
    ) -> Result<T, ShardError> {
        let s = self.shard_of(key);
        let id = self.req_begin(sj);
        let expired = deadline.is_some_and(|d| sj.kernel().clock().now() > d);
        let admitted = if expired {
            Err(ShardError::Rejected(RejectReason::DeadlineExceeded))
        } else {
            self.admit(sj, s, write)
        };
        if let Err(e) = admitted {
            self.req_reject(sj, id, &e);
            return Err(e);
        }
        self.req_mark(sj, id, EventKind::ReqAdmit, s as u64);
        // arg1 = 0: on the live path the switch share is carried by the
        // nested `VasSwitch` spans between dispatch and completion.
        self.req_mark(sj, id, EventKind::ReqDispatch, 0);
        let out = op(&mut self.clients[s], sj);
        self.req_complete(sj, id, deadline);
        Ok(out?)
    }

    /// GET routed to the owning shard, with an absolute deadline in
    /// cycles ([`None`] = none).
    ///
    /// # Errors
    ///
    /// [`RejectReason::DeadlineExceeded`] when the deadline already
    /// passed at dispatch; [`RejectReason::Shed`] at the admission
    /// bound; inner errors otherwise.
    pub fn get_by(
        &mut self,
        sj: &mut SpaceJmp,
        key: &[u8],
        deadline: Option<u64>,
    ) -> Result<Option<Vec<u8>>, ShardError> {
        self.request(sj, key, false, deadline, |c, sj| c.get(sj, key))
    }

    /// SET routed to the owning shard, with an absolute deadline in
    /// cycles ([`None`] = none).
    ///
    /// # Errors
    ///
    /// [`RejectReason::ShardUnavailable`] while degraded;
    /// [`RejectReason::DeadlineExceeded`] and [`RejectReason::Shed`] as
    /// in [`Self::get_by`]; inner errors otherwise.
    pub fn set_by(
        &mut self,
        sj: &mut SpaceJmp,
        key: &[u8],
        val: &[u8],
        deadline: Option<u64>,
    ) -> Result<(), ShardError> {
        self.request(sj, key, true, deadline, |c, sj| c.set(sj, key, val))
    }

    /// DEL routed to the owning shard (write path: degrades and sheds
    /// like SET).
    ///
    /// # Errors
    ///
    /// As [`Self::set_by`], less the deadline.
    pub fn del(&mut self, sj: &mut SpaceJmp, key: &[u8]) -> Result<bool, ShardError> {
        self.request(sj, key, true, None, |c, sj| c.del(sj, key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjmp_mem::{KernelFlavor, MachineId};
    use sjmp_os::{Creds, Kernel};

    fn setup(shards: usize, n_clients: usize) -> (SpaceJmp, Vec<ShardedKv>) {
        let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M1));
        let kvs = (0..n_clients)
            .map(|i| {
                let pid = sj
                    .kernel_mut()
                    .spawn(&format!("sc{i}"), Creds::new(100, 100))
                    .unwrap();
                sj.kernel_mut().activate(pid).unwrap();
                ShardedKv::join(&mut sj, pid, "sharded", i, shards, JoinOpts::default()).unwrap()
            })
            .collect();
        (sj, kvs)
    }

    #[test]
    fn router_covers_all_shards_roughly_evenly() {
        let router = ShardRouter::new(4);
        let mut counts = [0usize; 4];
        for i in 0..4000 {
            counts[router.route(format!("key:{i}").as_bytes())] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                (400..=2200).contains(&c),
                "shard {s} got {c} of 4000 keys: {counts:?}"
            );
        }
    }

    #[test]
    fn adding_a_shard_remaps_a_minority_of_keys() {
        let before = ShardRouter::new(4);
        let after = ShardRouter::new(5);
        let keys = 4000;
        let moved = (0..keys)
            .filter(|i| {
                let k = format!("key:{i}");
                before.route(k.as_bytes()) != after.route(k.as_bytes())
            })
            .count();
        // Consistent hashing moves ~1/5 of keys; modulo would move ~4/5.
        assert!(
            moved < keys / 2,
            "{moved}/{keys} keys moved; expected a minority"
        );
        assert!(moved > 0, "a new shard must take over some keys");
    }

    #[test]
    fn sharded_roundtrip_spreads_keys_across_segments() {
        let (mut sj, mut kvs) = setup(4, 1);
        let kv = &mut kvs[0];
        let mut used = [false; 4];
        for i in 0..64 {
            let k = format!("key:{i:03}");
            kv.set_by(&mut sj, k.as_bytes(), format!("v{i}").as_bytes(), None)
                .unwrap();
            used[kv.shard_of(k.as_bytes())] = true;
        }
        assert!(used.iter().all(|&u| u), "all shards used: {used:?}");
        for i in 0..64 {
            let k = format!("key:{i:03}");
            assert_eq!(
                kv.get_by(&mut sj, k.as_bytes(), None).unwrap(),
                Some(format!("v{i}").into_bytes())
            );
        }
    }

    #[test]
    fn clients_share_every_shard() {
        let (mut sj, mut kvs) = setup(2, 2);
        for i in 0..32 {
            let k = format!("shared:{i}");
            kvs[0].set_by(&mut sj, k.as_bytes(), b"x", None).unwrap();
        }
        for i in 0..32 {
            let k = format!("shared:{i}");
            assert_eq!(
                kvs[1].get_by(&mut sj, k.as_bytes(), None).unwrap(),
                Some(b"x".to_vec())
            );
        }
    }

    #[test]
    fn deadline_already_passed_is_rejected_before_dispatch() {
        let (mut sj, mut kvs) = setup(2, 1);
        kvs[0].set_by(&mut sj, b"k", b"v", None).unwrap();
        // A deadline in the past: the clock has advanced past 0.
        assert!(sj.kernel().clock().now() > 0);
        assert_eq!(
            kvs[0].get_by(&mut sj, b"k", Some(0)),
            Err(ShardError::Rejected(RejectReason::DeadlineExceeded))
        );
        // A generous deadline is admitted.
        let far = sj.kernel().clock().now() + 1_000_000_000;
        assert_eq!(
            kvs[0].get_by(&mut sj, b"k", Some(far)).unwrap(),
            Some(b"v".to_vec())
        );
    }

    #[test]
    fn health_reports_every_shard() {
        let (sj, kvs) = setup(3, 1);
        let h = kvs[0].health(&sj);
        assert_eq!(h.len(), 3);
        assert!(h.iter().all(|s| s.wait_depth == 0 && !s.degraded));
    }

    #[test]
    fn live_requests_emit_reassemblable_causal_spans() {
        use sjmp_trace::{assemble_requests, ReqOutcome, Tracer};

        let (mut sj, mut kvs) = setup(2, 2);
        sj.set_tracer(Tracer::new(1 << 16));
        kvs[0].set_by(&mut sj, b"k", b"v", None).unwrap();
        assert_eq!(
            kvs[1].get_by(&mut sj, b"k", None).unwrap(),
            Some(b"v".to_vec())
        );
        // A rejected request ends in ReqShed with the deadline code.
        assert_eq!(
            kvs[1].get_by(&mut sj, b"k", Some(0)),
            Err(ShardError::Rejected(RejectReason::DeadlineExceeded))
        );

        let spans = assemble_requests(&sj.tracer().events());
        assert_eq!(spans.len(), 3, "{spans:?}");
        // Ids embed the handle's client index in the high word, so
        // concurrent handles never collide.
        let mut by_client: Vec<u64> = spans.iter().map(|s| s.id >> 32).collect();
        by_client.sort_unstable();
        assert_eq!(by_client, vec![0, 1, 1]);
        assert_eq!(
            spans
                .iter()
                .filter(|s| matches!(s.outcome, ReqOutcome::Completed(true)))
                .count(),
            2
        );
        assert_eq!(
            spans
                .iter()
                .filter(|s| s.outcome == ReqOutcome::DeadlineExceeded)
                .count(),
            1
        );
    }

    #[test]
    fn request_tracing_off_mints_nothing() {
        let (mut sj, mut kvs) = setup(2, 1);
        kvs[0].set_by(&mut sj, b"k", b"v", None).unwrap();
        kvs[0].get_by(&mut sj, b"k", None).unwrap();
        assert_eq!(kvs[0].req_seq, 0, "no ids minted with the tracer off");
        assert!(sj.tracer().events().is_empty());
    }
}
