//! Message-passing cluster model: the OpenMPI stand-in for GUPS "MP".
//!
//! In the paper's multi-process GUPS design (Section 5.2), "one process
//! acts as master and the rest as slaves, whereby the master process sends
//! RPC messages using OpenMPI to the slave process holding the appropriate
//! portion of physical memory. It then blocks, waiting for the slave to
//! apply the batch of updates." Each process is pinned to a core, and "at
//! greater than 36 cores on M3, the performance of MP drops, due to the
//! busy-wait characteristics \[of\] the OpenMPI implementation."
//!
//! [`MpCluster`] models exactly those costs on the per-core clocks of a
//! [`CoreClocks`] set: the master core pays marshalling, the request
//! transfer (intra- or cross-socket depending on the slave's pinning),
//! and the blocking wait for the acknowledgment; the slave core catches
//! up to the request's arrival, pays unmarshalling, applies the batch
//! (charged by the caller between [`MpCluster::send_batch`] and
//! [`MpCluster::complete`]), and sends the ack. Oversubscription past the
//! machine's core count is charged to the blocked master (busy-wait
//! churn).

use sjmp_mem::cost::{CoreClocks, CoreCtx, CostModel, MachineProfile};
use sjmp_trace::{EventKind, Tracer};

/// Per-exchange statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MpStats {
    /// Request/response exchanges completed.
    pub exchanges: u64,
    /// Total payload bytes moved.
    pub bytes: u64,
}

/// A master plus `slaves` worker processes, each pinned to a core.
///
/// Slave `k` runs on hardware thread `(master.core + k + 1) % cores`, the
/// same striping the kernel uses when processes are spawned master-first
/// — with more processes than cores, several slaves share one.
///
/// # Examples
///
/// ```
/// use sjmp_mem::cost::{CoreClocks, CoreCtx, CostModel, MachineId, MachineProfile};
/// use sjmp_rpc::MpCluster;
///
/// let profile = MachineProfile::of(MachineId::M3);
/// let clocks = CoreClocks::new(profile.total_cores() as usize);
/// let mut cluster = MpCluster::new(4, profile, CostModel::default(),
///                                  clocks.clone(), CoreCtx::BOOT);
/// cluster.exchange(2, 512); // ship a 512-byte batch to slave 2
/// assert!(clocks.now() > 0, "the blocking round trip costs cycles");
/// ```
#[derive(Debug)]
pub struct MpCluster {
    slaves: usize,
    profile: MachineProfile,
    cost: CostModel,
    clocks: CoreClocks,
    master: CoreCtx,
    stats: MpStats,
    /// Emits on its own: message passing runs on its own clocks, beside
    /// the kernel rather than inside it.
    tracer: Tracer,
    /// Marshalling cost per message (serializing the update batch).
    pub marshal_per_msg: u64,
    /// Extra cost factor once processes exceed cores (busy-wait churn).
    pub oversub_penalty: u64,
}

impl MpCluster {
    /// Creates a cluster of one master (on `master`'s core) and `slaves`
    /// slaves on `profile`, charging the per-core `clocks`.
    pub fn new(
        slaves: usize,
        profile: MachineProfile,
        cost: CostModel,
        clocks: CoreClocks,
        master: CoreCtx,
    ) -> Self {
        MpCluster {
            slaves,
            profile,
            cost,
            clocks,
            master,
            stats: MpStats::default(),
            tracer: Tracer::disabled(),
            marshal_per_msg: 600,
            oversub_penalty: 4000,
        }
    }

    /// Installs a tracer; each exchange becomes an `RpcSend` span on the
    /// master's core and an `RpcRecv` span on the slave's.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Number of slave processes.
    pub fn slaves(&self) -> usize {
        self.slaves
    }

    /// The hardware thread slave `idx` is pinned to.
    pub fn slave_core(&self, slave: usize) -> usize {
        (self.master.core + slave + 1) % self.profile.total_cores() as usize
    }

    /// Statistics so far.
    pub fn stats(&self) -> MpStats {
        self.stats
    }

    /// Whether slave `idx` sits on a different socket than the master.
    /// Processes are striped across sockets like the paper's pinning.
    fn cross_socket(&self, slave: usize) -> bool {
        let cores_per_socket = self.profile.cores_per_socket as usize;
        !((slave + 1) / cores_per_socket).is_multiple_of(self.profile.sockets as usize)
    }

    /// Ships a `req_bytes` request to `slave`: the master core pays
    /// marshalling plus the line transfers, then the slave core catches
    /// up to the request's arrival and pays unmarshalling. Work charged
    /// to the slave's core between this call and [`Self::complete`]
    /// models the slave applying the batch.
    pub fn send_batch(&mut self, slave: usize, req_bytes: usize) {
        debug_assert!(slave < self.slaves, "slave index out of range");
        let lines = (req_bytes.div_ceil(64).max(1)) as u64;
        let per_line = self.cost.cacheline_transfer(self.cross_socket(slave));
        let m = self.master.core;
        self.tracer.begin(
            self.clocks.now_on(m),
            m as u32,
            EventKind::RpcSend,
            slave as u64,
        );
        self.clocks
            .advance(m, self.marshal_per_msg + lines * per_line);
        self.tracer.end(
            self.clocks.now_on(m),
            m as u32,
            EventKind::RpcSend,
            slave as u64,
        );
        // The request is visible to the slave once the last line lands.
        let s = self.slave_core(slave);
        self.clocks.catch_up(s, self.clocks.now_on(m));
        self.clocks.advance(s, self.marshal_per_msg);
        self.stats.bytes += req_bytes as u64;
    }

    /// Completes the exchange: the slave sends its acknowledgment line
    /// and the blocked master catches up to its arrival, paying the ack
    /// transfer plus any busy-wait oversubscription churn.
    pub fn complete(&mut self, slave: usize) {
        debug_assert!(slave < self.slaves, "slave index out of range");
        let per_line = self.cost.cacheline_transfer(self.cross_socket(slave));
        let s = self.slave_core(slave);
        let m = self.master.core;
        self.tracer.begin(
            self.clocks.now_on(s),
            s as u32,
            EventKind::RpcRecv,
            slave as u64,
        );
        self.tracer.end(
            self.clocks.now_on(s),
            s as u32,
            EventKind::RpcRecv,
            slave as u64,
        );
        // Master blocked for the ack; it resumes when the line arrives.
        self.clocks.catch_up(m, self.clocks.now_on(s));
        let mut cycles = per_line;
        // More processes than cores: the slave may not have been running
        // when the message arrived; busy-wait scheduling churn adds
        // latency on the blocked master.
        let total_procs = self.slaves + 1;
        let cores = self.profile.total_cores() as usize;
        if total_procs > cores {
            let over = (total_procs - cores) as u64;
            cycles += self.oversub_penalty * over.min(64);
        }
        self.clocks.advance(m, cycles);
        self.stats.exchanges += 1;
    }

    /// One synchronous exchange with `slave`: request out, batch applied
    /// instantaneously, acknowledgment back ([`Self::send_batch`] then
    /// [`Self::complete`] with no slave-side work in between).
    pub fn exchange(&mut self, slave: usize, req_bytes: usize) {
        self.send_batch(slave, req_bytes);
        self.complete(slave);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjmp_mem::cost::MachineId;

    fn cluster(slaves: usize) -> (MpCluster, CoreClocks) {
        let profile = MachineProfile::of(MachineId::M3);
        let clocks = CoreClocks::new(profile.total_cores() as usize);
        let c = MpCluster::new(
            slaves,
            profile,
            CostModel::default(),
            clocks.clone(),
            CoreCtx::BOOT,
        );
        (c, clocks)
    }

    #[test]
    fn exchange_costs_cycles() {
        let (mut c, clocks) = cluster(4);
        c.exchange(0, 128);
        assert!(clocks.now() > 0);
        assert_eq!(c.stats().exchanges, 1);
        assert_eq!(c.stats().bytes, 128);
    }

    #[test]
    fn exchange_lands_on_master_and_slave_cores_only() {
        let (mut c, clocks) = cluster(4);
        c.exchange(2, 512);
        assert!(clocks.now_on(0) > 0, "master core pays the round trip");
        assert!(clocks.now_on(3) > 0, "slave 2 runs on core 3");
        assert_eq!(clocks.now_on(1), 0, "uninvolved cores stay idle");
        assert!(
            clocks.now_on(0) >= clocks.now_on(3),
            "the blocked master finishes after the slave's ack"
        );
    }

    #[test]
    fn remote_slaves_cost_more() {
        let (mut c, clocks) = cluster(35);
        c.exchange(0, 512); // same socket as master
        let local = clocks.now();
        clocks.reset();
        c.exchange(20, 512); // striped to the other socket
        let remote = clocks.now();
        assert!(remote > local, "{remote} vs {local}");
    }

    #[test]
    fn oversubscription_penalty_kicks_in_past_core_count() {
        // M3 has 36 cores; 40 processes must pay the busy-wait penalty.
        let (mut small, clocks_s) = cluster(30);
        small.exchange(0, 64);
        let fits = clocks_s.now();
        let (mut big, clocks_b) = cluster(64);
        big.exchange(0, 64);
        let oversub = clocks_b.now();
        assert!(oversub > fits * 2, "{oversub} vs {fits}");
    }

    #[test]
    fn bigger_batches_cost_more() {
        let (mut c, clocks) = cluster(4);
        c.exchange(0, 64);
        let small = clocks.now();
        c.exchange(0, 64 * 64);
        let large = clocks.now() - small;
        assert!(large > small);
    }
}
