//! URPC: polled, cache-line-granular shared-memory channels.
//!
//! The paper's Figure 7 compares `vas_switch`-based data access against
//! Barrelfish's low-latency user-space RPC, where "both client and server
//! busy-wait polling different circular buffers of cache-line-sized
//! messages in a manner similar to FastForward." This module reproduces
//! that channel: a bounded ring of 64-byte lines, one direction per ring,
//! with transfer costs depending on whether producer and consumer share a
//! socket (`URPC L` vs `URPC X` in the figure).
//!
//! Each endpoint is pinned to a hardware thread and charges its own core
//! clock in a shared [`CoreClocks`] set: the producer pays the stores into
//! the shared lines, and the polling consumer — which cannot observe a
//! line before it is written — first spins forward to the moment the
//! message became visible, then pays the coherence transfers to pull it.

use std::collections::VecDeque;

use sjmp_mem::cost::{CoreClocks, CoreCtx, CostModel};
use sjmp_trace::{EventKind, Tracer};

/// Cache line size of the simulated machines.
pub const CACHE_LINE: usize = 64;
/// Payload bytes per line (one word is reserved for the presence flag and
/// sequence number, as in FastForward).
pub const LINE_PAYLOAD: usize = CACHE_LINE - 8;

/// Relative placement of the two endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Same socket: lines move through the shared LLC.
    IntraSocket,
    /// Different sockets: lines cross the interconnect.
    CrossSocket,
}

/// Errors from channel operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcError {
    /// The ring is full; the producer must back off and poll.
    ChannelFull,
    /// Message exceeds the channel's maximum size.
    TooLarge,
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::ChannelFull => write!(f, "channel ring is full"),
            RpcError::TooLarge => write!(f, "message exceeds channel capacity"),
        }
    }
}

impl std::error::Error for RpcError {}

sjmp_trace::counter_group! {
    /// Channel statistics.
    pub struct ChannelStats {
        /// Messages sent.
        sent => "urpc.sent",
        /// Messages received.
        received => "urpc.received",
        /// Cache lines transferred.
        lines => "urpc.lines",
        /// Producer stalls on a full ring.
        stalls => "urpc.stalls",
    }
}

/// One direction of a URPC channel, producer and consumer each pinned to
/// a hardware thread.
///
/// # Examples
///
/// ```
/// use sjmp_mem::cost::{CoreClocks, CoreCtx, CostModel};
/// use sjmp_rpc::urpc::{Placement, UrpcChannel};
///
/// let clocks = CoreClocks::new(2);
/// let mut ch = UrpcChannel::new(64, Placement::IntraSocket,
///                               CostModel::default(), clocks.clone(),
///                               CoreCtx::new(0), CoreCtx::new(1));
/// ch.send(b"hello").unwrap();
/// assert_eq!(ch.recv().unwrap(), b"hello");
/// assert!(clocks.now() > 0, "transfers cost cycles");
/// ```
#[derive(Debug)]
pub struct UrpcChannel {
    /// Messages in flight, each with the cycle its last line became
    /// visible to the polling consumer.
    ring: VecDeque<(Vec<u8>, u64)>,
    capacity_lines: usize,
    used_lines: usize,
    placement: Placement,
    cost: CostModel,
    clocks: CoreClocks,
    producer: CoreCtx,
    consumer: CoreCtx,
    stats: ChannelStats,
    /// Emits on its own: the channel runs on its own clocks, beside the
    /// kernel rather than inside it.
    tracer: Tracer,
}

impl UrpcChannel {
    /// Creates a channel whose ring holds `capacity_lines` cache lines,
    /// written from `producer`'s core and polled from `consumer`'s.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_lines` is zero.
    pub fn new(
        capacity_lines: usize,
        placement: Placement,
        cost: CostModel,
        clocks: CoreClocks,
        producer: CoreCtx,
        consumer: CoreCtx,
    ) -> Self {
        assert!(capacity_lines > 0, "ring must hold at least one line");
        UrpcChannel {
            ring: VecDeque::new(),
            capacity_lines,
            used_lines: 0,
            placement,
            cost,
            clocks,
            producer,
            consumer,
            stats: ChannelStats::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Installs a tracer; `RpcSend` spans land on the producer's core and
    /// `RpcRecv` spans on the consumer's.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Number of cache lines a message of `len` bytes occupies.
    pub fn lines_for(len: usize) -> usize {
        len.div_ceil(LINE_PAYLOAD).max(1)
    }

    /// Channel statistics.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Enqueues a message, charging the producer's core (stores into the
    /// shared lines plus fixed software overhead).
    ///
    /// # Errors
    ///
    /// * [`RpcError::TooLarge`] if the message exceeds the whole ring.
    /// * [`RpcError::ChannelFull`] if it does not fit right now.
    pub fn send(&mut self, msg: &[u8]) -> Result<(), RpcError> {
        let lines = Self::lines_for(msg.len());
        if lines > self.capacity_lines {
            return Err(RpcError::TooLarge);
        }
        if self.used_lines + lines > self.capacity_lines {
            self.stats.stalls += 1;
            return Err(RpcError::ChannelFull);
        }
        let p = self.producer.core;
        self.tracer.begin(
            self.clocks.now_on(p),
            p as u32,
            EventKind::RpcSend,
            lines as u64,
        );
        self.clocks.advance(
            p,
            self.cost.urpc_sw_overhead + lines as u64 * self.cost.cache_hit,
        );
        let ready = self.clocks.now_on(p);
        self.tracer
            .end(ready, p as u32, EventKind::RpcSend, lines as u64);
        self.used_lines += lines;
        self.ring.push_back((msg.to_vec(), ready));
        self.stats.sent += 1;
        self.stats.lines += lines as u64;
        Ok(())
    }

    /// Polls for the next message, charging the consumer's core: it spins
    /// until the message's lines are visible, then pays one coherence
    /// transfer per line.
    pub fn recv(&mut self) -> Option<Vec<u8>> {
        let (msg, ready) = self.ring.pop_front()?;
        let lines = Self::lines_for(msg.len());
        self.used_lines -= lines;
        let per_line = self
            .cost
            .cacheline_transfer(self.placement == Placement::CrossSocket);
        let c = self.consumer.core;
        // The polling consumer cannot see the presence flag before the
        // producer's final store lands.
        self.clocks.catch_up(c, ready);
        self.tracer.begin(
            self.clocks.now_on(c),
            c as u32,
            EventKind::RpcRecv,
            lines as u64,
        );
        self.clocks
            .advance(c, self.cost.urpc_sw_overhead + lines as u64 * per_line);
        self.tracer.end(
            self.clocks.now_on(c),
            c as u32,
            EventKind::RpcRecv,
            lines as u64,
        );
        self.stats.received += 1;
        Some(msg)
    }

    /// Whether a message is waiting.
    pub fn has_message(&self) -> bool {
        !self.ring.is_empty()
    }
}

/// A bidirectional URPC endpoint pair built from two rings, with a
/// convenience round-trip used by the Figure 7 benchmark: the client
/// sends a request and waits for the server's reply of `resp_len` bytes.
#[derive(Debug)]
pub struct UrpcPair {
    /// Client-to-server ring.
    pub to_server: UrpcChannel,
    /// Server-to-client ring.
    pub to_client: UrpcChannel,
}

impl UrpcPair {
    /// Creates a pair of rings with the same geometry and placement,
    /// connecting the `client`'s core to the `server`'s.
    pub fn new(
        capacity_lines: usize,
        placement: Placement,
        cost: CostModel,
        clocks: CoreClocks,
        client: CoreCtx,
        server: CoreCtx,
    ) -> Self {
        UrpcPair {
            to_server: UrpcChannel::new(
                capacity_lines,
                placement,
                cost.clone(),
                clocks.clone(),
                client,
                server,
            ),
            to_client: UrpcChannel::new(capacity_lines, placement, cost, clocks, server, client),
        }
    }

    /// Installs a tracer on both rings.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.to_server.set_tracer(tracer.clone());
        self.to_client.set_tracer(tracer);
    }

    /// Performs one RPC exchange: request out, response back. The server
    /// side is simulated inline (it echoes a response of `resp_len`
    /// bytes), so the cycles charged cover the full round trip across
    /// both cores.
    ///
    /// # Errors
    ///
    /// Ring-capacity errors from either direction.
    pub fn round_trip(&mut self, req: &[u8], resp_len: usize) -> Result<Vec<u8>, RpcError> {
        self.to_server.send(req)?;
        let _req = self.to_server.recv().expect("just sent");
        self.to_client.send(&vec![0u8; resp_len])?;
        Ok(self.to_client.recv().expect("just sent"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan(lines: usize, p: Placement) -> (UrpcChannel, CoreClocks) {
        let clocks = CoreClocks::new(2);
        (
            UrpcChannel::new(
                lines,
                p,
                CostModel::default(),
                clocks.clone(),
                CoreCtx::new(0),
                CoreCtx::new(1),
            ),
            clocks,
        )
    }

    #[test]
    fn fifo_order_and_contents() {
        let (mut ch, _) = chan(64, Placement::IntraSocket);
        ch.send(b"one").unwrap();
        ch.send(b"two").unwrap();
        assert_eq!(ch.recv().unwrap(), b"one");
        assert_eq!(ch.recv().unwrap(), b"two");
        assert!(ch.recv().is_none());
    }

    #[test]
    fn line_accounting() {
        assert_eq!(UrpcChannel::lines_for(0), 1);
        assert_eq!(UrpcChannel::lines_for(56), 1);
        assert_eq!(UrpcChannel::lines_for(57), 2);
        assert_eq!(UrpcChannel::lines_for(4096), 74);
    }

    #[test]
    fn backpressure_when_full() {
        let (mut ch, _) = chan(2, Placement::IntraSocket);
        ch.send(&[0; 56]).unwrap();
        ch.send(&[0; 56]).unwrap();
        assert_eq!(ch.send(&[0; 1]), Err(RpcError::ChannelFull));
        assert_eq!(ch.stats().stalls, 1);
        ch.recv().unwrap();
        ch.send(&[0; 1]).unwrap();
        assert_eq!(ch.send(&[0; 200]), Err(RpcError::TooLarge));
    }

    #[test]
    fn cross_socket_costs_more() {
        let (mut local, clocks_l) = chan(256, Placement::IntraSocket);
        let (mut cross, clocks_x) = chan(256, Placement::CrossSocket);
        local.send(&[0; 4096]).unwrap();
        local.recv().unwrap();
        cross.send(&[0; 4096]).unwrap();
        cross.recv().unwrap();
        assert!(clocks_x.now() > clocks_l.now(), "interconnect dominates");
    }

    #[test]
    fn larger_messages_cost_more() {
        let (mut ch, clocks) = chan(4096, Placement::IntraSocket);
        ch.send(&[0; 64]).unwrap();
        ch.recv().unwrap();
        let small = clocks.now();
        ch.send(&[0; 65536]).unwrap();
        ch.recv().unwrap();
        let large = clocks.now() - small;
        assert!(large > small * 10);
    }

    #[test]
    fn producer_and_consumer_charge_their_own_cores() {
        let (mut ch, clocks) = chan(256, Placement::IntraSocket);
        ch.send(&[0; 4096]).unwrap();
        let sent = clocks.now_on(0);
        assert!(sent > 0, "producer pays the stores");
        assert_eq!(clocks.now_on(1), 0, "consumer idle until it polls");
        ch.recv().unwrap();
        assert_eq!(clocks.now_on(0), sent, "recv never charges the producer");
        assert!(
            clocks.now_on(1) > sent,
            "consumer spins to visibility, then pays the transfers"
        );
    }

    #[test]
    fn round_trip_pair() {
        let clocks = CoreClocks::new(2);
        let mut pair = UrpcPair::new(
            4096,
            Placement::IntraSocket,
            CostModel::default(),
            clocks.clone(),
            CoreCtx::new(0),
            CoreCtx::new(1),
        );
        let resp = pair.round_trip(&[1; 8], 64).unwrap();
        assert_eq!(resp.len(), 64);
        assert_eq!(pair.to_server.stats().sent, 1);
        assert_eq!(pair.to_client.stats().received, 1);
        assert!(clocks.now() > 0);
    }
}
