//! The overload benchmark engine: open-loop traffic against the sharded
//! RedisJMP store, with admission control, deadlines, and retries.
//!
//! The Figure 10 engine ([`crate::bench`]) is a *closed* loop: each
//! client waits for its reply, so offered load can never exceed service
//! capacity and the system cannot collapse. Capacity planning for a
//! production deployment needs the opposite experiment — an **open
//! loop** ([`sjmp_sim::OpenLoop`]) where arrivals keep coming at the
//! offered rate no matter how the store is doing. Without overload
//! control, every arrival past saturation joins a queue; queues grow
//! without bound, latency diverges, and *goodput falls* because cores
//! burn cycles on requests whose clients already gave up.
//!
//! The engine here replays measured per-op costs
//! ([`crate::bench::measure_costs`]) in a deterministic DES, exactly
//! like `run_jmp`, but adds the production serving discipline:
//!
//! * **Sharding** — `S` store segments with independent FIFO segment
//!   locks; requests route by consistent hash ([`crate::shard::ShardRouter`]).
//! * **Admission** — an arrival finding its shard's queue at
//!   `queue_cap` is **shed** immediately ([`crate::shard::RejectReason::Shed`]):
//!   rejecting is cheap, queueing is not. Shed clients retry with the
//!   PR 1 exponential backoff plus deterministic jitter, up to
//!   `retry.max_retries` attempts.
//! * **Deadlines** — a request that reaches the head of the line after
//!   its deadline is dropped *at dispatch* without burning a core
//!   ([`crate::shard::RejectReason::DeadlineExceeded`]); a completion past its
//!   deadline counts as wasted work, not goodput.
//! * **Degraded mode** — from `degrade_at` on, `degraded_shards`
//!   shards flip read-only and refuse SETs with
//!   [`crate::shard::RejectReason::ShardUnavailable`], replaying in the DES the
//!   [`sjmp_os::PressureLevel`] signal the live
//!   [`crate::shard::ShardedKv`] path reads from the kernel.
//!
//! Everything is seeded: two runs with one config are bit-identical,
//! which CI enforces by running the sweep twice and byte-comparing.

use sjmp_mem::cost::{CostModel, MachineId, MachineProfile};
use sjmp_sim::{Arrival, Cores, LockMode, OpenLoop, Sim, SimRng, SimRwLock};
use sjmp_trace::{
    assemble_requests, slowest_completed, Event, EventKind, Histogram, Phase, RequestSpan, Tracer,
};
use spacejmp_core::{RetryPolicy, SjResult};

use crate::bench::{measure_costs, OpCosts, READER_BOUNCE, WAITER_BOUNCE};
use crate::shard::ShardRouter;

/// Keyspace size for routing (matches the Figure 10 preload).
const KEYSPACE: usize = 256;

/// Configuration of one open-loop overload run.
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Machine profile whose cores and cost model the DES replays.
    pub machine: MachineId,
    /// Store shards (independent segments + locks), 1..=8.
    pub shards: usize,
    /// Client population the arrivals multiplex over (tens of
    /// thousands: ids, not simulated processes).
    pub clients: usize,
    /// Total arrivals to generate.
    pub requests: usize,
    /// SET percentage (0 = pure GET).
    pub set_pct: u8,
    /// The arrival process (offered load lives in its mean gap).
    pub arrival: Arrival,
    /// Per-shard admission bound: arrivals finding this many waiters
    /// queued on the shard lock are shed.
    pub queue_cap: usize,
    /// Relative deadline in cycles from arrival; admitted work
    /// completing later is waste, not goodput.
    pub deadline: u64,
    /// Client retry-after-shed schedule (PR 1 backoff).
    pub retry: RetryPolicy,
    /// Cycle time at which memory pressure hits (None = never).
    pub degrade_at: Option<u64>,
    /// Shards that flip read-only at `degrade_at`.
    pub degraded_shards: usize,
    /// Enable TLB tagging for the cost measurement.
    pub tagging: bool,
    /// RNG seed (op mix, routing, jitter).
    pub seed: u64,
    /// Extra cycles per queued waiter on contended-lock handoff.
    pub waiter_bounce: u64,
    /// Extra cycles per concurrent reader on shared acquisition.
    pub reader_bounce: u64,
    /// Tracer for the cost-measurement kernels (the DES replay itself
    /// never touches a kernel). When enabled, the DES also mirrors its
    /// `Req*` lifecycle instants here for Chrome export.
    pub tracer: Tracer,
    /// Record per-request causal spans (`Req*` events) and reassemble
    /// tail exemplars. Pure observation: simulated cycles are
    /// bit-identical with this on or off.
    pub trace_requests: bool,
    /// How many slowest-completion span trees to keep as tail
    /// exemplars (only with `trace_requests`).
    pub exemplars: usize,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            machine: MachineId::M1,
            shards: 4,
            clients: 20_000,
            requests: 20_000,
            set_pct: 10,
            arrival: Arrival::Poisson { mean_gap: 2_000.0 },
            // Deliberately tight: handoff cost grows with queue depth
            // (waiter_bounce), so a deep queue slows the lock itself.
            // Shedding at 8 keeps the service rate near its peak.
            queue_cap: 8,
            deadline: 2_000_000,
            retry: RetryPolicy {
                max_retries: 3,
                base_backoff_cycles: 4096,
                max_backoff_shift: 4,
            },
            degrade_at: None,
            degraded_shards: 0,
            tagging: false,
            seed: 7,
            waiter_bounce: WAITER_BOUNCE,
            reader_bounce: READER_BOUNCE,
            tracer: Tracer::disabled(),
            trace_requests: false,
            exemplars: 3,
        }
    }
}

/// Outcome counters and latency tail of one overload run.
#[derive(Debug, Clone)]
pub struct OverloadResult {
    /// Arrivals generated (offered requests, before retries).
    pub offered: u64,
    /// Requests that passed admission and took the shard lock path.
    pub admitted: u64,
    /// Requests completed within their deadline (the goodput numerator).
    pub completed: u64,
    /// Requests finally shed (admission queue full, retries exhausted).
    pub shed: u64,
    /// Retry attempts scheduled after sheds.
    pub retries: u64,
    /// Requests dropped at dispatch or completed past deadline.
    pub deadline_rejects: u64,
    /// SETs refused by degraded (read-only) shards.
    pub degraded_rejects: u64,
    /// Simulated wall time of the whole run.
    pub secs: f64,
    /// Offered arrival rate over the arrival window.
    pub offered_rps: f64,
    /// Within-deadline completions per second (the headline number).
    pub goodput_rps: f64,
    /// Fraction of offered requests finally shed.
    pub shed_rate: f64,
    /// Latency percentiles of within-deadline completions, in cycles
    /// (conservative upper bounds; see [`Histogram::percentile`]).
    pub p50: u64,
    /// 99th percentile latency (cycles).
    pub p99: u64,
    /// 99.9th percentile latency (cycles).
    pub p999: u64,
    /// Exact bracket around the true p50 (see
    /// [`Histogram::percentile_bounds`]).
    pub p50_bounds: (u64, u64),
    /// Exact bracket around the true p99.
    pub p99_bounds: (u64, u64),
    /// Exact bracket around the true p99.9.
    pub p999_bounds: (u64, u64),
    /// Peak admission-queue depth over all shards.
    pub max_queue: usize,
    /// Latency histogram of within-deadline completions.
    pub latency: Histogram,
    /// Terminal sheds per client id (fairness accounting: with uniform
    /// arrivals no client should absorb a disproportionate share).
    pub client_sheds: Vec<u64>,
    /// The heaviest single client's terminal-shed count.
    pub max_client_sheds: u64,
    /// Span trees of the slowest within-deadline completions, with
    /// latency decomposed into backoff/queue/switch/service. Empty
    /// unless [`OverloadConfig::trace_requests`] is set.
    pub exemplars: Vec<RequestSpan>,
}

impl OverloadResult {
    /// Conservation check: every offered request is accounted exactly
    /// once as completed, shed, deadline-rejected, or degraded-rejected.
    pub fn accounted(&self) -> bool {
        self.completed + self.shed + self.deadline_rejects + self.degraded_rejects == self.offered
    }
}

/// Estimated saturation throughput (requests/sec) of the sharded store
/// on `machine`: the smaller of the core-pool bound (all cores busy on
/// the average request mix) and the write-serialization bound (each
/// shard's lock admits one SET at a time). The overload sweeps place
/// their offered-load points at fractions of this estimate.
pub fn saturation_rps(costs: &OpCosts, machine: MachineId, set_pct: u8, shards: usize) -> f64 {
    let profile = MachineProfile::of(machine);
    let secs_per_cycle = profile.cycles_to_secs(1);
    let set_frac = f64::from(set_pct) / 100.0;
    let avg = costs.jmp_set as f64 * set_frac + costs.jmp_get as f64 * (1.0 - set_frac);
    let core_bound = f64::from(profile.total_cores()) / (avg * secs_per_cycle);
    if set_frac == 0.0 {
        return core_bound;
    }
    // SETs serialize per shard: each shard completes one exclusive
    // holder every jmp_set cycles, and SETs are set_frac of traffic.
    let write_bound = shards as f64 / (costs.jmp_set as f64 * secs_per_cycle) / set_frac;
    core_bound.min(write_bound)
}

/// Offered load (requests/sec) → mean interarrival gap in cycles.
pub fn rps_to_mean_gap(machine: MachineId, rps: f64) -> f64 {
    let secs_per_cycle = MachineProfile::of(machine).cycles_to_secs(1);
    assert!(rps > 0.0, "offered load must be positive");
    1.0 / (rps * secs_per_cycle)
}

/// Per-request state tracked across admission, retries, and dispatch.
struct Req {
    shard: usize,
    is_set: bool,
    arrived: u64,
    attempts: u32,
    /// Issuing client id (for fairness accounting of sheds).
    client: usize,
    /// Core the visit was dispatched on (for `ReqComplete` attribution).
    core: u32,
}

/// Shed-reason codes carried in `ReqShed.arg1` (decoded by
/// [`sjmp_trace::ReqOutcome::from_shed_code`]).
const SHED_QUEUE: u64 = 0;
const SHED_DEADLINE: u64 = 1;
const SHED_UNAVAILABLE: u64 = 2;

/// Emits one request-lifecycle instant into the local span buffer (when
/// request tracing is on) and mirrors it to the run's tracer (when
/// enabled) so Chrome exports carry the same stream. Pure observation:
/// touches no clock, core pool, or RNG.
fn emit(
    buf: &mut Option<Vec<Event>>,
    tracer: &Tracer,
    ts: u64,
    core: u32,
    kind: EventKind,
    arg0: u64,
    arg1: u64,
) {
    if let Some(v) = buf {
        v.push(Event {
            ts,
            core,
            phase: Phase::Instant,
            kind,
            arg0,
            arg1,
        });
    }
    tracer.instant(ts, core, kind, arg0, arg1);
}

/// Runs one open-loop overload experiment.
///
/// # Errors
///
/// Propagates cost-measurement failures.
///
/// # Panics
///
/// Panics on a zero-shard or zero-request config.
pub fn run_overload(cfg: &OverloadConfig) -> SjResult<OverloadResult> {
    assert!(cfg.shards > 0, "need at least one shard");
    assert!(cfg.requests > 0, "need at least one request");
    let costs = measure_costs(cfg.machine, cfg.tagging, cfg.tracer.clone())?;
    let profile = MachineProfile::of(cfg.machine);
    let cost = CostModel::default();

    let router = ShardRouter::new(cfg.shards);
    let mut rng = SimRng::seed_from_u64(cfg.seed ^ 0x6f76_6c64); // "ovld"
    let mut arrivals = OpenLoop::new(cfg.arrival, cfg.clients, cfg.requests, cfg.seed);

    // The DES actors: one pooled core set, one FIFO lock per shard.
    let mut pool = Cores::new(profile.total_cores() as usize);
    let mut locks: Vec<SimRwLock> = (0..cfg.shards).map(|_| SimRwLock::new()).collect();

    #[derive(Clone, Copy)]
    enum Ev {
        /// A new request arrives from the open loop.
        Arrive(usize),
        /// A shed request retries after backoff.
        Retry(usize),
        /// The shard lock is held; dispatch on a core.
        Begin(usize),
        /// The visit is done; release the lock and account.
        Release(usize),
    }

    let mut reqs: Vec<Req> = Vec::with_capacity(cfg.requests);
    let mut res = OverloadResult {
        offered: 0,
        admitted: 0,
        completed: 0,
        shed: 0,
        retries: 0,
        deadline_rejects: 0,
        degraded_rejects: 0,
        secs: 0.0,
        offered_rps: 0.0,
        goodput_rps: 0.0,
        shed_rate: 0.0,
        p50: 0,
        p99: 0,
        p999: 0,
        p50_bounds: (0, 0),
        p99_bounds: (0, 0),
        p999_bounds: (0, 0),
        max_queue: 0,
        latency: Histogram::default(),
        client_sheds: vec![0; cfg.clients],
        max_client_sheds: 0,
        exemplars: Vec::new(),
    };
    let mut last_arrival = 0u64;
    let mut end_time = 0u64;
    // Span buffer for request tracing; the sim never reads it back, so
    // the simulated schedule is bit-identical whether it exists or not.
    let mut spans: Option<Vec<Event>> = cfg.trace_requests.then(Vec::new);

    let reader_bounce = cfg.reader_bounce;
    let visit_cycles = move |is_set: bool, readers_now: usize| -> u64 {
        let base = if is_set { costs.jmp_set } else { costs.jmp_get };
        let bounce = if is_set {
            0
        } else {
            readers_now.saturating_sub(1) as u64 * reader_bounce
        };
        base + bounce
    };
    let degraded = |shard: usize, t: u64| -> bool {
        cfg.degrade_at
            .is_some_and(|at| t >= at && shard < cfg.degraded_shards)
    };

    let mut sim: Sim<Ev> = Sim::new();
    // Pull-based arrival chain: exactly one pending arrival in the
    // queue at any moment; each Arrive schedules its successor. The
    // pending arrival's client id rides alongside in `next_client`
    // (the minted ReqId always equals the request index, checked in
    // the Arrive handler).
    let mut next_client = 0usize;
    if let Some((id, t, client)) = arrivals.next_arrival_tagged() {
        debug_assert_eq!(id, 0);
        last_arrival = t;
        next_client = client;
        sim.schedule(t, Ev::Arrive(0));
    }

    sim.run(|sim, t, ev| {
        // Admission shared by fresh arrivals and retries. Returns the
        // lock-mode used, or None when the request went no further.
        let admit = |sim: &mut Sim<Ev>,
                     locks: &mut [SimRwLock],
                     rng: &mut SimRng,
                     res: &mut OverloadResult,
                     reqs: &mut [Req],
                     spans: &mut Option<Vec<Event>>,
                     r: usize,
                     t: u64| {
            let req = &mut reqs[r];
            if req.is_set && degraded(req.shard, t) {
                res.degraded_rejects += 1;
                emit(
                    spans,
                    &cfg.tracer,
                    t,
                    0,
                    EventKind::ReqShed,
                    r as u64,
                    SHED_UNAVAILABLE,
                );
                return;
            }
            let lock = &mut locks[req.shard];
            if lock.queue_len() >= cfg.queue_cap {
                // Shed. Cheap: no core, no lock traffic. Retry with
                // exponential backoff + jitter while the budget lasts.
                if req.attempts < cfg.retry.max_retries {
                    let shift = req.attempts.min(cfg.retry.max_backoff_shift);
                    let backoff = cfg.retry.base_backoff_cycles << shift;
                    let jitter = rng.gen_range(0..backoff.max(1));
                    req.attempts += 1;
                    res.retries += 1;
                    emit(
                        spans,
                        &cfg.tracer,
                        t,
                        0,
                        EventKind::ReqRetry,
                        r as u64,
                        u64::from(req.attempts),
                    );
                    sim.schedule(t + backoff + jitter, Ev::Retry(r));
                } else {
                    res.shed += 1;
                    res.client_sheds[req.client] += 1;
                    emit(
                        spans,
                        &cfg.tracer,
                        t,
                        0,
                        EventKind::ReqShed,
                        r as u64,
                        SHED_QUEUE,
                    );
                }
                return;
            }
            res.admitted += 1;
            emit(
                spans,
                &cfg.tracer,
                t,
                0,
                EventKind::ReqAdmit,
                r as u64,
                req.shard as u64,
            );
            let mode = if req.is_set {
                LockMode::Exclusive
            } else {
                LockMode::Shared
            };
            if lock.acquire(r, mode) {
                sim.schedule(t, Ev::Begin(r));
            }
            // else: parked in FIFO order; woken by a Release.
        };

        match ev {
            Ev::Arrive(r) => {
                // Materialize this request and pre-schedule the next
                // arrival so the open loop never stalls.
                debug_assert_eq!(r, reqs.len());
                let client = next_client;
                let is_set = rng.gen_range(0..100) < u64::from(cfg.set_pct);
                let key = format!("key:{:06}", rng.index(KEYSPACE));
                reqs.push(Req {
                    shard: router.route(key.as_bytes()),
                    is_set,
                    arrived: t,
                    attempts: 0,
                    client,
                    core: 0,
                });
                res.offered += 1;
                emit(
                    &mut spans,
                    &cfg.tracer,
                    t,
                    0,
                    EventKind::ReqArrive,
                    r as u64,
                    client as u64,
                );
                if let Some((id, ta, c)) = arrivals.next_arrival_tagged() {
                    debug_assert_eq!(id as usize, reqs.len());
                    last_arrival = ta;
                    next_client = c;
                    sim.schedule(ta, Ev::Arrive(reqs.len()));
                }
                admit(
                    sim, &mut locks, &mut rng, &mut res, &mut reqs, &mut spans, r, t,
                );
            }
            Ev::Retry(r) => {
                admit(
                    sim, &mut locks, &mut rng, &mut res, &mut reqs, &mut spans, r, t,
                );
            }
            Ev::Begin(r) => {
                let req = &reqs[r];
                if t > req.arrived + cfg.deadline {
                    // Head-of-line drop: the client gave up while we
                    // queued; release without burning a core.
                    res.deadline_rejects += 1;
                    emit(
                        &mut spans,
                        &cfg.tracer,
                        t,
                        0,
                        EventKind::ReqShed,
                        r as u64,
                        SHED_DEADLINE,
                    );
                    let mode = if req.is_set {
                        LockMode::Exclusive
                    } else {
                        LockMode::Shared
                    };
                    let shard = req.shard;
                    let woken = locks[shard].release(mode);
                    let handoff =
                        cost.lock_handoff + locks[shard].queue_len() as u64 * cfg.waiter_bounce;
                    for w in woken {
                        sim.schedule(t + handoff, Ev::Begin(w));
                    }
                    end_time = end_time.max(t);
                    return;
                }
                let dur = visit_cycles(req.is_set, locks[req.shard].readers());
                let (core, start, e) = pool.reserve_on(t, dur);
                reqs[r].core = core as u32;
                // The dispatch instant carries the VAS-switch share of
                // the visit in arg1, letting span reassembly split the
                // service phase from switch overhead.
                emit(
                    &mut spans,
                    &cfg.tracer,
                    start,
                    core as u32,
                    EventKind::ReqDispatch,
                    r as u64,
                    costs.jmp_switch.min(dur),
                );
                sim.schedule(e, Ev::Release(r));
            }
            Ev::Release(r) => {
                let req = &reqs[r];
                let shard = req.shard;
                let mode = if req.is_set {
                    LockMode::Exclusive
                } else {
                    LockMode::Shared
                };
                let woken = locks[shard].release(mode);
                let handoff =
                    cost.lock_handoff + locks[shard].queue_len() as u64 * cfg.waiter_bounce;
                for w in woken {
                    sim.schedule(t + handoff, Ev::Begin(w));
                }
                let latency = t - req.arrived;
                let within = latency <= cfg.deadline;
                if within {
                    res.completed += 1;
                    res.latency.record(latency);
                } else {
                    // Completed, but past deadline: wasted work.
                    res.deadline_rejects += 1;
                }
                emit(
                    &mut spans,
                    &cfg.tracer,
                    t,
                    req.core,
                    EventKind::ReqComplete,
                    r as u64,
                    u64::from(within),
                );
                end_time = end_time.max(t);
            }
        }
    });

    end_time = end_time.max(last_arrival);
    res.secs = profile.cycles_to_secs(end_time.max(1));
    let arrival_secs = profile.cycles_to_secs(last_arrival.max(1));
    res.offered_rps = res.offered as f64 / arrival_secs;
    res.goodput_rps = res.completed as f64 / res.secs;
    res.shed_rate = if res.offered == 0 {
        0.0
    } else {
        res.shed as f64 / res.offered as f64
    };
    res.p50 = res.latency.percentile(50.0);
    res.p99 = res.latency.percentile(99.0);
    res.p999 = res.latency.percentile(99.9);
    res.p50_bounds = res.latency.percentile_bounds(50.0);
    res.p99_bounds = res.latency.percentile_bounds(99.0);
    res.p999_bounds = res.latency.percentile_bounds(99.9);
    res.max_queue = locks.iter().map(|l| l.max_queue).max().unwrap_or(0);
    res.max_client_sheds = res.client_sheds.iter().copied().max().unwrap_or(0);
    if let Some(events) = &spans {
        let assembled = assemble_requests(events);
        res.exemplars = slowest_completed(&assembled, cfg.exemplars)
            .into_iter()
            .cloned()
            .collect();
    }
    debug_assert!(res.accounted(), "request accounting leak: {res:?}");
    Ok(res)
}

/// Convenience: [`run_overload`] at a given offered load in
/// requests/sec, with the arrival shape taken from `cfg.arrival`
/// (its mean gap is replaced).
///
/// # Errors
///
/// As [`run_overload`].
pub fn run_overload_at(cfg: &OverloadConfig, rps: f64) -> SjResult<OverloadResult> {
    let mean_gap = rps_to_mean_gap(cfg.machine, rps);
    let arrival = match cfg.arrival {
        Arrival::Poisson { .. } => Arrival::Poisson { mean_gap },
        Arrival::Bursty {
            on_cycles,
            off_cycles,
            ..
        } => Arrival::Bursty {
            mean_gap,
            on_cycles,
            off_cycles,
        },
    };
    run_overload(&OverloadConfig {
        arrival,
        ..cfg.clone()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::RejectReason;

    fn small(requests: usize) -> OverloadConfig {
        OverloadConfig {
            requests,
            clients: 1000,
            ..OverloadConfig::default()
        }
    }

    #[test]
    fn light_load_completes_nearly_everything() {
        let costs = measure_costs(MachineId::M1, false, Tracer::disabled()).unwrap();
        let sat = saturation_rps(&costs, MachineId::M1, 10, 4);
        let res = run_overload_at(&small(2000), 0.3 * sat).unwrap();
        assert!(res.accounted(), "{res:?}");
        assert!(
            res.completed as f64 >= 0.95 * res.offered as f64,
            "light load should complete: {res:?}"
        );
        assert_eq!(res.shed, 0, "no shedding at 30% of saturation: {res:?}");
    }

    #[test]
    fn overload_sheds_instead_of_collapsing() {
        let costs = measure_costs(MachineId::M1, false, Tracer::disabled()).unwrap();
        let sat = saturation_rps(&costs, MachineId::M1, 10, 4);
        let at_sat = run_overload_at(&small(4000), sat).unwrap();
        let over = run_overload_at(&small(4000), 2.0 * sat).unwrap();
        assert!(over.shed > 0, "2x saturation must shed: {over:?}");
        assert!(
            over.goodput_rps >= 0.9 * at_sat.goodput_rps,
            "goodput must stay flat past saturation: {} vs {}",
            over.goodput_rps,
            at_sat.goodput_rps
        );
    }

    #[test]
    fn admitted_latency_is_bounded_by_deadline() {
        let costs = measure_costs(MachineId::M1, false, Tracer::disabled()).unwrap();
        let sat = saturation_rps(&costs, MachineId::M1, 10, 4);
        let res = run_overload_at(&small(4000), 1.5 * sat).unwrap();
        assert!(res.completed > 0);
        assert!(
            res.p999 <= res.latency.max.max(1) && res.latency.max <= 2_000_000,
            "completions past deadline must not count: {res:?}"
        );
    }

    #[test]
    fn degraded_shards_reject_sets_but_serve_gets() {
        let cfg = OverloadConfig {
            set_pct: 50,
            degrade_at: Some(0),
            degraded_shards: 4,
            ..small(2000)
        };
        let res = run_overload(&cfg).unwrap();
        assert!(res.degraded_rejects > 0, "{res:?}");
        assert!(res.completed > 0, "GETs still serve: {res:?}");
    }

    #[test]
    fn bit_identical_reruns() {
        let cfg = OverloadConfig {
            arrival: Arrival::Bursty {
                mean_gap: 1500.0,
                on_cycles: 300_000,
                off_cycles: 900_000,
            },
            ..small(3000)
        };
        let a = run_overload(&cfg).unwrap();
        let b = run_overload(&cfg).unwrap();
        assert_eq!(a.offered, b.offered);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.p999, b.p999);
    }

    #[test]
    fn reject_reasons_have_stable_names() {
        assert_eq!(RejectReason::Shed.name(), "shed");
        assert_eq!(RejectReason::DeadlineExceeded.name(), "deadline_exceeded");
        assert_eq!(RejectReason::ShardUnavailable.name(), "shard_unavailable");
    }

    #[test]
    fn request_tracing_does_not_perturb_the_schedule() {
        let costs = measure_costs(MachineId::M1, false, Tracer::disabled()).unwrap();
        let sat = saturation_rps(&costs, MachineId::M1, 10, 4);
        let off = run_overload_at(&small(3000), 1.8 * sat).unwrap();
        let on = run_overload_at(
            &OverloadConfig {
                trace_requests: true,
                ..small(3000)
            },
            1.8 * sat,
        )
        .unwrap();
        assert_eq!(off.offered, on.offered);
        assert_eq!(off.completed, on.completed);
        assert_eq!(off.shed, on.shed);
        assert_eq!(off.retries, on.retries);
        assert_eq!(off.deadline_rejects, on.deadline_rejects);
        assert_eq!(off.latency, on.latency);
        assert_eq!(off.p999, on.p999);
        assert!(off.exemplars.is_empty(), "no spans without tracing");
        assert!(!on.exemplars.is_empty(), "tracing captures tail exemplars");
    }

    #[test]
    fn exemplar_phases_partition_latency_exactly() {
        let costs = measure_costs(MachineId::M1, false, Tracer::disabled()).unwrap();
        let sat = saturation_rps(&costs, MachineId::M1, 10, 4);
        let res = run_overload_at(
            &OverloadConfig {
                trace_requests: true,
                exemplars: 5,
                ..small(3000)
            },
            2.0 * sat,
        )
        .unwrap();
        assert!(!res.exemplars.is_empty());
        // Exemplars are the slowest completions, slowest first.
        let mut last = u64::MAX;
        for ex in &res.exemplars {
            assert!(ex.latency() <= last);
            last = ex.latency();
            assert_eq!(
                ex.phases.total(),
                ex.latency(),
                "backoff+queue+switch+service must partition latency: {ex:?}"
            );
            assert!(ex.phases.switch > 0, "every visit pays the VAS switch");
            assert!(ex.phases.service > 0, "{ex:?}");
        }
        assert_eq!(res.exemplars[0].latency(), res.latency.max);
    }

    #[test]
    fn sheds_are_counted_per_client_and_fairly_spread() {
        let costs = measure_costs(MachineId::M1, false, Tracer::disabled()).unwrap();
        let sat = saturation_rps(&costs, MachineId::M1, 10, 4);
        let res = run_overload_at(&small(6000), 3.0 * sat).unwrap();
        assert!(res.shed > 0, "3x saturation must shed: {res:?}");
        assert_eq!(
            res.client_sheds.iter().sum::<u64>(),
            res.shed,
            "per-client tallies must sum to the total"
        );
        // Uniform arrivals over 1000 clients: no single client may
        // absorb a disproportionate share of the sheds.
        let mean = res.shed as f64 / res.client_sheds.len() as f64;
        assert!(
            (res.max_client_sheds as f64) <= 8.0 * mean + 4.0,
            "one client absorbed {} of {} sheds (mean {mean:.2})",
            res.max_client_sheds,
            res.shed
        );
    }

    #[test]
    fn percentile_bounds_bracket_the_point_estimates() {
        let costs = measure_costs(MachineId::M1, false, Tracer::disabled()).unwrap();
        let sat = saturation_rps(&costs, MachineId::M1, 10, 4);
        let res = run_overload_at(&small(2000), 0.8 * sat).unwrap();
        for (lo, hi) in [res.p50_bounds, res.p99_bounds, res.p999_bounds] {
            assert!(lo <= hi);
            assert!(hi <= res.latency.max);
        }
        assert_eq!(res.p99_bounds.1, res.p99, "upper bound is the estimate");
        assert_eq!(res.p999_bounds.1, res.p999);
    }
}
