//! End-to-end tests of the overload-resilient sharded RedisJMP stack:
//! the live `ShardedKv` path (real segments, real kernel pressure) and
//! the open-loop DES engine (goodput retention, deadline bounds,
//! bit-identical reruns).

use sjmp_kv::{
    measure_costs, run_overload, run_overload_at, saturation_rps, JmpClient, JoinOpts,
    OverloadConfig, RejectReason, ShardError, ShardRouter, ShardedKv,
};
use sjmp_mem::{KernelFlavor, MachineId};
use sjmp_os::{Creds, Kernel, PressureLevel};
use sjmp_sim::Arrival;
use sjmp_trace::Tracer;
use spacejmp_core::SpaceJmp;

fn fresh(machine: MachineId) -> SpaceJmp {
    SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, machine))
}

#[test]
fn sharded_store_routes_and_serves_across_all_shards() {
    let mut sj = fresh(MachineId::M1);
    let pid = sj.kernel_mut().spawn("c0", Creds::new(100, 100)).unwrap();
    sj.kernel_mut().activate(pid).unwrap();
    let mut kv = ShardedKv::join(&mut sj, pid, "e2e", 0, 4, JoinOpts::default()).unwrap();

    let mut per_shard = [0usize; 4];
    for i in 0..96 {
        let k = format!("user:{i:04}");
        kv.set_by(&mut sj, k.as_bytes(), format!("v{i}").as_bytes(), None)
            .unwrap();
        per_shard[kv.shard_of(k.as_bytes())] += 1;
    }
    assert!(
        per_shard.iter().all(|&n| n > 0),
        "keys spread over all shards: {per_shard:?}"
    );
    for i in 0..96 {
        let k = format!("user:{i:04}");
        assert_eq!(
            kv.get_by(&mut sj, k.as_bytes(), None).unwrap(),
            Some(format!("v{i}").into_bytes())
        );
    }
    // Deleting through the same router finds the same shard.
    assert!(kv.del(&mut sj, b"user:0007").unwrap());
    assert_eq!(kv.get_by(&mut sj, b"user:0007", None).unwrap(), None);
}

#[test]
fn router_remap_fraction_shrinks_with_shard_count() {
    // Consistent hashing: growing S -> S+1 should remap about 1/(S+1)
    // of keys. Check the trend at two sizes rather than exact ratios.
    let keys: Vec<String> = (0..3000).map(|i| format!("k{i}")).collect();
    let moved = |a: &ShardRouter, b: &ShardRouter| {
        keys.iter()
            .filter(|k| a.route(k.as_bytes()) != b.route(k.as_bytes()))
            .count()
    };
    let m2 = moved(&ShardRouter::new(2), &ShardRouter::new(3));
    let m6 = moved(&ShardRouter::new(6), &ShardRouter::new(7));
    assert!(m2 > 0 && m6 > 0);
    assert!(
        m2 < keys.len() / 2 && m6 < keys.len() / 4,
        "remap fractions too large: 2->3 moved {m2}, 6->7 moved {m6}"
    );
    assert!(m6 < m2, "larger rings remap less: {m6} vs {m2}");
}

#[test]
fn memory_pressure_flips_shards_read_only_and_recovery_restores_writes() {
    // Drive the pressure signal by raising the low watermark over the
    // current free-frame count: instantly critical, without actually
    // exhausting the machine. SETs must start failing fast with
    // ShardUnavailable while GETs keep serving.
    let mut sj = fresh(MachineId::M1);
    let pid = sj.kernel_mut().spawn("p0", Creds::new(100, 100)).unwrap();
    sj.kernel_mut().activate(pid).unwrap();
    let mut kv = ShardedKv::join(&mut sj, pid, "pressure", 0, 2, JoinOpts::default()).unwrap();
    kv.set_by(&mut sj, b"probe", b"1", None).unwrap();

    // No watermark configured yet: pressure reads Normal.
    assert_eq!(sj.kernel().mem_pressure(), PressureLevel::Normal);
    assert!(!kv.degraded(&sj));

    // Set the watermark above the current free-frame count: instantly
    // critical, without having to actually exhaust the machine.
    let free = sj.kernel_mut().sys_stats().phys.free_frames;
    sj.kernel_mut().set_low_watermark(Some(free + 8));
    assert_eq!(sj.kernel().mem_pressure(), PressureLevel::Critical);
    assert!(kv.degraded(&sj));

    // Writes fail fast and typed; reads still serve.
    assert_eq!(
        kv.set_by(&mut sj, b"probe", b"2", None),
        Err(ShardError::Rejected(RejectReason::ShardUnavailable))
    );
    assert_eq!(
        kv.get_by(&mut sj, b"probe", None).unwrap(),
        Some(b"1".to_vec())
    );
    let health = kv.health(&sj);
    assert!(health.iter().all(|h| h.degraded));

    // Pressure clears -> writes resume (graceful recovery, no restart).
    sj.kernel_mut().set_low_watermark(Some(1));
    assert_eq!(sj.kernel().mem_pressure(), PressureLevel::Normal);
    kv.set_by(&mut sj, b"probe", b"3", None).unwrap();
    assert_eq!(
        kv.get_by(&mut sj, b"probe", None).unwrap(),
        Some(b"3".to_vec())
    );
}

#[test]
fn switch_wait_depth_feeds_admission() {
    // Park one process inside a shard's write VAS; another client's
    // probes of that shard see nonzero seg_wait_depth only once someone
    // actually blocks. Here we verify the zero and per-segment shape.
    let mut sj = fresh(MachineId::M1);
    let pid0 = sj.kernel_mut().spawn("w0", Creds::new(100, 100)).unwrap();
    sj.kernel_mut().activate(pid0).unwrap();
    let kv = ShardedKv::join(&mut sj, pid0, "depth", 0, 2, JoinOpts::default()).unwrap();
    assert_eq!(sj.switch_wait_depth(), 0);
    assert_eq!(sj.seg_wait_depth(kv.store_sid(0)), 0);
    assert_eq!(sj.seg_wait_depth(kv.store_sid(1)), 0);
}

#[test]
fn unsharded_client_still_works_alongside() {
    // The JoinOpts refactor must leave the classic single-store path
    // untouched: same slot 0, same lazily initialized store.
    let mut sj = fresh(MachineId::M1);
    let pid = sj.kernel_mut().spawn("c", Creds::new(1, 1)).unwrap();
    sj.kernel_mut().activate(pid).unwrap();
    let mut c = JmpClient::join(&mut sj, pid, "classic", 0).unwrap();
    c.set(&mut sj, b"k", b"v").unwrap();
    assert_eq!(c.get(&mut sj, b"k").unwrap(), Some(b"v".to_vec()));
}

#[test]
fn goodput_holds_past_saturation_on_every_machine() {
    for machine in MachineId::ALL {
        let cfg = OverloadConfig {
            machine,
            requests: 4000,
            clients: 5000,
            ..OverloadConfig::default()
        };
        let costs = measure_costs(machine, false, Tracer::disabled()).unwrap();
        let sat = saturation_rps(&costs, machine, cfg.set_pct, cfg.shards);
        let at_sat = run_overload_at(&cfg, sat).unwrap();
        let over = run_overload_at(&cfg, 2.0 * sat).unwrap();
        assert!(over.shed > 0, "{machine:?}: 2x saturation must shed");
        assert!(
            over.goodput_rps >= 0.9 * at_sat.goodput_rps,
            "{machine:?}: goodput collapse past saturation: {} vs {}",
            over.goodput_rps,
            at_sat.goodput_rps
        );
        assert!(at_sat.accounted() && over.accounted());
    }
}

#[test]
fn admitted_tail_latency_is_bounded_by_the_deadline() {
    let cfg = OverloadConfig {
        requests: 6000,
        clients: 5000,
        ..OverloadConfig::default()
    };
    let costs = measure_costs(cfg.machine, false, Tracer::disabled()).unwrap();
    let sat = saturation_rps(&costs, cfg.machine, cfg.set_pct, cfg.shards);
    let r = run_overload_at(&cfg, 1.5 * sat).unwrap();
    assert!(r.completed > 0);
    assert!(
        r.latency.max <= cfg.deadline,
        "goodput counted a completion past its deadline: {} > {}",
        r.latency.max,
        cfg.deadline
    );
    assert!(
        r.p999 <= cfg.deadline,
        "p999 {} exceeds the deadline {}",
        r.p999,
        cfg.deadline
    );
    assert!(r.p50 <= r.p99 && r.p99 <= r.p999);
}

#[test]
fn overload_engine_is_bit_identical_across_reruns() {
    let cfg = OverloadConfig {
        requests: 5000,
        clients: 5000,
        set_pct: 25,
        arrival: Arrival::Bursty {
            mean_gap: 1200.0,
            on_cycles: 250_000,
            off_cycles: 750_000,
        },
        seed: 99,
        ..OverloadConfig::default()
    };
    let a = run_overload(&cfg).unwrap();
    let b = run_overload(&cfg).unwrap();
    assert_eq!(a.offered, b.offered);
    assert_eq!(a.admitted, b.admitted);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.shed, b.shed);
    assert_eq!(a.retries, b.retries);
    assert_eq!(a.deadline_rejects, b.deadline_rejects);
    assert_eq!(a.latency, b.latency);
    assert_eq!((a.p50, a.p99, a.p999), (b.p50, b.p99, b.p999));
    // And a different seed gives a different run.
    let c = run_overload(&OverloadConfig { seed: 100, ..cfg }).unwrap();
    assert_ne!(
        (a.completed, a.shed, a.latency.sum),
        (c.completed, c.shed, c.latency.sum)
    );
}

#[test]
fn degraded_des_rejects_sets_but_keeps_reading() {
    let cfg = OverloadConfig {
        requests: 3000,
        clients: 3000,
        set_pct: 40,
        degrade_at: Some(0),
        degraded_shards: 4,
        ..OverloadConfig::default()
    };
    let r = run_overload(&cfg).unwrap();
    assert!(r.degraded_rejects > 0, "no SET was refused: {r:?}");
    assert!(r.completed > 0, "GETs must keep serving: {r:?}");
    assert!(r.accounted());
}

/// Fairness under uniform Poisson load: sheds are tallied per client,
/// the tallies sum to the total, and no single client absorbs a
/// disproportionate share (arrivals pick clients uniformly, so the
/// heaviest client must stay within a small constant of the mean).
#[test]
fn uniform_poisson_load_sheds_fairly_across_clients() {
    let costs = measure_costs(MachineId::M1, false, Tracer::disabled()).unwrap();
    let sat = saturation_rps(&costs, MachineId::M1, 10, 4);
    let cfg = OverloadConfig {
        requests: 8_000,
        clients: 2_000,
        ..OverloadConfig::default()
    };
    let res = run_overload_at(&cfg, 3.0 * sat).unwrap();
    assert!(res.shed > 100, "3x saturation must shed heavily: {res:?}");
    assert_eq!(res.client_sheds.len(), 2_000);
    assert_eq!(
        res.client_sheds.iter().sum::<u64>(),
        res.shed,
        "per-client shed tallies must partition the total"
    );
    let mean = res.shed as f64 / res.client_sheds.len() as f64;
    assert!(
        (res.max_client_sheds as f64) <= 8.0 * mean + 4.0,
        "client shed share is disproportionate: heaviest {} vs mean {mean:.3}",
        res.max_client_sheds
    );
}

/// Tail exemplars captured by the DES decompose end-to-end latency into
/// phases that partition it exactly, and capturing them never perturbs
/// the simulated schedule.
#[test]
fn tail_exemplars_decompose_latency_without_perturbing_the_run() {
    let costs = measure_costs(MachineId::M1, false, Tracer::disabled()).unwrap();
    let sat = saturation_rps(&costs, MachineId::M1, 10, 4);
    let cfg = OverloadConfig {
        requests: 5_000,
        clients: 1_000,
        ..OverloadConfig::default()
    };
    let plain = run_overload_at(&cfg, 1.5 * sat).unwrap();
    let traced = run_overload_at(
        &OverloadConfig {
            trace_requests: true,
            exemplars: 4,
            ..cfg
        },
        1.5 * sat,
    )
    .unwrap();
    assert_eq!(plain.completed, traced.completed);
    assert_eq!(plain.shed, traced.shed);
    assert_eq!(plain.latency, traced.latency);
    assert!(!traced.exemplars.is_empty());
    for ex in &traced.exemplars {
        assert_eq!(ex.phases.total(), ex.latency(), "{ex:?}");
    }
    assert_eq!(traced.exemplars[0].latency(), traced.latency.max);
}
