//! `kv_mixed`: live RedisJMP clients taking turns on one store.
//!
//! Every request switches into the store VAS and back (shared lock for a
//! GET, exclusive for a SET), stages the command in the client's scratch
//! heap and walks the segment-resident dictionary, so host time goes to
//! switches, locks, the allocator and byte copies rather than to single
//! word accesses.

use std::time::Instant;

use sjmp_kv::JmpClient;
use sjmp_mem::cost::{KernelFlavor, MachineId};
use sjmp_os::{Creds, Kernel};
use sjmp_sim::SimRng;
use spacejmp_core::{SjResult, SpaceJmp};

use crate::calib::Calibration;
use crate::round::{elapsed_ns, Fnv, OpClock, Round, SimMark};
use crate::spans::Spans;
use crate::stats::{latency, windows};

/// Share of requests that are SETs, percent.
const SET_PCT: u32 = 10;

/// Shape of one kv round.
#[derive(Debug, Clone)]
pub struct Size {
    /// Client processes, served round-robin.
    pub clients: usize,
    /// Keys, all loaded during set-up; requests pick them uniformly.
    pub keys: usize,
    /// Requests in the measured region.
    pub requests: usize,
}

impl Size {
    /// The round shape for full or `--quick` runs.
    pub fn new(quick: bool) -> Size {
        Size {
            clients: 8,
            keys: if quick { 256 } else { 4096 },
            requests: if quick { 2_000 } else { 80_000 },
        }
    }
}

/// A 4-byte value, the paper's Redis payload size.
fn value(rng: &mut SimRng) -> [u8; 4] {
    (rng.next_u64() as u32).to_le_bytes()
}

/// Runs one round. Every GET must return the last value SET for its key,
/// as recorded in a host-side shadow copy.
///
/// # Errors
///
/// Set-up failures; failed requests count as failed ops.
pub fn run(size: &Size, seed: u64, spans: &mut Spans, cal: &mut Calibration) -> SjResult<Round> {
    let setup = Instant::now();
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M1));
    let mut clients = Vec::with_capacity(size.clients);
    for i in 0..size.clients {
        let pid = sj
            .kernel_mut()
            .spawn(&format!("kv-client{i}"), Creds::new(100, 100))?;
        sj.kernel_mut().activate(pid)?;
        clients.push(JmpClient::join(&mut sj, pid, "perf", i)?);
    }
    let keys: Vec<Vec<u8>> = (0..size.keys)
        .map(|i| format!("key:{i:06}").into_bytes())
        .collect();
    let mut rng = SimRng::seed_from_u64(seed);
    let mut shadow = Vec::with_capacity(size.keys);
    for (i, key) in keys.iter().enumerate() {
        let v = value(&mut rng);
        clients[i % size.clients].set(&mut sj, key, &v)?;
        shadow.push(v);
    }
    let mark = SimMark::take(&mut sj);
    let setup_ns = elapsed_ns(setup);

    let mut failed = 0;
    let mut sum = Fnv::default();
    let mut clock = OpClock::start(cal, size.requests);
    for r in 0..size.requests {
        spans.set_op(r as u64);
        let client = &mut clients[r % size.clients];
        let (key, set) = spans.time("sim.rng", || {
            let key = rng.index(size.keys);
            (key, rng.gen_ratio(SET_PCT, 100).then(|| value(&mut rng)))
        });
        match set {
            Some(v) => match spans.time("kv.set", || client.set(&mut sj, &keys[key], &v)) {
                Ok(()) => shadow[key] = v,
                Err(_) => failed += 1,
            },
            None => match spans.time("kv.get", || client.get(&mut sj, &keys[key])) {
                Ok(Some(got)) if got == shadow[key] => sum.bytes(&got),
                _ => failed += 1,
            },
        }
        clock.op_done();
    }
    let measured_ns = clock.elapsed_ns();
    let sim = mark.delta(&mut sj);
    Ok(Round {
        setup_ns,
        measured_ns,
        ops: size.requests as u64,
        failed,
        windows: windows(clock.ends(), 1),
        tail_ns: 0,
        latency: latency(clock.ends()),
        units_ns: cal.take(),
        sim,
        checksum: sum.finish(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_verify_and_use_both_lock_modes() {
        let r = run(
            &Size::new(true),
            11,
            &mut Spans::default(),
            &mut Calibration::default(),
        )
        .expect("kv round");
        assert_eq!(r.failed, 0);
        // Two switches per request: into the store VAS and home again.
        assert_eq!(r.sim.sj.switches, 2 * r.ops);
        assert!(r.sim.sj.lock_acquisitions >= r.ops);
    }
}
