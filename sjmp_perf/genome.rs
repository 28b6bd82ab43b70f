//! `genome_pipeline`: the SpaceJMP SAMTools pipeline of
//! `sjmp_genome::run_pipeline`, with the ingest measured too.
//!
//! A loader process appends every record to a `RecStore` in a
//! persistent VAS; then flagstat, qname sort, coordinate sort and index
//! each run as a fresh process that attaches the VAS, switches in, works
//! in place and exits. Ingest is write-heavy and allocator-bound, the
//! four tools are read scans, so a change that speeds one phase and
//! slows the other shows up in the per-record host time.

use std::time::Instant;

use sjmp_genome::modes::charge;
use sjmp_genome::{
    build_index, coordinate_sort, flagstat, generate, qname_sort, RecStore, Record, WorkloadConfig,
};
use sjmp_mem::cost::{KernelFlavor, MachineId};
use sjmp_mem::VirtAddr;
use sjmp_os::{Creds, Kernel, Mode, Pid};
use sjmp_sim::SimRng;
use spacejmp_core::{AttachMode, SjResult, SpaceJmp, VasHeap, VasId};

use crate::calib::Calibration;
use crate::round::{elapsed_ns, Fnv, OpClock, Round, SimMark};
use crate::spans::Spans;
use crate::stats::{latency, windows};

/// Where the store segment lives (the address `run_pipeline` uses).
const STORE_VA: VirtAddr = VirtAddr::new_unchecked(0x1000_0000_0000);
/// Name of the store segment.
const SEGMENT: &str = "samtools-seg";
/// Salt that separates the verification samples from the records.
const VERIFY_SALT: u64 = 0x5347_454e_4f4d_4531;

/// Shape of one genome round.
#[derive(Debug, Clone)]
pub struct Size {
    /// Records ingested and processed.
    pub records: usize,
    /// Records read back after each sort to check its order.
    pub samples: usize,
}

impl Size {
    /// The round shape for full or `--quick` runs.
    pub fn new(quick: bool) -> Size {
        Size {
            records: if quick { 2_000 } else { 30_000 },
            samples: if quick { 64 } else { 256 },
        }
    }
}

/// The store segment size `run_pipeline` allocates for `cfg`.
fn segment_bytes(cfg: &WorkloadConfig) -> u64 {
    let per_record = 64 + 32 + cfg.read_len as u64 * 2 + 64 + 64;
    (cfg.records as u64 * per_record * 2 + (4 << 20)).next_power_of_two()
}

/// Charges host-side tool compute to the core `pid` runs on, as
/// `run_pipeline` does.
fn charge_compute(sj: &SpaceJmp, pid: Pid, cycles: u64) {
    let core = sj.kernel().ctx_of(pid).map_or(0, |c| c.core);
    sj.kernel().clocks().advance(core, cycles);
}

/// Runs one round. Checks: flagstat equals the host computation, sampled
/// records come back in the host's qname and then coordinate order, and
/// the index equals the host-built one.
///
/// # Errors
///
/// Set-up and tool failures; failed appends count as failed ops.
pub fn run(size: &Size, seed: u64, spans: &mut Spans, cal: &mut Calibration) -> SjResult<Round> {
    let setup = Instant::now();
    let cfg = WorkloadConfig {
        records: size.records,
        seed,
        ..WorkloadConfig::default()
    };
    let (dict, records) = generate(&cfg);
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M2));
    let pid = sj.kernel_mut().spawn("loader", Creds::new(1, 1))?;
    sj.kernel_mut().activate(pid)?;
    let vid = sj.vas_create(pid, "samtools-data", Mode(0o660))?;
    let sid = sj.seg_alloc(pid, SEGMENT, STORE_VA, segment_bytes(&cfg), Mode(0o660))?;
    sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite)?;
    let vh = sj.vas_attach(pid, vid)?;
    sj.vas_switch(pid, vh)?;
    let heap = VasHeap::format(&mut sj, pid, sid)?;
    let store = RecStore::create(&mut sj, pid, heap, records.len() as u64)?;
    let mark = SimMark::take(&mut sj);
    let setup_ns = elapsed_ns(setup);

    let n = records.len() as u64;
    let mut failed = 0;
    let mut clock = OpClock::start(cal, records.len());
    for (i, r) in records.iter().enumerate() {
        spans.set_op(i as u64);
        let appended = spans.time("genome.append", || store.append(&mut sj, pid, r));
        failed += u64::from(appended.is_err());
        clock.op_done();
    }
    spans.time("core.vas_switch", || sj.vas_switch_home(pid))?;
    spans.time("core.vas_detach", || sj.vas_detach(pid, vh))?;
    spans.time("os.exit", || sj.kernel_mut().exit(pid))?;
    let mut measured_ns = clock.elapsed_ns();

    // Each tool is timed on its own; the order checks between them are
    // not part of the measured region.
    let mut sum = Fnv::default();
    spans.set_op(n);
    let t = Instant::now();
    let fs = tool(&mut sj, vid, spans, |sj, pid, store, spans| {
        let (fs, work) = spans.time("genome.flagstat", || store.flagstat(sj, pid))?;
        charge_compute(sj, pid, work.records * charge::SCAN);
        Ok(fs)
    })?;
    measured_ns += elapsed_ns(t);
    if fs != flagstat(&records).0 {
        failed += n;
    }
    for v in [
        fs.total,
        fs.mapped,
        fs.duplicates,
        fs.secondary,
        fs.proper_pair,
    ] {
        sum.word(v);
    }

    spans.set_op(n + 1);
    let t = Instant::now();
    tool(&mut sj, vid, spans, |sj, pid, store, spans| {
        let work = spans.time("genome.qname_sort", || store.qname_sort(sj, pid))?;
        charge_compute(sj, pid, work.comparisons * charge::QNAME_CMP);
        Ok(())
    })?;
    measured_ns += elapsed_ns(t);
    let mut expect = records;
    qname_sort(&mut expect);
    let picks = sample(seed, n, size.samples);
    failed += check_order(&mut sj, vid, &expect, &picks, &mut sum)?;

    spans.set_op(n + 2);
    let t = Instant::now();
    tool(&mut sj, vid, spans, |sj, pid, store, spans| {
        let work = spans.time("genome.coordinate_sort", || store.coordinate_sort(sj, pid))?;
        charge_compute(sj, pid, work.comparisons * charge::COORD_CMP);
        Ok(())
    })?;
    measured_ns += elapsed_ns(t);
    // Both sorts are stable, so the store and the host reference agree
    // even on ties: each sorts the qname order by coordinate.
    coordinate_sort(&mut expect);
    failed += check_order(&mut sj, vid, &expect, &picks, &mut sum)?;

    let n_refs = dict.refs.len();
    spans.set_op(n + 3);
    let t = Instant::now();
    let index = tool(&mut sj, vid, spans, |sj, pid, store, spans| {
        let (index, work) = spans.time("genome.index", || store.build_index(sj, pid, n_refs))?;
        charge_compute(sj, pid, work.records * charge::SCAN);
        Ok(index)
    })?;
    measured_ns += elapsed_ns(t);
    if index != build_index(n_refs, &expect).0 {
        failed += n;
    }
    sum.bytes(&index.to_bytes());

    let sim = mark.delta(&mut sj);
    Ok(Round {
        setup_ns,
        measured_ns,
        ops: n,
        failed,
        windows: windows(clock.ends(), 1),
        // The end of ingest and the four tools, which are single calls.
        tail_ns: measured_ns - clock.ends().last().copied().unwrap_or(0),
        latency: latency(clock.ends()),
        units_ns: cal.take(),
        sim,
        checksum: sum.finish(),
    })
}

/// Runs `op` as a fresh process that attaches the store VAS, switches
/// in, opens the store, and detaches and exits afterwards.
fn tool<T>(
    sj: &mut SpaceJmp,
    vid: VasId,
    spans: &mut Spans,
    op: impl FnOnce(&mut SpaceJmp, Pid, RecStore, &mut Spans) -> SjResult<T>,
) -> SjResult<T> {
    let pid = spans.time("os.spawn", || {
        sj.kernel_mut().spawn("samtool", Creds::new(1, 1))
    })?;
    sj.kernel_mut().activate(pid)?;
    let vh = spans.time("core.vas_attach", || sj.vas_attach(pid, vid))?;
    spans.time("core.vas_switch", || sj.vas_switch(pid, vh))?;
    let sid = sj.seg_find(SEGMENT)?;
    let heap = VasHeap::open(sj, pid, sid)?;
    let store = RecStore::open(sj, pid, heap)?;
    let out = op(sj, pid, store, spans)?;
    spans.time("core.vas_switch", || sj.vas_switch_home(pid))?;
    spans.time("core.vas_detach", || sj.vas_detach(pid, vh))?;
    spans.time("os.exit", || sj.kernel_mut().exit(pid))?;
    Ok(out)
}

/// `count` record indices below `n`, drawn from the seed.
fn sample(seed: u64, n: u64, count: usize) -> Vec<u64> {
    let mut rng = SimRng::seed_from_u64(seed ^ VERIFY_SALT);
    (0..count).map(|_| rng.gen_range(0..n)).collect()
}

/// Reads records `picks` back in an untimed tool process and counts
/// those that differ from `expect` at the same position.
fn check_order(
    sj: &mut SpaceJmp,
    vid: VasId,
    expect: &[Record],
    picks: &[u64],
    sum: &mut Fnv,
) -> SjResult<u64> {
    tool(sj, vid, &mut Spans::default(), |sj, pid, store, _| {
        let mut wrong = 0;
        for &i in picks {
            let got = store.read_record(sj, pid, i)?;
            wrong += u64::from(got != expect[i as usize]);
            sum.bytes(got.qname.as_bytes());
            sum.word(u64::from(got.pos as u32));
        }
        Ok(wrong)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_verifies_and_runs_every_tool_as_a_fresh_process() {
        let size = Size::new(true);
        let r = run(
            &size,
            13,
            &mut Spans::default(),
            &mut Calibration::default(),
        )
        .expect("genome round");
        assert_eq!(r.failed, 0);
        assert_eq!(r.latency.samples, size.records);
        // The four tools and the two order checks attach once each.
        assert_eq!(r.sim.sj.attaches, 6);
    }
}
