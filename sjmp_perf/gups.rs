//! `gups_walk` and `gups_tlb`: GUPS with SpaceJMP window switching
//! (the JMP design of `sjmp_gups::run_jmp`), driven access by access so
//! traced rounds can time the layers of each access.

use std::time::Instant;

use sjmp_mem::cost::{KernelFlavor, MachineId};
use sjmp_mem::{Access, MemError, Mmu, PhysAddr, PhysMem, VirtAddr, PAGE_SIZE};
use sjmp_os::{Creds, Kernel, Mode, OsError, OsResult, Pid, GLOBAL_LO};
use sjmp_sim::SimRng;
use spacejmp_core::{AttachMode, SegId, SjResult, SpaceJmp, VasCtl, VasHandle};

use crate::calib::Calibration;
use crate::round::{elapsed_ns, Fnv, OpClock, Round, SimMark};
use crate::spans::Spans;
use crate::stats::{latency, windows};

/// Traced rounds time 1 in this many updates: a clock read costs about a
/// fifth of an access, so timing every access would mostly time the clock.
const SAMPLE_EVERY: u32 = 64;
/// Salt that separates the verification sample stream from the updates.
const VERIFY_SALT: u64 = 0x5a4d_5046_5645_5249;

/// Shape of one gups round.
#[derive(Debug, Clone)]
pub struct Size {
    /// Window VASes.
    pub windows: usize,
    /// Bytes per window.
    pub window_bytes: u64,
    /// Updates per window visit.
    pub updates_per_set: usize,
    /// Window visits in the measured region.
    pub epochs: usize,
    /// Tag every window VAS so switches keep the TLB.
    pub tagged: bool,
    /// Words read back to verify the updates.
    pub verify_words: usize,
    /// Host walk cache on (the default) or off.
    pub host_walk_cache: bool,
}

impl Size {
    /// `gups_walk`: 256 MiB of windows, far beyond the TLB reach and the
    /// host's last-level cache, untagged, so nearly every update walks.
    pub fn walk(quick: bool) -> Size {
        Size {
            windows: 8,
            window_bytes: if quick { 1 << 20 } else { 32 << 20 },
            updates_per_set: 64,
            epochs: if quick { 256 } else { 32_768 },
            tagged: false,
            verify_words: if quick { 4096 } else { 65_536 },
            host_walk_cache: true,
        }
    }

    /// `gups_tlb`: the same code on 2 MiB of tagged windows, which the
    /// TLB covers, so updates hit the TLB and host caches.
    pub fn tlb(quick: bool) -> Size {
        Size {
            windows: 8,
            window_bytes: if quick { 64 << 10 } else { 256 << 10 },
            tagged: true,
            ..Size::walk(quick)
        }
    }
}

/// Runs one round.
///
/// # Errors
///
/// Set-up and switch failures; failed accesses count as failed ops.
pub fn run(size: &Size, seed: u64, spans: &mut Spans, cal: &mut Calibration) -> SjResult<Round> {
    let setup = Instant::now();
    let mut kernel = Kernel::new(KernelFlavor::DragonFly, MachineId::M3);
    kernel.set_host_walk_cache(size.host_walk_cache);
    let mut sj = SpaceJmp::new(kernel);
    if size.tagged {
        sj.kernel_mut().set_tagging(true);
    }
    let pid = sj.kernel_mut().spawn("gups", Creds::new(1, 1))?;
    sj.kernel_mut().activate(pid)?;
    let base = VirtAddr::new(GLOBAL_LO.raw());
    let mut handles = Vec::with_capacity(size.windows);
    for w in 0..size.windows {
        let vid = sj.vas_create(pid, &format!("gups-w{w}"), Mode(0o600))?;
        let sid = sj.seg_alloc(
            pid,
            &format!("gups-s{w}"),
            base,
            size.window_bytes,
            Mode(0o600),
        )?;
        sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite)?;
        if size.tagged {
            sj.vas_ctl(pid, VasCtl::RequestTag, vid)?;
        }
        handles.push(sj.vas_attach(pid, vid)?);
        materialize(&mut sj, sid)?;
    }
    let mut rng = SimRng::seed_from_u64(seed);
    let slots = size.window_bytes / 8;
    let core = sj.kernel().process(pid)?.core();
    // The same warm-up boundary as `run_jmp`: enter the first window,
    // then zero the core's counters and clock.
    sj.vas_switch(pid, handles[0])?;
    sj.kernel_mut().core_mem(core).0.reset_stats();
    sj.kernel().clock().reset();
    let mark = SimMark::take(&mut sj);
    let setup_ns = elapsed_ns(setup);

    let mut failed = 0;
    let mut current = 0;
    let mut updates = 0u32;
    let mut samples = 0u32;
    let mut clock = OpClock::start(cal, size.epochs);
    for epoch in 0..size.epochs {
        spans.set_op(epoch as u64);
        let visit = spans.begin("gups.visit");
        let w = spans.time("sim.rng", || rng.index(size.windows));
        if w != current {
            spans.time("core.vas_switch", || sj.vas_switch(pid, handles[w]))?;
            current = w;
        }
        for _ in 0..size.updates_per_set {
            let ok = if spans.on() && updates.is_multiple_of(SAMPLE_EVERY) {
                samples += 1;
                sampled_update(
                    &mut sj,
                    pid,
                    base,
                    slots,
                    &mut rng,
                    spans,
                    samples.is_multiple_of(2),
                )
            } else {
                let idx = rng.gen_range(0..slots);
                update(&mut sj, pid, base.add(idx * 8), idx).is_ok()
            };
            failed += u64::from(!ok);
            updates += 1;
        }
        spans.end(visit);
        clock.op_done();
    }
    let measured_ns = clock.elapsed_ns();
    let sim = mark.delta(&mut sj);

    let (mismatches, checksum) = verify(&mut sj, pid, &handles, current, size, seed)?;
    Ok(Round {
        setup_ns,
        measured_ns,
        ops: (size.epochs * size.updates_per_set) as u64,
        failed: failed + mismatches,
        windows: windows(clock.ends(), size.updates_per_set as u64),
        tail_ns: 0,
        latency: latency(clock.ends()),
        units_ns: cal.take(),
        sim,
        checksum,
    })
}

/// One GUPS update: `word ^= idx` through the kernel's load/store path.
fn update(sj: &mut SpaceJmp, pid: Pid, va: VirtAddr, idx: u64) -> OsResult<()> {
    let k = sj.kernel_mut();
    let v = k.load_u64(pid, va)?;
    k.store_u64(pid, va, v ^ idx)
}

/// An update of a traced round that is timed. Samples alternate between
/// the real `Kernel::load_u64`/`store_u64` (`os.access`) and the same
/// access made of its public parts, which charge the same cycles.
fn sampled_update(
    sj: &mut SpaceJmp,
    pid: Pid,
    base: VirtAddr,
    slots: u64,
    rng: &mut SimRng,
    spans: &mut Spans,
    whole: bool,
) -> bool {
    let idx = spans.time_sampled("sim.rng", || rng.gen_range(0..slots));
    let va = base.add(idx * 8);
    let k = sj.kernel_mut();
    if whole {
        let Ok(v) = spans.time_sampled("os.access", || k.load_u64(pid, va)) else {
            return false;
        };
        spans
            .time_sampled("os.access", || k.store_u64(pid, va, v ^ idx))
            .is_ok()
    } else {
        access_in_parts(k, pid, va, None, spans)
            .and_then(|v| access_in_parts(k, pid, va, Some(v ^ idx), spans))
            .is_ok()
    }
}

/// `Kernel::load_u64` (`store == None`) or `store_u64`, spelled out as
/// its parts so each is timed: the process-to-core dispatch, the MMU
/// translation, the data-access charge, the frame access, and the fault
/// handler when the translation faults.
fn access_in_parts(
    k: &mut Kernel,
    pid: Pid,
    va: VirtAddr,
    store: Option<u64>,
    spans: &mut Spans,
) -> OsResult<u64> {
    let access = if store.is_some() {
        Access::Write
    } else {
        Access::Read
    };
    loop {
        // Not `time_sampled`: the split borrow cannot leave a closure.
        let dispatch = spans.begin_sampled("os.dispatch");
        let parts = k.mem_of(pid);
        spans.end(dispatch);
        let (mmu, phys) = parts?;
        match spans.time_sampled("mem.translate", || mmu.translate(phys, va, access)) {
            Ok(pa) => {
                spans.time_sampled("sim.clock", || charge_data(mmu, phys, pa, store.is_some()));
                return spans
                    .time_sampled("mem.phys", || match store {
                        Some(v) => phys.write_u64(pa, v).map(|()| v),
                        None => phys.read_u64(pa),
                    })
                    .map_err(OsError::from);
            }
            Err(MemError::PageFault { .. }) => {}
            Err(e) => return Err(e.into()),
        }
        // Untimed: window frames are mapped when the segment is attached,
        // so these workloads never fault here.
        k.handle_fault(pid, va, access)?;
    }
}

/// The cycles `Mmu::read_u64`/`write_u64` charge for touching `pa` once
/// it is translated: one cache access, plus the NVM extra on that tier.
/// A copy of the private `Mmu::charge_data` in `crates/mem/src/mmu.rs`,
/// which must stay equal to it; the traced-digest test catches a drift.
fn charge_data(mmu: &Mmu, phys: &PhysMem, pa: PhysAddr, write: bool) {
    let cost = mmu.cost();
    let mut cycles = cost.cache_hit;
    if phys.is_nvm(pa.pfn()) {
        cycles += if write {
            cost.nvm_write_extra
        } else {
            cost.nvm_read_extra
        };
    }
    mmu.clock().advance(cycles);
}

/// Gives every frame of segment `sid` its host memory now, so the
/// measured region starts from a full frame map. Host-only: nothing
/// simulated changes.
fn materialize(sj: &mut SpaceJmp, sid: SegId) -> SjResult<()> {
    let object = sj.segment(sid)?.object();
    let k = sj.kernel_mut();
    let frames: Vec<_> = {
        let o = k.vmobject(object)?;
        (0..o.pages()).map(|p| o.pa(p * PAGE_SIZE).pfn()).collect()
    };
    for pfn in frames {
        k.phys_mut().frame_bytes_mut(pfn);
    }
    Ok(())
}

/// Replays the update stream from the seed and reads back
/// `size.verify_words` sampled words through `Kernel::load_u64`: a word
/// updated an odd number of times holds its slot index, any other word
/// holds zero. Returns the mismatches and a checksum of the words read.
fn verify(
    sj: &mut SpaceJmp,
    pid: Pid,
    handles: &[VasHandle],
    mut current: usize,
    size: &Size,
    seed: u64,
) -> SjResult<(u64, u64)> {
    let slots = size.window_bytes / 8;
    let mut odd = vec![0u64; (size.windows as u64 * slots).div_ceil(64) as usize];
    let mut rng = SimRng::seed_from_u64(seed);
    for _ in 0..size.epochs {
        let w = rng.index(size.windows) as u64;
        for _ in 0..size.updates_per_set {
            let bit = w * slots + rng.gen_range(0..slots);
            odd[(bit / 64) as usize] ^= 1 << (bit % 64);
        }
    }
    let mut pick = SimRng::seed_from_u64(seed ^ VERIFY_SALT);
    let mut words: Vec<(usize, u64)> = (0..size.verify_words)
        .map(|_| (pick.index(size.windows), pick.gen_range(0..slots)))
        .collect();
    words.sort_unstable();
    let base = VirtAddr::new(GLOBAL_LO.raw());
    let mut mismatches = 0;
    let mut sum = Fnv::default();
    for (w, slot) in words {
        if w != current {
            sj.vas_switch(pid, handles[w])?;
            current = w;
        }
        let bit = w as u64 * slots + slot;
        let expect = if odd[(bit / 64) as usize] >> (bit % 64) & 1 == 1 {
            slot
        } else {
            0
        };
        let got = sj.kernel_mut().load_u64(pid, base.add(slot * 8))?;
        mismatches += u64::from(got != expect);
        sum.word(got);
    }
    Ok((mismatches, sum.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjmp_gups::{run_jmp, GupsConfig};

    fn round(size: &Size, seed: u64, traced: bool) -> Round {
        let mut spans = Spans::default();
        spans.set_on(traced);
        run(size, seed, &mut spans, &mut Calibration::default()).expect("gups round")
    }

    #[test]
    fn round_matches_run_jmp() {
        for size in [Size::walk(true), Size::tlb(true)] {
            let r = round(&size, 7, false);
            let reference = run_jmp(&GupsConfig {
                windows: size.windows,
                window_bytes: size.window_bytes,
                updates_per_set: size.updates_per_set,
                epochs: size.epochs,
                seed: 7,
                machine: MachineId::M3,
                flavor: KernelFlavor::DragonFly,
                tagging: size.tagged,
                ..GupsConfig::default()
            })
            .expect("run_jmp");
            assert_eq!(
                (r.sim.cycles, r.sim.tlb.misses, r.sim.sj.switches),
                (
                    reference.cycles,
                    reference.tlb_misses,
                    reference.transitions
                ),
                "tagged = {}",
                size.tagged
            );
            assert_eq!(r.failed, 0);
        }
    }

    #[test]
    fn walk_digest_ignores_the_host_walk_cache() {
        let size = Size::walk(true);
        let uncached = Size {
            host_walk_cache: false,
            ..size.clone()
        };
        assert_eq!(
            round(&size, 3, false).digest(),
            round(&uncached, 3, false).digest()
        );
    }

    #[test]
    fn walk_and_tlb_workloads_differ_in_tlb_behaviour() {
        let walk = round(&Size::walk(true), 5, false);
        let tlb = round(&Size::tlb(true), 5, false);
        assert!(
            walk.sim.tlb.misses * 4 > walk.ops,
            "gups_walk should miss on most updates"
        );
        assert!(
            tlb.sim.tlb.misses * 100 < tlb.ops,
            "gups_tlb should hit the TLB"
        );
    }
}
