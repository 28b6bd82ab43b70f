//! RedisJMP warm restart (no paper counterpart — §5.3 keeps the store
//! VAS alive across *process* lifetimes; this extends it across
//! *machine* lifetimes): populate a store, persist its VAS with
//! `vas_save`, power-cycle the machine, `vas_load` the snapshot on the
//! fresh kernel, and serve every key again — vs. a cold rebuild that
//! re-runs all the SETs from scratch.
//!
//! The store segment reappears at its fixed base address, so the
//! pointer-rich dict inside it works unchanged — no serialization, the
//! SpaceJMP argument applied to durability. Every warm GET is verified
//! against the value written before the crash; the process **exits
//! nonzero** on a mismatch or a failed invariant audit. Output lands in
//! `results/warm_restart.json`
//! (`cargo run -p sjmp-bench --bin warm_restart -- --quick`).

use sjmp_analyze::lint_kernel;
use sjmp_kv::JmpClient;
use sjmp_mem::cost::{MachineId, MachineProfile};
use sjmp_mem::KernelFlavor;
use sjmp_os::{Creds, Kernel, Mode, Pid};
use sjmp_trace::Tracer;
use spacejmp_core::{AttachMode, SpaceJmp};

use sjmp_bench::{export_trace, quick_mode, trace_from_env, Report};

fn boot(tracer: &Tracer) -> SpaceJmp {
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M1));
    sj.set_tracer(tracer.clone());
    sj
}

fn spawn(sj: &mut SpaceJmp, name: &str) -> Pid {
    let pid = sj.kernel_mut().spawn(name, Creds::new(100, 100)).unwrap();
    sj.kernel_mut().activate(pid).unwrap();
    pid
}

fn key(i: u32) -> Vec<u8> {
    format!("key:{i:06}").into_bytes()
}

fn value(i: u32) -> Vec<u8> {
    format!("value-{i}-{:032x}", u128::from(i) * 0x9E37_79B9).into_bytes()
}

/// One warm-restart experiment at `keys` store entries. Returns the
/// row: populate, save, recovery, load, rejoin+serve cycles, and the
/// cold-rebuild total for the speedup column.
struct Run {
    keys: u32,
    populate: u64,
    save: u64,
    recovery: u64,
    load: u64,
    rejoin: u64,
    serve: u64,
}

impl Run {
    /// Cycles from power-on until the store can serve its first GET.
    fn warm_ready(&self) -> u64 {
        self.recovery + self.load + self.rejoin
    }
    /// The cold path to the same state: re-run every SET from scratch.
    fn cold_ready(&self) -> u64 {
        self.populate
    }
}

fn run(keys: u32, tracer: &Tracer) -> Run {
    // Cold build: join the store and write every key.
    let mut sj = boot(tracer);
    let pid = spawn(&mut sj, "client");
    let t0 = sj.kernel_mut().clock().now();
    let mut client = JmpClient::join(&mut sj, pid, "wr", 0).unwrap();
    for i in 0..keys {
        client.set(&mut sj, &key(i), &value(i)).unwrap();
    }
    let populate = sj.kernel_mut().clock().now() - t0;

    // Persist the store through a dedicated VAS holding only the store
    // segment (the client's own VAS holds per-process scratch).
    let store_sid = sj.seg_find("jmp-store-wr").unwrap();
    let pvid = sj.vas_create(pid, "kvstore-wr", Mode(0o660)).unwrap();
    sj.seg_attach(pid, pvid, store_sid, AttachMode::ReadWrite)
        .unwrap();
    let t0 = sj.kernel_mut().clock().now();
    sj.vas_save(pid, pvid).unwrap();
    let save = sj.kernel_mut().clock().now() - t0;

    // Power loss + reboot: recovery runs inside attach_disk on the
    // boot core of a zero-cycle fresh kernel.
    let mut dev = sj.kernel_mut().take_disk();
    dev.crash();
    let mut kernel = Kernel::new(KernelFlavor::DragonFly, MachineId::M1);
    kernel.set_tracer(tracer.clone());
    let replays = kernel.attach_disk(dev);
    assert_eq!(replays, 0, "clean shutdown needs no journal replay");
    let recovery = kernel.clock().now();
    let mut sj2 = SpaceJmp::new(kernel);

    // Reattach the snapshot, rejoin, and serve every key.
    let pid2 = spawn(&mut sj2, "client2");
    let t0 = sj2.kernel_mut().clock().now();
    sj2.vas_load(pid2, "kvstore-wr").unwrap();
    let load = sj2.kernel_mut().clock().now() - t0;
    let t0 = sj2.kernel_mut().clock().now();
    let mut client2 = JmpClient::join(&mut sj2, pid2, "wr", 0).unwrap();
    let rejoin = sj2.kernel_mut().clock().now() - t0;
    let t0 = sj2.kernel_mut().clock().now();
    for i in 0..keys {
        assert_eq!(
            client2.get(&mut sj2, &key(i)).unwrap(),
            Some(value(i)),
            "key {i} after warm restart"
        );
    }
    let serve = sj2.kernel_mut().clock().now() - t0;

    let problems = sj2.check_invariants();
    assert!(
        problems.is_empty(),
        "audit failed:\n{}",
        problems.join("\n")
    );
    let findings = lint_kernel(&mut sj2);
    assert!(findings.is_empty(), "kernel lint failed:\n{findings:?}");

    Run {
        keys,
        populate,
        save,
        recovery,
        load,
        rejoin,
        serve,
    }
}

fn main() {
    let quick = quick_mode();
    let tracer = trace_from_env();
    let freq = MachineProfile::of(MachineId::M1).freq_hz as f64;
    let mut report = Report::new("warm_restart");

    report.heading("RedisJMP warm restart: vas_save / power-cycle / vas_load (M1 profile)");
    report.header(
        &[
            "keys",
            "populate",
            "vas_save",
            "recovery",
            "vas_load",
            "rejoin",
            "serve-all",
        ],
        &[6, 12, 12, 12, 12, 9, 12],
    );
    let ticks: &[u32] = if quick { &[64, 256] } else { &[64, 256, 1024] };
    let mut runs = Vec::new();
    for &keys in ticks {
        let r = run(keys, &tracer);
        report.row(&[
            r.keys.to_string(),
            r.populate.to_string(),
            r.save.to_string(),
            r.recovery.to_string(),
            r.load.to_string(),
            r.rejoin.to_string(),
            r.serve.to_string(),
        ]);
        runs.push(r);
    }

    report.heading("Time to a servable store: cold rebuild vs warm restart");
    report.header(
        &["keys", "cold-rebuild", "warm-restart", "warm-ms", "speedup"],
        &[6, 14, 14, 10, 9],
    );
    for r in &runs {
        report.row(&[
            r.keys.to_string(),
            r.cold_ready().to_string(),
            r.warm_ready().to_string(),
            format!("{:.3}", r.warm_ready() as f64 / freq * 1e3),
            format!("{:.1}x", r.cold_ready() as f64 / r.warm_ready() as f64),
        ]);
    }

    report.note("\nevery warm GET returned the exact value written before the crash;");
    report.note("the pointer-rich dict needed no serialization — the store segment");
    report.note("reloads at its fixed base, so in-segment pointers stay valid");
    report.finish();
    export_trace(
        "warm_restart",
        &tracer,
        MachineProfile::of(MachineId::M1).freq_hz,
    );
}
