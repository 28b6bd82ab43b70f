//! Figure 7: URPC vs SpaceJMP as a local RPC mechanism (M2, cycles).
//!
//! The paper: "an RPC client issues a request to a server process on a
//! different core and waits for the acknowledgment ... We compare with
//! the same semantics in SpaceJMP by switching into the server's VAS and
//! accessing the data directly by copying it into the process-local
//! address space." Series: URPC intra-socket (`URPC L`), URPC
//! cross-socket (`URPC X`), and SpaceJMP (switch + copy + switch back).
//!
//! With `SJMP_TRACE=1` the URPC and SpaceJMP paths both record events
//! (RPC send/recv spans, VAS switches) and the trace of the final row is
//! exported to `results/fig7_rpc_latency.trace.json`.

use sjmp_bench::{export_trace, human_bytes, trace_from_env, Report};
use sjmp_mem::cost::{CoreClocks, CoreCtx, CostModel, MachineProfile};
use sjmp_mem::{KernelFlavor, MachineId, VirtAddr};
use sjmp_os::{Creds, Kernel, Mode};
use sjmp_rpc::urpc::{Placement, UrpcPair};
use sjmp_trace::Tracer;
use spacejmp_core::{AttachMode, SpaceJmp};

fn urpc_round_trip(placement: Placement, size: usize, tracer: &Tracer) -> u64 {
    // Client and server are pinned to different cores, per the paper's
    // setup; for the cross-socket series the server's core sits on the
    // other socket (the placement carries the transfer cost).
    let clocks = CoreClocks::new(2);
    // Ring sized like the Barrelfish channels: large enough for the
    // payload (latency past the buffer size grows, as the paper notes).
    let mut pair = UrpcPair::new(
        8192,
        placement,
        CostModel::default(),
        clocks.clone(),
        CoreCtx::new(0),
        CoreCtx::new(1),
    );
    pair.set_tracer(tracer.clone());
    let t0 = clocks.now();
    pair.round_trip(&[0u8; 8], size).expect("round trip");
    clocks.now() - t0
}

fn spacejmp_round_trip(size: usize, tracer: &Tracer) -> u64 {
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M2));
    sj.set_tracer(tracer.clone());
    let pid = sj
        .kernel_mut()
        .spawn("client", Creds::new(1, 1))
        .expect("spawn");
    sj.kernel_mut().activate(pid).expect("activate");
    let va = VirtAddr::new(0x1000_0000_0000);
    let vid = sj.vas_create(pid, "server-vas", Mode(0o660)).expect("vas");
    let sid = sj
        .seg_alloc(
            pid,
            "server-data",
            va,
            (size as u64).max(4096).next_power_of_two(),
            Mode(0o660),
        )
        .expect("seg");
    sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite)
        .expect("attach");
    let vh = sj.vas_attach(pid, vid).expect("vh");
    // Warm attach path, then measure the request: switch in, read the
    // payload into the process-local buffer, switch home.
    let mut buf = vec![0u8; size];
    let clock = sj.kernel().clock().clone();
    let t0 = clock.now();
    sj.vas_switch(pid, vh).expect("switch");
    sj.kernel_mut().load_bytes(pid, va, &mut buf).expect("copy");
    sj.vas_switch_home(pid).expect("home");
    clock.since(t0)
}

fn main() {
    let tracer = trace_from_env();
    let mut report = Report::new("fig7_rpc_latency");
    report.heading("Figure 7: local RPC latency vs transfer size (M2, cycles)");
    report.header(&["size", "URPC L", "URPC X", "SpaceJMP"], &[8, 10, 10, 10]);
    for size in [4usize, 64, 1024, 4096, 65536, 262144] {
        tracer.clear();
        let l = urpc_round_trip(Placement::IntraSocket, size, &tracer);
        let x = urpc_round_trip(Placement::CrossSocket, size, &tracer);
        let s = spacejmp_round_trip(size, &tracer);
        report.row(&[
            human_bytes(size as u64),
            l.to_string(),
            x.to_string(),
            s.to_string(),
        ]);
    }
    report.note("\npaper: SpaceJMP beaten only by intra-socket URPC for small");
    report.note("messages; across sockets the interconnect dominates the switch cost");
    report.finish();
    export_trace(
        "fig7_rpc_latency",
        &tracer,
        MachineProfile::of(MachineId::M2).freq_hz,
    );
}
