//! Server-less sharing: the RedisJMP pattern (Section 5.3).
//!
//! Three client processes share a key-value store with **no server
//! process at all**: the store lives in a lockable segment inside a
//! shared VAS, readers switch in through a read-only mapping (shared
//! lock), writers through a writable mapping (exclusive lock).
//!
//! Run with: `cargo run --example shared_store`

use spacejmp::kv::bench::socket_round_trip;
use spacejmp::kv::{measure_costs, JmpClient};
use spacejmp::mem::CostModel;
use spacejmp::prelude::*;
use spacejmp::trace::Tracer;

fn main() -> SjResult<()> {
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M1));

    // Three independent client processes join the same store. The first
    // one lazily initializes the segment, heap, and hash table.
    let mut clients = Vec::new();
    for i in 0..3 {
        let pid = sj
            .kernel_mut()
            .spawn(&format!("client-{i}"), Creds::new(100, 100))?;
        sj.kernel_mut().activate(pid)?;
        clients.push(JmpClient::join(&mut sj, pid, "demo", i)?);
    }
    println!("three clients joined the store (first one initialized it)");

    // Client 0 writes; everyone reads the same bytes directly.
    clients[0].set(&mut sj, b"motd", b"no sockets were harmed")?;
    for (i, c) in clients.iter_mut().enumerate() {
        let v = c.get(&mut sj, b"motd")?.expect("key exists");
        println!("client-{i} GET motd -> {}", String::from_utf8_lossy(&v));
    }

    // The segment lock enforces single-writer/multi-reader: park client 1
    // inside the read-only VAS and watch a writer bounce.
    let (p1, rh) = (clients[1].pid(), clients[1].read_handle());
    sj.vas_switch(p1, rh)?;
    match clients[2].set(&mut sj, b"motd", b"contended") {
        Err(SjError::WouldBlock) => {
            println!("writer blocked while a reader is switched in (lock held)")
        }
        other => panic!("expected WouldBlock, got {other:?}"),
    }
    sj.vas_switch_home(p1)?;
    clients[2].set(&mut sj, b"motd", b"updated after reader left")?;
    let v = clients[0].get(&mut sj, b"motd")?.expect("key exists");
    println!("client-0 GET motd -> {}", String::from_utf8_lossy(&v));

    // Throughput context: this is why the paper's Figure 10 shows
    // RedisJMP several times ahead of socket-served Redis.
    let costs = measure_costs(MachineId::M1, false, Tracer::disabled())?;
    println!(
        "measured visit costs: GET {} cycles, SET {} cycles (vs {} cycles of socket round trip)",
        costs.jmp_get,
        costs.jmp_set,
        socket_round_trip(&CostModel::default())
    );
    Ok(())
}
