//! Host heap traffic of the RedisJMP request path.
//!
//! A GET or SET stages its RESP bytes in the client's scratch heap and
//! parses them back, all in simulated memory. On the host, that path
//! should touch the heap only for the value a GET returns: the wire
//! bytes live in buffers the client reuses, the parser borrows from
//! them, and the dictionary compares keys through a stack buffer.
//!
//! A counting global allocator counts per thread, so the test harness's
//! own threads do not disturb the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sjmp_kv::JmpClient;
use sjmp_mem::{KernelFlavor, MachineId};
use sjmp_os::{Creds, Kernel};
use spacejmp_core::SpaceJmp;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot may already be gone while the thread exits.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Host allocations `f` makes on this thread.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

#[test]
fn get_and_set_allocate_only_the_returned_value() {
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M1));
    let pid = sj
        .kernel_mut()
        .spawn("client", Creds::new(100, 100))
        .unwrap();
    sj.kernel_mut().activate(pid).unwrap();
    let mut client = JmpClient::join(&mut sj, pid, "allocs", 0).unwrap();

    // A short key compares through the stack buffer, a 100-byte key
    // through the fallback; values are the benchmark's size.
    let short = b"key:000042".to_vec();
    let long = vec![b'k'; 100];
    let val = vec![0x5au8; 64];
    // Warm-up: the keys exist, and the client's wire buffers have
    // grown to the largest request below.
    for key in [&short, &long] {
        for _ in 0..4 {
            client.set(&mut sj, key, &val).unwrap();
            client.get(&mut sj, key).unwrap();
        }
    }

    for _ in 0..8 {
        let (n, got) = allocs_in(|| client.get(&mut sj, &short).unwrap());
        assert_eq!(got.as_deref(), Some(&val[..]));
        assert!(n <= 1, "GET made {n} host allocations, want at most 1");
        let (n, ()) = allocs_in(|| client.set(&mut sj, &short, &val).unwrap());
        assert_eq!(n, 0, "SET of an existing key made {n} host allocations");
    }
    // A key past the stack buffer costs one more allocation per
    // compared candidate, and nothing else.
    let (n, _) = allocs_in(|| client.get(&mut sj, &long).unwrap());
    assert!(
        n <= 2,
        "long-key GET made {n} host allocations, want at most 2"
    );
}
