//! A Redis-style hash table living **inside a SpaceJMP segment**.
//!
//! All state — bucket arrays, entry nodes, key and value bytes — is
//! allocated from a [`VasHeap`] hosted by the segment, and every access
//! goes through the simulated MMU. Pointers are full virtual addresses:
//! because a segment has one fixed base in every address space, any
//! process that switches into a VAS mapping the segment can use the
//! dictionary directly, with no serialization or pointer swizzling. That
//! is the heart of the RedisJMP design (Section 5.3).
//!
//! Like Redis's `dict`, the table uses chaining and **incremental
//! rehash**: two bucket arrays coexist while entries migrate a bucket at
//! a time. RedisJMP "resize\[s\] and rehash\[es\] entries only when a client
//! has an exclusive lock on the address space" — hence the `allow_rehash`
//! parameter on mutating operations.

use sjmp_mem::VirtAddr;
use sjmp_os::{Pid, ProcMem};
use spacejmp_core::{SjError, SjResult, SpaceJmp, VasHeap};

/// Initial bucket count (power of two).
const INITIAL_BUCKETS: u64 = 16;
/// Entry node layout: next, hash, key_ptr, key_len, val_ptr, val_len.
const ENTRY_SIZE: u64 = 48;
const E_NEXT: u64 = 0;
const E_HASH: u64 = 8;
const E_KEY: u64 = 16;
const E_KLEN: u64 = 24;
const E_VAL: u64 = 32;
const E_VLEN: u64 = 40;

/// Dict header layout: table0, cap0, used0, table1, cap1, used1,
/// rehash_idx (u64::MAX when idle).
const H_T0: u64 = 0;
const H_CAP0: u64 = 8;
const H_USED0: u64 = 16;
const H_T1: u64 = 24;
const H_CAP1: u64 = 32;
const H_USED1: u64 = 40;
const H_REHASH: u64 = 48;
const HEADER_SIZE: u64 = 56;

const NOT_REHASHING: u64 = u64::MAX;

/// FNV-1a, the key hash.
fn hash_key(key: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Per-operation statistics (for cost attribution in benchmarks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DictStats {
    /// Buckets migrated by incremental rehash steps.
    pub rehash_migrations: u64,
    /// Full resizes started.
    pub resizes: u64,
}

/// Handle to a segment-resident dictionary.
///
/// Plain data: the real state lives in the heap's segment, keyed off the
/// heap's root pointer, so handles can be reconstructed by any attacher
/// via [`SegDict::open`].
#[derive(Debug, Clone, Copy)]
pub struct SegDict {
    heap: VasHeap,
    header: VirtAddr,
}

impl SegDict {
    /// Creates a new dictionary in `heap` and registers it as the heap's
    /// root object.
    ///
    /// # Errors
    ///
    /// Allocation failures from the heap.
    pub fn create(sj: &mut SpaceJmp, pid: Pid, heap: VasHeap) -> SjResult<SegDict> {
        let header = heap.calloc(sj, pid, HEADER_SIZE)?;
        let table0 = heap.calloc(sj, pid, INITIAL_BUCKETS * 8)?;
        let mut m = sj.kernel_mut().proc_mem(pid)?;
        m.store_u64(header.add(H_T0), table0.raw())?;
        m.store_u64(header.add(H_CAP0), INITIAL_BUCKETS)?;
        m.store_u64(header.add(H_REHASH), NOT_REHASHING)?;
        heap.set_root(sj, pid, header)?;
        Ok(SegDict { heap, header })
    }

    /// Opens the dictionary previously created in `heap`.
    ///
    /// # Errors
    ///
    /// [`SjError::InvalidArgument`] if the heap has no root object.
    pub fn open(sj: &mut SpaceJmp, pid: Pid, heap: VasHeap) -> SjResult<SegDict> {
        let header = heap.root(sj, pid)?;
        if header == VirtAddr::NULL {
            return Err(SjError::InvalidArgument("heap holds no dictionary"));
        }
        Ok(SegDict { heap, header })
    }

    fn h(&self, field: u64) -> VirtAddr {
        self.header.add(field)
    }

    /// Number of live entries.
    ///
    /// # Errors
    ///
    /// Access errors if the segment is not mapped.
    pub fn len(&self, sj: &mut SpaceJmp, pid: Pid) -> SjResult<u64> {
        let mut m = sj.kernel_mut().proc_mem(pid)?;
        Ok(m.load_u64(self.h(H_USED0))? + m.load_u64(self.h(H_USED1))?)
    }

    /// Whether the dictionary is empty.
    ///
    /// # Errors
    ///
    /// As [`Self::len`].
    pub fn is_empty(&self, sj: &mut SpaceJmp, pid: Pid) -> SjResult<bool> {
        Ok(self.len(sj, pid)? == 0)
    }

    /// Whether an incremental rehash is in progress.
    ///
    /// # Errors
    ///
    /// Access errors if the segment is not mapped.
    pub fn is_rehashing(&self, sj: &mut SpaceJmp, pid: Pid) -> SjResult<bool> {
        self.rehashing(&mut sj.kernel_mut().proc_mem(pid)?)
    }

    fn rehashing(&self, m: &mut ProcMem<'_>) -> SjResult<bool> {
        Ok(m.load_u64(self.h(H_REHASH))? != NOT_REHASHING)
    }

    /// Finds the entry for `key` in table `t` (0 or 1); returns
    /// `(prev_entry_or_null, entry)` for unlink support.
    fn find_in_table(
        &self,
        m: &mut ProcMem<'_>,
        t: u64,
        hash: u64,
        key: &[u8],
    ) -> SjResult<Option<(VirtAddr, VirtAddr)>> {
        let (tbl_f, cap_f) = table_fields(t);
        let table = m.load_u64(self.h(tbl_f))?;
        if table == 0 {
            return Ok(None);
        }
        let cap = m.load_u64(self.h(cap_f))?;
        let bucket = VirtAddr::new(table).add((hash & (cap - 1)) * 8);
        let mut prev = VirtAddr::NULL;
        let mut cur = m.load_u64(bucket)?;
        while cur != 0 {
            let e = VirtAddr::new(cur);
            let ehash = m.load_u64(e.add(E_HASH))?;
            if ehash == hash {
                let klen = m.load_u64(e.add(E_KLEN))?;
                if klen as usize == key.len() {
                    let kptr = VirtAddr::new(m.load_u64(e.add(E_KEY))?);
                    if stored_key_equals(m, kptr, key)? {
                        return Ok(Some((prev, e)));
                    }
                }
            }
            prev = e;
            cur = m.load_u64(e.add(E_NEXT))?;
        }
        Ok(None)
    }

    /// Looks up `key`, returning a copy of its value.
    ///
    /// # Errors
    ///
    /// Access errors if the segment is not mapped in the current VAS.
    pub fn get(&self, sj: &mut SpaceJmp, pid: Pid, key: &[u8]) -> SjResult<Option<Vec<u8>>> {
        let hash = hash_key(key);
        let mut m = sj.kernel_mut().proc_mem(pid)?;
        for t in [0u64, 1] {
            if let Some((_, e)) = self.find_in_table(&mut m, t, hash, key)? {
                let vlen = m.load_u64(e.add(E_VLEN))?;
                let vptr = VirtAddr::new(m.load_u64(e.add(E_VAL))?);
                let mut buf = vec![0u8; vlen as usize];
                m.load_bytes(vptr, &mut buf)?;
                return Ok(Some(buf));
            }
        }
        Ok(None)
    }

    /// Inserts or replaces `key -> val`. With `allow_rehash`, may start a
    /// resize and migrates one bucket of a pending rehash (exclusive-lock
    /// holders only, per the RedisJMP rule).
    ///
    /// # Errors
    ///
    /// Heap exhaustion or access errors.
    pub fn set(
        &self,
        sj: &mut SpaceJmp,
        pid: Pid,
        key: &[u8],
        val: &[u8],
        allow_rehash: bool,
        stats: &mut DictStats,
    ) -> SjResult<()> {
        let hash = hash_key(key);
        if allow_rehash {
            self.maybe_resize(sj, pid, stats)?;
            self.rehash_step(sj, pid, stats)?;
        }
        let mut m = sj.kernel_mut().proc_mem(pid)?;
        // Replace in place if present (either table).
        for t in [0u64, 1] {
            if let Some((_, e)) = self.find_in_table(&mut m, t, hash, key)? {
                let old_vptr = VirtAddr::new(m.load_u64(e.add(E_VAL))?);
                self.heap.free(sj, pid, old_vptr)?;
                let vptr = self.heap.malloc(sj, pid, val.len().max(1) as u64)?;
                let mut m = sj.kernel_mut().proc_mem(pid)?;
                m.store_bytes(vptr, val)?;
                m.store_u64(e.add(E_VAL), vptr.raw())?;
                m.store_u64(e.add(E_VLEN), val.len() as u64)?;
                return Ok(());
            }
        }
        // Fresh insert, into table1 if rehashing else table0.
        let t = u64::from(self.rehashing(&mut m)?);
        let entry = self.heap.malloc(sj, pid, ENTRY_SIZE)?;
        let kptr = self.heap.malloc(sj, pid, key.len().max(1) as u64)?;
        let vptr = self.heap.malloc(sj, pid, val.len().max(1) as u64)?;
        let mut m = sj.kernel_mut().proc_mem(pid)?;
        m.store_bytes(kptr, key)?;
        m.store_bytes(vptr, val)?;
        let (tbl_f, cap_f) = table_fields(t);
        let table = m.load_u64(self.h(tbl_f))?;
        let cap = m.load_u64(self.h(cap_f))?;
        let bucket = VirtAddr::new(table).add((hash & (cap - 1)) * 8);
        let head = m.load_u64(bucket)?;
        m.store_u64(entry.add(E_NEXT), head)?;
        m.store_u64(entry.add(E_HASH), hash)?;
        m.store_u64(entry.add(E_KEY), kptr.raw())?;
        m.store_u64(entry.add(E_KLEN), key.len() as u64)?;
        m.store_u64(entry.add(E_VAL), vptr.raw())?;
        m.store_u64(entry.add(E_VLEN), val.len() as u64)?;
        m.store_u64(bucket, entry.raw())?;
        let used_f = used_field(t);
        let used = m.load_u64(self.h(used_f))?;
        m.store_u64(self.h(used_f), used + 1)?;
        Ok(())
    }

    /// Removes `key`; returns whether it existed.
    ///
    /// # Errors
    ///
    /// Access errors.
    pub fn del(
        &self,
        sj: &mut SpaceJmp,
        pid: Pid,
        key: &[u8],
        allow_rehash: bool,
        stats: &mut DictStats,
    ) -> SjResult<bool> {
        if allow_rehash {
            self.rehash_step(sj, pid, stats)?;
        }
        let hash = hash_key(key);
        let mut m = sj.kernel_mut().proc_mem(pid)?;
        for t in [0u64, 1] {
            if let Some((prev, e)) = self.find_in_table(&mut m, t, hash, key)? {
                let next = m.load_u64(e.add(E_NEXT))?;
                if prev == VirtAddr::NULL {
                    let (tbl_f, cap_f) = table_fields(t);
                    let table = m.load_u64(self.h(tbl_f))?;
                    let cap = m.load_u64(self.h(cap_f))?;
                    let bucket = VirtAddr::new(table).add((hash & (cap - 1)) * 8);
                    m.store_u64(bucket, next)?;
                } else {
                    m.store_u64(prev.add(E_NEXT), next)?;
                }
                let kptr = VirtAddr::new(m.load_u64(e.add(E_KEY))?);
                let vptr = VirtAddr::new(m.load_u64(e.add(E_VAL))?);
                let used_f = used_field(t);
                let used = m.load_u64(self.h(used_f))?;
                m.store_u64(self.h(used_f), used - 1)?;
                self.heap.free(sj, pid, kptr)?;
                self.heap.free(sj, pid, vptr)?;
                self.heap.free(sj, pid, e)?;
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Starts a resize if the load factor reached 1.0 and none is active.
    fn maybe_resize(&self, sj: &mut SpaceJmp, pid: Pid, stats: &mut DictStats) -> SjResult<()> {
        let mut m = sj.kernel_mut().proc_mem(pid)?;
        if self.rehashing(&mut m)? {
            return Ok(());
        }
        let cap0 = m.load_u64(self.h(H_CAP0))?;
        let used0 = m.load_u64(self.h(H_USED0))?;
        if used0 < cap0 {
            return Ok(());
        }
        let new_cap = cap0 * 2;
        let table1 = self.heap.calloc(sj, pid, new_cap * 8)?;
        let mut m = sj.kernel_mut().proc_mem(pid)?;
        m.store_u64(self.h(H_T1), table1.raw())?;
        m.store_u64(self.h(H_CAP1), new_cap)?;
        m.store_u64(self.h(H_USED1), 0)?;
        m.store_u64(self.h(H_REHASH), 0)?;
        stats.resizes += 1;
        Ok(())
    }

    /// Migrates one bucket of a pending rehash (Redis's incremental
    /// `dictRehash(d, 1)`), finishing the rehash when the last bucket
    /// moves.
    fn rehash_step(&self, sj: &mut SpaceJmp, pid: Pid, stats: &mut DictStats) -> SjResult<()> {
        let mut m = sj.kernel_mut().proc_mem(pid)?;
        let idx = m.load_u64(self.h(H_REHASH))?;
        if idx == NOT_REHASHING {
            return Ok(());
        }
        let table0 = m.load_u64(self.h(H_T0))?;
        let cap0 = m.load_u64(self.h(H_CAP0))?;
        let table1 = m.load_u64(self.h(H_T1))?;
        let cap1 = m.load_u64(self.h(H_CAP1))?;
        // Move every entry in bucket `idx` of table0 to table1.
        let bucket = VirtAddr::new(table0).add(idx * 8);
        let mut cur = m.load_u64(bucket)?;
        let mut moved = 0u64;
        while cur != 0 {
            let e = VirtAddr::new(cur);
            let next = m.load_u64(e.add(E_NEXT))?;
            let hash = m.load_u64(e.add(E_HASH))?;
            let dst_bucket = VirtAddr::new(table1).add((hash & (cap1 - 1)) * 8);
            let dst_head = m.load_u64(dst_bucket)?;
            m.store_u64(e.add(E_NEXT), dst_head)?;
            m.store_u64(dst_bucket, e.raw())?;
            cur = next;
            moved += 1;
        }
        m.store_u64(bucket, 0)?;
        if moved > 0 {
            let u0 = m.load_u64(self.h(H_USED0))?;
            let u1 = m.load_u64(self.h(H_USED1))?;
            m.store_u64(self.h(H_USED0), u0 - moved)?;
            m.store_u64(self.h(H_USED1), u1 + moved)?;
            stats.rehash_migrations += 1;
        }
        if idx + 1 >= cap0 {
            // Rehash complete: table1 becomes table0.
            let t1 = m.load_u64(self.h(H_T1))?;
            let c1 = m.load_u64(self.h(H_CAP1))?;
            let u1 = m.load_u64(self.h(H_USED1))?;
            m.store_u64(self.h(H_T0), t1)?;
            m.store_u64(self.h(H_CAP0), c1)?;
            m.store_u64(self.h(H_USED0), u1)?;
            m.store_u64(self.h(H_T1), 0)?;
            m.store_u64(self.h(H_CAP1), 0)?;
            m.store_u64(self.h(H_USED1), 0)?;
            m.store_u64(self.h(H_REHASH), NOT_REHASHING)?;
            self.heap.free(sj, pid, VirtAddr::new(table0))?;
        } else {
            m.store_u64(self.h(H_REHASH), idx + 1)?;
        }
        Ok(())
    }
}

/// Keys up to this long are compared through a stack buffer.
const STACK_KEY_BYTES: usize = 64;

/// Whether the `key.len()` bytes stored at `kptr` equal `key`: one
/// `load_bytes` of the stored key, into a stack buffer for keys of at
/// most [`STACK_KEY_BYTES`] and a heap buffer for longer ones.
fn stored_key_equals(m: &mut ProcMem<'_>, kptr: VirtAddr, key: &[u8]) -> SjResult<bool> {
    let mut stack = [0u8; STACK_KEY_BYTES];
    let mut long = Vec::new();
    let buf = match stack.get_mut(..key.len()) {
        Some(buf) => buf,
        None => {
            long.resize(key.len(), 0);
            &mut long[..]
        }
    };
    m.load_bytes(kptr, buf)?;
    Ok(buf == key)
}

/// Header fields holding table `t`'s (0 or 1) pointer and capacity.
fn table_fields(t: u64) -> (u64, u64) {
    if t == 0 {
        (H_T0, H_CAP0)
    } else {
        (H_T1, H_CAP1)
    }
}

/// Header field holding table `t`'s live-entry count.
fn used_field(t: u64) -> u64 {
    if t == 0 {
        H_USED0
    } else {
        H_USED1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjmp_mem::{KernelFlavor, MachineId};
    use sjmp_os::{Creds, Kernel, Mode};
    use spacejmp_core::AttachMode;

    fn setup() -> (SpaceJmp, Pid, SegDict) {
        let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M2));
        let pid = sj.kernel_mut().spawn("kv", Creds::new(1, 1)).unwrap();
        sj.kernel_mut().activate(pid).unwrap();
        let vid = sj.vas_create(pid, "kv", Mode(0o660)).unwrap();
        let sid = sj
            .seg_alloc(
                pid,
                "kv-seg",
                VirtAddr::new(0x1000_0000_0000),
                4 << 20,
                Mode(0o660),
            )
            .unwrap();
        sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite).unwrap();
        let vh = sj.vas_attach(pid, vid).unwrap();
        sj.vas_switch(pid, vh).unwrap();
        let heap = VasHeap::format(&mut sj, pid, sid).unwrap();
        let dict = SegDict::create(&mut sj, pid, heap).unwrap();
        (sj, pid, dict)
    }

    #[test]
    fn get_set_del() {
        let (mut sj, pid, dict) = setup();
        let mut stats = DictStats::default();
        assert_eq!(dict.get(&mut sj, pid, b"missing").unwrap(), None);
        dict.set(&mut sj, pid, b"k1", b"v1", true, &mut stats)
            .unwrap();
        assert_eq!(dict.get(&mut sj, pid, b"k1").unwrap(), Some(b"v1".to_vec()));
        assert_eq!(dict.len(&mut sj, pid).unwrap(), 1);
        assert!(dict.del(&mut sj, pid, b"k1", true, &mut stats).unwrap());
        assert!(!dict.del(&mut sj, pid, b"k1", true, &mut stats).unwrap());
        assert!(dict.is_empty(&mut sj, pid).unwrap());
    }

    #[test]
    fn replace_updates_value() {
        let (mut sj, pid, dict) = setup();
        let mut stats = DictStats::default();
        dict.set(&mut sj, pid, b"k", b"old", true, &mut stats)
            .unwrap();
        dict.set(&mut sj, pid, b"k", b"newer-value", true, &mut stats)
            .unwrap();
        assert_eq!(
            dict.get(&mut sj, pid, b"k").unwrap(),
            Some(b"newer-value".to_vec())
        );
        assert_eq!(dict.len(&mut sj, pid).unwrap(), 1);
    }

    #[test]
    fn grows_past_initial_capacity_with_incremental_rehash() {
        let (mut sj, pid, dict) = setup();
        let mut stats = DictStats::default();
        for i in 0..200u32 {
            let key = format!("key-{i}");
            let val = format!("val-{i}");
            dict.set(
                &mut sj,
                pid,
                key.as_bytes(),
                val.as_bytes(),
                true,
                &mut stats,
            )
            .unwrap();
        }
        assert_eq!(dict.len(&mut sj, pid).unwrap(), 200);
        assert!(stats.resizes >= 1, "must have resized at least once");
        assert!(stats.rehash_migrations > 0, "migration is incremental");
        for i in 0..200u32 {
            let key = format!("key-{i}");
            assert_eq!(
                dict.get(&mut sj, pid, key.as_bytes()).unwrap(),
                Some(format!("val-{i}").into_bytes()),
                "{key}"
            );
        }
    }

    #[test]
    fn rehash_deferred_without_permission() {
        let (mut sj, pid, dict) = setup();
        let mut stats = DictStats::default();
        // Insert many entries with allow_rehash = false: table must not
        // resize (readers may be traversing).
        for i in 0..100u32 {
            dict.set(
                &mut sj,
                pid,
                format!("k{i}").as_bytes(),
                b"v",
                false,
                &mut stats,
            )
            .unwrap();
        }
        assert_eq!(stats.resizes, 0);
        assert!(!dict.is_rehashing(&mut sj, pid).unwrap());
        // All entries remain reachable despite load factor > 1.
        for i in 0..100u32 {
            assert!(dict
                .get(&mut sj, pid, format!("k{i}").as_bytes())
                .unwrap()
                .is_some());
        }
        // One write with the exclusive lock picks up the resize.
        dict.set(&mut sj, pid, b"trigger", b"v", true, &mut stats)
            .unwrap();
        assert_eq!(stats.resizes, 1);
    }

    #[test]
    fn lookups_work_mid_rehash() {
        let (mut sj, pid, dict) = setup();
        let mut stats = DictStats::default();
        for i in 0..40u32 {
            dict.set(
                &mut sj,
                pid,
                format!("k{i}").as_bytes(),
                format!("v{i}").as_bytes(),
                true,
                &mut stats,
            )
            .unwrap();
        }
        // If a rehash is in flight, both tables must serve lookups.
        for i in 0..40u32 {
            assert_eq!(
                dict.get(&mut sj, pid, format!("k{i}").as_bytes()).unwrap(),
                Some(format!("v{i}").into_bytes())
            );
        }
    }

    #[test]
    fn persists_across_processes() {
        let (mut sj, pid, dict) = setup();
        let mut stats = DictStats::default();
        dict.set(&mut sj, pid, b"shared", b"state", true, &mut stats)
            .unwrap();
        // A second process attaches the same VAS and opens the dict.
        let p2 = sj.kernel_mut().spawn("kv2", Creds::new(1, 1)).unwrap();
        sj.kernel_mut().activate(p2).unwrap();
        sj.vas_switch_home(pid).unwrap(); // release the exclusive lock
        let vid = sj.vas_find("kv").unwrap();
        let vh2 = sj.vas_attach(p2, vid).unwrap();
        sj.vas_switch(p2, vh2).unwrap();
        let sid = sj.seg_find("kv-seg").unwrap();
        let heap2 = VasHeap::open(&mut sj, p2, sid).unwrap();
        let dict2 = SegDict::open(&mut sj, p2, heap2).unwrap();
        assert_eq!(
            dict2.get(&mut sj, p2, b"shared").unwrap(),
            Some(b"state".to_vec())
        );
    }

    #[test]
    fn binary_keys_and_empty_values() {
        let (mut sj, pid, dict) = setup();
        let mut stats = DictStats::default();
        let key = vec![0u8, 255, 128, 7];
        dict.set(&mut sj, pid, &key, b"", true, &mut stats).unwrap();
        assert_eq!(dict.get(&mut sj, pid, &key).unwrap(), Some(Vec::new()));
    }
}
