//! Pointer-rich alignment storage inside a persistent VAS.
//!
//! The SpaceJMP version of SAMTools (Section 5.4) "retain\[s\] the data in
//! a virtual address space and persist\[s\] it between process executions.
//! Each process operating on the data switches into the address space,
//! performs its operation on the data structure, and keeps its results in
//! the address space for the next process to use."
//!
//! [`RecStore`] is that data structure: a record table whose entries,
//! name/sequence/CIGAR blobs, and header all live in a [`VasHeap`] inside
//! the segment — ordinary virtual-address pointers, no serialization, no
//! swizzling. Every access goes through the simulated MMU and is charged
//! cycles, so operations measured over a `RecStore` reflect the memory
//! behaviour the paper measures.

use sjmp_mem::VirtAddr;
use sjmp_os::{OsResult, Pid, ProcMem};
use spacejmp_core::{SjError, SjResult, SpaceJmp, VasHeap};

use crate::ops::{LinearIndex, OpWork, INDEX_WINDOW};
use crate::record::{CigarOp, Flagstat, Record};

// Store header: count, capacity, entries_ptr (array of record pointers).
const H_COUNT: u64 = 0;
const H_CAP: u64 = 8;
const H_ENTRIES: u64 = 16;
const HEADER_SIZE: u64 = 24;

// Record layout (fixed part, 64 bytes):
// flag|mapq packed, tid, pos, qname_ptr, qname_len, blob_ptr (seq then
// qual then cigar u32s), seq_len, cigar_len.
const R_FLAGS: u64 = 0;
const R_TID: u64 = 8;
const R_POS: u64 = 16;
const R_QNAME: u64 = 24;
const R_QLEN: u64 = 32;
const R_BLOB: u64 = 40;
const R_SLEN: u64 = 48;
const R_CLEN: u64 = 56;
const RECORD_SIZE: u64 = 64;

/// A segment-resident record table.
///
/// # Examples
///
/// ```
/// use sjmp_mem::{KernelFlavor, MachineId, VirtAddr};
/// use sjmp_os::{Creds, Kernel, Mode};
/// use spacejmp_core::{AttachMode, SpaceJmp, VasHeap};
/// use sjmp_genome::{generate, RecStore, WorkloadConfig};
///
/// # fn main() -> Result<(), spacejmp_core::SjError> {
/// let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M2));
/// let pid = sj.kernel_mut().spawn("tool", Creds::new(1, 1))?;
/// sj.kernel_mut().activate(pid)?;
/// let vid = sj.vas_create(pid, "aln", Mode(0o660))?;
/// let sid = sj.seg_alloc(pid, "aln-seg", VirtAddr::new(0x1000_0000_0000),
///                        8 << 20, Mode(0o660))?;
/// sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite)?;
/// let vh = sj.vas_attach(pid, vid)?;
/// sj.vas_switch(pid, vh)?;
///
/// let heap = VasHeap::format(&mut sj, pid, sid)?;
/// let store = RecStore::create(&mut sj, pid, heap, 100)?;
/// let (_, records) = generate(&WorkloadConfig { records: 100, ..Default::default() });
/// for r in &records {
///     store.append(&mut sj, pid, r)?;
/// }
/// let (stats, _) = store.flagstat(&mut sj, pid)?;
/// assert_eq!(stats.total, 100);
/// # Ok(()) }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RecStore {
    heap: VasHeap,
    header: VirtAddr,
}

impl RecStore {
    /// Creates an empty store with room for `capacity` records, and
    /// registers it as the heap's root object.
    ///
    /// # Errors
    ///
    /// Heap exhaustion.
    pub fn create(sj: &mut SpaceJmp, pid: Pid, heap: VasHeap, capacity: u64) -> SjResult<RecStore> {
        let header = heap.calloc(sj, pid, HEADER_SIZE)?;
        let entries = heap.calloc(sj, pid, capacity.max(1) * 8)?;
        let mut m = sj.kernel_mut().proc_mem(pid)?;
        m.store_u64(header.add(H_CAP), capacity.max(1))?;
        m.store_u64(header.add(H_ENTRIES), entries.raw())?;
        heap.set_root(sj, pid, header)?;
        Ok(RecStore { heap, header })
    }

    /// Opens the store registered in `heap` (created by an earlier
    /// process).
    ///
    /// # Errors
    ///
    /// [`SjError::InvalidArgument`] if the heap has no root object.
    pub fn open(sj: &mut SpaceJmp, pid: Pid, heap: VasHeap) -> SjResult<RecStore> {
        let header = heap.root(sj, pid)?;
        if header == VirtAddr::NULL {
            return Err(SjError::InvalidArgument("heap holds no record store"));
        }
        Ok(RecStore { heap, header })
    }

    /// Number of stored records.
    ///
    /// # Errors
    ///
    /// Access errors if the segment is unmapped.
    pub fn count(&self, sj: &mut SpaceJmp, pid: Pid) -> SjResult<u64> {
        let mut m = sj.kernel_mut().proc_mem(pid)?;
        Ok(m.load_u64(self.header.add(H_COUNT))?)
    }

    /// The record count and the entry array's address, read in that
    /// order — the preamble of every whole-store pass.
    fn table(&self, m: &mut ProcMem<'_>) -> OsResult<(u64, VirtAddr)> {
        let count = m.load_u64(self.header.add(H_COUNT))?;
        Ok((count, self.entries_ptr(m)?))
    }

    fn entries_ptr(&self, m: &mut ProcMem<'_>) -> OsResult<VirtAddr> {
        Ok(VirtAddr::new(m.load_u64(self.header.add(H_ENTRIES))?))
    }

    /// Appends a record.
    ///
    /// # Errors
    ///
    /// [`SjError::InvalidArgument`] when full; heap exhaustion.
    pub fn append(&self, sj: &mut SpaceJmp, pid: Pid, r: &Record) -> SjResult<()> {
        let (count, cap) = {
            let mut m = sj.kernel_mut().proc_mem(pid)?;
            (
                m.load_u64(self.header.add(H_COUNT))?,
                m.load_u64(self.header.add(H_CAP))?,
            )
        };
        if count == cap {
            return Err(SjError::InvalidArgument("record store full"));
        }
        let rec = self.heap.malloc(sj, pid, RECORD_SIZE)?;
        let qname_ptr = self.heap.malloc(sj, pid, r.qname.len().max(1) as u64)?;
        let blob_len = r.seq.len() + r.qual.len() + r.cigar.len() * 4;
        let blob_ptr = self.heap.malloc(sj, pid, blob_len.max(1) as u64)?;
        let mut blob = Vec::with_capacity(blob_len);
        blob.extend_from_slice(&r.seq);
        blob.extend_from_slice(&r.qual);
        for &(n, op) in &r.cigar {
            blob.extend_from_slice(&((n << 4) | op.code()).to_le_bytes());
        }
        let mut m = sj.kernel_mut().proc_mem(pid)?;
        m.store_bytes(qname_ptr, r.qname.as_bytes())?;
        m.store_bytes(blob_ptr, &blob)?;
        // The fixed part's eight words, `R_FLAGS` to `R_CLEN`, in one run.
        m.store_words(
            rec.add(R_FLAGS),
            &[
                r.flag as u64 | ((r.mapq as u64) << 16),
                r.tid as i64 as u64,
                r.pos as i64 as u64,
                qname_ptr.raw(),
                r.qname.len() as u64,
                blob_ptr.raw(),
                r.seq.len() as u64,
                r.cigar.len() as u64,
            ],
        )?;
        let entries = self.entries_ptr(&mut m)?;
        m.store_u64(entries.add(count * 8), rec.raw())?;
        m.store_u64(self.header.add(H_COUNT), count + 1)?;
        Ok(())
    }

    /// Reads back record `i` as an owned [`Record`].
    ///
    /// # Errors
    ///
    /// Access errors / out-of-range indices surface as kernel errors.
    pub fn read_record(&self, sj: &mut SpaceJmp, pid: Pid, i: u64) -> SjResult<Record> {
        let mut m = sj.kernel_mut().proc_mem(pid)?;
        let entries = self.entries_ptr(&mut m)?;
        let rec = VirtAddr::new(m.load_u64(entries.add(i * 8))?);
        let packed = m.load_u64(rec.add(R_FLAGS))?;
        let tid = m.load_u64(rec.add(R_TID))? as i64 as i32;
        let pos = m.load_u64(rec.add(R_POS))? as i64 as i32;
        let qname_ptr = VirtAddr::new(m.load_u64(rec.add(R_QNAME))?);
        let qlen = m.load_u64(rec.add(R_QLEN))? as usize;
        let blob_ptr = VirtAddr::new(m.load_u64(rec.add(R_BLOB))?);
        let slen = m.load_u64(rec.add(R_SLEN))? as usize;
        let clen = m.load_u64(rec.add(R_CLEN))? as usize;
        let mut qname = vec![0u8; qlen];
        m.load_bytes(qname_ptr, &mut qname)?;
        let mut blob = vec![0u8; slen * 2 + clen * 4];
        m.load_bytes(blob_ptr, &mut blob)?;
        let mut cigar = Vec::with_capacity(clen);
        for c in 0..clen {
            let v = u32::from_le_bytes(
                blob[slen * 2 + c * 4..slen * 2 + c * 4 + 4]
                    .try_into()
                    .expect("4 bytes"),
            );
            cigar.push((
                v >> 4,
                CigarOp::from_code(v & 0xf).ok_or(SjError::InvalidArgument("bad cigar"))?,
            ));
        }
        Ok(Record {
            qname: String::from_utf8_lossy(&qname).into_owned(),
            flag: (packed & 0xffff) as u16,
            mapq: ((packed >> 16) & 0xff) as u8,
            tid,
            pos,
            seq: blob[..slen].to_vec(),
            qual: blob[slen..slen * 2].to_vec(),
            cigar,
        })
    }

    /// Flagstat over the stored records: one pointer chase plus one word
    /// read per record — no deserialization.
    ///
    /// # Errors
    ///
    /// Access errors.
    pub fn flagstat(&self, sj: &mut SpaceJmp, pid: Pid) -> SjResult<(Flagstat, OpWork)> {
        let mut m = sj.kernel_mut().proc_mem(pid)?;
        let (count, entries) = self.table(&mut m)?;
        let mut fs = Flagstat::default();
        for i in 0..count {
            let rec = VirtAddr::new(m.load_u64(entries.add(i * 8))?);
            let packed = m.load_u64(rec.add(R_FLAGS))?;
            fs.add((packed & 0xffff) as u16);
        }
        Ok((
            fs,
            OpWork {
                records: count,
                comparisons: 0,
            },
        ))
    }

    /// Sorts the record table by query name: keys are read through the
    /// MMU, compared host-side, and the *pointer array* is permuted in
    /// place — the records themselves never move.
    ///
    /// # Errors
    ///
    /// Access errors.
    pub fn qname_sort(&self, sj: &mut SpaceJmp, pid: Pid) -> SjResult<OpWork> {
        let mut m = sj.kernel_mut().proc_mem(pid)?;
        let (count, entries) = self.table(&mut m)?;
        // Every name in one buffer; each record keeps its name's offset
        // and length there.
        let mut names = Vec::new();
        let mut keyed: Vec<(usize, usize, u64)> = Vec::with_capacity(count as usize);
        for i in 0..count {
            let rec = VirtAddr::new(m.load_u64(entries.add(i * 8))?);
            let qptr = VirtAddr::new(m.load_u64(rec.add(R_QNAME))?);
            let qlen = m.load_u64(rec.add(R_QLEN))? as usize;
            let start = names.len();
            names.resize(start + qlen, 0);
            m.load_bytes(qptr, &mut names[start..])?;
            keyed.push((start, qlen, rec.raw()));
        }
        keyed.sort_by_key(|&(start, len, _)| &names[start..start + len]);
        let comparisons = nlogn(count);
        for (i, &(_, _, rec)) in keyed.iter().enumerate() {
            m.store_u64(entries.add(i as u64 * 8), rec)?;
        }
        Ok(OpWork {
            records: count,
            comparisons,
        })
    }

    /// Sorts the record table by (tid, pos), unmapped last.
    ///
    /// # Errors
    ///
    /// Access errors.
    pub fn coordinate_sort(&self, sj: &mut SpaceJmp, pid: Pid) -> SjResult<OpWork> {
        let mut m = sj.kernel_mut().proc_mem(pid)?;
        let (count, entries) = self.table(&mut m)?;
        let mut keyed: Vec<((i64, i64), u64)> = Vec::with_capacity(count as usize);
        for i in 0..count {
            let rec = VirtAddr::new(m.load_u64(entries.add(i * 8))?);
            let packed = m.load_u64(rec.add(R_FLAGS))?;
            let unmapped = packed & crate::record::flags::UNMAPPED as u64 != 0;
            let key = if unmapped {
                (i64::MAX, i64::MAX)
            } else {
                (
                    m.load_u64(rec.add(R_TID))? as i64,
                    m.load_u64(rec.add(R_POS))? as i64,
                )
            };
            keyed.push((key, rec.raw()));
        }
        keyed.sort_by_key(|&(key, _)| key);
        for (i, (_, rec)) in keyed.iter().enumerate() {
            m.store_u64(entries.add(i as u64 * 8), *rec)?;
        }
        Ok(OpWork {
            records: count,
            comparisons: nlogn(count),
        })
    }

    /// Builds a linear index over the (coordinate-sorted) store, keeping
    /// it in the address space for the next process (returned host-side
    /// too, for validation).
    ///
    /// # Errors
    ///
    /// Access errors; heap exhaustion for the in-segment copy.
    pub fn build_index(
        &self,
        sj: &mut SpaceJmp,
        pid: Pid,
        n_refs: usize,
    ) -> SjResult<(LinearIndex, OpWork)> {
        let mut m = sj.kernel_mut().proc_mem(pid)?;
        let (count, entries) = self.table(&mut m)?;
        let mut index = LinearIndex {
            refs: vec![Vec::new(); n_refs],
        };
        for i in 0..count {
            let rec = VirtAddr::new(m.load_u64(entries.add(i * 8))?);
            let packed = m.load_u64(rec.add(R_FLAGS))?;
            if packed & crate::record::flags::UNMAPPED as u64 != 0 {
                continue;
            }
            let tid = m.load_u64(rec.add(R_TID))? as i64;
            let pos = m.load_u64(rec.add(R_POS))? as i64 as i32;
            if tid < 0 || tid as usize >= n_refs {
                continue;
            }
            let window = (pos / INDEX_WINDOW) as u32;
            let windows = &mut index.refs[tid as usize];
            if windows.last().map(|&(w, _)| w) != Some(window) {
                windows.push((window, i));
            }
        }
        // Persist the index bytes inside the address space.
        let bytes = index.to_bytes();
        let blob = self.heap.malloc(sj, pid, bytes.len().max(1) as u64)?;
        sj.kernel_mut().store_bytes(pid, blob, &bytes)?;
        Ok((
            index,
            OpWork {
                records: count,
                comparisons: 0,
            },
        ))
    }
}

/// Comparison-count estimate for an `n`-element merge sort.
fn nlogn(n: u64) -> u64 {
    if n < 2 {
        return 0;
    }
    n * (64 - n.leading_zeros() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, WorkloadConfig};
    use sjmp_mem::{KernelFlavor, MachineId};
    use sjmp_os::{Creds, Kernel, Mode};
    use spacejmp_core::AttachMode;

    fn setup(records: usize) -> (SpaceJmp, Pid, RecStore, Vec<Record>) {
        let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M2));
        let pid = sj.kernel_mut().spawn("genome", Creds::new(1, 1)).unwrap();
        sj.kernel_mut().activate(pid).unwrap();
        let vid = sj.vas_create(pid, "genome-vas", Mode(0o660)).unwrap();
        let sid = sj
            .seg_alloc(
                pid,
                "genome-seg",
                VirtAddr::new(0x1000_0000_0000),
                32 << 20,
                Mode(0o660),
            )
            .unwrap();
        sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite).unwrap();
        let vh = sj.vas_attach(pid, vid).unwrap();
        sj.vas_switch(pid, vh).unwrap();
        let heap = VasHeap::format(&mut sj, pid, sid).unwrap();
        let store = RecStore::create(&mut sj, pid, heap, records as u64).unwrap();
        let (_, recs) = generate(&WorkloadConfig {
            records,
            ..WorkloadConfig::default()
        });
        for r in &recs {
            store.append(&mut sj, pid, r).unwrap();
        }
        (sj, pid, store, recs)
    }

    #[test]
    fn append_and_read_round_trip() {
        let (mut sj, pid, store, recs) = setup(50);
        assert_eq!(store.count(&mut sj, pid).unwrap(), 50);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(
                &store.read_record(&mut sj, pid, i as u64).unwrap(),
                r,
                "record {i}"
            );
        }
    }

    #[test]
    fn flagstat_matches_host_implementation() {
        let (mut sj, pid, store, recs) = setup(300);
        let (fs_seg, _) = store.flagstat(&mut sj, pid).unwrap();
        let (fs_host, _) = crate::ops::flagstat(&recs);
        assert_eq!(fs_seg, fs_host);
    }

    #[test]
    fn qname_sort_matches_host() {
        let (mut sj, pid, store, mut recs) = setup(200);
        store.qname_sort(&mut sj, pid).unwrap();
        crate::ops::qname_sort(&mut recs);
        for (i, r) in recs.iter().enumerate() {
            let got = store.read_record(&mut sj, pid, i as u64).unwrap();
            assert_eq!(got.qname, r.qname, "position {i}");
        }
    }

    #[test]
    fn coordinate_sort_and_index_match_host() {
        let (mut sj, pid, store, mut recs) = setup(400);
        store.coordinate_sort(&mut sj, pid).unwrap();
        crate::ops::coordinate_sort(&mut recs);
        let (seg_index, _) = store.build_index(&mut sj, pid, 4).unwrap();
        let (host_index, _) = crate::ops::build_index(4, &recs);
        assert_eq!(seg_index, host_index);
    }

    #[test]
    fn store_full_rejected() {
        let (mut sj, pid, store, recs) = setup(10);
        assert!(matches!(
            store.append(&mut sj, pid, &recs[0]),
            Err(SjError::InvalidArgument("record store full"))
        ));
    }

    #[test]
    fn persists_across_processes_without_serialization() {
        let (mut sj, pid, store, recs) = setup(100);
        store.coordinate_sort(&mut sj, pid).unwrap();
        sj.vas_switch_home(pid).unwrap();
        sj.kernel_mut().exit(pid).unwrap();

        // Next "tool" in the workflow: a brand-new process.
        let p2 = sj
            .kernel_mut()
            .spawn("next-tool", Creds::new(1, 1))
            .unwrap();
        sj.kernel_mut().activate(p2).unwrap();
        let vid = sj.vas_find("genome-vas").unwrap();
        let vh = sj.vas_attach(p2, vid).unwrap();
        sj.vas_switch(p2, vh).unwrap();
        let sid = sj.seg_find("genome-seg").unwrap();
        let heap = VasHeap::open(&mut sj, p2, sid).unwrap();
        let store2 = RecStore::open(&mut sj, p2, heap).unwrap();
        assert_eq!(store2.count(&mut sj, p2).unwrap(), 100);
        // Data arrives sorted, exactly as the previous process left it.
        let mut sorted = recs;
        crate::ops::coordinate_sort(&mut sorted);
        let first = store2.read_record(&mut sj, p2, 0).unwrap();
        assert_eq!(first.coord_key(), sorted[0].coord_key());
        let _ = store;
    }
}
