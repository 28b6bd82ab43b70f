//! Set-associative, ASID-tagged translation lookaside buffer.
//!
//! Models the x86-64 behaviour the paper relies on (Section 4.4):
//!
//! * Without tagging, every CR3 write flushes all non-global entries.
//! * With tagging (PCID-style 12-bit identifiers), entries survive address
//!   space switches; only entries whose tag matches the current ASID hit.
//! * Tag value **zero is reserved** to always trigger a flush on switch —
//!   exactly the convention the paper's implementations use ("Our current
//!   implementations reserve the tag value zero to always trigger a TLB
//!   flush on a context switch").
//!
//! The TLB is one unified set-associative array (like a real STLB) whose
//! entries carry the page size they cache: a 2 MiB or 1 GiB superpage
//! occupies **one** entry keyed by its size-aligned page number, which is
//! what gives superpages their TLB-reach advantage ([`Tlb::reach_bytes`]).
//! Lookups probe each supported size's key in the set, skipping sizes
//! with no resident entry; inserts and invalidations match on
//! `(vpn, size)`. Capacity and associativity come from
//! [`crate::cost::MachineProfile`]; the set count must be a power of two,
//! so a page's set is its page number masked, not divided.
//!
//! Three host-side shortcuts leave the model untouched. Each slot's probe
//! key (valid bit, size, global bit, ASID and size-aligned page number)
//! is packed into one `u64` tag in an array of its own, so a probe
//! compares one word per way (an 8-way set's tags take 64 bytes, a
//! cache line's worth) and reads the entry, which holds only what a hit
//! returns and its LRU stamp, once it has found the slot. A bitmap of
//! valid slots lets the whole-TLB flushes visit only valid entries, and
//! a last-hit memo answers a repeat lookup of the same `(asid, vpn)`
//! without a probe. None of them changes which entry a lookup of a
//! canonical address finds, which entry an insert evicts, or any
//! counter.

use crate::addr::{PageSize, PhysAddr, Vpn, PAGE_SHIFT, VA_BITS};
use crate::paging::PteFlags;

/// Address-space identifier (12-bit, like x86 PCID).
///
/// [`Asid::UNTAGGED`] (zero) is reserved: address spaces with this tag are
/// flushed on every switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Asid(pub u16);

impl Asid {
    /// The reserved tag that always flushes on switch.
    pub const UNTAGGED: Asid = Asid(0);

    /// Highest assignable tag (12 bits).
    pub const MAX: u16 = 0xfff;

    /// Whether this ASID participates in tagging.
    pub fn is_tagged(self) -> bool {
        self.0 != 0
    }
}

/// What a hit returns, and the stamp that picks the LRU victim. The
/// probe key lives in the slot's tag; the size is kept here as well so
/// that a hit reads one line, not the entry's and the tag's.
#[derive(Debug, Clone, Copy, Default)]
struct TlbEntry {
    /// Physical base of the mapped page (size-aligned).
    frame_base: PhysAddr,
    flags: PteFlags,
    /// Page size this entry caches.
    size: PageSize,
    stamp: u64,
}

/// Page sizes in probe order (smallest first — the common case).
const PROBE_SIZES: [PageSize; 3] = [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G];

/// Index of `size` in [`PROBE_SIZES`] (and in `Tlb::resident`).
#[inline]
fn size_slot(size: PageSize) -> usize {
    match size {
        PageSize::Size4K => 0,
        PageSize::Size2M => 1,
        PageSize::Size1G => 2,
    }
}

/// The size-aligned lookup key for `vpn` at `size`.
#[inline]
fn size_key(vpn: Vpn, size: PageSize) -> Vpn {
    Vpn(vpn.0 & !(size.base_pages() - 1))
}

// A slot's tag, from the low bit up: valid (1 bit), size slot (2),
// global (1), ASID (16), unused (8), size-aligned VPN (36). An empty
// slot's tag is zero; every valid tag has its low bit set.
//
// The 36 VPN bits are address bits 12..48, the bits the page walk
// indexes its tables by. They suffice: a canonical address's bits
// 48..64 copy its bit 47, so two canonical page numbers, in either half
// of the address space, differ within them. A non-canonical page number
// shares its tag with the canonical one the walk translates it as.
const TAG_VALID: u64 = 1;
const SIZE_SHIFT: u32 = 1;
const TAG_GLOBAL: u64 = 1 << 3;
const ASID_SHIFT: u32 = 4;
const ASID_BITS: u64 = 0xffff << ASID_SHIFT;
const VPN_SHIFT: u32 = 64 - (VA_BITS - PAGE_SHIFT);

/// The tag of a valid, non-global slot caching `key` (aligned to the
/// size at `size_idx` in [`PROBE_SIZES`]) under `asid`.
#[inline]
fn tag(asid: Asid, key: Vpn, size_idx: usize) -> u64 {
    key.0 << VPN_SHIFT
        | u64::from(asid.0) << ASID_SHIFT
        | (size_idx as u64) << SIZE_SHIFT
        | TAG_VALID
}

/// The size slot (index in [`PROBE_SIZES`]) of a valid tag.
#[inline]
fn tag_slot(t: u64) -> usize {
    (t >> SIZE_SHIFT & 3) as usize
}

sjmp_trace::counter_group! {
    /// Hit/miss/flush counters.
    pub struct TlbStats {
        /// Successful lookups.
        hits => "tlb.hits",
        /// Failed lookups.
        misses => "tlb.misses",
        /// Full (non-global) flushes.
        flushes => "tlb.flushes",
        /// Per-ASID flushes.
        asid_flushes => "tlb.asid_flushes",
        /// Entries evicted by capacity/conflict.
        evictions => "tlb.evictions",
        /// Entries inserted.
        insertions => "tlb.insertions",
    }
}

/// The TLB proper.
///
/// # Examples
///
/// ```
/// use sjmp_mem::tlb::{Asid, Tlb};
/// use sjmp_mem::addr::{PageSize, PhysAddr, Vpn};
/// use sjmp_mem::paging::PteFlags;
///
/// let mut tlb = Tlb::new(64, 4);
/// tlb.insert(Asid(1), Vpn(7), PhysAddr::new(0x3000), PteFlags::PRESENT, false,
///            PageSize::Size4K);
/// assert!(tlb.lookup(Asid(1), Vpn(7)).is_some());
/// assert!(tlb.lookup(Asid(2), Vpn(7)).is_none(), "tag mismatch");
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    /// One tag per slot, laid out like `entries`.
    tags: Vec<u64>,
    entries: Vec<TlbEntry>,
    /// Set count minus one; the set of a key is `key & set_mask`.
    set_mask: usize,
    ways: usize,
    /// Valid entries per page size, indexed like [`PROBE_SIZES`]. A
    /// lookup skips every size whose count is zero.
    resident: [usize; 3],
    /// One bit per slot, set exactly when the slot's entry is valid.
    valid_bits: Vec<u64>,
    /// The last lookup that hit: its key and the slot it found. Only
    /// lookups run between two inserts or flushes, and they change
    /// nothing but LRU stamps, so a repeat of that key would probe to
    /// the same slot. Every insert and flush clears it.
    last_hit: Option<(Asid, Vpn, usize)>,
    tick: u64,
    stats: TlbStats,
}

impl Tlb {
    /// Creates a TLB with `entries` total entries and `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of `ways`, or if
    /// the resulting set count is not a power of two.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(
            ways > 0 && entries > 0 && entries.is_multiple_of(ways),
            "entries must be a multiple of ways"
        );
        let sets = entries / ways;
        assert!(
            sets.is_power_of_two(),
            "the set count (entries / ways) must be a power of two"
        );
        Tlb {
            tags: vec![0; entries],
            entries: vec![TlbEntry::default(); entries],
            set_mask: sets - 1,
            ways,
            resident: [0; 3],
            valid_bits: vec![0; entries.div_ceil(64)],
            last_hit: None,
            tick: 0,
            stats: TlbStats::default(),
        }
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Zeroes the counters (keeps cached entries).
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    /// Valid entries caching pages of `size`.
    pub fn resident(&self, size: PageSize) -> usize {
        self.resident[size_slot(size)]
    }

    /// Invalidates the (valid) entry in `slot`.
    #[inline]
    fn invalidate(&mut self, slot: usize) {
        self.resident[tag_slot(self.tags[slot])] -= 1;
        self.tags[slot] = 0;
        self.valid_bits[slot / 64] &= !(1 << (slot % 64));
    }

    /// Invalidates every valid entry whose tag `doomed` selects,
    /// visiting valid slots only.
    fn invalidate_where(&mut self, doomed: impl Fn(u64) -> bool) {
        self.last_hit = None;
        for w in 0..self.valid_bits.len() {
            let mut bits = self.valid_bits[w];
            while bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if doomed(self.tags[slot]) {
                    self.invalidate(slot);
                }
            }
        }
    }

    #[inline]
    fn set_range(&self, vpn: Vpn) -> std::ops::Range<usize> {
        let set = (vpn.0 as usize) & self.set_mask;
        let start = set * self.ways;
        start..start + self.ways
    }

    /// The slot caching `vpn`'s translation under `asid`: the last-hit
    /// memo if it names this key, else a probe of the key of every page
    /// size that has a resident entry (smallest first). Global entries
    /// match regardless of tag. A found slot becomes the last hit;
    /// nothing else changes. Only the memo check is inlined into
    /// callers; the probe is [`Self::probe`].
    #[inline]
    fn find(&mut self, asid: Asid, vpn: Vpn) -> Option<usize> {
        match self.last_hit {
            Some((a, v, slot)) if a == asid && v == vpn => Some(slot),
            _ => self.probe(asid, vpn),
        }
    }

    /// The set probe of [`Self::find`]: the first way whose tag is this
    /// key's, under `asid` or global under any ASID.
    #[inline(never)]
    fn probe(&mut self, asid: Asid, vpn: Vpn) -> Option<usize> {
        for (size_idx, size) in PROBE_SIZES.into_iter().enumerate() {
            if self.resident[size_idx] == 0 {
                continue;
            }
            let key = size_key(vpn, size);
            let mine = tag(asid, key, size_idx);
            let global = (mine & !ASID_BITS) | TAG_GLOBAL;
            let range = self.set_range(key);
            let start = range.start;
            let found = self.tags[range]
                .iter()
                .position(|&t| t == mine || t & !ASID_BITS == global);
            if let Some(way) = found {
                self.last_hit = Some((asid, vpn, start + way));
                return Some(start + way);
            }
        }
        None
    }

    /// Looks up a translation for `vpn` under `asid`. Returns the
    /// physical page base, flags, and the cached page size on a hit.
    ///
    /// Updates LRU and counters (one hit or miss per call, however many
    /// sizes were probed).
    #[inline]
    pub fn lookup(&mut self, asid: Asid, vpn: Vpn) -> Option<(PhysAddr, PteFlags, PageSize)> {
        self.tick += 1;
        let Some(slot) = self.find(asid, vpn) else {
            self.stats.misses += 1;
            return None;
        };
        let e = &mut self.entries[slot];
        e.stamp = self.tick;
        self.stats.hits += 1;
        Some((e.frame_base, e.flags, e.size))
    }

    /// Accounts for `k` lookups of `vpn` under `asid` that all hit, with
    /// at most one probe: `k` ticks, `k` hits, and the entry stamped
    /// with the last tick, exactly as `k` calls of [`Tlb::lookup`] would
    /// leave them. Returns `None`, changing nothing, when no entry
    /// caches the key.
    pub fn repeat_hit(&mut self, asid: Asid, vpn: Vpn, k: u64) -> Option<()> {
        let slot = self.find(asid, vpn)?;
        if k > 0 {
            self.tick += k;
            self.entries[slot].stamp = self.tick;
            self.stats.hits += k;
        }
        Some(())
    }

    /// Inserts a translation for the page of `size` containing `vpn`
    /// (the key and `frame_base` are aligned internally), evicting LRU
    /// on conflict. One entry covers the whole superpage.
    pub fn insert(
        &mut self,
        asid: Asid,
        vpn: Vpn,
        frame_base: PhysAddr,
        flags: PteFlags,
        global: bool,
        size: PageSize,
    ) {
        self.tick += 1;
        self.last_hit = None;
        let tick = self.tick;
        let size_idx = size_slot(size);
        let key = size_key(vpn, size);
        let mine = tag(asid, key, size_idx);
        let new_tag = if global { mine | TAG_GLOBAL } else { mine };
        let frame_base = PhysAddr::new(frame_base.raw() & !(size.bytes() - 1));
        let entry = TlbEntry {
            frame_base,
            flags,
            size,
            stamp: tick,
        };
        let range = self.set_range(key);
        let start = range.start;
        let tags = &mut self.tags[range.clone()];
        // Overwrite an existing entry for the same (vpn, size, asid),
        // global or not, first. Size participates in the match: a 4 KiB
        // page and a superpage can share a key yet must coexist.
        if let Some(way) = tags.iter().position(|&t| t & !TAG_GLOBAL == mine) {
            tags[way] = new_tag;
            self.entries[start + way] = entry;
            return;
        }
        let way = if let Some(free) = tags.iter().position(|&t| t == 0) {
            let slot = start + free;
            self.valid_bits[slot / 64] |= 1 << (slot % 64);
            free
        } else {
            // The LRU victim's slot stays valid, so its bit stays set.
            self.stats.evictions += 1;
            let (lru, e) = self.entries[range]
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .expect("ways > 0");
            self.resident[size_slot(e.size)] -= 1;
            lru
        };
        self.resident[size_idx] += 1;
        tags[way] = new_tag;
        self.entries[start + way] = entry;
        self.stats.insertions += 1;
    }

    /// Flushes all non-global entries (untagged CR3 write).
    pub fn flush_nonglobal(&mut self) {
        self.stats.flushes += 1;
        self.invalidate_where(|t| t & TAG_GLOBAL == 0);
    }

    /// Flushes entries belonging to one ASID (INVPCID-style).
    pub fn flush_asid(&mut self, asid: Asid) {
        self.stats.asid_flushes += 1;
        let mine = u64::from(asid.0) << ASID_SHIFT;
        self.invalidate_where(|t| t & (ASID_BITS | TAG_GLOBAL) == mine);
    }

    /// Invalidates the page containing `vpn` across all ASIDs (INVLPG
    /// semantics for shared mappings), at every page size: a superpage
    /// entry covering the 4 KiB page is dropped too.
    pub fn flush_page(&mut self, vpn: Vpn) {
        self.last_hit = None;
        for (size_idx, size) in PROBE_SIZES.into_iter().enumerate() {
            let key = size_key(vpn, size);
            let page = tag(Asid(0), key, size_idx);
            for slot in self.set_range(key) {
                if self.tags[slot] & !(ASID_BITS | TAG_GLOBAL) == page {
                    self.invalidate(slot);
                }
            }
        }
    }

    /// Number of currently valid entries.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != 0).count()
    }

    /// Bytes of address space the currently valid entries translate —
    /// the machine's effective TLB reach. One 2 MiB entry contributes
    /// 512x what a 4 KiB entry does, which is the whole point of
    /// superpages.
    pub fn reach_bytes(&self) -> u64 {
        self.tags
            .iter()
            .filter(|&&t| t != 0)
            .map(|&t| PROBE_SIZES[tag_slot(t)].bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::VirtAddr;

    fn flags() -> PteFlags {
        PteFlags::PRESENT | PteFlags::WRITABLE
    }

    #[test]
    fn hit_and_miss_counting() {
        let mut tlb = Tlb::new(8, 2);
        assert!(tlb.lookup(Asid(1), Vpn(1)).is_none());
        tlb.insert(
            Asid(1),
            Vpn(1),
            PhysAddr::new(0x1000),
            flags(),
            false,
            PageSize::Size4K,
        );
        assert_eq!(
            tlb.lookup(Asid(1), Vpn(1)).unwrap().0,
            PhysAddr::new(0x1000)
        );
        let s = tlb.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
    }

    #[test]
    fn asid_isolation_and_global_entries() {
        let mut tlb = Tlb::new(8, 2);
        tlb.insert(
            Asid(1),
            Vpn(1),
            PhysAddr::new(0x1000),
            flags(),
            false,
            PageSize::Size4K,
        );
        tlb.insert(
            Asid(2),
            Vpn(2),
            PhysAddr::new(0x2000),
            flags(),
            true,
            PageSize::Size4K,
        );
        assert!(
            tlb.lookup(Asid(2), Vpn(1)).is_none(),
            "private entry, other tag"
        );
        assert!(
            tlb.lookup(Asid(1), Vpn(2)).is_some(),
            "global entry hits any tag"
        );
    }

    #[test]
    fn untagged_flush_spares_globals() {
        let mut tlb = Tlb::new(8, 2);
        tlb.insert(
            Asid(1),
            Vpn(1),
            PhysAddr::new(0x1000),
            flags(),
            false,
            PageSize::Size4K,
        );
        tlb.insert(
            Asid(1),
            Vpn(2),
            PhysAddr::new(0x2000),
            flags(),
            true,
            PageSize::Size4K,
        );
        tlb.flush_nonglobal();
        assert!(tlb.lookup(Asid(1), Vpn(1)).is_none());
        assert!(tlb.lookup(Asid(1), Vpn(2)).is_some());
        assert_eq!(tlb.stats().flushes, 1);
    }

    #[test]
    fn asid_flush_only_hits_one_tag() {
        let mut tlb = Tlb::new(8, 2);
        tlb.insert(
            Asid(1),
            Vpn(1),
            PhysAddr::new(0x1000),
            flags(),
            false,
            PageSize::Size4K,
        );
        tlb.insert(
            Asid(2),
            Vpn(9),
            PhysAddr::new(0x2000),
            flags(),
            false,
            PageSize::Size4K,
        );
        tlb.flush_asid(Asid(1));
        assert!(tlb.lookup(Asid(1), Vpn(1)).is_none());
        assert!(tlb.lookup(Asid(2), Vpn(9)).is_some());
    }

    #[test]
    fn page_flush_hits_all_asids() {
        let mut tlb = Tlb::new(8, 2);
        tlb.insert(
            Asid(1),
            Vpn(1),
            PhysAddr::new(0x1000),
            flags(),
            false,
            PageSize::Size4K,
        );
        tlb.insert(
            Asid(2),
            Vpn(1),
            PhysAddr::new(0x1000),
            flags(),
            false,
            PageSize::Size4K,
        );
        tlb.flush_page(Vpn(1));
        assert!(tlb.lookup(Asid(1), Vpn(1)).is_none());
        assert!(tlb.lookup(Asid(2), Vpn(1)).is_none());
    }

    #[test]
    fn lru_eviction_within_set() {
        // 1 set, 2 ways: third insert evicts the least recently used.
        let mut tlb = Tlb::new(2, 2);
        tlb.insert(
            Asid(1),
            Vpn(10),
            PhysAddr::new(0x1000),
            flags(),
            false,
            PageSize::Size4K,
        );
        tlb.insert(
            Asid(1),
            Vpn(20),
            PhysAddr::new(0x2000),
            flags(),
            false,
            PageSize::Size4K,
        );
        tlb.lookup(Asid(1), Vpn(10)); // make 20 the LRU
        tlb.insert(
            Asid(1),
            Vpn(30),
            PhysAddr::new(0x3000),
            flags(),
            false,
            PageSize::Size4K,
        );
        assert!(tlb.lookup(Asid(1), Vpn(10)).is_some());
        assert!(tlb.lookup(Asid(1), Vpn(20)).is_none(), "LRU was evicted");
        assert!(tlb.lookup(Asid(1), Vpn(30)).is_some());
        assert_eq!(tlb.stats().evictions, 1);
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut tlb = Tlb::new(4, 4);
        tlb.insert(
            Asid(1),
            Vpn(1),
            PhysAddr::new(0x1000),
            flags(),
            false,
            PageSize::Size4K,
        );
        tlb.insert(
            Asid(1),
            Vpn(1),
            PhysAddr::new(0x5000),
            flags(),
            false,
            PageSize::Size4K,
        );
        assert_eq!(tlb.occupancy(), 1);
        assert_eq!(
            tlb.lookup(Asid(1), Vpn(1)).unwrap().0,
            PhysAddr::new(0x5000)
        );
    }

    #[test]
    fn capacity_behavior_random_working_set() {
        // A working set larger than the TLB must produce misses; smaller
        // must eventually stop missing.
        let mut tlb = Tlb::new(64, 4);
        for round in 0..4 {
            for p in 0..32u64 {
                if tlb.lookup(Asid(1), Vpn(p)).is_none() {
                    tlb.insert(
                        Asid(1),
                        Vpn(p),
                        PhysAddr::new(p << PAGE_SHIFT),
                        flags(),
                        false,
                        PageSize::Size4K,
                    );
                }
                let _ = round;
            }
        }
        let warm = tlb.stats();
        assert!(
            warm.hits >= 32 * 3,
            "small working set should hit after warmup"
        );
    }

    #[test]
    fn superpage_entry_covers_whole_page_and_reports_reach() {
        let mut tlb = Tlb::new(8, 2);
        // Insert a 2 MiB entry via an interior base page; the key and
        // frame base are aligned down.
        tlb.insert(
            Asid(1),
            Vpn(512 + 7),
            PhysAddr::new(0x40_0000 + 0x7000),
            flags(),
            false,
            PageSize::Size2M,
        );
        // Any base page inside the superpage hits the one entry.
        let (base, _, size) = tlb.lookup(Asid(1), Vpn(512)).unwrap();
        assert_eq!(base, PhysAddr::new(0x40_0000));
        assert_eq!(size, PageSize::Size2M);
        let (base2, _, _) = tlb.lookup(Asid(1), Vpn(1023)).unwrap();
        assert_eq!(base2, PhysAddr::new(0x40_0000));
        assert!(tlb.lookup(Asid(1), Vpn(1024)).is_none(), "past the bound");
        assert_eq!(tlb.occupancy(), 1, "one entry, 512 pages of reach");
        assert_eq!(tlb.reach_bytes(), 2 * 1024 * 1024);
    }

    #[test]
    fn mixed_sizes_coexist_on_one_key() {
        let mut tlb = Tlb::new(8, 4);
        // Vpn(0) is both the 4 KiB page 0 and the key of the first
        // 2 MiB superpage; the two entries must not overwrite each other.
        tlb.insert(
            Asid(1),
            Vpn(0),
            PhysAddr::new(0x1000),
            flags(),
            false,
            PageSize::Size4K,
        );
        tlb.insert(
            Asid(1),
            Vpn(0),
            PhysAddr::new(0x20_0000),
            flags(),
            false,
            PageSize::Size2M,
        );
        assert_eq!(tlb.occupancy(), 2);
        // Smallest size wins the probe for page 0 itself...
        let (base, _, size) = tlb.lookup(Asid(1), Vpn(0)).unwrap();
        assert_eq!((base, size), (PhysAddr::new(0x1000), PageSize::Size4K));
        // ...while interior pages only match the superpage.
        let (base2, _, size2) = tlb.lookup(Asid(1), Vpn(9)).unwrap();
        assert_eq!((base2, size2), (PhysAddr::new(0x20_0000), PageSize::Size2M));
        assert_eq!(tlb.reach_bytes(), 4096 + 2 * 1024 * 1024);
    }

    #[test]
    fn flush_page_drops_covering_superpage() {
        let mut tlb = Tlb::new(8, 2);
        tlb.insert(
            Asid(1),
            Vpn(512),
            PhysAddr::new(0x40_0000),
            flags(),
            false,
            PageSize::Size2M,
        );
        // Invalidate via an interior 4 KiB page.
        tlb.flush_page(Vpn(700));
        assert!(tlb.lookup(Asid(1), Vpn(600)).is_none(), "superpage gone");
        assert_eq!(tlb.occupancy(), 0);
    }

    #[test]
    fn one_gib_entry_reach_and_bounds() {
        let mut tlb = Tlb::new(8, 2);
        let gib_pages = PageSize::Size1G.base_pages();
        tlb.insert(
            Asid(1),
            Vpn(gib_pages + 3),
            PhysAddr::new((1 << 30) + 0x3000),
            flags(),
            false,
            PageSize::Size1G,
        );
        let (base, _, size) = tlb.lookup(Asid(1), Vpn(2 * gib_pages - 1)).unwrap();
        assert_eq!(base, PhysAddr::new(1 << 30));
        assert_eq!(size, PageSize::Size1G);
        assert!(tlb.lookup(Asid(1), Vpn(2 * gib_pages)).is_none());
        assert!(tlb.lookup(Asid(1), Vpn(gib_pages - 1)).is_none());
        assert_eq!(tlb.reach_bytes(), 1 << 30);
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn bad_geometry_rejected() {
        let _ = Tlb::new(10, 4);
    }

    #[test]
    #[should_panic(expected = "must be a power of two")]
    fn non_power_of_two_set_count_rejected() {
        // 24 entries, 4 ways: six sets, which a mask cannot index.
        let _ = Tlb::new(24, 4);
    }

    #[test]
    fn asid_constants() {
        assert!(!Asid::UNTAGGED.is_tagged());
        assert!(Asid(5).is_tagged());
        assert_eq!(Asid::MAX, 0xfff);
    }

    #[test]
    fn tags_never_alias() {
        // One 2-way set, so every key below competes for the same ways.
        let insert = |tlb: &mut Tlb, asid: u16, vpn: Vpn, base: u64, global: bool, size| {
            tlb.insert(Asid(asid), vpn, PhysAddr::new(base), flags(), global, size);
        };
        let base_of = |tlb: &mut Tlb, asid: u16, vpn: Vpn| tlb.lookup(Asid(asid), vpn).map(|h| h.0);

        // ASIDs that differ only above bit 11.
        let mut tlb = Tlb::new(2, 2);
        insert(&mut tlb, 0x1001, Vpn(5), 0x1000, false, PageSize::Size4K);
        assert_eq!(base_of(&mut tlb, 0x0001, Vpn(5)), None);
        insert(&mut tlb, 0x0001, Vpn(5), 0x2000, false, PageSize::Size4K);
        assert_eq!(tlb.occupancy(), 2, "two ASIDs, two entries");
        assert_eq!(
            base_of(&mut tlb, 0x1001, Vpn(5)),
            Some(PhysAddr::new(0x1000))
        );
        tlb.flush_asid(Asid(0x0001));
        assert_eq!(
            base_of(&mut tlb, 0x1001, Vpn(5)),
            Some(PhysAddr::new(0x1000))
        );
        assert_eq!(base_of(&mut tlb, 0x0001, Vpn(5)), None);

        // A global entry and a private entry at the same VPN.
        let mut tlb = Tlb::new(2, 2);
        insert(&mut tlb, 1, Vpn(5), 0x1000, true, PageSize::Size4K);
        insert(&mut tlb, 2, Vpn(5), 0x2000, false, PageSize::Size4K);
        assert_eq!(tlb.occupancy(), 2, "the private entry is not an overwrite");
        // The first matching way wins: the global one, under any ASID.
        assert_eq!(base_of(&mut tlb, 2, Vpn(5)), Some(PhysAddr::new(0x1000)));
        assert_eq!(base_of(&mut tlb, 3, Vpn(5)), Some(PhysAddr::new(0x1000)));
        tlb.flush_nonglobal();
        assert_eq!(tlb.occupancy(), 1, "only the private entry goes");
        // Re-inserting under the global entry's own ASID overwrites it.
        insert(&mut tlb, 1, Vpn(5), 0x3000, false, PageSize::Size4K);
        assert_eq!(tlb.occupancy(), 1);
        assert_eq!(base_of(&mut tlb, 2, Vpn(5)), None, "no longer global");

        // An upper-half VA and a lower-half VA with the same low bits.
        let upper = VirtAddr::new(0xffff_8000_0000_0000).vpn();
        let lower = VirtAddr::new(0x0000_0000_0000_0000).vpn();
        let low = (1 << 35) - 1;
        assert_eq!(upper.0 & low, lower.0 & low);
        let mut tlb = Tlb::new(2, 2);
        insert(&mut tlb, 1, upper, 0x1000, false, PageSize::Size4K);
        assert_eq!(base_of(&mut tlb, 1, lower), None);
        insert(&mut tlb, 1, lower, 0x2000, false, PageSize::Size4K);
        assert_eq!(base_of(&mut tlb, 1, upper), Some(PhysAddr::new(0x1000)));
        let top = VirtAddr::new(u64::MAX).vpn();
        let below = VirtAddr::new(0x7fff_ffff_ffff).vpn();
        insert(&mut tlb, 1, top, 0x3000, false, PageSize::Size4K);
        assert_eq!(base_of(&mut tlb, 1, below), None);
        assert_eq!(base_of(&mut tlb, 1, top), Some(PhysAddr::new(0x3000)));

        // A 4 KiB entry and a 2 MiB entry that share a key.
        let mut tlb = Tlb::new(2, 2);
        insert(&mut tlb, 1, Vpn(512), 0x1000, false, PageSize::Size4K);
        insert(&mut tlb, 1, Vpn(512), 0x20_0000, false, PageSize::Size2M);
        assert_eq!(tlb.occupancy(), 2);
        assert_eq!(base_of(&mut tlb, 1, Vpn(512)), Some(PhysAddr::new(0x1000)));
        assert_eq!(
            base_of(&mut tlb, 1, Vpn(513)),
            Some(PhysAddr::new(0x20_0000))
        );
        assert_eq!(tlb.reach_bytes(), 4096 + (2 << 20));
    }
}
