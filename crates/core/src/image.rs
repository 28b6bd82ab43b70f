//! On-disk image formats for durable VASes.
//!
//! Two self-describing little-endian formats, both deliberately free of
//! in-memory pointers so an image decoded on a freshly booted machine
//! reconstructs byte-identical state:
//!
//! * **Catalog** (`SJMPCAT1`) — the snapshot disk's single payload: a
//!   name → bytes map holding one encoded [`VasImage`] per saved VAS.
//!   Entries keep insertion order and `vas_save` replaces in place, so
//!   repeated saves produce deterministic bytes (no hash-order leaks).
//! * **VAS image** (`SJMPVAS1`) — one VAS: its permission mode plus
//!   every attached segment's geometry, flags, and a *sparse* page
//!   list. Zero pages are elided, which is what makes the snapshot a
//!   copy-on-write-friendly image rather than a raw core dump: a
//!   mostly-empty 1 GiB segment costs a few blocks, not a gigabyte.
//!
//! Integrity is the block layer's job: the snapshot store checksums the
//! whole payload into its journal record and superblock, so decoding
//! here only validates structure (magic, lengths) and reports corruption
//! as `None` rather than panicking. Counts in the input are untrusted:
//! the decoders never size an allocation from one, so a huge count
//! runs out of input and fails instead of exhausting memory.

use sjmp_mem::{PageSize, PAGE_SIZE};
use sjmp_os::Backing;

/// Magic prefix of an encoded [`Catalog`].
pub const CATALOG_MAGIC: &[u8; 8] = b"SJMPCAT1";
/// Magic prefix of an encoded [`VasImage`].
pub const VAS_MAGIC: &[u8; 8] = b"SJMPVAS1";

/// The snapshot disk's payload: an ordered name → bytes map of saved
/// VAS images.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Catalog {
    entries: Vec<(String, Vec<u8>)>,
}

impl Catalog {
    /// An empty catalog (the state of a never-written disk).
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Decodes a catalog payload. Empty input is the empty catalog
    /// (a fresh disk reads back zero bytes); anything else must carry
    /// the magic and well-formed entries.
    pub fn decode(bytes: &[u8]) -> Option<Catalog> {
        if bytes.is_empty() {
            return Some(Catalog::new());
        }
        let mut r = Reader::new(bytes);
        if r.take(8)? != CATALOG_MAGIC {
            return None;
        }
        let count = r.u32()?;
        let mut entries = Vec::new();
        for _ in 0..count {
            let name = r.string()?;
            let len = r.u64()?;
            let data = r.take(len as usize)?.to_vec();
            entries.push((name, data));
        }
        Some(Catalog { entries })
    }

    /// Serializes the catalog: magic, entry count, then each entry in
    /// insertion order.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(CATALOG_MAGIC);
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for (name, data) in &self.entries {
            put_string(&mut out, name);
            out.extend_from_slice(&(data.len() as u64).to_le_bytes());
            out.extend_from_slice(data);
        }
        out
    }

    /// The entry named `name`, if present.
    pub fn get(&self, name: &str) -> Option<&[u8]> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d.as_slice())
    }

    /// Inserts or replaces the entry named `name`, preserving its
    /// position when replacing (deterministic re-save).
    pub fn upsert(&mut self, name: &str, data: Vec<u8>) {
        match self.entries.iter_mut().find(|(n, _)| n == name) {
            Some((_, d)) => *d = data,
            None => self.entries.push((name.to_string(), data)),
        }
    }

    /// Entry names in stored order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _)| n.as_str())
    }

    /// Number of saved images.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the catalog holds no images.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One segment inside a [`VasImage`]: geometry, flags, and sparse
/// contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentImage {
    /// Global segment name (`seg_find` key after restore).
    pub name: String,
    /// Fixed virtual base (raw address — part of the segment's
    /// identity, so pointers inside survive the round trip).
    pub base: u64,
    /// Size in bytes (page rounded).
    pub size: u64,
    /// Whether the VAS mapped it writable (restored attach mode).
    pub writable: bool,
    /// ACL mode bits.
    pub mode: u16,
    /// Whether switch-in takes the segment lock.
    pub lockable: bool,
    /// The segment's backing: its memory tier, page size and
    /// swappability are restored with it.
    pub backing: Backing,
    /// Sparse page list: `(page_index, contents)` for every page that
    /// held nonzero bytes at save time, ascending by index.
    pub pages: Vec<(u64, Vec<u8>)>,
}

/// A serialized VAS: permission mode plus its segments in attachment
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VasImage {
    /// The VAS ACL mode bits.
    pub mode: u16,
    /// Attached segments, in the VAS's attachment order.
    pub segments: Vec<SegmentImage>,
}

impl VasImage {
    /// Serializes the image.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(VAS_MAGIC);
        out.extend_from_slice(&u32::from(self.mode).to_le_bytes());
        out.extend_from_slice(&(self.segments.len() as u32).to_le_bytes());
        for seg in &self.segments {
            put_string(&mut out, &seg.name);
            out.extend_from_slice(&seg.base.to_le_bytes());
            out.extend_from_slice(&seg.size.to_le_bytes());
            out.push(u8::from(seg.writable));
            out.extend_from_slice(&u32::from(seg.mode).to_le_bytes());
            out.push(u8::from(seg.lockable));
            out.push(backing_tag(seg.backing));
            out.extend_from_slice(&(seg.pages.len() as u64).to_le_bytes());
            for (index, data) in &seg.pages {
                debug_assert_eq!(data.len() as u64, PAGE_SIZE, "pages serialize whole");
                out.extend_from_slice(&index.to_le_bytes());
                out.extend_from_slice(data);
            }
        }
        out
    }

    /// Decodes an image; `None` for structural corruption.
    pub fn decode(bytes: &[u8]) -> Option<VasImage> {
        let mut r = Reader::new(bytes);
        if r.take(8)? != VAS_MAGIC {
            return None;
        }
        let mode = u16::try_from(r.u32()?).ok()?;
        let count = r.u32()?;
        let mut segments = Vec::new();
        for _ in 0..count {
            let name = r.string()?;
            let base = r.u64()?;
            let size = r.u64()?;
            let writable = r.byte()? != 0;
            let seg_mode = u16::try_from(r.u32()?).ok()?;
            let lockable = r.byte()? != 0;
            let backing = tag_backing(r.byte()?)?;
            let page_count = r.u64()?;
            let mut pages = Vec::new();
            for _ in 0..page_count {
                let index = r.u64()?;
                let data = r.take(PAGE_SIZE as usize)?.to_vec();
                pages.push((index, data));
            }
            segments.push(SegmentImage {
                name,
                base,
                size,
                writable,
                mode: seg_mode,
                lockable,
                backing,
                pages,
            });
        }
        Some(VasImage { mode, segments })
    }
}

/// A segment backing's tag byte. DRAM and demand take the 0 and 1 of
/// the swappable flag the byte held before.
fn backing_tag(backing: Backing) -> u8 {
    match backing {
        Backing::Dram => 0,
        Backing::Demand => 1,
        Backing::Nvm => 2,
        Backing::Aligned(PageSize::Size2M) => 3,
        Backing::Aligned(PageSize::Size1G) => 4,
        Backing::Aligned(PageSize::Size4K) => 5,
    }
}

/// The backing a tag byte names; `None` for an unknown tag.
fn tag_backing(tag: u8) -> Option<Backing> {
    Some(match tag {
        0 => Backing::Dram,
        1 => Backing::Demand,
        2 => Backing::Nvm,
        3 => Backing::Aligned(PageSize::Size2M),
        4 => Backing::Aligned(PageSize::Size1G),
        5 => Backing::Aligned(PageSize::Size4K),
        _ => return None,
    })
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked cursor over an encoded image.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn byte(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn string(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        Some(std::str::from_utf8(bytes).ok()?.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image() -> VasImage {
        VasImage {
            mode: 0o660,
            segments: vec![SegmentImage {
                name: "s0".into(),
                base: 0x1000_0000_0000,
                size: 2 * PAGE_SIZE,
                writable: true,
                mode: 0o640,
                lockable: false,
                backing: Backing::Demand,
                pages: vec![(1, vec![0xAB; PAGE_SIZE as usize])],
            }],
        }
    }

    #[test]
    fn vas_image_round_trips() {
        let img = image();
        let decoded = VasImage::decode(&img.encode()).expect("valid image");
        assert_eq!(decoded, img);
    }

    #[test]
    fn every_backing_round_trips_and_unknown_tags_are_corrupt() {
        let backings = [
            Backing::Dram,
            Backing::Demand,
            Backing::Nvm,
            Backing::Aligned(PageSize::Size2M),
            Backing::Aligned(PageSize::Size1G),
            Backing::Aligned(PageSize::Size4K),
        ];
        let with = |backing| {
            let mut img = image();
            img.segments[0].backing = backing;
            img
        };
        // The tag byte follows the name, base, size, writable flag, mode
        // and lockable flag of the first segment.
        let tag_at = 16 + 4 + "s0".len() + 8 + 8 + 1 + 4 + 1;
        for (tag, backing) in (0u8..).zip(backings) {
            let img = with(backing);
            let bytes = img.encode();
            assert_eq!(bytes[tag_at], tag, "{backing:?}");
            assert_eq!(VasImage::decode(&bytes), Some(img), "{backing:?}");
        }
        let mut bytes = with(Backing::Dram).encode();
        bytes[tag_at] = 6;
        assert_eq!(VasImage::decode(&bytes), None, "an unknown tag");
    }

    #[test]
    fn huge_counts_are_corruption_not_allocations() {
        let empty = VasImage {
            mode: 0o660,
            segments: vec![SegmentImage {
                pages: Vec::new(),
                ..image().segments[0].clone()
            }],
        };
        // The page count is the last field of an image with no pages.
        let mut pages = empty.encode();
        let at = pages.len() - 8;
        pages[at..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(VasImage::decode(&pages), None);
        // The segment count follows the magic and the mode.
        let mut segments = empty.encode();
        segments[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(VasImage::decode(&segments), None);
        // The catalog's entry count follows its magic.
        let mut catalog = Catalog::new();
        catalog.upsert("a", vec![1]);
        let mut entries = catalog.encode();
        entries[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Catalog::decode(&entries), None);
    }

    #[test]
    fn catalog_round_trips_and_upserts_in_place() {
        let mut cat = Catalog::new();
        cat.upsert("a", vec![1, 2, 3]);
        cat.upsert("b", vec![4]);
        cat.upsert("a", vec![9, 9]);
        assert_eq!(cat.names().collect::<Vec<_>>(), vec!["a", "b"]);
        assert_eq!(cat.get("a"), Some(&[9u8, 9][..]));
        let decoded = Catalog::decode(&cat.encode()).expect("valid catalog");
        assert_eq!(decoded, cat);
        // Re-encoding is byte-stable (determinism gate relies on it).
        assert_eq!(decoded.encode(), cat.encode());
    }

    #[test]
    fn empty_payload_is_empty_catalog() {
        assert_eq!(Catalog::decode(&[]), Some(Catalog::new()));
    }

    #[test]
    fn corrupt_images_decode_to_none() {
        assert_eq!(VasImage::decode(b"SJMPVAS1"), None, "truncated header");
        assert_eq!(VasImage::decode(b"WRONGMAG"), None, "bad magic");
        let mut bytes = image().encode();
        bytes.truncate(bytes.len() - 1);
        assert_eq!(VasImage::decode(&bytes), None, "truncated page");
        assert_eq!(Catalog::decode(b"XX"), None, "garbage catalog");
    }
}
