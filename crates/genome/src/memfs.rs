//! A tiny in-memory file system over simulated physical memory.
//!
//! The paper factors disk out of the SAMTools comparison: "The SAM and
//! BAM files are stored using an in-memory file-system so the impact of
//! disk access in the original tool is completely factored out." This
//! module provides that substrate: named files backed by VM objects, with
//! read/write charging memory-copy cycles (one cache line per 64 bytes)
//! but no I/O costs.

use std::collections::HashMap;

use sjmp_os::{Backing, Kernel, OsError, OsResult, VmObjectId};

/// The in-memory file system.
#[derive(Debug, Default)]
pub struct MemFs {
    files: HashMap<String, (VmObjectId, u64)>,
}

impl MemFs {
    /// Creates an empty file system.
    pub fn new() -> Self {
        MemFs::default()
    }

    /// Writes (creates or replaces) a file.
    ///
    /// # Errors
    ///
    /// Physical-memory exhaustion.
    pub fn write(&mut self, kernel: &mut Kernel, name: &str, data: &[u8]) -> OsResult<()> {
        if let Some((old, _)) = self.files.remove(name) {
            kernel.free_object(old)?;
        }
        let obj = kernel.alloc_object(None, data.len().max(1) as u64, Backing::Dram)?;
        let pa = kernel.vmobject(obj)?.base();
        kernel.phys_mut().write_bytes(pa, data)?;
        kernel
            .clock()
            .advance(Self::copy_cycles(kernel, data.len()));
        self.files
            .insert(name.to_string(), (obj, data.len() as u64));
        Ok(())
    }

    /// Reads a whole file.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchObject`] if the file does not exist.
    pub fn read(&self, kernel: &mut Kernel, name: &str) -> OsResult<Vec<u8>> {
        let &(obj, len) = self.files.get(name).ok_or(OsError::NoSuchObject)?;
        let pa = kernel.vmobject(obj)?.base();
        let mut buf = vec![0u8; len as usize];
        kernel.phys_mut().read_bytes(pa, &mut buf)?;
        kernel.clock().advance(Self::copy_cycles(kernel, buf.len()));
        Ok(buf)
    }

    fn copy_cycles(kernel: &Kernel, len: usize) -> u64 {
        (len as u64).div_ceil(64) * kernel.cost().cache_hit
    }

    /// File size, if present.
    pub fn size(&self, name: &str) -> Option<u64> {
        self.files.get(name).map(|&(_, len)| len)
    }

    /// Whether a file exists.
    pub fn exists(&self, name: &str) -> bool {
        self.files.contains_key(name)
    }

    /// Deletes a file, releasing its memory.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchObject`] if absent.
    pub fn delete(&mut self, kernel: &mut Kernel, name: &str) -> OsResult<()> {
        let (obj, _) = self.files.remove(name).ok_or(OsError::NoSuchObject)?;
        kernel.free_object(obj)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjmp_mem::{KernelFlavor, MachineId};

    fn kernel() -> Kernel {
        Kernel::new(KernelFlavor::DragonFly, MachineId::M2)
    }

    #[test]
    fn write_read_round_trip() {
        let mut k = kernel();
        let mut fs = MemFs::new();
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        fs.write(&mut k, "test.sam", &data).unwrap();
        assert_eq!(fs.read(&mut k, "test.sam").unwrap(), data);
        assert_eq!(fs.size("test.sam"), Some(100_000));
        assert!(fs.exists("test.sam"));
    }

    #[test]
    fn replace_frees_old_object() {
        let mut k = kernel();
        let mut fs = MemFs::new();
        fs.write(&mut k, "f", &[1; 4096]).unwrap();
        let before = k.phys_mut().allocated_frames();
        fs.write(&mut k, "f", &[2; 4096]).unwrap();
        assert_eq!(k.phys_mut().allocated_frames(), before, "old backing freed");
        assert_eq!(fs.read(&mut k, "f").unwrap(), vec![2; 4096]);
    }

    #[test]
    fn missing_files_error() {
        let mut k = kernel();
        let mut fs = MemFs::new();
        assert!(matches!(
            fs.read(&mut k, "nope"),
            Err(OsError::NoSuchObject)
        ));
        assert!(matches!(
            fs.delete(&mut k, "nope"),
            Err(OsError::NoSuchObject)
        ));
        assert_eq!(fs.size("nope"), None);
    }

    #[test]
    fn delete_releases_memory() {
        let mut k = kernel();
        let mut fs = MemFs::new();
        let before = k.phys_mut().allocated_frames();
        fs.write(&mut k, "f", &[0; 64 * 1024]).unwrap();
        fs.delete(&mut k, "f").unwrap();
        assert_eq!(k.phys_mut().allocated_frames(), before);
        assert!(!fs.exists("f"));
    }

    #[test]
    fn io_charges_cycles() {
        let mut k = kernel();
        let mut fs = MemFs::new();
        let t0 = k.clock().now();
        fs.write(&mut k, "f", &[0; 64 * 1024]).unwrap();
        assert!(k.clock().since(t0) >= 1024 * k.cost().cache_hit);
    }
}
