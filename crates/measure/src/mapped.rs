//! Memory-mapped v3 observation files: the owning end of the zero-copy
//! tier.
//!
//! [`MappedObservations`] opens a v3 binary observation file
//! ([`crate::observation::PathObservations::to_binary`]) and serves it
//! query-ready without copying a single lane word: the file is mapped
//! read-only, the 24-byte header is validated, the zero-tail invariant
//! is checked per lane, and [`MappedObservations::view`] hands out a
//! [`ProbabilityEstimator`] borrowing the mapped words directly. A 1 GiB
//! history becomes queryable in microseconds instead of the word copy a
//! heap load performs.
//!
//! The mapping is implemented with raw `mmap`/`munmap` syscalls (this
//! workspace vendors no libc binding), gated to Linux/x86-64; on other
//! targets — or when the syscall fails — the words are read into a heap
//! buffer instead, with identical semantics
//! ([`MappedObservations::backing`] reports which tier is active).
//! Handles are cheap to clone (`Arc` inside) and safe to share across
//! threads: the mapping is private and read-only, and the daemon's
//! atomic-rename persistence never truncates a published file in place,
//! so the mapped inode stays valid for the lifetime of the handle.

// Raw mmap/munmap syscalls and the mapped-region word slice are the
// only unsafe here; both are confined to this module and justified
// inline.
#![allow(unsafe_code)]

use std::fmt;
use std::fs;
use std::io::Read;
use std::path::Path;
use std::sync::Arc;

use crate::bitset::BitLanesView;
use crate::error::MeasureError;
use crate::estimator::ProbabilityEstimator;
use crate::observation::{parse_binary_header, BINARY_HEADER_LEN};

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    //! Minimal raw-syscall mmap binding (Linux x86-64 ABI).

    use std::arch::asm;

    const SYS_MMAP: isize = 9;
    const SYS_MUNMAP: isize = 11;
    const PROT_READ: usize = 0x1;
    const MAP_PRIVATE: usize = 0x2;

    /// Maps `len` bytes of `fd` read-only and private.
    ///
    /// # Safety
    ///
    /// `fd` must be a readable open file descriptor and `len` non-zero.
    pub unsafe fn mmap_readonly(len: usize, fd: i32) -> Result<*const u8, isize> {
        let ret: isize;
        asm!(
            "syscall",
            inlateout("rax") SYS_MMAP => ret,
            in("rdi") 0usize,
            in("rsi") len,
            in("rdx") PROT_READ,
            in("r10") MAP_PRIVATE,
            in("r8") fd as isize,
            in("r9") 0usize,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
        if (-4095..0).contains(&ret) {
            Err(-ret)
        } else {
            Ok(ret as *const u8)
        }
    }

    /// Unmaps a region previously returned by [`mmap_readonly`].
    ///
    /// # Safety
    ///
    /// `addr`/`len` must describe exactly one live mapping, and no
    /// reference into it may outlive the call.
    pub unsafe fn munmap(addr: *const u8, len: usize) {
        let _ret: isize;
        asm!(
            "syscall",
            inlateout("rax") SYS_MUNMAP => _ret,
            in("rdi") addr,
            in("rsi") len,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
    }
}

/// An owned read-only mapping of a whole file.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
struct Mapping {
    addr: *const u8,
    len: usize,
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
impl Mapping {
    /// The mapped lane-word region (everything past the v3 header). The
    /// mapping is page-aligned and the header is 24 bytes, so the region
    /// is 8-byte aligned.
    fn words(&self) -> &[u64] {
        let n = (self.len - BINARY_HEADER_LEN) / 8;
        // SAFETY: the region is in-bounds for the mapping (length was
        // validated against the header), 8-byte aligned (page-aligned
        // base + 24), and lives as long as `self`; every bit pattern is
        // a valid u64, and the mapping is never written.
        unsafe { std::slice::from_raw_parts(self.addr.add(BINARY_HEADER_LEN) as *const u64, n) }
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: `addr`/`len` came from a successful mmap_readonly and
        // the region is dropped exactly once; no view can outlive the
        // owning `Arc` that holds this mapping.
        unsafe { sys::munmap(self.addr, self.len) };
    }
}

// SAFETY: the mapping is private and read-only — no interior mutability,
// no aliasing writes — so sharing and sending the pointer is sound.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe impl Send for Mapping {}
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe impl Sync for Mapping {}

/// The validated contents of an opened observation file.
enum Region {
    /// Zero-copy: the file is mapped and the words are served from the
    /// page cache.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    Mapped(Mapping),
    /// Copying fallback: the words were decoded into a heap buffer.
    Heap(Vec<u64>),
}

impl Region {
    fn words(&self) -> &[u64] {
        match self {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Region::Mapped(mapping) => mapping.words(),
            Region::Heap(words) => words,
        }
    }

    fn backing(&self) -> &'static str {
        match self {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Region::Mapped(_) => "mmap",
            Region::Heap(_) => "heap",
        }
    }
}

struct Inner {
    num_paths: usize,
    num_snapshots: usize,
    byte_len: usize,
    /// Lane words belonging to the v3 payload; the mapping may extend
    /// past them (e.g. a crash-safety footer) and those trailing bytes
    /// are never served.
    payload_words: usize,
    region: Region,
}

/// An owning, shareable handle to a v3 observation file served without
/// copying its lane words (see the module docs for the tier ladder).
#[derive(Clone)]
pub struct MappedObservations {
    inner: Arc<Inner>,
}

impl fmt::Debug for MappedObservations {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MappedObservations")
            .field("num_paths", &self.inner.num_paths)
            .field("num_snapshots", &self.inner.num_snapshots)
            .field("byte_len", &self.inner.byte_len)
            .field("backing", &self.backing())
            .finish()
    }
}

impl MappedObservations {
    /// Opens and validates a v3 observation file, mapping it when the
    /// platform allows and falling back to a heap read otherwise.
    /// Validation covers the header (magic, counts, exact file length)
    /// and the per-lane zero-tail invariant; corrupt files surface as
    /// [`MeasureError::Wire`], never a panic.
    pub fn open(path: &Path) -> Result<Self, MeasureError> {
        Self::open_inner(path, false, None)
    }

    /// Opens a file whose first `payload_len` bytes are a v3 observation
    /// block, ignoring anything after them. This is how history files
    /// that carry a trailing generation/checksum footer are mapped: the
    /// footer stays on disk (and in the mapping) but is never exposed
    /// through [`MappedObservations::view`]. `payload_len` must lie
    /// within the file, cover the 24-byte header, and leave a whole
    /// number of lane words.
    pub fn open_prefix(path: &Path, payload_len: usize) -> Result<Self, MeasureError> {
        Self::open_inner(path, false, Some(payload_len))
    }

    /// Opens a file through the copying fallback tier even where a
    /// mapping is available — the control arm for benchmarks and for
    /// diagnosing mapping problems.
    pub fn open_heap(path: &Path) -> Result<Self, MeasureError> {
        Self::open_inner(path, true, None)
    }

    fn open_inner(
        path: &Path,
        force_heap: bool,
        payload: Option<usize>,
    ) -> Result<Self, MeasureError> {
        let io_err =
            |what: &str, e: std::io::Error| MeasureError::Wire(format!("cannot {what}: {e}"));
        let mut file = fs::File::open(path).map_err(|e| io_err("open observation file", e))?;
        let byte_len = file
            .metadata()
            .map_err(|e| io_err("stat observation file", e))?
            .len();
        let byte_len = usize::try_from(byte_len)
            .map_err(|_| MeasureError::Wire("file length overflows usize".to_string()))?;
        if byte_len < BINARY_HEADER_LEN {
            return Err(MeasureError::Wire(format!(
                "binary observations need a {BINARY_HEADER_LEN}-byte header, got {byte_len} bytes"
            )));
        }
        let payload_len = match payload {
            Some(n) => {
                if n > byte_len
                    || n < BINARY_HEADER_LEN
                    || !(n - BINARY_HEADER_LEN).is_multiple_of(8)
                {
                    return Err(MeasureError::Wire(format!(
                        "observation payload prefix of {n} bytes is not a whole \
                         header + lane-word region within the {byte_len}-byte file"
                    )));
                }
                n
            }
            None => byte_len,
        };
        let payload_words = (payload_len - BINARY_HEADER_LEN) / 8;

        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        if !force_heap {
            use std::os::fd::AsRawFd;
            // SAFETY: `file` is open and readable, `byte_len >= 24 > 0`.
            match unsafe { sys::mmap_readonly(byte_len, file.as_raw_fd()) } {
                Ok(addr) => {
                    let mapping = Mapping {
                        addr,
                        len: byte_len,
                    };
                    // Validate through the mapped header itself: the
                    // payload prefix plus the derived length checks.
                    // SAFETY: the whole mapping is in-bounds and lives
                    // for this scope (`mapping` owns it).
                    let header: &[u8] =
                        unsafe { std::slice::from_raw_parts(mapping.addr, payload_len) };
                    let (num_paths, num_snapshots) = parse_binary_header(header)?;
                    // Zero-tail check, no copy (errors unmap via Drop).
                    BitLanesView::try_from_lane_words(
                        num_paths,
                        num_snapshots,
                        &mapping.words()[..payload_words],
                    )?;
                    return Ok(MappedObservations {
                        inner: Arc::new(Inner {
                            num_paths,
                            num_snapshots,
                            byte_len,
                            payload_words,
                            region: Region::Mapped(mapping),
                        }),
                    });
                }
                // Mapping can fail on exotic filesystems; the heap read
                // below has identical semantics.
                Err(_errno) => {}
            }
        }

        let mut bytes = Vec::with_capacity(byte_len);
        file.read_to_end(&mut bytes)
            .map_err(|e| io_err("read observation file", e))?;
        let (num_paths, num_snapshots) = parse_binary_header(&bytes[..payload_len])?;
        let words: Vec<u64> = bytes[BINARY_HEADER_LEN..payload_len]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        BitLanesView::try_from_lane_words(num_paths, num_snapshots, &words)?;
        Ok(MappedObservations {
            inner: Arc::new(Inner {
                num_paths,
                num_snapshots,
                byte_len: bytes.len(),
                payload_words,
                region: Region::Heap(words),
            }),
        })
    }

    /// Number of paths per snapshot.
    pub fn num_paths(&self) -> usize {
        self.inner.num_paths
    }

    /// Number of snapshots in the file.
    pub fn num_snapshots(&self) -> usize {
        self.inner.num_snapshots
    }

    /// Size of the backing file in bytes (header included).
    pub fn byte_len(&self) -> usize {
        self.inner.byte_len
    }

    /// Which tier serves the words: `"mmap"` (zero-copy) or `"heap"`
    /// (copying fallback).
    pub fn backing(&self) -> &'static str {
        self.inner.region.backing()
    }

    /// A query-ready estimator over the file's payload lane words.
    pub fn view(&self) -> ProbabilityEstimator<'_> {
        let lanes = BitLanesView::try_from_lane_words(
            self.inner.num_paths,
            self.inner.num_snapshots,
            &self.inner.region.words()[..self.inner.payload_words],
        )
        .expect("lane words were validated when the file was opened");
        ProbabilityEstimator::from_lanes(lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::PathObservations;

    fn sample(paths: usize, snapshots: usize) -> PathObservations {
        let mut obs = PathObservations::new(paths);
        let mut row = vec![false; paths];
        for s in 0..snapshots {
            for (p, bit) in row.iter_mut().enumerate() {
                *bit = (s * 5 + p * 3) % 7 == 0;
            }
            obs.record_snapshot(&row).unwrap();
        }
        obs
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("netcorr_mapped_{tag}_{}", std::process::id()))
    }

    #[test]
    fn mapped_file_round_trips_bit_exactly() {
        let obs = sample(7, 333);
        let path = temp_path("roundtrip");
        fs::write(&path, obs.to_binary()).unwrap();
        let mapped = MappedObservations::open(&path).unwrap();
        assert_eq!(mapped.num_paths(), 7);
        assert_eq!(mapped.num_snapshots(), 333);
        assert_eq!(mapped.byte_len(), 24 + 7 * 6 * 8);
        assert!(["mmap", "heap"].contains(&mapped.backing()));
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        assert_eq!(mapped.backing(), "mmap");
        assert_eq!(mapped.view().to_observations(), obs);

        // The heap control arm agrees bit for bit.
        let heap = MappedObservations::open_heap(&path).unwrap();
        assert_eq!(heap.backing(), "heap");
        assert_eq!(heap.view().to_observations(), obs);

        // Clones share the mapping and survive the original being
        // dropped.
        let clone = mapped.clone();
        drop(mapped);
        assert_eq!(clone.view().num_snapshots(), 333);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_files_error_instead_of_panicking() {
        let obs = sample(3, 100);
        let block = obs.to_binary();

        // Truncated: lane region cut short.
        let path = temp_path("truncated");
        fs::write(&path, &block[..block.len() - 8]).unwrap();
        let err = MappedObservations::open(&path).unwrap_err();
        assert!(err.to_string().contains("expected"), "got: {err}");

        // Dirty tail: a bit set beyond the declared snapshot count.
        let mut dirty = block.clone();
        let last = dirty.len() - 1;
        dirty[last] |= 0x80;
        fs::write(&path, &dirty).unwrap();
        let err = MappedObservations::open(&path).unwrap_err();
        assert!(err.to_string().contains("beyond slot"), "got: {err}");

        // Bad magic.
        let mut bad = block.clone();
        bad[0] = b'X';
        fs::write(&path, &bad).unwrap();
        let err = MappedObservations::open(&path).unwrap_err();
        assert!(err.to_string().contains("magic"), "got: {err}");

        // Shorter than a header.
        fs::write(&path, b"NC").unwrap();
        assert!(MappedObservations::open(&path).is_err());

        // Missing file.
        fs::remove_file(&path).unwrap();
        let err = MappedObservations::open(&path).unwrap_err();
        assert!(err.to_string().contains("cannot open"), "got: {err}");
    }

    #[test]
    fn prefix_open_ignores_trailing_footer_bytes() {
        let obs = sample(5, 77);
        let block = obs.to_binary();
        let path = temp_path("prefix");

        // A 32-byte trailer (as written by crash-safe history files)
        // must be invisible through the prefix-aware open.
        let mut bytes = block.clone();
        bytes.extend_from_slice(&[0xAB; 32]);
        fs::write(&path, &bytes).unwrap();
        let mapped = MappedObservations::open_prefix(&path, block.len()).unwrap();
        assert_eq!(mapped.num_snapshots(), 77);
        assert_eq!(mapped.byte_len(), block.len() + 32);
        assert_eq!(mapped.view().to_observations(), obs);

        // Whole-file open of the same bytes fails (length mismatch), so
        // the prefix form is genuinely load-bearing.
        assert!(MappedObservations::open(&path).is_err());

        // Degenerate prefixes are rejected: past EOF, shorter than a
        // header, or splitting a lane word.
        assert!(MappedObservations::open_prefix(&path, bytes.len() + 8).is_err());
        assert!(MappedObservations::open_prefix(&path, 8).is_err());
        assert!(MappedObservations::open_prefix(&path, block.len() + 4).is_err());

        // `open_prefix(len) == open` on a footer-less file.
        fs::write(&path, &block).unwrap();
        let exact = MappedObservations::open_prefix(&path, block.len()).unwrap();
        assert_eq!(exact.view().to_observations(), obs);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_history_files_are_valid() {
        let obs = PathObservations::new(9);
        let path = temp_path("empty");
        fs::write(&path, obs.to_binary()).unwrap();
        let mapped = MappedObservations::open(&path).unwrap();
        assert_eq!(mapped.num_paths(), 9);
        assert_eq!(mapped.num_snapshots(), 0);
        assert!(mapped.view().is_empty());
        fs::remove_file(&path).unwrap();
    }
}
