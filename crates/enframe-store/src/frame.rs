//! The on-disk frame: a versioned, checksummed container around the
//! engine-specific payload sections, written crash-safely.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic            8 bytes   b"ENFSTORE"
//! format version   u32
//! engine kind      u8
//! fingerprint      u64       lineage fingerprint the artifact is keyed by
//! section count    u32
//! per section      u64 len, u32 CRC-32 (IEEE), payload bytes
//! file digest      u64       FxHash fingerprint of every preceding byte
//! ```
//!
//! The per-section CRCs localise corruption ("section 2 CRC mismatch");
//! the whole-file digest catches anything the section framing itself
//! could be lied about (truncated tails, bit flips inside the header,
//! spliced sections with self-consistent CRCs). Neither is
//! cryptographic — the store defends against torn writes and media
//! rot, not adversaries — which is also why the *semantic* revalidation
//! in `lib.rs` runs on every load regardless.

use enframe_core::failpoint::{self, Site};
use enframe_core::fingerprint::FingerprintHasher;
use std::io::{self, Write};
use std::path::Path;

/// File magic; also serves as a quick "is this even ours" check.
pub(crate) const MAGIC: [u8; 8] = *b"ENFSTORE";

/// Current frame format version. Bump on any layout change; loads of
/// other versions fail with `StoreError::VersionMismatch` and fall back
/// to recompilation.
pub(crate) const FORMAT_VERSION: u32 = 1;

/// Domain string for the whole-file digest.
const FILE_DIGEST_DOMAIN: &str = "enframe-store/file";

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320).
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 of `bytes` (IEEE polynomial, the `cksum`/zlib variant).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

fn file_digest(prefix: &[u8]) -> u64 {
    let mut h = FingerprintHasher::new(FILE_DIGEST_DOMAIN);
    h.write_bytes(prefix);
    h.finish().0
}

// ---------------------------------------------------------------------
// Section payload writer / bounds-checked reader.
// ---------------------------------------------------------------------

/// Builds one section payload.
#[derive(Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Writer {
        Writer::default()
    }

    pub(crate) fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_f64_bits(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    pub(crate) fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub(crate) fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked reader over one section payload. Every `take_*`
/// returns a description on underflow instead of panicking — the bytes
/// are untrusted.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("truncated at byte {} (wanted {} more)", self.pos, n))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    pub(crate) fn take_u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn take_u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    pub(crate) fn take_u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    pub(crate) fn take_f64_bits(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    pub(crate) fn take_str(&mut self) -> Result<String, String> {
        let n = self.take_u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| format!("invalid UTF-8 at byte {}", self.pos))
    }

    /// A length prefix for `per_item` further bytes each — rejected up
    /// front when the remaining payload cannot possibly hold it, so a
    /// corrupted count cannot drive a huge allocation.
    pub(crate) fn take_count(&mut self, per_item: usize) -> Result<usize, String> {
        let n = self.take_u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n.checked_mul(per_item.max(1) as u64)
            .is_none_or(|need| need > remaining)
        {
            return Err(format!("implausible count {n} at byte {}", self.pos));
        }
        Ok(n as usize)
    }

    /// Asserts the payload was consumed exactly.
    pub(crate) fn finish(self) -> Result<(), String> {
        if self.pos != self.buf.len() {
            return Err(format!(
                "{} trailing bytes after the payload",
                self.buf.len() - self.pos
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Frame encode / decode.
// ---------------------------------------------------------------------

/// A decoded (or to-be-encoded) frame: the envelope fields plus the raw
/// payload sections.
pub(crate) struct Frame {
    pub(crate) kind: u8,
    pub(crate) fingerprint: u64,
    pub(crate) sections: Vec<Vec<u8>>,
}

/// Why a frame failed to decode; `lib.rs` attaches the path and maps
/// into `StoreError`.
pub(crate) enum FrameError {
    /// The magic matched but the format version is not ours.
    Version {
        /// Version found in the frame header.
        found: u32,
    },
    /// Anything else: bad magic, failed checksum, truncation.
    Corrupt(String),
}

impl Frame {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.push(self.kind);
        out.extend_from_slice(&self.fingerprint.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for s in &self.sections {
            out.extend_from_slice(&(s.len() as u64).to_le_bytes());
            out.extend_from_slice(&crc32(s).to_le_bytes());
            out.extend_from_slice(s);
        }
        let digest = file_digest(&out);
        out.extend_from_slice(&digest.to_le_bytes());
        out
    }

    pub(crate) fn decode(bytes: &[u8]) -> Result<Frame, FrameError> {
        let corrupt = |d: &str| FrameError::Corrupt(d.to_string());
        if bytes.len() < MAGIC.len() + 4 {
            return Err(corrupt("shorter than the magic + version header"));
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(FrameError::Version { found: version });
        }
        if bytes.len() < 12 + 1 + 8 + 4 + 8 {
            return Err(corrupt("truncated header"));
        }
        // The whole-file digest first: it covers everything, including
        // the section framing the loop below is about to trust.
        let body = &bytes[..bytes.len() - 8];
        let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
        if file_digest(body) != stored {
            return Err(corrupt("whole-file digest mismatch"));
        }
        let mut r = Reader::new(&body[12..]);
        let kind = r.take_u8().map_err(FrameError::Corrupt)?;
        let fingerprint = r.take_u64().map_err(FrameError::Corrupt)?;
        let n_sections = r.take_u32().map_err(FrameError::Corrupt)? as usize;
        let mut sections = Vec::new();
        for i in 0..n_sections {
            let len = r.take_count(1).map_err(FrameError::Corrupt)?;
            let crc = r.take_u32().map_err(FrameError::Corrupt)?;
            let payload = r
                .take(len)
                .map_err(|_| corrupt(&format!("section {i} truncated")))?;
            if crc32(payload) != crc {
                return Err(corrupt(&format!("section {i} CRC mismatch")));
            }
            sections.push(payload.to_vec());
        }
        r.finish().map_err(FrameError::Corrupt)?;
        Ok(Frame {
            kind,
            fingerprint,
            sections,
        })
    }
}

// ---------------------------------------------------------------------
// Crash-safe file I/O with failpoints.
// ---------------------------------------------------------------------

fn injected(site: &str) -> io::Error {
    io::Error::other(format!("injected I/O failure (failpoint `{site}`)"))
}

/// Writes `bytes` to `path` crash-safely: temp file in the same
/// directory → fsync → atomic rename. A crash (or injected fault) at
/// any point leaves either the old artifact or none — never a torn one
/// under the final name. The temp file is cleaned up on failure.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir)?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        if failpoint::hit(Site::StoreWrite) {
            return Err(injected("store_write"));
        }
        f.write_all(bytes)?;
        if failpoint::hit(Site::StoreFsync) {
            return Err(injected("store_fsync"));
        }
        f.sync_all()?;
        drop(f);
        if failpoint::hit(Site::StoreRename) {
            return Err(injected("store_rename"));
        }
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        // Best-effort: an orphaned temp file is harmless (never loaded)
        // but pointless.
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Reads a whole artifact file, through the `store_read` failpoint.
pub(crate) fn read_file(path: &Path) -> io::Result<Vec<u8>> {
    if failpoint::hit(Site::StoreRead) {
        return Err(injected("store_read"));
    }
    std::fs::read(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_round_trips() {
        let f = Frame {
            kind: 1,
            fingerprint: 0xDEAD_BEEF_0BAD_F00D,
            sections: vec![vec![1, 2, 3], Vec::new(), vec![0xFF; 100]],
        };
        let bytes = f.encode();
        let Ok(g) = Frame::decode(&bytes) else {
            panic!("frame should decode");
        };
        assert_eq!(g.kind, f.kind);
        assert_eq!(g.fingerprint, f.fingerprint);
        assert_eq!(g.sections, f.sections);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let f = Frame {
            kind: 0,
            fingerprint: 42,
            sections: vec![vec![10, 20, 30, 40], vec![7; 9]],
        };
        let bytes = f.encode();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                assert!(
                    Frame::decode(&bad).is_err(),
                    "flip of byte {i} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let f = Frame {
            kind: 0,
            fingerprint: 7,
            sections: vec![vec![1; 33]],
        };
        let bytes = f.encode();
        for n in 0..bytes.len() {
            assert!(Frame::decode(&bytes[..n]).is_err(), "truncation to {n}");
        }
    }

    #[test]
    fn version_skew_is_its_own_error() {
        let f = Frame {
            kind: 0,
            fingerprint: 7,
            sections: vec![],
        };
        let mut bytes = f.encode();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        match Frame::decode(&bytes) {
            Err(FrameError::Version { found: 99 }) => {}
            _ => panic!("expected a version mismatch"),
        }
    }

    #[test]
    fn reader_rejects_implausible_counts() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert!(r.take_count(4).is_err());
    }

    #[test]
    fn atomic_write_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("enframe-frame-test-{}", std::process::id()));
        let path = dir.join("a.efs");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let _guard = enframe_core::failpoint::arm("store_write:every-1");
        assert!(write_atomic(&path, b"third").is_err());
        // Old contents intact, no temp litter.
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(!dir.join("a.efs.tmp").exists());
        drop(_guard);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
