//! Durable checkpoint files: framing, atomic writes, retention, and typed
//! corruption handling (DESIGN.md §11).
//!
//! A checkpoint file is a fixed 20-byte header followed by an opaque payload
//! produced by [`crate::engine::Engine::snapshot`]:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"NSXC"
//! 4       4     format version (little-endian u32, currently 1)
//! 8       8     payload length (little-endian u64)
//! 16      4     CRC-32 (IEEE) of the payload
//! 20      n     payload (stoch_eval::codec encoding)
//! ```
//!
//! Writes are atomic: the frame goes to a sibling `*.tmp` file which is
//! fsynced and then renamed over the target, so a crash — even SIGKILL
//! mid-write — leaves either the previous checkpoint or the new one, never
//! a torn file. With retention enabled the previous good checkpoint is kept
//! at `<path>.1` and [`load_with_fallback`] falls back to it when the
//! primary is corrupt.
//!
//! Every failure mode is a typed [`CheckpointError`]; this module (like the
//! codec it builds on) never panics on malformed input.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use mw_framework::resilience::policy_setting;
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use stoch_eval::codec::{crc32, CodecError, Reader};

/// File magic: "noisy-simplex checkpoint".
const MAGIC: [u8; 4] = *b"NSXC";

/// Current checkpoint format version. Bump on any payload layout change —
/// the loader refuses other versions rather than misinterpreting bytes.
pub const FORMAT_VERSION: u32 = 2;

/// Frame header size in bytes (magic + version + payload length + CRC).
const HEADER_LEN: usize = 20;

/// A checkpoint save/load failure.
#[derive(Debug)]
pub enum CheckpointError {
    /// A filesystem operation failed.
    Io {
        /// The operation that failed (`"open"`, `"write"`, `"rename"`, ...).
        op: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The file is shorter than its header (or its declared payload).
    Truncated {
        /// Bytes the frame required.
        needed: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The stored CRC-32 does not match the payload.
    BadCrc {
        /// CRC recorded in the header.
        expected: u32,
        /// CRC computed over the payload.
        found: u32,
    },
    /// The file was written by an incompatible format version.
    VersionMismatch {
        /// Version recorded in the header.
        found: u32,
        /// The version this build reads.
        supported: u32,
    },
    /// The payload frame was intact but its contents failed to decode.
    Codec(CodecError),
    /// The decoded state does not fit the run being resumed (wrong
    /// dimensionality, vertex count, ...).
    Mismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { op, path, source } => {
                write!(f, "checkpoint {op} failed for {}: {source}", path.display())
            }
            CheckpointError::Truncated { needed, have } => {
                write!(
                    f,
                    "truncated checkpoint: needed {needed} bytes, have {have}"
                )
            }
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::BadCrc { expected, found } => write!(
                f,
                "checkpoint CRC mismatch: header {expected:#010x}, payload {found:#010x}"
            ),
            CheckpointError::VersionMismatch { found, supported } => write!(
                f,
                "checkpoint format version {found} not supported (this build reads {supported})"
            ),
            CheckpointError::Codec(e) => write!(f, "checkpoint payload corrupt: {e}"),
            CheckpointError::Mismatch(what) => {
                write!(f, "checkpoint does not match this run: {what}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            CheckpointError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        CheckpointError::Codec(e)
    }
}

/// Where and how often a run checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Checkpoint file path. The atomic-write temporary and the retention
    /// copy live next to it (`<path>.tmp`, `<path>.1`).
    pub path: PathBuf,
    /// Write a checkpoint every `every` completed iterations (min 1).
    pub every: u64,
    /// Keep the previous good checkpoint at `<path>.1` so a corrupt primary
    /// (e.g. media failure after the atomic rename) still has a fallback.
    pub retain: bool,
}

impl CheckpointConfig {
    /// Checkpoint to `path` every iteration, with retention on.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            path: path.into(),
            every: 1,
            retain: true,
        }
    }

    /// Parse the `NSX_CHECKPOINT` grammar: `path[:every=N][:keep=0|1]`.
    ///
    /// Options may appear in either order after the path; an unrecognized
    /// or malformed option rejects the whole string (`None`) rather than
    /// silently checkpointing differently than the operator asked.
    pub fn parse(s: &str) -> Option<Self> {
        let mut segments = s.split(':');
        let path = segments.next().filter(|p| !p.is_empty())?;
        let mut cfg = CheckpointConfig::new(path);
        for opt in segments {
            if let Some(n) = opt.strip_prefix("every=") {
                cfg.every = n.parse().ok().filter(|&n| n >= 1)?;
            } else if let Some(k) = opt.strip_prefix("keep=") {
                cfg.retain = match k {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                };
            } else {
                return None;
            }
        }
        Some(cfg)
    }

    /// Read the `NSX_CHECKPOINT` environment variable (`None` when unset).
    /// Panics naming the knob on a value [`parse`](Self::parse) rejects.
    pub fn from_env() -> Option<Self> {
        Self::from_setting(std::env::var("NSX_CHECKPOINT").ok().as_deref())
    }

    /// [`from_env`](Self::from_env) over an already-read value.
    fn from_setting(value: Option<&str>) -> Option<Self> {
        let grammar = "<path>[:every=<N>][:keep=0|1] with N >= 1";
        policy_setting("NSX_CHECKPOINT", grammar, value, |v| {
            Self::parse(v).map(Some)
        })
    }

    /// The retention path `<path>.1`.
    pub fn fallback_path(&self) -> PathBuf {
        retention_path(&self.path)
    }

    /// Derive a per-run checkpoint config writing to `<path>.run<run_id>`
    /// (same cadence and retention; the retention copy lands at
    /// `<path>.run<run_id>.1`).
    ///
    /// Concurrent runs pointed at one checkpoint path would otherwise
    /// clobber each other's primary *and* retention files — the `.1` copy
    /// could even pair a run-A primary with a run-B fallback. A scheduler
    /// admits every run with a unique id and rewrites its checkpoint config
    /// through this, so each run's snapshot/retention pair stays private.
    pub fn for_run(&self, run_id: u64) -> Self {
        let mut os = self.path.as_os_str().to_os_string();
        os.push(format!(".run{run_id}"));
        CheckpointConfig {
            path: PathBuf::from(os),
            every: self.every,
            retain: self.retain,
        }
    }
}

/// The retention path `<path>.1` for a checkpoint at `path`.
fn retention_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".1");
    PathBuf::from(os)
}

fn io_err<'a>(
    op: &'static str,
    path: &'a Path,
) -> impl FnOnce(std::io::Error) -> CheckpointError + 'a {
    move |source| CheckpointError::Io {
        op,
        path: path.to_path_buf(),
        source,
    }
}

/// Atomically write `payload` (framed with magic/version/CRC) to `path`.
///
/// The frame is written to `<path>.tmp`, fsynced, and renamed into place;
/// with `retain` the previous checkpoint is first renamed to `<path>.1`.
/// A crash at any point leaves `path` holding either the old complete frame
/// or the new one.
pub fn save(path: &Path, retain: bool, payload: &[u8]) -> Result<(), CheckpointError> {
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);

    let tmp = {
        let mut os = path.as_os_str().to_os_string();
        os.push(".tmp");
        PathBuf::from(os)
    };
    let mut f = std::fs::File::create(&tmp).map_err(io_err("create", &tmp))?;
    f.write_all(&frame).map_err(io_err("write", &tmp))?;
    f.sync_all().map_err(io_err("fsync", &tmp))?;
    drop(f);

    if retain {
        match std::fs::rename(path, retention_path(path)) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {} // first write
            Err(e) => return Err(io_err("retain", path)(e)),
        }
    }
    std::fs::rename(&tmp, path).map_err(io_err("rename", path))?;

    // Make the rename itself durable. Failure here is non-fatal for
    // correctness (the file content is already consistent), so best-effort.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Load and verify the checkpoint at `path`, returning its payload bytes.
pub fn load(path: &Path) -> Result<Vec<u8>, CheckpointError> {
    let bytes = std::fs::read(path).map_err(io_err("read", path))?;
    if bytes.len() < HEADER_LEN {
        return Err(CheckpointError::Truncated {
            needed: HEADER_LEN,
            have: bytes.len(),
        });
    }
    if bytes[0..4] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let mut hdr = Reader::new(&bytes[4..HEADER_LEN]);
    let version = hdr.take_u32()?;
    if version != FORMAT_VERSION {
        return Err(CheckpointError::VersionMismatch {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let payload_len = hdr.take_u64()? as usize;
    let expected = hdr.take_u32()?;
    let have = bytes.len() - HEADER_LEN;
    if have != payload_len {
        return Err(CheckpointError::Truncated {
            needed: HEADER_LEN + payload_len,
            have: bytes.len(),
        });
    }
    let payload = &bytes[HEADER_LEN..];
    let found = crc32(payload);
    if found != expected {
        return Err(CheckpointError::BadCrc { expected, found });
    }
    Ok(payload.to_vec())
}

/// Like [`load`], but on a corrupt (or missing) primary falls back to the
/// retention copy `<path>.1`. Returns the payload together with the path it
/// was actually read from; the primary's error is surfaced when both fail.
pub fn load_with_fallback(path: &Path) -> Result<(Vec<u8>, PathBuf), CheckpointError> {
    let primary = match load(path) {
        Ok(payload) => return Ok((payload, path.to_path_buf())),
        Err(e) => e,
    };
    let fb = retention_path(path);
    match load(&fb) {
        Ok(payload) => Ok((payload, fb)),
        Err(_) => Err(primary),
    }
}

/// Cheap summary of a checkpoint, decodable without reconstructing the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotInfo {
    /// Completed iterations at snapshot time.
    pub iterations: u64,
    /// Elapsed virtual time at snapshot time.
    pub elapsed: f64,
}

/// Read a checkpoint's [`SnapshotInfo`] (CRC-verified; the payload's first
/// two fields are the iteration count and elapsed time by construction).
pub fn inspect(path: &Path) -> Result<SnapshotInfo, CheckpointError> {
    let payload = load(path)?;
    let mut r = Reader::new(&payload);
    Ok(SnapshotInfo {
        iterations: r.take_u64()?,
        elapsed: r.take_f64()?,
    })
}

/// Size of the on-disk frame for a given payload (header + payload bytes).
pub fn frame_len(payload: &[u8]) -> usize {
    HEADER_LEN + payload.len()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use stoch_eval::codec::Writer;

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("nsx-ckpt-test-{}-{name}", std::process::id()));
        p
    }

    fn payload() -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(7); // iterations
        w.put_f64(42.5); // elapsed
        w.put_bytes(b"state");
        w.into_bytes()
    }

    #[test]
    fn per_run_paths_do_not_clobber() {
        let base = CheckpointConfig::new(tmp_path("perrun"));
        let (a, b) = (base.for_run(1), base.for_run(2));
        assert_ne!(a.path, b.path);
        assert_ne!(a.fallback_path(), b.fallback_path());
        assert_ne!(a.fallback_path(), b.path);
        assert!(a.path.to_string_lossy().ends_with(".run1"));
        assert!(a.fallback_path().to_string_lossy().ends_with(".run1.1"));
        // Two runs checkpointing concurrently under one base path keep
        // private primary + retention pairs.
        for (cfg, tag) in [(&a, 1u8), (&b, 2u8)] {
            save(&cfg.path, cfg.retain, &[tag; 8]).unwrap();
            save(&cfg.path, cfg.retain, &[tag + 10; 8]).unwrap();
        }
        assert_eq!(load(&a.path).unwrap(), vec![11u8; 8]);
        assert_eq!(load(&a.fallback_path()).unwrap(), vec![1u8; 8]);
        assert_eq!(load(&b.path).unwrap(), vec![12u8; 8]);
        assert_eq!(load(&b.fallback_path()).unwrap(), vec![2u8; 8]);
        for p in [&a, &b] {
            let _ = std::fs::remove_file(&p.path);
            let _ = std::fs::remove_file(p.fallback_path());
        }
    }

    #[test]
    fn save_load_round_trip() {
        let p = tmp_path("roundtrip");
        save(&p, false, &payload()).unwrap();
        assert_eq!(load(&p).unwrap(), payload());
        let info = inspect(&p).unwrap();
        assert_eq!(info.iterations, 7);
        assert_eq!(info.elapsed, 42.5);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn truncated_file_is_typed_error() {
        let p = tmp_path("trunc");
        save(&p, false, &payload()).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        // Cut mid-payload: header intact, payload short.
        std::fs::write(&p, &bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(load(&p), Err(CheckpointError::Truncated { .. })));
        // Cut mid-header.
        std::fs::write(&p, &bytes[..10]).unwrap();
        assert!(matches!(load(&p), Err(CheckpointError::Truncated { .. })));
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn flipped_payload_bit_is_bad_crc() {
        let p = tmp_path("crc");
        save(&p, false, &payload()).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&p, &bytes).unwrap();
        assert!(matches!(load(&p), Err(CheckpointError::BadCrc { .. })));
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn version_and_magic_mismatches_are_typed() {
        let p = tmp_path("ver");
        save(&p, false, &payload()).unwrap();
        let good = std::fs::read(&p).unwrap();

        let mut v = good.clone();
        v[4] = 99; // version byte
        std::fs::write(&p, &v).unwrap();
        assert!(matches!(
            load(&p),
            Err(CheckpointError::VersionMismatch {
                found: 99,
                supported: FORMAT_VERSION
            })
        ));

        let mut m = good;
        m[0] = b'X';
        std::fs::write(&p, &m).unwrap();
        assert!(matches!(load(&p), Err(CheckpointError::BadMagic)));
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn missing_file_is_io_error() {
        let p = tmp_path("missing-never-created");
        assert!(matches!(load(&p), Err(CheckpointError::Io { .. })));
    }

    #[test]
    fn retention_keeps_previous_and_fallback_recovers() {
        let p = tmp_path("retain");
        let old = payload();
        let mut new = payload();
        new[0] ^= 0xFF; // different first byte → distinguishable payloads
        save(&p, true, &old).unwrap();
        save(&p, true, &new).unwrap();
        // Both generations on disk.
        assert_eq!(load(&p).unwrap(), new);
        assert_eq!(load(&retention_path(&p)).unwrap(), old);
        // Corrupt the primary → fallback serves the previous generation.
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[HEADER_LEN] ^= 0xFF;
        std::fs::write(&p, &bytes).unwrap();
        let (payload, from) = load_with_fallback(&p).unwrap();
        assert_eq!(payload, old);
        assert_eq!(from, retention_path(&p));
        // Both corrupt → the primary's error wins.
        std::fs::remove_file(retention_path(&p)).unwrap();
        assert!(matches!(
            load_with_fallback(&p),
            Err(CheckpointError::BadCrc { .. })
        ));
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn no_torn_frame_after_interrupted_write() {
        // Simulate kill-during-write: the tmp file holds a partial frame but
        // the target was never renamed — the previous checkpoint survives.
        let p = tmp_path("atomic");
        save(&p, false, &payload()).unwrap();
        let tmp = {
            let mut os = p.as_os_str().to_os_string();
            os.push(".tmp");
            PathBuf::from(os)
        };
        std::fs::write(&tmp, b"NSXC\x01partial").unwrap();
        assert_eq!(load(&p).unwrap(), payload(), "primary untouched by tmp");
        std::fs::remove_file(&p).unwrap();
        std::fs::remove_file(&tmp).unwrap();
    }

    #[test]
    fn env_grammar_parses() {
        let c = CheckpointConfig::parse("/tmp/run.ckpt").unwrap();
        assert_eq!(c.path, PathBuf::from("/tmp/run.ckpt"));
        assert_eq!(c.every, 1);
        assert!(c.retain);

        let c = CheckpointConfig::parse("/tmp/run.ckpt:every=5").unwrap();
        assert_eq!(c.every, 5);
        let c = CheckpointConfig::parse("/tmp/run.ckpt:keep=0:every=3").unwrap();
        assert_eq!(c.every, 3);
        assert!(!c.retain);

        assert!(CheckpointConfig::parse("").is_none());
        assert!(CheckpointConfig::parse("/tmp/x:every=0").is_none());
        assert!(CheckpointConfig::parse("/tmp/x:every=abc").is_none());
        assert!(CheckpointConfig::parse("/tmp/x:keep=2").is_none());
        assert!(CheckpointConfig::parse("/tmp/x:bogus").is_none());
    }

    #[test]
    fn unset_setting_means_no_checkpointing() {
        assert!(CheckpointConfig::from_setting(None).is_none());
    }

    #[test]
    #[should_panic(
        expected = "invalid NSX_CHECKPOINT='/tmp/x:every=0': expected <path>[:every=<N>][:keep=0|1] with N >= 1"
    )]
    fn malformed_setting_panics_naming_the_knob_and_value() {
        CheckpointConfig::from_setting(Some("/tmp/x:every=0"));
    }

    #[test]
    fn fallback_path_appends_suffix() {
        let c = CheckpointConfig::new("/a/b/run.ckpt");
        assert_eq!(c.fallback_path(), PathBuf::from("/a/b/run.ckpt.1"));
    }

    #[test]
    fn frame_len_counts_header() {
        assert_eq!(frame_len(&[0u8; 10]), 30);
    }
}
