//! The wire frame: a versioned, CRC-guarded envelope around every message
//! (DESIGN.md §12).
//!
//! Layout (all integers little-endian, built with `stoch-eval::codec`):
//!
//! ```text
//! magic   u32   0x4658_534E ("NSXF")
//! version u32   WIRE_VERSION (1)
//! kind    u8    FrameKind discriminant
//! seq     u64   job sequence number (0 for unsolicited frames)
//! len     u64   payload length in bytes
//! payload [u8; len]
//! crc     u32   CRC-32 (IEEE) of every preceding byte of the frame
//! ```
//!
//! Decoding is *streaming*: [`FrameBuffer`] accumulates bytes from partial
//! socket reads and yields complete frames, reporting every malformation as
//! a typed [`FrameError`] — corruption can sever a link but can never
//! surface as a silently wrong payload (the CRC covers header and payload
//! alike, and payload length is bounded before any allocation).

use stoch_eval::codec::crc32;

/// Frame magic: `"NSXF"` read as a little-endian `u32`.
pub const FRAME_MAGIC: u32 = u32::from_le_bytes(*b"NSXF");

/// Wire protocol version. Bump on any incompatible change to the frame
/// layout or the payload schemas in [`super::wire`]; a master and worker
/// disagreeing on the version refuse to talk (typed
/// [`FrameError::BadVersion`]) instead of mis-decoding each other.
pub const WIRE_VERSION: u32 = 1;

/// Fixed-size prefix before the payload: magic + version + kind + seq + len.
const HEADER_LEN: usize = 4 + 4 + 1 + 8 + 8;

/// Trailing CRC-32 size.
const CRC_LEN: usize = 4;

/// Upper bound on a payload, checked before buffering or allocating. Stream
/// states are a few hundred bytes; this bound exists so a corrupt length
/// field cannot make the decoder buffer gigabytes waiting for a frame that
/// never completes.
pub const MAX_PAYLOAD: u64 = 16 * 1024 * 1024;

/// What a frame means. The discriminants are the on-wire `kind` byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Worker → master, once per connection: the worker is alive and speaks
    /// this protocol version (payload: worker pid as `u64`).
    Hello = 0,
    /// Master → worker: execute one stream extension (payload: see
    /// [`super::wire::encode_job`]).
    Job = 1,
    /// Worker → master: a completed extension (payload: see
    /// [`super::wire::encode_result`]).
    Result = 2,
    /// Worker → master: the job could not be executed (unknown wire id,
    /// undecodable state). Payload: UTF-8 error message. The master falls
    /// back to executing that job inline — a typed refusal, never a guess.
    Error = 3,
    /// Master → worker: drain and exit cleanly.
    Shutdown = 4,
    /// Master → worker: liveness probe (empty payload). A healthy worker
    /// answers with a [`Pong`](FrameKind::Pong) echoing the seq; silence
    /// past the heartbeat deadline buries the link (DESIGN.md §16).
    Ping = 5,
    /// Worker → master: heartbeat reply echoing the Ping's seq.
    Pong = 6,
}

impl FrameKind {
    fn from_tag(tag: u8) -> Result<Self, FrameError> {
        Ok(match tag {
            0 => FrameKind::Hello,
            1 => FrameKind::Job,
            2 => FrameKind::Result,
            3 => FrameKind::Error,
            4 => FrameKind::Shutdown,
            5 => FrameKind::Ping,
            6 => FrameKind::Pong,
            _ => return Err(FrameError::BadKind { tag }),
        })
    }
}

/// A typed frame-validation failure. Every variant is a hard link error:
/// the byte stream can no longer be trusted to be aligned on frame
/// boundaries, so the owning transport reports
/// [`Corrupt`](super::TransportError::Corrupt) and the link is torn down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The next four bytes are not the frame magic (stream desync).
    BadMagic {
        /// The bytes found where the magic belonged.
        got: u32,
    },
    /// The peer speaks a different protocol version.
    BadVersion {
        /// The version the peer declared.
        got: u32,
    },
    /// The kind byte names no known frame kind.
    BadKind {
        /// The offending kind byte.
        tag: u8,
    },
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    TooLarge {
        /// The declared length.
        len: u64,
    },
    /// The frame's CRC-32 does not match its bytes.
    BadCrc {
        /// CRC computed over the received bytes.
        computed: u32,
        /// CRC stored in the frame.
        stored: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic { got } => write!(f, "bad frame magic {got:#010x}"),
            FrameError::BadVersion { got } => {
                write!(
                    f,
                    "unsupported wire version {got} (expected {WIRE_VERSION})"
                )
            }
            FrameError::BadKind { tag } => write!(f, "unknown frame kind {tag}"),
            FrameError::TooLarge { len } => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the {MAX_PAYLOAD} cap"
                )
            }
            FrameError::BadCrc { computed, stored } => {
                write!(
                    f,
                    "frame CRC mismatch: computed {computed:#010x}, stored {stored:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// One message on the wire. See [`FrameKind`] for the payload schemas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the frame means.
    pub kind: FrameKind,
    /// Job sequence number: results and errors echo the seq of the job they
    /// answer, which is how the master matches replies to pending work (and
    /// discards stale replies from abandoned attempts).
    pub seq: u64,
    /// Kind-specific payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A frame with the given kind, sequence number, and payload.
    pub fn new(kind: FrameKind, seq: u64, payload: Vec<u8>) -> Self {
        Frame { kind, seq, payload }
    }

    /// Encoded size in bytes (header + payload + CRC).
    pub fn encoded_len(&self) -> usize {
        HEADER_LEN + self.payload.len() + CRC_LEN
    }

    /// Serialize to wire bytes (see the module docs for the layout).
    pub fn encode(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut bytes);
        bytes
    }

    /// Append the wire bytes to `out`, so several frames can leave in one
    /// write.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.reserve(self.encoded_len());
        out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        out.push(self.kind as u8);
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.payload);
        let crc = crc32(&out[start..]);
        out.extend_from_slice(&crc.to_le_bytes());
    }
}

fn read_u32(buf: &[u8], at: usize) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&buf[at..at + 4]);
    u32::from_le_bytes(a)
}

fn read_u64(buf: &[u8], at: usize) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&buf[at..at + 8]);
    u64::from_le_bytes(a)
}

/// Streaming frame decoder: feed it byte chunks as they arrive (partial
/// reads included) and take complete frames out. All validation lives here,
/// so every transport shares the same corruption behaviour.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Append received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a decoded frame.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Decode the next complete frame, if the buffer holds one.
    ///
    /// `Ok(None)` means "need more bytes"; `Err` means the stream is
    /// corrupt at the current position and the link must be abandoned
    /// (there is no reliable way to re-synchronize a byte stream whose
    /// framing has been violated).
    pub fn try_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        if self.buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let magic = read_u32(&self.buf, 0);
        if magic != FRAME_MAGIC {
            return Err(FrameError::BadMagic { got: magic });
        }
        let version = read_u32(&self.buf, 4);
        if version != WIRE_VERSION {
            return Err(FrameError::BadVersion { got: version });
        }
        let payload_len = read_u64(&self.buf, 17);
        if payload_len > MAX_PAYLOAD {
            return Err(FrameError::TooLarge { len: payload_len });
        }
        let total = HEADER_LEN + payload_len as usize + CRC_LEN;
        if self.buf.len() < total {
            return Ok(None);
        }
        let stored = read_u32(&self.buf, total - CRC_LEN);
        let computed = crc32(&self.buf[..total - CRC_LEN]);
        if computed != stored {
            return Err(FrameError::BadCrc { computed, stored });
        }
        // Kind is validated after the CRC: a flipped kind bit reports as
        // corruption (which it is) rather than an unknown-kind protocol
        // error from a peer that never sent one.
        let kind = FrameKind::from_tag(self.buf[8])?;
        let seq = read_u64(&self.buf, 9);
        let payload = self.buf[HEADER_LEN..HEADER_LEN + payload_len as usize].to_vec();
        self.buf.drain(..total);
        Ok(Some(Frame { kind, seq, payload }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(seq: u64, payload: &[u8]) -> Frame {
        Frame::new(FrameKind::Job, seq, payload.to_vec())
    }

    #[test]
    fn encode_decode_round_trip() {
        let f = frame(42, b"state bytes");
        let bytes = f.encode();
        assert_eq!(bytes.len(), f.encoded_len());
        let mut fb = FrameBuffer::new();
        fb.extend(&bytes);
        assert_eq!(fb.try_frame().unwrap(), Some(f));
        assert_eq!(fb.try_frame().unwrap(), None);
        assert_eq!(fb.pending_bytes(), 0);
    }

    #[test]
    fn partial_reads_reassemble() {
        let f = frame(7, &[9u8; 100]);
        let bytes = f.encode();
        let mut fb = FrameBuffer::new();
        // Dribble one byte at a time: no chunk boundary may confuse it.
        for (i, b) in bytes.iter().enumerate() {
            fb.extend(std::slice::from_ref(b));
            let got = fb.try_frame().unwrap();
            if i + 1 < bytes.len() {
                assert_eq!(got, None, "frame complete too early at byte {i}");
            } else {
                assert_eq!(got, Some(f.clone()));
            }
        }
    }

    #[test]
    fn back_to_back_frames_both_decode() {
        let a = frame(1, b"a");
        let b = Frame::new(FrameKind::Result, 2, b"bb".to_vec());
        let mut bytes = a.encode();
        bytes.extend(b.encode());
        let mut fb = FrameBuffer::new();
        fb.extend(&bytes);
        assert_eq!(fb.try_frame().unwrap(), Some(a));
        assert_eq!(fb.try_frame().unwrap(), Some(b));
        assert_eq!(fb.try_frame().unwrap(), None);
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = frame(1, b"x").encode();
        bytes[0] ^= 0xFF;
        let mut fb = FrameBuffer::new();
        fb.extend(&bytes);
        assert!(matches!(fb.try_frame(), Err(FrameError::BadMagic { .. })));
    }

    #[test]
    fn bad_version_is_typed() {
        let mut bytes = frame(1, b"x").encode();
        bytes[4] = 99;
        let mut fb = FrameBuffer::new();
        fb.extend(&bytes);
        assert!(matches!(
            fb.try_frame(),
            Err(FrameError::BadVersion { got: 99 })
        ));
    }

    #[test]
    fn oversize_payload_rejected_before_allocation() {
        let mut bytes = frame(1, b"x").encode();
        bytes[17..25].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut fb = FrameBuffer::new();
        fb.extend(&bytes);
        assert!(matches!(fb.try_frame(), Err(FrameError::TooLarge { .. })));
    }

    #[test]
    fn payload_corruption_fails_crc() {
        let mut bytes = frame(1, &[5u8; 32]).encode();
        let payload_byte = HEADER_LEN + 3;
        bytes[payload_byte] ^= 0x01;
        let mut fb = FrameBuffer::new();
        fb.extend(&bytes);
        assert!(matches!(fb.try_frame(), Err(FrameError::BadCrc { .. })));
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        // Exhaustive single-bit-flip sweep over a whole frame: every flip
        // must produce a typed error (or, for flips that enlarge the
        // declared length, "need more bytes" — never a wrong payload).
        let f = frame(3, b"abcdef");
        let clean = f.encode();
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut dirty = clean.clone();
                dirty[byte] ^= 1 << bit;
                let mut fb = FrameBuffer::new();
                fb.extend(&dirty);
                match fb.try_frame() {
                    Err(_) => {}
                    Ok(None) => {
                        // A length-field flip can claim more payload than
                        // sent; the decoder waits for bytes that never come
                        // (bounded by MAX_PAYLOAD). Acceptable: no frame was
                        // delivered.
                        assert!(
                            (17..25).contains(&byte),
                            "byte {byte} bit {bit}: silently incomplete"
                        );
                    }
                    Ok(Some(got)) => {
                        panic!("byte {byte} bit {bit}: corrupt frame decoded as {got:?}")
                    }
                }
            }
        }
    }
}
