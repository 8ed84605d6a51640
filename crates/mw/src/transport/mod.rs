//! The master–worker message layer: how master and workers exchange
//! frames (DESIGN.md §12).
//!
//! The paper's MW deployment runs master and workers as separate MPI ranks
//! on a cluster; everything in this workspace so far substitutes threads and
//! channels. This module cuts that substitution at a seam: a [`Transport`]
//! moves opaque [`Frame`]s between a master endpoint and one worker
//! endpoint, and two implementations are provided —
//!
//! * [`ChannelTransport`] — the existing in-process story: frames travel as
//!   encoded bytes over a `crossbeam` channel pair (the codec still runs, so
//!   the wire format is exercised without any OS plumbing);
//! * [`SocketTransport`] — a Unix-domain socket to a real worker *process*
//!   spawned by [`ProcessPool`], which is how `BENCH_dist.json` shows
//!   scale-up past a single process's thread count.
//!
//! The frame format reuses the PR-5 checkpoint codec (`stoch-eval::codec`):
//! little-endian fields, `f64` as raw bits, length-prefixed payloads, and a
//! trailing CRC-32 — see [`frame`]. Stream state crosses the wire via
//! `SampleStream::save_state`/`load_state`, which are bit-exact, so a job
//! executed in another process returns the same bits the calling thread
//! would have produced; see [`wire`].
//!
//! Network chaos is injected master-side by [`FaultedTransport`], driven by
//! the `netdelay`/`netdrop`/`partition`/`reorder` directives of
//! [`crate::faults::FaultPlan`]. Lost frames are recovered by the
//! per-attempt timeout + retry machinery of the dispatch loop that
//! [`ProcessBackend`] shares with the threaded backend, which re-dispatches
//! from master-side stream backups — so every survivable fault plan is
//! invisible in the results.

pub mod frame;
pub mod inproc;
pub mod process;
pub mod socket;
pub mod wire;
pub mod worker;

pub use frame::{Frame, FrameBuffer, FrameError, FrameKind, WIRE_VERSION};
pub use inproc::{channel_pair, ChannelTransport};
pub use process::{ProcessBackend, ProcessPool};
pub use socket::SocketTransport;

use crate::faults::NetFault;
use std::time::Duration;

/// A transport-layer failure. Corruption is always *typed* — a damaged
/// frame can make a link unusable, never a silently wrong sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer is gone: socket EOF, broken pipe, or a dropped channel.
    /// For a worker link this is the process-level analogue of
    /// [`crate::pool::WorkerLost`].
    Closed,
    /// An I/O error other than disconnection.
    Io(std::io::ErrorKind),
    /// The byte stream failed frame validation (bad magic, version, CRC,
    /// ...). The link is desynchronized and must be torn down; the master
    /// recovers by respawning the worker and retrying from backups.
    Corrupt(FrameError),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed => write!(f, "transport peer disconnected"),
            TransportError::Io(kind) => write!(f, "transport I/O error: {kind:?}"),
            TransportError::Corrupt(e) => write!(f, "corrupt frame on transport: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<FrameError> for TransportError {
    fn from(e: FrameError) -> Self {
        TransportError::Corrupt(e)
    }
}

/// Moves frames between one master endpoint and one worker endpoint.
///
/// Implementations deliver frames reliably and in order on a healthy link
/// (both sides of the seam are stream-oriented); unreliability is modelled
/// explicitly by [`FaultedTransport`], and recovery lives one layer up in
/// the dispatch loop behind [`ProcessBackend`].
pub trait Transport: Send {
    /// Send one frame. [`TransportError::Closed`] when the peer is gone.
    fn send(&mut self, frame: &Frame) -> Result<(), TransportError>;

    /// Send `frames` back to back, in order. The default sends them one at
    /// a time; a transport that can put them on the wire in one write
    /// overrides it.
    fn send_all(&mut self, frames: &[Frame]) -> Result<(), TransportError> {
        frames.iter().try_for_each(|f| self.send(f))
    }

    /// Receive the next frame, waiting at most `timeout`. `Ok(None)` on
    /// timeout (the link is healthy, nothing arrived yet).
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Frame>, TransportError>;
}

impl<T: Transport + ?Sized> Transport for Box<T> {
    fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        (**self).send(frame)
    }

    fn send_all(&mut self, frames: &[Frame]) -> Result<(), TransportError> {
        (**self).send_all(frames)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Frame>, TransportError> {
        (**self).recv_timeout(timeout)
    }
}

/// Wraps a transport with outbound [`NetFault`] injection: delayed, dropped,
/// partitioned (black-holed window), or reordered sends. Inbound frames are
/// untouched — the partition is *half-open*, the nastier case for a master
/// that must decide whether a silent worker is dead or unreachable.
pub struct FaultedTransport<T> {
    inner: T,
    net: NetFault,
    sent: u64,
    /// A frame held back by `reorder`: delivered after the next send. If no
    /// further send happens it is never delivered — a reorder at the tail of
    /// a burst degenerates to a drop, which the retry layer absorbs.
    held: Option<Frame>,
}

impl<T: Transport> FaultedTransport<T> {
    /// Wrap `inner`, injecting `net` on outbound frames (counted from the
    /// next send).
    pub fn new(inner: T, net: NetFault) -> Self {
        FaultedTransport {
            inner,
            net,
            sent: 0,
            held: None,
        }
    }

    /// Outbound frames attempted so far (including swallowed ones).
    pub fn sent(&self) -> u64 {
        self.sent
    }
}

impl<T: Transport> Transport for FaultedTransport<T> {
    fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        let idx = self.sent;
        self.sent += 1;
        if self.net.swallows(idx) {
            // Dropped or partitioned: the bytes never leave the master. The
            // caller sees success — exactly what a lost datagram looks like.
            return Ok(());
        }
        if let Some(d) = self.net.delay_for(idx) {
            std::thread::sleep(d);
        }
        if self.net.reorder_at == Some(idx) {
            self.held = Some(frame.clone());
            return Ok(());
        }
        self.inner.send(frame)?;
        if let Some(h) = self.held.take() {
            self.inner.send(&h)?;
        }
        Ok(())
    }

    /// One write when no fault is armed; otherwise frame by frame, so the
    /// fault indices keep counting frames.
    fn send_all(&mut self, frames: &[Frame]) -> Result<(), TransportError> {
        if !self.net.is_none() {
            return frames.iter().try_for_each(|f| self.send(f));
        }
        self.sent += frames.len() as u64;
        self.inner.send_all(frames)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Frame>, TransportError> {
        self.inner.recv_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faulted_transport_drops_delays_and_reorders() {
        let (mut a, b) = channel_pair();
        let net = NetFault {
            drop_at: Some(1),
            reorder_at: Some(2),
            ..NetFault::default()
        };
        let mut faulted = FaultedTransport::new(b, net);
        for seq in 0..4u64 {
            faulted
                .send(&Frame::new(FrameKind::Job, seq, vec![seq as u8]))
                .unwrap();
        }
        // Frame 1 dropped; frame 2 held and delivered after frame 3.
        let got: Vec<u64> = std::iter::from_fn(|| {
            a.recv_timeout(Duration::from_millis(50))
                .unwrap()
                .map(|f| f.seq)
        })
        .collect();
        assert_eq!(got, vec![0, 3, 2]);
    }

    /// What arrives when four frames go out through `net`, one `send` each
    /// or in one `send_all`.
    fn delivered(net: NetFault, batched: bool) -> Vec<u64> {
        let (mut a, b) = channel_pair();
        let mut faulted = FaultedTransport::new(b, net);
        let frames: Vec<Frame> = (0..4u64)
            .map(|seq| Frame::new(FrameKind::Job, seq, vec![seq as u8]))
            .collect();
        if batched {
            faulted.send_all(&frames).unwrap();
        } else {
            frames.iter().for_each(|f| faulted.send(f).unwrap());
        }
        assert_eq!(faulted.sent(), 4);
        std::iter::from_fn(|| {
            a.recv_timeout(Duration::from_millis(50))
                .unwrap()
                .map(|f| f.seq)
        })
        .collect()
    }

    #[test]
    fn send_all_counts_faults_per_frame_like_single_sends() {
        let armed = [
            NetFault::default(),
            NetFault {
                drop_at: Some(1),
                ..NetFault::default()
            },
            NetFault {
                reorder_at: Some(2),
                ..NetFault::default()
            },
            NetFault {
                partition: Some((1, 2)),
                ..NetFault::default()
            },
        ];
        for net in armed {
            assert_eq!(delivered(net, true), delivered(net, false), "{net:?}");
        }
        assert_eq!(delivered(armed[0], true), vec![0, 1, 2, 3]);
    }

    #[test]
    fn partition_black_holes_a_window() {
        let (mut a, b) = channel_pair();
        let net = NetFault {
            partition: Some((1, 2)),
            ..NetFault::default()
        };
        let mut faulted = FaultedTransport::new(b, net);
        for seq in 0..4u64 {
            faulted
                .send(&Frame::new(FrameKind::Job, seq, vec![]))
                .unwrap();
        }
        let got: Vec<u64> = std::iter::from_fn(|| {
            a.recv_timeout(Duration::from_millis(50))
                .unwrap()
                .map(|f| f.seq)
        })
        .collect();
        assert_eq!(got, vec![0, 3]);
        assert_eq!(faulted.sent(), 4);
    }
}
