//! The worker-process entry point.
//!
//! [`ProcessPool`](super::ProcessPool) spawns workers by re-executing the
//! *current binary* (`std::env::current_exe`) with [`WORKER_SOCKET_ENV`] set.
//! A pre-main constructor registered in `.init_array` checks for that
//! variable: when present, the process connects to the master's socket,
//! runs [`serve`] until told to stop, and exits without ever reaching
//! `main`. When absent (every normal invocation), the constructor is a
//! no-op costing one `getenv`.
//!
//! Re-exec keeps the worker's registry (see [`super::wire`]) exactly in sync
//! with the master's — they are the same binary — and needs no separate
//! worker executable shipped next to every test and bench bin.
//!
//! Injected chaos reaches the worker through [`WORKER_FAULTS_ENV`], carrying
//! the worker-side directives (`kill`/`delay`/`drop`) of the master's
//! [`FaultPlan`] re-rendered for slot 0; network
//! faults stay master-side in
//! [`FaultedTransport`](super::FaultedTransport).

use super::{wire, Frame, FrameKind, SocketTransport, Transport, TransportError};
use crate::faults::{FaultPlan, WorkerFault};
use std::time::Duration;

/// Env var holding the socket path a worker process must connect to.
pub const WORKER_SOCKET_ENV: &str = "NSX_WORKER_SOCKET";

/// Env var holding fault directives for a worker process (slot-0 grammar of
/// `NSX_FAULTS`, produced by `WorkerFault::to_worker_directives`).
pub const WORKER_FAULTS_ENV: &str = "NSX_WORKER_FAULTS";

/// Worker exit codes — distinct so the master's reaper can log *why* a
/// worker died, and the chaos tests can assert the death mode they injected.
pub mod exit {
    /// Clean shutdown: `Shutdown` frame received or master hung up.
    pub const OK: i32 = 0;
    /// Could not connect to the socket in [`super::WORKER_SOCKET_ENV`].
    pub const CONNECT: i32 = 10;
    /// The inbound byte stream failed frame validation.
    pub const CORRUPT: i32 = 11;
    /// A socket I/O error other than disconnection.
    pub const IO: i32 = 12;
    /// An injected `kill` fault fired (simulated crash).
    pub const KILLED: i32 = 13;
    /// The serve loop panicked (a bug, not a protocol event).
    pub const PANIC: i32 = 14;
}

/// Pre-main constructor: hijacks the process as a worker when
/// [`WORKER_SOCKET_ENV`] is set. `extern "C"` and registered in
/// `.init_array`, so it runs before `main` in every binary linking this
/// crate.
extern "C" fn worker_ctor() {
    if std::env::var_os(WORKER_SOCKET_ENV).is_none() {
        return;
    }
    // Never unwind across the C boundary; a panic in the serve loop becomes
    // a distinct exit code (the master sees EOF either way and respawns).
    let code = std::panic::catch_unwind(worker_main).unwrap_or(exit::PANIC);
    std::process::exit(code);
}

#[used]
#[link_section = ".init_array"]
static WORKER_CTOR: extern "C" fn() = worker_ctor;

/// Force the object file holding `WORKER_CTOR` into the final link.
/// `#[used]` keeps the symbol within its object file, but an unreferenced
/// object in an rlib archive can still be skipped by the linker; the process
/// pool calls this before spawning anything.
pub fn ensure_linked() {
    std::hint::black_box(WORKER_CTOR);
}

fn worker_main() -> i32 {
    let Some(path) = std::env::var_os(WORKER_SOCKET_ENV) else {
        return exit::OK;
    };
    let fault = std::env::var(WORKER_FAULTS_ENV)
        .ok()
        .and_then(|s| FaultPlan::parse(&s).ok())
        .map(|plan| plan.fault_for(0, 0))
        .unwrap_or_default();
    let Ok(transport) = SocketTransport::connect(std::path::Path::new(&path)) else {
        return exit::CONNECT;
    };
    serve(transport, fault)
}

/// The worker protocol loop: announce with `Hello(pid)`, then execute `Job`
/// frames until a `Shutdown` frame or peer hangup. Returns the process exit
/// code. Generic over [`Transport`] so the protocol is testable in-process
/// over [`channel_pair`](super::channel_pair) without spawning anything.
///
/// Replies leave in batches: the loop executes every frame already
/// buffered, then answers them with one [`Transport::send_all`]. Before a
/// job with an injected delay and before an injected kill it flushes the
/// replies it holds, so a straggler never holds back the rest of its batch.
pub fn serve<T: Transport>(mut t: T, fault: WorkerFault) -> i32 {
    let mut hello = stoch_eval::codec::Writer::new();
    hello.put_u64(std::process::id() as u64);
    if t.send(&Frame::new(FrameKind::Hello, 0, hello.into_bytes()))
        .is_err()
    {
        return exit::IO;
    }

    let mut executed: u64 = 0;
    let mut replies: Vec<Frame> = Vec::new();
    // Send what is held; `Err` carries the exit code for a dead link.
    let flush = |t: &mut T, replies: &mut Vec<Frame>| match t.send_all(&std::mem::take(replies)) {
        Ok(()) => Ok(()),
        Err(TransportError::Closed) => Err(exit::OK),
        Err(_) => Err(exit::IO),
    };
    loop {
        // Block only with nothing to answer; otherwise drain what is
        // buffered and flush once it runs dry.
        let wait = if replies.is_empty() {
            Duration::from_millis(200)
        } else {
            Duration::ZERO
        };
        let frame = match t.recv_timeout(wait) {
            Ok(Some(f)) => f,
            Ok(None) => match flush(&mut t, &mut replies) {
                Ok(()) => continue,
                Err(code) => return code,
            },
            // Replies still held are lost with the link; the master
            // re-dispatches their jobs from its backups.
            Err(TransportError::Closed) => return exit::OK,
            Err(TransportError::Corrupt(_)) => return exit::CORRUPT,
            Err(TransportError::Io(_)) => return exit::IO,
        };
        match frame.kind {
            FrameKind::Shutdown => {
                let _ = flush(&mut t, &mut replies);
                return exit::OK;
            }
            FrameKind::Job => {
                let kill = fault.kill_after.is_some_and(|k| executed >= k);
                let delay = fault.delay_for(executed);
                if kill || delay.is_some() {
                    if let Err(code) = flush(&mut t, &mut replies) {
                        return code;
                    }
                }
                if kill {
                    // Simulated crash with the job in hand: no reply, no
                    // shutdown handshake. The master sees EOF.
                    return exit::KILLED;
                }
                if let Some(d) = delay {
                    std::thread::sleep(d);
                }
                let job_idx = executed;
                executed += 1;
                let reply = match wire::execute_job(&frame.payload) {
                    Ok(result) => Frame::new(FrameKind::Result, frame.seq, result),
                    Err(e) => Frame::new(FrameKind::Error, frame.seq, e.to_string().into_bytes()),
                };
                if fault.drop_at != Some(job_idx) {
                    replies.push(reply); // else executed, result discarded
                }
            }
            // Heartbeat probe: echo the seq so the master can match the
            // reply to its outstanding Ping (DESIGN.md §16). Injected delay
            // faults intentionally do NOT apply here — they model slow
            // *jobs*, and a delayed worker is alive, not dead.
            FrameKind::Ping => replies.push(Frame::new(FrameKind::Pong, frame.seq, vec![])),
            // Hello/Result/Error/Pong are master-bound; receiving one here
            // means the peer is confused. Ignore rather than die — the
            // master's per-attempt timeout owns recovery policy.
            FrameKind::Hello | FrameKind::Result | FrameKind::Error | FrameKind::Pong => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{channel_pair, wire};
    use stoch_eval::codec::{Reader, Writer};
    use stoch_eval::objective::SampleStream;
    use stoch_eval::sampler::GaussianStream;

    fn state_of(s: &GaussianStream) -> Vec<u8> {
        let mut w = Writer::new();
        s.save_state(&mut w).unwrap();
        w.into_bytes()
    }

    /// Run `serve` on the far end of an in-process pair.
    fn spawn_serve(
        fault: WorkerFault,
    ) -> (
        crate::transport::ChannelTransport,
        std::thread::JoinHandle<i32>,
    ) {
        let (master, worker) = channel_pair();
        let handle = std::thread::spawn(move || serve(worker, fault));
        (master, handle)
    }

    fn expect_hello(master: &mut crate::transport::ChannelTransport) {
        let f = master
            .recv_timeout(Duration::from_secs(1))
            .unwrap()
            .unwrap();
        assert_eq!(f.kind, FrameKind::Hello);
        let mut r = Reader::new(&f.payload);
        assert_eq!(r.take_u64().unwrap(), std::process::id() as u64);
    }

    #[test]
    fn serve_executes_jobs_and_shuts_down() {
        let (mut master, handle) = spawn_serve(WorkerFault::default());
        expect_hello(&mut master);

        let mut local = GaussianStream::new(2.0, 1.0, 5);
        let payload = wire::encode_job("gaussian.v1", 0, 3.0, &state_of(&local));
        master
            .send(&Frame::new(FrameKind::Job, 42, payload))
            .unwrap();
        let reply = master
            .recv_timeout(Duration::from_secs(1))
            .unwrap()
            .unwrap();
        assert_eq!(reply.kind, FrameKind::Result);
        assert_eq!(reply.seq, 42);
        local.extend(3.0);
        let res = wire::decode_result(&reply.payload).unwrap();
        assert_eq!(res.state, state_of(&local));

        master
            .send(&Frame::new(FrameKind::Shutdown, 0, vec![]))
            .unwrap();
        assert_eq!(handle.join().unwrap(), exit::OK);
    }

    /// Three jobs queued before the worker starts, so it finds them
    /// buffered back to back.
    fn serve_three_queued_jobs(fault: WorkerFault) -> (Vec<Frame>, Vec<Duration>, Vec<u8>) {
        let (mut master, worker) = channel_pair();
        let local = GaussianStream::new(2.0, 1.0, 5);
        let jobs: Vec<Frame> = (10..13u64)
            .map(|seq| {
                let payload = wire::encode_job("gaussian.v1", seq, 1.5, &state_of(&local));
                Frame::new(FrameKind::Job, seq, payload)
            })
            .collect();
        master.send_all(&jobs).unwrap();
        let t0 = std::time::Instant::now();
        let handle = std::thread::spawn(move || serve(worker, fault));
        expect_hello(&mut master);
        let mut replies = Vec::new();
        let mut arrived = Vec::new();
        for _ in 0..3 {
            let f = master
                .recv_timeout(Duration::from_secs(5))
                .unwrap()
                .unwrap();
            arrived.push(t0.elapsed());
            replies.push(f);
        }
        master
            .send(&Frame::new(FrameKind::Shutdown, 0, vec![]))
            .unwrap();
        assert_eq!(handle.join().unwrap(), exit::OK);
        let mut extended = local;
        extended.extend(1.5);
        (replies, arrived, state_of(&extended))
    }

    #[test]
    fn serve_answers_back_to_back_jobs_in_seq_order() {
        let (replies, _, want) = serve_three_queued_jobs(WorkerFault::default());
        let seqs: Vec<u64> = replies.iter().map(|f| f.seq).collect();
        assert_eq!(seqs, vec![10, 11, 12]);
        for (f, slot) in replies.iter().zip(10u64..) {
            assert_eq!(f.kind, FrameKind::Result);
            let res = wire::decode_result(&f.payload).unwrap();
            assert_eq!(res.slot, slot);
            assert_eq!(res.state, want);
        }
    }

    #[test]
    fn delayed_job_flushes_earlier_replies_before_it_sleeps() {
        let fault = WorkerFault {
            delay: Some(crate::faults::Delay {
                after: 1,
                millis: 400,
            }),
            ..WorkerFault::default()
        };
        let (replies, arrived, _) = serve_three_queued_jobs(fault);
        let seqs: Vec<u64> = replies.iter().map(|f| f.seq).collect();
        assert_eq!(seqs, vec![10, 11, 12]);
        // Job 10 is answered before job 11's sleep starts; held back it
        // would arrive after both sleeps.
        assert!(arrived[0] < Duration::from_millis(300), "{arrived:?}");
        assert!(arrived[2] >= Duration::from_millis(800), "{arrived:?}");
    }

    #[test]
    fn serve_reports_unknown_wire_id_as_error_frame() {
        let (mut master, handle) = spawn_serve(WorkerFault::default());
        expect_hello(&mut master);
        let payload = wire::encode_job("martian.v9", 0, 1.0, b"");
        master
            .send(&Frame::new(FrameKind::Job, 7, payload))
            .unwrap();
        let reply = master
            .recv_timeout(Duration::from_secs(1))
            .unwrap()
            .unwrap();
        assert_eq!(reply.kind, FrameKind::Error);
        assert_eq!(reply.seq, 7);
        assert!(String::from_utf8(reply.payload)
            .unwrap()
            .contains("martian"));
        drop(master); // hangup => clean exit
        assert_eq!(handle.join().unwrap(), exit::OK);
    }

    #[test]
    fn ping_is_answered_with_pong_echoing_seq() {
        let (mut master, handle) = spawn_serve(WorkerFault::default());
        expect_hello(&mut master);
        master
            .send(&Frame::new(FrameKind::Ping, 99, vec![]))
            .unwrap();
        let reply = master
            .recv_timeout(Duration::from_secs(1))
            .unwrap()
            .unwrap();
        assert_eq!(reply.kind, FrameKind::Pong);
        assert_eq!(reply.seq, 99);
        assert!(reply.payload.is_empty());
        master
            .send(&Frame::new(FrameKind::Shutdown, 0, vec![]))
            .unwrap();
        assert_eq!(handle.join().unwrap(), exit::OK);
    }

    #[test]
    fn kill_fault_dies_with_job_in_hand() {
        let fault = WorkerFault {
            kill_after: Some(1),
            ..WorkerFault::default()
        };
        let (mut master, handle) = spawn_serve(fault);
        expect_hello(&mut master);
        let local = GaussianStream::new(1.0, 1.0, 1);
        for seq in 0..2u64 {
            let payload = wire::encode_job("gaussian.v1", seq, 1.0, &state_of(&local));
            master
                .send(&Frame::new(FrameKind::Job, seq, payload))
                .unwrap();
        }
        // First job answered, second lost to the crash.
        let reply = master
            .recv_timeout(Duration::from_secs(1))
            .unwrap()
            .unwrap();
        assert_eq!(reply.seq, 0);
        assert_eq!(handle.join().unwrap(), exit::KILLED);
        assert_eq!(
            master.recv_timeout(Duration::from_millis(10)),
            Err(TransportError::Closed)
        );
    }

    #[test]
    fn drop_fault_executes_but_stays_silent() {
        let fault = WorkerFault {
            drop_at: Some(0),
            ..WorkerFault::default()
        };
        let (mut master, handle) = spawn_serve(fault);
        expect_hello(&mut master);
        let local = GaussianStream::new(1.0, 1.0, 9);
        for seq in 0..2u64 {
            let payload = wire::encode_job("gaussian.v1", seq, 1.0, &state_of(&local));
            master
                .send(&Frame::new(FrameKind::Job, seq, payload))
                .unwrap();
        }
        // Only the second job replies.
        let reply = master
            .recv_timeout(Duration::from_secs(1))
            .unwrap()
            .unwrap();
        assert_eq!(reply.seq, 1);
        master
            .send(&Frame::new(FrameKind::Shutdown, 0, vec![]))
            .unwrap();
        assert_eq!(handle.join().unwrap(), exit::OK);
    }
}
