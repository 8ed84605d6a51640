//! Spans held in memory, the timing decorators that record them from
//! outside the system, and the Chrome trace-event writer.
//!
//! Nothing here reaches into a crate. [`TimedBackend`] wraps any
//! `SamplingBackend` (passed in through `RunSession::with_backend` or
//! `Scheduler::new`); [`TimedObjective`] wraps an objective so that every
//! `SampleStream::extend` of the streams it opens is timed where it runs, on
//! the caller or on a worker thread. Streams shipped to worker processes are
//! never wrapped: their wire path is timed by replay (see `layers`).

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use stoch_eval::backend::{SamplingBackend, StreamJob};
use stoch_eval::codec::{CodecError, Reader, Writer};
use stoch_eval::objective::{Estimate, SampleStream, StochasticObjective};
use stoch_eval::stats::{EstimatorChoice, TailReport};

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One timed pass over a workload.
    Pass,
    /// One closed-loop optimization run.
    Run,
    /// One `RunSession::step`.
    Step,
    /// One `Scheduler::tick`.
    Tick,
    /// One `SamplingBackend::extend_batch`.
    Batch,
    /// One `SampleStream::extend`.
    Job,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Pass => "pass",
            Kind::Run => "run",
            Kind::Step => "step",
            Kind::Tick => "tick",
            Kind::Batch => "batch",
            Kind::Job => "job",
        }
    }
}

/// One timed interval. `parent` is the span that caused it; `run` is the run
/// it belongs to (0 where one batch merges many runs).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    pub id: u64,
    pub parent: u64,
    pub run: u64,
    pub jobs: u64,
    pub tid: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
/// Spans kept in memory; past it, spans are only counted. A traced pass of
/// sub-microsecond extends would otherwise hold gigabytes.
const MAX_KEPT: u64 = 1_000_000;
static RECORDED: [AtomicU64; 6] = [const { AtomicU64::new(0) }; 6];
/// The step or tick the master is blocked in; batches dispatched meanwhile
/// are its children.
pub static PARENT: AtomicU64 = AtomicU64::new(0);
/// The closed-loop run in flight (0 in the fleet).
pub static RUN: AtomicU64 = AtomicU64::new(0);
/// The batch in flight; jobs extended meanwhile are its children. The master
/// blocks while a batch is out, so there is one at a time.
static BATCH: AtomicU64 = AtomicU64::new(0);
/// Every thread's span buffer, kept past the thread's exit.
static SINKS: Mutex<Vec<Arc<Mutex<Vec<Span>>>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: (u64, Arc<Mutex<Vec<Span>>>) = {
        let sink = Arc::new(Mutex::new(Vec::new()));
        SINKS.lock().expect("span registry poisoned").push(Arc::clone(&sink));
        (NEXT_TID.fetch_add(1, Ordering::Relaxed), sink)
    };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the first span clock read of the process.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

pub fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Close a span that started at `start_ns` (a [`now_ns`] reading).
pub fn record(kind: Kind, start_ns: u64, id: u64, parent: u64, run: u64, jobs: u64) {
    let dur_ns = now_ns().saturating_sub(start_ns);
    let total: u64 = RECORDED.iter().map(|c| c.load(Ordering::Relaxed)).sum();
    RECORDED[kind as usize].fetch_add(1, Ordering::Relaxed);
    if total >= MAX_KEPT {
        return;
    }
    LOCAL.with(|(tid, sink)| {
        sink.lock().expect("span buffer poisoned").push(Span {
            kind,
            id,
            parent,
            run,
            jobs,
            tid: *tid,
            start_ns,
            dur_ns,
        })
    });
}

/// How many `kind` spans were recorded, kept or not.
pub fn recorded(kind: Kind) -> u64 {
    RECORDED[kind as usize].load(Ordering::Relaxed)
}

/// Take every span kept so far, in start order.
pub fn drain() -> Vec<Span> {
    let sinks = SINKS.lock().expect("span registry poisoned");
    let mut all: Vec<Span> = sinks
        .iter()
        .flat_map(|s| std::mem::take(&mut *s.lock().expect("span buffer poisoned")))
        .collect();
    all.sort_by_key(|s| s.start_ns);
    all
}

/// Spans written to a trace file: enough to see a pass's shape in Perfetto.
const MAX_WRITTEN: usize = 200_000;

/// Write the first spans as Chrome trace-event JSON (complete events, µs),
/// which Perfetto and `chrome://tracing` open.
pub fn write_chrome(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let spans = &spans[..spans.len().min(MAX_WRITTEN)];
    let mut s = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, sp) in spans.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"run\":{},\"jobs\":{}}}}}",
            if i == 0 { "" } else { "," },
            sp.kind.name(),
            sp.tid,
            sp.start_ns as f64 / 1e3,
            sp.dur_ns as f64 / 1e3,
            sp.id,
            sp.parent,
            sp.run,
            sp.jobs
        );
    }
    s.push_str("\n]}\n");
    std::fs::write(path, s)
}

/// A stream whose every `extend` is recorded as a job span, wherever it runs.
/// Everything else, persistence included, is the inner stream's.
#[derive(Debug, Clone)]
pub struct Timed<S>(pub S);

impl<S: SampleStream> SampleStream for Timed<S> {
    fn extend(&mut self, dt: f64) {
        let t0 = now_ns();
        self.0.extend(dt);
        record(
            Kind::Job,
            t0,
            0,
            BATCH.load(Ordering::Relaxed),
            RUN.load(Ordering::Relaxed),
            1,
        );
    }

    fn estimate(&self) -> Estimate {
        self.0.estimate()
    }

    fn save_state(&self, w: &mut Writer) -> Result<(), CodecError> {
        self.0.save_state(w)
    }

    fn load_state(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        S::load_state(r).map(Timed)
    }

    fn wire_id() -> Option<&'static str> {
        S::wire_id()
    }

    fn tail_report(&self) -> Option<TailReport> {
        self.0.tail_report()
    }

    fn set_estimator(&mut self, choice: EstimatorChoice) {
        self.0.set_estimator(choice)
    }

    fn nonfinite_samples(&self) -> u64 {
        self.0.nonfinite_samples()
    }
}

/// An objective whose streams are [`Timed`].
pub struct TimedObjective<'a, F>(pub &'a F);

impl<F: StochasticObjective> StochasticObjective for TimedObjective<'_, F> {
    type Stream = Timed<F::Stream>;

    fn dim(&self) -> usize {
        self.0.dim()
    }

    fn open(&self, x: &[f64], seed: u64) -> Self::Stream {
        Timed(self.0.open(x, seed))
    }

    fn true_value(&self, x: &[f64]) -> Option<f64> {
        self.0.true_value(x)
    }

    fn pool_token(&self) -> Option<usize> {
        self.0.pool_token()
    }
}

/// A job that went to a worker process: the stream as shipped and the
/// estimate it came back with, kept to replay its wire path later.
pub struct Shipped<S> {
    pub batch: u64,
    pub slot: usize,
    pub dt: f64,
    pub stream: S,
    pub returned: Estimate,
}

/// Jobs kept for replay: a sample large enough for per-job means, small
/// enough that a pass of microsecond rounds does not hold them all.
const MAX_SHIPPED: usize = 100_000;

/// Decorates `extend_batch` with a batch span and counts the jobs it passes
/// on. Built with [`keeping_shipped`](Self::keeping_shipped), it also keeps a
/// copy of the first jobs (taken before the batch span starts).
pub struct TimedBackend<S> {
    inner: Arc<dyn SamplingBackend<S>>,
    jobs: AtomicU64,
    shipped: Option<Mutex<Vec<Shipped<S>>>>,
}

impl<S: SampleStream + 'static> TimedBackend<S> {
    pub fn new(inner: Arc<dyn SamplingBackend<S>>) -> Self {
        TimedBackend {
            inner,
            jobs: AtomicU64::new(0),
            shipped: None,
        }
    }

    pub fn keeping_shipped(inner: Arc<dyn SamplingBackend<S>>) -> Self {
        TimedBackend {
            shipped: Some(Mutex::new(Vec::new())),
            ..Self::new(inner)
        }
    }

    /// Jobs passed on so far.
    pub fn jobs(&self) -> u64 {
        self.jobs.load(Ordering::Relaxed)
    }

    pub fn take_shipped(&self) -> Vec<Shipped<S>> {
        self.shipped
            .as_ref()
            .map(|m| std::mem::take(&mut *m.lock().expect("shipped-job buffer poisoned")))
            .unwrap_or_default()
    }
}

impl<S: SampleStream + 'static> SamplingBackend<S> for TimedBackend<S> {
    fn extend_batch(&self, jobs: Vec<StreamJob<S>>) -> Vec<StreamJob<S>> {
        let id = next_id();
        let keep = self
            .shipped
            .as_ref()
            .is_some_and(|m| m.lock().expect("shipped-job buffer poisoned").len() < MAX_SHIPPED);
        let copies: Option<Vec<(usize, f64, S)>> = keep.then(|| {
            jobs.iter()
                .map(|j| (j.slot, j.dt, j.stream.clone()))
                .collect()
        });
        let n = jobs.len() as u64;
        self.jobs.fetch_add(n, Ordering::Relaxed);
        let parent = PARENT.load(Ordering::Relaxed);
        let run = RUN.load(Ordering::Relaxed);
        BATCH.store(id, Ordering::Relaxed);
        let t0 = now_ns();
        let done = self.inner.extend_batch(jobs);
        record(Kind::Batch, t0, id, parent, run, n);
        if let (Some(shipped), Some(copies)) = (&self.shipped, copies) {
            let mut shipped = shipped.lock().expect("shipped-job buffer poisoned");
            for ((slot, dt, stream), job) in copies.into_iter().zip(&done) {
                shipped.push(Shipped {
                    batch: id,
                    slot,
                    dt,
                    stream,
                    returned: job.stream.estimate(),
                });
            }
        }
        done
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn degraded(&self) -> bool {
        self.inner.degraded()
    }

    fn pool_token(&self) -> Option<usize> {
        self.inner.pool_token()
    }
}
