//! Per-layer metrics: span arithmetic over the traced pass, the system's own
//! counters, and timed replays of the calls a layer makes.

use crate::report::Report;
use crate::stats::percentile;
use crate::trace::{self, Kind, Shipped, Span};
use mw_framework::transport::{wire, Frame, FrameBuffer, FrameKind};
use obs::MetricsRegistry;
use std::collections::HashMap;
use std::time::Instant;
use stoch_eval::codec::{Reader, Writer};
use stoch_eval::objective::{Estimate, SampleStream};

/// Spans indexed by the span that caused them.
pub struct Tree<'a> {
    spans: &'a [Span],
    children: HashMap<u64, Vec<&'a Span>>,
}

impl<'a> Tree<'a> {
    pub fn new(spans: &'a [Span]) -> Self {
        let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
        for s in spans {
            children.entry(s.parent).or_default().push(s);
        }
        Tree { spans, children }
    }

    pub fn of(&self, kind: Kind) -> impl Iterator<Item = &'a Span> + '_ {
        self.spans.iter().filter(move |s| s.kind == kind)
    }

    fn children(&self, id: u64, kind: Kind) -> impl Iterator<Item = &'a Span> + '_ {
        self.children
            .get(&id)
            .into_iter()
            .flatten()
            .copied()
            .filter(move |s| s.kind == kind)
    }

    /// µs each `kind` span spent outside its child batches (its self time).
    pub fn self_us(&self, kind: Kind) -> Vec<f64> {
        self.of(kind)
            .map(|s| {
                let inner: u64 = self.children(s.id, Kind::Batch).map(|b| b.dur_ns).sum();
                s.dur_ns.saturating_sub(inner) as f64 / 1e3
            })
            .collect()
    }

    /// Job durations (ns), by the batch they ran in.
    pub fn jobs_by_batch(&self) -> HashMap<u64, Vec<u64>> {
        let mut out: HashMap<u64, Vec<u64>> = HashMap::new();
        for j in self.of(Kind::Job) {
            out.entry(j.parent).or_default().push(j.dur_ns);
        }
        out
    }

    /// Total ns of every job span.
    pub fn job_ns(&self) -> u64 {
        self.of(Kind::Job).map(|j| j.dur_ns).sum()
    }
}

/// The system's own counters, read before and after the traced pass.
pub struct Tally(Vec<(&'static str, u64)>);

const TALLIED: [&str; 7] = [
    "mw.retry.attempts",
    "mw.retry.timeouts",
    "mw.transport.frames_sent",
    "mw.transport.frames_received",
    "mw.transport.bytes_sent",
    "mw.transport.bytes_received",
    "mw.transport.inline_jobs",
];

impl Tally {
    pub fn read(reg: &MetricsRegistry) -> Self {
        Tally(TALLIED.iter().map(|&n| (n, reg.counter(n).get())).collect())
    }

    pub fn since(&self, before: &Tally) -> Tally {
        Tally(
            self.0
                .iter()
                .zip(&before.0)
                .map(|(&(n, now), &(_, then))| (n, now.saturating_sub(then)))
                .collect(),
        )
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }
}

/// Decision logic: time in `RunSession::step` outside its batches.
pub fn core(r: &mut Report, t: &Tree) {
    let kept = t.of(Kind::Step).count();
    if kept == 0 {
        return;
    }
    let batches: usize = t
        .of(Kind::Step)
        .map(|s| t.children(s.id, Kind::Batch).count())
        .sum();
    r.layer(
        "core.step_self_us_p50",
        percentile(&t.self_us(Kind::Step), 0.5),
    );
    r.layer("core.steps", Some(trace::recorded(Kind::Step) as f64));
    r.layer("core.batches_per_step", Some(batches as f64 / kept as f64));
}

/// Stream extension: one job span per `SampleStream::extend`.
pub fn eval(r: &mut Report, t: &Tree) {
    let ns: Vec<f64> = t.of(Kind::Job).map(|j| j.dur_ns as f64).collect();
    r.layer("eval.extend_ns_p50", percentile(&ns, 0.5));
    r.layer("eval.extends", Some(trace::recorded(Kind::Job) as f64));
}

/// Dispatch on an mw backend: its batches, their jobs' compute (`jobs_ns`,
/// by batch id), and the backend's own retry counters. Self time and busy
/// share come from the batches whose jobs were timed.
pub fn mw(
    r: &mut Report,
    t: &Tree,
    jobs_ns: &HashMap<u64, Vec<u64>>,
    workers: usize,
    tally: &Tally,
) {
    let batches: Vec<&Span> = t.of(Kind::Batch).collect();
    if batches.is_empty() {
        return;
    }
    let batch_us: Vec<f64> = batches.iter().map(|b| b.dur_ns as f64 / 1e3).collect();
    let jobs: u64 = batches.iter().map(|b| b.jobs).sum();
    let (mut self_us, mut busy_ns, mut wall_ns) = (Vec::new(), 0u64, 0u64);
    for b in &batches {
        if let Some(j) = jobs_ns.get(&b.id) {
            let slowest = j.iter().max().copied().unwrap_or(0);
            self_us.push(b.dur_ns.saturating_sub(slowest) as f64 / 1e3);
            busy_ns += j.iter().sum::<u64>();
            wall_ns += b.dur_ns;
        }
    }
    r.layer("mw.batch_us_p50", percentile(&batch_us, 0.5));
    r.layer("mw.batch_us_p90", percentile(&batch_us, 0.9));
    r.layer(
        "mw.jobs_per_batch",
        Some(jobs as f64 / batches.len() as f64),
    );
    r.layer("mw.dispatch_self_us_p50", percentile(&self_us, 0.5));
    r.layer("mw.retries", Some(tally.get("mw.retry.attempts") as f64));
    r.layer("mw.timeouts", Some(tally.get("mw.retry.timeouts") as f64));
    r.layer(
        "mw.busy_pct",
        Some(100.0 * busy_ns as f64 / (wall_ns as f64 * workers as f64)),
    );
}

/// The wire path of every job a process backend shipped, replayed in this
/// process: encode (`save_state`, `wire::encode_job`, `Frame::encode`),
/// decode (`FrameBuffer::try_frame`, `wire::decode_job`, `load_state`), and
/// the `extend` a worker ran, whose answer must match what came back.
#[derive(Debug, Default)]
pub struct WireReplay {
    pub jobs: u64,
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub job_ns: HashMap<u64, Vec<u64>>,
    pub mismatches: u64,
}

fn same_estimate(a: &Estimate, b: &Estimate) -> bool {
    a.value.to_bits() == b.value.to_bits()
        && a.std_err.to_bits() == b.std_err.to_bits()
        && a.time.to_bits() == b.time.to_bits()
}

pub fn replay_wire<S: SampleStream>(shipped: Vec<Shipped<S>>) -> Result<WireReplay, String> {
    let wire_id = S::wire_id().ok_or("the shipped stream type has no wire id")?;
    let mut out = WireReplay::default();
    for (seq, job) in shipped.into_iter().enumerate() {
        let t0 = Instant::now();
        let mut w = Writer::new();
        job.stream
            .save_state(&mut w)
            .map_err(|e| format!("{e:?}"))?;
        let payload = wire::encode_job(wire_id, job.slot as u64, job.dt, &w.into_bytes());
        let bytes = Frame::new(FrameKind::Job, seq as u64, payload).encode();
        let t1 = Instant::now();
        let mut buf = FrameBuffer::new();
        buf.extend(&bytes);
        let frame = buf
            .try_frame()
            .map_err(|e| format!("{e:?}"))?
            .ok_or("a whole frame did not decode")?;
        let decoded = wire::decode_job(&frame.payload).map_err(|e| format!("{e:?}"))?;
        let mut stream =
            S::load_state(&mut Reader::new(&decoded.state)).map_err(|e| format!("{e:?}"))?;
        let t2 = Instant::now();
        stream.extend(decoded.dt);
        let t3 = Instant::now();
        out.jobs += 1;
        out.encode_ns += (t1 - t0).as_nanos() as u64;
        out.decode_ns += (t2 - t1).as_nanos() as u64;
        out.job_ns
            .entry(job.batch)
            .or_default()
            .push((t3 - t2).as_nanos() as u64);
        if !same_estimate(&stream.estimate(), &job.returned) {
            out.mismatches += 1;
        }
    }
    Ok(out)
}

/// Wire and transport: bytes and frames for the `jobs` shipped, from
/// `mw.transport.*`; codec cost per replayed job.
pub fn wire(r: &mut Report, replay: &WireReplay, jobs: u64, tally: &Tally) {
    let bytes = tally.get("mw.transport.bytes_sent") + tally.get("mw.transport.bytes_received");
    let frames = tally.get("mw.transport.frames_sent") + tally.get("mw.transport.frames_received");
    let replayed = replay.jobs.max(1) as f64;
    r.layer(
        "wire.bytes_per_job",
        Some(bytes as f64 / jobs.max(1) as f64),
    );
    r.layer("wire.frames", Some(frames as f64));
    r.layer(
        "wire.encode_us_per_job",
        Some(replay.encode_ns as f64 / 1e3 / replayed),
    );
    r.layer(
        "wire.decode_us_per_job",
        Some(replay.decode_ns as f64 / 1e3 / replayed),
    );
    r.layer(
        "wire.inline_jobs",
        Some(tally.get("mw.transport.inline_jobs") as f64),
    );
}

/// How much slower the traced pass ran than the plain one, in percent of the
/// plain median run time.
pub fn overhead_pct(plain_ms: &[f64], traced_ms: &[f64]) -> Option<f64> {
    let (p, t) = (percentile(plain_ms, 0.5)?, percentile(traced_ms, 0.5)?);
    Some(100.0 * (t / p - 1.0))
}
