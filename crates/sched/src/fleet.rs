//! `FleetBackend` — a rendezvous gate that merges the sampling rounds of
//! many concurrent runs into single batches on one inner backend.
//!
//! Each scheduling tick, the scheduler marks `k` participants with
//! [`FleetBackend::enter`] and lets them step concurrently. A participant's
//! `extend_batch` call posts its jobs at the gate and parks; when every
//! still-active participant has a request posted (or has
//! [`left`](FleetBackend::leave) for the tick), the last arrival becomes the
//! dispatcher: it concatenates all pending requests, runs **one**
//! `extend_batch` on the inner backend, splits the results back per
//! request, and wakes the owners.
//!
//! # Why this preserves bit-identity
//!
//! The [`SamplingBackend`] determinism contract does the heavy lifting:
//! jobs are independent (each stream owns its RNG) and submission order is
//! preserved, so a job's result does not depend on its neighbours in the
//! batch. Merging requests therefore changes *throughput*, never *values*:
//! each run gets back exactly the streams it would have gotten dispatching
//! alone, in the order it submitted them.
//!
//! # Why this cannot deadlock
//!
//! Every active participant is, at any moment, either computing (and will
//! eventually post a request or leave) or parked with a request posted. The
//! gate fires exactly when `requests == active`, and `leave` re-checks the
//! condition, so the last event of any tick — a post or a leave — always
//! releases everyone parked. With no participants entered, the gate
//! degenerates to a pass-through and dispatches immediately.

use obs::{Counter, Gauge, MetricsRegistry};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use stoch_eval::backend::{SamplingBackend, StreamJob};
use stoch_eval::objective::SampleStream;

struct Pending<S> {
    jobs: Vec<StreamJob<S>>,
    tx: mpsc::Sender<Vec<StreamJob<S>>>,
}

struct Gate<S> {
    /// Participants entered for the current tick and not yet left.
    active: usize,
    /// Requests parked at the gate, in arrival order.
    requests: Vec<Pending<S>>,
}

struct FleetObs {
    dispatches: Arc<Counter>,
    merged_dispatches: Arc<Counter>,
    jobs: Arc<Counter>,
    batch_jobs_hwm: Arc<Gauge>,
}

/// A shared sampling service multiplexing many runs over one inner backend.
/// See the module docs for the merge protocol and its guarantees.
pub struct FleetBackend<S> {
    inner: Arc<dyn SamplingBackend<S>>,
    gate: Mutex<Gate<S>>,
    obs: Option<FleetObs>,
}

impl<S: SampleStream + 'static> FleetBackend<S> {
    /// Wrap `inner` with an idle gate (no participants).
    pub fn new(inner: Arc<dyn SamplingBackend<S>>) -> Self {
        FleetBackend {
            inner,
            gate: Mutex::new(Gate {
                active: 0,
                requests: Vec::new(),
            }),
            obs: None,
        }
    }

    /// Like [`new`](Self::new), recording `sched.fleet.*` counters into
    /// `registry`: dispatches to the inner backend, how many of those merged
    /// more than one run's round, total jobs shipped, and the largest
    /// combined batch.
    pub fn with_registry(inner: Arc<dyn SamplingBackend<S>>, registry: &MetricsRegistry) -> Self {
        let mut fleet = Self::new(inner);
        fleet.obs = Some(FleetObs {
            dispatches: registry.counter("sched.fleet.dispatches"),
            merged_dispatches: registry.counter("sched.fleet.merged_dispatches"),
            jobs: registry.counter("sched.fleet.jobs"),
            batch_jobs_hwm: registry.gauge("sched.fleet.batch_jobs_hwm"),
        });
        fleet
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &Arc<dyn SamplingBackend<S>> {
        &self.inner
    }

    /// Register one participant for the current tick. The scheduler calls
    /// this once per selected run *before* any of them starts stepping, so
    /// the gate knows how many requests to wait for.
    pub fn enter(&self) {
        let mut g = self.gate.lock().expect("fleet gate poisoned");
        g.active += 1;
    }

    /// Withdraw a participant (its time slice ended). If everyone still
    /// active is already parked at the gate, the leaver dispatches their
    /// merged batch on the way out.
    pub fn leave(&self) {
        let ready = {
            let mut g = self.gate.lock().expect("fleet gate poisoned");
            g.active = g.active.saturating_sub(1);
            if g.active > 0 && g.requests.len() == g.active {
                std::mem::take(&mut g.requests)
            } else {
                Vec::new()
            }
        };
        if !ready.is_empty() {
            self.dispatch(ready);
        }
    }

    /// Merge `reqs` into one inner batch and reply to each requester with
    /// its own jobs, original slots restored, submission order intact.
    fn dispatch(&self, reqs: Vec<Pending<S>>) {
        let total: usize = reqs.iter().map(|r| r.jobs.len()).sum();
        let mut combined = Vec::with_capacity(total);
        let mut slots = Vec::with_capacity(total);
        let mut replies = Vec::with_capacity(reqs.len());
        for req in reqs {
            replies.push((req.tx, req.jobs.len()));
            for job in req.jobs {
                // Tag each job with a batch-unique slot so the inner
                // backend never sees two runs' jobs colliding on one slot
                // index; the originals are restored before the split.
                slots.push(job.slot);
                combined.push(StreamJob {
                    slot: combined.len(),
                    dt: job.dt,
                    stream: job.stream,
                });
            }
        }
        if let Some(o) = &self.obs {
            o.dispatches.inc();
            if replies.len() > 1 {
                o.merged_dispatches.inc();
            }
            o.jobs.add(total as u64);
            o.batch_jobs_hwm.record(total as u64);
        }
        let mut done = self.inner.extend_batch(combined);
        for (job, original) in done.iter_mut().zip(&slots) {
            job.slot = *original;
        }
        let mut rest = done.into_iter();
        for (tx, len) in replies {
            let part: Vec<StreamJob<S>> = rest.by_ref().take(len).collect();
            // A receiver can only be gone if its thread panicked; dropping
            // the reply is then the right thing.
            let _ = tx.send(part);
        }
    }
}

impl<S: SampleStream + 'static> SamplingBackend<S> for FleetBackend<S> {
    fn extend_batch(&self, jobs: Vec<StreamJob<S>>) -> Vec<StreamJob<S>> {
        let (tx, rx) = mpsc::channel();
        let ready = {
            let mut g = self.gate.lock().expect("fleet gate poisoned");
            g.requests.push(Pending { jobs, tx });
            if g.requests.len() >= g.active {
                std::mem::take(&mut g.requests)
            } else {
                Vec::new()
            }
        };
        if !ready.is_empty() {
            self.dispatch(ready);
        }
        rx.recv().expect("fleet dispatcher vanished mid-batch")
    }

    fn name(&self) -> &'static str {
        "fleet"
    }

    fn degraded(&self) -> bool {
        self.inner.degraded()
    }
}

/// RAII participant handle: `leave`s the gate on drop, so a participant
/// that panics mid-step cannot strand the others at the gate.
pub struct FleetTicket<'g, S: SampleStream + 'static> {
    fleet: &'g FleetBackend<S>,
}

impl<'g, S: SampleStream + 'static> FleetTicket<'g, S> {
    /// Enter the gate, returning the handle that leaves it on drop.
    pub fn enter(fleet: &'g FleetBackend<S>) -> Self {
        fleet.enter();
        FleetTicket { fleet }
    }

    /// Adopt a slot already registered with [`FleetBackend::enter`] (the
    /// scheduler enters all of a tick's participants up front, before any
    /// of their threads start, then hands each thread its ticket).
    pub fn adopt(fleet: &'g FleetBackend<S>) -> Self {
        FleetTicket { fleet }
    }
}

impl<S: SampleStream + 'static> Drop for FleetTicket<'_, S> {
    fn drop(&mut self) {
        self.fleet.leave();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stoch_eval::backend::SerialBackend;
    use stoch_eval::functions::Sphere;
    use stoch_eval::noise::ConstantNoise;
    use stoch_eval::objective::StochasticObjective;
    use stoch_eval::sampler::Noisy;

    fn job(
        obj: &Noisy<Sphere, ConstantNoise>,
        slot: usize,
        seed: u64,
    ) -> StreamJob<<Noisy<Sphere, ConstantNoise> as StochasticObjective>::Stream> {
        StreamJob {
            slot,
            dt: 1.0,
            stream: obj.open(&[1.0, 2.0], seed),
        }
    }

    #[test]
    fn passthrough_without_participants() {
        let obj = Noisy::new(Sphere::new(2), ConstantNoise(1.0));
        let fleet = FleetBackend::new(Arc::new(SerialBackend));
        let done = fleet.extend_batch(vec![job(&obj, 3, 7), job(&obj, 1, 8)]);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].slot, 3);
        assert_eq!(done[1].slot, 1);
        assert!(done[0].stream.estimate().time > 0.0);
    }

    #[test]
    fn merged_rounds_match_solo_rounds_bitwise() {
        let obj = Noisy::new(Sphere::new(2), ConstantNoise(2.0));
        // Solo: each run dispatches alone on a serial backend.
        let solo_a = SerialBackend.extend_batch(vec![job(&obj, 0, 41), job(&obj, 1, 42)]);
        let solo_b = SerialBackend.extend_batch(vec![job(&obj, 0, 99)]);

        // Fleet: both runs post concurrently; the gate merges them.
        let fleet = FleetBackend::new(Arc::new(SerialBackend));
        let obj_ref = &obj;
        let (got_a, got_b) = std::thread::scope(|s| {
            fleet.enter();
            fleet.enter();
            let fa = &fleet;
            let ha = s.spawn(move || {
                let _t = FleetTicket::adopt(fa);
                fa.extend_batch(vec![job(obj_ref, 0, 41), job(obj_ref, 1, 42)])
            });
            let fb = &fleet;
            let hb = s.spawn(move || {
                let _t = FleetTicket::adopt(fb);
                fb.extend_batch(vec![job(obj_ref, 0, 99)])
            });
            (ha.join().unwrap(), hb.join().unwrap())
        });

        for (solo, got) in solo_a.iter().zip(&got_a) {
            assert_eq!(solo.slot, got.slot);
            assert_eq!(
                solo.stream.estimate().value.to_bits(),
                got.stream.estimate().value.to_bits()
            );
        }
        assert_eq!(
            solo_b[0].stream.estimate().value.to_bits(),
            got_b[0].stream.estimate().value.to_bits()
        );
    }

    #[test]
    fn leave_releases_waiting_participants() {
        // One participant posts, the other leaves without posting; the
        // leaver must dispatch the parked request.
        let obj = Noisy::new(Sphere::new(2), ConstantNoise(1.0));
        let fleet = FleetBackend::new(Arc::new(SerialBackend));
        fleet.enter();
        fleet.enter();
        let done = std::thread::scope(|s| {
            let f = &fleet;
            let h = s.spawn(move || {
                let _t = FleetTicket::adopt(f);
                f.extend_batch(vec![job(&obj, 0, 5)])
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            fleet.leave(); // second participant's slice ends without sampling
            h.join().unwrap()
        });
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn registry_counts_merges() {
        let obj = Noisy::new(Sphere::new(2), ConstantNoise(1.0));
        let reg = MetricsRegistry::new();
        let fleet = FleetBackend::with_registry(Arc::new(SerialBackend), &reg);
        let obj_ref = &obj;
        std::thread::scope(|s| {
            fleet.enter();
            fleet.enter();
            for seed in [1u64, 2] {
                let f = &fleet;
                s.spawn(move || {
                    let _t = FleetTicket::adopt(f);
                    f.extend_batch(vec![job(obj_ref, 0, seed)])
                });
            }
        });
        assert_eq!(reg.counter("sched.fleet.jobs").get(), 2);
        assert!(reg.counter("sched.fleet.dispatches").get() >= 1);
    }
}
