//! The scheduler's write-behind checkpoint writer (DESIGN.md §13).
//!
//! A due write is a tmp write, an fsync, one or two renames and a directory
//! fsync: far longer than a tick's decisions. So each [`Scheduler`]'s runs
//! hand their snapshots to one writer thread, which runs
//! [`CheckpointWrite::save`] on them in hand-off order, and the tick moves
//! on. The thread starts on the first write handed over and is joined by
//! [`Writer::flush`]; the next write starts a new one.
//!
//! [`Scheduler`]: crate::Scheduler

use noisy_simplex::checkpoint::{CheckpointError, CheckpointSink, CheckpointWrite};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

const POISONED: &str = "a checkpoint writer lock holder panicked";

/// Writes one checkpoint; [`CheckpointWrite::save`] outside tests.
pub(crate) type Save = fn(&CheckpointWrite) -> Result<(), CheckpointError>;

/// A running writer thread and the queue into it.
struct Worker {
    queue: Sender<(u64, CheckpointWrite)>,
    thread: JoinHandle<()>,
}

/// One scheduler's writer, shared with the sinks it installs.
pub(crate) struct Writer {
    worker: Mutex<Option<Worker>>,
    /// Ids of the runs whose writes failed, in completion order.
    failed: Arc<Mutex<Vec<u64>>>,
    save: Save,
}

impl Writer {
    /// A writer that writes with [`CheckpointWrite::save`]; no thread runs
    /// until the first write.
    pub(crate) fn new() -> Arc<Self> {
        Self::with_save(CheckpointWrite::save)
    }

    /// A writer that writes with `save` instead of [`CheckpointWrite::save`].
    pub(crate) fn with_save(save: Save) -> Arc<Self> {
        Arc::new(Writer {
            worker: Mutex::new(None),
            failed: Arc::default(),
            save,
        })
    }

    /// The sink for run `id`: it queues the run's writes on this writer.
    pub(crate) fn sink(self: &Arc<Self>, id: u64) -> CheckpointSink {
        let writer = Arc::clone(self);
        Box::new(move |write| writer.submit(id, write))
    }

    /// Queue `write` for run `id`, starting the thread if none runs.
    fn submit(&self, id: u64, write: CheckpointWrite) -> Result<(), CheckpointError> {
        let mut worker = self.worker.lock().expect(POISONED);
        let worker = match &mut *worker {
            Some(w) => w,
            empty => {
                let (queue, jobs) = mpsc::channel::<(u64, CheckpointWrite)>();
                let (failed, save) = (Arc::clone(&self.failed), self.save);
                let spawned = std::thread::Builder::new()
                    .name("nsx-ckpt-writer".into())
                    .spawn(move || {
                        for (id, write) in jobs {
                            if save(&write).is_err() {
                                failed.lock().expect(POISONED).push(id);
                            }
                        }
                    });
                let thread = spawned.map_err(|source| CheckpointError::Io {
                    op: "spawn writer",
                    path: write.path.clone(),
                    source,
                })?;
                empty.insert(Worker { queue, thread })
            }
        };
        // The thread ends when its queue closes, or if it panicked.
        worker
            .queue
            .send((id, write))
            .map_err(|lost| CheckpointError::Io {
                op: "hand-off",
                path: lost.0 .1.path,
                source: std::io::Error::other("the checkpoint writer stopped"),
            })
    }

    /// Wait until every write handed over so far is done, and join the
    /// thread. Returns `false` if the thread panicked, losing the writes it
    /// still held.
    pub(crate) fn flush(&self) -> bool {
        // Called from `Drop` too, so it must not panic. Every update under
        // this lock is one assignment, so a poisoned guard is still whole.
        let worker = self
            .worker
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        worker.is_none_or(|Worker { queue, thread }| {
            drop(queue);
            thread.join().is_ok()
        })
    }

    /// The runs whose writes failed since the last call, oldest first.
    pub(crate) fn take_failures(&self) -> Vec<u64> {
        std::mem::take(&mut *self.failed.lock().expect(POISONED))
    }
}
