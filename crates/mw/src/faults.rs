//! Fault injection for the MW worker pool: kill a worker after N jobs,
//! delay its jobs, or drop a result on the wire.
//!
//! This is the chaos-testing harness behind the paper's §4.2 narrative —
//! Condor-style opportunistic pools where "a worker is restarted by the
//! master" after its node is reclaimed mid-task. A [`FaultPlan`] describes
//! deterministic faults per worker slot; the pool's supervisor
//! (`MwPool::supervise`) and the backend's retry loop are expected to make
//! every plan that leaves at least one live worker invisible in the results
//! (see `tests/mw_faults.rs`).
//!
//! Plans can be built programmatically or parsed from the `NSX_FAULTS`
//! environment variable, a comma-separated list of directives (a value
//! that does not parse panics, naming the knob):
//!
//! | Directive | Effect |
//! |---|---|
//! | `kill:<w>:after=<n>` | worker `w` dies after executing `n` jobs (the job in hand when it dies is lost) |
//! | `delay:<w>:ms=<d>` | worker `w` sleeps `d` wall-clock ms before every job |
//! | `delay:<w>:after=<n>:ms=<d>` | same, starting with its `n`-th job |
//! | `drop:<w>:at=<n>` | worker `w` executes its `n`-th job but its result is discarded (a lost result message) |
//!
//! With the multi-process transport (`NSX_TRANSPORT=process`, DESIGN.md
//! §12) the plan also accepts *network* faults, injected master-side on the
//! socket link to worker `w` (frame indices count frames sent on that link
//! after the handshake, 0-based):
//!
//! | Directive | Effect |
//! |---|---|
//! | `netdelay:<w>:ms=<d>` | every frame to worker `w` is delayed `d` wall-clock ms before the write |
//! | `netdelay:<w>:after=<n>:ms=<d>` | same, starting with the `n`-th frame |
//! | `netdrop:<w>:at=<n>` | the `n`-th frame to worker `w` is silently dropped (a lost datagramish write) |
//! | `partition:<w>:at=<n>:for=<k>` | frames `n .. n+k` to worker `w` are black-holed while replies still flow — a half-open partition |
//! | `reorder:<w>:at=<n>` | the `n`-th frame to worker `w` is held back and sent *after* the following frame |
//!
//! Network faults only lose or delay *messages*, never state: the master's
//! per-attempt timeout re-dispatches from its stream backups, so every
//! survivable plan is invisible in the results (bit-identical contract).
//!
//! Faults apply only to a worker slot's *first* incarnation: a respawned
//! worker is healthy, matching the restart-the-worker story.

use std::time::Duration;

/// Network faults injected on the master→worker link of the process
/// transport (no effect on the in-process thread pool, which has no wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetFault {
    /// Delay outbound frames (see [`Delay`]; `after` counts frames).
    pub delay: Option<Delay>,
    /// Silently drop the outbound frame with this 0-based index.
    pub drop_at: Option<u64>,
    /// Black-hole the outbound window `[at, at+len)`: a half-open partition
    /// (outbound lost, inbound replies still delivered).
    pub partition: Option<(u64, u64)>,
    /// Hold the outbound frame with this index and send it after its
    /// successor (a reordered delivery).
    pub reorder_at: Option<u64>,
}

impl NetFault {
    /// True when no network fault is injected.
    pub fn is_none(&self) -> bool {
        *self == NetFault::default()
    }

    /// Whether the outbound frame with index `sent` falls in a black-hole
    /// window (drop or partition).
    pub fn swallows(&self, sent: u64) -> bool {
        if self.drop_at == Some(sent) {
            return true;
        }
        self.partition
            .is_some_and(|(at, len)| sent >= at && sent < at.saturating_add(len))
    }

    /// The injected delay before sending frame `sent`, if any.
    pub fn delay_for(&self, sent: u64) -> Option<Duration> {
        self.delay
            .filter(|d| sent >= d.after)
            .map(|d| Duration::from_millis(d.millis))
    }
}

/// A wall-clock delay injected before jobs on one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Delay {
    /// First job index (0-based executed count) the delay applies to.
    pub after: u64,
    /// Sleep duration in milliseconds.
    pub millis: u64,
}

/// The faults injected into one worker slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerFault {
    /// Die (stop pulling work, dropping the in-flight job's result)
    /// immediately after executing this many jobs.
    pub kill_after: Option<u64>,
    /// Sleep before executing jobs (see [`Delay`]).
    pub delay: Option<Delay>,
    /// Execute the job with this 0-based index but discard its result.
    pub drop_at: Option<u64>,
    /// Network faults on this worker's transport link (process transport
    /// only; the in-process pool has no wire to fault).
    pub net: NetFault,
}

impl WorkerFault {
    /// True when no fault is injected.
    pub fn is_none(&self) -> bool {
        *self == WorkerFault::default()
    }

    /// The injected delay for a job with executed-count `executed`, if any.
    pub fn delay_for(&self, executed: u64) -> Option<Duration> {
        self.delay
            .filter(|d| executed >= d.after)
            .map(|d| Duration::from_millis(d.millis))
    }

    /// Render the *worker-side* faults (kill/delay/drop — not the network
    /// faults, which the master injects) as `NSX_FAULTS`-grammar directives
    /// for worker index 0. The process transport passes this to spawned
    /// worker processes via `NSX_WORKER_FAULTS`, so the same plan grammar
    /// drives thread and process chaos. Empty string when nothing applies.
    pub fn to_worker_directives(&self) -> String {
        let mut parts = Vec::new();
        if let Some(n) = self.kill_after {
            parts.push(format!("kill:0:after={n}"));
        }
        if let Some(d) = self.delay {
            parts.push(format!("delay:0:after={}:ms={}", d.after, d.millis));
        }
        if let Some(n) = self.drop_at {
            parts.push(format!("drop:0:at={n}"));
        }
        parts.join(",")
    }
}

/// Deterministic per-worker fault injection plan (see module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<WorkerFault>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.iter().all(WorkerFault::is_none)
    }

    fn slot(&mut self, w: usize) -> &mut WorkerFault {
        if self.faults.len() <= w {
            self.faults.resize(w + 1, WorkerFault::default());
        }
        &mut self.faults[w]
    }

    /// Kill worker `w` after it executes `after` jobs.
    pub fn kill(mut self, w: usize, after: u64) -> Self {
        self.slot(w).kill_after = Some(after);
        self
    }

    /// Delay every job on worker `w` (from its `after`-th) by `millis` ms.
    pub fn delay(mut self, w: usize, after: u64, millis: u64) -> Self {
        self.slot(w).delay = Some(Delay { after, millis });
        self
    }

    /// Drop the result of worker `w`'s `at`-th job (0-based).
    pub fn drop_result(mut self, w: usize, at: u64) -> Self {
        self.slot(w).drop_at = Some(at);
        self
    }

    /// Delay every outbound frame to worker `w` (from its `after`-th) by
    /// `millis` ms (process transport).
    pub fn net_delay(mut self, w: usize, after: u64, millis: u64) -> Self {
        self.slot(w).net.delay = Some(Delay { after, millis });
        self
    }

    /// Drop the `at`-th outbound frame to worker `w` (process transport).
    pub fn net_drop(mut self, w: usize, at: u64) -> Self {
        self.slot(w).net.drop_at = Some(at);
        self
    }

    /// Black-hole outbound frames `at .. at+len` to worker `w` — a half-open
    /// partition (process transport).
    pub fn partition(mut self, w: usize, at: u64, len: u64) -> Self {
        self.slot(w).net.partition = Some((at, len));
        self
    }

    /// Hold the `at`-th outbound frame to worker `w` and deliver it after
    /// its successor (process transport).
    pub fn reorder(mut self, w: usize, at: u64) -> Self {
        self.slot(w).net.reorder_at = Some(at);
        self
    }

    /// The fault spec for worker slot `w`, incarnation `incarnation`.
    /// Respawned workers (incarnation ≥ 1) are healthy.
    pub fn fault_for(&self, w: usize, incarnation: u32) -> WorkerFault {
        if incarnation > 0 {
            return WorkerFault::default();
        }
        self.faults.get(w).copied().unwrap_or_default()
    }

    /// Parse a comma-separated directive list (the `NSX_FAULTS` grammar —
    /// see module docs).
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::none();
        for item in s.split(',').map(str::trim).filter(|i| !i.is_empty()) {
            let parts: Vec<&str> = item.split(':').collect();
            if parts.len() < 2 {
                return Err(format!("fault directive too short: {item:?}"));
            }
            let w: usize = parts[1]
                .parse()
                .map_err(|_| format!("bad worker index in {item:?}"))?;
            let kv = |key: &str| -> Result<Option<u64>, String> {
                for p in &parts[2..] {
                    if let Some(v) = p.strip_prefix(&format!("{key}=")) {
                        return v
                            .parse()
                            .map(Some)
                            .map_err(|_| format!("bad {key} value in {item:?}"));
                    }
                }
                Ok(None)
            };
            match parts[0] {
                "kill" => {
                    let after = kv("after")?.ok_or(format!("kill needs after= in {item:?}"))?;
                    plan = plan.kill(w, after);
                }
                "delay" => {
                    let ms = kv("ms")?.ok_or(format!("delay needs ms= in {item:?}"))?;
                    let after = kv("after")?.unwrap_or(0);
                    plan = plan.delay(w, after, ms);
                }
                "drop" => {
                    let at = kv("at")?.ok_or(format!("drop needs at= in {item:?}"))?;
                    plan = plan.drop_result(w, at);
                }
                "netdelay" => {
                    let ms = kv("ms")?.ok_or(format!("netdelay needs ms= in {item:?}"))?;
                    let after = kv("after")?.unwrap_or(0);
                    plan = plan.net_delay(w, after, ms);
                }
                "netdrop" => {
                    let at = kv("at")?.ok_or(format!("netdrop needs at= in {item:?}"))?;
                    plan = plan.net_drop(w, at);
                }
                "partition" => {
                    let at = kv("at")?.ok_or(format!("partition needs at= in {item:?}"))?;
                    let len = kv("for")?.ok_or(format!("partition needs for= in {item:?}"))?;
                    plan = plan.partition(w, at, len);
                }
                "reorder" => {
                    let at = kv("at")?.ok_or(format!("reorder needs at= in {item:?}"))?;
                    plan = plan.reorder(w, at);
                }
                kind => return Err(format!("unknown fault kind {kind:?} in {item:?}")),
            }
        }
        Ok(plan)
    }

    /// The plan selected by the `NSX_FAULTS` environment variable; empty
    /// when unset. Panics naming the knob and the value on a directive
    /// [`parse`](Self::parse) rejects, like every other `NSX_*` knob: a
    /// typo must not silently run a chaos leg without its faults.
    pub fn from_env() -> Self {
        Self::from_setting(std::env::var("NSX_FAULTS").ok().as_deref())
    }

    /// [`FaultPlan::from_env`] over an already-read setting.
    fn from_setting(value: Option<&str>) -> Self {
        value.map_or_else(FaultPlan::none, |v| {
            Self::parse(v).unwrap_or_else(|e| panic!("invalid NSX_FAULTS='{v}': {e}"))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_lookup() {
        let plan = FaultPlan::none()
            .kill(1, 3)
            .delay(0, 2, 50)
            .drop_result(2, 4);
        assert_eq!(plan.fault_for(1, 0).kill_after, Some(3));
        assert_eq!(
            plan.fault_for(0, 0).delay,
            Some(Delay {
                after: 2,
                millis: 50
            })
        );
        assert_eq!(plan.fault_for(2, 0).drop_at, Some(4));
        // Out-of-range workers and respawned incarnations are healthy.
        assert!(plan.fault_for(9, 0).is_none());
        assert!(plan.fault_for(1, 1).is_none());
    }

    #[test]
    fn parse_round_trips_the_issue_grammar() {
        let plan = FaultPlan::parse("kill:0:after=3").unwrap();
        assert_eq!(plan.fault_for(0, 0).kill_after, Some(3));

        let plan = FaultPlan::parse("kill:1:after=0, delay:0:ms=20, drop:2:at=5").unwrap();
        assert_eq!(plan.fault_for(1, 0).kill_after, Some(0));
        assert_eq!(
            plan.fault_for(0, 0).delay,
            Some(Delay {
                after: 0,
                millis: 20
            })
        );
        assert_eq!(plan.fault_for(2, 0).drop_at, Some(5));

        let plan = FaultPlan::parse("delay:3:after=2:ms=7").unwrap();
        assert_eq!(
            plan.fault_for(3, 0).delay,
            Some(Delay {
                after: 2,
                millis: 7
            })
        );
    }

    #[test]
    fn parse_rejects_malformed_directives() {
        assert!(FaultPlan::parse("kill").is_err());
        assert!(FaultPlan::parse("kill:x:after=1").is_err());
        assert!(FaultPlan::parse("kill:0").is_err());
        assert!(FaultPlan::parse("explode:0:after=1").is_err());
        assert!(FaultPlan::parse("delay:0:after=2").is_err());
        assert!(FaultPlan::parse("drop:0:at=nope").is_err());
    }

    #[test]
    fn setting_is_empty_when_unset_and_parsed_when_set() {
        assert!(FaultPlan::from_setting(None).is_empty());
        assert_eq!(
            FaultPlan::from_setting(Some("kill:0:after=3,drop:1:at=2")),
            FaultPlan::none().kill(0, 3).drop_result(1, 2)
        );
    }

    #[test]
    #[should_panic(expected = "invalid NSX_FAULTS='kill:0:after=x': bad after value")]
    fn malformed_setting_panics_naming_the_knob_and_value() {
        FaultPlan::from_setting(Some("kill:0:after=x"));
    }

    #[test]
    fn empty_plans() {
        assert!(FaultPlan::none().is_empty());
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(!FaultPlan::none().kill(0, 1).is_empty());
    }

    #[test]
    fn parse_network_fault_directives() {
        let plan = FaultPlan::parse(
            "netdelay:0:ms=5, netdrop:1:at=2, partition:2:at=3:for=4, reorder:0:at=7",
        )
        .unwrap();
        assert_eq!(
            plan.fault_for(0, 0).net.delay,
            Some(Delay {
                after: 0,
                millis: 5
            })
        );
        assert_eq!(plan.fault_for(1, 0).net.drop_at, Some(2));
        assert_eq!(plan.fault_for(2, 0).net.partition, Some((3, 4)));
        assert_eq!(plan.fault_for(0, 0).net.reorder_at, Some(7));
        // Respawned incarnations get a healthy link too.
        assert!(plan.fault_for(1, 1).net.is_none());

        assert!(FaultPlan::parse("netdelay:0:after=1").is_err());
        assert!(FaultPlan::parse("partition:0:at=1").is_err());
        assert!(FaultPlan::parse("netdrop:0:ms=1").is_err());
    }

    #[test]
    fn net_fault_windows() {
        let f = NetFault {
            drop_at: Some(1),
            partition: Some((4, 2)),
            ..NetFault::default()
        };
        assert!(!f.swallows(0));
        assert!(f.swallows(1));
        assert!(!f.swallows(3));
        assert!(f.swallows(4) && f.swallows(5));
        assert!(!f.swallows(6));
        assert!(NetFault::default().is_none());
    }

    #[test]
    fn worker_directives_round_trip_through_parse() {
        let plan = FaultPlan::none().kill(2, 3).delay(2, 1, 20).net_drop(2, 5);
        let f = plan.fault_for(2, 0);
        let rendered = f.to_worker_directives();
        // Network faults are master-side: they must not re-apply in the
        // worker process.
        let reparsed = FaultPlan::parse(&rendered).unwrap().fault_for(0, 0);
        assert_eq!(reparsed.kill_after, Some(3));
        assert_eq!(
            reparsed.delay,
            Some(Delay {
                after: 1,
                millis: 20
            })
        );
        assert!(reparsed.net.is_none());
        assert_eq!(WorkerFault::default().to_worker_directives(), "");
    }

    #[test]
    fn delay_for_respects_after() {
        let f = WorkerFault {
            delay: Some(Delay {
                after: 2,
                millis: 10,
            }),
            ..WorkerFault::default()
        };
        assert_eq!(f.delay_for(1), None);
        assert_eq!(f.delay_for(2), Some(Duration::from_millis(10)));
        assert_eq!(f.delay_for(9), Some(Duration::from_millis(10)));
    }
}
