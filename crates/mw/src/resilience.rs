//! Resilience policies for the master–worker layer (DESIGN.md §16):
//! straggler hedging, heartbeat liveness, and jittered respawn backoff.
//!
//! The paper's MW deployment assumes workers answer eventually and at
//! roughly uniform latency; at service scale a single slow worker stalls
//! every run rendezvoused into the shared batch. Three policies close that
//! gap without touching the determinism contract:
//!
//! * [`HedgePolicy`] — when a job's in-flight latency exceeds a
//!   quantile-tracked threshold (a [`P2Quantile`] estimator over completed
//!   job latencies, not a fixed timeout), the backend speculatively
//!   re-dispatches the same stream clone to a second worker and takes the
//!   first answer. Retries are already bit-identical by RNG-state carry, so
//!   first-wins cannot change results — only tail latency.
//! * [`HeartbeatPolicy`] — the process transport exchanges periodic
//!   Ping/Pong frames so a half-dead socket is detected even between jobs,
//!   and a stalled worker is buried before it wedges a rendezvous.
//! * [`BackoffPolicy`] — repeated respawns of the same worker slot are
//!   deferred by a deterministically-jittered exponential delay instead of
//!   thundering-herd respawning into a dying host. The first respawn of a
//!   slot is always immediate (a one-off crash costs nothing extra).
//!
//! All three parse from the environment (`NSX_HEDGE`, `NSX_HEARTBEAT`,
//! `NSX_RESPAWN_BACKOFF`) with the same `keyword:key=value` grammar as
//! `NSX_BREAKDOWN`.

use std::time::Duration;

// ---------------------------------------------------------------------------
// P² online quantile estimation
// ---------------------------------------------------------------------------

/// The P² (piecewise-parabolic) online quantile estimator of Jain &
/// Chlamtac (CACM 1985): tracks a single quantile of a stream in O(1)
/// space with five markers, no sample buffer.
///
/// Used by the hedging layer to estimate the p-quantile of observed job
/// latencies; the estimate is heuristic (it gates *when* to hedge, never
/// *what* a result is), so its approximation error is harmless to the
/// determinism contract.
#[derive(Debug, Clone)]
pub struct P2Quantile {
    /// The target quantile in (0, 1).
    q: f64,
    /// Marker heights (estimated quantile values), ascending.
    heights: [f64; 5],
    /// Actual marker positions (1-based ranks).
    pos: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Per-observation increments of the desired positions.
    inc: [f64; 5],
    /// Observations ingested so far.
    count: u64,
}

impl P2Quantile {
    /// Estimator for quantile `q`, clamped into (0.01, 0.99).
    pub fn new(q: f64) -> Self {
        let q = q.clamp(0.01, 0.99);
        P2Quantile {
            q,
            heights: [0.0; 5],
            pos: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            inc: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
        }
    }

    /// Observations ingested so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The quantile this estimator tracks.
    pub fn quantile(&self) -> f64 {
        self.q
    }

    /// Ingest one observation. Non-finite values are ignored (they carry no
    /// latency information and would poison the markers).
    pub fn observe(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        if self.count < 5 {
            // Bootstrap: collect the first five observations sorted.
            let n = self.count as usize;
            self.heights[n] = x;
            self.count += 1;
            let live = &mut self.heights[..self.count as usize];
            live.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            return;
        }
        self.count += 1;
        // Find the cell k such that heights[k] <= x < heights[k+1],
        // extending the extreme markers when x falls outside them.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            let mut k = 0;
            for i in 0..4 {
                if self.heights[i] <= x {
                    k = i;
                }
            }
            k
        };
        for p in self.pos.iter_mut().skip(k + 1) {
            *p += 1.0;
        }
        for (d, i) in self.desired.iter_mut().zip(self.inc) {
            *d += i;
        }
        // Adjust the three interior markers toward their desired positions
        // with the piecewise-parabolic (fall back: linear) formula.
        for i in 1..4 {
            let d = self.desired[i] - self.pos[i];
            let right = self.pos[i + 1] - self.pos[i];
            let left = self.pos[i - 1] - self.pos[i];
            if (d >= 1.0 && right > 1.0) || (d <= -1.0 && left < -1.0) {
                let d = d.signum();
                let h = self.parabolic(i, d);
                self.heights[i] = if self.heights[i - 1] < h && h < self.heights[i + 1] {
                    h
                } else {
                    self.linear(i, d)
                };
                self.pos[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (n, h) = (&self.pos, &self.heights);
        h[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1]))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.heights[i] + d * (self.heights[j] - self.heights[i]) / (self.pos[j] - self.pos[i])
    }

    /// Current estimate of the tracked quantile; `None` until five
    /// observations have been ingested.
    pub fn estimate(&self) -> Option<f64> {
        if self.count >= 5 {
            Some(self.heights[2])
        } else {
            None
        }
    }
}

// ---------------------------------------------------------------------------
// Hedged re-dispatch policy
// ---------------------------------------------------------------------------

/// When to speculatively re-dispatch a slow in-flight job (DESIGN.md §16).
///
/// A job is hedged once its in-flight latency exceeds
/// `max(quantile_estimate × factor, min_delay)`, where the quantile
/// estimate is a [`P2Quantile`] over completed job latencies. No hedges
/// launch until `warmup` jobs have completed (the estimator needs data,
/// and cold pools have unrepresentative latencies).
///
/// Environment: `NSX_HEDGE=off` (the default) or
/// `NSX_HEDGE=on[:q=0.95][:factor=2.0][:min_ms=20][:warmup=16]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgePolicy {
    /// Master switch; everything else is ignored when false.
    pub enabled: bool,
    /// Latency quantile to track (default 0.95).
    pub quantile: f64,
    /// Multiple of the quantile estimate that triggers a hedge (default 2).
    pub factor: f64,
    /// Hedging floor: never hedge before this much in-flight time, however
    /// fast the pool looks (default 20 ms).
    pub min_delay: Duration,
    /// Completed jobs required before any hedge launches (default 16).
    pub warmup: u64,
}

impl Default for HedgePolicy {
    fn default() -> Self {
        HedgePolicy {
            enabled: false,
            quantile: 0.95,
            factor: 2.0,
            min_delay: Duration::from_millis(20),
            warmup: 16,
        }
    }
}

impl HedgePolicy {
    /// What [`parse`](Self::parse) accepts.
    const GRAMMAR: &'static str = "off|on[:q=..][:factor=..][:min_ms=..][:warmup=..]";

    /// The policy selected by `NSX_HEDGE`, or the disabled default when
    /// unset. Panics naming the knob on a value [`parse`](Self::parse)
    /// rejects.
    pub fn from_env() -> Self {
        Self::from_setting(std::env::var("NSX_HEDGE").ok().as_deref())
    }

    /// [`HedgePolicy::from_env`] over an already-read setting.
    fn from_setting(value: Option<&str>) -> Self {
        policy_setting("NSX_HEDGE", Self::GRAMMAR, value, Self::parse)
    }

    /// An enabled policy with the default knobs.
    pub fn enabled() -> Self {
        HedgePolicy {
            enabled: true,
            ..Self::default()
        }
    }

    /// Parse `off` | `on[:q=..][:factor=..][:min_ms=..][:warmup=..]`.
    pub fn parse(s: &str) -> Option<Self> {
        let mut parts = s.split(':');
        let mut p = match parts.next()? {
            "off" => return Some(HedgePolicy::default()),
            "on" => Self::enabled(),
            _ => return None,
        };
        for part in parts {
            let (key, value) = part.split_once('=')?;
            match key {
                "q" => p.quantile = value.parse().ok().filter(|q| (0.0..1.0).contains(q))?,
                "factor" => p.factor = value.parse().ok().filter(|f| *f >= 1.0)?,
                "min_ms" => p.min_delay = Duration::from_millis(value.parse().ok()?),
                "warmup" => p.warmup = value.parse().ok()?,
                _ => return None,
            }
        }
        Some(p)
    }

    /// The in-flight latency beyond which a job should be hedged, given the
    /// current quantile estimate (`None` while the estimator is cold).
    /// Returns `None` when hedging is off or still warming up.
    pub fn hedge_after(&self, completed: u64, quantile_secs: Option<f64>) -> Option<Duration> {
        if !self.enabled || completed < self.warmup {
            return None;
        }
        let est = quantile_secs?;
        if !est.is_finite() || est < 0.0 {
            return None;
        }
        Some(Duration::from_secs_f64(est * self.factor).max(self.min_delay))
    }
}

/// A policy knob's value: the default when unset, otherwise `parse` of it.
/// Panics naming the knob, the value and the grammar when `parse` rejects
/// the value.
fn policy_setting<T: Default>(
    knob: &str,
    grammar: &str,
    value: Option<&str>,
    parse: fn(&str) -> Option<T>,
) -> T {
    match value {
        None => T::default(),
        Some(v) => parse(v).unwrap_or_else(|| panic!("invalid {knob}='{v}': expected {grammar}")),
    }
}

// ---------------------------------------------------------------------------
// Heartbeat liveness policy
// ---------------------------------------------------------------------------

/// Ping/Pong liveness for the process transport (DESIGN.md §16).
///
/// The master sends a `Ping` frame to an idle link after `interval` without
/// traffic; a worker that fails to `Pong` within `timeout` is buried and
/// respawned. Any received frame counts as liveness, so busy links are
/// never pinged.
///
/// Environment: `NSX_HEARTBEAT=off` or
/// `NSX_HEARTBEAT=on[:interval_ms=1000][:timeout_ms=3000]` (on by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatPolicy {
    /// Master switch.
    pub enabled: bool,
    /// Quiet time after which a Ping is sent.
    pub interval: Duration,
    /// Time after an unanswered Ping at which the link is declared dead.
    pub timeout: Duration,
}

impl Default for HeartbeatPolicy {
    fn default() -> Self {
        HeartbeatPolicy {
            enabled: true,
            interval: Duration::from_millis(1000),
            timeout: Duration::from_millis(3000),
        }
    }
}

impl HeartbeatPolicy {
    /// What [`parse`](Self::parse) accepts.
    const GRAMMAR: &'static str = "off|on[:interval_ms=..][:timeout_ms=..]";

    /// The policy selected by `NSX_HEARTBEAT`, or the enabled default when
    /// unset. Panics naming the knob on a value [`parse`](Self::parse)
    /// rejects.
    pub fn from_env() -> Self {
        Self::from_setting(std::env::var("NSX_HEARTBEAT").ok().as_deref())
    }

    /// [`HeartbeatPolicy::from_env`] over an already-read setting.
    fn from_setting(value: Option<&str>) -> Self {
        policy_setting("NSX_HEARTBEAT", Self::GRAMMAR, value, Self::parse)
    }

    /// Parse `off` | `on[:interval_ms=..][:timeout_ms=..]`.
    pub fn parse(s: &str) -> Option<Self> {
        let mut parts = s.split(':');
        let mut p = match parts.next()? {
            "off" => {
                return Some(HeartbeatPolicy {
                    enabled: false,
                    ..Self::default()
                })
            }
            "on" => Self::default(),
            _ => return None,
        };
        for part in parts {
            let (key, value) = part.split_once('=')?;
            match key {
                "interval_ms" => p.interval = Duration::from_millis(value.parse().ok()?),
                "timeout_ms" => p.timeout = Duration::from_millis(value.parse().ok()?),
                _ => return None,
            }
        }
        Some(p)
    }
}

// ---------------------------------------------------------------------------
// Jittered exponential respawn backoff
// ---------------------------------------------------------------------------

/// Deferral schedule for repeated respawns of one worker slot
/// (DESIGN.md §16).
///
/// The first respawn of a slot is immediate — a one-off crash should cost
/// nothing beyond the lost attempt. From the second respawn on, the slot
/// waits `base × 2^(k-2)` (capped at `cap`) scaled by a deterministic
/// jitter in `[0.5, 1.5)` seeded from `(slot, incarnation)`, so a host
/// killing workers in a loop sees staggered, slowing respawns rather than
/// a thundering herd. Supervision *defers* (skips the slot this pass)
/// rather than sleeping, so no run ever blocks on a backoff.
///
/// Environment: `NSX_RESPAWN_BACKOFF=off` or
/// `NSX_RESPAWN_BACKOFF=on[:base_ms=25][:cap_ms=2000]` (on by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Master switch; `off` restores the historical immediate respawn.
    pub enabled: bool,
    /// Delay before the second respawn of a slot.
    pub base: Duration,
    /// Upper bound on any single deferral.
    pub cap: Duration,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            enabled: true,
            base: Duration::from_millis(25),
            cap: Duration::from_millis(2000),
        }
    }
}

impl BackoffPolicy {
    /// What [`parse`](Self::parse) accepts.
    const GRAMMAR: &'static str = "off|on[:base_ms=..][:cap_ms=..]";

    /// The policy selected by `NSX_RESPAWN_BACKOFF`, or the enabled default
    /// when unset. Panics naming the knob on a value
    /// [`parse`](Self::parse) rejects.
    pub fn from_env() -> Self {
        Self::from_setting(std::env::var("NSX_RESPAWN_BACKOFF").ok().as_deref())
    }

    /// [`BackoffPolicy::from_env`] over an already-read setting.
    fn from_setting(value: Option<&str>) -> Self {
        policy_setting("NSX_RESPAWN_BACKOFF", Self::GRAMMAR, value, Self::parse)
    }

    /// Parse `off` | `on[:base_ms=..][:cap_ms=..]`.
    pub fn parse(s: &str) -> Option<Self> {
        let mut parts = s.split(':');
        let mut p = match parts.next()? {
            "off" => {
                return Some(BackoffPolicy {
                    enabled: false,
                    ..Self::default()
                })
            }
            "on" => Self::default(),
            _ => return None,
        };
        for part in parts {
            let (key, value) = part.split_once('=')?;
            match key {
                "base_ms" => p.base = Duration::from_millis(value.parse().ok()?),
                "cap_ms" => p.cap = Duration::from_millis(value.parse().ok()?),
                _ => return None,
            }
        }
        Some(p)
    }

    /// The deferral before respawn number `respawn` (1-based) of `slot`.
    /// `Duration::ZERO` for the first respawn or when disabled.
    pub fn delay_for(&self, slot: usize, respawn: u32) -> Duration {
        if !self.enabled || respawn <= 1 {
            return Duration::ZERO;
        }
        let exp = (respawn - 2).min(20);
        let raw = self.base.saturating_mul(1u32 << exp).min(self.cap);
        raw.mul_f64(jitter(slot as u64, respawn as u64))
    }
}

/// Deterministic jitter factor in `[0.5, 1.5)` from a `(slot, respawn)`
/// key — a splitmix64 finalizer, so the same slot's schedule is
/// reproducible run to run while distinct slots de-synchronize.
pub fn jitter(slot: u64, respawn: u64) -> f64 {
    let mut z = slot
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(respawn)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    0.5 + (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2_tracks_known_quantiles_of_uniform_ramp() {
        // A deterministic pseudo-random permutation of 0..10_000 via a
        // multiplicative stride coprime to the length.
        let n = 10_000usize;
        for &q in &[0.5, 0.9, 0.95, 0.99] {
            let mut est = P2Quantile::new(q);
            for i in 0..n {
                let v = (i * 7919) % n;
                est.observe(v as f64);
            }
            let got = est.estimate().unwrap();
            let want = q * n as f64;
            // P² is approximate; 2% of range is ample for a uniform ramp.
            assert!(
                (got - want).abs() < 0.02 * n as f64,
                "q={q}: got {got}, want ~{want}"
            );
        }
    }

    #[test]
    fn p2_is_exactish_in_bootstrap_phase() {
        let mut est = P2Quantile::new(0.5);
        assert_eq!(est.estimate(), None);
        for v in [5.0, 1.0, 4.0, 2.0, 3.0] {
            est.observe(v);
        }
        // Five sorted observations: the middle marker is the exact median.
        assert_eq!(est.estimate(), Some(3.0));
    }

    #[test]
    fn p2_ignores_nonfinite() {
        let mut est = P2Quantile::new(0.9);
        est.observe(f64::NAN);
        est.observe(f64::INFINITY);
        assert_eq!(est.count(), 0);
    }

    #[test]
    fn hedge_parse_grammar() {
        assert_eq!(HedgePolicy::parse("off"), Some(HedgePolicy::default()));
        assert_eq!(HedgePolicy::parse("on"), Some(HedgePolicy::enabled()));
        let p = HedgePolicy::parse("on:q=0.9:factor=3:min_ms=5:warmup=2").unwrap();
        assert!(p.enabled);
        assert_eq!(p.quantile, 0.9);
        assert_eq!(p.factor, 3.0);
        assert_eq!(p.min_delay, Duration::from_millis(5));
        assert_eq!(p.warmup, 2);
        assert_eq!(HedgePolicy::parse("on:q=1.5"), None);
        assert_eq!(HedgePolicy::parse("on:factor=0.5"), None);
        assert_eq!(HedgePolicy::parse("maybe"), None);
        assert_eq!(HedgePolicy::parse("on:bogus=1"), None);
    }

    #[test]
    fn hedge_setting_defaults_when_unset_and_parses_when_set() {
        assert_eq!(HedgePolicy::from_setting(None), HedgePolicy::default());
        assert_eq!(
            HedgePolicy::from_setting(Some("on")),
            HedgePolicy::enabled()
        );
    }

    #[test]
    #[should_panic(expected = "invalid NSX_HEDGE='on:q=2'")]
    fn malformed_hedge_setting_panics_naming_the_knob_and_value() {
        HedgePolicy::from_setting(Some("on:q=2"));
    }

    #[test]
    fn hedge_threshold_respects_warmup_floor_and_factor() {
        let p = HedgePolicy::parse("on:q=0.95:factor=2:min_ms=20:warmup=4").unwrap();
        // Cold: no hedging.
        assert_eq!(p.hedge_after(3, Some(0.1)), None);
        // Warm, healthy estimate: factor × estimate.
        assert_eq!(
            p.hedge_after(10, Some(0.1)),
            Some(Duration::from_secs_f64(0.2))
        );
        // Tiny estimate: the floor wins.
        assert_eq!(
            p.hedge_after(10, Some(1e-6)),
            Some(Duration::from_millis(20))
        );
        // No estimate yet: no hedging.
        assert_eq!(p.hedge_after(10, None), None);
        // Disabled: never.
        assert_eq!(HedgePolicy::default().hedge_after(100, Some(0.1)), None);
    }

    #[test]
    fn heartbeat_parse_grammar() {
        let off = HeartbeatPolicy::parse("off").unwrap();
        assert!(!off.enabled);
        let p = HeartbeatPolicy::parse("on:interval_ms=100:timeout_ms=250").unwrap();
        assert!(p.enabled);
        assert_eq!(p.interval, Duration::from_millis(100));
        assert_eq!(p.timeout, Duration::from_millis(250));
        assert_eq!(HeartbeatPolicy::parse("on:bogus=1"), None);
        assert_eq!(HeartbeatPolicy::parse(""), None);
    }

    #[test]
    #[should_panic(
        expected = "invalid NSX_HEARTBEAT='on:interval=5': expected off|on[:interval_ms=..]"
    )]
    fn malformed_heartbeat_setting_panics_naming_the_knob_and_value() {
        assert_eq!(
            HeartbeatPolicy::from_setting(None),
            HeartbeatPolicy::default()
        );
        HeartbeatPolicy::from_setting(Some("on:interval=5"));
    }

    #[test]
    #[should_panic(
        expected = "invalid NSX_RESPAWN_BACKOFF='on:base_ms=x': expected off|on[:base_ms=..]"
    )]
    fn malformed_backoff_setting_panics_naming_the_knob_and_value() {
        assert_eq!(BackoffPolicy::from_setting(None), BackoffPolicy::default());
        BackoffPolicy::from_setting(Some("on:base_ms=x"));
    }

    #[test]
    fn backoff_first_respawn_is_free_then_grows_to_cap() {
        let p = BackoffPolicy::parse("on:base_ms=10:cap_ms=100").unwrap();
        assert_eq!(p.delay_for(0, 1), Duration::ZERO);
        let d2 = p.delay_for(0, 2);
        let d5 = p.delay_for(0, 5);
        // Jitter is in [0.5, 1.5): bounds scale accordingly.
        assert!(d2 >= Duration::from_millis(5) && d2 < Duration::from_millis(15));
        // 10ms × 2^3 = 80ms, jittered within [40, 120) but capped pre-jitter
        // at 100 → [50, 150).
        assert!(d5 >= Duration::from_millis(40) && d5 < Duration::from_millis(150));
        // Far future respawns are capped, not overflowing.
        assert!(p.delay_for(0, 60) <= Duration::from_millis(150));
        // Disabled: always immediate.
        let off = BackoffPolicy::parse("off").unwrap();
        assert_eq!(off.delay_for(0, 7), Duration::ZERO);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        for slot in 0..16u64 {
            for r in 0..16u64 {
                let a = jitter(slot, r);
                let b = jitter(slot, r);
                assert_eq!(a, b);
                assert!((0.5..1.5).contains(&a), "jitter {a} out of range");
            }
        }
        // Distinct keys de-synchronize.
        assert_ne!(jitter(0, 2), jitter(1, 2));
    }
}
