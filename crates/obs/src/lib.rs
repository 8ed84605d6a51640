//! Zero-dependency metrics and run-accounting.
//!
//! The instrumented crates (`noisy-simplex`, `mw-framework`, `repro-bench`)
//! record what happened during a run — decision-site outcomes, gate checks,
//! queue depths, bytes on the wire — into a shared [`MetricsRegistry`].
//! Handles ([`Counter`], [`TimeAccumulator`], [`Gauge`]) are
//! `Arc`-backed and lock-free on the hot path: the registry's lock is taken
//! only at registration time, never per increment.
//!
//! A registry snapshot serializes to JSON or CSV with no external
//! dependencies; see [`MetricsRegistry::to_json`] / [`MetricsRegistry::to_csv`].

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An accumulator for non-negative durations (virtual or wall-clock time),
/// stored as `f64` bits in an atomic for lock-free concurrent adds.
#[derive(Debug, Default)]
pub struct TimeAccumulator {
    bits: AtomicU64,
}

impl TimeAccumulator {
    /// An accumulator starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `dt` (same unit the caller consistently uses — seconds or
    /// virtual-time units).
    pub fn add(&self, dt: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + dt).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current total.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A high-water-mark gauge: records the maximum value ever observed.
#[derive(Debug, Default)]
pub struct Gauge {
    max: AtomicU64,
}

impl Gauge {
    /// A gauge whose high-water mark starts at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an observation, raising the high-water mark if it exceeds it.
    pub fn record(&self, v: u64) {
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// The largest value recorded so far.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }
}

/// One registered metric handle.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Time(Arc<TimeAccumulator>),
    Gauge(Arc<Gauge>),
}

/// A snapshot of one metric's value at export time.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter's current count.
    Counter(u64),
    /// A time accumulator's total.
    Time(f64),
    /// A gauge's high-water mark.
    Gauge(u64),
}

/// A named collection of metrics, shared across threads.
///
/// Names are dotted paths (`"pc.site.c3.resampled"`). Registration is
/// get-or-create: asking twice for the same name returns the same handle, so
/// independent components can contribute to one metric.
///
/// # Panics
/// Re-registering a name as a *different* metric kind panics — that is
/// always a programming error.
#[derive(Debug, Default, Clone)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn entry(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut map = self.inner.lock().unwrap();
        map.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.entry(name, || Metric::Counter(Arc::new(Counter::new()))) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} already registered as {other:?}, wanted counter"),
        }
    }

    /// Get or create the time accumulator named `name`.
    pub fn time(&self, name: &str) -> Arc<TimeAccumulator> {
        match self.entry(name, || Metric::Time(Arc::new(TimeAccumulator::new()))) {
            Metric::Time(t) => t,
            other => panic!("metric {name:?} already registered as {other:?}, wanted time"),
        }
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.entry(name, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} already registered as {other:?}, wanted gauge"),
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot every metric's current value, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        let map = self.inner.lock().unwrap();
        map.iter()
            .map(|(name, m)| {
                let v = match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Time(t) => MetricValue::Time(t.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.max()),
                };
                (name.clone(), v)
            })
            .collect()
    }

    /// Serialize the current snapshot as a JSON object keyed by metric name.
    ///
    /// Counters and gauges become integers, time accumulators become floats.
    pub fn to_json(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::from("{\n");
        for (i, (name, v)) in snap.iter().enumerate() {
            out.push_str("  ");
            push_json_string(&mut out, name);
            out.push_str(": ");
            match v {
                MetricValue::Counter(n) | MetricValue::Gauge(n) => {
                    out.push_str(&n.to_string());
                }
                MetricValue::Time(t) => out.push_str(&format_json_f64(*t)),
            }
            if i + 1 < snap.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push('}');
        out
    }

    /// Serialize the current snapshot as CSV with header
    /// `metric,kind,value`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("metric,kind,value\n");
        for (name, v) in self.snapshot() {
            match v {
                MetricValue::Counter(n) => {
                    out.push_str(&format!("{},counter,{}\n", csv_field(&name), n));
                }
                MetricValue::Time(t) => {
                    out.push_str(&format!(
                        "{},time,{}\n",
                        csv_field(&name),
                        format_json_f64(t)
                    ));
                }
                MetricValue::Gauge(n) => {
                    out.push_str(&format!("{},gauge,{}\n", csv_field(&name), n));
                }
            }
        }
        out
    }
}

/// Render an `f64` in a JSON-safe way (`NaN`/`inf` have no JSON encoding, so
/// they export as `null`).
fn format_json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // Bare integers like "3" are valid JSON numbers; keep them as-is.
        s
    } else {
        "null".to_string()
    }
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// A minimal JSON value parser used by tests and exporter consumers to
/// round-trip [`MetricsRegistry::to_json`] output without serde.
pub mod json {
    use std::collections::BTreeMap;

    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any JSON number.
        Number(f64),
        /// A string.
        String(String),
        /// An array.
        Array(Vec<Value>),
        /// An object.
        Object(BTreeMap<String, Value>),
    }

    impl Value {
        /// The numeric value, if this is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Number(n) => Some(*n),
                _ => None,
            }
        }

        /// The integer value, if this is a whole number.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
                _ => None,
            }
        }

        /// The object map, if this is an object.
        pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
            match self {
                Value::Object(m) => Some(m),
                _ => None,
            }
        }

        /// Look up a key in an object.
        pub fn get(&self, key: &str) -> Option<&Value> {
            self.as_object().and_then(|m| m.get(key))
        }
    }

    /// Parse a JSON document.
    pub fn parse(input: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!(
                    "expected {:?} at byte {}, found {:?}",
                    b as char,
                    self.pos,
                    self.peek().map(|c| c as char)
                ))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Value::String(self.string()?)),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'n') => self.literal("null", Value::Null),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                other => Err(format!(
                    "unexpected {:?} at byte {}",
                    other.map(|c| c as char),
                    self.pos
                )),
            }
        }

        fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(v)
            } else {
                Err(format!("invalid literal at byte {}", self.pos))
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| {
                b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-')
            }) {
                self.pos += 1;
            }
            std::str::from_utf8(&self.bytes[start..self.pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(Value::Number)
                .ok_or_else(|| format!("invalid number at byte {start}"))
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'u') => {
                                let hex = self
                                    .bytes
                                    .get(self.pos + 1..self.pos + 5)
                                    .ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                    16,
                                )
                                .map_err(|e| e.to_string())?;
                                out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                                self.pos += 4;
                            }
                            other => {
                                return Err(format!("bad escape {:?}", other.map(|c| c as char)))
                            }
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar (may span multiple bytes).
                        let rest = std::str::from_utf8(&self.bytes[self.pos..])
                            .map_err(|e| e.to_string())?;
                        let c = rest.chars().next().unwrap();
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Array(items));
                    }
                    other => {
                        return Err(format!(
                            "expected , or ] found {:?}",
                            other.map(|c| c as char)
                        ))
                    }
                }
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut map = BTreeMap::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Object(map));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let v = self.value()?;
                map.insert(key, v);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Object(map));
                    }
                    other => {
                        return Err(format!(
                            "expected , or }} found {:?}",
                            other.map(|c| c as char)
                        ))
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.record(3);
        g.record(9);
        g.record(7);
        assert_eq!(g.max(), 9);
    }

    #[test]
    fn time_accumulator_adds() {
        let t = TimeAccumulator::new();
        t.add(1.5);
        t.add(2.25);
        assert_eq!(t.get(), 3.75);
    }

    #[test]
    fn registry_get_or_create_shares_handles() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x.events");
        let b = reg.counter("x.events");
        a.inc();
        b.inc();
        assert_eq!(reg.counter("x.events").get(), 2);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn registry_kind_conflict_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("dual");
        reg.gauge("dual");
    }

    #[test]
    fn json_export_parses_back() {
        let reg = MetricsRegistry::new();
        reg.counter("a.count").add(42);
        reg.time("a.seconds").add(1.25);
        reg.gauge("a.depth").record(17);
        let doc = json::parse(&reg.to_json()).expect("exporter output must be valid JSON");
        assert_eq!(doc.get("a.count").and_then(|v| v.as_u64()), Some(42));
        assert_eq!(doc.get("a.seconds").and_then(|v| v.as_f64()), Some(1.25));
        assert_eq!(doc.get("a.depth").and_then(|v| v.as_u64()), Some(17));
    }

    #[test]
    fn csv_export_has_header_and_rows() {
        let reg = MetricsRegistry::new();
        reg.counter("n").add(3);
        let csv = reg.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "metric,kind,value");
        assert!(lines.contains(&"n,counter,3"));
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let reg = MetricsRegistry::new();
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let reg = reg.clone();
                s.spawn(move || {
                    let c = reg.counter("contended.count");
                    let t = reg.time("contended.seconds");
                    let g = reg.gauge("contended.depth");
                    for i in 0..per_thread {
                        c.inc();
                        t.add(0.001);
                        g.record(i);
                    }
                });
            }
        });
        let total = threads as u64 * per_thread;
        assert_eq!(reg.counter("contended.count").get(), total);
        assert_eq!(reg.gauge("contended.depth").max(), per_thread - 1);
        let t = reg.time("contended.seconds").get();
        assert!((t - total as f64 * 0.001).abs() < 1e-6, "time drifted: {t}");
    }

    #[test]
    fn json_parser_rejects_garbage() {
        assert!(json::parse("{\"a\": }").is_err());
        assert!(json::parse("[1, 2,]").is_err());
        assert!(json::parse("{} trailing").is_err());
    }
}
