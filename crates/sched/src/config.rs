//! Scheduler configuration and the `NSX_SCHED` environment grammar.

use mw_framework::resilience::policy_setting;

/// Tunables for the [`Scheduler`](crate::Scheduler)'s tick loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedConfig {
    /// Maximum number of runs resident (actively stepping) per tick. Ready
    /// runs beyond the width wait their turn; resident runs are preempted
    /// to checkpoint bytes at the end of a tick whenever more than `width`
    /// runs are ready.
    pub width: usize,
    /// Simplex rounds each selected run advances per tick (its time slice).
    pub quantum: u64,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            width: 4,
            quantum: 8,
        }
    }
}

impl SchedConfig {
    /// Parse the `NSX_SCHED` grammar: colon-separated `key=value` pairs,
    /// `width=N` and `quantum=R`, each optional, in any order — e.g.
    /// `width=8`, `quantum=1:width=2`. Returns `None` on an unknown key or
    /// unparsable value (mirroring `NSX_CHECKPOINT`'s strictness).
    pub fn parse(spec: &str) -> Option<Self> {
        let mut cfg = SchedConfig::default();
        for part in spec.split(':').filter(|p| !p.is_empty()) {
            let (key, value) = part.split_once('=')?;
            match key {
                "width" => cfg.width = value.parse::<usize>().ok().filter(|&w| w > 0)?,
                "quantum" => cfg.quantum = value.parse::<u64>().ok().filter(|&q| q > 0)?,
                _ => return None,
            }
        }
        Some(cfg)
    }

    /// Read `NSX_SCHED` from the environment (the default when unset).
    /// Panics naming the knob on a value [`parse`](Self::parse) rejects.
    pub fn from_env() -> Self {
        Self::from_setting(std::env::var("NSX_SCHED").ok().as_deref())
    }

    /// [`from_env`](Self::from_env) over an already-read value.
    fn from_setting(value: Option<&str>) -> Self {
        let grammar = "[width=<N>][:quantum=<R>] with N, R >= 1";
        policy_setting("NSX_SCHED", grammar, value, Self::parse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_and_partial_specs() {
        assert_eq!(
            SchedConfig::parse("width=8:quantum=2"),
            Some(SchedConfig {
                width: 8,
                quantum: 2
            })
        );
        let d = SchedConfig::default();
        assert_eq!(
            SchedConfig::parse("width=2"),
            Some(SchedConfig {
                width: 2,
                quantum: d.quantum
            })
        );
        assert_eq!(
            SchedConfig::parse("quantum=1"),
            Some(SchedConfig {
                width: d.width,
                quantum: 1
            })
        );
        assert_eq!(SchedConfig::parse(""), Some(d));
    }

    #[test]
    fn parse_rejects_unknown_keys_and_zeroes() {
        assert_eq!(SchedConfig::parse("widht=8"), None);
        assert_eq!(SchedConfig::parse("width=0"), None);
        assert_eq!(SchedConfig::parse("quantum=x"), None);
        assert_eq!(SchedConfig::parse("width"), None);
    }

    #[test]
    #[should_panic(
        expected = "invalid NSX_SCHED='widht=8': expected [width=<N>][:quantum=<R>] with N, R >= 1"
    )]
    fn malformed_setting_panics_naming_the_knob_and_value() {
        SchedConfig::from_setting(Some("widht=8"));
    }
}
