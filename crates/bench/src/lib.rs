//! Experiment harness: regenerates every table and figure of the paper.
//!
//! [`experiments::FIGURES`] is the one registry of experiments and the
//! `repro_all` example the one program that prints them; each experiment
//! module returns structured results so integration tests can assert on
//! the *shapes* (who wins, where the crossovers fall) rather than on
//! printed text. Host wall-clock and allocation claims belong to the
//! repo benchmark (`benchmark/`), not to this crate.
//!
//! Scale: experiments default to a laptop-friendly size; set
//! `KVSSD_BENCH_SCALE=full` for populations closer to the scaled-paper
//! sizes (several times slower).

pub mod alloctune;
pub mod experiments;
pub mod setup;
pub mod walltime;

/// Reads one `KVSSD_*` configuration variable from the environment.
///
/// This is the workspace's only sanctioned environment read: every knob
/// (`KVSSD_BENCH_SCALE`, `KVSSD_BENCH_THREADS`, `KVSSD_GOLDEN_PRINT`)
/// funnels through here so `kvlint`'s `no-env-read` rule can allowlist
/// exactly one module — ambient host state must never steer a library
/// crate, or runs stop being pure functions of their seeds. Returns
/// `None` when unset or not valid UTF-8.
pub fn env_config(name: &str) -> Option<String> {
    debug_assert!(
        name.starts_with("KVSSD_"),
        "bench config variables are namespaced KVSSD_*"
    );
    // No pragma needed here: this file is kvlint's ENV_READ_ALLOWLIST
    // entry, and a pragma that suppresses nothing is itself a violation
    // (dead-pragma) — the allowlist and the pragma surface never overlap.
    std::env::var(name).ok()
}

/// Experiment scale, selected via `KVSSD_BENCH_SCALE`
/// (`tiny`|`quick`|`full`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minimal populations for (debug-build) integration tests: shapes
    /// hold, absolute numbers are noisy.
    Tiny,
    /// CI-sized populations (the default).
    Quick,
    /// Populations near the scaled-paper sizes.
    Full,
}

impl std::str::FromStr for Scale {
    type Err = String;

    /// Parses `tiny`, `quick` or `full`; anything else is an error
    /// naming the three, never a silent default.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "tiny" => Ok(Scale::Tiny),
            "quick" => Ok(Scale::Quick),
            "full" => Ok(Scale::Full),
            other => Err(format!(
                "unknown KVSSD_BENCH_SCALE `{other}`; expected tiny|quick|full"
            )),
        }
    }
}

impl Scale {
    /// Reads the scale from `KVSSD_BENCH_SCALE`; unset means
    /// [`Scale::Quick`], an unrecognised value is an error.
    pub fn from_env() -> Result<Self, String> {
        env_config("KVSSD_BENCH_SCALE").map_or(Ok(Scale::Quick), |s| s.parse())
    }

    /// Picks the value for this scale.
    pub fn pick(self, tiny: u64, quick: u64, full: u64) -> u64 {
        match self {
            Scale::Tiny => tiny,
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_picks_by_variant() {
        assert_eq!(Scale::Tiny.pick(1, 2, 3), 1);
        assert_eq!(Scale::Quick.pick(1, 2, 3), 2);
        assert_eq!(Scale::Full.pick(1, 2, 3), 3);
    }

    #[test]
    fn scale_parses_the_three_names_and_rejects_the_rest() {
        assert_eq!("tiny".parse(), Ok(Scale::Tiny));
        assert_eq!("quick".parse(), Ok(Scale::Quick));
        assert_eq!("full".parse(), Ok(Scale::Full));
        for bad in ["", "Tiny", "quick ", "fast"] {
            let err = bad.parse::<Scale>().unwrap_err();
            assert!(err.contains("tiny|quick|full"), "{err}");
        }
    }

    #[test]
    fn env_scale_defaults_to_quick() {
        // (No env mutation: just check the default path when the
        // variable is absent.)
        if env_config("KVSSD_BENCH_SCALE").is_none() {
            assert_eq!(Scale::from_env(), Ok(Scale::Quick));
        }
    }
}
