//! Shared parsing for the `BEA_*` tuning variables.
//!
//! Every knob the test matrix and the service read from the environment
//! (`BEA_SHARDS`, `BEA_FETCH_BUDGET`, `BEA_CACHE_ROWS`) follows the
//! same loud-failure contract: an unset variable means "use the default", and a
//! set-but-invalid value **panics with the rejection reason** instead of silently
//! falling back — a CI matrix typo must fail the job, not quietly test the wrong
//! configuration. This module is the one copy `bea-engine` (budget, cache) and
//! `bea-storage` (shards) delegate to, so the rules can never drift apart.
//!
//! Parsing is split from environment access on purpose: [`parse_count`] is a pure
//! function, so the rejection rules are testable without mutating the process
//! environment (which would race parallel tests); [`read_env`] owns the
//! variable-to-panic plumbing.

/// A parsed counting variable: the three states every `BEA_*` knob distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvCount {
    /// The empty string — the `BEA_SHARDS= cmd` shell idiom for "unset".
    Unset,
    /// An explicit `0`. Most knobs read this as "automatic"; `BEA_SHARDS` rejects it
    /// (a sharded store needs at least one shard).
    Zero,
    /// An explicit positive count.
    Count(u64),
}

impl EnvCount {
    /// The count under the "zero means automatic" reading shared by
    /// `BEA_FETCH_BUDGET` and `BEA_CACHE_ROWS` (where "automatic" means unlimited or
    /// disabled, per knob): `None` for [`EnvCount::Unset`] and
    /// [`EnvCount::Zero`], the value otherwise.
    pub fn auto_when_zero(self) -> Option<u64> {
        match self {
            EnvCount::Unset | EnvCount::Zero => None,
            EnvCount::Count(n) => Some(n),
        }
    }
}

/// Parse one counting variable's value: a non-negative integer with surrounding
/// whitespace tolerated. Anything else — signs, units, words — is an error naming the
/// reason, which [`read_env`] (and the per-crate `shards_from_env`-style wrappers)
/// turn into a panic naming the variable.
pub fn parse_count(value: &str) -> Result<EnvCount, String> {
    let trimmed = value.trim();
    if trimmed.is_empty() {
        return Ok(EnvCount::Unset);
    }
    match trimmed.parse::<u64>() {
        Ok(0) => Ok(EnvCount::Zero),
        Ok(n) => Ok(EnvCount::Count(n)),
        Err(_) => Err(format!("expected a non-negative integer, got {trimmed:?}")),
    }
}

/// Read the environment variable `var` through `parse`, with the loud-failure
/// contract: unset returns `None`; a set value must parse or the process panics with
/// the variable name and the parser's rejection reason (non-unicode values included).
pub fn read_env<T>(var: &str, parse: impl Fn(&str) -> Result<T, String>) -> Option<T> {
    match std::env::var(var) {
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(_)) => {
            panic!("{var} is set to a non-unicode value; expected an integer")
        }
        Ok(value) => {
            Some(parse(&value).unwrap_or_else(|reason| panic!("invalid {var}={value:?}: {reason}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_values_are_validated() {
        assert_eq!(parse_count("4").unwrap(), EnvCount::Count(4));
        assert_eq!(parse_count(" 2 ").unwrap(), EnvCount::Count(2));
        assert_eq!(parse_count("0").unwrap(), EnvCount::Zero);
        assert_eq!(parse_count("").unwrap(), EnvCount::Unset);
        assert_eq!(parse_count("  ").unwrap(), EnvCount::Unset);
        assert!(parse_count("four").unwrap_err().contains("integer"));
        assert!(parse_count("-1").is_err());
        assert!(parse_count("2 threads").is_err());
        assert!(parse_count("1k").is_err());
    }

    #[test]
    fn auto_when_zero_folds_unset_and_zero() {
        assert_eq!(EnvCount::Unset.auto_when_zero(), None);
        assert_eq!(EnvCount::Zero.auto_when_zero(), None);
        assert_eq!(EnvCount::Count(7).auto_when_zero(), Some(7));
    }

    #[test]
    fn read_env_returns_none_for_unset_variables() {
        assert_eq!(
            read_env("BEA_TEST_SURELY_UNSET_VARIABLE", parse_count),
            None
        );
    }
}
