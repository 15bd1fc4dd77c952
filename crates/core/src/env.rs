//! Shared parsing for the `BEA_*` tuning variables.
//!
//! Every knob the service and the test suites read from the environment
//! (`BEA_FETCH_BUDGET`, `BEA_CACHE_ROWS`) follows the same loud-failure contract: an
//! unset variable means "use the default", and a set-but-invalid value **panics with
//! the rejection reason** instead of silently falling back — a typo must fail the job,
//! not quietly test the wrong configuration. This module is the one copy `bea-engine`
//! delegates to, so the rules can never drift apart.
//!
//! Parsing is split from environment access on purpose: [`parse_count`] is a pure
//! function, so the rejection rules are testable without mutating the process
//! environment (which would race parallel tests); [`read_env`] owns the
//! variable-to-panic plumbing.

/// Parse one counting variable's value: a non-negative integer with surrounding
/// whitespace tolerated, read as "zero means automatic" — `None` for `0` and for the
/// empty string (the `VAR= cmd` shell idiom for "unset"), the count otherwise. What
/// "automatic" means is per knob: unlimited for `BEA_FETCH_BUDGET`, disabled for
/// `BEA_CACHE_ROWS`. Anything else — signs, units, words — is an error naming the
/// reason, which [`read_env`] turns into a panic naming the variable.
pub fn parse_count(value: &str) -> Result<Option<u64>, String> {
    let trimmed = value.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    match trimmed.parse::<u64>() {
        Ok(0) => Ok(None),
        Ok(n) => Ok(Some(n)),
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
        assert_eq!(parse_count("4").unwrap(), Some(4));
        assert_eq!(parse_count(" 2 ").unwrap(), Some(2));
        assert!(parse_count("four").unwrap_err().contains("integer"));
        assert!(parse_count("-1").is_err());
        assert!(parse_count("2 threads").is_err());
        assert!(parse_count("1k").is_err());
    }

    #[test]
    fn auto_when_zero_folds_unset_and_zero() {
        assert_eq!(parse_count("").unwrap(), None, "empty means unset");
        assert_eq!(parse_count("  ").unwrap(), None, "blank means unset");
        assert_eq!(parse_count("0").unwrap(), None, "0 means automatic");
        assert_eq!(parse_count(" 0 ").unwrap(), None);
        assert_eq!(parse_count("7").unwrap(), Some(7));
    }

    #[test]
    fn read_env_returns_none_for_unset_variables() {
        assert_eq!(
            read_env("BEA_TEST_SURELY_UNSET_VARIABLE", parse_count),
            None
        );
    }
}
