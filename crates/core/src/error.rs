//! Query-level and monitor-description errors.

/// Why a query could not be posed against the engine. (Data not yet
/// available — warm-up — is reported as an empty/`None` answer, not an
/// error.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The query sequence was empty.
    EmptyQuery,
    /// The window/query length is not a multiple of the base window, or its
    /// binary decomposition needs a resolution level the index does not
    /// maintain.
    LengthNotDecomposable {
        /// Offending length.
        len: usize,
        /// Base window `W`.
        base: usize,
        /// Highest maintained level `J`.
        max_level: usize,
    },
    /// The query is shorter than the smallest length the batch algorithm
    /// can serve (`2W − 1`).
    QueryTooShort {
        /// Offending length.
        len: usize,
        /// Minimum serviceable length.
        min: usize,
    },
    /// The radius/threshold was negative or not finite.
    InvalidRadius,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::EmptyQuery => write!(f, "query sequence is empty"),
            QueryError::LengthNotDecomposable { len, base, max_level } => write!(
                f,
                "length {len} cannot be decomposed over base window {base} with levels 0..={max_level}"
            ),
            QueryError::QueryTooShort { len, min } => {
                write!(f, "query length {len} below the minimum of {min}")
            }
            QueryError::InvalidRadius => write!(f, "radius must be finite and nonnegative"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Why a monitor could not be built from its parameters. Every monitor
/// constructor returns it instead of panicking, and
/// [`crate::spec::MonitorSpec::build`] checks a whole description with
/// them before any monitor runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// No query class is enabled: there is nothing to monitor.
    NoQueryClass,
    /// A parameter is out of range or inconsistent with another; the
    /// message names it.
    Invalid(String),
    /// A trend pattern was rejected.
    Pattern(QueryError),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::NoQueryClass => write!(f, "enable at least one query class"),
            SpecError::Invalid(what) => f.write_str(what),
            SpecError::Pattern(e) => write!(f, "trend pattern rejected: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// `Err(SpecError::Invalid(what))` unless `ok`.
pub(crate) fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), SpecError> {
    if ok {
        Ok(())
    } else {
        Err(SpecError::Invalid(what()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_render() {
        let e = QueryError::LengthNotDecomposable { len: 100, base: 8, max_level: 2 };
        assert!(e.to_string().contains("100"));
        assert!(QueryError::EmptyQuery.to_string().contains("empty"));
    }
}
