//! Error types shared across the crate.

use std::fmt;

/// Convenience result alias for fallible configuration and analysis routines.
pub type Result<T> = std::result::Result<T, ConfigError>;

/// Errors raised while validating PRAC / TPRAC configurations or running the
/// analytical security model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A numeric parameter was zero or otherwise outside its legal range.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable description of the constraint that was violated.
        reason: String,
    },
    /// The analytical model could not find a TB-Window that keeps the
    /// worst-case activation count below the Back-Off threshold.
    NoSafeWindow {
        /// The RowHammer threshold that was requested.
        rowhammer_threshold: u32,
        /// The smallest window (in tREFI) that was probed.
        smallest_window_trefi: f64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::InvalidParameter { name, reason } => {
                write!(f, "invalid value for `{name}`: {reason}")
            }
            ConfigError::NoSafeWindow {
                rowhammer_threshold,
                smallest_window_trefi,
            } => write!(
                f,
                "no safe TB-Window exists for rowhammer threshold {rowhammer_threshold} \
                 (searched down to {smallest_window_trefi} tREFI)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let err = ConfigError::InvalidParameter {
            name: "nbo",
            reason: "must be non-zero".to_string(),
        };
        let text = err.to_string();
        assert!(text.contains("nbo"));
        assert!(text.contains("non-zero"));
    }

    #[test]
    fn no_safe_window_mentions_threshold() {
        let err = ConfigError::NoSafeWindow {
            rowhammer_threshold: 64,
            smallest_window_trefi: 0.01,
        };
        assert!(err.to_string().contains("64"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConfigError>();
    }
}
