//! Typed failures of the RL training path.
//!
//! Everything that used to be an `assert!` on trainer/agent input
//! reachable from user configuration is a variant here, so the training
//! plane composes with the workspace-wide no-panic policy (`zeus-api`'s
//! `ZeusError` wraps these via `zeus-core`'s `PlanError`).

/// A typed training-path failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RlError {
    /// An update was requested over an empty minibatch (replay empty or
    /// `batch_size == 0`).
    EmptyBatch,
    /// An experience's state dimensionality does not match the network.
    StateDimMismatch {
        /// The network's input dimension.
        expected: usize,
        /// The offending experience's state length.
        got: usize,
    },
    /// An experience's action is not one of the network's outputs.
    ActionOutOfRange {
        /// The offending experience's action.
        action: usize,
        /// The network's action count.
        num_actions: usize,
    },
}

impl std::fmt::Display for RlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RlError::EmptyBatch => write!(f, "empty minibatch: nothing to update on"),
            RlError::StateDimMismatch { expected, got } => {
                write!(
                    f,
                    "state dim mismatch: network expects {expected}, got {got}"
                )
            }
            RlError::ActionOutOfRange {
                action,
                num_actions,
            } => write!(
                f,
                "action {action} out of range: network has {num_actions} actions"
            ),
        }
    }
}

impl std::error::Error for RlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_detail() {
        assert!(RlError::EmptyBatch.to_string().contains("minibatch"));
        assert!(RlError::StateDimMismatch {
            expected: 24,
            got: 3
        }
        .to_string()
        .contains("24"));
        assert!(RlError::ActionOutOfRange {
            action: 9,
            num_actions: 6
        }
        .to_string()
        .contains("action 9"));
    }
}
