//! Typed errors for the [`Session`](crate::session::Session) /
//! [`SharedRun`](crate::shared::SharedRun) pipeline.
//!
//! The engine internals (`SimulationEngine::new`) `assert!` their
//! preconditions and panic on bad input. `Session` and `SharedRun` check
//! the same conditions up front and report a [`TgxError`] instead, so
//! callers — in particular `tgx-cli`, which runs other people's files —
//! can distinguish "your graph doesn't match your model" from a
//! genuine engine bug and exit with a message rather than a backtrace.
//!
//! The enum is `thiserror`-shaped by hand (the build container vendors no
//! proc-macro error crates): every variant carries its context, `Display`
//! renders a one-line human message, and `source()` chains the underlying
//! I/O or codec error where one exists.

use crate::persist::PersistError;

/// Everything that can go wrong in the train → simulate → evaluate
/// pipeline, short of an engine bug (those still panic).
#[derive(Debug)]
#[non_exhaustive]
pub enum TgxError {
    /// The observed graph and the model were shaped for different node
    /// counts.
    NodeCountMismatch {
        /// Nodes the model was built for.
        model: usize,
        /// Nodes in the observed graph.
        graph: usize,
    },
    /// The observed graph has more timestamps than the model was built
    /// for (or, on [`SharedRun::evaluate`](crate::shared::SharedRun::evaluate),
    /// the synthetic graph covers fewer timestamps than the observed one).
    TimestampMismatch {
        /// Timestamps the model (or observed horizon) expects.
        model: usize,
        /// Timestamps actually present.
        graph: usize,
    },
    /// The observed graph has no timestamps or no temporal node with
    /// positive out-degree — there is nothing to learn from or simulate.
    EmptyGraph,
    /// A configuration field is out of its valid range (zero epochs, zero
    /// model dimensions, …). The message names the field.
    InvalidConfig(String),
    /// Reading or writing a checkpoint failed (missing file, permissions,
    /// corrupt/incompatible JSON). Wraps the underlying [`PersistError`].
    Checkpoint(PersistError),
    /// A checkpoint loaded fine but belongs to a different run: its model
    /// shape or configuration disagrees with this session's.
    CheckpointMismatch(String),
    /// The training loop was cancelled by the
    /// [`RunObserver`](crate::session::RunObserver) before any epoch ran,
    /// so there is no report to return.
    Cancelled,
}

impl std::fmt::Display for TgxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TgxError::NodeCountMismatch { model, graph } => write!(
                f,
                "graph/model node-count mismatch: model was shaped for {model} nodes, graph has {graph}"
            ),
            TgxError::TimestampMismatch { model, graph } => write!(
                f,
                "timestamp-count mismatch: expected up to {model} timestamps, graph has {graph}"
            ),
            TgxError::EmptyGraph => write!(
                f,
                "observed graph has no temporal nodes to learn from or simulate"
            ),
            TgxError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            TgxError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            TgxError::CheckpointMismatch(msg) => write!(f, "checkpoint mismatch: {msg}"),
            TgxError::Cancelled => write!(f, "run cancelled by observer before the first epoch"),
        }
    }
}

impl std::error::Error for TgxError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TgxError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PersistError> for TgxError {
    fn from(e: PersistError) -> Self {
        TgxError::Checkpoint(e)
    }
}

impl From<tg_faults::FaultError> for TgxError {
    fn from(e: tg_faults::FaultError) -> Self {
        TgxError::Checkpoint(PersistError::Io(e.into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_name_the_condition() {
        let e = TgxError::NodeCountMismatch {
            model: 10,
            graph: 12,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("12"));
        assert!(TgxError::EmptyGraph
            .to_string()
            .contains("no temporal nodes"));
        assert!(TgxError::InvalidConfig("epochs must be > 0".into())
            .to_string()
            .contains("epochs"));
    }

    #[test]
    fn checkpoint_errors_chain_their_source() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e = TgxError::from(PersistError::Io(io));
        assert!(matches!(e, TgxError::Checkpoint(_)));
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("checkpoint"));
    }
}
