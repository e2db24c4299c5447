//! Facade error type.

use std::fmt;
use vmcu_pool::PoolError;
use vmcu_sim::MemError;

/// An engine failure.
#[derive(Debug)]
pub enum EngineError {
    /// The layer does not fit the device RAM under the selected planner —
    /// the paper's "fails to run" outcome (e.g. TinyEngine on Figure 7
    /// cases 1, 2, 4 at 128 KB).
    DoesNotFit {
        /// Layer name.
        layer: String,
        /// Bytes the plan needs (including runtime overhead).
        needed: usize,
        /// Device RAM bytes.
        available: usize,
    },
    /// The selected policy's kernels or schedule do not support this
    /// layer kind.
    Unsupported {
        /// Layer kind.
        kind: &'static str,
        /// Name of the kernels or policy that refused it.
        executor: &'static str,
    },
    /// The weights slice passed to deploy does not hold exactly one
    /// entry per graph layer.
    WeightsMismatch {
        /// Layers in the graph.
        layers: usize,
        /// Entries in the weights slice.
        weights: usize,
    },
    /// Deployed session state leaked between inferences — an invariant
    /// staged at deploy time (e.g. the flash firmware image) changed
    /// during `infer`. Indicates a kernel bug; surfaced as a typed
    /// error on the next inference, never silently absorbed.
    StateLeak {
        /// The deployed invariant that changed.
        what: &'static str,
        /// Bytes the invariant held at deploy time.
        expected: usize,
        /// Bytes found before the next inference.
        found: usize,
    },
    /// Pool violation during execution (indicates a planner/kernel bug —
    /// surfaced, never silent).
    Pool(PoolError),
    /// Raw memory violation.
    Mem(MemError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::DoesNotFit {
                layer,
                needed,
                available,
            } => write!(
                f,
                "layer `{layer}` needs {needed} bytes but the device has {available}"
            ),
            EngineError::Unsupported { kind, executor } => {
                write!(f, "{executor} executor does not support {kind} layers")
            }
            EngineError::WeightsMismatch { layers, weights } => write!(
                f,
                "the graph has {layers} layers but {weights} weight entries were given"
            ),
            EngineError::StateLeak {
                what,
                expected,
                found,
            } => write!(
                f,
                "session state leak: {what} was {expected} bytes at deploy but {found} before \
                 the next inference"
            ),
            EngineError::Pool(e) => write!(f, "pool violation: {e}"),
            EngineError::Mem(e) => write!(f, "memory error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Pool(e) => Some(e),
            EngineError::Mem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PoolError> for EngineError {
    fn from(e: PoolError) -> Self {
        EngineError::Pool(e)
    }
}

impl From<MemError> for EngineError {
    fn from(e: MemError) -> Self {
        EngineError::Mem(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_carry_numbers() {
        let e = EngineError::DoesNotFit {
            layer: "B2".into(),
            needed: 253_000,
            available: 131_072,
        };
        let s = e.to_string();
        assert!(s.contains("B2") && s.contains("253000") && s.contains("131072"));
    }

    #[test]
    fn conversions_wrap_sources() {
        let e: EngineError = MemError::RamOutOfRange {
            addr: 0,
            len: 1,
            capacity: 0,
        }
        .into();
        assert!(matches!(e, EngineError::Mem(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
