//! Error types for the collector public API.

use core::fmt;

/// Errors from the §4.3 heap-block extension API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeapBlockError {
    /// `len == 0` blocks cannot hold references.
    EmptyBlock,
    /// The block starting at this address is already registered.
    AlreadyRegistered,
    /// The block was never registered (or already removed).
    NotRegistered,
    /// All heap-block slots (the contained capacity,
    /// [`MAX_HEAP_BLOCKS`](crate::roots::MAX_HEAP_BLOCKS) for a registered
    /// thread) are in use.
    TooManyBlocks(usize),
}

impl fmt::Display for HeapBlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyBlock => write!(f, "heap block must have non-zero length"),
            Self::AlreadyRegistered => write!(f, "heap block already registered"),
            Self::NotRegistered => write!(f, "heap block was not registered"),
            Self::TooManyBlocks(cap) => {
                write!(f, "all {cap} heap-block slots in use")
            }
        }
    }
}

impl std::error::Error for HeapBlockError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(HeapBlockError::TooManyBlocks(16).to_string().contains("16"));
        assert!(!HeapBlockError::EmptyBlock.to_string().is_empty());
        assert!(!HeapBlockError::AlreadyRegistered.to_string().is_empty());
        assert!(!HeapBlockError::NotRegistered.to_string().is_empty());
    }
}
