//! Shadow stacks: explicit, scannable per-thread root sets.
//!
//! The real platform scans raw thread stacks; that is inherently
//! nondeterministic (dead slots, register spills). For *protocol* testing
//! we substitute an explicit root region per simulated thread: a fixed
//! array of words the test publishes references into. The scan semantics
//! are identical to a stack scan — conservative, word-by-word, non-atomic —
//! but the root set is exactly known, so tests can assert both directions:
//! rooted nodes are never freed, unrooted nodes always are.

use std::sync::atomic::{AtomicUsize, Ordering};

use threadscan::ScanSession;

/// A fixed-size region of root words for one simulated thread.
///
/// Writers (the owning test thread) use [`ShadowStack::publish`] /
/// [`ShadowStack::retract`]; any thread may [`ShadowStack::scan`] it, which
/// mirrors the OS delivering a signal to whatever state the thread is in.
pub struct ShadowStack {
    words: Box<[AtomicUsize]>,
}

impl ShadowStack {
    /// A shadow stack with `capacity` root slots.
    pub fn new(capacity: usize) -> Self {
        let words = (0..capacity)
            .map(|_| AtomicUsize::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self { words }
    }

    /// Number of root slots.
    pub fn capacity(&self) -> usize {
        self.words.len()
    }

    /// Publishes `value` as a root. Returns the slot used, or `None` when
    /// every slot is occupied.
    pub fn publish(&self, value: usize) -> Option<usize> {
        for (i, w) in self.words.iter().enumerate() {
            if w.compare_exchange(0, value, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return Some(i);
            }
        }
        None
    }

    /// Clears the root in `slot`, returning its previous value.
    pub fn retract(&self, slot: usize) -> usize {
        self.words[slot].swap(0, Ordering::AcqRel)
    }

    /// Overwrites `slot` unconditionally (simulates a stack slot being
    /// reused for a different local).
    pub fn overwrite(&self, slot: usize, value: usize) -> usize {
        self.words[slot].swap(value, Ordering::AcqRel)
    }

    /// Current value of `slot`.
    pub fn get(&self, slot: usize) -> usize {
        self.words[slot].load(Ordering::Acquire)
    }

    /// Number of non-zero roots.
    pub fn live_roots(&self) -> usize {
        self.words
            .iter()
            .filter(|w| w.load(Ordering::Relaxed) != 0)
            .count()
    }

    /// Conservatively scans every slot against `session` — the simulated
    /// `TS-Scan` stack walk. Non-atomic across slots by design, like the
    /// real thing.
    pub fn scan(&self, session: &ScanSession<'_>) {
        for w in self.words.iter() {
            session.scan_word(w.load(Ordering::Acquire));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threadscan::master::MasterBuffer;
    use threadscan::{CollectorConfig, Retired};

    fn master(addr: usize, size: usize) -> MasterBuffer {
        MasterBuffer::new(
            vec![unsafe { Retired::from_raw_parts(addr, size, threadscan::retired::noop_drop) }],
            &CollectorConfig::default(),
        )
    }

    #[test]
    fn publish_retract_roundtrip() {
        let s = ShadowStack::new(4);
        let slot = s.publish(0xabc0).unwrap();
        assert_eq!(s.get(slot), 0xabc0);
        assert_eq!(s.live_roots(), 1);
        assert_eq!(s.retract(slot), 0xabc0);
        assert_eq!(s.live_roots(), 0);
    }

    #[test]
    fn publish_fails_when_full() {
        let s = ShadowStack::new(2);
        s.publish(1).unwrap();
        s.publish(2).unwrap();
        assert_eq!(s.publish(3), None);
    }

    #[test]
    fn scan_marks_published_roots_only() {
        let s = ShadowStack::new(4);
        s.publish(0x1008).unwrap(); // interior pointer into [0x1000,0x1040)
        let mb = master(0x1000, 64);
        let sess = mb.session();
        s.scan(&sess);
        assert!(mb.is_marked(0));

        let mb2 = master(0x9000, 64);
        let sess2 = mb2.session();
        s.scan(&sess2);
        assert!(!mb2.is_marked(0));
    }

    #[test]
    fn overwrite_replaces_root() {
        let s = ShadowStack::new(2);
        let slot = s.publish(0x1000).unwrap();
        assert_eq!(s.overwrite(slot, 0x2000), 0x1000);
        assert_eq!(s.get(slot), 0x2000);
    }
}
