//! ThreadScan as an [`Smr`] scheme — §6 "Techniques" #5.
//!
//! The adapter makes the paper's headline property concrete in the type
//! system: **every per-read and per-operation hook is the trait's default
//! no-op**. Readers are invisible; the only instrumented call is `retire`,
//! which hands the node to the collector. All scanning happens inside
//! signal handlers, invisible to the data-structure code.

use std::sync::Arc;

use threadscan::{Collector, CollectorConfig, Platform, StatsSnapshot, ThreadHandle};

use crate::api::{DropFn, Smr, SmrHandle};

/// ThreadScan wrapped as a generic [`Smr`] scheme.
///
/// Generic over the collector [`Platform`]; benchmarks use
/// `ts_sigscan::SignalPlatform`, protocol tests can plug the simulated
/// platform in.
pub struct ThreadScanSmr<P: Platform> {
    collector: Arc<Collector<P>>,
}

impl<P: Platform> ThreadScanSmr<P> {
    /// Wraps a platform with the paper-default configuration.
    pub fn new(platform: P) -> Self {
        Self::with_config(platform, CollectorConfig::default())
    }

    /// Wraps a platform with an explicit collector configuration.
    pub fn with_config(platform: P, config: CollectorConfig) -> Self {
        Self {
            collector: Collector::with_config(platform, config),
        }
    }

    /// The underlying collector (statistics, forced collects).
    pub fn collector(&self) -> &Arc<Collector<P>> {
        &self.collector
    }

    /// Collector statistics snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.collector.stats()
    }
}

/// Per-thread ThreadScan handle.
pub struct ThreadScanHandle<P: Platform> {
    handle: ThreadHandle<P>,
}

impl<P: Platform> ThreadScanHandle<P> {
    /// Access to the underlying collector handle (heap-block extension).
    pub fn inner(&self) -> &ThreadHandle<P> {
        &self.handle
    }
}

impl<P: Platform> Smr for ThreadScanSmr<P> {
    type Handle = ThreadScanHandle<P>;

    fn register(&self) -> ThreadScanHandle<P> {
        ThreadScanHandle {
            handle: self.collector.register(),
        }
    }

    fn name(&self) -> &'static str {
        "threadscan"
    }

    fn outstanding(&self) -> usize {
        let s = self.collector.stats();
        s.retired.saturating_sub(s.freed)
    }

    fn quiesce(&self) {
        // Two phases: one to sweep, one to re-examine survivors whose
        // references died since the previous scan.
        self.collector.collect_now();
        self.collector.collect_now();
    }
}

impl<P: Platform> SmrHandle for ThreadScanHandle<P> {
    // begin_op / end_op / load_protected: the trait defaults — no-ops and a
    // plain Acquire load. That IS the contribution of the paper.

    unsafe fn retire(&self, addr: usize, size: usize, drop_fn: DropFn) {
        self.handle.retire_raw(addr, size, drop_fn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::retire_box;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use threadscan::NullPlatform;

    struct Probe(Arc<AtomicUsize>);
    impl Drop for Probe {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn adapter_routes_retires_to_the_collector() {
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = ThreadScanSmr::with_config(
            NullPlatform,
            CollectorConfig::default().with_buffer_capacity(4),
        );
        let handle = scheme.register();
        for _ in 0..4 {
            let p = Box::into_raw(Box::new(Probe(Arc::clone(&drops))));
            unsafe { retire_box(&handle, p) };
        }
        assert_eq!(scheme.stats().collects, 1, "the full fresh half collected");
        assert_eq!(
            drops.load(Ordering::SeqCst),
            2,
            "one parked node per retire"
        );
        assert_eq!(scheme.outstanding(), 2);
        scheme.quiesce();
        assert_eq!(drops.load(Ordering::SeqCst), 4);
        assert_eq!(scheme.outstanding(), 0);
        assert_eq!(scheme.name(), "threadscan");
    }

    #[test]
    fn quiesce_flushes_partial_buffers() {
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = ThreadScanSmr::new(NullPlatform);
        let handle = scheme.register();
        let p = Box::into_raw(Box::new(Probe(Arc::clone(&drops))));
        unsafe { retire_box(&handle, p) };
        assert_eq!(drops.load(Ordering::SeqCst), 0, "buffer not yet full");
        scheme.quiesce();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }
}
