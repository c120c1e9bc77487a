//! Pool-side metrics: publishes the node-pool accounting into the
//! `ts-telemetry` registry.
//!
//! The pools already keep their own counters ([`crate::pool_stats`],
//! [`crate::pool_bytes_resident`]); this module adds nothing to the
//! allocation hot path. It registers **callback gauges** — plain
//! `fn() -> u64` readers the exporter invokes at render time — so a
//! `/metrics` scrape sees live pool state without the pools ever touching
//! telemetry. Registration is idempotent and opt-in: a process that never
//! calls [`register_pool_metrics`] pays nothing.

use crate::pool::{pool_bytes_resident, pool_stats};

fn bytes_resident() -> u64 {
    pool_bytes_resident() as u64
}

fn allocs() -> u64 {
    pool_stats().iter().map(|s| s.allocs as u64).sum()
}

fn frees() -> u64 {
    pool_stats().iter().map(|s| s.frees as u64).sum()
}

fn magazine_refills() -> u64 {
    pool_stats().iter().map(|s| s.magazine_refills as u64).sum()
}

fn handles() -> u64 {
    pool_stats().len() as u64
}

static BYTES_RESIDENT: ts_telemetry::CallbackGauge =
    ts_telemetry::CallbackGauge::new(bytes_resident);
static ALLOCS: ts_telemetry::CallbackGauge = ts_telemetry::CallbackGauge::new(allocs);
static FREES: ts_telemetry::CallbackGauge = ts_telemetry::CallbackGauge::new(frees);
static REFILLS: ts_telemetry::CallbackGauge = ts_telemetry::CallbackGauge::new(magazine_refills);
static HANDLES: ts_telemetry::CallbackGauge = ts_telemetry::CallbackGauge::new(handles);

/// Registers the node-pool gauges with the process-wide metrics registry.
/// Idempotent; call once wherever telemetry is switched on (the workload
/// registry does this when a scheme is built with telemetry enabled).
pub fn register_pool_metrics() {
    ts_telemetry::register_callback_gauge(
        "threadscan_pool_bytes_resident",
        "Bytes currently resident across all node-pool handles.",
        &[],
        &BYTES_RESIDENT,
    );
    ts_telemetry::register_callback_gauge(
        "threadscan_pool_allocs",
        "Node allocations served by pool handles since process start.",
        &[],
        &ALLOCS,
    );
    ts_telemetry::register_callback_gauge(
        "threadscan_pool_frees",
        "Nodes returned to pool handles since process start.",
        &[],
        &FREES,
    );
    ts_telemetry::register_callback_gauge(
        "threadscan_pool_magazine_refills",
        "Thread-local magazine refills from the central depot.",
        &[],
        &REFILLS,
    );
    ts_telemetry::register_callback_gauge(
        "threadscan_pool_handles",
        "Pool handles ever created in this process.",
        &[],
        &HANDLES,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolHandle;

    #[test]
    fn pool_gauges_register_once_and_track_live_state() {
        register_pool_metrics();
        register_pool_metrics(); // idempotent
        let page = ts_telemetry::render_prometheus();
        assert_eq!(
            page.matches("# TYPE threadscan_pool_bytes_resident gauge")
                .count(),
            1,
            "double registration must not duplicate the metric"
        );

        let before_allocs = super::allocs();
        let before_resident = super::bytes_resident();
        let pool = PoolHandle::new("telemetry-test");
        let nodes: Vec<*mut [u8; 48]> = (0..8).map(|_| pool.alloc_node([0u8; 48])).collect();
        assert_eq!(super::allocs() - before_allocs, 8);
        assert!(super::bytes_resident() > before_resident);
        let page = ts_telemetry::render_prometheus();
        assert!(page.contains("threadscan_pool_allocs"));
        for n in nodes {
            unsafe { crate::pool::dealloc_node(n.cast::<u8>()) };
        }
        assert_eq!(super::bytes_resident(), before_resident);
    }
}
