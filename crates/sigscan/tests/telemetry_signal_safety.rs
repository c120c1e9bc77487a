//! Satellite pin: telemetry's record path holds its async-signal-safety
//! contract under *real* signal delivery.
//!
//! The log's record path is lock-free and allocation-free by
//! construction (preallocated BSS cells, const-init TLS, atomics only —
//! see `ts_telemetry::ring`); what this test pins is the observable half
//! of the contract:
//!
//! * events stamped *inside the installed signal handler* survive to a
//!   drain (so the handler really did record without deadlocking or
//!   crashing — a handler that took a lock held by the interrupted
//!   thread would hang the ack wait and trip the collector's 30 s
//!   timeout panic);
//! * at the default capacity nothing is lost: every collect's begin and
//!   end, and every handler scan's begin and end, reach the drain.
//!
//! Overflow accounting (a full log) is pinned by `ts-telemetry`'s own
//! unit tests. This test gets its own process (an integration-test
//! binary), so no other suite records into the same log.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use threadscan::{Collector, CollectorConfig, PhaseKind};
use ts_sigscan::SignalPlatform;

#[test]
fn handler_recording_survives_and_every_collect_is_complete() {
    let collector = Collector::with_config(
        SignalPlatform::new().unwrap(),
        CollectorConfig::default()
            .with_buffer_capacity(1024)
            .with_telemetry(ts_telemetry::sink()),
    );

    let stop = Arc::new(AtomicBool::new(false));
    let ready = Arc::new(Barrier::new(2));
    let peer = {
        let collector = Arc::clone(&collector);
        let stop = Arc::clone(&stop);
        let ready = Arc::clone(&ready);
        std::thread::spawn(move || {
            // Registered peer: every collect signals this thread and its
            // handler stamps ScanBegin/ScanEnd under this thread's ordinal.
            let handle = collector.register();
            ready.wait();
            while !stop.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
            drop(handle);
        })
    };

    let handle = collector.register();
    ready.wait();
    const COLLECTS: usize = 6;
    for _ in 0..COLLECTS {
        let p = Box::into_raw(Box::new([0u8; 64]));
        unsafe { handle.retire(p) };
        handle.flush(); // forced phase: signal broadcast to the peer
    }
    stop.store(true, Ordering::Relaxed);
    peer.join().unwrap();
    drop(handle);

    let events = ts_telemetry::drain_events();
    let count = |kind: PhaseKind| events.iter().filter(|e| e.kind == kind).count();

    // Every collect is in the log, begin and end.
    assert_eq!(count(PhaseKind::CollectBegin), COLLECTS);
    assert_eq!(count(PhaseKind::CollectEnd), COLLECTS);

    // The handler recorded from signal context and the events survived.
    let reclaimer = events
        .iter()
        .find(|e| e.kind == PhaseKind::CollectBegin)
        .expect("the reclaimer's events are in the log")
        .thread;
    let handler_scans: Vec<_> = events
        .iter()
        .filter(|e| e.kind == PhaseKind::ScanBegin && e.thread != reclaimer)
        .collect();
    assert!(
        !handler_scans.is_empty(),
        "peer's signal handler must have stamped scan events under its own ordinal"
    );
    // Scan events pair up and carry the collect id of a real phase.
    for scan in &handler_scans {
        assert!(
            events.iter().any(|e| e.kind == PhaseKind::ScanEnd
                && e.thread == scan.thread
                && e.collect_id == scan.collect_id),
            "every handler ScanBegin has its ScanEnd"
        );
    }
    assert_eq!(ts_telemetry::dropped_events(), 0, "nothing was lost");
}
