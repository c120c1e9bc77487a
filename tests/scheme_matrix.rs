//! The full evaluation matrix as a smoke grid: every scheme × every
//! structure runs the workload harness briefly and must (a) complete,
//! (b) make reclamation progress where applicable, and (c) keep the
//! structure consistent.

use std::time::Duration;

use ts_workload::{run_combo, SchemeKind, StructureKind, WorkloadParams};

fn quick(structure: StructureKind, threads: usize) -> WorkloadParams {
    WorkloadParams::fig3(structure, threads)
        .scaled_down(64)
        .with_duration(Duration::from_millis(150))
}

#[test]
fn full_matrix_completes() {
    for structure in StructureKind::EXTENDED {
        for scheme in SchemeKind::ALL {
            let r = run_combo(scheme, &quick(structure, 2));
            assert!(
                r.total_ops > 0,
                "{}/{} produced no operations",
                scheme.label(),
                structure.label()
            );
        }
    }
}

#[test]
fn reclaiming_schemes_free_memory() {
    // With frequent updates and small structures, every reclaiming scheme
    // must show bounded outstanding garbage after quiescing.
    for scheme in [
        SchemeKind::Hazard,
        SchemeKind::Epoch,
        SchemeKind::ThreadScan,
    ] {
        let mut p = quick(StructureKind::List, 3).with_update_pct(50);
        p.ts_buffer_capacity = 64;
        p.duration = Duration::from_millis(300);
        let r = run_combo(scheme, &p);
        let outstanding = r.outstanding_after.expect("reclaiming scheme");
        assert!(
            outstanding < 5_000,
            "{}: outstanding {} after quiesce",
            scheme.label(),
            outstanding
        );
    }
}

#[test]
fn leaky_leaks_proportionally_to_updates() {
    let read_only = run_combo(
        SchemeKind::Leaky,
        &quick(StructureKind::Hash, 2).with_update_pct(0),
    );
    let heavy = run_combo(
        SchemeKind::Leaky,
        &quick(StructureKind::Hash, 2).with_update_pct(100),
    );
    assert_eq!(read_only.leaked, Some(0), "no updates ⇒ no leaks");
    assert!(heavy.leaked.unwrap() > 0, "updates ⇒ leaks under Leaky");
}

#[test]
fn slow_epoch_throughput_collapses_vs_epoch() {
    // The paper's Slow Epoch point: one delayed thread wrecks the scheme.
    // With a single worker that worker is the errant thread, so its op
    // count is bounded by the stalls alone: every `period` ops it spends
    // `delay` stalled, and all but the last of those stalls (which may
    // straddle the stop flag) lie inside the window. Contention from
    // sibling tests can only lower the count; the same cell under plain
    // Epoch clears the bound many times over.
    // (The delay itself is pinned by `epoch.rs`; throughput *orderings*
    // across schemes are `ts-bench fig3` output, not assertions.)
    let mut p = quick(StructureKind::List, 1);
    p.duration = Duration::from_millis(400);
    p.slow_epoch_period_ops = 512; // stall often enough to be visible
    let slow = run_combo(SchemeKind::SlowEpoch, &p);
    let stalls = slow.duration_s / p.slow_epoch_delay.as_secs_f64() + 2.0;
    let bound = (p.slow_epoch_period_ops as f64 * stalls) as u64;
    assert!(
        slow.total_ops <= bound,
        "slow-epoch ran {} ops in {:.3}s; its stalls allow at most {bound}",
        slow.total_ops,
        slow.duration_s
    );
    let epoch = run_combo(SchemeKind::Epoch, &p);
    assert!(
        epoch.total_ops > bound,
        "epoch ({}) should clear the stalled bound ({bound})",
        epoch.total_ops
    );
}

#[test]
fn oversubscription_smoke() {
    // 4× more threads than this machine has: everything still completes
    // and ThreadScan still reclaims (Figure 4's regime).
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads = (hw * 4).max(4);
    for scheme in SchemeKind::OVERSUB {
        let mut p = quick(StructureKind::Hash, threads);
        p.duration = Duration::from_millis(250);
        let r = run_combo(scheme, &p);
        assert!(r.total_ops > 0, "{} stalled oversubscribed", scheme.label());
        if scheme == SchemeKind::ThreadScan {
            let outstanding = r.outstanding_after.unwrap();
            assert!(
                outstanding < 10_000,
                "threadscan outstanding {outstanding} oversubscribed"
            );
        }
    }
}

#[test]
fn tuned_buffer_reduces_collect_frequency() {
    // §6's tuning argument, checked directly via collector counters.
    let mut small = quick(StructureKind::Hash, 3).with_update_pct(50);
    small.duration = Duration::from_millis(300);
    small.ts_buffer_capacity = 64;
    let mut large = small.clone();
    large.ts_buffer_capacity = 1024;

    // Mean batch per phase, not the phase count: a run starved of CPU by
    // sibling tests retires less *and* collects less, but a phase still
    // needs a half-full buffer of either size to start.
    let batch = |p: &WorkloadParams| {
        let ts = run_combo(SchemeKind::ThreadScan, p)
            .threadscan
            .unwrap()
            .stats;
        assert!(
            ts.collects > 0,
            "no phase ran at capacity {}",
            p.ts_buffer_capacity
        );
        ts.retired as f64 / ts.collects as f64
    };
    let (b_small, b_large) = (batch(&small), batch(&large));
    assert!(
        b_small < b_large,
        "small buffers must collect in smaller batches ({b_small:.0} vs {b_large:.0})"
    );
}
