//! Exporters: chrome://tracing JSON from the event rings
//! ([`crate::ring`]) and Prometheus text exposition from a collector's
//! [`StatsSnapshot`]. No external dependencies: the Prometheus format is
//! plain text, and trace-event JSON is simple enough to emit by hand.

use std::fmt::Write as _;

use threadscan::hist::bucket_bound_ns;
use threadscan::{PhaseKind, StatsSnapshot};

use crate::ring::{drain_events, dropped_events, EventRecord};

/// Renders one collector's statistics in Prometheus text exposition
/// format (version 0.0.4): the snapshot's counters as
/// `threadscan_*_total`, its collect-latency histogram as the cumulative
/// `threadscan_collect_duration_ns_bucket{le=...}` series plus `_sum`
/// and `_count`, and the rings' loss counter. Pure in `snap`, so it works
/// with no sink installed and an all-zero snapshot renders an all-zero
/// but valid page.
pub fn render_prometheus(snap: &StatsSnapshot) -> String {
    // No `..`: a new snapshot field is either rendered or named here.
    let StatsSnapshot {
        collects,
        collects_skipped,
        retired,
        freed,
        survivors,
        threads_scanned,
        words_scanned,
        mark_hits,
        mailbox_frees,
        overflow_frees,
        collect_ns_total,
        collect_ns_max: _,
        sort_ns_total,
        sort_ns_max: _,
        collect_ns_hist,
    } = *snap;
    let mut out = String::new();
    let counters = [
        ("collects", "Reclamation phases completed.", collects),
        (
            "collects_skipped",
            "Collect attempts that found their buffer already drained.",
            collects_skipped,
        ),
        ("retired", "Nodes handed to retire.", retired),
        ("freed", "Nodes whose destructor ran.", freed),
        (
            "survivors",
            "Marked nodes carried into a later phase, summed over phases.",
            survivors,
        ),
        (
            "threads_scanned",
            "Threads that completed scans, summed over phases.",
            threads_scanned,
        ),
        (
            "words_scanned",
            "Words examined by all scans.",
            words_scanned,
        ),
        (
            "mark_hits",
            "Scanned words that matched a retired node.",
            mark_hits,
        ),
        (
            "mailbox_frees",
            "Nodes freed by their owners, one per retire, out of their mailboxes.",
            mailbox_frees,
        ),
        (
            "overflow_frees",
            "Nodes reclaimers freed themselves because no mailbox would take them.",
            overflow_frees,
        ),
        (
            "sort_ns",
            "Nanoseconds spent building master buffers.",
            sort_ns_total,
        ),
    ];
    for (name, help, value) in counters {
        let _ = writeln!(out, "# HELP threadscan_{name}_total {help}");
        let _ = writeln!(out, "# TYPE threadscan_{name}_total counter");
        let _ = writeln!(out, "threadscan_{name}_total {value}");
    }

    let hist = "threadscan_collect_duration_ns";
    let _ = writeln!(out, "# HELP {hist} Reclaimer-side latency of one collect.");
    let _ = writeln!(out, "# TYPE {hist} histogram");
    let mut cumulative = 0;
    for (i, count) in collect_ns_hist.iter().enumerate() {
        cumulative += count;
        let _ = writeln!(
            out,
            "{hist}_bucket{{le=\"{}\"}} {cumulative}",
            bucket_bound_ns(i)
        );
    }
    let _ = writeln!(out, "{hist}_bucket{{le=\"+Inf\"}} {cumulative}");
    let _ = writeln!(out, "{hist}_sum {collect_ns_total}");
    let _ = writeln!(out, "{hist}_count {collects}");

    let dropped = "threadscan_telemetry_dropped_events";
    let _ = writeln!(
        out,
        "# HELP {dropped} Phase events lost to ring overwrites, torn reads, or slot exhaustion."
    );
    let _ = writeln!(out, "# TYPE {dropped} gauge");
    let _ = writeln!(out, "{dropped} {}", dropped_events());
    out
}

/// Drains the event rings and renders a chrome://tracing /
/// Perfetto-loadable trace (JSON object format, `"traceEvents"` array).
///
/// Layout: one track (`tid`) per event ring — i.e. per recording thread.
/// Paired begin/end kinds become complete (`"X"`) spans on the ring they
/// were recorded on: the reclaimer's ring carries the `collect` span
/// with `sort` and `free` nested inside, and every scanned thread's ring
/// carries its own `scan` span, so a straggler's signal-delivery latency
/// is visible as the gap between the reclaimer's `announce` instant and
/// that thread's `scan` span. Unpaired kinds (`announce`, `signal_sent`,
/// `all_acked`) render as instant (`"i"`) events. A begin without an end
/// (ring overwrote the end, or the process stopped mid-collect) is
/// dropped rather than inventing a duration.
pub fn render_chrome_trace() -> String {
    let events = drain_events();
    render_chrome_trace_from(&events)
}

/// [`render_chrome_trace`] over an explicit event list (testable without
/// touching the global rings).
pub fn render_chrome_trace_from(events: &[EventRecord]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut emit = |s: String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        out.push_str(&s);
        *first = false;
    };

    // Thread-name metadata for every ring that recorded anything.
    let mut rings: Vec<usize> = events.iter().map(|e| e.ring).collect();
    rings.sort_unstable();
    rings.dedup();
    for ring in &rings {
        emit(
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{ring},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"ring-{ring}\"}}}}"
            ),
            &mut first,
        );
    }

    // Pair spans per (ring, collect_id, kind-pair). Events arrive
    // ring-major and sequence-ascending from the drain, so a linear scan
    // with a small open-span table is enough.
    let mut open: Vec<(usize, u64, PhaseKind, u64, u64)> = Vec::new(); // ring, collect, begin-kind, ts, arg
    for e in events {
        match e.kind {
            PhaseKind::CollectBegin
            | PhaseKind::SortBegin
            | PhaseKind::FreeBegin
            | PhaseKind::ScanBegin => {
                open.push((e.ring, e.collect_id, e.kind, e.ts_ns, e.arg));
            }
            PhaseKind::CollectEnd
            | PhaseKind::SortEnd
            | PhaseKind::FreeEnd
            | PhaseKind::ScanEnd => {
                let want = match e.kind {
                    PhaseKind::CollectEnd => PhaseKind::CollectBegin,
                    PhaseKind::SortEnd => PhaseKind::SortBegin,
                    PhaseKind::FreeEnd => PhaseKind::FreeBegin,
                    _ => PhaseKind::ScanBegin,
                };
                if let Some(pos) = open
                    .iter()
                    .rposition(|&(r, c, k, _, _)| r == e.ring && c == e.collect_id && k == want)
                {
                    let (_, _, _, begin_ts, begin_arg) = open.remove(pos);
                    let dur_ns = e.ts_ns.saturating_sub(begin_ts);
                    emit(
                        format!(
                            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                             \"ts\":{},\"dur\":{},\"args\":{{\"collect\":{},\
                             \"begin_arg\":{},\"end_arg\":{}}}}}",
                            want.label(),
                            e.ring,
                            us(begin_ts),
                            us(dur_ns),
                            e.collect_id,
                            begin_arg,
                            e.arg
                        ),
                        &mut first,
                    );
                }
                // An end with no surviving begin: overwritten — skip.
            }
            PhaseKind::Announce | PhaseKind::SignalSent | PhaseKind::AllAcked => {
                emit(
                    format!(
                        "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\
                         \"ts\":{},\"args\":{{\"collect\":{},\"arg\":{}}}}}",
                        e.kind.label(),
                        e.ring,
                        us(e.ts_ns),
                        e.collect_id,
                        e.arg
                    ),
                    &mut first,
                );
            }
        }
    }

    let _ = write!(
        out,
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped_events\":{}}}}}",
        dropped_events()
    );
    out
}

/// Trace-event timestamps are microseconds; emit three decimals so
/// sub-microsecond spans stay visible.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use threadscan::hist::BUCKETS;

    /// Sample lines (no `#`) of `page` as `(series, value)`.
    fn samples(page: &str) -> Vec<(&str, u64)> {
        page.lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| {
                let (series, value) = l.rsplit_once(' ').expect("`series value`");
                (series, value.parse().expect("integer sample"))
            })
            .collect()
    }

    fn sample(page: &str, series: &str) -> u64 {
        let found: Vec<u64> = samples(page)
            .into_iter()
            .filter(|(s, _)| *s == series)
            .map(|(_, v)| v)
            .collect();
        assert_eq!(found.len(), 1, "exactly one `{series}` sample");
        found[0]
    }

    #[test]
    fn histogram_buckets_render_cumulative() {
        let mut snap = StatsSnapshot {
            collects: 3,
            retired: 40,
            freed: 30,
            mailbox_frees: 20,
            collect_ns_total: 7,
            ..StatsSnapshot::default()
        };
        snap.collect_ns_hist[0] = 1; // le 2
        snap.collect_ns_hist[1] = 2; // le 4
        let page = render_prometheus(&snap);

        assert_eq!(sample(&page, "threadscan_collects_total"), 3);
        assert_eq!(sample(&page, "threadscan_retired_total"), 40);
        assert_eq!(sample(&page, "threadscan_freed_total"), 30);
        assert_eq!(sample(&page, "threadscan_mailbox_frees_total"), 20);
        let h = "threadscan_collect_duration_ns";
        assert_eq!(sample(&page, &format!("{h}_bucket{{le=\"2\"}}")), 1);
        assert_eq!(sample(&page, &format!("{h}_bucket{{le=\"4\"}}")), 3);
        assert_eq!(sample(&page, &format!("{h}_bucket{{le=\"+Inf\"}}")), 3);
        assert_eq!(sample(&page, &format!("{h}_sum")), 7);
        assert_eq!(sample(&page, &format!("{h}_count")), 3);

        // Buckets never decrease, and every metric family has exactly one
        // `# TYPE` header.
        let buckets: Vec<u64> = samples(&page)
            .into_iter()
            .filter(|(s, _)| s.starts_with("threadscan_collect_duration_ns_bucket"))
            .map(|(_, v)| v)
            .collect();
        assert_eq!(buckets.len(), BUCKETS + 1);
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]));
        let mut typed: Vec<&str> = page
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .map(|l| l.split(' ').next().unwrap())
            .collect();
        assert_eq!(typed.len(), 13, "11 counters, the histogram, the gauge");
        typed.sort_unstable();
        typed.dedup();
        assert_eq!(typed.len(), 13, "one TYPE header per metric");
    }

    #[test]
    fn empty_histogram_renders_valid_prometheus_text() {
        // A collector that never collected must render, not panic:
        // all-zero buckets, `+Inf`, `_sum 0`, `_count 0`. Only the ring's
        // process-wide loss gauge can be non-zero.
        let page = render_prometheus(&StatsSnapshot::default());
        assert!(page.contains("# TYPE threadscan_collects_total counter"));
        assert!(page.contains("# TYPE threadscan_collect_duration_ns histogram"));
        assert!(page.contains("# TYPE threadscan_telemetry_dropped_events gauge"));
        for (series, value) in samples(&page) {
            if series != "threadscan_telemetry_dropped_events" {
                assert_eq!(value, 0, "{series}");
            }
        }
        assert_eq!(samples(&page).len(), 11 + BUCKETS + 3 + 1);
    }

    #[test]
    fn chrome_trace_pairs_spans_and_handles_empty() {
        let ev = |ring, kind, collect_id, ts_ns, arg| EventRecord {
            ring,
            seq: ts_ns, // unused by the renderer
            ts_ns,
            kind,
            collect_id,
            arg,
        };
        // Reclaimer on ring 0; one scanned thread on ring 1.
        let events = [
            ev(0, PhaseKind::CollectBegin, 5, 1_000, 128),
            ev(0, PhaseKind::SortBegin, 5, 1_100, 0),
            ev(0, PhaseKind::SortEnd, 5, 2_100, 4),
            ev(0, PhaseKind::Announce, 5, 2_200, 2),
            ev(0, PhaseKind::SignalSent, 5, 2_300, 0),
            ev(0, PhaseKind::AllAcked, 5, 9_000, 1),
            ev(0, PhaseKind::FreeBegin, 5, 9_100, 100),
            ev(0, PhaseKind::FreeEnd, 5, 9_900, 100),
            ev(0, PhaseKind::CollectEnd, 5, 10_000, 28),
            ev(1, PhaseKind::ScanBegin, 5, 4_000, 0),
            ev(1, PhaseKind::ScanEnd, 5, 8_000, 640),
        ];
        let json = render_chrome_trace_from(&events);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"collect\""));
        assert!(json.contains("\"name\":\"sort\""));
        assert!(json.contains("\"name\":\"free\""));
        assert!(json.contains("\"name\":\"announce\""));
        assert!(json.contains("\"name\":\"signal_sent\""));
        assert!(json.contains("\"name\":\"all_acked\""));
        // The scan span lives on the scanned thread's own track with the
        // right duration (8000 - 4000 ns = 4 µs).
        assert!(json.contains(
            "\"name\":\"scan\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":4.000,\"dur\":4.000"
        ));
        // The collect span covers the whole phase (9 µs from ts 1 µs).
        assert!(json.contains("\"ts\":1.000,\"dur\":9.000"));

        // A begin whose end was overwritten renders no bogus span.
        let truncated = [ev(0, PhaseKind::CollectBegin, 6, 0, 1)];
        let json = render_chrome_trace_from(&truncated);
        assert!(!json.contains("\"name\":\"collect\""));

        // Zero events: still a valid, loadable document.
        let json = render_chrome_trace_from(&[]);
        assert!(json.starts_with("{\"traceEvents\":[]"));
        assert!(json.ends_with('}'));
    }
}
