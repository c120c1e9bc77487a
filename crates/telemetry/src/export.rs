//! The exporter: chrome://tracing JSON from the event rings
//! ([`crate::ring`]). No external dependencies: trace-event JSON is
//! simple enough to emit by hand.

use std::fmt::Write as _;

use threadscan::PhaseKind;

use crate::ring::{drain_events, dropped_events, EventRecord};

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
