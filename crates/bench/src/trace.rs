//! The `--trace-out` epilogue: the event log of `ts-telemetry` as one
//! chrome://tracing / Perfetto document, written through [`write_output`].

use std::io::{self, Write};

use threadscan::PhaseKind;
use ts_telemetry::EventRecord;
use ts_workload::json::{self, object, Value};

use crate::cli::{write_output, CliArgs};

/// Drains everything the event log captured into the file `--trace-out`
/// names, then reports how many events the full log dropped. No-op
/// without the flag. Call once, after the measured runs.
pub fn write_trace(args: &CliArgs) {
    let Some(path) = args.trace_out() else {
        return;
    };
    let events = ts_telemetry::drain_events();
    let dropped = ts_telemetry::dropped_events();
    let note = format!(" (load in chrome://tracing or ui.perfetto.dev); dropped events: {dropped}");
    write_output(path, "chrome trace", &note, |out| {
        render(out, &events, dropped)
    });
    if dropped > 0 {
        println!(
            "# WARNING: the trace is incomplete: {dropped} events arrived after the \
             log's {} cells were full",
            ts_telemetry::ring::CAPACITY
        );
    }
}

/// Writes `events` as a trace-event document (JSON object format): the
/// `traceEvents` array, streamed one event at a time, plus `dropped`
/// under `otherData.dropped_events`.
///
/// Layout: one track (`tid`) per recording thread. Paired begin/end
/// kinds become complete (`"X"`) spans on the track of the thread that
/// recorded them: the reclaimer's track carries the `collect` span with
/// `sort` and `free` nested inside, and every scanned thread's track
/// carries its own `scan` span, so a straggler's signal-delivery latency
/// is visible as the gap between the reclaimer's `announce` instant and
/// that thread's `scan` span. Unpaired kinds (`announce`, `signal_sent`,
/// `all_acked`) render as instant (`"i"`) events. A begin without an end
/// (the log filled before the end, or the process stopped mid-collect)
/// is dropped rather than inventing a duration.
pub fn render(out: &mut dyn Write, events: &[EventRecord], dropped: u64) -> io::Result<()> {
    let head = [
        ("displayTimeUnit", "ms".into()),
        ("otherData", object([("dropped_events", dropped.into())])),
    ];
    json::write_with_array(out, head, "traceEvents", trace_events(events))
}

/// The `traceEvents` of [`render`]: a thread name per thread that
/// recorded anything, then the spans and instants in event order.
fn trace_events(events: &[EventRecord]) -> impl Iterator<Item = Value> + '_ {
    let mut threads: Vec<u64> = events.iter().map(|e| e.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    let names = threads.into_iter().map(|thread| {
        object([
            ("ph", "M".into()),
            ("pid", 1u32.into()),
            ("tid", thread.into()),
            ("name", "thread_name".into()),
            (
                "args",
                object([("name", format!("thread-{thread}").into())]),
            ),
        ])
    });

    // Pair spans per (thread, collect_id, kind-pair). Events arrive in
    // the order they were recorded, so a linear scan with a small
    // open-span table is enough.
    let mut open: Vec<(u64, u64, PhaseKind, u64, u64)> = Vec::new(); // thread, collect, begin-kind, ts, arg
    let phases = events.iter().filter_map(move |e| {
        let begin = match e.kind {
            PhaseKind::CollectBegin
            | PhaseKind::SortBegin
            | PhaseKind::FreeBegin
            | PhaseKind::ScanBegin => {
                open.push((e.thread, e.collect_id, e.kind, e.ts_ns, e.arg));
                return None;
            }
            PhaseKind::Announce | PhaseKind::SignalSent | PhaseKind::AllAcked => {
                return Some(object([
                    ("name", e.kind.label().into()),
                    ("ph", "i".into()),
                    ("s", "t".into()),
                    ("pid", 1u32.into()),
                    ("tid", e.thread.into()),
                    ("ts", us(e.ts_ns)),
                    (
                        "args",
                        object([("collect", e.collect_id.into()), ("arg", e.arg.into())]),
                    ),
                ]));
            }
            PhaseKind::CollectEnd => PhaseKind::CollectBegin,
            PhaseKind::SortEnd => PhaseKind::SortBegin,
            PhaseKind::FreeEnd => PhaseKind::FreeBegin,
            PhaseKind::ScanEnd => PhaseKind::ScanBegin,
        };
        // An end whose begin is not in the trace: skip it.
        let pos = open
            .iter()
            .rposition(|&(t, c, k, _, _)| t == e.thread && c == e.collect_id && k == begin)?;
        let (_, _, _, begin_ts, begin_arg) = open.remove(pos);
        Some(object([
            ("name", begin.label().into()),
            ("ph", "X".into()),
            ("pid", 1u32.into()),
            ("tid", e.thread.into()),
            ("ts", us(begin_ts)),
            ("dur", us(e.ts_ns.saturating_sub(begin_ts))),
            (
                "args",
                object([
                    ("collect", e.collect_id.into()),
                    ("begin_arg", begin_arg.into()),
                    ("end_arg", e.arg.into()),
                ]),
            ),
        ]))
    });
    names.chain(phases)
}

/// Trace-event timestamps are microseconds; fractional, so
/// sub-microsecond spans stay visible.
fn us(ns: u64) -> Value {
    (ns as f64 / 1e3).into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use threadscan::{Collector, CollectorConfig, NullPlatform};

    /// `events` rendered and parsed back.
    fn rendered(events: &[EventRecord], dropped: u64) -> Value {
        let mut out = Vec::new();
        render(&mut out, events, dropped).unwrap();
        json::parse(std::str::from_utf8(&out).unwrap()).expect("a JSON document")
    }

    /// The trace's `traceEvents`.
    fn trace_events_of(doc: &Value) -> &[Value] {
        let Value::Array(events) = &doc["traceEvents"] else {
            panic!("no traceEvents array: {doc}");
        };
        events
    }

    /// The span or instant named `name`; panics unless there is exactly one.
    fn the_one<'a>(doc: &'a Value, name: &str) -> &'a Value {
        let mut named = trace_events_of(doc).iter().filter(|e| e["name"] == name);
        let event = named.next().unwrap_or_else(|| panic!("no {name}: {doc}"));
        assert!(named.next().is_none(), "two {name}: {doc}");
        event
    }

    #[test]
    fn chrome_trace_pairs_spans_and_handles_empty() {
        let ev = |thread, kind, collect_id, ts_ns, arg| EventRecord {
            thread,
            seq: ts_ns, // unused by the renderer
            ts_ns,
            kind,
            collect_id,
            arg,
        };
        // Reclaimer on thread 0; one scanned thread on thread 1.
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
        let doc = rendered(&events, 0);
        for name in ["collect", "sort", "free", "scan"] {
            assert_eq!(the_one(&doc, name)["ph"], "X", "{name}");
        }
        for name in ["announce", "signal_sent", "all_acked"] {
            assert_eq!(the_one(&doc, name)["ph"], "i", "{name}");
        }
        // The scan span lives on the scanned thread's own track with the
        // right duration (8000 - 4000 ns = 4 µs).
        let scan = the_one(&doc, "scan");
        assert_eq!(
            (&scan["tid"], &scan["ts"], &scan["dur"]),
            (&1u32.into(), &4.0.into(), &4.0.into())
        );
        // The collect span covers the whole phase (9 µs from ts 1 µs).
        let collect = the_one(&doc, "collect");
        assert_eq!(
            (&collect["ts"], &collect["dur"]),
            (&1.0.into(), &9.0.into())
        );
        assert_eq!(collect["args"]["begin_arg"], 128);
        assert_eq!(collect["args"]["end_arg"], 28);
        assert_eq!(doc["otherData"]["dropped_events"], 0);

        // A begin whose end never made the log renders no bogus span.
        let truncated = [ev(0, PhaseKind::CollectBegin, 6, 0, 1)];
        let doc = rendered(&truncated, 3);
        assert!(
            trace_events_of(&doc).iter().all(|e| e["ph"] == "M"),
            "{doc}"
        );
        assert_eq!(doc["otherData"]["dropped_events"], 3);

        // Zero events: still a valid, loadable document.
        let doc = rendered(&[], 0);
        assert_eq!(doc["traceEvents"], Value::Array(Vec::new()));
        assert_eq!(doc["otherData"]["dropped_events"], 0);
    }

    /// One real collect, through the sink and the log, renders its span
    /// tree.
    #[test]
    fn a_real_collects_events_render_its_span_tree() {
        ts_telemetry::ring::reset_for_test();
        let collector = Collector::with_config(
            NullPlatform,
            CollectorConfig::default()
                .with_buffer_capacity(8)
                .with_telemetry(ts_telemetry::sink()),
        );
        let handle = collector.register();
        for _ in 0..8 {
            let p = Box::into_raw(Box::new([0u8; 64]));
            // SAFETY: a fresh box, never shared, retired exactly once.
            unsafe { handle.retire(p) };
        }
        drop(handle);
        let events = ts_telemetry::drain_events();
        let id = events
            .iter()
            .find(|e| e.kind == PhaseKind::CollectBegin)
            .map(|e| e.collect_id)
            .expect("a collect ran");
        let of_collect: Vec<EventRecord> =
            events.into_iter().filter(|e| e.collect_id == id).collect();
        let doc = rendered(&of_collect, 0);
        for name in ["collect", "sort", "free"] {
            assert_eq!(the_one(&doc, name)["ph"], "X", "{name}");
        }
    }
}
