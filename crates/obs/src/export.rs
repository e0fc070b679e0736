//! Trace exporter: Chrome trace-event JSON (Perfetto-loadable).
//!
//! The JSON writer is hand-rolled (this crate has no dependencies); the
//! emitted document is the Chrome `traceEvents` array-of-objects form that
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load directly,
//! with one track per `(pid, tid)` — i.e. per machine and thread once the
//! cross-process merge has stamped endpoint ids.
//!
//! Shipping event buffers between processes is the transport's job: the
//! binary codec for that lives beside `gather_trace_events` in
//! `distger-cluster`, on the workspace's one wire module.

use crate::span::{Phase, TraceEvent};
use std::fmt::Write as _;

/// Renders events as a Chrome trace-event JSON document.
///
/// Each event becomes `{"name", "ph", "ts", "pid", "tid", "args"}`; instant
/// events carry `"s": "t"` (thread scope). `machine`/`round` ride in `args`
/// when present so Perfetto shows them in the span details pane.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 32);
    out.push_str("{\"traceEvents\":[");
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ph = match event.phase {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "i",
        };
        out.push_str("{\"name\":\"");
        escape_json_into(&mut out, &event.name);
        let _ = write!(
            out,
            "\",\"ph\":\"{ph}\",\"ts\":{},\"pid\":{},\"tid\":{}",
            event.ts_micros, event.pid, event.tid
        );
        if event.phase == Phase::Instant {
            out.push_str(",\"s\":\"t\"");
        }
        if event.machine >= 0 || event.round >= 0 {
            out.push_str(",\"args\":{");
            let mut first = true;
            if event.machine >= 0 {
                let _ = write!(out, "\"machine\":{}", event.machine);
                first = false;
            }
            if event.round >= 0 {
                if !first {
                    out.push(',');
                }
                let _ = write!(out, "\"round\":{}", event.round);
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Escapes `s` for a JSON string literal (quotes, backslashes, control
/// characters — span names are plain identifiers in practice, but the
/// exporter must not emit invalid JSON for any input).
fn escape_json_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                name: Cow::Borrowed("superstep"),
                phase: Phase::Begin,
                ts_micros: 100,
                pid: 0,
                tid: 1,
                machine: 2,
                round: 7,
            },
            TraceEvent {
                name: Cow::Borrowed("fault \"x\"\n"),
                phase: Phase::Instant,
                ts_micros: 150,
                pid: 0,
                tid: 1,
                machine: -1,
                round: -1,
            },
            TraceEvent {
                name: Cow::Borrowed("superstep"),
                phase: Phase::End,
                ts_micros: 200,
                pid: 0,
                tid: 1,
                machine: 2,
                round: 7,
            },
        ]
    }

    #[test]
    fn chrome_trace_has_expected_shape() {
        let json = chrome_trace_json(&sample_events());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains(
            "{\"name\":\"superstep\",\"ph\":\"B\",\"ts\":100,\"pid\":0,\"tid\":1,\
             \"args\":{\"machine\":2,\"round\":7}}"
        ));
        // Instant events carry thread scope; special characters are escaped.
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"s\":\"t\""));
        assert!(json.contains("fault \\\"x\\\"\\n"));
        // No args object for context-free events.
        let instant = json.split("\"ph\":\"i\"").nth(1).unwrap();
        assert!(!instant[..instant.find('}').unwrap()].contains("args"));
    }

    #[test]
    fn empty_trace_is_valid() {
        assert_eq!(chrome_trace_json(&[]), "{\"traceEvents\":[]}");
    }
}
