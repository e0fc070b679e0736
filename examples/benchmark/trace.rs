//! Turns a drained span timeline into per-layer numbers: closed spans with
//! their self time (duration minus the child spans they cover on their
//! thread), summed by name over everything or on the busiest machine.

use std::collections::BTreeMap;
use std::path::PathBuf;

use distger::obs::{chrome_trace_json, Phase, TraceEvent, DEFAULT_RING_CAPACITY};

use crate::outcome::Outcome;

/// One closed span of the timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub pid: u32,
    pub tid: u32,
    /// Machine id the crate tagged the span with, or −1.
    pub machine: i64,
    pub begin_micros: i64,
    pub end_micros: i64,
    /// Duration minus the child spans it covers on its thread.
    pub self_micros: i64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_micros - self.begin_micros) as f64 / 1e6
    }

    pub fn self_secs(&self) -> f64 {
        self.self_micros as f64 / 1e6
    }
}

/// Everything drained during one traced run. Long runs drain while they
/// measure so that no thread's bounded ring wraps; the pieces are summarized
/// together at the end, so a span cut by a drain is still whole.
#[derive(Debug, Default)]
pub struct Timeline {
    pub events: Vec<TraceEvent>,
    /// Threads of this process whose ring held `DEFAULT_RING_CAPACITY`
    /// events at a drain: their oldest events were dropped.
    pub overflowed_rings: u64,
}

impl Timeline {
    /// Adds one drained batch (from `drain_all` or a `LaunchReport`).
    pub fn extend(&mut self, batch: Vec<TraceEvent>) {
        let mut per_thread: BTreeMap<u32, usize> = BTreeMap::new();
        for event in batch.iter().filter(|e| e.pid == 0) {
            *per_thread.entry(event.tid).or_default() += 1;
        }
        self.overflowed_rings += per_thread
            .values()
            .filter(|&&n| n >= DEFAULT_RING_CAPACITY)
            .count() as u64;
        self.events.extend(batch);
    }

    pub fn drain(&mut self) {
        self.extend(distger::obs::drain_all());
    }

    /// The `obs` layer's own numbers, and the Perfetto file for the workload.
    pub fn report(&self, workload: &str, out: &mut Outcome) {
        out.set("obs.trace_events", self.events.len() as f64);
        out.set("obs.ring_overflow", self.overflowed_rings as f64);
        match write_perfetto(workload, &self.events) {
            Ok(path) => eprintln!("trace: {}", path.display()),
            Err(err) => eprintln!("trace not written: {err}"),
        }
    }

    /// Pairs every `Begin` with its `End` per thread. A `Begin` without
    /// its `End` (or the reverse — an overflowing ring drops the oldest
    /// events) is left out.
    pub fn spans(&self) -> Spans {
        let mut tracks: BTreeMap<(u32, u32), Vec<&TraceEvent>> = BTreeMap::new();
        for event in &self.events {
            tracks
                .entry((event.pid, event.tid))
                .or_default()
                .push(event);
        }
        let mut spans = Vec::new();
        for ((pid, tid), mut track) in tracks {
            track.sort_by_key(|e| e.ts_micros);
            // (begin event, microseconds covered by its children so far)
            let mut open: Vec<(&TraceEvent, i64)> = Vec::new();
            for event in track {
                match event.phase {
                    Phase::Begin => open.push((event, 0)),
                    Phase::Instant => {}
                    Phase::End => {
                        if open.last().is_some_and(|(b, _)| b.name == event.name) {
                            let (begin, children) = open.pop().expect("checked non-empty");
                            let micros = event.ts_micros - begin.ts_micros;
                            if let Some(parent) = open.last_mut() {
                                parent.1 += micros;
                            }
                            spans.push(Span {
                                name: begin.name.to_string(),
                                pid,
                                tid,
                                machine: begin.machine,
                                begin_micros: begin.ts_micros,
                                end_micros: event.ts_micros,
                                self_micros: micros - children,
                            });
                        }
                    }
                }
            }
        }
        Spans(spans)
    }
}

/// The closed spans of a run, queried by name.
#[derive(Debug, Default)]
pub struct Spans(Vec<Span>);

impl Spans {
    /// The first span of that name — for the benchmark's own `bench.*`
    /// spans, which occur once.
    pub fn first(&self, name: &str) -> Option<&Span> {
        self.0.iter().find(|s| s.name == name)
    }

    /// Spans called `name`; with `within`, only those that began inside that
    /// span's interval on any thread (the BSP pool emits `superstep` for the
    /// walk and the training phase alike).
    fn select<'a>(
        &'a self,
        name: &'a str,
        within: Option<&'a Span>,
    ) -> impl Iterator<Item = &'a Span> {
        self.0.iter().filter(move |s| {
            s.name == name
                && within.is_none_or(|w| (w.begin_micros..=w.end_micros).contains(&s.begin_micros))
        })
    }

    /// Summed duration over every thread and process.
    pub fn total_s(&self, name: &str, within: Option<&Span>) -> f64 {
        self.select(name, within).map(Span::secs).sum()
    }

    /// Summed duration on the busiest owner — a machine where the span
    /// carries a machine id, a thread otherwise. The slowest machine sets a
    /// superstep, so this is the share of the wall the span's work blocks.
    pub fn busiest_s(&self, name: &str, within: Option<&Span>) -> f64 {
        let mut owners: BTreeMap<(u32, bool, i64), f64> = BTreeMap::new();
        for span in self.select(name, within) {
            let owner = if span.machine >= 0 {
                (span.pid, true, span.machine)
            } else {
                (span.pid, false, i64::from(span.tid))
            };
            *owners.entry(owner).or_default() += span.secs();
        }
        owners.into_values().fold(0.0, f64::max)
    }
}

/// `<target dir>/benchmark/`, created on demand: where traces and results go.
pub fn output_dir() -> std::io::Result<PathBuf> {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let dir = PathBuf::from(target).join("benchmark");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Writes the merged timeline as Perfetto-loadable JSON and returns its path.
fn write_perfetto(workload: &str, events: &[TraceEvent]) -> std::io::Result<PathBuf> {
    let path = output_dir()?.join(format!("{workload}.trace.json"));
    std::fs::write(&path, chrome_trace_json(events))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn event(name: &'static str, phase: Phase, ts: i64, tid: u32, machine: i64) -> TraceEvent {
        TraceEvent {
            name: Cow::Borrowed(name),
            phase,
            ts_micros: ts,
            pid: 0,
            tid,
            machine,
            round: -1,
        }
    }

    #[test]
    fn self_time_excludes_children_and_busiest_machine_wins() {
        let events = vec![
            event("job", Phase::Begin, 0, 0, -1),
            event("walks", Phase::Begin, 100, 0, -1),
            event("walks", Phase::End, 600, 0, -1),
            event("note", Phase::Instant, 650, 0, -1),
            event("embed", Phase::Begin, 700, 0, -1),
            event("embed", Phase::End, 1_000, 0, -1),
            event("job", Phase::End, 1_000, 0, -1),
            // Two machines on their own threads.
            event("superstep", Phase::Begin, 100, 1, 0),
            event("superstep", Phase::End, 300, 1, 0),
            event("superstep", Phase::Begin, 100, 2, 1),
            event("superstep", Phase::End, 500, 2, 1),
            event("superstep", Phase::Begin, 500, 2, 1),
            event("superstep", Phase::End, 550, 2, 1),
            // A Begin the run never closed, and an End with no Begin.
            event("dangling", Phase::Begin, 10, 3, -1),
            event("orphan", Phase::End, 20, 4, -1),
        ];
        let mut timeline = Timeline::default();
        timeline.extend(events);
        let spans = timeline.spans();
        let job = spans.first("job").expect("the job span closed");
        assert!((job.secs() - 1e-3).abs() < 1e-12);
        assert!(
            (job.self_secs() - 2e-4).abs() < 1e-12,
            "{}",
            job.self_secs()
        );
        assert!((spans.busiest_s("job", None) - 1e-3).abs() < 1e-12);
        assert!((spans.total_s("superstep", None) - 6.5e-4).abs() < 1e-12);
        assert!((spans.busiest_s("superstep", None) - 4.5e-4).abs() < 1e-12);
        // Only the supersteps that began while `walks` ran.
        let walks = spans.first("walks");
        assert!((spans.total_s("superstep", walks) - 6.5e-4).abs() < 1e-12);
        let embed = spans.first("embed");
        assert_eq!(spans.total_s("superstep", embed), 0.0);
        assert!(spans.first("dangling").is_none() && spans.first("orphan").is_none());
        assert_eq!(timeline.overflowed_rings, 0);
    }
}
