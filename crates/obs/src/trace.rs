//! Bounded per-worker event buffers and the Chrome Trace Event JSON
//! export behind `--trace-out`.
//!
//! A [`TraceSink`] keeps one lane per OS thread that records into it. Each
//! lane is a bounded ring: when full, the *oldest* events are evicted (the
//! tail of a long run is usually the interesting part) and a drop counter
//! keeps the loss honest. Spans are stored as **completed intervals** —
//! pushed once, at close, by the same RAII guards that feed the stage
//! tables — so any subset that survives eviction is still properly nested
//! and the exported begin/end pairs are balanced by construction.
//!
//! [`TraceSink::chrome_trace`] renders the buffers as Chrome Trace Event
//! JSON (the `{"traceEvents": [...]}` array format): `"B"`/`"E"` duration
//! events for spans, `"i"` instants for point events (cache hits, budget
//! exhaustion, contained faults), and one `thread_name` metadata record per
//! lane. The output loads directly in Perfetto or `chrome://tracing`.
//! [`validate_chrome_trace`] re-parses an export with [`crate::json`] and
//! checks the span-balance invariant — CI runs it over a fixed-seed corpus
//! trace.

use crate::json::{self, Value};
use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// Default per-lane event capacity (~1.5 MB of JSON per saturated lane).
pub const DEFAULT_TRACE_CAPACITY: usize = 16_384;

/// One buffered trace event, timestamped in nanoseconds since the sink's
/// epoch.
enum Event {
    /// A completed span (closed interval; `start_ns <= end_ns`).
    Span {
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    },
    /// A point event.
    Instant { name: &'static str, ts_ns: u64 },
}

/// One thread's event ring.
struct Lane {
    events: VecDeque<Event>,
    dropped: u64,
}

struct State {
    lanes: Vec<Lane>,
    by_thread: HashMap<ThreadId, usize>,
}

/// A shared event-trace collector. Attached to an enabled
/// [`crate::Recorder`] at construction; every span guard and instant call
/// then feeds the calling thread's lane.
pub struct TraceSink {
    epoch: Instant,
    capacity: usize,
    state: Mutex<State>,
}

impl TraceSink {
    pub(crate) fn new(capacity: usize) -> TraceSink {
        TraceSink {
            epoch: Instant::now(),
            capacity: capacity.max(2),
            state: Mutex::new(State {
                lanes: Vec::new(),
                by_thread: HashMap::new(),
            }),
        }
    }

    /// Nanoseconds from the sink epoch to `t` (0 for pre-epoch instants).
    fn rel_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, event: Event) {
        let thread = std::thread::current().id();
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let lane_ix = match state.by_thread.get(&thread) {
            Some(&ix) => ix,
            None => {
                let ix = state.lanes.len();
                state.lanes.push(Lane {
                    events: VecDeque::new(),
                    dropped: 0,
                });
                state.by_thread.insert(thread, ix);
                ix
            }
        };
        let lane = &mut state.lanes[lane_ix];
        if lane.events.len() >= self.capacity {
            lane.events.pop_front();
            lane.dropped += 1;
        }
        lane.events.push_back(event);
    }

    /// Record a completed span on the calling thread's lane.
    pub(crate) fn span(&self, name: &'static str, start: Instant, end: Instant) {
        let start_ns = self.rel_ns(start);
        self.push(Event::Span {
            name,
            start_ns,
            end_ns: self.rel_ns(end).max(start_ns),
        });
    }

    /// Record a point event on the calling thread's lane.
    pub(crate) fn instant(&self, name: &'static str) {
        let ts_ns = self.rel_ns(Instant::now());
        self.push(Event::Instant { name, ts_ns });
    }

    /// Number of lanes (threads) that have recorded at least one event.
    pub fn lane_count(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .lanes
            .len()
    }

    /// Total events evicted across all lanes.
    pub fn dropped(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .lanes
            .iter()
            .map(|l| l.dropped)
            .sum()
    }

    /// Render the buffered events as Chrome Trace Event JSON. Spans become
    /// properly nested `"B"`/`"E"` pairs (per lane, parents open before and
    /// close after their children); instants become `"i"` events; each lane
    /// gets a `thread_name` metadata record and its own `tid`.
    pub fn chrome_trace(&self) -> String {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::with_capacity(64 * 1024);
        out.push_str("{\"traceEvents\": [\n");
        let mut first = true;
        let mut emit = |out: &mut String, line: String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str("  ");
            out.push_str(&line);
        };
        for (ix, lane) in state.lanes.iter().enumerate() {
            let tid = ix + 1;
            emit(
                &mut out,
                format!(
                    "{{\"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \"name\": \"thread_name\", \
                     \"args\": {{\"name\": \"lane-{tid}\"}}}}"
                ),
            );
            // Parent-before-child order: ascending start, descending end.
            // RAII guards on one thread give strict nesting in real time,
            // so a stack suffices to interleave the end events.
            let mut spans: Vec<(&'static str, u64, u64)> = Vec::new();
            let mut instants: Vec<(&'static str, u64)> = Vec::new();
            for ev in &lane.events {
                match ev {
                    Event::Span {
                        name,
                        start_ns,
                        end_ns,
                    } => spans.push((name, *start_ns, *end_ns)),
                    Event::Instant { name, ts_ns } => instants.push((name, *ts_ns)),
                }
            }
            spans.sort_by(|a, b| a.1.cmp(&b.1).then(b.2.cmp(&a.2)));
            let mut open: Vec<(&'static str, u64)> = Vec::new();
            for (name, start_ns, end_ns) in spans {
                while let Some(&(top_name, top_end)) = open.last() {
                    if top_end <= start_ns {
                        emit(&mut out, span_event("E", top_name, tid, top_end));
                        open.pop();
                    } else {
                        break;
                    }
                }
                emit(&mut out, span_event("B", name, tid, start_ns));
                open.push((name, end_ns));
            }
            while let Some((name, end_ns)) = open.pop() {
                emit(&mut out, span_event("E", name, tid, end_ns));
            }
            for (name, ts_ns) in instants {
                emit(
                    &mut out,
                    format!(
                        "{{\"ph\": \"i\", \"pid\": 1, \"tid\": {tid}, \"name\": \"{name}\", \
                         \"ts\": {}, \"s\": \"t\"}}",
                        fmt_us(ts_ns)
                    ),
                );
            }
            if lane.dropped > 0 {
                emit(
                    &mut out,
                    format!(
                        "{{\"ph\": \"i\", \"pid\": 1, \"tid\": {tid}, \
                         \"name\": \"events-dropped: {}\", \"ts\": 0, \"s\": \"t\"}}",
                        lane.dropped
                    ),
                );
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("capacity", &self.capacity)
            .field("lanes", &self.lane_count())
            .finish()
    }
}

/// Nanoseconds → the trace format's fractional-microsecond timestamps.
fn fmt_us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1_000.0)
}

fn span_event(ph: &str, name: &str, tid: usize, ts_ns: u64) -> String {
    format!(
        "{{\"ph\": \"{ph}\", \"pid\": 1, \"tid\": {tid}, \"name\": \"{name}\", \"ts\": {}}}",
        fmt_us(ts_ns)
    )
}

/// Summary of a validated Chrome trace (what the CI smoke asserts on).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceCheck {
    /// Distinct `tid` lanes carrying at least one span or instant.
    pub lanes: usize,
    /// Balanced begin/end span pairs.
    pub spans: usize,
    /// Instant events.
    pub instants: usize,
}

/// Parse a Chrome Trace Event JSON export (with the bundled [`json`]
/// parser) and check the span-balance invariant: per `tid`, in array
/// order, every `"E"` closes the innermost open `"B"` of the same name and
/// nothing stays open. Returns per-trace totals on success.
pub fn validate_chrome_trace(text: &str) -> Result<TraceCheck, String> {
    let v = json::parse(text).map_err(|e| format!("trace is not valid JSON: {e}"))?;
    let events = v
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("missing `traceEvents` array")?;
    let mut stacks: HashMap<u64, Vec<String>> = HashMap::new();
    let mut lanes: HashMap<u64, bool> = HashMap::new();
    let mut spans = 0usize;
    let mut instants = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing `ph`"))?;
        let tid = ev
            .get("tid")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("event {i}: missing `tid`"))?;
        let name = ev
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing `name`"))?;
        match ph {
            "B" => {
                if ev.get("ts").and_then(Value::as_f64).is_none() {
                    return Err(format!("event {i}: span without numeric `ts`"));
                }
                stacks.entry(tid).or_default().push(name.to_string());
                lanes.insert(tid, true);
            }
            "E" => {
                let stack = stacks.entry(tid).or_default();
                match stack.pop() {
                    Some(open) if open == name => spans += 1,
                    Some(open) => {
                        return Err(format!(
                            "event {i}: `E` for `{name}` closes open span `{open}` (tid {tid})"
                        ))
                    }
                    None => {
                        return Err(format!(
                            "event {i}: `E` for `{name}` with no open span (tid {tid})"
                        ))
                    }
                }
            }
            "i" | "I" => {
                instants += 1;
                lanes.insert(tid, true);
            }
            "M" => {}
            other => return Err(format!("event {i}: unsupported phase `{other}`")),
        }
    }
    for (tid, stack) in &stacks {
        if let Some(name) = stack.last() {
            return Err(format!(
                "unbalanced trace: `{name}` never closed (tid {tid})"
            ));
        }
    }
    Ok(TraceCheck {
        lanes: lanes.len(),
        spans,
        instants,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sink() -> TraceSink {
        TraceSink::new(DEFAULT_TRACE_CAPACITY)
    }

    #[test]
    fn spans_and_instants_round_trip_balanced() {
        let s = sink();
        let t0 = s.epoch;
        s.span("goal", t0, t0 + Duration::from_micros(100));
        s.span(
            "normalize",
            t0 + Duration::from_micros(5),
            t0 + Duration::from_micros(20),
        );
        s.span(
            "udp-prove",
            t0 + Duration::from_micros(25),
            t0 + Duration::from_micros(90),
        );
        s.instant("cache-hit");
        let json = s.chrome_trace();
        let check = validate_chrome_trace(&json).expect("trace must validate");
        assert_eq!(check.spans, 3);
        assert_eq!(check.instants, 1);
        assert_eq!(check.lanes, 1);
        assert!(json.contains("\"thread_name\""));
    }

    #[test]
    fn nesting_survives_out_of_order_completion() {
        // Completed intervals arrive child-first (inner guard drops before
        // the outer one); the renderer must still open the parent first.
        let s = sink();
        let t0 = s.epoch;
        s.span(
            "inner",
            t0 + Duration::from_micros(10),
            t0 + Duration::from_micros(20),
        );
        s.span("outer", t0, t0 + Duration::from_micros(50));
        let json = s.chrome_trace();
        validate_chrome_trace(&json).expect("balanced");
        let outer_b = json.find("\"ph\": \"B\", \"pid\": 1, \"tid\": 1, \"name\": \"outer\"");
        let inner_b = json.find("\"ph\": \"B\", \"pid\": 1, \"tid\": 1, \"name\": \"inner\"");
        assert!(
            outer_b.unwrap() < inner_b.unwrap(),
            "parent must open first"
        );
    }

    #[test]
    fn ring_eviction_keeps_balance_and_counts_drops() {
        let s = TraceSink::new(4);
        let t0 = s.epoch;
        for i in 0..20u64 {
            s.span(
                "step",
                t0 + Duration::from_micros(i * 10),
                t0 + Duration::from_micros(i * 10 + 5),
            );
        }
        assert_eq!(s.dropped(), 16);
        let check = validate_chrome_trace(&s.chrome_trace()).expect("still balanced");
        assert_eq!(check.spans, 4);
    }

    #[test]
    fn validator_rejects_unbalanced_and_mismatched() {
        let missing_end = r#"{"traceEvents": [
            {"ph": "B", "pid": 1, "tid": 1, "name": "a", "ts": 0}
        ]}"#;
        assert!(validate_chrome_trace(missing_end)
            .unwrap_err()
            .contains("never closed"));
        let crossed = r#"{"traceEvents": [
            {"ph": "B", "pid": 1, "tid": 1, "name": "a", "ts": 0},
            {"ph": "E", "pid": 1, "tid": 1, "name": "b", "ts": 1}
        ]}"#;
        assert!(validate_chrome_trace(crossed)
            .unwrap_err()
            .contains("closes open span"));
        let stray = r#"{"traceEvents": [
            {"ph": "E", "pid": 1, "tid": 1, "name": "a", "ts": 0}
        ]}"#;
        assert!(validate_chrome_trace(stray)
            .unwrap_err()
            .contains("no open span"));
    }

    #[test]
    fn empty_sink_renders_an_empty_valid_trace() {
        let check = validate_chrome_trace(&sink().chrome_trace()).unwrap();
        assert_eq!(
            check,
            TraceCheck {
                lanes: 0,
                spans: 0,
                instants: 0
            }
        );
    }
}
