//! The observability outputs a binary or bench asks for, in one place:
//! which recorder mode they need and how they are written at exit.
//! `udp-verify`, `udp-serve` and the throughput bench's `BENCH.json` all go
//! through [`ObsOutputs`], so the metrics file is always a
//! [`MetricsSnapshot::to_json`](crate::MetricsSnapshot::to_json) snapshot.

use crate::{Recorder, DEFAULT_SLOW_CAPACITY, DEFAULT_TRACE_CAPACITY};
use std::io;

/// The `--metrics-json PATH`, `--trace-goals N` and `--trace-out PATH`
/// requests. The default requests nothing and keeps the recorder disabled.
#[derive(Debug, Clone, Default)]
pub struct ObsOutputs {
    /// Write the schema-5 metrics snapshot here; also turns on memory
    /// tracking.
    pub metrics_json: Option<String>,
    /// Print this many slowest goals' stage waterfalls to stderr.
    pub trace_goals: usize,
    /// Write the Chrome Trace Event export here.
    pub trace_out: Option<String>,
}

impl ObsOutputs {
    /// Take `flag` and its value from `args` when it is one of these
    /// outputs' flags (`--metrics-json PATH`, `--trace-goals N`,
    /// `--trace-out PATH`): `Ok(true)` when taken, `Ok(false)` when it is
    /// not one of them, `Err` with the usage message when its value is
    /// missing or invalid.
    pub fn take_flag<'a>(
        &mut self,
        flag: &str,
        args: &mut impl Iterator<Item = &'a String>,
    ) -> Result<bool, String> {
        let path = match flag {
            "--metrics-json" => &mut self.metrics_json,
            "--trace-out" => &mut self.trace_out,
            "--trace-goals" => {
                let n = args.next().and_then(|s| s.parse().ok());
                let invalid = || format!("missing or invalid value for {flag}");
                self.trace_goals = n.ok_or_else(invalid)?;
                return Ok(true);
            }
            _ => return Ok(false),
        };
        let missing = || format!("missing value for {flag}");
        *path = Some(args.next().cloned().ok_or_else(missing)?);
        Ok(true)
    }

    /// The recorder these outputs need: with an event trace for
    /// `trace_out`, enabled for `metrics_json` or `trace_goals`, and
    /// disabled (free) otherwise. Only `metrics_json` tracks memory.
    pub fn recorder(&self) -> Recorder {
        let slow = self.trace_goals.max(DEFAULT_SLOW_CAPACITY);
        let recorder = if self.trace_out.is_some() {
            Recorder::with_trace(slow, DEFAULT_TRACE_CAPACITY)
        } else if self.metrics_json.is_some() || self.trace_goals > 0 {
            Recorder::with_slow_capacity(slow)
        } else {
            Recorder::disabled()
        };
        if self.metrics_json.is_some() {
            recorder.track_memory();
        }
        recorder
    }

    /// Print the waterfalls to stderr and write the metrics snapshot and
    /// the Chrome trace. A no-op on a disabled recorder; an error names
    /// the path it failed on.
    pub fn write(&self, recorder: &Recorder) -> io::Result<()> {
        if !recorder.is_enabled() {
            return Ok(());
        }
        let snapshot = recorder.snapshot();
        if self.trace_goals > 0 {
            eprint!("{}", snapshot.render_slow_goals(self.trace_goals));
        }
        if let Some(path) = &self.metrics_json {
            write_file(path, snapshot.to_json())?;
        }
        if let Some(path) = &self.trace_out {
            if let Some(trace) = recorder.chrome_trace() {
                write_file(path, trace)?;
            }
        }
        Ok(())
    }
}

fn write_file(path: &str, contents: String) -> io::Result<()> {
    std::fs::write(path, contents).map_err(|e| io::Error::new(e.kind(), format!("`{path}`: {e}")))
}
