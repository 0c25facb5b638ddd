//! The traced run's instruments, all owned by the benchmark: an allocation
//! counter installed as the global allocator of the traced binary only, and
//! spans recorded around calls into the program's public functions.
//!
//! A goal's spans form a logical tree. The root is the client round trip
//! through `udp-serve`; its children are the goal-line parse and one
//! `Session::verify_batch` call on an in-process session in the same cache
//! state. The layers the service runs inside that call — desugar, lower,
//! SPNF, fingerprint, solve (whose child is the prover) — cannot be timed
//! from outside, so the benchmark calls each public function again, in the
//! service's order and on the service's inputs, and records those calls as
//! the service span's children. A span's self time (and self allocation) is
//! its own measure minus its children's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// (bytes, calls) allocated on this thread while counting was on.
    static TOTALS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// A global allocator that forwards to [`System`] and, while counting is
/// on, tallies each thread's requested bytes and calls (a `realloc` counts
/// as one call of its new size). The on/off flag is a statistic switch
/// that publishes no other data, so it uses `Relaxed` ordering.
pub struct CountingAlloc;

fn note(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        // `try_with` fails only during thread teardown; those allocations
        // belong to no span.
        let _ = TOTALS.try_with(|t| {
            let (b, c) = t.get();
            t.set((b + bytes as u64, c + 1));
        });
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` touches only an atomic flag
// and a const-initialised thread-local `Cell`, and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turn allocation counting on or off. Only meaningful in a binary that
/// installs [`CountingAlloc`]; elsewhere the totals stay zero.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// This thread's allocation totals. Spans run on one thread (the session
/// verifies in-thread with one worker), so span deltas are exact.
fn alloc_totals() -> (u64, u64) {
    TOTALS.with(Cell::get)
}

/// Span identifier within one [`Tracer`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Goal the span belongs to.
    pub goal: u64,
    /// Layer name (`sql.parse`, `service`, …).
    pub name: &'static str,
    /// Logical parent.
    pub parent: Option<SpanId>,
    /// Start, relative to the tracer's creation.
    pub start: Duration,
    /// Duration.
    pub dur: Duration,
    /// Bytes allocated during the span.
    pub bytes: u64,
    /// Allocation calls during the span.
    pub calls: u64,
}

/// In-memory span store; written out once, when the run ends.
pub struct Tracer {
    epoch: Instant,
    goal: u64,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            goal: 0,
            spans: Vec::with_capacity(1 << 16),
        }
    }
}

impl Tracer {
    /// Start the spans of the next goal.
    pub fn next_goal(&mut self) {
        self.goal += 1;
    }

    /// Record a span measured elsewhere (the client round trip).
    pub fn external(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        dur: Duration,
    ) -> SpanId {
        let start = self.epoch.elapsed().saturating_sub(dur);
        self.push(name, parent, start, dur, (0, 0))
    }

    /// Time `f` (and count its allocations) as a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (SpanId, R) {
        let (b0, c0) = alloc_totals();
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        let dur = t0.elapsed();
        let (b1, c1) = alloc_totals();
        let start = t0.duration_since(self.epoch);
        (self.push(name, parent, start, dur, (b1 - b0, c1 - c0)), out)
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Duration,
        dur: Duration,
        (bytes, calls): (u64, u64),
    ) -> SpanId {
        self.spans.push(Span {
            goal: self.goal,
            name,
            parent,
            start,
            dur,
            bytes,
            calls,
        });
        self.spans.len() - 1
    }

    /// The span with id `id`.
    pub fn get(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    fn children(&self, id: SpanId) -> impl Iterator<Item = &Span> {
        // Children are recorded after their parent, within the same goal.
        self.spans[id + 1..]
            .iter()
            .take_while(move |s| s.goal == self.spans[id].goal)
            .filter(move |s| s.parent == Some(id))
    }

    /// Self time in microseconds: the span minus its children.
    pub fn self_us(&self, id: SpanId) -> f64 {
        let kids: Duration = self.children(id).map(|s| s.dur).sum();
        (self.spans[id].dur.as_secs_f64() - kids.as_secs_f64()) * 1e6
    }

    /// Self allocation (bytes, calls): the span minus its children.
    pub fn self_alloc(&self, id: SpanId) -> (f64, f64) {
        let s = &self.spans[id];
        let (b, c) = self
            .children(id)
            .fold((0u64, 0u64), |(b, c), k| (b + k.bytes, c + k.calls));
        (s.bytes as f64 - b as f64, s.calls as f64 - c as f64)
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"goal\":{},\"name\":\"{}\",\"parent\":{parent},\"start_us\":{},\"dur_us\":{},\"bytes\":{},\"calls\":{}}}\n",
                s.goal,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.dur.as_secs_f64() * 1e6,
                s.bytes,
                s.calls
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_of_the_same_goal() {
        let mut t = Tracer::default();
        t.next_goal();
        let root = t.external("goal", None, Duration::from_micros(100));
        t.external("child", Some(root), Duration::from_micros(30));
        t.external("child", Some(root), Duration::from_micros(20));
        t.next_goal();
        t.external("goal", None, Duration::from_micros(7));
        assert!((t.self_us(root) - 50.0).abs() < 1e-6);
        assert!((t.self_us(3) - 7.0).abs() < 1e-6);
    }
}
