//! Allocation accounting: a tracking [`GlobalAlloc`] wrapper attributing
//! heap traffic to the pipeline stage that caused it.
//!
//! ## How attribution works
//!
//! [`TrackingAlloc`] wraps [`System`]. Binaries that want memory metrics
//! install it with `#[global_allocator]`. The wrapper is dormant until a
//! *memory session* ([`MemSession::start`]) flips the global `ENABLED`
//! flag; from then on every allocation and free is charged to the stage
//! named by a **thread-local stage tag**. The tag is pushed/popped by the
//! recorder's span machinery ([`crate::Recorder::span`],
//! [`crate::GoalObs::time`], …) whenever the recorder is enabled, so the
//! allocation table lines up with the wall-clock stage tables: an
//! allocation made while `canonize-core` is the innermost open span is
//! charged to `canonize-core`, not to the enclosing prove stage.
//! Allocations outside any span land in the final *untagged* row.
//!
//! ## Cost contract
//!
//! Without a session (`ENABLED` false — the default, and the permanent
//! state of every process that never asks for memory metrics) each
//! allocator hook pays exactly one relaxed boolean load on top of the
//! system allocator: no thread-local access, no atomic read-modify-write,
//! no tag read. The `alloc_disabled` integration test pins this by swapping
//! in a tag reader that panics and running a full pipeline with a disabled
//! recorder.
//!
//! With a session active the counters are **sharded per thread**: each
//! allocating thread owns a private `ThreadCells` table and bumps its
//! rows with plain relaxed load/store pairs (single-writer, so no atomic
//! read-modify-write on the per-stage path at all). Snapshots sum the
//! shards. The only shared state is the live-bytes watermark, and even
//! that is batched: each thread accumulates a signed `live_delta` and
//! folds it into the global `LIVE`/`PEAK` pair only when the
//! magnitude crosses `LIVE_FLUSH` bytes. Balanced scratch churn (the
//! overwhelming majority of prover traffic) therefore almost never
//! touches a contended cache line, while any single allocation of
//! `LIVE_FLUSH` bytes or more flushes immediately — big spikes are
//! always visible in the watermark, and the residual blur is bounded by
//! `LIVE_FLUSH` bytes per live thread (snapshots fold unflushed deltas
//! back in, and report `peak >= live` by construction).
//!
//! Thread tables are claimed from a free list on first use and returned
//! by a TLS reclaim guard when the thread exits, so long-running servers
//! that spawn workers per batch reuse a bounded pool (~one cache-padded
//! table per *concurrently* allocating thread, never freed, each about
//! 400 bytes). Allocation happens via [`System`] directly, so the tracker
//! never recurses into itself.
//!
//! ## What the numbers mean
//!
//! * `alloc_calls` / `alloc_bytes` — successful allocations charged to the
//!   stage tagged **at allocation time** (a `realloc` counts as a free of
//!   the old block plus an allocation of the new size).
//! * `bytes_freed` — bytes released while the stage was tagged; a stage
//!   that allocates scratch and frees it before popping shows matching
//!   columns, while a stage that builds structures owned by a later stage
//!   shows `alloc_bytes > bytes_freed` (the bytes are freed under the
//!   *consumer*'s tag, or untagged).
//! * `live_bytes` / `peak_live_bytes` — process-wide (not per-stage)
//!   resident tally and its high-watermark since the session started.
//!   Frees of blocks allocated *before* the session can drive the signed
//!   internal tally negative; snapshots clamp at zero.
//!
//! Per-stage rows therefore do **not** partition `peak_live_bytes`, and
//! allocation bytes are *not* deterministic across rustc versions or
//! hash-seed choices (container growth patterns shift). The deterministic
//! byte counters (`term-bytes`, `spnf-bytes`) come from the explicit
//! `deep_size` accounting in `udp-core`, not from this table.
//!
//! Sessions are exclusive per process (the table is global); a second
//! concurrent [`MemSession::start`] returns an *inactive* session whose
//! snapshot is `None` rather than corrupting the owner's attribution.

use crate::stage::Stage;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicPtr, AtomicU64, AtomicUsize, Ordering};

/// Rows in the attribution table: one per [`Stage`] plus the untagged row.
pub const ALLOC_ROWS: usize = Stage::COUNT + 1;

/// The tag value meaning "no stage open on this thread" (the last row).
pub const UNTAGGED: u8 = Stage::COUNT as u8;

/// Net live-byte drift a thread may accumulate before folding it into the
/// global watermark. Any single allocation this large flushes immediately.
const LIVE_FLUSH: u64 = 4096;

/// One row of a per-thread attribution table. Only the owning thread
/// writes (plain relaxed load/store — never a read-modify-write); snapshot
/// readers sum rows across threads with relaxed loads, so totals are exact
/// at quiescence and monotone mid-flight.
struct AllocCell {
    calls: AtomicU64,
    bytes: AtomicU64,
    freed: AtomicU64,
}

impl AllocCell {
    const fn new() -> AllocCell {
        AllocCell {
            calls: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            freed: AtomicU64::new(0),
        }
    }

    #[inline]
    fn bump(counter: &AtomicU64, by: u64) {
        // Single-writer: the owning thread is the only writer, so a plain
        // load+store pair (two mov instructions) replaces a locked RMW.
        counter.store(counter.load(Ordering::Relaxed) + by, Ordering::Relaxed);
    }
}

/// A per-thread shard of the attribution table, cache-line aligned so two
/// threads' hot counters never share a line. Lives forever once created
/// (pooled through [`FREE_TABLES`] across thread lifetimes).
#[repr(align(64))]
struct ThreadCells {
    rows: [AllocCell; ALLOC_ROWS],
    /// Owner-staged signed live-byte drift, flushed to [`LIVE`] when it
    /// crosses [`LIVE_FLUSH`] (and folded in by snapshots before that).
    live_delta: AtomicI64,
    /// Permanent registry link (set once before publication).
    all_next: AtomicPtr<ThreadCells>,
    /// Free-list link (only touched under [`FREE_LOCK`]).
    free_next: AtomicPtr<ThreadCells>,
}

impl ThreadCells {
    const fn new() -> ThreadCells {
        const CELL: AllocCell = AllocCell::new();
        ThreadCells {
            rows: [CELL; ALLOC_ROWS],
            live_delta: AtomicI64::new(0),
            all_next: AtomicPtr::new(ptr::null_mut()),
            free_next: AtomicPtr::new(ptr::null_mut()),
        }
    }

    fn reset(&self) {
        for row in &self.rows {
            row.calls.store(0, Ordering::Relaxed);
            row.bytes.store(0, Ordering::Relaxed);
            row.freed.store(0, Ordering::Relaxed);
        }
        self.live_delta.store(0, Ordering::Relaxed);
    }
}

/// Master switch: flipped by [`MemSession`]; every allocator hook checks it
/// first, which is the whole disabled-mode cost.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Session exclusivity (see the module docs).
static SESSION_ACTIVE: AtomicBool = AtomicBool::new(false);

/// Push-only registry of every table ever created — snapshots and session
/// resets walk it, so counts from threads that have already exited stay in
/// the totals.
static ALL_TABLES: AtomicPtr<ThreadCells> = AtomicPtr::new(ptr::null_mut());

/// Pool of tables whose owning threads exited, ready for reuse.
static FREE_TABLES: AtomicPtr<ThreadCells> = AtomicPtr::new(ptr::null_mut());

/// Spinlock guarding [`FREE_TABLES`] (claim/release are rare — once per
/// thread lifetime — so a spinlock beats lock-free ABA hazards).
static FREE_LOCK: AtomicBool = AtomicBool::new(false);

/// Signed live-bytes tally (frees of pre-session blocks go negative).
static LIVE: AtomicI64 = AtomicI64::new(0);
/// High-watermark of [`LIVE`] since the session started.
static PEAK: AtomicI64 = AtomicI64::new(0);

/// The allocator-facing thread state: the innermost open stage tag and
/// this thread's claimed table. `const`-initialized `Cell`s with no
/// destructor, so the slot is valid (and `try_with` infallible in
/// practice) at any point in the thread's life — including inside other
/// TLS destructors.
struct TlsState {
    tag: Cell<u8>,
    cells: Cell<*const ThreadCells>,
}

thread_local! {
    static TLS: TlsState = const {
        TlsState {
            tag: Cell::new(UNTAGGED),
            cells: Cell::new(ptr::null()),
        }
    };
}

/// Returns this thread's table to the pool when the thread exits (flushing
/// its staged live drift first). Separate from [`TLS`] because *this* slot
/// needs a destructor; the allocator itself never touches it.
struct Reclaimer(Cell<*const ThreadCells>);

impl Drop for Reclaimer {
    fn drop(&mut self) {
        let p = self.0.get();
        if p.is_null() {
            return;
        }
        let table = unsafe { &*p };
        let d = table.live_delta.load(Ordering::Relaxed);
        table.live_delta.store(0, Ordering::Relaxed);
        if d != 0 {
            global_live_add(d);
        }
        // Unclaim *before* pooling so a late allocation on this thread
        // cannot write into a table another thread just claimed. (Such an
        // allocation re-registers; its fresh table is simply never pooled.)
        let _ = TLS.try_with(|t| t.cells.set(ptr::null()));
        freelist_push(p as *mut ThreadCells);
    }
}

thread_local! {
    static RECLAIMER: Reclaimer = Reclaimer(Cell::new(ptr::null()));
}

/// Swappable tag reader (a `fn() -> u8` stored as `usize`; 0 = inline
/// default). Exists so the disabled-path test can install a panicking
/// reader and prove the allocator never consults the tag without a
/// session.
static TAG_READER: AtomicUsize = AtomicUsize::new(0);

/// What [`tag_of`] reads when no replacement is installed (exposed to the
/// unit tests so they can observe the tag stack without an allocator).
#[cfg(test)]
fn default_tag_reader() -> u8 {
    TLS.try_with(|t| t.tag.get()).unwrap_or(UNTAGGED)
}

/// Install a replacement tag reader (tests only). The reader runs inside
/// the allocator, so it must not allocate.
pub fn set_tag_reader(reader: fn() -> u8) {
    TAG_READER.store(reader as usize, Ordering::SeqCst);
}

#[inline]
fn tag_of(tls: &TlsState) -> usize {
    let raw = TAG_READER.load(Ordering::Relaxed);
    let tag = if raw == 0 {
        tls.tag.get()
    } else {
        // Safety: the only writes to TAG_READER store `fn() -> u8` values
        // via `set_tag_reader` (or leave the 0 sentinel handled above).
        let f: fn() -> u8 = unsafe { std::mem::transmute(raw) };
        f()
    };
    (tag as usize).min(ALLOC_ROWS - 1)
}

fn lock_freelist() {
    while FREE_LOCK
        .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
        .is_err()
    {
        std::hint::spin_loop();
    }
}

fn freelist_push(p: *mut ThreadCells) {
    lock_freelist();
    unsafe {
        (*p).free_next
            .store(FREE_TABLES.load(Ordering::Relaxed), Ordering::Relaxed);
    }
    FREE_TABLES.store(p, Ordering::Relaxed);
    FREE_LOCK.store(false, Ordering::Release);
}

fn freelist_pop() -> *mut ThreadCells {
    lock_freelist();
    let head = FREE_TABLES.load(Ordering::Relaxed);
    if !head.is_null() {
        FREE_TABLES.store(
            unsafe { (*head).free_next.load(Ordering::Relaxed) },
            Ordering::Relaxed,
        );
    }
    FREE_LOCK.store(false, Ordering::Release);
    head
}

/// Claim (or create) this thread's table. Cold: runs once per thread
/// lifetime. Creating goes through [`System`] directly so the tracker
/// never recurses into itself; the one allocation that *can* re-enter
/// (lazy init of the reclaim guard's TLS slot) happens after `tls.cells`
/// is set, so the re-entrant hook takes the fast path.
#[cold]
#[inline(never)]
fn register(tls: &TlsState) -> *const ThreadCells {
    let mut p = freelist_pop();
    if p.is_null() {
        let layout = Layout::new::<ThreadCells>();
        p = unsafe { System.alloc(layout) } as *mut ThreadCells;
        if p.is_null() {
            return ptr::null();
        }
        unsafe { ptr::write(p, ThreadCells::new()) };
        let mut head = ALL_TABLES.load(Ordering::Relaxed);
        loop {
            unsafe { (*p).all_next.store(head, Ordering::Relaxed) };
            match ALL_TABLES.compare_exchange_weak(head, p, Ordering::Release, Ordering::Relaxed) {
                Ok(_) => break,
                Err(h) => head = h,
            }
        }
    }
    tls.cells.set(p);
    // Best-effort: if the thread is already tearing down its TLS, the
    // guard can't be installed and this table is simply never pooled.
    let _ = RECLAIMER.try_with(|r| r.0.set(p));
    p
}

/// Walk every table ever registered.
fn for_each_table(mut f: impl FnMut(&ThreadCells)) {
    let mut p = ALL_TABLES.load(Ordering::Acquire);
    while !p.is_null() {
        let t = unsafe { &*p };
        f(t);
        p = t.all_next.load(Ordering::Relaxed);
    }
}

#[inline]
fn global_live_add(d: i64) {
    let live = LIVE.fetch_add(d, Ordering::Relaxed) + d;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

#[inline]
fn bump_live(table: &ThreadCells, delta: i64) {
    let d = table.live_delta.load(Ordering::Relaxed) + delta;
    if d.unsigned_abs() >= LIVE_FLUSH {
        table.live_delta.store(0, Ordering::Relaxed);
        global_live_add(d);
    } else {
        table.live_delta.store(d, Ordering::Relaxed);
    }
}

#[inline]
fn with_table(f: impl FnOnce(&TlsState, &ThreadCells)) {
    let _ = TLS.try_with(|tls| {
        let mut p = tls.cells.get();
        if p.is_null() {
            p = register(tls);
            if p.is_null() {
                return; // table allocation failed; drop this sample
            }
        }
        f(tls, unsafe { &*p })
    });
}

#[inline]
fn note_alloc(size: usize) {
    with_table(|tls, table| {
        let row = &table.rows[tag_of(tls)];
        AllocCell::bump(&row.calls, 1);
        AllocCell::bump(&row.bytes, size as u64);
        bump_live(table, size as i64);
    });
}

#[inline]
fn note_free(size: usize) {
    // A thread that frees without ever having allocated during the
    // session does not claim a table for it: frees during late TLS
    // teardown (after the reclaim guard ran) would otherwise strand a
    // fresh table per exiting thread.
    let _ = TLS.try_with(|tls| {
        let p = tls.cells.get();
        if p.is_null() {
            return;
        }
        let table = unsafe { &*p };
        AllocCell::bump(&table.rows[tag_of(tls)].freed, size as u64);
        bump_live(table, -(size as i64));
    });
}

/// The tracking allocator. Install per binary:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: udp_obs::alloc::TrackingAlloc = udp_obs::alloc::TrackingAlloc;
/// ```
pub struct TrackingAlloc;

// Safety: defers all allocation to `System`; the bookkeeping only touches
// lock-free atomics and destructor-free thread-locals.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && ENABLED.load(Ordering::Relaxed) {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() && ENABLED.load(Ordering::Relaxed) {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if ENABLED.load(Ordering::Relaxed) {
            note_free(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() && ENABLED.load(Ordering::Relaxed) {
            note_free(layout.size());
            note_alloc(new_size);
        }
        p
    }
}

/// RAII stage tag: sets this thread's tag on construction, restores the
/// previous tag on drop (nested spans re-tag to the innermost stage).
/// Pushed by the recorder's span machinery; inert construction is the
/// caller's job (disabled recorders never construct one).
pub struct TagGuard {
    prev: u8,
}

/// Tag the current thread with `stage` until the guard drops.
pub fn stage_tag(stage: Stage) -> TagGuard {
    let prev = TLS
        .try_with(|t| t.tag.replace(stage.as_index() as u8))
        .unwrap_or(UNTAGGED);
    TagGuard { prev }
}

impl Drop for TagGuard {
    fn drop(&mut self) {
        let _ = TLS.try_with(|t| t.tag.set(self.prev));
    }
}

/// An exclusive memory-accounting session: resets the attribution table,
/// enables the allocator hooks, and disables them again on drop. One per
/// process at a time; a losing concurrent `start` gets an inactive session
/// (see the module docs).
pub struct MemSession {
    active: bool,
    /// Whether a [`TrackingAlloc`] is actually installed as the global
    /// allocator (probed at start; false means every row will stay zero).
    tracked: bool,
}

impl MemSession {
    /// Begin accounting. Resets the table, live tally, and watermark.
    pub fn start() -> MemSession {
        if SESSION_ACTIVE
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return MemSession {
                active: false,
                tracked: false,
            };
        }
        for_each_table(ThreadCells::reset);
        LIVE.store(0, Ordering::Relaxed);
        PEAK.store(0, Ordering::Relaxed);
        ENABLED.store(true, Ordering::SeqCst);
        // Probe: if the tracking allocator is installed, this box lands in
        // some row; total calls stay zero otherwise. `black_box` keeps the
        // optimizer from eliding the paired alloc/free outright (release
        // builds are allowed to remove a dead `Box`, which would misreport
        // an installed allocator as absent).
        let probe = std::hint::black_box(Box::new(0u8));
        drop(std::hint::black_box(probe));
        let mut tracked = false;
        for_each_table(|t| {
            tracked = tracked || t.rows.iter().any(|c| c.calls.load(Ordering::Relaxed) > 0)
        });
        MemSession {
            active: true,
            tracked,
        }
    }

    /// Did this session win the exclusivity race (i.e. is it accounting)?
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Is a [`TrackingAlloc`] installed in this process?
    pub fn is_tracked(&self) -> bool {
        self.tracked
    }

    /// Read the attribution table (`None` for an inactive session). Sums
    /// the per-thread shards and folds unflushed live drift back in, so
    /// `live_bytes` is exact at quiescence and `peak >= live` always.
    pub fn snapshot(&self) -> Option<MemorySnapshot> {
        if !self.active {
            return None;
        }
        let mut calls = [0u64; ALLOC_ROWS];
        let mut bytes = [0u64; ALLOC_ROWS];
        let mut freed = [0u64; ALLOC_ROWS];
        let mut staged = 0i64;
        for_each_table(|t| {
            for (i, row) in t.rows.iter().enumerate() {
                calls[i] += row.calls.load(Ordering::Relaxed);
                bytes[i] += row.bytes.load(Ordering::Relaxed);
                freed[i] += row.freed.load(Ordering::Relaxed);
            }
            staged += t.live_delta.load(Ordering::Relaxed);
        });
        let live = (LIVE.load(Ordering::Relaxed) + staged).max(0);
        let peak = PEAK.load(Ordering::Relaxed).max(live).max(0);
        let stages = (0..ALLOC_ROWS)
            .map(|i| AllocStageSnapshot {
                stage: Stage::ALL.get(i).copied(),
                alloc_calls: calls[i],
                alloc_bytes: bytes[i],
                bytes_freed: freed[i],
            })
            .collect();
        Some(MemorySnapshot {
            tracked: self.tracked,
            live_bytes: live as u64,
            peak_live_bytes: peak as u64,
            stages,
        })
    }
}

impl Drop for MemSession {
    fn drop(&mut self) {
        if self.active {
            ENABLED.store(false, Ordering::SeqCst);
            SESSION_ACTIVE.store(false, Ordering::SeqCst);
        }
    }
}

/// One row of a [`MemorySnapshot`]: allocation traffic charged to `stage`
/// (`None` = the untagged row).
#[derive(Debug, Clone, Copy)]
pub struct AllocStageSnapshot {
    /// Which stage (`None` for allocations made outside any span).
    pub stage: Option<Stage>,
    /// Successful allocations charged to this stage.
    pub alloc_calls: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// Bytes released while this stage was tagged.
    pub bytes_freed: u64,
}

impl AllocStageSnapshot {
    /// Stable row name (`"untagged"` for the no-stage row).
    pub fn name(&self) -> &'static str {
        self.stage.map_or("untagged", Stage::name)
    }
}

/// Point-in-time view of the allocation-attribution table.
#[derive(Debug, Clone)]
pub struct MemorySnapshot {
    /// Whether a [`TrackingAlloc`] is installed (false ⇒ all rows zero).
    pub tracked: bool,
    /// Live heap bytes allocated since the session started (clamped ≥ 0).
    pub live_bytes: u64,
    /// High-watermark of `live_bytes` over the session.
    pub peak_live_bytes: u64,
    /// All rows in [`Stage::ALL`] order, untagged last ([`ALLOC_ROWS`]).
    pub stages: Vec<AllocStageSnapshot>,
}

impl MemorySnapshot {
    /// Total allocation bytes across every row.
    pub fn total_alloc_bytes(&self) -> u64 {
        self.stages.iter().map(|s| s.alloc_bytes).sum()
    }

    /// Total allocation calls across every row.
    pub fn total_alloc_calls(&self) -> u64 {
        self.stages.iter().map(|s| s.alloc_calls).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Unit tests here can't install a global allocator for just this
    // process (that's what the integration tests under `tests/` do), so
    // they exercise the tag stack, session exclusivity, and snapshot
    // plumbing directly.

    #[test]
    fn tag_guard_nests_and_restores() {
        assert_eq!(default_tag_reader(), UNTAGGED);
        {
            let _a = stage_tag(Stage::Normalize);
            assert_eq!(default_tag_reader(), Stage::Normalize.as_index() as u8);
            {
                let _b = stage_tag(Stage::CanonizeCore);
                assert_eq!(default_tag_reader(), Stage::CanonizeCore.as_index() as u8);
            }
            assert_eq!(default_tag_reader(), Stage::Normalize.as_index() as u8);
        }
        assert_eq!(default_tag_reader(), UNTAGGED);
    }

    #[test]
    fn sessions_are_exclusive_and_release_on_drop() {
        let first = MemSession::start();
        // One of the tests in this process may already hold the session;
        // either way, at most one of (first, second) is active.
        let second = MemSession::start();
        assert!(!(first.is_active() && second.is_active()) || !second.is_active());
        if first.is_active() {
            assert!(!second.is_active());
            assert!(second.snapshot().is_none());
            let snap = first.snapshot().unwrap();
            assert_eq!(snap.stages.len(), ALLOC_ROWS);
            assert_eq!(snap.stages.last().unwrap().name(), "untagged");
        }
        drop(second);
        drop(first);
        let third = MemSession::start();
        assert!(third.is_active() || SESSION_ACTIVE.load(Ordering::SeqCst));
    }

    #[test]
    fn untracked_process_reports_zero_rows() {
        // These unit tests run without TrackingAlloc installed, so an
        // active session must probe `tracked == false` and report zeros.
        let s = MemSession::start();
        if s.is_active() {
            assert!(!s.is_tracked());
            let snap = s.snapshot().unwrap();
            assert!(!snap.tracked);
            assert_eq!(snap.total_alloc_bytes(), 0);
            assert_eq!(snap.total_alloc_calls(), 0);
            assert_eq!(snap.peak_live_bytes, 0);
        }
    }
}
