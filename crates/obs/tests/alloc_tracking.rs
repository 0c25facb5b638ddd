//! Integration tests for the tracking allocator — this test binary
//! installs [`TrackingAlloc`] as its global allocator (something the
//! crate's unit tests cannot do), so these tests see real attributed
//! bytes.
//!
//! The memory session is process-exclusive; every test takes
//! `SESSION_LOCK` so the harness's parallel test threads serialize.

use std::sync::Mutex;
use udp_obs::{Recorder, Stage, TrackingAlloc};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

static SESSION_LOCK: Mutex<()> = Mutex::new(());

/// Allocate roughly `bytes` of heap and return it (kept alive by the
/// caller so live-byte assertions can see it).
fn allocate(bytes: usize) -> Vec<u64> {
    let mut v = Vec::with_capacity(bytes / 8);
    v.extend(0..(bytes as u64 / 8));
    v
}

#[test]
fn tracked_session_attributes_bytes_to_the_tagged_stage() {
    let _guard = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let recorder = Recorder::enabled();
    recorder.track_memory();
    let kept = {
        let _span = recorder.span(Stage::Normalize);
        allocate(1 << 20)
    };
    let snap = recorder.snapshot();
    let mem = snap.memory.expect("track_memory opened a session");
    assert!(
        mem.tracked,
        "the global allocator is installed in this binary"
    );
    let row = mem
        .stages
        .iter()
        .find(|r| r.name() == Stage::Normalize.name())
        .expect("canonize row present");
    assert!(
        row.alloc_bytes >= 1 << 20,
        "canonize charged {} bytes, want >= 1 MiB",
        row.alloc_bytes
    );
    assert!(row.alloc_calls >= 1);
    assert!(
        mem.peak_live_bytes >= 1 << 20,
        "peak watermark {} missed the 1 MiB allocation",
        mem.peak_live_bytes
    );
    assert!(mem.live_bytes <= mem.peak_live_bytes);
    drop(kept);
}

#[test]
fn untagged_allocations_land_in_the_untagged_row() {
    let _guard = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let recorder = Recorder::enabled();
    recorder.track_memory();
    let kept = allocate(1 << 18); // no span open: must charge "untagged"
    let snap = recorder.snapshot();
    let mem = snap.memory.expect("memory session");
    let untagged = mem.stages.last().expect("untagged tail row");
    assert_eq!(untagged.name(), "untagged");
    assert!(
        untagged.alloc_bytes >= 1 << 18,
        "untagged charged {} bytes, want >= 256 KiB",
        untagged.alloc_bytes
    );
    drop(kept);
}

#[test]
fn nested_spans_charge_the_innermost_stage_and_frees_are_counted() {
    let _guard = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let recorder = Recorder::enabled();
    recorder.track_memory();
    {
        let _outer = recorder.span(Stage::UdpProve);
        let _inner = recorder.span(Stage::Congruence);
        drop(allocate(1 << 16)); // allocated AND freed under congruence
    }
    let snap = recorder.snapshot();
    let mem = snap.memory.expect("memory session");
    let congruence = mem
        .stages
        .iter()
        .find(|r| r.name() == Stage::Congruence.name())
        .unwrap();
    assert!(congruence.alloc_bytes >= 1 << 16, "{congruence:?}");
    assert!(congruence.bytes_freed >= 1 << 16, "{congruence:?}");
    // The outer stage saw none of the inner stage's traffic.
    let outer = mem
        .stages
        .iter()
        .find(|r| r.name() == Stage::UdpProve.name())
        .unwrap();
    assert!(
        outer.alloc_bytes < 1 << 16,
        "outer span was charged the inner span's bytes: {outer:?}"
    );
}

#[test]
fn totals_equal_the_row_sums_and_json_reports_tracked() {
    let _guard = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let recorder = Recorder::enabled();
    recorder.track_memory();
    drop(recorder.time(Stage::Parse, || allocate(1 << 16)));
    let snap = recorder.snapshot();
    let mem = snap.memory.as_ref().expect("memory session");
    let row_bytes: u64 = mem.stages.iter().map(|r| r.alloc_bytes).sum();
    assert_eq!(row_bytes, mem.total_alloc_bytes());
    let json = snap.to_json();
    assert!(json.contains("\"schema_version\": 5"), "{json}");
    assert!(json.contains("\"tracked\": true"), "{json}");
    assert!(!json.contains("\"memory\": null"), "{json}");
}
