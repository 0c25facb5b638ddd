//! Pins the zero-bookkeeping contract of the disabled allocation-tracking
//! path: without an active memory session, the tracking allocator must
//! never consult the thread-local stage tag — its entire cost is one
//! relaxed load of the `ENABLED` flag.
//!
//! The proof is a swapped-in tag reader that panics if it is ever called.
//! This binary installs [`TrackingAlloc`], installs the panicking reader,
//! and then drives heavy allocation traffic under disabled *and* enabled
//! (but memory-untracked) recorders; any bookkeeping leak panics inside
//! the allocator and aborts the test. Kept to a single `#[test]` so the
//! reader stays installed for the whole process without racing a sibling
//! test that needs the real one.

use udp_obs::{Recorder, Stage, TrackingAlloc};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

fn panicking_reader() -> u8 {
    panic!("allocator consulted the stage tag without an active memory session");
}

#[test]
fn no_session_means_the_allocator_never_reads_the_tag() {
    udp_obs::alloc::set_tag_reader(panicking_reader);

    // Disabled recorder: the documented hot-path configuration.
    let disabled = Recorder::disabled();
    let collected = disabled.time(Stage::Normalize, || {
        (0..50_000u64).map(|i| i.to_string()).collect::<Vec<_>>()
    });
    drop(collected);

    // Enabled recorder without track_memory(): spans push stage tags, but
    // with no session the allocator must still not read them.
    let enabled = Recorder::enabled();
    {
        let _span = enabled.span(Stage::UdpProve);
        let mut v = Vec::new();
        for i in 0..50_000u64 {
            v.push(i.to_string());
        }
    }
    let snap = enabled.snapshot();
    assert!(snap.memory.is_none(), "no memory session was requested");
    assert!(snap.to_json().contains("\"memory\": null"));
}
