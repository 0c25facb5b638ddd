//! Copying an expression copies its boxes, not its names: this test binary
//! installs the tracking allocator and counts the allocation calls one
//! `Expr::clone` makes.

use udp_core::expr::{Expr, VarId};
use udp_obs::{Recorder, Stage, TrackingAlloc};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

/// The path `t0.a0.a1…` with `n` attribute nodes, each name distinct.
fn path(n: usize) -> Expr {
    (0..n).fold(Expr::Var(VarId(0)), |e, i| {
        Expr::attr(e, format!("attribute_{i}"))
    })
}

#[test]
fn cloning_an_expression_allocates_its_boxes_and_no_names() {
    let recorder = Recorder::enabled();
    recorder.track_memory();
    for n in [1usize, 4, 32] {
        let e = path(n);
        let before = calls(&recorder);
        let copy = {
            let _span = recorder.span(Stage::Normalize);
            e.clone()
        };
        assert_eq!(copy, e);
        assert_eq!(
            calls(&recorder) - before,
            n as u64,
            "one box per attribute node of {e}"
        );
    }
}

/// Allocation calls charged to the normalize stage so far.
fn calls(recorder: &Recorder) -> u64 {
    let mem = recorder.snapshot().memory.expect("memory session");
    assert!(
        mem.tracked,
        "the global allocator is installed in this binary"
    );
    mem.stages
        .iter()
        .find(|r| r.name() == Stage::Normalize.name())
        .expect("normalize row")
        .alloc_calls
}
