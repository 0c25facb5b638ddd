//! The benchmark's traced binary: the same runs, with the benchmark's own
//! allocation counter installed so `--trace 1` can attribute allocations to
//! its spans.

#[global_allocator]
static ALLOC: udpbench::trace::CountingAlloc = udpbench::trace::CountingAlloc;

fn main() -> std::process::ExitCode {
    udpbench::main_with(true)
}
