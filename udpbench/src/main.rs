//! The benchmark's end-to-end binary: no tracing, no allocation counting.

fn main() -> std::process::ExitCode {
    udpbench::main_with(false)
}
