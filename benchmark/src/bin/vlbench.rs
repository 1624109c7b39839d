//! The timed binary: tracing compiled out, system allocator untouched.

fn main() -> std::process::ExitCode {
    vlbench::cli::main_timed()
}
