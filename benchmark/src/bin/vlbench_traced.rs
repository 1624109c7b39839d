//! The traced binary: boundary shims, `obs` registries and the counting
//! allocator on.

#[global_allocator]
static ALLOC: vlbench::alloc_count::CountingAlloc = vlbench::alloc_count::CountingAlloc;

fn main() -> std::process::ExitCode {
    vlbench::cli::main_traced()
}
