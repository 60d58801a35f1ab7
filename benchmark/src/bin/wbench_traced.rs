//! The traced benchmark binary: the same code as `wbench` behind a
//! counting allocator, for the per-layer metrics (`--trace 1`).

use whodunit_benchmark::trace::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> std::process::ExitCode {
    whodunit_benchmark::main_from_env()
}
