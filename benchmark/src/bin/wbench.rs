//! The plain benchmark binary: end-to-end metrics (`--trace 0`) and
//! `--selfcheck`, on the allocator the product ships with.

fn main() -> std::process::ExitCode {
    whodunit_benchmark::main_from_env()
}
