//! The traced benchmark binary: the same code behind a counting
//! allocator, recording spans; produces the per-layer ledger.

use penelope_benchmark::host::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> std::process::ExitCode {
    penelope_benchmark::main_with(penelope_benchmark::Flavor::Traced)
}
