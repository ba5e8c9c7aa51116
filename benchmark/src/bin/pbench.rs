//! The untraced benchmark binary: end-to-end metrics, no instrumentation.

fn main() -> std::process::ExitCode {
    penelope_benchmark::main_with(penelope_benchmark::Flavor::Untraced)
}
