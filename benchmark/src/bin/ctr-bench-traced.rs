//! `ctr-bench-traced`: the same program with a counting global
//! allocator, so the ladder can report allocations per fire. Only the
//! traced run uses it; end-to-end numbers come from `ctr-bench`.

#[global_allocator]
static ALLOCATOR: ctr_benchmark::alloc::Counting = ctr_benchmark::alloc::Counting;

fn main() {
    ctr_benchmark::alloc::mark_installed();
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(ctr_benchmark::cli::main(&args));
}
