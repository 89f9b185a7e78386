//! `ctr-bench`: the untraced binary (system allocator).

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(ctr_benchmark::cli::main(&args));
}
