//! `expt` — every experiment of the reproduction behind one binary:
//! `expt <name> [flags]`, `expt --help` for the list, `expt <name>
//! --help` for one name's flags (see `ftsg_bench::cli`).

use ftsg_bench::cli;
use ftsg_bench::experiments::alloc_sites::TracingAllocator;
use ftsg_bench::experiments::EXPERIMENTS;

/// Counts every allocator request and its bytes, for `regress`'s
/// allocation gates and `ckpt`'s codec section; traces them only under
/// `timeline --alloc-sites`.
#[global_allocator]
static ALLOCATOR: TracingAllocator = TracingAllocator;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        match EXPERIMENTS.iter().find(|e| e.name == argv[0]) {
            Some(e) => println!("{}", cli::usage_line(e)),
            None => print!("{}", cli::help()),
        }
        return;
    }
    match cli::dispatch(&argv) {
        Ok(code) => std::process::exit(code),
        Err(usage) => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    }
}
