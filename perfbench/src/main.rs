//! The repository benchmark. See `perfbench/README.md` for the workloads,
//! the metrics and how to run it:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_mix --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints an environment line, then one JSON result line last.

mod batch_sweep;
mod layers;
mod problem;
mod serve_mix;
mod util;

use util::{Args, Outcome};

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let stream_gbps = util::stream_gbps();
    println!("{}", util::environment(&args, stream_gbps));
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "serve_mix" => serve_mix::run(&args, stream_gbps, &mut out),
        _ => batch_sweep::run(args.seed, args.seconds, args.trace, stream_gbps, &mut out),
    }
    if !out.print(args.trace) {
        std::process::exit(1);
    }
}
