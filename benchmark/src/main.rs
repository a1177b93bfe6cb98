//! `fastvg-benchmark --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 1 when any
//! correctness check fails and 2 when the run cannot produce a result.

use fastvg_benchmark::run::{run, Args};

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("fastvg-benchmark: {why}");
            eprintln!("usage: fastvg-benchmark --workload cold-fast|cold-paired|hot-fleet --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    println!("stamp {}", fastvg_benchmark::proc::stamp().dump());
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(why) => {
            eprintln!("fastvg-benchmark: {why}");
            std::process::exit(2);
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    let attempts = outcome.attempts;
    println!(
        "failed_frac = {} ({} of {} requests and checks failed)",
        attempts.failed_frac(),
        attempts.failed,
        attempts.attempted
    );
    for (name, value, unit) in &outcome.metrics {
        println!("{name} = {value} {unit}");
    }
    println!("{}", outcome.json_line());
    if !outcome.correct {
        std::process::exit(1);
    }
}
