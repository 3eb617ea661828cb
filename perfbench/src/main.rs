//! `matgpt-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable detail, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

use matgpt_perfbench::{run, Args};

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: matgpt-perfbench --workload <train|train_dp2|serve_chat|serve_decode> \
                 --seed <n> [--seconds <s>] [--trace <0|1>]"
            );
            std::process::exit(2);
        }
    };
    let out = run(&args);
    for line in &out.lines {
        println!("{line}");
    }
    for m in &out.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    for e in &out.errors {
        println!("CHECK FAILED: {e}");
    }
    println!("{}", out.json());
}
