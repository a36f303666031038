//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! [--scale full|tiny]`
//!
//! Prints a detail line and, last, the result line
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. Exits 1
//! when a correctness check failed and 2 on a usage error.

use perfbench::bench::Options;
use perfbench::workload::{self, Scale, Workload, WORKLOADS};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--scale full|tiny]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = workload::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::by_name(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value}")),
            },
            "--seed" => match value.parse() {
                Ok(s) => seed = s,
                Err(_) => return usage(&format!("bad seed {value}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s <= 3600.0 => seconds = s,
                _ => return usage(&format!("bad seconds {value}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("bad trace {value}")),
            },
            "--scale" => match Scale::parse(value) {
                Some(s) => scale = s,
                None => return usage(&format!("bad scale {value}")),
            },
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let opts = Options {
        workload,
        seed,
        seconds,
        scale,
        width: workload::pool_width(),
    };
    let out = if trace {
        perfbench::trace::run(&opts)
    } else {
        perfbench::bench::run(&opts)
    };
    println!("{}", perfbench::detail_line(&opts, trace, &out));
    match perfbench::result_line(trace, &out) {
        Ok(line) => {
            println!("{line}");
            if out.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
