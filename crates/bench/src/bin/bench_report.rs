//! `bench-report` — print the paper's and the record's figures, write or
//! validate the machine-readable record.
//!
//! ```text
//! bench-report [FIGURE ...] [flags]     print the named figures (default: all)
//! bench-report --out PATH [flags]       print every figure, write the record
//! bench-report --validate PATH          check a written record
//! ```
//!
//! Flags:
//! * `--scale <f64>`           collection size multiplier (default 0.25)
//! * `--seed <u64>`            dataset seed (default 20170525)
//! * `--workers <list>`        comma-separated worker counts (default 1,2,4,8,16)
//! * `--group-sizes <list>`    task-group sizes for fig4 (default 1,2,4,8,16)
//! * `--time-limit-secs <f64>` per-instance time limit (default 5)
//! * `--long-threshold <f64>`  short/long split threshold in seconds (default 0.05)
//! * `--max-instances <n>`     cap instances per collection (default 24)
//! * `--repeats <n>`           wall-time samples per timed case (default 5)
//! * `--smoke`                 tiny preset for CI: the flags above at smoke
//!   values and the record figures at smoke sizes
//!
//! A malformed flag or an unknown figure prints usage and exits 2; a record
//! that fails validation exits 1, which is what CI's `bench-smoke` job gates
//! on.

use sge_bench::bench_report::{render_record, validate_report, FIGURES};
use sge_bench::config::parse_args;
use std::process::exit;

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("usage: bench-report [FIGURE ...] [--out PATH] [--smoke] [--repeats N]");
    eprintln!("       bench-report --validate PATH");
    eprintln!("flags: --scale F --seed N --workers LIST --group-sizes LIST");
    eprintln!("       --time-limit-secs F --long-threshold F --max-instances N");
    let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
    eprintln!("figures: {}", names.join(" "));
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let invocation = parse_args(&args).unwrap_or_else(|err| usage_error(&err));

    if let Some(path) = invocation.validate {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|err| {
            eprintln!("bench-report: cannot read '{path}': {err}");
            exit(2);
        });
        match validate_report(&text) {
            Ok(()) => println!("{path}: valid sge-bench-report/v1 with every registered figure"),
            Err(err) => {
                eprintln!("bench-report: '{path}' failed validation: {err}");
                exit(1);
            }
        }
        return;
    }

    let mut tables = Vec::new();
    for (name, run) in invocation.figures {
        let table = run(&invocation.settings);
        println!("\n### {name}\n");
        println!("{}", table.render());
        tables.push((name, table));
    }
    if let Some(out) = invocation.out {
        let record = render_record(&invocation.settings, &tables);
        if let Err(err) = std::fs::write(&out, format!("{record}\n")) {
            eprintln!("bench-report: cannot write '{out}': {err}");
            exit(2);
        }
        println!("wrote {out}");
    }
}
