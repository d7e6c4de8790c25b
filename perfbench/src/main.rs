//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the human-readable report, then one JSON result line as the
//! last line of standard output. Exits 1 when any check failed, 2 on a
//! usage error.

use perfbench::{run, Args, Scale, WORKLOADS};

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage(&format!("bad value {value:?} for {flag}")))
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = parse(&flag, &value),
            "--seconds" => args.seconds = parse(&flag, &value),
            "--trace" => args.trace = parse::<u8>(&flag, &value) == 1,
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        usage("--workload is required");
    }
    args
}

fn main() {
    let args = parse_args();
    let report = run(&args).unwrap_or_else(|e| usage(&e));
    print!("{}", report.human());
    let missing = report.missing(args.trace);
    if !missing.is_empty() {
        eprintln!("perfbench: metrics not measured: {}", missing.join(", "));
    }
    println!("{}", report.json(args.trace));
    if !report.correct() || !missing.is_empty() {
        std::process::exit(1);
    }
}
