//! Command line of the streaming benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --write-reference <first seed> <last seed>
//! ```
//!
//! The first form prints a human-readable report and, as its last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; it exits
//! with 1 if a verdict check failed. The second prints the oracle's
//! reference lines (the format of `reference.txt`) for every workload and
//! seed in the range.

use perfbench::oracle::Reference;
use perfbench::workload::{Kind, Workload};
use perfbench::{run, RunConfig};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Command::Run(cfg)) => {
            let out = run(&cfg);
            for line in &out.lines {
                println!("{line}");
            }
            println!("{}", out.json());
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Ok(Command::WriteReference(first, last)) => {
            for seed in first..=last {
                for kind in Kind::ALL {
                    let w = Workload::generate(kind, seed, 1);
                    println!("{}", Reference::oracle(&w).line(kind, seed));
                }
            }
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Kind::ALL.map(Kind::name).join("|")
            );
            eprintln!("       perfbench --write-reference <first seed> <last seed>");
            ExitCode::from(2)
        }
    }
}

enum Command {
    Run(RunConfig),
    WriteReference(u64, u64),
}

fn parse(args: &[String]) -> Result<Command, String> {
    let number = |flag: &str, value: Option<&String>| -> Result<u64, String> {
        value
            .ok_or_else(|| format!("{flag} needs a value"))?
            .parse()
            .map_err(|e| format!("{flag}: {e}"))
    };
    if args.first().map(String::as_str) == Some("--write-reference") {
        return Ok(Command::WriteReference(
            number("--write-reference", args.get(1))?,
            number("--write-reference", args.get(2))?,
        ));
    }
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next();
        match flag.as_str() {
            "--workload" => {
                let name = value.ok_or("--workload needs a value")?;
                kind = Some(Kind::from_name(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(number(flag, value)?),
            "--seconds" => seconds = Some(number(flag, value)?),
            "--trace" => match number(flag, value)? {
                0 => trace = Some(false),
                1 => trace = Some(true),
                other => return Err(format!("--trace must be 0 or 1, not {other}")),
            },
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Command::Run(RunConfig {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")? as f64,
        trace: trace.unwrap_or(false),
        scale: 1,
    }))
}
