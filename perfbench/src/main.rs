//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, checks every answer and prints its metrics: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics and the
//! tracing overhead with `--trace 1`. The last line of standard output is
//! one JSON object; the lines before it are for people. Exits 1 on any
//! failed or wrong op and 2 on bad arguments.

use std::fmt::Write as _;
use std::process::ExitCode;

use perfbench::{host, run, Metric, Outcome, Plan, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> String {
    format!(
        "{msg}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| usage(&format!("{flag} needs a value")))?;
        let bad = || usage(&format!("bad value {value:?} for {flag}"));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && (0.0..=3600.0).contains(&s)) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(usage(&format!("unknown argument {flag}"))),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| usage("--workload is required"))?,
        seed: seed.ok_or_else(|| usage("--seed is required"))?,
        seconds: seconds.ok_or_else(|| usage("--seconds is required"))?,
        trace: trace.ok_or_else(|| usage("--trace is required"))?,
    })
}

fn table(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!("{title}\n");
    for m in metrics {
        let _ = writeln!(out, "  {:<28} {:>18.6} {}", m.name, m.value, m.unit);
    }
    out
}

fn result_line(outcome: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failures.is_empty(),
        outcome.attempted,
        outcome.failures.len(),
        body.join(", ")
    )
}

/// Write the spans beside the benchmark's sources, in `out/`.
fn write_spans(outcome: &Outcome, seed: u64) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "trace-{}-seed{seed}.jsonl",
        outcome.workload.name()
    ));
    std::fs::write(&path, outcome.tracer.to_json_lines())?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let plan = Plan::standard(args.workload, args.seconds, args.trace);
    let outcome = match run(args.workload, args.seed, plan) {
        Ok(outcome) => outcome,
        Err(msg) => {
            eprintln!("{}: set-up failed: {msg}", args.workload.name());
            return ExitCode::from(1);
        }
    };

    println!(
        "{} seed {} ({} host threads, {} ops timed{})",
        args.workload.name(),
        args.seed,
        host::nproc(),
        outcome.untraced.ops + outcome.traced.map_or(0, |t| t.ops),
        if args.trace {
            ", every other block traced"
        } else {
            ""
        },
    );
    let mut e2e = outcome.end_to_end();
    e2e.push(Metric::new("error_rate", outcome.error_rate(), "ratio"));
    print!("{}", table("end to end (untraced ops)", &e2e));
    for failure in &outcome.failures {
        println!("FAILED {failure}");
    }
    let metrics = if args.trace {
        print!("{}", table("per layer", &outcome.per_layer()));
        match write_spans(&outcome, args.seed) {
            Ok(path) => println!("spans: {path}"),
            Err(e) => eprintln!("could not write spans: {e}"),
        }
        outcome.per_layer()
    } else {
        outcome.end_to_end()
    };
    println!("{}", result_line(&outcome, &metrics));
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
