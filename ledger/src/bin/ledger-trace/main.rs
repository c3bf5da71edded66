//! `ledger-trace` — the traced pass: replay one workload's configuration
//! in-process with a span around every call into a layer's public
//! functions, run the layer probes, and print the per-layer numbers.
//!
//! ```text
//! ledger-trace --workload W --seed DERIVED_SEED [--scale K]
//!              --scratch DIR --out TRACE.json
//! ```
//!
//! Started by `ledger`; `--seed` is the *derived* seed the CLI children got,
//! so the replay must end on the digest they printed. The last stdout line
//! is one JSON object: `digest`, `replay_s`, `metrics`, `failures`.
//! End-to-end numbers never come from this binary.

mod layers;

use ledger::span::Tracer;
use ledger::spec::workload;
use serde::Value;
use std::path::PathBuf;
use std::process::ExitCode;

fn arg(args: &[String], name: &str) -> Option<String> {
    let at = args.iter().position(|a| a == name)?;
    args.get(at + 1).cloned()
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = arg(&args, "--workload").ok_or("need --workload")?;
    let seed: u64 = arg(&args, "--seed")
        .ok_or("need --seed")?
        .parse()
        .map_err(|_| "--seed is not a number")?;
    let scale: u64 = match arg(&args, "--scale") {
        Some(s) => s.parse().map_err(|_| "--scale is not a number")?,
        None => 1,
    };
    let scratch = PathBuf::from(arg(&args, "--scratch").ok_or("need --scratch")?);
    let out = PathBuf::from(arg(&args, "--out").ok_or("need --out")?);
    let w = workload(&name, scale).ok_or_else(|| format!("unknown workload {name:?}"))?;
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;

    let mut tracer = Tracer::new(w.name);
    let outcome = layers::trace(&w, seed, scale, &scratch, &mut tracer)?;
    std::fs::write(&out, tracer.to_json()).map_err(|e| format!("{}: {e}", out.display()))?;

    for (name, value) in &outcome.metrics {
        println!("{:<14} {name:<36} {value:>16.4}", w.name);
    }
    let line = Value::Map(vec![
        ("digest".into(), Value::Str(outcome.digest)),
        (
            "replay_s".into(),
            Value::Float(tracer.total_ns("replay") as f64 / 1e9),
        ),
        (
            "metrics".into(),
            Value::Map(
                outcome
                    .metrics
                    .iter()
                    .map(|(k, v)| (k.to_string(), Value::Float(*v)))
                    .chain([(
                        "ledger.spans".to_string(),
                        Value::Float(tracer.span_count() as f64),
                    )])
                    .collect(),
            ),
        ),
        (
            "failures".into(),
            Value::Seq(outcome.failures.into_iter().map(Value::Str).collect()),
        ),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ledger-trace: {e}");
            ExitCode::FAILURE
        }
    }
}
