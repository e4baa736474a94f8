//! `ulc-perfbench --workload NAME [--seed N] [--seconds S] [--setup-reps K]
//! [--layers] [--spans PATH] [--pin]`
//!
//! Runs one workload and prints one JSON result line last on stdout.
//! `--pin` instead prints the workload's lines of `digests.txt` (run it
//! with the default seed).

use std::process::ExitCode;
use ulc_perfbench::digest::{digest, Pins};
use ulc_perfbench::metrics::result_json;
use ulc_perfbench::run::{median, run, DigestCheck, Options};
use ulc_perfbench::workloads::Workload;

fn parse_args() -> Result<(Options, Option<String>, bool), String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut opts = Options::new(Workload::Single3Level);
    let mut spans_path = None;
    let mut pin = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--setup-reps" => {
                opts.setup_reps = value()?.parse().map_err(|e| format!("--setup-reps: {e}"))?
            }
            "--layers" => opts.layers = true,
            "--spans" => spans_path = Some(value()?),
            "--pin" => pin = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    if pin {
        opts.digests = DigestCheck::Off;
        opts.seconds = 0.0;
        opts.setup_reps = 1;
    }
    Ok((opts, spans_path, pin))
}

fn main() -> ExitCode {
    let (opts, spans_path, pin) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ulc-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let name = opts.workload.name();
    let report = run(opts);
    for (label, why) in &report.failures {
        eprintln!("FAILED {name} {label}: {why}");
    }
    if pin {
        let mut pins = Pins::default();
        for (label, s) in report.labels.iter().zip(&report.stats) {
            pins.set(name, label, digest(s));
        }
        print!("{}", pins.render());
        return ExitCode::SUCCESS;
    }
    if let Some(path) = spans_path {
        if let Err(e) = std::fs::write(&path, report.spans.to_json()) {
            eprintln!("ulc-perfbench: writing {path}: {e}");
            return ExitCode::from(1);
        }
    }
    let mut rates = report.refs_per_s_rounds();
    rates.sort_by(f64::total_cmp);
    eprintln!(
        "{name}: measured refs_per_s per round over {} rounds: min {:.0} median {:.0} max {:.0}; \
         control {:.2} ns/op",
        rates.len(),
        rates[0],
        median(&rates),
        rates[rates.len() - 1],
        report.control_ns_per_op()
    );
    let mut metrics = report.end_to_end();
    metrics.extend(report.layer_metrics.iter().cloned());
    eprintln!(
        "{name}: {} cells, {} failed",
        report.attempted(),
        report.failed()
    );
    println!(
        "{}",
        result_json(report.attempted(), report.failed(), &metrics)
    );
    ExitCode::SUCCESS
}
