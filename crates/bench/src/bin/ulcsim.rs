//! `ulcsim` — a flexible command-line front end for the simulator.
//!
//! ```text
//! ulcsim --workload=tpcc1 --caps=6400,6400,6400 --scheme=ulc --refs=1000000
//! ulcsim --trace=path/to/trace.txt --caps=1024,8192 --scheme=all
//! ```
//!
//! Options:
//!
//! * `--workload=<name>`: one of `cs glimpse zipf random sprite multi
//!   random-large zipf-large httpd dev1 tpcc1 httpd-multi openmail db2`
//!   (default `tpcc1`), or `--trace=<file>` in the `ulc::trace::io` text
//!   format;
//! * `--refs=<n>`: references to generate for synthetic workloads
//!   (default 500000);
//! * `--caps=<a,b,...>`: per-level capacities in blocks (default
//!   `6400,6400,6400`);
//! * `--scheme=<indlru|unilru|mq|ulc|all>` (default `all`; `mq` needs
//!   exactly two levels);
//! * `--warmup=<n>`: warm-up references (default: first tenth).
//!
//! A bad argument, an unreadable trace file, a scheme that does not fit
//! the hierarchy or a trace naming a client id at or above
//! [`MAX_CLIENTS`] exits 2 with a message.

use ulc_bench::{exit_with_error, ms, pct, row};
use ulc_core::{UlcConfig, UlcMulti, UlcMultiConfig, UlcSingle};
use ulc_hierarchy::{
    simulate, CostModel, IndLru, LruMqServer, MultiLevelPolicy, UniLru, UniLruVariant,
};
use ulc_trace::{synthetic, Trace};

struct Args {
    workload: String,
    trace_file: Option<String>,
    refs: usize,
    caps: Vec<usize>,
    scheme: String,
    warmup: Option<usize>,
}

const SCHEMES: [&str; 5] = ["indlru", "unilru", "mq", "ulc", "all"];

/// Bound on the client-id space of a simulated trace. Every scheme builds
/// one private cache per id up to the largest one named, so an id taken
/// from a file decides the memory the run needs; the paper's largest
/// multi-client workload has 8 clients.
const MAX_CLIENTS: usize = 256;

fn parse_num(flag: &str, v: &str) -> Result<usize, String> {
    v.trim()
        .parse()
        .map_err(|e| format!("{flag} takes a non-negative integer, got {v:?}: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "tpcc1".into(),
        trace_file: None,
        refs: 500_000,
        caps: vec![6_400, 6_400, 6_400],
        scheme: "all".into(),
        warmup: None,
    };
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("--workload=") {
            args.workload = v.into();
        } else if let Some(v) = arg.strip_prefix("--trace=") {
            args.trace_file = Some(v.into());
        } else if let Some(v) = arg.strip_prefix("--refs=") {
            args.refs = parse_num("--refs", v)?;
        } else if let Some(v) = arg.strip_prefix("--caps=") {
            args.caps = v
                .split(',')
                .map(|c| parse_num("--caps", c))
                .collect::<Result<_, _>>()?;
        } else if let Some(v) = arg.strip_prefix("--scheme=") {
            args.scheme = v.to_lowercase();
        } else if let Some(v) = arg.strip_prefix("--warmup=") {
            args.warmup = Some(parse_num("--warmup", v)?);
        } else {
            return Err(format!("unknown argument {arg:?}"));
        }
    }
    if args.caps.contains(&0) {
        return Err(format!(
            "--caps={:?}: every level needs at least one block",
            args.caps
        ));
    }
    if !SCHEMES.contains(&args.scheme.as_str()) {
        return Err(format!(
            "unknown scheme {:?} (use {})",
            args.scheme,
            SCHEMES.join("|")
        ));
    }
    Ok(args)
}

fn load_workload(args: &Args) -> Result<Trace, String> {
    if let Some(path) = &args.trace_file {
        let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
        return ulc_trace::io::read_text(file)
            .map_err(|e| format!("{path} is not a text trace: {e}"));
    }
    let n = args.refs;
    Ok(match args.workload.as_str() {
        "cs" => synthetic::cs(n),
        "glimpse" => synthetic::glimpse(n),
        "zipf" => synthetic::zipf_small(n),
        "random" => synthetic::random_small(n),
        "sprite" => synthetic::sprite(n),
        "multi" => synthetic::multi_small(n),
        "random-large" => synthetic::random_large(n),
        "zipf-large" => synthetic::zipf_large(n),
        "httpd" => synthetic::httpd_single(n),
        "dev1" => synthetic::dev1(n),
        "tpcc1" => synthetic::tpcc1(n),
        "httpd-multi" => synthetic::httpd_multi(n),
        "openmail" => synthetic::openmail(n, 150_000),
        "db2" => synthetic::db2_multi(n, 85_000),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Builds the requested schemes. With `all`, a scheme the hierarchy
/// shape does not fit is skipped; asked for by name, it is an error.
fn build_schemes(
    name: &str,
    caps: &[usize],
    clients: usize,
) -> Result<Vec<Box<dyn MultiLevelPolicy>>, String> {
    let multi_client = clients > 1;
    let client_caps = vec![caps[0]; clients];
    let shared: Vec<usize> = caps[1..].to_vec();
    let mq_fits = caps.len() == 2;
    let ulc_fits = !multi_client || caps.len() == 2;
    if name == "mq" && !mq_fits {
        return Err(format!("--scheme=mq needs exactly two levels, got {}", caps.len()));
    }
    if name == "ulc" && !ulc_fits {
        return Err(format!(
            "multi-client ULC needs exactly two levels, got {}",
            caps.len()
        ));
    }
    let mut out: Vec<Box<dyn MultiLevelPolicy>> = Vec::new();
    let want = |s: &str| name == "all" || name == s;
    if want("indlru") {
        out.push(Box::new(IndLru::multi_client(
            client_caps.clone(),
            shared.clone(),
        )));
    }
    if want("unilru") {
        out.push(Box::new(UniLru::multi_client(
            client_caps.clone(),
            shared.clone(),
            UniLruVariant::MruInsert,
        )));
    }
    if want("mq") && mq_fits {
        out.push(Box::new(LruMqServer::new(client_caps.clone(), caps[1])));
    }
    if want("ulc") && ulc_fits {
        if multi_client {
            out.push(Box::new(UlcMulti::new(UlcMultiConfig {
                client_capacities: client_caps,
                server_capacity: caps[1],
                claim_rule: Default::default(),
            })));
        } else {
            out.push(Box::new(UlcSingle::new(UlcConfig::new(caps.to_vec()))));
        }
    }
    Ok(out)
}

fn cost_model(levels: usize) -> CostModel {
    match levels {
        2 => CostModel::paper_two_level(),
        3 => CostModel::paper_three_level(),
        n => {
            // Extend the paper's constants: every extra level is another
            // SAN hop.
            let mut hit = vec![0.0, 1.0];
            for i in 2..n {
                hit.push(1.0 + 0.2 * (i as f64 - 1.0));
            }
            hit.truncate(n);
            let miss = hit.last().expect("one hit time per level") + 10.0;
            let mut demote = vec![1.0];
            demote.resize(n - 1, 0.2);
            CostModel {
                hit_time_ms: hit,
                miss_time_ms: miss,
                demote_time_ms: demote,
            }
        }
    }
}

fn main() {
    if let Err(msg) = run() {
        exit_with_error(&msg);
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let trace = load_workload(&args)?;
    let clients = trace.num_clients().max(1) as usize;
    if clients > MAX_CLIENTS {
        return Err(format!(
            "the trace names client id {}; ulcsim simulates at most {MAX_CLIENTS} clients",
            clients - 1
        ));
    }
    let warmup = args.warmup.unwrap_or_else(|| trace.warmup_len());
    if warmup > trace.len() {
        return Err(format!(
            "--warmup={warmup} exceeds the trace length {}",
            trace.len()
        ));
    }
    let mut schemes = build_schemes(&args.scheme, &args.caps, clients)?;
    let costs = cost_model(args.caps.len());
    println!(
        "workload {} ({}), caps {:?}, warmup {}",
        args.workload,
        ulc_trace::TraceStats::compute(&trace),
        args.caps,
        warmup
    );

    let mut header = vec![];
    for i in 0..args.caps.len() {
        header.push(format!("h(L{})", i + 1));
    }
    header.push("miss".into());
    for i in 0..args.caps.len() - 1 {
        header.push(format!("d(b{})", i + 1));
    }
    header.push("T_ave".into());
    println!("{}", row("scheme", &header));

    for scheme in schemes.iter_mut() {
        let stats = simulate(scheme.as_mut(), &trace, warmup);
        let mut cells = vec![];
        for h in stats.hit_rates() {
            cells.push(pct(h));
        }
        cells.push(pct(stats.miss_rate()));
        for d in stats.demotion_rates() {
            cells.push(pct(d));
        }
        cells.push(ms(stats.average_access_time(&costs)));
        println!("{}", row(scheme.name(), &cells));
    }
    Ok(())
}
