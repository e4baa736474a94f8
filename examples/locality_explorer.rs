//! Locality explorer: reproduce the §2 measure study on a workload of
//! your choice and see why LLD-R is the right basis for multi-level
//! caching.
//!
//! ```text
//! cargo run --release --example locality_explorer [cs|glimpse|zipf|random|sprite|multi]
//! ```

use ulc::measures::{analyze, MeasureKind, Table1};
use ulc::trace::{synthetic, Trace};

fn pick(name: &str, refs: usize) -> Trace {
    match name {
        "cs" => synthetic::cs(refs),
        "glimpse" => synthetic::glimpse(refs),
        "zipf" => synthetic::zipf_small(refs),
        "random" => synthetic::random_small(refs),
        "sprite" => synthetic::sprite(refs),
        "multi" => synthetic::multi_small(refs),
        other => {
            eprintln!("unknown workload {other:?} (use cs|glimpse|zipf|random|sprite|multi)");
            std::process::exit(2);
        }
    }
}

fn bar(x: f64, scale: f64) -> String {
    let n = ((x / scale) * 40.0).round() as usize;
    "#".repeat(n.min(60))
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "glimpse".into());
    let refs = 60_000;
    let trace = pick(&name, refs);
    println!("workload: {name} ({refs} references)\n");

    for kind in MeasureKind::ALL {
        let report = analyze(&trace, kind, 10);
        println!(
            "{} — hits per segment (head → tail), mean movement ratio {:.3}",
            kind.name(),
            report.mean_movement_ratio()
        );
        for (i, r) in report.reference_ratios().iter().enumerate() {
            println!("  seg {:>2} {:>6.1}% {}", i + 1, 100.0 * r, bar(*r, 1.0));
        }
        println!();
    }

    println!("Derived Table 1 over the full small suite:");
    let table = Table1::derive(&synthetic::small_suite(30_000), 10);
    println!("{table}");
    println!(
        "\nLLD-R combines a strong locality distinction with stable\n\
         distinctions while staying online — the basis of the ULC protocol."
    );
}
