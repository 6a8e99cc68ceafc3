//! Regenerate the paper's tables and figures.
//!
//! ```text
//! run_experiments [--scale F] [table2|table3|table4|table5|table6|table7|figure6|monotonicity|optimize|all]
//! ```
//!
//! With no artifact argument, everything is produced in paper order.

use s3pg_bench::experiments::{
    accuracy_table, figure6, monotonicity, optimize_experiment, table2, table3, table4, table5,
    Dataset, Scale,
};
use std::time::Instant;

fn main() {
    let mut scale = Scale(1.0);
    let mut targets: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let value = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"));
                scale = Scale(value);
            }
            "--help" | "-h" => {
                println!(
                    "usage: run_experiments [--scale F] \
                     [table2|table3|table4|table5|table6|table7|figure6|monotonicity|optimize|\
                     all]"
                );
                return;
            }
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }

    let started = Instant::now();
    for target in &targets {
        match target.as_str() {
            "table2" => println!("{}", table2(scale).0.render()),
            "table3" => println!("{}", table3(scale).0.render()),
            "table4" => println!("{}", table4(scale).0.render()),
            "table5" => println!("{}", table5(scale).0.render()),
            "table6" => {
                println!(
                    "{}",
                    accuracy_table(Dataset::DBpedia2022, scale, 6).0.render()
                )
            }
            "table7" => {
                println!(
                    "{}",
                    accuracy_table(Dataset::Bio2RdfCt, scale, 3).0.render()
                )
            }
            "figure6" => {
                println!("{}", figure6(Dataset::DBpedia2022, scale, 4, 10).0.render())
            }
            "monotonicity" => println!("{}", monotonicity(scale).0.render()),
            "optimize" => {
                println!(
                    "{}",
                    optimize_experiment(Dataset::DBpedia2022, scale).0.render()
                )
            }
            "all" => {
                println!("{}", table2(scale).0.render());
                println!("{}", table3(scale).0.render());
                println!("{}", table4(scale).0.render());
                println!("{}", table5(scale).0.render());
                println!(
                    "{}",
                    accuracy_table(Dataset::DBpedia2022, scale, 6).0.render()
                );
                println!(
                    "{}",
                    accuracy_table(Dataset::Bio2RdfCt, scale, 3).0.render()
                );
                println!("{}", figure6(Dataset::DBpedia2022, scale, 4, 10).0.render());
                println!("{}", monotonicity(scale).0.render());
                println!(
                    "{}",
                    optimize_experiment(Dataset::DBpedia2022, scale).0.render()
                );
            }
            other => die(&format!("unknown experiment '{other}'")),
        }
    }
    eprintln!(
        "(completed in {:.2?} at scale {})",
        started.elapsed(),
        scale.0
    );
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}
