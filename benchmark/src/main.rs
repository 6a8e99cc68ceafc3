//! The repo's one end-to-end benchmark. See `benchmark/README.md` for the
//! vocabulary (workloads, metrics, layers) and `BENCHMARK.json` for the
//! contract this binary is run under.
//!
//! ```text
//! s3pg-benchmark --workload NAME|all --seed N [--seconds S] [--trace 0|1] [--aa]
//! ```
//!
//! One workload: runs it, checks every answer, prints every metric by
//! name with unit, sample count and bound, and ends with the one-line
//! JSON result the driver reads. `all` does that for each workload in
//! turn; `--aa` runs the selection twice on the same commit and seed and
//! holds the two sets against each metric's own bound.

mod convert;
mod inputs;
mod ledger;
mod mixed;
mod oracle;
mod reads;
mod replay;
mod report;
mod spans;
mod stats;
mod templates;
mod wire;

use report::{Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use spans::Tracer;
use std::path::PathBuf;

/// DBpedia2022 scale of the graph `convert` and the read workloads use
/// (`G(s)` also carries the skew graph at `s / 10`). The issue sized the
/// windows for scale 10; the driver's time cap pays for scale 6.
pub const SCALE_LARGE: f64 = 6.0;
/// Scale of `mixed`'s graph: every update costs three passes over it.
pub const SCALE_SMALL: f64 = 1.0;
/// Times a run sets up (cold start, input generation, restart); `setup_s`
/// is their median.
pub const SETUP_REPEATS: usize = 3;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `benchmark/` directory: scratch space and traces go under its
    /// `out/`.
    pub bench_root: PathBuf,
    /// The `s3pg-serve` binary built beside this one.
    pub server_bin: PathBuf,
}

const USAGE: &str =
    "usage: s3pg-benchmark --workload convert|read-point|read-analytic|read-wide|mixed|all \
                     --seed N [--seconds S] [--trace 0|1] [--aa]";

struct Cli {
    run: RunArgs,
    aa: bool,
}

fn parse_args() -> Result<Cli, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut cli = Cli {
        run: RunArgs {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            bench_root: std::env::var_os("S3PG_BENCH_ROOT")
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("benchmark")),
            server_bin: exe.with_file_name("s3pg-serve"),
        },
        aa: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}\n{USAGE}"));
        match arg.as_str() {
            "--workload" => cli.run.workload = value("a name")?,
            "--seed" => {
                cli.run.seed = value("a number")?
                    .parse()
                    .map_err(|_| format!("--seed needs an unsigned integer\n{USAGE}"))?
            }
            "--seconds" => {
                cli.run.seconds = value("a duration")?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or(format!("--seconds needs a positive number\n{USAGE}"))?
            }
            "--trace" => {
                cli.run.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace needs 0 or 1\n{USAGE}")),
                }
            }
            "--traced" => cli.run.trace = true,
            "--aa" => cli.aa = true,
            _ => return Err(format!("unknown argument {arg}\n{USAGE}")),
        }
    }
    if cli.run.workload != "all" && !WORKLOADS.contains(&cli.run.workload.as_str()) {
        return Err(format!("unknown workload '{}'\n{USAGE}", cli.run.workload));
    }
    if !cli.run.server_bin.is_file() {
        return Err(format!(
            "{} not found: build it with benchmark/run.sh",
            cli.run.server_bin.display()
        ));
    }
    Ok(cli)
}

fn run_workload(args: &RunArgs) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "convert" => convert::run(args),
        "read-point" => reads::run_point(args),
        "read-analytic" => reads::run_analytic(args),
        "read-wide" => reads::run_wide(args),
        "mixed" => mixed::run(args),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// Validate the span tree, write it to `out/trace-<workload>.jsonl`.
pub fn finish_trace(args: &RunArgs, outcome: &mut Outcome, tracer: Tracer) -> Result<(), String> {
    if let Err(e) = spans::validate(tracer.spans()) {
        outcome.fail(1, || format!("span tree invalid: {e}"));
    }
    let dir = args.bench_root.join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.jsonl", args.workload));
    spans::write_jsonl(&path, tracer.spans()).map_err(|e| format!("{}: {e}", path.display()))?;
    outcome.notes.push(format!(
        "trace: {} spans in {} requests written to {}",
        tracer.spans().len(),
        tracer.spans().iter().map(|s| s.request).max().unwrap_or(0),
        path.display()
    ));
    Ok(())
}

/// Where and how the numbers were taken.
fn stamp(args: &RunArgs) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let commit = std::env::var("S3PG_BENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
    let wal = s3pg_wal::WalOptions::default();
    println!(
        "# commit {commit} | {cores} cores | {cpu} | server --workers {} | WAL on, fsync_ms={} fsync_batch={} | seed {} | {} s windows | tracing {}",
        wire::SERVER_WORKERS,
        wal.fsync_ms,
        wal.fsync_batch,
        args.seed,
        args.seconds,
        if args.trace { "on (in-process replay)" } else { "off" }
    );
}

fn print_outcome(args: &RunArgs, outcome: &Outcome) {
    println!("== {} ==", args.workload);
    for note in &outcome.notes {
        println!("  {note}");
    }
    if args.trace {
        for def in &PER_LAYER {
            let value = outcome.per_layer.get(def.name).copied().unwrap_or(0.0);
            println!("  {:<32} {:>16.6} {}", def.name, value, def.unit);
        }
    } else {
        for def in &END_TO_END {
            let value = outcome
                .end_to_end
                .get(def.name)
                .copied()
                .unwrap_or(f64::NAN);
            let detail = outcome.summaries.get(def.name).map_or(String::new(), |s| {
                format!("  n {} p{} {:.3}", s.n, s.tail_p, s.tail)
            });
            println!(
                "  {:<24} {:>16.4} {:<4} ({} is better, bound {}){detail}",
                def.name,
                value,
                def.unit,
                def.better,
                def.bound.unwrap_or(0.0)
            );
        }
    }
    let exact: Vec<String> = outcome
        .exact
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("  exact: {}", exact.join(" "));
    println!(
        "  failed_share {} / {} (bound 0)",
        outcome.failed, outcome.attempted
    );
    for failure in &outcome.failures {
        println!("  FAILED: {failure}");
    }
}

/// Hold two sets of runs of the same commit and seed against each
/// end-to-end metric's own bound; exact counts must be identical.
fn compare_aa(workload: &str, first: &Outcome, second: &Outcome) -> bool {
    let mut agree = first.exact == second.exact;
    println!(
        "  A/A {workload:<14} exact counts {}",
        if agree { "identical" } else { "DIFFER" }
    );
    for def in &END_TO_END {
        let (Some(a), Some(b), Some(bound)) = (
            first.end_to_end.get(def.name),
            second.end_to_end.get(def.name),
            def.bound,
        ) else {
            continue;
        };
        let worse = if def.better == "lower" {
            b / a - 1.0
        } else {
            a / b - 1.0
        };
        let ok = worse.abs() <= bound;
        agree &= ok;
        println!(
            "  A/A {workload:<14} {:<22} {a:>14.4} vs {b:>14.4}  {:+.2}%  {}",
            def.name,
            worse * 100.0,
            if ok { "within bound" } else { "DISAGREES" }
        );
    }
    agree
}

fn main() {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    stamp(&cli.run);
    let selection: Vec<&str> = if cli.run.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![cli.run.workload.as_str()]
    };
    let mut clean = true;
    let mut last_line = String::new();
    for workload in selection {
        let args = RunArgs {
            workload: workload.to_string(),
            bench_root: cli.run.bench_root.clone(),
            server_bin: cli.run.server_bin.clone(),
            ..cli.run
        };
        let mut sets = Vec::new();
        for _ in 0..if cli.aa { 2 } else { 1 } {
            let outcome = match run_workload(&args) {
                Ok(outcome) => outcome,
                Err(message) => {
                    eprintln!("{workload}: {message}");
                    std::process::exit(1);
                }
            };
            print_outcome(&args, &outcome);
            clean &= outcome.failed == 0;
            match outcome.result_json(args.trace) {
                Ok(line) => last_line = line,
                Err(message) => {
                    eprintln!("{workload}: {message}");
                    std::process::exit(1);
                }
            }
            sets.push(outcome);
        }
        if let [first, second] = &sets[..] {
            clean &= compare_aa(workload, first, second);
        }
    }
    // The driver reads the last line of standard output.
    println!("{last_line}");
    if !clean {
        std::process::exit(1);
    }
}
