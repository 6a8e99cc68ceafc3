//! Experiment harness regenerating every table and figure of the paper.
//!
//! * [`report`] — plain-text table rendering.
//! * [`experiments`] — one function per paper artifact (Tables 2–7,
//!   Figure 6, the §5.4 monotonicity analysis), each returning structured
//!   results and printable tables. The `run_experiments` binary drives
//!   them; the `Instant`-timed benches in `benches/` measure the hot paths.
//! * [`timing`] — the dependency-free micro-benchmark harness those
//!   benches run on (the offline build cannot resolve Criterion).

pub mod experiments;
pub mod report;
pub mod timing;

pub use experiments::{Dataset, Scale};
