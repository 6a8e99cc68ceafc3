//! Experiment harness regenerating every table and figure of the paper.
//!
//! * [`report`] — plain-text table rendering.
//! * [`experiments`] — one function per paper artifact (Tables 2–7,
//!   Figure 6, the §5.4 monotonicity analysis), each returning structured
//!   results and printable tables. The `run_experiments` binary drives
//!   them, and is the one timer of the paper's Table 4, Figure 6 and
//!   §5.4 numbers.

pub mod experiments;
pub mod report;

pub use experiments::{Dataset, Scale};
