//! Shared infrastructure for the experiment harness and the Criterion
//! micro-benchmarks: dataset stand-ins at benchmark scale, table formatting,
//! JSON result export/parsing, and the CI throughput-regression gate.

#![forbid(unsafe_code)]

pub mod datasets;
pub mod gate;
pub mod json;
pub mod report;

pub use datasets::{bench_dataset, labelled_dataset, BenchScale};
pub use gate::{collect_speedups, evaluate, unfloored, Baselines, GateCheck};
pub use report::{Report, Row};
