//! # gre-bench
//!
//! The GRE benchmark harness: index registries, the heatmap machinery of
//! Figures 2/4/7/14/16, and shared helpers used by the per-figure binaries
//! in `src/bin/` (one binary per table/figure of the paper, named after it;
//! the README's "Reproducing the paper's figures" section lists their
//! shared flags).

pub mod heatmap;
pub mod perfjson;
pub mod registry;
pub mod report;
pub mod runopts;
pub mod trajectory;

pub use heatmap::{Heatmap, HeatmapCell};
pub use perfjson::{BenchReport, BenchResult, SCHEMA_VERSION};
pub use registry::{
    backend, concurrent_backend, concurrent_indexes, sharded_concurrent_indexes, sharded_index,
    single_thread_indexes, IndexKind,
};
pub use runopts::RunOpts;
