#![warn(missing_docs)]

//! # ctr-benchmark — one benchmark for the whole stack
//!
//! Seven named workloads drive the repository from `.ctr` source to the
//! loopback socket; every output is checked against a reference; every
//! timing is a median over repetitions on fresh state. The untraced run
//! yields the end-to-end metrics, the traced run the per-layer metrics
//! and the nine-rung ladder. See `benchmark/README.md`.
//!
//! Everything is measured **from outside**, through the crates' public
//! functions and the counters they already export: this package changes
//! nothing under `crates/`.

pub mod alloc;
pub mod cli;
pub mod compare;
pub mod host;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod report;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod workloads;
