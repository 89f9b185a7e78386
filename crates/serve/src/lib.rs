//! Network front-end for the sharded workflow runtime.
//!
//! The paper's enactment story assumes a workflow *server*: external
//! agents report events as they happen, and the runtime accepts or
//! rejects them against the compiled control state. This crate is that
//! front-end over [`ctr_runtime::Runtime`]:
//!
//! * [`protocol`] — the length-prefixed, CRC-checked binary wire
//!   format (see `DESIGN.md` §16 for the spec);
//! * [`server`] — a thread-per-connection TCP server whose read loop
//!   decodes pipelined `fire`/`fire_batch` requests in place and
//!   coalesces them into `Runtime::fire_runs_into` bursts: one
//!   instance-lock acquisition and one WAL group commit per instance
//!   per network read burst, and no allocation for being served;
//! * [`client`] — a blocking client with explicit pipelining.
//!
//! Serving *benchmarks* are the `serve_*` workloads and `serve.*` probes
//! of `benchmark/` (see `benchmark/README.md`).

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError};
pub use protocol::{Fault, FaultCode, Request, Response, WireError, WireOutcome, WireStatus};
pub use server::{ServeOptions, Server, ServerHandle};
