//! # flowbench — the message-flow benchmark
//!
//! Drives one message flow — a receive post plus the arrival that matches
//! it — through the public API of `spc-core` under four workloads, each
//! chosen so a different layer does the work (see `README.md` in this
//! directory for the layer → metric → workload map):
//!
//! * [`deep`] — `resident-deep` and `evicting-deep`: `MatchEngine` list
//!   walks at depth, with the list in cache and after computation evicted
//!   it;
//! * [`ingest`] — `ingest-shallow`: a producer thread feeding
//!   `BatchedEngine` rings and a progress thread draining them;
//! * [`probe`] — `probe-poll`: `iprobe` polling beside a fixed-rate writer.
//!
//! Every run checks its matches and reconciles the engine's counts, checks
//! that it achieved the depth and mix its workload declares, and reports
//! the slower quartile of [`measure::INTERVALS`] intervals.

pub mod deep;
pub mod ingest;
pub mod measure;
pub mod probe;
pub mod report;
