//! Cold, layered benchmark of the run-time manager.
//!
//! Three workloads ([`workloads::sweep`], [`workloads::stream`],
//! [`workloads::fleet`]) drive the public entry points of the manager
//! with inputs generated from a seed. Every unit run builds a fresh
//! engine or fleet, so no run can replay another. The end-to-end
//! numbers come from untraced passes; a traced run wraps the same calls
//! in [`trace::Tracer`] spans to attribute host time to each layer.
//! See `README.md` beside this crate for the metrics and how to run it.

pub mod policy;
pub mod summary;
pub mod trace;
pub mod unit;
pub mod workloads;
