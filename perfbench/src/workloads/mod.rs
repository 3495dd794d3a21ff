//! The three workloads and the pre-flight check.

pub mod fleet;
pub mod preflight;
pub mod stream;
pub mod sweep;
