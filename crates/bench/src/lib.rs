//! The engine's release-mode timing gates and a profiling binary.
//!
//! `tests/engine_gates.rs` holds the engine's timing gates, run as
//! ignored release-mode tests; the `profile_hotpath` binary loops one
//! hot-path section (cold lift or warm store replay) for a sampling
//! profiler. Their input binaries come from `hgl-corpus`; this crate
//! root holds no code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
