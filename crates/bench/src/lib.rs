//! The benchmark targets of the workspace.
//!
//! Each bench target regenerates one table or figure of the paper (see
//! `DESIGN.md`'s experiment index) or measures one of the design
//! choices called out there (memory-model insertion policy, the §4
//! join refinement). `tests/engine_gates.rs` holds the engine's
//! release-mode timing gates. Their input binaries come from
//! `hgl-corpus`; this crate root holds no code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
