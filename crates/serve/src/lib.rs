//! # hgl-serve: the lifting daemon behind `hgl serve`
//!
//! A persistent, crash-proof, overload-safe server that multiplexes
//! lift/lint requests onto the parallel engine of `hgl-core`, sharing
//! one warm solver cache and one persistent artifact store across all
//! requests. The wire protocol is JSON Lines over TCP — one request
//! per line, one response per line, correlated by a client-chosen id
//! (see [`proto`] for the frame shapes).
//!
//! The daemon's contract, enforced by the chaos campaign in
//! `tests/chaos.rs`:
//!
//! - **every** frame is answered exactly once with a structured
//!   response, including unparseable garbage, oversized frames,
//!   panicking lifts, expired deadlines and shutdown drains;
//! - overload sheds (`overloaded` + `retry_after_ms`) instead of
//!   buffering without bound;
//! - per-request deadlines degrade to *partial* Hoare Graphs via the
//!   engine's budget machinery — a deadline is a quality knob, not an
//!   error;
//! - identical concurrent requests are coalesced onto one computation;
//! - a panic, a disconnect or a corrupted store never takes the
//!   process down.
//!
//! ```no_run
//! use hgl_serve::{Client, ServeConfig, Server};
//!
//! let server = Server::bind("127.0.0.1:0", ServeConfig::default())?;
//! let mut client = Client::connect(&server.local_addr().to_string())?;
//! let pong = client.ping()?;
//! assert_eq!(pong.get("status").and_then(|s| s.as_str()), Some("ok"));
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;

pub use client::Client;
pub use hgl_export::json::Json;
pub use proto::{hex_decode, hex_encode, parse_request, Op, Request};
pub use server::{ServeConfig, Server};
