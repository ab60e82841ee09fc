//! # hgl-expr: symbolic expressions for the Hoare-Graph lifter
//!
//! Implements the expression language `E` of §3.1 of the paper and the
//! *constant expression* sublanguage `C`: terms built from immediates
//! and **symbols** (initial register values such as `rdi0`, symbolic
//! return addresses `S_f`, fresh unknowns) combined with bit-vector
//! operators. All values are 64-bit; narrower operations truncate or
//! extend explicitly.
//!
//! On top of the AST this crate provides:
//!
//! - smart constructors with aggressive local simplification
//!   ([`Expr::add`], [`Expr::sub`], …), so syntactically different but
//!   trivially equal pointer computations normalise to the same term;
//! - [`Linear`] normal forms (`Σ cᵢ·atomᵢ + k`), the workhorse of the
//!   separation/aliasing decision procedure in `hgl-solver`;
//! - unsigned [`Interval`]s used for the paper's range abstraction
//!   (Definition 3.3, citing Rugina & Rinard);
//! - [`Clause`]s `E □ C` with the paper's six relations
//!   `{=, ≠, <, <ₛ, ≥, ≥ₛ}`;
//! - concrete [evaluation](Expr::eval) against a symbol environment,
//!   used by the Step-2 validator to test Hoare triples on random
//!   concrete states.
//!
//! Expressions are **hash-consed**: every distinct term is interned
//! once in a process-wide arena and [`Expr`] is a `Copy` handle to the
//! interned node, so equality is a pointer comparison, hashing is
//! O(1), and copying predicates or memory models copies machine words
//! instead of trees. Pattern-match through [`Expr::kind`].
//!
//! ```
//! use hgl_expr::{Expr, Sym};
//! use hgl_x86::Reg;
//!
//! // (rdi0 + 8) + 8  simplifies to  rdi0 + 16 — and interns to the
//! // very same node, so equality is pointer identity.
//! let rdi0 = Expr::sym(Sym::Init(Reg::Rdi));
//! let e = rdi0.add(Expr::imm(8)).add(Expr::imm(8));
//! assert_eq!(e, rdi0.add(Expr::imm(16)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clause;
mod expr;
mod interval;
mod linear;
mod sym;

/// The crate version, folded into configuration fingerprints: a change
/// to expression simplification must invalidate persisted artifacts.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

pub use clause::{Clause, Rel};
pub use expr::{interned_node_count, Expr, ExprKind, OpKind};
pub use interval::Interval;
pub use linear::{gcd, Atom, Linear};
pub use sym::Sym;
