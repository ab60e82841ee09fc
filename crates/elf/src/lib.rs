//! # hgl-elf: ELF64 container support
//!
//! A from-scratch reader and writer for the x86-64 ELF binaries the
//! lifter consumes (Definition 3.1's `⟨a_e, fetch, S, →_B⟩` starts from
//! an entry point and a byte-addressed image).
//!
//! - [`Binary`] is the loaded view: entry point, loadable segments,
//!   executable/data address ranges, and the external-function map.
//!   [`Binary::parse`] reads a (possibly stripped) ELF file;
//!   [`Binary::fetch_window`] provides the byte window for the
//!   decoder's `fetch`.
//! - [`Builder`] writes minimal static executables — used by `hgl-asm`
//!   to synthesize the evaluation corpus. Emitted files round-trip
//!   through [`Binary::parse`]; [`elf_image`] writes a loaded view
//!   back out the same way.
//!
//! ## External functions
//!
//! Real COTS binaries carry dynamic-linking metadata (`.dynsym`,
//! `.rela.plt`) from which the paper's tool learns external function
//! names. This implementation records the same information in a
//! compact `.extmap` section (stub address → name), which the reader
//! turns into [`Binary::externals`]; parsing the full dynamic-linking
//! machinery is orthogonal to the lifting algorithm (see `DESIGN.md`,
//! *Substitutions*).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binary;
mod read;
mod types;
mod write;

pub use binary::{Binary, Segment};
pub use read::ParseError;
pub use types::{SegmentFlags, PAGE};
pub use write::{elf_image, Builder};
