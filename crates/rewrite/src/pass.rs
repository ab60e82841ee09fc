//! The instrumentation-pass interface.

use crate::{RewriteError, RewriteOutput};
use hgl_core::lift::LiftResult;
use hgl_elf::Binary;

/// Everything a pass may consult: the original binary and its lift. A
/// pass that needs static-analysis findings runs the lints it reads
/// itself, so no rewrite pays for an analysis no pass consults.
pub struct PassContext<'a> {
    /// The original (pre-rewrite) binary.
    pub binary: &'a Binary,
    /// Its lift result.
    pub lift: &'a LiftResult,
}

/// A rewrite transformation. Passes run after identity recompilation
/// and edit the [`RewriteOutput`] in place: patch segment bytes, add
/// sections, and record the address maps that let validators relate
/// rewritten executions back to the original.
pub trait RewritePass {
    /// Stable pass name (`--pass <name>` on the CLI).
    fn name(&self) -> &'static str;

    /// Apply the transformation.
    ///
    /// # Errors
    ///
    /// A pass must refuse ([`RewriteError`]) rather than emit a patch
    /// it cannot argue is behavior-preserving (modulo its documented
    /// guard ABI).
    fn apply(&self, ctx: &PassContext<'_>, out: &mut RewriteOutput) -> Result<(), RewriteError>;
}

/// Look up a built-in pass by CLI name.
pub fn by_name(name: &str) -> Option<Box<dyn RewritePass>> {
    match name {
        "shadow-stack" => Some(Box::new(crate::shadow::ShadowStackPass)),
        _ => None,
    }
}
