//! The one thread-local breakpoint scratch behind the min-plus operators.
//!
//! The campaign analyses ~10⁵ scenarios per run, and every scenario pays
//! thousands of operator calls, each of which needs several working
//! breakpoint vectors that are dropped microseconds later.  Every public
//! operator ([`crate::minplus`] and the [`Curve`](crate::Curve) operators)
//! therefore records its [`OpKind`] once, borrows this thread's [`Scratch`]
//! through [`op`], runs its `_into` kernel on the scratch buffers and copies
//! only the result out.  Buffers grow to the high-water mark of the curves
//! seen and are then reused; each kernel clears what it uses on entry.
//!
//! The borrow is exclusive: while an operator holds the scratch it must not
//! call another public operator (the nested `borrow_mut` panics), so
//! operators compose by calling kernels directly.

use crate::cache::{record_op, OpKind};
use std::cell::RefCell;

/// Reusable breakpoint buffers for the operator kernels.
#[derive(Default)]
pub(crate) struct Scratch {
    /// Merged breakpoint grid of the sweep combine (before crossings).
    pub(crate) grid: Vec<f64>,
    /// Final evaluation grid (breakpoints + crossings).
    pub(crate) xs: Vec<f64>,
    /// Interior-crossing abscissas of the min/max combine.
    pub(crate) crossings: Vec<f64>,
    /// Convolution fold accumulator.
    pub(crate) acc: Vec<(f64, f64)>,
    /// Current convolution family member / left-over hull.
    pub(crate) member: Vec<(f64, f64)>,
    /// General output buffer.
    pub(crate) work: Vec<(f64, f64)>,
    /// Raw difference grid of the left-over service.
    pub(crate) diff: Vec<(f64, f64)>,
    /// Candidate abscissas of the deviation kernels.
    pub(crate) candidates: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Runs `f` on this thread's scratch without recording an operator — for
/// the closed-form bound wrappers in [`crate::bounds`], which are not
/// min-plus operator calls of their own.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// One public operator call: records `kind` once, then runs `f` on this
/// thread's scratch.
pub(crate) fn op<R>(kind: OpKind, f: impl FnOnce(&mut Scratch) -> R) -> R {
    record_op(kind);
    with_scratch(f)
}
