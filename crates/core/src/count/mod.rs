//! Counting witnesses: `COUNT(R)` for the two complexity classes.
//!
//! * [`exact`] — polynomial-time exact counting for MEM-UFA (Theorem 5 /
//!   §5.3.2) plus the exponential determinization oracle used to validate the
//!   FPRAS on small instances.
//! * [`naive`] — the unbiased but exponential-variance Monte-Carlo estimator
//!   the paper rules out in §6.1 (baseline for experiment E8).
//! * [`stratified`] — MEM-UFA counts and exact uniform samples refined by
//!   occurrences of a marked symbol (the §4.2 path-histogram refinement).
//!
//! The FPRAS itself (Theorem 22) lives in [`crate::fpras`]; the
//! ambiguity-aware router that picks exact or FPRAS counting per instance
//! lives in [`crate::engine`].

pub mod exact;
pub mod naive;
pub mod stratified;
