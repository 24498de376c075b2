//! Arbitrary-precision arithmetic for the logspace-classes reproduction.
//!
//! Exact witness counts in this project grow like `|Σ|^n` — far past `u128` for the
//! word lengths the paper's algorithms handle — so exact counting ([`BigNat`]) and
//! estimate bookkeeping ([`BigFloat`]) both need more range than the primitives give.
//!
//! The crate is deliberately small and division-free on the hot paths:
//!
//! * [`BigNat`] — unsigned big integers with addition, subtraction, multiplication,
//!   comparison, shifting, small-divisor division (for decimal I/O), and exact
//!   uniform sampling below a bound ([`BigNat::uniform_below`], rejection from raw
//!   bits, so sampling probabilities are exact rather than rounded through `f64`).
//! * [`BigFloat`] — a normalized `(f64 mantissa, i64 exponent)` pair giving ~15
//!   significant digits over an astronomically wide dynamic range; this is what the
//!   FPRAS stores its per-state estimates `R(s)` in.
//!
//! Everything here is validated against `num-bigint` in property tests (dev-only
//! dependency); the library itself has no third-party runtime dependencies besides
//! `rand`.

#![forbid(unsafe_code)]

mod bigfloat;
mod bignat;
mod random;

pub use bigfloat::BigFloat;
pub use bignat::{BigNat, ParseBigNatError};
pub use random::{masked_uniform_below_u64, uniform_below_u64};
