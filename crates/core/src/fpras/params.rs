//! FPRAS parameters: the sample and retry budgets, the rejection constant,
//! the B4 base-case switch, and the worker count. Every field but `threads`
//! can change a computed value; the hot-path kernels have no switches here
//! (the reference estimators they replaced are test and bench oracles, see
//! [`crate::fpras::estimate_union_quadratic`]).

use lsc_arith::BigFloat;

/// Parameters of the FPRAS (Algorithm 5).
///
/// The proof fixes `k = ⌈(nm/δ)^64⌉` samples per vertex and `⌈(nm/δ)^4⌉`
/// attempts per sample — constants chosen to make the union bounds in
/// Lemma 21 / Theorem 22 go through with room to spare, not to be executed
/// (see [`FprasParams::theoretical_k`]). A practical run keeps the same
/// algorithm and replaces the constants; experiment E1/B3 calibrates the
/// accuracy empirically against exact counts.
#[derive(Clone, Copy, Debug)]
pub struct FprasParams {
    /// Samples per vertex (`k` in the paper). Vertices with `|U(s)| ≤ k` are
    /// handled exactly.
    pub k: usize,
    /// Max `Sample` invocations per needed sample before declaring global
    /// failure (paper step 5(c)(ii): `⌈(nm/δ)^4⌉`).
    pub attempts: usize,
    /// The rejection-sampling constant: top-level calls use `φ₀ = c / R(s)`.
    /// The paper proves correctness with `c = e⁻⁴`; any `c` small enough that
    /// `φ` never exceeds 1 preserves exact conditional uniformity, and larger
    /// `c` means fewer rejections (ablation B5).
    pub rejection_constant: f64,
    /// Ablation B4 (default `true`): carry small vertices (`|U(s)| ≤ k`)
    /// exactly — the base case of §6.4. Disabling forces sampled sketches
    /// everywhere above layer 0.
    pub exact_handling: bool,
    /// Worker threads for the per-layer sampling pass (default 1). Vertices
    /// within a layer are independent, and per-vertex seeds are drawn up
    /// front, so the result is identical at any thread count.
    pub threads: usize,
}

impl FprasParams {
    /// Practical defaults targeting relative error `delta` at length `n`:
    /// `k ≈ 4n/δ²` (sampling noise per layer ~ `k^{-1/2}`, accumulating over
    /// `n` layers as `~ (n/k)^{1/2}`), a generous retry budget, and rejection
    /// constant `e⁻²`.
    pub fn with_accuracy(n: usize, delta: f64) -> Self {
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
        let k = ((4.0 * n.max(1) as f64) / (delta * delta)).ceil() as usize;
        FprasParams {
            k: k.clamp(64, 200_000),
            attempts: 500,
            rejection_constant: (-2.0f64).exp(),
            exact_handling: true,
            threads: 1,
        }
    }

    /// A small, fast configuration for tests and smoke runs.
    pub fn quick() -> Self {
        FprasParams {
            k: 64,
            attempts: 300,
            rejection_constant: (-2.0f64).exp(),
            exact_handling: true,
            threads: 1,
        }
    }

    /// Parallel sampling with `threads` workers (see the `threads` field).
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1);
        self.threads = threads;
        self
    }

    /// Ablation B4: disable the exactly-handled base case.
    pub fn without_exact_handling(mut self) -> Self {
        self.exact_handling = false;
        self
    }

    /// The paper-faithful rejection constant `e⁻⁴` (Proposition 18), for runs
    /// where the proof's exact failure analysis should apply verbatim.
    pub fn with_paper_rejection(mut self) -> Self {
        self.rejection_constant = (-4.0f64).exp();
        self
    }

    /// The sample budget the *proof* demands: `⌈(nm/δ)^64⌉`. Returned as a
    /// [`BigFloat`] because it does not fit in any machine integer for any
    /// nontrivial instance — e.g. `n = m = 10`, `δ = 0.1`: `10^192`. This is
    /// reported in EXPERIMENTS.md to contrast proof constants with the
    /// calibrated practical budgets.
    pub fn theoretical_k(n: usize, m: usize, delta: f64) -> BigFloat {
        assert!(delta > 0.0 && delta < 1.0);
        let base = BigFloat::from_f64(n as f64 * m as f64 / delta);
        let mut acc = BigFloat::one();
        for _ in 0..64 {
            acc = acc.mul(base);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_scaling() {
        let loose = FprasParams::with_accuracy(10, 0.5);
        let tight = FprasParams::with_accuracy(10, 0.05);
        assert!(tight.k > loose.k);
        let longer = FprasParams::with_accuracy(1000, 0.5);
        assert!(longer.k >= loose.k);
    }

    #[test]
    fn theoretical_k_is_astronomical() {
        let k = FprasParams::theoretical_k(10, 10, 0.1);
        assert!((k.log10() - 192.0).abs() < 1e-6, "log10 = {}", k.log10());
    }

    #[test]
    fn paper_rejection_constant() {
        let p = FprasParams::quick().with_paper_rejection();
        assert!((p.rejection_constant - (-4.0f64).exp()).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "delta must be in")]
    fn invalid_delta() {
        FprasParams::with_accuracy(5, 1.5);
    }
}
