//! The naive path-ratio Monte-Carlo estimator (paper §6.1).
//!
//! "One could sample a random path of length n in the NFA, and let x be the
//! string accepted on that path. Then, count the number of accepting paths Px
//! that x has [...] and report the average value of P/Px. The resulting
//! estimator is unbiased. However, [...] the variance of this estimator is
//! exponential." — §6.1.
//!
//! We implement it faithfully as the baseline of experiment E8: it is exact in
//! expectation (`E[P/P_x] = |L_n|`), cheap per sample, and falls apart on the
//! ambiguity-gap family where run counts differ exponentially across words.

use lsc_arith::{masked_uniform_below_u64, BigFloat, BigNat};
use lsc_automata::unroll::{NodeId, UnrolledDag};
use lsc_automata::{Nfa, Symbol, Word};
use rand::Rng;

/// One naive estimate of `|L_n(N)|` from `samples` uniformly random accepting
/// paths. Returns zero when the language is empty.
pub fn naive_estimate<R: Rng + ?Sized>(
    nfa: &Nfa,
    n: usize,
    samples: usize,
    rng: &mut R,
) -> BigFloat {
    assert!(samples > 0);
    let dag = UnrolledDag::build(nfa, n);
    let Some(start) = dag.start() else {
        return BigFloat::zero();
    };
    let completions = dag.completion_counts();
    let total_paths = BigFloat::from_bignat(&completions[start]);
    let mut acc = BigFloat::zero();
    for _ in 0..samples {
        let word = sample_uniform_path(&dag, &completions, rng);
        let runs = count_runs_of_word(nfa, &word);
        let ratio = total_paths.div(BigFloat::from_bignat(&runs));
        acc = acc.add(ratio);
    }
    acc.mul_f64(1.0 / samples as f64)
}

/// Draws the label word of a uniformly random accepting path (each *path* is
/// equally likely — which is exactly the bias the paper criticizes: words with
/// many runs are oversampled).
///
/// A level whose completion count fits one `u64` limb draws and subtracts in
/// `u64` (every successor's count is at most its predecessor's, so they fit
/// too), consuming the rng exactly as the `BigNat` level does; only levels
/// with more than 2^64 completions allocate.
pub fn sample_uniform_path<R: Rng + ?Sized>(
    dag: &UnrolledDag,
    completions: &[BigNat],
    rng: &mut R,
) -> Word {
    let mut cur = dag.start().expect("nonempty dag");
    let mut word = Vec::with_capacity(dag.word_length());
    for _ in 0..dag.word_length() {
        let (sym, succ) = match completions[cur].to_u64() {
            Some(total) => choose_edge_u64(dag, completions, cur, total, rng),
            None => choose_edge_big(dag, completions, cur, rng),
        };
        word.push(sym);
        cur = succ;
    }
    word
}

/// One level of [`sample_uniform_path`] in `u64` arithmetic.
fn choose_edge_u64<R: Rng + ?Sized>(
    dag: &UnrolledDag,
    completions: &[BigNat],
    cur: NodeId,
    total: u64,
    rng: &mut R,
) -> (Symbol, NodeId) {
    let mut draw = masked_uniform_below_u64(total, rng);
    for &(sym, succ) in dag.out_edges(cur) {
        let weight = completions[succ]
            .to_u64()
            .expect("a successor's completions fit its predecessor's limb");
        match draw.checked_sub(weight) {
            Some(rest) => draw = rest,
            None => return (sym, succ),
        }
    }
    unreachable!("completion counts cover all mass")
}

/// One level of [`sample_uniform_path`] in `BigNat` arithmetic.
fn choose_edge_big<R: Rng + ?Sized>(
    dag: &UnrolledDag,
    completions: &[BigNat],
    cur: NodeId,
    rng: &mut R,
) -> (Symbol, NodeId) {
    let mut draw = BigNat::uniform_below(&completions[cur], rng);
    for &(sym, succ) in dag.out_edges(cur) {
        match draw.checked_sub(&completions[succ]) {
            Some(rest) => draw = rest,
            None => return (sym, succ),
        }
    }
    unreachable!("completion counts cover all mass")
}

/// `P_x`: the number of accepting runs of `nfa` on `word` (run-count DP).
pub fn count_runs_of_word(nfa: &Nfa, word: &[u32]) -> BigNat {
    let m = nfa.num_states();
    let mut counts = vec![BigNat::zero(); m];
    counts[nfa.initial()] = BigNat::one();
    for &a in word {
        let mut next = vec![BigNat::zero(); m];
        for (q, count) in counts.iter().enumerate() {
            if count.is_zero() {
                continue;
            }
            for t in nfa.step(q, a) {
                next[t].add_assign_ref(count);
            }
        }
        counts = next;
    }
    nfa.accepting_states().map(|q| &counts[q]).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::exact::count_nfa_via_determinization;
    use lsc_automata::families::{ambiguity_gap_nfa, blowup_nfa};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn run_counts_per_word() {
        let n = ambiguity_gap_nfa(3);
        // Thin-branch words (starting 0) have exactly 1 run; fat-branch words
        // (starting 1) have width^{n-1} · width-entry = 3^{len-1} runs... the
        // entry transition fans to `width` copies, then width^{len-1} moves.
        assert_eq!(count_runs_of_word(&n, &[0, 0, 0]), BigNat::one());
        assert_eq!(count_runs_of_word(&n, &[1, 0, 0]).to_string(), "27");
        assert_eq!(count_runs_of_word(&n, &[]), BigNat::zero());
    }

    #[test]
    fn unbiased_on_unambiguous_input() {
        // On a UFA every word has exactly one run, so the estimator is exact
        // with a single sample.
        let n = blowup_nfa(3);
        let mut rng = StdRng::seed_from_u64(5);
        let est = naive_estimate(&n, 8, 1, &mut rng);
        let truth = count_nfa_via_determinization(&n, 8);
        assert_eq!(est.to_f64().round() as u64, truth.to_u64().unwrap());
    }

    #[test]
    fn estimator_has_heavy_skew_on_gap_family() {
        // With few samples the estimate collapses toward the fat branch's tiny
        // contribution: almost every sampled path has P/Px ≈ 2, missing half
        // the words. The median estimate sits near |fat words| + small.
        let n = ambiguity_gap_nfa(4);
        let len = 10;
        let truth = count_nfa_via_determinization(&n, len).to_f64();
        let mut rng = StdRng::seed_from_u64(11);
        let mut low = 0;
        for _ in 0..20 {
            let est = naive_estimate(&n, len, 10, &mut rng).to_f64();
            if est < truth * 0.75 {
                low += 1;
            }
        }
        // The vast majority of 10-sample estimates undershoot badly.
        assert!(low >= 15, "only {low}/20 estimates undershot");
    }

    /// [`sample_uniform_path`] with every level in `BigNat` arithmetic —
    /// the reference the one-limb fast path must reproduce draw for draw.
    fn sample_path_bignat_only(
        dag: &UnrolledDag,
        completions: &[BigNat],
        rng: &mut StdRng,
    ) -> Word {
        let mut cur = dag.start().expect("nonempty dag");
        let mut word = Vec::new();
        for _ in 0..dag.word_length() {
            let (sym, succ) = choose_edge_big(dag, completions, cur, rng);
            word.push(sym);
            cur = succ;
        }
        word
    }

    #[test]
    fn one_limb_fast_path_draws_the_bignat_stream() {
        // blowup(5)@20 has 2^19 words: every level takes the u64 path.
        // blowup(5)@80 has 2^79: the upper levels stay in BigNat and the
        // walk switches to u64 once the remaining count fits one limb.
        for (n, words_log2) in [(20usize, 19), (80, 79)] {
            let dag = UnrolledDag::build(&blowup_nfa(5), n);
            let completions = dag.completion_counts();
            let start = dag.start().unwrap();
            assert_eq!(completions[start], BigNat::pow2(words_log2));
            let mut fast = StdRng::seed_from_u64(n as u64);
            let mut slow = StdRng::seed_from_u64(n as u64);
            for i in 0..200 {
                assert_eq!(
                    sample_uniform_path(&dag, &completions, &mut fast),
                    sample_path_bignat_only(&dag, &completions, &mut slow),
                    "n={n}: draw {i} diverged"
                );
            }
        }
    }

    #[test]
    fn empty_language_estimates_zero() {
        let ab = lsc_automata::Alphabet::binary();
        let n = lsc_automata::regex::Regex::parse("00", &ab)
            .unwrap()
            .compile();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(naive_estimate(&n, 5, 3, &mut rng).is_zero());
    }
}
