//! Cursor-resumption contract tests: `resume(token)`-stitched pages must be
//! bit-identical — order and content — to one uninterrupted enumeration, on
//! every NFA family, at every page size; and a
//! cursor must yield its first witness without materializing the result set
//! (the delay guarantee a streaming `ENUM` API exists to preserve).

use std::sync::Arc;

use lsc_automata::families::{
    ambiguity_gap_nfa, blowup_nfa, random_nfa, random_ufa, universal_nfa,
};
use lsc_automata::regex::Regex;
use lsc_automata::{Alphabet, Nfa, Word};
use lsc_core::engine::{Engine, ResumeToken};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The deterministic family zoo pages are stitched over: unambiguous chains,
/// ambiguous overlap languages, the universal automaton, and seeded random
/// NFAs/UFAs.
fn family(index: usize, seed: u64) -> (Nfa, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ab = Alphabet::binary();
    match index % 6 {
        0 => (blowup_nfa(3), 8),
        1 => (ambiguity_gap_nfa(3), 7),
        2 => (universal_nfa(ab), 5),
        3 => (Regex::parse("(0|1)*11(0|1)*", &ab).unwrap().compile(), 7),
        4 => (random_nfa(6, ab, 0.3, 0.4, &mut rng), 6),
        _ => (random_ufa(5, ab, 0.3, &mut rng), 7),
    }
}

/// Stitches an enumeration out of `page_size`-sized pages, crossing every
/// boundary through an encoded-and-reparsed token and a fresh engine — as
/// a paging client spread across processes would.
fn stitch(nfa: &Arc<Nfa>, n: usize, page_size: usize) -> Vec<Word> {
    let instance = (nfa.clone(), n);
    let mut stitched: Vec<Word> = Vec::new();
    let mut token: Option<ResumeToken> = None;
    loop {
        let engine = Engine::with_defaults();
        let mut cursor = match &token {
            None => engine.enumerate(&instance),
            Some(t) => {
                let wire = ResumeToken::parse(&t.encode()).expect("wire round trip");
                engine.resume(&instance, &wire).expect("token accepted")
            }
        };
        let before = stitched.len();
        stitched.extend(cursor.by_ref().take(page_size));
        token = Some(cursor.token());
        if stitched.len() == before {
            assert!(cursor.is_done(), "empty page only at exhaustion");
            return stitched;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Stitched pages == one uninterrupted enumeration, across families ×
    /// page sizes.
    #[test]
    fn stitched_pages_match_uninterrupted(index in 0usize..6, seed in 0u64..200, page in 1usize..9) {
        let (nfa, n) = family(index, seed);
        let nfa = Arc::new(nfa);
        let uninterrupted: Vec<Word> = Engine::with_defaults().enumerate(&(nfa.clone(), n)).collect();
        let stitched = stitch(&nfa, n, page);
        prop_assert_eq!(
            &stitched, &uninterrupted,
            "family {} seed {} page {}", index, seed, page
        );
    }

    /// Typed cursor streams agree with the raw-word cursor on a session
    /// handle (the server pages through the latter, so a divergence here
    /// means the two surfaces disagree on routing).
    #[test]
    fn typed_cursor_agrees_with_word_cursor(index in 0usize..6, seed in 0u64..200) {
        let (nfa, n) = family(index, seed);
        let nfa = Arc::new(nfa);
        let engine = Engine::with_defaults();
        let streamed: Vec<Word> = engine.enumerate(&(nfa.clone(), n)).collect();
        let raw: Vec<Word> = engine.cursor(&engine.prepare_nfa(&nfa, n)).collect();
        prop_assert_eq!(streamed, raw);
    }
}

/// Delay-shape smoke test: a cursor yields its first witnesses without
/// materializing the full result. The universal language at n = 64 has
/// 2^64 ≈ 1.8·10^19 witnesses — any materializing implementation dies here;
/// a streaming one answers instantly.
#[test]
fn first_witness_streams_without_materializing() {
    let nfa = Arc::new(universal_nfa(Alphabet::binary()));
    let engine = Engine::with_defaults();
    let instance = (nfa.clone(), 64usize);
    let mut cursor = engine.enumerate(&instance);
    let first = cursor.next().expect("nonempty language");
    assert_eq!(first, vec![0u32; 64]);
    let second = cursor.next().expect("more witnesses");
    assert_eq!(second.last(), Some(&1u32));
    assert_eq!(cursor.rank(), 2);
    // The position still serializes and resumes mid-astronomically-large
    // stream.
    let token = ResumeToken::parse(&cursor.token().encode()).unwrap();
    let resumed_instance = (nfa, 64usize);
    let mut resumed = engine.resume(&resumed_instance, &token).unwrap();
    let third = resumed.next().expect("more witnesses");
    assert_eq!(&third[62..], &[1, 0], "lexicographic successor of 0^62·01");
}

/// The same smoke test on the ambiguous (poly-delay) route: first witness of
/// `(0|1)*1(0|1)*` at n = 48 (≈ 2.8·10^14 witnesses) arrives immediately.
#[test]
fn first_witness_streams_on_the_poly_route() {
    let ab = Alphabet::binary();
    let nfa = Arc::new(Regex::parse("(0|1)*1(0|1)*", &ab).unwrap().compile());
    let engine = Engine::with_defaults();
    let instance = (nfa, 48usize);
    let mut cursor = engine.enumerate(&instance);
    let first = cursor.next().expect("nonempty language");
    let mut expected = vec![0u32; 48];
    expected[47] = 1;
    assert_eq!(first, expected, "lexicographically least witness");
}
