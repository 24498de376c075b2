//! Streaming cursors for `ENUM` and draw streams for `GEN`.
//!
//! The enumeration-complexity literature treats *delay* — the gap between
//! consecutive answers — as the defining resource, and the paper's headline
//! guarantees are delay bounds (constant on MEM-UFA, polynomial on MEM-NFA).
//! A batch API that materializes `Vec<Word>` up front throws exactly that
//! away. This module is the streaming half of the query-API redesign:
//!
//! * [`WordCursor`] — a lazy witness stream over one prepared instance. It
//!   yields the first witness after `O(delay)` work, tracks its position, and
//!   serializes that position to a compact [`ResumeToken`] so a client can
//!   page an enumeration across calls (or processes). Resumed pages are
//!   **bit-identical** to an uninterrupted run: the token pins the
//!   enumerator's whole state (see the determinism note below).
//! * [`EnumCursor`] — the typed view: a `WordCursor` composed with a
//!   [`Queryable`]'s decoder, yielding domain values (assignments, paths,
//!   mappings) instead of raw words.
//! * [`WordGenStream`] / [`GenStream`] — amortized `GEN`: one stream holds
//!   the exact table sampler or the FPRAS sketch's witness sampler (scratch
//!   and weight cache included) across draws, so the per-draw cost after the
//!   first is a table walk, not a preprocessing pass.
//!
//! **Why resumption is deterministic.** Both enumerators are memoryless
//! beyond their position: the constant-delay enumerator's state after
//! emitting a word is its decision list (the branching vertices of that
//! word's DAG path), and the flashlight enumerator's state is the word itself
//! (per-level viable sets and next-symbol pointers are functions of it). A
//! token therefore records `(instance fingerprint, rank, position payload)`,
//! and [`WordCursor::resume`] rebuilds the exact mid-stream state the
//! uninterrupted enumerator would hold — the continuation cannot diverge
//! because there is no other state to diverge in. The fingerprint check makes
//! a token useless against any other instance.

use std::sync::Arc;

use lsc_automata::unroll::NodeId;
use lsc_automata::{Symbol, Word};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::engine::queryable::Queryable;
use crate::engine::router::RouterConfig;
use crate::engine::PreparedInstance;
use crate::enumerate::{ConstantDelayEnumerator, PolyDelayEnumerator};
use crate::fpras::{FprasError, SharedWitnessSampler};
use crate::sample::TableSampler;

/// Version prefix of the token wire format; parsing rejects anything else.
const TOKEN_PREFIX: &str = "enum1";

/// A serialized enumeration position: where one [`WordCursor`] stopped, in a
/// form a later (or remote) cursor can continue from.
///
/// The wire format is a short ASCII string —
/// `enum1.<fingerprint:016x>.<rank>.<mode><payload>` with mode `s`tart,
/// `c`onstant-delay (payload: `vertex:edge` pairs, `-`-joined), `p`oly-delay
/// (payload: witness symbols, `-`-joined), or `d`one — safe to log, pass on a
/// command line, or hand to a client. (The full grammar is specified in
/// `docs/ARCHITECTURE.md` §4.4.)
///
/// ```
/// use lsc_core::engine::ResumeToken;
///
/// let token = ResumeToken::parse("enum1.00000000deadbeef.7.p1-0-1").unwrap();
/// assert_eq!(token.fingerprint(), 0xdead_beef);
/// assert_eq!(token.rank(), 7);
/// assert_eq!(token.encode(), "enum1.00000000deadbeef.7.p1-0-1");
/// assert!(ResumeToken::parse("enum2.not.a.token").is_err());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResumeToken {
    fingerprint: u64,
    rank: u64,
    pos: CursorPos,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum CursorPos {
    /// Nothing yielded yet: resuming replays from the first witness.
    Start,
    /// Constant-delay route: the decision list after the last yielded word.
    Constant(Vec<(NodeId, usize)>),
    /// Poly-delay route: the last yielded word.
    Poly(Word),
    /// The stream ended; resuming yields nothing.
    Done,
}

impl ResumeToken {
    /// The instance fingerprint the token is bound to.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// How many witnesses the stream had yielded when the token was taken.
    pub fn rank(&self) -> u64 {
        self.rank
    }

    /// True iff the token marks an exhausted stream.
    pub fn is_done(&self) -> bool {
        self.pos == CursorPos::Done
    }

    /// Serializes to the compact wire format (see the type docs).
    pub fn encode(&self) -> String {
        use std::fmt::Write as _;

        let entries = match &self.pos {
            CursorPos::Constant(decisions) => decisions.len(),
            CursorPos::Poly(word) => word.len(),
            CursorPos::Start | CursorPos::Done => 0,
        };
        // One allocation for the usual token: the header, and a few
        // digits per entry.
        let mut s = String::with_capacity(64 + 8 * entries);
        let header = write!(s, "{TOKEN_PREFIX}.{:016x}.{}.", self.fingerprint, self.rank);
        header.expect("write to String");
        match &self.pos {
            CursorPos::Start => s.push('s'),
            CursorPos::Done => s.push('d'),
            CursorPos::Constant(decisions) => {
                s.push('c');
                for (i, (v, e)) in decisions.iter().enumerate() {
                    if i > 0 {
                        s.push('-');
                    }
                    write!(s, "{v}:{e}").expect("write to String");
                }
            }
            CursorPos::Poly(word) => {
                s.push('p');
                for (i, sym) in word.iter().enumerate() {
                    if i > 0 {
                        s.push('-');
                    }
                    write!(s, "{sym}").expect("write to String");
                }
            }
        }
        s
    }

    /// Parses the wire format.
    ///
    /// # Errors
    /// [`InvalidTokenError`] on anything that is not a well-formed token
    /// (structural validation against a concrete instance happens later, in
    /// [`WordCursor::resume`]).
    pub fn parse(text: &str) -> Result<Self, InvalidTokenError> {
        let bad = |reason: &str| InvalidTokenError {
            reason: reason.to_string(),
        };
        let mut parts = text.splitn(4, '.');
        if parts.next() != Some(TOKEN_PREFIX) {
            return Err(bad("unknown token version"));
        }
        let fingerprint =
            u64::from_str_radix(parts.next().ok_or_else(|| bad("missing fingerprint"))?, 16)
                .map_err(|_| bad("malformed fingerprint"))?;
        let rank: u64 = parts
            .next()
            .ok_or_else(|| bad("missing rank"))?
            .parse()
            .map_err(|_| bad("malformed rank"))?;
        let body = parts.next().ok_or_else(|| bad("missing position"))?;
        // The mode byte must exist and be ASCII before slicing: this is
        // user-controlled input, and `body[1..]` on a multi-byte first char
        // (or an empty body) would panic instead of erroring.
        let mode = *body
            .as_bytes()
            .first()
            .ok_or_else(|| bad("missing position mode"))?;
        if !mode.is_ascii() {
            return Err(bad("unknown position mode"));
        }
        let payload = &body[1..];
        let pos = match mode {
            b's' if payload.is_empty() => CursorPos::Start,
            b'd' if payload.is_empty() => CursorPos::Done,
            b'c' => {
                let mut decisions = Vec::new();
                if !payload.is_empty() {
                    for pair in payload.split('-') {
                        let (v, e) = pair
                            .split_once(':')
                            .ok_or_else(|| bad("malformed decision pair"))?;
                        decisions.push((
                            v.parse().map_err(|_| bad("malformed decision vertex"))?,
                            e.parse().map_err(|_| bad("malformed decision edge"))?,
                        ));
                    }
                }
                CursorPos::Constant(decisions)
            }
            b'p' => {
                let mut word: Word = Vec::new();
                if !payload.is_empty() {
                    for sym in payload.split('-') {
                        word.push(sym.parse().map_err(|_| bad("malformed symbol"))?);
                    }
                }
                CursorPos::Poly(word)
            }
            _ => return Err(bad("unknown position mode")),
        };
        Ok(ResumeToken {
            fingerprint,
            rank,
            pos,
        })
    }
}

impl std::fmt::Display for ResumeToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.encode())
    }
}

/// Why a resume token was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvalidTokenError {
    /// Human-readable rejection reason.
    pub reason: String,
}

impl std::fmt::Display for InvalidTokenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid resume token: {}", self.reason)
    }
}

impl std::error::Error for InvalidTokenError {}

/// The route a cursor streams through: constant delay on unambiguous
/// instances (Theorem 5), polynomial delay otherwise (Theorem 2). Decided
/// once per cursor from the instance's cached classification.
enum CursorIter {
    Constant(ConstantDelayEnumerator),
    Poly(PolyDelayEnumerator),
    /// Exhausted (or resumed from a `done` token): nothing left to yield.
    Done,
}

/// Where the cursor stands, without the position payload: both enumerators
/// keep their full position live (the decision list, the prefix word), so the
/// cursor only needs to remember *which kind* of position it is at and can
/// borrow the payload lazily when a token is actually minted. This is what
/// keeps the per-word hot path free of position snapshots.
#[derive(Clone, Copy, PartialEq, Eq)]
enum PageMark {
    /// Nothing yielded yet.
    Start,
    /// At least one word yielded; the enumerator holds the position.
    Word,
    /// The stream ended.
    Done,
}

/// A lazy, resumable witness stream over one prepared instance.
///
/// `WordCursor` is an [`Iterator`] over raw witness [`Word`]s that (a) does
/// its work per `next()` call — the first witness costs one delay, not one
/// materialization — and (b) can checkpoint its position at any point with
/// [`WordCursor::token`] and be reconstructed later with
/// [`WordCursor::resume`], continuing bit-identically. The typed counterpart
/// is [`EnumCursor`].
pub struct WordCursor {
    inst: Arc<PreparedInstance>,
    iter: CursorIter,
    rank: u64,
    mark: PageMark,
}

impl WordCursor {
    /// A cursor positioned before the first witness. Chooses the
    /// constant-delay route iff the instance is unambiguous, the
    /// polynomial-delay route otherwise.
    pub fn fresh(inst: Arc<PreparedInstance>) -> Self {
        let iter = match inst.enumerate_constant_delay() {
            Ok(e) => CursorIter::Constant(e),
            Err(_) => CursorIter::Poly(inst.enumerate()),
        };
        WordCursor {
            inst,
            iter,
            rank: 0,
            mark: PageMark::Start,
        }
    }

    /// Rebuilds a cursor at a token's position. The continued stream is
    /// bit-identical to the uninterrupted one (module docs); in particular,
    /// chaining `token()`/`resume()` at any page boundaries reproduces
    /// exactly the words of one fresh cursor, in order.
    ///
    /// # Errors
    /// [`InvalidTokenError`] if the token was minted for a different
    /// instance, encodes a position this instance does not have, or its mode
    /// does not match the instance's enumeration route.
    pub fn resume(
        inst: Arc<PreparedInstance>,
        token: &ResumeToken,
    ) -> Result<Self, InvalidTokenError> {
        let bad = |reason: &str| InvalidTokenError {
            reason: reason.to_string(),
        };
        if token.fingerprint != inst.fingerprint() {
            return Err(bad("token was minted for a different instance"));
        }
        let iter = match &token.pos {
            CursorPos::Start => return Ok(Self::fresh(inst)),
            CursorPos::Done => CursorIter::Done,
            CursorPos::Constant(decisions) => {
                if !inst.is_unambiguous() {
                    return Err(bad("constant-delay token on an ambiguous instance"));
                }
                // A length-n path has at most n branching vertices: reject
                // an oversized (untrusted) list before copying it.
                if decisions.len() > inst.length() {
                    return Err(bad("decision list does not describe a path"));
                }
                let e = ConstantDelayEnumerator::resume(inst.dag().clone(), decisions.clone())
                    .ok_or_else(|| bad("decision list does not describe a path"))?;
                CursorIter::Constant(e)
            }
            CursorPos::Poly(word) => {
                if inst.is_unambiguous() {
                    return Err(bad("poly-delay token on an unambiguous instance"));
                }
                let e = PolyDelayEnumerator::resume_after(
                    inst.nfa_arc().clone(),
                    inst.dag().clone(),
                    word,
                )
                .ok_or_else(|| bad("word is not a witness of this instance"))?;
                CursorIter::Poly(e)
            }
        };
        // The resumed enumerators hold the token's position as their own live
        // state (decision list, prefix word), so the cursor records only the
        // position kind; a re-minted token reads the payload back from them.
        let mark = match &iter {
            CursorIter::Done => PageMark::Done,
            CursorIter::Constant(_) | CursorIter::Poly(_) => PageMark::Word,
        };
        Ok(WordCursor {
            inst,
            iter,
            rank: token.rank,
            mark,
        })
    }

    /// The instance the cursor streams over.
    pub fn instance(&self) -> &Arc<PreparedInstance> {
        &self.inst
    }

    /// Witnesses yielded so far (counting any pages before a resume).
    pub fn rank(&self) -> u64 {
        self.rank
    }

    /// True once the stream is exhausted.
    pub fn is_done(&self) -> bool {
        matches!(self.iter, CursorIter::Done)
    }

    /// The current position as a serializable token: hand it out after a
    /// page, feed it to [`WordCursor::resume`] (or
    /// `Engine::resume`) to continue exactly where this cursor stands.
    ///
    /// The position payload is materialized here, from the enumerator's live
    /// state — one snapshot per token minted, not one per word yielded.
    pub fn token(&self) -> ResumeToken {
        let pos = match (self.mark, &self.iter) {
            (PageMark::Start, _) => CursorPos::Start,
            (PageMark::Done, _) => CursorPos::Done,
            (PageMark::Word, CursorIter::Constant(e)) => {
                CursorPos::Constant(e.decisions().to_vec())
            }
            (PageMark::Word, CursorIter::Poly(e)) => CursorPos::Poly(e.current_word().to_vec()),
            (PageMark::Word, CursorIter::Done) => unreachable!("done cursors are marked done"),
        };
        ResumeToken {
            fingerprint: self.inst.fingerprint(),
            rank: self.rank,
            pos,
        }
    }

    /// Lending form of `next()`: advances the stream and returns the next
    /// witness as a borrow of the enumerator's reused buffer, valid until the
    /// next `advance`/`next` call. A page served through this path performs
    /// no per-word allocation beyond the enumerators' own amortized-constant
    /// bookkeeping — the serving layer formats each word straight off the
    /// borrow (and `tests/alloc_guard.rs` pins a per-page budget on it).
    pub fn advance(&mut self) -> Option<&[Symbol]> {
        let yielded = match &mut self.iter {
            CursorIter::Constant(e) => e.advance().is_some(),
            CursorIter::Poly(e) => e.advance().is_some(),
            CursorIter::Done => false,
        };
        if !yielded {
            self.iter = CursorIter::Done;
            self.mark = PageMark::Done;
            return None;
        }
        self.rank += 1;
        self.mark = PageMark::Word;
        match &self.iter {
            CursorIter::Constant(e) => Some(e.current_word()),
            CursorIter::Poly(e) => Some(e.current_word()),
            CursorIter::Done => unreachable!("a done cursor cannot have yielded"),
        }
    }
}

impl Iterator for WordCursor {
    type Item = Word;

    fn next(&mut self) -> Option<Word> {
        self.advance().map(<[Symbol]>::to_vec)
    }
}

/// The typed enumeration cursor: a [`WordCursor`] composed with a
/// [`Queryable`]'s witness decoder, yielding domain values lazily. Created by
/// `Engine::enumerate` (fresh) and `Engine::resume` (from a token); pages
/// and tokens behave exactly as on the underlying [`WordCursor`] (tokens
/// address raw-word positions, so word-level and typed cursors can even
/// share them — `Engine::cursor` / `Engine::resume_cursor` are the
/// word-level siblings).
pub struct EnumCursor<'q, Q: Queryable + ?Sized> {
    source: &'q Q,
    words: WordCursor,
}

impl<'q, Q: Queryable + ?Sized> EnumCursor<'q, Q> {
    /// Wraps a word cursor with its domain decoder.
    pub fn new(source: &'q Q, words: WordCursor) -> Self {
        EnumCursor { source, words }
    }

    /// The underlying raw-word cursor.
    pub fn words(&self) -> &WordCursor {
        &self.words
    }

    /// Witnesses yielded so far (counting any pages before a resume).
    pub fn rank(&self) -> u64 {
        self.words.rank()
    }

    /// True once the stream is exhausted.
    pub fn is_done(&self) -> bool {
        self.words.is_done()
    }

    /// The current position as a serializable token (see
    /// [`WordCursor::token`]).
    pub fn token(&self) -> ResumeToken {
        self.words.token()
    }
}

impl<Q: Queryable + ?Sized> Iterator for EnumCursor<'_, Q> {
    type Item = Q::Output;

    fn next(&mut self) -> Option<Q::Output> {
        // Decode straight off the lent slice: no intermediate Word per item.
        let source = self.source;
        self.words.advance().map(|w| source.decode(w))
    }
}

/// Which sampler a draw stream runs on.
enum GenMode {
    /// The witness set is empty: the stream yields nothing.
    Empty,
    /// Exact uniform draws over the shared completion table (Theorem 5).
    Exact(TableSampler),
    /// Las Vegas draws over the shared FPRAS sketch (Corollary 23), with a
    /// retry budget per emitted witness. Boxed: the sampler's scratch state
    /// dwarfs the other variants.
    LasVegas {
        sampler: Box<SharedWitnessSampler>,
        retries: usize,
    },
}

/// An amortized uniform-witness stream over one prepared instance: the `GEN`
/// counterpart of [`WordCursor`].
///
/// Construction resolves the route once (exact table sampler on unambiguous
/// instances, the cached FPRAS sketch otherwise) and every draw after that
/// reuses the same tables, scratch space, and weight cache — the
/// preprocessing/serving split applied to generation. The stream is
/// deterministic in `(instance, sketch seed, draw seed)`: warm or cold, the
/// same seeds give the same witnesses.
///
/// The stream ends (`None`) when the witness set is empty, or — on the Las
/// Vegas route — when one draw exhausts its whole retry budget (probability
/// vanishing under sensible parameters; see `FprasParams`).
pub struct WordGenStream {
    mode: GenMode,
    rng: StdRng,
    drawn: u64,
}

impl WordGenStream {
    /// A draw stream over `inst`. `router` supplies the FPRAS parameters for
    /// the ambiguous route, `sketch_seed` the sketch's build randomness
    /// (engine-owned, fingerprint-mixed), and `draw_seed` the stream's own
    /// randomness.
    ///
    /// # Errors
    /// Propagates [`FprasError`] from the (cached) sketch build.
    pub fn new(
        inst: &Arc<PreparedInstance>,
        router: &RouterConfig,
        retries: usize,
        sketch_seed: u64,
        draw_seed: u64,
    ) -> Result<Self, FprasError> {
        let mode = if !inst.exists_witness() {
            GenMode::Empty
        } else if inst.is_unambiguous() {
            GenMode::Exact(inst.uniform_sampler().expect("checked unambiguous"))
        } else {
            let sketch = inst.fpras_sketch(router.fpras, sketch_seed)?;
            GenMode::LasVegas {
                sampler: Box::new(SharedWitnessSampler::new(sketch)),
                retries: retries.max(1),
            }
        };
        Ok(WordGenStream {
            mode,
            rng: StdRng::seed_from_u64(draw_seed),
            drawn: 0,
        })
    }

    /// Witnesses emitted so far.
    pub fn drawn(&self) -> u64 {
        self.drawn
    }
}

impl Iterator for WordGenStream {
    type Item = Word;

    fn next(&mut self) -> Option<Word> {
        let word = match &mut self.mode {
            GenMode::Empty => None,
            GenMode::Exact(sampler) => sampler.sample(&mut self.rng),
            GenMode::LasVegas { sampler, retries } => {
                let mut drawn = None;
                for _ in 0..*retries {
                    if let Some(w) = sampler.sample(&mut self.rng) {
                        drawn = Some(w);
                        break;
                    }
                }
                drawn
            }
        };
        if word.is_some() {
            self.drawn += 1;
        }
        word
    }
}

/// The typed draw stream: a [`WordGenStream`] composed with a [`Queryable`]'s
/// witness decoder. Created by `Engine::sample`.
pub struct GenStream<'q, Q: Queryable + ?Sized> {
    source: &'q Q,
    words: WordGenStream,
}

impl<'q, Q: Queryable + ?Sized> GenStream<'q, Q> {
    /// Wraps a word stream with its domain decoder.
    pub fn new(source: &'q Q, words: WordGenStream) -> Self {
        GenStream { source, words }
    }

    /// The underlying raw-word stream.
    pub fn words(&self) -> &WordGenStream {
        &self.words
    }

    /// Witnesses emitted so far.
    pub fn drawn(&self) -> u64 {
        self.words.drawn()
    }
}

impl<Q: Queryable + ?Sized> Iterator for GenStream<'_, Q> {
    type Item = Q::Output;

    fn next(&mut self) -> Option<Q::Output> {
        self.words.next().map(|w| self.source.decode(&w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsc_automata::families::blowup_nfa;
    use lsc_automata::regex::Regex;
    use lsc_automata::Alphabet;

    fn ufa_inst() -> Arc<PreparedInstance> {
        Arc::new(PreparedInstance::new(blowup_nfa(3), 8))
    }

    fn nfa_inst() -> Arc<PreparedInstance> {
        let ab = Alphabet::binary();
        let nfa = Regex::parse("(0|1)*11(0|1)*", &ab).unwrap().compile();
        Arc::new(PreparedInstance::new(nfa, 7))
    }

    #[test]
    fn token_round_trips_through_the_wire_format() {
        for inst in [ufa_inst(), nfa_inst()] {
            let mut cursor = WordCursor::fresh(inst.clone());
            // Start, mid-stream, and done tokens all survive encode/parse.
            loop {
                let token = cursor.token();
                assert_eq!(ResumeToken::parse(&token.encode()).unwrap(), token);
                if cursor.next().is_none() {
                    let done = cursor.token();
                    assert!(done.is_done());
                    assert_eq!(ResumeToken::parse(&done.encode()).unwrap(), done);
                    break;
                }
            }
        }
    }

    #[test]
    fn malformed_tokens_are_rejected() {
        for text in [
            "",
            "enum2.0.0.s",
            "enum1.zz.0.s",
            "enum1.0000000000000000.x.s",
            "enum1.0000000000000000.0.q",
            "enum1.0000000000000000.0.c1:z",
            "enum1.0000000000000000.0.p1-x",
            "enum1.0000000000000000.0.sx",
            "enum1.0000000000000000.0.",
            "enum1.0000000000000000.0.éx",
        ] {
            assert!(ResumeToken::parse(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn stitched_pages_equal_uninterrupted_run() {
        for inst in [ufa_inst(), nfa_inst()] {
            let uninterrupted: Vec<Word> = WordCursor::fresh(inst.clone()).collect();
            for page in [1usize, 2, 3, 7] {
                let mut stitched: Vec<Word> = Vec::new();
                let mut token = WordCursor::fresh(inst.clone()).token();
                loop {
                    // A fresh process: only the token crosses the boundary.
                    let parsed = ResumeToken::parse(&token.encode()).unwrap();
                    let mut cursor = WordCursor::resume(inst.clone(), &parsed).unwrap();
                    let before = stitched.len();
                    stitched.extend(cursor.by_ref().take(page));
                    token = cursor.token();
                    if stitched.len() == before {
                        break;
                    }
                }
                assert_eq!(stitched, uninterrupted, "page size {page}");
                assert!(token.is_done());
                assert_eq!(token.rank(), uninterrupted.len() as u64);
            }
        }
    }

    #[test]
    fn tokens_bind_to_their_instance() {
        let ufa = ufa_inst();
        let nfa = nfa_inst();
        let mut cursor = WordCursor::fresh(ufa.clone());
        cursor.next().unwrap();
        let token = cursor.token();
        assert!(WordCursor::resume(nfa, &token).is_err());
        assert!(WordCursor::resume(ufa, &token).is_ok());
    }

    #[test]
    fn done_tokens_resume_to_empty_streams() {
        let inst = ufa_inst();
        let mut cursor = WordCursor::fresh(inst.clone());
        while cursor.next().is_some() {}
        let done = cursor.token();
        let mut resumed = WordCursor::resume(inst, &done).unwrap();
        assert!(resumed.next().is_none());
        assert!(resumed.is_done());
    }

    #[test]
    fn gen_stream_matches_batch_sampling() {
        use crate::fpras::FprasParams;
        for inst in [ufa_inst(), nfa_inst()] {
            let router = RouterConfig {
                fpras: FprasParams::quick(),
                ..RouterConfig::default()
            };
            let stream = WordGenStream::new(&inst, &router, 64, 0xABCD, 7).unwrap();
            let streamed: Vec<Word> = stream.take(5).collect();
            let again = WordGenStream::new(&inst, &router, 64, 0xABCD, 7).unwrap();
            let redrawn: Vec<Word> = again.take(5).collect();
            assert_eq!(streamed, redrawn, "the same seeds draw the same stream");
            assert_eq!(streamed.len(), 5);
            for w in &streamed {
                assert!(inst.check_witness(w));
            }
        }
    }

    #[test]
    fn empty_language_streams_are_empty() {
        let ab = Alphabet::binary();
        let nfa = Regex::parse("000", &ab).unwrap().compile();
        let inst = Arc::new(PreparedInstance::new(nfa, 2));
        assert_eq!(WordCursor::fresh(inst.clone()).count(), 0);
        let router = RouterConfig::default();
        let mut stream = WordGenStream::new(&inst, &router, 8, 1, 2).unwrap();
        assert!(stream.next().is_none());
        assert_eq!(stream.drawn(), 0);
    }
}
