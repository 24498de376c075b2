//! Answer checks against a fresh single-thread [`Engine`].
//!
//! Every reply is compared with what a reference engine, configured like
//! the server's, computes for the same instance:
//!
//! * `prepare`: the fingerprint and the length;
//! * `count`: the route, the exact count, and the estimate — on the FPRAS
//!   route bit-identical, since both sides seed the sketch from the same
//!   engine seed and fingerprint;
//! * `enumerate`: the page re-derived from the token the request carried
//!   (words, rank, done flag and next token), every word accepted and of
//!   the right length, and no word repeated within one pass;
//! * `sample`: the reference draw stream under the request's seed, every
//!   word accepted and of the right length;
//! * `close`: the session echoed back.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use lsc_automata::{format_word, parse_word, Alphabet};
use lsc_core::engine::{CountRoute, InstanceHandle, PreparedInstance, ResumeToken};
use lsc_core::serve::json::{self, Json};
use lsc_core::Engine;

use crate::driver::{num_field, serve_config, str_field, Record};
use crate::gen::{Kind, Op, Workload};

/// Word hashes kept per enumeration pass for the distinctness check: a
/// cap keeps the checker's memory flat on passes that never end.
const SEEN_CAP: usize = 1 << 12;

/// What a correct `count` reply holds.
struct ExpectedCount {
    route: String,
    exact: Option<String>,
    estimate: String,
}

/// The reference side of one catalog entry: its own fresh engine (so a
/// cold instance's artifacts go away with it at `close`), the handle, and
/// what the checks remember between replies.
struct Reference {
    engine: Engine,
    handle: InstanceHandle,
    alphabet: Alphabet,
    count: Option<ExpectedCount>,
    /// Digest of the reference draws per `(seed, count)`: the warm
    /// workloads and bulk-stream draw from small seed pools.
    samples: HashMap<(u64, usize), u64>,
    /// Hashes of the words enumerated in the current pass.
    seen: HashSet<u64>,
}

/// Checks replies, counting failures.
pub struct Checker<'w> {
    workload: &'w Workload,
    refs: HashMap<usize, Reference>,
    /// Expected `prepare` fingerprints per catalog entry (warm workloads
    /// re-open the same entries many times).
    fingerprints: HashMap<usize, String>,
    corrupt: bool,
    /// Replies checked.
    pub checked: u64,
    /// Replies that failed a check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub messages: Vec<String>,
}

impl<'w> Checker<'w> {
    /// A checker for `workload`'s replies. With `corrupt`, the first
    /// expected count is deliberately wrong (a self-test that the checks
    /// are not vacuous).
    pub fn new(workload: &'w Workload, corrupt: bool) -> Checker<'w> {
        Checker {
            workload,
            refs: HashMap::new(),
            fingerprints: HashMap::new(),
            corrupt,
            checked: 0,
            failed: 0,
            messages: Vec::new(),
        }
    }

    /// Checks every record.
    pub fn check_all<'r>(&mut self, records: impl IntoIterator<Item = &'r Record>) {
        for record in records {
            self.check(record);
        }
    }

    /// Checks one record.
    pub fn check(&mut self, record: &Record) {
        self.checked += 1;
        if let Err(message) = self.verify(record) {
            self.failed += 1;
            if self.messages.len() < 5 {
                self.messages.push(format!(
                    "{:?}: {message}\n  request: {}\n  reply: {}",
                    record.op,
                    record.request,
                    truncate(&record.reply, 300)
                ));
            }
        }
        if let Op::Close(inst) = record.op {
            // A closed cold instance is never seen again.
            if self.workload.kind == Kind::ColdCompile {
                self.refs.remove(&inst);
                self.fingerprints.remove(&inst);
            }
        }
    }

    fn reference(&mut self, inst: usize) -> &mut Reference {
        let workload = self.workload;
        self.refs.entry(inst).or_insert_with(|| {
            let spec = &workload.catalog[inst];
            let engine = Engine::new(serve_config(workload.kind).engine);
            let handle = engine.prepare_nfa(&Arc::new(spec.nfa()), spec.length);
            Reference {
                engine,
                handle,
                alphabet: spec.alphabet(),
                count: None,
                samples: HashMap::new(),
                seen: HashSet::new(),
            }
        })
    }

    fn verify(&mut self, record: &Record) -> Result<(), String> {
        // Replies are read with field scanners rather than a full JSON
        // parse: a 1000-word page takes tens of milliseconds through
        // `json::parse`, which would dominate a bulk run's wall time.
        let reply = record.reply.as_str();
        if !reply.starts_with("{\"ok\":true") {
            return Err("not ok".to_string());
        }
        let request = json::parse(&record.request).map_err(|e| format!("bad request: {e}"))?;
        let inst = record.op.inst();
        match record.op {
            Op::Prepare(_) => {
                let spec = &self.workload.catalog[inst];
                let fingerprint = self.fingerprints.entry(inst).or_insert_with(|| {
                    let fp = PreparedInstance::instance_fingerprint(&spec.nfa(), spec.length);
                    format!("{fp:016x}")
                });
                expect_eq(
                    "fingerprint",
                    str_field(reply, "fingerprint"),
                    Some(fingerprint.as_str()),
                )?;
                expect_eq(
                    "length",
                    num_field(reply, "length"),
                    Some(spec.length as u64),
                )
            }
            Op::Count(_) => {
                let corrupt = std::mem::take(&mut self.corrupt);
                let expected = self.expected_count(inst)?;
                expect_eq("route", str_field(reply, "route"), Some(&expected.route))?;
                expect_eq(
                    "count",
                    str_field(reply, "count"),
                    expected.exact.as_deref(),
                )?;
                let mut estimate = expected.estimate.clone();
                if corrupt {
                    estimate.push('1');
                }
                expect_eq(
                    "estimate",
                    str_field(reply, "estimate"),
                    Some(estimate.as_str()),
                )
            }
            Op::Enumerate { page, .. } => {
                let reference = self.reference(inst);
                let resume = request.get("resume").and_then(Json::as_str);
                let mut cursor = match resume {
                    Some(text) => {
                        let token = ResumeToken::parse(text).map_err(|e| format!("token: {e}"))?;
                        reference
                            .engine
                            .resume_cursor(&reference.handle, &token)
                            .map_err(|e| format!("token: {e}"))?
                    }
                    None => {
                        reference.seen.clear();
                        reference.engine.cursor(&reference.handle)
                    }
                };
                let mut expected = Vec::with_capacity(page);
                while expected.len() < page {
                    match cursor.advance() {
                        Some(word) => expected.push(format_word(word, &reference.alphabet)),
                        None => break,
                    }
                }
                let words = words_of(reply)?;
                if words != expected {
                    return Err(format!(
                        "page differs from the reference ({} vs {} words)",
                        words.len(),
                        expected.len()
                    ));
                }
                expect_eq("rank", num_field(reply, "rank"), Some(cursor.rank()))?;
                expect_eq(
                    "done",
                    Some(reply.contains("\"done\":true")),
                    Some(cursor.is_done()),
                )?;
                expect_eq(
                    "token",
                    str_field(reply, "token"),
                    Some(cursor.token().encode().as_str()),
                )?;
                let seen = &mut reference.seen;
                for word in &words {
                    check_witness(reference.handle.instance(), &reference.alphabet, word)?;
                    let hash = word_hash(word);
                    if seen.contains(&hash) {
                        return Err(format!("word {word} repeated within one pass"));
                    }
                    if seen.len() < SEEN_CAP {
                        seen.insert(hash);
                    }
                }
                Ok(())
            }
            Op::Sample { count, seed, .. } => {
                let reference = self.reference(inst);
                let words = words_of(reply)?;
                let digest = words_digest(&words);
                let expected = match reference.samples.get(&(seed, count)) {
                    Some(&expected) => expected,
                    None => {
                        let draws: Vec<String> = reference
                            .engine
                            .gen_stream(&reference.handle, seed)
                            .map_err(|e| format!("reference sample: {e}"))?
                            .take(count)
                            .map(|w| format_word(&w, &reference.alphabet))
                            .collect();
                        let expected = words_digest(&draws);
                        reference.samples.insert((seed, count), expected);
                        expected
                    }
                };
                if digest != expected {
                    return Err(format!(
                        "draws differ from the reference stream under seed {seed} ({} words)",
                        words.len()
                    ));
                }
                words.iter().try_for_each(|w| {
                    check_witness(reference.handle.instance(), &reference.alphabet, w)
                })
            }
            Op::Close(_) => expect_eq(
                "closed",
                str_field(reply, "closed"),
                request.get("session").and_then(Json::as_str),
            ),
        }
    }

    fn expected_count(&mut self, inst: usize) -> Result<&ExpectedCount, String> {
        let reference = self.reference(inst);
        if reference.count.is_none() {
            let queryable = (
                reference.handle.instance().nfa_arc().clone(),
                reference.handle.length(),
            );
            let routed = reference
                .engine
                .count(&queryable)
                .map_err(|e| format!("reference count: {e}"))?;
            let route = match routed.route {
                CountRoute::ExactUnambiguous => "exact-unambiguous".to_string(),
                CountRoute::ExactDeterminized { dfa_states } => {
                    format!("exact-determinized({dfa_states})")
                }
                CountRoute::Fpras => "fpras".to_string(),
            };
            reference.count = Some(ExpectedCount {
                route,
                exact: routed.exact.as_ref().map(ToString::to_string),
                estimate: routed.estimate.to_string(),
            });
        }
        Ok(reference.count.as_ref().expect("filled above"))
    }
}

fn check_witness(inst: &PreparedInstance, alphabet: &Alphabet, word: &str) -> Result<(), String> {
    let symbols =
        parse_word(word, alphabet).ok_or_else(|| format!("word {word} off the alphabet"))?;
    if symbols.len() != inst.length() {
        return Err(format!(
            "word {word} has length {}, not {}",
            symbols.len(),
            inst.length()
        ));
    }
    if !inst.check_witness(&symbols) {
        return Err(format!("word {word} is not accepted"));
    }
    Ok(())
}

fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
    })
}

fn word_hash(word: &str) -> u64 {
    fnv(0xCBF2_9CE4_8422_2325, word.as_bytes())
}

/// FNV-1a over the words in order, each followed by a separator.
fn words_digest(words: &[String]) -> u64 {
    words.iter().fold(0xCBF2_9CE4_8422_2325, |h, w| {
        fnv(fnv(h, w.as_bytes()), b",")
    })
}

/// The `"words"` array of a page or sample reply (the server writes
/// words over single-character alphabets, which need no escapes).
fn words_of(reply: &str) -> Result<Vec<String>, String> {
    let start = reply.find("\"words\":[").ok_or("missing words")? + "\"words\":[".len();
    let len = reply[start..].find(']').ok_or("unterminated words")?;
    let body = &reply[start..start + len];
    if body.is_empty() {
        return Ok(Vec::new());
    }
    body.split(',')
        .map(|w| {
            w.strip_prefix('"')
                .and_then(|w| w.strip_suffix('"'))
                .filter(|w| !w.contains(['"', '\\']))
                .map(str::to_string)
                .ok_or_else(|| format!("malformed word {w}"))
        })
        .collect()
}

fn expect_eq<T: PartialEq + std::fmt::Debug>(
    what: &str,
    got: Option<T>,
    want: Option<T>,
) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, want {want:?}"))
    }
}

fn truncate(text: &str, max: usize) -> &str {
    match text.char_indices().nth(max) {
        Some((at, _)) => &text[..at],
        None => text,
    }
}
