//! A plain-text interchange format for NFAs.
//!
//! The paper's `MEM-NFA` inputs are "an NFA and a unary length"; to make the
//! command-line tool and test fixtures concrete, this module fixes a simple
//! line-oriented format:
//!
//! ```text
//! # comment lines and blanks are ignored
//! alphabet: ab         # characters, one symbol each (or: alphabet: sized 5)
//! states: 7
//! initial: 0
//! accepting: 5 6
//! 0 a 1                # transitions: from symbol to
//! 0 b 2
//! ```
//!
//! For `sized` alphabets transitions use numeric symbol ids.

use std::fmt::Write as _;

use crate::{Alphabet, Nfa, Symbol};

/// A parse failure with its line number (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NfaParseError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for NfaParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NFA parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for NfaParseError {}

/// Serializes an NFA to the text format.
pub fn to_text(nfa: &Nfa) -> String {
    let mut out = String::new();
    let alphabet = nfa.alphabet();
    let named: Option<String> = alphabet.symbols().map(|s| alphabet.char_of(s)).collect();
    match &named {
        Some(chars) => writeln!(out, "alphabet: {chars}").unwrap(),
        None => writeln!(out, "alphabet: sized {}", alphabet.len()).unwrap(),
    }
    writeln!(out, "states: {}", nfa.num_states()).unwrap();
    writeln!(out, "initial: {}", nfa.initial()).unwrap();
    let finals: Vec<String> = nfa.accepting_states().map(|q| q.to_string()).collect();
    writeln!(out, "accepting: {}", finals.join(" ")).unwrap();
    for q in 0..nfa.num_states() {
        for &(s, t) in nfa.transitions_from(q) {
            write!(out, "{q} ").unwrap();
            match &named {
                Some(_) => alphabet.write_name(&mut out, s).unwrap(),
                None => write!(out, "{s}").unwrap(),
            }
            writeln!(out, " {t}").unwrap();
        }
    }
    out
}

/// Parses the text format.
///
/// # Errors
/// [`NfaParseError`] with the offending line on malformed input.
pub fn from_text(text: &str) -> Result<Nfa, NfaParseError> {
    let err = |line: usize, message: &str| NfaParseError {
        line,
        message: message.to_string(),
    };
    let mut alphabet: Option<Alphabet> = None;
    let mut builder: Option<crate::NfaBuilder> = None;
    let mut initial: Option<usize> = None;
    let mut accepting: Vec<usize> = Vec::new();
    let mut transitions: Vec<(usize, String, usize, usize)> = Vec::new(); // + line no
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("alphabet:") {
            let rest = rest.trim();
            alphabet = Some(if let Some(size) = rest.strip_prefix("sized") {
                let n: usize = size
                    .trim()
                    .parse()
                    .map_err(|_| err(lineno, "bad sized-alphabet count"))?;
                Alphabet::sized(n)
            } else {
                let chars: Vec<char> = rest.chars().collect();
                if chars.is_empty() {
                    return Err(err(lineno, "empty alphabet"));
                }
                Alphabet::from_chars(&chars)
            });
        } else if let Some(rest) = line.strip_prefix("states:") {
            let n: usize = rest
                .trim()
                .parse()
                .map_err(|_| err(lineno, "bad state count"))?;
            let alpha = alphabet
                .clone()
                .ok_or_else(|| err(lineno, "alphabet must precede states"))?;
            builder = Some(Nfa::builder(alpha, n));
        } else if let Some(rest) = line.strip_prefix("initial:") {
            initial = Some(
                rest.trim()
                    .parse()
                    .map_err(|_| err(lineno, "bad initial state"))?,
            );
        } else if let Some(rest) = line.strip_prefix("accepting:") {
            for tok in rest.split_whitespace() {
                accepting.push(
                    tok.parse()
                        .map_err(|_| err(lineno, "bad accepting state"))?,
                );
            }
        } else {
            let parts: Vec<&str> = line.split_whitespace().collect();
            if parts.len() != 3 {
                return Err(err(lineno, "expected `from symbol to`"));
            }
            let from: usize = parts[0]
                .parse()
                .map_err(|_| err(lineno, "bad source state"))?;
            let to: usize = parts[2]
                .parse()
                .map_err(|_| err(lineno, "bad target state"))?;
            transitions.push((from, parts[1].to_string(), to, lineno));
        }
    }
    let alphabet = alphabet.ok_or_else(|| err(0, "missing `alphabet:` header"))?;
    let mut b = builder.ok_or_else(|| err(0, "missing `states:` header"))?;
    let num_states = b.num_states();
    let check = |q: usize, lineno: usize, what: &str| {
        if q >= num_states {
            Err(err(lineno, &format!("{what} {q} out of range")))
        } else {
            Ok(q)
        }
    };
    b.set_initial(check(
        initial.ok_or_else(|| err(0, "missing `initial:` header"))?,
        0,
        "initial state",
    )?);
    for q in accepting {
        b.set_accepting(check(q, 0, "accepting state")?);
    }
    for (from, sym_txt, to, lineno) in transitions {
        let sym: Symbol = if sym_txt.chars().count() == 1 {
            let c = sym_txt.chars().next().unwrap();
            match alphabet.symbol_of(c) {
                Some(s) => s,
                None => sym_txt
                    .parse()
                    .map_err(|_| err(lineno, &format!("unknown symbol {sym_txt:?}")))?,
            }
        } else {
            sym_txt
                .parse()
                .map_err(|_| err(lineno, &format!("unknown symbol {sym_txt:?}")))?
        };
        if (sym as usize) >= alphabet.len() {
            return Err(err(lineno, &format!("symbol id {sym} out of range")));
        }
        b.add_transition(
            check(from, lineno, "source state")?,
            sym,
            check(to, lineno, "target state")?,
        );
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::{blowup_nfa, random_nfa};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn roundtrip_named_alphabet() {
        let n = blowup_nfa(4);
        let text = to_text(&n);
        let back = from_text(&text).unwrap();
        assert_eq!(back.num_states(), n.num_states());
        assert_eq!(back.num_transitions(), n.num_transitions());
        for w in [[0, 1, 0, 0, 1], [1, 1, 1, 1, 1]] {
            assert_eq!(back.accepts(&w), n.accepts(&w));
        }
    }

    #[test]
    fn roundtrip_sized_alphabet() {
        let mut b = Nfa::builder(Alphabet::sized(5), 3);
        b.set_initial(0);
        b.set_accepting(2);
        b.add_transition(0, 4, 1);
        b.add_transition(1, 3, 2);
        let n = b.build();
        let text = to_text(&n);
        assert!(text.contains("alphabet: sized 5"));
        let back = from_text(&text).unwrap();
        assert!(back.accepts(&[4, 3]));
        assert!(!back.accepts(&[3, 4]));
    }

    #[test]
    fn roundtrip_random() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..5 {
            let n = random_nfa(6, Alphabet::binary(), 0.3, 0.4, &mut rng);
            let back = from_text(&to_text(&n)).unwrap();
            for code in 0..32u32 {
                let w: Vec<Symbol> = (0..5).map(|i| (code >> i) & 1).collect();
                assert_eq!(back.accepts(&w), n.accepts(&w));
            }
        }
    }

    #[test]
    fn parse_handles_comments_and_blanks() {
        let text = "
# a tiny automaton
alphabet: ab
states: 2
initial: 0
accepting: 1
0 a 1   # the only transition
";
        let n = from_text(text).unwrap();
        assert!(n.accepts(&[0]));
        assert!(!n.accepts(&[1]));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        assert!(from_text("").is_err());
        let e = from_text("alphabet: ab\nstates: 2\ninitial: 0\naccepting: 1\n0 z 1").unwrap_err();
        assert_eq!(e.line, 5);
        assert!(e.to_string().contains("unknown symbol"));
        let e = from_text("alphabet: ab\nstates: 2\ninitial: 9\naccepting: 1").unwrap_err();
        assert!(e.message.contains("out of range"));
        let e = from_text("states: 2\nalphabet: ab").unwrap_err();
        assert!(e.message.contains("alphabet must precede"));
    }
}
