//! Regular-expression syntax trees.

use std::fmt;

use crate::{Alphabet, Nfa, Symbol};

use super::parser::{parse, ParseError};

/// A regular expression over a fixed [`Alphabet`].
///
/// Supported syntax: literals, `.` (any symbol), concatenation, `|`, `*`, `+`,
/// `?`, and parentheses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Regex {
    /// The empty language ∅.
    Empty,
    /// The language {ε}.
    Epsilon,
    /// A single symbol.
    Literal(Symbol),
    /// Any single symbol (`.`).
    AnySymbol,
    /// Concatenation, in order.
    Concat(Vec<Regex>),
    /// Alternation.
    Alt(Vec<Regex>),
    /// Kleene star.
    Star(Box<Regex>),
    /// One or more.
    Plus(Box<Regex>),
    /// Zero or one.
    Opt(Box<Regex>),
}

impl Regex {
    /// Parses `pattern` over `alphabet`. See [`super::ParseError`] for failures.
    pub fn parse(pattern: &str, alphabet: &Alphabet) -> Result<RegexOver, ParseError> {
        let ast = parse(pattern, alphabet)?;
        Ok(RegexOver {
            ast,
            alphabet: alphabet.clone(),
        })
    }

    /// Renders the AST back to pattern syntax using `alphabet` for names.
    pub fn to_pattern(&self, alphabet: &Alphabet) -> String {
        fn prec(r: &Regex) -> u8 {
            match r {
                Regex::Alt(_) => 0,
                Regex::Concat(_) => 1,
                _ => 2,
            }
        }
        fn go(r: &Regex, alphabet: &Alphabet, out: &mut String) {
            match r {
                Regex::Empty => out.push('∅'),
                Regex::Epsilon => out.push('ε'),
                Regex::Literal(s) => alphabet.write_name(out, *s).expect("write to String"),
                Regex::AnySymbol => out.push('.'),
                Regex::Concat(parts) => {
                    for p in parts {
                        wrap(p, 1, alphabet, out);
                    }
                }
                Regex::Alt(parts) => {
                    for (i, p) in parts.iter().enumerate() {
                        if i > 0 {
                            out.push('|');
                        }
                        wrap(p, 0, alphabet, out);
                    }
                }
                Regex::Star(inner) => {
                    wrap(inner, 2, alphabet, out);
                    out.push('*');
                }
                Regex::Plus(inner) => {
                    wrap(inner, 2, alphabet, out);
                    out.push('+');
                }
                Regex::Opt(inner) => {
                    wrap(inner, 2, alphabet, out);
                    out.push('?');
                }
            }
        }
        fn wrap(r: &Regex, min_prec: u8, alphabet: &Alphabet, out: &mut String) {
            if prec(r) < min_prec {
                out.push('(');
                go(r, alphabet, out);
                out.push(')');
            } else {
                go(r, alphabet, out);
            }
        }
        let mut out = String::new();
        go(self, alphabet, &mut out);
        out
    }
}

/// A parsed regex bound to its alphabet, ready to compile.
#[derive(Clone, Debug)]
pub struct RegexOver {
    pub(crate) ast: Regex,
    pub(crate) alphabet: Alphabet,
}

impl RegexOver {
    /// The underlying syntax tree.
    pub fn ast(&self) -> &Regex {
        &self.ast
    }

    /// The alphabet the pattern was parsed over.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Compiles to an ε-free, trimmed NFA (Thompson construction + ε-removal).
    pub fn compile(&self) -> Nfa {
        super::compile::compile(&self.ast, &self.alphabet)
    }
}

impl fmt::Display for RegexOver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.ast.to_pattern(&self.alphabet))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_roundtrip() {
        let ab = Alphabet::from_chars(&['a', 'b']);
        for p in ["a", "ab", "a|b", "(a|b)*", "a+b?", "a(b|ab)*b", "."] {
            let r = Regex::parse(p, &ab).unwrap();
            let printed = r.to_string();
            // Re-parsing the printed form gives the same AST.
            let r2 = Regex::parse(&printed, &ab).unwrap();
            assert_eq!(r.ast(), r2.ast(), "pattern {p} printed as {printed}");
        }
    }
}
