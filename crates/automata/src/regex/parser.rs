//! Recursive-descent regex parser.

use std::fmt;

use crate::Alphabet;

use super::Regex;

/// A regex parse failure, with the byte offset of the offending character.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte position in the pattern.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "regex parse error at {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// The deepest nesting [`Regex::parse`] accepts, counting each `(` group
/// and each stacked `*`/`+`/`?` as one level. In-repo patterns nest a
/// handful of levels; the bound keeps an untrusted pattern from recursing
/// the parser, the compiler, or the syntax tree's drop off the stack.
pub const MAX_NESTING: usize = 128;

struct Parser<'a> {
    chars: Vec<(usize, char)>,
    pos: usize,
    alphabet: &'a Alphabet,
    /// Groups open around the current position.
    open: usize,
}

/// A parsed subexpression and its nesting height.
type Parsed = (Regex, usize);

/// Parses `pattern` into a [`Regex`] over `alphabet`.
///
/// Grammar: `alt := concat ('|' concat)*`, `concat := repeat*`,
/// `repeat := atom ('*'|'+'|'?')*`, `atom := literal | '.' | '(' alt ')'`.
/// An empty alternative denotes ε (so `a|` is `a|ε`). Nesting past
/// [`MAX_NESTING`] is a parse error.
pub fn parse(pattern: &str, alphabet: &Alphabet) -> Result<Regex, ParseError> {
    let mut p = Parser {
        chars: pattern.char_indices().collect(),
        pos: 0,
        alphabet,
        open: 0,
    };
    let (r, _) = p.alt()?;
    match p.peek() {
        None => Ok(r),
        Some((at, c)) => Err(ParseError {
            position: at,
            message: format!("unexpected character {c:?}"),
        }),
    }
}

impl Parser<'_> {
    fn peek(&self) -> Option<(usize, char)> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<(usize, char)> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn too_deep(position: usize) -> ParseError {
        ParseError {
            position,
            message: format!("nesting deeper than {MAX_NESTING} levels"),
        }
    }

    fn alt(&mut self) -> Result<Parsed, ParseError> {
        let (first, mut height) = self.concat()?;
        let mut parts = vec![first];
        while let Some((_, '|')) = self.peek() {
            self.bump();
            let (part, h) = self.concat()?;
            parts.push(part);
            height = height.max(h);
        }
        let r = if parts.len() == 1 {
            parts.pop().unwrap()
        } else {
            Regex::Alt(parts)
        };
        Ok((r, height))
    }

    fn concat(&mut self) -> Result<Parsed, ParseError> {
        let mut parts = Vec::new();
        let mut height = 0;
        loop {
            match self.peek() {
                None | Some((_, '|')) | Some((_, ')')) => break,
                _ => {
                    let (part, h) = self.repeat()?;
                    parts.push(part);
                    height = height.max(h);
                }
            }
        }
        let r = match parts.len() {
            0 => Regex::Epsilon,
            1 => parts.pop().unwrap(),
            _ => Regex::Concat(parts),
        };
        Ok((r, height))
    }

    fn repeat(&mut self) -> Result<Parsed, ParseError> {
        let (mut r, mut height) = self.atom()?;
        loop {
            let wrap: fn(Box<Regex>) -> Regex = match self.peek() {
                Some((_, '*')) => Regex::Star,
                Some((_, '+')) => Regex::Plus,
                Some((_, '?')) => Regex::Opt,
                _ => return Ok((r, height)),
            };
            let (at, _) = self.bump().expect("peeked");
            height += 1;
            if height > MAX_NESTING {
                return Err(Self::too_deep(at));
            }
            r = wrap(Box::new(r));
        }
    }

    fn atom(&mut self) -> Result<Parsed, ParseError> {
        match self.bump() {
            None => Err(ParseError {
                position: self.chars.last().map_or(0, |&(i, _)| i + 1),
                message: "unexpected end of pattern".into(),
            }),
            Some((at, '(')) => {
                if self.open == MAX_NESTING {
                    return Err(Self::too_deep(at));
                }
                self.open += 1;
                let inner = self.alt();
                self.open -= 1;
                let (inner, height) = inner?;
                if height == MAX_NESTING {
                    return Err(Self::too_deep(at));
                }
                match self.bump() {
                    Some((_, ')')) => Ok((inner, height + 1)),
                    other => Err(ParseError {
                        position: other.map_or(self.chars.len(), |(i, _)| i),
                        message: "expected ')'".into(),
                    }),
                }
            }
            Some((_, '.')) => Ok((Regex::AnySymbol, 0)),
            Some((_, 'ε')) => Ok((Regex::Epsilon, 0)),
            Some((_, '∅')) => Ok((Regex::Empty, 0)),
            Some((at, c)) => match self.alphabet.symbol_of(c) {
                Some(s) => Ok((Regex::Literal(s), 0)),
                None => Err(ParseError {
                    position: at,
                    message: format!("character {c:?} is not in the alphabet"),
                }),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ab() -> Alphabet {
        Alphabet::from_chars(&['a', 'b'])
    }

    #[test]
    fn literals_and_concat() {
        assert_eq!(
            parse("ab", &ab()).unwrap(),
            Regex::Concat(vec![Regex::Literal(0), Regex::Literal(1)])
        );
        assert_eq!(parse("a", &ab()).unwrap(), Regex::Literal(0));
        assert_eq!(parse("", &ab()).unwrap(), Regex::Epsilon);
    }

    #[test]
    fn precedence() {
        // a|bc* parses as a | (b (c*)) — using alphabet {a,b,c}.
        let abc = Alphabet::from_chars(&['a', 'b', 'c']);
        let r = parse("a|bc*", &abc).unwrap();
        assert_eq!(
            r,
            Regex::Alt(vec![
                Regex::Literal(0),
                Regex::Concat(vec![
                    Regex::Literal(1),
                    Regex::Star(Box::new(Regex::Literal(2)))
                ]),
            ])
        );
    }

    #[test]
    fn nested_groups_and_postfix_stacking() {
        let r = parse("(a|b)*?", &ab()).unwrap();
        assert!(matches!(r, Regex::Opt(inner) if matches!(*inner, Regex::Star(_))));
    }

    #[test]
    fn empty_alternative_is_epsilon() {
        assert_eq!(
            parse("a|", &ab()).unwrap(),
            Regex::Alt(vec![Regex::Literal(0), Regex::Epsilon])
        );
    }

    #[test]
    fn nesting_is_bounded() {
        let groups = |depth: usize| format!("{}a{}", "(".repeat(depth), ")".repeat(depth));
        assert!(parse(&groups(MAX_NESTING), &ab()).is_ok());
        let e = parse(&groups(MAX_NESTING + 1), &ab()).unwrap_err();
        assert!(e.message.contains("nesting"), "{e}");
        assert_eq!(e.position, MAX_NESTING);
        // Stacked postfix operators count one level each.
        let stars = |depth: usize| format!("a{}", "*".repeat(depth));
        assert!(parse(&stars(MAX_NESTING), &ab()).is_ok());
        let e = parse(&stars(MAX_NESTING + 1), &ab()).unwrap_err();
        assert_eq!(e.position, MAX_NESTING + 1);
        // Groups and operators add up: each group of `(x)*` is two levels.
        let mixed = |depth: usize| format!("{}a{}", "(".repeat(depth), ")*".repeat(depth));
        assert!(parse(&mixed(MAX_NESTING / 2), &ab()).is_ok());
        assert!(parse(&format!("{}?", mixed(MAX_NESTING / 2)), &ab()).is_err());
        // Far past the bound is refused, not a stack overflow.
        assert!(parse(&"(".repeat(20_000), &ab()).is_err());
        assert!(parse(&groups(20_000), &ab()).is_err());
    }

    #[test]
    fn errors() {
        assert!(parse("c", &ab()).is_err());
        assert!(parse("(a", &ab()).is_err());
        assert!(parse("a)", &ab()).is_err());
        let e = parse("ax", &ab()).unwrap_err();
        assert_eq!(e.position, 1);
        assert!(e.to_string().contains("not in the alphabet"));
    }
}
