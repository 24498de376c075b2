//! Finite alphabets with printable symbol names.

use std::collections::HashMap;
use std::fmt;

use crate::Symbol;

/// A finite alphabet Σ.
///
/// Symbols are dense ids `0..len()`; each has a display character. Application
/// crates use wider alphabets than `{0,1}` — edge identifiers for graph paths,
/// marker sets for spanners — so alphabets can also be anonymous (`sized`), in
/// which case symbols print as `⟨id⟩`.
#[derive(Clone, Debug)]
pub struct Alphabet {
    chars: Vec<Option<char>>,
    index: HashMap<char, Symbol>,
}

impl Alphabet {
    /// The binary alphabet `{0, 1}` used in §6 of the paper.
    pub fn binary() -> Self {
        Self::from_chars(&['0', '1'])
    }

    /// An alphabet from explicit characters (ids follow slice order).
    ///
    /// # Panics
    /// Panics on duplicate characters.
    pub fn from_chars(chars: &[char]) -> Self {
        let mut index = HashMap::with_capacity(chars.len());
        for (i, &c) in chars.iter().enumerate() {
            let prev = index.insert(c, i as Symbol);
            assert!(prev.is_none(), "duplicate alphabet character {c:?}");
        }
        Alphabet {
            chars: chars.iter().map(|&c| Some(c)).collect(),
            index,
        }
    }

    /// An anonymous alphabet of `size` symbols without display characters.
    pub fn sized(size: usize) -> Self {
        Alphabet {
            chars: vec![None; size],
            index: HashMap::new(),
        }
    }

    /// The first `k` lowercase letters (`k ≤ 26`).
    pub fn lowercase(k: usize) -> Self {
        assert!(k <= 26, "lowercase alphabet holds at most 26 letters");
        let chars: Vec<char> = (0..k).map(|i| (b'a' + i as u8) as char).collect();
        Self::from_chars(&chars)
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.chars.len()
    }

    /// True iff the alphabet is empty.
    pub fn is_empty(&self) -> bool {
        self.chars.is_empty()
    }

    /// All symbol ids.
    pub fn symbols(&self) -> impl Iterator<Item = Symbol> + '_ {
        0..self.chars.len() as Symbol
    }

    /// The display name of a symbol: its character, or `⟨id⟩` on an
    /// anonymous alphabet.
    pub fn name(&self, s: Symbol) -> String {
        let mut name = String::new();
        self.write_name(&mut name, s).expect("write to String");
        name
    }

    /// Writes the display name of a symbol ([`Alphabet::name`]) without
    /// allocating: a character is pushed as is, and only the anonymous
    /// `⟨id⟩` form is formatted.
    pub fn write_name(&self, out: &mut impl fmt::Write, s: Symbol) -> fmt::Result {
        match self.char_of(s) {
            Some(c) => out.write_char(c),
            None => write!(out, "⟨{s}⟩"),
        }
    }

    /// Looks up the symbol id for a character.
    pub fn symbol_of(&self, c: char) -> Option<Symbol> {
        self.index.get(&c).copied()
    }

    /// The display character of a symbol, if it has one (anonymous `sized`
    /// alphabets do not).
    pub fn char_of(&self, s: Symbol) -> Option<char> {
        self.chars.get(s as usize).copied().flatten()
    }
}

impl fmt::Display for Alphabet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, s) in self.symbols().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            self.write_name(f, s)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_alphabet() {
        let b = Alphabet::binary();
        assert_eq!(b.len(), 2);
        assert_eq!(b.symbol_of('0'), Some(0));
        assert_eq!(b.symbol_of('1'), Some(1));
        assert_eq!(b.symbol_of('2'), None);
        assert_eq!(b.name(1), "1");
        assert_eq!(b.to_string(), "{0,1}");
    }

    #[test]
    fn sized_alphabet() {
        let a = Alphabet::sized(3);
        assert_eq!(a.len(), 3);
        assert_eq!(a.name(2), "⟨2⟩");
        assert_eq!(a.symbol_of('x'), None);
    }

    #[test]
    fn lowercase_alphabet() {
        let a = Alphabet::lowercase(3);
        assert_eq!(a.symbol_of('c'), Some(2));
        assert_eq!(a.symbols().count(), 3);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_char_panics() {
        Alphabet::from_chars(&['a', 'a']);
    }
}
