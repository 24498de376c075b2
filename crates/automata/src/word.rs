//! Symbols and words.

use crate::Alphabet;

/// A symbol identifier: an index into an [`Alphabet`].
pub type Symbol = u32;

/// A word over an alphabet — the witness objects `y` of the paper's relations.
pub type Word = Vec<Symbol>;

/// Renders a word through an alphabet, e.g. `[0,1,0]` over `{a,b}` → `"aba"`.
pub fn format_word(word: &[Symbol], alphabet: &Alphabet) -> String {
    let mut out = String::with_capacity(word.len());
    for &s in word {
        alphabet.write_name(&mut out, s).expect("write to String");
    }
    out
}

/// Parses a string into a word, failing on characters outside the alphabet.
pub fn parse_word(s: &str, alphabet: &Alphabet) -> Option<Word> {
    s.chars().map(|c| alphabet.symbol_of(c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let ab = Alphabet::from_chars(&['a', 'b']);
        let w = parse_word("abba", &ab).unwrap();
        assert_eq!(w, vec![0, 1, 1, 0]);
        assert_eq!(format_word(&w, &ab), "abba");
        assert_eq!(format_word(&[1, 0, 2], &Alphabet::sized(3)), "⟨1⟩⟨0⟩⟨2⟩");
        assert_eq!(parse_word("abc", &ab), None);
        assert_eq!(parse_word("", &ab), Some(vec![]));
    }
}
