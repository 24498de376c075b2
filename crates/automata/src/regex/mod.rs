//! Regular expressions: AST, parser, and compilation to ε-free NFAs.
//!
//! Regexes are the query language of the paper's graph-database application
//! (RPQs are triples `(x, R, y)` with `R` a regular expression, §4.2) and the
//! most convenient way to build workload NFAs everywhere else.

mod ast;
mod compile;
mod glushkov;
mod parser;

pub use ast::Regex;
pub use glushkov::compile_glushkov;
pub use parser::{ParseError, MAX_NESTING};
