#![warn(missing_docs)]

//! # ctr-parser — surface syntax for workflow specifications
//!
//! A small language mirroring the paper's notation in ASCII: `*` = `⊗`,
//! `#` = `|`, `+` = `∨`, `iso(…)` = `⊙`, `poss(…)` = `◇`, plus the
//! `CONSTR` constraint forms (`exists`, `absent`, `before`, `serial`,
//! Klein helpers) and a `workflow name { … }` container for complete
//! specifications with sub-workflows and triggers.
//!
//! ```
//! let spec = ctr_parser::parse_spec(r"
//!     workflow trip {
//!         graph plan * (book_flight # book_hotel) * pay;
//!         constraint before(book_hotel, book_flight);
//!     }
//! ").unwrap();
//! assert!(spec.compile().unwrap().is_consistent());
//! ```

pub(crate) mod lexer;
pub mod parser;

pub use lexer::LexError;
pub use parser::{parse_constraint, parse_goal, parse_spec, ParseError};

/// Tokenizes `input` and returns how many tokens it holds, the end of
/// input included, or the first lexical error. The tokens themselves
/// borrow the source and stay inside the parser.
pub fn lex(input: &str) -> Result<usize, LexError> {
    lexer::lex(input).map(|tokens| tokens.len())
}
