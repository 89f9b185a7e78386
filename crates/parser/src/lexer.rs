//! Tokenizer for the workflow specification language.
//!
//! The surface syntax mirrors the paper's notation in ASCII:
//! `*` for `⊗`, `#` for `|`, `+` for `∨`, `iso(…)` for `⊙`, `poss(…)` for
//! `◇`, and `\+` (or `!`) for negated query atoms. Keywords are plain
//! identifiers recognized by the parser, so activity names like `exists`
//! are still usable in goal position.
//!
//! The lexer reads bytes: every token is ASCII, so only whitespace and
//! the offending character of an error are ever decoded. An identifier
//! borrows its text from the source, and a token is `Copy`. Columns count
//! characters, not bytes.

use std::fmt;

/// A token with its source position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Token<'a> {
    /// The token kind and payload.
    pub kind: TokenKind<'a>,
    /// 1-based line.
    pub line: usize,
    /// 1-based column, in characters.
    pub col: usize,
}

/// Token kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind<'a> {
    /// Identifier: `[A-Za-z_][A-Za-z0-9_@]*`, borrowed from the source.
    Ident(&'a str),
    /// Integer literal.
    Int(i64),
    /// `*`
    Star,
    /// `#`
    Hash,
    /// `+`
    Plus,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:=`
    Define,
    /// `!` or `\+` — negation of a query atom.
    Bang,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Int(n) => write!(f, "integer `{n}`"),
            TokenKind::Star => write!(f, "`*`"),
            TokenKind::Hash => write!(f, "`#`"),
            TokenKind::Plus => write!(f, "`+`"),
            TokenKind::LParen => write!(f, "`(`"),
            TokenKind::RParen => write!(f, "`)`"),
            TokenKind::LBrace => write!(f, "`{{`"),
            TokenKind::RBrace => write!(f, "`}}`"),
            TokenKind::Comma => write!(f, "`,`"),
            TokenKind::Semi => write!(f, "`;`"),
            TokenKind::Define => write!(f, "`:=`"),
            TokenKind::Bang => write!(f, "`!`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// A lexical error with position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LexError {
    /// Offending character.
    pub found: char,
    /// 1-based line.
    pub line: usize,
    /// 1-based column, in characters.
    pub col: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unexpected character `{}` at {}:{}",
            self.found, self.line, self.col
        )
    }
}

impl std::error::Error for LexError {}

/// Tokenizes `input`. `//` comments run to end of line.
pub fn lex(input: &str) -> Result<Vec<Token<'_>>, LexError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let (mut at, mut line, mut col) = (0usize, 1usize, 1usize);
    let error = |found: char, line: usize, col: usize| LexError { found, line, col };

    while let Some(&b) = bytes.get(at) {
        let (kind, len) = match b {
            b'\n' => {
                at += 1;
                line += 1;
                col = 1;
                continue;
            }
            b'*' => (TokenKind::Star, 1),
            b'#' => (TokenKind::Hash, 1),
            b'+' => (TokenKind::Plus, 1),
            b'(' => (TokenKind::LParen, 1),
            b')' => (TokenKind::RParen, 1),
            b'{' => (TokenKind::LBrace, 1),
            b'}' => (TokenKind::RBrace, 1),
            b',' => (TokenKind::Comma, 1),
            b';' => (TokenKind::Semi, 1),
            b'!' => (TokenKind::Bang, 1),
            b'/' if bytes.get(at + 1) == Some(&b'/') => {
                // A comment: on to the end of the line, which the next
                // round counts. No byte of a multi-byte character is a
                // newline.
                at = bytes[at..]
                    .iter()
                    .position(|&c| c == b'\n')
                    .map_or(bytes.len(), |n| at + n);
                continue;
            }
            b'\\' if bytes.get(at + 1) == Some(&b'+') => (TokenKind::Bang, 2),
            b':' if bytes.get(at + 1) == Some(&b'=') => (TokenKind::Define, 2),
            b'/' | b'\\' | b':' => return Err(error(char::from(b), line, col)),
            b'0'..=b'9' | b'-' => {
                let digits = usize::from(b == b'-');
                let len = digits + ascii_run(&bytes[at + digits..], u8::is_ascii_digit);
                if len == digits {
                    return Err(error('-', line, col));
                }
                let value: i64 = input[at..at + len]
                    .parse()
                    .map_err(|_| error(char::from(b), line, col))?;
                (TokenKind::Int(value), len)
            }
            // `@` continues an identifier: loop unrolling renames
            // occurrences to `event@iteration` (ctr-workflow::loops).
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let len = ascii_run(&bytes[at..], |&c| {
                    c.is_ascii_alphanumeric() || c == b'_' || c == b'@'
                });
                (TokenKind::Ident(&input[at..at + len]), len)
            }
            _ => {
                // Whitespace — any Unicode space is one column — or an
                // error naming the whole character.
                let c = input[at..].chars().next().expect("at a character boundary");
                if !c.is_whitespace() {
                    return Err(error(c, line, col));
                }
                at += c.len_utf8();
                col += 1;
                continue;
            }
        };
        tokens.push(Token { kind, line, col });
        // Every token is ASCII: its bytes are its columns.
        at += len;
        col += len;
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        line,
        col,
    });
    Ok(tokens)
}

/// Length of the leading run of `bytes` that `accept` takes.
fn ascii_run(bytes: &[u8], accept: impl Fn(&u8) -> bool) -> usize {
    bytes.iter().position(|c| !accept(c)).unwrap_or(bytes.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<TokenKind<'_>> {
        lex(input).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("a * b # c + d"),
            vec![
                TokenKind::Ident("a"),
                TokenKind::Star,
                TokenKind::Ident("b"),
                TokenKind::Hash,
                TokenKind::Ident("c"),
                TokenKind::Plus,
                TokenKind::Ident("d"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn punctuation_and_define() {
        assert_eq!(
            kinds("ship := pack; { }"),
            vec![
                TokenKind::Ident("ship"),
                TokenKind::Define,
                TokenKind::Ident("pack"),
                TokenKind::Semi,
                TokenKind::LBrace,
                TokenKind::RBrace,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn negation_forms() {
        assert_eq!(
            kinds("!frozen \\+frozen"),
            vec![
                TokenKind::Bang,
                TokenKind::Ident("frozen"),
                TokenKind::Bang,
                TokenKind::Ident("frozen"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn integers_including_negative() {
        assert_eq!(
            kinds("f(3, -12)"),
            vec![
                TokenKind::Ident("f"),
                TokenKind::LParen,
                TokenKind::Int(3),
                TokenKind::Comma,
                TokenKind::Int(-12),
                TokenKind::RParen,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("a // this is a comment\n b"),
            vec![TokenKind::Ident("a"), TokenKind::Ident("b"), TokenKind::Eof]
        );
    }

    #[test]
    fn positions_are_tracked() {
        let tokens = lex("a\n  b").unwrap();
        assert_eq!((tokens[0].line, tokens[0].col), (1, 1));
        assert_eq!((tokens[1].line, tokens[1].col), (2, 3));
    }

    #[test]
    fn bad_character_is_reported_with_position() {
        let err = lex("a @ b").unwrap_err();
        assert_eq!(
            err,
            LexError {
                found: '@',
                line: 1,
                col: 3
            }
        );
    }

    #[test]
    fn at_continues_identifiers() {
        // Renamed loop occurrences like `poll@2` are single identifiers;
        // a leading `@` is still an error.
        assert_eq!(
            kinds("poll@2"),
            vec![TokenKind::Ident("poll@2"), TokenKind::Eof]
        );
        assert!(lex("@poll").is_err());
    }

    #[test]
    fn lone_colon_is_an_error() {
        assert!(lex("a : b").is_err());
    }

    #[test]
    fn lone_minus_is_an_error() {
        assert!(lex("a - b").is_err());
    }
}
