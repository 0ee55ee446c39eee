//! Lexer for the GPSJ SQL subset.
//!
//! The token set covers exactly the SQL the paper writes: `CREATE VIEW …
//! AS SELECT … FROM … WHERE … GROUP BY …` with the five aggregates,
//! `DISTINCT`, `COUNT(*)`, qualified names, numeric and string literals
//! and the six comparison operators.

use std::fmt;

use crate::error::{SqlError, SqlResult};

/// A lexical token with its source offsets (for error messages and
/// diagnostic spans).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token kind and payload.
    pub kind: TokenKind,
    /// Byte offset in the input where the token starts.
    pub offset: usize,
    /// Byte offset just past the token's last character.
    pub end: usize,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Keyword (uppercased).
    Keyword(Keyword),
    /// Identifier (original case preserved).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Floating point literal.
    Double(f64),
    /// Single-quoted string literal (quotes stripped).
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `;`
    Semicolon,
}

/// Recognized keywords.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Keyword {
    Create,
    View,
    As,
    Select,
    From,
    Where,
    Group,
    By,
    Having,
    And,
    Distinct,
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl Keyword {
    fn parse(word: &str) -> Option<Keyword> {
        Some(match word.to_ascii_uppercase().as_str() {
            "CREATE" => Keyword::Create,
            "VIEW" => Keyword::View,
            "AS" => Keyword::As,
            "SELECT" => Keyword::Select,
            "FROM" => Keyword::From,
            "WHERE" => Keyword::Where,
            "GROUP" => Keyword::Group,
            "BY" => Keyword::By,
            "HAVING" => Keyword::Having,
            "AND" => Keyword::And,
            "DISTINCT" => Keyword::Distinct,
            "COUNT" => Keyword::Count,
            "SUM" => Keyword::Sum,
            "AVG" => Keyword::Avg,
            "MIN" => Keyword::Min,
            "MAX" => Keyword::Max,
            _ => return None,
        })
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Keyword(k) => write!(f, "{k:?}"),
            TokenKind::Ident(s) => write!(f, "identifier '{s}'"),
            TokenKind::Int(v) => write!(f, "integer {v}"),
            TokenKind::Double(v) => write!(f, "number {v}"),
            TokenKind::Str(s) => write!(f, "string '{s}'"),
            TokenKind::LParen => write!(f, "'('"),
            TokenKind::RParen => write!(f, "')'"),
            TokenKind::Comma => write!(f, "','"),
            TokenKind::Dot => write!(f, "'.'"),
            TokenKind::Star => write!(f, "'*'"),
            TokenKind::Eq => write!(f, "'='"),
            TokenKind::Ne => write!(f, "'<>'"),
            TokenKind::Lt => write!(f, "'<'"),
            TokenKind::Le => write!(f, "'<='"),
            TokenKind::Gt => write!(f, "'>'"),
            TokenKind::Ge => write!(f, "'>='"),
            TokenKind::Semicolon => write!(f, "';'"),
        }
    }
}

/// Tokenizes `input`, rejecting characters outside the subset.
pub fn tokenize(input: &str) -> SqlResult<Vec<Token>> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        // Each arm yields the token kind and the offset just past it.
        let (kind, next) = match c {
            c if c.is_ascii_whitespace() => {
                i += 1;
                continue;
            }
            '(' | ')' | ',' | '.' | '*' | ';' => {
                let kind = match c {
                    '(' => TokenKind::LParen,
                    ')' => TokenKind::RParen,
                    ',' => TokenKind::Comma,
                    '.' => TokenKind::Dot,
                    '*' => TokenKind::Star,
                    _ => TokenKind::Semicolon,
                };
                (kind, i + 1)
            }
            '=' => (TokenKind::Eq, i + 1),
            '<' => match bytes.get(i + 1).map(|&b| b as char) {
                Some('>') => (TokenKind::Ne, i + 2),
                Some('=') => (TokenKind::Le, i + 2),
                _ => (TokenKind::Lt, i + 1),
            },
            '>' => match bytes.get(i + 1).map(|&b| b as char) {
                Some('=') => (TokenKind::Ge, i + 2),
                _ => (TokenKind::Gt, i + 1),
            },
            '\'' => {
                // The quote is ASCII, so the text between two of them is
                // whole characters and is copied as such; '' escapes one.
                let mut j = i + 1;
                let mut s = String::new();
                loop {
                    let Some(len) = bytes[j..].iter().position(|&b| b == b'\'') else {
                        return Err(SqlError::lex(start, "unterminated string literal"));
                    };
                    s.push_str(&input[j..j + len]);
                    j += len + 1;
                    if bytes.get(j) != Some(&b'\'') {
                        break;
                    }
                    s.push('\'');
                    j += 1;
                }
                (TokenKind::Str(s), j)
            }
            c if c.is_ascii_digit()
                || (c == '-' && bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit())) =>
            {
                let mut j = i + 1;
                let mut is_double = false;
                while j < bytes.len() {
                    let d = bytes[j] as char;
                    if d.is_ascii_digit() {
                        j += 1;
                    } else if d == '.'
                        && !is_double
                        && bytes.get(j + 1).is_some_and(|b| b.is_ascii_digit())
                    {
                        is_double = true;
                        j += 1;
                    } else {
                        break;
                    }
                }
                let text = &input[i..j];
                let kind =
                    if is_double {
                        TokenKind::Double(text.parse().map_err(|_| {
                            SqlError::lex(start, format!("invalid number '{text}'"))
                        })?)
                    } else {
                        TokenKind::Int(text.parse().map_err(|_| {
                            SqlError::lex(start, format!("invalid integer '{text}'"))
                        })?)
                    };
                (kind, j)
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut j = i + 1;
                while j < bytes.len() {
                    let d = bytes[j] as char;
                    if d.is_ascii_alphanumeric() || d == '_' {
                        j += 1;
                    } else {
                        break;
                    }
                }
                let word = &input[i..j];
                let kind = match Keyword::parse(word) {
                    Some(k) => TokenKind::Keyword(k),
                    None => TokenKind::Ident(word.to_owned()),
                };
                (kind, j)
            }
            _ => {
                // Report the full (possibly multi-byte) character; `input`
                // is valid UTF-8 even when the byte at `start` is not ASCII.
                let other = input[start..].chars().next().unwrap_or('\u{fffd}');
                return Err(SqlError::lex(
                    start,
                    format!("unexpected character '{other}'"),
                ));
            }
        };
        tokens.push(Token {
            kind,
            offset: start,
            end: next,
        });
        i = next;
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<TokenKind> {
        tokenize(input)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(
            kinds("select SELECT SeLeCt"),
            vec![
                TokenKind::Keyword(Keyword::Select),
                TokenKind::Keyword(Keyword::Select),
                TokenKind::Keyword(Keyword::Select),
            ]
        );
    }

    #[test]
    fn qualified_names_and_operators() {
        assert_eq!(
            kinds("time.year = 1997"),
            vec![
                TokenKind::Ident("time".into()),
                TokenKind::Dot,
                TokenKind::Ident("year".into()),
                TokenKind::Eq,
                TokenKind::Int(1997),
            ]
        );
    }

    #[test]
    fn two_char_operators() {
        assert_eq!(
            kinds("<> <= >= < >"),
            vec![
                TokenKind::Ne,
                TokenKind::Le,
                TokenKind::Ge,
                TokenKind::Lt,
                TokenKind::Gt,
            ]
        );
    }

    #[test]
    fn count_star() {
        assert_eq!(
            kinds("COUNT(*)"),
            vec![
                TokenKind::Keyword(Keyword::Count),
                TokenKind::LParen,
                TokenKind::Star,
                TokenKind::RParen,
            ]
        );
    }

    #[test]
    fn string_literals_with_escapes() {
        assert_eq!(kinds("'it''s'"), vec![TokenKind::Str("it's".into())]);
        assert!(tokenize("'oops").is_err());
    }

    #[test]
    fn string_literals_keep_their_utf8_text() {
        let input = "x = 'Café ''à la'' 🍰' AND";
        let tokens = tokenize(input).unwrap();
        assert_eq!(tokens[2].kind, TokenKind::Str("Café 'à la' 🍰".into()));
        assert_eq!(
            &input[tokens[2].offset..tokens[2].end],
            "'Café ''à la'' 🍰'"
        );
        assert_eq!(tokens[3].kind, TokenKind::Keyword(Keyword::And));
        // Unterminated, ending inside multi-byte text: still the typed error.
        assert_eq!(
            tokenize("x = 'Caf\u{e9}"),
            Err(SqlError::lex(4, "unterminated string literal"))
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            kinds("42 4.5 -3 -2.25"),
            vec![
                TokenKind::Int(42),
                TokenKind::Double(4.5),
                TokenKind::Int(-3),
                TokenKind::Double(-2.25),
            ]
        );
    }

    #[test]
    fn number_then_dot_not_double() {
        // `1.` followed by an identifier must not lex as a double.
        assert_eq!(
            kinds("t1.c"),
            vec![
                TokenKind::Ident("t1".into()),
                TokenKind::Dot,
                TokenKind::Ident("c".into()),
            ]
        );
    }

    #[test]
    fn rejects_unknown_characters() {
        assert!(tokenize("SELECT @").is_err());
    }

    #[test]
    fn offsets_are_recorded() {
        let tokens = tokenize("a = 1").unwrap();
        assert_eq!(tokens[0].offset, 0);
        assert_eq!(tokens[1].offset, 2);
        assert_eq!(tokens[2].offset, 4);
    }

    #[test]
    fn end_offsets_cover_the_token_text() {
        let input = "ab <= 'x''y' 12.5";
        let tokens = tokenize(input).unwrap();
        assert_eq!((tokens[0].offset, tokens[0].end), (0, 2)); // ab
        assert_eq!((tokens[1].offset, tokens[1].end), (3, 5)); // <=
        assert_eq!((tokens[2].offset, tokens[2].end), (6, 12)); // 'x''y'
        assert_eq!((tokens[3].offset, tokens[3].end), (13, 17)); // 12.5
        assert_eq!(&input[tokens[3].offset..tokens[3].end], "12.5");
    }

    #[test]
    fn non_ascii_input_is_an_error_not_a_panic() {
        // Multi-byte characters must produce a lex error (with the whole
        // character in the message), never a byte-slicing panic.
        let e = tokenize("SELECT é FROM t").unwrap_err();
        assert!(e.to_string().contains('é'));
        assert!(tokenize("€").is_err());
    }
}
