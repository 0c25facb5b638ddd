//! Hand-written lexer for the input language (SQL fragment + DDL).

use std::fmt;
use udp_core::name::Name;

/// Token kinds. Keywords are matched case-insensitively; identifiers are
/// folded to lower case (SQL identifier folding).
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword (lower-cased), as the one [`Name`] every later
    /// copy shares.
    Ident(Name),
    /// Integer literal.
    Int(i64),
    /// Single-quoted string literal.
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `;`
    Semi,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `=`
    Eq,
    /// `==` (the `verify` separator)
    EqEq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `??` (generic-schema marker)
    QQ,
    /// `?` (nullable-attribute type suffix in `schema` declarations)
    Question,
    /// `:`
    Colon,
    /// End of input.
    Eof,
}

impl Tok {
    /// Human-readable rendering for error messages.
    pub fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("identifier `{s}`"),
            Tok::Int(i) => format!("integer {i}"),
            Tok::Str(s) => format!("string {s:?}"),
            other => format!("{other:?}"),
        }
    }
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.describe())
    }
}

/// A token with its source position (1-based line/column), for error
/// messages.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// The token.
    pub tok: Tok,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

/// Lexing errors.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    /// What went wrong.
    pub message: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lex error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for LexError {}

/// Tokenize an input program. `--` starts a line comment.
pub fn lex(input: &str) -> Result<Vec<Spanned>, LexError> {
    let mut out = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    let mut line: u32 = 1;
    let mut col: u32 = 1;

    macro_rules! push {
        ($tok:expr, $len:expr) => {{
            out.push(Spanned {
                tok: $tok,
                line,
                col,
            });
            i += $len;
            col += $len as u32;
        }};
    }

    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                i += 1;
                line += 1;
                col = 1;
            }
            ' ' | '\t' | '\r' => {
                i += 1;
                col += 1;
            }
            '-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => push!(Tok::LParen, 1),
            ')' => push!(Tok::RParen, 1),
            ',' => push!(Tok::Comma, 1),
            '.' => push!(Tok::Dot, 1),
            ';' => push!(Tok::Semi, 1),
            '*' => push!(Tok::Star, 1),
            '+' => push!(Tok::Plus, 1),
            '-' => push!(Tok::Minus, 1),
            '/' => push!(Tok::Slash, 1),
            ':' => push!(Tok::Colon, 1),
            '=' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    push!(Tok::EqEq, 2);
                } else {
                    push!(Tok::Eq, 1);
                }
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    push!(Tok::Ne, 2);
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    push!(Tok::Le, 2);
                } else {
                    push!(Tok::Lt, 1);
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    push!(Tok::Ge, 2);
                } else {
                    push!(Tok::Gt, 1);
                }
            }
            '!' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    push!(Tok::Ne, 2);
                } else {
                    return Err(LexError {
                        message: "unexpected `!`".into(),
                        line,
                        col,
                    });
                }
            }
            '?' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'?' {
                    push!(Tok::QQ, 2);
                } else {
                    push!(Tok::Question, 1);
                }
            }
            '\'' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'\'' {
                    if bytes[j] == b'\n' {
                        return Err(LexError {
                            message: "unterminated string literal".into(),
                            line,
                            col,
                        });
                    }
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(LexError {
                        message: "unterminated string literal".into(),
                        line,
                        col,
                    });
                }
                let s = input[start..j].to_string();
                let len = j + 1 - i;
                out.push(Spanned {
                    tok: Tok::Str(s),
                    line,
                    col,
                });
                i = j + 1;
                col += len as u32;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                let mut j = i;
                while j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                    j += 1;
                }
                let text = &input[start..j];
                let value: i64 = text.parse().map_err(|_| LexError {
                    message: format!("integer literal out of range: {text}"),
                    line,
                    col,
                })?;
                let len = j - i;
                out.push(Spanned {
                    tok: Tok::Int(value),
                    line,
                    col,
                });
                i = j;
                col += len as u32;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                let mut j = i;
                while j < bytes.len() {
                    let ch = bytes[j] as char;
                    if ch.is_ascii_alphanumeric() || ch == '_' {
                        j += 1;
                    } else {
                        break;
                    }
                }
                let len = j - i;
                out.push(Spanned {
                    tok: Tok::Ident(lowercase_name(&input[start..j])),
                    line,
                    col,
                });
                i = j;
                col += len as u32;
            }
            other => {
                return Err(LexError {
                    message: format!("unexpected character `{other}`"),
                    line,
                    col,
                })
            }
        }
    }
    out.push(Spanned {
        tok: Tok::Eof,
        line,
        col,
    });
    Ok(out)
}

/// The [`Name`] of an ASCII word folded to lower case, built in one
/// allocation: short words are folded on the stack.
fn lowercase_name(word: &str) -> Name {
    if !word.bytes().any(|b| b.is_ascii_uppercase()) {
        return Name::from(word);
    }
    let mut buf = [0u8; 64];
    match buf.get_mut(..word.len()) {
        Some(folded) => {
            folded.copy_from_slice(word.as_bytes());
            folded.make_ascii_lowercase();
            Name::from(std::str::from_utf8(folded).expect("an ASCII word"))
        }
        None => Name::from(word.to_ascii_lowercase()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(input: &str) -> Vec<Tok> {
        lex(input).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn keywords_and_identifiers_fold_case() {
        assert_eq!(
            toks("SELECT foo FROM Bar"),
            vec![
                Tok::Ident("select".into()),
                Tok::Ident("foo".into()),
                Tok::Ident("from".into()),
                Tok::Ident("bar".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn punctuation_and_operators() {
        assert_eq!(
            toks("a = b <> c <= d >= e == f != g"),
            vec![
                Tok::Ident("a".into()),
                Tok::Eq,
                Tok::Ident("b".into()),
                Tok::Ne,
                Tok::Ident("c".into()),
                Tok::Le,
                Tok::Ident("d".into()),
                Tok::Ge,
                Tok::Ident("e".into()),
                Tok::EqEq,
                Tok::Ident("f".into()),
                Tok::Ne,
                Tok::Ident("g".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("a -- the rest is ignored ==\nb"),
            vec![Tok::Ident("a".into()), Tok::Ident("b".into()), Tok::Eof]
        );
    }

    #[test]
    fn string_and_int_literals() {
        assert_eq!(
            toks("'hello' 42"),
            vec![Tok::Str("hello".into()), Tok::Int(42), Tok::Eof]
        );
    }

    #[test]
    fn generic_schema_marker() {
        assert_eq!(
            toks("a ??"),
            vec![Tok::Ident("a".into()), Tok::QQ, Tok::Eof]
        );
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(lex("'oops").is_err());
    }

    #[test]
    fn positions_are_tracked() {
        let spanned = lex("a\n  b").unwrap();
        assert_eq!((spanned[0].line, spanned[0].col), (1, 1));
        assert_eq!((spanned[1].line, spanned[1].col), (2, 3));
    }
}
