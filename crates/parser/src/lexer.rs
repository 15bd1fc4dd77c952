//! A small hand-rolled lexer for the query and access-constraint syntax.
//!
//! [`Lexer`] is a borrowing iterator: identifiers, parameters and escape-free strings
//! are slices of the input, so scanning a text allocates nothing. [`tokenize`] collects
//! it for the recursive-descent parser; [`crate::Skeleton`] folds it into a template
//! key. Both therefore read one grammar — there is no second scanner to drift.

use bea_core::error::{Error, Result};
use std::borrow::Cow;

/// A lexical token with its position (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub struct Token<'a> {
    /// The token kind and payload.
    pub kind: TokenKind<'a>,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number.
    pub column: usize,
}

/// The kinds of tokens in the surface syntax.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind<'a> {
    /// An identifier (relation, variable or attribute name).
    Ident(&'a str),
    /// An identifier prefixed with `$`: a parameter variable.
    Param(&'a str),
    /// An integer literal.
    Int(i64),
    /// A string literal (without the quotes); owned only when it held an escape.
    Str(Cow<'a, str>),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `;`
    Semicolon,
    /// `:-`
    Turnstile,
    /// `->`
    Arrow,
    /// `=`
    Equals,
    /// End of input.
    Eof,
}

impl TokenKind<'_> {
    /// A short description used in error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("identifier `{s}`"),
            TokenKind::Param(s) => format!("parameter `${s}`"),
            TokenKind::Int(i) => format!("integer `{i}`"),
            TokenKind::Str(s) => format!("string {s:?}"),
            TokenKind::LParen => "`(`".into(),
            TokenKind::RParen => "`)`".into(),
            TokenKind::Comma => "`,`".into(),
            TokenKind::Dot => "`.`".into(),
            TokenKind::Semicolon => "`;`".into(),
            TokenKind::Turnstile => "`:-`".into(),
            TokenKind::Arrow => "`->`".into(),
            TokenKind::Equals => "`=`".into(),
            TokenKind::Eof => "end of input".into(),
        }
    }
}

/// Tokenize an input string. `%` starts a comment running to the end of the line.
pub fn tokenize(input: &str) -> Result<Vec<Token<'_>>> {
    Lexer::new(input).collect()
}

/// The token stream of one input: every token in order, then [`TokenKind::Eof`], then
/// `None`. A lexical error is yielded once, as `line:column: reason`, and ends the
/// stream.
#[derive(Debug, Clone)]
pub struct Lexer<'a> {
    input: &'a str,
    /// Byte offset of the next unread character.
    position: usize,
    line: usize,
    column: usize,
    done: bool,
}

impl<'a> Lexer<'a> {
    /// Start scanning `input` at line 1, column 1.
    pub fn new(input: &'a str) -> Self {
        Lexer {
            input,
            position: 0,
            line: 1,
            column: 1,
            done: false,
        }
    }

    fn peek(&self) -> Option<char> {
        self.input[self.position..].chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.position += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
        Some(c)
    }

    /// Consume the longest run of characters satisfying `keep` and return it.
    fn take_while(&mut self, keep: impl Fn(char) -> bool) -> &'a str {
        let start = self.position;
        while self.peek().is_some_and(&keep) {
            self.bump();
        }
        &self.input[start..self.position]
    }

    /// Skip whitespace and comments, then scan one token.
    fn scan(&mut self) -> Result<Token<'a>> {
        while let Some(c) = self.peek() {
            match c {
                ' ' | '\t' | '\r' | '\n' => {
                    self.bump();
                }
                '%' => {
                    self.take_while(|c| c != '\n');
                }
                _ => break,
            }
        }
        let (line, column) = (self.line, self.column);
        let fail = |reason: String| Error::invalid(format!("line {line}:{column}: {reason}"));
        let start = self.position;
        let kind = match self.bump() {
            None => TokenKind::Eof,
            Some('(') => TokenKind::LParen,
            Some(')') => TokenKind::RParen,
            Some(',') => TokenKind::Comma,
            Some('.') => TokenKind::Dot,
            Some(';') => TokenKind::Semicolon,
            Some('=') => TokenKind::Equals,
            Some(':') => match self.peek() {
                Some('-') => {
                    self.bump();
                    TokenKind::Turnstile
                }
                other => {
                    return Err(fail(format!(
                        "expected `:-`, found `:{}`",
                        other.map(String::from).unwrap_or_default()
                    )))
                }
            },
            Some('-') => match self.peek() {
                Some('>') => {
                    self.bump();
                    TokenKind::Arrow
                }
                Some(d) if d.is_ascii_digit() => {
                    self.take_while(|d| d.is_ascii_digit());
                    TokenKind::Int(parse_int(&self.input[start..self.position], fail)?)
                }
                _ => return Err(fail("expected `->` or a negative integer".into())),
            },
            Some('"') => {
                // Borrowed until the first escape; only then is the text copied.
                let mut unescaped: Option<String> = None;
                loop {
                    let at = self.position;
                    match self.bump() {
                        Some('"') => {
                            break TokenKind::Str(match unescaped {
                                Some(text) => Cow::Owned(text),
                                None => Cow::Borrowed(&self.input[start + 1..at]),
                            })
                        }
                        Some('\\') => {
                            let text = unescaped
                                .get_or_insert_with(|| self.input[start + 1..at].to_owned());
                            match self.bump() {
                                Some('n') => text.push('\n'),
                                Some('t') => text.push('\t'),
                                Some(other) => text.push(other),
                                None => return Err(fail("unterminated string literal".into())),
                            }
                        }
                        Some(other) => {
                            if let Some(text) = &mut unescaped {
                                text.push(other);
                            }
                        }
                        None => return Err(fail("unterminated string literal".into())),
                    }
                }
            }
            Some('$') => {
                let name = self.take_while(|c| c.is_alphanumeric() || c == '_');
                if name.is_empty() {
                    return Err(fail("`$` must be followed by a parameter name".into()));
                }
                TokenKind::Param(name)
            }
            Some(c) if c.is_ascii_digit() => {
                self.take_while(|d| d.is_ascii_digit());
                TokenKind::Int(parse_int(&self.input[start..self.position], fail)?)
            }
            Some(c) if c.is_alphanumeric() || c == '_' => {
                self.take_while(|c| c.is_alphanumeric() || c == '_' || c == '\'');
                TokenKind::Ident(&self.input[start..self.position])
            }
            Some(other) => return Err(fail(format!("unexpected character `{other}`"))),
        };
        Ok(Token { kind, line, column })
    }
}

fn parse_int(digits: &str, fail: impl Fn(String) -> Error) -> Result<i64> {
    digits
        .parse()
        .map_err(|_| fail(format!("invalid integer `{digits}`")))
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Result<Token<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let token = self.scan();
        self.done = !matches!(&token, Ok(token) if token.kind != TokenKind::Eof);
        Some(token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<TokenKind<'_>> {
        tokenize(input)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn basic_tokens() {
        let ks = kinds(r#"Q(x) :- R(x, 3), x = "a b". % comment"#);
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("Q"),
                TokenKind::LParen,
                TokenKind::Ident("x"),
                TokenKind::RParen,
                TokenKind::Turnstile,
                TokenKind::Ident("R"),
                TokenKind::LParen,
                TokenKind::Ident("x"),
                TokenKind::Comma,
                TokenKind::Int(3),
                TokenKind::RParen,
                TokenKind::Comma,
                TokenKind::Ident("x"),
                TokenKind::Equals,
                TokenKind::Str("a b".into()),
                TokenKind::Dot,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn arrows_negative_numbers_and_params() {
        let ks = kinds("R(a -> b, 610); S($p, -42)");
        assert!(ks.contains(&TokenKind::Arrow));
        assert!(ks.contains(&TokenKind::Int(610)));
        assert!(ks.contains(&TokenKind::Int(-42)));
        assert!(ks.contains(&TokenKind::Param("p")));
        assert!(ks.contains(&TokenKind::Semicolon));
    }

    #[test]
    fn string_escapes_and_quotes_in_identifiers() {
        let ks = kinds(r#"x = "line\nbreak", d = "Queen's Park""#);
        assert!(ks.contains(&TokenKind::Str("line\nbreak".into())));
        assert!(ks.contains(&TokenKind::Str("Queen's Park".into())));
    }

    #[test]
    fn errors_have_positions() {
        let err = tokenize("R(a) :\nx").unwrap_err();
        assert!(err.to_string().contains("line 1"));
        let err = tokenize("\"unterminated").unwrap_err();
        assert!(err.to_string().contains("unterminated"));
        let err = tokenize("a ? b").unwrap_err();
        assert!(err.to_string().contains("unexpected character"));
        let err = tokenize("$ x").unwrap_err();
        assert!(err.to_string().contains("parameter name"));
        let err = tokenize("a - b").unwrap_err();
        assert!(err.to_string().contains("expected `->`"));
    }

    #[test]
    fn token_descriptions() {
        assert_eq!(TokenKind::Arrow.describe(), "`->`");
        assert!(TokenKind::Ident("x").describe().contains('x'));
        assert!(TokenKind::Str("s".into()).describe().contains("\"s\""));
        assert_eq!(TokenKind::Eof.describe(), "end of input");
    }
}
