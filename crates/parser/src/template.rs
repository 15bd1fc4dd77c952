//! Query texts split into a template and its constants.
//!
//! Whether a query is covered, and the plan and bound that follow, depend on *which*
//! variables are constants and which constants coincide — never on their values
//! (Section 5 of the paper). [`Skeleton::of`] separates the two: the key is everything
//! planning can see, the literals are what a request pays for.

use crate::lexer::{Lexer, TokenKind};
use bea_core::error::Result;
use bea_core::value::Value;
use std::fmt::Write as _;

/// One text's template key and the constants taken out of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Skeleton {
    /// The token stream, one token per space-terminated word, with every integer and
    /// string literal blanked to `#i<class>` / `#s<class>` — its kind and the index in
    /// [`Skeleton::literals`] of the value it carried. Whitespace and comments leave no
    /// trace; `x = 1, y = 1` and `x = 1, y = 2` differ in the second literal's class.
    /// `#` starts no token of the grammar, so no text can forge a blanked literal.
    pub key: String,
    /// The distinct literal values in first-appearance order: what
    /// [`crate::parse_template`]'s placeholders stand for in this text.
    pub literals: Vec<Value>,
}

impl Skeleton {
    /// Split `input` in one scan of the lexer. Fails exactly where
    /// [`crate::lexer::tokenize`] does, with the same `line:column` message.
    pub fn of(input: &str) -> Result<Skeleton> {
        let mut key = String::with_capacity(input.len() + input.len() / 2);
        let mut literals = Vec::new();
        for token in Lexer::new(input) {
            match token?.kind {
                TokenKind::Ident(name) => key.push_str(name),
                TokenKind::Param(name) => {
                    key.push('$');
                    key.push_str(name);
                }
                TokenKind::Int(i) => {
                    let class = class_of(&mut literals, Value::Int(i));
                    write!(key, "#i{class}").expect("writing to a String cannot fail");
                }
                TokenKind::Str(s) => {
                    let class = class_of(&mut literals, Value::str(s));
                    write!(key, "#s{class}").expect("writing to a String cannot fail");
                }
                TokenKind::LParen => key.push('('),
                TokenKind::RParen => key.push(')'),
                TokenKind::Comma => key.push(','),
                TokenKind::Dot => key.push('.'),
                TokenKind::Semicolon => key.push(';'),
                TokenKind::Turnstile => key.push_str(":-"),
                TokenKind::Arrow => key.push_str("->"),
                TokenKind::Equals => key.push('='),
                TokenKind::Eof => break,
            }
            key.push(' ');
        }
        Ok(Skeleton { key, literals })
    }
}

/// The class of `literal` among the `seen` ones — the index of the first literal equal
/// to it — entering it when it is new. Queries hold a handful of literals, so a scan
/// beats hashing.
pub(crate) fn class_of(seen: &mut Vec<Value>, literal: Value) -> usize {
    match seen.iter().position(|earlier| *earlier == literal) {
        Some(class) => class,
        None => {
            seen.push(literal);
            seen.len() - 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_catalog, parse_query, parse_template};

    #[test]
    fn layout_and_constants_leave_the_key_alone() {
        let terse = Skeleton::of(r#"Q(d):-Accident(x,d,"day-1"),x=-7."#).unwrap();
        let airy = Skeleton::of(
            "Q ( d ) :- % the anchored lookup\n  Accident(x, d, \"a \\\"quoted\\\" day\"),\n  x = 42 .",
        )
        .unwrap();
        assert_eq!(terse.key, airy.key);
        assert_eq!(
            terse.key,
            "Q ( d ) :- Accident ( x , d , #s0 ) , x = #i1 . "
        );
        assert_eq!(terse.literals, [Value::str("day-1"), Value::Int(-7)]);
        assert_eq!(
            airy.literals,
            [Value::str("a \"quoted\" day"), Value::Int(42)]
        );
        assert!(Skeleton::of("Q(x) :- R(x, y).")
            .unwrap()
            .literals
            .is_empty());
    }

    #[test]
    fn coinciding_literals_and_kinds_are_part_of_the_key() {
        let key = |text: &str| Skeleton::of(text).unwrap().key;
        assert_ne!(key("Q() :- x = 1, y = 1."), key("Q() :- x = 1, y = 2."));
        assert_eq!(key("Q() :- x = 1, y = 2."), key("Q() :- x = 8, y = 9."));
        assert_ne!(key("Q() :- x = 1."), key("Q() :- x = \"1\"."));
        // Booleans and parameters are words of the template, not literals.
        assert_ne!(key("Q() :- x = true."), key("Q() :- x = false."));
        assert_ne!(key("Q() :- x = $p."), key("Q() :- x = p."));
        let repeated = Skeleton::of("Q() :- x = 5, y = \"5\", z = 5.").unwrap();
        assert_eq!(repeated.key, "Q ( ) :- x = #i0 , y = #s1 , z = #i0 . ");
        assert_eq!(repeated.literals, [Value::Int(5), Value::str("5")]);
    }

    #[test]
    fn lex_errors_are_the_tokenizers() {
        for text in [
            "Q(x) :- R(x, ?).",
            "Q(x) :\nR",
            "x = \"open",
            "a - b",
            "$ x",
        ] {
            assert_eq!(
                Skeleton::of(text).unwrap_err().to_string(),
                crate::lexer::tokenize(text).unwrap_err().to_string()
            );
        }
    }

    #[test]
    fn templates_put_one_placeholder_per_literal_class() {
        let catalog = parse_catalog("relation R(a, b);").unwrap();
        let text = "Q(y) :- R(x, y), x = 3, y = \"k\".\nQ(y) :- R(y, 3).";
        let template = parse_template(&catalog, text).unwrap();
        let literal = parse_query(&catalog, text).unwrap();
        let constants = |query: &bea_core::query::Query| -> Vec<Value> {
            let bea_core::query::Query::Ucq(union) = query else {
                panic!("two rules parse to a union, got {query:?}")
            };
            let branches = union.branches();
            let equalities = branches.iter().flat_map(|branch| branch.equalities());
            equalities
                .filter_map(|equality| match equality {
                    bea_core::query::cq::Equality::Const(_, value) => Some(value.clone()),
                    _ => None,
                })
                .collect()
        };
        let three = Value::placeholder(0);
        assert_eq!(
            constants(&template),
            [three.clone(), Value::placeholder(1), three]
        );
        assert_eq!(
            constants(&literal),
            [Value::Int(3), Value::str("k"), Value::Int(3)]
        );
        assert_eq!(
            Skeleton::of(text).unwrap().literals,
            [Value::Int(3), Value::str("k")]
        );
    }
}
