//! # bea-parser — text syntax for queries, catalogs and access schemas
//!
//! A small datalog-style surface syntax so that queries and access schemas can be written
//! as strings (in examples, experiment configurations and tests) instead of through the
//! builder APIs.
//!
//! ## Catalogs
//!
//! ```text
//! relation Accident(aid, district, date);
//! relation Casualty(cid, aid, class, vid);
//! relation Vehicle(vid, driver, age);
//! ```
//!
//! ## Access schemas
//!
//! One constraint per `;`-terminated clause: `Relation(X attrs -> Y attrs, bound)`, where
//! the bound is an integer or one of the sublinear forms `log` / `sqrt`:
//!
//! ```text
//! Accident(date -> aid, 610);
//! Casualty(aid -> vid, 192);
//! Accident(aid -> district, date, 1);
//! Vehicle(vid -> driver, age, 1);
//! ```
//!
//! ## Queries
//!
//! Datalog rules with `.` terminators. Constants may appear directly in atoms, equality
//! atoms use `=`, and variables written `$name` are declared as *parameters* of the query
//! (Section 5 of the paper). Several rules with the same head define a union of
//! conjunctive queries.
//!
//! ```text
//! Q0(age) :- Accident(aid, "Queen's Park", "1/5/2005"),
//!            Casualty(cid, aid, class, vid),
//!            Vehicle(vid, driver, age).
//! ```

#![deny(unsafe_code)]
pub mod lexer;
mod template;

pub use template::Skeleton;

use bea_core::access::{AccessConstraint, AccessSchema, Cardinality, SublinearFn};
use bea_core::error::{Error, Result};
use bea_core::query::cq::{ConjunctiveQuery, CqBuilder};
use bea_core::query::term::Arg;
use bea_core::query::ucq::UnionQuery;
use bea_core::query::Query;
use bea_core::schema::Catalog;
use bea_core::value::Value;
use lexer::{tokenize, Token, TokenKind};
use template::class_of;

/// Parse a catalog declaration: a sequence of `relation Name(attr, …);` clauses.
pub fn parse_catalog(input: &str) -> Result<Catalog> {
    let mut parser = Parser::new(input)?;
    let mut catalog = Catalog::new();
    while !parser.at_eof() {
        parser.expect_keyword("relation")?;
        let name = parser.expect_ident()?;
        parser.expect(&TokenKind::LParen)?;
        let mut attrs = Vec::new();
        loop {
            attrs.push(parser.expect_ident()?);
            if parser.eat(&TokenKind::Comma) {
                continue;
            }
            parser.expect(&TokenKind::RParen)?;
            break;
        }
        catalog.declare(name, attrs)?;
        // Clause terminator (`;` or `.`), optional before EOF.
        let terminated = parser.eat(&TokenKind::Semicolon) || parser.eat(&TokenKind::Dot);
        if !terminated && !parser.at_eof() {
            return Err(parser.unexpected("`;` after a relation declaration"));
        }
    }
    Ok(catalog)
}

/// Parse an access schema: `;`-separated `Relation(X -> Y, bound)` clauses.
pub fn parse_access_schema(catalog: &Catalog, input: &str) -> Result<AccessSchema> {
    let mut parser = Parser::new(input)?;
    let mut schema = AccessSchema::new();
    while !parser.at_eof() {
        let relation = parser.expect_ident()?;
        parser.expect(&TokenKind::LParen)?;
        // X attributes (possibly empty, then the arrow follows immediately).
        let mut x: Vec<String> = Vec::new();
        while !parser.check(&TokenKind::Arrow) {
            x.push(parser.expect_ident()?);
            if !parser.eat(&TokenKind::Comma) {
                break;
            }
        }
        parser.expect(&TokenKind::Arrow)?;
        // Y attributes followed by the cardinality bound.
        let mut y: Vec<String> = Vec::new();
        let cardinality: Cardinality;
        loop {
            match parser.peek_kind().clone() {
                TokenKind::Int(n) => {
                    parser.advance();
                    if n < 0 {
                        return Err(Error::invalid(format!(
                            "access constraint on `{relation}` has a negative bound {n}"
                        )));
                    }
                    cardinality = Cardinality::Const(n as u64);
                    break;
                }
                TokenKind::Ident("log") => {
                    parser.advance();
                    cardinality = Cardinality::Sublinear(SublinearFn::Log2);
                    break;
                }
                TokenKind::Ident("sqrt") => {
                    parser.advance();
                    cardinality = Cardinality::Sublinear(SublinearFn::Sqrt);
                    break;
                }
                TokenKind::Ident(_) => {
                    y.push(parser.expect_ident()?);
                    parser.expect(&TokenKind::Comma)?;
                }
                _ => return Err(parser.unexpected("an attribute name or a cardinality bound")),
            }
        }
        parser.expect(&TokenKind::RParen)?;
        let terminated = parser.eat(&TokenKind::Semicolon) || parser.eat(&TokenKind::Dot);
        if !terminated && !parser.at_eof() {
            return Err(parser.unexpected("`;` after an access constraint"));
        }
        let x_refs: Vec<&str> = x.iter().map(String::as_str).collect();
        let y_refs: Vec<&str> = y.iter().map(String::as_str).collect();
        schema.add(AccessConstraint::new(
            catalog,
            &relation,
            &x_refs,
            &y_refs,
            cardinality,
        )?);
    }
    Ok(schema)
}

/// Parse one query: a single rule yields a CQ, several rules with the same head name
/// yield a UCQ.
pub fn parse_query(catalog: &Catalog, input: &str) -> Result<Query> {
    single_query(parse_queries(catalog, input)?)
}

/// [`parse_query`] with the constants taken out: every integer and string literal is
/// replaced by [`Value::placeholder`] of its class in [`Skeleton::of`]'s numbering, so
/// equal literals share a placeholder and distinct ones never do. What the analyses
/// look at — which variables are constants, and which constants coincide — is that of
/// every text with this skeleton; plan the result once and bind each text's
/// [`Skeleton::literals`] into it.
pub fn parse_template(catalog: &Catalog, input: &str) -> Result<Query> {
    let mut parser = Parser::new(input)?;
    let mut classes = Vec::new();
    for token in &parser.tokens {
        match &token.kind {
            TokenKind::Int(i) => class_of(&mut classes, Value::Int(*i)),
            TokenKind::Str(s) => class_of(&mut classes, Value::str(&**s)),
            _ => continue,
        };
    }
    parser.classes = Some(classes);
    single_query(parser.parse_program(catalog)?)
}

/// Parse a program: rules grouped by head name, in first-appearance order. Each group
/// becomes a CQ (single rule) or a UCQ (several rules).
pub fn parse_queries(catalog: &Catalog, input: &str) -> Result<Vec<Query>> {
    Parser::new(input)?.parse_program(catalog)
}

fn single_query(mut queries: Vec<Query>) -> Result<Query> {
    match queries.len() {
        0 => Err(Error::invalid("no query rules found in the input")),
        1 => Ok(queries.remove(0)),
        n => Err(Error::invalid(format!(
            "expected rules for a single query, found {n} differently named queries"
        ))),
    }
}

/// Internal recursive-descent parser state.
struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    position: usize,
    /// Template mode ([`parse_template`]): the input's distinct literals in
    /// first-appearance order; a literal parses to the placeholder of its index here.
    classes: Option<Vec<Value>>,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Result<Self> {
        Ok(Self {
            tokens: tokenize(input)?,
            position: 0,
            classes: None,
        })
    }

    fn parse_program(mut self, catalog: &Catalog) -> Result<Vec<Query>> {
        let mut groups: Vec<(String, Vec<ConjunctiveQuery>)> = Vec::new();
        let mut rule_counter = 0usize;
        while !self.at_eof() {
            let (name, cq) = self.parse_rule(catalog, rule_counter)?;
            rule_counter += 1;
            match groups.iter_mut().find(|(n, _)| n == &name) {
                Some((_, branch)) => branch.push(cq),
                None => groups.push((name, vec![cq])),
            }
        }
        groups
            .into_iter()
            .map(|(name, mut branches)| {
                if branches.len() == 1 {
                    Ok(Query::Cq(branches.remove(0).with_name(name)))
                } else {
                    Ok(Query::Ucq(UnionQuery::from_branches(name, branches)?))
                }
            })
            .collect()
    }

    /// The constant a literal stands for: itself, or in template mode its class's
    /// placeholder.
    fn constant(&self, literal: Value) -> Value {
        match &self.classes {
            None => literal,
            Some(classes) => {
                let class = classes.iter().position(|seen| *seen == literal);
                Value::placeholder(class.expect("every literal token was classed") as u32)
            }
        }
    }

    fn peek(&self) -> &Token<'a> {
        &self.tokens[self.position]
    }

    fn peek_kind(&self) -> &TokenKind<'a> {
        &self.peek().kind
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek_kind(), TokenKind::Eof)
    }

    fn advance(&mut self) -> Token<'a> {
        let token = self.tokens[self.position].clone();
        if self.position + 1 < self.tokens.len() {
            self.position += 1;
        }
        token
    }

    fn check(&self, kind: &TokenKind<'_>) -> bool {
        self.peek_kind() == kind
    }

    fn eat(&mut self, kind: &TokenKind<'_>) -> bool {
        if self.check(kind) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind<'_>) -> Result<Token<'a>> {
        if self.check(kind) {
            Ok(self.advance())
        } else {
            Err(self.unexpected(&kind.describe()))
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.peek_kind().clone() {
            TokenKind::Ident(name) => {
                self.advance();
                Ok(name.to_owned())
            }
            _ => Err(self.unexpected("an identifier")),
        }
    }

    fn expect_keyword(&mut self, keyword: &str) -> Result<()> {
        match self.peek_kind().clone() {
            TokenKind::Ident(name) if name == keyword => {
                self.advance();
                Ok(())
            }
            _ => Err(self.unexpected(&format!("keyword `{keyword}`"))),
        }
    }

    fn unexpected(&self, expected: &str) -> Error {
        let token = self.peek();
        Error::invalid(format!(
            "line {}:{}: expected {expected}, found {}",
            token.line,
            token.column,
            token.kind.describe()
        ))
    }

    /// Parse one rule `Name(args) :- body .` and return its head name and CQ.
    fn parse_rule(
        &mut self,
        catalog: &Catalog,
        index: usize,
    ) -> Result<(String, ConjunctiveQuery)> {
        let name = self.expect_ident()?;
        let mut builder = CqBuilder::new(format!("{name}_{index}"));
        let mut params: Vec<String> = Vec::new();

        self.expect(&TokenKind::LParen)?;
        let mut head: Vec<Arg> = Vec::new();
        if !self.check(&TokenKind::RParen) {
            loop {
                head.push(self.parse_arg(&mut params)?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        builder = builder.head(head);

        self.expect(&TokenKind::Turnstile)?;
        loop {
            // Either a relation atom `R(args)` or an equality `term = term`.
            let checkpoint = self.position;
            let first = self.parse_arg(&mut params)?;
            if self.check(&TokenKind::LParen) {
                // A relation atom; the "argument" we just read must be a plain identifier.
                self.position = checkpoint;
                let relation = self.expect_ident()?;
                self.expect(&TokenKind::LParen)?;
                let mut args: Vec<Arg> = Vec::new();
                if !self.check(&TokenKind::RParen) {
                    loop {
                        args.push(self.parse_arg(&mut params)?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&TokenKind::RParen)?;
                builder = builder.atom(relation, args);
            } else {
                self.expect(&TokenKind::Equals)?;
                let right = self.parse_arg(&mut params)?;
                builder = builder.eq(first, right);
            }
            if self.eat(&TokenKind::Comma) {
                continue;
            }
            self.expect(&TokenKind::Dot)?;
            break;
        }

        builder = builder.params(params);
        Ok((name, builder.build(catalog)?))
    }

    /// Parse an argument: a variable, a `$parameter`, or a constant literal.
    fn parse_arg(&mut self, params: &mut Vec<String>) -> Result<Arg> {
        match self.peek_kind().clone() {
            TokenKind::Ident(name) => {
                self.advance();
                match name {
                    "true" => Ok(Arg::Const(Value::Bool(true))),
                    "false" => Ok(Arg::Const(Value::Bool(false))),
                    _ => Ok(Arg::Var(name.to_owned())),
                }
            }
            TokenKind::Param(name) => {
                self.advance();
                if !params.iter().any(|param| param == name) {
                    params.push(name.to_owned());
                }
                Ok(Arg::Var(name.to_owned()))
            }
            TokenKind::Int(i) => {
                self.advance();
                Ok(Arg::Const(self.constant(Value::Int(i))))
            }
            TokenKind::Str(s) => {
                self.advance();
                Ok(Arg::Const(self.constant(Value::str(s))))
            }
            _ => Err(self.unexpected("a variable, parameter or constant")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bea_core::cover;

    fn accidents_catalog() -> Catalog {
        parse_catalog(
            "relation Accident(aid, district, date);
             relation Casualty(cid, aid, class, vid);
             relation Vehicle(vid, driver, age);",
        )
        .unwrap()
    }

    #[test]
    fn parse_catalog_declarations() {
        let c = accidents_catalog();
        assert_eq!(c.len(), 3);
        assert_eq!(c.relation("Casualty").unwrap().arity(), 4);
        assert!(parse_catalog("relation R(a, a);").is_err());
        assert!(parse_catalog("rel R(a);").is_err());
        assert!(parse_catalog("relation R(a) relation S(b);").is_err());
    }

    #[test]
    fn parse_example_1_1_schema_and_query() {
        let c = accidents_catalog();
        let schema = parse_access_schema(
            &c,
            "Accident(date -> aid, 610);
             Casualty(aid -> vid, 192);
             Accident(aid -> district, date, 1);
             Vehicle(vid -> driver, age, 1);",
        )
        .unwrap();
        assert_eq!(schema.len(), 4);
        assert_eq!(
            schema.constraints()[2].display_with(&c),
            "Accident(aid -> district, date, 1)"
        );

        let q0 = parse_query(
            &c,
            r#"Q0(age) :- Accident(aid, "Queen's Park", "1/5/2005"),
                          Casualty(cid, aid, class, vid),
                          Vehicle(vid, driver, age)."#,
        )
        .unwrap();
        let cq = q0.as_cq().unwrap();
        assert_eq!(cq.arity(), 1);
        assert_eq!(cq.atoms().len(), 3);
        assert!(cover::is_covered(cq, &schema));
    }

    #[test]
    fn parse_empty_key_and_sublinear_bounds() {
        let c = parse_catalog("relation R(a, b, c);").unwrap();
        let schema = parse_access_schema(
            &c,
            "R(-> c, 1);
             R(a, b -> c, log);
             R(a -> b, sqrt);",
        )
        .unwrap();
        assert_eq!(schema.len(), 3);
        assert!(schema.constraints()[0].x().is_empty());
        assert_eq!(schema.constraints()[1].x(), &[0, 1]);
        assert!(matches!(
            schema.constraints()[1].cardinality(),
            Cardinality::Sublinear(SublinearFn::Log2)
        ));
        assert!(matches!(
            schema.constraints()[2].cardinality(),
            Cardinality::Sublinear(SublinearFn::Sqrt)
        ));
    }

    #[test]
    fn parse_parameters_and_equalities() {
        let c = accidents_catalog();
        let q = parse_query(
            &c,
            "Q(age) :- Accident(aid, d, $date), Casualty(cid, aid, class, vid),
                       Vehicle(vid, driver, age), d = $district.",
        )
        .unwrap();
        let cq = q.as_cq().unwrap();
        let params: Vec<&str> = cq.params().iter().map(|&v| cq.var_name(v)).collect();
        assert!(params.contains(&"date"));
        assert!(params.contains(&"district"));
        assert_eq!(cq.equalities().len(), 1);
    }

    #[test]
    fn parse_union_queries() {
        let c = parse_catalog("relation R(a, b);").unwrap();
        let q = parse_query(
            &c,
            "Q(y) :- R(x, y), x = 1.
             Q(y) :- R(x, y), x = 2.",
        )
        .unwrap();
        let Query::Ucq(ucq) = &q else {
            panic!("two rules parse to a union, got {q:?}")
        };
        assert_eq!(ucq.len(), 2);
        assert_eq!(ucq.arity(), 1);
        assert_eq!(ucq.name(), "Q");

        // Two differently named queries are a program, not a single query.
        assert!(parse_query(&c, "Q(y) :- R(x, y). P(y) :- R(y, x).").is_err());
        let program = parse_queries(&c, "Q(y) :- R(x, y). P(y) :- R(y, x).").unwrap();
        assert_eq!(program.len(), 2);
        assert_eq!(program[0].name(), "Q");
        assert_eq!(program[1].name(), "P");
    }

    #[test]
    fn constants_booleans_and_boolean_queries() {
        let c = parse_catalog("relation Flag(id, active);").unwrap();
        let q = parse_query(&c, "Q() :- Flag(x, true), x = -5.").unwrap();
        let cq = q.as_cq().unwrap();
        assert_eq!(cq.arity(), 0);
        assert_eq!(cq.atoms().len(), 1);
        assert_eq!(
            cq.equalities()
                .iter()
                .filter(|e| matches!(e, bea_core::query::cq::Equality::Const(_, _)))
                .count(),
            2
        );
    }

    #[test]
    fn error_reporting() {
        let c = parse_catalog("relation R(a, b);").unwrap();
        let err = parse_query(&c, "Q(x) :- R(x).").unwrap_err();
        assert!(err.to_string().contains("arity"));
        let err = parse_query(&c, "Q(x) :- S(x, y).").unwrap_err();
        assert!(err.to_string().contains("unknown relation"));
        let err = parse_query(&c, "Q(x) R(x, y).").unwrap_err();
        assert!(err.to_string().contains("expected"));
        let err = parse_query(&c, "Q(x) :- R(x, y)").unwrap_err();
        assert!(err.to_string().contains("`.`"));
        let err = parse_query(&c, "").unwrap_err();
        assert!(err.to_string().contains("no query rules"));
        let err = parse_access_schema(&c, "R(a -> b, -2);").unwrap_err();
        assert!(err.to_string().contains("negative"));
        let err = parse_access_schema(&c, "R(a -> b c, 1);").unwrap_err();
        assert!(err.to_string().contains("expected"));
    }

    #[test]
    fn parse_query_rejects_constant_equality_without_variable() {
        let c = parse_catalog("relation R(a, b);").unwrap();
        // `3 = 3` is accepted by the grammar (a degenerate equality), and the query
        // builder normalizes it away.
        let q = parse_query(&c, "Q(x) :- R(x, y), 3 = 3.").unwrap();
        assert_eq!(q.as_cq().unwrap().equalities().len(), 0);
    }
}
