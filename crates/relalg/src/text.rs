//! A plain-text database format.
//!
//! One fact per statement, `.`-terminated; repeating a fact raises its
//! multiplicity (bag notation by repetition):
//!
//! ```text
//! % Example 4.1's counterexample database
//! p(1, 2).
//! u(1, 5). u(1, 6).
//! s(1, 'oslo').
//! ```
//!
//! [`parse_database`] reads this; [`render_database`] writes it back
//! (multiplicities expanded), so databases round-trip.

use crate::database::Database;
use crate::tuple::Tuple;
use eqsql_cq::lex::Token;
use eqsql_cq::parser::{Cursor, ParseError};
use eqsql_cq::{Term, Value};

/// Parses a fact database. Every argument must be a constant.
pub fn parse_database(input: &str) -> Result<Database, ParseError> {
    let mut c = Cursor::new(input)?;
    let mut db = Database::new();
    while !c.done() {
        let atom = c.parse_atom()?;
        c.eat(&Token::Dot);
        let mut vals: Vec<Value> = Vec::with_capacity(atom.args.len());
        for t in &atom.args {
            match t {
                Term::Const(v) => vals.push(*v),
                Term::Var(v) => {
                    return Err(ParseError {
                        msg: format!("facts must be ground; found variable '{v}'"),
                        at: usize::MAX,
                    })
                }
            }
        }
        db.insert(atom.pred.name(), Tuple::new(vals), 1);
    }
    Ok(db)
}

/// Renders a database in the fact format (multiplicities expanded, sorted
/// deterministically).
pub fn render_database(db: &Database) -> String {
    let mut out = String::new();
    for (pred, rel) in db.iter() {
        for (tuple, mult) in rel.iter() {
            for _ in 0..mult {
                out.push_str(pred.name());
                out.push('(');
                for (i, v) in tuple.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&v.to_string());
                }
                out.push_str(").\n");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_facts() {
        let db = parse_database("p(1, 2). p(1, 3). r(1).").unwrap();
        assert_eq!(db.get_str("p").unwrap().len(), 2);
        assert_eq!(db.get_str("r").unwrap().len(), 1);
    }

    #[test]
    fn repetition_is_multiplicity() {
        let db = parse_database("u(1, 5). u(1, 5). u(1, 5).").unwrap();
        assert_eq!(db.get_str("u").unwrap().multiplicity(&Tuple::ints([1, 5])), 3);
        assert!(!db.is_set_valued());
    }

    #[test]
    fn strings_and_reals() {
        let db = parse_database("s(1, 'oslo'). m(2.5).").unwrap();
        let s = db.get_str("s").unwrap().core_set().next().unwrap().clone();
        assert_eq!(s[1], Value::str("oslo"));
        let m = db.get_str("m").unwrap().core_set().next().unwrap().clone();
        assert_eq!(m[0], Value::real(2.5));
    }

    #[test]
    fn variables_rejected() {
        assert!(parse_database("p(X, 2).").is_err());
    }

    #[test]
    fn comments_and_whitespace() {
        let db = parse_database("% a comment\n  p(1,2).\n\n% another\nr(3).").unwrap();
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn round_trip() {
        let text = "p(1, 2).\np(1, 2).\nr('x').\n";
        let db = parse_database(text).unwrap();
        let rendered = render_database(&db);
        let db2 = parse_database(&rendered).unwrap();
        assert_eq!(db, db2);
    }
}
