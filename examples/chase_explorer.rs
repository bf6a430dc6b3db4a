//! Chase explorer: step-by-step traces of the set chase and the sound
//! bag/bag-set chase, with regularization and per-tgd assignment-fixing
//! verdicts. Run without arguments for a built-in tour of Example 4.1, or
//! pass a file containing a query (first line) and dependencies (rest).
//! With `db=facts.txt` (one `p(1, 2).` fact per statement; repetition =
//! multiplicity) the original and chased queries are also evaluated.
//!
//! ```sh
//! cargo run -p eqsql-examples --bin chase_explorer
//! cargo run -p eqsql-examples --bin chase_explorer -- my_input.txt set_valued=s,t db=facts.txt
//! ```

use eqsql_chase::assignment_fixing::is_assignment_fixing_wrt_query;
use eqsql_chase::{is_key_based, sound_chase, ChaseConfig};
use eqsql_core::Semantics;
use eqsql_cq::{parse_query, CqQuery};
use eqsql_deps::regularize::{is_regularized, regularize_set};
use eqsql_deps::{parse_dependencies, DependencySet};
use eqsql_relalg::Schema;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let db = args.iter().find_map(|a| a.strip_prefix("db=")).map(|path| {
        let text = std::fs::read_to_string(path).expect("readable database file");
        eqsql_relalg::text::parse_database(&text).expect("valid facts")
    });
    let (query, sigma, set_valued) = match args.iter().find(|a| !a.contains('=')) {
        Some(path) => {
            let text = std::fs::read_to_string(path).expect("readable input file");
            let mut lines = text.lines();
            let q = lines.next().expect("first line: query");
            let rest: String = lines.collect::<Vec<_>>().join("\n");
            let set_valued = args
                .iter()
                .find_map(|a| a.strip_prefix("set_valued="))
                .map(|s| s.split(',').map(str::to_string).collect::<Vec<_>>())
                .unwrap_or_default();
            (
                parse_query(q).expect("valid query"),
                parse_dependencies(&rest).expect("valid dependencies"),
                set_valued,
            )
        }
        None => {
            let q = parse_query("q4(X) :- p(X,Y)").unwrap();
            let sigma = parse_dependencies(
                "p(X,Y) -> s(X,Z) & t(X,V,W).\n\
                 p(X,Y) -> t(X,Y,W).\n\
                 p(X,Y) -> r(X).\n\
                 p(X,Y) -> u(X,Z) & t(X,Y,W).\n\
                 s(X,Y) & s(X,Z) -> Y = Z.\n\
                 t(X,Y,W1) & t(X,Y,W2) -> W1 = W2.",
            )
            .unwrap();
            (q, sigma, vec!["s".to_string(), "t".to_string()])
        }
    };
    explore(&query, &sigma, &set_valued, db.as_ref());
}

fn infer_schema(q: &CqQuery, sigma: &DependencySet, set_valued: &[String]) -> Schema {
    // Collect relation arities from the query and Σ.
    let mut schema = Schema::new();
    let mut record = |atom: &eqsql_cq::Atom| {
        if schema.get(atom.pred).is_none() {
            schema.add(eqsql_relalg::RelSchema::bag(atom.pred.name(), atom.arity()));
        }
    };
    q.body.iter().for_each(&mut record);
    for d in sigma.iter() {
        d.lhs().iter().for_each(&mut record);
        if let Some(t) = d.as_tgd() {
            t.rhs.iter().for_each(&mut record);
        }
    }
    for name in set_valued {
        schema.mark_set_valued(eqsql_cq::Predicate::new(name));
    }
    schema
}

fn explore(
    q: &CqQuery,
    sigma: &DependencySet,
    set_valued: &[String],
    db: Option<&eqsql_relalg::Database>,
) {
    let schema = infer_schema(q, sigma, set_valued);
    println!("query: {q}\n");
    println!("schema:\n{schema}");

    println!("Σ as given:");
    for d in sigma.iter() {
        let note = match d.as_tgd() {
            Some(t) if !is_regularized(t) => "  [NOT regularized]",
            _ => "",
        };
        println!("  {d}{note}");
    }
    let reg = regularize_set(sigma);
    println!("\nΣ regularized ({} dependencies):", reg.len());
    for d in reg.iter() {
        println!("  {d}");
    }

    let config = ChaseConfig::default();
    println!("\nper-tgd analysis w.r.t. the query:");
    for tgd in reg.tgds() {
        let fixing = is_assignment_fixing_wrt_query(q, &reg, tgd, &config);
        let fixing_txt = match fixing {
            Ok(Some(true)) => "assignment-fixing",
            Ok(Some(false)) => "NOT assignment-fixing",
            Ok(None) => "not applicable",
            Err(_) => "unknown (budget)",
        };
        let kb = if is_key_based(tgd, &reg, &schema) { ", key-based" } else { "" };
        let sv = if tgd.rhs.iter().all(|a| schema.is_set_valued(a.pred)) {
            ", set-valued conclusions"
        } else {
            ", bag conclusions"
        };
        println!("  {tgd}\n      -> {fixing_txt}{kb}{sv}");
    }

    for sem in [Semantics::Set, Semantics::BagSet, Semantics::Bag] {
        println!("\n=== sound chase under {sem}-semantics ===");
        match sound_chase(sem, q, sigma, &schema, &config) {
            Ok(r) => {
                for line in r.chased.trace.render(&r.sigma_regularized) {
                    println!("  {line}");
                }
                if r.failed {
                    println!("  CHASE FAILED: query unsatisfiable under Σ");
                } else {
                    println!("  result ({} steps): {}", r.steps, r.query);
                    if let Some(db) = db {
                        use eqsql_deps::satisfaction::db_satisfies_all;
                        if !db_satisfies_all(db, sigma) {
                            println!("  [db does not satisfy Σ — answers may differ]");
                        }
                        let a = eqsql_relalg::eval::eval(q, db, sem);
                        let b = eqsql_relalg::eval::eval(&r.query, db, sem);
                        match (a, b) {
                            (Ok(a), Ok(b)) => {
                                println!("  Q(D,{sem})      = {a}");
                                println!("  chased(D,{sem}) = {b}");
                            }
                            _ => println!("  [database not admissible for {sem}-semantics]"),
                        }
                    }
                }
            }
            Err(e) => println!("  error: {e}"),
        }
    }
}
