//! Random bag databases and their Σ-repairs.

use eqsql_chase::instance::chase_database;
use eqsql_chase::{ChaseConfig, RunGuard};
use eqsql_deps::DependencySet;
use eqsql_relalg::{Database, Schema, Tuple};
use rand::Rng;

/// Parameters for [`random_database`].
#[derive(Clone, Copy, Debug)]
pub struct DbParams {
    /// Distinct tuples per relation.
    pub tuples_per_relation: usize,
    /// Value domain `0..domain`.
    pub domain: i64,
    /// Probability a tuple gets multiplicity > 1 (bag relations only).
    pub dup_prob: f64,
    /// Maximum multiplicity for duplicated tuples.
    pub max_mult: u64,
}

impl Default for DbParams {
    fn default() -> Self {
        DbParams { tuples_per_relation: 4, domain: 5, dup_prob: 0.3, max_mult: 3 }
    }
}

/// Generates a random database for the schema. Relations the schema marks
/// set-valued receive multiplicity-1 tuples only.
pub fn random_database<R: Rng>(rng: &mut R, schema: &Schema, p: &DbParams) -> Database {
    let mut db = Database::empty_of(schema);
    for rel in schema.iter() {
        for _ in 0..p.tuples_per_relation {
            let tuple = Tuple::ints((0..rel.arity).map(|_| rng.gen_range(0..p.domain.max(1))));
            let mult = if !rel.set_valued && rng.gen_bool(p.dup_prob) {
                rng.gen_range(2..=p.max_mult.max(2))
            } else {
                1
            };
            let r = db.get_or_create(rel.name, rel.arity);
            if r.contains(&tuple) {
                continue; // keep tuple sets distinct; multiplicity set here
            }
            r.insert(tuple, mult);
        }
    }
    db
}

/// Generates a random database and repairs it into a model of Σ with the
/// instance chase. Returns `None` when the chase fails (egds equate
/// distinct constants) or exceeds its budget — callers typically retry
/// with the next seed.
pub fn repaired_database<R: Rng>(
    rng: &mut R,
    schema: &Schema,
    sigma: &DependencySet,
    p: &DbParams,
    config: &ChaseConfig,
) -> Option<Database> {
    let db = random_database(rng, schema, p);
    match chase_database(&db, sigma, config, &RunGuard::unguarded()) {
        Ok(r) if !r.failed => {
            // The repair may have added tuples with multiplicities on
            // set-valued relations? No: tgd repairs insert distinct
            // tuples. But egd merges can collide; flatten set-valued
            // relations to stay schema-conformant.
            let mut out = r.db;
            for rel in schema.set_valued_relations() {
                if let Some(existing) = out.get(rel) {
                    if !existing.is_set_valued() {
                        let flat = existing.to_set();
                        let arity = flat.arity();
                        *out.get_or_create(rel, arity) = flat;
                    }
                }
            }
            Some(out)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqsql_deps::{parse_dependencies, satisfaction::db_satisfies_all};
    use eqsql_relalg::RelSchema;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schema() -> Schema {
        Schema::from_relations([
            RelSchema::bag("p", 2),
            RelSchema::set("s", 2),
            RelSchema::bag("u", 1),
        ])
    }

    #[test]
    fn set_valued_relations_stay_sets() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let db = random_database(&mut rng, &schema(), &DbParams::default());
            assert!(db.get_str("s").unwrap().is_set_valued());
        }
    }

    #[test]
    fn bag_relations_do_get_duplicates() {
        let mut rng = StdRng::seed_from_u64(3);
        let found_dup = (0..20).any(|_| {
            let db = random_database(
                &mut rng,
                &schema(),
                &DbParams { dup_prob: 0.9, ..DbParams::default() },
            );
            !db.get_str("p").unwrap().is_set_valued()
        });
        assert!(found_dup);
    }

    #[test]
    fn repaired_databases_satisfy_sigma() {
        let sigma = parse_dependencies(
            "p(X,Y) -> s(X,Z).\n\
             s(X,Y) & s(X,Z) -> Y = Z.",
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut produced = 0;
        for _ in 0..30 {
            if let Some(db) = repaired_database(
                &mut rng,
                &schema(),
                &sigma,
                &DbParams::default(),
                &ChaseConfig::default(),
            ) {
                produced += 1;
                assert!(db_satisfies_all(&db, &sigma));
                assert!(db.get_str("s").unwrap().is_set_valued());
            }
        }
        assert!(produced > 0, "at least some repairs must succeed");
    }
}
