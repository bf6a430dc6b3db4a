//! Workload inputs. Each workload is a request file: its header (Σ,
//! set-valued flags, budgets) starts the server, and its verb lines are
//! what the client side replays and the checks decide in process.
//! Everything here depends on the seed only.

use eqsql_service::{parse_request_file, RequestFile};

/// SplitMix64: a small seeded generator, so inputs are a function of the
/// seed and of nothing else (no dependency on the workspace's generators).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// One workload's distinct requests: `lines[i]` is the wire text of
/// `file.requests[i]`.
pub struct Inputs {
    pub file: RequestFile,
    pub lines: Vec<String>,
}

impl Inputs {
    pub fn parse(text: &str) -> Result<Inputs, String> {
        let file = parse_request_file(text).map_err(|e| format!("request file: {e}"))?;
        let lines: Vec<String> = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter(|l| {
                !matches!(
                    l.split(':').next().map(str::trim),
                    Some("sigma" | "set_valued" | "max_steps" | "max_atoms")
                )
            })
            .map(str::to_string)
            .collect();
        if lines.len() != file.requests.len() {
            return Err(format!(
                "request file has {} verb lines but {} requests",
                lines.len(),
                file.requests.len()
            ));
        }
        Ok(Inputs { file, lines })
    }

    pub fn len(&self) -> usize {
        self.lines.len()
    }
}

/// `passes` back-to-back passes over `n` requests, each pass in its own
/// seeded order: the replay order of the fixed-stream workloads.
pub fn passes(n: usize, passes: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order = Vec::with_capacity(n * passes);
    for _ in 0..passes {
        let mut pass: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut pass);
        order.extend(pass);
    }
    order
}

/// Relations `p1..pM` of the Appendix-H family.
pub const APPENDIX_H_M: usize = 4;
const QUERY_ATOMS: usize = 3;
const VAR_POOL: u64 = 4;
/// Percent of argument positions that hold a constant.
const CONST_PERCENT: u64 = 30;
/// Constants are drawn from `0..CONST_DOMAIN`: wide, so queries are distinct.
const CONST_DOMAIN: u64 = 1_000_000;

#[derive(Clone, Copy)]
enum Arg {
    Var(usize),
    Const(u64),
}

struct GenQuery {
    head: usize,
    atoms: Vec<(usize, [Arg; 2])>,
}

/// Hands out relation triples so that every block of `M^3` queries uses
/// each triple exactly once, in a seeded order. A query's chase cost is
/// set mostly by its relations (a `p1` atom chases to 23 atoms, a `p4`
/// atom to one), so stratifying them keeps each run's mix of cheap and
/// Appendix-H-expensive chases the same from seed to seed.
struct Triples {
    block: Vec<[usize; QUERY_ATOMS]>,
    next: usize,
}

impl Triples {
    fn new() -> Triples {
        Triples { block: Vec::new(), next: 0 }
    }

    fn next(&mut self, rng: &mut Rng) -> [usize; QUERY_ATOMS] {
        if self.next == self.block.len() {
            let m = APPENDIX_H_M;
            self.block = (0..m.pow(QUERY_ATOMS as u32))
                .map(|code| [1 + code % m, 1 + code / m % m, 1 + code / (m * m) % m])
                .collect();
            rng.shuffle(&mut self.block);
            self.next = 0;
        }
        self.next += 1;
        self.block[self.next - 1]
    }
}

impl GenQuery {
    fn random(rng: &mut Rng, triples: &mut Triples) -> GenQuery {
        let rels = triples.next(rng);
        loop {
            let atoms: Vec<(usize, [Arg; 2])> = rels
                .iter()
                .map(|&rel| {
                    let mut arg = || {
                        if rng.below(100) < CONST_PERCENT {
                            Arg::Const(rng.below(CONST_DOMAIN))
                        } else {
                            Arg::Var(rng.below(VAR_POOL) as usize)
                        }
                    };
                    (rel, [arg(), arg()])
                })
                .collect();
            let vars: Vec<usize> = atoms
                .iter()
                .flat_map(|(_, args)| args.iter())
                .filter_map(|a| if let Arg::Var(v) = a { Some(*v) } else { None })
                .collect();
            if vars.is_empty() {
                continue;
            }
            let head = vars[rng.below(vars.len() as u64) as usize];
            return GenQuery { head, atoms };
        }
    }

    /// An α-renamed copy: variables bijectively renamed, atoms shuffled.
    fn twin(&self, rng: &mut Rng) -> GenQuery {
        let mut perm: Vec<usize> = (0..VAR_POOL as usize).collect();
        rng.shuffle(&mut perm);
        let rename = |a: &Arg| match a {
            Arg::Var(v) => Arg::Var(perm[*v]),
            Arg::Const(c) => Arg::Const(*c),
        };
        let mut atoms: Vec<(usize, [Arg; 2])> =
            self.atoms.iter().map(|(rel, [a, b])| (*rel, [rename(a), rename(b)])).collect();
        rng.shuffle(&mut atoms);
        GenQuery { head: perm[self.head], atoms }
    }

    fn render(&self, var_prefix: &str) -> String {
        let arg = |a: &Arg| match a {
            Arg::Var(v) => format!("{var_prefix}{v}"),
            Arg::Const(c) => c.to_string(),
        };
        let body: Vec<String> = self
            .atoms
            .iter()
            .map(|(rel, [a, b])| format!("p{rel}({}, {})", arg(a), arg(b)))
            .collect();
        format!("q({var_prefix}{}) :- {}", self.head, body.join(", "))
    }
}

/// The `appendix_h_fresh` request file: Σ is the Appendix-H family at
/// m = 4 (every relation set-valued with both columns keys, so every tgd is
/// key-based and sound under all three semantics), followed by `n` pairs of
/// distinct 3-atom queries. Even pairs are α-renamed twins (equivalent),
/// odd pairs independent queries (inequivalent, so the counterexample
/// search runs); semantics cycle set, bag, bag-set.
pub fn appendix_h_file(seed: u64, n: usize) -> String {
    let m = APPENDIX_H_M;
    let mut out = format!("# appendix_h_fresh: Appendix-H family m={m}, seed {seed}, {n} pairs\n");
    for i in 1..=m {
        for j in (i + 1)..=m {
            out.push_str(&format!("sigma: p{i}(X, Y) -> p{j}(Z, X).\n"));
            out.push_str(&format!("sigma: p{i}(X, Y) -> p{j}(Y, W).\n"));
        }
    }
    for i in 1..=m {
        out.push_str(&format!("sigma: p{i}(X, Y) & p{i}(X, Z) -> Y = Z.\n"));
        out.push_str(&format!("sigma: p{i}(Y, X) & p{i}(Z, X) -> Y = Z.\n"));
    }
    let rels: Vec<String> = (1..=m).map(|i| format!("p{i}")).collect();
    out.push_str(&format!("set_valued: {}\n\n", rels.join(" ")));
    let mut rng = Rng::new(seed);
    let (mut firsts, mut seconds) = (Triples::new(), Triples::new());
    for k in 0..n {
        let sem = ["set", "bag", "bagset"][k % 3];
        let q1 = GenQuery::random(&mut rng, &mut firsts);
        let (q2, prefix) = if k % 2 == 0 {
            (q1.twin(&mut rng), "A")
        } else {
            (GenQuery::random(&mut rng, &mut seconds), "B")
        };
        out.push_str(&format!("pair: {sem} | {} | {}\n", q1.render("X"), q2.render(prefix)));
    }
    out
}
