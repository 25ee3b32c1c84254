//! The component catalog shared by `embedded_detect`, `wire_batch` and
//! `durable_ingest`, its seeded signal stream, and the closed-form oracle
//! for detection and rule-firing counts.
//!
//! Each component `i` owns the explicit events `a<i>` (initiator),
//! `b<i>` (terminator), `c<i>` (A* middle) and `n<i>` (NOT inner), and five
//! composites over them, each watched by one counting rule per parameter
//! context:
//!
//! | composite  | Snoop text              |
//! |------------|-------------------------|
//! | `seq<i>`   | `a<i> ; b<i>`           |
//! | `and<i>`   | `a<i> ^ b<i>`           |
//! | `or<i>`    | `a<i> \| b<i>`          |
//! | `not<i>`   | `NOT(n<i>)[a<i>, b<i>]` |
//! | `astar<i>` | `A*(a<i>, c<i>, b<i>)`  |
//!
//! The stream is cut into epochs of `ROUNDS` rounds per component,
//! interleaved across components at signal granularity. A round of
//! component `i` is `a`×k, an optional `n`, `c`×m, then `b`×k, with
//! k ∈ 1..=3, m ∈ 0..=2 and the `n` present one time in four, all drawn
//! from the seed. The j-th `a` and the j-th `b` of a round both carry
//! `seq = j`. Every terminator has an initiator to consume, so no buffer
//! grows across rounds in any context, and the signals need no
//! transaction.

use std::sync::Arc;

use sentinel_core::detector::Value;
use sentinel_core::snoop::ParamContext;

use crate::common::Rng;

pub const OPS: [&str; 5] = ["seq", "and", "or", "not", "astar"];
pub const ALL_OPS: [usize; 5] = [0, 1, 2, 3, 4];
pub const CTX: [ParamContext; 4] = ParamContext::ALL;
pub const ROUNDS: usize = 4;

pub fn ctx_name(ctx: ParamContext) -> &'static str {
    match ctx {
        ParamContext::Recent => "recent",
        ParamContext::Chronicle => "chronicle",
        ParamContext::Continuous => "continuous",
        ParamContext::Cumulative => "cumulative",
    }
}

/// Snoop source of composite `op` of component `i`.
pub fn expr(op: usize, i: usize) -> String {
    match op {
        0 => format!("a{i} ; b{i}"),
        1 => format!("a{i} ^ b{i}"),
        2 => format!("a{i} | b{i}"),
        3 => format!("NOT(n{i})[a{i}, b{i}]"),
        _ => format!("A*(a{i}, c{i}, b{i})"),
    }
}

pub fn rule_name(op: usize, i: usize, ctx: ParamContext) -> String {
    format!("r_{}{i}_{}", OPS[op], ctx_name(ctx))
}

/// Every Snoop source the catalog parses, in definition order.
pub fn sources(components: usize) -> Vec<String> {
    (0..components).flat_map(|i| (0..OPS.len()).map(move |op| expr(op, i))).collect()
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    A,
    B,
    C,
    N,
}

/// One generated signal.
#[derive(Clone, Copy)]
pub struct Sig {
    pub comp: u16,
    pub kind: Kind,
    /// Index among the signals of this kind in its round.
    pub seq: u32,
    /// A seeded payload value.
    pub v: i64,
}

/// The shape of one round: `a`×k, `n` if poisoned, `c`×m, `b`×k.
#[derive(Clone, Copy)]
pub struct Round {
    pub k: u64,
    pub poisoned: bool,
    pub m: u64,
}

/// One epoch's signals, and the rounds they are made of, per component.
pub struct Epoch {
    pub sigs: Vec<Sig>,
    pub rounds: Vec<Vec<Round>>,
}

/// The seeded stream: `epochs` epoch templates, replayed in a cycle.
pub struct Stream {
    pub epochs: Vec<Epoch>,
    /// Interned event names, `[comp][kind]`.
    pub names: Vec<[String; 4]>,
    pub keys: ParamKeys,
}

#[derive(Clone)]
pub struct ParamKeys {
    pub seq: Arc<str>,
    pub v: Arc<str>,
    pub op: Arc<str>,
}

impl Stream {
    pub fn generate(seed: u64, components: usize, epochs: usize) -> Stream {
        let mut rng = Rng::new(seed);
        let epochs = (0..epochs).map(|_| gen_epoch(&mut rng, components)).collect();
        let names = (0..components)
            .map(|i| [format!("a{i}"), format!("b{i}"), format!("c{i}"), format!("n{i}")])
            .collect();
        let keys = ParamKeys { seq: Arc::from("seq"), v: Arc::from("v"), op: Arc::from("op") };
        Stream { epochs, names, keys }
    }

    pub fn name(&self, s: &Sig) -> &str {
        let k = match s.kind {
            Kind::A => 0,
            Kind::B => 1,
            Kind::C => 2,
            Kind::N => 3,
        };
        &self.names[s.comp as usize][k]
    }

    /// The parameters a signal carries: its per-epoch index, its seeded
    /// value and the run-wide operation number.
    pub fn params(&self, s: &Sig, op: u64) -> Vec<(Arc<str>, Value)> {
        vec![
            (self.keys.seq.clone(), Value::Int(i64::from(s.seq))),
            (self.keys.v.clone(), Value::Int(s.v)),
            (self.keys.op.clone(), Value::Int(op as i64)),
        ]
    }
}

fn gen_epoch(rng: &mut Rng, components: usize) -> Epoch {
    let mut per_comp: Vec<Vec<Sig>> = Vec::with_capacity(components);
    let mut rounds = Vec::with_capacity(components);
    for comp in 0..components {
        let mut sigs = Vec::new();
        let mut shapes = Vec::with_capacity(ROUNDS);
        let sig = |kind: Kind, seq: u64, rng: &mut Rng| Sig {
            comp: comp as u16,
            kind,
            seq: seq as u32,
            v: rng.below(1000) as i64,
        };
        for _ in 0..ROUNDS {
            let r = Round { k: 1 + rng.below(3), poisoned: rng.chance(1, 4), m: rng.below(3) };
            for j in 0..r.k {
                sigs.push(sig(Kind::A, j, rng));
            }
            if r.poisoned {
                sigs.push(sig(Kind::N, 0, rng));
            }
            for j in 0..r.m {
                sigs.push(sig(Kind::C, j, rng));
            }
            for j in 0..r.k {
                sigs.push(sig(Kind::B, j, rng));
            }
            shapes.push(r);
        }
        per_comp.push(sigs);
        rounds.push(shapes);
    }
    // Interleave components at signal granularity; each component's own
    // signals keep their order.
    let mut cursors = vec![0usize; components];
    let mut live: Vec<usize> = (0..components).collect();
    let mut sigs = Vec::new();
    while !live.is_empty() {
        let pick = rng.below(live.len() as u64) as usize;
        let comp = live[pick];
        sigs.push(per_comp[comp][cursors[comp]]);
        cursors[comp] += 1;
        if cursors[comp] == per_comp[comp].len() {
            live.swap_remove(pick);
        }
    }
    Epoch { sigs, rounds }
}

/// What the AND node of a component still buffers between rounds, as
/// counts: the consumption policies leave terminators behind in three
/// contexts (SEQ, NOT, A* and chronicle AND end every round empty).
#[derive(Clone, Copy, Default)]
struct AndCarry {
    /// Recent: a terminator is buffered (after the component's first
    /// round, always).
    recent_b: bool,
    /// Continuous: buffered terminators (initiators are never left over).
    continuous_b: u64,
    /// Cumulative: buffered initiators and terminators.
    cumulative: (u64, u64),
}

/// Detections of one round, `[op][ctx]` in `ParamContext::ALL` order
/// (recent, chronicle, continuous, cumulative), derived from the
/// consumption policies:
/// * SEQ: each `b` pairs with the latest `a` (recent) or its own `a` in
///   FIFO order (chronicle); the first `b` takes every `a` (continuous, k
///   detections) or all at once (cumulative, one detection).
/// * OR: every `a` and `b`, in every context.
/// * NOT: nothing when `n` poisoned the round, else as SEQ.
/// * A*: nothing without a middle `c`; else one detection, except
///   continuous, where each of the k windows detects.
/// * AND: chronicle pairs FIFO (k); the other contexts depend on what the
///   previous round left buffered, counted in [`AndCarry`].
fn round_counts(r: Round, carry: &mut AndCarry) -> [[u64; 4]; 5] {
    let k = r.k;
    let seq = [k, k, k, 1];
    let recent = if carry.recent_b { 2 * k } else { k };
    carry.recent_b = true;
    // Continuous: an arrival drains the other side if it holds anything,
    // else it waits.
    let b = carry.continuous_b;
    let waiting_a = if b > 0 { k - 1 } else { k };
    let continuous = b + waiting_a;
    carry.continuous_b = if waiting_a > 0 { k - 1 } else { k };
    // Cumulative: once both sides hold something, one detection takes all.
    let mut cumulative = 0;
    let (mut na, mut nb) = carry.cumulative;
    let k_usize = k as usize;
    for is_a in std::iter::repeat_n(true, k_usize).chain(std::iter::repeat_n(false, k_usize)) {
        if is_a {
            na += 1;
        } else {
            nb += 1;
        }
        if na > 0 && nb > 0 {
            cumulative += 1;
            (na, nb) = (0, 0);
        }
    }
    carry.cumulative = (na, nb);
    [
        seq,
        [recent, k, continuous, cumulative],
        [2 * k; 4],
        if r.poisoned { [0; 4] } else { seq },
        if r.m > 0 { [1, 1, k, 1] } else { [0; 4] },
    ]
}

/// Expected totals over a run: `[comp][op][ctx]` firings summed over the
/// epochs replayed, and the detection total.
pub struct Expected {
    pub counts: Vec<[[u64; 4]; 5]>,
    pub detections: u64,
    carry: Vec<AndCarry>,
}

impl Expected {
    pub fn new(components: usize) -> Expected {
        Expected {
            counts: vec![[[0; 4]; 5]; components],
            detections: 0,
            carry: vec![AndCarry::default(); components],
        }
    }

    pub fn add_epoch(&mut self, e: &Epoch) {
        for (i, rounds) in e.rounds.iter().enumerate() {
            for r in rounds {
                let got = round_counts(*r, &mut self.carry[i]);
                for (acc, row) in self.counts[i].iter_mut().zip(got) {
                    for (a, n) in acc.iter_mut().zip(row) {
                        *a += n;
                        self.detections += n;
                    }
                }
            }
        }
    }

    /// Drops the expectations of composites the catalog does not define.
    pub fn keep_only(&mut self, ops: &[usize]) {
        for counts in &mut self.counts {
            for (op, row) in counts.iter_mut().enumerate() {
                if !ops.contains(&op) {
                    self.detections -= row.iter().sum::<u64>();
                    *row = [0; 4];
                }
            }
        }
    }

    /// Adds one expected firing when `on` (the self-test's deliberately
    /// wrong expectation).
    pub fn skew(&mut self, on: bool) {
        if on {
            self.counts[0][0][0] += 1;
            self.detections += 1;
        }
    }

    /// Compares observed firings `[comp][op][ctx]` with the expectation.
    pub fn compare(&self, seen: impl Fn(usize, usize, usize) -> u64) -> Vec<String> {
        let mut errs = Vec::new();
        for (i, exp) in self.counts.iter().enumerate() {
            for op in 0..5 {
                for (c, ctx) in CTX.iter().enumerate() {
                    let got = seen(i, op, c);
                    if got != exp[op][c] {
                        errs.push(format!(
                            "{}{i}/{}: {got} firings, oracle says {}",
                            OPS[op],
                            ctx_name(*ctx),
                            exp[op][c]
                        ));
                    }
                }
            }
        }
        errs
    }
}

/// Rule firings observed by the benchmark's own counting rules, plus the
/// chronicle pairing checks those rules make.
pub struct Firings {
    counts: Vec<std::sync::atomic::AtomicU64>,
    pub pair_checks: std::sync::atomic::AtomicU64,
    pub pair_errors: std::sync::atomic::AtomicU64,
}

impl Firings {
    pub fn new(components: usize) -> Arc<Firings> {
        Arc::new(Firings {
            counts: (0..components * 20).map(|_| Default::default()).collect(),
            pair_checks: Default::default(),
            pair_errors: Default::default(),
        })
    }

    pub fn get(&self, comp: usize, op: usize, ctx: usize) -> u64 {
        self.counts[(comp * 5 + op) * 4 + ctx].load(std::sync::atomic::Ordering::SeqCst)
    }
}

/// How the catalog's counting rules are defined.
pub enum Rules {
    /// Benchmark closures that count into [`Firings`] and check chronicle
    /// pairing (embedded and wire runs).
    Closures(Arc<Firings>),
    /// Catalog `{"action": "count"}` rule specs, which are journaled and so
    /// survive a durable reopen; fire counts land in `rule_hits`.
    CatalogCount,
}

/// Defines the component catalog on `s`: explicit events, composites
/// parsed from their Snoop text, and one counting rule per composite and
/// context.
pub fn install(
    s: &sentinel_core::Sentinel,
    components: usize,
    rules: &Rules,
    ops: &[usize],
) -> sentinel_core::sentinel::SentinelResult<()> {
    use sentinel_core::obs::json;
    use sentinel_core::rules::manager::RuleOptions;
    use std::sync::atomic::Ordering;

    for i in 0..components {
        for p in ["a", "b", "c", "n"] {
            s.declare_explicit(&format!("{p}{i}"))?;
        }
        for &op in ops {
            let event = format!("{}{i}", OPS[op]);
            s.define_event(&event, &expr(op, i))?;
            for (c, ctx) in CTX.iter().enumerate() {
                let name = rule_name(op, i, *ctx);
                match rules {
                    Rules::Closures(f) => {
                        let f = f.clone();
                        let slot = (i * 5 + op) * 4 + c;
                        // Chronicle SEQ, AND and A* consume initiators in
                        // FIFO order: the k-th terminator of an epoch pairs
                        // with the k-th initiator.
                        let check_pair = *ctx == ParamContext::Chronicle && op != 2 && op != 3;
                        s.define_rule(
                            &name,
                            &event,
                            Arc::new(|_| true),
                            Arc::new(move |inv| {
                                f.counts[slot].fetch_add(1, Ordering::Relaxed);
                                if check_pair {
                                    let cons = &inv.occurrence.constituents;
                                    let seq = |o: Option<
                                        &Arc<sentinel_core::detector::Occurrence>,
                                    >| {
                                        o.and_then(|o| o.params.first()).map(|(_, v)| v.as_i64())
                                    };
                                    f.pair_checks.fetch_add(1, Ordering::Relaxed);
                                    if seq(cons.first()) != seq(cons.last()) {
                                        f.pair_errors.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                            }),
                            RuleOptions::default().context(*ctx),
                        )?;
                    }
                    Rules::CatalogCount => {
                        let spec = json::Value::obj([
                            ("name", json::Value::str(&name)),
                            ("event", json::Value::str(&event)),
                            ("context", json::Value::str(ctx_name(*ctx))),
                            ("action", json::Value::obj([("action", json::Value::str("count"))])),
                        ]);
                        s.define_rule_spec(&spec)?;
                    }
                }
            }
        }
    }
    Ok(())
}

/// Mean time of one `parse_event_expr` over `srcs`, repeated until about
/// 2000 parses have run, µs.
pub fn parse_us<S: AsRef<str>>(srcs: &[S]) -> f64 {
    let reps = 2000usize.div_ceil(srcs.len().max(1));
    let t = std::time::Instant::now();
    for _ in 0..reps {
        for src in srcs {
            let e = sentinel_core::snoop::parse_event_expr(std::hint::black_box(src.as_ref()));
            std::hint::black_box(e.expect("catalog source parses"));
        }
    }
    t.elapsed().as_secs_f64() * 1e6 / (reps * srcs.len()).max(1) as f64
}
