//! `oodb_txn`: top-level transactions on persistent objects of a reactive
//! class, over the in-memory storage engine with a buffer pool smaller than
//! the object set. Method events form composites whose immediate rules
//! update other objects in nested subtransactions; a deferred rule runs
//! once at pre-commit. Rules run in `ExecutionMode::Threaded`, and every
//! commit flushes the event graph (the default flush rule).
//!
//! The benchmark keeps its own model of what the rules must do and checks
//! every object against it at the end of each cycle, and again after a
//! storage restart over the cycle's WAL and pages.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use sentinel_core::detector::graph::PrimTarget;
use sentinel_core::detector::Occurrence;
use sentinel_core::oodb::invoke::MethodBody;
use sentinel_core::oodb::schema::{AttrType, ClassDef};
use sentinel_core::oodb::{AttrValue, Database, ObjectState, Oid};
use sentinel_core::rules::manager::RuleOptions;
use sentinel_core::rules::ExecutionMode;
use sentinel_core::snoop::ast::EventModifier;
use sentinel_core::snoop::{CouplingMode, ParamContext};
use sentinel_core::storage::disk::{DiskManager, MemDisk};
use sentinel_core::storage::wal::{LogStore, MemLogStore};
use sentinel_core::storage::{StorageEngine, StorageStats, TxnId};
use sentinel_core::{Sentinel, SentinelConfig};

use crate::common::{self, Meter, Outcome, Rng, Tracer};
use crate::Cfg;

const DEPOSIT: &str = "void deposit(int amt)";
const WITHDRAW: &str = "void withdraw(int amt)";
const BUMP: &str = "void bump(int by)";
const MARK: &str = "void mark()";
const RECORD: &str = "void record(int n)";

/// Objects in the database, and buffer-pool frames (4 KiB pages): the
/// objects fill more pages than the pool holds.
const OBJECTS: usize = 4096;
const FRAMES: usize = 32;
/// Transaction templates generated from the seed (replayed in a cycle).
const TEMPLATES: usize = 512;
const RULE_WORKERS: usize = 2;

/// The Snoop catalog of this workload.
pub const SOURCES: [(&str, &str); 2] = [("dw", "dep ; wd"), ("dnw", "dep ^ wd")];

#[derive(Clone, Copy)]
enum Op {
    Deposit(usize, i64),
    Withdraw(usize, i64),
}

/// Seeded transactions: each starts with a deposit, then 2–7 deposits or
/// withdrawals; objects are drawn with a skew towards low indices (the
/// product of two uniform draws), amounts uniformly from 1..=100.
fn templates(seed: u64) -> Vec<Vec<Op>> {
    let mut rng = Rng::new(seed);
    let n = OBJECTS as u64;
    let pick = move |rng: &mut Rng| (rng.below(n) * rng.below(n) / n) as usize;
    (0..TEMPLATES)
        .map(|_| {
            let len = 3 + rng.below(6);
            (0..len)
                .map(|i| {
                    let (o, amt) = (pick(&mut rng), 1 + rng.below(100) as i64);
                    if i == 0 || rng.chance(1, 2) {
                        Op::Deposit(o, amt)
                    } else {
                        Op::Withdraw(o, amt)
                    }
                })
                .collect()
        })
        .collect()
}

/// The benchmark's model of the objects after the rules have run.
#[derive(Clone, Default, PartialEq, Debug)]
struct Acct {
    balance: i64,
    credit: i64,
    hits: i64,
    tally: i64,
}

struct Model {
    accts: Vec<Acct>,
    txns: i64,
    deps: i64,
}

impl Model {
    /// Applies one committed transaction:
    /// * `dw = dep ; wd` (recent, immediate): each withdrawal after a
    ///   deposit of the same transaction credits the withdrawn account's
    ///   partner with the latest deposit's amount;
    /// * `dnw = dep ^ wd` (chronicle, immediate): deposits and withdrawals
    ///   pair first-in-first-out, and each pair marks its deposit's account;
    /// * `dep` (cumulative, deferred): once at pre-commit, the audit object
    ///   counts the transaction and its deposits.
    fn apply(&mut self, ops: &[Op]) {
        let mut last_dep = None;
        let (mut depq, mut wdq) = (VecDeque::new(), 0usize);
        for op in ops {
            match *op {
                Op::Deposit(o, amt) => {
                    self.accts[o].balance += amt;
                    last_dep = Some(amt);
                    depq.push_back(o);
                    self.deps += 1;
                }
                Op::Withdraw(o, amt) => {
                    self.accts[o].balance -= amt;
                    if let Some(d) = last_dep {
                        let p = partner(o);
                        self.accts[p].credit += d;
                        self.accts[p].hits += 1;
                    }
                    wdq += 1;
                }
            }
            while wdq > 0 && !depq.is_empty() {
                let d = depq.pop_front().expect("non-empty");
                wdq -= 1;
                self.accts[d].tally += 1;
            }
        }
        self.txns += 1;
    }
}

fn partner(o: usize) -> usize {
    (o + 1) % OBJECTS
}

thread_local! {
    /// Span id of the top-level `oodb.invoke` open on this thread, so the
    /// method body can record itself as its child.
    static INVOKE_SPAN: Cell<u64> = const { Cell::new(0) };
}

struct System {
    s: Arc<Sentinel>,
    disk: Arc<MemDisk>,
    log: Arc<MemLogStore>,
    oids: Arc<Vec<Oid>>,
    audit: Oid,
}

fn build(tracer: Option<Arc<Tracer>>) -> System {
    let disk = Arc::new(MemDisk::new());
    let log = Arc::new(MemLogStore::new());
    let engine = StorageEngine::open_with_capacity(
        disk.clone() as Arc<dyn DiskManager>,
        log.clone() as Arc<dyn LogStore>,
        FRAMES,
    )
    .expect("in-memory engine opens");
    let s = Sentinel::open(
        Arc::new(engine),
        SentinelConfig {
            mode: ExecutionMode::Threaded { workers: RULE_WORKERS },
            ..SentinelConfig::default()
        },
    )
    .expect("sentinel opens");
    register(s.db(), tracer);
    s.declare_event("dep", "ACCOUNT", EventModifier::End, DEPOSIT, PrimTarget::AnyInstance)
        .expect("declare dep");
    s.declare_event("wd", "ACCOUNT", EventModifier::End, WITHDRAW, PrimTarget::AnyInstance)
        .expect("declare wd");
    for (name, src) in SOURCES {
        s.define_event(name, src).expect("composite parses");
    }

    // Population.
    let mut oids = Vec::with_capacity(OBJECTS);
    for chunk in 0..OBJECTS.div_ceil(256) {
        let t = s.begin().expect("begin");
        for _ in (chunk * 256)..((chunk + 1) * 256).min(OBJECTS) {
            let state = ObjectState::new("ACCOUNT")
                .with("balance", 0i64)
                .with("credit", 0i64)
                .with("hits", 0i64)
                .with("tally", 0i64);
            oids.push(s.create_object(t, &state).expect("create account"));
        }
        s.commit(t).expect("commit population");
    }
    let t = s.begin().expect("begin");
    let audit = s
        .create_object(t, &ObjectState::new("AUDIT").with("txns", 0i64).with("deps", 0i64))
        .expect("create audit");
    s.commit(t).expect("commit audit");
    let oids = Arc::new(oids);
    define_rules(&s, &oids, audit);
    System { s, disk, log, oids, audit }
}

fn register(db: &Database, tracer: Option<Arc<Tracer>>) {
    db.register_class(
        ClassDef::new("ACCOUNT")
            .extends("REACTIVE")
            .attr("balance", AttrType::Int)
            .attr("credit", AttrType::Int)
            .attr("hits", AttrType::Int)
            .attr("tally", AttrType::Int)
            .method(DEPOSIT)
            .method(WITHDRAW)
            .method(BUMP)
            .method(MARK),
    )
    .expect("register ACCOUNT");
    db.register_class(
        ClassDef::new("AUDIT")
            .extends("REACTIVE")
            .attr("txns", AttrType::Int)
            .attr("deps", AttrType::Int)
            .method(RECORD),
    )
    .expect("register AUDIT");
    let deposit: &[(&str, Option<&str>)] = &[("balance", Some("amt"))];
    db.register_method("ACCOUNT", DEPOSIT, body(deposit, 1, tracer.clone()));
    db.register_method("ACCOUNT", WITHDRAW, body(deposit, -1, tracer));
    db.register_method("ACCOUNT", BUMP, body(&[("credit", Some("by")), ("hits", None)], 1, None));
    db.register_method("ACCOUNT", MARK, body(&[("tally", None)], 1, None));
    db.register_method("AUDIT", RECORD, body(&[("deps", Some("n")), ("txns", None)], 1, None));
}

/// A method body that adds `sign` × the argument `arg` (or 1 when `arg` is
/// `None`) to each listed attribute. A call made directly by the client
/// thread records an `oodb.body` span under its `oodb.invoke` span.
fn body(
    adds: &'static [(&'static str, Option<&'static str>)],
    sign: i64,
    tracer: Option<Arc<Tracer>>,
) -> MethodBody {
    Arc::new(move |ctx| {
        let parent = INVOKE_SPAN.with(Cell::get);
        let span =
            tracer.as_ref().filter(|_| parent != 0).map(|tr| tr.begin("oodb.body", 0, parent));
        for (attr, arg) in adds {
            let by = arg.map_or(1, |a| ctx.arg(a).and_then(AttrValue::as_int).unwrap_or(0));
            let cur = ctx.get_attr(attr)?.as_int().unwrap_or(0);
            ctx.set_attr(attr, cur + sign * by)?;
        }
        if let (Some(tr), Some(span)) = (&tracer, span) {
            tr.end(span);
        }
        Ok(AttrValue::Null)
    })
}

fn define_rules(s: &Arc<Sentinel>, oids: &Arc<Vec<Oid>>, audit: Oid) {
    let index: Arc<HashMap<u64, usize>> =
        Arc::new(oids.iter().enumerate().map(|(i, o)| (o.0, i)).collect());
    let int = |o: &Occurrence, k: &str| {
        o.params.iter().find(|(n, _)| &**n == k).and_then(|(_, v)| v.as_i64()).unwrap_or(0)
    };

    // Rule actions hold the system weakly: the rule manager lives inside it.
    let (w, ix, os) = (Arc::downgrade(s), index.clone(), oids.clone());
    s.define_rule(
        "credit_partner",
        "dw",
        Arc::new(|_| true),
        Arc::new(move |inv| {
            let Some(s) = Weak::upgrade(&w) else { return };
            let cons = &inv.occurrence.constituents;
            let (dep, wd) = (&cons[0], &cons[cons.len() - 1]);
            let target = os[partner(ix[&wd.source.expect("method event has a source")])];
            let txn = TxnId(inv.txn.expect("rule runs in a transaction"));
            s.invoke(txn, target, BUMP, vec![("by".into(), int(dep, "amt").into())])
                .expect("bump partner");
        }),
        RuleOptions::default().context(ParamContext::Recent).priority(20),
    )
    .expect("define credit_partner");

    let w = Arc::downgrade(s);
    s.define_rule(
        "tally_pair",
        "dnw",
        Arc::new(|_| true),
        Arc::new(move |inv| {
            let Some(s) = Weak::upgrade(&w) else { return };
            // Constituents come in arrival order, so a pair closed by a
            // deposit lists the withdrawal first.
            let cons = &inv.occurrence.constituents;
            let dep = cons.iter().find(|c| &*c.event_name == "dep").expect("pair has a deposit");
            let txn = TxnId(inv.txn.expect("rule runs in a transaction"));
            s.invoke(txn, Oid(dep.source.expect("method event has a source")), MARK, vec![])
                .expect("mark deposit");
        }),
        RuleOptions::default().context(ParamContext::Chronicle).priority(10),
    )
    .expect("define tally_pair");

    let w = Arc::downgrade(s);
    s.define_rule(
        "audit",
        "dep",
        Arc::new(|_| true),
        Arc::new(move |inv| {
            let Some(s) = Weak::upgrade(&w) else { return };
            let deps =
                inv.occurrence.param_list().iter().filter(|o| &*o.event_name == "dep").count();
            let txn = TxnId(inv.txn.expect("rule runs in a transaction"));
            s.invoke(txn, audit, RECORD, vec![("n".into(), (deps as i64).into())])
                .expect("record audit");
        }),
        RuleOptions::default().context(ParamContext::Cumulative).coupling(CouplingMode::Deferred),
    )
    .expect("define audit");
}

/// The measured phase is a run of identical cycles until the time is up.
/// A cycle builds and populates a fresh system, runs the same
/// `Cfg::oodb_cycle` transactions, checks every object against the model,
/// then restarts storage over the cycle's pages and WAL (timed) and checks
/// again. The WAL and the process's memory grow with every transaction, so
/// in one long run `recovery_s` and `peak_rss_mb` followed the number of
/// transactions the run managed; per cycle they follow a fixed amount of
/// input. `recovery_s` is the best fiftieth of the cycles' restart times,
/// and `peak_rss_mb` the peak RSS right after the first cycle's restart.
///
/// The pass runs pinned to one CPU, with every thread it starts. A
/// transaction hands its method events to two rule workers and waits for
/// them at commit, so unpinned each transaction made several wake-ups
/// across the two vCPUs, and their cost followed the host's load. Five
/// alternating pairs of 12 s runs on the reference machine, in one noisy
/// hour: unpinned 3 250 transactions/s with an interquartile spread of 24%
/// (p99 32%), pinned 6 200/s with 10% (p99 13%). The same pairs of
/// `durable_ingest` and `wire_batch` spread less unpinned (14% and 11%
/// against 38% and 29%), so they run unpinned. Pinned, the two rule workers
/// share the CPU with the transaction thread: a change that only spreads
/// rule work over more cores shows no gain here.
pub fn run(cfg: &Cfg, tracer: Option<Arc<Tracer>>) -> Outcome {
    let pinned = common::pin_to_one_cpu();
    match &pinned {
        Some((cpu, _)) => println!("oodb_txn pinned to cpu {cpu}"),
        None => println!("oodb_txn not pinned: CPU affinity unavailable"),
    }
    let out = run_pinned(cfg, tracer);
    if let Some((_, mask)) = pinned {
        common::restore_affinity(&mask);
    }
    out
}

fn run_pinned(cfg: &Cfg, tracer: Option<Arc<Tracer>>) -> Outcome {
    let mut out = Outcome::default();
    let txns = templates(cfg.seed);
    let mut setups = Vec::new();
    for _ in 0..cfg.setups {
        let t = Instant::now();
        let sys = build(tracer.clone());
        setups.push(t.elapsed().as_secs_f64());
        drop(sys);
    }

    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut meter = Meter::start(0);
    let (mut done, mut recoveries, mut peak_rss) = (0u64, Vec::new(), 0.0);
    while recoveries.is_empty() || Instant::now() < deadline {
        let first = recoveries.is_empty();
        let t = Instant::now();
        let sys = build(tracer.clone());
        setups.push(t.elapsed().as_secs_f64());
        let mut model = Model { accts: vec![Acct::default(); OBJECTS], txns: 0, deps: 0 };
        let mut d = TxnClient { sys: &sys, txns: &txns, op: 0, failed: 0, errors: Vec::new() };
        let st0 = sys.s.db().engine().stats();
        meter.resume();
        d.run(cfg.oodb_cycle, (&mut meter, done), &mut model, tracer.as_deref());
        done += d.op;
        meter.pause(done);
        let st1 = sys.s.db().engine().stats();
        out.failed += d.failed;
        if out.errors.len() < 8 {
            out.errors.append(&mut d.errors);
        }
        if cfg.skew_oracle {
            model.txns += 1;
        }
        if first {
            out.layer.push((
                "detector.shard_labels",
                sys.s.detector().shard_count() as f64,
                "count",
            ));
            if tracer.is_some() {
                storage_layer(&mut out, &st0, &st1, cfg.oodb_cycle as f64);
            }
        }
        let (recovery, rss) = cycle_checks(&mut out, sys, &model);
        recoveries.push(recovery);
        if first {
            peak_rss = rss;
        }
    }
    out.attempted = done;
    println!("oodb cycles {}", recoveries.len());

    if let Some(tr) = &tracer {
        out.spans = tr.take();
        let totals = common::span_totals(&out.spans);
        let mean_us = |n: &str| {
            let t = totals.get(n).copied().unwrap_or_default();
            t.self_ns as f64 / t.count.max(1) as f64 / 1e3
        };
        out.layer.push(("txn.begin_us", mean_us("txn.begin"), "us"));
        out.layer.push(("txn.commit_us", mean_us("txn.commit"), "us"));
        out.layer.push(("oodb.invoke_us", mean_us("oodb.invoke"), "us"));
    }
    meter.finish(done, &mut out, setups, common::quantile(recoveries, common::BEST), peak_rss);
    out
}

/// Storage figures of one cycle's transactions, from `StorageEngine::stats`
/// before and after them.
fn storage_layer(out: &mut Outcome, st0: &StorageStats, st1: &StorageStats, txns: f64) {
    let hits = (st1.buffer.hits - st0.buffer.hits) as f64;
    let misses = (st1.buffer.misses - st0.buffer.misses) as f64;
    out.layer.push((
        "storage.wal_bytes_per_txn",
        (st1.wal.bytes - st0.wal.bytes) as f64 / txns,
        "B",
    ));
    out.layer.push((
        "storage.page_writes_per_txn",
        (st1.buffer.page_writes - st0.buffer.page_writes) as f64 / txns,
        "count",
    ));
    out.layer.push(("storage.buffer_hit_ratio", hits / (hits + misses).max(1.0), "ratio"));
}

/// Checks the objects through the live system, drops it, restarts storage
/// over its pages and WAL, and checks them again. Returns the restart time,
/// seconds, and the peak RSS right after it.
fn cycle_checks(out: &mut Outcome, sys: System, model: &Model) -> (f64, f64) {
    let t = sys.s.begin().expect("begin check");
    check_state(out, "live", model, (&sys.oids, sys.audit), |oid| sys.s.get_object(t, oid).ok());
    sys.s.commit(t).expect("commit check");
    let System { s, disk, log, oids, audit } = sys;
    drop(s);
    let t = Instant::now();
    let engine = StorageEngine::open_with_capacity(
        disk as Arc<dyn DiskManager>,
        log as Arc<dyn LogStore>,
        FRAMES,
    )
    .map(Arc::new);
    let db = engine
        .map_err(|e| e.to_string())
        .and_then(|e| Database::open(e).map_err(|e| e.to_string()));
    let recovery = t.elapsed().as_secs_f64();
    let rss = common::peak_rss_mb();
    match db {
        Ok(db) => {
            let t = db.begin().expect("begin after restart");
            check_state(out, "after restart", model, (&oids, audit), |oid| {
                db.get_object(t, oid).ok()
            });
            let _ = db.commit(t);
        }
        Err(e) => out.errors.push(format!("storage restart failed: {e}")),
    }
    (recovery, rss)
}

fn int_attr(s: &ObjectState, k: &str) -> i64 {
    s.get(k).and_then(AttrValue::as_int).unwrap_or(i64::MIN)
}

/// Every account and the audit object must equal the model.
fn check_state(
    out: &mut Outcome,
    when: &str,
    model: &Model,
    (oids, audit): (&Arc<Vec<Oid>>, Oid),
    get: impl Fn(Oid) -> Option<ObjectState>,
) {
    let mut bad = 0;
    let mut first = None;
    for (i, oid) in oids.iter().enumerate() {
        let got = get(*oid).map(|s| Acct {
            balance: int_attr(&s, "balance"),
            credit: int_attr(&s, "credit"),
            hits: int_attr(&s, "hits"),
            tally: int_attr(&s, "tally"),
        });
        if got.as_ref() != Some(&model.accts[i]) {
            bad += 1;
            first.get_or_insert(format!("account {i}: {got:?}, model {:?}", model.accts[i]));
        }
    }
    out.check(bad == 0, || format!("{when}: {bad} accounts differ from the model; {first:?}"));
    let a = get(audit);
    let (txns, deps) =
        a.as_ref().map_or((i64::MIN, i64::MIN), |s| (int_attr(s, "txns"), int_attr(s, "deps")));
    out.check(txns == model.txns && deps == model.deps, || {
        format!(
            "{when}: audit says {txns} txns / {deps} deposits, model {} / {}",
            model.txns, model.deps
        )
    });
}

struct TxnClient<'a> {
    sys: &'a System,
    txns: &'a [Vec<Op>],
    op: u64,
    failed: u64,
    errors: Vec<String>,
}

impl TxnClient<'_> {
    /// Runs `count` transactions, cycling through the templates; `meter`
    /// counts operations from its base.
    fn run(
        &mut self,
        count: usize,
        (meter, base): (&mut Meter, u64),
        model: &mut Model,
        tracer: Option<&Tracer>,
    ) {
        for ops in self.txns.iter().cycle().take(count) {
            let tr = tracer.filter(|tr| tr.sampled(self.op));
            let t = Instant::now();
            let ok = self.txn(ops, tr);
            self.op += 1;
            meter.record(t.elapsed());
            meter.tick(base + self.op);
            match ok {
                Ok(()) => model.apply(ops),
                Err(e) => {
                    self.failed += 1;
                    if self.errors.len() < 4 {
                        self.errors.push(format!("transaction failed: {e}"));
                    }
                }
            }
        }
    }

    fn txn(&self, ops: &[Op], tr: Option<&Tracer>) -> sentinel_core::sentinel::SentinelResult<()> {
        let s = &self.sys.s;
        let op = self.op;
        let root = tr.map(|tr| tr.begin("op", op, 0));
        let rid = root.as_ref().map_or(0, |r| r.id());
        let span = tr.map(|tr| tr.begin("txn.begin", op, rid));
        let t = s.begin()?;
        if let (Some(tr), Some(sp)) = (tr, span) {
            tr.end(sp);
        }
        for o in ops {
            let (i, sig, amt) = match *o {
                Op::Deposit(i, a) => (i, DEPOSIT, a),
                Op::Withdraw(i, a) => (i, WITHDRAW, a),
            };
            let args = vec![("amt".to_string(), AttrValue::Int(amt))];
            match tr {
                None => {
                    s.invoke(t, self.sys.oids[i], sig, args)?;
                }
                Some(tr) => {
                    let sp = tr.begin("oodb.invoke", op, rid);
                    INVOKE_SPAN.with(|c| c.set(sp.id()));
                    let r = s.invoke(t, self.sys.oids[i], sig, args);
                    INVOKE_SPAN.with(|c| c.set(0));
                    tr.end(sp);
                    r?;
                }
            }
        }
        let span = tr.map(|tr| tr.begin("txn.commit", op, rid));
        s.commit(t)?;
        if let (Some(tr), Some(sp)) = (tr, span) {
            tr.end(sp);
        }
        if let (Some(tr), Some(r)) = (tr, root) {
            tr.end(r);
        }
        Ok(())
    }
}
