//! `durable_ingest`: the component catalog's stream fed through a
//! 2-worker `DetectorPool` into `Sentinel::open_durable`. One feeder keeps
//! a fixed window of signals in flight; a signal counts as done when its
//! done-callback fires, after its journal append. Detections are
//! dispatched to rules on a dispatcher thread, as the network server does.
//!
//! The measured phase is a run of identical cycles until the time is up.
//! A cycle opens an empty directory, ingests the same `Cfg::durable_cycle`
//! epochs of the stream (about 32 000 signals), drops the system and
//! reopens the directory in the same process, and the reopen is timed.
//! Memory and recovery work thus follow a fixed amount of input, not the
//! speed of the run: in one long ingest, `peak_rss_mb` and `recovery_s`
//! grew with the number of signals a run managed (the process keeps about
//! 1 KB per journaled signal, and a reopen decodes every record), so they
//! spread as much as throughput did, and more. `recovery_s` is the best
//! fiftieth of the cycles' reopen times, and `peak_rss_mb` the peak RSS
//! right after the first cycle's reopen: a dropped durable instance keeps
//! its memory, so later cycles add to it in proportion to how many cycles
//! a run completes.
//!
//! The measured passes journal with `fsync=never`. At `fsync=always` every
//! signal waits for its own fsync (group commit batches nothing), so
//! throughput follows the disk's fsync latency. On the 2-vCPU virtual
//! machine (virtio disk) of the reference figures that latency drifted
//! between 90 and 160 µs from minute to minute, and over five to eight
//! runs the interquartile spread of `ops_per_s` was 19–41% of the median,
//! wider than any bound a regression check could use. With `fsync=never`
//! it was 8%. The traced run still measures an `fsync=always` pass and
//! reports its group-commit batching and throughput as per-layer figures.
//!
//! The catalog leaves out the NOT composites: a checkpoint drops a NOT
//! node whose only state is its last-inner mark (`CtxState::is_empty`
//! ignores it), so on some seeds the recovered graph differs from the live
//! one in that mark alone and the snapshot-equality oracle fails.

use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use sentinel_core::detector::service::Signal;
use sentinel_core::detector::DetectorPool;
use sentinel_core::durable_store::{DurableEngine, DurableOptions, FsyncPolicy};
use sentinel_core::{Sentinel, SentinelConfig};

use crate::catalog::{self, Expected, Rules, Stream, CTX};
use crate::common::{self, Meter, Outcome, Tracer};
use crate::Cfg;

/// Signals in flight between the feeder and the pool.
const WINDOW: usize = 32;
const WORKERS: usize = 2;
/// Journal fsync policy of the measured passes: see the module docs.
const MEASURED_FSYNC: FsyncPolicy = FsyncPolicy::Never;
/// Composites defined: all but NOT (index 3), see the module docs.
const DURABLE_OPS: [usize; 4] = [0, 1, 2, 4];

fn open(dir: &Path, components: usize, fsync: FsyncPolicy) -> Arc<Sentinel> {
    let opts = DurableOptions { fsync, ..DurableOptions::default() };
    let (s, _) =
        Sentinel::open_durable(dir, SentinelConfig::default(), opts).expect("durable open");
    catalog::install(&s, components, &Rules::CatalogCount, &DURABLE_OPS).expect("catalog installs");
    s
}

/// What one ingest pass did.
struct Ingest {
    /// Operation numbers whose done-callback fired.
    acked: Vec<u64>,
    attempted: u64,
    /// Detections the dispatcher handed to the rules.
    dispatched: u64,
    exp: Expected,
}

/// Feeds the first `epochs` epochs of the stream (cycling through its
/// templates) through a fresh pool, and waits until every signal is acked
/// and every detection dispatched. `meter` counts operations from `base`.
fn ingest(
    s: &Arc<Sentinel>,
    stream: &Stream,
    cfg: &Cfg,
    epochs: usize,
    meter: Option<(&mut Meter, u64)>,
    tracer: Option<&Tracer>,
) -> Ingest {
    let mut pool = DetectorPool::spawn(s.detector().clone(), WORKERS);
    let dispatched = Arc::new(AtomicU64::new(0));
    let dispatcher = {
        let rx = pool.detections().clone();
        let handle = s.serve_handle();
        let n = dispatched.clone();
        std::thread::Builder::new()
            .name("sentbench-dispatch".into())
            .spawn(move || {
                while let Ok(d) = rx.recv() {
                    n.fetch_add(1, Ordering::Relaxed);
                    handle.dispatch(vec![d]);
                }
            })
            .expect("spawn dispatcher")
    };
    let (tx, rx) = unbounded();
    let mut feeder = Feeder { pool: &pool, stream, tx, rx, inflight: 0, op: 0, acked: Vec::new() };
    let mut exp = Expected::new(cfg.components);
    feeder.feed(epochs, meter, &mut exp, tracer);
    let (attempted, acked) = (feeder.op, std::mem::take(&mut feeder.acked));
    drop(feeder);
    pool.shutdown();
    drop(pool);
    dispatcher.join().expect("dispatcher thread");
    exp.keep_only(&DURABLE_OPS);
    Ingest { acked, attempted, dispatched: dispatched.load(Ordering::SeqCst), exp }
}

pub fn run(cfg: &Cfg, tracer: Option<&Tracer>, data: &Path) -> Outcome {
    let mut out = Outcome::default();
    let stream = Stream::generate(cfg.seed, cfg.components, cfg.epochs);
    let mut setups = Vec::new();
    for i in 0..cfg.setups {
        let dir = data.join(format!("setup{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        let t = Instant::now();
        let s = open(&dir, cfg.components, MEASURED_FSYNC);
        setups.push(t.elapsed().as_secs_f64());
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }

    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut meter = Meter::start(0);
    let (mut done, mut recoveries, mut peak_rss) = (0u64, Vec::new(), 0.0);
    while recoveries.is_empty() || Instant::now() < deadline {
        let first = recoveries.is_empty();
        let dir = data.join(format!("cycle{}", recoveries.len()));
        let _ = std::fs::remove_dir_all(&dir);
        let t = Instant::now();
        let s = open(&dir, cfg.components, MEASURED_FSYNC);
        setups.push(t.elapsed().as_secs_f64());
        meter.resume();
        let run = ingest(&s, &stream, cfg, cfg.durable_cycle, Some((&mut meter, done)), tracer);
        done += run.attempted;
        meter.pause(done);
        let traced = first && tracer.is_some();
        let (recovery, rss) = cycle_checks(&mut out, cfg, s, run, &dir, first, traced);
        recoveries.push(recovery);
        if first {
            peak_rss = rss;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    out.attempted = done;
    println!("durable cycles {}", recoveries.len());

    if let Some(tr) = tracer {
        out.spans = tr.take();
        fsync_always_probe(&mut out, cfg, &stream, data);
    }
    meter.finish(done, &mut out, setups, common::quantile(recoveries, common::BEST), peak_rss);
    out
}

/// The checks that end a cycle: rule firings and acks against the oracle,
/// then drop, the timed reopen, snapshot equality and acked ⊆ recovered.
/// Returns the reopen time, seconds, and the peak RSS right after it,
/// before the checks add their own allocations. The `first` cycle's figures become per-layer
/// metrics, its durable and recovery figures when `traced`.
fn cycle_checks(
    out: &mut Outcome,
    cfg: &Cfg,
    s: Arc<Sentinel>,
    mut run: Ingest,
    dir: &Path,
    first: bool,
    traced: bool,
) -> (f64, f64) {
    // Rule firings: every composite detection reaches its counting rule.
    run.exp.skew(cfg.skew_oracle);
    let stats = s.stats();
    let hits = &stats.rule_hits;
    let errs = run
        .exp
        .compare(|i, op, c| hits.get(&catalog::rule_name(op, i, CTX[c])).copied().unwrap_or(0));
    out.errors.extend(errs.into_iter().take(8));
    let (seen, want) = (run.dispatched, run.exp.detections);
    out.check(seen == want, || format!("{seen} detections dispatched, oracle says {want}"));
    let (acked, attempted) = (run.acked.len() as u64, run.attempted);
    out.check(acked == attempted, || format!("{acked} of {attempted} signals acked"));

    let dstats = stats.durability.clone().unwrap_or_default();
    let before = s.detector().snapshot_state();
    let labels = s.detector().shard_count() as f64;
    let bytes = common::dir_bytes(dir);
    drop(s);

    let t = Instant::now();
    let reopts = DurableOptions { fsync: MEASURED_FSYNC, ..DurableOptions::default() };
    let reopened = Sentinel::open_durable(dir, SentinelConfig::default(), reopts);
    let recovery = t.elapsed().as_secs_f64();
    let rss = common::peak_rss_mb();
    let report = match reopened {
        Ok((s2, report)) => {
            out.check(s2.detector().snapshot_state().encode() == before.encode(), || {
                "recovered snapshot_state differs from the one taken before the drop".to_string()
            });
            drop(s2);
            Some(report)
        }
        Err(e) => {
            out.errors.push(format!("reopen failed: {e}"));
            None
        }
    };
    check_acked(out, dir, &run.acked);

    if first {
        out.layer.push(("detector.shard_labels", labels, "count"));
    }
    if traced {
        let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
        out.layer.push((
            "durable.checkpoint_ms",
            dstats.checkpoint_duration.mean_ns() as f64 / 1e6,
            "ms",
        ));
        out.layer.push(("durable.journal_bytes_per_op", ratio(bytes, acked), "B"));
        let r = report.unwrap_or_default();
        out.layer.push(("durable.recovery_read_records", r.journal_records as f64, "count"));
        out.layer.push(("durable.recovery_replayed_records", r.replayed_records as f64, "count"));
        out.layer.push(("durable.recovery_merge_ms", r.phases.stream_merge_us as f64 / 1e3, "ms"));
        out.layer.push((
            "durable.recovery_restore_ms",
            r.phases.snapshot_restore_us as f64 / 1e3,
            "ms",
        ));
        out.layer.push(("durable.recovery_replay_ms", r.phases.replay_us as f64 / 1e3, "ms"));
    }
    (recovery, rss)
}

/// The same ingest at `fsync=always`, where an ack means the record is on
/// disk: how many records each group commit covers, and the throughput.
/// Reported per layer only: one fsync per signal ties these figures to
/// the host's fsync latency, which drifts too much between runs to bound.
fn fsync_always_probe(out: &mut Outcome, cfg: &Cfg, stream: &Stream, data: &Path) {
    let dir = data.join("fsync-always");
    let _ = std::fs::remove_dir_all(&dir);
    let s = open(&dir, cfg.components, FsyncPolicy::Always);
    let mut meter = Meter::start(0);
    let run = ingest(&s, stream, cfg, cfg.durable_cycle / 8, Some((&mut meter, 0)), None);
    let d = s.stats().durability.unwrap_or_default();
    let mut probe = Outcome::default();
    meter.finish(run.attempted, &mut probe, Vec::new(), 0.0, 0.0);
    let ratio = d.group_commit_records as f64 / d.group_commits.max(1) as f64;
    out.layer.push(("durable.records_per_group_commit", ratio, "count"));
    let ops = probe.e2e.iter().find(|m| m.0 == "ops_per_s").map_or(0.0, |m| m.1);
    out.layer.push(("durable.fsync_always_ops_per_s", ops, "1/s"));
    out.check(run.acked.len() as u64 == run.attempted, || {
        format!("fsync=always: {} of {} signals acked", run.acked.len(), run.attempted)
    });
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every acked signal must be among the records recovery reads back.
fn check_acked(out: &mut Outcome, dir: &Path, acked: &[u64]) {
    let opts = DurableOptions { fsync: MEASURED_FSYNC, ..DurableOptions::default() };
    let recovered: HashSet<u64> = match DurableEngine::open(dir, opts) {
        Ok((_engine, rec)) => rec
            .events
            .iter()
            .filter_map(|ev| match ev {
                sentinel_core::detector::log::LoggedEvent::Explicit { params, .. } => params
                    .iter()
                    .find(|(k, _)| &**k == "op")
                    .and_then(|(_, v)| v.as_i64())
                    .map(|v| v as u64),
                _ => None,
            })
            .collect(),
        Err(e) => {
            out.errors.push(format!("journal scan failed: {e}"));
            return;
        }
    };
    let missing = acked.iter().filter(|op| !recovered.contains(op)).count();
    out.check(missing == 0, || {
        format!("{missing} of {} acked signals missing from the recovered journal", acked.len())
    });
}

struct Feeder<'a> {
    pool: &'a DetectorPool,
    stream: &'a Stream,
    tx: Sender<(u64, Duration)>,
    rx: Receiver<(u64, Duration)>,
    inflight: usize,
    op: u64,
    /// Operation numbers whose done-callback fired.
    acked: Vec<u64>,
}

impl Feeder<'_> {
    /// Feeds the first `epochs` epochs of the stream, then waits for every
    /// signal in flight.
    fn feed(
        &mut self,
        epochs: usize,
        mut meter: Option<(&mut Meter, u64)>,
        exp: &mut Expected,
        tracer: Option<&Tracer>,
    ) {
        let stream = self.stream;
        for epoch in stream.epochs.iter().cycle().take(epochs) {
            for s in &epoch.sigs {
                let sig = Signal::Explicit {
                    name: stream.name(s).to_string(),
                    params: stream.params(s, self.op),
                    txn: None,
                };
                self.submit(sig, meter.as_mut().map(|(m, _)| &mut **m), tracer);
            }
            exp.add_epoch(epoch);
            if let Some((m, base)) = meter.as_mut() {
                m.tick(*base + self.acked.len() as u64);
            }
        }
        while self.inflight > 0 {
            self.ack(meter.as_mut().map(|(m, _)| &mut **m));
        }
    }

    fn submit(&mut self, sig: Signal, mut meter: Option<&mut Meter>, tracer: Option<&Tracer>) {
        while self.inflight >= WINDOW {
            self.ack(meter.as_deref_mut());
        }
        let (tx, op, t) = (self.tx.clone(), self.op, Instant::now());
        let done: Box<dyn FnOnce() + Send> = Box::new(move || {
            let _ = tx.send((op, t.elapsed()));
        });
        match tracer.filter(|tr| tr.sampled(op)) {
            None => self.pool.signal_async_done(sig, done),
            Some(tr) => {
                let span = tr.begin("pool.submit", op, 0);
                self.pool.signal_async_done(sig, done);
                tr.end(span);
            }
        }
        self.inflight += 1;
        self.op += 1;
    }

    fn ack(&mut self, meter: Option<&mut Meter>) {
        let (op, d) = self.rx.recv().expect("pool delivers every done-callback");
        if let Some(m) = meter {
            m.record(d);
        }
        self.acked.push(op);
        self.inflight -= 1;
    }
}
