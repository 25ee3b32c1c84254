//! `embedded_detect` and `wire_batch`: the component catalog's seeded
//! stream, signalled into an in-memory `Sentinel` directly (detector call,
//! then inline rule dispatch — the steps of `ServeHandle::signal`) or sent
//! as pipelined `SignalBatch` frames to an in-process `NetServer`.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sentinel_core::detector::Value;
use sentinel_core::obs::json;
use sentinel_core::{Sentinel, SentinelConfig};
use sentinel_net::protocol::{self, Frame, Opcode};
use sentinel_net::{ClientCodec, NetServer, Pending, SentinelClient, ServerConfig};

use crate::catalog::{self, Expected, Firings, Rules, Stream};
use crate::common::{self, Meter, Outcome, Tracer};
use crate::Cfg;

/// Signals per `SignalBatch` frame.
const BATCH: usize = 64;
/// Frames in flight on the connection.
const PIPELINE: usize = 4;
/// Slices between restart probes (a probe every half second).
const PROBE_EVERY: u64 = 10;

/// A system with the catalog installed and its firing counters.
struct System {
    s: Arc<Sentinel>,
    firings: Arc<Firings>,
}

fn build(components: usize) -> System {
    let s = Sentinel::in_memory_with(SentinelConfig::default());
    let firings = Firings::new(components);
    catalog::install(&s, components, &Rules::Closures(firings.clone()), &catalog::ALL_OPS)
        .expect("catalog installs");
    System { s, firings }
}

/// Compares the firing counters and the detection total with the oracle.
fn check_firings(out: &mut Outcome, sys: &System, exp: &Expected, detections: u64) {
    let errs = exp.compare(|i, op, c| sys.firings.get(i, op, c));
    out.errors.extend(errs.into_iter().take(8));
    out.check(detections == exp.detections, || {
        format!("{detections} detections, oracle says {}", exp.detections)
    });
    let checks = sys.firings.pair_checks.load(Ordering::SeqCst);
    let bad = sys.firings.pair_errors.load(Ordering::SeqCst);
    out.check(checks > 0 && bad == 0, || {
        format!("chronicle pairing: {bad} of {checks} firings paired the wrong initiator")
    });
}

/// Restart probes: at every `PROBE_EVERY`-th slice boundary (from the
/// first) of the measured phase, the live graph is snapshotted and a fresh
/// system is rebuilt from it — catalog DDL, `restore_snapshot`, and for
/// `wire_batch` a server start and connect. `recovery_s` is the best
/// fiftieth (2nd percentile, the fastest for fewer than 50 probes) of the
/// probe times, as for the other metrics (see `common::Meter`): on the
/// 2-vCPU virtual machine of the reference figures a probe took about
/// 1.4 ms or 2.0 ms depending on load from outside the process, and the
/// median of one run followed the mix (up to 27% spread across ten runs).
/// A probe's catalog DDL plus server start and connect is also a set-up,
/// so `setup_s` is a median over samples spread through the whole run.
struct Restarts {
    components: usize,
    served: bool,
    times: Vec<f64>,
    setups: Vec<f64>,
    errors: Vec<String>,
}

impl Restarts {
    fn new(components: usize, served: bool) -> Restarts {
        Restarts { components, served, times: Vec::new(), setups: Vec::new(), errors: Vec::new() }
    }

    fn probe(&mut self, live: &Sentinel) {
        let snap = live.detector().snapshot_state();
        let t = Instant::now();
        let fresh = build(self.components);
        let mut setup = t.elapsed();
        let restored = fresh.s.detector().restore_snapshot(&snap);
        if self.served {
            let t = Instant::now();
            let server =
                NetServer::start(fresh.s.serve_handle(), server_config()).expect("server restarts");
            let client = SentinelClient::connect_with(
                &server.local_addr().to_string(),
                "sentbench",
                ClientCodec::Binary,
            )
            .expect("client reconnects");
            setup += t.elapsed();
            drop(client);
            server.shutdown();
        }
        self.times.push(t.elapsed().as_secs_f64());
        self.setups.push(setup.as_secs_f64());
        if let Err(e) = restored {
            self.errors.push(format!("restore_snapshot failed: {e:?}"));
        } else if fresh.s.detector().snapshot_state().encode() != snap.encode() {
            self.errors.push("restored graph snapshot differs from the original".to_string());
        }
    }

    /// The best-fiftieth probe time; the probes' set-up times join
    /// `setups`, and their oracle divergences go to `out`.
    fn finish(self, out: &mut Outcome, setups: &mut Vec<f64>) -> f64 {
        out.check(!self.times.is_empty(), || "no restart probe ran".to_string());
        setups.extend(self.setups);
        out.errors.extend(self.errors.into_iter().take(4));
        out.restart_times = self.times.clone();
        common::quantile(self.times, common::BEST)
    }
}

// --- embedded_detect ------------------------------------------------------

pub fn embedded(cfg: &Cfg, tracer: Option<&Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let stream = Stream::generate(cfg.seed, cfg.components, cfg.epochs);
    let mut setups = Vec::new();
    let mut sys = None;
    for _ in 0..cfg.setups {
        let t = Instant::now();
        sys = Some(build(cfg.components));
        setups.push(t.elapsed().as_secs_f64());
    }
    let sys = sys.expect("at least one set-up");
    let mut exp = Expected::new(cfg.components);
    let mut feed = Embedded { sys: &sys, stream: &stream, op: 0, detections: 0 };

    feed.phase(cfg.warmup, None, &mut exp, None);
    let mut meter = Meter::start(feed.op);
    let mut restarts = Restarts::new(cfg.components, false);
    feed.phase(cfg.seconds, Some((&mut meter, &mut restarts)), &mut exp, tracer);
    let ops_end = feed.op;
    out.attempted = feed.op;
    exp.skew(cfg.skew_oracle);
    let detections = feed.detections;
    check_firings(&mut out, &sys, &exp, detections);

    if let Some(tr) = tracer {
        out.spans = tr.take();
        let totals = common::span_totals(&out.spans);
        let get = |n: &str| totals.get(n).copied().unwrap_or_default();
        let sig = get("detector.signal");
        let disp = get("rules.dispatch");
        out.layer.push(("detector.signal_ns", sig.self_ns as f64 / sig.count.max(1) as f64, "ns"));
        out.layer.push((
            "detector.allocs_per_signal",
            sig.allocs as f64 / sig.count.max(1) as f64,
            "count",
        ));
        out.layer.push(("rules.dispatch_ns", disp.self_ns as f64 / disp.count.max(1) as f64, "ns"));
        out.layer.push((
            "obs.span_store_ns_per_signal",
            span_store_cost(&mut feed, &mut exp),
            "ns",
        ));
        check_firings(&mut out, &sys, &exp, feed.detections);
        out.attempted = feed.op;
    }

    let recovery = restarts.finish(&mut out, &mut setups);
    out.layer.push(("detector.shard_labels", sys.s.detector().shard_count() as f64, "count"));
    meter.finish(ops_end, &mut out, setups, recovery, common::peak_rss_mb());
    out
}

struct Embedded<'a> {
    sys: &'a System,
    stream: &'a Stream,
    op: u64,
    detections: u64,
}

impl Embedded<'_> {
    /// Signals whole epochs until `secs` have passed.
    fn phase(
        &mut self,
        secs: f64,
        mut meter: Option<(&mut Meter, &mut Restarts)>,
        exp: &mut Expected,
        tracer: Option<&Tracer>,
    ) {
        let det = self.sys.s.detector();
        let sched = self.sys.s.scheduler();
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        let stream = self.stream;
        for epoch in stream.epochs.iter().cycle() {
            for sig in &epoch.sigs {
                let (name, params) = (stream.name(sig), stream.params(sig, self.op));
                let t = Instant::now();
                let n = match tracer.filter(|tr| tr.sampled(self.op)) {
                    None => {
                        let dets = det.signal_explicit(name, params, None);
                        let n = dets.len();
                        sched.dispatch(dets);
                        n
                    }
                    Some(tr) => {
                        let root = tr.begin("op", self.op, 0);
                        let span = tr.begin("detector.signal", self.op, root.id());
                        let dets = det.signal_explicit(name, params, None);
                        tr.end(span);
                        let n = dets.len();
                        let span = tr.begin("rules.dispatch", self.op, root.id());
                        sched.dispatch(dets);
                        tr.end(span);
                        tr.end(root);
                        n
                    }
                };
                if let Some((m, _)) = meter.as_mut() {
                    m.record(t.elapsed());
                }
                self.detections += n as u64;
                self.op += 1;
            }
            exp.add_epoch(epoch);
            if let Some((m, r)) = meter.as_mut() {
                if m.tick(self.op).is_some_and(|n| n % PROBE_EVERY == 1) {
                    r.probe(&self.sys.s);
                    m.resume();
                }
            }
            if Instant::now() >= deadline {
                break;
            }
        }
    }
}

/// Mean `signal_explicit` time with the program's span store on, minus the
/// same with it off, ns per signal. Alternates short passes to cancel
/// drift.
fn span_store_cost(feed: &mut Embedded<'_>, exp: &mut Expected) -> f64 {
    let mut diffs = Vec::new();
    for _ in 0..4 {
        let mut means = [0.0; 2];
        for (i, on) in [false, true].into_iter().enumerate() {
            feed.sys.s.set_tracing(on);
            let tracer = Tracer::new(1);
            feed.phase(0.15, None, exp, Some(&tracer));
            let spans = tracer.take();
            let (sum, n) = spans
                .iter()
                .filter(|s| s.name == "detector.signal")
                .fold((0u64, 0u64), |(s, n), sp| (s + sp.end_ns - sp.start_ns, n + 1));
            means[i] = sum as f64 / n.max(1) as f64;
        }
        diffs.push(means[1] - means[0]);
    }
    feed.sys.s.set_tracing(false);
    common::median(diffs)
}

// --- wire_batch -----------------------------------------------------------

struct Served {
    sys: System,
    server: NetServer,
    client: SentinelClient,
}

/// One reactor event loop, the binary codec's server side.
fn server_config() -> ServerConfig {
    ServerConfig { event_loops: 1, detector_threads: 1, ..ServerConfig::default() }
}

fn serve(components: usize) -> Served {
    let sys = build(components);
    let server = NetServer::start(sys.s.serve_handle(), server_config()).expect("server starts");
    let client = SentinelClient::connect_with(
        &server.local_addr().to_string(),
        "sentbench",
        ClientCodec::Binary,
    )
    .expect("client connects");
    Served { sys, server, client }
}

pub fn wire(cfg: &Cfg, tracer: Option<&Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let stream = Stream::generate(cfg.seed, cfg.components, cfg.epochs);
    let mut setups = Vec::new();
    let mut served = None;
    for _ in 0..cfg.setups {
        if let Some(old) = served.take() {
            shutdown(old);
        }
        let t = Instant::now();
        served = Some(serve(cfg.components));
        setups.push(t.elapsed().as_secs_f64());
    }
    let served = served.expect("at least one set-up");
    let mut exp = Expected::new(cfg.components);
    let mut w = Wire {
        client: &served.client,
        stream: &stream,
        live: &served.sys.s,
        op: 0,
        frame: 0,
        detections: 0,
        errors: Vec::new(),
    };
    w.phase(cfg.warmup, None, &mut exp, None);
    let (m0, ops0) = (served.server.metrics().clone(), w.op);
    let (bytes0, frames0, wake0) = (m0.bytes_in.get(), m0.frames_in.get(), m0.epoll_wakeups.get());
    let mut meter = Meter::start(ops0);
    let mut restarts = Restarts::new(cfg.components, true);
    w.phase(cfg.seconds, Some((&mut meter, &mut restarts)), &mut exp, tracer);
    let ops_end = w.op;
    out.attempted = w.op;
    out.errors.append(&mut w.errors);
    exp.skew(cfg.skew_oracle);
    check_firings(&mut out, &served.sys, &exp, w.detections);

    if let Some(tr) = tracer {
        out.spans = tr.take();
        let totals = common::span_totals(&out.spans);
        let send = totals.get("net.send_batch").copied().unwrap_or_default();
        out.layer.push((
            "net.send_us_per_frame",
            send.self_ns as f64 / send.count.max(1) as f64 / 1e3,
            "us",
        ));
        let (enc, dec) = codec_cost(&stream);
        out.layer.push(("net.encode_us_per_frame", enc, "us"));
        out.layer.push(("net.decode_us_per_frame", dec, "us"));
        let m = served.server.metrics();
        let signals = (w.op - ops0).max(1) as f64;
        let frames = (m.frames_in.get() - frames0).max(1) as f64;
        out.layer.push((
            "net.bytes_in_per_signal",
            (m.bytes_in.get() - bytes0) as f64 / signals,
            "B",
        ));
        out.layer.push((
            "net.wakeups_per_frame",
            (m.epoll_wakeups.get() - wake0) as f64 / frames,
            "count",
        ));
    }

    let recovery = restarts.finish(&mut out, &mut setups);
    out.layer.push((
        "detector.shard_labels",
        served.sys.s.detector().shard_count() as f64,
        "count",
    ));
    shutdown(served);
    meter.finish(ops_end, &mut out, setups, recovery, common::peak_rss_mb());
    out
}

fn shutdown(s: Served) {
    drop(s.client);
    s.server.shutdown();
}

/// A signal waiting for its batch frame: event name and parameters.
type Queued<'a> = (&'a str, Vec<(Arc<str>, Value)>);

struct Wire<'a> {
    client: &'a SentinelClient,
    live: &'a Sentinel,
    stream: &'a Stream,
    op: u64,
    frame: u64,
    detections: u64,
    errors: Vec<String>,
}

impl Wire<'_> {
    /// Sends whole epochs as pipelined batch frames until `secs` have
    /// passed, then waits for every reply. A restart probe first drains the
    /// pipeline, so the server is idle while it runs.
    fn phase(
        &mut self,
        secs: f64,
        mut meter: Option<(&mut Meter, &mut Restarts)>,
        exp: &mut Expected,
        tracer: Option<&Tracer>,
    ) {
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        let stream = self.stream;
        let mut inflight: VecDeque<(Pending, Instant, u64)> = VecDeque::new();
        let mut batch: Vec<Queued<'_>> = Vec::with_capacity(BATCH);
        for epoch in stream.epochs.iter().cycle() {
            for sig in &epoch.sigs {
                batch.push((stream.name(sig), stream.params(sig, self.op)));
                self.op += 1;
                if batch.len() == BATCH {
                    let m = meter.as_mut().map(|(m, _)| &mut **m);
                    self.send(&mut batch, &mut inflight, m, tracer);
                }
            }
            exp.add_epoch(epoch);
            if let Some((m, r)) = meter.as_mut() {
                if m.tick(self.op).is_some_and(|n| n % PROBE_EVERY == 1) {
                    while let Some(p) = inflight.pop_front() {
                        self.complete(p, Some(&mut **m));
                    }
                    r.probe(self.live);
                    m.resume();
                }
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        let mut m = meter.map(|(m, _)| m);
        if !batch.is_empty() {
            self.send(&mut batch, &mut inflight, m.as_deref_mut(), tracer);
        }
        while let Some(p) = inflight.pop_front() {
            self.complete(p, m.as_deref_mut());
        }
    }

    fn send(
        &mut self,
        batch: &mut Vec<Queued<'_>>,
        inflight: &mut VecDeque<(Pending, Instant, u64)>,
        meter: Option<&mut Meter>,
        tracer: Option<&Tracer>,
    ) {
        if inflight.len() == PIPELINE {
            let p = inflight.pop_front().expect("pipeline is full");
            self.complete(p, meter);
        }
        let refs: Vec<sentinel_net::BatchSignal<'_>> =
            batch.iter().map(|(n, p)| (*n, p.as_slice(), None)).collect();
        let t = Instant::now();
        let pending = match tracer.filter(|tr| tr.sampled(self.frame)) {
            None => self.client.send_batch(&refs),
            Some(tr) => {
                let span = tr.begin("net.send_batch", self.frame, 0);
                let p = self.client.send_batch(&refs);
                tr.end(span);
                p
            }
        };
        self.frame += 1;
        match pending {
            Ok(p) => inflight.push_back((p, t, batch.len() as u64)),
            Err(e) => self.errors.push(format!("send_batch failed: {e}")),
        }
        batch.clear();
    }

    fn complete(&mut self, (p, t, n): (Pending, Instant, u64), meter: Option<&mut Meter>) {
        match p.wait() {
            Ok(reply) => {
                if let Some(m) = meter {
                    m.record(t.elapsed());
                }
                let get = |k| reply.get(k).and_then(json::Value::as_u64);
                if get("accepted") != Some(n) {
                    self.errors.push(format!("batch of {n} accepted {:?}", get("accepted")));
                }
                self.detections += get("detections").unwrap_or(0);
            }
            Err(e) => self.errors.push(format!("batch failed: {e}")),
        }
    }
}

/// Times `protocol::encode_with` / `decode_with` (binary codec) over the
/// run's own batch frames; µs per frame.
fn codec_cost(stream: &Stream) -> (f64, f64) {
    let mut frames = Vec::new();
    let mut list = Vec::new();
    let mut op = 0u64;
    for epoch in &stream.epochs {
        for sig in &epoch.sigs {
            // The body `SentinelClient::send_batch` builds for one signal.
            list.push(json::Value::obj([
                ("event", json::Value::str(stream.name(sig))),
                ("params", sentinel_core::params_to_json(&stream.params(sig, op))),
            ]));
            op += 1;
            if list.len() == BATCH {
                let payload =
                    json::Value::obj([("signals", json::Value::Arr(std::mem::take(&mut list)))]);
                frames.push(Frame::new(Opcode::SignalBatch, frames.len() as u64, payload));
            }
        }
    }
    let reps = 5;
    let t = Instant::now();
    let mut bytes = Vec::new();
    for _ in 0..reps {
        bytes.clear();
        for f in &frames {
            bytes.push(protocol::encode_with(f, protocol::VERSION_BINARY).expect("frame encodes"));
        }
    }
    let enc = t.elapsed();
    let t = Instant::now();
    for _ in 0..reps {
        for b in &bytes {
            let d = protocol::decode_with(std::hint::black_box(b), protocol::VERSION_MAX);
            assert!(matches!(d, Ok(Some(_))), "own frame decodes");
        }
    }
    let dec = t.elapsed();
    let n = (reps * frames.len()).max(1) as f64;
    (enc.as_secs_f64() * 1e6 / n, dec.as_secs_f64() * 1e6 / n)
}
