//! Measurement plumbing shared by every workload: the seeded generator,
//! exact latency samples, process CPU time and peak RSS, the counting
//! allocator, and the benchmark's own span recorder.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

// --- seeded generator --------------------------------------------------

/// SplitMix64: small, fast and fully determined by its seed, so the same
/// `--seed` always yields the same inputs.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

// --- process-wide resources --------------------------------------------

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words of a `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

/// Restricts the calling thread, and every thread it starts afterwards, to
/// the lowest-numbered CPU it may run on. Returns that CPU and the previous
/// affinity, for [`restore_affinity`].
///
/// `oodb_txn` runs pinned (see `oodb::run`): on the shared 2-vCPU virtual
/// machine of the reference figures, a wake-up from one vCPU to the other
/// costs an interrupt that the host serves on its own schedule, and with
/// other tenants' load that cost swung from run to run.
pub fn pin_to_one_cpu() -> Option<(usize, CpuMask)> {
    let mut mask = [0u64; CPU_SET_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes, the
    // size passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } < 0 {
        return None;
    }
    let word = mask.iter().position(|w| *w != 0)?;
    let cpu = word * 64 + mask[word].trailing_zeros() as usize;
    let mut one = [0u64; CPU_SET_WORDS];
    one[word] = 1 << (cpu % 64);
    set_affinity(&one).then_some((cpu, mask))
}

/// A `cpu_set_t`.
pub type CpuMask = [u64; CPU_SET_WORDS];

/// Gives the calling thread back an affinity [`pin_to_one_cpu`] replaced.
pub fn restore_affinity(mask: &CpuMask) {
    set_affinity(mask);
}

fn set_affinity(mask: &CpuMask) -> bool {
    // SAFETY: `mask` is a readable buffer of exactly the size passed; pid
    // 0 names the calling thread, and the call changes only its affinity.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time consumed so far by every thread of the process.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this builds for) and the clock id
    // is a constant the kernel accepts; the call writes only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size of the process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total size of the regular files under `dir`, bytes.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

// --- counting allocator ------------------------------------------------

/// Wraps the system allocator and counts allocations made by the calling
/// thread while counting is switched on (traced runs only).
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations made so far by this thread while counting was on.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

pub fn set_alloc_counting(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

// --- the benchmark's own spans -----------------------------------------

/// One recorded layer call.
#[derive(Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// Id of the span that caused this one; 0 for an operation's root.
    pub parent: u64,
    /// The operation (signal, frame or transaction) the span belongs to.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Heap allocations the calling thread made inside the span.
    pub allocs: u64,
}

/// In-memory span store for a traced pass. Spans are written out when the
/// benchmark ends; the per-layer metrics are derived from them.
pub struct Tracer {
    base: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Trace one operation in `sample_every` (bounds memory on the fast
    /// workloads; every operation of a sampled op is traced whole).
    pub sample_every: u64,
}

/// An open span; close it with [`Tracer::end`].
pub struct Open {
    id: u64,
    parent: u64,
    op: u64,
    name: &'static str,
    start: Instant,
    allocs: u64,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Tracer {
    pub fn new(sample_every: u64) -> Tracer {
        Tracer {
            base: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            sample_every: sample_every.max(1),
        }
    }

    pub fn sampled(&self, op: u64) -> bool {
        op.is_multiple_of(self.sample_every)
    }

    pub fn begin(&self, name: &'static str, op: u64, parent: u64) -> Open {
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            op,
            name,
            start: Instant::now(),
            allocs: thread_allocs(),
        }
    }

    pub fn end(&self, open: Open) {
        let end = Instant::now();
        let allocs = thread_allocs() - open.allocs;
        let ns = |t: Instant| t.duration_since(self.base).as_nanos() as u64;
        self.spans.lock().push(Span {
            id: open.id,
            parent: open.parent,
            op: open.op,
            name: open.name,
            start_ns: ns(open.start),
            end_ns: ns(end),
            allocs,
        });
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock())
    }
}

/// Per-name totals over a set of spans: count, summed self time (duration
/// minus the part of it covered by child spans) and summed allocations.
#[derive(Default, Clone, Copy)]
pub struct SpanTotals {
    pub count: u64,
    pub self_ns: u64,
    pub allocs: u64,
}

pub fn span_totals(spans: &[Span]) -> std::collections::BTreeMap<&'static str, SpanTotals> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    let mut out: std::collections::BTreeMap<&'static str, SpanTotals> = Default::default();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.self_ns += (s.end_ns - s.start_ns).saturating_sub(covered);
        t.allocs += s.allocs;
    }
    out
}

/// Writes spans as tab-separated lines `id parent op name start_ns end_ns
/// allocs`.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\top\tname\tstart_ns\tend_ns\tallocs")?;
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns, s.allocs
        )?;
    }
    w.flush()
}

// --- results -------------------------------------------------------------

/// What one pass of a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Oracle divergences; empty means correct.
    pub errors: Vec<String>,
    /// End-to-end metrics `(name, value, unit)`.
    pub e2e: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics of a traced pass.
    pub layer: Vec<(&'static str, f64, &'static str)>,
    /// Exact latency samples behind the percentiles.
    pub samples: u64,
    /// Throughput of each slice of the measured phase.
    pub slice_rates: Vec<f64>,
    /// Each set-up's time, s.
    pub setup_times: Vec<f64>,
    /// Each restart probe's time, s (in-memory workloads).
    pub restart_times: Vec<f64>,
    /// Spans of a traced pass.
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// Everything the measured phase records: the throughput and CPU cost of
/// each 50 ms slice of the phase, and the exact median and 99th percentile
/// of each window of whole slices holding at least 1000 latency samples
/// (so that ten lie beyond the 99th percentile).
///
/// Each metric is the best fiftieth over slices or windows: the 98th
/// percentile of slice throughput, the 2nd of slice CPU cost and of the
/// window quantiles. Load from outside the process only slows it down,
/// and on the shared 2-vCPU virtual machine of the reference figures it
/// came and went within seconds. Under such load, emulated by CPU-spinning
/// and memory-streaming processes switched on and off at random, five runs
/// of `embedded_detect` spread 25% (interquartile range over median) in
/// the median of 1 s slices, 7% in their 90th percentile, and 2–4% in the
/// best fiftieth of 50 ms slices. A slower program still shows, because it
/// slows the fastest slices too; and a slice is long enough to hold the
/// periodic work of every workload (a durable checkpoint every 1024
/// records comes about every 25 ms).
pub struct Meter {
    samples: u64,
    /// Latencies of the open window, ns.
    window: Vec<u32>,
    /// `(p50, p99)` of each closed window, ns.
    quantiles: Vec<(f64, f64)>,
    next: Instant,
    last: (Instant, u64, Duration),
    rates: Vec<f64>,
    cpu_per_op: Vec<f64>,
    slices: u64,
}

/// Length of a slice.
pub const SLICE: Duration = Duration::from_millis(50);
/// Latency samples a window needs.
const WINDOW_SAMPLES: usize = 1000;
/// The share of slices, windows or probes a "best fiftieth" statistic
/// keeps.
pub const BEST: f64 = 0.02;

impl Meter {
    /// Starts measuring at operation count `ops`.
    pub fn start(ops: u64) -> Meter {
        let now = Instant::now();
        Meter {
            samples: 0,
            window: Vec::new(),
            quantiles: Vec::new(),
            next: now + SLICE,
            last: (now, ops, process_cpu()),
            rates: Vec::new(),
            cpu_per_op: Vec::new(),
            slices: 0,
        }
    }

    /// Records one operation's latency.
    pub fn record(&mut self, d: Duration) {
        self.samples += 1;
        self.window.push(d.as_nanos().min(u128::from(u32::MAX)) as u32);
    }

    /// Closes the current slice if its time is up; `ops` is the number of
    /// operations completed so far. Returns how many slices have closed,
    /// if one closed now.
    pub fn tick(&mut self, ops: u64) -> Option<u64> {
        let now = Instant::now();
        if now < self.next {
            return None;
        }
        self.close(now, ops);
        self.next = now + SLICE;
        Some(self.slices)
    }

    /// Closes the open slice at operation count `ops` before work that
    /// must count in no slice (a restart probe, a reopen between cycles);
    /// [`Meter::resume`] opens the next one.
    pub fn pause(&mut self, ops: u64) {
        self.close(Instant::now(), ops);
    }

    /// Opens a new slice now, so that work done since the last slice
    /// closed counts in none.
    pub fn resume(&mut self) {
        let now = Instant::now();
        self.last = (now, self.last.1, process_cpu());
        self.next = now + SLICE;
    }

    fn close(&mut self, now: Instant, ops: u64) {
        let cpu = process_cpu();
        let (t0, o0, c0) = self.last;
        // A stub shorter than half a slice (the drain of the operations in
        // flight at the end of a phase) is noise.
        if ops > o0 && now.duration_since(t0) >= SLICE / 2 {
            let n = (ops - o0) as f64;
            self.rates.push(n / now.duration_since(t0).as_secs_f64());
            self.cpu_per_op.push((cpu - c0).as_secs_f64() * 1e6 / n);
            self.slices += 1;
        }
        self.last = (now, ops, cpu);
        self.close_window(false);
    }

    /// Closes the open window once it holds `WINDOW_SAMPLES`; with `last`,
    /// also a smaller one if no window has closed yet (short runs).
    fn close_window(&mut self, last: bool) {
        let n = self.window.len();
        if n >= WINDOW_SAMPLES || (last && n > 0 && self.quantiles.is_empty()) {
            let mut at = |q: usize| {
                let rank = (n * q).div_ceil(100).max(1) - 1;
                f64::from(*self.window.select_nth_unstable(rank).1)
            };
            let (p50, p99) = (at(50), at(99));
            self.quantiles.push((p50, p99));
            self.window.clear();
        }
    }

    /// Ends the phase and reports the end-to-end metrics every workload
    /// shares, plus the given set-up times, recovery time and peak RSS.
    pub fn finish(
        mut self,
        ops: u64,
        out: &mut Outcome,
        setups: Vec<f64>,
        recovery_s: f64,
        peak_rss: f64,
    ) {
        let setup_s = median(setups.clone());
        out.setup_times = setups;
        self.close(Instant::now(), ops);
        self.close_window(true);
        out.slice_rates = self.rates.clone();
        let p50 = quantile(self.quantiles.iter().map(|q| q.0).collect(), BEST);
        let p99 = quantile(self.quantiles.iter().map(|q| q.1).collect(), BEST);
        out.e2e.push(("ops_per_s", quantile(std::mem::take(&mut self.rates), 1.0 - BEST), "1/s"));
        out.e2e.push(("op_p50_us", p50 / 1e3, "us"));
        out.e2e.push(("op_p99_us", p99 / 1e3, "us"));
        out.e2e.push(("cpu_us_per_op", quantile(std::mem::take(&mut self.cpu_per_op), BEST), "us"));
        out.e2e.push(("setup_s", setup_s, "s"));
        out.e2e.push(("peak_rss_mb", peak_rss, "MiB"));
        out.e2e.push(("recovery_s", recovery_s, "s"));
        out.samples = self.samples;
    }
}

/// The `q`-quantile (nearest rank) of a list (0 when empty).
pub fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of a list (0 when empty).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
