//! Spans and counts recorded by the benchmark around its calls into the
//! repository's crates.
//!
//! Spans live in memory and are summarised when the run ends. Every op of
//! a workload opens one root span; layer spans opened inside it become its
//! children, so a layer's self time is its duration minus the part of that
//! interval its own children cover. A traced run records every other op,
//! so traced and untraced ops interleave under the same conditions; for
//! an unrecorded op, [`Tracer::span`] is a plain call.

use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span and count recorder for one client thread.
pub struct Tracer {
    enabled: bool,
    /// Whether the current op is recorded.
    recording: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    /// Per-op counts: `(op, name) -> value`, summed within an op.
    counts: BTreeMap<(u64, &'static str), f64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            recording: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counts: BTreeMap::new(),
        }
    }

    /// Whether the current op is recorded.
    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Start the next op; spans and counts until the next call belong to
    /// it. On an enabled tracer every other op is recorded. Returns
    /// whether this one is.
    pub fn next_op(&mut self) -> bool {
        self.op += 1;
        self.recording = self.enabled && self.op.is_multiple_of(2);
        self.recording
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name` (a plain call when disabled).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.recording {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Add `value` to the count `name` of the current op.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.recording {
            *self.counts.entry((self.op, name)).or_insert(0.0) += value;
        }
    }

    /// Per-op totals of span durations and self times, in microseconds,
    /// plus per-op counts.
    pub fn summary(&self) -> Summary {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut total: BTreeMap<(&'static str, u64), (f64, f64)> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let dur = (span.end_ns - span.start_ns) as f64 / 1e3;
            let own = (span.end_ns - span.start_ns).saturating_sub(child_ns[i]) as f64 / 1e3;
            let slot = total.entry((span.name, span.op)).or_insert((0.0, 0.0));
            slot.0 += dur;
            slot.1 += own;
        }
        let mut summary = Summary::default();
        for ((name, _op), (dur, own)) in total {
            summary.duration_us.entry(name).or_default().push(dur);
            summary.self_us.entry(name).or_default().push(own);
        }
        for ((_op, name), value) in &self.counts {
            summary.counts.entry(name).or_default().push(*value);
        }
        summary
    }
}

/// Per-op samples by span or count name.
#[derive(Default)]
pub struct Summary {
    pub duration_us: BTreeMap<&'static str, Vec<f64>>,
    pub self_us: BTreeMap<&'static str, Vec<f64>>,
    pub counts: BTreeMap<&'static str, Vec<f64>>,
}

impl Summary {
    /// Fold another thread's summary into this one.
    pub fn merge(&mut self, other: Summary) {
        for (k, v) in other.duration_us {
            self.duration_us.entry(k).or_default().extend(v);
        }
        for (k, v) in other.self_us {
            self.self_us.entry(k).or_default().extend(v);
        }
        for (k, v) in other.counts {
            self.counts.entry(k).or_default().extend(v);
        }
    }
}

/// The `q`-quantile (0..=1) of `samples` by the nearest-rank rule.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// A `VmHWM`-style field of `/proc/<pid>/status`, in MiB.
pub fn status_mib(pid: &str, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("self", "VmHWM:").unwrap_or(f64::NAN)
}

/// The reference computation's nominal time. Latencies are reported at
/// the host speed at which [`reference_ms`] takes this long.
pub const REFERENCE_NOMINAL_MS: f64 = 2.5;

/// Time a fixed hash-map build and probe over a few MiB, written here and
/// independent of the code under test, in milliseconds.
///
/// The host this benchmark runs on changes speed by up to 2x within
/// seconds and drifts over minutes, as neighbours load the shared cores
/// and memory. Timing this computation next to every op gives the host's
/// speed at that moment, which [`speed_factor`] divides out.
pub fn reference_ms() -> f64 {
    use std::collections::HashMap;
    let t0 = Instant::now();
    let mut x: u64 = 0x1234_5678;
    let mut map: HashMap<(u64, u32), u32> = HashMap::new();
    for i in 0..30_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *map.entry((x % 20_000, i % 7)).or_default() += i;
    }
    let mut sum = 0u32;
    for k in 0..20_000u64 {
        sum = sum.wrapping_add(map.get(&(k, 3)).copied().unwrap_or(0));
    }
    std::hint::black_box(sum);
    t0.elapsed().as_secs_f64() * 1e3
}

/// The factor that scales a time measured between two reference timings
/// to the nominal host speed.
pub fn speed_factor(before_ms: f64, after_ms: f64) -> f64 {
    2.0 * REFERENCE_NOMINAL_MS / (before_ms + after_ms)
}
