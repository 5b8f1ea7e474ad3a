//! The repository's benchmark: four closed-loop workloads over the
//! CAPL → CSPm → verdict pipeline, batch trace conformance and the
//! checking service. See `README.md` beside this file for why each
//! workload exists and what it is expected to expose.
//!
//! ```text
//! perfbench --workload ota_cold|ota_warm|conform_corpus|svc_jobs
//!           --seed N --seconds S --trace 0|1 --autocsp PATH [--smoke]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones, measured with tracing off; with
//! `--trace 1` they are the per-layer ones from a separate traced run.
//! Every verdict is checked against a value known from how the inputs
//! were generated; a wrong verdict is a failed op and the exit code is 1.

mod conform;
mod ota;
mod svc;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use trace::{median, quantile, Summary, Tracer};

/// Set-up is repeated this many times per run and its median reported,
/// so scheduler jitter on one set-up does not move `setup_s`.
const SETUP_REPS: usize = 3;

/// Seconds of traced sample for each workload other than the one run.
const COMPANION_S: f64 = 1.5;

/// A service job slower than this counts as stalled.
pub const STALL_MS: f64 = 20.0;

/// Per-layer metrics, reported by every workload with `--trace 1`.
const PER_LAYER: &[(&str, &str)] = &[
    ("capl.parse_us", "us"),
    ("translator.build_us", "us"),
    ("cspm.load_us", "us"),
    ("fdrlite.compile_us", "us"),
    ("fdrlite.impl_states", "count"),
    ("fdrlite.impl_transitions", "count"),
    ("fdrlite.store_hit_us", "us"),
    ("fdrlite.persist_load_us", "us"),
    ("fdrlite.persist_store_us", "us"),
    ("fdrlite.disk_hits", "count"),
    ("fdrlite.disk_misses", "count"),
    ("fdrlite.normalise_us", "us"),
    ("fdrlite.norm_nodes", "count"),
    ("fdrlite.graph_analysis_us", "us"),
    ("fdrlite.explore_us", "us"),
    ("fdrlite.pairs", "count"),
    ("fdrlite.explore_2t_us", "us"),
    ("faults.parse_corpus_us", "us"),
    ("faults.corpus_bytes", "count"),
    ("faults.batch_new_us", "us"),
    ("faults.ingest_us", "us"),
    ("faults.events", "count"),
    ("fdrlite.walk_us", "us"),
    ("fdrlite.trie_nodes", "count"),
    ("fdrlite.trie_sharing", "ratio"),
    ("faults.nonconformant", "count"),
    ("service.submit_us", "us"),
    ("service.wait_us", "us"),
    ("service.direct_exec_us", "us"),
    ("service.overhead_us", "us"),
    ("service.stalled_jobs", "count"),
    ("service.stalled_share", "ratio"),
    ("service.stall_base_ms", "ms"),
    ("service.dedup_hits", "count"),
    ("service.rejected", "count"),
    ("service.retried", "count"),
    ("service.workers_lost", "count"),
    ("service.worker_peak_rss_mb", "MB"),
    ("trace.op_us", "us"),
    ("trace.untraced_op_us", "us"),
    ("trace.overhead_us", "us"),
    ("trace.op_self_us", "us"),
    ("bench.reference_ms", "ms"),
];

/// The four workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    OtaCold,
    OtaWarm,
    Conform,
    Svc,
}

impl Kind {
    const ALL: [Kind; 4] = [Kind::OtaCold, Kind::OtaWarm, Kind::Conform, Kind::Svc];

    fn name(self) -> &'static str {
        match self {
            Kind::OtaCold => "ota_cold",
            Kind::OtaWarm => "ota_warm",
            Kind::Conform => "conform_corpus",
            Kind::Svc => "svc_jobs",
        }
    }

    /// Whether this workload's times are scaled to the nominal host speed.
    /// The service's times are mostly waits on sockets, sleeps and other
    /// processes, which the reference computation does not track (scaling
    /// them made the run-to-run spread worse, not better), so they are
    /// reported as measured.
    fn speed_scaled(self) -> bool {
        self != Kind::Svc
    }

    fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Everything a workload needs to know about the run.
pub struct Ctx {
    pub seed: u64,
    pub smoke: bool,
    /// Per-run scratch directory; every cache, state and corpus file of
    /// the run lives below it and it is removed at exit.
    pub scratch: PathBuf,
    /// The release `autocsp` binary the service spawns as workers.
    pub autocsp: PathBuf,
}

/// A seeded `splitmix64` stream: inputs depend on `--seed` alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `1 / n`.
    pub fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }
}

/// A single-client closed-loop workload: one op at a time.
pub trait Workload {
    /// One op. Returns the number of verdicts it produced and checked, or
    /// why the op failed.
    fn op(&mut self, tracer: &mut Tracer) -> Result<u64, String>;

    /// Per-layer probes run after each traced op, outside its timing.
    fn probe(&mut self, _tracer: &mut Tracer) -> Result<(), String> {
        Ok(())
    }
}

/// What one measured phase produced.
#[derive(Default)]
pub struct Phase {
    /// Wall time of each op, as measured.
    pub latencies_ms: Vec<f64>,
    /// Per op, the [`trace::speed_factor`] of the host around it.
    pub factors: Vec<f64>,
    /// Per op, whether the tracer recorded it.
    pub recorded: Vec<bool>,
    /// Reference timings taken during the phase.
    pub references_ms: Vec<f64>,
    /// Time the clients spent in ops: the sum of op times for one client,
    /// the phase's wall time for several.
    pub busy_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub verdicts: u64,
    pub wall_s: f64,
    pub summary: Summary,
    /// Per-layer metrics the workload computes itself (name → value).
    pub layers: BTreeMap<&'static str, f64>,
    /// Peak RSS of the processes that ran the checks, when that is not
    /// this process.
    pub peak_rss_mb: Option<f64>,
    /// Set-up times, in seconds, of fresh starts the workload made during
    /// the phase (as measured).
    pub setups_s: Vec<f64>,
}

impl Phase {
    fn record(
        &mut self,
        latency: Duration,
        factor: f64,
        recorded: bool,
        result: Result<u64, String>,
    ) {
        self.latencies_ms.push(latency.as_secs_f64() * 1e3);
        self.factors.push(factor);
        self.recorded.push(recorded);
        match result {
            Ok(n) => {
                self.attempted += 1;
                self.verdicts += n;
            }
            Err(why) => self.fail(&why),
        }
    }

    /// Add the ops of `other`, a concurrent client or a later window of
    /// the same phase.
    pub fn absorb(&mut self, other: Phase) {
        self.latencies_ms.extend(other.latencies_ms);
        self.factors.extend(other.factors);
        self.recorded.extend(other.recorded);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.verdicts += other.verdicts;
        self.summary.merge(other.summary);
    }

    fn fail(&mut self, why: &str) {
        self.attempted += 1;
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("perfbench: op failed: {why}");
        }
    }
}

/// Run `w` closed-loop until `budget` has passed, and at least `min_ops`.
pub fn closed_loop<W: Workload + ?Sized>(
    w: &mut W,
    budget: Duration,
    min_ops: usize,
    traced: bool,
) -> Phase {
    let mut tracer = Tracer::new(traced);
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut ops = 0usize;
    let mut reference = trace::reference_ms();
    phase.references_ms.push(reference);
    while ops < min_ops || start.elapsed() < budget {
        let recorded = tracer.next_op();
        let t0 = Instant::now();
        let result = tracer.span("op", |t| w.op(t));
        let latency = t0.elapsed();
        let next = trace::reference_ms();
        phase.references_ms.push(next);
        phase.record(
            latency,
            trace::speed_factor(reference, next),
            recorded,
            result,
        );
        reference = next;
        if recorded {
            if let Err(why) = w.probe(&mut tracer) {
                phase.fail(&format!("probe: {why}"));
            }
        }
        ops += 1;
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase.busy_s = phase.latencies_ms.iter().sum::<f64>() / 1e3;
    phase.summary = tracer.summary();
    phase
}

/// A set-up workload, ready to measure.
pub enum Prepared {
    Single(Box<dyn Workload>),
    Svc(Box<svc::Svc>),
}

impl Prepared {
    fn measure(&mut self, budget: Duration, min_ops: usize, traced: bool) -> Result<Phase, String> {
        match self {
            Prepared::Single(w) => Ok(closed_loop(w.as_mut(), budget, min_ops, traced)),
            Prepared::Svc(s) => s.measure(budget, min_ops, traced),
        }
    }
}

fn setup(kind: Kind, ctx: &Ctx, rep: usize) -> Result<Prepared, String> {
    let dir = ctx.scratch.join(format!("{}-{rep}", kind.name()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(match kind {
        Kind::OtaCold => Prepared::Single(Box::new(ota::Ota::setup(ctx, &dir, false)?)),
        Kind::OtaWarm => Prepared::Single(Box::new(ota::Ota::setup(ctx, &dir, true)?)),
        Kind::Conform => Prepared::Single(Box::new(conform::Conform::setup(ctx)?)),
        Kind::Svc => Prepared::Svc(Box::new(svc::Svc::setup(ctx, &dir)?)),
    })
}

/// Removes the per-run scratch directory however the run ends.
struct ScratchGuard(PathBuf);

impl Drop for ScratchGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    autocsp: PathBuf,
    fingerprint: BTreeMap<String, String>,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut autocsp = None;
    let mut fingerprint = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad seconds `{value}`"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            "--autocsp" => autocsp = Some(PathBuf::from(value)),
            "--rustc" | "--git-commit" | "--source-digest" => {
                fingerprint.insert(flag[2..].replace('-', "_"), value);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        autocsp: autocsp.ok_or("--autocsp is required")?,
        fingerprint,
    })
}

fn json_metrics(values: &[(&str, &str, f64)]) -> Result<String, String> {
    if let Some((name, _, value)) = values.iter().find(|(_, _, v)| !v.is_finite()) {
        return Err(format!("`{name}` measured as {value}"));
    }
    let mut out = String::from("{");
    for (i, (name, unit, value)) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    Ok(out)
}

fn print_fingerprint(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut out = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \
         \"nproc\": {nproc}, \"profile\": \"{profile}\"",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke
    );
    for (k, v) in &args.fingerprint {
        let _ = write!(out, ", \"{k}\": {}", diag::json_string(v));
    }
    out.push('}');
    println!("machine: {out}");
}

/// Per-layer metrics from a traced phase: medians of per-op span totals,
/// counts, and the workload's own derived metrics.
fn layer_metrics(phase: &Phase, into: &mut BTreeMap<String, f64>) {
    for (name, samples) in &phase.summary.duration_us {
        if *name != "op" {
            into.entry(format!("{name}_us"))
                .or_insert_with(|| median(samples));
        }
    }
    for (name, samples) in &phase.summary.counts {
        into.entry((*name).to_string())
            .or_insert_with(|| median(samples));
    }
    for (name, value) in &phase.layers {
        into.entry((*name).to_string()).or_insert(*value);
    }
    if !phase.references_ms.is_empty() {
        into.entry("bench.reference_ms".to_string())
            .or_insert_with(|| median(&phase.references_ms));
    }
}

/// Print each layer's median self time and its share of the op.
fn print_self_times(kind: Kind, phase: &Phase) {
    let op = phase
        .summary
        .duration_us
        .get("op")
        .map_or(f64::NAN, |s| median(s));
    eprintln!(
        "perfbench: {} self time per op (median of {} ops, op {op:.0} us):",
        kind.name(),
        phase.attempted
    );
    let mut rows: Vec<(&str, f64)> = phase
        .summary
        .self_us
        .iter()
        .map(|(name, samples)| (*name, median(samples)))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, us) in rows {
        eprintln!("  {name:<28} {us:>12.1} us  {:>5.1}%", 100.0 * us / op);
    }
}

fn run(args: &Args, ctx: &Ctx) -> Result<(u64, u64, String), String> {
    let budget = Duration::from_secs_f64(args.seconds.max(0.0));
    let min_ops = if args.smoke { 3 } else { 1 };
    if !args.trace {
        let mut setups = Vec::with_capacity(SETUP_REPS);
        let mut raw_setups = Vec::with_capacity(SETUP_REPS);
        let mut prepared = None;
        for rep in 0..SETUP_REPS {
            // Tear the previous set-up down first, outside the timing.
            drop(prepared.take());
            let before = trace::reference_ms();
            let t0 = Instant::now();
            prepared = Some(setup(args.kind, ctx, rep)?);
            let raw = t0.elapsed().as_secs_f64();
            raw_setups.push(raw);
            let factor = if args.kind.speed_scaled() {
                trace::speed_factor(before, trace::reference_ms())
            } else {
                1.0
            };
            setups.push(raw * factor);
        }
        let mut prepared = prepared.expect("at least one set-up");
        let phase = prepared.measure(budget, min_ops, false)?;
        drop(prepared);
        raw_setups.extend(&phase.setups_s);
        setups.extend(&phase.setups_s);
        // Every time is reported at the nominal host speed (see
        // `trace::reference_ms`); the raw figures go to standard error.
        let raw = &phase.latencies_ms;
        let lat: Vec<f64> = raw.iter().zip(&phase.factors).map(|(l, f)| l * f).collect();
        let mean_factor = lat.iter().sum::<f64>() / raw.iter().sum::<f64>();
        let throughput = phase.verdicts as f64 / phase.busy_s;
        let metrics = [
            ("verdict_p50_ms", "ms", median(&lat)),
            ("verdict_p90_ms", "ms", quantile(&lat, 0.90)),
            ("verdict_p99_ms", "ms", quantile(&lat, 0.99)),
            ("throughput_per_s", "1/s", throughput / mean_factor),
            (
                "peak_rss_mb",
                "MB",
                phase.peak_rss_mb.unwrap_or_else(trace::peak_rss_mib),
            ),
            ("setup_s", "s", median(&setups)),
        ];
        eprintln!(
            "perfbench: {} ops ({} verdicts) in {:.2} s; as measured: p50 {:.3} ms, p90 {:.3} ms, \
             p99 {:.3} ms, {throughput:.3}/s, set-up {:.3} s",
            phase.attempted,
            phase.verdicts,
            phase.wall_s,
            median(raw),
            quantile(raw, 0.90),
            quantile(raw, 0.99),
            median(&raw_setups),
        );
        if args.kind.speed_scaled() {
            eprintln!(
                "perfbench: reference median {:.3} ms, mean speed factor {mean_factor:.3}",
                median(&phase.references_ms)
            );
        }
        return Ok((phase.attempted, phase.failed, json_metrics(&metrics)?));
    }

    // Traced run: traced and untraced ops alternate, so the difference of
    // their medians is the tracing overhead.
    let mut layers = BTreeMap::new();
    let mut prepared = setup(args.kind, ctx, 0)?;
    let traced = prepared.measure(budget, min_ops, true)?;
    drop(prepared);
    let mut attempted = traced.attempted;
    let mut failed = traced.failed;
    let split = |want: bool| -> Vec<f64> {
        let ops = traced.latencies_ms.iter().zip(&traced.recorded);
        ops.filter(|(_, r)| **r == want)
            .map(|(l, _)| l * 1e3)
            .collect()
    };
    let (op_us, untraced_us) = (median(&split(true)), median(&split(false)));
    layers.insert("trace.op_us".to_string(), op_us);
    layers.insert("trace.untraced_op_us".to_string(), untraced_us);
    layers.insert("trace.overhead_us".to_string(), op_us - untraced_us);
    layers.insert(
        "trace.op_self_us".to_string(),
        traced
            .summary
            .self_us
            .get("op")
            .map_or(f64::NAN, |s| median(s)),
    );
    print_self_times(args.kind, &traced);
    layer_metrics(&traced, &mut layers);

    // Layers this workload does not reach are measured on a short traced
    // sample of the workload that owns them, so every traced run reports
    // the whole stack.
    let companion = Duration::from_secs_f64(if args.smoke { 0.1 } else { COMPANION_S });
    for other in Kind::ALL.into_iter().filter(|k| *k != args.kind) {
        let mut prepared = setup(other, ctx, 1)?;
        let sample = prepared.measure(companion, 2, true)?;
        drop(prepared);
        attempted += sample.attempted;
        failed += sample.failed;
        print_self_times(other, &sample);
        layer_metrics(&sample, &mut layers);
    }
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for (name, unit) in PER_LAYER {
        let value = layers
            .get(*name)
            .copied()
            .ok_or_else(|| format!("traced run measured no `{name}`"))?;
        metrics.push((*name, *unit, value));
    }
    Ok((attempted, failed, json_metrics(&metrics)?))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    print_fingerprint(&args);
    let root = std::env::current_dir().expect("current directory is readable");
    let scratch = root.join(".bench_runs").join(format!(
        "{}-{}-{}",
        args.kind.name(),
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let guard = ScratchGuard(scratch.clone());
    let ctx = Ctx {
        seed: args.seed,
        smoke: args.smoke,
        scratch,
        autocsp: absolute(&root, &args.autocsp),
    };
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&args, &ctx)));
    drop(guard);
    match result {
        Ok(Ok((attempted, failed, metrics))) => {
            let correct = failed == 0 && attempted > 0;
            println!(
                "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Ok(Err(e)) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
        Err(_) => {
            eprintln!("perfbench: the run panicked");
            ExitCode::FAILURE
        }
    }
}

fn absolute(root: &Path, p: &Path) -> PathBuf {
    if p.is_absolute() {
        p.to_path_buf()
    } else {
        root.join(p)
    }
}
