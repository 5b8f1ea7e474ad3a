//! `svc_jobs`: the checking service, closed loop with two clients.
//!
//! The service runs in this process (`service::server::Server`) with two
//! child-process workers spawned from the release `autocsp` binary, the
//! production shape. Each client writes a small X.1373 check script of its
//! own, submits a one-job manifest (`POST /v1/jobs`) and long-polls the
//! job (`GET /v1/jobs/<id>?wait=`). Jobs alternate between a passing and a
//! refuted assertion, so the verdict lines are known by construction. A
//! seeded one in eight resubmits one of the client's earlier manifests
//! verbatim, which must be answered by deduplication with the same id and
//! the same verdict.
//!
//! A job's own work is about a tenth of a millisecond, so this workload measures
//! the service layer: HTTP, queue, dispatch, journal and the worker hop.
//!
//! The service slows down as it serves more jobs, so the workload measures
//! in windows of a fixed number of jobs, each on a freshly started service.
//! Every window sees the same service age whatever the host's speed, and a
//! faster service runs more windows, not older ones. Each fresh start is a
//! set-up and is timed as one.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use diag::json::{self, Value};
use fdrlite::supervisor::RetryPolicy;
use service::exec::{ExecConfig, Executor};
use service::http::client_request;
use service::server::{LauncherKind, Server, ServerConfig};

use crate::trace::{median, Tracer};
use crate::{Ctx, Phase, Rng, STALL_MS};

/// Worker processes in the farm.
const WORKERS: usize = 2;
/// Client threads in the closed loop.
const CLIENTS: usize = 2;
/// One submission in this many resubmits an earlier manifest verbatim.
const RESUBMIT_ONE_IN: usize = 8;
/// Jobs in one measured window, across both clients.
const WINDOW_JOBS: usize = 1_000;
/// Warm-up jobs run on each fresh service, as part of its set-up.
const WARMUP_JOBS: usize = 4;
/// Jobs run through the direct executor to price the service overhead.
const DIRECT_JOBS: usize = 64;

const MODEL: &str = "\
datatype MsgT = reqSw | rptSw | reqApp | rptUpd
channel rec, send : MsgT
SP02 = rec.reqSw -> send.rptSw -> SP02 [] rec.reqApp -> send.rptUpd -> SP02
ECU = rec.reqSw -> send.rptSw -> ECU [] rec.reqApp -> send.rptUpd -> ECU
VMG = rec.reqSw -> send.rptSw -> rec.reqApp -> send.rptUpd -> VMG
SYSTEM = VMG [| {| rec, send |} |] ECU
ROGUE = rec.reqSw -> send.rptSw -> send.rptSw -> ROGUE
";

/// A submitted job and the verdict it must get.
#[derive(Clone)]
struct Job {
    manifest: String,
    refuted: bool,
    /// The id the service gave it, once known.
    id: Option<String>,
}

pub struct Svc {
    server: Option<Server>,
    addr: String,
    /// This set-up's directory; each service started gets its own state
    /// directory below it.
    dir: PathBuf,
    scripts: PathBuf,
    autocsp: PathBuf,
    direct_cache: PathBuf,
    seed: u64,
    smoke: bool,
    /// Services started so far.
    started: usize,
    /// Jobs written so far, across set-up and every window, so every new
    /// job has its own script file and content.
    written: u64,
}

impl Drop for Svc {
    fn drop(&mut self) {
        // Stops the threads and kills and reaps the worker processes.
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// Write job `n`'s script and return its manifest.
fn new_job(scripts: &Path, n: u64) -> Result<Job, String> {
    let refuted = n % 2 == 1;
    let target = if refuted { "ROGUE" } else { "SYSTEM" };
    let file = format!("job{n}.csp");
    let source = format!("-- job {n}\n{MODEL}assert SP02 [T= {target}\n");
    std::fs::write(scripts.join(&file), source).map_err(|e| format!("write {file}: {e}"))?;
    Ok(Job {
        manifest: format!("[[job]]\nname = \"job{n}\"\nkind = \"check\"\nscript = \"{file}\"\n"),
        refuted,
        id: None,
    })
}

/// Check a terminal job view against the verdict known by construction.
fn verify_view(view: &Value, refuted: bool) -> Result<(), String> {
    let state = view.get("state").and_then(Value::as_str);
    let status = view.get("status").and_then(Value::as_str);
    let lines: Vec<&str> = view
        .get("lines")
        .and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    if state != Some("done") {
        return Err(format!("job ended in state {state:?}"));
    }
    verify_lines(status, &lines, refuted)
}

fn verify_lines(status: Option<&str>, lines: &[&str], refuted: bool) -> Result<(), String> {
    let ok = if refuted {
        status == Some("refuted")
            && lines.len() == 2
            && lines[0].contains("[T= ROGUE")
            && lines[0].ends_with("FAIL")
            && lines[1].contains("⟨rec.reqSw, send.rptSw⟩")
            && lines[1].contains("`send.rptSw`")
    } else {
        status == Some("passed")
            && lines.len() == 1
            && lines[0].contains("[T= SYSTEM")
            && lines[0].ends_with("PASS")
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "wrong verdict (refuted expected: {refuted}): {status:?} {lines:?}"
        ))
    }
}

/// Submit `job` and wait for its verdict.
fn submit_and_wait(
    addr: &str,
    t: &mut Tracer,
    job: &mut Job,
    resubmit: bool,
) -> Result<(), String> {
    let (status, body) = t.span("service.submit", |_| {
        client_request(addr, "POST", "/v1/jobs", &job.manifest)
    })?;
    if status != 202 {
        return Err(format!("submit answered {status}: {body}"));
    }
    let accepted = json::parse(&body).map_err(|e| format!("submit body: {e:?}"))?;
    let entry = accepted
        .get("jobs")
        .and_then(Value::as_array)
        .and_then(|jobs| jobs.first())
        .ok_or("submit body names no job")?;
    let id = entry
        .get("id")
        .and_then(Value::as_str)
        .ok_or("job has no id")?
        .to_string();
    let dedup = entry.get("dedup").and_then(Value::as_bool);
    if dedup != Some(resubmit) || (resubmit && job.id.as_deref() != Some(id.as_str())) {
        return Err(format!(
            "dedup {dedup:?} for id {id} (resubmit: {resubmit}, first id {:?})",
            job.id
        ));
    }
    let (status, body) = t.span("service.wait", |_| {
        client_request(addr, "GET", &format!("/v1/jobs/{id}?wait=60"), "")
    })?;
    if status != 200 {
        return Err(format!("wait answered {status}: {body}"));
    }
    verify_view(
        &json::parse(&body).map_err(|e| format!("job body: {e:?}"))?,
        job.refuted,
    )?;
    job.id = Some(id);
    Ok(())
}

fn health(addr: &str) -> Result<Value, String> {
    let (status, body) = client_request(addr, "GET", "/v1/health", "")?;
    if status != 200 {
        return Err(format!("health answered {status}"));
    }
    json::parse(&body).map_err(|e| format!("health body: {e:?}"))
}

/// The largest peak RSS among the live worker processes, in MiB.
fn worker_peak_rss(addr: &str) -> Result<f64, String> {
    health(addr)?
        .get("workers")
        .and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("pid").and_then(Value::as_u64))
        .map(|pid| crate::trace::status_mib(&pid.to_string(), "VmHWM:"))
        .try_fold(0.0, |peak: f64, rss| rss.map(|r| peak.max(r)))
        .ok_or_else(|| "cannot read a worker's peak RSS".to_string())
}

impl Svc {
    pub fn setup(ctx: &Ctx, dir: &Path) -> Result<Svc, String> {
        let scripts = dir.join("scripts");
        std::fs::create_dir_all(&scripts).map_err(|e| format!("scripts dir: {e}"))?;
        let mut svc = Svc {
            server: None,
            addr: String::new(),
            dir: dir.to_path_buf(),
            scripts,
            autocsp: ctx.autocsp.clone(),
            direct_cache: dir.join("direct-cache"),
            seed: ctx.seed,
            smoke: ctx.smoke,
            started: 0,
            written: 0,
        };
        svc.start()?;
        Ok(svc)
    }

    /// Start a fresh service on a fresh state directory, wait until both
    /// workers have registered and run the warm-up jobs.
    fn start(&mut self) -> Result<(), String> {
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: WORKERS,
            state_dir: self.dir.join(format!("state{}", self.started)),
            cache_dir: None,
            scripts_root: self.scripts.clone(),
            queue_cap: 64,
            heartbeat_ms: 200,
            checkpoint_every: None,
            retry: RetryPolicy::default(),
            default_threads: 1,
            default_max_states: None,
            default_timeout_ms: None,
            launcher: LauncherKind::Process {
                exe: self.autocsp.clone(),
            },
        })?;
        self.started += 1;
        self.addr = server.http_addr().to_string();
        self.server = Some(server);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let workers = health(&self.addr)?
                .get("workers")
                .and_then(Value::as_array)
                .map_or(0, <[Value]>::len);
            if workers == WORKERS {
                break;
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "{workers} of {WORKERS} workers registered within 30 s"
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut tracer = Tracer::new(false);
        for _ in 0..WARMUP_JOBS {
            let mut job = new_job(&self.scripts, self.written)?;
            self.written += 1;
            submit_and_wait(&self.addr, &mut tracer, &mut job, false)
                .map_err(|e| format!("warm-up job: {e}"))?;
        }
        Ok(())
    }

    /// Run windows of a fixed number of jobs until `budget` has passed and
    /// at least `min_ops` jobs have run. Every window after the first runs
    /// on a freshly started service; those starts are timed into
    /// [`Phase::setups_s`].
    pub fn measure(
        &mut self,
        budget: Duration,
        min_ops: usize,
        traced: bool,
    ) -> Result<Phase, String> {
        let window_jobs = if self.smoke { 8 } else { WINDOW_JOBS };
        let start = Instant::now();
        let mut phase = Phase::default();
        let mut worker_rss = Vec::new();
        loop {
            let window = self.window(window_jobs, traced);
            phase.busy_s += window.wall_s;
            phase.absorb(window);
            // The workers keep every script they have loaded, so their
            // memory is read at the same job count in every window.
            worker_rss.push(worker_peak_rss(&self.addr)?);
            if phase.failed > 0 || (phase.attempted >= min_ops as u64 && start.elapsed() >= budget)
            {
                break;
            }
            if let Some(server) = self.server.take() {
                server.shutdown();
            }
            let t0 = Instant::now();
            self.start()?;
            phase.setups_s.push(t0.elapsed().as_secs_f64());
        }
        phase.wall_s = start.elapsed().as_secs_f64();
        phase.peak_rss_mb = Some(median(&worker_rss));
        if traced {
            self.layers(&mut phase)?;
        }
        Ok(phase)
    }

    /// One window: the two clients run `jobs` jobs between them.
    fn window(&mut self, jobs: usize, traced: bool) -> Phase {
        let first = self.written;
        let per_client = 1u64 << 32;
        let (addr, seed, scripts) = (&self.addr, self.seed, &self.scripts);
        let start = Instant::now();
        let results: Vec<(Phase, Tracer)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS as u64)
                .map(|c| {
                    let mut rng = Rng::new(seed ^ first, 3 + c);
                    let mut next = first + c * per_client;
                    scope.spawn(move || {
                        let mut tracer = Tracer::new(traced);
                        let mut phase = Phase::default();
                        let mut history: Vec<Job> = Vec::new();
                        for _ in 0..jobs / CLIENTS {
                            let recorded = tracer.next_op();
                            let resubmit = !history.is_empty() && rng.one_in(RESUBMIT_ONE_IN);
                            let mut job = if resubmit {
                                history[rng.below(history.len())].clone()
                            } else {
                                next += 1;
                                match new_job(scripts, next - 1) {
                                    Ok(job) => job,
                                    Err(e) => {
                                        phase.fail(&e);
                                        break;
                                    }
                                }
                            };
                            let t0 = Instant::now();
                            let result =
                                tracer.span("op", |t| submit_and_wait(addr, t, &mut job, resubmit));
                            phase.record(t0.elapsed(), 1.0, recorded, result.map(|()| 1));
                            if !resubmit && job.id.is_some() {
                                history.push(job);
                            }
                        }
                        (phase, tracer)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut window = Phase {
            wall_s: start.elapsed().as_secs_f64(),
            ..Phase::default()
        };
        for (mut client, tracer) in results {
            client.summary = tracer.summary();
            window.absorb(client);
        }
        // Both clients' numbering ranges are now used up.
        self.written = first + CLIENTS as u64 * per_client;
        window
    }

    /// Service-level per-layer metrics of a traced phase.
    fn layers(&mut self, phase: &mut Phase) -> Result<(), String> {
        let lat = &phase.latencies_ms;
        let stalled = lat.iter().filter(|&&ms| ms > STALL_MS).count();
        let base: Vec<f64> = lat.iter().copied().filter(|&ms| ms <= STALL_MS).collect();
        phase.layers.insert("service.stalled_jobs", stalled as f64);
        phase.layers.insert(
            "service.stalled_share",
            stalled as f64 / lat.len().max(1) as f64,
        );
        phase.layers.insert("service.stall_base_ms", median(&base));

        // The same kind of job through the executor alone.
        let mut executor = Executor::new(&ExecConfig {
            cache_dir: Some(self.direct_cache.clone()),
            checkpoint_every: None,
        })?;
        let mut direct = Vec::with_capacity(DIRECT_JOBS);
        for _ in 0..DIRECT_JOBS {
            let n = self.written;
            self.written += 1;
            let job = new_job(&self.scripts, n)?;
            let resolved = service::ResolvedJob {
                name: format!("job{n}"),
                kind: cspm::manifest::JobKind::Check,
                script: self.scripts.join(format!("job{n}.csp")),
                spec: None,
                corpus: None,
                assertion: None,
                threads: 1,
                max_states: None,
                timeout_ms: None,
                chaos: None,
            };
            let t0 = Instant::now();
            let outcome = executor
                .run(&resolved, 1)
                .map_err(|e| format!("direct job: {e:?}"))?;
            direct.push(t0.elapsed().as_secs_f64() * 1e6);
            let lines: Vec<&str> = outcome.lines.iter().map(String::as_str).collect();
            verify_lines(
                Some(service::status_label(outcome.status)),
                &lines,
                job.refuted,
            )
            .map_err(|e| format!("direct job {n}: {e}"))?;
        }
        let direct_us = median(&direct);
        phase.layers.insert("service.direct_exec_us", direct_us);
        phase
            .layers
            .insert("service.overhead_us", median(lat) * 1e3 - direct_us);

        let health = health(&self.addr)?;
        let counter = |name: &str| {
            health
                .get("counters")
                .and_then(|c| c.get(name))
                .and_then(Value::as_u64)
                .map_or(f64::NAN, |v| v as f64)
        };
        for (metric, name) in [
            ("service.dedup_hits", "dedup_hits"),
            ("service.rejected", "rejected"),
            ("service.retried", "retried"),
            ("service.workers_lost", "workers_lost"),
        ] {
            phase.layers.insert(metric, counter(name));
        }
        phase
            .layers
            .insert("service.worker_peak_rss_mb", worker_peak_rss(&self.addr)?);
        Ok(())
    }
}
