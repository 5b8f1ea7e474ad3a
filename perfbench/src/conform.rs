//! `conform_corpus`: batch trace conformance of JSONL fleet logs.
//!
//! The specification interleaves one SP02 request/report discipline per
//! ECU, with the ECU index in every event, so its normal form has `3^n`
//! nodes. Each op takes one JSONL chunk of the seeded pool through
//! `faults::batch::parse_corpus` → `BatchRun::new` → `push` → `finish(1)`
//! and checks every per-trace verdict against the one the generator
//! recorded when it wrote the trace:
//!
//! - an honest session interleaves requests and their reports, so it
//!   conforms;
//! - a planted refusal is a report no pending request asked for, so the
//!   counterexample is the prefix before it, then that report;
//! - a planted unknown event names an ECU the model does not have, so the
//!   verdict names that event and its index;
//! - a share of the traces repeats an earlier honest session verbatim,
//!   which is what the hypertrace trie shares.

use std::fmt::Write as _;

use faults::batch::{parse_corpus, BatchRun};
use faults::conformance::ConformanceVerdict;
use fdrlite::{Checker, FailureKind, ModelStore};

use crate::trace::Tracer;
use crate::{Ctx, Rng, Workload};

/// ECUs interleaved in the specification.
const ECUS: usize = 6;
/// Traces per chunk (one op).
const TRACES: usize = 2_000;
/// Chunks in the seeded pool.
const POOL: usize = 3;
/// Trace lengths are uniform in `MIN_LEN..=MAX_LEN` events.
const MIN_LEN: usize = 1;
const MAX_LEN: usize = 128;
/// One trace in this many carries a planted refusal, one in
/// `UNKNOWN_ONE_IN` an unknown event, and one in `REPEAT_ONE_IN` repeats
/// an earlier honest session.
const REFUSAL_ONE_IN: usize = 10;
const UNKNOWN_ONE_IN: usize = 20;
const REPEAT_ONE_IN: usize = 5;

/// The verdict a generated trace must get.
#[derive(Clone, Copy)]
enum Expect {
    Conformant,
    /// Refused at this index: the counterexample is the prefix before it.
    Refused(usize),
    /// The event at this index is not in the model's alphabet.
    Unknown(usize),
}

struct Chunk {
    text: String,
    /// Event-name codes per trace, indexing `Conform::names`.
    traces: Vec<Vec<u16>>,
    expect: Vec<Expect>,
}

pub struct Conform {
    loaded: cspm::LoadedScript,
    store: ModelStore,
    names: Vec<String>,
    pool: Vec<Chunk>,
    next: usize,
}

/// Event-name codes: ECU `i` owns codes `4i..4i+4` (reqSw, reqApp, rptSw,
/// rptUpd); the last two codes are outside the alphabet.
fn event_names(ecus: usize) -> Vec<String> {
    let mut names = Vec::with_capacity(4 * ecus + 2);
    for i in 0..ecus {
        names.push(format!("rec.{i}.reqSw"));
        names.push(format!("rec.{i}.reqApp"));
        names.push(format!("send.{i}.rptSw"));
        names.push(format!("send.{i}.rptUpd"));
    }
    names.push(format!("rec.{ecus}.reqSw"));
    names.push("diag.reset".to_string());
    names
}

fn spec_script(ecus: usize) -> String {
    format!(
        "datatype MsgT = reqSw | rptSw | reqApp | rptUpd\n\
         channel rec, send : {{0..{}}}.MsgT\n\
         SP02(i) = rec.i.reqSw -> send.i.rptSw -> SP02(i)\n\
         \x20      [] rec.i.reqApp -> send.i.rptUpd -> SP02(i)\n\
         FLEET = ||| i : {{0..{}}} @ SP02(i)\n",
        ecus - 1,
        ecus - 1
    )
}

/// One seeded chunk with the verdict each trace must get.
fn generate(rng: &mut Rng, names: &[String], traces: usize, tag: usize) -> Chunk {
    let ecus = (names.len() - 2) / 4;
    let mut chunk = Chunk {
        text: String::new(),
        traces: Vec::with_capacity(traces),
        expect: Vec::with_capacity(traces),
    };
    let mut honest: Vec<usize> = Vec::new();
    for t in 0..traces {
        let (events, expect) = if !honest.is_empty() && rng.one_in(REPEAT_ONE_IN) {
            let earlier = honest[rng.below(honest.len())];
            (chunk.traces[earlier].clone(), Expect::Conformant)
        } else {
            session(rng, ecus)
        };
        if matches!(expect, Expect::Conformant) {
            honest.push(t);
        }
        let _ = write!(chunk.text, "{{\"id\":\"c{tag}-t{t}\",\"events\":[");
        for (i, code) in events.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(chunk.text, "{sep}\"{}\"", names[usize::from(*code)]);
        }
        chunk.text.push_str("]}\n");
        chunk.traces.push(events);
        chunk.expect.push(expect);
    }
    chunk
}

/// A random interleaving of request/report sessions, with at most one
/// planted defect.
fn session(rng: &mut Rng, ecus: usize) -> (Vec<u16>, Expect) {
    let len = MIN_LEN + rng.below(MAX_LEN - MIN_LEN + 1);
    let defect = if rng.one_in(REFUSAL_ONE_IN) {
        Some((true, rng.below(len)))
    } else if rng.one_in(UNKNOWN_ONE_IN) {
        Some((false, rng.below(len)))
    } else {
        None
    };
    // Per ECU: 0 idle, 1 awaiting rptSw, 2 awaiting rptUpd.
    let mut state = vec![0u8; ecus];
    let mut events = Vec::with_capacity(len);
    let mut expect = Expect::Conformant;
    for at in 0..len {
        let i = rng.below(ecus);
        let base = (4 * i) as u16;
        let code = match defect {
            Some((true, k)) if k == at => {
                expect = Expect::Refused(at);
                // A report nothing asked for: rptUpd while awaiting rptSw,
                // rptSw otherwise. The ECU's state does not change.
                if state[i] == 1 {
                    base + 3
                } else {
                    base + 2
                }
            }
            Some((false, k)) if k == at => {
                expect = Expect::Unknown(at);
                (4 * ecus + rng.below(2)) as u16
            }
            _ => match state[i] {
                0 => {
                    let app = rng.one_in(2);
                    state[i] = if app { 2 } else { 1 };
                    base + u16::from(app)
                }
                1 => {
                    state[i] = 0;
                    base + 2
                }
                _ => {
                    state[i] = 0;
                    base + 3
                }
            },
        };
        events.push(code);
    }
    (events, expect)
}

impl Conform {
    pub fn setup(ctx: &Ctx) -> Result<Conform, String> {
        let (ecus, traces, pool_len) = if ctx.smoke {
            (2, 40, 2)
        } else {
            (ECUS, TRACES, POOL)
        };
        let loaded = cspm::Script::parse(&spec_script(ecus))
            .and_then(|s| s.load())
            .map_err(|e| format!("spec: {e}"))?;
        let names = event_names(ecus);
        let mut rng = Rng::new(ctx.seed, 2);
        let pool = (0..pool_len)
            .map(|c| generate(&mut rng, &names, traces, c))
            .collect();
        let mut conform = Conform {
            loaded,
            store: ModelStore::new(),
            names,
            pool,
            next: 0,
        };
        // Warm-up: normalises the spec into the store and touches every
        // chunk once.
        let mut tracer = Tracer::new(false);
        for _ in 0..pool_len {
            conform
                .op(&mut tracer)
                .map_err(|e| format!("warm-up op: {e}"))?;
        }
        Ok(conform)
    }
}

/// Compare one verdict with the expected one.
fn check_verdict(
    verdict: &ConformanceVerdict,
    expect: Expect,
    events: &[u16],
    names: &[String],
    alphabet: &csp::Alphabet,
) -> Result<(), String> {
    match (expect, verdict) {
        (Expect::Conformant, ConformanceVerdict::Conformant) => Ok(()),
        (Expect::Unknown(at), ConformanceVerdict::UnknownEvent { event, index })
            if *index == at && *event == names[usize::from(events[at])] =>
        {
            Ok(())
        }
        (Expect::Refused(at), ConformanceVerdict::Refuted(cex)) => {
            let trace = cex.trace().events();
            let prefix_ok = trace.len() == at
                && trace.iter().zip(events).all(|(e, code)| {
                    e.event()
                        .is_some_and(|id| alphabet.name(id) == names[usize::from(*code)])
                });
            let event_ok = matches!(cex.kind(), FailureKind::TraceViolation { event: Some(e) }
                if alphabet.name(*e) == names[usize::from(events[at])]);
            if prefix_ok && event_ok {
                Ok(())
            } else {
                Err(format!(
                    "refusal at {at} reported as {}",
                    cex.display(alphabet)
                ))
            }
        }
        (_, other) => Err(format!("unexpected verdict {other:?}")),
    }
}

impl Workload for Conform {
    fn op(&mut self, t: &mut Tracer) -> Result<u64, String> {
        let chunk = &self.pool[self.next % self.pool.len()];
        self.next += 1;
        let (traces, diagnostics) = t.span("faults.parse_corpus", |_| parse_corpus(&chunk.text));
        if !diagnostics.is_empty() || traces.len() != chunk.expect.len() {
            return Err(format!(
                "corpus parsed to {} trace(s) with {} diagnostic(s)",
                traces.len(),
                diagnostics.len()
            ));
        }
        let checker = Checker::new();
        let mut run = t
            .span("faults.batch_new", |_| {
                BatchRun::new(&self.loaded, "FLEET", &checker, &self.store)
            })
            .map_err(|e| format!("batch: {e}"))?;
        t.span("faults.ingest", |_| {
            for (_, line) in &traces {
                run.push(&line.events);
            }
        });
        let report = t.span("fdrlite.walk", |_| run.finish(1));
        let alphabet = self.loaded.alphabet();
        for (i, verdict) in report.verdicts.iter().enumerate() {
            check_verdict(
                verdict,
                chunk.expect[i],
                &chunk.traces[i],
                &self.names,
                alphabet,
            )
            .map_err(|e| format!("trace {i}: {e}"))?;
        }
        let stats = &report.stats;
        t.count("faults.corpus_bytes", chunk.text.len() as f64);
        t.count("faults.events", stats.total_events as f64);
        t.count("fdrlite.trie_nodes", stats.trie_nodes as f64);
        t.count(
            "fdrlite.trie_sharing",
            stats.total_events as f64 / stats.trie_nodes.max(1) as f64,
        );
        t.count(
            "faults.nonconformant",
            (stats.refuted + stats.unknown_event) as f64,
        );
        Ok(report.verdicts.len() as u64)
    }
}
