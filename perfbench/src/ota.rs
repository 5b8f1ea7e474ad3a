//! `ota_cold` and `ota_warm`: the paper's workflow from CAPL source to a
//! refinement verdict, on the X.1373 VMG/ECU pair of `ota::sources`.
//!
//! Each op parses both CAPL programs, composes them with the `.dbc`
//! message database, extends the extracted script with a fleet of
//! interleaved `SYSTEM` copies and four assertions, loads it and checks
//! every assertion serially on a fresh `ModelStore`:
//!
//! - `ota_cold` gives the store no cache, as a plain `autocsp check` runs;
//! - `ota_warm` backs it with a `PersistentCache` the set-up filled, as a
//!   CI rerun with `--cache-dir` runs.
//!
//! Three assertions pass (`RUN [T=`, `CHAOS [F=`, `CHAOS [FD=`); the
//! fourth interleaves a rogue component that performs its first event and
//! then `forged`, which `RUN` over the fleet's channels forbids. Its
//! counterexample is therefore known by construction: after the rogue's
//! first event, `forged`.

use std::path::Path;
use std::sync::Arc;

use csp::Process;
use fdrlite::{Checker, FailureKind, ModelStore, PersistentCache, Verdict};
use translator::{NodeSpec, SystemBuilder};

use crate::trace::Tracer;
use crate::{Ctx, Rng, Workload};

/// Interleaved `SYSTEM` copies per fleet (5 states each).
const COPIES: usize = 6;
/// Variants in the seeded pool.
const POOL: usize = 4;
/// The events the rogue component may start with.
const ROGUE_FIRST: [&str; 4] = ["rec.reqSw", "rec.reqApp", "send.rptSw", "send.rptUpd"];

/// One equal-size input: component order and the rogue's shape.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Variant {
    gateway_first: bool,
    rogue_pos: usize,
    rogue_first: usize,
}

pub struct Ota {
    copies: usize,
    pool: Vec<Variant>,
    next: usize,
    cache: Option<Arc<PersistentCache>>,
    probe_dir: std::path::PathBuf,
    /// The last traced op's script, store and variant, for the probes.
    last: Option<(cspm::LoadedScript, ModelStore, Variant)>,
}

fn err<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

impl Ota {
    /// Draw the pool, open the cache (filling it from the pool when
    /// `warm`) and run warm-up ops.
    pub fn setup(ctx: &Ctx, dir: &Path, warm: bool) -> Result<Ota, String> {
        let copies = if ctx.smoke { 2 } else { COPIES };
        let mut rng = Rng::new(ctx.seed, 1);
        let mut pool = Vec::new();
        while pool.len() < POOL {
            // Both component orders in equal shares, whatever the seed.
            let v = Variant {
                gateway_first: pool.len() % 2 == 0,
                rogue_pos: rng.below(copies),
                rogue_first: rng.below(ROGUE_FIRST.len()),
            };
            if !pool.contains(&v) {
                pool.push(v);
            }
        }
        let cache = if warm {
            let cache = PersistentCache::open(dir.join("cache"))
                .map_err(|e| format!("cannot open cache: {e}"))?;
            Some(Arc::new(cache))
        } else {
            None
        };
        let mut ota = Ota {
            copies,
            pool,
            next: 0,
            cache,
            probe_dir: dir.join("probe"),
            last: None,
        };
        // Warm-up: the first op of a process pays one-off costs. For
        // `ota_warm` one pass over the pool is also what fills the cache.
        let warmups = if warm { POOL + 1 } else { 2 };
        let mut tracer = Tracer::new(false);
        for _ in 0..warmups {
            ota.op(&mut tracer)
                .map_err(|e| format!("warm-up op: {e}"))?;
        }
        Ok(ota)
    }

    fn fresh_store(&self) -> ModelStore {
        match &self.cache {
            Some(cache) => ModelStore::with_cache(Arc::clone(cache)),
            None => ModelStore::new(),
        }
    }

    /// The extracted script extended with the fleet and its assertions.
    fn fleet_script(&self, extracted: &str, v: Variant) -> String {
        let fleet = vec!["SYSTEM"; self.copies].join(" ||| ");
        let mut rogue = vec!["SYSTEM"; self.copies - 1];
        rogue.insert(v.rogue_pos, "ROGUE");
        format!(
            "{extracted}\n\
             channel forged\n\
             COMM = {{| rec, send |}}\n\
             RUN(A) = [] x : A @ x -> RUN(A)\n\
             CHAOS(A) = STOP |~| ([] x : A @ x -> CHAOS(A))\n\
             SPEC_T = RUN(COMM)\n\
             SPEC_F = CHAOS(COMM)\n\
             ROGUE = {} -> forged -> STOP\n\
             FLEET = {fleet}\n\
             RFLEET = {}\n\
             assert SPEC_T [T= FLEET\n\
             assert SPEC_F [F= FLEET\n\
             assert SPEC_F [FD= FLEET\n\
             assert SPEC_T [T= RFLEET\n",
            ROGUE_FIRST[v.rogue_first],
            rogue.join(" ||| ")
        )
    }

    /// Compile, normalise and analyse every operand through `store` under
    /// their own spans, so the final check only explores.
    fn warm_store(
        &self,
        t: &mut Tracer,
        loaded: &cspm::LoadedScript,
        store: &ModelStore,
    ) -> Result<(), String> {
        let checker = Checker::new();
        let defs = loaded.definitions();
        let hits = self
            .cache
            .as_ref()
            .map(|c| (c.disk_hits(), c.disk_misses()));
        let compile_span = if self.cache.is_some() {
            "fdrlite.persist_load"
        } else {
            "fdrlite.compile"
        };
        for name in ["FLEET", "RFLEET"] {
            let p = named(loaded, name)?;
            let model = t
                .span(compile_span, |_| store.compile(&checker, p, defs))
                .map_err(err("compile"))?;
            t.count("fdrlite.impl_states", model.lts().state_count() as f64);
            t.count(
                "fdrlite.impl_transitions",
                model.lts().transition_count() as f64,
            );
        }
        for name in ["SPEC_T", "SPEC_F"] {
            let p = named(loaded, name)?;
            let norm = t
                .span("fdrlite.normalise", |_| store.normalised(&checker, p, defs))
                .map_err(err("normalise"))?;
            t.count("fdrlite.norm_nodes", norm.node_count() as f64);
        }
        let fleet = named(loaded, "FLEET")?;
        t.span("fdrlite.graph_analysis", |_| {
            store.graph_analysis(&checker, fleet, defs)
        })
        .map_err(err("graph analysis"))?;
        if let (Some(cache), Some((h, m))) = (&self.cache, hits) {
            t.count("fdrlite.disk_hits", (cache.disk_hits() - h) as f64);
            t.count("fdrlite.disk_misses", (cache.disk_misses() - m) as f64);
        }
        Ok(())
    }
}

/// Check the four verdicts against the ones known by construction.
fn verify(
    results: &[cspm::AssertionResult],
    loaded: &cspm::LoadedScript,
    v: Variant,
) -> Result<(), String> {
    if results.len() != 4 {
        return Err(format!("expected 4 verdicts, got {}", results.len()));
    }
    for r in &results[..3] {
        if !r.verdict.is_pass() {
            return Err(format!("`{}` should pass: {:?}", r.description, r.verdict));
        }
    }
    let Verdict::Fail(cex) = &results[3].verdict else {
        return Err(format!(
            "rogue assertion should fail: {:?}",
            results[3].verdict
        ));
    };
    let alphabet = loaded.alphabet();
    let trace: Vec<&str> = cex
        .trace()
        .events()
        .iter()
        .map(|e| e.event().map_or("✓", |id| alphabet.name(id)))
        .collect();
    let forbidden = match cex.kind() {
        FailureKind::TraceViolation { event: Some(e) } => alphabet.name(*e),
        other => return Err(format!("rogue counterexample has kind {other:?}")),
    };
    if trace != [ROGUE_FIRST[v.rogue_first]] || forbidden != "forged" {
        return Err(format!(
            "rogue counterexample is {trace:?} then `{forbidden}`"
        ));
    }
    Ok(())
}

fn named<'a>(loaded: &'a cspm::LoadedScript, name: &str) -> Result<&'a Process, String> {
    loaded
        .process(name)
        .ok_or_else(|| format!("script defines no `{name}`"))
}

impl Workload for Ota {
    fn op(&mut self, t: &mut Tracer) -> Result<u64, String> {
        let v = self.pool[self.next % self.pool.len()];
        self.next += 1;
        let (vmg, ecu) = t
            .span("capl.parse", |_| {
                Ok::<_, capl::CaplError>((
                    capl::parse(ota::sources::VMG_CAPL)?,
                    capl::parse(ota::sources::ECU_CAPL)?,
                ))
            })
            .map_err(err("CAPL"))?;
        let extracted = t
            .span("translator.build", |_| {
                let (vmg, ecu) = (NodeSpec::gateway("VMG", vmg), NodeSpec::ecu("ECU", ecu));
                let builder = SystemBuilder::new().database(ota::messages::database());
                let builder = if v.gateway_first {
                    builder.node(vmg).node(ecu)
                } else {
                    builder.node(ecu).node(vmg)
                };
                builder.build()
            })
            .map_err(err("translate"))?;
        let script = self.fleet_script(&extracted.script, v);
        let loaded = t
            .span("cspm.load", |_| cspm::Script::parse(&script)?.load())
            .map_err(err("CSPm"))?;
        let store = self.fresh_store();
        let options = cspm::CheckOptions {
            collect_stats: t.recording(),
            ..cspm::CheckOptions::default()
        };
        if t.recording() {
            self.warm_store(t, &loaded, &store)?;
        }
        let results = t
            .span("fdrlite.explore", |_| {
                loaded.check_with_store(&Checker::new(), &options, &store)
            })
            .map_err(err("check"))?;
        if t.recording() {
            let stats = results.iter().filter_map(|r| r.stats.as_ref());
            let (pairs, misses) = stats.fold((0, 0), |(p, m), s| {
                (p + s.pairs_discovered, m + s.store_misses)
            });
            if misses != 0 {
                return Err(format!(
                    "{misses} artefact(s) compiled during the explore span"
                ));
            }
            t.count("fdrlite.pairs", pairs as f64);
        }
        verify(&results, &loaded, v)?;
        if t.recording() {
            self.last = Some((loaded, store, v));
        }
        Ok(1)
    }

    fn probe(&mut self, t: &mut Tracer) -> Result<(), String> {
        let Some((loaded, store, v)) = self.last.take() else {
            return Ok(());
        };
        let checker = Checker::new();
        let defs = loaded.definitions();
        let fleet = named(&loaded, "FLEET")?;
        t.span("fdrlite.store_hit", |_| {
            store.compile(&checker, fleet, defs)
        })
        .map_err(err("store hit"))?;
        let two = cspm::CheckOptions {
            threads: 2,
            ..cspm::CheckOptions::default()
        };
        let results = t
            .span("fdrlite.explore_2t", |_| {
                loaded.check_with_store(&checker, &two, &store)
            })
            .map_err(err("2-thread check"))?;
        verify(&results, &loaded, v).map_err(|e| format!("2 threads: {e}"))?;
        if self.cache.is_some() {
            // What set-up pays per artefact: a miss-path compile that
            // encodes and writes the entry into an empty cache.
            let _ = std::fs::remove_dir_all(&self.probe_dir);
            let empty = PersistentCache::open(&self.probe_dir).map_err(err("probe cache"))?;
            let writing = ModelStore::with_cache(Arc::new(empty));
            t.span("fdrlite.persist_store", |_| {
                writing.compile(&checker, fleet, defs)
            })
            .map_err(err("compile"))?;
        }
        Ok(())
    }
}
