//! In-process explorations: reference sessions, the measured cold and warm
//! rounds, the staged traced pipeline and the single-threaded simulator
//! probe.

use crate::measure::{count_allocs, self_usage};
use crate::oracle::{diff_clean, result_digest, Tally};
use crate::trace::Tracer;
use crate::Env;
use memory_conex::apex::{ApexConfig, ApexExplorer};
use memory_conex::appmodel::{TraceBlocks, Workload};
use memory_conex::budget::Bounds;
use memory_conex::checkpoint::{config_digest, Checkpoint};
use memory_conex::conex::design_point::workload_digest;
use memory_conex::conex::eval_cache::DEFAULT_CAPACITY;
use memory_conex::conex::{ConexConfig, ConexExplorer, DesignPoint, EvalCache, EvalEngine};
use memory_conex::connlib::ConnectivityLibrary;
use memory_conex::obs;
use memory_conex::report::RunReport;
use memory_conex::sim::{simulate_blocks, simulate_sampled_blocks, Preset};
use memory_conex::{ExplorationSession, MceError, SessionResult};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// A session as `mce explore <app> --preset <preset> --threads <n>` builds
/// it.
pub fn session(w: &Workload, preset: Preset, threads: usize) -> ExplorationSession {
    ExplorationSession::new(w.clone())
        .preset(preset)
        .threads(threads)
}

/// Runs `session` with the program's metric registries collecting, as
/// `mce explore --report-out` does, so the report carries its counters.
pub fn run_reported(session: &ExplorationSession) -> Result<SessionResult, String> {
    obs::install(Arc::new(obs::NullSink::new()));
    let out = session.run();
    obs::uninstall();
    out.map_err(|e| format!("exploration failed: {e}"))
}

/// Design points one exploration answered: every Phase-I estimate (cache
/// answers included) plus every Phase-II simulation.
pub fn evals(r: &SessionResult) -> u64 {
    (r.conex.estimated().len() + r.conex.simulated().len()) as u64
}

/// One app's reference exploration, built during set-up.
pub struct Reference {
    pub app: String,
    pub report: String,
    pub digest: String,
    pub evals: u64,
    pub estimated: Vec<DesignPoint>,
    pub simulated: Vec<DesignPoint>,
}

/// Runs one in-process reference session per app (`make` builds it) and
/// checks each against the pinned digest when the run uses the default
/// seed. Every reference counts as one attempt.
pub fn references(
    env: &Env,
    apps: &[Workload],
    preset: Preset,
    tally: &mut Tally,
    make: impl Fn(usize) -> ExplorationSession,
) -> Result<Vec<Reference>, String> {
    let mut out = Vec::new();
    for (i, w) in apps.iter().enumerate() {
        let r = run_reported(&make(i))?;
        let report = r.report.to_json();
        let digest = result_digest(&report);
        let pinned = env.pinned(preset, w.name());
        tally.record(
            !r.conex.is_truncated() && pinned.is_none_or(|p| p == digest),
            || {
                format!(
                    "reference {} ({preset}) digest {digest} does not match pin {pinned:?}",
                    w.name()
                )
            },
        );
        out.push(Reference {
            app: w.name().to_owned(),
            evals: evals(&r),
            estimated: r.conex.estimated().to_vec(),
            simulated: r.conex.simulated().to_vec(),
            report,
            digest,
        });
    }
    Ok(out)
}

/// One measured round: each app explored once.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub evals: u64,
}

/// What the measured rounds produced.
#[derive(Default)]
pub struct Rounds {
    pub rounds: Vec<Round>,
    /// Wall time of every exploration as (app index, milliseconds).
    pub job_ms: Vec<(usize, f64)>,
}

/// Explores every app once per round (`make` builds the session) until
/// `seconds` have passed, at least one round. Only the sessions are
/// timed; each result is then checked `mce diff`-clean against its
/// reference.
pub fn explore_rounds(
    seconds: f64,
    refs: &[Reference],
    tally: &mut Tally,
    make: impl Fn(usize) -> ExplorationSession,
) -> Rounds {
    let mut out = Rounds::default();
    let start = Instant::now();
    loop {
        let cpu0 = self_usage().cpu_s;
        let t0 = Instant::now();
        let mut results = Vec::new();
        for i in 0..refs.len() {
            let session = make(i);
            let t = Instant::now();
            let r = run_reported(&session);
            out.job_ms.push((i, t.elapsed().as_secs_f64() * 1e3));
            results.push(r);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = self_usage().cpu_s - cpu0;
        let mut round_evals = 0;
        for (r, reference) in results.into_iter().zip(refs) {
            let checked = r.and_then(|r| {
                round_evals += evals(&r);
                let clean = diff_clean(&reference.report, &r.report.to_json())?;
                if clean && !r.conex.is_truncated() {
                    Ok(())
                } else {
                    Err(format!(
                        "{} is not diff-clean against its reference",
                        reference.app
                    ))
                }
            });
            tally.record_result(checked);
        }
        out.rounds.push(Round {
            wall_s,
            cpu_s,
            evals: round_evals,
        });
        if start.elapsed().as_secs_f64() >= seconds {
            return out;
        }
    }
}

/// Per-layer figures from the staged traced pipeline and the probe,
/// summed over the apps unless noted.
#[derive(Debug, Default, Clone)]
pub struct StagedLayers {
    pub compiled_accesses: u64,
    pub apex_candidates: u64,
    pub estimates: u64,
    pub simulations: u64,
    pub phase1_cpu_s: f64,
    pub phase2_cpu_s: f64,
    /// Slowest single Phase-I architecture, seconds.
    pub phase1_arch_max_s: f64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub coalesced: u64,
    pub spill_bytes: u64,
    /// Largest checkpoint written, bytes.
    pub checkpoint_bytes: u64,
}

/// Persistence files for a warm staged run.
pub struct Persist<'a> {
    pub spill: &'a Path,
    pub checkpoint: &'a Path,
}

/// Drives one app's exploration stage by stage through the program's
/// public calls, as [`ExplorationSession::run`] composes them, recording a
/// span around each call (all inside one `pipeline` span). Checks that the
/// design points are bit-identical to `reference` and the report is `mce
/// diff`-clean against it, then returns the compiled trace and the
/// simulated shortlist for the probe.
#[allow(clippy::too_many_arguments)]
pub fn staged(
    t: &mut Tracer,
    layers: &mut StagedLayers,
    w: &Workload,
    preset: Preset,
    threads: usize,
    persist: Option<&Persist>,
    reference: &Reference,
) -> Result<(Arc<TraceBlocks>, Vec<DesignPoint>), String> {
    let apex_cfg = ApexConfig::preset(preset);
    let mut conex_cfg = ConexConfig::preset(preset);
    conex_cfg.threads = threads;
    let library = ConnectivityLibrary::amba();
    let capacity = DEFAULT_CAPACITY;
    let err = |e: MceError| format!("staged {}: {e}", w.name());
    obs::install(Arc::new(obs::NullSink::new()));
    let start = Instant::now();
    let run = t.span("pipeline", |t| -> Result<_, String> {
        let len = apex_cfg.trace_len.max(conex_cfg.trace_len);
        let blocks = Arc::new(t.span("appmodel.compile", |_| TraceBlocks::compile(w, len)));
        layers.compiled_accesses += len as u64;
        let cache = Arc::new(match persist {
            Some(p) => t
                .span("persist.spill_load", |_| EvalCache::load(p.spill, capacity))
                .map_err(err)?,
            None => EvalCache::with_capacity(capacity),
        });
        let apex = t.span("apex.explore", |_| {
            ApexExplorer::new(apex_cfg.clone()).explore_with_blocks(w, &blocks)
        });
        layers.apex_candidates += apex.points().len() as u64;
        let engine = EvalEngine::with_blocks(w, blocks.clone())
            .with_cache(cache.clone())
            .with_bounds(Bounds::none());
        let explorer = ConexExplorer::with_library(conex_cfg.clone(), library.clone());
        let archs = apex.selected();
        let w_digest = workload_digest(w).to_hex();
        let c_digest = config_digest(&apex_cfg, &conex_cfg, &library, capacity);
        let cpu0 = self_usage().cpu_s;
        let mut arch_start = Instant::now();
        let mut ck_bytes = 0u64;
        let state = t
            .span("conex.phase1", |t| {
                explorer.phase1_partial_with(&engine, &archs, archs.len(), &mut |s| {
                    let arch_s = arch_start.elapsed().as_secs_f64();
                    layers.phase1_arch_max_s = layers.phase1_arch_max_s.max(arch_s);
                    if let Some(p) = persist {
                        t.span("persist.checkpoint_save", |_| {
                            Checkpoint::capture(w_digest.clone(), c_digest.clone(), s, &cache)
                                .save(p.checkpoint)
                        })?;
                        ck_bytes = ck_bytes.max(file_len(p.checkpoint));
                    }
                    arch_start = Instant::now();
                    Ok(())
                })
            })
            .map_err(err)?;
        let cpu1 = self_usage().cpu_s;
        layers.phase1_cpu_s += cpu1 - cpu0;
        layers.checkpoint_bytes = layers.checkpoint_bytes.max(ck_bytes);
        // With Phase I complete, the resumable entry point runs only Phase
        // II: the unbounded refine batch over the shortlist, plus the
        // result assembly the report needs.
        let conex = t
            .span("conex.phase2", |_| {
                explorer.explore_with_engine_resumable(&engine, archs, state, &mut |_| Ok(()))
            })
            .map_err(err)?;
        layers.phase2_cpu_s += self_usage().cpu_s - cpu1;
        if let Some(p) = persist {
            std::fs::remove_file(p.checkpoint).ok();
            t.span("persist.spill_save", |_| cache.save(p.spill))
                .map_err(err)?;
            layers.spill_bytes += file_len(p.spill);
        }
        let stats = cache.stats();
        layers.cache_hits += stats.hits;
        layers.cache_misses += stats.misses;
        let report = t.span("report.collect", |_| {
            RunReport::collect(
                w,
                &apex_cfg,
                &conex_cfg,
                capacity,
                &stats,
                &conex,
                start.elapsed().as_secs_f64(),
                false,
            )
        });
        layers.coalesced += counter("eval_cache.coalesced");
        Ok((blocks, conex, report))
    });
    obs::uninstall();
    let (blocks, conex, report) = run?;
    layers.estimates += conex.estimated().len() as u64;
    layers.simulations += conex.simulated().len() as u64;
    if conex.estimated() != reference.estimated || conex.simulated() != reference.simulated {
        return Err(format!(
            "staged {}: design points differ from the untraced session",
            w.name()
        ));
    }
    let clean = t.span("report.diff", |_| {
        diff_clean(&reference.report, &report.to_json())
    })?;
    if !clean {
        return Err(format!(
            "staged {}: report is not diff-clean against the untraced session",
            w.name()
        ));
    }
    Ok((blocks, conex.simulated().to_vec()))
}

fn counter(name: &str) -> u64 {
    obs::counters_snapshot()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |(_, v)| v)
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Shortlisted points per app the simulator probe replays.
const PROBE_POINTS: usize = 8;

/// Simulator cost on a run's shortlist, single-threaded.
#[derive(Debug, Default, Clone, Copy)]
pub struct Probe {
    pub sampled_s: f64,
    pub full_s: f64,
    /// Trace accesses replayed by each kind of simulation.
    pub accesses: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// Replays the first [`PROBE_POINTS`] shortlisted points of one app with
/// `simulate_sampled_blocks` and `simulate_blocks`, counting the full
/// simulations' heap calls. Runs with the metric registries off so only
/// the simulator allocates.
pub fn probe(
    acc: &mut Probe,
    w: &Workload,
    preset: Preset,
    blocks: &TraceBlocks,
    shortlist: &[DesignPoint],
) {
    let cfg = ConexConfig::preset(preset);
    let points = &shortlist[..shortlist.len().min(PROBE_POINTS)];
    let t = Instant::now();
    for p in points {
        black_box(simulate_sampled_blocks(
            &p.system,
            w,
            blocks,
            cfg.trace_len,
            cfg.sampling,
        ));
    }
    acc.sampled_s += t.elapsed().as_secs_f64();
    let t = Instant::now();
    let ((), allocs, bytes) = count_allocs(|| {
        for p in points {
            black_box(simulate_blocks(&p.system, w, blocks, cfg.trace_len));
        }
    });
    acc.full_s += t.elapsed().as_secs_f64();
    acc.accesses += (points.len() * cfg.trace_len) as u64;
    acc.allocs += allocs;
    acc.alloc_bytes += bytes;
}

/// Per-app file locations for a warm exploration.
pub struct WarmFiles {
    pub spills: Vec<PathBuf>,
    pub checkpoints: Vec<PathBuf>,
}

impl WarmFiles {
    pub fn new(dir: &Path, apps: &[Workload]) -> Self {
        WarmFiles {
            spills: apps
                .iter()
                .map(|w| dir.join(format!("{}.spill.json", w.name())))
                .collect(),
            checkpoints: apps
                .iter()
                .map(|w| dir.join(format!("{}.ck.json", w.name())))
                .collect(),
        }
    }

    /// The warm session for app `i`: the reference session plus the spill
    /// and a checkpoint after every Phase-I architecture.
    pub fn session(
        &self,
        w: &Workload,
        preset: Preset,
        threads: usize,
        i: usize,
    ) -> ExplorationSession {
        session(w, preset, threads)
            .eval_cache_file(&self.spills[i])
            .checkpoint_file(&self.checkpoints[i])
            .checkpoint_every(1)
    }
}
