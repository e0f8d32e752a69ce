//! The ConEx ledger: one command that measures the exploration pipeline end
//! to end on a named workload, checks every result, and, with `--trace 1`,
//! splits the same computation into per-layer figures.
//!
//! ```text
//! conex-ledger --mce PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! All timings are host time. The modelled design's numbers (latency
//! cycles, energy) only enter through the result digests that pin
//! correctness. Standard output ends with one row describing the run and
//! then the result object.

mod explore;
mod measure;
mod oracle;
mod serve;
mod stats;
mod swarm;
mod trace;

use explore::{Persist, Probe, Reference, Rounds, StagedLayers, WarmFiles};
use measure::{children_usage, self_usage};
use memory_conex::sim::Preset;
use oracle::{Pins, Tally};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;

/// Most threads, worker processes or client connections any workload uses.
const MAX_THREADS: usize = 8;

const WORKLOADS: &[&str] = &["explore-cold", "explore-warm", "serve-jobs", "swarm-leases"];

/// What every workload shares: the parsed arguments and the run's scratch
/// directory.
pub struct Env {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Cores available (at most [`MAX_THREADS`]); no workload runs more
    /// threads, workers or connections.
    pub nproc: usize,
    pub mce: PathBuf,
    pub dir: PathBuf,
    pub pins: Pins,
}

impl Env {
    /// The digest the default seed must reproduce for `app` at `preset`;
    /// `None` for any other seed.
    pub fn pinned(&self, preset: Preset, app: &str) -> Option<&str> {
        (self.seed == self.pins.default_seed)
            .then(|| self.pins.digest(preset, app).unwrap_or("<not pinned>"))
    }
}

fn pins_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("pins.json")
}

/// A metric as printed: value and unit.
type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// One run's result.
struct Outcome {
    tally: Tally,
    metrics: Metrics,
    /// Extra fields for the descriptive row (raw JSON values).
    row: Vec<(&'static str, String)>,
}

fn main() {
    match run() {
        Ok(()) => {}
        Err(e) => {
            eprintln!("ledger: {e}");
            std::process::exit(1);
        }
    }
}

fn arg<'a>(args: &'a [String], flag: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {flag} VALUE"))
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = arg(&args, "--workload")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    let number = |flag: &str| -> Result<u64, String> {
        arg(&args, flag)?
            .parse()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match arg(&args, "--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    // Capped so a large machine does not multiply the swarm's processes
    // and memory beyond what the ledger is sized for.
    let nproc = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(MAX_THREADS);
    let dir = PathBuf::from(".bench_runs").join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let dir = dir
        .canonicalize()
        .map_err(|e| format!("resolve {}: {e}", dir.display()))?;
    let _cleanup = RemoveOnDrop(dir.clone());
    let env = Env {
        seed: number("--seed")?,
        seconds: number("--seconds")? as f64,
        trace,
        nproc,
        mce: PathBuf::from(arg(&args, "--mce")?),
        dir,
        pins: Pins::load(&pins_path())?,
    };
    let outcome = match workload {
        "explore-cold" => explore_cold(&env)?,
        "explore-warm" => explore_warm(&env)?,
        "serve-jobs" => serve_jobs(&env)?,
        _ => swarm_leases(&env)?,
    };
    for note in &outcome.tally.notes {
        eprintln!("ledger: check failed: {note}");
    }
    let correct = outcome.tally.failed == 0;
    println!("{}", row(&env, workload, &outcome));
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics.join(", ")
    );
    Ok(())
}

struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run is using it.
            std::fs::remove_dir(parent).ok();
        }
    }
}

fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric values are finite");
    format!("{v}")
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

/// The descriptive row printed before the result: what was run, where and
/// on which code.
fn row(env: &Env, workload: &str, outcome: &Outcome) -> String {
    let mut fields: Vec<(&str, String)> = vec![
        ("ledger_row", "1".to_owned()),
        ("workload", json_str(workload)),
        ("seed", env.seed.to_string()),
        ("default_seed", env.pins.default_seed.to_string()),
        ("held_out_seed", env.pins.held_out_seed.to_string()),
        ("trace", env.trace.to_string()),
        ("nproc", env.nproc.to_string()),
        ("git_rev", json_str(&git_rev())),
        ("source_digest", json_str(&source_digest())),
        ("rustc", json_str(&command_line("rustc", &["--version"]))),
        ("attempted", outcome.tally.attempted.to_string()),
        ("failed", outcome.tally.failed.to_string()),
    ];
    fields.extend(outcome.row.iter().map(|(k, v)| (*k, v.clone())));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The checkout's git revision, or `unknown` when it is not a git
/// repository of its own.
fn git_rev() -> String {
    if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_owned()
    }
}

/// The first line a command prints, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// A digest of the program's sources (`Cargo.toml`, `src/`, `crates/`), which
/// identifies the measured code where no git revision is available.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if entry.file_name() != "target" {
                    walk(&path, out);
                }
            } else {
                out.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml")];
    walk(Path::new("src"), &mut files);
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    memory_conex::checkpoint::fnv128(&bytes)
}

// ---------------------------------------------------------------------------
// End-to-end metrics
// ---------------------------------------------------------------------------

/// The end-to-end metrics, from per-round samples and per-job latencies.
fn end_to_end(
    setup_s: f64,
    r: &Rounds,
    peak_rss_mb: f64,
    tally: Tally,
    refs: &[Reference],
) -> Result<Outcome, String> {
    if r.job_ms.is_empty() {
        return Err("no exploration completed".to_owned());
    }
    let walls: Vec<f64> = r.rounds.iter().map(|x| x.wall_s).collect();
    let cpus: Vec<f64> = r.rounds.iter().map(|x| x.cpu_s).collect();
    let rates: Vec<f64> = r.rounds.iter().map(|x| x.evals as f64 / x.wall_s).collect();
    let latency = stats::mix_latency(&r.job_ms);
    let tail = latency.tail;
    let mut m = Metrics::new();
    m.insert("setup_s", (setup_s, "s"));
    m.insert("wall_s", (stats::median(&walls), "s"));
    m.insert("cpu_s", (stats::median(&cpus), "s"));
    m.insert("evals_per_s", (stats::median(&rates), "1/s"));
    m.insert("peak_rss_mb", (peak_rss_mb, "MiB"));
    m.insert("job_latency_p50_ms", (latency.typical, "ms"));
    m.insert("job_latency_tail_ms", (tail.value, "ms"));
    let by_app: Vec<String> = refs
        .iter()
        .enumerate()
        .filter_map(|(i, reference)| {
            let ms: Vec<f64> = r.job_ms.iter().filter(|j| j.0 == i).map(|j| j.1).collect();
            (!ms.is_empty())
                .then(|| format!("{}: {}", json_str(&reference.app), num(stats::median(&ms))))
        })
        .collect();
    let walls: Vec<String> = walls.iter().map(|&w| num(w)).collect();
    let jobs: Vec<String> = r
        .job_ms
        .iter()
        .map(|&(i, ms)| format!("[{i}, {}]", num(ms)))
        .collect();
    let row = vec![
        digests_row(refs),
        ("round_wall_s", format!("[{}]", walls.join(", "))),
        ("job_ms_median_by_app", format!("{{{}}}", by_app.join(", "))),
        ("job_ms", format!("[{}]", jobs.join(", "))),
        ("job_latency_tail_percentile", tail.percentile.to_string()),
        ("job_latency_samples", tail.samples.to_string()),
    ];
    Ok(Outcome {
        tally,
        metrics: m,
        row,
    })
}

// ---------------------------------------------------------------------------
// Per-layer metrics (the traced run)
// ---------------------------------------------------------------------------

/// Per-layer inputs a traced run gathers; layers a workload never calls
/// stay zero.
#[derive(Default)]
struct LayerRun {
    staged: StagedLayers,
    probe: Probe,
    untraced_s: f64,
    threads: usize,
    serve: Option<serve::JobLoop>,
    swarm_start_ms: Vec<f64>,
    swarm_finalize_s: Vec<f64>,
}

fn per_layer(t: &Tracer, l: &LayerRun, tally: Tally, refs: &[Reference]) -> Outcome {
    let totals = t.totals();
    let total = |name: &str| totals.get(name).map_or(0.0, |x| x.total_s);
    let s = &l.staged;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut m = Metrics::new();
    m.insert("appmodel.compile_s", (total("appmodel.compile"), "s"));
    m.insert(
        "appmodel.compile_ns_per_access",
        (
            ratio(total("appmodel.compile") * 1e9, s.compiled_accesses as f64),
            "ns",
        ),
    );
    m.insert("apex.explore_s", (total("apex.explore"), "s"));
    m.insert("apex.candidates", (s.apex_candidates as f64, "count"));
    // Phase I's span includes the checkpoints written at its architecture
    // boundaries; its self time is the estimation alone.
    let phase1 = totals.get("conex.phase1").map_or(0.0, |x| x.self_s);
    m.insert("conex.phase1_s", (phase1, "s"));
    m.insert("conex.phase1_arch_max_s", (s.phase1_arch_max_s, "s"));
    let cores = l.threads as f64;
    m.insert(
        "conex.phase1_cpu_util",
        (
            ratio(s.phase1_cpu_s, total("conex.phase1") * cores),
            "ratio",
        ),
    );
    m.insert("conex.estimates", (s.estimates as f64, "count"));
    m.insert("conex.phase2_s", (total("conex.phase2"), "s"));
    m.insert(
        "conex.phase2_cpu_util",
        (
            ratio(s.phase2_cpu_s, total("conex.phase2") * cores),
            "ratio",
        ),
    );
    m.insert("conex.simulations", (s.simulations as f64, "count"));
    let p = &l.probe;
    m.insert(
        "sim.sampled_ns_per_access",
        (ratio(p.sampled_s * 1e9, p.accesses as f64), "ns"),
    );
    m.insert(
        "sim.full_ns_per_access",
        (ratio(p.full_s * 1e9, p.accesses as f64), "ns"),
    );
    m.insert(
        "sim.allocs_per_access",
        (ratio(p.allocs as f64, p.accesses as f64), "count"),
    );
    m.insert(
        "sim.alloc_bytes_per_access",
        (ratio(p.alloc_bytes as f64, p.accesses as f64), "B"),
    );
    m.insert(
        "eval_cache.hit_rate",
        (
            ratio(s.cache_hits as f64, (s.cache_hits + s.cache_misses) as f64),
            "ratio",
        ),
    );
    m.insert("eval_cache.coalesced", (s.coalesced as f64, "count"));
    m.insert("persist.spill_load_s", (total("persist.spill_load"), "s"));
    m.insert("persist.spill_save_s", (total("persist.spill_save"), "s"));
    m.insert("persist.spill_bytes", (s.spill_bytes as f64, "B"));
    m.insert(
        "persist.checkpoint_save_s",
        (total("persist.checkpoint_save"), "s"),
    );
    m.insert("persist.checkpoint_bytes", (s.checkpoint_bytes as f64, "B"));
    m.insert("report.collect_s", (total("report.collect"), "s"));
    m.insert("report.diff_s", (total("report.diff"), "s"));
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::median(v) };
    let job = |f: fn(&serve::JobTimes) -> f64| {
        l.serve
            .as_ref()
            .map_or(0.0, |j| med(&j.jobs.iter().map(f).collect::<Vec<_>>()))
    };
    m.insert("serve.submit_ms", (job(|j| j.submit_ms), "ms"));
    m.insert("serve.queue_wait_ms", (job(|j| j.queue_wait_ms), "ms"));
    m.insert("serve.run_ms", (job(|j| j.run_ms), "ms"));
    m.insert(
        "serve.poll_rtt_ms",
        (l.serve.as_ref().map_or(0.0, |j| med(&j.poll_rtt_ms)), "ms"),
    );
    m.insert("swarm.worker_start_ms", (med(&l.swarm_start_ms), "ms"));
    m.insert("swarm.finalize_s", (med(&l.swarm_finalize_s), "s"));
    m.insert(
        "trace.overhead_frac",
        (ratio(total("pipeline"), l.untraced_s) - 1.0, "ratio"),
    );
    // How the traced pipelines' wall time splits into layer self times;
    // the pipeline span's own self time is the unattributed remainder.
    let pipeline = totals.get("pipeline").copied().unwrap_or_default();
    let spans: Vec<String> = totals
        .iter()
        .map(|(name, x)| {
            format!(
                "{}: {{\"count\": {}, \"total_s\": {}, \"self_s\": {}}}",
                json_str(name),
                x.count,
                num(x.total_s),
                num(x.self_s)
            )
        })
        .collect();
    let row = vec![
        digests_row(refs),
        ("threads", l.threads.to_string()),
        ("spans", format!("{{{}}}", spans.join(", "))),
        ("pipeline_wall_s", num(pipeline.total_s)),
        ("untraced_wall_s", num(l.untraced_s)),
        (
            "unattributed_frac",
            num(ratio(pipeline.self_s, pipeline.total_s)),
        ),
    ];
    Outcome {
        tally,
        metrics: m,
        row,
    }
}

/// The reference result digests, for the row.
fn digests_row(refs: &[Reference]) -> (&'static str, String) {
    let body: Vec<String> = refs
        .iter()
        .map(|r| format!("{}: {}", json_str(&r.app), json_str(&r.digest)))
        .collect();
    ("digests", format!("{{{}}}", body.join(", ")))
}

/// The traced part every workload shares: one untraced round for the
/// overhead baseline, then each app driven stage by stage under spans and
/// checked bit-identical to its reference, then the simulator probe.
fn traced_pipelines(
    env: &Env,
    preset: Preset,
    apps: &[memory_conex::appmodel::Workload],
    refs: &[Reference],
    warm: Option<&WarmFiles>,
    tally: &mut Tally,
    t: &mut Tracer,
) -> LayerRun {
    let threads = env.nproc;
    let untraced = explore::explore_rounds(0.0, refs, tally, |i| match warm {
        Some(f) => f.session(&apps[i], preset, threads, i),
        None => explore::session(&apps[i], preset, threads),
    });
    let mut l = LayerRun {
        untraced_s: untraced.rounds[0].wall_s,
        threads,
        ..LayerRun::default()
    };
    let mut probes = Vec::new();
    for (i, (w, reference)) in apps.iter().zip(refs).enumerate() {
        let persist = warm.map(|f| Persist {
            spill: &f.spills[i],
            checkpoint: &f.checkpoints[i],
        });
        let staged = explore::staged(
            t,
            &mut l.staged,
            w,
            preset,
            threads,
            persist.as_ref(),
            reference,
        );
        if let Some(out) = tally.record_result(staged) {
            probes.push((w, out));
        }
    }
    for (w, (blocks, shortlist)) in probes {
        explore::probe(&mut l.probe, w, preset, &blocks, &shortlist);
    }
    l
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// `explore-cold`: paper-preset sessions over the three apps with an empty
/// eval cache and no persistence files.
fn explore_cold(env: &Env) -> Result<Outcome, String> {
    let preset = Preset::Paper;
    let mut tally = Tally::default();
    let t0 = Instant::now();
    let apps = oracle::seeded_apps(env.seed);
    let make = |i: usize| explore::session(&apps[i], preset, env.nproc);
    let refs = explore::references(env, &apps, preset, &mut tally, make)?;
    let setup_s = t0.elapsed().as_secs_f64();
    if env.trace {
        let mut t = Tracer::new();
        let l = traced_pipelines(env, preset, &apps, &refs, None, &mut tally, &mut t);
        return Ok(per_layer(&t, &l, tally, &refs));
    }
    let rounds = explore::explore_rounds(env.seconds, &refs, &mut tally, make);
    end_to_end(setup_s, &rounds, self_usage().maxrss_mb, tally, &refs)
}

/// `explore-warm`: the same sessions against eval-cache spills filled during
/// set-up, checkpointing after every Phase-I architecture.
fn explore_warm(env: &Env) -> Result<Outcome, String> {
    let preset = Preset::Paper;
    let mut tally = Tally::default();
    let t0 = Instant::now();
    let apps = oracle::seeded_apps(env.seed);
    let files = WarmFiles::new(&env.dir, &apps);
    let refs = explore::references(env, &apps, preset, &mut tally, |i| {
        explore::session(&apps[i], preset, env.nproc).eval_cache_file(&files.spills[i])
    })?;
    let setup_s = t0.elapsed().as_secs_f64();
    if env.trace {
        let mut t = Tracer::new();
        let l = traced_pipelines(env, preset, &apps, &refs, Some(&files), &mut tally, &mut t);
        return Ok(per_layer(&t, &l, tally, &refs));
    }
    let rounds = explore::explore_rounds(env.seconds, &refs, &mut tally, |i| {
        files.session(&apps[i], preset, env.nproc, i)
    });
    end_to_end(setup_s, &rounds, self_usage().maxrss_mb, tally, &refs)
}

/// `serve-jobs`: one closed-loop client submitting fast-preset jobs to an
/// `mce serve` daemon, one app after another.
fn serve_jobs(env: &Env) -> Result<Outcome, String> {
    let preset = Preset::Fast;
    let mut tally = Tally::default();
    let t0 = Instant::now();
    let apps = oracle::seeded_apps(env.seed);
    let mut daemon = serve::Daemon::start(&env.mce, &env.dir.join("serve"))?;
    let refs = explore::references(env, &apps, preset, &mut tally, |i| {
        explore::session(&apps[i], preset, env.nproc)
    })?;
    let specs: Vec<_> = apps
        .iter()
        .map(|w| serve::spec(w, &preset.to_string(), env.nproc))
        .collect();
    let setup_s = t0.elapsed().as_secs_f64();
    let mut t = Tracer::new();
    let layers = env
        .trace
        .then(|| traced_pipelines(env, preset, &apps, &refs, None, &mut tally, &mut t));
    let jobs = serve::job_loop(&daemon, &specs, &refs, env.seconds, &mut tally);
    let stopped = daemon.stop();
    tally.record_result(stopped);
    if let Some(mut l) = layers {
        l.serve = Some(jobs);
        return Ok(per_layer(&t, &l, tally, &refs));
    }
    let peak = self_usage().maxrss_mb.max(jobs.daemon_peak_rss_mb);
    end_to_end(setup_s, &jobs.rounds, peak, tally, &refs)
}

/// `swarm-leases`: `swarm::supervise` with one single-threaded worker per
/// core over the paper apps, one app after another.
fn swarm_leases(env: &Env) -> Result<Outcome, String> {
    let preset = Preset::Paper;
    let mut tally = Tally::default();
    let t0 = Instant::now();
    let apps = oracle::seeded_apps(env.seed);
    let files = swarm::workload_files(&env.dir, &apps)?;
    let refs = explore::references(env, &apps, preset, &mut tally, |i| {
        explore::session(&apps[i], preset, env.nproc)
    })?;
    let setup_s = t0.elapsed().as_secs_f64();
    let mut t = Tracer::new();
    let mut layers = env
        .trace
        .then(|| traced_pipelines(env, preset, &apps, &refs, None, &mut tally, &mut t));
    let swarm_dir = env.dir.join("swarm");
    let mut rounds = Rounds::default();
    let start = Instant::now();
    loop {
        let cpu0 = self_usage().cpu_s + children_usage().cpu_s;
        let mut round = explore::Round {
            wall_s: 0.0,
            cpu_s: 0.0,
            evals: 0,
        };
        for (i, w) in apps.iter().enumerate() {
            let traced = layers.is_some();
            let Some(job) = swarm::supervise_once(
                &env.mce, &swarm_dir, w, &files[i], env.nproc, &refs[i], traced, &mut tally,
            ) else {
                continue;
            };
            round.wall_s += job.wall_s;
            round.evals += refs[i].evals;
            rounds.job_ms.push((i, job.wall_s * 1e3));
            if let Some(l) = &mut layers {
                l.swarm_start_ms.extend(job.worker_start_ms);
                l.swarm_finalize_s.extend(job.finalize_s);
            }
        }
        round.cpu_s = self_usage().cpu_s + children_usage().cpu_s - cpu0;
        rounds.rounds.push(round);
        if layers.is_some() || start.elapsed().as_secs_f64() >= env.seconds {
            break;
        }
    }
    if let Some(l) = layers {
        return Ok(per_layer(&t, &l, tally, &refs));
    }
    let peak = self_usage().maxrss_mb.max(children_usage().maxrss_mb);
    end_to_end(setup_s, &rounds, peak, tally, &refs)
}
