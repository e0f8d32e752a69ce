//! Supervised multi-process exploration: `mce swarm -j N`.
//!
//! A swarm run partitions the Phase-I architecture space into contiguous
//! **leases**, spawns N worker subprocesses that each run the existing
//! bounded, checkpointed exploration over their claimed range
//! ([`ExplorationSession::arch_range`]) and spills its evaluation cache.
//! The merge is one ordinary serial ConEx pass over the union of those
//! spills: every Phase-I estimate and Phase-II simulation is a cache
//! hit, so the [`RunReport`] is byte-identical (up to its `wall_clock`
//! section and the effort metrics `mce diff` already masks) to a
//! single-process run of the same workload and preset by construction.
//! A lease's shard is only a receipt — which lease, for which workload
//! and configuration — that the supervisor verifies once.
//!
//! The robustness contract, in order of line of defense:
//!
//! 1. **Crash detection** — the supervisor polls each worker with
//!    `try_wait` *and* watches its heartbeat file: a worker that exits
//!    nonzero, exits without a valid shard, or whose heartbeat sequence
//!    number stops advancing for longer than the staleness timeout is
//!    declared dead (a stalled worker is killed first).
//! 2. **Work-stealing resume** — a dead worker's lease goes back on the
//!    pending queue together with its on-disk checkpoint; whichever
//!    slot claims it next resumes *through the restored cache* exactly
//!    as `mce explore --checkpoint` does, so no committed architecture
//!    is ever recomputed and the merged result is unchanged.
//! 3. **Crash-loop backoff** — every restart of a slot doubles its
//!    pre-spawn delay ([`backoff_after`]) up to a cap, and a slot that
//!    exceeds its restart budget is **retired** rather than respawned.
//! 4. **Graceful degradation** — if every slot retires with leases
//!    still pending, the supervisor runs the remainder inline in its
//!    own process; the run still completes and still merges clean.
//!
//! Everything the supervisor learns is observable: `swarm.restarts`,
//! `swarm.leases_stolen` and `swarm.backoff_ms` counters flow into the
//! merged report (masked as effort metrics in `mce diff`), the
//! lease manifest and per-worker live-status files land in the swarm
//! directory (`mce top <dir>` aggregates them), and every supervision
//! event is appended to `swarm.log`.
//!
//! [`ExplorationSession::arch_range`]: crate::session::ExplorationSession::arch_range
//! [`RunReport`]: crate::report::RunReport

use crate::checkpoint::{config_digest, registry_snapshot, NamedValues};
use crate::framed::{self, MANIFEST, SHARD};
use crate::report::RunReport;
use crate::session::ExplorationSession;
use mce_apex::{ApexConfig, ApexExplorer};
use mce_appmodel::{TraceBlocks, Workload};
use mce_conex::design_point::workload_digest;
use mce_conex::eval_cache::DEFAULT_CAPACITY;
use mce_conex::explore::Phase1State;
use mce_conex::{ConexConfig, ConexExplorer, ConexResult, EvalCache, EvalEngine};
use mce_connlib::ConnectivityLibrary;
use mce_error::{atomic_write, sweep_stale_tmps, MceError};
use mce_obs as obs;
use mce_obs::json::Value;
use mce_sim::Preset;
use serde::{Deserialize, Serialize};
use std::collections::{HashSet, VecDeque};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Version of the supervisor's live summary (`swarm.json`, first key
/// `"swarm_schema"`), aggregated by `mce top <dir>`.
pub const SWARM_STATUS_SCHEMA: u64 = 1;

// ---------------------------------------------------------------------------
// Swarm-directory layout
// ---------------------------------------------------------------------------

/// The lease manifest: `<dir>/manifest.json`.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("manifest.json")
}

/// The supervisor's live summary: `<dir>/swarm.json`.
pub fn status_path(dir: &Path) -> PathBuf {
    dir.join("swarm.json")
}

/// The supervision event log (worker stdout/stderr included):
/// `<dir>/swarm.log`.
pub fn log_path(dir: &Path) -> PathBuf {
    dir.join("swarm.log")
}

/// A lease's result shard: `<dir>/lease-N.shard.json`.
pub fn shard_path(dir: &Path, lease: usize) -> PathBuf {
    dir.join(format!("lease-{lease}.shard.json"))
}

/// A lease's evaluation-cache spill: `<dir>/lease-N.cache.json`.
pub fn lease_cache_path(dir: &Path, lease: usize) -> PathBuf {
    dir.join(format!("lease-{lease}.cache.json"))
}

/// A lease's crash-safety checkpoint: `<dir>/lease-N.ck.json`. Survives
/// the worker that wrote it — the next claimant resumes from it.
pub fn lease_checkpoint_path(dir: &Path, lease: usize) -> PathBuf {
    dir.join(format!("lease-{lease}.ck.json"))
}

/// A worker slot's heartbeat file: `<dir>/worker-K.hb.json`.
pub fn heartbeat_path(dir: &Path, slot: usize) -> PathBuf {
    dir.join(format!("worker-{slot}.hb.json"))
}

/// A worker slot's live-status file: `<dir>/worker-K.status.json`.
pub fn worker_status_path(dir: &Path, slot: usize) -> PathBuf {
    dir.join(format!("worker-{slot}.status.json"))
}

// ---------------------------------------------------------------------------
// Lease manifest
// ---------------------------------------------------------------------------

/// Where one lease is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LeaseState {
    /// Waiting on the pending queue for a slot to claim it.
    Pending,
    /// Claimed — a worker (or the supervisor, inline) is exploring it.
    Running,
    /// Its receipt shard landed and verified.
    Done,
}

/// One contiguous half-open range `start..end` of the global Phase-I
/// architecture order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Lease {
    /// Manifest index; also the lease's file-name key.
    pub id: usize,
    /// First global architecture index covered (inclusive).
    pub start: usize,
    /// One past the last covered index.
    pub end: usize,
    /// Lifecycle state.
    pub state: LeaseState,
    /// How many times the lease has been claimed (1 on a clean run;
    /// more after crashes).
    pub attempts: u32,
}

/// The record of how a swarm run partitioned its work — a
/// [`framed::MANIFEST`] document, `manifest.json` in the swarm directory.
/// Rewritten atomically on every lease transition, so an observer (or a
/// post-mortem) always sees a coherent partition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LeaseManifest {
    /// Canonical digest of the workload being explored.
    pub workload_digest: String,
    /// Configuration digest shared by every lease (the base digest,
    /// without any per-lease `|range:` suffix).
    pub config_digest: String,
    /// Worker slots the supervisor was asked to run.
    pub workers: usize,
    /// Total Phase-I architectures partitioned.
    pub total_archs: usize,
    /// The leases, in id order, jointly covering `0..total_archs`.
    pub leases: Vec<Lease>,
}

impl LeaseManifest {
    /// Atomically writes the manifest to `path`.
    pub fn save(&self, path: &Path) -> Result<(), MceError> {
        framed::save(MANIFEST, path, self)
    }

    /// Loads and validates the manifest at `path`: the frame verified,
    /// then the leases required to partition `0..total_archs`
    /// contiguously in id order. A manifest that fails any check is
    /// rejected whole — a bit-flipped range must never silently re-aim a
    /// worker.
    pub fn load(path: &Path) -> Result<Self, MceError> {
        let m: LeaseManifest = framed::load(MANIFEST, path)?;
        let mut cursor = 0usize;
        for (i, lease) in m.leases.iter().enumerate() {
            if lease.id != i || lease.start != cursor || lease.end <= lease.start {
                return Err(MceError::checkpoint(format!(
                    "lease manifest: lease {i} does not continue the partition \
                     (id {}, range {}..{}, expected start {cursor})",
                    lease.id, lease.start, lease.end
                )));
            }
            cursor = lease.end;
        }
        if cursor != m.total_archs {
            return Err(MceError::checkpoint(format!(
                "lease manifest: leases cover 0..{cursor} but the run has {} architectures",
                m.total_archs
            )));
        }
        Ok(m)
    }
}

/// Splits `0..total_archs` into `count` contiguous leases of
/// near-equal size (the first `total % count` leases are one longer),
/// all `Pending`. `count` is clamped to `1..=total_archs`; zero
/// architectures yield zero leases.
pub fn partition_leases(total_archs: usize, count: usize) -> Vec<Lease> {
    if total_archs == 0 {
        return Vec::new();
    }
    let count = count.clamp(1, total_archs);
    let (base, extra) = (total_archs / count, total_archs % count);
    let mut leases = Vec::with_capacity(count);
    let mut cursor = 0usize;
    for id in 0..count {
        let len = base + usize::from(id < extra);
        leases.push(Lease {
            id,
            start: cursor,
            end: cursor + len,
            state: LeaseState::Pending,
            attempts: 0,
        });
        cursor += len;
    }
    leases
}

// ---------------------------------------------------------------------------
// Heartbeats
// ---------------------------------------------------------------------------

/// One worker liveness beat: a tiny single-line JSON document rewritten
/// atomically on a fixed cadence. Only `seq` advancing matters to the
/// supervisor; `pid` and `lease` make post-mortems readable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Heartbeat {
    /// The beating process.
    pub pid: u32,
    /// The lease it is exploring.
    pub lease: usize,
    /// Monotonic beat counter, starting at 1.
    pub seq: u64,
}

/// Atomically publishes a beat. Best-effort like live status: a failed
/// write must never take the worker down (the supervisor just sees a
/// stale beat and, eventually, a healthy exit).
pub fn write_heartbeat(path: &Path, hb: Heartbeat) -> bool {
    let body = format!(
        "{{\"swarm_heartbeat\":1,\"pid\":{},\"lease\":{},\"seq\":{}}}\n",
        hb.pid, hb.lease, hb.seq
    );
    atomic_write(path, body.as_bytes()).is_ok()
}

/// Reads a beat; `None` for a missing, torn, or otherwise malformed
/// file. A corrupt heartbeat is simply *no beat* — staleness detection
/// treats it the same as silence, which is the conservative reading.
pub fn read_heartbeat(path: &Path) -> Option<Heartbeat> {
    let text = std::fs::read_to_string(path).ok()?;
    let doc = obs::json::parse(&text).ok()?;
    if doc.get("swarm_heartbeat").and_then(Value::as_u64) != Some(1) {
        return None;
    }
    let pid = u32::try_from(doc.get("pid").and_then(Value::as_u64)?).ok()?;
    let lease = usize::try_from(doc.get("lease").and_then(Value::as_u64)?).ok()?;
    let seq = doc.get("seq").and_then(Value::as_u64)?;
    Some(Heartbeat { pid, lease, seq })
}

/// Exponential crash-loop backoff: the delay before a slot's
/// `restarts`-th respawn is `base * 2^(restarts-1)`, saturating at
/// `cap`. Deterministic — no jitter — so supervision timelines are
/// reproducible in tests.
pub fn backoff_after(restarts: u32, base: Duration, cap: Duration) -> Duration {
    if restarts == 0 {
        return Duration::ZERO;
    }
    // 2^exp saturates well past any real cap; 30 doublings of even 1ms
    // exceed 12 days.
    let exp = restarts.saturating_sub(1).min(30);
    cap.min(base.saturating_mul(1u32 << exp))
}

// ---------------------------------------------------------------------------
// Worker shards
// ---------------------------------------------------------------------------

/// The receipt one completed lease leaves behind — a [`framed::SHARD`]
/// document naming the lease and the workload and configuration it ran
/// under. The results themselves travel in the lease's cache spill.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerShard {
    /// Canonical digest of the workload the worker explored.
    pub workload_digest: String,
    /// Base configuration digest (no `|range:` suffix) — must match the
    /// supervisor's, or the lease's cache spill answers a different run.
    pub config_digest: String,
    /// The lease this shard settles.
    pub lease: usize,
    /// First global architecture index covered.
    pub start: usize,
    /// One past the last covered index.
    pub end: usize,
}

impl WorkerShard {
    /// Atomically writes the shard to `path`.
    pub fn save(&self, path: &Path) -> Result<(), MceError> {
        framed::save(SHARD, path, self)
    }

    /// Loads the shard at `path`, its frame verified.
    pub fn load(path: &Path) -> Result<Self, MceError> {
        framed::load(SHARD, path)
    }
}

// ---------------------------------------------------------------------------
// Lease execution (worker process, and the supervisor's inline fallback)
// ---------------------------------------------------------------------------

/// One lease-execution request: which range, under which identity.
#[derive(Debug, Clone)]
pub struct LeaseRun {
    /// Lease id — keys every per-lease file.
    pub lease: usize,
    /// First global architecture index.
    pub start: usize,
    /// One past the last.
    pub end: usize,
    /// Worker slot, for heartbeat/status file naming; `None` when the
    /// supervisor runs the lease inline (no heartbeat — the supervisor
    /// cannot outlive itself).
    pub slot: Option<usize>,
    /// Heartbeat cadence.
    pub heartbeat_every: Duration,
}

struct HeartbeatThread {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

impl HeartbeatThread {
    fn start(path: PathBuf, lease: usize, every: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let thread = std::thread::spawn(move || {
            let pid = std::process::id();
            let mut seq = 0u64;
            while !flag.load(Ordering::Relaxed) {
                seq += 1;
                // The stall_heartbeat fault suppresses publication while
                // the worker keeps running — exactly the failure mode
                // staleness detection exists for.
                #[cfg(feature = "fault-injection")]
                let suppressed = mce_faultinject::on_heartbeat();
                #[cfg(not(feature = "fault-injection"))]
                let suppressed = false;
                if !suppressed {
                    write_heartbeat(&path, Heartbeat { pid, lease, seq });
                }
                std::thread::sleep(every);
            }
        });
        HeartbeatThread { stop, thread }
    }

    fn finish(self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.thread.join();
    }
}

/// Runs one lease to completion and writes its receipt shard: the worker
/// subprocess's entire job, and the supervisor's inline fallback.
///
/// The session runs with [`ExplorationSession::arch_range`],
/// checkpoints to the lease's checkpoint file (so a successor resumes a
/// dead claimant's progress) and spills its evaluation cache — every
/// estimate and full simulation of the lease — for the supervisor's
/// merge. The shard is written last, once the spill is on disk.
pub fn run_lease(
    workload: &Workload,
    preset: Preset,
    threads: usize,
    dir: &Path,
    spec: &LeaseRun,
) -> Result<(), MceError> {
    let mut session = ExplorationSession::new(workload.clone())
        .preset(preset)
        .threads(threads)
        .arch_range(spec.start, spec.end)
        .checkpoint_file(lease_checkpoint_path(dir, spec.lease))
        .eval_cache_file(lease_cache_path(dir, spec.lease));
    if let Some(slot) = spec.slot {
        session = session.live_status_file(worker_status_path(dir, slot));
    }
    let heartbeat = spec.slot.map(|slot| {
        HeartbeatThread::start(heartbeat_path(dir, slot), spec.lease, spec.heartbeat_every)
    });
    let outcome = session.run();
    if let Some(hb) = heartbeat {
        hb.finish();
    }
    let result = outcome?;
    if result.conex.is_truncated() {
        return Err(MceError::checkpoint(
            "lease run was truncated — swarm leases must run unbounded",
        ));
    }
    let shard = WorkerShard {
        workload_digest: workload_digest(workload).to_hex(),
        config_digest: base_config_digest(preset),
        lease: spec.lease,
        start: spec.start,
        end: spec.end,
    };
    shard.save(&shard_path(dir, spec.lease))
}

fn base_config_digest(preset: Preset) -> String {
    config_digest(
        &ApexConfig::preset(preset),
        &ConexConfig::preset(preset),
        &ConnectivityLibrary::amba(),
        DEFAULT_CAPACITY,
    )
}

// ---------------------------------------------------------------------------
// The supervisor
// ---------------------------------------------------------------------------

/// Everything `mce swarm` needs to supervise one run.
#[derive(Debug, Clone)]
pub struct SwarmConfig {
    /// The workload to explore.
    pub workload: Workload,
    /// The CLI workload operand (builtin name or file path), re-passed
    /// verbatim to worker subprocesses.
    pub workload_arg: String,
    /// Exploration scale for both stages.
    pub preset: Preset,
    /// Worker slots (`-j`).
    pub workers: usize,
    /// Threads per worker process.
    pub worker_threads: usize,
    /// Lease-count override; default `2 * workers` (clamped to the
    /// architecture count) so a stolen lease costs half a worker's
    /// share, not all of it.
    pub lease_count: Option<usize>,
    /// The swarm directory: manifest, shards, heartbeats, statuses, log.
    pub dir: PathBuf,
    /// Heartbeat-staleness timeout: a running worker whose beat has not
    /// advanced for this long is killed and its lease reclaimed.
    pub heartbeat_timeout: Duration,
    /// Restarts allowed per slot before it is retired.
    pub restart_budget: u32,
    /// First-restart backoff delay (doubles per restart).
    pub backoff_base: Duration,
    /// Backoff saturation cap.
    pub backoff_cap: Duration,
    /// Deliver this `MCE_FAULT` spec to the *first* spawn of this slot
    /// (respawns always get a clean environment) — the fault-injection
    /// hook behind the CI kill-a-worker smoke test.
    pub fault_worker: Option<(usize, String)>,
    /// Path to the `mce` binary to spawn workers from.
    pub worker_exe: PathBuf,
}

impl SwarmConfig {
    /// A config with the robustness defaults: 2 leases per worker,
    /// 3-second heartbeat staleness, restart budget 3, 250 ms backoff
    /// doubling to a 5 s cap.
    pub fn new(
        workload: Workload,
        workload_arg: impl Into<String>,
        dir: impl Into<PathBuf>,
    ) -> Self {
        SwarmConfig {
            workload,
            workload_arg: workload_arg.into(),
            preset: Preset::Fast,
            workers: 2,
            worker_threads: 1,
            lease_count: None,
            dir: dir.into(),
            heartbeat_timeout: Duration::from_millis(3000),
            restart_budget: 3,
            backoff_base: Duration::from_millis(250),
            backoff_cap: Duration::from_millis(5000),
            fault_worker: None,
            worker_exe: PathBuf::new(),
        }
    }
}

/// What one supervised run produced.
#[derive(Debug)]
pub struct SwarmOutcome {
    /// The merged run report — byte-identical to a serial run's up to
    /// `wall_clock` and the effort metrics `mce diff` masks.
    pub report: RunReport,
    /// The merged exploration result.
    pub conex: ConexResult,
    /// Worker restarts the supervisor performed (`swarm.restarts`).
    pub restarts: u64,
    /// Leases completed by a different slot than their previous
    /// claimant (`swarm.leases_stolen`).
    pub leases_stolen: u64,
    /// Total backoff delay imposed, in milliseconds (`swarm.backoff_ms`).
    pub backoff_ms: u64,
    /// Slots retired after exhausting their restart budget.
    pub retired_slots: usize,
    /// Leases the supervisor had to run inline because every slot had
    /// retired.
    pub inline_leases: usize,
}

/// What [`supervise`] returned control with: the full merged outcome,
/// or a drained stop after a termination signal (SIGINT/SIGTERM).
///
/// An interrupted run is not a failure: every running worker has been
/// stopped, every unfinished lease is back in `Pending` with its
/// on-disk checkpoint intact, and the manifest is saved. Rerunning the
/// same command rebuilds the identical partition (selection is
/// deterministic) and resumes each lease through its checkpoint, so no
/// committed architecture is recomputed.
#[derive(Debug)]
pub enum SwarmRun {
    /// Every lease finished and the shards merged cleanly.
    Completed(Box<SwarmOutcome>),
    /// A termination signal arrived first; state is on disk.
    Interrupted {
        /// Leases fully done (verified shard) at the stop.
        done: usize,
        /// Total leases in the manifest.
        total: usize,
    },
}

enum SlotState {
    Idle,
    Running {
        child: Child,
        lease: usize,
        hb_seq: Option<u64>,
        hb_advanced: Instant,
    },
    Retired,
}

struct Slot {
    state: SlotState,
    restarts: u32,
    backoff_until: Option<Instant>,
}

/// An append-only run log (`swarm.log`, `serve.log`): one
/// `[<ms since open> ms] <msg>` line per event, flushed as written.
pub(crate) struct RunLog {
    file: std::fs::File,
    started: Instant,
}

impl RunLog {
    pub(crate) fn open(path: &Path) -> Result<Self, MceError> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| MceError::io(format!("open log {}", path.display()), e))?;
        Ok(RunLog {
            file,
            started: Instant::now(),
        })
    }

    pub(crate) fn line(&mut self, msg: &str) {
        let ms = self.started.elapsed().as_millis();
        let _ = writeln!(self.file, "[{ms:>7} ms] {msg}");
        let _ = self.file.flush();
    }

    /// A handle workers can inherit as stdout/stderr, interleaving their
    /// output with supervision events.
    fn stdio(&self) -> Stdio {
        self.file
            .try_clone()
            .map_or_else(|_| Stdio::null(), Stdio::from)
    }
}

/// Supervision tallies, mirrored into the `swarm.*` counters.
#[derive(Default)]
struct Tally {
    restarts: u64,
    stolen: u64,
    backoff_ms: u64,
}

/// Runs the full supervised exploration: partition, spawn, watch,
/// restart, steal, and finally merge — returning the merged report, or
/// [`SwarmRun::Interrupted`] when a termination signal (observed via
/// [`mce_budget::interrupted`]) drains the run first.
///
/// # Errors
///
/// Fails when the swarm directory cannot be prepared, when an inline
/// lease fails or leaves no valid shard, or when a lease's cache spill
/// is missing or corrupt at merge time — the merge never papers over an
/// incomplete partition.
pub fn supervise(cfg: &SwarmConfig) -> Result<SwarmRun, MceError> {
    let start = Instant::now();
    std::fs::create_dir_all(&cfg.dir)
        .map_err(|e| MceError::io(format!("create swarm dir {}", cfg.dir.display()), e))?;
    sweep_stale_tmps(manifest_path(&cfg.dir));
    let mut log = RunLog::open(&log_path(&cfg.dir))?;
    let w_digest = workload_digest(&cfg.workload).to_hex();
    let apex_cfg = ApexConfig::preset(cfg.preset);
    let conex_cfg = ConexConfig::preset(cfg.preset);
    let library = ConnectivityLibrary::amba();
    let c_digest = config_digest(&apex_cfg, &conex_cfg, &library, DEFAULT_CAPACITY);
    // The supervisor runs APEX itself: selection is deterministic, and
    // owning the selection means the lease partition, the final pass and
    // the merged report's apex.* registries are all authoritative here
    // rather than copied from a worker.
    let blocks = Arc::new(TraceBlocks::compile(
        &cfg.workload,
        apex_cfg.trace_len.max(conex_cfg.trace_len),
    ));
    let apex = ApexExplorer::new(apex_cfg.clone()).explore_with_blocks(&cfg.workload, &blocks);
    let post_apex = registry_snapshot();
    let mem_archs = apex.selected();
    let total = mem_archs.len();
    let lease_count = cfg
        .lease_count
        .unwrap_or_else(|| (2 * cfg.workers).max(cfg.workers))
        .max(1);
    let mut manifest = LeaseManifest {
        workload_digest: w_digest.clone(),
        config_digest: c_digest.clone(),
        workers: cfg.workers,
        total_archs: total,
        leases: partition_leases(total, lease_count),
    };
    manifest.save(&manifest_path(&cfg.dir))?;
    log.line(&format!(
        "swarm start: workload `{}`, {} architectures, {} leases, {} workers",
        cfg.workload.name(),
        total,
        manifest.leases.len(),
        cfg.workers
    ));

    let mut slots: Vec<Slot> = (0..cfg.workers.max(1))
        .map(|_| Slot {
            state: SlotState::Idle,
            restarts: 0,
            backoff_until: None,
        })
        .collect();
    let mut pending: VecDeque<usize> = manifest.leases.iter().map(|l| l.id).collect();
    let mut last_owner: Vec<Option<usize>> = vec![None; manifest.leases.len()];
    let mut fault_pending = cfg.fault_worker.clone();
    let mut done = 0usize;
    let mut tally = Tally::default();
    let mut inline_leases = 0usize;
    let poll = Duration::from_millis(100);

    while done < manifest.leases.len() {
        // A termination signal drains the swarm instead of killing it:
        // workers are stopped, their leases return to `Pending` (each
        // lease checkpoint stays on disk), the manifest is saved, and
        // the caller exits 0. A rerun resumes where this stop left off.
        if mce_budget::interrupted() {
            for (k, slot) in slots.iter_mut().enumerate() {
                if let SlotState::Running { child, lease, .. } = &mut slot.state {
                    let lease_id = *lease;
                    let _ = child.kill();
                    let _ = child.wait();
                    manifest.leases[lease_id].state = LeaseState::Pending;
                    log.line(&format!(
                        "worker {k}: stopped by termination signal; \
                         lease {lease_id} requeued (checkpoint kept)"
                    ));
                    slot.state = SlotState::Idle;
                }
            }
            manifest.save(&manifest_path(&cfg.dir))?;
            publish_status(cfg, &manifest, "interrupted", done, &tally, &slots);
            log.line(&format!(
                "swarm interrupted: {done}/{} leases done; \
                 rerun the same command to resume",
                manifest.leases.len()
            ));
            return Ok(SwarmRun::Interrupted {
                done,
                total: manifest.leases.len(),
            });
        }
        let now = Instant::now();
        // Reap and health-check every running slot.
        for (k, slot) in slots.iter_mut().enumerate() {
            let SlotState::Running {
                child,
                lease,
                hb_seq,
                hb_advanced,
            } = &mut slot.state
            else {
                continue;
            };
            let lease_id = *lease;
            // One decisive verdict per poll: still running, healthy done
            // (exit 0 AND a verified shard on disk), or crashed.
            enum Verdict {
                Running,
                Done,
                Crashed(String),
            }
            let verdict = match child.try_wait() {
                Ok(Some(status)) if status.success() => {
                    match verify_shard(&cfg.dir, &manifest.leases[lease_id], &w_digest, &c_digest) {
                        Ok(()) => Verdict::Done,
                        Err(e) => Verdict::Crashed(format!("exited 0 without a valid shard ({e})")),
                    }
                }
                Ok(Some(status)) => Verdict::Crashed(format!("exited {status}")),
                Ok(None) => {
                    match read_heartbeat(&heartbeat_path(&cfg.dir, k)) {
                        Some(hb) if Some(hb.seq) != *hb_seq => {
                            *hb_seq = Some(hb.seq);
                            *hb_advanced = now;
                        }
                        _ => {}
                    }
                    if now.duration_since(*hb_advanced) > cfg.heartbeat_timeout {
                        let _ = child.kill();
                        let _ = child.wait();
                        Verdict::Crashed(format!(
                            "heartbeat stale for {} ms — killed",
                            now.duration_since(*hb_advanced).as_millis()
                        ))
                    } else {
                        Verdict::Running
                    }
                }
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    Verdict::Crashed(format!("wait failed: {e}"))
                }
            };
            match verdict {
                Verdict::Running => {}
                Verdict::Done => {
                    slot.state = SlotState::Idle;
                    manifest.leases[lease_id].state = LeaseState::Done;
                    let _ = manifest.save(&manifest_path(&cfg.dir));
                    done += 1;
                    log.line(&format!(
                        "worker {k}: lease {lease_id} done ({done}/{} leases)",
                        manifest.leases.len()
                    ));
                }
                Verdict::Crashed(why) => {
                    log.line(&format!("worker {k}: lease {lease_id} crashed: {why}"));
                    manifest.leases[lease_id].state = LeaseState::Pending;
                    let _ = manifest.save(&manifest_path(&cfg.dir));
                    pending.push_back(lease_id);
                    charge_restart(cfg, k, slot, now, &mut tally, &mut log);
                }
            }
        }
        // Hand pending leases to idle slots past their backoff.
        for (k, slot) in slots.iter_mut().enumerate() {
            if pending.is_empty() {
                break;
            }
            if !matches!(slot.state, SlotState::Idle) {
                continue;
            }
            if slot.backoff_until.is_some_and(|until| now < until) {
                continue;
            }
            let lease_id = pending.pop_front().expect("checked non-empty");
            let (lease_start, lease_end) = {
                let lease = &manifest.leases[lease_id];
                (lease.start, lease.end)
            };
            let fault = match &fault_pending {
                Some((target, spec)) if *target == k => Some(spec.clone()),
                _ => None,
            };
            let mut cmd = Command::new(&cfg.worker_exe);
            cmd.arg("swarm-worker")
                .arg(&cfg.workload_arg)
                .args(["--preset", &cfg.preset.to_string()])
                .args(["--range", &format!("{lease_start}:{lease_end}")])
                .args(["--lease", &lease_id.to_string()])
                .args(["--slot", &k.to_string()])
                .args(["--threads", &cfg.worker_threads.to_string()])
                .args(["--dir".to_owned(), cfg.dir.display().to_string()])
                .stdin(Stdio::null())
                .stdout(log.stdio())
                .stderr(log.stdio());
            // Workers never inherit the supervisor's fault spec: the CI
            // smoke test aims MCE_FAULT at exactly one first spawn, and a
            // respawned worker must not re-trip the same fault.
            cmd.env_remove("MCE_FAULT");
            if let Some(spec) = &fault {
                cmd.env("MCE_FAULT", spec);
            }
            match cmd.spawn() {
                Ok(child) => {
                    if fault.is_some() {
                        fault_pending = None;
                    }
                    if let Some(prev) = last_owner[lease_id] {
                        if prev != k {
                            tally.stolen += 1;
                            obs::counter_add("swarm.leases_stolen", 1);
                            log.line(&format!(
                                "worker {k}: stealing lease {lease_id} from dead worker {prev}"
                            ));
                        }
                    }
                    last_owner[lease_id] = Some(k);
                    manifest.leases[lease_id].state = LeaseState::Running;
                    manifest.leases[lease_id].attempts += 1;
                    let attempt = manifest.leases[lease_id].attempts;
                    let _ = manifest.save(&manifest_path(&cfg.dir));
                    log.line(&format!(
                        "worker {k}: claimed lease {lease_id} \
                         ({lease_start}..{lease_end}, attempt {attempt}{})",
                        if fault.is_some() { ", fault armed" } else { "" }
                    ));
                    slot.state = SlotState::Running {
                        child,
                        lease: lease_id,
                        hb_seq: None,
                        hb_advanced: now,
                    };
                }
                Err(e) => {
                    log.line(&format!("worker {k}: spawn failed: {e}"));
                    pending.push_front(lease_id);
                    charge_restart(cfg, k, slot, now, &mut tally, &mut log);
                }
            }
        }
        // Graceful degradation: every slot retired with work remaining —
        // the supervisor becomes the worker of last resort. Whatever the
        // inline runs add to this process's registries is reset before
        // the final pass, so it cannot leak into the report.
        let all_retired = slots.iter().all(|s| matches!(s.state, SlotState::Retired));
        if all_retired && !pending.is_empty() {
            while let Some(lease_id) = pending.pop_front() {
                let lease = manifest.leases[lease_id].clone();
                log.line(&format!(
                    "supervisor: running lease {lease_id} inline ({}..{})",
                    lease.start, lease.end
                ));
                if last_owner[lease_id].is_some() {
                    tally.stolen += 1;
                    obs::counter_add("swarm.leases_stolen", 1);
                }
                manifest.leases[lease_id].state = LeaseState::Running;
                manifest.leases[lease_id].attempts += 1;
                let _ = manifest.save(&manifest_path(&cfg.dir));
                run_lease(
                    &cfg.workload,
                    cfg.preset,
                    cfg.worker_threads,
                    &cfg.dir,
                    &LeaseRun {
                        lease: lease_id,
                        start: lease.start,
                        end: lease.end,
                        slot: None,
                        heartbeat_every: Duration::from_millis(200),
                    },
                )?;
                verify_shard(&cfg.dir, &lease, &w_digest, &c_digest)?;
                manifest.leases[lease_id].state = LeaseState::Done;
                let _ = manifest.save(&manifest_path(&cfg.dir));
                done += 1;
                inline_leases += 1;
                log.line(&format!(
                    "supervisor: lease {lease_id} done inline ({done}/{} leases)",
                    manifest.leases.len()
                ));
            }
        }
        publish_status(cfg, &manifest, "running", done, &tally, &slots);
        if done < manifest.leases.len() {
            std::thread::sleep(poll);
        }
    }
    publish_status(cfg, &manifest, "merging", done, &tally, &slots);
    log.line("all leases done; merging lease caches");

    // ----- Merge: one serial ConEx pass over the union of the lease
    // caches, first-lease-first with keyed dedupe. Each lease spilled
    // every estimate and full simulation it made, so every evaluation
    // of the pass is a cache hit and its result is the serial run's.
    let mut entries = Vec::new();
    let mut seen = HashSet::new();
    for lease in &manifest.leases {
        let spill = EvalCache::load(lease_cache_path(&cfg.dir, lease.id), DEFAULT_CAPACITY)?;
        for (key, metrics) in spill.entries_fifo() {
            if seen.insert(key) {
                entries.push((key, metrics));
            }
        }
    }
    let cache = Arc::new(EvalCache::from_entries_fifo(entries, DEFAULT_CAPACITY));
    log.line(&format!("lease caches merged: {} entries", cache.len()));
    reset_registries(&post_apex);
    let engine = EvalEngine::with_blocks(&cfg.workload, blocks).with_cache(cache.clone());
    let explorer = ConexExplorer::with_library(conex_cfg.clone(), library);
    let conex = explorer.explore_with_engine_resumable(
        &engine,
        mem_archs,
        Phase1State::default(),
        &mut |_| Ok(()),
    )?;
    let cache_stats = cache.stats();
    log.line(&format!(
        "serial pass complete: {} of {} evaluations answered from the merged cache",
        cache_stats.hits,
        cache_stats.hits + cache_stats.misses
    ));
    let report = RunReport::collect(
        &cfg.workload,
        &apex_cfg,
        &conex_cfg,
        DEFAULT_CAPACITY,
        &cache_stats,
        &conex,
        start.elapsed().as_secs_f64(),
        false,
    );
    publish_status(cfg, &manifest, "complete", done, &tally, &slots);
    log.line(&format!(
        "merge complete: {} estimated, {} simulated, {} restarts, {} leases stolen",
        conex.estimated().len(),
        conex.simulated().len(),
        tally.restarts,
        tally.stolen
    ));
    Ok(SwarmRun::Completed(Box::new(SwarmOutcome {
        report,
        conex,
        restarts: tally.restarts,
        leases_stolen: tally.stolen,
        backoff_ms: tally.backoff_ms,
        retired_slots: slots
            .iter()
            .filter(|s| matches!(s.state, SlotState::Retired))
            .count(),
        inline_leases,
    })))
}

/// Charges slot `k` one restart — after a crash or a failed spawn — and
/// either retires it (over its restart budget) or backs it off on the
/// [`backoff_after`] schedule, logging which.
fn charge_restart(
    cfg: &SwarmConfig,
    k: usize,
    slot: &mut Slot,
    now: Instant,
    tally: &mut Tally,
    log: &mut RunLog,
) {
    tally.restarts += 1;
    obs::counter_add("swarm.restarts", 1);
    slot.restarts += 1;
    if slot.restarts > cfg.restart_budget {
        slot.state = SlotState::Retired;
        log.line(&format!(
            "worker {k}: retired after {} restarts (budget {})",
            slot.restarts, cfg.restart_budget
        ));
    } else {
        let delay = backoff_after(slot.restarts, cfg.backoff_base, cfg.backoff_cap);
        tally.backoff_ms += delay.as_millis() as u64;
        obs::counter_add("swarm.backoff_ms", delay.as_millis() as u64);
        slot.backoff_until = Some(now + delay);
        slot.state = SlotState::Idle;
        log.line(&format!(
            "worker {k}: backing off {} ms before restart {}",
            delay.as_millis(),
            slot.restarts
        ));
    }
}

/// Checks that the lease's receipt shard is intact and settles exactly
/// this lease of this workload and configuration.
fn verify_shard(dir: &Path, lease: &Lease, w_digest: &str, c_digest: &str) -> Result<(), MceError> {
    let shard = WorkerShard::load(&shard_path(dir, lease.id))?;
    if shard.workload_digest != w_digest || shard.config_digest != c_digest {
        return Err(MceError::checkpoint(format!(
            "shard for lease {} belongs to a different workload or configuration",
            lease.id
        )));
    }
    if shard.lease != lease.id || shard.start != lease.start || shard.end != lease.end {
        return Err(MceError::checkpoint(format!(
            "shard for lease {} covers {}..{} but the lease is {}..{}",
            lease.id, shard.start, shard.end, lease.start, lease.end
        )));
    }
    Ok(())
}

/// Puts every counter and gauge except the live `swarm.*` tallies back
/// to the supervisor's post-APEX snapshot (0 when absent there), so
/// leases run inline in this process leave nothing behind for the final
/// pass to report.
fn reset_registries((counters, gauges): &(NamedValues, NamedValues)) {
    let base = |named: &NamedValues, name: &str| {
        named.iter().find(|(n, _)| n == name).map_or(0, |&(_, v)| v)
    };
    for (name, _) in obs::counters_snapshot() {
        if !name.starts_with("swarm.") {
            obs::counter_restore(name, base(counters, name));
        }
    }
    for (name, _) in obs::gauges_snapshot() {
        if !name.starts_with("swarm.") {
            obs::gauge_restore(name, base(gauges, name));
        }
    }
}

fn publish_status(
    cfg: &SwarmConfig,
    manifest: &LeaseManifest,
    status: &str,
    done: usize,
    tally: &Tally,
    slots: &[Slot],
) {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"swarm_schema\": {SWARM_STATUS_SCHEMA},\n"));
    s.push_str(&format!(
        "  \"workload\": \"{}\",\n",
        obs::escape_json(cfg.workload.name())
    ));
    s.push_str(&format!("  \"status\": \"{status}\",\n"));
    s.push_str(&format!("  \"workers\": {},\n", cfg.workers));
    s.push_str(&format!("  \"leases_done\": {done},\n"));
    s.push_str(&format!("  \"leases_total\": {},\n", manifest.leases.len()));
    s.push_str(&format!("  \"restarts\": {},\n", tally.restarts));
    s.push_str(&format!("  \"leases_stolen\": {},\n", tally.stolen));
    s.push_str(&format!("  \"backoff_ms\": {},\n", tally.backoff_ms));
    s.push_str("  \"slots\": [");
    for (k, slot) in slots.iter().enumerate() {
        if k > 0 {
            s.push_str(", ");
        }
        let (state, lease) = match &slot.state {
            SlotState::Idle => ("idle", None),
            SlotState::Running { lease, .. } => ("running", Some(*lease)),
            SlotState::Retired => ("retired", None),
        };
        s.push_str(&format!(
            "{{\"slot\": {k}, \"state\": \"{state}\", \"lease\": {}, \"restarts\": {}}}",
            lease.map_or_else(|| "null".to_owned(), |l| l.to_string()),
            slot.restarts
        ));
    }
    s.push_str("]\n}\n");
    // Best-effort like worker live status: losing a snapshot must never
    // hurt the run.
    let _ = atomic_write(status_path(&cfg.dir), s.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leases_partition_evenly_and_contiguously() {
        for (total, count) in [(7usize, 3usize), (3, 8), (12, 4), (1, 1), (5, 2)] {
            let leases = partition_leases(total, count);
            assert_eq!(leases.len(), count.clamp(1, total));
            assert_eq!(leases[0].start, 0);
            for pair in leases.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "contiguous");
                assert!(
                    pair[0].end - pair[0].start >= pair[1].end - pair[1].start,
                    "longer leases first"
                );
            }
            assert_eq!(leases.last().unwrap().end, total);
        }
        assert!(partition_leases(0, 4).is_empty());
    }

    #[test]
    fn backoff_doubles_from_base_and_saturates_at_cap() {
        let base = Duration::from_millis(250);
        let cap = Duration::from_millis(5000);
        assert_eq!(backoff_after(0, base, cap), Duration::ZERO);
        assert_eq!(backoff_after(1, base, cap), Duration::from_millis(250));
        assert_eq!(backoff_after(2, base, cap), Duration::from_millis(500));
        assert_eq!(backoff_after(3, base, cap), Duration::from_millis(1000));
        assert_eq!(backoff_after(4, base, cap), Duration::from_millis(2000));
        assert_eq!(backoff_after(5, base, cap), Duration::from_millis(4000));
        assert_eq!(backoff_after(6, base, cap), cap, "saturates");
        assert_eq!(
            backoff_after(60, base, cap),
            cap,
            "no overflow far past the cap"
        );
    }

    #[test]
    fn manifest_round_trips_and_rejects_tampering() {
        let path = std::env::temp_dir().join(format!("mce_manifest_{}.json", std::process::id()));
        let m = LeaseManifest {
            workload_digest: "w".repeat(32),
            config_digest: "c".repeat(32),
            workers: 3,
            total_archs: 5,
            leases: partition_leases(5, 3),
        };
        m.save(&path).unwrap();
        assert_eq!(LeaseManifest::load(&path).unwrap(), m);
        // One changed byte in the body breaks the digest.
        let text = std::fs::read_to_string(&path).unwrap();
        let tampered = text.replacen("\"total_archs\":5", "\"total_archs\":6", 1);
        assert_ne!(tampered, text);
        std::fs::write(&path, tampered).unwrap();
        assert!(LeaseManifest::load(&path).is_err());
        // A non-partition is rejected even when correctly framed.
        let mut holey = m.clone();
        holey.leases[1].start += 1;
        holey.save(&path).unwrap();
        let err = LeaseManifest::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.to_string().contains("partition"), "{err}");
    }

    #[test]
    fn heartbeat_round_trips_and_corruption_reads_as_silence() {
        let dir = std::env::temp_dir().join(format!("mce_hb_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = heartbeat_path(&dir, 0);
        let hb = Heartbeat {
            pid: std::process::id(),
            lease: 3,
            seq: 17,
        };
        assert!(write_heartbeat(&path, hb));
        assert_eq!(read_heartbeat(&path), Some(hb));
        std::fs::write(&path, "{\"swarm_heartbeat\":1,\"pid\":1").unwrap();
        assert_eq!(read_heartbeat(&path), None, "torn file is no beat");
        std::fs::remove_dir_all(&dir).ok();
    }
}
