//! The `swarm-leases` workload: `swarm::supervise` with one single-threaded
//! `mce swarm-worker` subprocess per core.

use crate::explore::Reference;
use crate::oracle::{diff_clean, Tally};
use memory_conex::appmodel::Workload;
use memory_conex::obs;
use memory_conex::sim::Preset;
use memory_conex::swarm::{self, heartbeat_path, manifest_path, shard_path, SwarmConfig, SwarmRun};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One supervised exploration's outcome.
pub struct SwarmJob {
    pub wall_s: f64,
    /// Per-slot time from the lease manifest appearing (written just before
    /// the first spawn) to the slot's first heartbeat, milliseconds.
    pub worker_start_ms: Vec<f64>,
    /// From the last result shard appearing to `supervise` returning.
    pub finalize_s: Option<f64>,
}

/// Writes each app as a workload file the workers load by path.
pub fn workload_files(dir: &Path, apps: &[Workload]) -> Result<Vec<PathBuf>, String> {
    apps.iter()
        .map(|w| {
            let path = dir.join(format!("{}.workload.json", w.name()));
            let body = serde_json::to_string(w).map_err(|e| format!("serialize workload: {e}"))?;
            std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))?;
            Ok(path)
        })
        .collect()
}

/// Polls the swarm directory from a side thread, recording when the
/// manifest, each slot's heartbeat and each lease's shard first appear.
struct Watch {
    manifest: Option<Instant>,
    heartbeats: Vec<Option<Instant>>,
    shards: Vec<Option<Instant>>,
}

fn watch(dir: &Path, slots: usize, stop: &AtomicBool) -> Watch {
    let mut w = Watch {
        manifest: None,
        heartbeats: vec![None; slots],
        shards: Vec::new(),
    };
    while !stop.load(Ordering::Relaxed) {
        let now = Instant::now();
        if w.manifest.is_none() && manifest_path(dir).exists() {
            w.manifest = Some(now);
            let leases =
                swarm::LeaseManifest::load(&manifest_path(dir)).map_or(0, |m| m.leases.len());
            w.shards = vec![None; leases];
        }
        for (slot, seen) in w.heartbeats.iter_mut().enumerate() {
            if seen.is_none() && heartbeat_path(dir, slot).exists() {
                *seen = Some(now);
            }
        }
        for (lease, seen) in w.shards.iter_mut().enumerate() {
            if seen.is_none() && shard_path(dir, lease).exists() {
                *seen = Some(now);
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    w
}

/// Runs one supervised exploration of `w` in a fresh directory and checks
/// its merged report `mce diff`-clean against `reference`. With `traced`,
/// a side thread watches the directory for the worker start-up and
/// finalize timings.
#[allow(clippy::too_many_arguments)]
pub fn supervise_once(
    mce: &Path,
    dir: &Path,
    w: &Workload,
    workload_file: &Path,
    workers: usize,
    reference: &Reference,
    traced: bool,
    tally: &mut Tally,
) -> Option<SwarmJob> {
    std::fs::remove_dir_all(dir).ok();
    let mut cfg = SwarmConfig::new(w.clone(), workload_file.display().to_string(), dir);
    cfg.preset = Preset::Paper;
    cfg.workers = workers;
    cfg.worker_threads = 1;
    cfg.worker_exe = mce.to_path_buf();
    let stop = AtomicBool::new(false);
    obs::install(std::sync::Arc::new(obs::NullSink::new()));
    let (run, wall_s, returned, watched) = std::thread::scope(|s| {
        let watcher = traced.then(|| s.spawn(|| watch(dir, workers, &stop)));
        let t0 = Instant::now();
        let run = swarm::supervise(&cfg);
        let returned = Instant::now();
        stop.store(true, Ordering::Relaxed);
        let watched = watcher.map(|h| h.join().expect("the directory watcher does not panic"));
        (run, t0.elapsed().as_secs_f64(), returned, watched)
    });
    obs::uninstall();
    let checked = match run {
        Ok(SwarmRun::Completed(outcome)) => {
            diff_clean(&reference.report, &outcome.report.to_json()).and_then(|clean| {
                clean
                    .then_some(())
                    .ok_or_else(|| format!("swarm {} is not diff-clean", reference.app))
            })
        }
        Ok(SwarmRun::Interrupted { done, total }) => Err(format!(
            "swarm {} interrupted at {done}/{total} leases",
            reference.app
        )),
        Err(e) => Err(format!("swarm {}: {e}", reference.app)),
    };
    std::fs::remove_dir_all(dir).ok();
    tally.record_result(checked)?;
    let mut job = SwarmJob {
        wall_s,
        worker_start_ms: Vec::new(),
        finalize_s: None,
    };
    if let Some(w) = watched {
        if let Some(m) = w.manifest {
            job.worker_start_ms = w
                .heartbeats
                .iter()
                .flatten()
                .map(|hb| hb.saturating_duration_since(m).as_secs_f64() * 1e3)
                .collect();
        }
        let shards: Option<Vec<Instant>> = w.shards.iter().copied().collect();
        job.finalize_s = shards
            .and_then(|s| s.into_iter().max())
            .map(|last| returned.saturating_duration_since(last).as_secs_f64());
    }
    Some(job)
}
