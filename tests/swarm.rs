//! Swarm supervision end to end, against the real `mce` binary: a
//! multi-process run must merge to the same report a single process
//! produces (up to `wall_clock`), survive a SIGKILL'd worker and a
//! heartbeat-stalled worker, and degrade to inline completion when the
//! restart budget runs out (crashes and failed spawns alike) — exiting
//! 0 when every lease ran under a
//! worker, 2 when it completed only by falling back to inline
//! execution, 1 on failure. The binary is built with the
//! `fault-injection` feature through the package's self-dev-dependency,
//! so `MCE_FAULT` is live in the spawned processes.

use memory_conex::appmodel::benchmarks;
use memory_conex::obs;
use memory_conex::sim::Preset;
use memory_conex::swarm::{self, manifest_path, LeaseManifest, SwarmConfig, SwarmRun};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::Arc;
use std::time::Duration;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mce_swarm_{}_{name}", std::process::id()))
}

/// The serial baseline: `mce explore` with the same preset, no faults.
fn serial_report(bin: &str, dir: &Path) -> PathBuf {
    let report = dir.join("serial.json");
    let out = Command::new(bin)
        .args(["explore", "vocoder", "--preset", "fast", "--report-out"])
        .arg(&report)
        .arg("--out-dir")
        .arg(dir.join("experiments"))
        .env_remove("MCE_FAULT")
        .output()
        .expect("spawning the mce binary");
    assert!(out.status.success(), "serial run failed: {out:?}");
    report
}

fn swarm_cmd(bin: &str, dir: &Path, report: &Path, extra: &[&str]) -> Command {
    let mut cmd = Command::new(bin);
    cmd.args(["swarm", "vocoder", "--preset", "fast", "--dir"])
        .arg(dir.join("swarm"))
        .arg("--report-out")
        .arg(report)
        .args(extra)
        .env_remove("MCE_FAULT");
    cmd
}

/// Asserts the two reports are diff-clean: `mce diff` exits 0, meaning
/// every deterministic section is identical and only effort/wall-clock
/// context differs.
fn assert_diff_clean(bin: &str, a: &Path, b: &Path, what: &str) {
    let out = Command::new(bin)
        .arg("diff")
        .arg(a)
        .arg(b)
        .env_remove("MCE_FAULT")
        .output()
        .expect("spawning the mce binary");
    assert!(
        out.status.success(),
        "{what}: reports differ:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

fn counter(report: &Path, name: &str) -> u64 {
    let text = std::fs::read_to_string(report).expect("report reads");
    let doc = obs::json::parse(&text).expect("report is valid JSON");
    doc.get("counters")
        .and_then(|c| c.get(name))
        .and_then(obs::json::Value::as_u64)
        .unwrap_or(0)
}

fn swarm_log(dir: &Path) -> String {
    std::fs::read_to_string(dir.join("swarm").join("swarm.log")).unwrap_or_default()
}

fn show(out: &Output) -> String {
    format!(
        "status {:?}\n--- stdout ---\n{}--- stderr ---\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    )
}

/// A fault-free swarm merges to the serial report.
#[test]
fn clean_swarm_matches_the_serial_report() {
    let Some(bin) = option_env!("CARGO_BIN_EXE_mce") else {
        eprintln!("skipping: mce binary path not provided by the harness");
        return;
    };
    let dir = tmp("clean");
    std::fs::create_dir_all(&dir).unwrap();
    let serial = serial_report(bin, &dir);
    let report = dir.join("swarm.json");
    let out = swarm_cmd(bin, &dir, &report, &["-j", "2"])
        .output()
        .expect("spawning the mce binary");
    // Exit-code contract: 0 = every lease ran under a worker.
    assert_eq!(out.status.code(), Some(0), "clean swarm: {}", show(&out));
    assert_diff_clean(bin, &serial, &report, "clean swarm");
    assert_eq!(counter(&report, "swarm.restarts"), 0);
    assert_eq!(counter(&report, "swarm.leases_stolen"), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A worker SIGKILL'd mid-exploration is detected, restarted after
/// backoff, and the lease finishes through its checkpoint — the merged
/// report is unaffected.
#[test]
fn sigkilled_worker_is_restarted_and_the_merge_is_unaffected() {
    let Some(bin) = option_env!("CARGO_BIN_EXE_mce") else {
        eprintln!("skipping: mce binary path not provided by the harness");
        return;
    };
    let dir = tmp("sigkill");
    std::fs::create_dir_all(&dir).unwrap();
    let serial = serial_report(bin, &dir);
    let report = dir.join("swarm.json");
    let out = swarm_cmd(bin, &dir, &report, &["-j", "2", "--fault-worker", "0"])
        .env("MCE_FAULT", "sigkill_at_eval:3")
        .output()
        .expect("spawning the mce binary");
    assert!(
        out.status.success(),
        "swarm with a SIGKILL'd worker failed: {}",
        show(&out)
    );
    assert_diff_clean(bin, &serial, &report, "sigkilled swarm");
    assert!(
        counter(&report, "swarm.restarts") >= 1,
        "the kill must be visible in swarm.restarts"
    );
    let log = swarm_log(&dir);
    assert!(log.contains("crashed"), "no crash in the log:\n{log}");
    assert!(
        log.contains("backing off"),
        "no restart backoff in the log:\n{log}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A worker whose heartbeats stop while it hangs is declared dead on the
/// staleness timeout, killed, and its lease is finished by another
/// claimant — the merged report is unaffected.
#[test]
fn heartbeat_stalled_worker_is_killed_and_its_lease_is_recovered() {
    let Some(bin) = option_env!("CARGO_BIN_EXE_mce") else {
        eprintln!("skipping: mce binary path not provided by the harness");
        return;
    };
    let dir = tmp("stall");
    std::fs::create_dir_all(&dir).unwrap();
    let serial = serial_report(bin, &dir);
    let report = dir.join("swarm.json");
    // The worker wedges at its second evaluation with every heartbeat
    // suppressed: only the supervisor's staleness timeout can reclaim it.
    let out = swarm_cmd(
        bin,
        &dir,
        &report,
        &[
            "-j",
            "2",
            "--fault-worker",
            "1",
            "--heartbeat-timeout",
            "800",
        ],
    )
    .env("MCE_FAULT", "stall_heartbeat:1,hang_at_eval:2")
    .output()
    .expect("spawning the mce binary");
    assert!(
        out.status.success(),
        "swarm with a stalled worker failed: {}",
        show(&out)
    );
    assert_diff_clean(bin, &serial, &report, "stalled swarm");
    assert!(
        counter(&report, "swarm.restarts") >= 1,
        "the stale kill must be visible in swarm.restarts"
    );
    let log = swarm_log(&dir);
    assert!(
        log.contains("heartbeat") || log.contains("crashed"),
        "no staleness verdict in the log:\n{log}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// With a restart budget of zero, the first crash retires the only
/// worker slot — and the supervisor drains the remaining leases inline
/// rather than failing the run.
#[test]
fn exhausted_restart_budget_degrades_to_inline_completion() {
    let Some(bin) = option_env!("CARGO_BIN_EXE_mce") else {
        eprintln!("skipping: mce binary path not provided by the harness");
        return;
    };
    let dir = tmp("budget");
    std::fs::create_dir_all(&dir).unwrap();
    let serial = serial_report(bin, &dir);
    let report = dir.join("swarm.json");
    let out = swarm_cmd(
        bin,
        &dir,
        &report,
        &["-j", "1", "--restart-budget", "0", "--fault-worker", "0"],
    )
    .env("MCE_FAULT", "sigkill_at_eval:3")
    .output()
    .expect("spawning the mce binary");
    // Exit-code contract: 2 = completed, but degraded to inline
    // execution — the report is exact, the operational posture is not.
    // (0 would hide the degradation from process managers; 1 would
    // belie the exact report.)
    assert_eq!(
        out.status.code(),
        Some(2),
        "budget exhaustion must exit 2 (completed degraded): {}",
        show(&out)
    );
    assert_diff_clean(bin, &serial, &report, "budget-exhausted swarm");
    assert!(counter(&report, "swarm.restarts") >= 1);
    let log = swarm_log(&dir);
    assert!(log.contains("retired"), "no retirement in the log:\n{log}");
    assert!(
        log.contains("inline"),
        "no inline completion in the log:\n{log}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Workers that cannot even be spawned are charged like crashes: each
/// slot backs off, then retires once over its restart budget — with the
/// same log lines a crash produces — and the supervisor completes every
/// lease inline, still merging to the serial report.
#[test]
fn failed_spawns_retire_every_slot_and_complete_inline() {
    let Some(bin) = option_env!("CARGO_BIN_EXE_mce") else {
        eprintln!("skipping: mce binary path not provided by the harness");
        return;
    };
    let dir = tmp("nospawn");
    std::fs::create_dir_all(&dir).unwrap();
    let serial = serial_report(bin, &dir);
    let mut cfg = SwarmConfig::new(benchmarks::vocoder(), "vocoder", dir.join("swarm"));
    cfg.preset = Preset::Fast;
    cfg.workers = 2;
    cfg.worker_exe = dir.join("no-such-mce");
    cfg.backoff_base = Duration::from_millis(1);
    cfg.restart_budget = 1;
    // Registries collect as under `mce swarm --report-out`.
    obs::install(Arc::new(obs::NullSink::new()));
    let run = swarm::supervise(&cfg);
    obs::uninstall();
    let Ok(SwarmRun::Completed(outcome)) = run else {
        panic!("supervise did not complete: {run:?}");
    };
    let leases = LeaseManifest::load(&manifest_path(&cfg.dir))
        .expect("manifest loads")
        .leases
        .len();
    assert_eq!(outcome.retired_slots, cfg.workers, "every slot retires");
    assert_eq!(outcome.inline_leases, leases, "every lease runs inline");
    assert_eq!(outcome.restarts, 2 * cfg.workers as u64);
    let report = dir.join("swarm.json");
    std::fs::write(&report, outcome.report.to_json()).unwrap();
    assert_diff_clean(bin, &serial, &report, "spawn-failure swarm");
    let log = swarm_log(&dir);
    for k in 0..cfg.workers {
        assert!(
            log.contains(&format!("worker {k}: retired after 2 restarts (budget 1)")),
            "no retirement of worker {k} in the log:\n{log}"
        );
        assert!(
            log.contains(&format!("worker {k}: backing off 1 ms before restart 1")),
            "no backoff of worker {k} in the log:\n{log}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
