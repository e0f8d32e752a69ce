//! The `serve-jobs` workload: an `mce serve` daemon subprocess fed by one
//! closed-loop client through the program's public `Client`.

use crate::explore::{Reference, Round, Rounds};
use crate::measure::{proc_cpu_s, proc_peak_rss_mb, self_usage};
use crate::oracle::{diff_clean, Tally};
use memory_conex::appmodel::Workload;
use memory_conex::obs::json::{self, Value};
use memory_conex::serve::client::read_addr;
use memory_conex::{Client, JobSpec};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Pause between two status polls of a running job. The daemon's own
/// accept and pickup loops poll every 25 ms, so 1 ms keeps the client
/// from being the clock.
const POLL_GAP: Duration = Duration::from_millis(1);
/// Longest a single job may take before it counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// A running daemon, stopped (SIGTERM drain, then reaped) on drop at the
/// latest.
pub struct Daemon {
    child: Option<Child>,
    pub addr: String,
}

impl Daemon {
    /// Starts `mce serve` on an ephemeral loopback port under `dir` and
    /// waits until it answers `/healthz`.
    pub fn start(mce: &Path, dir: &Path) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let log = std::fs::File::create(dir.join("daemon.out"))
            .map_err(|e| format!("create daemon log: {e}"))?;
        let child = Command::new(mce)
            .arg("serve")
            .arg("--dir")
            .arg(dir)
            .args(["--addr", "127.0.0.1:0", "--archive"])
            .arg(dir.join("archive"))
            .stdin(Stdio::null())
            .stdout(log.try_clone().map_err(|e| e.to_string())?)
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", mce.display()))?;
        let mut daemon = Daemon {
            child: Some(child),
            addr: String::new(),
        };
        let started = Instant::now();
        loop {
            if let Ok(addr) = read_addr(dir) {
                if Client::one_shot(&addr).healthz().is_ok_and(|r| r.is_ok()) {
                    daemon.addr = addr;
                    return Ok(daemon);
                }
            }
            let exited = daemon.child.as_mut().map(|c| c.try_wait());
            if let Some(Ok(Some(status))) = exited {
                return Err(format!("mce serve exited during start-up ({status})"));
            }
            if started.elapsed() > Duration::from_secs(30) {
                return Err("mce serve did not come up within 30 s".to_owned());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Drains the daemon with SIGTERM and waits for it to exit; kills it
    /// if the drain takes longer than 30 s.
    pub fn stop(&mut self) -> Result<(), String> {
        let Some(mut child) = self.child.take() else {
            return Ok(());
        };
        let term = Command::new("kill")
            .args(["-TERM", &child.id().to_string()])
            .status();
        let deadline = Instant::now() + Duration::from_secs(30);
        while term.as_ref().is_ok_and(|s| s.success()) && Instant::now() < deadline {
            if let Ok(Some(status)) = child.try_wait() {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("mce serve drained with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        child.kill().ok();
        child.wait().ok();
        Err("mce serve did not drain on SIGTERM".to_owned())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            child.kill().ok();
            child.wait().ok();
        }
    }
}

/// One job's client-side timeline, milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct JobTimes {
    /// Submit call until the acknowledgement (the journal fsync included).
    pub submit_ms: f64,
    /// Acknowledgement until the first poll that saw the job leave the
    /// queue.
    pub queue_wait_ms: f64,
    /// That poll until the first poll that saw it done.
    pub run_ms: f64,
    /// Submit call until the first poll that saw it done.
    pub latency_ms: f64,
}

/// What the closed loop produced.
#[derive(Default)]
pub struct JobLoop {
    /// A round is consecutive jobs covering every app once; its CPU time is
    /// the daemon's plus this process's.
    pub rounds: Rounds,
    pub jobs: Vec<JobTimes>,
    pub poll_rtt_ms: Vec<f64>,
    pub daemon_peak_rss_mb: f64,
}

/// The job spec `mce submit <app> --preset <preset>` would send.
pub fn spec(w: &Workload, preset: &str, threads: usize) -> JobSpec {
    JobSpec {
        workload: w.clone(),
        preset: preset.to_owned(),
        threads,
        max_evals: 0,
        max_archs: 0,
        deadline_ms: 0,
        retry_budget: 0,
    }
}

fn job_state(body: &str) -> Result<String, String> {
    let doc = json::parse(body).map_err(|e| format!("job summary: {e:?}"))?;
    doc.get("state")
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("job summary without a state: {body}"))
}

fn run_job(
    client: &Client,
    spec: &JobSpec,
    rtts: &mut Vec<f64>,
) -> Result<(u64, JobTimes), String> {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let id = client.submit(spec).map_err(|e| format!("submit: {e}"))?;
    let acked = t0.elapsed();
    let mut left_queue = None;
    loop {
        let p = Instant::now();
        let body = client.show(id).map_err(|e| format!("poll job {id}: {e}"))?;
        rtts.push(ms(p.elapsed()));
        let seen = t0.elapsed();
        match job_state(&body)?.as_str() {
            "queued" => {}
            "running" => {
                left_queue.get_or_insert(seen);
            }
            "done" => {
                let left = left_queue.unwrap_or(seen);
                return Ok((
                    id,
                    JobTimes {
                        submit_ms: ms(acked),
                        queue_wait_ms: ms(left - acked),
                        run_ms: ms(seen - left),
                        latency_ms: ms(seen),
                    },
                ));
            }
            other => return Err(format!("job {id} ended {other}")),
        }
        if seen > JOB_TIMEOUT {
            return Err(format!("job {id} still not done after {JOB_TIMEOUT:?}"));
        }
        std::thread::sleep(POLL_GAP);
    }
}

/// Submits one job per app in turn, each after the previous finished,
/// until `seconds` have passed (at least one job per app). Results are
/// fetched and checked `mce diff`-clean against `refs` after the loop.
pub fn job_loop(
    daemon: &Daemon,
    specs: &[JobSpec],
    refs: &[Reference],
    seconds: f64,
    tally: &mut Tally,
) -> JobLoop {
    let client = Client::new(&daemon.addr);
    let cpu_s = || proc_cpu_s(daemon.pid()).unwrap_or(0.0) + self_usage().cpu_s;
    let mut out = JobLoop::default();
    let mut done: Vec<(usize, u64)> = Vec::new();
    let start = Instant::now();
    loop {
        let (t0, cpu0) = (Instant::now(), cpu_s());
        let mut evals = 0;
        for (app, spec) in specs.iter().enumerate() {
            match run_job(&client, spec, &mut out.poll_rtt_ms) {
                Ok((id, times)) => {
                    out.rounds.job_ms.push((app, times.latency_ms));
                    out.jobs.push(times);
                    done.push((app, id));
                    evals += refs[app].evals;
                }
                Err(e) => tally.record(false, || e),
            }
        }
        out.rounds.rounds.push(Round {
            wall_s: t0.elapsed().as_secs_f64(),
            cpu_s: cpu_s() - cpu0,
            evals,
        });
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    out.daemon_peak_rss_mb = proc_peak_rss_mb(daemon.pid()).unwrap_or(0.0);
    for (app, id) in done {
        let checked = client
            .result(id)
            .map_err(|e| format!("result of job {id}: {e}"))
            .and_then(|report| diff_clean(&refs[app].report, &report))
            .and_then(|clean| {
                clean
                    .then_some(())
                    .ok_or_else(|| format!("job {id} ({}) is not diff-clean", refs[app].app))
            });
        tally.record_result(checked);
    }
    out
}
