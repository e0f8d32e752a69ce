//! Property tests for the serve job journal (`jobs.jsonl`): a framed
//! write-ahead log. Replay must treat any damage — truncation at every
//! byte boundary, single bit flips — with tail-drop semantics: the
//! surviving events are exactly the events of the lines before the
//! damage, damaged records and everything after them are dropped, and
//! corruption never mis-parses into a different job spec or lifecycle
//! event, and never errors the daemon out. The same properties run over
//! every framed record kind in `tests/framed_props.rs`.

use memory_conex::appmodel::benchmarks;
use memory_conex::serve::journal::fold;
use memory_conex::serve::{replay, JobEvent, JobJournal, JobSpec};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn tmp(name: &str, case: u64) -> PathBuf {
    std::env::temp_dir().join(format!("mce_svprops_{}_{case}_{name}", std::process::id()))
}

fn spec(seed: u64) -> JobSpec {
    JobSpec {
        workload: benchmarks::vocoder(),
        preset: "fast".to_owned(),
        threads: (seed % 3) as usize,
        max_evals: seed % 1000,
        max_archs: (seed % 50) as usize,
        deadline_ms: seed % 10_000,
        retry_budget: (seed % 4) as u32,
    }
}

/// A plausible journal drawn from `seed`: each job runs one of several
/// complete lifecycles (clean finish, deadline-retry into timeout,
/// crash recovery, cancel, terminal failure).
fn build_events(jobs: u64, seed: u64) -> Vec<JobEvent> {
    let mut events = Vec::new();
    let mut s = seed;
    for id in 1..=jobs {
        events.push(JobEvent::Submitted { id, spec: spec(s) });
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let pid = 100 + id as u32;
        let started = |attempt| JobEvent::Started { id, attempt, pid };
        match (s >> 33) % 5 {
            0 => events.extend([started(1), JobEvent::Done { id }]),
            1 => events.extend([
                started(1),
                JobEvent::Retrying {
                    id,
                    reason: "deadline exceeded".to_owned(),
                },
                started(2),
                JobEvent::TimedOut { id },
            ]),
            2 => events.extend([started(1), JobEvent::Requeued { id }]),
            3 => events.push(JobEvent::Canceled { id }),
            _ => events.extend([
                started(1),
                JobEvent::Failed {
                    id,
                    error: "simulator error".to_owned(),
                },
            ]),
        }
    }
    events
}

/// Appends `events` through the real fsyncing journal handle, checks the
/// pristine journal replays to exactly them, and returns the on-disk
/// bytes with the offset of every line's newline.
fn journal_bytes(path: &Path, events: &[JobEvent]) -> Result<(Vec<u8>, Vec<usize>), TestCaseError> {
    let journal = JobJournal::open(path).expect("journal opens");
    for event in events {
        journal.append(event).expect("append succeeds");
    }
    drop(journal);
    prop_assert_eq!(
        replay(path).expect("pristine journal replays"),
        (events.to_vec(), 0)
    );
    let bytes = std::fs::read(path).expect("journal reads back");
    let line_ends: Vec<usize> = bytes
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .map(|(i, _)| i)
        .collect();
    prop_assert_eq!(line_ends.len(), events.len());
    Ok((bytes, line_ends))
}

/// Writes `bytes` over the journal and requires replay to return exactly
/// the first `intact` events, without erroring. The job table the daemon
/// would rebuild from them must fold.
fn replays_to(
    path: &Path,
    bytes: &[u8],
    events: &[JobEvent],
    intact: usize,
    damage: String,
) -> Result<(), TestCaseError> {
    std::fs::write(path, bytes).unwrap();
    let (replayed, _dropped) = replay(path)
        .map_err(|e| TestCaseError::fail(format!("{damage} errored the daemon out: {e}")))?;
    let _ = fold(&replayed);
    prop_assert!(
        replayed[..] == events[..intact],
        "{}: replayed {} events, expected exactly the first {}",
        damage,
        replayed.len(),
        intact
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Truncating the journal at *any* byte boundary replays to exactly
    /// the events whose lines survive whole (a line may lose only its
    /// newline) — never an error, never a mangled record.
    #[test]
    fn truncated_journals_replay_to_an_exact_prefix(
        jobs in 1u64..3,
        seed in 0u64..1_000_000,
        case in 0u64..u64::MAX,
    ) {
        let path = tmp("trunc", case);
        let events = build_events(jobs, seed);
        let (bytes, line_ends) = journal_bytes(&path, &events)?;
        for keep in 0..bytes.len() {
            let intact = line_ends.iter().filter(|&&end| end <= keep).count();
            replays_to(&path, &bytes[..keep], &events, intact, format!("truncation to {keep} bytes"))?;
        }
        std::fs::remove_file(&path).ok();
    }

    /// A single flipped bit anywhere in the journal — non-UTF-8 results
    /// included — drops the damaged line (its newline included) and
    /// everything after it; the lines before it replay exactly. No flip
    /// ever re-aims a job at a different spec or state.
    #[test]
    fn bit_flipped_journals_never_misparse(
        jobs in 1u64..3,
        seed in 0u64..1_000_000,
        bit in 0usize..8,
        stride in 1usize..7,
        case in 0u64..u64::MAX,
    ) {
        let path = tmp("flip", case);
        let events = build_events(jobs, seed);
        let (bytes, line_ends) = journal_bytes(&path, &events)?;
        for byte in (0..bytes.len()).step_by(stride) {
            let mut mangled = bytes.clone();
            mangled[byte] ^= 1 << bit;
            let intact = line_ends.iter().filter(|&&end| end < byte).count();
            replays_to(&path, &mangled, &events, intact, format!("bit {bit} of byte {byte} flipped"))?;
        }
        std::fs::remove_file(&path).ok();
    }
}
