//! Property suite for the framed record (`memory_conex::framed`) over all
//! four record kinds: run checkpoints, lease manifests and worker shards
//! (one-record documents) and the serve job journal (a log).
//!
//! Damage — truncation at every byte, a flipped bit in every byte — must
//! reject a document whole, as `MceError::Checkpoint` (or `Io` when the
//! damage broke UTF-8), and must replay a journal to an exact prefix of
//! what was journaled without erroring: the damaged line and everything
//! after it drop, and nothing mis-parses into a different record. Files
//! in the two-line schema-1 layout of older builds, or carrying any other
//! schema, are rejected.

use memory_conex::appmodel::benchmarks;
use memory_conex::checkpoint::{fnv128, Checkpoint};
use memory_conex::conex::{CacheStats, CanonKey, FrontierSnapshot, Metrics};
use memory_conex::serve::journal::fold;
use memory_conex::serve::{replay, JobEvent, JobJournal, JobSpec};
use memory_conex::swarm::{partition_leases, LeaseManifest, LeaseState, WorkerShard};
use memory_conex::MceError;
use proptest::prelude::*;
use std::fmt::Debug;
use std::path::{Path, PathBuf};

fn tmp(name: &str, case: u64) -> PathBuf {
    std::env::temp_dir().join(format!("mce_framed_{}_{case}_{name}", std::process::id()))
}

/// A deterministic value stream, so one seed varies every field.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> usize {
        (self.next() % n) as usize
    }
}

fn checkpoint(seed: u64) -> Checkpoint {
    let mut r = Lcg(seed);
    Checkpoint {
        workload_digest: format!("{:032x}", r.next()),
        config_digest: format!("{:032x}|range:0-4", r.next()),
        archs_done: r.below(8),
        counters: vec![
            ("conex.estimate_jobs".to_owned(), r.next()),
            ("eval_cache.hits".to_owned(), u64::MAX),
        ],
        gauges: vec![("conex.frontier_size_max".to_owned(), r.next())],
        cache_stats: CacheStats {
            hits: r.next(),
            misses: r.next(),
            inserts: r.next(),
            evictions: r.next(),
        },
        frontier: (1..3)
            .map(|i| FrontierSnapshot {
                archs_explored: i,
                estimated: 10 * i + r.below(10),
                frontier_size: r.below(20),
                hypervolume: r.next() as f64 / 7.0,
            })
            .collect(),
        entries: (0..3)
            .map(|_| {
                let key = CanonKey {
                    hi: r.next(),
                    lo: r.next(),
                };
                let metrics = Metrics {
                    cost_gates: r.next(),
                    latency_cycles: r.next() as f64 / 3.0,
                    energy_nj: r.next() as f64 * 1e-9,
                };
                (key, metrics)
            })
            .collect(),
    }
}

fn manifest(seed: u64) -> LeaseManifest {
    let mut r = Lcg(seed);
    let total = 1 + r.below(30);
    let workers = 1 + r.below(4);
    let mut leases = partition_leases(total, workers * 2);
    for lease in &mut leases {
        lease.state = [LeaseState::Pending, LeaseState::Running, LeaseState::Done][r.below(3)];
        lease.attempts = r.below(4) as u32;
    }
    LeaseManifest {
        workload_digest: format!("{:032x}", r.next()),
        config_digest: format!("{:032x}", r.next()),
        workers,
        total_archs: total,
        leases,
    }
}

fn shard(seed: u64) -> WorkerShard {
    let mut r = Lcg(seed);
    let start = r.below(10);
    WorkerShard {
        workload_digest: format!("{:032x}", r.next()),
        config_digest: format!("{:032x}", r.next()),
        lease: r.below(8),
        start,
        end: start + 1 + r.below(4),
    }
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
/// complete lifecycles (clean finish, deadline-retry into timeout, crash
/// recovery, cancel, terminal failure).
fn journal_events(jobs: u64, seed: u64) -> Vec<JobEvent> {
    let mut r = Lcg(seed);
    let mut events = Vec::new();
    for id in 1..=jobs {
        events.push(JobEvent::Submitted {
            id,
            spec: spec(r.next()),
        });
        let pid = 100 + id as u32;
        let started = |attempt| JobEvent::Started { id, attempt, pid };
        match r.below(5) {
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
                    error: "simulator error: \"bad\"\n".to_owned(),
                },
            ]),
        }
    }
    events
}

/// Saves `doc`, checks it loads back intact, then checks that every
/// truncation and a flip of `bit` in every byte is rejected whole.
fn damage_is_rejected<T: PartialEq + Debug>(
    path: &Path,
    doc: &T,
    save: impl Fn(&T, &Path) -> Result<(), MceError>,
    load: impl Fn(&Path) -> Result<T, MceError>,
    bit: u8,
) -> Result<(), TestCaseError> {
    save(doc, path).expect("document saves");
    prop_assert_eq!(&load(path).expect("pristine document loads"), doc);
    let pristine = std::fs::read(path).unwrap();
    let rejected = |bytes: &[u8], damage: String| {
        std::fs::write(path, bytes).unwrap();
        match load(path) {
            Err(MceError::Checkpoint { .. } | MceError::Io { .. }) => Ok(()),
            other => Err(TestCaseError::fail(format!("{damage}: {other:?}"))),
        }
    };
    for keep in 0..pristine.len() {
        rejected(&pristine[..keep], format!("truncation to {keep} bytes"))?;
    }
    for byte in 0..pristine.len() {
        let mut mangled = pristine.clone();
        mangled[byte] ^= 1 << bit;
        rejected(&mangled, format!("bit {bit} of byte {byte} flipped"))?;
    }
    std::fs::remove_file(path).ok();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn damaged_checkpoints_are_rejected_whole(seed in any::<u64>(), bit in 0u8..8) {
        let (ck, path) = (checkpoint(seed), tmp("ck", seed));
        damage_is_rejected(&path, &ck, |ck, p| ck.save(p), |p| Checkpoint::load(p), bit)?;
    }

    #[test]
    fn damaged_manifests_are_rejected_whole(seed in any::<u64>(), bit in 0u8..8) {
        let (m, path) = (manifest(seed), tmp("manifest", seed));
        damage_is_rejected(&path, &m, LeaseManifest::save, LeaseManifest::load, bit)?;
    }

    #[test]
    fn damaged_shards_are_rejected_whole(seed in any::<u64>(), bit in 0u8..8) {
        let (s, path) = (shard(seed), tmp("shard", seed));
        damage_is_rejected(&path, &s, WorkerShard::save, WorkerShard::load, bit)?;
    }

    /// Truncation anywhere and a flipped bit anywhere replay to exactly
    /// the events of the lines before the damage — never an error, never
    /// a mangled record — and the folded job table stays total.
    #[test]
    fn damaged_journals_replay_to_an_exact_prefix(
        jobs in 1u64..3,
        seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let path = tmp("journal", seed);
        let events = journal_events(jobs, seed);
        let journal = JobJournal::open(&path).expect("journal opens");
        for event in &events {
            journal.append(event).expect("append succeeds");
        }
        drop(journal);
        let pristine_replay = replay(&path).expect("pristine journal replays");
        prop_assert_eq!(pristine_replay, (events.clone(), 0));
        let pristine = std::fs::read(&path).unwrap();
        // `line_ends[k]` is the offset of line k's newline.
        let line_ends: Vec<usize> = pristine
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(line_ends.len(), events.len());
        let replays_to = |bytes: &[u8], intact: usize, damage: String| {
            std::fs::write(&path, bytes).unwrap();
            let (replayed, _) = replay(&path)
                .map_err(|e| TestCaseError::fail(format!("{damage} errored: {e}")))?;
            let _ = fold(&replayed);
            if replayed[..] == events[..intact] {
                Ok(())
            } else {
                Err(TestCaseError::fail(format!(
                    "{damage}: replayed {} events, expected the first {intact}",
                    replayed.len()
                )))
            }
        };
        for keep in 0..pristine.len() {
            // A line survives when all of it but (at most) its newline does.
            let intact = line_ends.iter().filter(|&&end| end <= keep).count();
            replays_to(&pristine[..keep], intact, format!("truncation to {keep} bytes"))?;
        }
        for byte in 0..pristine.len() {
            let mut mangled = pristine.clone();
            mangled[byte] ^= 1 << bit;
            // The flipped byte's line (its newline included) and all after drop.
            let intact = line_ends.iter().filter(|&&end| end < byte).count();
            replays_to(&mangled, intact, format!("bit {bit} of byte {byte} flipped"))?;
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Writes `text` to a scratch file and expects `load` to reject it as a
/// `Checkpoint` error that names the schema.
fn schema_is_rejected<T: Debug>(
    name: &str,
    text: &str,
    load: impl Fn(&Path) -> Result<T, MceError>,
) {
    let path = tmp(name, 0);
    std::fs::write(&path, text).unwrap();
    let err = load(&path).unwrap_err();
    std::fs::remove_file(&path).ok();
    assert!(
        matches!(err, MceError::Checkpoint { .. }),
        "{name}: {err:?}"
    );
    assert!(err.to_string().contains("schema"), "{name}: {err}");
}

/// The two-line layout of schema-1 documents: a digest header line, then
/// the body.
fn v1_document(tag: &str, body: &str) -> String {
    format!(
        "{{\"{tag}\":1,\"digest\":\"{}\"}}\n{body}",
        fnv128(body.as_bytes())
    )
}

#[test]
fn schema_1_documents_are_rejected() {
    let digest = "0123456789abcdef0123456789abcdef";
    schema_is_rejected(
        "v1_ck",
        &v1_document(
            "mce_checkpoint",
            &format!(
                "{{\"schema\":1,\"workload_digest\":\"{digest}\",\"config_digest\":\"{digest}\",\
                 \"archs_done\":0,\"counters\":[],\"gauges\":[],\
                 \"cache_stats\":[\"0\",\"0\",\"0\",\"0\"],\"frontier\":[],\"entries\":[]}}"
            ),
        ),
        |p| Checkpoint::load(p),
    );
    schema_is_rejected(
        "v1_manifest",
        &v1_document(
            "mce_manifest",
            &format!(
                "{{\n  \"schema\": 1,\n  \"workload_digest\": \"{digest}\",\n  \
                 \"config_digest\": \"{digest}\",\n  \"workers\": 1,\n  \"total_archs\": 1,\n  \
                 \"leases\": [\n    {{\n      \"id\": 0,\n      \"start\": 0,\n      \
                 \"end\": 1,\n      \
                 \"state\": \"Pending\",\n      \"attempts\": 0\n    }}\n  ]\n}}"
            ),
        ),
        LeaseManifest::load,
    );
    schema_is_rejected(
        "v1_shard",
        &v1_document(
            "mce_shard",
            &format!(
                "{{\"schema\":1,\"workload_digest\":\"{digest}\",\"config_digest\":\"{digest}\",\
                 \"lease\":0,\"start\":0,\"end\":1,\
                 \"archs\":[{{\"arch\":0,\"estimated\":[],\"shortlist\":[]}}],\
                 \"counters\":[],\"gauges\":[]}}"
            ),
        ),
        WorkerShard::load,
    );
}

#[test]
fn records_of_another_schema_are_rejected() {
    let path = tmp("other_schema", 0);
    checkpoint(7).save(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    schema_is_rejected(
        "v3_ck",
        &text.replacen("{\"mce_checkpoint\":2,", "{\"mce_checkpoint\":3,", 1),
        |p| Checkpoint::load(p),
    );
    manifest(7).save(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    schema_is_rejected(
        "v1_framed_manifest",
        &text.replacen("{\"mce_manifest\":2,", "{\"mce_manifest\":1,", 1),
        LeaseManifest::load,
    );
    // A correctly framed shard of the schema-2 layout, which carried the
    // lease's architecture slices and registries.
    let body = format!(
        "{{\"workload_digest\":\"{0}\",\"config_digest\":\"{0}\",\"lease\":0,\"start\":0,\
         \"end\":1,\"archs\":[{{\"arch\":0,\"estimated\":[],\"shortlist\":[]}}],\
         \"counters\":[[\"conex.estimate_jobs\",5]],\"gauges\":[]}}",
        "0123456789abcdef0123456789abcdef"
    );
    schema_is_rejected(
        "v2_shard",
        &format!(
            "{{\"mce_shard\":2,\"digest\":\"{}\",\"shard\":{body}}}\n",
            fnv128(body.as_bytes())
        ),
        WorkerShard::load,
    );
    std::fs::remove_file(&path).ok();
}
