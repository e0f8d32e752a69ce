//! Crash-safe run checkpoints.
//!
//! A [`Checkpoint`] is everything a killed exploration needs to resume
//! bit-identically: how many Phase-I architectures completed, the
//! frontier-evolution samples taken so far, the observability counters
//! and gauges at that point, and the evaluation cache — entries in exact
//! FIFO order plus its lifetime stats, so the resumed cache evicts and
//! counts exactly like the original would have.
//!
//! Notably *absent* are the estimated design points themselves: they are
//! a deterministic function of the workload and configuration, so resume
//! replays the completed architectures through a scratch copy of the
//! restored cache ([`ConexExplorer::phase1_partial`]) — every evaluation
//! is a cache hit, making replay cheap — and the recomputed frontier
//! samples are cross-checked against the checkpointed ones. This keeps
//! the file format to a handful of flat, checksummed fields instead of a
//! deep serialization of the design space.
//!
//! ## File format
//!
//! A checkpoint is one [`framed::CHECKPOINT`] record (see [`crate::framed`]
//! for the frame, its digest and the strict decode). The body carries
//! `u64` values as JSON integers (never squeezed through f64), f64
//! values as bit patterns, and the cache entries in the eval-cache
//! spill's five-field checksummed form. Writes go through
//! [`mce_error::atomic_write`]: a crash *during* checkpointing leaves the
//! previous checkpoint intact.
//!
//! Compatibility is enforced, not assumed: the body records digests of
//! the workload and of the full configuration (with `threads` normalized
//! out — thread count never affects results), and
//! [`Checkpoint::ensure_matches`] rejects a checkpoint from a different
//! run with [`MceError::Checkpoint`].
//!
//! [`ConexExplorer::phase1_partial`]: mce_conex::ConexExplorer::phase1_partial

use crate::framed::{self, CHECKPOINT};
use mce_apex::ApexConfig;
use mce_conex::design_point::{CanonKey, Metrics};
use mce_conex::eval_cache::{format_spill_entry, parse_spill_entry};
use mce_conex::explore::Phase1State;
use mce_conex::{CacheStats, ConexConfig, EvalCache, FrontierSnapshot};
use mce_connlib::ConnectivityLibrary;
use mce_error::MceError;
use mce_obs::json::Value;
use serde::{Deserialize, Serialize};
use std::path::Path;

pub use crate::framed::fnv128;

/// A point-in-time snapshot of a running exploration — see the module
/// docs for what is (and deliberately is not) captured.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Digest of the workload the run explored.
    pub workload_digest: String,
    /// Digest of the session configuration (threads normalized out).
    pub config_digest: String,
    /// Completed Phase-I memory architectures.
    pub archs_done: usize,
    /// Observability counters at capture time (empty when tracing was
    /// disabled).
    pub counters: Vec<(String, u64)>,
    /// Observability gauges at capture time.
    pub gauges: Vec<(String, u64)>,
    /// Evaluation-cache lifetime stats at capture time.
    pub cache_stats: CacheStats,
    /// Frontier-evolution samples accumulated so far; resume verifies
    /// its replay reproduces exactly these.
    pub frontier: Vec<FrontierSnapshot>,
    /// Evaluation-cache entries in FIFO (insertion) order, so the
    /// restored cache's future evictions match the original's.
    pub entries: Vec<(CanonKey, Metrics)>,
}

/// The checkpoint's on-disk body: [`Checkpoint`]'s fields with every f64
/// as its bit pattern and every cache entry in spill form.
#[derive(Serialize, Deserialize)]
struct Body {
    workload_digest: String,
    config_digest: String,
    archs_done: usize,
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, u64)>,
    cache_stats: CacheStats,
    /// `(archs_explored, estimated, frontier_size, hypervolume bits)`.
    frontier: Vec<(usize, usize, usize, u64)>,
    /// [`format_spill_entry`]'s five fields per entry, FIFO order.
    entries: Vec<Vec<String>>,
}

impl Checkpoint {
    /// Snapshots the current run: Phase-I progress from `state`, entries
    /// and stats from `cache`, counters and gauges from the global
    /// recorder.
    pub fn capture(
        workload_digest: String,
        config_digest: String,
        state: &Phase1State,
        cache: &EvalCache,
    ) -> Self {
        let (counters, gauges) = registry_snapshot();
        Checkpoint {
            workload_digest,
            config_digest,
            archs_done: state.archs_done,
            counters,
            gauges,
            cache_stats: cache.stats(),
            frontier: state.frontier_evolution.clone(),
            entries: cache.entries_fifo(),
        }
    }

    fn to_body(&self) -> Body {
        Body {
            workload_digest: self.workload_digest.clone(),
            config_digest: self.config_digest.clone(),
            archs_done: self.archs_done,
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            cache_stats: self.cache_stats,
            frontier: self
                .frontier
                .iter()
                .map(|s| {
                    let hv = s.hypervolume.to_bits();
                    (s.archs_explored, s.estimated, s.frontier_size, hv)
                })
                .collect(),
            entries: self
                .entries
                .iter()
                .map(|(k, m)| Vec::from(format_spill_entry(k, m)))
                .collect(),
        }
    }

    fn from_body(body: Body) -> Result<Self, MceError> {
        let frontier = body
            .frontier
            .into_iter()
            .map(|(archs_explored, estimated, frontier_size, hv)| {
                let hypervolume = f64::from_bits(hv);
                if !hypervolume.is_finite() {
                    return Err(MceError::checkpoint("checkpoint: bad frontier hypervolume"));
                }
                Ok(FrontierSnapshot {
                    archs_explored,
                    estimated,
                    frontier_size,
                    hypervolume,
                })
            })
            .collect::<Result<_, _>>()?;
        let entries = body
            .entries
            .into_iter()
            .map(|fields| {
                parse_spill_entry(&Value::Array(
                    fields.into_iter().map(Value::String).collect(),
                ))
                .map_err(|why| MceError::checkpoint(format!("checkpoint: bad cache entry: {why}")))
            })
            .collect::<Result<_, _>>()?;
        Ok(Checkpoint {
            workload_digest: body.workload_digest,
            config_digest: body.config_digest,
            archs_done: body.archs_done,
            counters: body.counters,
            gauges: body.gauges,
            cache_stats: body.cache_stats,
            frontier,
            entries,
        })
    }

    /// Writes the checkpoint atomically: a crash mid-save leaves any
    /// previous checkpoint at `path` intact, never a torn file.
    ///
    /// # Errors
    ///
    /// Returns [`MceError::Io`] if the file cannot be written.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), MceError> {
        framed::save(CHECKPOINT, path.as_ref(), &self.to_body())
    }

    /// Reads and verifies a checkpoint file.
    ///
    /// # Errors
    ///
    /// Returns [`MceError::Io`] if the file cannot be read, or
    /// [`MceError::Checkpoint`] if it fails verification: corruption,
    /// truncation, another schema, or a malformed body field.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, MceError> {
        Self::from_body(framed::load(CHECKPOINT, path.as_ref())?)
    }

    /// Rejects resuming under a different workload or configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MceError::Checkpoint`] naming the mismatched digest.
    pub fn ensure_matches(
        &self,
        workload_digest: &str,
        config_digest: &str,
    ) -> Result<(), MceError> {
        if self.workload_digest != workload_digest {
            return Err(MceError::checkpoint(format!(
                "workload digest mismatch (checkpoint {}, run {workload_digest}) — \
                 the checkpoint belongs to a different workload",
                self.workload_digest
            )));
        }
        if self.config_digest != config_digest {
            return Err(MceError::checkpoint(format!(
                "config digest mismatch (checkpoint {}, run {config_digest}) — \
                 the run was reconfigured since the checkpoint was taken",
                self.config_digest
            )));
        }
        Ok(())
    }
}

/// Registry values as `(name, value)` pairs, in name order.
pub(crate) type NamedValues = Vec<(String, u64)>;

/// The global recorder's counters and gauges, with owned names.
pub(crate) fn registry_snapshot() -> (NamedValues, NamedValues) {
    let owned = |entries: Vec<(&str, u64)>| {
        entries
            .into_iter()
            .map(|(name, value)| (name.to_owned(), value))
            .collect()
    };
    (
        owned(mce_obs::counters_snapshot()),
        owned(mce_obs::gauges_snapshot()),
    )
}

/// Digest of the session configuration a checkpoint is only valid for:
/// both stage configs, the connectivity library and the cache capacity,
/// hashed over their canonical serde JSON. `threads` is normalized to
/// zero first — results are identical for any thread count, so a resume
/// may legitimately use a different one.
pub fn config_digest(
    apex: &ApexConfig,
    conex: &ConexConfig,
    library: &ConnectivityLibrary,
    cache_capacity: usize,
) -> String {
    let mut conex = conex.clone();
    conex.threads = 0;
    let canonical = serde_json::to_string(&(apex, &conex, library, cache_capacity))
        .expect("plain config structs always serialize");
    fnv128(canonical.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            workload_digest: "00112233445566778899aabbccddeeff".to_owned(),
            config_digest: "ffeeddccbbaa99887766554433221100".to_owned(),
            archs_done: 2,
            counters: vec![
                ("conex.estimate_jobs".to_owned(), 123),
                ("eval_cache.hits".to_owned(), u64::MAX),
            ],
            gauges: vec![("conex.frontier_size_max".to_owned(), 7)],
            cache_stats: CacheStats {
                hits: u64::MAX - 1,
                misses: 20,
                inserts: 20,
                evictions: 3,
            },
            frontier: vec![FrontierSnapshot {
                archs_explored: 1,
                estimated: 40,
                frontier_size: 5,
                hypervolume: 0.1 + 0.2,
            }],
            entries: vec![
                (
                    CanonKey { hi: 1, lo: 2 },
                    Metrics {
                        cost_gates: 1000,
                        latency_cycles: 1.0 / 3.0,
                        energy_nj: f64::MIN_POSITIVE / 2.0,
                    },
                ),
                (
                    CanonKey { hi: 3, lo: 4 },
                    Metrics {
                        cost_gates: 2000,
                        latency_cycles: 2.5,
                        energy_nj: 0.5,
                    },
                ),
            ],
        }
    }

    fn encode(ck: &Checkpoint) -> String {
        framed::encode(CHECKPOINT, &ck.to_body()).unwrap()
    }

    fn decode(text: &str) -> Checkpoint {
        let body = framed::decode(CHECKPOINT, text.strip_suffix('\n').unwrap()).unwrap();
        Checkpoint::from_body(body).unwrap()
    }

    #[test]
    fn checkpoint_round_trips_exactly() {
        let ck = sample();
        let text = encode(&ck);
        let back = decode(&text);
        assert_eq!(back, ck);
        // f64 equality is not bit equality: pin the bit patterns.
        let bits = |c: &Checkpoint| {
            let hv = c.frontier.iter().map(|s| s.hypervolume.to_bits());
            let metrics = c
                .entries
                .iter()
                .flat_map(|(_, m)| [m.latency_cycles.to_bits(), m.energy_nj.to_bits()]);
            hv.chain(metrics).collect::<Vec<u64>>()
        };
        assert_eq!(bits(&back), bits(&ck));
        // Byte-stable: re-encoding reproduces the exact bytes.
        assert_eq!(encode(&back), text);
    }

    #[test]
    fn u64_values_survive_beyond_f64_precision() {
        let back = decode(&encode(&sample()));
        assert_eq!(back.counters[1].1, u64::MAX, "not squeezed through f64");
        assert_eq!(back.cache_stats.hits, u64::MAX - 1);
    }

    #[test]
    fn mismatched_digests_are_rejected_with_context() {
        let ck = sample();
        ck.ensure_matches(&ck.workload_digest, &ck.config_digest)
            .unwrap();
        let err = ck.ensure_matches("beef", &ck.config_digest).unwrap_err();
        assert!(err.to_string().contains("different workload"), "{err}");
        let err = ck.ensure_matches(&ck.workload_digest, "beef").unwrap_err();
        assert!(err.to_string().contains("reconfigured"), "{err}");
    }

    #[test]
    fn save_and_load_round_trip_through_disk() {
        let path = std::env::temp_dir().join(format!("mce_ckpt_{}.json", std::process::id()));
        let ck = sample();
        ck.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, ck);
    }

    #[test]
    fn config_digest_tracks_knobs_but_not_threads() {
        use mce_sim::Preset;
        let apex = ApexConfig::preset(Preset::Fast);
        let conex = ConexConfig::preset(Preset::Fast);
        let lib = ConnectivityLibrary::amba();
        let base = config_digest(&apex, &conex, &lib, 100);
        assert_eq!(base, config_digest(&apex, &conex, &lib, 100));
        assert_ne!(base, config_digest(&apex, &conex, &lib, 200));
        let mut threaded = conex.clone();
        threaded.threads = 8;
        assert_eq!(base, config_digest(&apex, &threaded, &lib, 100));
        let mut longer = conex.clone();
        longer.trace_len += 1;
        assert_ne!(base, config_digest(&apex, &longer, &lib, 100));
        let empty = ConnectivityLibrary::new();
        assert_ne!(base, config_digest(&apex, &conex, &empty, 100));
        let paper = ApexConfig::preset(Preset::Paper);
        assert_ne!(base, config_digest(&paper, &conex, &lib, 100));
    }
}
