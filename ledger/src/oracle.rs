//! The correctness oracle: seeded inputs, pinned digests and the tally
//! behind `attempted`/`failed`.

use memory_conex::appmodel::{benchmarks, Workload, WorkloadBuilder};
use memory_conex::checkpoint::fnv128;
use memory_conex::diff;
use memory_conex::obs::json::{self, Value};
use memory_conex::sim::Preset;
use std::path::Path;

/// The three paper application models (compress, li, vocoder), rebuilt
/// through [`WorkloadBuilder`] with trace seeds derived from `seed`. The
/// program only ever sees the built workloads.
pub fn seeded_apps(seed: u64) -> Vec<Workload> {
    benchmarks::all()
        .iter()
        .map(|w| {
            let mut b = WorkloadBuilder::new(w.name())
                .compute_gap(w.compute_gap())
                .seed(splitmix64(w.seed() ^ splitmix64(seed)));
            for ds in w.data_structures() {
                b = b.data_structure(ds.clone());
            }
            for phase in w.phases() {
                b = b.phase(phase.clone());
            }
            b.build()
        })
        .collect()
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The digest of a serialized report's comparable view: what `mce diff`
/// compares, so effort counters an optimisation may change are excluded.
pub fn result_digest(report_json: &str) -> String {
    fnv128(diff::comparable_view(report_json).as_bytes())
}

/// Whether `candidate` is `mce diff`-clean against `reference`.
pub fn diff_clean(reference: &str, candidate: &str) -> Result<bool, String> {
    diff::diff_texts("reference", reference, "candidate", candidate)
        .map(|o| o.identical)
        .map_err(|e| format!("diff failed: {e}"))
}

/// `pins.json`: the default seed, the held-out seed for confirming claims,
/// and the result digests the default seed must reproduce.
pub struct Pins {
    pub default_seed: u64,
    pub held_out_seed: u64,
    doc: Value,
}

impl Pins {
    pub fn load(path: &Path) -> Result<Pins, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
        let seed = |key: &str| {
            doc.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{} lacks `{key}`", path.display()))
        };
        Ok(Pins {
            default_seed: seed("default_seed")?,
            held_out_seed: seed("held_out_seed")?,
            doc,
        })
    }

    /// The pinned digest of `app` at `preset` for the default seed.
    pub fn digest(&self, preset: Preset, app: &str) -> Option<&str> {
        self.doc
            .get("digests")?
            .get(&preset.to_string())?
            .get(app)?
            .as_str()
    }
}

/// Counts explorations and jobs attempted and failed, keeping the first
/// few failure messages for standard error.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Records one attempt that succeeded iff `ok`.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// Like [`Tally::record`] for a fallible attempt.
    pub fn record_result<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }
}
