//! The framed record: the one on-disk format behind run checkpoints,
//! swarm lease manifests, swarm worker shards and the serve job journal.
//!
//! A record is one line:
//!
//! ```text
//! {"<tag>":<schema>,"digest":"<fnv128 of body>","<key>":<body>}
//! ```
//!
//! where `<body>` is the compact serde JSON of the record's body and each
//! record [`Kind`] fixes its tag, schema and body key. The digest covers
//! every body byte, so truncation, bit flips and hand edits are caught
//! before a single field is trusted.
//!
//! [`decode`] is strict and positional: the exact header prefix (tag and
//! schema), 32 digest characters, the exact body key, the body, the
//! closing brace, then the digest check and only then the typed parse.
//! Every deviation — including a record of another schema, or the
//! two-line layout older builds wrote — is an [`MceError::Checkpoint`]
//! naming the record kind and what failed. Resuming across a schema
//! change is never attempted: a silently misread record costs more than
//! a rerun.
//!
//! Two containers hold records:
//!
//! * a **document** ([`save`] / [`load`]) is one record and its newline,
//!   written through [`atomic_write`], so a crash mid-save leaves the
//!   previous document intact and a file missing even its final newline
//!   is rejected as truncated;
//! * a **log** ([`replay`]) is one record per line, appended by its
//!   owner. Replay keeps the longest valid prefix and drops the first
//!   damaged line and everything after it (write-ahead-log tail-drop),
//!   so damage can lose tail records but never mis-parse into different
//!   ones, and never errors the reader out.
//!
//! Schema rule: a kind's schema is bumped whenever its body layout
//! changes; old files are then rejected whole, never migrated.

use mce_error::{atomic_write, MceError};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::path::Path;

/// One record kind: the header tag naming it, the schema its body layout
/// is pinned to, and the key its body rides under.
#[derive(Debug, Clone, Copy)]
pub struct Kind {
    /// Header key carrying the schema, e.g. `mce_checkpoint`.
    pub tag: &'static str,
    /// Body-layout version.
    pub schema: u64,
    /// Key the body rides under, e.g. `checkpoint`.
    pub key: &'static str,
    /// Human-readable name for error messages.
    pub what: &'static str,
}

/// A run checkpoint (`--checkpoint FILE`, `lease-N.ck.json`,
/// `job-N.ck.json`).
pub const CHECKPOINT: Kind = Kind {
    tag: "mce_checkpoint",
    schema: 2,
    key: "checkpoint",
    what: "checkpoint",
};

/// A swarm lease manifest (`manifest.json`).
pub const MANIFEST: Kind = Kind {
    tag: "mce_manifest",
    schema: 2,
    key: "manifest",
    what: "lease manifest",
};

/// A swarm worker's lease receipt (`lease-N.shard.json`).
pub const SHARD: Kind = Kind {
    tag: "mce_shard",
    schema: 3,
    key: "shard",
    what: "worker shard",
};

/// One serve job-journal event (a line of `jobs.jsonl`).
pub const JOB_EVENT: Kind = Kind {
    tag: "mce_job",
    schema: 1,
    key: "event",
    what: "journal line",
};

/// Encodes `body` as one framed record line, trailing newline included.
/// Byte-stable: equal bodies encode to equal bytes.
///
/// # Errors
///
/// Returns [`MceError::Json`] if the body fails to serialize.
pub fn encode<T: Serialize>(kind: Kind, body: &T) -> Result<String, MceError> {
    let body = serde_json::to_string(body).map_err(|e| MceError::json(kind.what, e))?;
    Ok(format!(
        "{{\"{}\":{},\"digest\":\"{}\",\"{}\":{body}}}\n",
        kind.tag,
        kind.schema,
        fnv128(body.as_bytes()),
        kind.key
    ))
}

/// Decodes one record line (without its newline) strictly and
/// positionally — see the module docs.
///
/// # Errors
///
/// Returns [`MceError::Checkpoint`] describing the first violation.
pub fn decode<T: DeserializeOwned>(kind: Kind, line: &str) -> Result<T, MceError> {
    let bad = |why: String| MceError::checkpoint(format!("{}: {why}", kind.what));
    let rest = line
        .strip_prefix(&format!("{{\"{}\":", kind.tag))
        .ok_or_else(|| bad("missing header".to_owned()))?;
    let rest = rest
        .strip_prefix(&format!("{},\"digest\":\"", kind.schema))
        .ok_or_else(|| {
            bad(format!(
                "unsupported schema (this build reads {})",
                kind.schema
            ))
        })?;
    let (digest, rest) = rest
        .split_at_checked(32)
        .ok_or_else(|| bad("truncated digest".to_owned()))?;
    let body = rest
        .strip_prefix(&format!("\",\"{}\":", kind.key))
        .and_then(|body| body.strip_suffix('}'))
        .ok_or_else(|| bad("malformed frame".to_owned()))?;
    if fnv128(body.as_bytes()) != digest {
        return Err(bad(
            "digest mismatch — the record is corrupt or truncated".to_owned()
        ));
    }
    serde_json::from_str(body).map_err(|e| bad(format!("invalid body: {e}")))
}

/// Atomically writes `body` as a one-record document at `path`.
///
/// # Errors
///
/// Returns [`MceError::Json`] if the body fails to serialize, or
/// [`MceError::Io`] if the file cannot be written.
pub fn save<T: Serialize>(kind: Kind, path: &Path, body: &T) -> Result<(), MceError> {
    atomic_write(path, encode(kind, body)?.as_bytes())
}

/// Reads and verifies the one-record document at `path`.
///
/// # Errors
///
/// Returns [`MceError::Io`] if the file cannot be read (non-UTF-8
/// damage included), or [`MceError::Checkpoint`] if it is not exactly
/// one valid record and its newline.
pub fn load<T: DeserializeOwned>(kind: Kind, path: &Path) -> Result<T, MceError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| MceError::io(format!("read {} `{}`", kind.what, path.display()), e))?;
    // Decode before insisting on the newline, so a file in another layout
    // is reported as such rather than as merely truncated.
    let line = text.strip_suffix('\n');
    let record = decode(kind, line.unwrap_or(&text))?;
    line.map(|_| record).ok_or_else(|| {
        MceError::checkpoint(format!("{}: missing final newline (truncated)", kind.what))
    })
}

/// Replays the log at `path`: the longest valid prefix of records, plus
/// the number of lines dropped from the first damaged one on. A missing
/// file is an empty log.
///
/// # Errors
///
/// Returns [`MceError::Io`] only for real read failures — damage is
/// tail-dropped, not reported as an error.
pub fn replay<T: DeserializeOwned>(kind: Kind, path: &Path) -> Result<(Vec<T>, usize), MceError> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(MceError::io(format!("read {}", path.display()), e)),
    };
    let lines: Vec<&[u8]> = bytes
        .split(|&b| b == b'\n')
        .filter(|line| !line.is_empty())
        .collect();
    let mut records = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        let record = std::str::from_utf8(line)
            .ok()
            .and_then(|line| decode(kind, line).ok());
        match record {
            Some(record) => records.push(record),
            None => return Ok((records, lines.len() - i)),
        }
    }
    Ok((records, 0))
}

/// Two-lane FNV-1a over `bytes`, rendered as 32 hex chars. Two
/// independently-seeded 64-bit lanes make coincidental collisions after
/// file corruption vanishingly unlikely while keeping the hash
/// dependency-free. Also content-addresses run reports in the archive
/// and digests session configurations.
pub fn fnv128(bytes: &[u8]) -> String {
    const OFFSET_1: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME_1: u64 = 0x0000_0100_0000_01b3;
    const OFFSET_2: u64 = 0x6c62_272e_07bb_0142;
    const PRIME_2: u64 = 0x9e37_79b9_7f4a_7c15;
    let (mut a, mut b) = (OFFSET_1, OFFSET_2);
    for &byte in bytes {
        a = (a ^ u64::from(byte)).wrapping_mul(PRIME_1);
        b = (b ^ u64::from(byte)).wrapping_mul(PRIME_2);
    }
    format!("{a:016x}{b:016x}")
}
