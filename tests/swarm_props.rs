//! Property tests for the swarm coordination artifacts: lease
//! partitioning, the manifest's partition validation, the single-line
//! heartbeat files and the restart backoff. Any heartbeat corruption —
//! truncation at every byte boundary, single bit flips — must read as
//! silence, and any manifest corruption must be rejected whole; a damaged
//! artifact must never re-aim a worker at a range it was not assigned.
//! The manifest properties run over every framed record kind in
//! `tests/framed_props.rs` too.

use memory_conex::swarm::{
    backoff_after, partition_leases, read_heartbeat, write_heartbeat, Heartbeat, Lease,
    LeaseManifest, LeaseState,
};
use memory_conex::MceError;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn tmp(name: &str, case: u64) -> PathBuf {
    std::env::temp_dir().join(format!("mce_swprops_{}_{case}_{name}", std::process::id()))
}

/// A structurally valid manifest drawn from the generators: the leases
/// are a real partition of `0..total`, with per-lease state and attempt
/// counts varied by `seed`.
fn build_manifest(total: usize, workers: usize, seed: u64) -> LeaseManifest {
    let mut leases = partition_leases(total, workers * 2);
    let mut s = seed;
    for lease in &mut leases {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lease.state = match (s >> 33) % 3 {
            0 => LeaseState::Pending,
            1 => LeaseState::Running,
            _ => LeaseState::Done,
        };
        lease.attempts = ((s >> 13) % 4) as u32;
    }
    LeaseManifest {
        workload_digest: format!("{:032x}", seed | 1),
        config_digest: format!("{:032x}", seed.rotate_left(17) | 1),
        workers,
        total_archs: total,
        leases,
    }
}

/// Saves `manifest` to `path`, checks it loads back exactly, and returns
/// the on-disk bytes.
fn saved_manifest(path: &Path, manifest: &LeaseManifest) -> Result<Vec<u8>, TestCaseError> {
    manifest.save(path).expect("manifest saves");
    prop_assert_eq!(
        &LeaseManifest::load(path).expect("pristine manifest loads"),
        manifest
    );
    Ok(std::fs::read(path).unwrap())
}

/// Writes `bytes` over the manifest and requires the load to fail as a
/// framing (`Checkpoint`) or, when the damage broke UTF-8, `Io` error.
fn rejected(path: &Path, bytes: &[u8], damage: String) -> Result<(), TestCaseError> {
    std::fs::write(path, bytes).unwrap();
    match LeaseManifest::load(path) {
        Err(MceError::Checkpoint { .. } | MceError::Io { .. }) => Ok(()),
        other => Err(TestCaseError::fail(format!("{damage}: {other:?}"))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `partition_leases` always yields a contiguous cover of `0..total`
    /// with lease sizes differing by at most one.
    #[test]
    fn leases_always_partition_contiguously(total in 0usize..200, count in 0usize..32) {
        let leases = partition_leases(total, count);
        if total == 0 {
            prop_assert!(leases.is_empty());
            return Ok(());
        }
        prop_assert_eq!(leases.len(), count.clamp(1, total));
        let mut cursor = 0usize;
        let mut sizes: Vec<usize> = Vec::new();
        for (i, lease) in leases.iter().enumerate() {
            prop_assert_eq!(lease.id, i);
            prop_assert_eq!(lease.start, cursor);
            prop_assert!(lease.end > lease.start);
            prop_assert_eq!(lease.state, LeaseState::Pending);
            sizes.push(lease.end - lease.start);
            cursor = lease.end;
        }
        prop_assert_eq!(cursor, total);
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        prop_assert!(max - min <= 1, "sizes {sizes:?} are not near-equal");
    }

    /// A manifest round-trips exactly through its file; truncating the
    /// file at any byte boundary is rejected — never parsed into a
    /// different partition.
    #[test]
    fn truncated_manifests_are_rejected_whole(
        total in 1usize..40,
        workers in 1usize..5,
        seed in 0u64..1_000_000,
        case in 0u64..u64::MAX,
    ) {
        let path = tmp("mtrunc", case);
        let bytes = saved_manifest(&path, &build_manifest(total, workers, seed))?;
        for keep in 0..bytes.len() {
            rejected(&path, &bytes[..keep], format!("truncation to {keep} bytes"))?;
        }
        std::fs::remove_file(&path).ok();
    }

    /// A single flipped bit anywhere in a manifest file — non-UTF-8
    /// results included — is rejected: a flipped range can never survive.
    #[test]
    fn bit_flipped_manifests_never_reassign_work(
        total in 1usize..40,
        workers in 1usize..5,
        seed in 0u64..1_000_000,
        bit in 0usize..8,
        stride in 1usize..7,
    ) {
        let path = tmp("mflip", seed);
        let bytes = saved_manifest(&path, &build_manifest(total, workers, seed))?;
        for byte in (0..bytes.len()).step_by(stride) {
            let mut mangled = bytes.clone();
            mangled[byte] ^= 1 << bit;
            rejected(&path, &mangled, format!("bit {bit} of byte {byte} flipped"))?;
        }
        std::fs::remove_file(&path).ok();
    }

    /// Heartbeats round-trip; a torn (truncated) heartbeat file reads as
    /// silence or as the intact original — never as a different beat.
    #[test]
    fn torn_heartbeats_read_as_silence(
        pid in 1u32..100_000,
        lease in 0usize..64,
        seq in 0u64..1_000_000,
        case in 0u64..u64::MAX,
    ) {
        let path = tmp("hb", case);
        let hb = Heartbeat { pid, lease, seq };
        prop_assert!(write_heartbeat(&path, hb));
        prop_assert_eq!(read_heartbeat(&path), Some(hb));
        let pristine = std::fs::read(&path).unwrap();
        for keep in 0..pristine.len() {
            std::fs::write(&path, &pristine[..keep]).unwrap();
            let got = read_heartbeat(&path);
            prop_assert!(
                got.is_none() || got == Some(hb),
                "truncation to {keep} bytes read as a different beat: {got:?}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// Bit flips in a heartbeat's structural bytes (everything except the
    /// numeric payload digits) read as silence. Digits are exempt: the
    /// file is atomically replaced, so a flipped digit models a stale
    /// beat, not a torn one — and staleness is the supervisor's job.
    #[test]
    fn structurally_damaged_heartbeats_read_as_silence(
        pid in 1u32..100_000,
        lease in 0usize..64,
        seq in 0u64..1_000_000,
        bit in 0usize..8,
        case in 0u64..u64::MAX,
    ) {
        let path = tmp("hbflip", case);
        let hb = Heartbeat { pid, lease, seq };
        prop_assert!(write_heartbeat(&path, hb));
        let pristine = std::fs::read(&path).unwrap();
        for byte in 0..pristine.len() {
            if pristine[byte].is_ascii_digit() {
                continue;
            }
            let mut mangled = pristine.clone();
            mangled[byte] ^= 1 << bit;
            if mangled[byte].is_ascii_digit() {
                continue; // the flip forged a digit inside a number
            }
            std::fs::write(&path, &mangled).unwrap();
            let got = read_heartbeat(&path);
            prop_assert!(
                got.is_none(),
                "bit {} of byte {} flipped but still read as {:?}",
                bit,
                byte,
                got
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// For *arbitrary* restart counts — including the full `u32` range,
    /// far past where `base << restarts` would overflow — the backoff is
    /// monotone non-decreasing, never exceeds the cap once past it, and
    /// never panics. This is the schedule both the swarm supervisor and
    /// the serve executor lean on after a crash.
    #[test]
    fn backoff_is_monotone_capped_and_overflow_safe(
        restarts in any::<u32>(),
        base_ms in 0u64..10_000,
        cap_ms in 0u64..60_000,
    ) {
        let base = Duration::from_millis(base_ms);
        let cap = Duration::from_millis(cap_ms);
        let here = backoff_after(restarts, base, cap);
        prop_assert!(here <= cap, "backoff({restarts}) = {here:?} exceeds the cap");
        if base_ms == 0 {
            prop_assert_eq!(here, Duration::ZERO, "zero base must disable the delay");
        }
        if restarts == 0 {
            prop_assert_eq!(here, Duration::ZERO, "no delay before the first restart");
        }
        // Monotone: one more restart never shrinks the delay. Saturate at
        // u32::MAX so the property also pins the overflow boundary.
        let next = backoff_after(restarts.saturating_add(1), base, cap);
        prop_assert!(
            next >= here,
            "backoff({restarts}) = {here:?} > backoff({}) = {next:?}",
            restarts.saturating_add(1)
        );
        // Deep into the schedule the cap is exact, not just an upper
        // bound: 30 saturated doublings of even 1 ms exceed any cap the
        // generator can draw.
        if base_ms > 0 && restarts >= 32 {
            prop_assert_eq!(here, cap, "the tail of the schedule must sit at the cap");
        }
    }
}

/// The restart backoff schedule is fully deterministic: zero before the
/// first restart, then doubling from the base until the cap, where it
/// stays — including far past the shift-overflow range.
#[test]
fn backoff_schedule_is_deterministic_and_capped() {
    let base = Duration::from_millis(250);
    let cap = Duration::from_secs(5);
    let schedule: Vec<u64> = (0..10)
        .map(|r| backoff_after(r, base, cap).as_millis() as u64)
        .collect();
    assert_eq!(
        schedule,
        [0, 250, 500, 1000, 2000, 4000, 5000, 5000, 5000, 5000]
    );
    assert_eq!(backoff_after(u32::MAX, base, cap), cap, "no shift overflow");
    assert_eq!(
        backoff_after(3, Duration::ZERO, cap),
        Duration::ZERO,
        "a zero base disables the delay entirely"
    );
}

/// The manifest validator rejects hand-built partitions that do not
/// cover `0..total_archs` contiguously, even when the frame is intact.
#[test]
fn gapped_or_overlapping_partitions_are_rejected() {
    let path = tmp("partition", 0);
    let rejected = |manifest: &LeaseManifest| {
        manifest.save(&path).unwrap();
        LeaseManifest::load(&path).is_err()
    };
    let mut manifest = build_manifest(10, 2, 42);
    manifest.leases[1].start += 1; // gap between lease 0 and 1
    assert!(rejected(&manifest), "gap accepted");

    let mut manifest = build_manifest(10, 2, 42);
    manifest.leases.pop(); // cover stops short of total_archs
    assert!(rejected(&manifest), "short cover accepted");

    let manifest = LeaseManifest {
        leases: vec![Lease {
            id: 0,
            start: 0,
            end: 0,
            state: LeaseState::Pending,
            attempts: 0,
        }],
        total_archs: 0,
        ..build_manifest(1, 1, 7)
    };
    assert!(rejected(&manifest), "empty lease accepted");
    assert!(
        !rejected(&build_manifest(10, 2, 42)),
        "a real partition loads"
    );
    std::fs::remove_file(&path).ok();
}
