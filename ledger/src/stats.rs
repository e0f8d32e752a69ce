//! Quantiles over raw samples the ledger keeps itself.

/// The `q`-quantile of `samples` by linear interpolation between the
/// closest ranks (the common "type 7" definition). `samples` need not be
/// sorted.
///
/// # Panics
///
/// Panics on an empty sample set or a NaN sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// A tail latency: the highest whole percentile with at least ten samples
/// beyond it, but never below the median. Under twenty samples that
/// percentile would fall below the median, and with ten samples or fewer no
/// percentile has ten beyond it: the median stands in for the tail then.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The percentile, 50–99.
    pub percentile: u32,
    /// The sample value at that percentile.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// The tail of `samples` (see [`Tail`]).
pub fn tail(samples: &[f64]) -> Tail {
    let n = samples.len();
    let percentile = ((100.0 * (1.0 - 10.0 / n as f64)).floor().max(50.0)) as u32;
    Tail {
        percentile,
        value: quantile(samples, f64::from(percentile) / 100.0),
        samples: n,
    }
}

/// Latency over a mix of groups (apps) whose typical latencies differ,
/// sampled in rounds of one latency per group.
///
/// A quantile of the pooled samples falls between the groups' clusters and
/// jumps with the few samples nearest that gap. So the typical latency is
/// the median over rounds of each round's geometric mean, and the tail
/// scales it by the [`tail`] of the pooled samples, each taken relative to
/// its own group's median.
#[derive(Debug, Clone, Copy)]
pub struct MixLatency {
    pub typical: f64,
    /// `value` is the scaled tail latency.
    pub tail: Tail,
}

/// The [`MixLatency`] of `(group, latency)` samples, where the k-th sample
/// of every group comes from round k. Rounds missing a group's sample (a
/// failed job) do not count towards the typical latency.
///
/// # Panics
///
/// Panics on an empty sample set or a NaN or non-positive sample.
pub fn mix_latency(samples: &[(usize, f64)]) -> MixLatency {
    assert!(samples.iter().all(|s| s.1 > 0.0), "latencies are positive");
    let mut groups: Vec<usize> = samples.iter().map(|s| s.0).collect();
    groups.sort_unstable();
    groups.dedup();
    let by_group: Vec<Vec<f64>> = groups
        .iter()
        .map(|&g| samples.iter().filter(|s| s.0 == g).map(|s| s.1).collect())
        .collect();
    let rounds = by_group
        .iter()
        .map(Vec::len)
        .min()
        .expect("at least one sample");
    let round_means: Vec<f64> = (0..rounds)
        .map(|k| {
            let log_sum: f64 = by_group.iter().map(|v| v[k].ln()).sum();
            (log_sum / by_group.len() as f64).exp()
        })
        .collect();
    let typical = median(&round_means);
    let medians: Vec<f64> = by_group.iter().map(|v| median(v)).collect();
    let relative: Vec<f64> = samples
        .iter()
        .map(|&(g, v)| v / medians[groups.binary_search(&g).expect("every group is listed")])
        .collect();
    let mut tail = tail(&relative);
    tail.value *= typical;
    MixLatency { typical, tail }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let s: Vec<f64> = (1..=45).map(f64::from).collect();
        let t = tail(&s);
        assert_eq!(t.percentile, 77);
        let beyond = s.iter().filter(|&&v| v > t.value).count();
        assert!(beyond >= 10, "{beyond} samples beyond p{}", t.percentile);
        assert_eq!(tail(&[1.0, 5.0, 3.0]).value, 3.0);
        assert_eq!(tail(&s[..10]).percentile, 50);
        assert_eq!(tail(&s[..11]).percentile, 50);
        assert_eq!(tail(&s[..21]).percentile, 52);
    }

    #[test]
    fn mix_latency_balances_groups() {
        // Two apps, one ten times slower, and one round short of the slow
        // app's sample: the pooled median would sit on the fast cluster.
        let mut s: Vec<(usize, f64)> = (0..3).map(|_| (0, 10.0)).collect();
        s.extend((0..2).map(|_| (1, 100.0)));
        let m = mix_latency(&s);
        assert!((m.typical - 10f64.powf(1.5)).abs() < 1e-9);
        assert!((m.tail.value - m.typical).abs() < 1e-9);
        // Round k's geometric means are 1, 2, 3 times sqrt(10).
        let s = [
            (0, 1.0),
            (1, 10.0),
            (0, 2.0),
            (1, 20.0),
            (0, 3.0),
            (1, 30.0),
        ];
        assert!((mix_latency(&s).typical - 2.0 * 10f64.sqrt()).abs() < 1e-9);
        // Every third round twice as slow lifts the tail, not the typical
        // value.
        let mut s: Vec<(usize, f64)> = Vec::new();
        for i in 0..30 {
            let slow = if (i / 2) % 3 == 0 { 2.0 } else { 1.0 };
            s.push((i % 2, (1 + 9 * (i % 2)) as f64 * slow));
        }
        let m = mix_latency(&s);
        assert!((m.typical - 10f64.sqrt()).abs() < 1e-9);
        assert_eq!(m.tail.percentile, 66);
        assert!((m.tail.value / m.typical - 1.14).abs() < 1e-9);
    }
}
