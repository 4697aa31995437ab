//! The harness's own arithmetic: medians, the tail-percentile rule,
//! and the derived per-layer ratios. Kept free of I/O so every rule
//! is unit-tested.

/// Median of `xs` (mean of the middle pair for an even count).
/// Returns `None` for an empty slice.
#[must_use]
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 50.0)
}

/// The `p`-th percentile of `xs` by linear interpolation between the
/// closest ranks (rank `p/100 × (n − 1)`). Returns `None` for an empty
/// slice.
#[must_use]
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] of the `n` samples beyond it, i.e. with
/// `n × (1 − p/100) ≥ 10`. Falls back to the median when even that
/// leaves fewer than ten samples beyond (fewer than 20 samples).
#[must_use]
pub fn tail_percentile_for(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND as f64 - 1e-9)
        .unwrap_or(50.0)
}

/// The tail value of `xs` under [`tail_percentile_for`], with the
/// percentile it reports. `None` for an empty slice.
#[must_use]
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let p = tail_percentile_for(xs.len());
    percentile(xs, p).map(|v| (v, p))
}

/// Scheduler busy fraction: Σ cell seconds / (wall × jobs). 1.0 means
/// every worker was inside a cell for the whole driver call.
#[must_use]
pub fn busy_frac(cell_s: f64, wall_s: f64, jobs: usize) -> f64 {
    let cap = wall_s * jobs.max(1) as f64;
    if cap <= 0.0 {
        return 0.0;
    }
    cell_s / cap
}

/// Share of the process CPU that plain simulation accounts for:
/// simulated uops × ns per uop (measured without checkpointing) over
/// the CPU seconds the workload actually spent.
#[must_use]
pub fn sim_share(uops: u64, ns_per_uop: f64, cpu_s: f64) -> f64 {
    if cpu_s <= 0.0 {
        return 0.0;
    }
    uops as f64 * ns_per_uop * 1e-9 / cpu_s
}

/// One row of a layer table: a named layer and its self time in wall
/// seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    /// Layer name (a module of the program, or `runner`, `client`…).
    pub name: String,
    /// Self time: the layer's own seconds, children excluded.
    pub self_s: f64,
}

/// The residual of a layer table against the wall time it explains:
/// `wall − Σ self`. Positive means time no layer covers; negative means
/// the layers claim more time than passed.
#[must_use]
pub fn unattributed(rows: &[LayerRow], wall_s: f64) -> f64 {
    wall_s - rows.iter().map(|r| r.self_s).sum::<f64>()
}

/// Whether the layer self times plus the (non-negative part of the)
/// residual cover `wall_s` within `tol` (a share of `wall_s`). The
/// residual is the remainder by definition, so the check fails only
/// when the layers over-claim: Σ self > wall × (1 + tol).
#[must_use]
pub fn layers_cover(rows: &[LayerRow], wall_s: f64, tol: f64) -> bool {
    let claimed: f64 = rows.iter().map(|r| r.self_s).sum();
    let covered = claimed + unattributed(rows, wall_s).max(0.0);
    wall_s > 0.0 && (covered - wall_s).abs() <= tol * wall_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_interpolate() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 90.0), Some(91.0));
        assert_eq!(percentile(&xs, 100.0), Some(101.0));
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // 10 samples beyond p95 needs 200 samples; 199 drops to p90.
        assert_eq!(tail_percentile_for(200), 95.0);
        assert_eq!(tail_percentile_for(199), 90.0);
        assert_eq!(tail_percentile_for(1000), 99.0);
        assert_eq!(tail_percentile_for(10_000), 99.9);
        assert_eq!(tail_percentile_for(100), 90.0);
        assert_eq!(tail_percentile_for(40), 75.0);
        assert_eq!(tail_percentile_for(20), 50.0);
        assert_eq!(tail_percentile_for(3), 50.0);
        for n in [20usize, 40, 100, 200, 1000, 10_000, 54_321] {
            let p = tail_percentile_for(n);
            let beyond = n as f64 * (1.0 - p / 100.0);
            assert!(beyond >= 9.999_999, "n={n} p={p} beyond={beyond}");
        }
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let (v, p) = tail(&xs).unwrap();
        assert_eq!(p, 95.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn busy_frac_is_cell_time_over_capacity() {
        assert!((busy_frac(4.0, 2.0, 2) - 1.0).abs() < 1e-12);
        assert!((busy_frac(1.5, 2.0, 2) - 0.375).abs() < 1e-12);
        assert_eq!(busy_frac(1.0, 0.0, 2), 0.0);
        // jobs = 0 is treated as one worker, never a division by zero.
        assert!((busy_frac(1.0, 2.0, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sim_share_is_modelled_sim_cpu_over_cpu() {
        // 1M uops at 500 ns each is 0.5 s of a 2 s CPU budget.
        assert!((sim_share(1_000_000, 500.0, 2.0) - 0.25).abs() < 1e-12);
        assert_eq!(sim_share(1, 1.0, 0.0), 0.0);
    }

    #[test]
    fn layer_residual_and_cover_check() {
        let rows = vec![
            LayerRow {
                name: "pipeline".into(),
                self_s: 0.6,
            },
            LayerRow {
                name: "snapshot.save".into(),
                self_s: 0.3,
            },
        ];
        assert!((unattributed(&rows, 1.0) - 0.1).abs() < 1e-12);
        assert!(layers_cover(&rows, 1.0, 0.10));
        // Layers claiming 0.9 s of a 0.8 s wall over-claim by 12.5%.
        assert!((unattributed(&rows, 0.8) + 0.1).abs() < 1e-12);
        assert!(!layers_cover(&rows, 0.8, 0.10));
        assert!(layers_cover(&rows, 0.85, 0.10));
        assert!(!layers_cover(&rows, 0.0, 0.10));
    }
}
