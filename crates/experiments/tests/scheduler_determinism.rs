//! Determinism under parallelism: the fault sweep's merged output is
//! byte-identical whether it ran on one worker or four, and whether it
//! ran straight through or was killed mid-sweep and resumed from its
//! checkpoints. This is the scheduler's core contract (see
//! `runner::Scheduler` — submission-order merge, coordinate-derived
//! seeds, wall-time segregated out of diffable outputs).

use perconf_experiments::faults::{self, FaultTable, Grid};
use perconf_experiments::runner::{RunnerConfig, Scheduler, SchedulerConfig};
use perconf_experiments::Scale;
use std::path::{Path, PathBuf};

const SEED: u64 = 11;

/// A reduced sweep grid: one estimator, two benchmarks, the fault-free
/// baseline rate plus one heavy rate — four cells, enough to exercise
/// cross-benchmark aggregation and ipc-loss baselining.
fn grid() -> Grid {
    Grid {
        estimators: vec!["jrs".to_owned()],
        benchmarks: vec!["gcc".to_owned(), "twolf".to_owned()],
        rates: vec![0.0, 1e-2],
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "perconf-sched-determinism-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn scheduler(jobs: usize, dir: Option<&Path>) -> Scheduler {
    let runner = match dir {
        Some(d) => RunnerConfig {
            timeout: None,
            retries: 0,
            ..RunnerConfig::resuming(d)
        },
        None => RunnerConfig {
            checkpoint_dir: None,
            resume: false,
            timeout: None,
            retries: 0,
            ..RunnerConfig::default()
        },
    };
    Scheduler::new(SchedulerConfig { runner, jobs })
}

/// The byte-level view a CI `diff -ru` would compare: the pretty JSON
/// the `repro` binary writes, plus the rendered table.
fn bytes(t: &FaultTable) -> (String, String) {
    (
        serde_json::to_string_pretty(t).expect("serialize"),
        t.render(),
    )
}

#[test]
fn sweep_is_byte_identical_across_job_counts_and_resume() {
    let g = grid();

    // Reference: sequential, no persistence.
    let (seq, _) = faults::run_grid_batched(Scale::tiny(), SEED, &g, &mut scheduler(1, None), 1);
    assert_eq!(seq.cells.len(), g.cell_count());
    assert!(seq.failed.is_empty());

    // Same sweep on four workers must be byte-identical.
    let (par, timings) =
        faults::run_grid_batched(Scale::tiny(), SEED, &g, &mut scheduler(4, None), 1);
    assert_eq!(bytes(&seq), bytes(&par), "--jobs 4 diverged from --jobs 1");

    // Timing rows come back in canonical submission order too (only
    // their wall-clock field is nondeterministic, and it lives outside
    // the diffed outputs).
    let keys: Vec<&str> = timings.iter().map(|t| t.key.as_str()).collect();
    let expected: Vec<String> = faults::batch_specs(Scale::tiny(), SEED, &g, 1)
        .iter()
        .flat_map(|s| s.keys().to_vec())
        .collect();
    assert_eq!(
        keys,
        expected.iter().map(String::as_str).collect::<Vec<_>>()
    );

    // Kill-and-resume: run only a prefix of the sweep's cells into a
    // checkpoint directory (the moral equivalent of a sweep killed
    // after two cells finished), then resume the full sweep. The
    // merged output must still be byte-identical to the straight run.
    let dir = fresh_dir("resume");
    let prefix: Vec<_> = faults::batch_specs(Scale::tiny(), SEED, &g, 1)
        .into_iter()
        .take(2)
        .collect();
    let partial = scheduler(4, Some(&dir)).run_batches(prefix);
    assert_eq!(partial.executed(), 2);
    assert!(partial.failures().is_empty());

    let (resumed, _) =
        faults::run_grid_batched(Scale::tiny(), SEED, &g, &mut scheduler(4, Some(&dir)), 1);
    assert_eq!(
        bytes(&seq),
        bytes(&resumed),
        "resumed sweep diverged from the uninterrupted one"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
