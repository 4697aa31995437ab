//! A run that does not persist builds no mid-run snapshot. The
//! checkpointed pipeline driver opens its `phase/checkpoint` profiler
//! scope only when the cell has somewhere to store the snapshot, so the
//! process-wide profiler (owned by this test binary alone) shows
//! whether any snapshot was built.

use perconf_experiments::runner::CheckpointCell;
use perconf_experiments::{common, table2, Scale};

fn checkpoint_calls() -> u64 {
    common::profiler()
        .report()
        .rows
        .iter()
        .find(|r| r.name == "phase/checkpoint")
        .map_or(0, |r| r.calls)
}

#[test]
fn only_a_persisting_cell_builds_checkpoints() {
    let scale = Scale::tiny();
    common::profiler().enable(true);

    let plain = table2::run_shape_cell("gcc", 0, scale, &CheckpointCell::disabled());
    assert_eq!(
        checkpoint_calls(),
        0,
        "a cell without persistence built a snapshot"
    );
    assert!(
        common::profiler()
            .report()
            .rows
            .iter()
            .any(|r| r.name == "phase/run" && r.calls > 0),
        "the profiler saw no pipeline run at all"
    );

    let dir = std::env::temp_dir().join(format!("perconf-checkpoint-skip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let cell = CheckpointCell::at(dir.join("cell.part.psnap"));
    let persisted = table2::run_shape_cell("gcc", 0, scale, &cell);
    common::profiler().enable(false);
    assert!(
        checkpoint_calls() > 0,
        "a persisting cell stored no checkpoint"
    );
    // Skipping the snapshots leaves the result unchanged.
    assert_eq!(plain, persisted);
    let _ = std::fs::remove_dir_all(&dir);
}
