//! Mid-write kill scenarios for `.psnap` checkpoints.
//!
//! The snapfile writer is atomic (temp file + rename), so a process
//! killed *between* the temp write and the rename leaves only an
//! orphaned `.tmp` file — the final name never holds partial bytes.
//! These tests pin the two halves of that contract and the reader's
//! diagnosis when the final name *does* end up torn (non-atomic
//! filesystems, scp'd checkpoint dirs): truncation must be reported
//! as `Truncated`, not misdiagnosed as bit-rot (`DigestMismatch`),
//! and the affected cell must recompute cleanly either way.

use perconf_experiments::runner::{degraded_count, Runner, RunnerConfig};
use perconf_experiments::snapfile::{self, SnapfileError};
use serde::Value;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// `degraded_count` is process-wide and the harness runs tests in
/// parallel, so the tests that compare it before and after a run hold
/// this lock: otherwise one test's discarded checkpoint lands in the
/// other's window.
static DEGRADED_COUNTER: Mutex<()> = Mutex::new(());

fn degraded_counter_lock() -> MutexGuard<'static, ()> {
    DEGRADED_COUNTER
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("perconf-trunc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn kill_between_temp_write_and_rename_recomputes_cleanly() {
    let _serial = degraded_counter_lock();
    let dir = fresh_dir("tmp-orphan");
    let cfg = RunnerConfig::resuming(&dir);
    let mut runner = Runner::new(cfg);
    let partial = runner.partial_path("cell").unwrap();

    // A process died after fully writing the temp file but before the
    // rename: the temp is complete and valid, the final name absent.
    let orphan_tmp = partial.with_extension("psnap.tmp99999");
    snapfile::write(&partial, &Value::UInt(5)).unwrap();
    std::fs::rename(&partial, &orphan_tmp).unwrap();
    assert!(!partial.exists());

    // The cell must start from scratch — no partial under the final
    // name means no mid-cell resume and, crucially, no degradation:
    // an interrupted write that never landed is not corruption.
    let degraded_before = degraded_count();
    let report = runner.run_cell_report("cell", |chk| {
        assert!(
            chk.load().is_none(),
            "an orphaned temp file must not be loadable as a checkpoint"
        );
        7u64
    });
    assert_eq!(*report.outcome.as_ref().unwrap(), 7);
    assert!(!report.resumed_mid_cell);
    assert_eq!(report.attempts, 1);
    assert_eq!(
        degraded_count(),
        degraded_before,
        "a never-landed write must not count as degraded input"
    );

    // Clean-completion GC sweeps the orphan.
    let gc = perconf_experiments::runner::gc_dir(&dir);
    assert!(gc.temps_removed >= 1, "gc must remove the orphaned temp");
    assert!(!orphan_tmp.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_final_name_is_reported_as_truncation_not_corruption() {
    let _serial = degraded_counter_lock();
    let dir = fresh_dir("torn-final");
    let cfg = RunnerConfig::resuming(&dir);
    let mut runner = Runner::new(cfg);
    let partial = runner.partial_path("cell").unwrap();

    // The final name holds a prefix of a checkpoint (torn non-atomic
    // copy): header intact, payload cut short.
    snapfile::write(&partial, &Value::UInt(5)).unwrap();
    let bytes = std::fs::read(&partial).unwrap();
    std::fs::write(&partial, &bytes[..bytes.len() - 5]).unwrap();

    // The reader must diagnose this as truncation — the length check
    // fires before the digest is ever computed — so logs point at a
    // torn write, not at bit-rot.
    match snapfile::read(&partial) {
        Err(SnapfileError::Truncated { expected, got }) => {
            assert!(got < expected, "payload is {got} of {expected} bytes");
        }
        other => panic!("expected Truncated, got {other:?}"),
    }

    // The runner discards the torn checkpoint (flagging degraded
    // input), recomputes the cell from scratch, and clears the file.
    let degraded_before = degraded_count();
    let report = runner.run_cell_report("cell", |chk| {
        assert!(
            chk.load().is_none(),
            "a torn checkpoint must be discarded, not resumed"
        );
        7u64
    });
    assert_eq!(*report.outcome.as_ref().unwrap(), 7);
    assert_eq!(report.attempts, 1, "recompute is a clean first attempt");
    assert!(
        degraded_count() > degraded_before,
        "consuming a torn checkpoint must flag the run as degraded"
    );
    assert!(
        !partial.exists(),
        "the finished cell must leave no partial behind"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn header_shorter_than_the_fixed_preamble_is_truncation() {
    let dir = fresh_dir("short-header");
    let p = dir.join("cell.part.psnap");
    // Killed after 12 of the 28 header bytes.
    std::fs::write(&p, b"PSNAP001\x01\x00\x00\x00").unwrap();
    match snapfile::read(&p) {
        Err(SnapfileError::Truncated { expected, got }) => {
            assert_eq!(expected, 28);
            assert_eq!(got, 12);
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
