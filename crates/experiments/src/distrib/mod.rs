//! Distributed sweep execution: a filesystem queue, lease-based work
//! claiming across worker *processes*, and a deterministic merge.
//!
//! The single-process sweep
//! ([`faults::run_grid_batched`](crate::faults::run_grid_batched)) fans
//! cells across threads; this module fans the same cells across
//! OS processes — possibly on a shared filesystem — while preserving
//! the project's determinism contract: **the merged output of a sweep
//! is byte-identical whether it ran in 1 process, N processes, or N
//! processes half of which were killed and respawned mid-sweep.**
//!
//! The pieces:
//!
//! * [`queue`] — the on-disk protocol: atomic-rename claims, mtime
//!   leases, reaping, checksummed result publication;
//! * [`worker`] — the per-process loop: claim, execute through the
//!   checkpointing [`Runner`](crate::runner::Runner), heartbeat,
//!   publish (with exactly-once late-result suppression);
//! * [`run_sweep`] — the coordinator: creates the queue, spawns and
//!   supervises workers (respawning dead ones with a bounded budget),
//!   drains stragglers inline, then merges results in canonical grid
//!   order with per-cell fallbacks (published result → runner final
//!   checkpoint → inline recompute, resuming any orphaned mid-cell
//!   checkpoint) so a crashed worker costs wall-clock, never bytes.
//!
//! Why the merge repairs the `results/` tree: CI diffs the result
//! *directories* of a clean run and a chaos run byte-for-byte. A
//! worker killed between marking a cell done and publishing its result
//! would otherwise leave a hole in `results/` that the merged table
//! papers over; the coordinator re-publishes every cell it recovers so
//! the trees converge too.
//!
//! Scheduling statistics (worker counters, respawn counts, chaos
//! exits) are inherently nondeterministic, so they live in the queue's
//! `report.json` and `workers/` — never in the byte-compared output.

pub mod queue;
pub mod timings;
pub mod worker;

pub use queue::{CellDesc, Claim, Manifest, Queue, MANIFEST_VERSION};
pub use timings::Timings;
pub use worker::{run_worker, WorkerConfig, CHAOS_EXIT};

use crate::common::Scale;
use crate::faults::{cell_seed, run_cell, table_from_cells, FaultCell, FaultTable, Grid};
use crate::runner::{gc_dir, note_degraded, GcReport, Runner, RunnerConfig};
use perconf_faults::process::render_script;
use perconf_faults::{ChaosConfig, ChaosPlan};
use perconf_obs::CounterSnapshot;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Coordinator-side configuration of one distributed sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Queue directory (created if missing; a partially executed queue
    /// is resumed, not restarted).
    pub queue_root: PathBuf,
    /// Worker processes to spawn. `0` and `1` run the worker loop
    /// inline in the coordinator (no subprocess) unless chaos is
    /// configured, since a chaos kill must not take the coordinator
    /// with it.
    pub workers: usize,
    /// Run scale for every cell.
    pub scale: Scale,
    /// Campaign seed.
    pub seed: u64,
    /// The grid to sweep.
    pub grid: Grid,
    /// Pacing: lease duration, heartbeat cadence, poll intervals and
    /// the respawn budget (defaults env-overridable via
    /// `PERCONF_DISTRIB_*`; `--lease-secs` wins over both).
    pub timings: Timings,
    /// Chaos campaign to script into the spawned workers.
    pub chaos: Option<ChaosConfig>,
    /// Per-attempt watchdog for cell execution.
    pub cell_timeout: Option<Duration>,
}

/// One cell that exhausted its retry budget, with the error class from
/// its failure marker (`panic`, `timeout`, `io`, `invariant`, or
/// `unknown` when the marker itself was unreadable).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailedCell {
    /// Canonical cell key.
    pub key: String,
    /// Stable error-class tag ([`RunError::kind`](crate::runner::RunError::kind)).
    pub kind: String,
}

/// What the coordinator did to get the sweep finished — scheduling
/// and recovery accounting, all nondeterministic, all segregated from
/// the byte-compared sweep output (written to `report.json` in the
/// queue root).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DistribReport {
    /// Worker processes spawned initially.
    pub workers_spawned: u64,
    /// Dead workers replaced (within the respawn budget).
    pub workers_respawned: u64,
    /// Worker exits with the scripted chaos status ([`CHAOS_EXIT`]).
    pub chaos_exits: u64,
    /// Cells whose published result was missing but whose runner final
    /// checkpoint was intact — recovered and re-published without
    /// recomputation.
    pub cells_recovered_from_checkpoint: u64,
    /// Cells the coordinator had to recompute inline during the merge
    /// (no result, no checkpoint; any orphaned mid-cell partial is
    /// resumed).
    pub cells_recomputed_inline: u64,
    /// Cells that resumed from an orphaned mid-cell checkpoint —
    /// summed over every worker plus the coordinator's inline
    /// recomputes. Nonzero after a mid-cell kill proves the orphan
    /// resume path ran.
    pub cells_resumed_mid_cell: u64,
    /// Cells that failed terminally, with error classes.
    pub failed_cells: Vec<FailedCell>,
    /// Merged scheduling counters of every worker incarnation.
    pub worker_counters: CounterSnapshot,
}

fn manifest_for(cfg: &SweepConfig) -> Manifest {
    Manifest {
        version: MANIFEST_VERSION,
        seed: cfg.seed,
        scale: cfg.scale,
        grid: cfg.grid.clone(),
        lease_ms: u64::try_from(cfg.timings.lease.as_millis()).unwrap_or(u64::MAX),
    }
}

/// Opens the queue if it already matches this sweep, otherwise
/// (missing, corrupt, or stale manifest) creates it — degradation to
/// recompute, never an abort.
fn prepare_queue(cfg: &SweepConfig) -> Result<Queue, String> {
    let manifest = manifest_for(cfg);
    let manifest_path = cfg.queue_root.join("manifest.json");
    if manifest_path.exists() {
        match Queue::open(&cfg.queue_root) {
            Ok(q) if *q.manifest() == manifest => return Ok(q),
            Ok(_) => eprintln!(
                "note: queue {} belongs to a different sweep; rewriting its manifest \
                 (existing cell state for matching keys is kept)",
                cfg.queue_root.display()
            ),
            Err(e) => {
                eprintln!("warning: {e}; recreating queue (degraded to recompute)");
                note_degraded();
            }
        }
    }
    Queue::create(&cfg.queue_root, &manifest)
}

/// Spawns one worker process: the current executable re-invoked as
/// `repro sweep --queue <root> --worker-id <id>` (plus chaos script
/// and watchdog flags).
fn spawn_worker(
    queue_root: &Path,
    id: &str,
    chaos_script: &str,
    cell_timeout: Option<Duration>,
) -> Result<std::process::Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("sweep")
        .arg("--queue")
        .arg(queue_root)
        .arg("--worker-id")
        .arg(id);
    if !chaos_script.is_empty() {
        cmd.arg("--chaos-script").arg(chaos_script);
    }
    if let Some(t) = cell_timeout {
        cmd.arg("--cell-timeout").arg(t.as_secs().to_string());
    }
    cmd.spawn()
        .map_err(|e| format!("cannot spawn worker {id}: {e}"))
}

/// Runs a distributed sweep to completion and returns the
/// deterministically merged table plus the scheduling report.
///
/// # Errors
///
/// Only setup failures (queue creation, worker spawning when *no*
/// worker could ever be started). Cell failures, worker deaths, and
/// corrupt state all degrade to recompute and are reported, not
/// returned.
pub fn run_sweep(cfg: &SweepConfig) -> Result<(FaultTable, DistribReport), String> {
    let queue = prepare_queue(cfg)?;
    queue.enqueue_missing()?;
    let mut report = DistribReport::default();

    let plan = cfg.chaos.map(ChaosPlan::new);
    let spawned = if cfg.workers <= 1 && plan.is_none() {
        // Inline execution: same loop, same queue protocol, no
        // subprocess. This is the `--workers 1` baseline CI compares
        // the multi-process runs against.
        let wc = WorkerConfig {
            timeout: cfg.cell_timeout,
            timings: cfg.timings.clone(),
            ..WorkerConfig::new(cfg.queue_root.clone(), "w0i0")
        };
        run_worker(&wc)?;
        0
    } else {
        supervise_fleet(cfg, &queue, plan.as_ref(), &mut report)?
    };
    report.workers_spawned = spawned;

    // Whatever the fleet left behind (respawn budget exhausted, every
    // chaotic incarnation dead), drain inline so the sweep always
    // terminates with a full merge.
    if queue.pending() > 0 {
        let wc = WorkerConfig {
            timeout: cfg.cell_timeout,
            timings: cfg.timings.clone(),
            ..WorkerConfig::new(cfg.queue_root.clone(), "coordinator-drain")
        };
        run_worker(&wc)?;
    }

    let (table, gc) = merge(cfg, &queue, &mut report)?;
    if gc.total() > 0 {
        eprintln!(
            "gc: removed {} stale partial(s) and {} temp file(s) from {}",
            gc.partials_removed,
            gc.temps_removed,
            queue.cells_dir().display()
        );
    }

    report.worker_counters = CounterSnapshot::merge(queue.read_worker_stats().iter());
    report.cells_resumed_mid_cell += report
        .worker_counters
        .get("distrib", "cells_resumed_mid_cell")
        .unwrap_or(0);

    match serde_json::to_string_pretty(&report) {
        Ok(text) => {
            if let Err(e) = std::fs::write(queue.root().join("report.json"), text) {
                eprintln!("warning: cannot write sweep report: {e}");
            }
        }
        Err(e) => eprintln!("warning: cannot serialize sweep report: {e}"),
    }
    Ok((table, report))
}

/// Spawns the worker fleet, replaces the dead (within budget), and
/// returns once every child has exited. Never errors once at least
/// one worker started; a fleet that could not start at all is an
/// error.
fn supervise_fleet(
    cfg: &SweepConfig,
    queue: &Queue,
    plan: Option<&ChaosPlan>,
    report: &mut DistribReport,
) -> Result<u64, String> {
    let fleet_size = cfg.workers.max(1) as u64;
    let script_for = |ordinal: u64, incarnation: u32| -> String {
        plan.map(|p| render_script(&p.script(ordinal, incarnation)))
            .unwrap_or_default()
    };
    // `(ordinal, incarnation, child)` for every live worker.
    let mut live: Vec<(u64, u32, std::process::Child)> = Vec::new();
    let mut spawned = 0u64;
    for ordinal in 0..fleet_size {
        let id = format!("w{ordinal}i0");
        match spawn_worker(queue.root(), &id, &script_for(ordinal, 0), cfg.cell_timeout) {
            Ok(child) => {
                live.push((ordinal, 0, child));
                spawned += 1;
            }
            Err(e) => eprintln!("warning: {e}"),
        }
    }
    if live.is_empty() {
        return Err("could not start any worker process".to_owned());
    }

    let budget = fleet_size * cfg.timings.respawn_budget_per_worker;
    while !live.is_empty() {
        let mut still: Vec<(u64, u32, std::process::Child)> = Vec::new();
        for (ordinal, incarnation, mut child) in live.drain(..) {
            match child.try_wait() {
                Ok(None) => still.push((ordinal, incarnation, child)),
                Ok(Some(status)) => {
                    let chaotic = status.code() == Some(CHAOS_EXIT);
                    if chaotic {
                        report.chaos_exits += 1;
                    }
                    let clean = status.success();
                    if !clean && queue.pending() > 0 && report.workers_respawned < budget {
                        let next = incarnation + 1;
                        let id = format!("w{ordinal}i{next}");
                        match spawn_worker(
                            queue.root(),
                            &id,
                            &script_for(ordinal, next),
                            cfg.cell_timeout,
                        ) {
                            Ok(c) => {
                                report.workers_respawned += 1;
                                still.push((ordinal, next, c));
                            }
                            Err(e) => eprintln!("warning: {e}"),
                        }
                    } else if !clean && !chaotic {
                        eprintln!("warning: worker w{ordinal}i{incarnation} exited with {status}");
                    }
                }
                Err(e) => {
                    eprintln!("warning: cannot wait for worker w{ordinal}i{incarnation}: {e}");
                }
            }
        }
        live = still;
        if !live.is_empty() {
            std::thread::sleep(cfg.timings.supervise_poll);
        }
    }
    Ok(spawned)
}

/// Merges the sweep in canonical grid order. Per cell, in preference
/// order: published result file → runner final checkpoint (recovered
/// and re-published) → failure marker (reported as failed) → inline
/// recompute (resuming any orphaned partial). Returns the merged
/// table and the GC report for the checkpoint directory (GC runs only
/// when every cell succeeded, so failed cells keep their state for a
/// `--resume` retry).
fn merge(
    cfg: &SweepConfig,
    queue: &Queue,
    report: &mut DistribReport,
) -> Result<(FaultTable, GcReport), String> {
    let mut runner = Runner::new(RunnerConfig {
        timeout: cfg.cell_timeout,
        ..RunnerConfig::resuming(queue.cells_dir())
    });
    let manifest = queue.manifest().clone();
    let mut cells: Vec<FaultCell> = Vec::new();
    for desc in manifest.cells() {
        if let Some(cell) = queue.read_result(&desc.key) {
            cells.push(cell);
            continue;
        }
        // No (usable) published result. A worker may have died between
        // completing the lease and publishing — its final checkpoint
        // has the bytes.
        if let Some(path) = runner.checkpoint_path(&desc.key) {
            if let Some(cell) = read_checkpoint_cell(&path) {
                queue.publish_result(&desc.key, &cell);
                report.cells_recovered_from_checkpoint += 1;
                cells.push(cell);
                continue;
            }
        }
        // A failure marker means the retry budget was spent on this
        // cell; report it instead of burning the coordinator on it.
        if let Some(kind) = read_failure_kind(runner.failed_path(&desc.key).as_deref()) {
            report.failed_cells.push(FailedCell {
                key: desc.key.clone(),
                kind,
            });
            continue;
        }
        // Nothing anywhere: recompute inline (resume picks up an
        // orphaned mid-cell partial if one exists).
        let (bench, est) = (desc.benchmark.clone(), desc.estimator.clone());
        let (rate, scale) = (desc.rate, manifest.scale);
        let cs = cell_seed(manifest.seed, &bench, &est, desc.rate_idx);
        let r = runner.run_cell_report(&desc.key, move |chk| {
            run_cell(&bench, &est, rate, cs, scale, chk)
        });
        if r.resumed_mid_cell {
            report.cells_resumed_mid_cell += 1;
        }
        match r.outcome {
            Ok(cell) => {
                queue.publish_result(&desc.key, &cell);
                report.cells_recomputed_inline += 1;
                cells.push(cell);
            }
            Err(e) => report.failed_cells.push(FailedCell {
                key: desc.key.clone(),
                kind: e.kind().to_owned(),
            }),
        }
    }
    let failed_keys: Vec<String> = report.failed_cells.iter().map(|f| f.key.clone()).collect();
    let gc = if failed_keys.is_empty() {
        gc_dir(&queue.cells_dir())
    } else {
        GcReport::default()
    };
    Ok((
        table_from_cells(manifest.seed, &manifest.grid, cells, failed_keys),
        gc,
    ))
}

fn read_checkpoint_cell(path: &Path) -> Option<FaultCell> {
    let text = std::fs::read_to_string(path).ok()?;
    match serde_json::from_str(&text) {
        Ok(cell) => Some(cell),
        Err(e) => {
            eprintln!(
                "warning: discarding unusable checkpoint {}: {e}",
                path.display()
            );
            note_degraded();
            let _ = std::fs::remove_file(path);
            None
        }
    }
}

fn read_failure_kind(path: Option<&Path>) -> Option<String> {
    let path = path?;
    if !path.exists() {
        return None;
    }
    let kind = std::fs::read_to_string(path)
        .ok()
        .and_then(|t| serde_json::from_str::<crate::runner::RunError>(&t).ok())
        .map_or_else(|| "unknown".to_owned(), |e| e.kind().to_owned());
    Some(kind)
}
