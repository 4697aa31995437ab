//! Differential determinism suite for batched execution.
//!
//! The batched cycle loop ([`BatchSim`] /
//! `common::run_pipeline_checkpointed_batch` / the scheduler's
//! `BatchSpec` path) promises byte-identical results to N plain
//! sequential runs — for every batch width, with faults injected, with
//! counters enabled, and across a kill + resume in either direction (a
//! wide batch's mid-run checkpoint continued by a width-1 run, a
//! sequential checkpoint continued batched). These tests pin that
//! contract at all three layers:
//!
//! 1. engine level — widths {1, 2, 4, 7, 16} against per-member
//!    unchunked `Simulation::new → warmup → run` references (what
//!    `common::run_pipeline` does), comparing serialized `.psnap` bytes
//!    and `CounterSnapshot`s, not just summary stats;
//! 2. checkpoint level — mid-batch kill with cross-width resume;
//! 3. sweep level — `run_grid_batched` at widths 3 and 8 vs width 1
//!    byte-identical JSON + rendered table, including a batch-prefix
//!    kill + resume and a wide sweep's checkpoints consumed by a
//!    width-1 sweep.

use perconf_bpred::{baseline_bimodal_gshare, SimPredictor, Snapshot};
use perconf_core::{
    JrsConfig, JrsEstimator, PerceptronCe, PerceptronCeConfig, SimEstimator, SpeculationController,
};
use perconf_experiments::common::{run_pipeline_checkpointed_batch, BatchMember, Scale};
use perconf_experiments::faults::{self, FaultTable, Grid};
use perconf_experiments::runner::{CheckpointCell, RunnerConfig, Scheduler, SchedulerConfig};
use perconf_experiments::snapfile;
use perconf_faults::{FaultConfig, FaultyEstimator, FaultyPredictor};
use perconf_pipeline::{BatchSim, Controller, PipelineConfig, Simulation};
use perconf_workload::WorkloadConfig;
use serde::Value;
use std::path::{Path, PathBuf};

const BENCHES: [&str; 4] = ["gcc", "twolf", "mcf", "gzip"];
const INTERVAL: u64 = 7_000;

/// Member `i`'s workload: cycle through four benchmarks.
fn member_wl(i: usize) -> WorkloadConfig {
    perconf_workload::spec2000_config(BENCHES[i % BENCHES.len()]).expect("known benchmark")
}

/// Member `i`'s controller: faults-wrapped predictor + estimator, with
/// per-member fault rates/seeds and alternating estimator kinds, so a
/// batch mixes fault-free members with heavily faulted ones.
fn member_ctl(i: usize) -> Controller {
    let rate = [0.0, 1e-4, 1e-3][i % 3];
    let salt = i as u64 * 0x9E37_79B9;
    let cfg_p = FaultConfig {
        rate,
        history_rate: rate,
        seed: 0x11 ^ salt,
    };
    let cfg_e = FaultConfig::state_only(rate, 0x22 ^ salt);
    let est: Box<dyn perconf_core::FaultableEstimator> = if i.is_multiple_of(2) {
        Box::new(PerceptronCe::new(PerceptronCeConfig::default()))
    } else {
        Box::new(JrsEstimator::new(JrsConfig {
            lambda: 1,
            ..JrsConfig::default()
        }))
    };
    SpeculationController::new(
        Box::new(FaultyPredictor::new(baseline_bimodal_gshare(), &cfg_p)) as Box<dyn SimPredictor>,
        Box::new(FaultyEstimator::new(est, &cfg_e)) as Box<dyn SimEstimator>,
    )
}

/// The reference a member must match: one plain, unchunked run with no
/// checkpoints — what `common::run_pipeline` does — keeping the
/// simulation for its snapshot bytes and counters.
fn unchunked(wl: &WorkloadConfig, cfg: PipelineConfig, i: usize, scale: Scale) -> Simulation {
    let mut sim = Simulation::new(cfg, wl, member_ctl(i));
    sim.warmup(scale.warmup_uops);
    sim.run(scale.run_uops);
    sim
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "perconf-batch-determinism-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// The serialized `.psnap` container bytes for a finished simulation —
/// the byte-level artifact kill+resume actually round-trips.
fn psnap_bytes(sim: &Simulation, dir: &Path, tag: &str) -> Vec<u8> {
    let p = dir.join(format!("{tag}.psnap"));
    snapfile::write(&p, &sim.save_state()).expect("write .psnap");
    std::fs::read(&p).expect("read .psnap back")
}

#[test]
fn batch_widths_match_sequential_psnap_and_counters() {
    let scale = Scale::tiny();
    let cfg = PipelineConfig::deep().gated(1);
    let dir = fresh_dir("widths");

    let widths = [1usize, 2, 4, 7, 16];
    let pool = *widths.iter().max().unwrap();
    let wls: Vec<WorkloadConfig> = (0..pool).map(member_wl).collect();

    // Sequential references: stats, serialized snapshot bytes, and the
    // full counter snapshot per member.
    let mut refs = Vec::new();
    for (i, wl) in wls.iter().enumerate() {
        let sim = unchunked(wl, cfg, i, scale);
        refs.push((
            sim.stats().clone(),
            psnap_bytes(&sim, &dir, &format!("seq-{i}")),
            sim.counters(),
        ));
    }

    for width in widths {
        let cells: Vec<CheckpointCell> = (0..width).map(|_| CheckpointCell::disabled()).collect();
        let members: Vec<BatchMember> = (0..width)
            .map(|i| BatchMember {
                wl: &wls[i],
                mk_ctl: Box::new(move || member_ctl(i)),
                cell: &cells[i],
            })
            .collect();
        let outs = run_pipeline_checkpointed_batch(&members, cfg, scale, INTERVAL);
        drop(members);
        for (i, out) in outs.into_iter().enumerate() {
            let sim = out.expect("batched member");
            assert_eq!(
                sim.stats(),
                &refs[i].0,
                "width {width} member {i}: stats diverged"
            );
            assert_eq!(
                psnap_bytes(&sim, &dir, &format!("b{width}-{i}")),
                refs[i].1,
                "width {width} member {i}: .psnap bytes diverged"
            );
            assert_eq!(
                sim.counters(),
                refs[i].2,
                "width {width} member {i}: counters diverged"
            );
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_batch_kill_resumes_across_batch_and_sequential_paths() {
    let scale = Scale::tiny();
    let cfg = PipelineConfig::deep().gated(1);
    let dir = fresh_dir("kill");
    let n = 3usize;
    let wls: Vec<WorkloadConfig> = (0..n).map(member_wl).collect();

    // Uninterrupted sequential references.
    let mut refs = Vec::new();
    for (i, wl) in wls.iter().enumerate() {
        let sim = unchunked(wl, cfg, i, scale);
        refs.push((sim.stats().clone(), sim.state_digest()));
    }

    let store = |cell: &CheckpointCell, phase: u64, sim: &Simulation| {
        cell.store(&Value::Object(vec![
            ("phase".into(), Value::UInt(phase)),
            ("sim".into(), sim.save_state()),
        ]));
    };

    // A *batch* killed mid-warmup: advance an interleaved batch two
    // checkpoint legs, persist each member's {phase, sim} partial —
    // the exact bytes the batched loop stores — then abandon it.
    let mut batch = BatchSim::new(
        (0..n)
            .map(|i| Simulation::new(cfg, &wls[i], member_ctl(i)))
            .collect(),
    );
    for leg in 0..2 {
        for r in batch.try_run(INTERVAL) {
            r.unwrap_or_else(|e| panic!("warmup leg {leg}: {e:?}"));
        }
    }
    let cells: Vec<CheckpointCell> = (0..n)
        .map(|i| CheckpointCell::at(dir.join(format!("batch-killed-{i}.part.psnap"))))
        .collect();
    for (i, cell) in cells.iter().enumerate() {
        store(cell, 0, batch.get(i));
    }
    drop(batch);

    // ... and resumed *sequentially*, one width-1 run per member: every
    // member must land on the uninterrupted result, and clear its
    // partial on completion.
    for (i, wl) in wls.iter().enumerate() {
        let member = BatchMember {
            wl,
            mk_ctl: Box::new(move || member_ctl(i)),
            cell: &cells[i],
        };
        let sim =
            run_pipeline_checkpointed_batch(std::slice::from_ref(&member), cfg, scale, INTERVAL)
                .pop()
                .expect("one member in, one result out")
                .expect("sequential resume of batch-killed member");
        assert_eq!(
            sim.stats(),
            &refs[i].0,
            "member {i}: resumed stats diverged"
        );
        assert_eq!(
            sim.state_digest(),
            refs[i].1,
            "member {i}: resumed state diverged"
        );
        assert!(
            cells[i].load().is_none(),
            "member {i}: completed run left its partial checkpoint behind"
        );
    }

    // The reverse direction: *sequential* runs killed mid-run-phase,
    // resumed through the batched loop.
    let cells2: Vec<CheckpointCell> = (0..n)
        .map(|i| CheckpointCell::at(dir.join(format!("seq-killed-{i}.part.psnap"))))
        .collect();
    for (i, wl) in wls.iter().enumerate() {
        let mut sim = Simulation::new(cfg, wl, member_ctl(i));
        while sim.stats().retired < scale.warmup_uops {
            let chunk = INTERVAL.min(scale.warmup_uops - sim.stats().retired);
            sim.try_run(chunk).expect("warmup");
        }
        sim.try_warmup(0).expect("warmup handoff");
        sim.try_run(INTERVAL).expect("first run leg");
        store(&cells2[i], 1, &sim);
    }
    let members: Vec<BatchMember> = (0..n)
        .map(|i| BatchMember {
            wl: &wls[i],
            mk_ctl: Box::new(move || member_ctl(i)),
            cell: &cells2[i],
        })
        .collect();
    let outs = run_pipeline_checkpointed_batch(&members, cfg, scale, INTERVAL);
    drop(members);
    for (i, out) in outs.into_iter().enumerate() {
        let sim = out.expect("batched resume of sequentially-killed member");
        assert_eq!(
            sim.stats(),
            &refs[i].0,
            "member {i}: batch-resumed stats diverged"
        );
        assert_eq!(
            sim.state_digest(),
            refs[i].1,
            "member {i}: batch-resumed state diverged"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
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

/// The byte-level view CI's `diff` compares: pretty JSON + rendered
/// table.
fn bytes(t: &FaultTable) -> (String, String) {
    (
        serde_json::to_string_pretty(t).expect("serialize"),
        t.render(),
    )
}

#[test]
fn batched_sweep_byte_identical_and_resumes_after_kill() {
    const SEED: u64 = 11;
    let g = Grid {
        estimators: vec!["jrs".to_owned()],
        benchmarks: vec!["gcc".to_owned(), "twolf".to_owned()],
        rates: vec![0.0, 1e-2],
    };

    let (seq, _) = faults::run_grid_batched(Scale::tiny(), SEED, &g, &mut scheduler(1, None), 1);
    assert_eq!(seq.cells.len(), g.cell_count());
    assert!(seq.failed.is_empty());

    // Every batch width merges to the same bytes as the sequential
    // sweep, on one worker or several.
    for width in [1usize, 3, 8] {
        let (bat, _) =
            faults::run_grid_batched(Scale::tiny(), SEED, &g, &mut scheduler(2, None), width);
        assert_eq!(
            bytes(&seq),
            bytes(&bat),
            "--batch {width} diverged from sequential"
        );
    }

    // Kill after the first batch group completed: run only the first
    // BatchSpec into a resume dir, then resume the full batched sweep.
    let dir = fresh_dir("sweep-resume");
    let prefix: Vec<_> = faults::batch_specs(Scale::tiny(), SEED, &g, 3)
        .into_iter()
        .take(1)
        .collect();
    let partial = scheduler(2, Some(&dir)).run_batches(prefix);
    assert_eq!(partial.executed(), 3);
    assert!(partial.failures().is_empty());

    let (resumed, _) =
        faults::run_grid_batched(Scale::tiny(), SEED, &g, &mut scheduler(2, Some(&dir)), 3);
    assert_eq!(
        bytes(&seq),
        bytes(&resumed),
        "resumed batched sweep diverged from the uninterrupted sequential one"
    );

    // The batched sweep's final checkpoints now cover every cell; a
    // width-1 sweep on one worker must consume them unchanged.
    let (cross, _) =
        faults::run_grid_batched(Scale::tiny(), SEED, &g, &mut scheduler(1, Some(&dir)), 1);
    assert_eq!(
        bytes(&seq),
        bytes(&cross),
        "sequential resume from batch-written checkpoints diverged"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
