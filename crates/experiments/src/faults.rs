//! Resilience sweep (extension): how gracefully do the paper's
//! confidence estimators degrade under single-event upsets?
//!
//! For each (benchmark × estimator × fault-rate) cell, both the
//! baseline predictor and the estimator are wrapped in seeded
//! fault-injecting adapters ([`perconf_faults`]) and evaluated twice:
//! at trace level for the confidence metrics (PVN, Spec coverage,
//! misprediction rate) and through the gated pipeline for IPC. The
//! zero-rate column uses the same wrappers at rate 0, which are
//! bit-identical passthroughs — so it *is* the fault-free baseline.
//!
//! The two estimators fail differently. The perceptron CE holds ~4 KB
//! of trained weights, and upsets drag its outputs toward zero: Spec
//! creeps up, PVN collapses, spurious gating stalls the machine — a
//! clean monotone degradation on every axis. The JRS counters are
//! small and continuously re-trained, so persistent upsets mostly
//! knock *zero* counters non-zero: low-confidence marks disappear,
//! coverage collapses, and the machine actually speeds up because it
//! stops gating — while silently losing the wasted-work reduction it
//! was built for. [`FaultTable::degrades_monotonically`] encodes
//! exactly that shape.
//!
//! Cells run through the [`Scheduler`](crate::runner::Scheduler): a
//! panic or hang in one cell marks that cell failed and the sweep
//! continues; with `repro faults --resume <dir>` completed cells are
//! loaded from checkpoints instead of recomputed, and `--jobs N` fans
//! independent cells across worker threads. The sweep's output is
//! byte-identical at any job count: cells are submitted and merged in
//! canonical grid order ([`Grid`] iteration order), and every cell's
//! randomness derives from [`cell_seed`] — a pure function of the
//! campaign seed and the cell coordinates, never of scheduling order.

use crate::common::{run_pipeline_checkpointed_batch, trace_eval, BatchMember, Scale};
use crate::runner::{BatchSpec, CellTiming, CheckpointCell, Scheduler};
use perconf_bpred::{baseline_bimodal_gshare, SimPredictor};
use perconf_core::{
    JrsConfig, JrsEstimator, PerceptronCe, PerceptronCeConfig, SimEstimator, SpeculationController,
};
use perconf_faults::{FaultConfig, FaultyEstimator, FaultyPredictor};
use perconf_metrics::Table;
use perconf_obs::CounterSnapshot;
use perconf_pipeline::PipelineConfig;
use serde::{Deserialize, Serialize};

/// Per-access fault rates swept, decade-spaced. Rate 0 is the exact
/// fault-free baseline; 1e-1 is far beyond any physical upset rate
/// and anchors the heavily-degraded end of the curve.
pub const RATES: [f64; 5] = [0.0, 1e-4, 1e-3, 1e-2, 1e-1];

/// Benchmarks in the sweep (a representative high/mid/low
/// mispredictability subset keeps the grid affordable).
pub const BENCHMARKS: [&str; 3] = ["mcf", "twolf", "gcc"];

/// Estimators compared under fault injection.
pub const ESTIMATORS: [&str; 2] = ["perceptron", "jrs"];

/// The (estimator × benchmark × rate) design space one sweep covers.
/// Canonical cell order is estimator-major, then benchmark, then rate
/// — the order [`batch_specs`] submits and every output reports in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grid {
    /// Estimator names (see [`ESTIMATORS`]).
    pub estimators: Vec<String>,
    /// Benchmark names.
    pub benchmarks: Vec<String>,
    /// Per-access fault rates.
    pub rates: Vec<f64>,
}

impl Grid {
    /// The paper-extension sweep: both estimators, the representative
    /// benchmark triple, all five decade-spaced rates.
    #[must_use]
    pub fn full() -> Self {
        Self {
            estimators: ESTIMATORS.iter().map(|s| (*s).to_owned()).collect(),
            benchmarks: BENCHMARKS.iter().map(|s| (*s).to_owned()).collect(),
            rates: RATES.to_vec(),
        }
    }

    /// A 4-cell subgrid (one estimator, two benchmarks, zero and a
    /// high fault rate) sized for CI's distributed-determinism checks,
    /// where the same sweep runs several times under different worker
    /// counts and chaos plans.
    #[must_use]
    pub fn small() -> Self {
        Self {
            estimators: vec!["jrs".to_owned()],
            benchmarks: vec!["gcc".to_owned(), "twolf".to_owned()],
            rates: vec![0.0, 1e-2],
        }
    }

    /// Number of cells in the grid.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.estimators.len() * self.benchmarks.len() * self.rates.len()
    }

    /// Resolves a preset grid name (`full` | `small`) — the shared
    /// vocabulary of the `repro` CLI, declarative specs, and the
    /// experiment server's submit protocol.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "full" => Some(Self::full()),
            "small" => Some(Self::small()),
            _ => None,
        }
    }
}

/// One completed sweep cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultCell {
    /// Benchmark name.
    pub benchmark: String,
    /// Estimator name (`perceptron` or `jrs`).
    pub estimator: String,
    /// Per-access fault rate.
    pub rate: f64,
    /// Trace-level PVN (%) of the faulted estimator.
    pub pvn: f64,
    /// Trace-level Spec coverage (%) of the faulted estimator.
    pub spec: f64,
    /// Trace-level misprediction rate (%) of the faulted predictor.
    pub miss_rate: f64,
    /// Pipeline IPC with both structures faulted.
    pub ipc: f64,
    /// Faults injected into the predictor (trace + pipeline runs).
    pub faults_predictor: u64,
    /// Faults injected into the estimator (trace + pipeline runs).
    pub faults_estimator: u64,
    /// Hierarchical counter snapshot of the cell's pipeline run
    /// (fetch/rob/cache/predictor/estimator/gating groups). Derived
    /// from snapshotted simulator state, so a killed-and-resumed cell
    /// reports the same snapshot as an uninterrupted one.
    pub counters: CounterSnapshot,
}

/// One rendered row: a (estimator, rate) point aggregated over the
/// benchmarks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultRow {
    /// Estimator name.
    pub estimator: String,
    /// Per-access fault rate.
    pub rate: f64,
    /// Mean PVN (%).
    pub pvn: f64,
    /// Mean Spec coverage (%).
    pub spec: f64,
    /// Mean misprediction rate (%).
    pub miss_rate: f64,
    /// Mean fractional IPC loss vs the zero-rate cell (%).
    pub ipc_loss: f64,
}

/// Full resilience-sweep result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultTable {
    /// Campaign seed the per-cell fault plans derive from.
    pub seed: u64,
    /// Aggregated rows, grouped by estimator then rate.
    pub rows: Vec<FaultRow>,
    /// Every completed cell.
    pub cells: Vec<FaultCell>,
    /// Keys of cells that failed (panicked / hung / invariant).
    pub failed: Vec<String>,
    /// Deterministic merge of every completed cell's counters:
    /// monotonic counters sum, gauges keep their maximum — the
    /// sweep-wide activity totals, identical at any `--jobs` count.
    pub counters: CounterSnapshot,
}

/// Deterministic per-cell seed: mixes the campaign seed with the cell
/// coordinates so cells are independent but reproducible. This — not
/// anything scheduling-derived — is the only randomness source a cell
/// may use, which is what keeps parallel sweeps byte-identical to
/// sequential ones.
#[must_use]
pub fn cell_seed(seed: u64, bench: &str, estimator: &str, rate_idx: usize) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for b in bench.bytes().chain(estimator.bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
    }
    h ^ (rate_idx as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93)
}

/// Canonical checkpoint/queue key for one sweep cell. The campaign
/// seed is part of the key so resuming (or a distributed queue) with a
/// different `--seed` recomputes instead of serving another campaign's
/// checkpoints. Shared by [`batch_specs`] and the
/// [`distrib`](crate::distrib) queue so a worker's checkpoint files
/// and the coordinator's result files always agree on names.
#[must_use]
pub fn cell_key(seed: u64, estimator: &str, bench: &str, rate_idx: usize) -> String {
    format!("faults-s{seed}-{estimator}-{bench}-r{rate_idx}")
}

/// Content digest of everything that determines one cell's bytes: the
/// campaign seed, simulation scale, full coordinates, *and the rate
/// value itself* (via its exact bit pattern, so `1e-4` and a future
/// `1.0001e-4` can never alias). This is the experiment server's
/// cache key — two submissions whose cells digest equal are guaranteed
/// to simulate identically, so the second can legally be served from
/// the cache of the first. [`cell_key`] stays the human-readable
/// file/queue name; this digest is the collision-resistant identity.
#[must_use]
pub fn cell_content_digest(
    seed: u64,
    scale: Scale,
    estimator: &str,
    bench: &str,
    rate_idx: usize,
    rate: f64,
) -> u64 {
    let canon = format!(
        "faults-cell-v1|seed={seed}|scale={},{},{},{}|est={estimator}|bench={bench}\
         |ri={rate_idx}|rate_bits={:016x}",
        scale.warmup_uops,
        scale.run_uops,
        scale.warmup_branches,
        scale.run_branches,
        rate.to_bits()
    );
    perconf_bpred::digest_bytes(canon.as_bytes())
}

fn estimator_by_name(name: &str) -> Box<dyn perconf_core::FaultableEstimator> {
    match name {
        "perceptron" => Box::new(PerceptronCe::new(PerceptronCeConfig::default())),
        // λ=1 is the conservative gating point of Table 4: only
        // branches with a recent miss gate, so spurious low-confidence
        // marks from faults cost cycles instead of relaxing an already
        // saturated gate (λ=7 marks ~77% low and inverts the effect).
        "jrs" => Box::new(JrsEstimator::new(JrsConfig {
            lambda: 1,
            ..JrsConfig::default()
        })),
        other => panic!("unknown estimator {other}"),
    }
}

/// Computes one sweep cell: a width-1 batch of `run_cells_batched`.
///
/// The pipeline-IPC leg of the cell snapshots the full simulation into
/// `cell` every ~50k retired uops, so a cell killed mid-pipeline-run
/// resumes from its last checkpoint on the next `--resume` pass
/// instead of recomputing. Pass [`CheckpointCell::disabled`] to run
/// without persistence.
#[must_use]
pub fn run_cell(
    bench: &str,
    estimator: &str,
    rate: f64,
    seed: u64,
    scale: Scale,
    cell: &CheckpointCell,
) -> FaultCell {
    let coord = CellCoord {
        bench: bench.to_owned(),
        estimator: estimator.to_owned(),
        rate,
        seed,
    };
    run_cells_batched(
        std::slice::from_ref(&coord),
        &[0],
        std::slice::from_ref(cell),
        scale,
    )
    .pop()
    .expect("one cell in, one result out")
}

/// One sweep-cell coordinate, resolved from the grid: everything
/// [`run_cell`] needs except the checkpoint cell.
#[derive(Debug, Clone)]
struct CellCoord {
    bench: String,
    estimator: String,
    rate: f64,
    seed: u64,
}

/// Computes a group of sweep cells. Each cell is evaluated twice: a
/// trace-level pass for the confidence metrics, sequential per member
/// (they are cheap), then the dominant pipeline-IPC leg, interleaved
/// through one batched cycle loop ([`run_pipeline_checkpointed_batch`]).
/// A cell's results, checkpoint bytes, and counters depend only on its
/// own coordinates, never on the group it ran in.
///
/// `idxs` selects which members of `coords` to compute (the batch
/// engine skips members served from final checkpoints); returns one
/// [`FaultCell`] per requested index, in order.
fn run_cells_batched(
    coords: &[CellCoord],
    idxs: &[usize],
    cells: &[CheckpointCell],
    scale: Scale,
) -> Vec<FaultCell> {
    // Trace-level legs plus per-member fault configs, sequentially.
    // The pipeline controller consumes its wrappers, so the reported
    // injection counts cover the trace-level pass only.
    struct TraceLeg {
        wl: perconf_workload::WorkloadConfig,
        cfg_p: FaultConfig,
        cfg_e: FaultConfig,
        cm: perconf_metrics::ConfusionMatrix,
        faults_predictor: u64,
        faults_estimator: u64,
    }
    let legs: Vec<TraceLeg> = idxs
        .iter()
        .map(|&i| {
            let c = &coords[i];
            let wl = perconf_workload::spec2000_config(&c.bench).expect("known benchmark");
            // The predictor takes both persistent table upsets and
            // transient history-latch strikes at the same rate; without
            // the latter, big retrained tables absorb flips almost for
            // free and the machine-level effect vanishes. The estimator
            // takes table upsets only so its PVN/Spec shifts are
            // attributable to its own state.
            let cfg_p = FaultConfig {
                rate: c.rate,
                history_rate: c.rate,
                seed: c.seed ^ 0x11,
            };
            let cfg_e = FaultConfig::state_only(c.rate, c.seed ^ 0x22);
            let mut p = FaultyPredictor::new(baseline_bimodal_gshare(), &cfg_p);
            let mut e = FaultyEstimator::new(estimator_by_name(&c.estimator), &cfg_e);
            let (cm, _) = trace_eval(
                &wl,
                &mut p,
                &mut e,
                scale.warmup_branches,
                scale.run_branches,
                None,
            );
            let (faults_predictor, faults_estimator) = (p.injected(), e.injected());
            TraceLeg {
                wl,
                cfg_p,
                cfg_e,
                cm,
                faults_predictor,
                faults_estimator,
            }
        })
        .collect();
    // The pipeline leg with both structures faulted, on the gated deep
    // machine (the configuration the estimator actually protects). The
    // faulted controller snapshots like a clean one — the fault plan's
    // RNG cursor rides along — so resuming replays the same upsets.
    let members: Vec<BatchMember<'_>> = idxs
        .iter()
        .zip(&legs)
        .map(|(&i, leg)| {
            let c = &coords[i];
            let (cfg_p, cfg_e, est) = (leg.cfg_p, leg.cfg_e, c.estimator.clone());
            BatchMember {
                wl: &leg.wl,
                mk_ctl: Box::new(move || {
                    SpeculationController::new(
                        Box::new(FaultyPredictor::new(baseline_bimodal_gshare(), &cfg_p))
                            as Box<dyn SimPredictor>,
                        Box::new(FaultyEstimator::new(estimator_by_name(&est), &cfg_e))
                            as Box<dyn SimEstimator>,
                    )
                }),
                cell: &cells[i],
            }
        })
        .collect();
    let sims =
        run_pipeline_checkpointed_batch(&members, PipelineConfig::deep().gated(1), scale, 50_000);
    drop(members);
    idxs.iter()
        .zip(legs)
        .zip(sims)
        .map(|((&i, leg), sim)| {
            let c = &coords[i];
            let sim = match sim {
                Ok(sim) => sim,
                // A SimError is an invariant failure; surface it as
                // the panic the runner's catch_unwind already turns
                // into a typed error.
                Err(e) => panic!("{e}"),
            };
            FaultCell {
                benchmark: c.bench.clone(),
                estimator: c.estimator.clone(),
                rate: c.rate,
                pvn: leg.cm.pvn() * 100.0,
                spec: leg.cm.spec() * 100.0,
                miss_rate: leg.cm.misprediction_rate() * 100.0,
                ipc: sim.stats().ipc(),
                faults_predictor: leg.faults_predictor,
                faults_estimator: leg.faults_estimator,
                counters: sim.counters(),
            }
        })
        .collect()
}

/// Builds the sweep's batch groups: the canonical grid order chunked
/// into groups of `width` cells whose pipeline legs run interleaved.
/// `width = 1` degenerates to one group per cell.
///
/// Grouping never changes output: member keys, seeds, checkpoint
/// artifacts, and results are all per cell, and the merged report
/// flattens back into canonical grid order whatever the width.
#[must_use]
pub fn batch_specs(
    scale: Scale,
    seed: u64,
    grid: &Grid,
    width: usize,
) -> Vec<BatchSpec<FaultCell>> {
    let width = width.max(1);
    let mut coords = Vec::with_capacity(grid.cell_count());
    let mut keys = Vec::with_capacity(grid.cell_count());
    for est in &grid.estimators {
        for bench in &grid.benchmarks {
            for (ri, &rate) in grid.rates.iter().enumerate() {
                keys.push(cell_key(seed, est, bench, ri));
                coords.push(CellCoord {
                    bench: bench.clone(),
                    estimator: est.clone(),
                    rate,
                    seed: cell_seed(seed, bench, est, ri),
                });
            }
        }
    }
    let mut specs = Vec::new();
    let mut start = 0;
    while start < coords.len() {
        let end = (start + width).min(coords.len());
        let group: Vec<CellCoord> = coords[start..end].to_vec();
        let group_keys: Vec<String> = keys[start..end].to_vec();
        specs.push(BatchSpec::new(group_keys, move |idxs, cells| {
            run_cells_batched(&group, idxs, cells, scale)
        }));
        start = end;
    }
    specs
}

/// Runs the resilience sweep through `scheduler`, the cells' pipeline
/// legs interleaved `width` at a time through one batched cycle loop
/// per group, the groups fanned across the scheduler's worker threads.
/// Returns the deterministically merged table plus the (wall-clock,
/// hence nondeterministic) per-cell timing rows. Output is
/// byte-identical for every width and job count — the differential
/// suite in `tests/batch_determinism.rs` pins this.
#[must_use]
pub fn run_grid_batched(
    scale: Scale,
    seed: u64,
    grid: &Grid,
    scheduler: &mut Scheduler,
    width: usize,
) -> (FaultTable, Vec<CellTiming>) {
    let report = scheduler.run_batches(batch_specs(scale, seed, grid, width));
    let timings = report.timings();
    let mut cells = Vec::new();
    let mut failed = Vec::new();
    for r in report.cells {
        match r.outcome {
            Ok(c) => cells.push(c),
            Err(_) => failed.push(r.key),
        }
    }
    (table_from_cells(seed, grid, cells, failed), timings)
}

/// Assembles the deterministic sweep output from completed cells —
/// the aggregation/merge half of [`run_grid_batched`], split out so the
/// distributed coordinator ([`crate::distrib`]) can feed it cells
/// gathered from per-worker result files. Callers must pass `cells`
/// in canonical grid order (estimator-major, then benchmark, then
/// rate); both `run_grid_batched` and the distributed merge do, which
/// is why their outputs are byte-identical.
#[must_use]
pub fn table_from_cells(
    seed: u64,
    grid: &Grid,
    cells: Vec<FaultCell>,
    failed: Vec<String>,
) -> FaultTable {
    let rows = aggregate(grid, &cells);
    let counters = CounterSnapshot::merge(cells.iter().map(|c| &c.counters));
    FaultTable {
        seed,
        rows,
        cells,
        failed,
        counters,
    }
}

/// Means per (estimator, rate) over whatever benchmarks completed;
/// IPC loss is measured against the same benchmark's zero-rate cell.
fn aggregate(grid: &Grid, cells: &[FaultCell]) -> Vec<FaultRow> {
    let mut rows = Vec::new();
    for est in &grid.estimators {
        for &rate in &grid.rates {
            let in_point: Vec<&FaultCell> = cells
                .iter()
                .filter(|c| &c.estimator == est && c.rate == rate)
                .collect();
            if in_point.is_empty() {
                continue;
            }
            let mean = |f: &dyn Fn(&FaultCell) -> f64| {
                in_point.iter().map(|c| f(c)).sum::<f64>() / in_point.len() as f64
            };
            let ipc_loss = {
                let losses: Vec<f64> = in_point
                    .iter()
                    .filter_map(|c| {
                        cells
                            .iter()
                            .find(|z| {
                                &z.estimator == est && z.benchmark == c.benchmark && z.rate == 0.0
                            })
                            .map(|z| 1.0 - c.ipc / z.ipc)
                    })
                    .collect();
                if losses.is_empty() {
                    0.0
                } else {
                    losses.iter().sum::<f64>() / losses.len() as f64
                }
            };
            rows.push(FaultRow {
                estimator: est.to_owned(),
                rate,
                pvn: mean(&|c| c.pvn),
                spec: mean(&|c| c.spec),
                miss_rate: mean(&|c| c.miss_rate),
                ipc_loss: ipc_loss * 100.0,
            });
        }
    }
    rows
}

impl FaultTable {
    /// Renders the resilience table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "Resilience sweep (seed {}): confidence metrics and IPC vs per-access fault rate\n",
            self.seed
        );
        let mut t =
            Table::with_headers(&["estimator", "rate", "PVN%", "Spec%", "miss%", "IPC loss%"]);
        t.numeric();
        for r in &self.rows {
            t.row(vec![
                r.estimator.clone(),
                format!("{:.0e}", r.rate),
                format!("{:.1}", r.pvn),
                format!("{:.1}", r.spec),
                format!("{:.2}", r.miss_rate),
                format!("{:.2}", r.ipc_loss),
            ]);
        }
        out.push_str(&t.render());
        if !self.failed.is_empty() {
            out.push_str(&format!(
                "\nFAILED cells ({}): {}\n",
                self.failed.len(),
                self.failed.join(", ")
            ));
        }
        out
    }

    /// Headline: confidence quality — PVN × Spec, the precision ×
    /// recall of flagged mispredictions — must fall monotonically
    /// (within a small noise tolerance) for *both* estimators, and the
    /// perceptron machine must additionally lose IPC monotonically and
    /// strictly at the heaviest rate.
    ///
    /// The JRS machine's IPC is deliberately excluded: upsets knock
    /// its resetting counters *off* zero, so faults shed low-
    /// confidence marks and *un-gate* the pipeline — the machine runs
    /// faster while silently losing the wasted-work reduction gating
    /// existed for. The quality product captures that collapse; raw
    /// IPC would reward it.
    #[must_use]
    pub fn degrades_monotonically(&self) -> bool {
        const QUALITY_SLACK: f64 = 1.02; // 2% relative noise allowance
        const IPC_TOL: f64 = 0.5; // percentage points of IPC loss
                                  // Estimators present in the rows, in first-appearance order
                                  // (the sweep grid may be a subset of ESTIMATORS).
        let mut estimators: Vec<&str> = Vec::new();
        for r in &self.rows {
            if !estimators.contains(&r.estimator.as_str()) {
                estimators.push(&r.estimator);
            }
        }
        let quality_falls = estimators.iter().all(|est| {
            let q: Vec<f64> = self
                .rows
                .iter()
                .filter(|r| r.estimator == *est)
                .map(|r| r.pvn * r.spec)
                .collect();
            q.len() >= 2
                && q.windows(2).all(|w| w[1] <= w[0] * QUALITY_SLACK)
                && q[q.len() - 1] < q[0]
        });
        let perceptron_ipc_falls = {
            let rs: Vec<&FaultRow> = self
                .rows
                .iter()
                .filter(|r| r.estimator == "perceptron")
                .collect();
            rs.len() >= 2
                && rs
                    .windows(2)
                    .all(|w| w[1].ipc_loss >= w[0].ipc_loss - IPC_TOL)
                && rs.last().expect("non-empty").ipc_loss > 0.0
        };
        quality_falls && perceptron_ipc_falls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_seed_is_deterministic_and_distinguishes_cells() {
        let a = cell_seed(7, "gcc", "jrs", 1);
        assert_eq!(a, cell_seed(7, "gcc", "jrs", 1));
        assert_ne!(a, cell_seed(7, "gcc", "jrs", 2));
        assert_ne!(a, cell_seed(7, "mcf", "jrs", 1));
        assert_ne!(a, cell_seed(7, "gcc", "perceptron", 1));
        assert_ne!(a, cell_seed(8, "gcc", "jrs", 1));
    }

    #[test]
    fn cell_content_digest_separates_every_input_axis() {
        let base = cell_content_digest(7, Scale::tiny(), "jrs", "gcc", 1, 1e-4);
        assert_eq!(
            base,
            cell_content_digest(7, Scale::tiny(), "jrs", "gcc", 1, 1e-4)
        );
        assert_ne!(
            base,
            cell_content_digest(8, Scale::tiny(), "jrs", "gcc", 1, 1e-4)
        );
        assert_ne!(
            base,
            cell_content_digest(7, Scale::full(), "jrs", "gcc", 1, 1e-4)
        );
        assert_ne!(
            base,
            cell_content_digest(7, Scale::tiny(), "perceptron", "gcc", 1, 1e-4)
        );
        assert_ne!(
            base,
            cell_content_digest(7, Scale::tiny(), "jrs", "mcf", 1, 1e-4)
        );
        assert_ne!(
            base,
            cell_content_digest(7, Scale::tiny(), "jrs", "gcc", 2, 1e-4)
        );
        // Same index, different rate value: a grid redefinition must
        // never serve the old grid's cached bytes.
        assert_ne!(
            base,
            cell_content_digest(7, Scale::tiny(), "jrs", "gcc", 1, 2e-4)
        );
    }

    #[test]
    fn zero_rate_cell_reproduces_the_unwrapped_baseline_exactly() {
        let scale = Scale::tiny();
        let cell = run_cell(
            "gcc",
            "perceptron",
            0.0,
            42,
            scale,
            &CheckpointCell::disabled(),
        );
        // Unwrapped reference, same workload and scale.
        let wl = perconf_workload::spec2000_config("gcc").unwrap();
        let mut p = baseline_bimodal_gshare();
        let mut e = PerceptronCe::new(PerceptronCeConfig::default());
        let (cm, _) = trace_eval(
            &wl,
            &mut p,
            &mut e,
            scale.warmup_branches,
            scale.run_branches,
            None,
        );
        assert!((cell.pvn - cm.pvn() * 100.0).abs() < 1e-12);
        assert!((cell.spec - cm.spec() * 100.0).abs() < 1e-12);
        assert!((cell.miss_rate - cm.misprediction_rate() * 100.0).abs() < 1e-12);
        let mk_ctl = || {
            SpeculationController::new(
                Box::new(baseline_bimodal_gshare()) as Box<dyn SimPredictor>,
                Box::new(PerceptronCe::new(PerceptronCeConfig::default())) as Box<dyn SimEstimator>,
            )
        };
        let stats =
            crate::common::run_pipeline(&wl, PipelineConfig::deep().gated(1), mk_ctl(), scale);
        assert!((cell.ipc - stats.ipc()).abs() < 1e-12);
        assert_eq!(cell.faults_predictor, 0);
        assert_eq!(cell.faults_estimator, 0);
    }

    #[test]
    fn heavy_faults_degrade_the_predictor() {
        let scale = Scale::tiny();
        let clean = run_cell("gcc", "jrs", 0.0, 9, scale, &CheckpointCell::disabled());
        let dirty = run_cell("gcc", "jrs", 1e-2, 9, scale, &CheckpointCell::disabled());
        assert!(dirty.faults_predictor > 0);
        assert!(
            dirty.miss_rate > clean.miss_rate,
            "dirty {} vs clean {}",
            dirty.miss_rate,
            clean.miss_rate
        );
    }

    #[test]
    fn headline_requires_quality_collapse_and_perceptron_ipc_loss() {
        let row = |est: &str, rate: f64, pvn: f64, spec: f64, ipc_loss: f64| FaultRow {
            estimator: est.to_owned(),
            rate,
            pvn,
            spec,
            miss_rate: 5.0,
            ipc_loss,
        };
        let mut t = FaultTable {
            seed: 0,
            rows: vec![
                row("perceptron", 0.0, 54.0, 18.0, 0.0),
                row("perceptron", 1e-1, 27.0, 21.0, 8.0),
                row("jrs", 0.0, 34.0, 48.0, 0.0),
                row("jrs", 1e-1, 35.0, 38.0, -2.0),
            ],
            cells: Vec::new(),
            failed: Vec::new(),
            counters: CounterSnapshot::default(),
        };
        // The real shape: perceptron degrades everywhere, JRS loses
        // coverage (quality falls) while its machine speeds up.
        assert!(t.degrades_monotonically());
        // Perceptron machine speeding up breaks the headline.
        t.rows[1].ipc_loss = -1.0;
        assert!(!t.degrades_monotonically());
        t.rows[1].ipc_loss = 8.0;
        // JRS quality *improving* breaks it too.
        t.rows[3].spec = 60.0;
        assert!(!t.degrades_monotonically());
    }

    #[test]
    fn aggregate_groups_by_estimator_and_rate() {
        let mk = |est: &str, bench: &str, rate: f64, ipc: f64| FaultCell {
            benchmark: bench.to_owned(),
            estimator: est.to_owned(),
            rate,
            pvn: 50.0,
            spec: 30.0,
            miss_rate: 5.0,
            ipc,
            faults_predictor: 0,
            faults_estimator: 0,
            counters: CounterSnapshot::default(),
        };
        let cells = vec![
            mk("jrs", "gcc", 0.0, 2.0),
            mk("jrs", "gcc", 1e-2, 1.5),
            mk("jrs", "mcf", 0.0, 1.0),
            mk("jrs", "mcf", 1e-2, 0.8),
        ];
        let rows = aggregate(&Grid::full(), &cells);
        assert_eq!(rows.len(), 2);
        let dirty = rows.iter().find(|r| r.rate == 1e-2).unwrap();
        // Mean of 25% and 20% loss.
        assert!((dirty.ipc_loss - 22.5).abs() < 1e-9);
        let clean = rows.iter().find(|r| r.rate == 0.0).unwrap();
        assert!(clean.ipc_loss.abs() < 1e-12);
    }
}
