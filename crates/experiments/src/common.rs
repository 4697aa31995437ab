//! Shared infrastructure for the experiment drivers: run scales,
//! controller construction, trace-level estimator evaluation, and
//! full-pipeline gating runs.

use crate::runner::CheckpointCell;
use perconf_bpred::{
    baseline_bimodal_gshare, gshare_perceptron, BranchPredictor, SimPredictor, Snapshot,
};
use perconf_core::{
    ConfidenceEstimator, EstimateCtx, JrsConfig, JrsEstimator, PerceptronCe, PerceptronCeConfig,
    PerceptronTnt, PerceptronTntConfig, SimEstimator, SpeculationController,
};
use perconf_metrics::{ConfusionMatrix, DensityPair};
use perconf_obs::{Profiler, TraceEvent, Tracer};
use perconf_pipeline::{BatchSim, Controller, PipelineConfig, SimError, SimStats, Simulation};
use perconf_workload::{spec2000, WorkloadConfig, WorkloadGenerator};
use serde::{Deserialize, Serialize, Value};

/// How much work each experiment does. The paper runs 2 × 30M-uop
/// traces per benchmark; the default scale here is chosen so the full
/// experiment suite finishes in minutes while staying past the
/// predictors' warm-up knee.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Scale {
    /// Pipeline-run warm-up uops (stats reset afterwards).
    pub warmup_uops: u64,
    /// Pipeline-run measured uops.
    pub run_uops: u64,
    /// Trace-level (no pipeline) warm-up branches.
    pub warmup_branches: u64,
    /// Trace-level measured branches.
    pub run_branches: u64,
}

impl Scale {
    /// Fast scale for interactive runs and benches.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            warmup_uops: 150_000,
            run_uops: 350_000,
            warmup_branches: 150_000,
            run_branches: 400_000,
        }
    }

    /// Full scale, closer to the paper's trace lengths.
    #[must_use]
    pub fn full() -> Self {
        Self {
            warmup_uops: 1_000_000,
            run_uops: 3_000_000,
            warmup_branches: 500_000,
            run_branches: 2_000_000,
        }
    }

    /// Tiny scale for unit tests of the drivers themselves.
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            warmup_uops: 20_000,
            run_uops: 40_000,
            warmup_branches: 20_000,
            run_branches: 40_000,
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Self::quick()
    }
}

/// Process-wide worker-thread count for the data-parallel experiment
/// stages ([`BaselineSet`], [`par_map_ordered`] call sites). The
/// binaries set it once from `--jobs`; the default of 1 keeps library
/// and test behaviour single-threaded unless explicitly raised.
static JOBS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(1);

/// Sets the process-wide experiment parallelism (clamped to ≥ 1).
pub fn set_jobs(n: usize) {
    JOBS.store(n.max(1), std::sync::atomic::Ordering::SeqCst);
}

/// The current process-wide experiment parallelism.
#[must_use]
pub fn jobs() -> usize {
    JOBS.load(std::sync::atomic::Ordering::SeqCst)
}

/// Process-wide observability context: one [`Tracer`] ring and one
/// [`Profiler`] table shared by every simulation the experiment
/// drivers build, whatever worker thread it runs on. Both start
/// disabled (level `Off`, profiling off), so library and test runs pay
/// one relaxed atomic load per guard and nothing else; the binaries
/// turn them on from `--trace-out` / `--profile`.
static OBS: std::sync::OnceLock<(Tracer, Profiler)> = std::sync::OnceLock::new();

fn obs() -> &'static (Tracer, Profiler) {
    OBS.get_or_init(|| (Tracer::new(), Profiler::default()))
}

/// The process-wide tracer every driver-built simulation records into.
#[must_use]
pub fn tracer() -> &'static Tracer {
    &obs().0
}

/// An owned handle on the process-wide tracer, for attaching to a
/// simulation.
// With the `trace` feature off the handle is a `Copy` ZST and this
// clone is flagged as redundant; with the feature on it is an `Arc`
// clone and required. One allow here keeps the call sites identical
// in both builds.
#[allow(clippy::clone_on_copy)]
fn tracer_handle() -> Tracer {
    tracer().clone()
}

/// The process-wide profiler every driver-built simulation and
/// experiment phase reports into.
#[must_use]
pub fn profiler() -> &'static Profiler {
    &obs().1
}

/// Maps `f` over `items` on up to `jobs` scoped worker threads and
/// returns the outputs **in input order** — the parallel analogue of
/// `items.iter().map(f).collect()`, deterministic by construction:
/// output slot `i` only ever holds `f(&items[i])`, whatever order the
/// workers claim indices in. A panic in `f` propagates to the caller
/// (use the [`runner::Scheduler`](crate::runner::Scheduler) when cells
/// need isolation instead).
pub fn par_map_ordered<I, O, F>(jobs: usize, items: &[I], f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs <= 1 {
        return items.iter().map(f).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<Option<O>>> =
        items.iter().map(|_| std::sync::Mutex::new(None)).collect();
    let (f, next, slots_ref) = (&f, &next, &slots);
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(move || loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                if i >= items.len() {
                    break;
                }
                let out = f(&items[i]);
                *slots_ref[i].lock().expect("slot lock") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot lock")
                .expect("every index is produced exactly once")
        })
        .collect()
}

/// Which baseline branch predictor a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PredictorKind {
    /// Table 1 baseline: 16K bimodal + 64K gshare + 64K meta.
    BimodalGshare,
    /// §5.2: 64K gshare + perceptron + 64K meta.
    GsharePerceptron,
}

impl PredictorKind {
    /// Builds the predictor.
    #[must_use]
    pub fn build(self) -> Box<dyn SimPredictor> {
        match self {
            PredictorKind::BimodalGshare => Box::new(baseline_bimodal_gshare()),
            PredictorKind::GsharePerceptron => Box::new(gshare_perceptron()),
        }
    }
}

/// Builds a pipeline controller from a predictor kind and estimator.
#[must_use]
pub fn controller(kind: PredictorKind, est: Box<dyn SimEstimator>) -> Controller {
    SpeculationController::new(kind.build(), est)
}

/// The paper's 4 KB enhanced-JRS estimator at threshold λ.
#[must_use]
pub fn jrs(lambda: u8) -> Box<dyn SimEstimator> {
    Box::new(JrsEstimator::new(JrsConfig {
        lambda,
        ..JrsConfig::default()
    }))
}

/// The paper's 4 KB perceptron estimator (`perceptron_cic`) at
/// threshold λ, binary classification (no reversal region).
#[must_use]
pub fn perceptron(lambda: i32) -> Box<dyn SimEstimator> {
    Box::new(PerceptronCe::new(PerceptronCeConfig {
        lambda,
        ..PerceptronCeConfig::default()
    }))
}

/// The §5.3 straw man: confidence from a direction-trained perceptron.
#[must_use]
pub fn perceptron_tnt(lambda: i32) -> Box<dyn SimEstimator> {
    Box::new(PerceptronTnt::new(PerceptronTntConfig {
        lambda,
        ..PerceptronTntConfig::default()
    }))
}

/// The twelve benchmark workloads.
#[must_use]
pub fn benchmarks() -> Vec<WorkloadConfig> {
    spec2000()
}

/// A reseeded copy of a workload: same calibrated structure, fresh
/// program instantiation and outcome randomness. Used for multi-seed
/// variance estimates (the `seed_variance` example).
#[must_use]
pub fn reseed(cfg: &WorkloadConfig, run: u64) -> WorkloadConfig {
    let mut c = cfg.clone();
    c.seed ^= 0xA5A5_0000 ^ (run.wrapping_mul(0x9E37_79B9));
    c
}

/// Trace-level evaluation of a (predictor, estimator) pair: runs the
/// branch stream without the pipeline, training both structures
/// in order (equivalent to the simulator's non-speculative retirement
/// training). Returns the PVN/Spec confusion quadrants and, when a
/// range is given, the estimator-output density pair of Figures 4–7.
pub fn trace_eval(
    wl: &WorkloadConfig,
    predictor: &mut dyn BranchPredictor,
    estimator: &mut dyn ConfidenceEstimator,
    warmup_branches: u64,
    run_branches: u64,
    density: Option<(i64, i64, u32)>,
) -> (ConfusionMatrix, Option<DensityPair>) {
    let mut gen = WorkloadGenerator::new(wl);
    let mut cm = ConfusionMatrix::new();
    let mut dens = density.map(|(lo, hi, bin)| DensityPair::new(lo, hi, bin));
    let mut hist = 0u64;
    let mut seen = 0u64;
    while seen < warmup_branches + run_branches {
        let u = gen.next_uop();
        let Some(b) = u.branch else { continue };
        seen += 1;
        let predicted_taken = predictor.predict(b.pc, hist);
        let ctx = EstimateCtx {
            pc: b.pc,
            history: hist,
            predicted_taken,
        };
        let est = estimator.estimate(&ctx);
        let mispredicted = predicted_taken != b.taken;
        if seen > warmup_branches {
            cm.record(mispredicted, est.is_low());
            if let Some(d) = &mut dens {
                d.add(i64::from(est.raw), mispredicted);
            }
        }
        predictor.train(b.pc, hist, b.taken);
        estimator.train(&ctx, est, mispredicted);
        hist = (hist << 1) | u64::from(b.taken);
    }
    (cm, dens)
}

/// Result of one (baseline, variant) pipeline comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GatingOutcome {
    /// Fractional reduction in total uops *executed* (issued to
    /// functional units), the paper's `U`.
    pub u_executed: f64,
    /// Fractional reduction in total uops *fetched* — the quantity
    /// gating controls directly; reported alongside `U` because our
    /// substrate's backend is more drain-limited than the paper's
    /// (see EXPERIMENTS.md).
    pub u_fetched: f64,
    /// Fractional performance loss (positive = slower), the paper's
    /// `P`. Negative values are speed-ups (possible with reversal).
    pub perf_loss: f64,
}

/// Precomputed ungated baseline runs, one per benchmark, reusable
/// across the many gated design points of Tables 4–6.
#[derive(Debug, Clone)]
pub struct BaselineSet {
    pipe: PipelineConfig,
    scale: Scale,
    runs: Vec<(WorkloadConfig, SimStats)>,
}

impl BaselineSet {
    /// Runs the ungated baseline (given predictor, no estimator) for
    /// every benchmark on `pipe`.
    #[must_use]
    pub fn build(kind: PredictorKind, pipe: PipelineConfig, scale: Scale) -> Self {
        Self::build_on(kind, pipe, scale, benchmarks())
    }

    /// Like [`build`](Self::build) but over an explicit benchmark
    /// subset (reduced-scale golden tests, focused studies). Baselines
    /// run on up to [`jobs`] worker threads; results keep the given
    /// benchmark order.
    #[must_use]
    pub fn build_on(
        kind: PredictorKind,
        pipe: PipelineConfig,
        scale: Scale,
        benchmarks: Vec<WorkloadConfig>,
    ) -> Self {
        let stats = par_map_ordered(jobs(), &benchmarks, |wl| {
            let ctl = controller(kind, Box::new(perconf_core::AlwaysHigh));
            run_pipeline(wl, pipe, ctl, scale)
        });
        let runs = benchmarks.into_iter().zip(stats).collect();
        Self { pipe, scale, runs }
    }

    /// The pipeline configuration the baselines ran on.
    #[must_use]
    pub fn pipe(&self) -> PipelineConfig {
        self.pipe
    }

    /// Baseline stats per benchmark.
    #[must_use]
    pub fn runs(&self) -> &[(WorkloadConfig, SimStats)] {
        &self.runs
    }

    /// Runs one gated/variant configuration for every benchmark and
    /// returns the mean outcome against the cached baselines, plus the
    /// per-benchmark outcomes and variant stats. Per-benchmark runs
    /// fan out over [`jobs`] worker threads; the returned vectors keep
    /// benchmark order, so the result is identical at any job count
    /// (`mk_variant` builds a fresh controller per benchmark and must
    /// not depend on call order).
    pub fn evaluate(
        &self,
        variant_cfg: PipelineConfig,
        mk_variant: impl Fn() -> Controller + Sync,
    ) -> (GatingOutcome, Vec<(GatingOutcome, SimStats)>) {
        let per: Vec<(GatingOutcome, SimStats)> =
            par_map_ordered(jobs(), &self.runs, |(wl, base)| {
                let var = run_pipeline(wl, variant_cfg, mk_variant(), self.scale);
                (outcome(base, &var), var)
            });
        let m = |f: &dyn Fn(&GatingOutcome) -> f64| {
            let xs: Vec<f64> = per.iter().map(|(o, _)| f(o)).collect();
            xs.iter().sum::<f64>() / xs.len().max(1) as f64
        };
        (
            GatingOutcome {
                u_executed: m(&|o| o.u_executed),
                u_fetched: m(&|o| o.u_fetched),
                perf_loss: m(&|o| o.perf_loss),
            },
            per,
        )
    }
}

/// Runs one benchmark through the pipeline at the given scale.
#[must_use]
pub fn run_pipeline(
    wl: &WorkloadConfig,
    cfg: PipelineConfig,
    ctl: Controller,
    scale: Scale,
) -> SimStats {
    let mut sim = Simulation::new(cfg, wl, ctl);
    sim.set_tracer(tracer_handle());
    sim.set_profiler(profiler().clone());
    {
        let _s = profiler().scope("phase/warmup");
        sim.warmup(scale.warmup_uops);
    }
    let _s = profiler().scope("phase/run");
    sim.run(scale.run_uops).clone()
}

/// A fresh simulation attached to the process-wide tracer and
/// profiler.
fn observed_sim(cfg: PipelineConfig, wl: &WorkloadConfig, ctl: Controller) -> Simulation {
    let mut sim = Simulation::new(cfg, wl, ctl);
    sim.set_tracer(tracer_handle());
    sim.set_profiler(profiler().clone());
    sim
}

/// Phases a checkpointed pipeline run moves through, recorded in the
/// mid-run snapshot so a resume knows where it was.
const PHASE_WARMUP: u64 = 0;
const PHASE_RUN: u64 = 1;

/// Restores `sim` from a stored `{phase, sim}` checkpoint and returns
/// the phase it was taken in.
fn restore_checkpoint(sim: &mut Simulation, saved: &Value) -> Result<u64, String> {
    let phase: u64 = serde::field(saved, "phase").map_err(|e| e.to_string())?;
    let state = saved
        .get("sim")
        .ok_or_else(|| "checkpoint missing `sim`".to_owned())?;
    sim.restore_state(state).map_err(|e| e.to_string())?;
    Ok(phase)
}

/// One member of a checkpointed pipeline run: the workload, its
/// controller factory, and the checkpoint cell that persists its
/// mid-run state (pass [`CheckpointCell::disabled`] for none).
pub struct BatchMember<'a> {
    /// Workload to simulate.
    pub wl: &'a WorkloadConfig,
    /// Controller factory — called once up front and again if a bad
    /// checkpoint forces a rebuild.
    pub mk_ctl: Box<dyn Fn() -> Controller + 'a>,
    /// Per-member mid-run checkpoint store.
    pub cell: &'a CheckpointCell,
}

/// The checkpointed pipeline driver: like [`run_pipeline`] for every
/// member, advanced through one interleaved cycle loop ([`BatchSim`]),
/// snapshotting each member into its `cell` every `interval` retired
/// uops and resuming from whatever the cell last stored. A sequential
/// run is a one-member call.
///
/// A member's snapshot captures the full machine (workload cursor,
/// predictor/estimator, caches, ROB, stats) tagged with its
/// warmup/run phase. A checkpoint that fails integrity checks or was
/// taken under a different pipeline configuration is discarded and
/// the member starts from scratch. A member whose cell does not
/// persist builds no snapshot at all.
///
/// # Determinism contract
///
/// Member `i`'s final stats, state digest, and counters are
/// byte-identical to an uninterrupted [`run_pipeline`] of the same
/// workload and scale — for every batch width, member order, and
/// checkpoint interval, with faults injected and counters/tracing
/// enabled, and whether or not it was killed and resumed. A member's
/// stored checkpoints depend only on its own run, so a batch killed
/// mid-flight leaves per-member `.part` checkpoints that a run of any
/// width can continue.
///
/// Errors are isolated per member: a member that stalls or breaks an
/// invariant carries `Err` in its slot while the rest run to
/// completion.
pub fn run_pipeline_checkpointed_batch(
    members: &[BatchMember<'_>],
    cfg: PipelineConfig,
    scale: Scale,
    interval: u64,
) -> Vec<Result<Simulation, SimError>> {
    let interval = interval.max(1);
    let n = members.len();
    let mut phases = Vec::with_capacity(n);
    let mut sims = Vec::with_capacity(n);
    for m in members {
        let mut sim = observed_sim(cfg, m.wl, (m.mk_ctl)());
        let mut phase = PHASE_WARMUP;
        if let Some(saved) = m.cell.load() {
            match restore_checkpoint(&mut sim, &saved) {
                Ok(p) => phase = p,
                Err(e) => {
                    // A restore can die partway and leave mixed state;
                    // rebuild rather than trust it.
                    eprintln!("warning: discarding unusable mid-run checkpoint: {e}");
                    sim = observed_sim(cfg, m.wl, (m.mk_ctl)());
                }
            }
        }
        phases.push(phase);
        sims.push(sim);
    }
    let checkpoint = |sim: &Simulation, cell: &CheckpointCell, phase: u64| {
        // Nothing would keep a snapshot of a cell that does not
        // persist, so none is built.
        if cell.path().is_none() {
            return;
        }
        if tracer().enabled() {
            tracer().record(TraceEvent::CheckpointWrite {
                retired: sim.stats().retired,
                phase,
            });
        }
        let _s = profiler().scope("phase/checkpoint");
        cell.store(&Value::Object(vec![
            ("phase".into(), Value::UInt(phase)),
            ("sim".into(), sim.save_state()),
        ]));
    };
    let mut batch = BatchSim::new(sims);
    let mut outcome: Vec<Option<SimError>> = (0..n).map(|_| None).collect();
    let mut done = vec![false; n];
    loop {
        // One interleaved leg: each live member advances by its next
        // chunk, `interval.min(remaining)` of its current phase, then
        // checkpoints at that boundary.
        let live: Vec<usize> = (0..n)
            .filter(|&i| !done[i] && outcome[i].is_none())
            .collect();
        let mut uops = vec![0u64; n];
        for &i in &live {
            let target = if phases[i] == PHASE_WARMUP {
                scale.warmup_uops
            } else {
                scale.run_uops
            };
            uops[i] = interval.min(target.saturating_sub(batch.get(i).stats().retired));
        }
        let results = {
            let phase = if live.iter().all(|&i| phases[i] == PHASE_WARMUP) {
                "phase/warmup"
            } else {
                "phase/run"
            };
            let _s = profiler().scope(phase);
            batch.try_run_each(&uops)
        };
        let mut progressed = false;
        for &i in &live {
            if let Err(e) = &results[i] {
                outcome[i] = Some(*e);
                continue;
            }
            progressed = true;
            let m = &members[i];
            if phases[i] == PHASE_WARMUP {
                // A zero-size leg (member restored at or past its
                // warmup target) stores nothing but still owes the
                // phase transition below.
                if uops[i] > 0 {
                    checkpoint(batch.get(i), m.cell, PHASE_WARMUP);
                }
                if batch.get(i).stats().retired >= scale.warmup_uops {
                    // Ends the warmup phase: resets stats.
                    if let Err(e) = batch.get_mut(i).try_warmup(0) {
                        outcome[i] = Some(e);
                        continue;
                    }
                    checkpoint(batch.get(i), m.cell, PHASE_RUN);
                    phases[i] = PHASE_RUN;
                }
            } else if batch.get(i).stats().retired < scale.run_uops {
                checkpoint(batch.get(i), m.cell, PHASE_RUN);
            } else {
                m.cell.clear();
                done[i] = true;
            }
        }
        if (0..n).all(|i| done[i] || outcome[i].is_some()) {
            break;
        }
        assert!(progressed, "batched run loop made no progress");
    }
    batch
        .into_sims()
        .into_iter()
        .zip(outcome)
        .map(|(sim, err)| match err {
            None => Ok(sim),
            Some(e) => Err(e),
        })
        .collect()
}

/// Derives the paper's `U`/`P` metrics from a baseline and a variant
/// run of the same workload amount.
#[must_use]
pub fn outcome(base: &SimStats, var: &SimStats) -> GatingOutcome {
    let fetched = |s: &SimStats| (s.fetched_correct + s.fetched_wrong) as f64;
    GatingOutcome {
        u_executed: 1.0 - var.executed_total() as f64 / base.executed_total() as f64,
        u_fetched: 1.0 - fetched(var) / fetched(base),
        perf_loss: var.cycles as f64 / base.cycles as f64 - 1.0,
    }
}

/// Formats a fraction as a signed percentage with one decimal.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.1}", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::tiny().run_uops < Scale::quick().run_uops);
        assert!(Scale::quick().run_uops < Scale::full().run_uops);
    }

    #[test]
    fn trace_eval_counts_requested_branches() {
        let wl = perconf_workload::spec2000_config("gcc").unwrap();
        let mut p = baseline_bimodal_gshare();
        let mut ce = JrsEstimator::new(JrsConfig::default());
        let (cm, d) = trace_eval(&wl, &mut p, &mut ce, 1_000, 5_000, Some((-10, 10, 5)));
        assert_eq!(cm.total(), 5_000);
        let d = d.unwrap();
        assert_eq!(d.correct.count() + d.mispredicted.count(), cm.total());
        assert_eq!(d.mispredicted.count(), cm.mispredicted());
    }

    #[test]
    fn outcome_signs() {
        let base = SimStats {
            executed_correct: 1000,
            executed_wrong: 500,
            fetched_correct: 1000,
            fetched_wrong: 800,
            cycles: 1000,
            ..SimStats::default()
        };
        let mut var = base.clone();
        var.executed_wrong = 200;
        var.fetched_wrong = 300;
        var.cycles = 1050;
        let o = outcome(&base, &var);
        assert!(o.u_executed > 0.0);
        assert!(o.u_fetched > 0.0);
        assert!((o.perf_loss - 0.05).abs() < 1e-12);
    }

    #[test]
    fn estimator_factories_have_expected_storage() {
        assert_eq!(jrs(7).storage_bits(), 8 * 1024 * 4);
        assert_eq!(perceptron(0).storage_bits(), 128 * 33 * 8);
        assert_eq!(perceptron_tnt(30).storage_bits(), 128 * 33 * 8);
    }

    /// A one-member call of the checkpointed driver.
    fn run_checkpointed(
        wl: &WorkloadConfig,
        cfg: PipelineConfig,
        mk_ctl: impl Fn() -> Controller,
        scale: Scale,
        cell: &CheckpointCell,
        interval: u64,
    ) -> Result<Simulation, SimError> {
        let member = BatchMember {
            wl,
            mk_ctl: Box::new(mk_ctl),
            cell,
        };
        run_pipeline_checkpointed_batch(std::slice::from_ref(&member), cfg, scale, interval)
            .pop()
            .expect("one member in, one result out")
    }

    fn tmp_cell(tag: &str) -> (std::path::PathBuf, CheckpointCell) {
        let dir =
            std::env::temp_dir().join(format!("perconf-common-chk-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cell = CheckpointCell::at(dir.join("cell.part.psnap"));
        (dir, cell)
    }

    #[test]
    fn checkpointed_run_matches_the_plain_run() {
        let wl = perconf_workload::spec2000_config("gcc").unwrap();
        let scale = Scale::tiny();
        let cfg = PipelineConfig::with_depth_width(20, 4);
        let mk = || controller(PredictorKind::BimodalGshare, perceptron(14));
        let plain = run_pipeline(&wl, cfg, mk(), scale);
        let (dir, cell) = tmp_cell("match");
        let sim = run_checkpointed(&wl, cfg, mk, scale, &cell, 7_000).unwrap();
        assert_eq!(sim.stats(), &plain, "chunked run must be bit-identical");
        assert!(
            cell.path().is_none_or(|p| !p.exists()),
            "completed run clears its partial checkpoint"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn killed_mid_cell_run_resumes_to_identical_stats_and_digest() {
        let wl = perconf_workload::spec2000_config("twolf").unwrap();
        let scale = Scale::tiny();
        let cfg = PipelineConfig::with_depth_width(20, 4);
        let mk = || controller(PredictorKind::BimodalGshare, perceptron(14));

        // Reference: one uninterrupted checkpointed run.
        let (dir_a, cell_a) = tmp_cell("ref");
        let reference = run_checkpointed(&wl, cfg, mk, scale, &cell_a, 9_000).unwrap();

        // "Killed" run: advance part-way through the measured phase,
        // store a mid-run checkpoint exactly as the driver does, then
        // drop the simulation — the moral equivalent of SIGKILL.
        let (dir_b, cell_b) = tmp_cell("killed");
        {
            let mut sim = Simulation::new(cfg, &wl, mk());
            sim.warmup(scale.warmup_uops);
            sim.try_run(scale.run_uops / 3).unwrap();
            cell_b.store(&Value::Object(vec![
                ("phase".into(), Value::UInt(super::PHASE_RUN)),
                ("sim".into(), sim.save_state()),
            ]));
        }
        let resumed = run_checkpointed(&wl, cfg, mk, scale, &cell_b, 9_000).unwrap();
        assert_eq!(resumed.stats(), reference.stats());
        assert_eq!(resumed.state_digest(), reference.state_digest());
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn corrupt_mid_run_checkpoint_degrades_to_a_from_scratch_run() {
        let wl = perconf_workload::spec2000_config("gcc").unwrap();
        let scale = Scale::tiny();
        let cfg = PipelineConfig::with_depth_width(20, 4);
        let mk = || controller(PredictorKind::BimodalGshare, jrs(7));
        let plain = run_pipeline(&wl, cfg, mk(), scale);
        let (dir, cell) = tmp_cell("corrupt");
        // A syntactically valid snapfile whose payload is not a
        // simulation snapshot: survives the container checks, fails
        // restore, and must trigger the rebuild path.
        crate::snapfile::write(
            cell.path().unwrap(),
            &Value::Object(vec![
                ("phase".into(), Value::UInt(super::PHASE_RUN)),
                (
                    "sim".into(),
                    Value::Object(vec![("bogus".into(), Value::Null)]),
                ),
            ]),
        )
        .unwrap();
        let sim = run_checkpointed(&wl, cfg, mk, scale, &cell, 11_000).unwrap();
        assert_eq!(sim.stats(), &plain);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
