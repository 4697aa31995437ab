//! Layer probes: re-drive a workload's own inputs through each inner
//! module's public functions and time them from outside. Nothing here
//! instruments the program; every number is a host-time measurement
//! of one public call (or a loop of them) on the workload's machine.

use crate::stats::median;
use perconf_bpred::{baseline_bimodal_gshare, Bimodal, BranchPredictor, Gshare, Hybrid, Snapshot};
use perconf_core::{
    ConfidenceEstimator, EstimateCtx, FaultableEstimator, JrsConfig, JrsEstimator, PerceptronCe,
    PerceptronCeConfig,
};
use perconf_experiments::common::trace_eval;
use perconf_experiments::{snapfile, Scale};
use perconf_faults::{FaultConfig, FaultyEstimator, FaultyPredictor};
use perconf_metrics::ConfusionMatrix;
use perconf_obs::CounterSnapshot;
use perconf_pipeline::{BatchSim, Controller, PipelineConfig, SimStats, Simulation};
use perconf_workload::{WorkloadConfig, WorkloadGenerator};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Timed repetitions of each short probe, after one untimed call that
/// takes first-touch costs (page faults, buffer growth) out of the
/// median.
const SHORT_REPS: usize = 5;

/// Builds one simulation's controller.
pub type MkCtl = Box<dyn Fn() -> Controller + Sync>;

/// One simulation a workload runs: its benchmark, pipeline and
/// controller.
pub struct Sim {
    pub wl: WorkloadConfig,
    pub cfg: PipelineConfig,
    pub mk_ctl: MkCtl,
}

impl Sim {
    fn build(&self) -> Simulation {
        Simulation::new(self.cfg, &self.wl, (self.mk_ctl)())
    }
}

/// The machine a workload simulates: what the probes re-drive.
pub struct Machine {
    /// Every simulation one operation of the workload runs, as the
    /// driver builds it. The first one's benchmark is the reference of
    /// the generator, branch and trace-leg probes.
    pub sims: Vec<Sim>,
    /// The workload's deepest pipeline, for the snapshot probes.
    pub snapshot_cfg: PipelineConfig,
    /// The workload's scale.
    pub scale: Scale,
    /// Simulations the workload runs at once.
    pub jobs: usize,
    /// Estimator, fault rate and cell seed of the trace-level leg
    /// (`faults.trace_leg_s`).
    pub fault: (String, f64, u64),
    /// Members of the `BatchSim` probe.
    pub batch_width: usize,
}

impl Machine {
    fn wl(&self) -> &WorkloadConfig {
        &self.sims[0].wl
    }
}

/// Everything the probes measure, in host units.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    pub ns_per_uop: f64,
    pub batch_ns_per_uop: f64,
    /// Simulated cycles, and the shares of wrong-path fetches and gated
    /// cycles, over every simulation of one operation.
    pub cycles: u64,
    pub wrong_path_fetch_frac: f64,
    pub gated_cycle_frac: f64,
    /// Retired conditional branches per retired uop on the machine.
    pub branches_per_uop: f64,
    pub save_ms: f64,
    pub encode_ms: f64,
    pub bytes: u64,
    pub restore_ms: f64,
    pub digest_ms: f64,
    pub write_ms: f64,
    pub read_ms: f64,
    pub workload_ns_per_uop: f64,
    pub bpred_ns_per_branch: f64,
    pub mispredict_frac: f64,
    pub perceptron_ns_per_branch: f64,
    pub jrs_ns_per_branch: f64,
    pub perceptron_pvn: f64,
    pub perceptron_spec: f64,
    pub trace_leg_s: f64,
    pub counters_ms: f64,
    /// `Ping` round trip on the workload's server (serve only).
    pub ping_ms: f64,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median milliseconds of `SHORT_REPS` calls of `f`, after one
/// untimed call.
fn median_ms(mut f: impl FnMut()) -> f64 {
    f();
    let xs: Vec<f64> = (0..SHORT_REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            ms_since(t)
        })
        .collect();
    median(&xs).expect("SHORT_REPS > 0")
}

/// Runs every probe on `m`, using `dir` for the snapfile probe.
///
/// # Errors
///
/// Returns a message if the simulation fails, a snapfile round trip
/// does not give back the saved state, or a restore is rejected.
pub fn run(m: &Machine, dir: &Path) -> Result<Probes, String> {
    let mut p = Probes::default();
    let (w, r) = (m.scale.warmup_uops, m.scale.run_uops);

    // Pipeline: plain warm-up + run of every simulation of one
    // operation, no checkpointing, `jobs` at a time as the workload runs
    // them, so the per-uop cost includes the contention it meets.
    let mut thread_s = 0.0;
    let (mut fetched, mut fetched_wrong, mut gated, mut branches, mut retired) = (0, 0, 0, 0, 0);
    for group in (0..m.sims.len()).collect::<Vec<_>>().chunks(m.jobs.max(1)) {
        let runs: Vec<Result<(f64, SimStats), String>> = std::thread::scope(|s| {
            let handles: Vec<_> = group
                .iter()
                .map(|&i| {
                    s.spawn(move || {
                        let mut sim = m.sims[i].build();
                        let t = Instant::now();
                        sim.try_warmup(w).map_err(|e| e.to_string())?;
                        sim.try_run(r).map_err(|e| e.to_string())?;
                        Ok((t.elapsed().as_secs_f64(), sim.stats().clone()))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .map_err(|_| "probe simulation panicked".to_owned())?
                })
                .collect()
        });
        for run in runs {
            let (secs, s) = run?;
            thread_s += secs;
            p.cycles += s.cycles;
            fetched += s.fetched_correct + s.fetched_wrong;
            fetched_wrong += s.fetched_wrong;
            gated += s.gated_cycles;
            branches += s.branches_retired;
            retired += s.retired;
        }
    }
    p.ns_per_uop = thread_s * 1e9 / ((w + r) * m.sims.len() as u64) as f64;
    p.wrong_path_fetch_frac = fetched_wrong as f64 / fetched.max(1) as f64;
    p.gated_cycle_frac = gated as f64 / p.cycles.max(1) as f64;
    p.branches_per_uop = branches as f64 / retired.max(1) as f64;

    // Snapshots of the reference benchmark on the deepest machine,
    // half-way through its run.
    let snapshot_sim = || Simulation::new(m.snapshot_cfg, m.wl(), (m.sims[0].mk_ctl)());
    let mut sim = snapshot_sim();
    sim.try_warmup(w).map_err(|e| e.to_string())?;
    sim.try_run(r / 2).map_err(|e| e.to_string())?;
    snapshot_probes(&mut p, &sim, snapshot_sim(), dir)?;
    p.counters_ms = counters_probe(&sim);
    drop(sim);

    // BatchSim: the workload's first `batch_width` simulations
    // interleaved (cycled when it has fewer).
    let sims = (0..m.batch_width)
        .map(|i| m.sims[i % m.sims.len()].build())
        .collect();
    let mut batch = BatchSim::new(sims);
    let t = Instant::now();
    for res in batch.try_run_each(&vec![w + r; m.batch_width]) {
        res.map_err(|e| e.to_string())?;
    }
    p.batch_ns_per_uop = t.elapsed().as_secs_f64() * 1e9 / ((w + r) * m.batch_width as u64) as f64;
    drop(batch);

    // Workload generation alone, over the uops one simulation retires.
    let mut gen = WorkloadGenerator::new(m.wl());
    let t = Instant::now();
    for _ in 0..w + r {
        black_box(gen.next_uop());
    }
    p.workload_ns_per_uop = t.elapsed().as_secs_f64() * 1e9 / (w + r) as f64;

    branch_probes(&mut p, m);

    // The faults sweep's trace-level leg with the same wrappers.
    let (est, rate, seed) = &m.fault;
    let (mut fp, mut fe) = faulty_parts(est, *rate, *seed);
    let t = Instant::now();
    black_box(trace_eval(
        m.wl(),
        &mut fp,
        &mut fe,
        m.scale.warmup_branches,
        m.scale.run_branches,
        None,
    ));
    p.trace_leg_s = t.elapsed().as_secs_f64();
    Ok(p)
}

/// The faults sweep's wrapped baseline predictor.
pub type FaultyBaseline = FaultyPredictor<Hybrid<Bimodal, Gshare>>;

/// The faults sweep's wrapped confidence estimator.
pub type FaultyCe = FaultyEstimator<Box<dyn FaultableEstimator>>;

/// The predictor and estimator of one faults-sweep cell, wrapped as
/// `faults::run_cell` wraps them: the baseline predictor with table and
/// history-latch upsets, the estimator (`perceptron`, or JRS at λ = 1)
/// with table upsets.
pub fn faulty_parts(estimator: &str, rate: f64, seed: u64) -> (FaultyBaseline, FaultyCe) {
    let cfg_p = FaultConfig {
        rate,
        history_rate: rate,
        seed: seed ^ 0x11,
    };
    let cfg_e = FaultConfig::state_only(rate, seed ^ 0x22);
    let est: Box<dyn FaultableEstimator> = match estimator {
        "perceptron" => Box::new(PerceptronCe::new(PerceptronCeConfig::default())),
        _ => Box::new(JrsEstimator::new(JrsConfig {
            lambda: 1,
            ..JrsConfig::default()
        })),
    };
    (
        FaultyPredictor::new(baseline_bimodal_gshare(), &cfg_p),
        FaultyEstimator::new(est, &cfg_e),
    )
}

/// `save_state`, its JSON encoding, `restore_state`, `state_digest` and
/// the snapfile round trip, on a mid-run state of `sim`; `fresh` is a
/// new simulation of the same machine to restore into.
fn snapshot_probes(
    p: &mut Probes,
    sim: &Simulation,
    mut fresh: Simulation,
    dir: &Path,
) -> Result<(), String> {
    p.save_ms = median_ms(|| {
        black_box(sim.save_state());
    });
    let state = sim.save_state();
    p.encode_ms = median_ms(|| {
        black_box(serde_json::to_string(&state).expect("a saved state encodes"));
    });
    p.bytes = serde_json::to_string(&state)
        .map_err(|e| e.to_string())?
        .len() as u64;
    p.digest_ms = median_ms(|| {
        black_box(sim.state_digest());
    });
    let mut restored = Ok(());
    p.restore_ms = median_ms(|| {
        if let Err(e) = fresh.restore_state(&state) {
            restored = Err(e.to_string());
        }
    });
    restored?;
    if fresh.state_digest() != sim.state_digest() {
        return Err("restored state digests differently from the saved one".into());
    }
    let path = dir.join("probe.psnap");
    let mut written = Ok(());
    p.write_ms = median_ms(|| {
        if let Err(e) = snapfile::write(&path, &state) {
            written = Err(e.to_string());
        }
    });
    written?;
    let mut back = Ok(serde::Value::Null);
    p.read_ms = median_ms(|| back = snapfile::read(&path).map_err(|e| e.to_string()));
    let back = back?;
    if perconf_bpred::digest_value(&back) != perconf_bpred::digest_value(&state) {
        return Err("snapfile round trip changed the saved state".into());
    }
    std::fs::remove_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(())
}

/// `Simulation::counters` plus the `CounterSnapshot::merge` a sweep
/// does per cell, in milliseconds per cell.
fn counters_probe(sim: &Simulation) -> f64 {
    const CELLS: usize = 32;
    let t = Instant::now();
    let snaps: Vec<CounterSnapshot> = (0..CELLS).map(|_| sim.counters()).collect();
    black_box(CounterSnapshot::merge(snaps.iter()));
    ms_since(t) / CELLS as f64
}

/// Predictor and estimator costs per branch over the workload's
/// trace-level branch stream, generated up front so only predict/train
/// and estimate/train are timed.
fn branch_probes(p: &mut Probes, m: &Machine) {
    let (wb, rb) = (m.scale.warmup_branches, m.scale.run_branches);
    let n = (wb + rb) as usize;
    let mut gen = WorkloadGenerator::new(m.wl());
    let mut stream = Vec::with_capacity(n);
    while stream.len() < n {
        if let Some(b) = gen.next_uop().branch {
            stream.push((b.pc, b.taken));
        }
    }
    let hists: Vec<u64> = stream
        .iter()
        .scan(0u64, |h, &(_, taken)| {
            let cur = *h;
            *h = (*h << 1) | u64::from(taken);
            Some(cur)
        })
        .collect();

    let mut pred = baseline_bimodal_gshare();
    let mut predicted = Vec::with_capacity(n);
    let t = Instant::now();
    for (&(pc, taken), &h) in stream.iter().zip(&hists) {
        let guess = pred.predict(pc, h);
        pred.train(pc, h, taken);
        predicted.push(guess);
    }
    p.bpred_ns_per_branch = t.elapsed().as_secs_f64() * 1e9 / n as f64;
    let misses = stream
        .iter()
        .zip(&predicted)
        .skip(wb as usize)
        .filter(|((_, taken), guess)| taken != *guess)
        .count();
    p.mispredict_frac = misses as f64 / rb.max(1) as f64;

    let estimate = |est: &mut dyn ConfidenceEstimator| {
        let mut cm = ConfusionMatrix::new();
        let t = Instant::now();
        for (i, ((&(pc, taken), &h), &guess)) in
            stream.iter().zip(&hists).zip(&predicted).enumerate()
        {
            let ctx = EstimateCtx {
                pc,
                history: h,
                predicted_taken: guess,
            };
            let e = est.estimate(&ctx);
            let missed = guess != taken;
            if i >= wb as usize {
                cm.record(missed, e.is_low());
            }
            est.train(&ctx, e, missed);
        }
        (t.elapsed().as_secs_f64() * 1e9 / n as f64, cm)
    };
    let (ns, cm) = estimate(&mut PerceptronCe::new(PerceptronCeConfig::default()));
    p.perceptron_ns_per_branch = ns;
    p.perceptron_pvn = cm.pvn();
    p.perceptron_spec = cm.spec();
    p.jrs_ns_per_branch = estimate(&mut JrsEstimator::new(JrsConfig::default())).0;
}
