//! Seeded property test for the batched cycle loop: random
//! (batch width, fault plan, checkpoint interval) triples must leave
//! every member's stats and state digest invariant between the batched
//! checkpointed path and a plain sequential run. Runs in the CI
//! determinism lane.
//!
//! Each trial draws a width in 1..=8, a per-member fault plan (rate ×
//! seed × benchmark × estimator kind), and a checkpoint interval, runs
//! every member as one unchunked `Simulation::new → warmup → run`
//! (what `common::run_pipeline` does) as the reference, then batched — with
//! per-member checkpoint cells enabled so the trial also exercises the
//! store path — and compares [`SimStats`] plus the FNV state digest.

use perconf_bpred::{baseline_bimodal_gshare, SimPredictor, Snapshot};
use perconf_core::{
    JrsConfig, JrsEstimator, PerceptronCe, PerceptronCeConfig, SimEstimator, SpeculationController,
};
use perconf_experiments::common::{run_pipeline_checkpointed_batch, BatchMember, Scale};
use perconf_experiments::runner::CheckpointCell;
use perconf_faults::{FaultConfig, FaultyEstimator, FaultyPredictor};
use perconf_pipeline::{Controller, PipelineConfig, Simulation};
use perconf_workload::WorkloadConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

const BENCHES: [&str; 4] = ["gcc", "twolf", "mcf", "gzip"];
const RATES: [f64; 4] = [0.0, 1e-4, 1e-3, 1e-2];

/// One member's randomly drawn configuration.
#[derive(Debug, Clone)]
struct Plan {
    bench: &'static str,
    rate: f64,
    seed: u64,
    perceptron: bool,
}

impl Plan {
    fn draw(rng: &mut SmallRng) -> Self {
        Plan {
            bench: BENCHES[rng.gen_range(0..BENCHES.len())],
            rate: RATES[rng.gen_range(0..RATES.len())],
            seed: rng.gen_range(0u64..u64::MAX),
            perceptron: rng.gen_range(0u32..2) == 0,
        }
    }

    fn wl(&self) -> WorkloadConfig {
        perconf_workload::spec2000_config(self.bench).expect("known benchmark")
    }

    fn ctl(&self) -> Controller {
        let cfg_p = FaultConfig {
            rate: self.rate,
            history_rate: self.rate,
            seed: self.seed ^ 0x11,
        };
        let cfg_e = FaultConfig::state_only(self.rate, self.seed ^ 0x22);
        let est: Box<dyn perconf_core::FaultableEstimator> = if self.perceptron {
            Box::new(PerceptronCe::new(PerceptronCeConfig::default()))
        } else {
            Box::new(JrsEstimator::new(JrsConfig {
                lambda: 1,
                ..JrsConfig::default()
            }))
        };
        SpeculationController::new(
            Box::new(FaultyPredictor::new(baseline_bimodal_gshare(), &cfg_p))
                as Box<dyn SimPredictor>,
            Box::new(FaultyEstimator::new(est, &cfg_e)) as Box<dyn SimEstimator>,
        )
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("perconf-batch-props-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn random_width_fault_plan_interval_triples_are_invariant() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_BA7C);
    let scale = Scale::tiny();
    let cfg = PipelineConfig::deep().gated(1);
    let dir = fresh_dir("trials");

    for trial in 0..5u32 {
        let width = rng.gen_range(1usize..=8);
        let interval = rng.gen_range(3_000u64..30_000);
        let plans: Vec<Plan> = (0..width).map(|_| Plan::draw(&mut rng)).collect();
        let wls: Vec<WorkloadConfig> = plans.iter().map(Plan::wl).collect();

        let mut refs = Vec::new();
        for (i, plan) in plans.iter().enumerate() {
            let mut sim = Simulation::new(cfg, &wls[i], plan.ctl());
            sim.try_warmup(scale.warmup_uops)
                .and_then(|()| sim.try_run(scale.run_uops).map(|_| ()))
                .unwrap_or_else(|e| panic!("trial {trial} member {i} sequential: {e:?}"));
            refs.push((sim.stats().clone(), sim.state_digest()));
        }

        // Batched, with live checkpoint cells so the store path is
        // part of the property (stores must never perturb the run).
        let cells: Vec<CheckpointCell> = (0..width)
            .map(|i| CheckpointCell::at(dir.join(format!("t{trial}-m{i}.part.psnap"))))
            .collect();
        let members: Vec<BatchMember> = plans
            .iter()
            .enumerate()
            .map(|(i, plan)| BatchMember {
                wl: &wls[i],
                mk_ctl: Box::new(move || plan.ctl()),
                cell: &cells[i],
            })
            .collect();
        let outs = run_pipeline_checkpointed_batch(&members, cfg, scale, interval);
        drop(members);
        for (i, out) in outs.into_iter().enumerate() {
            let sim = out.unwrap_or_else(|e| panic!("trial {trial} member {i} batched: {e:?}"));
            assert_eq!(
                sim.stats(),
                &refs[i].0,
                "trial {trial} width {width} interval {interval} member {i} ({plans:?}): stats diverged",
            );
            assert_eq!(
                sim.state_digest(),
                refs[i].1,
                "trial {trial} width {width} interval {interval} member {i} ({plans:?}): state diverged",
            );
            assert!(
                cells[i].load().is_none(),
                "trial {trial} member {i}: completed member left its partial checkpoint"
            );
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}
