//! Table 2 — benchmark speculation-waste characteristics: branch
//! mispredicts per 1000 uops, and the % increase in uops executed
//! (and fetched) due to branch mispredictions on the 20-cycle 4-wide,
//! 20-cycle 8-wide and 40-cycle 4-wide pipelines.

use crate::common::{
    run_pipeline, run_pipeline_checkpointed_batch, BatchMember, PredictorKind, Scale,
};
use crate::paper;
use crate::runner::{CellSpec, CellTiming, CheckpointCell, Scheduler};
use perconf_core::{AlwaysHigh, SpeculationController};
use perconf_metrics::{stats, Table};
use perconf_pipeline::PipelineConfig;
use serde::{Deserialize, Serialize};

/// One benchmark's row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Row {
    /// Benchmark name.
    pub bench: String,
    /// Measured branch mispredicts per 1000 uops (on the deep pipe).
    pub mpku: f64,
    /// % extra uops executed / fetched on each shape.
    pub waste: [WastePair; 3],
}

/// Executed/fetched waste percentages for one pipeline shape.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WastePair {
    /// % increase in uops executed due to mispredictions.
    pub executed: f64,
    /// % increase in uops fetched due to mispredictions.
    pub fetched: f64,
}

/// Full Table 2 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2 {
    /// Per-benchmark rows in the paper's order.
    pub rows: Vec<Table2Row>,
}

/// The three pipeline shapes of Table 2, in column order.
#[must_use]
pub fn shapes() -> [(&'static str, PipelineConfig); 3] {
    [
        ("20c/4w", PipelineConfig::shallow()),
        ("20c/8w", PipelineConfig::wide()),
        ("40c/4w", PipelineConfig::deep()),
    ]
}

/// Runs the Table 2 experiment over every benchmark.
#[must_use]
pub fn run(scale: Scale) -> Table2 {
    run_on(scale, &crate::common::benchmarks())
}

/// Runs Table 2 over an explicit benchmark list (reduced-scale golden
/// tests, focused studies). Benchmarks fan out over
/// [`common::jobs`](crate::common::jobs) worker threads; rows keep the
/// given order.
#[must_use]
pub fn run_on(scale: Scale, benchmarks: &[perconf_workload::WorkloadConfig]) -> Table2 {
    let rows = crate::common::par_map_ordered(crate::common::jobs(), benchmarks, |wl| {
        let mut waste = [WastePair {
            executed: 0.0,
            fetched: 0.0,
        }; 3];
        let mut mpku = 0.0;
        for (i, (_, cfg)) in shapes().into_iter().enumerate() {
            let ctl = SpeculationController::new(
                PredictorKind::BimodalGshare.build(),
                Box::new(AlwaysHigh) as Box<dyn perconf_core::SimEstimator>,
            );
            let s = run_pipeline(wl, cfg, ctl, scale);
            waste[i] = WastePair {
                executed: s.wasted_execution_frac() * 100.0,
                fetched: if s.fetched_correct == 0 {
                    0.0
                } else {
                    s.fetched_wrong as f64 * 100.0 / s.fetched_correct as f64
                },
            };
            if i == 2 {
                mpku = s.mpku();
            }
        }
        Table2Row {
            bench: wl.name.clone(),
            mpku,
            waste,
        }
    });
    Table2 { rows }
}

/// One scheduler cell of the Table 2 experiment: one benchmark on one
/// pipeline shape. Splitting per shape (rather than per benchmark)
/// keeps each cell's checkpoint a single simulation snapshot, so a
/// killed cell resumes mid-pipeline-run like a faults-sweep cell does.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShapeCell {
    /// Benchmark name.
    pub bench: String,
    /// Index into [`shapes`].
    pub shape: usize,
    /// % increase in uops executed due to mispredictions.
    pub executed: f64,
    /// % increase in uops fetched due to mispredictions.
    pub fetched: f64,
    /// Mispredicts per 1000 uops on this shape (the table reports the
    /// deep shape's value).
    pub mpku: f64,
}

/// Canonical checkpoint/queue key for one Table 2 cell. Scale is not
/// part of the key for the same reason the faults sweep omits it: a
/// resume directory is per-invocation, and mixing scales in one
/// directory is guarded at the CLI layer.
#[must_use]
pub fn cell_key(bench: &str, shape: usize) -> String {
    format!("table2-{bench}-s{shape}")
}

/// Computes one Table 2 cell, checkpointing through `cell` every ~50k
/// retired uops. At rate-limit: the measurement is exactly the
/// [`run_on`] inner loop for one (benchmark, shape) pair — the
/// checkpointed pipeline driver is bit-identical to the plain one.
#[must_use]
pub fn run_shape_cell(bench: &str, shape: usize, scale: Scale, cell: &CheckpointCell) -> ShapeCell {
    let wl = perconf_workload::spec2000_config(bench).expect("known benchmark");
    let (_, cfg) = shapes()[shape];
    let member = BatchMember {
        wl: &wl,
        mk_ctl: Box::new(|| {
            SpeculationController::new(
                PredictorKind::BimodalGshare.build(),
                Box::new(AlwaysHigh) as Box<dyn perconf_core::SimEstimator>,
            )
        }),
        cell,
    };
    let result = run_pipeline_checkpointed_batch(std::slice::from_ref(&member), cfg, scale, 50_000)
        .pop()
        .expect("one member in, one result out");
    let s = match result {
        Ok(sim) => sim.stats().clone(),
        // A SimError is an invariant failure; surface it as the panic
        // the runner's catch_unwind turns into a typed error.
        Err(e) => panic!("{e}"),
    };
    ShapeCell {
        bench: bench.to_owned(),
        shape,
        executed: s.wasted_execution_frac() * 100.0,
        fetched: if s.fetched_correct == 0 {
            0.0
        } else {
            s.fetched_wrong as f64 * 100.0 / s.fetched_correct as f64
        },
        mpku: s.mpku(),
    }
}

/// Builds the experiment's cell list in canonical order
/// (benchmark-major, then shape), ready for a
/// [`Scheduler`]. This is the path `repro table2` and spec-driven runs
/// share, which is what makes their outputs — checkpoint files
/// included — byte-identical.
#[must_use]
pub fn cell_specs(
    scale: Scale,
    benchmarks: &[perconf_workload::WorkloadConfig],
) -> Vec<CellSpec<ShapeCell>> {
    let mut specs = Vec::with_capacity(benchmarks.len() * shapes().len());
    for wl in benchmarks {
        for shape in 0..shapes().len() {
            let bench = wl.name.clone();
            specs.push(CellSpec::new(
                cell_key(&bench, shape),
                move |chk: &CheckpointCell| run_shape_cell(&bench, shape, scale, chk),
            ));
        }
    }
    specs
}

/// Assembles the table from completed cells (canonical order as built
/// by [`cell_specs`]).
#[must_use]
pub fn table_from_cells(cells: &[ShapeCell]) -> Table2 {
    let mut rows: Vec<Table2Row> = Vec::new();
    for c in cells {
        if rows.last().is_none_or(|r| r.bench != c.bench) {
            rows.push(Table2Row {
                bench: c.bench.clone(),
                mpku: 0.0,
                waste: [WastePair {
                    executed: 0.0,
                    fetched: 0.0,
                }; 3],
            });
        }
        let row = rows.last_mut().expect("just pushed");
        row.waste[c.shape] = WastePair {
            executed: c.executed,
            fetched: c.fetched,
        };
        if c.shape == 2 {
            row.mpku = c.mpku;
        }
    }
    Table2 { rows }
}

/// Runs Table 2 through a [`Scheduler`] — the resumable/parallel path
/// the `repro` binary uses. Returns `Err` with the failed cell keys if
/// any cell panicked or hung, plus the (wall-clock, hence
/// nondeterministic) per-cell timings either way. Results are
/// byte-identical to [`run_on`] at any job count (pinned by test).
pub fn run_scheduled(
    scale: Scale,
    benchmarks: &[perconf_workload::WorkloadConfig],
    scheduler: &mut Scheduler,
) -> (Result<Table2, Vec<String>>, Vec<CellTiming>) {
    let report = scheduler.run_cells(cell_specs(scale, benchmarks));
    let timings = report.timings();
    let mut cells = Vec::new();
    let mut failed = Vec::new();
    for r in report.cells {
        match r.outcome {
            Ok(c) => cells.push(c),
            Err(_) => failed.push(r.key),
        }
    }
    let table = if failed.is_empty() {
        Ok(table_from_cells(&cells))
    } else {
        Err(failed)
    };
    (table, timings)
}

impl Table2 {
    /// Renders the table with the paper's values alongside.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = Table::with_headers(&[
            "bench",
            "mpku",
            "mpku(paper)",
            "20c4w ex%",
            "20c4w fe%",
            "(paper)",
            "20c8w ex%",
            "20c8w fe%",
            "(paper)",
            "40c4w ex%",
            "40c4w fe%",
            "(paper)",
        ]);
        t.numeric();
        for (row, p) in self.rows.iter().zip(paper::TABLE2) {
            t.row(vec![
                row.bench.clone(),
                format!("{:.1}", row.mpku),
                format!("{:.1}", p.1),
                format!("{:.0}", row.waste[0].executed),
                format!("{:.0}", row.waste[0].fetched),
                format!("{:.0}", p.2),
                format!("{:.0}", row.waste[1].executed),
                format!("{:.0}", row.waste[1].fetched),
                format!("{:.0}", p.3),
                format!("{:.0}", row.waste[2].executed),
                format!("{:.0}", row.waste[2].fetched),
                format!("{:.0}", p.4),
            ]);
        }
        let avg = |f: &dyn Fn(&Table2Row) -> f64| {
            stats::mean(&self.rows.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        t.row(vec![
            "average".into(),
            format!("{:.1}", avg(&|r| r.mpku)),
            format!("{:.1}", paper::TABLE2_AVG.0),
            format!("{:.0}", avg(&|r| r.waste[0].executed)),
            format!("{:.0}", avg(&|r| r.waste[0].fetched)),
            format!("{:.0}", paper::TABLE2_AVG.1),
            format!("{:.0}", avg(&|r| r.waste[1].executed)),
            format!("{:.0}", avg(&|r| r.waste[1].fetched)),
            format!("{:.0}", paper::TABLE2_AVG.2),
            format!("{:.0}", avg(&|r| r.waste[2].executed)),
            format!("{:.0}", avg(&|r| r.waste[2].fetched)),
            format!("{:.0}", paper::TABLE2_AVG.3),
        ]);
        format!(
            "Table 2: speculation waste (ex = executed, fe = fetched; paper reports executed)\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_paper() {
        let s = shapes();
        assert_eq!(s[0].1.width, 4);
        assert_eq!(s[1].1.width, 8);
        assert_eq!(s[2].1.frontend_depth, 34);
    }

    /// The spec-vs-code equivalence contract at its root: the
    /// scheduled (resumable, spec-driven) path must be bit-identical
    /// to the direct path, row for row.
    #[test]
    fn scheduled_path_matches_direct_path_bit_exactly() {
        let scale = Scale::tiny();
        let benches = vec![perconf_workload::spec2000_config("gcc").unwrap()];
        let direct = run_on(scale, &benches);
        let mut scheduler = Scheduler::new(crate::runner::SchedulerConfig::for_run(2, None));
        let (scheduled, timings) = run_scheduled(scale, &benches, &mut scheduler);
        assert_eq!(timings.len(), shapes().len());
        assert_eq!(scheduled.expect("no failed cells"), direct);
    }
}
