//! The traced run's span recorder and layer table.
//!
//! Spans are recorded only around the benchmark's own calls into the
//! program (driver calls, serve requests, the rendered-output write)
//! plus one span per scheduler cell rebuilt from the `CellTiming` rows
//! the drivers return. They are kept in memory and written out once,
//! at the end of the run.
//!
//! The layer table explains one traced operation's wall time. Work
//! that runs on the driver's worker threads is charged in thread
//! seconds ÷ workers: mid-run checkpoints as the program's own profiler
//! timed them in a profiled twin of the operation, everything else as
//! count × unit cost (from the probes). Serial client-side time
//! (request round trips and poll sleeps of the warm submits, writing
//! the output) is charged as measured. Whatever no layer covers is
//! reported as `unattributed`.

use crate::probes::Probes;
use crate::stats::{self, LayerRow};
use perconf_obs::ProfileReport;
use std::fmt::Write as _;
use std::time::Instant;

/// How far the layers may over-claim the traced wall time (a share of
/// it) before the traced operation counts as unexplained. The probes'
/// unit costs move by a tenth or more between runs on a shared machine,
/// and `faults_resume` is explained almost entirely, so noise alone can
/// push its sum past the wall.
pub const LAYER_TOLERANCE: f64 = 0.15;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span marks.
    pub name: String,
    /// Index of the causing span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, seconds since the trace began. Cell spans rebuilt from
    /// `CellTiming` carry their parent's start: the runner reports a
    /// cell's duration, not when it began.
    pub start_s: f64,
    /// Duration in seconds.
    pub dur_s: f64,
}

/// In-memory span store.
pub struct Trace {
    t0: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace starting now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Seconds since the trace began.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Records a finished span and returns its index.
    pub fn record(&mut self, name: &str, parent: Option<usize>, start_s: f64, dur_s: f64) -> usize {
        self.spans.push(Span {
            name: name.to_owned(),
            parent,
            start_s,
            dur_s,
        });
        self.spans.len() - 1
    }

    /// Opens a span now; [`close`](Self::close) sets its duration.
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let start = self.now();
        self.record(name, parent, start, 0.0)
    }

    /// Closes span `i` now.
    pub fn close(&mut self, i: usize) {
        let end = self.now();
        let s = &mut self.spans[i];
        s.dur_s = end - s.start_s;
    }

    /// Runs `f` inside a span and returns its result with the span index.
    pub fn time<R>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let i = self.open(name, parent);
        let out = f();
        self.close(i);
        (out, i)
    }

    /// Recorded spans in recording order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, one object per span.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \"start_s\": {}, \"dur_s\": {}}}",
                s.name, s.start_s, s.dur_s
            );
        }
        out
    }
}

/// What one traced operation did. Uop counts follow from the scale
/// and the simulations the driver was asked for; cell counts come from
/// the driver's `CellTiming` rows or the server's counters; times are
/// measured by the harness around its own calls.
#[derive(Debug, Clone, Default)]
pub struct Work {
    /// Worker threads the driver runs simulations on.
    pub jobs: usize,
    /// Pipeline uops simulated (warm-up plus measured, every simulation).
    pub uops: u64,
    /// The part of `uops` simulated with a real confidence estimator
    /// (the rest runs `AlwaysHigh`, whose cost is nil).
    pub estimator_uops: u64,
    /// Trace-level `trace_eval` legs.
    pub trace_legs: u64,
    /// `Simulation::counters` calls merged into a result.
    pub counter_reads: u64,
    /// Σ cell seconds from the driver's `CellTiming` rows; `None` when
    /// the driver has no scheduler.
    pub cell_s: Option<f64>,
    /// Seconds the client spent in request round trips, and asleep
    /// between status polls, during the warm part (serve only). The cold
    /// part is covered by the server-side layers instead: the client
    /// only waits while the server computes.
    pub protocol_s: f64,
    pub poll_s: f64,
    /// Seconds spent rendering and writing the result the user sees.
    pub output_s: f64,
}

/// Profiler scope the drivers open around each mid-run checkpoint
/// (`save_state` plus, when the cell persists, encoding and writing).
const CHECKPOINT_SCOPE: &str = "phase/checkpoint";

/// Mid-run checkpoints one operation built, as the program's own
/// profiler recorded them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Checkpoints {
    /// Checkpoints taken.
    pub calls: u64,
    /// Their summed duration over every worker thread, in seconds.
    pub thread_s: f64,
}

impl Checkpoints {
    /// The checkpoint row of a profiler report; none when the operation
    /// took no checkpoint.
    #[must_use]
    pub fn from_profile(report: &ProfileReport) -> Self {
        report
            .rows
            .iter()
            .find(|r| r.name == CHECKPOINT_SCOPE)
            .map_or_else(Self::default, |r| Self {
                calls: r.calls,
                thread_s: r.total_s,
            })
    }

    /// Mean milliseconds per checkpoint (0 when there were none).
    #[must_use]
    pub fn ms_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.thread_s * 1e3 / self.calls as f64
        }
    }
}

/// The layer table of one traced operation of wall time `wall_s`.
#[must_use]
pub fn layer_table(work: &Work, ckpt: &Checkpoints, p: &Probes, wall_s: f64) -> Vec<LayerRow> {
    let j = work.jobs.max(1) as f64;
    let per_worker = |thread_s: f64| thread_s / j;
    let ns = |count: f64, ns: f64| count * ns * 1e-9;
    let uops = work.uops as f64;
    let branches = uops * p.branches_per_uop;
    let est_branches = work.estimator_uops as f64 * p.branches_per_uop;
    let est_ns = (p.perceptron_ns_per_branch + p.jrs_ns_per_branch) / 2.0;
    let workload = ns(uops, p.workload_ns_per_uop);
    let bpred = ns(branches, p.bpred_ns_per_branch);
    let core = ns(est_branches, est_ns);
    let pipeline_self = ns(uops, p.ns_per_uop) - workload - bpred - core;
    let mut rows = vec![
        ("pipeline", per_worker(pipeline_self)),
        ("workload", per_worker(workload)),
        ("bpred", per_worker(bpred)),
        ("core", per_worker(core)),
        ("checkpoint", per_worker(ckpt.thread_s)),
        (
            "faults.trace_leg",
            per_worker(work.trace_legs as f64 * p.trace_leg_s),
        ),
        (
            "obs",
            per_worker(work.counter_reads as f64 * p.counters_ms * 1e-3),
        ),
        ("serve.protocol", work.protocol_s),
        ("client.poll", work.poll_s),
        ("output", work.output_s),
    ];
    if let Some(cell_s) = work.cell_s {
        // Worker capacity the cells did not use: scheduling, load
        // imbalance and result assembly.
        rows.insert(0, ("runner", wall_s - per_worker(cell_s)));
    }
    rows.into_iter()
        .map(|(name, self_s)| LayerRow {
            name: name.to_owned(),
            self_s,
        })
        .collect()
}

/// Renders the layer table with its residual and tolerance verdict.
#[must_use]
pub fn render_table(rows: &[LayerRow], wall_s: f64) -> String {
    let mut out =
        format!("layer table (traced wall {wall_s:.4} s, tolerance {LAYER_TOLERANCE}):\n");
    for r in rows {
        let _ = writeln!(
            out,
            "  {:<18} {:>9.4} s {:>7.1}%",
            r.name,
            r.self_s,
            100.0 * r.self_s / wall_s
        );
    }
    let rest = stats::unattributed(rows, wall_s);
    let _ = writeln!(
        out,
        "  {:<18} {:>9.4} s {:>7.1}%",
        "unattributed",
        rest,
        100.0 * rest / wall_s
    );
    let _ = writeln!(
        out,
        "  covers wall within tolerance: {}",
        stats::layers_cover(rows, wall_s, LAYER_TOLERANCE)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probes() -> Probes {
        Probes {
            ns_per_uop: 1000.0,
            workload_ns_per_uop: 100.0,
            branches_per_uop: 0.1,
            bpred_ns_per_branch: 1000.0,
            ..Probes::default()
        }
    }

    #[test]
    fn layers_split_per_worker_and_leave_a_residual() {
        let work = Work {
            jobs: 2,
            uops: 1_000_000,
            cell_s: Some(1.6),
            ..Work::default()
        };
        let ckpt = Checkpoints {
            calls: 20,
            thread_s: 0.2,
        };
        let rows = layer_table(&work, &ckpt, &probes(), 1.0);
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().self_s;
        // 1 s of thread time for the pipeline over 2 workers, of which
        // 0.1 s generation and 0.1 s prediction are its children.
        assert!((get("pipeline") - 0.4).abs() < 1e-9);
        assert!((get("workload") - 0.05).abs() < 1e-9);
        assert!((get("bpred") - 0.05).abs() < 1e-9);
        assert!((get("checkpoint") - 0.1).abs() < 1e-9);
        assert!((get("runner") - 0.2).abs() < 1e-9);
        assert!((stats::unattributed(&rows, 1.0) - 0.2).abs() < 1e-9);
        assert!(stats::layers_cover(&rows, 1.0, LAYER_TOLERANCE));
    }

    #[test]
    fn an_operation_without_checkpoints_is_still_covered() {
        // The same operation once it stops building snapshots: 0.5 s
        // faster, no checkpoint row, and the table still covers it.
        let work = Work {
            jobs: 2,
            uops: 1_000_000,
            cell_s: Some(1.0),
            ..Work::default()
        };
        let ckpt = Checkpoints::from_profile(&ProfileReport::default());
        assert_eq!(ckpt, Checkpoints::default());
        assert_eq!(ckpt.ms_per_call(), 0.0);
        let rows = layer_table(&work, &ckpt, &probes(), 0.5);
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().self_s;
        assert_eq!(get("checkpoint"), 0.0);
        assert!((get("runner") - 0.0).abs() < 1e-9);
        assert!(stats::layers_cover(&rows, 0.5, LAYER_TOLERANCE));
    }

    #[test]
    fn checkpoints_come_from_the_profiler_row() {
        let row = |name: &str, calls, total_s| perconf_obs::ProfileRow {
            name: name.to_owned(),
            calls,
            total_s,
            self_s: total_s,
        };
        let report = ProfileReport {
            rows: vec![row("phase/run", 6, 3.0), row("phase/checkpoint", 60, 2.4)],
        };
        let ckpt = Checkpoints::from_profile(&report);
        assert_eq!(ckpt.calls, 60);
        assert!((ckpt.thread_s - 2.4).abs() < 1e-12);
        assert!((ckpt.ms_per_call() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn spans_serialize_one_per_line() {
        let mut t = Trace::new();
        let (_, root) = t.time("op", None, || ());
        t.record("cell", Some(root), 0.0, 0.5);
        let text = t.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().nth(1).unwrap().contains("\"parent\": 0"));
    }
}
