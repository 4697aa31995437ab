//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --record-digests <workload|all> <first-seed> <last-seed>
//! ```
//!
//! A run starts fresh child processes (`--child`) one after another.
//! Each sets the workload up once and performs identical operations
//! for its share of `--seconds`; the parent checks every result against
//! the recorded digests and prints one JSON object as the last line of
//! standard output. With `--trace 1` the parent then sets the workload
//! up itself, performs one operation on one worker with the program's
//! profiler on (for the checkpoints it takes) and one traced operation,
//! runs the layer probes, and prints the per-layer metrics instead; the
//! spans and layer table go to `.bench_out/trace-<workload>-seed<n>.jsonl`.
//! Scratch files live under `.bench_tmp/` in the working directory and
//! are removed at exit. The workloads and metrics are those of
//! `BENCHMARK.json`; `NOTES.md` describes them.

#![forbid(unsafe_code)]
// Host time is what this program measures; it never feeds a simulated
// result, which the digest checks pin independently of it.
#![allow(clippy::disallowed_methods)]

mod metrics;
mod probes;
mod stats;
mod sys;
mod trace;
mod workloads;

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::{Checkpoints, Trace};
use workloads::{Op, Workload};

/// Fresh processes per run. Each sets the workload up once and
/// measures operations for its share of `--seconds`; `setup_s` and
/// `peak_rss_mb` are medians over them, the timings medians over all
/// their operations. Three keep the set-up passes, which are not
/// measured time, to a few seconds of a run.
const CHILDREN: usize = 3;

/// Traced operations (each with its probes) a traced run may need before
/// its layers cover the operation's wall within the tolerance.
const TRACE_ATTEMPTS: u32 = 3;

/// Scheduler workers: the machine's cores, at most two, so runs on
/// bigger machines load the program the way the recorded runs did.
const MAX_JOBS: usize = 2;

/// Result digests recorded when the benchmark was added:
/// `workload seed digest`, one per line.
const DIGESTS: &str = include_str!("../digests.txt");

fn main() {
    match real_main() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("--seconds {value}: not a positive number"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !metrics::is_workload(&workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn real_main() -> Result<String, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--record-digests") => record_digests(&argv[1..]),
        Some("--child") => {
            let args = parse(&argv[1..])?;
            let scratch = Scratch::new(&args.workload)?;
            child(&args, &scratch.0)
        }
        _ => {
            let args = parse(&argv)?;
            let scratch = Scratch::new(&args.workload)?;
            run(&args, &scratch.0)
        }
    }
}

/// A scratch directory under `.bench_tmp/`, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Result<Self, String> {
        let dir = PathBuf::from(".bench_tmp").join(format!("{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave `.bench_tmp` itself only if another run still uses it.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

fn jobs() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(MAX_JOBS)
}

fn recorded_digest(workload: &str, seed: u64) -> Option<u64> {
    DIGESTS.lines().find_map(|l| {
        let mut f = l.split_whitespace();
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        (w == workload && s.parse() == Ok(seed))
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

/// Checks that failed in one operation: its own, or all of them when
/// its result digest is not the expected one.
fn failed_checks(digest: &str, expected: &str, attempted: u64, failed: u64) -> u64 {
    if digest == expected {
        failed
    } else {
        attempted
    }
}

/// One operation as a child process measured it.
#[derive(Debug, Serialize, Deserialize)]
struct OpSample {
    wall_s: f64,
    cold_s: f64,
    warm_s: Vec<f64>,
    cpu_s: f64,
    io_bytes: u64,
    uops: u64,
    kuops_per_s: f64,
    attempted: u64,
    failed: u64,
    /// Result digest, hex.
    digest: String,
}

/// What one child process reports: its set-up time, its peak resident
/// memory once it has set up and run one operation, and every operation
/// it measured.
#[derive(Debug, Serialize, Deserialize)]
struct ChildReport {
    setup_s: f64,
    peak_rss: u64,
    ops: Vec<OpSample>,
}

/// A child process: one set-up pass, then operations while at least
/// half of another one of the last one's length still fits in
/// `seconds` (at least one), so the measured time ends near `seconds`
/// rather than up to an operation short of it. Prints its
/// [`ChildReport`] as one JSON line.
fn child(args: &Args, scratch: &Path) -> Result<String, String> {
    let t = Instant::now();
    let mut w = workloads::setup(&args.workload, args.seed, scratch, jobs(), true)?;
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut ops = Vec::new();
    let mut last = 0.0;
    let mut peak_rss = 0;
    while ops.is_empty() || t.elapsed().as_secs_f64() + last / 2.0 <= args.seconds {
        let (cpu0, io0) = (sys::cpu_seconds()?, sys::bytes_written()?);
        let op = w.op(None)?;
        last = op.wall_s;
        ops.push(OpSample {
            cpu_s: sys::cpu_seconds()? - cpu0,
            io_bytes: sys::bytes_written()? - io0,
            wall_s: op.wall_s,
            cold_s: op.cold_s,
            kuops_per_s: op.uops as f64 / op.sim_wall_s / 1e3,
            uops: op.uops,
            attempted: op.attempted,
            failed: op.failed,
            digest: format!("{:016x}", op.digest),
            warm_s: op.warm_s,
        });
        // Later operations raise the high-water mark of some children
        // and not others (a `faults_resume` child of three operations
        // ends at 125 or at 197 MB), so the peak is read after the first.
        if ops.len() == 1 {
            peak_rss = sys::peak_rss_bytes()?;
        }
    }
    let report = ChildReport {
        setup_s,
        peak_rss,
        ops,
    };
    serde_json::to_string(&report).map_err(|e| e.to_string())
}

/// Runs one child process for `seconds` and parses its report.
fn spawn_child(args: &Args, seconds: f64) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--child", "--workload", &args.workload])
        .args([
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("child process: {e}"))?;
    if !out.status.success() {
        return Err(format!("child process failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or("child process printed nothing")?;
    serde_json::from_str(line).map_err(|e| format!("child report: {e}"))
}

fn run(args: &Args, scratch: &Path) -> Result<String, String> {
    let children = (0..CHILDREN)
        .map(|_| spawn_child(args, args.seconds / CHILDREN as f64))
        .collect::<Result<Vec<_>, _>>()?;
    let ops: Vec<&OpSample> = children.iter().flat_map(|c| &c.ops).collect();

    let recorded = recorded_digest(&args.workload, args.seed);
    if recorded.is_none() {
        eprintln!(
            "perfbench: seed {} has no recorded digest for {}; checking that every operation agrees",
            args.seed, args.workload
        );
    }
    let expected = recorded.map_or_else(|| ops[0].digest.clone(), |d| format!("{d:016x}"));
    let mut attempted: u64 = ops.iter().map(|o| o.attempted).sum();
    let mut failed: u64 = ops
        .iter()
        .map(|o| failed_checks(&o.digest, &expected, o.attempted, o.failed))
        .sum();

    let of = |f: fn(&OpSample) -> f64| median(&ops.iter().map(|o| f(o)).collect::<Vec<_>>());
    let walls: Vec<f64> = ops.iter().map(|o| o.wall_s).collect();
    let warm: Vec<f64> = ops.iter().flat_map(|o| o.warm_s.iter().copied()).collect();
    let (tail_s, tail_pct) = stats::tail(&warm).expect("every operation has a warm part");
    eprintln!(
        "perfbench: {} operations in {CHILDREN} processes ({:.3?} s, peak RSS {:.1?} MB); \
         warm tail is p{tail_pct} of {} warm samples",
        ops.len(),
        walls,
        children
            .iter()
            .map(|c| c.peak_rss as f64 / 1e6)
            .collect::<Vec<_>>(),
        warm.len()
    );

    let values: Values = if args.trace {
        let untraced = Untraced {
            wall_s: median(&walls),
            cpu_s: of(|o| o.cpu_s),
            uops: ops[0].uops,
            tail_pct,
        };
        let (layer_values, checked) = traced_run(args, scratch, &untraced)?;
        for op in checked {
            attempted += op.attempted;
            let digest = format!("{:016x}", op.digest);
            failed += failed_checks(&digest, &expected, op.attempted, op.failed);
        }
        layer_values
    } else {
        vec![
            ("wall_s", median(&walls)),
            ("cpu_s", of(|o| o.cpu_s)),
            ("sim_kuops_per_s", of(|o| o.kuops_per_s)),
            (
                "peak_rss_mb",
                median(
                    &children
                        .iter()
                        .map(|c| c.peak_rss as f64)
                        .collect::<Vec<_>>(),
                ) / 1e6,
            ),
            ("io_write_mb", of(|o| o.io_bytes as f64) / 1e6),
            (
                "setup_s",
                median(&children.iter().map(|c| c.setup_s).collect::<Vec<_>>()),
            ),
            ("cold_submit_s", of(|o| o.cold_s)),
            ("warm_submit_p50_ms", median(&warm) * 1e3),
            ("warm_submit_tail_ms", tail_s * 1e3),
            ("ok_frac", 1.0 - failed as f64 / attempted as f64),
        ]
    };
    result_line(args.trace, failed, attempted, &values)
}

/// Metric values by name, in no particular order.
type Values = Vec<(&'static str, f64)>;

/// Untraced figures the traced run compares itself with.
struct Untraced {
    wall_s: f64,
    cpu_s: f64,
    uops: u64,
    tail_pct: f64,
}

fn median(xs: &[f64]) -> f64 {
    stats::median(xs).unwrap_or(0.0)
}

/// Runs one operation of `w` with the program's own profiler on and
/// returns it with the mid-run checkpoints it took. The profiler also
/// times every pipeline stage of every cycle, which slows simulation
/// twofold on one worker (and tenfold on two, which contend for its
/// table), so only its checkpoint row is used: each checkpoint runs
/// between simulation chunks, outside those scopes.
fn profiled_op(mut w: Box<dyn Workload>) -> Result<(Op, Checkpoints), String> {
    let profiler = perconf_experiments::common::profiler();
    profiler.reset();
    profiler.enable(true);
    let op = w.op(None);
    profiler.enable(false);
    let ckpt = Checkpoints::from_profile(&profiler.report());
    profiler.reset();
    Ok((op?, ckpt))
}

/// The profiled operation, the traced operation, the layer probes and
/// the layer table; returns the per-layer metrics and every operation
/// it ran (for their checks).
fn traced_run(
    args: &Args,
    scratch: &Path,
    untraced: &Untraced,
) -> Result<(Values, Vec<Op>), String> {
    let mut w = workloads::setup(&args.workload, args.seed, scratch, jobs(), true)?;
    let mut checked = Vec::new();
    let mut attempt = 1;
    let (tr, op, p, ckpt, rows, wall, table) = loop {
        // The profiled twin runs on one worker and needs no warm-up (the
        // process is warm). It runs again with every attempt, right
        // before the traced operation, so that its checkpoint seconds
        // and the operation's wall are measured at the same speed.
        let twin = workloads::setup(
            &args.workload,
            args.seed,
            &scratch.join(format!("profiled-{attempt}")),
            1,
            false,
        )?;
        let (profiled, ckpt) = profiled_op(twin)?;
        checked.push(profiled);
        let mut tr = Trace::new();
        let root = tr.open("op", None);
        let op = w.op(Some((&mut tr, root)))?;
        tr.close(root);
        // The operation's own extent, as in the untraced runs: the serve
        // workload's `Ping`/`Stats` probes run inside the root span after it.
        let wall = op.wall_s;
        let (p, _) = tr.time("probes", None, || probes::run(&w.machine(), scratch));
        let mut p = p?;
        p.ping_ms = op.ping_ms.unwrap_or(0.0);

        let missing = missing_layers(&p, &op);
        if !missing.is_empty() {
            return Err(format!("layers reported nothing: {}", missing.join(", ")));
        }
        let rows = trace::layer_table(&op.work, &ckpt, &p, wall);
        let table = trace::render_table(&rows, wall);
        eprint!("{table}");
        if stats::layers_cover(&rows, wall, trace::LAYER_TOLERANCE) {
            break (tr, op, p, ckpt, rows, wall, table);
        }
        // The twin and the probes run seconds before and after the
        // operation; when the machine's speed moved in between, measure
        // all three again.
        if attempt == TRACE_ATTEMPTS {
            return Err(format!(
                "layer self times over-claim the traced wall ({wall:.4} s) by more than {} \
                 in {TRACE_ATTEMPTS} attempts",
                trace::LAYER_TOLERANCE
            ));
        }
        eprintln!("perfbench: layers over-claim the traced wall; tracing again");
        attempt += 1;
    };
    let rest = stats::unattributed(&rows, wall);
    write_trace(args, &tr, &table)?;

    let executed: Vec<f64> = op
        .timings
        .iter()
        .filter(|c| !c.resumed)
        .map(|c| c.wall_s)
        .collect();
    let driver_s: f64 = op.driver_walls.iter().sum();
    let counter = |group: &str, name: &str| {
        op.stats
            .as_ref()
            .and_then(|s| s.get(group, name))
            .unwrap_or(0) as f64
    };
    let mut v: Values = vec![
        ("runner.cells", op.timings.len() as f64),
        (
            "runner.resumed",
            op.timings.iter().filter(|c| c.resumed).count() as f64,
        ),
        (
            "runner.retries",
            f64::from(op.timings.iter().map(|c| c.retries).sum::<u32>()),
        ),
        ("runner.cell_s_p50", median(&executed)),
        (
            "runner.cell_s_max",
            executed.iter().copied().fold(0.0, f64::max),
        ),
        (
            "runner.busy_frac",
            stats::busy_frac(op.work.cell_s.unwrap_or(0.0), driver_s, op.work.jobs),
        ),
        ("runner.resume_pass_ms", median(&op.resume_s) * 1e3),
        ("pipeline.ns_per_uop", p.ns_per_uop),
        ("pipeline.batch_ns_per_uop", p.batch_ns_per_uop),
        (
            "pipeline.sim_share",
            stats::sim_share(untraced.uops, p.ns_per_uop, untraced.cpu_s),
        ),
        ("pipeline.cycles", p.cycles as f64),
        ("pipeline.wrong_path_fetch_frac", p.wrong_path_fetch_frac),
        ("pipeline.gated_cycle_frac", p.gated_cycle_frac),
        ("checkpoint.calls", ckpt.calls as f64),
        ("checkpoint.ms_per_call", ckpt.ms_per_call()),
        ("snapshot.save_ms", p.save_ms),
        ("snapshot.encode_ms", p.encode_ms),
        ("snapshot.bytes", p.bytes as f64),
        ("snapshot.restore_ms", p.restore_ms),
        ("snapshot.digest_ms", p.digest_ms),
        ("snapfile.write_ms", p.write_ms),
        ("snapfile.read_ms", p.read_ms),
        ("workload.ns_per_uop", p.workload_ns_per_uop),
        ("bpred.ns_per_branch", p.bpred_ns_per_branch),
        ("bpred.mispredict_frac", p.mispredict_frac),
        ("core.perceptron.ns_per_branch", p.perceptron_ns_per_branch),
        ("core.jrs.ns_per_branch", p.jrs_ns_per_branch),
        ("core.perceptron.pvn", p.perceptron_pvn),
        ("core.perceptron.spec", p.perceptron_spec),
        ("faults.trace_leg_s", p.trace_leg_s),
        ("obs.counters_ms", p.counters_ms),
        ("serve.ping_ms", p.ping_ms),
        ("serve.cache_hits", counter("cache", "hits")),
        ("serve.cache_misses", counter("cache", "misses")),
        ("serve.cells_computed", counter("serve", "cells_computed")),
        ("serve.warm_tail_pct", untraced.tail_pct),
        ("trace.overhead_frac", wall / untraced.wall_s - 1.0),
        ("trace.unattributed_frac", rest / wall),
        ("trace.wall_s", wall),
    ];
    for (name, metric) in LAYER_METRICS {
        let self_s = rows
            .iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.self_s);
        v.push((metric, self_s / wall));
    }
    v.push(("layer.unattributed", rest / wall));
    checked.push(op);
    Ok((v, checked))
}

/// Layer-table rows and the per-layer metric each one feeds.
const LAYER_METRICS: [(&str, &str); 11] = [
    ("runner", "layer.runner"),
    ("pipeline", "layer.pipeline"),
    ("workload", "layer.workload"),
    ("bpred", "layer.bpred"),
    ("core", "layer.core"),
    ("checkpoint", "layer.checkpoint"),
    ("faults.trace_leg", "layer.faults.trace_leg"),
    ("obs", "layer.obs"),
    ("serve.protocol", "layer.serve.protocol"),
    ("client.poll", "layer.client.poll"),
    ("output", "layer.output"),
];

/// Probes and driver readings that came back empty. The runner is
/// required wherever the workload has a scheduler, the serve probes on
/// the server workload; every other probe runs on every workload.
fn missing_layers(p: &probes::Probes, op: &Op) -> Vec<&'static str> {
    let probes = [
        ("pipeline.ns_per_uop", p.ns_per_uop),
        ("pipeline.batch_ns_per_uop", p.batch_ns_per_uop),
        ("snapshot.save_ms", p.save_ms),
        ("snapshot.encode_ms", p.encode_ms),
        ("snapshot.bytes", p.bytes as f64),
        ("snapshot.restore_ms", p.restore_ms),
        ("snapshot.digest_ms", p.digest_ms),
        ("snapfile.write_ms", p.write_ms),
        ("snapfile.read_ms", p.read_ms),
        ("workload.ns_per_uop", p.workload_ns_per_uop),
        ("bpred.ns_per_branch", p.bpred_ns_per_branch),
        ("core.perceptron.ns_per_branch", p.perceptron_ns_per_branch),
        ("core.jrs.ns_per_branch", p.jrs_ns_per_branch),
        ("faults.trace_leg_s", p.trace_leg_s),
        ("obs.counters_ms", p.counters_ms),
    ];
    let mut missing: Vec<&'static str> = probes
        .into_iter()
        .filter(|(_, v)| !(v.is_finite() && *v > 0.0))
        .map(|(n, _)| n)
        .collect();
    if op.work.cell_s.is_some() && op.timings.is_empty() {
        missing.push("runner");
    }
    if op.work.protocol_s > 0.0 && (op.ping_ms.is_none() || op.stats.is_none()) {
        missing.push("serve");
    }
    missing
}

fn write_trace(args: &Args, tr: &Trace, table: &str) -> Result<(), String> {
    let dir = Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    let mut body = tr.to_jsonl();
    for line in table.lines() {
        let _ = writeln!(body, "{{\"layer_table\": \"{}\"}}", line.trim());
    }
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))
}

/// The final JSON line. Every metric of the mode's list must be present
/// and finite.
fn result_line(
    trace: bool,
    failed: u64,
    attempted: u64,
    values: &[(&str, f64)],
) -> Result<String, String> {
    let m = metrics::manifest();
    let list = if trace { &m.per_layer } else { &m.end_to_end };
    let mut out = String::new();
    for m in list {
        let v = values
            .iter()
            .find(|(n, _)| *n == m.name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite: {v}", m.name));
        }
        if !out.is_empty() {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{out}}}}}",
        failed == 0
    ))
}

/// Prints `workload seed digest` lines for the given seed range, one
/// unwarmed operation per seed; the output is the format of
/// `digests.txt`.
fn record_digests(argv: &[String]) -> Result<String, String> {
    let [which, first, last] = argv else {
        return Err("usage: --record-digests <workload|all> <first-seed> <last-seed>".into());
    };
    let parse = |s: &String| s.parse::<u64>().map_err(|e| format!("seed {s}: {e}"));
    let (first, last) = (parse(first)?, parse(last)?);
    let names: Vec<&str> = metrics::manifest()
        .workloads
        .iter()
        .map(|w| w.name.as_str())
        .filter(|n| which == "all" || which == n)
        .collect();
    if names.is_empty() {
        return Err(format!("unknown workload `{which}`"));
    }
    let scratch = Scratch::new("record")?;
    for name in names {
        for seed in first..=last {
            let mut w = workloads::setup(
                name,
                seed,
                &scratch.0.join(format!("{name}-{seed}")),
                jobs(),
                false,
            )?;
            let op = w.op(None)?;
            if op.failed > 0 {
                return Err(format!(
                    "{name} seed {seed}: {} of {} checks failed",
                    op.failed, op.attempted
                ));
            }
            println!("{name} {seed} {:016x}", op.digest);
        }
    }
    Ok(String::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let e2e = &metrics::manifest().end_to_end;
        let values: Vec<(&str, f64)> = e2e.iter().map(|m| (m.name.as_str(), 1.5)).collect();
        let line = result_line(false, 0, 4, &values).unwrap();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {")
        );
        let v: serde::Value = serde_json::from_str(&line).unwrap();
        let m = v.get("metrics").unwrap();
        for metric in e2e {
            assert!(m.get(&metric.name).and_then(|x| x.get("unit")).is_some());
        }
        assert!(result_line(false, 0, 4, &values[1..]).is_err());
        let mut nan = values.clone();
        nan[0].1 = f64::NAN;
        assert!(result_line(false, 0, 4, &nan).is_err());
    }

    #[test]
    fn recorded_digests_parse() {
        for line in DIGESTS.lines().filter(|l| !l.trim().is_empty()) {
            let f: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(f.len(), 3, "{line}");
            assert!(metrics::is_workload(f[0]), "{line}");
            assert_eq!(
                recorded_digest(f[0], f[1].parse().unwrap()),
                u64::from_str_radix(f[2], 16).ok()
            );
        }
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let a = parse(&argv(
            "--workload faults_resume --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(parse(&argv("--workload nope --seed 7 --seconds 10 --trace 0")).is_err());
        assert!(parse(&argv(
            "--workload faults_resume --seed x --seconds 10 --trace 0"
        ))
        .is_err());
        assert!(parse(&argv(
            "--workload faults_resume --seed 1 --seconds 10 --trace 2"
        ))
        .is_err());
        assert!(parse(&argv("--workload faults_resume --seconds 10")).is_err());
    }
}
