//! The four workloads. Each builds its inputs from the run seed, runs
//! one warm-up pass while it is set up, and then performs identical
//! operations through the same public driver entry points `repro` and
//! `perconf-serve` use. An operation times itself, checks its own
//! output, and reports the work it did for the layer table.

use crate::probes::{faulty_parts, Machine, MkCtl, Sim};
use crate::trace::{Trace, Work};
use perconf_bpred::digest_bytes;
use perconf_core::{AlwaysHigh, SpeculationController};
use perconf_experiments::common::{self, jrs, perceptron, PredictorKind};
use perconf_experiments::faults::{self, Grid};
use perconf_experiments::runner::{CellTiming, Scheduler, SchedulerConfig};
use perconf_experiments::{table2, table4, Scale};
use perconf_obs::CounterSnapshot;
use perconf_pipeline::{Controller, PipelineConfig};
use perconf_serve::api::{ExperimentSpec, Request, Response};
use perconf_serve::protocol;
use perconf_serve::server::{Server, ServerConfig};
use perconf_serve::supervisor::SupervisorConfig;
use perconf_workload::WorkloadConfig;
use std::io::BufReader;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Benchmarks of `table2_oneshot`.
const TABLE2_BENCHES: [&str; 2] = ["gcc", "twolf"];

/// Benchmarks and design points of `gating_table4`: (λ, PL) JRS
/// points and perceptron thresholds (all at PL1). The benchmarks are
/// the six whose simulated work moves least with the seed, so that a
/// run's timings measure the program rather than its seed (see
/// `NOTES.md`).
const GATING_BENCHES: [&str; 6] = ["gcc", "crafty", "perlbmk", "gap", "vortex", "bzip"];
const GATING_JRS: [(u8, u32); 2] = [(7, 1), (15, 2)];
const GATING_PERCEPTRON: [i32; 2] = [0, -25];

/// `faults_resume`: batch width and grid axes. The 8 cells fill one
/// batch, run by one scheduler job: with two batches on two jobs the
/// peak resident memory depends on whether the two workers happen to
/// build a snapshot (a ~64 MB value tree) at the same moment.
const FAULTS_WIDTH: usize = 8;
const FAULTS_JOBS: usize = 1;
const FAULTS_BENCHES: [&str; 2] = ["gcc", "twolf"];
const FAULTS_RATES: [f64; 2] = [0.0, 1e-4];
/// Resume passes after each cold pass. One takes about a millisecond,
/// too little to time steadily on its own, so the warm part of an
/// operation is the whole operation, and the passes' median is the
/// per-layer `runner.resume_pass_ms`.
const FAULTS_RESUMES: usize = 10;

/// `serve_roundtrip`: warm resubmissions after each cold submit. Few
/// enough that a run times about nine cold submits, enough that its
/// warm samples (about 135) put ten beyond their p90.
const SERVE_WARM: usize = 15;
/// Longest sleep between two status polls of the client; polls start
/// at 50 µs and double up to this.
const SERVE_POLL_MAX: Duration = Duration::from_millis(1);

/// What one operation measured and checked.
#[derive(Debug, Default)]
pub struct Op {
    /// Wall seconds of the whole operation.
    pub wall_s: f64,
    /// Wall seconds of its cold part (first pass, first submit; the
    /// whole call for drivers that keep no state between calls).
    pub cold_s: f64,
    /// Wall seconds of each warm part (resume pass, resubmission; the
    /// whole call for drivers that keep no state between calls).
    pub warm_s: Vec<f64>,
    /// Pipeline uops simulated, and the wall seconds that simulated them.
    pub uops: u64,
    pub sim_wall_s: f64,
    /// Cells / simulations / submissions attempted, and how many of
    /// them failed or mismatched.
    pub attempted: u64,
    pub failed: u64,
    /// Digest of the operation's result, for the per-seed check.
    pub digest: u64,
    /// Runner accounting of every scheduler driver call, and each
    /// call's wall seconds.
    pub timings: Vec<CellTiming>,
    pub driver_walls: Vec<f64>,
    /// Wall seconds of each resume pass (`faults_resume` only).
    pub resume_s: Vec<f64>,
    /// Work done, for the layer table.
    pub work: Work,
    /// Serve only: `Ping` round trip (ms) and the `Stats` reply, both
    /// taken after the operation when traced.
    pub ping_ms: Option<f64>,
    pub stats: Option<CounterSnapshot>,
}

/// A set-up workload, ready to run operations.
pub trait Workload {
    /// Runs one operation; spans go to `trace` under `parent`.
    ///
    /// # Errors
    ///
    /// Returns a message when the harness itself cannot proceed (I/O,
    /// protocol breakage). Wrong program output is not an error: it is
    /// counted in [`Op::failed`].
    fn op(&mut self, trace: Option<(&mut Trace, usize)>) -> Result<Op, String>;

    /// The machine the layer probes re-drive.
    fn machine(&self) -> Machine;

    /// The set-up pass: an operation whose result is discarded, at a
    /// reduced size where the full one is long. It touches every code
    /// path, thread pool and allocator arena the measured operations
    /// use.
    ///
    /// # Errors
    ///
    /// As [`op`](Self::op).
    fn warm_up(&mut self) -> Result<Op, String> {
        self.op(None)
    }
}

/// Builds workload `name` for `seed`, with scratch space under `dir`
/// and at most `jobs` scheduler workers, running its warm-up pass when
/// `warm_up` is set.
///
/// # Errors
///
/// Returns a message for an unknown workload or a failed warm-up.
pub fn setup(
    name: &str,
    seed: u64,
    dir: &Path,
    jobs: usize,
    warm_up: bool,
) -> Result<Box<dyn Workload>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut w: Box<dyn Workload> = match name {
        "table2_oneshot" => Box::new(Table2Oneshot {
            benches: reseeded(&TABLE2_BENCHES, seed),
            jobs,
            dir: dir.to_owned(),
            scale: Scale::quick(),
        }),
        "faults_resume" => Box::new(FaultsResume {
            seed,
            grid: Grid {
                estimators: faults::ESTIMATORS.iter().map(|s| (*s).to_owned()).collect(),
                benchmarks: FAULTS_BENCHES.iter().map(|s| (*s).to_owned()).collect(),
                rates: FAULTS_RATES.to_vec(),
            },
            jobs: jobs.min(FAULTS_JOBS),
            dir: dir.to_owned(),
            scale: Scale::tiny(),
            ops: 0,
        }),
        "gating_table4" => Box::new(GatingTable4 {
            benches: reseeded(&GATING_BENCHES, seed),
            jobs,
            dir: dir.to_owned(),
            scale: Scale::quick(),
        }),
        "serve_roundtrip" => Box::new(ServeRoundtrip {
            spec: ExperimentSpec {
                seed,
                scale: "tiny".to_owned(),
                grid: "small".to_owned(),
            },
            // The server's default: one actor running one scheduler job.
            jobs: SupervisorConfig::at(dir).jobs.min(jobs),
            dir: dir.to_owned(),
            warm: SERVE_WARM,
            ops: 0,
        }),
        other => return Err(format!("unknown workload `{other}`")),
    };
    if warm_up {
        let op = w.warm_up()?;
        if op.failed > 0 {
            return Err(format!(
                "warm-up pass failed {} of {} checks",
                op.failed, op.attempted
            ));
        }
    }
    Ok(w)
}

fn reseeded(names: &[&str], seed: u64) -> Vec<WorkloadConfig> {
    names
        .iter()
        .map(|n| {
            let cfg = perconf_workload::spec2000_config(n).expect("known benchmark");
            common::reseed(&cfg, seed)
        })
        .collect()
}

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string_pretty(v).expect("result types serialize")
}

/// Writes the rendered result where `repro` would print it.
fn emit(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Busy worker seconds of one scheduler driver call. A batch group of
/// `width` cells runs as one unit and each member reports the time
/// since the group started, so a group counts once, at its longest.
fn busy_s(timings: &[CellTiming], width: usize) -> f64 {
    timings
        .chunks(width.max(1))
        .map(|g| g.iter().map(|c| c.wall_s).fold(0.0, f64::max))
        .sum()
}

/// Records one driver call's cells as child spans of `call`.
fn cell_spans(
    trace: &mut Option<(&mut Trace, usize)>,
    call: Option<usize>,
    timings: &[CellTiming],
) {
    if let (Some((t, _)), Some(call)) = (trace.as_mut(), call) {
        let start = t.spans()[call].start_s;
        for c in timings {
            t.record("runner.cell", Some(call), start, c.wall_s);
        }
    }
}

fn open(trace: &mut Option<(&mut Trace, usize)>, name: &str) -> Option<usize> {
    trace
        .as_mut()
        .map(|(t, parent)| t.open(name, Some(*parent)))
}

fn close(trace: &mut Option<(&mut Trace, usize)>, span: Option<usize>) {
    if let (Some((t, _)), Some(i)) = (trace.as_mut(), span) {
        t.close(i);
    }
}

fn bimodal_gshare_always_high() -> Controller {
    SpeculationController::new(PredictorKind::BimodalGshare.build(), Box::new(AlwaysHigh))
}

struct Table2Oneshot {
    benches: Vec<WorkloadConfig>,
    jobs: usize,
    dir: PathBuf,
    scale: Scale,
}

impl Workload for Table2Oneshot {
    fn warm_up(&mut self) -> Result<Op, String> {
        let scale = std::mem::replace(&mut self.scale, Scale::tiny());
        let op = self.op(None);
        self.scale = scale;
        op
    }

    fn op(&mut self, mut trace: Option<(&mut Trace, usize)>) -> Result<Op, String> {
        let t0 = Instant::now();
        let call = open(&mut trace, "table2::run_scheduled");
        let mut scheduler = Scheduler::new(SchedulerConfig::for_run(self.jobs, None));
        let (table, timings) = table2::run_scheduled(self.scale, &self.benches, &mut scheduler);
        let driver_s = t0.elapsed().as_secs_f64();
        close(&mut trace, call);
        cell_spans(&mut trace, call, &timings);
        let t_out = Instant::now();
        let out = open(&mut trace, "output");
        let (digest, failed) = match &table {
            Ok(t) => {
                emit(&self.dir.join("table2.txt"), &t.render())?;
                (digest_bytes(json(t).as_bytes()), 0)
            }
            Err(keys) => (0, keys.len() as u64),
        };
        close(&mut trace, out);
        let output_s = t_out.elapsed().as_secs_f64();
        let wall_s = t0.elapsed().as_secs_f64();
        let cells = timings.len() as u64;
        let per_sim = self.scale.warmup_uops + self.scale.run_uops;
        Ok(Op {
            wall_s,
            cold_s: wall_s,
            warm_s: vec![wall_s],
            uops: cells * per_sim,
            sim_wall_s: driver_s,
            attempted: cells,
            failed,
            digest,
            driver_walls: vec![driver_s],
            work: Work {
                jobs: self.jobs,
                uops: cells * per_sim,
                cell_s: Some(busy_s(&timings, 1)),
                output_s,
                ..Work::default()
            },
            timings,
            ..Op::default()
        })
    }

    /// One simulation per cell: every benchmark on every shape, each
    /// looked up by name as `table2::run_shape_cell` does.
    fn machine(&self) -> Machine {
        let sims = self
            .benches
            .iter()
            .flat_map(|wl| {
                let base = perconf_workload::spec2000_config(&wl.name).expect("known benchmark");
                table2::shapes().into_iter().map(move |(_, cfg)| Sim {
                    wl: base.clone(),
                    cfg,
                    mk_ctl: Box::new(bimodal_gshare_always_high),
                })
            })
            .collect();
        Machine {
            sims,
            snapshot_cfg: PipelineConfig::deep(),
            scale: self.scale,
            jobs: self.jobs,
            fault: ("perceptron".to_owned(), 0.0, 0),
            batch_width: self.benches.len(),
        }
    }
}

struct FaultsResume {
    seed: u64,
    grid: Grid,
    jobs: usize,
    dir: PathBuf,
    scale: Scale,
    ops: usize,
}

impl Workload for FaultsResume {
    /// A quarter of the grid (its first estimator and benchmark at
    /// every rate), cold and resumed.
    fn warm_up(&mut self) -> Result<Op, String> {
        let sub = Grid {
            estimators: self.grid.estimators[..1].to_vec(),
            benchmarks: self.grid.benchmarks[..1].to_vec(),
            rates: self.grid.rates.clone(),
        };
        let grid = std::mem::replace(&mut self.grid, sub);
        let op = self.op(None);
        self.grid = grid;
        op
    }

    fn op(&mut self, mut trace: Option<(&mut Trace, usize)>) -> Result<Op, String> {
        let ckpt = self.dir.join(format!("ckpt-{}", self.ops));
        self.ops += 1;
        let cells = self.grid.cell_count() as u64;
        let pass = |name: &str, trace: &mut Option<(&mut Trace, usize)>| {
            let t = Instant::now();
            let call = open(trace, name);
            let mut scheduler = Scheduler::new(SchedulerConfig::for_run(self.jobs, Some(&ckpt)));
            let (table, timings) = faults::run_grid_batched(
                self.scale,
                self.seed,
                &self.grid,
                &mut scheduler,
                FAULTS_WIDTH,
            );
            let driver_s = t.elapsed().as_secs_f64();
            close(trace, call);
            cell_spans(trace, call, &timings);
            let t_out = Instant::now();
            let out = open(trace, "output");
            let text = table.render();
            let written = emit(&self.dir.join("faults.txt"), &text);
            close(trace, out);
            let output_s = t_out.elapsed().as_secs_f64();
            written.map(|()| {
                (
                    table,
                    timings,
                    driver_s,
                    output_s,
                    t.elapsed().as_secs_f64(),
                )
            })
        };
        let (first, first_timings, first_driver, mut output_s, cold_s) =
            pass("faults::run_grid_batched", &mut trace)?;
        let first_json = json(&first);
        let executed = first_timings.iter().filter(|c| !c.resumed).count() as u64;
        let mut failed = first.failed.len() as u64;
        let mut cell_s = busy_s(&first_timings, FAULTS_WIDTH);
        let (mut timings, mut driver_walls, mut resume_s) =
            (first_timings, vec![first_driver], Vec::new());
        // Every resume pass must serve every cell from its final
        // checkpoint and reproduce the cold pass byte for byte.
        for _ in 0..FAULTS_RESUMES {
            let (table, resumed, driver_s, out_s, wall_s) =
                pass("faults::run_grid_batched(resume)", &mut trace)?;
            failed += if json(&table) == first_json {
                resumed.iter().filter(|c| !c.resumed).count() as u64
            } else {
                cells
            };
            cell_s += busy_s(&resumed, FAULTS_WIDTH);
            output_s += out_s;
            driver_walls.push(driver_s);
            resume_s.push(wall_s);
            timings.extend(resumed);
        }
        let wall_s = cold_s + resume_s.iter().sum::<f64>();
        std::fs::remove_dir_all(&ckpt).map_err(|e| format!("{}: {e}", ckpt.display()))?;
        let per_sim = self.scale.warmup_uops + self.scale.run_uops;
        Ok(Op {
            wall_s,
            cold_s,
            warm_s: vec![wall_s],
            resume_s,
            uops: cells * per_sim,
            sim_wall_s: first_driver,
            attempted: cells * (1 + FAULTS_RESUMES as u64),
            failed,
            digest: digest_bytes(first_json.as_bytes()),
            driver_walls,
            work: Work {
                jobs: self.jobs,
                uops: executed * per_sim,
                estimator_uops: executed * per_sim,
                trace_legs: executed,
                counter_reads: executed,
                cell_s: Some(cell_s),
                output_s,
                ..Work::default()
            },
            timings,
            ..Op::default()
        })
    }

    fn machine(&self) -> Machine {
        fault_machine(self.seed, &self.grid, self.scale, self.jobs, FAULTS_WIDTH)
    }
}

/// The faults sweep's machine: one simulation per grid cell, on the
/// deep gated pipeline with both fault wrappers seeded as the cell's
/// are. The trace-leg probe takes the grid's first estimator at its
/// highest rate.
fn fault_machine(seed: u64, grid: &Grid, scale: Scale, jobs: usize, batch_width: usize) -> Machine {
    let cfg = PipelineConfig::deep().gated(1);
    let mut sims = Vec::new();
    for est in &grid.estimators {
        for bench in &grid.benchmarks {
            for (ri, &rate) in grid.rates.iter().enumerate() {
                let cell_seed = faults::cell_seed(seed, bench, est, ri);
                let est = est.clone();
                sims.push(Sim {
                    wl: perconf_workload::spec2000_config(bench).expect("known benchmark"),
                    cfg,
                    mk_ctl: Box::new(move || {
                        let (p, e) = faulty_parts(&est, rate, cell_seed);
                        SpeculationController::new(Box::new(p), Box::new(e))
                    }),
                });
            }
        }
    }
    let est = grid.estimators[0].clone();
    let ri = grid.rates.len() - 1;
    let trace_seed = faults::cell_seed(seed, &grid.benchmarks[0], &est, ri);
    Machine {
        sims,
        snapshot_cfg: cfg,
        scale,
        jobs,
        fault: (est, grid.rates[ri], trace_seed),
        batch_width,
    }
}

struct GatingTable4 {
    benches: Vec<WorkloadConfig>,
    jobs: usize,
    dir: PathBuf,
    scale: Scale,
}

impl Workload for GatingTable4 {
    fn warm_up(&mut self) -> Result<Op, String> {
        let scale = std::mem::replace(&mut self.scale, Scale::tiny());
        let op = self.op(None);
        self.scale = scale;
        op
    }

    fn op(&mut self, mut trace: Option<(&mut Trace, usize)>) -> Result<Op, String> {
        // The driver's parallelism is process-wide; a traced run sets up
        // a one-worker twin next to this workload, so set it per call.
        common::set_jobs(self.jobs);
        let t0 = Instant::now();
        let call = open(&mut trace, "table4::run_points");
        let table = table4::run_points(
            self.scale,
            self.benches.clone(),
            &GATING_JRS,
            &GATING_PERCEPTRON,
        );
        let driver_s = t0.elapsed().as_secs_f64();
        close(&mut trace, call);
        let t_out = Instant::now();
        let out = open(&mut trace, "output");
        emit(&self.dir.join("table4.txt"), &table.render())?;
        close(&mut trace, out);
        let output_s = t_out.elapsed().as_secs_f64();
        let wall_s = t0.elapsed().as_secs_f64();
        let benches = self.benches.len() as u64;
        let points = (GATING_JRS.len() + GATING_PERCEPTRON.len()) as u64;
        let per_sim = self.scale.warmup_uops + self.scale.run_uops;
        let sims = benches * (1 + points);
        Ok(Op {
            wall_s,
            cold_s: wall_s,
            warm_s: vec![wall_s],
            uops: sims * per_sim,
            sim_wall_s: driver_s,
            attempted: sims,
            digest: digest_bytes(json(&table).as_bytes()),
            work: Work {
                jobs: self.jobs,
                uops: sims * per_sim,
                estimator_uops: benches * points * per_sim,
                output_s,
                ..Work::default()
            },
            ..Op::default()
        })
    }

    /// Per benchmark: the ungated `AlwaysHigh` baseline, then every JRS
    /// and perceptron point on the gated machine, as
    /// `table4::run_points` builds them.
    fn machine(&self) -> Machine {
        let deep = PipelineConfig::deep();
        let mut sims = Vec::new();
        for wl in &self.benches {
            let sim = |cfg, mk_ctl: MkCtl| Sim {
                wl: wl.clone(),
                cfg,
                mk_ctl,
            };
            sims.push(sim(deep, Box::new(bimodal_gshare_always_high)));
            for &(lambda, pl) in &GATING_JRS {
                sims.push(sim(
                    deep.gated(pl),
                    Box::new(move || common::controller(PredictorKind::BimodalGshare, jrs(lambda))),
                ));
            }
            for &lambda in &GATING_PERCEPTRON {
                sims.push(sim(
                    deep.gated(1),
                    Box::new(move || {
                        common::controller(PredictorKind::BimodalGshare, perceptron(lambda))
                    }),
                ));
            }
        }
        Machine {
            sims,
            snapshot_cfg: deep,
            scale: self.scale,
            jobs: self.jobs,
            fault: ("perceptron".to_owned(), 0.0, 0),
            batch_width: self.benches.len(),
        }
    }
}

struct ServeRoundtrip {
    spec: ExperimentSpec,
    jobs: usize,
    dir: PathBuf,
    warm: usize,
    ops: usize,
}

/// One client connection speaking the line protocol.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Seconds spent in request round trips and asleep between polls.
    rtt_s: f64,
    poll_s: f64,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let read = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Self {
            reader: BufReader::new(read),
            writer: stream,
            rtt_s: 0.0,
            poll_s: 0.0,
        })
    }

    fn roundtrip(&mut self, req: &Request) -> Result<Response, String> {
        let t = Instant::now();
        protocol::write_msg(&mut self.writer, req).map_err(|e| format!("send: {e}"))?;
        let reply = protocol::read_msg(&mut self.reader)
            .map_err(|e| format!("receive: {e}"))?
            .ok_or_else(|| "server closed the connection".to_owned());
        self.rtt_s += t.elapsed().as_secs_f64();
        reply
    }

    /// Submits `spec` and polls until its result arrives; returns the
    /// phase and the result table as the pretty JSON a client saves.
    fn submit_and_wait(&mut self, spec: &ExperimentSpec) -> Result<(String, String), String> {
        let id = match self.roundtrip(&Request::Submit {
            spec: spec.clone(),
            chaos_kill: false,
        })? {
            Response::Accepted { id, .. } => id,
            other => return Err(format!("submit not accepted: {other:?}")),
        };
        let mut sleep = Duration::from_micros(50);
        loop {
            match self.roundtrip(&Request::Result { id: id.clone() })? {
                Response::Result { phase, table, .. } => return Ok((phase, json(&table))),
                Response::Status { .. } => {
                    let t = Instant::now();
                    thread::sleep(sleep);
                    self.poll_s += t.elapsed().as_secs_f64();
                    sleep = (sleep * 2).min(SERVE_POLL_MAX);
                }
                other => return Err(format!("unexpected reply while polling: {other:?}")),
            }
        }
    }
}

/// A server running on its own thread, with one connected client.
struct Running {
    client: Client,
    thread: JoinHandle<()>,
}

impl ServeRoundtrip {
    fn start(&self, state: &Path) -> Result<Running, String> {
        let server =
            Server::start(ServerConfig::at(state)).map_err(|e| format!("server start: {e}"))?;
        let addr = server.local_addr();
        let thread = thread::Builder::new()
            .name("perfbench-serve".to_owned())
            .spawn(move || server.run())
            .map_err(|e| format!("spawn server: {e}"))?;
        let client = Client::connect(addr)?;
        Ok(Running { client, thread })
    }

    fn stop(run: Running) -> Result<(), String> {
        let Running { mut client, thread } = run;
        let reply = client.roundtrip(&Request::Shutdown);
        drop(client);
        thread
            .join()
            .map_err(|_| "server thread panicked".to_owned())?;
        match reply? {
            Response::ShuttingDown => Ok(()),
            other => Err(format!("unexpected reply to Shutdown: {other:?}")),
        }
    }
}

impl Workload for ServeRoundtrip {
    /// A cold submit and two resubmissions: every path of an operation
    /// in a fraction of its time.
    fn warm_up(&mut self) -> Result<Op, String> {
        let full = std::mem::replace(&mut self.warm, 2);
        let op = self.op(None);
        self.warm = full;
        op
    }

    fn op(&mut self, mut trace: Option<(&mut Trace, usize)>) -> Result<Op, String> {
        let state = self.dir.join(format!("state-{}", self.ops));
        self.ops += 1;
        let mut run = self.start(&state)?;

        let t0 = Instant::now();
        let span = open(&mut trace, "serve.submit(cold)");
        let (phase, cold) = run.client.submit_and_wait(&self.spec)?;
        close(&mut trace, span);
        let cold_s = t0.elapsed().as_secs_f64();
        let (rtt0, poll0) = (run.client.rtt_s, run.client.poll_s);
        let mut failed = u64::from(phase != "done");
        let mut warm_s = Vec::with_capacity(self.warm);
        for _ in 0..self.warm {
            let t = Instant::now();
            let span = open(&mut trace, "serve.submit(warm)");
            let (phase, warm) = run.client.submit_and_wait(&self.spec)?;
            close(&mut trace, span);
            warm_s.push(t.elapsed().as_secs_f64());
            failed += u64::from(phase != "done" || warm != cold);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let (protocol_s, poll_s) = (run.client.rtt_s - rtt0, run.client.poll_s - poll0);

        let (mut ping_ms, mut stats) = (None, None);
        if trace.is_some() {
            let mut pings = Vec::new();
            for _ in 0..50 {
                let t = Instant::now();
                match run.client.roundtrip(&Request::Ping)? {
                    Response::Pong => pings.push(t.elapsed().as_secs_f64() * 1e3),
                    other => return Err(format!("unexpected reply to Ping: {other:?}")),
                }
            }
            ping_ms = crate::stats::median(&pings);
            match run.client.roundtrip(&Request::Stats)? {
                Response::Stats { counters } => stats = Some(counters),
                other => return Err(format!("unexpected reply to Stats: {other:?}")),
            }
        }
        Self::stop(run)?;
        std::fs::remove_dir_all(&state).map_err(|e| format!("{}: {e}", state.display()))?;

        let (scale, grid) = self.spec.resolve()?;
        let cells = grid.cell_count() as u64;
        // Cells the server computed, from its own counters when traced.
        let computed = stats
            .as_ref()
            .and_then(|s| s.get("serve", "cells_computed"))
            .unwrap_or(cells);
        let per_sim = scale.warmup_uops + scale.run_uops;
        Ok(Op {
            wall_s,
            cold_s,
            warm_s,
            uops: cells * per_sim,
            sim_wall_s: cold_s,
            attempted: 1 + self.warm as u64,
            failed,
            digest: digest_bytes(cold.as_bytes()),
            work: Work {
                jobs: self.jobs,
                uops: computed * per_sim,
                estimator_uops: computed * per_sim,
                trace_legs: computed,
                counter_reads: computed,
                protocol_s,
                poll_s,
                ..Work::default()
            },
            ping_ms,
            stats,
            ..Op::default()
        })
    }

    fn machine(&self) -> Machine {
        let (scale, grid) = self.spec.resolve().expect("a preset spec resolves");
        fault_machine(self.spec.seed, &grid, scale, self.jobs, grid.cell_count())
    }
}
