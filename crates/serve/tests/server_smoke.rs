//! End-to-end contracts of the experiment server, driven over the
//! real TCP line protocol:
//!
//! - a served sweep is byte-identical to a one-shot `repro faults`
//!   run (same pretty-JSON table);
//! - a repeat submission performs zero re-simulation — every cell is
//!   served from the content-addressed cache, visible in counters;
//! - a chaos-killed actor is restarted and the client-visible result
//!   stays byte-identical to an undisturbed run;
//! - overflow submissions are shed with an explicit `Busy`, while an
//!   identical in-flight spec coalesces instead of duplicating work;
//! - shutdown drains accepted work; a pending marker left by a dead
//!   server is resumed by its successor.

// Test deadlines: wall-clock never reaches asserted results.
#![allow(clippy::disallowed_methods)]

use perconf_experiments::faults;
use perconf_experiments::runner::{RunnerConfig, Scheduler, SchedulerConfig};
use perconf_experiments::Scale;
use perconf_serve::api::{ExperimentSpec, Request, Response};
use perconf_serve::protocol;
use perconf_serve::server::{Server, ServerConfig};
use perconf_serve::supervisor::{Phase, Submitted, Supervisor, SupervisorConfig};
use std::io::BufReader;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("perconf-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn spec(seed: u64) -> ExperimentSpec {
    ExperimentSpec {
        seed,
        scale: "tiny".to_owned(),
        grid: "small".to_owned(),
    }
}

/// The bytes a one-shot `repro faults --tiny --grid small --json`
/// run would write — the reference for every byte-identity assertion.
fn one_shot_reference(seed: u64) -> String {
    let mut scheduler = Scheduler::new(SchedulerConfig {
        runner: RunnerConfig {
            timeout: None,
            ..RunnerConfig::default()
        },
        jobs: 2,
    });
    let (t, _) = faults::run_grid_batched(
        Scale::tiny(),
        seed,
        &faults::Grid::small(),
        &mut scheduler,
        1,
    );
    serde_json::to_string_pretty(&t).unwrap()
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect to test server");
        Self {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn roundtrip(&mut self, req: &Request) -> Response {
        protocol::write_msg(&mut self.writer, req).expect("send request");
        protocol::read_msg(&mut self.reader)
            .expect("read response")
            .expect("server replied")
    }

    fn submit(&mut self, spec: &ExperimentSpec, chaos_kill: bool) -> String {
        match self.roundtrip(&Request::Submit {
            spec: spec.clone(),
            chaos_kill,
        }) {
            Response::Accepted { id, .. } => id,
            other => panic!("submit not accepted: {other:?}"),
        }
    }

    /// Polls to a terminal phase; returns (phase, restarts, from_cache, computed).
    fn wait(&mut self, id: &str) -> (String, u32, u64, u64) {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            assert!(Instant::now() < deadline, "timed out waiting for {id}");
            match self.roundtrip(&Request::Status { id: id.to_owned() }) {
                Response::Status {
                    phase,
                    restarts,
                    from_cache,
                    computed,
                    ..
                } => {
                    if matches!(phase.as_str(), "done" | "degraded" | "failed") {
                        return (phase, restarts, from_cache, computed);
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
                other => panic!("unexpected status response: {other:?}"),
            }
        }
    }

    /// Fetches a finished experiment's table as the pretty-JSON bytes
    /// a client would persist.
    fn result_bytes(&mut self, id: &str) -> String {
        match self.roundtrip(&Request::Result { id: id.to_owned() }) {
            Response::Result { table, .. } => serde_json::to_string_pretty(&table).unwrap(),
            other => panic!("unexpected result response: {other:?}"),
        }
    }

    fn counter(&mut self, group: &str, name: &str) -> u64 {
        match self.roundtrip(&Request::Stats) {
            Response::Stats { counters } => counters.get(group, name).unwrap_or(0),
            other => panic!("unexpected stats response: {other:?}"),
        }
    }
}

fn start_server(tag: &str) -> (std::net::SocketAddr, std::thread::JoinHandle<()>, PathBuf) {
    let state = tmpdir(tag);
    let server = Server::start(ServerConfig::at(&state)).expect("start server");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle, state)
}

fn stop_server(addr: std::net::SocketAddr, handle: std::thread::JoinHandle<()>) {
    let mut c = Client::connect(addr);
    match c.roundtrip(&Request::Shutdown) {
        Response::ShuttingDown => {}
        other => panic!("unexpected shutdown response: {other:?}"),
    }
    handle.join().expect("server thread");
}

#[test]
fn served_sweep_matches_one_shot_bytes_and_repeats_hit_the_cache() {
    let (addr, handle, state) = start_server("repeat");
    let mut c = Client::connect(addr);
    assert!(matches!(c.roundtrip(&Request::Ping), Response::Pong));

    let first = c.submit(&spec(7), false);
    let (phase, restarts, from_cache, computed) = c.wait(&first);
    assert_eq!(phase, "done");
    assert_eq!(restarts, 0);
    assert_eq!(
        (from_cache, computed),
        (0, 4),
        "cold run simulates all 4 cells"
    );
    let bytes = c.result_bytes(&first);
    assert_eq!(
        bytes,
        one_shot_reference(7),
        "server result != one-shot repro bytes"
    );

    // Round 2: same spec, new experiment — zero re-simulation.
    let computed_before = c.counter("serve", "cells_computed");
    let second = c.submit(&spec(7), false);
    assert_ne!(second, first, "terminal experiments are not deduped");
    let (phase, _, from_cache, computed) = c.wait(&second);
    assert_eq!(phase, "done");
    assert_eq!(
        (from_cache, computed),
        (4, 0),
        "repeat submission must be 100% cache hits"
    );
    assert_eq!(
        c.counter("serve", "cells_computed"),
        computed_before,
        "repeat submission re-simulated"
    );
    assert!(c.counter("cache", "hits") >= 4);
    assert_eq!(c.result_bytes(&second), bytes, "cache-served bytes differ");

    // Regression: stats are a snapshot, not an accumulator — asking
    // twice must not double the cache totals.
    let misses = c.counter("cache", "misses");
    assert_eq!(
        c.counter("cache", "misses"),
        misses,
        "repeated stats requests must not re-add cache totals"
    );

    stop_server(addr, handle);
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn chaos_killed_actor_restarts_and_stays_byte_identical() {
    let (addr, handle, state) = start_server("chaos");
    let mut c = Client::connect(addr);

    let id = c.submit(&spec(11), true);
    let (phase, restarts, from_cache, computed) = c.wait(&id);
    assert_eq!(phase, "done", "chaos kill must not degrade the result");
    assert!(restarts >= 1, "the scripted kill must consume a restart");
    assert!(
        c.counter("serve", "restarts") >= 1,
        "restart must be visible in server counters"
    );
    // The restarted incarnation reuses the dead one's published cells.
    assert!(
        from_cache >= 1,
        "resumed run should reuse the killed actor's cells"
    );
    assert!(computed >= 1, "resumed run still computes the remainder");
    assert_eq!(
        c.result_bytes(&id),
        one_shot_reference(11),
        "chaos-disturbed result differs from an undisturbed run"
    );

    stop_server(addr, handle);
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn overflow_sheds_busy_and_identical_inflight_specs_coalesce() {
    let state = tmpdir("shed");
    let mut cfg = SupervisorConfig::at(&state);
    cfg.queue_capacity = 1;
    cfg.actor_threads = 1;
    let sup = Supervisor::start(cfg).expect("start supervisor");

    let first = match sup.submit(&spec(1), false) {
        Submitted::Accepted { id, deduped } => {
            assert!(!deduped);
            id
        }
        other => panic!("first submit rejected: {other:?}"),
    };
    // Identical spec while the first is in flight: coalesced, not
    // queued twice and not shed.
    match sup.submit(&spec(1), false) {
        Submitted::Accepted { id, deduped } => {
            assert!(deduped, "identical in-flight spec must coalesce");
            assert_eq!(id, first);
        }
        other => panic!("duplicate submit rejected: {other:?}"),
    }
    // A different spec overflows the bounded queue: explicit shed.
    match sup.submit(&spec(2), false) {
        Submitted::Busy { reason } => assert!(reason.contains("full"), "reason: {reason}"),
        other => panic!("overflow submit not shed: {other:?}"),
    }
    let stats = sup.stats();
    assert_eq!(stats.get("serve", "sheds"), Some(1));
    assert_eq!(stats.get("serve", "dedup_hits"), Some(1));

    // Drain finishes the accepted experiment before exit.
    sup.shutdown_and_drain();
    let sup = Supervisor::start(SupervisorConfig::at(&state)).expect("reopen");
    let entry = sup.status(&first);
    // The drained server finalised it; its result file must exist.
    assert!(
        std::path::Path::new(&sup.result_path(&first)).exists(),
        "drain must finalise accepted work"
    );
    drop(entry);
    sup.shutdown_and_drain();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn pending_marker_from_a_dead_server_is_resumed() {
    let state = tmpdir("resume");
    let sp = spec(5);
    let id = format!("{}-0", sp.digest_hex());
    // A dead server accepted this experiment but never finished it:
    // only the pending marker survives.
    std::fs::create_dir_all(state.join("pending")).unwrap();
    std::fs::write(
        state.join("pending").join(format!("{id}.json")),
        serde_json::to_string_pretty(&sp).unwrap(),
    )
    .unwrap();

    let sup = Supervisor::start(SupervisorConfig::at(&state)).expect("start supervisor");
    assert_eq!(sup.stats().get("serve", "resumed_pending"), Some(1));
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        assert!(
            Instant::now() < deadline,
            "resumed experiment never finished"
        );
        match sup.status(&id) {
            Some(e) if e.phase.is_terminal() => {
                assert_eq!(e.phase, Phase::Done);
                break;
            }
            Some(_) => std::thread::sleep(Duration::from_millis(20)),
            None => panic!("recovered experiment lost"),
        }
    }
    let table = sup.result_table(&id).expect("result table");
    assert_eq!(
        serde_json::to_string_pretty(&table).unwrap(),
        one_shot_reference(5),
        "resumed result differs from a one-shot run"
    );
    assert!(
        !state.join("pending").join(format!("{id}.json")).exists(),
        "finalised experiment must clear its pending marker"
    );
    // A further submission gets a fresh ordinal, never colliding with
    // the recovered id.
    match sup.submit(&sp, false) {
        Submitted::Accepted { id: next, .. } => assert_ne!(next, id),
        other => panic!("post-recovery submit rejected: {other:?}"),
    }
    sup.shutdown_and_drain();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn protocol_shutdown_drains_accepted_work_before_exit() {
    let (addr, handle, state) = start_server("drain");
    let mut c = Client::connect(addr);
    let id = c.submit(&spec(3), false);
    // Ask for shutdown immediately, while the experiment is in flight.
    match c.roundtrip(&Request::Shutdown) {
        Response::ShuttingDown => {}
        other => panic!("unexpected shutdown response: {other:?}"),
    }
    handle.join().expect("server thread");
    // Drain-then-exit: the accepted experiment was finished, its
    // result persisted, and the endpoint file retired.
    let result = state.join("results").join(format!("{id}.json"));
    let body = std::fs::read_to_string(&result).expect("drained result file");
    assert_eq!(body, one_shot_reference(3));
    assert!(
        !state.join("endpoint").exists(),
        "endpoint file must be removed"
    );
    assert!(
        !state.join("pending").join(format!("{id}.json")).exists(),
        "drained experiment must clear its pending marker"
    );
    let _ = std::fs::remove_dir_all(&state);
}
