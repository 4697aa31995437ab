//! Spec-conformance suite: the declarative experiment-spec format
//! must be a faithful, stable surface over the code-built experiment
//! machinery.
//!
//! - **Round-trip idempotence** — `parse → to_toml → parse` is the
//!   identity on every checked-in spec (and `to_toml` is a fixed
//!   point), so canonicalizing a spec never changes its meaning.
//! - **Diagnostics** — unknown keys are rejected with a `file:line`
//!   citation; a `spec_version` mismatch is its own error class and
//!   its own process exit code (6), distinct from plain usage errors.
//! - **Lowering equivalence** — a seeded sweep of randomly generated
//!   fault-grid specs lowers to exactly the cells (same keys, same
//!   order) that code-built `faults::Grid`s produce, which is the
//!   spec-vs-code contract the CI `specs` lane rides on.

use perconf_experiments::spec::{Lowered, RunSpec, SpecError};
use perconf_experiments::{exitcode, faults, Scale};
use std::path::PathBuf;
use std::process::Command;

fn specs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../specs")
}

fn checked_in_specs() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(specs_dir())
        .expect("specs/ exists at the workspace root")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "toml" || e == "json"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 5,
        "expected the five checked-in specs, found {files:?}"
    );
    files
}

// ---------------------------------------------------------------- //
// Round-trip idempotence.
// ---------------------------------------------------------------- //

#[test]
fn every_checked_in_spec_round_trips_through_canonical_toml() {
    for path in checked_in_specs() {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let spec = RunSpec::load(&path).unwrap_or_else(|e| panic!("{name}: {}", e.message()));
        let canon = spec.to_toml();
        let back = RunSpec::parse_toml(&canon, &name)
            .unwrap_or_else(|e| panic!("{name} canonical form re-parses: {}", e.message()));
        assert_eq!(back, spec, "{name}: canonicalizing changed the spec");
        assert_eq!(
            back.to_toml(),
            canon,
            "{name}: to_toml is not a fixed point"
        );
    }
}

// ---------------------------------------------------------------- //
// Diagnostics: unknown keys and version gating.
// ---------------------------------------------------------------- //

#[test]
fn unknown_keys_are_cited_by_file_and_line_when_loaded_from_disk() {
    let dir = std::env::temp_dir().join("perconf-spec-conformance");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("misspelled.toml");
    std::fs::write(
        &path,
        "spec_version = 1\n\n[experiment]\nkind = \"table2\"\nscal = \"tiny\"\n",
    )
    .unwrap();
    let err = RunSpec::load(&path).expect_err("misspelled key must be rejected");
    let msg = err.message().to_owned();
    assert!(
        msg.contains("misspelled.toml:5:"),
        "diagnostic must cite file and line: {msg}"
    );
    assert!(
        msg.contains("`experiment.scal`"),
        "diagnostic must name the offending key: {msg}"
    );
}

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn spec_version_mismatch_exits_with_its_own_code() {
    let dir = std::env::temp_dir().join("perconf-spec-conformance");
    std::fs::create_dir_all(&dir).unwrap();

    let future = dir.join("future.toml");
    std::fs::write(
        &future,
        "spec_version = 99\n\n[experiment]\nkind = \"table2\"\n",
    )
    .unwrap();
    let out = repro(&["run", future.to_str().unwrap(), "--check"]);
    assert_eq!(
        out.status.code(),
        Some(i32::from(exitcode::SPEC_VERSION)),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A merely invalid spec stays in the generic usage class — the
    // version code is reserved for forward-compatibility failures.
    let invalid = dir.join("invalid.toml");
    std::fs::write(
        &invalid,
        "spec_version = 1\n\n[experiment]\nkind = \"tableau\"\n",
    )
    .unwrap();
    let out = repro(&["run", invalid.to_str().unwrap(), "--check"]);
    assert_eq!(
        out.status.code(),
        Some(i32::from(exitcode::USAGE)),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn check_mode_accepts_every_checked_in_spec_without_running() {
    for path in checked_in_specs() {
        let out = repro(&["run", path.to_str().unwrap(), "--check"]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}: {}",
            path.display(),
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("spec OK"),
            "{}: --check must report without running: {stdout}",
            path.display()
        );
    }
}

// ---------------------------------------------------------------- //
// Lowering equivalence: random grids, spec path vs code path.
// ---------------------------------------------------------------- //

/// Deterministic LCG (MMIX constants) — the same generator idiom the
/// simulator crates use for seeded tests.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[(self.next() >> 33) as usize % xs.len()]
    }

    /// 1..=n distinct elements of `xs`, in `xs` order (the spec format
    /// rejects duplicate axis entries).
    fn subset<'a, T>(&mut self, xs: &'a [T]) -> Vec<&'a T> {
        let n = 1 + (self.next() >> 33) as usize % xs.len();
        let mut picked: Vec<usize> = (0..xs.len()).collect();
        // Partial Fisher-Yates, then restore axis order.
        for i in 0..n {
            let j = i + (self.next() >> 33) as usize % (picked.len() - i);
            picked.swap(i, j);
        }
        picked.truncate(n);
        picked.sort_unstable();
        picked.into_iter().map(|i| &xs[i]).collect()
    }
}

#[test]
fn random_grid_specs_lower_to_the_same_cells_as_code_built_grids() {
    let rates_pool = [0.0, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0];
    let mut rng = Lcg(0x5eed_c0de_0000_0001);
    for round in 0..40 {
        let estimators: Vec<String> = rng
            .subset(&faults::ESTIMATORS)
            .into_iter()
            .map(|s| (*s).to_owned())
            .collect();
        let benchmarks: Vec<String> = rng
            .subset(&perconf_workload::SPEC2000_NAMES)
            .into_iter()
            .map(|s| (*s).to_owned())
            .collect();
        let rates: Vec<f64> = rng.subset(&rates_pool).into_iter().copied().collect();
        let seed = rng.next();
        let scale_name = *rng.pick(&["tiny", "quick", "full"]);
        let code_grid = faults::Grid {
            estimators: estimators.clone(),
            benchmarks: benchmarks.clone(),
            rates: rates.clone(),
        };

        // Render the grid as a spec document, then push it through the
        // declarative pipeline.
        let doc = format!(
            "spec_version = 1\n\n[experiment]\nkind = \"faults\"\nscale = \"{scale_name}\"\n\
             seed = {seed}\n\n[faults]\nestimators = [{}]\nbenchmarks = [{}]\nrates = [{}]\n",
            quote_list(&estimators),
            quote_list(&benchmarks),
            rates
                .iter()
                .map(|r| format!("{r:?}"))
                .collect::<Vec<_>>()
                .join(", "),
        );
        let spec = RunSpec::parse_toml(&doc, "random.toml")
            .unwrap_or_else(|e| panic!("round {round}: {}\n{doc}", e.message()));
        let Lowered::Faults {
            scale,
            seed: lowered_seed,
            grid,
        } = spec
            .lower()
            .unwrap_or_else(|e| panic!("round {round}: {e}"))
        else {
            panic!("round {round}: faults spec must lower to Faults");
        };

        assert_eq!(lowered_seed, seed, "round {round}");
        assert_eq!(grid, code_grid, "round {round}:\n{doc}");
        let scale_code = match scale_name {
            "tiny" => Scale::tiny(),
            "quick" => Scale::quick(),
            _ => Scale::full(),
        };
        assert_eq!(scale, scale_code, "round {round}");

        // The contract that matters downstream: identical scheduler
        // cells, key for key, in the canonical order.
        let spec_keys: Vec<String> = faults::batch_specs(scale, lowered_seed, &grid, 1)
            .iter()
            .flat_map(|c| c.keys().to_vec())
            .collect();
        let code_keys: Vec<String> = faults::batch_specs(scale_code, seed, &code_grid, 1)
            .iter()
            .flat_map(|c| c.keys().to_vec())
            .collect();
        assert_eq!(spec_keys, code_keys, "round {round}:\n{doc}");
        assert_eq!(spec_keys.len(), code_grid.cell_count(), "round {round}");
    }
}

fn quote_list(xs: &[String]) -> String {
    xs.iter()
        .map(|x| format!("\"{x}\""))
        .collect::<Vec<_>>()
        .join(", ")
}

#[test]
fn version_error_class_is_distinct_in_the_library_too() {
    let err = RunSpec::parse_toml("spec_version = 2\n", "v.toml").expect_err("must reject");
    assert!(
        matches!(err, SpecError::Version { found: 2, .. }),
        "{err:?}"
    );
}
