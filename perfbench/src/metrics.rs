//! The benchmark's vocabulary: workloads, end-to-end metrics and
//! per-layer metrics, read from `BENCHMARK.json` at the repository root,
//! the one place they are written down.

use serde::Deserialize;
use std::sync::OnceLock;

/// `BENCHMARK.json`, compiled in.
const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// A workload: its name (the `why` stays in the file).
#[derive(Debug, Deserialize)]
pub struct Workload {
    pub name: String,
}

/// A reported metric: its name and unit as printed.
#[derive(Debug, Deserialize)]
pub struct Metric {
    pub name: String,
    pub unit: String,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads.
#[derive(Debug, Deserialize)]
pub struct Manifest {
    pub workloads: Vec<Workload>,
    /// Printed by every workload with `--trace 0`.
    pub end_to_end: Vec<Metric>,
    /// Printed by every workload with `--trace 1`.
    pub per_layer: Vec<Metric>,
}

/// The parsed manifest.
///
/// # Panics
///
/// Panics if the compiled-in `BENCHMARK.json` does not parse; the
/// self-tests check that it does.
#[must_use]
pub fn manifest() -> &'static Manifest {
    static PARSED: OnceLock<Manifest> = OnceLock::new();
    PARSED.get_or_init(|| serde_json::from_str(MANIFEST).expect("BENCHMARK.json parses"))
}

/// Whether `name` is one of the manifest's workloads.
#[must_use]
pub fn is_workload(name: &str) -> bool {
    manifest().workloads.iter().any(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    fn raw() -> Value {
        serde_json::from_str(MANIFEST).expect("BENCHMARK.json parses")
    }

    fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
        match v.get(key) {
            Some(Value::Array(items)) => items,
            other => panic!("`{key}` is not a list: {other:?}"),
        }
    }

    fn keys(v: &Value) -> Vec<&str> {
        match v {
            Value::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn text<'a>(v: &'a Value, key: &str) -> &'a str {
        match v.get(key) {
            Some(Value::Str(s)) => s,
            other => panic!("`{key}` is not a string: {other:?}"),
        }
    }

    #[test]
    fn manifest_has_exactly_the_contract_keys() {
        let v = raw();
        assert_eq!(
            keys(&v),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let m = manifest();
        assert!((2..=8).contains(&m.workloads.len()));
        assert!((1..=16).contains(&m.end_to_end.len()));
        assert!((1..=128).contains(&m.per_layer.len()));
        let secs = v.get("run_seconds").and_then(Value::as_int).unwrap();
        assert!((1..=60).contains(&secs));
    }

    #[test]
    fn every_name_is_valid_unique_and_carries_a_unit() {
        let v = raw();
        let mut seen = std::collections::BTreeSet::new();
        for w in list(&v, "workloads") {
            assert_eq!(keys(w), ["name", "why"]);
            let (name, why) = (text(w, "name"), text(w, "why"));
            assert!(valid_name(name), "workload name {name}");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
            assert!(seen.insert(name.to_owned()), "duplicate name {name}");
        }
        for m in list(&v, "end_to_end").iter().chain(list(&v, "per_layer")) {
            let (name, unit) = (text(m, "name"), text(m, "unit"));
            assert!(valid_name(name), "metric name {name}");
            assert!(valid_unit(unit), "unit {unit} of {name}");
            assert!(matches!(text(m, "better"), "lower" | "higher"));
            assert!(seen.insert(name.to_owned()), "duplicate name {name}");
        }
    }

    #[test]
    fn bounds_follow_the_contract() {
        let v = raw();
        let mut widest = 0.0_f64;
        for m in list(&v, "end_to_end") {
            assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
            let b = m.get("bound").and_then(Value::as_f64).unwrap();
            assert!(b > 0.0 && b <= 0.25, "bound {b} of {}", text(m, "name"));
            widest = widest.max(b);
        }
        for m in list(&v, "per_layer") {
            assert_eq!(keys(m), ["name", "unit", "better"]);
        }
        let setup = list(&v, "end_to_end")
            .iter()
            .find(|m| text(m, "name") == "setup_s")
            .expect("setup_s is an end-to-end metric");
        assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
        assert_eq!(
            setup.get("bound").and_then(Value::as_f64),
            Some(widest),
            "setup_s carries the largest bound"
        );
    }
}
