//! The benchmark's own checks: deterministic inputs, verdict-checked tiny
//! runs, and metric names that match `BENCHMARK.json`.

use perfbench::oracle::Reference;
use perfbench::replay::replay;
use perfbench::workload::{Kind, Workload};
use perfbench::{run, RunConfig};

/// Divides the stream length for the tiny runs.
const TINY: usize = 50;

#[test]
fn generators_are_deterministic_per_seed() {
    for kind in Kind::ALL {
        let a = Workload::generate(kind, 7, TINY);
        let b = Workload::generate(kind, 7, TINY);
        assert_eq!(a.delivered, b.delivered, "{}", kind.name());
        assert_eq!(a.queries, b.queries, "{}", kind.name());
        assert_eq!(a.wire, b.wire, "{}", kind.name());
        let other = Workload::generate(kind, 8, TINY);
        assert_ne!(a.delivered, other.delivered, "{}", kind.name());
    }
}

#[test]
fn streams_are_stream_legal() {
    for kind in Kind::ALL {
        let w = Workload::generate(kind, 3, TINY);
        let mut last = vec![None; w.processes];
        for e in &w.clean {
            assert!(
                last[e.process].is_none_or(|t| e.time > t),
                "{}: per-process times must strictly increase",
                kind.name()
            );
            last[e.process] = Some(e.time);
        }
    }
}

#[test]
fn tiny_replays_match_the_oracle() {
    for kind in Kind::ALL {
        let w = Workload::generate(kind, 11, TINY);
        let reference = Reference::oracle(&w);
        for traced in [false, true] {
            let r = replay(&w, traced);
            assert_eq!(r.failed, 0, "{}", kind.name());
            assert!(!r.latencies_ns.is_empty(), "{}", kind.name());
            assert_eq!(r.outcome, reference, "{} traced={traced}", kind.name());
        }
    }
}

#[test]
fn the_swap_reference_counts_every_duplicate() {
    let w = Workload::generate(Kind::SwapSessionsWire, 5, TINY);
    assert!(w.duplicates > 0);
    assert_eq!(
        w.delivered.len() as u64,
        w.clean.len() as u64 + w.duplicates
    );
    let reference = Reference::oracle(&w);
    assert!(reference.integrity.iter().all(|i| !i.is_exact()));
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root");
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let out = run(&RunConfig {
            kind: Kind::SwapSessionsWire,
            seed: 1,
            seconds: 0.0,
            trace,
            scale: TINY,
        });
        assert!(out.correct, "{:?}", out.lines);
        let printed: Vec<(String, String)> = out
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(printed, listed(&manifest, section), "{section}");
        let json = out.json();
        for (name, unit) in &printed {
            assert!(
                json.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(json.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
    }
}

#[test]
fn workload_names_match_benchmark_json() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root");
    let names: Vec<String> = section(&manifest, "workloads")
        .split("\"name\"")
        .skip(1)
        .map(|rest| quoted(rest).to_string())
        .collect();
    let ours: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
    assert_eq!(names, ours);
}

/// The `[...]` array following `"key":` in the manifest.
fn section<'m>(manifest: &'m str, key: &str) -> &'m str {
    let start = manifest
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let open = start + manifest[start..].find('[').expect("an array follows");
    let close = open + manifest[open..].find(']').expect("the array closes");
    &manifest[open..close]
}

/// The first string literal after a `:` in `text`.
fn quoted(text: &str) -> &str {
    let after = &text[text.find(':').expect("a value follows") + 1..];
    let start = after.find('"').expect("a string value") + 1;
    let end = start + after[start..].find('"').expect("the string closes");
    &after[start..end]
}

/// `(name, unit)` of every metric listed in a section.
fn listed(manifest: &str, key: &str) -> Vec<(String, String)> {
    section(manifest, key)
        .split('{')
        .skip(1)
        .map(|entry| {
            let field = |f: &str| {
                let at = entry
                    .find(&format!("\"{f}\""))
                    .unwrap_or_else(|| panic!("a metric without {f}"));
                quoted(&entry[at + f.len() + 2..]).to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}
