//! Every workload runs end to end at smoke size, in both modes, and
//! reports exactly the metrics `BENCHMARK.json` lists for that mode.

use matgpt_perfbench::inputs::Scale;
use matgpt_perfbench::{run, Args, Workload};

/// Metric names of one section of `BENCHMARK.json` (`end_to_end` or
/// `per_layer`), in file order. The file keeps one metric per line.
fn listed(section: &str) -> Vec<String> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.lines()
        .filter_map(|l| l.split("\"name\": \"").nth(1))
        .map(|rest| rest[..rest.find('"').expect("quoted name")].to_string())
        .collect()
}

#[test]
fn every_workload_runs_end_to_end_in_both_modes() {
    // one test, so runs never overlap: the trainer publishes its loss
    // on a process-wide gauge that the traced replay reads
    let e2e = listed("end_to_end");
    let per_layer = listed("per_layer");
    assert_eq!(e2e.len(), 6);
    assert!(e2e.contains(&"setup_s".to_string()));
    assert_eq!(per_layer.len(), 47);
    for workload in Workload::ALL {
        for trace in [false, true] {
            let args = Args {
                workload,
                seed: 5,
                seconds: 0.5,
                trace,
                scale: Scale::Smoke,
            };
            let out = run(&args);
            let what = format!("{} trace={trace}", workload.name());
            assert!(out.correct(), "{what}: {:?}", out.errors);
            assert!(out.attempted >= 1, "{what}");
            let names: Vec<String> = out.metrics.iter().map(|m| m.name.to_string()).collect();
            let mut want = if trace {
                per_layer.clone()
            } else {
                e2e.clone()
            };
            let mut got = names.clone();
            want.sort();
            got.sort();
            assert_eq!(got, want, "{what}: metric names");
            let json = out.json();
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
            if !trace {
                for m in &out.metrics {
                    assert!(m.value > 0.0, "{what}: {} = {}", m.name, m.value);
                }
            }
        }
    }
}
