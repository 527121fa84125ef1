//! A small-size run of every workload, untraced and traced, on two seeds,
//! with every output check of the full benchmark.

use rsin_perfbench::report::{Report, END_TO_END};
use rsin_perfbench::{run, RunOpts, WORKLOADS};
use std::path::PathBuf;

const SEEDS: [u64; 2] = [1, 2];

fn small(workload: &str, seed: u64, traced: bool) -> Report {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{workload}-{seed}-{traced}"));
    std::fs::create_dir_all(&out_dir).expect("test output directory");
    let opts = RunOpts {
        seed,
        seconds: 0.0,
        traced,
        out_dir,
        small: true,
        exe: PathBuf::from(env!("CARGO_BIN_EXE_perfbench")),
    };
    let (report, _) = run(workload, &opts).expect("known workload");
    assert!(
        report.violations.is_empty(),
        "{workload} seed {seed}: {:?}",
        report.violations
    );
    assert_eq!(report.failed, 0, "{workload} seed {seed}");
    assert!(report.attempted > 0, "{workload} seed {seed}");
    report
}

fn metric(report: &Report, name: &str) -> f64 {
    report.metrics.get(name).copied().unwrap_or(0.0)
}

#[test]
fn every_workload_passes_its_checks_and_reports_every_metric() {
    for workload in WORKLOADS {
        for seed in SEEDS {
            let report = small(workload, seed, false);
            for (name, _) in END_TO_END {
                let v = metric(&report, name);
                assert!(
                    v > 0.0 && v.is_finite(),
                    "{workload} seed {seed}: {name} = {v}"
                );
            }
            assert!(report.to_json(false).starts_with("{\"correct\": true"));
        }
    }
}

#[test]
fn traced_runs_pass_their_checks_and_time_the_intended_layers() {
    for seed in SEEDS {
        let r = small("serve_omega16", seed, true);
        for name in [
            "stream.parse_ns_per_cmd",
            "stream.render_ns_per_line",
            "incremental.decide_ns_per_cmd",
            "incremental.decide_p50_ns",
            "serve.write_ns_per_line",
            "incremental.allocs",
            "setup.graph_build_us",
        ] {
            assert!(metric(&r, name) > 0.0, "serve_omega16 seed {seed}: {name}");
        }
        for name in ["scheduler.cycle_us", "lp.solve_ms_per_cycle"] {
            assert_eq!(metric(&r, name), 0.0, "serve_omega16: {name}");
        }

        let r = small("faulted_omega16", seed, true);
        for name in [
            "system.loop_us_per_cycle",
            "scheduler.cycle_us",
            "scheduler.degraded_share",
            "transform.configure_us_per_cycle",
            "max_flow.solve_us_per_cycle",
            "max_flow.augmentations_per_cycle",
            "mapping.extract_us_per_cycle",
        ] {
            assert!(
                metric(&r, name) > 0.0,
                "faulted_omega16 seed {seed}: {name}"
            );
        }
        for name in [
            "stream.parse_ns_per_cmd",
            "serve.pipeline_ns_per_cmd",
            "lp.solve_ms_per_cycle",
        ] {
            assert_eq!(metric(&r, name), 0.0, "faulted_omega16: {name}");
        }

        let r = small("hetero_omega8", seed, true);
        for name in [
            "hetero.transform_us_per_cycle",
            "lp.solve_ms_per_cycle",
            "lp.pivots_per_cycle",
            "lp.columns_per_cycle",
        ] {
            assert!(metric(&r, name) > 0.0, "hetero_omega8 seed {seed}: {name}");
        }
        for name in ["stream.render_ns_per_line", "max_flow.solve_us_per_cycle"] {
            assert_eq!(metric(&r, name), 0.0, "hetero_omega8: {name}");
        }
    }
}

#[test]
fn benchmark_json_names_exactly_these_workloads_and_metrics() {
    let json = include_str!("../../BENCHMARK.json");
    let mut names = 0;
    for w in WORKLOADS {
        assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
        names += 1;
    }
    for (name, unit) in END_TO_END.iter().chain(rsin_perfbench::report::PER_LAYER) {
        assert!(
            json.contains(&format!(
                "\"name\": \"{name}\",\n      \"unit\": \"{unit}\""
            )),
            "{name} [{unit}]"
        );
        names += 1;
    }
    assert_eq!(json.matches("\"name\":").count(), names);
}
