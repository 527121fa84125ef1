//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. Command
//! logs, decision logs and (traced) spans go to `.bench_out/` under the
//! working directory.

use rsin_perfbench::host::{pin_to_one_cpu, REFERENCE_S};
use rsin_perfbench::stats::median;
use rsin_perfbench::{probe_rss, run, RunOpts, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse() -> Result<(String, RunOpts, bool), String> {
    let mut workload = None;
    let mut opts = RunOpts {
        seed: 1,
        seconds: 10.0,
        traced: false,
        out_dir: PathBuf::from(".bench_out"),
        small: false,
        exe: std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?,
    };
    let mut rss_probe = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                opts.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--out-dir" => opts.out_dir = PathBuf::from(value),
            "--rss-probe" => rss_probe = value == "1",
            "--small" => opts.small = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a non-negative number, got {}",
            opts.seconds
        ));
    }
    Ok((workload, opts, rss_probe))
}

fn main() -> ExitCode {
    let (workload, opts, rss_probe) = match parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Before any thread starts, so the program's threads inherit the CPU.
    if pin_to_one_cpu().is_none() {
        eprintln!("perfbench: could not pin the process to one CPU; timings will spread more");
    }
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("perfbench: creating {}: {e}", opts.out_dir.display());
        return ExitCode::from(2);
    }
    if rss_probe {
        return match probe_rss(&workload, &opts).expect("workload name checked above") {
            Ok(mb) => {
                println!("{mb}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let (report, tracer) = run(&workload, &opts).expect("workload name checked above");
    let pass_s = median(&report.calibration);
    eprintln!(
        "perfbench: {} calibration passes, median {:.3} ms; times rescaled by about {:.3}",
        report.calibration.len(),
        pass_s * 1e3,
        REFERENCE_S / pass_s
    );
    for v in &report.violations {
        eprintln!("perfbench: check failed: {v}");
    }
    if opts.traced {
        let path = opts
            .out_dir
            .join(format!("trace-{workload}-{}.json", opts.seed));
        if let Err(e) = tracer.write_json(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    println!("{}", report.to_json(opts.traced));
    ExitCode::SUCCESS
}
