//! End-to-end and per-layer benchmark of the rsin workspace.
//!
//! Three workloads, each generated from a seed and checked for correctness
//! while it is timed (see `README.md` for what each one stresses and for
//! every public function the benchmark calls):
//!
//! * `serve_omega16` — a 200 k-command log replayed through `rsin_serve`
//!   (codec, render and thread pipeline dominate);
//! * `faulted_omega16` — `SystemSim` cycles with Dinic under link and box
//!   faults and the BFS degraded retry;
//! * `hetero_omega8` — `SystemSim` cycles with the multicommodity LP
//!   scheduler over four resource types.

pub mod host;
pub mod report;
pub mod serve;
pub mod sim;
pub mod stats;
pub mod timed;
pub mod trace;

use report::Report;
use rsin_core::scheduler::IncrementalBackend;
use serve::ServeSpec;
use sim::{SimKind, SimSpec};
use std::path::PathBuf;
use trace::Tracer;

/// Peak-memory child processes per untraced run; the median is reported,
/// since thread timing moves the serve pipeline's buffering.
const RSS_PROBES: usize = 5;

/// Replays or samples taken even when `--seconds` has run out.
pub const MIN_SAMPLES: usize = 3;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["serve_omega16", "faulted_omega16", "hetero_omega8"];

/// How one run is made.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Input seed.
    pub seed: u64,
    /// Measuring time; sampling stops at the first sample boundary after it.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub traced: bool,
    /// Where command logs, decision logs and spans are written.
    pub out_dir: PathBuf,
    /// Shrink every input (for the benchmark's own tests).
    pub small: bool,
    /// This benchmark's executable, started once per untraced run as the
    /// child process whose peak memory is `peak_rss_mb`.
    pub exe: PathBuf,
}

enum Spec {
    Serve(ServeSpec),
    Sim(SimSpec),
}

fn spec(workload: &str, small: bool) -> Option<Spec> {
    fn pick<T>(small: bool, full: T, tiny: T) -> T {
        if small {
            tiny
        } else {
            full
        }
    }
    Some(match workload {
        "serve_omega16" => Spec::Serve(ServeSpec {
            size: 16,
            backend: IncrementalBackend::MaxFlow,
            events: pick(small, 200_000, 3_000),
        }),
        "faulted_omega16" => Spec::Sim(SimSpec {
            size: 16,
            kind: SimKind::FaultedMaxFlow,
            types: 1,
            sim_time: pick(small, 400.0, 6.0),
        }),
        "hetero_omega8" => Spec::Sim(SimSpec {
            size: 8,
            kind: SimKind::Hetero,
            types: 4,
            sim_time: pick(small, 4.0, 3.0),
        }),
        _ => return None,
    })
}

/// Run `workload`; `None` for an unknown name. The returned tracer holds
/// the traced run's spans (empty when untraced).
pub fn run(workload: &str, opts: &RunOpts) -> Option<(Report, Tracer)> {
    let spec = spec(workload, opts.small)?;
    let mut tracer = Tracer::new(opts.traced);
    let mut report = match spec {
        Spec::Serve(s) => serve::run(&s, opts, &mut tracer),
        Spec::Sim(s) => sim::run(&s, opts, &mut tracer),
    };
    if !opts.traced {
        let mut peaks = Vec::new();
        for _ in 0..RSS_PROBES {
            match child_peak_rss(workload, opts) {
                Ok(mb) => peaks.push(mb),
                Err(e) => report.check(false, || format!("peak-memory probe: {e}")),
            }
        }
        report.set("peak_rss_mb", stats::median(&peaks));
    }
    Some((report, tracer))
}

/// The body of the peak-memory child process (`--rss-probe 1`): one sample
/// of `workload`, then its high-water RSS in MB.
pub fn probe_rss(workload: &str, opts: &RunOpts) -> Option<Result<f64, String>> {
    Some(match spec(workload, opts.small)? {
        Spec::Serve(s) => serve::probe_rss(&s, opts),
        Spec::Sim(s) => sim::probe_rss(&s, opts),
    })
}

/// Start `opts.exe --rss-probe 1` for `workload`, wait for it, and read the
/// MB it prints.
fn child_peak_rss(workload: &str, opts: &RunOpts) -> Result<f64, String> {
    let mut child = std::process::Command::new(&opts.exe);
    child
        .args(["--workload", workload, "--rss-probe", "1"])
        .args(["--seed", &opts.seed.to_string()])
        .arg("--out-dir")
        .arg(&opts.out_dir);
    if opts.small {
        child.args(["--small", "1"]);
    }
    let out = child
        .output()
        .map_err(|e| format!("starting {}: {e}", opts.exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    stdout
        .trim()
        .parse()
        .map_err(|e| format!("reading {stdout:?}: {e}"))
}
