//! Serve workloads: a recorded command log replayed through `rsin_serve`.
//!
//! One timed replay reads the log file, parses it with
//! `rsin_sim::stream::parse_commands`, serves it with
//! `rsin_serve::serve_commands`, and writes the decision log to a file; the
//! untraced run times only that, never a sub-µs call on its own. The traced
//! run adds the per-layer passes: `replay_incremental` (decide),
//! `format_decision` (render), and a per-call timed replay for decide
//! latency quantiles. Every replay's time, and the set-up times taken
//! after it, are rescaled to the reference speed by the calibration passes
//! on either side (`crate::host`).

use crate::host::{scale, Calibration, REFERENCE_S};
use crate::report::{peak_rss_mb, Report};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{RunOpts, MIN_SAMPLES};
use rsin_core::mapping::verify;
use rsin_core::model::ScheduleProblem;
use rsin_core::scheduler::{
    IncrementalBackend, IncrementalScheduler, MaxFlowScheduler, Scheduler, StreamDecision,
};
use rsin_serve::{serve_commands, Server, ServerConfig};
use rsin_sim::stream::{
    encode_commands, format_decision, generate_commands, parse_commands, replay_incremental,
    StreamCommand,
};
use rsin_topology::builders::omega;
use rsin_topology::{CircuitState, Network};
use std::hint::black_box;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One serve workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Omega network size (processors = resources).
    pub size: usize,
    /// Flow discipline of the retained graph.
    pub backend: IncrementalBackend,
    /// Commands in the recorded log.
    pub events: usize,
}

/// Request bias of the generated logs.
const LOAD: f64 = 0.8;

/// Server constructions timed per replay iteration.
const SETUP_REPS: usize = 4;
/// Prefixes of the log whose allocated count is checked against a fresh
/// Theorem-2 solve.
const PREFIX_CHECKS: usize = 8;

/// Run a serve workload for `opts.seconds`.
pub fn run(spec: &ServeSpec, opts: &RunOpts, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let net = match omega(spec.size) {
        Ok(net) => net,
        Err(e) => {
            report.check(false, || format!("omega({}) failed: {e}", spec.size));
            return report;
        }
    };
    let config = ServerConfig {
        backend: spec.backend,
        ..Default::default()
    };

    // Inputs and the reference log, outside every timed region.
    let commands = generate_commands(spec.size, spec.events, LOAD, opts.seed, 0);
    let (cmd_path, log_path) = paths(spec, opts);
    if let Err(e) = std::fs::write(&cmd_path, encode_commands(&commands)) {
        report.check(false, || format!("writing {}: {e}", cmd_path.display()));
        return report;
    }
    let reference = match replay_incremental(&net, spec.backend, &commands) {
        Ok(d) => d,
        Err(e) => {
            report.check(false, || format!("reference replay failed: {e}"));
            return report;
        }
    };
    let reference_log = decision_log(&reference);
    check_prefixes(&net, &commands, &reference, &mut report);

    // Host seconds, each rescaled to the reference speed by the
    // calibration passes on either side of its iteration.
    let mut replay_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut latency_p50 = Vec::new();
    let mut latency_p99 = Vec::new();
    let mut calibration = Calibration::new();
    let mut before = calibration.pass();
    let started = Instant::now();
    let mut iteration = 0usize;
    while iteration < MIN_SAMPLES || started.elapsed().as_secs_f64() < opts.seconds {
        iteration += 1;
        // Traced runs pair each replay with a spanned one, alternating
        // which runs first.
        let order: &[bool] = match (tracer.enabled(), iteration % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        let mut replays = Vec::with_capacity(order.len());
        for &spanned in order {
            let replay = match spanned {
                true => replay_file(&net, config, &cmd_path, &log_path, tracer),
                false => replay_file(&net, config, &cmd_path, &log_path, &mut Tracer::new(false)),
            };
            let secs = check_replay(replay, spec, &log_path, &reference_log, &mut report);
            replays.push((spanned, secs));
        }
        let setups: Vec<f64> = (0..SETUP_REPS)
            .map(|_| time_setup(spec.size, config, tracer, &mut report))
            .collect();
        let after = calibration.pass();
        let k = scale(before, after);
        before = after;
        for (spanned, secs) in replays {
            match spanned {
                true => traced_s.push(secs * k),
                false => replay_s.push(secs * k),
            }
        }
        setup_s.extend(setups.iter().map(|s| s * k));
        if !tracer.enabled() {
            continue;
        }
        // Traced: the per-layer passes.
        let decisions = tracer.span("incremental.replay_incremental", 0, || {
            replay_incremental(&net, spec.backend, &commands)
        });
        report.check(decisions.as_ref().ok() == Some(&reference), || {
            "replay_incremental diverged between runs".to_string()
        });
        let rendered = tracer.span("stream.format_decision", 0, || {
            reference
                .iter()
                .enumerate()
                .map(|(seq, d)| format_decision(seq as u64, d))
                .collect::<Vec<String>>()
        });
        black_box(rendered);
        let latencies = decide_per_call(&net, spec, &commands, iteration == 1, tracer, &mut report);
        latency_p50.push(quantile(&latencies, 0.5));
        latency_p99.push(quantile(&latencies, 0.99));
    }
    let events = spec.events as f64;
    report.set("setup_s", median(&setup_s));
    // One command is one scheduling cycle of the service.
    let per_cmd_us = median(&replay_s) / events * 1e6;
    report.set("decisions_per_s", 1e6 / per_cmd_us);
    report.set("cycles_per_s", 1e6 / per_cmd_us);
    report.set("cycle_p50_us", per_cmd_us);
    if tracer.enabled() {
        let iters = tracer.count("serve.replay_file") as f64;
        let per_cmd = |name: &str| tracer.total_ns(name) as f64 / (iters * events);
        let decide = tracer.total_ns("incremental.replay_incremental") as f64
            / (tracer.count("incremental.replay_incremental") as f64 * events);
        let render = tracer.total_ns("stream.format_decision") as f64
            / (tracer.count("stream.format_decision") as f64 * events);
        report.set("stream.read_ns_per_cmd", per_cmd("stream.read"));
        report.set("stream.parse_ns_per_cmd", per_cmd("stream.parse_commands"));
        report.set("serve.write_ns_per_line", per_cmd("serve.write_log"));
        report.set("incremental.decide_ns_per_cmd", decide);
        report.set("stream.render_ns_per_line", render);
        report.set(
            "serve.pipeline_ns_per_cmd",
            per_cmd("serve.serve_commands") - decide - render,
        );
        report.set("incremental.decide_p50_ns", median(&latency_p50));
        report.set("incremental.decide_p99_ns", median(&latency_p99));
        report.set("cycle_p99_us", median(&latency_p99) / 1e3);
        set_setup_layers(tracer, &mut report);
        report.rescale_per_layer(REFERENCE_S / median(calibration.passes()));
        report.set(
            "trace.overhead_ratio",
            median(&traced_s) / median(&replay_s),
        );
    }
    report.calibration = calibration.passes().to_vec();
    report
}

/// The decision log the service must write for `decisions`.
fn decision_log(decisions: &[StreamDecision]) -> String {
    let mut log = String::new();
    for (seq, d) in decisions.iter().enumerate() {
        log.push_str(&format_decision(seq as u64, d));
        log.push('\n');
    }
    log
}

/// The command log and decision log of a run.
fn paths(spec: &ServeSpec, opts: &RunOpts) -> (PathBuf, PathBuf) {
    let tag = format!("serve-{}-{}-{}", spec.size, spec.backend.name(), opts.seed);
    (
        opts.out_dir.join(format!("{tag}.cmds")),
        opts.out_dir.join(format!("{tag}.log")),
    )
}

/// The peak-memory probe, run alone in a child process: one replay of the
/// command log the parent wrote. Returns the high-water RSS in MB once the
/// replay's outputs have checked out.
pub fn probe_rss(spec: &ServeSpec, opts: &RunOpts) -> Result<f64, String> {
    let net = omega(spec.size).map_err(|e| e.to_string())?;
    let config = ServerConfig {
        backend: spec.backend,
        ..Default::default()
    };
    let (cmd_path, log_path) = paths(spec, opts);
    let log_path = log_path.with_extension("rss.log");
    let replay = replay_file(&net, config, &cmd_path, &log_path, &mut Tracer::new(false));
    let peak = peak_rss_mb().ok_or("VmHWM missing from /proc/self/status")?;
    // Checked after the peak is read, so the reference does not count.
    let text = std::fs::read_to_string(&cmd_path).map_err(|e| e.to_string())?;
    let commands = parse_commands(&text).map_err(|e| e.to_string())?;
    let reference = replay_incremental(&net, spec.backend, &commands).map_err(|e| e.to_string())?;
    let reference_log = decision_log(&reference);
    let mut report = Report::default();
    check_replay(replay, spec, &log_path, &reference_log, &mut report);
    match report.violations.is_empty() {
        true => Ok(peak),
        false => Err(report.violations.join("; ")),
    }
}

/// Per-layer setup means from the `setup.*` spans.
pub(crate) fn set_setup_layers(tracer: &Tracer, report: &mut Report) {
    for (metric, span) in [
        ("setup.topology_us", "setup.topology"),
        ("setup.graph_build_us", "setup.graph_build"),
    ] {
        let n = tracer.count(span).max(1) as f64;
        report.set(metric, tracer.total_ns(span) as f64 / n / 1e3);
    }
}

/// What one file-to-file replay produced.
struct Replay {
    secs: f64,
    decisions: u64,
    errors: u64,
    rebuilds: u64,
}

/// The timed end-to-end replay: read the log file, parse, serve, write the
/// decision log.
fn replay_file(
    net: &Network,
    config: ServerConfig,
    cmd_path: &Path,
    log_path: &Path,
    tracer: &mut Tracer,
) -> Result<Replay, String> {
    let start = Instant::now();
    let text = tracer
        .span("stream.read", 0, || std::fs::read_to_string(cmd_path))
        .map_err(|e| format!("reading {}: {e}", cmd_path.display()))?;
    let commands = tracer
        .span("stream.parse_commands", 0, || parse_commands(&text))
        .map_err(|e| format!("parsing the command log: {e}"))?;
    let served = tracer.span("serve.serve_commands", 0, || {
        serve_commands(net, config, &commands)
    });
    tracer
        .span("serve.write_log", 0, || -> std::io::Result<()> {
            let mut out = std::io::BufWriter::new(std::fs::File::create(log_path)?);
            for line in &served.lines {
                out.write_all(line.as_bytes())?;
                out.write_all(b"\n")?;
            }
            out.flush()
        })
        .map_err(|e| format!("writing {}: {e}", log_path.display()))?;
    let end = Instant::now();
    tracer.record("serve.replay_file", 0, start, end);
    Ok(Replay {
        secs: (end - start).as_secs_f64(),
        decisions: served.decisions,
        errors: served.errors,
        rebuilds: served.rebuilds,
    })
}

/// Check one replay's outputs (untimed) and return its wall time.
fn check_replay(
    replay: Result<Replay, String>,
    spec: &ServeSpec,
    log_path: &Path,
    reference_log: &str,
    report: &mut Report,
) -> f64 {
    report.attempted += spec.events as u64;
    let replay = match replay {
        Ok(r) => r,
        Err(e) => {
            report.failed += spec.events as u64;
            report.check(false, || e);
            return f64::NAN;
        }
    };
    report.failed += replay.errors;
    report.check(replay.errors == 0, || {
        format!("{} error lines in the decision log", replay.errors)
    });
    report.check(replay.decisions == spec.events as u64, || {
        format!(
            "{} decisions for {} commands",
            replay.decisions, spec.events
        )
    });
    report.check(replay.rebuilds == 1, || {
        format!("server rebuilt its graph: rebuilds = {}", replay.rebuilds)
    });
    let written = std::fs::read(log_path).unwrap_or_default();
    report.check(written == reference_log.as_bytes(), || {
        "served decision log differs from the inline replay_incremental log".to_string()
    });
    replay.secs
}

/// One setup sample: build the topology and start the server (its
/// transformation graph is built inside `Server::start`). Shutdown is not
/// timed.
fn time_setup(size: usize, config: ServerConfig, tracer: &mut Tracer, report: &mut Report) -> f64 {
    let start = Instant::now();
    let net = omega(size).expect("the workload's network built before");
    let built = Instant::now();
    let server = Server::start(&net, config);
    let end = Instant::now();
    tracer.record("setup.topology", 0, start, built);
    tracer.record("serve.server_start", 0, built, end);
    let rebuilds = server.finish().rebuilds;
    report.check(rebuilds == 1, || {
        format!("idle server rebuilds = {rebuilds}")
    });
    (end - start).as_secs_f64()
}

/// Per-call timed replay (traced run only): returns every call's latency in
/// ns. On the first iteration also records the decision counts and
/// certifies the retained mapping with `mapping::verify` at the checked
/// prefixes.
fn decide_per_call(
    net: &Network,
    spec: &ServeSpec,
    commands: &[StreamCommand],
    first: bool,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Vec<f64> {
    let mut inc = tracer.span("setup.graph_build", 0, || {
        IncrementalScheduler::new(net, spec.backend)
    });
    let every = (commands.len() / PREFIX_CHECKS).max(1);
    let cs = CircuitState::new(net);
    let all: Vec<usize> = (0..net.num_resources()).collect();
    let mut active = vec![false; net.num_processors()];
    let (mut allocs, mut queues, mut promotes) = (0u64, 0u64, 0u64);
    let mut latencies = Vec::with_capacity(commands.len());
    for (i, &c) in commands.iter().enumerate() {
        let start = Instant::now();
        let d = match c {
            StreamCommand::Request { processor } => inc.request(processor),
            StreamCommand::Release { processor } => inc.release(processor),
            StreamCommand::Stats => continue,
        };
        latencies.push(start.elapsed().as_nanos() as f64);
        match d {
            Ok(StreamDecision::Allocated { .. }) => allocs += 1,
            Ok(StreamDecision::Queued { .. }) => queues += 1,
            Ok(StreamDecision::Released { promoted, .. }) => {
                promotes += u64::from(promoted.is_some())
            }
            _ => {}
        }
        if let Some(p) = c.processor() {
            active[p] = matches!(c, StreamCommand::Request { .. });
        }
        if first && (i + 1) % every == 0 {
            let requesting: Vec<usize> = (0..active.len()).filter(|&p| active[p]).collect();
            let problem = ScheduleProblem::homogeneous(&cs, &requesting, &all);
            let verdict = tracer.span("mapping.verify", 0, || match inc.assignments() {
                Ok(a) if a.len() != inc.allocated_count() => Err(format!(
                    "{} paths for {} allocations",
                    a.len(),
                    inc.allocated_count()
                )),
                Ok(a) => verify(&a, &problem),
                Err(e) => Err(e.to_string()),
            });
            report.check(verdict.is_ok(), || {
                format!("retained mapping after {} commands: {verdict:?}", i + 1)
            });
        }
    }
    if first {
        report.set("incremental.allocs", allocs as f64);
        report.set("incremental.queues", queues as f64);
        report.set("incremental.promotes", promotes as f64);
    }
    latencies
}

/// At sampled prefixes of the log, the allocated count implied by the
/// reference decisions must equal a fresh Theorem-2 max-flow solve on the
/// active request set with every resource offered.
fn check_prefixes(
    net: &Network,
    commands: &[StreamCommand],
    decisions: &[StreamDecision],
    report: &mut Report,
) {
    report.check(commands.len() == decisions.len(), || {
        format!(
            "{} decisions for {} commands",
            decisions.len(),
            commands.len()
        )
    });
    let every = (commands.len() / PREFIX_CHECKS).max(1);
    let cs = CircuitState::new(net);
    let all: Vec<usize> = (0..net.num_resources()).collect();
    let mut active = vec![false; net.num_processors()];
    let mut allocated = 0i64;
    for (i, (&c, d)) in commands.iter().zip(decisions).enumerate() {
        if let Some(p) = c.processor() {
            active[p] = matches!(c, StreamCommand::Request { .. });
        }
        allocated += match d {
            StreamDecision::Allocated { .. } => 1,
            StreamDecision::Released { promoted: None, .. } => -1,
            _ => 0,
        };
        if (i + 1) % every != 0 {
            continue;
        }
        let requesting: Vec<usize> = (0..active.len()).filter(|&p| active[p]).collect();
        let problem = ScheduleProblem::homogeneous(&cs, &requesting, &all);
        match MaxFlowScheduler::default().try_schedule(&problem) {
            Ok(fresh) => report.check(fresh.allocated() as i64 == allocated, || {
                format!(
                    "after {} commands: {allocated} allocated, fresh Theorem-2 solve {}",
                    i + 1,
                    fresh.allocated()
                )
            }),
            Err(e) => report.check(false, || format!("fresh solve failed: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_one_byte_log_difference_fails_the_replay_check() {
        let dir = std::env::temp_dir().join(format!("perfbench-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log_path = dir.join("decisions.log");
        std::fs::write(&log_path, "0 alloc p1 r2\n").unwrap();
        let spec = ServeSpec {
            size: 8,
            backend: IncrementalBackend::MaxFlow,
            events: 1,
        };
        let replay = || {
            Ok(Replay {
                secs: 1.0,
                decisions: 1,
                errors: 0,
                rebuilds: 1,
            })
        };
        let mut ok = Report::default();
        check_replay(replay(), &spec, &log_path, "0 alloc p1 r2\n", &mut ok);
        assert!(ok.violations.is_empty(), "{:?}", ok.violations);
        let mut bad = Report::default();
        check_replay(replay(), &spec, &log_path, "0 alloc p1 r3\n", &mut bad);
        assert_eq!(bad.violations.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
