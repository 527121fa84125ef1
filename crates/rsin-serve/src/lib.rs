//! # rsin-serve — streaming scheduler service
//!
//! A long-lived event loop over the warm-start [`IncrementalScheduler`]:
//! [`Server::submit`] decides each command **incrementally** on the
//! retained residual flow (the transformation graph is built exactly once —
//! `rebuilds` stays 1 for the lifetime of the service) and renders its
//! canonical decision-log line, all on the caller's thread.
//!
//! ## Determinism contract
//!
//! One loop decides, stamps and renders every command in submission order,
//! so line `i` of the log answers command `i` by construction. In-band `S`
//! probes snapshot the live occupancy at their exact position in the
//! stream. The emitted log — decision, error, and stats lines alike — is
//! therefore a pure function of the command stream; the CI `determinism`
//! job `cmp`s a replayed command log against the same stream generated
//! in-process and against a committed golden log. Wall-clock latency
//! quantiles are the one nondeterministic readout, so they only appear
//! under [`ServerConfig::stats_latency`], which CI leaves off.
//!
//! ## Error handling
//!
//! A malformed command (unknown processor, duplicate request, release of an
//! idle processor) yields a typed [`ScheduleError`]; the service renders it
//! as an `error` log line and keeps serving — a bad client command must not
//! take the event loop down. See DESIGN.md §11 for the architecture and the
//! cancel/augment invariants the scheduler relies on.

use rsin_core::scheduler::{
    IncrementalBackend, IncrementalScheduler, ScheduleError, StreamDecision,
};
use rsin_obs::{NoopProbe, Probe, WindowedHistogram};
use rsin_sim::stream::{format_decision, StreamCommand};
use rsin_topology::Network;
use std::io::{self, Write};
use std::time::Instant;

/// How a [`Server`] is run.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Flow discipline for the retained graph.
    pub backend: IncrementalBackend,
    /// Append wall-clock decision-latency quantiles (`p50_ns=`/`p90_ns=`/
    /// `p99_ns=`, over the window since the previous `S` probe) to every
    /// stats line. Off by default: latency values vary run to run, so the
    /// determinism contract covers only the event-count fields.
    pub stats_latency: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            backend: IncrementalBackend::MaxFlow,
            stats_latency: false,
        }
    }
}

/// Final accounting of a served stream.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Log lines in sequence order (one per submitted command — decisions,
    /// errors, and `stats` lines alike).
    pub lines: Vec<String>,
    /// Commands that produced a decision.
    pub decisions: u64,
    /// Commands rejected with a typed error (rendered as `error` lines).
    pub errors: u64,
    /// In-band `S` probes served (rendered as `stats` lines).
    pub stats_probes: u64,
    /// Processors still holding an allocation at shutdown.
    pub allocated: usize,
    /// Processors still queued at shutdown.
    pub queued: usize,
    /// Transformation-graph builds over the service lifetime (always 1).
    pub rebuilds: u64,
}

impl ServeReport {
    /// The full decision log as one newline-terminated string (empty for an
    /// empty stream). This is the byte sequence the determinism job
    /// compares.
    pub fn log(&self) -> String {
        let mut s = String::new();
        for line in &self.lines {
            s.push_str(line);
            s.push('\n');
        }
        s
    }

    /// Write the [`log`](Self::log) bytes to `out` line by line, without
    /// building the whole log as a second copy.
    pub fn write_log(&self, out: &mut impl Write) -> io::Result<()> {
        for line in &self.lines {
            out.write_all(line.as_bytes())?;
            out.write_all(b"\n")?;
        }
        Ok(())
    }
}

/// The canonical rendering of a rejected command (kept next to
/// [`format_decision`] semantics: sequence number first, then the verdict).
pub fn format_error(seq: u64, e: &ScheduleError) -> String {
    format!("{seq} error {e}")
}

/// What one in-band `S` probe sees: cumulative event counts plus the live
/// occupancy at the probe's position in the stream. Every field is a
/// deterministic function of the command prefix, so the rendered line is
/// part of the byte-identical determinism contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Commands decided so far (excluding errors and probes).
    pub decisions: u64,
    /// Commands rejected so far.
    pub errors: u64,
    /// Processors currently holding an allocation.
    pub allocated: usize,
    /// Processors currently queued.
    pub queued: usize,
    /// `alloc` decisions so far.
    pub allocs: u64,
    /// `queue` decisions so far.
    pub queues: u64,
    /// `release` decisions so far.
    pub releases: u64,
    /// Promotions riding on those releases.
    pub promotes: u64,
    /// `withdraw` decisions so far.
    pub withdraws: u64,
}

impl StatsSnapshot {
    /// Count one decision into the cumulative per-kind fields.
    fn count(&mut self, d: &StreamDecision) {
        self.decisions += 1;
        match d {
            StreamDecision::Allocated { .. } => self.allocs += 1,
            StreamDecision::Queued { .. } => self.queues += 1,
            StreamDecision::Released { promoted, .. } => {
                self.releases += 1;
                self.promotes += u64::from(promoted.is_some());
            }
            StreamDecision::Withdrawn { .. } => self.withdraws += 1,
        }
    }
}

/// The canonical stats line for probe `seq` (newline not included). Only
/// deterministic event-count fields — wall-clock quantiles are appended
/// separately (and only under [`ServerConfig::stats_latency`]) so this
/// rendering is byte-identical run to run.
pub fn format_stats(seq: u64, s: &StatsSnapshot) -> String {
    format!(
        "{seq} stats decisions={} errors={} allocated={} queued={} allocs={} \
         queues={} releases={} promotes={} withdraws={}",
        s.decisions,
        s.errors,
        s.allocated,
        s.queued,
        s.allocs,
        s.queues,
        s.releases,
        s.promotes,
        s.withdraws
    )
}

/// A running streaming scheduler service.
///
/// Built by [`Server::start`] (or [`Server::start_observed`]); fed with
/// [`Server::submit`], which decides and renders each command before it
/// returns; torn down with [`Server::finish`], which returns the
/// [`ServeReport`].
pub struct Server<'p> {
    inc: IncrementalScheduler,
    probe: &'p dyn Probe,
    stats_latency: bool,
    latency: WindowedHistogram,
    snap: StatsSnapshot,
    stats_probes: u64,
    lines: Vec<String>,
}

impl Server<'static> {
    /// Start the event loop for `net` (unobserved).
    pub fn start(net: &Network, config: ServerConfig) -> Self {
        Server::start_observed(net, config, &NoopProbe)
    }
}

impl<'p> Server<'p> {
    /// Start the event loop with per-decision probe reporting: every
    /// decision bumps the `stream_*` counters, records its latency in
    /// `decision_latency_ns` (see `rsin-obs`), and emits its
    /// submit/allocate/queue/promote/release lifecycle spans — a
    /// [`FlightRecorder`](rsin_obs::FlightRecorder) probe captures them for
    /// export after [`finish`](Self::finish). Probes never change decisions
    /// or log bytes.
    pub fn start_observed(net: &Network, config: ServerConfig, probe: &'p dyn Probe) -> Self {
        Server {
            inc: IncrementalScheduler::new(net, config.backend),
            probe,
            stats_latency: config.stats_latency,
            latency: WindowedHistogram::new(),
            snap: StatsSnapshot::default(),
            stats_probes: 0,
            lines: Vec::new(),
        }
    }

    /// Decide one command and append its log line: a decision, an `error`
    /// line for a rejected command, or a `stats` line for an `S` probe.
    pub fn submit(&mut self, cmd: StreamCommand) {
        let seq = self.lines.len() as u64;
        let started = self.stats_latency.then(Instant::now);
        let result = match cmd {
            StreamCommand::Request { processor } => {
                self.inc.request_observed(processor, self.probe)
            }
            StreamCommand::Release { processor } => {
                self.inc.release_observed(processor, self.probe)
            }
            StreamCommand::Stats => {
                let line = self.stats_line(seq);
                self.lines.push(line);
                return;
            }
        };
        if let Some(t) = started {
            self.latency.record(t.elapsed().as_nanos() as u64);
        }
        let line = match result {
            Ok(d) => {
                self.snap.count(&d);
                format_decision(seq, &d)
            }
            Err(e) => {
                self.snap.errors += 1;
                format_error(seq, &e)
            }
        };
        self.lines.push(line);
    }

    /// Snapshot the stream position and render probe `seq`'s stats line.
    fn stats_line(&mut self, seq: u64) -> String {
        self.stats_probes += 1;
        self.snap.allocated = self.inc.allocated_count();
        self.snap.queued = self.inc.queued_count();
        let mut line = format_stats(seq, &self.snap);
        if self.stats_latency {
            // Close the window that accumulated since the last probe and
            // quote it. Wall-clock values: never part of the deterministic
            // byte contract, hence behind the flag.
            self.latency.rotate();
            let w = self.latency.previous();
            line.push_str(&format!(
                " p50_ns={} p90_ns={} p99_ns={}",
                w.p50(),
                w.p90(),
                w.p99()
            ));
        }
        line
    }

    /// Shut the service down and return the report.
    pub fn finish(self) -> ServeReport {
        ServeReport {
            lines: self.lines,
            decisions: self.snap.decisions,
            errors: self.snap.errors,
            stats_probes: self.stats_probes,
            allocated: self.inc.allocated_count(),
            queued: self.inc.queued_count(),
            rebuilds: self.inc.rebuilds(),
        }
    }
}

/// Run a whole command slice through a fresh server and return the report.
pub fn serve_commands(
    net: &Network,
    config: ServerConfig,
    commands: &[StreamCommand],
) -> ServeReport {
    serve_commands_observed(net, config, commands, &NoopProbe)
}

/// [`serve_commands`] with probe reporting (counters, latency histogram and
/// lifecycle spans; see [`Server::start_observed`]).
pub fn serve_commands_observed(
    net: &Network,
    config: ServerConfig,
    commands: &[StreamCommand],
    probe: &dyn Probe,
) -> ServeReport {
    let mut server = Server::start_observed(net, config, probe);
    server.lines.reserve_exact(commands.len());
    for &cmd in commands {
        server.submit(cmd);
    }
    server.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsin_obs::{Counter, Telemetry};
    use rsin_sim::stream::{generate_commands, replay_incremental};
    use rsin_topology::builders::omega;

    fn cfg(backend: IncrementalBackend) -> ServerConfig {
        ServerConfig {
            backend,
            ..Default::default()
        }
    }

    #[test]
    fn server_log_matches_direct_replay() {
        let net = omega(8).unwrap();
        let backends = [IncrementalBackend::MaxFlow, IncrementalBackend::MinCost];
        for (events, load, seed) in [(200, 0.6, 9), (400, 0.7, 21)] {
            let cmds = generate_commands(8, events, load, seed, 0);
            for backend in backends {
                let report = serve_commands(&net, cfg(backend), &cmds);
                let direct = replay_incremental(&net, backend, &cmds).unwrap();
                let want: Vec<String> = direct
                    .iter()
                    .enumerate()
                    .map(|(i, d)| format_decision(i as u64, d))
                    .collect();
                assert_eq!(report.lines, want, "seed {seed} {backend:?}");
                assert_eq!(report.rebuilds, 1);
                assert_eq!(report.decisions, cmds.len() as u64);
                assert_eq!(report.errors, 0);
                let mut written = Vec::new();
                report.write_log(&mut written).unwrap();
                assert_eq!(written, report.log().into_bytes());
            }
        }
    }

    #[test]
    fn malformed_commands_become_error_lines_and_service_survives() {
        let net = omega(8).unwrap();
        let mut server = Server::start(&net, cfg(IncrementalBackend::MaxFlow));
        server.submit(StreamCommand::Request { processor: 0 });
        // Duplicate request and out-of-range processor are both rejected.
        server.submit(StreamCommand::Request { processor: 0 });
        server.submit(StreamCommand::Request { processor: 99 });
        server.submit(StreamCommand::Release { processor: 0 });
        let report = server.finish();
        assert_eq!(report.decisions, 2);
        assert_eq!(report.errors, 2);
        assert_eq!(report.lines.len(), 4);
        assert!(
            report.lines[1].starts_with("1 error "),
            "{}",
            report.lines[1]
        );
        assert!(
            report.lines[2].starts_with("2 error "),
            "{}",
            report.lines[2]
        );
        assert!(
            report.lines[3].starts_with("3 release "),
            "{}",
            report.lines[3]
        );
        assert_eq!(report.allocated, 0);
    }

    #[test]
    fn probes_see_per_decision_counters() {
        let net = omega(8).unwrap();
        let cmds = generate_commands(8, 100, 0.7, 33, 0);
        let telemetry = Telemetry::new();
        let report =
            serve_commands_observed(&net, cfg(IncrementalBackend::MaxFlow), &cmds, &telemetry);
        assert_eq!(
            telemetry.counter(Counter::StreamDecisions),
            report.decisions
        );
        let allocs = report
            .lines
            .iter()
            .filter(|l| l.contains(" alloc "))
            .count() as u64;
        assert_eq!(telemetry.counter(Counter::StreamAllocated), allocs);
        let hist = telemetry.histogram(rsin_obs::Hist::DecisionLatencyNs);
        assert_eq!(hist.count, report.decisions);
    }

    #[test]
    fn stats_lines_snapshot_the_stream_position() {
        let net = omega(8).unwrap();
        let cmds = rsin_sim::stream::with_stats_every(&generate_commands(8, 300, 0.7, 21, 0), 50);
        let one = serve_commands(&net, cfg(IncrementalBackend::MaxFlow), &cmds);
        assert_eq!(
            one.log(),
            serve_commands(&net, cfg(IncrementalBackend::MaxFlow), &cmds).log(),
            "stats lines broke determinism"
        );
        assert_eq!(one.stats_probes, 6, "one probe per 50-command chunk");
        assert_eq!(one.decisions, 300);
        let stats: Vec<&String> = one.lines.iter().filter(|l| l.contains(" stats ")).collect();
        assert_eq!(stats.len(), 6);
        // The first probe sits at seq 50 and has seen exactly 50 decisions.
        assert!(
            stats[0].starts_with("50 stats decisions=50 errors=0 "),
            "{}",
            stats[0]
        );
        // The last probe's cumulative per-kind counts add up to the final
        // report, and its occupancy matches shutdown occupancy (no commands
        // follow it).
        let last = stats.last().unwrap();
        assert!(
            last.contains(&format!(
                "allocated={} queued={}",
                one.allocated, one.queued
            )),
            "{last}"
        );
        assert!(last.contains("decisions=300"), "{last}");
        // No wall-clock fields without the flag.
        assert!(!last.contains("p50_ns="), "{last}");
    }

    #[test]
    fn stats_latency_fields_appear_only_behind_the_flag() {
        let net = omega(8).unwrap();
        let mut cmds = generate_commands(8, 40, 0.7, 3, 0);
        cmds.push(StreamCommand::Stats);
        let config = ServerConfig {
            stats_latency: true,
            ..cfg(IncrementalBackend::MaxFlow)
        };
        let report = serve_commands(&net, config, &cmds);
        let stats_line = report
            .lines
            .iter()
            .find(|l| l.contains(" stats "))
            .expect("one probe submitted");
        for field in ["p50_ns=", "p90_ns=", "p99_ns="] {
            assert!(stats_line.contains(field), "{stats_line}");
        }
        // The deterministic prefix is unchanged by the flag.
        let plain = serve_commands(&net, cfg(IncrementalBackend::MaxFlow), &cmds);
        let plain_line = plain.lines.iter().find(|l| l.contains(" stats ")).unwrap();
        assert!(stats_line.starts_with(plain_line.as_str()), "{stats_line}");
    }

    #[test]
    fn traced_serve_keeps_log_bytes_and_emits_well_formed_spans() {
        use rsin_obs::{validate_spans, FlightRecorder, SpanPhase};
        let net = omega(8).unwrap();
        let cmds = generate_commands(8, 200, 0.8, 17, 0);
        let plain = serve_commands(&net, cfg(IncrementalBackend::MaxFlow), &cmds);
        let recorder = FlightRecorder::new(rsin_obs::trace::DEFAULT_TRACE_CAPACITY);
        let traced =
            serve_commands_observed(&net, cfg(IncrementalBackend::MaxFlow), &cmds, &recorder);
        assert_eq!(plain.log(), traced.log(), "tracing must not change the log");
        let snap = recorder.snapshot();
        assert_eq!(snap.dropped, 0);
        validate_spans(&snap.events).expect("span chains well-formed");
        let submits = snap
            .events
            .iter()
            .filter(|e| e.phase == SpanPhase::Submit)
            .count() as u64;
        let requests = cmds
            .iter()
            .filter(|c| matches!(c, StreamCommand::Request { .. }))
            .count() as u64;
        assert_eq!(submits, requests);
        // The chrome export is loadable-shaped: one async begin per submit.
        let json = snap.to_chrome_json("serve-test");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\": \"b\""));
    }

    #[test]
    fn queued_requests_promote_on_release_through_the_service() {
        // Saturate a tiny crossbar-free scenario: more requests than
        // resources forces queueing, then a release must promote.
        let net = omega(4).unwrap();
        let mut server = Server::start(&net, cfg(IncrementalBackend::MaxFlow));
        for p in 0..4 {
            server.submit(StreamCommand::Request { processor: p });
        }
        let report = server.finish();
        let allocated = report
            .lines
            .iter()
            .filter(|l| l.contains(" alloc "))
            .count();
        assert_eq!(allocated, report.allocated);
        assert_eq!(report.allocated + report.queued, 4);
    }

    #[test]
    fn empty_stream_yields_empty_log() {
        let net = omega(8).unwrap();
        let report = serve_commands(&net, ServerConfig::default(), &[]);
        assert!(report.lines.is_empty());
        assert_eq!(report.log(), "");
        assert_eq!(report.rebuilds, 1);
    }

    #[test]
    fn decisions_match_decision_enum_shape() {
        let net = omega(8).unwrap();
        let direct = replay_incremental(
            &net,
            IncrementalBackend::MaxFlow,
            &[StreamCommand::Request { processor: 3 }],
        )
        .unwrap();
        assert!(matches!(
            direct[0],
            StreamDecision::Allocated { processor: 3, .. }
        ));
    }
}
