//! Simulator workloads: `SystemSim` scheduling cycles, batch path only.
//!
//! Each sample runs the dynamic simulator for one `(seed, trial)` stream
//! with the scheduler behind [`TimedScheduler`]. Its fault plan is drawn
//! before the sample's timed region. The traced run alternates an untraced
//! and a traced sample of the same trial, so the gap between them is the
//! tracing overhead. Every sample's times, and the set-up times taken
//! before it, are rescaled to the reference speed by the calibration passes
//! on either side (`crate::host`).

use crate::host::{scale, Calibration, REFERENCE_S};
use crate::report::{peak_rss_mb, Report};
use crate::serve::set_setup_layers;
use crate::stats::{median, quantile};
use crate::timed::{CycleLog, Layers, TimedScheduler};
use crate::trace::Tracer;
use crate::{RunOpts, MIN_SAMPLES};
use rsin_core::model::{FreeResource, ScheduleProblem};
use rsin_core::scheduler::{MaxFlowScheduler, MultiCommodityScheduler, ScheduleScratch, Scheduler};
use rsin_core::transform::reusable::ReusableTransform;
use rsin_flow::SolveScratch;
use rsin_obs::NoopProbe;
use rsin_sim::system::{fault_plan_seed, DegradedPolicy, DynamicConfig, FaultedStats, SystemSim};
use rsin_topology::builders::omega;
use rsin_topology::{CircuitState, FaultPlan, FaultPlanConfig, Network};
use std::time::Instant;

/// Which scheduler and fault model a simulator workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// `MaxFlowScheduler` (Dinic) under an independent link+box fault plan
    /// with the BFS degraded retry.
    FaultedMaxFlow,
    /// `MultiCommodityScheduler` on a fault-free network with several
    /// resource types.
    Hetero,
}

/// One simulator workload.
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    /// Omega network size.
    pub size: usize,
    /// Scheduler and fault model.
    pub kind: SimKind,
    /// Resource types (1 = homogeneous).
    pub types: usize,
    /// Simulated time of one sample.
    pub sim_time: f64,
}

/// Target resource utilization of both simulator workloads.
const RHO: f64 = 0.8;

/// Setup constructions timed per sample.
const SETUP_REPS: usize = 2;

impl SimSpec {
    fn config(&self, seed: u64) -> DynamicConfig {
        DynamicConfig {
            rho: RHO,
            sim_time: self.sim_time,
            warmup: self.sim_time / 10.0,
            seed,
            types: self.types,
            ..DynamicConfig::default()
        }
    }

    fn plan(&self, net: &Network, seed: u64, trial: u64) -> FaultPlan {
        match self.kind {
            SimKind::FaultedMaxFlow => FaultPlan::generate(
                net,
                &FaultPlanConfig {
                    link_failure_rate: 0.004,
                    box_failure_rate: 0.002,
                    mean_repair: 2.0,
                    horizon: self.sim_time,
                },
                fault_plan_seed(seed, trial),
            ),
            SimKind::Hetero => FaultPlan::empty(),
        }
    }

    fn scheduler(&self) -> Box<dyn Scheduler> {
        match self.kind {
            SimKind::FaultedMaxFlow => Box::new(MaxFlowScheduler::default()),
            SimKind::Hetero => Box::new(MultiCommodityScheduler::default()),
        }
    }

    fn layers(&self) -> Layers {
        match self.kind {
            SimKind::FaultedMaxFlow => Layers::MaxFlow {
                graph: ReusableTransform::new(),
                scratch: SolveScratch::new(),
            },
            SimKind::Hetero => Layers::Hetero,
        }
    }

    /// Transformation-graph builds a run must report: the max-flow scheduler
    /// builds its reusable graph once; the multicommodity scheduler builds a
    /// fresh multicommodity network per cycle and never touches the
    /// simulator's reusable graph.
    fn expected_rebuilds(&self) -> u64 {
        match self.kind {
            SimKind::FaultedMaxFlow => 1,
            SimKind::Hetero => 0,
        }
    }
}

/// One simulator run through the wrapper.
struct Sample {
    start: Instant,
    end: Instant,
    secs: f64,
    stats: Result<FaultedStats, String>,
    log: CycleLog,
}

fn run_sample(
    net: &Network,
    spec: &SimSpec,
    seed: u64,
    trial: u64,
    scheduler: &dyn Scheduler,
    log: CycleLog,
) -> Sample {
    let plan = spec.plan(net, seed, trial);
    let sim = SystemSim::new(net, spec.config(seed));
    let timed = TimedScheduler::new(scheduler, log);
    let start = Instant::now();
    let stats = sim.try_run_faulted_trial_policy_probed(
        &timed,
        &plan,
        trial,
        DegradedPolicy::Bfs,
        &NoopProbe,
    );
    let end = Instant::now();
    Sample {
        start,
        end,
        secs: (end - start).as_secs_f64(),
        stats: stats.map_err(|e| e.to_string()),
        log: timed.into_log(),
    }
}

/// Sums over the traced pairs of a run. Loop and cycle times come from the
/// untraced sample of each pair: the decomposition that follows every
/// traced cycle disturbs the caches the next cycle runs on.
#[derive(Debug, Default)]
struct Traced {
    wall_ns: u64,
    cycle_ns: u64,
    cycles: u64,
    degraded: u64,
    augmentations: u64,
    pivots: u64,
    columns: u64,
    fallbacks: u64,
    /// Per pair: traced wall time, less the decomposition, over the
    /// untraced wall time of the same trial.
    overhead: Vec<f64>,
}

impl Traced {
    fn add(&mut self, plain: &Sample, layered: &Sample) {
        let wall_ns = |s: &Sample| (s.end - s.start).as_nanos() as u64;
        self.wall_ns += wall_ns(plain);
        self.cycle_ns += plain.log.cycle_ns.iter().sum::<u64>();
        self.cycles += plain.log.cycle_ns.len() as u64;
        let log = &layered.log;
        self.degraded += log.degraded;
        self.augmentations += log.augmentations;
        self.pivots += log.pivots;
        self.columns += log.columns;
        self.fallbacks += log.fallbacks;
        self.overhead
            .push((wall_ns(layered) - log.layer_ns) as f64 / wall_ns(plain) as f64);
    }
}

/// Check one sample's outputs (untimed).
fn check_sample(sample: &mut Sample, spec: &SimSpec, report: &mut Report) {
    let cycles = sample.log.cycle_ns.len() as u64;
    report.attempted += cycles.max(1);
    report
        .violations
        .append(&mut std::mem::take(&mut sample.log.violations));
    match &sample.stats {
        Ok(s) => {
            report.check(s.stats.cycles == cycles, || {
                format!(
                    "{} cycles counted, {cycles} scheduler calls",
                    s.stats.cycles
                )
            });
            report.check(s.transform_rebuilds == spec.expected_rebuilds(), || {
                format!("transform_rebuilds = {}", s.transform_rebuilds)
            });
            report.check(s.allocations > 0, || "no allocations".to_string());
        }
        Err(e) => {
            report.failed += 1;
            report.check(false, || format!("simulation failed: {e}"));
        }
    }
}

/// One setup sample: build the topology, then the scheduler with its
/// scratch and one cycle on an idle snapshot (which builds the reusable
/// transformation graph).
fn time_setup(spec: &SimSpec, tracer: &mut Tracer, report: &mut Report) -> f64 {
    let start = Instant::now();
    let net = omega(spec.size).expect("the workload's network built before");
    let built = Instant::now();
    let scheduler = spec.scheduler();
    let mut scratch = ScheduleScratch::new();
    let cs = CircuitState::new(&net);
    let problem = ScheduleProblem {
        circuits: &cs,
        requests: Vec::new(),
        free: (0..net.num_resources())
            .map(|r| FreeResource {
                resource: r,
                preference: 1,
                resource_type: r % spec.types,
            })
            .collect(),
    };
    let idle = scheduler.try_schedule_reusing(&problem, &mut scratch);
    let end = Instant::now();
    tracer.record("setup.topology", 0, start, built);
    tracer.record("setup.graph_build", 0, built, end);
    report.check(idle.is_ok(), || format!("idle cycle failed: {idle:?}"));
    (end - start).as_secs_f64()
}

/// The peak-memory probe, run alone in a child process: trial 0 through the
/// timing wrapper. Returns the high-water RSS in MB once the sample's
/// outputs have checked out.
pub fn probe_rss(spec: &SimSpec, opts: &RunOpts) -> Result<f64, String> {
    let net = omega(spec.size).map_err(|e| e.to_string())?;
    let scheduler = spec.scheduler();
    let log = CycleLog::new(None, Tracer::new(false));
    let mut sample = run_sample(&net, spec, opts.seed, 0, scheduler.as_ref(), log);
    let peak = peak_rss_mb().ok_or("VmHWM missing from /proc/self/status")?;
    let mut report = Report::default();
    check_sample(&mut sample, spec, &mut report);
    match report.violations.is_empty() {
        true => Ok(peak),
        false => Err(report.violations.join("; ")),
    }
}

/// Run a simulator workload for `opts.seconds`.
pub fn run(spec: &SimSpec, opts: &RunOpts, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let net = match omega(spec.size) {
        Ok(net) => net,
        Err(e) => {
            report.check(false, || format!("omega({}) failed: {e}", spec.size));
            return report;
        }
    };
    let scheduler = spec.scheduler();

    // The wrapper must not change a single statistic.
    let unwrapped = SystemSim::new(&net, spec.config(opts.seed))
        .try_run_faulted_trial_policy_probed(
            scheduler.as_ref(),
            &spec.plan(&net, opts.seed, 0),
            0,
            DegradedPolicy::Bfs,
            &NoopProbe,
        );

    // Host times, each rescaled to the reference speed by the calibration
    // passes on either side of its trial.
    let mut setup_s = Vec::new();
    let (mut secs, mut cycles, mut allocations) = (0.0, 0u64, 0u64);
    let mut cycle_us = Vec::new();
    let mut host_cycle_us = Vec::new();
    let mut traced = Traced::default();
    let mut calibration = Calibration::new();
    let mut before = calibration.pass();
    let started = Instant::now();
    let mut trial = 0u64;
    while (trial as usize) < MIN_SAMPLES || started.elapsed().as_secs_f64() < opts.seconds {
        let setups: Vec<f64> = (0..SETUP_REPS)
            .map(|_| time_setup(spec, tracer, &mut report))
            .collect();
        // Traced runs also decompose the same trial layer by layer,
        // alternating which of the pair runs first.
        let order: &[bool] = match (tracer.enabled(), trial % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        let mut pair = Vec::with_capacity(2);
        for &layered in order {
            let log = match layered {
                true => CycleLog::new(
                    Some(spec.layers()),
                    std::mem::replace(tracer, Tracer::new(false)),
                ),
                false => CycleLog::new(None, Tracer::new(false)),
            };
            let mut sample = run_sample(&net, spec, opts.seed, trial, scheduler.as_ref(), log);
            check_sample(&mut sample, spec, &mut report);
            if layered {
                *tracer = std::mem::replace(&mut sample.log.tracer, Tracer::new(false));
                tracer.record("system.run", 0, sample.start, sample.end);
            }
            pair.push((layered, sample));
        }
        let (plain, layered) = match pair.as_slice() {
            [(false, a), (true, b)] | [(true, b), (false, a)] => (a, Some(b)),
            [(_, a)] => (a, None),
            _ => unreachable!("one or two samples per trial"),
        };
        if trial == 0 {
            let same = match (&unwrapped, &plain.stats) {
                (Ok(a), Ok(b)) => format!("{a:?}") == format!("{b:?}"),
                _ => false,
            };
            report.check(same, || {
                "FaultedStats differ with and without the timing wrapper".to_string()
            });
        }
        let after = calibration.pass();
        let k = scale(before, after);
        before = after;
        setup_s.extend(setups.iter().map(|s| s * k));
        if let Ok(s) = &plain.stats {
            secs += plain.secs * k;
            cycles += s.stats.cycles;
            allocations += s.allocations;
        }
        cycle_us.extend(plain.log.cycle_ns.iter().map(|&ns| ns as f64 / 1e3 * k));
        if tracer.enabled() {
            host_cycle_us.extend(plain.log.cycle_ns.iter().map(|&ns| ns as f64 / 1e3));
        }
        if let Some(layered) = layered {
            traced.add(plain, layered);
        }
        trial += 1;
    }
    report.set("setup_s", median(&setup_s));
    report.set("cycles_per_s", cycles as f64 / secs);
    report.set("decisions_per_s", allocations as f64 / secs);
    report.set("cycle_p50_us", quantile(&cycle_us, 0.5));
    if tracer.enabled() {
        report.set("cycle_p99_us", quantile(&host_cycle_us, 0.99));
        let n = traced.cycles.max(1) as f64;
        let us = |name: &str| tracer.total_ns(name) as f64 / n / 1e3;
        report.set(
            "system.loop_us_per_cycle",
            (traced.wall_ns as f64 - traced.cycle_ns as f64) / n / 1e3,
        );
        report.set("scheduler.cycle_us", traced.cycle_ns as f64 / n / 1e3);
        report.set("scheduler.degraded_share", traced.degraded as f64 / n);
        report.set(
            "transform.configure_us_per_cycle",
            us("transform.configure_max_flow"),
        );
        report.set("max_flow.solve_us_per_cycle", us("max_flow.solve_with"));
        report.set(
            "max_flow.augmentations_per_cycle",
            traced.augmentations as f64 / n,
        );
        report.set(
            "mapping.extract_us_per_cycle",
            us("mapping.extract") + us("mapping.extract_hetero"),
        );
        report.set("hetero.transform_us_per_cycle", us("hetero.transform_max"));
        report.set("lp.solve_ms_per_cycle", us("multicommodity.max_flow") / 1e3);
        report.set("lp.pivots_per_cycle", traced.pivots as f64 / n);
        report.set("lp.columns_per_cycle", traced.columns as f64 / n);
        report.set("lp.fallback_share", traced.fallbacks as f64 / n);
        set_setup_layers(tracer, &mut report);
        report.rescale_per_layer(REFERENCE_S / median(calibration.passes()));
        report.set("trace.overhead_ratio", median(&traced.overhead));
    }
    report.calibration = calibration.passes().to_vec();
    report
}
