//! Dynamic discrete-event simulation of the full resource-sharing system
//! (Section II model, points 1–5).
//!
//! * Tasks arrive at each processor as a Poisson process and queue there;
//!   a processor transmits **one task at a time** (model point 5).
//! * When pending requests and free resources coexist, a scheduling cycle
//!   runs (any [`Scheduler`]), establishing circuits for the allocated
//!   requests; blocked requests stay queued for the next cycle.
//! * The circuit is **released once the task has been transmitted**; the
//!   resource stays busy until the task completes (point 5), modelling why
//!   circuit switching beats packet switching here (point 1: "a task cannot
//!   be processed until it is completely received").
//!
//! Outputs: resource utilization, task response time, queue lengths, and
//! per-cycle blocking — the performance indexes the paper's scheduling
//! objective optimizes.

use crate::metrics::Sample;
use crate::workload::{exponential, trial_rng};
use rand::rngs::StdRng;
use rand::Rng;
use rsin_core::conformance::ConformanceDetector;
use rsin_core::model::{FreeResource, ScheduleProblem, ScheduleRequest};
use rsin_core::scheduler::{ScheduleError, ScheduleScratch, Scheduler};
use rsin_obs::{Counter, NoopProbe, Probe, SpanPhase};
use rsin_topology::{
    CircuitError, CircuitId, CircuitState, FaultAction, FaultDomain, FaultPlan, FaultPlanConfig,
    FaultTarget, Network,
};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Salt separating the fault-plan RNG stream from the arrival/service
/// stream of the same `(seed, trial)` pair: both follow the `trial_rng`
/// stream-splitting convention, but a plan must never replay (or perturb)
/// the simulation's own draws.
const FAULT_STREAM_SALT: u64 = 0xFA17_57A7_0000_D001;

/// Seed for the [`FaultPlan`] of a `(seed, trial)` pair, mirroring
/// [`trial_rng`]'s convention with an extra stream salt.
pub fn fault_plan_seed(seed: u64, trial: u64) -> u64 {
    (seed ^ trial.wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ FAULT_STREAM_SALT
}

/// Parameters of a dynamic simulation.
#[derive(Debug, Clone, Copy)]
pub struct DynamicConfig {
    /// Task arrival rate per processor (Poisson).
    pub arrival_rate: f64,
    /// Mean task transmission time (exponential; circuit held this long).
    pub mean_transmission: f64,
    /// Mean resource service time (exponential; resource busy this long
    /// after transmission completes).
    pub mean_service: f64,
    /// Simulated time horizon.
    pub sim_time: f64,
    /// Statistics ignore events before this time (warm-up).
    pub warmup: f64,
    /// RNG seed.
    pub seed: u64,
    /// Number of resource types (1 = homogeneous). Resource `r` has type
    /// `r % types`; each arriving task draws a uniform type, so the offered
    /// load is balanced across types.
    pub types: usize,
    /// Number of priority/preference levels (1 = the classic unpriced
    /// model). Processor `p` requests at priority `1 + p % levels` and
    /// resource `r` offers preference `1 + r % levels` — deterministic, no
    /// RNG draws — so with `levels == 1` every run is bit-identical to the
    /// unpriced simulator, while `levels > 1` gives degraded-mode recovery
    /// a non-trivial Transformation-2 cost surface to optimize over.
    pub priority_levels: u32,
    /// Target resource utilization ρ (heavy-traffic knob). `0.0` disables
    /// the knob and `arrival_rate` is used verbatim — bit-identical to the
    /// pre-knob simulator. When `rho > 0.0` the per-processor arrival rate
    /// is derived at run time from the network shape as
    /// `ρ · nr / (np · (mean_transmission + mean_service))`, so offered
    /// load scales with the resource pool and `ρ ≥ 1` puts the system past
    /// its saturation point (queues grow without bound; see
    /// [`DynamicStats::final_queue`]).
    pub rho: f64,
    /// Tasks enqueued per arrival event (bursty/batch arrivals). The
    /// inter-arrival gap stretches by the same factor, so the *offered*
    /// load is unchanged while arrivals come in bursts. `1` (and `0`,
    /// normalized to `1`) reproduces the Poisson-per-task stream
    /// bit-identically.
    pub batch_size: usize,
    /// Per-processor queue bound. `0` = unbounded (the classic model,
    /// bit-identical). With a bound, an arrival finding its processor's
    /// queue full is **shed** — dropped, never scheduled — and counted in
    /// [`DynamicStats::shed_arrivals`]; sub-saturation runs with a generous
    /// bound shed nothing.
    pub queue_capacity: usize,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        DynamicConfig {
            arrival_rate: 0.1,
            mean_transmission: 0.2,
            mean_service: 1.0,
            sim_time: 1000.0,
            warmup: 100.0,
            seed: 1,
            types: 1,
            priority_levels: 1,
            rho: 0.0,
            batch_size: 1,
            queue_capacity: 0,
        }
    }
}

impl DynamicConfig {
    /// The per-processor arrival rate this config actually runs at on a
    /// network with `np` processors and `nr` resources: `arrival_rate`
    /// unless the utilization-targeting `rho` knob is set, in which case
    /// the rate that makes the *offered* resource utilization equal ρ
    /// (each task holds a resource for `mean_transmission + mean_service`
    /// on average).
    pub fn effective_arrival_rate(&self, np: usize, nr: usize) -> f64 {
        if self.rho > 0.0 {
            let hold = self.mean_transmission + self.mean_service;
            self.rho * nr as f64 / (np.max(1) as f64 * hold.max(f64::MIN_POSITIVE))
        } else {
            self.arrival_rate
        }
    }
}

/// How a scheduling cycle handles blocked requests while the topology is
/// degraded (at least one component faulty).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedPolicy {
    /// No retry: blocked requests are shed (stay queued) immediately.
    None,
    /// Unpriced alternate-path retry: each blocked request BFSes to *any*
    /// still-untaken type-compatible free resource
    /// ([`Scheduler::try_schedule_degraded`]).
    Bfs,
    /// Priced retry: a residual Transformation-2 min-cost solve over the
    /// blocked requests and still-free resources picks the minimum-cost
    /// maximal recovery ([`Scheduler::try_schedule_degraded_priced`]).
    Priced,
}

impl DegradedPolicy {
    /// Short identifier used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            DegradedPolicy::None => "none",
            DegradedPolicy::Bfs => "bfs",
            DegradedPolicy::Priced => "priced",
        }
    }
}

/// Typed failure of a dynamic simulation run.
///
/// The event loop used to `panic!`/`unwrap` at these sites; every failure is
/// either a scheduler error bubbling up or a simulator bookkeeping invariant,
/// and the `try_*` entry points surface them as values instead of tearing a
/// worker thread down mid-experiment. The panicking entry points remain as
/// thin boundaries over the `try_*` ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The scheduler returned an error mid-cycle.
    Schedule {
        /// [`Scheduler::name`] of the failing scheduler.
        scheduler: &'static str,
        /// The underlying scheduling error.
        error: ScheduleError,
    },
    /// A circuit operation the event loop believed safe was rejected.
    Circuit {
        /// What the event loop was doing when it failed.
        context: &'static str,
        /// The underlying circuit error.
        error: CircuitError,
    },
    /// A simulator bookkeeping invariant broke (queue/assignment mismatch).
    State(&'static str),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Schedule { scheduler, error } => {
                write!(f, "{scheduler} failed to schedule: {error}")
            }
            SimError::Circuit { context, error } => write!(f, "{context}: {error}"),
            SimError::State(m) => write!(f, "simulator invariant violated: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Aggregate results of a dynamic run.
#[derive(Debug, Clone, Copy)]
pub struct DynamicStats {
    /// Mean fraction of resources busy (post-warmup time average).
    pub utilization: f64,
    /// Mean task response time (arrival → service completion).
    pub mean_response: f64,
    /// 95 % confidence half-width of the response-time mean.
    pub response_ci95: f64,
    /// 99th-percentile task response time (log2-histogram estimate; see
    /// [`Sample::p99`]).
    pub response_p99: f64,
    /// Tasks completed after warm-up.
    pub completed: u64,
    /// Time-averaged number of queued (unallocated) tasks.
    pub mean_queue: f64,
    /// Scheduling cycles executed.
    pub cycles: u64,
    /// Mean per-cycle blocking fraction (cycles with contention only).
    pub mean_blocking: f64,
    /// Arrivals dropped because their processor's bounded queue was full
    /// (see [`DynamicConfig::queue_capacity`]); always 0 with an unbounded
    /// queue. Distinct from degraded-mode shedding, which defers requests
    /// without losing them.
    pub shed_arrivals: u64,
    /// Tasks still queued (unallocated) when the horizon was reached — the
    /// queue-growth signal of the heavy-traffic regime: bounded and small
    /// below saturation, growing roughly linearly in the horizon at ρ ≥ 1.
    pub final_queue: u64,
    /// The full post-warmup response-time accumulator (Welford state plus
    /// log2 histogram) that `mean_response`/`response_ci95`/`response_p99`
    /// are read from. Exposed so replicated runs can pool the response
    /// *distributions* across replicas via [`Sample::merge`] instead of
    /// averaging pre-digested scalars.
    pub response: Sample,
}

/// Survival metrics of a faulted dynamic run, wrapping the ordinary
/// [`DynamicStats`]. Compare `stats.completed` against a fault-free
/// baseline run (same config, [`FaultPlan::empty`]) for the "allocations
/// achieved vs. fault-free" survival ratio.
#[derive(Debug, Clone, Copy)]
pub struct FaultedStats {
    /// The ordinary dynamic statistics (post-warmup, as in [`SystemSim::run`]).
    pub stats: DynamicStats,
    /// Circuits established over the whole run (fault plans are
    /// absolute-time schedules, so fault metrics are not warm-up filtered).
    pub allocations: u64,
    /// Requests left unallocated by degraded-mode cycles (summed
    /// [`DegradedOutcome::shed`](rsin_core::DegradedOutcome)); blocked
    /// requests stay queued, so this counts deferrals, not losses.
    pub shed_total: u64,
    /// Blocked requests rescued by the alternate-path retry.
    pub recovered_total: u64,
    /// `Fail` events applied before the horizon.
    pub failures: u64,
    /// `Repair` events applied before the horizon.
    pub repairs: u64,
    /// Mean time from a repair event to the next scheduling cycle that
    /// sheds nothing (service fully restored); 0 if never observed.
    pub mean_recovery: f64,
    /// How many repair→zero-shed intervals the mean is over.
    pub recoveries_observed: u64,
    /// Transformation-graph rebuilds over the whole run. Stays at its
    /// fault-free value (1 per transformation shape used) because fault
    /// toggles are incremental capacity patches.
    pub transform_rebuilds: u64,
    /// Total Transformation-2 cost added by degraded-mode recoveries over
    /// the whole run (summed per-cycle `recovery_cost`; the cost of
    /// degradation). 0 when nothing is recovered, when
    /// `priority_levels == 1` (all costs collapse to 0), or under
    /// [`DegradedPolicy::None`].
    pub recovery_cost: i64,
    /// Circuits that established but failed to deliver because a Byzantine
    /// box misrouted them; the task re-queues and retries. Always 0 on
    /// plans without [`FaultTarget::ByzantineBox`] events.
    pub misrouted: u64,
    /// Boxes flagged by the differential conformance detector over the run.
    pub byz_flagged: u64,
    /// Flagged boxes that were *not* misrouting when flagged (honest boxes
    /// condemned by co-location). Expected 0: deterministic misrouters fail
    /// every path through them while honest boxes are exonerated by their
    /// own deliveries.
    pub byz_false_positives: u64,
    /// Mean scheduling cycles from Byzantine onset to the detector flagging
    /// the box; 0 if no true detection was observed.
    pub mean_detection_cycles: f64,
    /// How many true detections the mean is over.
    pub detections_observed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    Arrival {
        processor: usize,
    },
    TransmissionDone {
        processor: usize,
        resource: usize,
        circuit: CircuitId,
        arrived: f64,
        /// Lifecycle-trace request id of the transmitting task (0 when the
        /// run is untraced).
        req: u64,
        /// The task's resource type, kept so a misrouted task can re-queue.
        ty: usize,
        /// Whether the transmission actually reached `resource`. False only
        /// when a Byzantine box on the circuit misrouted it; the task then
        /// returns to the front of its processor's queue instead of being
        /// serviced.
        delivered: bool,
    },
    ServiceDone {
        resource: usize,
        arrived: f64,
    },
    /// The `index`-th event of the run's [`FaultPlan`] takes effect.
    Fault {
        index: usize,
    },
}

#[derive(Debug, Clone, Copy)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap via reversed comparison on (time, seq).
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The dynamic simulator. One instance per (network, config) pair.
pub struct SystemSim<'n> {
    net: &'n Network,
    cfg: DynamicConfig,
}

impl<'n> SystemSim<'n> {
    /// Create a simulator.
    pub fn new(net: &'n Network, cfg: DynamicConfig) -> Self {
        SystemSim { net, cfg }
    }

    /// Run to the horizon under the given scheduler.
    pub fn run(&self, scheduler: &dyn Scheduler) -> DynamicStats {
        // Delegating with an empty plan is bit-identical to the fault-free
        // loop: no fault events enter the heap, no extra RNG draws happen,
        // and fault-free cycles never take the degraded-retry path.
        self.run_faulted_trial(scheduler, &FaultPlan::empty(), 0)
            .stats
    }

    /// [`Self::run`] reporting to a telemetry probe. Probes only observe —
    /// the statistics are bit-identical to the unobserved run.
    pub fn run_probed(&self, scheduler: &dyn Scheduler, probe: &dyn Probe) -> DynamicStats {
        self.run_faulted_trial_probed(scheduler, &FaultPlan::empty(), 0, probe)
            .stats
    }

    /// Run to the horizon with the given fault plan injected (trial 0's RNG
    /// stream). See [`SystemSim::run_faulted_trial`].
    pub fn run_faulted(&self, scheduler: &dyn Scheduler, plan: &FaultPlan) -> FaultedStats {
        self.run_faulted_trial(scheduler, plan, 0)
    }

    /// Run to the horizon under the given scheduler with `plan`'s fault
    /// events interleaved into the event stream, drawing arrivals and
    /// service times from the `(cfg.seed, trial)` RNG stream.
    ///
    /// Fault events are pushed into the event heap up front and consume no
    /// simulation randomness, so a run with [`FaultPlan::empty`] reproduces
    /// [`SystemSim::run`] exactly. While at least one component is faulty,
    /// scheduling cycles go through
    /// [`Scheduler::try_schedule_degraded`] — primary discipline, then
    /// alternate-path retry for blocked requests — and the shed/recovered
    /// counts feed the survival metrics. The transformation graph is never
    /// rebuilt on a fault or repair: toggles arrive as incremental capacity
    /// patches (see `FaultedStats::transform_rebuilds`).
    pub fn run_faulted_trial(
        &self,
        scheduler: &dyn Scheduler,
        plan: &FaultPlan,
        trial: u64,
    ) -> FaultedStats {
        self.run_faulted_trial_probed(scheduler, plan, trial, &NoopProbe)
    }

    /// [`Self::run_faulted_trial`] with an explicit degraded-mode policy:
    /// how blocked requests are handled during faulty cycles (shed
    /// immediately, BFS-retried, or recovered by a residual min-cost solve;
    /// see [`DegradedPolicy`]). [`Self::run_faulted_trial`] is the
    /// [`DegradedPolicy::Bfs`] special case. The policy only takes effect
    /// while something is faulty, so all policies are bit-identical under an
    /// empty plan.
    pub fn run_faulted_trial_policy(
        &self,
        scheduler: &dyn Scheduler,
        plan: &FaultPlan,
        trial: u64,
        policy: DegradedPolicy,
    ) -> FaultedStats {
        self.run_faulted_trial_policy_probed(scheduler, plan, trial, policy, &NoopProbe)
    }

    /// [`Self::run_faulted_trial`] reporting to a telemetry probe: arrival,
    /// release, fault, and repair events go into the probe's trace (with
    /// matching counters), per-cycle queue depths land in
    /// [`rsin_obs::Hist::QueueDepth`], and every scheduling cycle runs
    /// through the scheduler's observed entry points
    /// ([`Scheduler::try_schedule_observed`] /
    /// [`Scheduler::try_schedule_degraded_observed`]). Probes only observe:
    /// they consume no simulation randomness and influence no control flow,
    /// so the returned statistics are bit-identical to the unobserved run
    /// ([`NoopProbe`] is exactly that run).
    pub fn run_faulted_trial_probed(
        &self,
        scheduler: &dyn Scheduler,
        plan: &FaultPlan,
        trial: u64,
        probe: &dyn Probe,
    ) -> FaultedStats {
        self.run_faulted_trial_policy_probed(scheduler, plan, trial, DegradedPolicy::Bfs, probe)
    }

    /// [`Self::run_faulted_trial_policy`] reporting to a telemetry probe
    /// (see [`Self::run_faulted_trial_probed`] for the probe contract).
    ///
    /// Panics on [`SimError`] — the historical boundary behaviour for
    /// experiment drivers. Use [`Self::try_run_faulted_trial_policy_probed`]
    /// to handle failures as values.
    pub fn run_faulted_trial_policy_probed(
        &self,
        scheduler: &dyn Scheduler,
        plan: &FaultPlan,
        trial: u64,
        policy: DegradedPolicy,
        probe: &dyn Probe,
    ) -> FaultedStats {
        self.try_run_faulted_trial_policy_probed(scheduler, plan, trial, policy, probe)
            .unwrap_or_else(|e| panic!("dynamic simulation failed: {e}"))
    }

    /// [`Self::run_faulted_trial_policy_probed`] with typed errors: the
    /// event loop propagates scheduler failures and bookkeeping-invariant
    /// violations as [`SimError`] instead of panicking mid-run.
    ///
    /// The probe also receives per-request lifecycle spans: every task
    /// emits `submit` at arrival, `allocate` when its circuit is
    /// established, and `release` when transmission completes, with
    /// `shed` / `recovered` markers on degraded cycles. Request ids are
    /// globally unique within the run. Spans follow the probe contract —
    /// they only record, so statistics are bit-identical under a
    /// [`FlightRecorder`](rsin_obs::FlightRecorder).
    pub fn try_run_faulted_trial_policy_probed(
        &self,
        scheduler: &dyn Scheduler,
        plan: &FaultPlan,
        trial: u64,
        policy: DegradedPolicy,
        probe: &dyn Probe,
    ) -> Result<FaultedStats, SimError> {
        let cfg = &self.cfg;
        let mut rng: StdRng = trial_rng(cfg.seed, trial);
        let np = self.net.num_processors();
        let nr = self.net.num_resources();

        // Heavy-traffic regime: ρ overrides the arrival rate, and batches
        // stretch the inter-arrival gap by their size so the offered load
        // is unchanged. With the defaults (rho 0, batch 1) `gap_rate`
        // equals `cfg.arrival_rate` and every RNG draw below lands exactly
        // where the pre-knob simulator drew it.
        let batch = cfg.batch_size.max(1);
        let gap_rate = cfg.effective_arrival_rate(np, nr) / batch as f64;

        let mut heap: BinaryHeap<Event> = BinaryHeap::new();
        let mut seq = 0u64;
        let push = |heap: &mut BinaryHeap<Event>, seq: &mut u64, time: f64, kind: EventKind| {
            *seq += 1;
            heap.push(Event {
                time,
                seq: *seq,
                kind,
            });
        };
        for p in 0..np {
            let t = exponential(&mut rng, gap_rate);
            push(&mut heap, &mut seq, t, EventKind::Arrival { processor: p });
        }
        for (index, fe) in plan.events().iter().enumerate() {
            push(&mut heap, &mut seq, fe.time, EventKind::Fault { index });
        }

        let mut cs = CircuitState::new(self.net);
        // One scratch for the whole run: every scheduling cycle reuses the
        // same transformation graph and solver buffers (the topology never
        // changes mid-run).
        let mut scratch = ScheduleScratch::new();
        // Each queued task is (arrival time, resource type, trace req id).
        let mut queue: Vec<VecDeque<(f64, usize, u64)>> = vec![VecDeque::new(); np];
        let mut next_req = 0u64;
        let mut transmitting = vec![false; np];
        let mut busy = vec![false; nr];

        let mut busy_integral = 0.0;
        let mut queue_integral = 0.0;
        let mut last_t = cfg.warmup;
        let mut response = Sample::new();
        let mut blocking = Sample::new();
        let mut completed = 0u64;
        let mut cycles = 0u64;

        let levels = cfg.priority_levels.max(1);
        let mut shed_arrivals = 0u64;
        let mut allocations = 0u64;
        let mut shed_total = 0u64;
        let mut recovered_total = 0u64;
        let mut recovery_cost_total = 0i64;
        let mut failures = 0u64;
        let mut repairs = 0u64;
        let mut recovery = Sample::new();
        // Time of the last repair still awaiting a zero-shed cycle.
        let mut pending_recovery: Option<f64> = None;

        // Byzantine bookkeeping, engaged only for plans that carry
        // misrouting events: the conformance detector runs its Dinic oracle
        // every scheduling cycle, so fail-stop-only runs skip it entirely
        // (and stay draw-for-draw identical to the pre-Byzantine simulator).
        let byzantine_mode = plan.has_byzantine();
        let nb = self.net.num_boxes();
        let mut detector = byzantine_mode.then(|| ConformanceDetector::new(nb));
        // Scheduling-cycle count at each box's misrouting onset (None =
        // currently honest), and which boxes the sim has quarantined.
        let mut onset_cycle: Vec<Option<u64>> = vec![None; if byzantine_mode { nb } else { 0 }];
        let mut quarantined = vec![false; if byzantine_mode { nb } else { 0 }];
        let mut misrouted = 0u64;
        let mut byz_flagged = 0u64;
        let mut byz_false_positives = 0u64;
        let mut detection = Sample::new();

        while let Some(ev) = heap.pop() {
            if ev.time > cfg.sim_time {
                break;
            }
            let now = ev.time;
            if now > cfg.warmup {
                let dt = now - last_t;
                busy_integral += dt * busy.iter().filter(|b| **b).count() as f64;
                queue_integral += dt * queue.iter().map(|q| q.len()).sum::<usize>() as f64;
                last_t = now;
            }
            match ev.kind {
                EventKind::Arrival { processor } => {
                    probe.add(Counter::Requests, batch as u64);
                    if probe.enabled() {
                        probe.event(now, rsin_obs::EventKind::Arrival, processor as u64, 0);
                    }
                    // One burst of `batch` tasks per event (batch 1 = the
                    // classic per-task Poisson stream, draw-for-draw). A
                    // task arriving at a full bounded queue is shed: it
                    // still consumes its type draw (so the stream behind it
                    // is unperturbed) but is never queued or scheduled.
                    for _ in 0..batch {
                        let ty = if cfg.types > 1 {
                            rng.random_range(0..cfg.types)
                        } else {
                            0
                        };
                        next_req += 1;
                        if cfg.queue_capacity > 0 && queue[processor].len() >= cfg.queue_capacity {
                            shed_arrivals += 1;
                            continue;
                        }
                        probe.span(next_req, SpanPhase::Submit, processor as u64, ty as u64);
                        queue[processor].push_back((now, ty, next_req));
                    }
                    let next = now + exponential(&mut rng, gap_rate);
                    push(&mut heap, &mut seq, next, EventKind::Arrival { processor });
                }
                EventKind::TransmissionDone {
                    processor,
                    resource,
                    circuit,
                    arrived,
                    req,
                    ty,
                    delivered,
                } => {
                    cs.release(circuit).map_err(|error| SimError::Circuit {
                        context: "releasing a transmitted task's circuit",
                        error,
                    })?;
                    probe.add(Counter::Releases, 1);
                    probe.span(req, SpanPhase::Release, processor as u64, resource as u64);
                    if probe.enabled() {
                        probe.event(
                            now,
                            rsin_obs::EventKind::Release,
                            processor as u64,
                            resource as u64,
                        );
                    }
                    transmitting[processor] = false;
                    if delivered {
                        let done = now + exponential(&mut rng, 1.0 / cfg.mean_service);
                        push(
                            &mut heap,
                            &mut seq,
                            done,
                            EventKind::ServiceDone { resource, arrived },
                        );
                    } else {
                        // A Byzantine box misrouted the circuit: nothing
                        // reached `resource` (it was never marked busy), and
                        // the task returns to the front of its queue to be
                        // retried with its original arrival time.
                        queue[processor].push_front((arrived, ty, req));
                    }
                }
                EventKind::ServiceDone { resource, arrived } => {
                    busy[resource] = false;
                    if now > cfg.warmup {
                        response.push(now - arrived);
                        completed += 1;
                    }
                }
                EventKind::Fault { index } => {
                    let fe = &plan.events()[index];
                    plan.apply_event(index, &mut cs);
                    match fe.action {
                        FaultAction::Fail => {
                            failures += 1;
                            probe.add(Counter::Faults, 1);
                        }
                        FaultAction::Repair => {
                            repairs += 1;
                            probe.add(Counter::Repairs, 1);
                            // Measure recovery from the *latest* repair.
                            pending_recovery = Some(now);
                        }
                    }
                    if let FaultTarget::ByzantineBox(b) = fe.target {
                        match fe.action {
                            // Onset stamps the cycle count so detection
                            // latency is measured in scheduling cycles.
                            FaultAction::Fail => onset_cycle[b] = Some(cycles),
                            FaultAction::Repair => {
                                onset_cycle[b] = None;
                                if let Some(det) = detector.as_mut() {
                                    det.reset_box(b);
                                }
                                // Lift any quarantine the detector imposed:
                                // the box is honest again.
                                if quarantined[b] {
                                    quarantined[b] = false;
                                    cs.repair_box(b);
                                }
                            }
                        }
                    }
                    if probe.enabled() {
                        // Operands: component index, and 0 = link / 1 = box
                        // / 2 = correlated domain / 3 = Byzantine box.
                        let (component, target_kind) = match fe.target {
                            FaultTarget::Link(l) => (l.index() as u64, 0),
                            FaultTarget::Box(b) => (b as u64, 1),
                            FaultTarget::Domain(d) => (d as u64, 2),
                            FaultTarget::ByzantineBox(b) => (b as u64, 3),
                        };
                        let kind = match fe.action {
                            FaultAction::Fail => rsin_obs::EventKind::Fault,
                            FaultAction::Repair => rsin_obs::EventKind::Repair,
                        };
                        probe.event(now, kind, component, target_kind);
                    }
                }
            }
            // Scheduling cycle whenever requests and resources coexist.
            let requests: Vec<ScheduleRequest> = (0..np)
                .filter(|&p| !transmitting[p])
                .filter_map(|p| {
                    // `front()` folds the non-empty check into the type
                    // lookup; a drained queue simply contributes no request.
                    queue[p].front().map(|&(_, ty, _)| ScheduleRequest {
                        processor: p,
                        priority: 1 + (p as u32) % levels,
                        resource_type: ty,
                    })
                })
                .collect();
            let free: Vec<FreeResource> = (0..nr)
                .filter(|&r| !busy[r])
                .map(|r| FreeResource {
                    resource: r,
                    preference: 1 + (r as u32) % levels,
                    resource_type: if cfg.types > 1 { r % cfg.types } else { 0 },
                })
                .collect();
            if requests.is_empty() || free.is_empty() {
                continue;
            }
            if probe.enabled() {
                let depth: usize = queue.iter().map(|q| q.len()).sum();
                probe.record(rsin_obs::Hist::QueueDepth, depth as u64);
            }
            let denom_requests = requests.len();
            let denom_free = free.len();
            let problem = ScheduleProblem {
                circuits: &cs,
                requests,
                free,
            };
            // Degraded-mode scheduling only while something is actually
            // faulty; fault-free cycles take the ordinary path so `run()`
            // (empty plan) stays bit-identical to the pre-fault simulator,
            // and all policies agree under an empty plan.
            let fail = |error: ScheduleError| SimError::Schedule {
                scheduler: scheduler.name(),
                error,
            };
            let (out, recovered, shed, recovery_cost) = if cs.faulty_count() > 0 {
                match policy {
                    DegradedPolicy::None => {
                        let out = scheduler
                            .try_schedule_observed(&problem, &mut scratch, probe)
                            .map_err(fail)?;
                        let shed = out.blocked.len() as u64;
                        (out, 0, shed, 0)
                    }
                    DegradedPolicy::Bfs => {
                        let d = scheduler
                            .try_schedule_degraded_observed(&problem, &mut scratch, probe)
                            .map_err(fail)?;
                        (
                            d.outcome,
                            d.recovered as u64,
                            d.shed as u64,
                            d.recovery_cost,
                        )
                    }
                    DegradedPolicy::Priced => {
                        let d = scheduler
                            .try_schedule_degraded_priced_observed(&problem, &mut scratch, probe)
                            .map_err(fail)?;
                        (
                            d.outcome,
                            d.recovered as u64,
                            d.shed as u64,
                            d.recovery_cost,
                        )
                    }
                }
            } else {
                let out = scheduler
                    .try_schedule_observed(&problem, &mut scratch, probe)
                    .map_err(fail)?;
                (out, 0, 0, 0)
            };
            debug_assert!(rsin_core::mapping::verify(&out.assignments, &problem).is_ok());
            // Differential conformance check (Byzantine runs only): the
            // Dinic oracle certifies this cycle's realized allocation on the
            // believed-healthy snapshot, failed deliveries accuse the boxes
            // on their paths, and boxes the detector flags are quarantined
            // below — after this cycle's establishments, since the scheduler
            // routed against the pre-quarantine state.
            let mut delivered_flags: Vec<bool> = Vec::new();
            let mut to_quarantine: Vec<usize> = Vec::new();
            if let Some(det) = detector.as_mut() {
                delivered_flags = out
                    .assignments
                    .iter()
                    .map(|a| cs.first_byzantine_on(&a.path).is_none())
                    .collect();
                let verdict = det.observe(&problem, &out.assignments, &delivered_flags);
                for &b in &verdict.newly_flagged {
                    byz_flagged += 1;
                    match onset_cycle[b] {
                        // This cycle is number `cycles + 1`; onset stamped
                        // the count completed before the lie began.
                        Some(c0) => detection.push((cycles + 1 - c0) as f64),
                        None => byz_false_positives += 1,
                    }
                    to_quarantine.push(b);
                }
            }
            drop(problem);
            cycles += 1;
            shed_total += shed;
            recovered_total += recovered;
            recovery_cost_total += recovery_cost;
            if probe.enabled() {
                if recovered > 0 {
                    probe.event(now, rsin_obs::EventKind::Recovered, recovered, 0);
                }
                if shed > 0 {
                    probe.event(now, rsin_obs::EventKind::Shed, shed, 0);
                }
            }
            if probe.tracing() {
                if recovered > 0 {
                    probe.span(0, SpanPhase::Recovered, recovered, 0);
                }
                if shed > 0 {
                    probe.span(0, SpanPhase::Shed, shed, 0);
                }
            }
            if shed == 0 {
                if let Some(t0) = pending_recovery.take() {
                    recovery.push(now - t0);
                }
            }
            let denom = denom_requests.min(denom_free);
            if now > cfg.warmup && denom > 0 {
                blocking.push(out.blocking_fraction(denom));
            }
            allocations += out.assignments.len() as u64;
            for (i, a) in out.assignments.iter().enumerate() {
                let circuit = cs.establish(&a.path).map_err(|error| SimError::Circuit {
                    context: "establishing a scheduled circuit",
                    error,
                })?;
                let (arrived, ty, req) = queue[a.processor].pop_front().ok_or(SimError::State(
                    "assignment for a processor with an empty queue",
                ))?;
                probe.span(
                    req,
                    SpanPhase::Allocate,
                    a.processor as u64,
                    a.resource as u64,
                );
                transmitting[a.processor] = true;
                // A misrouted circuit still holds its links until the
                // transmission times out, but nothing reaches the resource:
                // it stays free for honest traffic.
                let delivered = delivered_flags.get(i).copied().unwrap_or(true);
                if delivered {
                    busy[a.resource] = true;
                } else {
                    misrouted += 1;
                }
                let tx_done = now + exponential(&mut rng, 1.0 / cfg.mean_transmission);
                push(
                    &mut heap,
                    &mut seq,
                    tx_done,
                    EventKind::TransmissionDone {
                        processor: a.processor,
                        resource: a.resource,
                        circuit,
                        arrived,
                        req,
                        ty,
                        delivered,
                    },
                );
            }
            for b in to_quarantine {
                if !quarantined[b] {
                    quarantined[b] = true;
                    cs.fail_box(b);
                }
            }
        }
        let horizon = (cfg.sim_time - cfg.warmup).max(f64::MIN_POSITIVE);
        Ok(FaultedStats {
            stats: DynamicStats {
                utilization: busy_integral / horizon / nr as f64,
                mean_response: response.mean(),
                response_ci95: response.ci95_half_width(),
                response_p99: response.p99(),
                completed,
                mean_queue: queue_integral / horizon,
                cycles,
                mean_blocking: blocking.mean(),
                shed_arrivals,
                final_queue: queue.iter().map(|q| q.len() as u64).sum(),
                response,
            },
            allocations,
            shed_total,
            recovered_total,
            failures,
            repairs,
            mean_recovery: recovery.mean(),
            recoveries_observed: recovery.count(),
            transform_rebuilds: scratch.rebuilds(),
            recovery_cost: recovery_cost_total,
            misrouted,
            byz_flagged,
            byz_false_positives,
            mean_detection_cycles: detection.mean(),
            detections_observed: detection.count(),
        })
    }
}

/// Run one dynamic simulation per configuration, fanning the runs out over
/// `threads` scoped workers.
///
/// Each run is fully determined by its own `DynamicConfig` (seeded RNG, own
/// event heap, own circuit state), so results land in input order and are
/// bit-identical for any thread count. This is the batch path for load
/// sweeps (e.g. utilization vs arrival rate curves), where the runs are
/// embarrassingly parallel but each one reuses its scheduling scratch
/// across thousands of cycles.
pub fn run_sweep(
    net: &Network,
    scheduler: &dyn Scheduler,
    configs: &[DynamicConfig],
    threads: usize,
) -> Vec<DynamicStats> {
    crate::pool::run_indexed(configs.len(), threads, |i| {
        SystemSim::new(net, configs[i]).run(scheduler)
    })
}

/// Run `trials` independent faulted dynamic simulations, fanning them out
/// over `threads` scoped workers.
///
/// Trial `t` draws its arrivals from the `(cfg.seed, t)` RNG stream and its
/// fault plan from [`fault_plan_seed`]`(cfg.seed, t)`, so each trial is a
/// self-contained deterministic unit: results land in trial order and are
/// bit-identical for any thread count — the same convention as
/// [`run_sweep`] and the Monte-Carlo blocking experiments.
pub fn run_faulted_trials(
    net: &Network,
    scheduler: &dyn Scheduler,
    cfg: &DynamicConfig,
    fault_cfg: &FaultPlanConfig,
    trials: usize,
    threads: usize,
) -> Vec<FaultedStats> {
    run_faulted_trials_policy(
        net,
        scheduler,
        cfg,
        fault_cfg,
        trials,
        threads,
        DegradedPolicy::Bfs,
    )
}

/// [`run_faulted_trials`] with an explicit degraded-mode policy (see
/// [`DegradedPolicy`]); the unsuffixed entry is the [`DegradedPolicy::Bfs`]
/// special case. Same determinism contract: results land in trial order and
/// are bit-identical for any thread count.
pub fn run_faulted_trials_policy(
    net: &Network,
    scheduler: &dyn Scheduler,
    cfg: &DynamicConfig,
    fault_cfg: &FaultPlanConfig,
    trials: usize,
    threads: usize,
    policy: DegradedPolicy,
) -> Vec<FaultedStats> {
    crate::pool::run_indexed(trials, threads, |trial| {
        let plan = FaultPlan::generate(net, fault_cfg, fault_plan_seed(cfg.seed, trial as u64));
        SystemSim::new(net, *cfg).run_faulted_trial_policy(scheduler, &plan, trial as u64, policy)
    })
}

/// [`run_faulted_trials`] with every trial reporting into one shared
/// telemetry probe ([`Probe`] is `Sync`; a live `rsin_obs::Telemetry` sink
/// accumulates with relaxed atomics, so the aggregate counters are exact
/// while event interleaving across workers is wall-clock order). Statistics
/// stay bit-identical to the unobserved runs for any thread count.
pub fn run_faulted_trials_probed(
    net: &Network,
    scheduler: &dyn Scheduler,
    cfg: &DynamicConfig,
    fault_cfg: &FaultPlanConfig,
    trials: usize,
    threads: usize,
    probe: &dyn Probe,
) -> Vec<FaultedStats> {
    run_faulted_trials_policy_probed(
        net,
        scheduler,
        cfg,
        fault_cfg,
        trials,
        threads,
        DegradedPolicy::Bfs,
        probe,
    )
}

/// [`run_faulted_trials_policy`] with every trial reporting into one shared
/// telemetry probe (same contract as [`run_faulted_trials_probed`]).
#[allow(clippy::too_many_arguments)]
pub fn run_faulted_trials_policy_probed(
    net: &Network,
    scheduler: &dyn Scheduler,
    cfg: &DynamicConfig,
    fault_cfg: &FaultPlanConfig,
    trials: usize,
    threads: usize,
    policy: DegradedPolicy,
    probe: &dyn Probe,
) -> Vec<FaultedStats> {
    crate::pool::run_indexed(trials, threads, |trial| {
        let plan = FaultPlan::generate(net, fault_cfg, fault_plan_seed(cfg.seed, trial as u64));
        SystemSim::new(net, *cfg).run_faulted_trial_policy_probed(
            scheduler,
            &plan,
            trial as u64,
            policy,
            probe,
        )
    })
}

/// Which fault process drives a faulted trial (DESIGN §15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultModel {
    /// Independent per-link/per-box fail-stop renewal streams — the
    /// classic [`FaultPlan::generate`] model.
    Independent,
    /// Correlated fail-stop: per-stage power/packaging domains of
    /// switchboxes ([`FaultDomain::stage_power_domains`]) fail and repair
    /// as single events, with each domain's hazard scaled by the number of
    /// links it covers so the marginal per-link hazard matches
    /// [`FaultModel::Independent`] at the same configured rate.
    Correlated {
        /// Adjacent switching boxes per package, handed to
        /// [`FaultDomain::stage_power_domains`].
        domain_boxes: usize,
    },
    /// Byzantine misrouting: boxes lie instead of dying
    /// ([`FaultPlan::generate_byzantine`]; the config's box failure rate is
    /// the misrouting onset rate). Runs engage the differential
    /// conformance detector.
    Byzantine,
}

impl FaultModel {
    /// Stable lowercase name for CLI flags and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            FaultModel::Independent => "independent",
            FaultModel::Correlated { .. } => "correlated",
            FaultModel::Byzantine => "byzantine",
        }
    }
}

/// Build trial `trial`'s fault plan for `model` — the single plan-selection
/// point shared by [`run_faulted_trials_model`] and the experiment binaries,
/// so a CLI sweep and a test replaying one trial agree event-for-event.
pub fn plan_for_model(
    net: &Network,
    fault_cfg: &FaultPlanConfig,
    model: FaultModel,
    plan_seed: u64,
) -> FaultPlan {
    match model {
        FaultModel::Independent => FaultPlan::generate(net, fault_cfg, plan_seed),
        FaultModel::Correlated { domain_boxes } => {
            let domains = FaultDomain::stage_power_domains(net, domain_boxes);
            FaultPlan::generate_correlated(net, domains, fault_cfg, plan_seed)
                .expect("stage power domains reference only in-range components")
        }
        FaultModel::Byzantine => FaultPlan::generate_byzantine(net, fault_cfg, plan_seed),
    }
}

/// [`run_faulted_trials_policy`] under an explicit [`FaultModel`]; the
/// existing entry points are the [`FaultModel::Independent`] special case.
/// Same determinism contract: trial `t` draws its plan from
/// [`fault_plan_seed`]`(cfg.seed, t)` under the chosen model, results land
/// in trial order and are bit-identical for any thread count.
#[allow(clippy::too_many_arguments)]
pub fn run_faulted_trials_model(
    net: &Network,
    scheduler: &dyn Scheduler,
    cfg: &DynamicConfig,
    fault_cfg: &FaultPlanConfig,
    trials: usize,
    threads: usize,
    policy: DegradedPolicy,
    model: FaultModel,
) -> Vec<FaultedStats> {
    crate::pool::run_indexed(trials, threads, |trial| {
        let plan = plan_for_model(
            net,
            fault_cfg,
            model,
            fault_plan_seed(cfg.seed, trial as u64),
        );
        SystemSim::new(net, *cfg).run_faulted_trial_policy(scheduler, &plan, trial as u64, policy)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsin_core::scheduler::{GreedyScheduler, MaxFlowScheduler};
    use rsin_topology::builders::omega;

    #[test]
    fn light_load_completes_tasks() {
        let net = omega(8).unwrap();
        let cfg = DynamicConfig {
            arrival_rate: 0.05,
            sim_time: 2000.0,
            ..DynamicConfig::default()
        };
        let stats = SystemSim::new(&net, cfg).run(&MaxFlowScheduler::default());
        assert!(stats.completed > 100, "completed {}", stats.completed);
        assert!(stats.utilization > 0.0 && stats.utilization < 0.5);
        assert!(stats.mean_response > 0.0);
        assert!(stats.response_ci95 > 0.0 && stats.response_ci95 < stats.mean_response);
    }

    #[test]
    fn heavier_load_raises_utilization() {
        let net = omega(8).unwrap();
        let light = DynamicConfig {
            arrival_rate: 0.05,
            ..DynamicConfig::default()
        };
        let heavy = DynamicConfig {
            arrival_rate: 0.5,
            ..DynamicConfig::default()
        };
        let sim = SystemSim::new(&net, light);
        let u_light = sim.run(&MaxFlowScheduler::default()).utilization;
        let sim = SystemSim::new(&net, heavy);
        let u_heavy = sim.run(&MaxFlowScheduler::default()).utilization;
        assert!(u_heavy > u_light, "{u_heavy} vs {u_light}");
    }

    #[test]
    fn deterministic_given_seed() {
        let net = omega(8).unwrap();
        let cfg = DynamicConfig::default();
        let a = SystemSim::new(&net, cfg).run(&MaxFlowScheduler::default());
        let b = SystemSim::new(&net, cfg).run(&MaxFlowScheduler::default());
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.cycles, b.cycles);
        assert!((a.mean_response - b.mean_response).abs() < 1e-12);
    }

    #[test]
    fn traced_faulted_run_is_bit_identical_and_spans_are_well_formed() {
        use rsin_obs::{validate_spans, FlightRecorder};
        let net = omega(8).unwrap();
        let cfg = DynamicConfig {
            arrival_rate: 0.4,
            sim_time: 300.0,
            ..DynamicConfig::default()
        };
        let sim = SystemSim::new(&net, cfg);
        let fcfg = FaultPlanConfig::links(0.002, 30.0, cfg.sim_time);
        let plan = FaultPlan::generate(&net, &fcfg, fault_plan_seed(cfg.seed, 0));
        let scheduler = MaxFlowScheduler::default();
        let plain = sim
            .try_run_faulted_trial_policy_probed(
                &scheduler,
                &plan,
                0,
                DegradedPolicy::Bfs,
                &NoopProbe,
            )
            .unwrap();
        let recorder = FlightRecorder::new(1 << 20);
        let traced = sim
            .try_run_faulted_trial_policy_probed(
                &scheduler,
                &plan,
                0,
                DegradedPolicy::Bfs,
                &recorder,
            )
            .unwrap();
        assert_eq!(plain.stats.completed, traced.stats.completed);
        assert_eq!(plain.stats.cycles, traced.stats.cycles);
        assert_eq!(plain.allocations, traced.allocations);
        assert_eq!(plain.shed_total, traced.shed_total);
        assert!((plain.stats.mean_response - traced.stats.mean_response).abs() < 1e-12);

        let snap = recorder.snapshot();
        assert_eq!(snap.dropped, 0, "ring sized for the whole run");
        validate_spans(&snap.events).expect("span chains well-formed");
        let count = |phase| snap.events.iter().filter(|e| e.phase == phase).count() as u64;
        assert!(count(SpanPhase::Submit) > 100, "arrivals traced");
        assert_eq!(
            count(SpanPhase::Allocate),
            traced.allocations,
            "one allocate span per established circuit"
        );
        // Every release span closes an allocated task; transmissions still
        // in flight at the horizon stay open.
        assert!(count(SpanPhase::Release) <= traced.allocations);
        if traced.shed_total > 0 {
            assert!(count(SpanPhase::Shed) > 0, "degraded cycles marked");
        }
    }

    #[test]
    fn optimal_scheduler_never_worse_throughput_than_greedy() {
        let net = omega(8).unwrap();
        let cfg = DynamicConfig {
            arrival_rate: 0.6,
            mean_service: 2.0,
            sim_time: 500.0,
            ..DynamicConfig::default()
        };
        let opt = SystemSim::new(&net, cfg).run(&MaxFlowScheduler::default());
        let heu = SystemSim::new(&net, cfg).run(&GreedyScheduler::default());
        // Same arrival stream (same seed): the optimal mapping can only
        // help utilization; allow small stochastic slack since decisions
        // diverge after the first cycle.
        assert!(opt.utilization >= heu.utilization * 0.9);
    }

    #[test]
    fn typed_workload_schedules_with_multicommodity() {
        use rsin_core::scheduler::MultiCommodityScheduler;
        let net = omega(8).unwrap();
        let cfg = DynamicConfig {
            arrival_rate: 0.3,
            sim_time: 80.0,
            warmup: 10.0,
            types: 2,
            ..DynamicConfig::default()
        };
        let stats = SystemSim::new(&net, cfg).run(&MultiCommodityScheduler::default());
        assert!(stats.completed > 30, "completed {}", stats.completed);
        assert!(stats.utilization > 0.05);
    }

    #[test]
    fn typed_load_is_harder_than_homogeneous() {
        // With k types, each request can only use 1/k of the pool, so
        // utilization at the same offered load must not be higher.
        let net = omega(8).unwrap();
        let base = DynamicConfig {
            arrival_rate: 0.6,
            sim_time: 120.0,
            warmup: 20.0,
            ..DynamicConfig::default()
        };
        let homo = SystemSim::new(&net, base).run(&MaxFlowScheduler::default());
        let typed_cfg = DynamicConfig { types: 4, ..base };
        let typed = SystemSim::new(&net, typed_cfg)
            .run(&rsin_core::scheduler::MultiCommodityScheduler::default());
        assert!(
            typed.mean_response >= homo.mean_response * 0.8,
            "typed {} vs homo {}",
            typed.mean_response,
            homo.mean_response
        );
    }

    #[test]
    fn sweep_matches_individual_runs_for_any_thread_count() {
        let net = omega(8).unwrap();
        let configs: Vec<DynamicConfig> = [0.05, 0.2, 0.4, 0.6, 0.8]
            .iter()
            .map(|&rate| DynamicConfig {
                arrival_rate: rate,
                sim_time: 150.0,
                warmup: 20.0,
                ..DynamicConfig::default()
            })
            .collect();
        let scheduler = MaxFlowScheduler::default();
        let serial = run_sweep(&net, &scheduler, &configs, 1);
        for threads in [2, 4, 8] {
            let parallel = run_sweep(&net, &scheduler, &configs, threads);
            assert_eq!(serial.len(), parallel.len());
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.completed, b.completed, "threads={threads}");
                assert_eq!(a.cycles, b.cycles, "threads={threads}");
                assert_eq!(
                    a.mean_response.to_bits(),
                    b.mean_response.to_bits(),
                    "threads={threads}"
                );
                assert_eq!(
                    a.utilization.to_bits(),
                    b.utilization.to_bits(),
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn empty_plan_reports_fault_free_metrics() {
        let net = omega(8).unwrap();
        let cfg = DynamicConfig::default();
        let base = SystemSim::new(&net, cfg).run(&MaxFlowScheduler::default());
        let faulted = SystemSim::new(&net, cfg)
            .run_faulted(&MaxFlowScheduler::default(), &FaultPlan::empty());
        assert_eq!(base.completed, faulted.stats.completed);
        assert_eq!(base.cycles, faulted.stats.cycles);
        assert_eq!(
            base.mean_response.to_bits(),
            faulted.stats.mean_response.to_bits()
        );
        assert_eq!(faulted.failures, 0);
        assert_eq!(faulted.repairs, 0);
        assert_eq!(faulted.shed_total, 0);
        assert_eq!(faulted.recovered_total, 0);
        assert!(faulted.allocations >= faulted.stats.completed);
        assert_eq!(
            faulted.transform_rebuilds, 1,
            "one topology, one scheduler: exactly one transform build"
        );
    }

    #[test]
    fn mid_run_faults_patch_but_never_rebuild() {
        use rsin_topology::FaultPlanConfig;
        let net = omega(8).unwrap();
        let cfg = DynamicConfig {
            arrival_rate: 0.5,
            sim_time: 600.0,
            warmup: 50.0,
            ..DynamicConfig::default()
        };
        let fcfg = FaultPlanConfig::links(0.002, 30.0, cfg.sim_time);
        let plan = FaultPlan::generate(&net, &fcfg, fault_plan_seed(cfg.seed, 0));
        assert!(plan.failure_count() > 0, "plan must inject faults mid-run");
        let baseline = SystemSim::new(&net, cfg).run(&MaxFlowScheduler::default());
        let faulted = SystemSim::new(&net, cfg).run_faulted(&MaxFlowScheduler::default(), &plan);
        assert!(faulted.failures > 0);
        assert!(faulted.stats.completed > 0);
        // Survival: the faulted run still completes close to the baseline
        // count. (Not monotone: losing a link can reshuffle the queueing
        // dynamics enough to finish a handful *more* tasks, so bound the
        // ratio from both sides instead of asserting faulted <= baseline.)
        let survival = faulted.stats.completed as f64 / baseline.completed as f64;
        assert!(
            (0.5..=1.1).contains(&survival),
            "survival {survival}: faulted {} vs baseline {}",
            faulted.stats.completed,
            baseline.completed
        );
        // The acceptance bar of this subsystem: mid-run link failures are
        // capacity patches on the reusable transform, never rebuilds.
        assert_eq!(faulted.transform_rebuilds, 1);
    }

    #[test]
    fn faulted_trials_bit_identical_across_thread_counts() {
        use rsin_topology::FaultPlanConfig;
        let net = omega(8).unwrap();
        let cfg = DynamicConfig {
            arrival_rate: 0.4,
            sim_time: 200.0,
            warmup: 20.0,
            ..DynamicConfig::default()
        };
        let fcfg = FaultPlanConfig::links(0.003, 20.0, cfg.sim_time);
        let scheduler = MaxFlowScheduler::default();
        let serial = run_faulted_trials(&net, &scheduler, &cfg, &fcfg, 5, 1);
        assert_eq!(serial.len(), 5);
        for threads in [2, 4, 8] {
            let parallel = run_faulted_trials(&net, &scheduler, &cfg, &fcfg, 5, threads);
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.stats.completed, b.stats.completed, "threads={threads}");
                assert_eq!(a.allocations, b.allocations, "threads={threads}");
                assert_eq!(a.shed_total, b.shed_total, "threads={threads}");
                assert_eq!(a.failures, b.failures, "threads={threads}");
                assert_eq!(
                    a.stats.mean_response.to_bits(),
                    b.stats.mean_response.to_bits(),
                    "threads={threads}"
                );
                assert_eq!(
                    a.mean_recovery.to_bits(),
                    b.mean_recovery.to_bits(),
                    "threads={threads}"
                );
            }
        }
        // Trials must actually differ (independent streams).
        assert!(
            serial
                .windows(2)
                .any(|w| w[0].stats.completed != w[1].stats.completed),
            "independent trials should diverge"
        );
    }

    #[test]
    fn repairs_are_followed_by_recovery() {
        use rsin_topology::FaultPlanConfig;
        let net = omega(8).unwrap();
        let cfg = DynamicConfig {
            arrival_rate: 0.6,
            sim_time: 800.0,
            warmup: 50.0,
            ..DynamicConfig::default()
        };
        // Heavy faulting with quick repairs so recovery intervals occur.
        let fcfg = FaultPlanConfig::links(0.004, 10.0, cfg.sim_time);
        let plan = FaultPlan::generate(&net, &fcfg, fault_plan_seed(cfg.seed, 1));
        let faulted =
            SystemSim::new(&net, cfg).run_faulted_trial(&MaxFlowScheduler::default(), &plan, 1);
        assert!(faulted.repairs > 0, "plan must include repairs");
        assert!(
            faulted.recoveries_observed > 0,
            "quick repairs under load must yield measurable recoveries"
        );
        assert!(faulted.mean_recovery >= 0.0);
        assert!(faulted.mean_recovery < cfg.sim_time);
    }

    #[test]
    fn degraded_policies_agree_on_empty_plan() {
        // The policy knob only takes effect while something is faulty, so
        // under an empty plan all three policies are bit-identical.
        let net = omega(8).unwrap();
        let cfg = DynamicConfig {
            arrival_rate: 0.4,
            sim_time: 200.0,
            warmup: 20.0,
            priority_levels: 3,
            ..DynamicConfig::default()
        };
        let s = MaxFlowScheduler::default();
        let runs: Vec<FaultedStats> = [
            DegradedPolicy::None,
            DegradedPolicy::Bfs,
            DegradedPolicy::Priced,
        ]
        .iter()
        .map(|&p| SystemSim::new(&net, cfg).run_faulted_trial_policy(&s, &FaultPlan::empty(), 0, p))
        .collect();
        for w in runs.windows(2) {
            assert_eq!(w[0].stats.completed, w[1].stats.completed);
            assert_eq!(w[0].stats.cycles, w[1].stats.cycles);
            assert_eq!(
                w[0].stats.mean_response.to_bits(),
                w[1].stats.mean_response.to_bits()
            );
        }
        assert!(runs.iter().all(|r| r.recovery_cost == 0));
    }

    #[test]
    fn priced_policy_bit_identical_across_thread_counts() {
        use rsin_core::scheduler::AddressMappedScheduler;
        use rsin_topology::FaultPlanConfig;
        // Address mapping binds blind, so faulty cycles actually exercise
        // the residual min-cost recovery; the result must still be
        // bit-identical for any worker count.
        let net = omega(8).unwrap();
        let cfg = DynamicConfig {
            arrival_rate: 0.5,
            sim_time: 200.0,
            warmup: 20.0,
            priority_levels: 4,
            ..DynamicConfig::default()
        };
        let fcfg = FaultPlanConfig::links(0.004, 15.0, cfg.sim_time);
        let scheduler = AddressMappedScheduler::new(7);
        let serial =
            run_faulted_trials_policy(&net, &scheduler, &cfg, &fcfg, 5, 1, DegradedPolicy::Priced);
        for threads in [2, 8] {
            let parallel = run_faulted_trials_policy(
                &net,
                &scheduler,
                &cfg,
                &fcfg,
                5,
                threads,
                DegradedPolicy::Priced,
            );
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.stats.completed, b.stats.completed, "threads={threads}");
                assert_eq!(a.recovery_cost, b.recovery_cost, "threads={threads}");
                assert_eq!(a.recovered_total, b.recovered_total, "threads={threads}");
                assert_eq!(
                    a.stats.mean_response.to_bits(),
                    b.stats.mean_response.to_bits(),
                    "threads={threads}"
                );
            }
        }
        assert!(
            serial.iter().all(|r| r.recovery_cost >= 0),
            "recovery cost is a sum of nonnegative per-cycle costs"
        );
    }

    #[test]
    fn priority_levels_one_matches_unpriced_run() {
        // levels == 1 must be bit-identical to the pre-knob simulator
        // (priority/preference all collapse to 1 with no extra RNG draws).
        let net = omega(8).unwrap();
        let cfg = DynamicConfig {
            arrival_rate: 0.4,
            sim_time: 150.0,
            warmup: 20.0,
            ..DynamicConfig::default()
        };
        assert_eq!(cfg.priority_levels, 1);
        let a = SystemSim::new(&net, cfg).run(&MaxFlowScheduler::default());
        let leveled = DynamicConfig {
            priority_levels: 5,
            ..cfg
        };
        let b = SystemSim::new(&net, leveled).run(&MaxFlowScheduler::default());
        // Max-flow ignores prices entirely, so even with levels > 1 the
        // decision sequence (and hence all dynamics) is unchanged.
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.mean_response.to_bits(), b.mean_response.to_bits());
    }

    #[test]
    fn rho_knob_reproduces_explicit_rate_bit_identically() {
        // ρ targeting is only a different way of *stating* the arrival
        // rate: on omega-8 with a 1.0 mean hold time, ρ = 0.25 derives the
        // rate 0.25 exactly, so the run must be bit-identical to spelling
        // the rate out (same draws, same events, same statistics).
        let net = omega(8).unwrap();
        let explicit = DynamicConfig {
            arrival_rate: 0.25,
            mean_transmission: 0.5,
            mean_service: 0.5,
            sim_time: 400.0,
            warmup: 40.0,
            ..DynamicConfig::default()
        };
        let targeted = DynamicConfig {
            arrival_rate: 999.0, // must be ignored once rho is set
            rho: 0.25,
            ..explicit
        };
        assert_eq!(targeted.effective_arrival_rate(8, 8), 0.25);
        let a = SystemSim::new(&net, explicit).run(&MaxFlowScheduler::default());
        let b = SystemSim::new(&net, targeted).run(&MaxFlowScheduler::default());
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.mean_response.to_bits(), b.mean_response.to_bits());
        assert_eq!(a.utilization.to_bits(), b.utilization.to_bits());
        assert_eq!(a.shed_arrivals, 0);
        assert_eq!(b.shed_arrivals, 0);
    }

    #[test]
    fn heavy_traffic_queue_grows_with_rho() {
        // The heavy-traffic acceptance signal: mean queue depth is monotone
        // in ρ across the near/past-saturation ladder, and past saturation
        // the horizon-end backlog dwarfs the sub-critical one.
        let net = omega(8).unwrap();
        let rhos = [0.9, 0.95, 0.99, 1.05];
        let runs: Vec<DynamicStats> = rhos
            .iter()
            .map(|&rho| {
                let cfg = DynamicConfig {
                    rho,
                    sim_time: 2000.0,
                    warmup: 100.0,
                    ..DynamicConfig::default()
                };
                SystemSim::new(&net, cfg).run(&MaxFlowScheduler::default())
            })
            .collect();
        for (w, pair) in runs.windows(2).enumerate() {
            assert!(
                pair[1].mean_queue >= pair[0].mean_queue,
                "queue not monotone: rho {} gave {}, rho {} gave {}",
                rhos[w],
                pair[0].mean_queue,
                rhos[w + 1],
                pair[1].mean_queue
            );
        }
        assert!(
            runs[3].final_queue > runs[0].final_queue.saturating_mul(2),
            "past saturation the backlog must blow up: {} vs {}",
            runs[3].final_queue,
            runs[0].final_queue
        );
    }

    #[test]
    fn bounded_queue_sheds_only_past_saturation() {
        let net = omega(8).unwrap();
        let base = DynamicConfig {
            queue_capacity: 32,
            sim_time: 2000.0,
            warmup: 100.0,
            ..DynamicConfig::default()
        };
        let calm = SystemSim::new(&net, DynamicConfig { rho: 0.7, ..base })
            .run(&MaxFlowScheduler::default());
        assert_eq!(
            calm.shed_arrivals, 0,
            "a 32-deep bound must never fill at rho 0.7"
        );
        let hot = SystemSim::new(&net, DynamicConfig { rho: 1.05, ..base })
            .run(&MaxFlowScheduler::default());
        assert!(
            hot.shed_arrivals > 0,
            "past saturation the bounded queue must overflow"
        );
        assert!(hot.completed > 0, "shedding must not stall the system");
        // The bound caps the backlog the unbounded run would accumulate.
        assert!(hot.final_queue <= 32 * 8);
    }

    #[test]
    fn batch_arrivals_hold_offered_load() {
        // Batching changes the arrival *pattern*, not the offered load: the
        // burst size stretches the inter-burst gap by the same factor, so
        // long-run throughput stays in the same band.
        let net = omega(8).unwrap();
        let base = DynamicConfig {
            rho: 0.6,
            sim_time: 3000.0,
            warmup: 200.0,
            ..DynamicConfig::default()
        };
        let smooth = SystemSim::new(&net, base).run(&MaxFlowScheduler::default());
        let bursty = SystemSim::new(
            &net,
            DynamicConfig {
                batch_size: 4,
                ..base
            },
        )
        .run(&MaxFlowScheduler::default());
        let ratio = bursty.completed as f64 / smooth.completed as f64;
        assert!(
            (0.75..=1.25).contains(&ratio),
            "throughput drifted under batching: {} vs {}",
            bursty.completed,
            smooth.completed
        );
        // Bursts queue behind one-at-a-time transmission, so waiting can
        // only get worse.
        assert!(bursty.mean_queue >= smooth.mean_queue);
    }

    #[test]
    fn conservation_no_tasks_lost() {
        // Completed tasks never exceed arrivals (sanity on bookkeeping).
        let net = omega(4).unwrap();
        let cfg = DynamicConfig {
            arrival_rate: 0.3,
            sim_time: 300.0,
            warmup: 0.0,
            ..DynamicConfig::default()
        };
        let stats = SystemSim::new(&net, cfg).run(&MaxFlowScheduler::default());
        let arrivals_upper = (0.3 * 4.0 * 300.0 * 2.0) as u64;
        assert!(stats.completed < arrivals_upper);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn independent_model_reproduces_legacy_entry_point_bit_for_bit() {
        use rsin_topology::FaultPlanConfig;
        let net = omega(8).unwrap();
        let cfg = DynamicConfig {
            arrival_rate: 0.4,
            sim_time: 200.0,
            warmup: 20.0,
            ..DynamicConfig::default()
        };
        let fcfg = FaultPlanConfig::links(0.003, 20.0, cfg.sim_time);
        let scheduler = MaxFlowScheduler::default();
        let legacy =
            run_faulted_trials_policy(&net, &scheduler, &cfg, &fcfg, 3, 1, DegradedPolicy::Bfs);
        let model = run_faulted_trials_model(
            &net,
            &scheduler,
            &cfg,
            &fcfg,
            3,
            2,
            DegradedPolicy::Bfs,
            FaultModel::Independent,
        );
        for (a, b) in legacy.iter().zip(&model) {
            assert_eq!(a.stats.completed, b.stats.completed);
            assert_eq!(a.failures, b.failures);
            assert_eq!(
                a.stats.mean_response.to_bits(),
                b.stats.mean_response.to_bits()
            );
            assert_eq!(a.misrouted, 0);
            assert_eq!(b.misrouted, 0);
        }
    }

    #[test]
    fn correlated_domain_trials_patch_only_and_bit_identical_across_threads() {
        use rsin_topology::FaultPlanConfig;
        let net = omega(8).unwrap();
        let cfg = DynamicConfig {
            arrival_rate: 0.5,
            sim_time: 400.0,
            warmup: 40.0,
            ..DynamicConfig::default()
        };
        let fcfg = FaultPlanConfig::links(0.01, 25.0, cfg.sim_time);
        let scheduler = MaxFlowScheduler::default();
        let model = FaultModel::Correlated { domain_boxes: 2 };
        let serial = run_faulted_trials_model(
            &net,
            &scheduler,
            &cfg,
            &fcfg,
            4,
            1,
            DegradedPolicy::Bfs,
            model,
        );
        assert!(
            serial.iter().any(|s| s.failures > 0),
            "correlated plans must inject domain failures"
        );
        for s in &serial {
            // Domain events flow through the incremental patch path: one
            // rebuild for the transformation shape, none for the faults.
            assert_eq!(s.transform_rebuilds, 1);
            assert_eq!(s.misrouted, 0, "correlated faults are fail-stop");
            assert_eq!(s.byz_flagged, 0, "detector must stay disengaged");
        }
        for threads in [2, 8] {
            let parallel = run_faulted_trials_model(
                &net,
                &scheduler,
                &cfg,
                &fcfg,
                4,
                threads,
                DegradedPolicy::Bfs,
                model,
            );
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.stats.completed, b.stats.completed, "threads={threads}");
                assert_eq!(a.failures, b.failures, "threads={threads}");
                assert_eq!(a.shed_total, b.shed_total, "threads={threads}");
                assert_eq!(
                    a.stats.mean_response.to_bits(),
                    b.stats.mean_response.to_bits(),
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn byzantine_boxes_misroute_until_detected_and_quarantined() {
        use rsin_topology::FaultPlanConfig;
        let net = omega(8).unwrap();
        let cfg = DynamicConfig {
            arrival_rate: 0.5,
            sim_time: 400.0,
            warmup: 40.0,
            ..DynamicConfig::default()
        };
        let fcfg = FaultPlanConfig {
            link_failure_rate: 0.0,
            box_failure_rate: 0.002,
            mean_repair: 80.0,
            horizon: cfg.sim_time,
        };
        let scheduler = MaxFlowScheduler::default();
        let plan = plan_for_model(
            &net,
            &fcfg,
            FaultModel::Byzantine,
            fault_plan_seed(cfg.seed, 0),
        );
        assert!(plan.has_byzantine() && plan.failure_count() > 0);
        let run = SystemSim::new(&net, cfg).run_faulted_trial_policy(
            &scheduler,
            &plan,
            0,
            DegradedPolicy::Bfs,
        );
        // The lie manifests: circuits establish but fail to deliver…
        assert!(run.misrouted > 0, "no circuit was ever misrouted");
        // …and the differential detector catches the liar with repeat
        // evidence, never before the flagging threshold allows.
        assert!(run.byz_flagged > 0, "no box was ever flagged");
        assert!(run.detections_observed > 0);
        assert!(
            run.mean_detection_cycles >= rsin_core::conformance::FLAG_THRESHOLD as f64,
            "detection latency {} under threshold",
            run.mean_detection_cycles
        );
        // Tasks survive: misrouted transmissions re-queue and retry once the
        // liar is quarantined, so the run still completes work.
        assert!(run.stats.completed > 0);
    }

    #[test]
    fn byzantine_trials_bit_identical_across_thread_counts() {
        use rsin_topology::FaultPlanConfig;
        let net = omega(8).unwrap();
        let cfg = DynamicConfig {
            arrival_rate: 0.4,
            sim_time: 300.0,
            warmup: 30.0,
            ..DynamicConfig::default()
        };
        let fcfg = FaultPlanConfig {
            link_failure_rate: 0.0,
            box_failure_rate: 0.002,
            mean_repair: 60.0,
            horizon: cfg.sim_time,
        };
        let scheduler = MaxFlowScheduler::default();
        let serial = run_faulted_trials_model(
            &net,
            &scheduler,
            &cfg,
            &fcfg,
            4,
            1,
            DegradedPolicy::Bfs,
            FaultModel::Byzantine,
        );
        assert!(serial.iter().any(|s| s.misrouted > 0));
        for threads in [2, 8] {
            let parallel = run_faulted_trials_model(
                &net,
                &scheduler,
                &cfg,
                &fcfg,
                4,
                threads,
                DegradedPolicy::Bfs,
                FaultModel::Byzantine,
            );
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.misrouted, b.misrouted, "threads={threads}");
                assert_eq!(a.byz_flagged, b.byz_flagged, "threads={threads}");
                assert_eq!(a.stats.completed, b.stats.completed, "threads={threads}");
                assert_eq!(
                    a.mean_detection_cycles.to_bits(),
                    b.mean_detection_cycles.to_bits(),
                    "threads={threads}"
                );
            }
        }
    }
}
