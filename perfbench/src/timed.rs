//! A timing wrapper around the `Scheduler` handed to `SystemSim`.
//!
//! Every trait method forwards to the inner scheduler, so its overrides
//! (`try_schedule_reusing`, `try_schedule_observed`, `priced_retry`, ...)
//! run exactly as they would unwrapped; the wrapper only reads the clock
//! around each cycle. With layers attached (traced run) it then, outside the
//! timed cycle, certifies the outcome with `mapping::verify` and re-solves
//! the same snapshot through the public layer calls one by one, timing each
//! as a span.

use crate::trace::Tracer;
use rsin_core::mapping::{extract, extract_hetero, verify};
use rsin_core::model::{ScheduleOutcome, ScheduleProblem};
use rsin_core::scheduler::{
    DegradedOutcome, PricedDegradedOutcome, ScheduleError, ScheduleScratch, Scheduler,
};
use rsin_core::transform::hetero;
use rsin_core::transform::reusable::ReusableTransform;
use rsin_flow::max_flow::{self, Algorithm};
use rsin_flow::{multicommodity, SolveScratch};
use rsin_obs::Probe;
use std::sync::Mutex;
use std::time::Instant;

/// Which layer chain a traced cycle is decomposed into.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // one per traced sample; never moved in a loop
pub enum Layers {
    /// Transformation 1 on a reusable graph, Dinic, mapping extraction.
    MaxFlow {
        /// The decomposition's own reusable graph.
        graph: ReusableTransform,
        /// Solver buffers.
        scratch: SolveScratch,
    },
    /// Multicommodity transformation, LP, heterogeneous extraction.
    Hetero,
}

/// Per-cycle record kept by the wrapper.
#[derive(Debug)]
pub struct CycleLog {
    /// Host ns of each forwarded cycle, in call order.
    pub cycle_ns: Vec<u64>,
    /// Cycles that went through a degraded entry point.
    pub degraded: u64,
    /// Host ns spent outside the cycles on verification and decomposition.
    pub layer_ns: u64,
    /// Max-flow augmentations of the decomposition.
    pub augmentations: u64,
    /// LP pivots of the decomposition.
    pub pivots: u64,
    /// LP columns (flow variables) of the decomposition.
    pub columns: u64,
    /// Cycles whose LP was fractional or failed.
    pub fallbacks: u64,
    /// Outcomes that failed verification or disagreed with the
    /// decomposition.
    pub violations: Vec<String>,
    /// Spans of the traced run (disabled when untraced).
    pub tracer: Tracer,
    layers: Option<Layers>,
}

impl CycleLog {
    /// An empty log; `layers` (with an enabled tracer) turns on the traced
    /// decomposition.
    pub fn new(layers: Option<Layers>, tracer: Tracer) -> Self {
        CycleLog {
            cycle_ns: Vec::new(),
            degraded: 0,
            layer_ns: 0,
            augmentations: 0,
            pivots: 0,
            columns: 0,
            fallbacks: 0,
            violations: Vec::new(),
            tracer,
            layers,
        }
    }

    fn record(
        &mut self,
        problem: &ScheduleProblem,
        degraded: bool,
        start: Instant,
        end: Instant,
        outcome: Option<&ScheduleOutcome>,
    ) {
        self.cycle_ns.push((end - start).as_nanos() as u64);
        self.degraded += u64::from(degraded);
        let (Some(outcome), Some(layers)) = (outcome, self.layers.as_mut()) else {
            return;
        };
        let tracer = &mut self.tracer;
        let cycle = tracer.record("scheduler.cycle", 0, start, end);
        let verified = tracer.span("mapping.verify", cycle, || {
            verify(&outcome.assignments, problem)
        });
        if let Err(e) = verified {
            self.violations
                .push(format!("cycle {}: {e}", self.cycle_ns.len()));
        }
        let found = match layers {
            Layers::MaxFlow { graph, scratch } => {
                let t = tracer.span("transform.configure_max_flow", cycle, || {
                    graph.configure_max_flow(problem)
                });
                let r = tracer.span("max_flow.solve_with", cycle, || {
                    max_flow::solve_with(&mut t.flow, t.source, t.sink, Algorithm::Dinic, scratch)
                });
                self.augmentations += r.stats.augmentations;
                tracer
                    .span("mapping.extract", cycle, || extract(t))
                    .map(|a| a.len())
            }
            Layers::Hetero => {
                let t = tracer.span("hetero.transform_max", cycle, || {
                    hetero::transform_max(problem)
                });
                let sol = tracer.span("multicommodity.max_flow", cycle, || {
                    multicommodity::max_flow(&t.flow, &t.commodities)
                });
                // One flow variable per commodity and arc, plus one value
                // variable per commodity.
                self.columns += (t.commodities.len() * (t.flow.num_arcs() + 1)) as u64;
                match sol {
                    Ok(sol) if sol.integral => {
                        self.pivots += sol.pivots as u64;
                        tracer
                            .span("mapping.extract_hetero", cycle, || extract_hetero(&t, &sol))
                            .map(|a| a.len())
                    }
                    Ok(sol) => {
                        self.pivots += sol.pivots as u64;
                        self.fallbacks += 1;
                        Ok(outcome.assignments.len())
                    }
                    Err(_) => {
                        self.fallbacks += 1;
                        Ok(outcome.assignments.len())
                    }
                }
            }
        };
        match found {
            Ok(n) if n == outcome.assignments.len() => {}
            other => self.violations.push(format!(
                "cycle {}: scheduler allocated {}, layer-by-layer solve {other:?}",
                self.cycle_ns.len(),
                outcome.assignments.len()
            )),
        }
        self.layer_ns += end.elapsed().as_nanos() as u64;
    }
}

/// A [`Scheduler`] that forwards every method to `inner` and logs each
/// cycle's host time.
pub struct TimedScheduler<'s> {
    inner: &'s dyn Scheduler,
    log: Mutex<CycleLog>,
}

impl<'s> TimedScheduler<'s> {
    /// Wrap `inner`, logging into `log`.
    pub fn new(inner: &'s dyn Scheduler, log: CycleLog) -> Self {
        TimedScheduler {
            inner,
            log: Mutex::new(log),
        }
    }

    /// The log so far.
    pub fn into_log(self) -> CycleLog {
        self.log
            .into_inner()
            .expect("cycle log lock is never poisoned")
    }

    fn cycle<T>(
        &self,
        problem: &ScheduleProblem,
        degraded: bool,
        call: impl FnOnce(&dyn Scheduler) -> Result<T, ScheduleError>,
        outcome: impl FnOnce(&T) -> &ScheduleOutcome,
    ) -> Result<T, ScheduleError> {
        let start = Instant::now();
        let result = call(self.inner);
        let end = Instant::now();
        self.log
            .lock()
            .expect("cycle log lock is never poisoned")
            .record(
                problem,
                degraded,
                start,
                end,
                result.as_ref().ok().map(outcome),
            );
        result
    }
}

impl Scheduler for TimedScheduler<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn try_schedule(&self, problem: &ScheduleProblem) -> Result<ScheduleOutcome, ScheduleError> {
        self.cycle(problem, false, |s| s.try_schedule(problem), |o| o)
    }

    fn schedule(&self, problem: &ScheduleProblem) -> ScheduleOutcome {
        let out = self.cycle(problem, false, |s| Ok(s.schedule(problem)), |o| o);
        out.expect("schedule returns no error")
    }

    fn try_schedule_reusing(
        &self,
        problem: &ScheduleProblem,
        scratch: &mut ScheduleScratch,
    ) -> Result<ScheduleOutcome, ScheduleError> {
        self.cycle(
            problem,
            false,
            |s| s.try_schedule_reusing(problem, scratch),
            |o| o,
        )
    }

    fn try_schedule_degraded(
        &self,
        problem: &ScheduleProblem,
        scratch: &mut ScheduleScratch,
    ) -> Result<DegradedOutcome, ScheduleError> {
        self.cycle(
            problem,
            true,
            |s| s.try_schedule_degraded(problem, scratch),
            |d| &d.outcome,
        )
    }

    fn priced_retry(
        &self,
        problem: &ScheduleProblem,
        primary: ScheduleOutcome,
        scratch: &mut ScheduleScratch,
        probe: &dyn Probe,
    ) -> Result<PricedDegradedOutcome, ScheduleError> {
        // A step inside a cycle, not a cycle of its own.
        self.inner.priced_retry(problem, primary, scratch, probe)
    }

    fn try_schedule_degraded_priced(
        &self,
        problem: &ScheduleProblem,
        scratch: &mut ScheduleScratch,
    ) -> Result<PricedDegradedOutcome, ScheduleError> {
        self.cycle(
            problem,
            true,
            |s| s.try_schedule_degraded_priced(problem, scratch),
            |d| &d.outcome,
        )
    }

    fn try_schedule_observed(
        &self,
        problem: &ScheduleProblem,
        scratch: &mut ScheduleScratch,
        probe: &dyn Probe,
    ) -> Result<ScheduleOutcome, ScheduleError> {
        self.cycle(
            problem,
            false,
            |s| s.try_schedule_observed(problem, scratch, probe),
            |o| o,
        )
    }

    fn try_schedule_degraded_observed(
        &self,
        problem: &ScheduleProblem,
        scratch: &mut ScheduleScratch,
        probe: &dyn Probe,
    ) -> Result<DegradedOutcome, ScheduleError> {
        self.cycle(
            problem,
            true,
            |s| s.try_schedule_degraded_observed(problem, scratch, probe),
            |d| &d.outcome,
        )
    }

    fn try_schedule_degraded_priced_observed(
        &self,
        problem: &ScheduleProblem,
        scratch: &mut ScheduleScratch,
        probe: &dyn Probe,
    ) -> Result<PricedDegradedOutcome, ScheduleError> {
        self.cycle(
            problem,
            true,
            |s| s.try_schedule_degraded_priced_observed(problem, scratch, probe),
            |d| &d.outcome,
        )
    }

    fn schedule_reusing(
        &self,
        problem: &ScheduleProblem,
        scratch: &mut ScheduleScratch,
    ) -> ScheduleOutcome {
        let out = self.cycle(
            problem,
            false,
            |s| Ok(s.schedule_reusing(problem, scratch)),
            |o| o,
        );
        out.expect("schedule_reusing returns no error")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsin_core::scheduler::MaxFlowScheduler;
    use rsin_obs::NoopProbe;
    use rsin_topology::builders::omega;
    use rsin_topology::CircuitState;

    /// Overrides every method and records which one ran, so a method the
    /// wrapper failed to forward shows up as the default's expansion.
    #[derive(Default)]
    struct Spy(Mutex<Vec<&'static str>>);

    impl Spy {
        fn saw(&self, name: &'static str) -> Result<ScheduleOutcome, ScheduleError> {
            self.0.lock().unwrap().push(name);
            Ok(ScheduleOutcome {
                assignments: Vec::new(),
                blocked: Vec::new(),
                total_cost: 0,
                estimated_instructions: 0,
            })
        }
    }

    fn degraded(o: ScheduleOutcome) -> DegradedOutcome {
        DegradedOutcome {
            outcome: o,
            recovered: 0,
            shed: 0,
            recovery_cost: 0,
        }
    }

    fn priced(o: ScheduleOutcome) -> PricedDegradedOutcome {
        PricedDegradedOutcome {
            outcome: o,
            recovered: 0,
            shed: 0,
            recovery_cost: 0,
        }
    }

    impl Scheduler for Spy {
        fn name(&self) -> &'static str {
            "spy"
        }
        fn try_schedule(&self, _: &ScheduleProblem) -> Result<ScheduleOutcome, ScheduleError> {
            self.saw("try_schedule")
        }
        fn schedule(&self, _: &ScheduleProblem) -> ScheduleOutcome {
            self.saw("schedule").unwrap()
        }
        fn try_schedule_reusing(
            &self,
            _: &ScheduleProblem,
            _: &mut ScheduleScratch,
        ) -> Result<ScheduleOutcome, ScheduleError> {
            self.saw("try_schedule_reusing")
        }
        fn try_schedule_degraded(
            &self,
            _: &ScheduleProblem,
            _: &mut ScheduleScratch,
        ) -> Result<DegradedOutcome, ScheduleError> {
            self.saw("try_schedule_degraded").map(degraded)
        }
        fn priced_retry(
            &self,
            _: &ScheduleProblem,
            primary: ScheduleOutcome,
            _: &mut ScheduleScratch,
            _: &dyn Probe,
        ) -> Result<PricedDegradedOutcome, ScheduleError> {
            self.saw("priced_retry").map(|_| priced(primary))
        }
        fn try_schedule_degraded_priced(
            &self,
            _: &ScheduleProblem,
            _: &mut ScheduleScratch,
        ) -> Result<PricedDegradedOutcome, ScheduleError> {
            self.saw("try_schedule_degraded_priced").map(priced)
        }
        fn try_schedule_observed(
            &self,
            _: &ScheduleProblem,
            _: &mut ScheduleScratch,
            _: &dyn Probe,
        ) -> Result<ScheduleOutcome, ScheduleError> {
            self.saw("try_schedule_observed")
        }
        fn try_schedule_degraded_observed(
            &self,
            _: &ScheduleProblem,
            _: &mut ScheduleScratch,
            _: &dyn Probe,
        ) -> Result<DegradedOutcome, ScheduleError> {
            self.saw("try_schedule_degraded_observed").map(degraded)
        }
        fn try_schedule_degraded_priced_observed(
            &self,
            _: &ScheduleProblem,
            _: &mut ScheduleScratch,
            _: &dyn Probe,
        ) -> Result<PricedDegradedOutcome, ScheduleError> {
            self.saw("try_schedule_degraded_priced_observed")
                .map(priced)
        }
        fn schedule_reusing(
            &self,
            _: &ScheduleProblem,
            _: &mut ScheduleScratch,
        ) -> ScheduleOutcome {
            self.saw("schedule_reusing").unwrap()
        }
    }

    #[test]
    fn every_method_reaches_the_inner_override() {
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let p = ScheduleProblem::homogeneous(&cs, &[0, 1], &[2, 3]);
        let spy = Spy::default();
        let timed = TimedScheduler::new(&spy, CycleLog::new(None, Tracer::new(false)));
        let mut s = ScheduleScratch::new();
        let probe = NoopProbe;
        assert_eq!(timed.name(), "spy");
        timed.try_schedule(&p).unwrap();
        timed.schedule(&p);
        timed.try_schedule_reusing(&p, &mut s).unwrap();
        timed.try_schedule_degraded(&p, &mut s).unwrap();
        let primary = spy.saw("primary").unwrap();
        timed.priced_retry(&p, primary, &mut s, &probe).unwrap();
        timed.try_schedule_degraded_priced(&p, &mut s).unwrap();
        timed.try_schedule_observed(&p, &mut s, &probe).unwrap();
        timed
            .try_schedule_degraded_observed(&p, &mut s, &probe)
            .unwrap();
        timed
            .try_schedule_degraded_priced_observed(&p, &mut s, &probe)
            .unwrap();
        timed.schedule_reusing(&p, &mut s);
        assert_eq!(
            *spy.0.lock().unwrap(),
            [
                "try_schedule",
                "schedule",
                "try_schedule_reusing",
                "try_schedule_degraded",
                "primary",
                "priced_retry",
                "try_schedule_degraded_priced",
                "try_schedule_observed",
                "try_schedule_degraded_observed",
                "try_schedule_degraded_priced_observed",
                "schedule_reusing",
            ]
        );
        let log = timed.into_log();
        // Nine cycles: everything except `name` and the in-cycle retry.
        assert_eq!(log.cycle_ns.len(), 9);
        assert_eq!(log.degraded, 4);
    }

    #[test]
    fn traced_decomposition_agrees_with_the_scheduler() {
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let p = ScheduleProblem::homogeneous(&cs, &[0, 1, 2, 3, 4], &[0, 2, 5, 7]);
        let inner = MaxFlowScheduler::default();
        let layers = Layers::MaxFlow {
            graph: ReusableTransform::new(),
            scratch: SolveScratch::new(),
        };
        let timed = TimedScheduler::new(&inner, CycleLog::new(Some(layers), Tracer::new(true)));
        let mut s = ScheduleScratch::new();
        let out = timed.try_schedule_reusing(&p, &mut s).unwrap();
        assert_eq!(out.assignments.len(), 4);
        let log = timed.into_log();
        assert!(log.violations.is_empty(), "{:?}", log.violations);
        assert!(log.augmentations >= 4);
        for span in [
            "scheduler.cycle",
            "mapping.verify",
            "max_flow.solve_with",
            "mapping.extract",
        ] {
            assert_eq!(log.tracer.count(span), 1, "{span}");
        }
    }
}
