//! # rsin-obs — zero-overhead-when-off telemetry
//!
//! The paper's central quantitative claims are *work counts*: Dinic phases
//! and augmenting paths behind Theorems 1–2, out-of-kilter iterations behind
//! Theorem 3, and the clock-period accounting that lets the Section IV-B
//! token-propagation engine claim a speedup over the instruction-counted
//! monitor. This crate makes those internal metrics first-class without
//! taxing the hot paths that produce them:
//!
//! * [`Probe`] — the instrumentation seam. Every method has an inlined
//!   empty default, so the [`NoopProbe`] ZST compiles to nothing; hot code
//!   takes `&dyn Probe` and pays one predictable virtual call per *solve or
//!   cycle* (never per inner-loop operation — solver work counts arrive
//!   pre-aggregated as [`SolveCounts`]).
//! * [`hist`] — log2-bucketed histograms ([`hist::AtomicHistogram`]) with
//!   p50/p90/p99 quantiles, shared-nothing atomic recording.
//! * [`ring`] — a fixed-capacity ring-buffer event trace
//!   ([`ring::EventRing`]) that keeps the most recent events and counts
//!   what it dropped.
//! * [`Telemetry`] — the standard live sink: atomic counters, per-solver
//!   accumulators, histograms, and the event ring behind one [`Probe`]
//!   implementation, snapshot-exported as a [`TelemetryReport`] with a
//!   hand-rolled JSON encoder (the workspace is offline; no serde).
//! * [`trace`] — per-request causal spans ([`trace::SpanPhase`]) behind the
//!   [`Probe`] lifecycle hooks: [`NoopProbe`] for the off path, a bounded
//!   [`FlightRecorder`] probe for the on path, exportable as Chrome
//!   trace-event JSON or a canonical timestamp-free text form.
//! * [`window`] — epoch-rotated windowed counters/histograms and EWMA rate
//!   estimators for "what happened recently" readouts, merged exactly
//!   across lockstep replicas.
//!
//! ## The probe contract
//!
//! Instrumented code must behave identically under *any* probe (DESIGN.md
//! §8 pins this with a property test):
//!
//! 1. a probe never influences control flow — implementations only record;
//! 2. a probe never consumes simulation randomness;
//! 3. a probe uses bounded memory — counters are fixed arrays, the event
//!    trace is a fixed-capacity ring;
//! 4. with [`NoopProbe`], the observed entry points must be within noise of
//!    the unobserved ones (asserted by a `bench_smoke` row in CI).

pub mod hist;
pub mod probe;
pub mod ring;
pub mod telemetry;
pub mod trace;
pub mod window;

pub use hist::{bucket_ceil, bucket_floor, bucket_of, AtomicHistogram, HistogramSnapshot, BUCKETS};
pub use probe::{Counter, EventKind, Hist, NoopProbe, Probe, SolveCounts, SolverId, Span};
pub use ring::{EventRing, TraceEvent};
pub use telemetry::{Telemetry, TelemetryReport};
pub use trace::{validate_spans, FlightRecorder, SpanEvent, SpanPhase, TraceSnapshot};
pub use window::{EwmaRate, WindowedCounter, WindowedHistogram};
