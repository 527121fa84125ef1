//! BENCH_SMOKE — self-timed hot-path regression gate for CI.
//!
//! The criterion shim prints human output only, so CI gates on this
//! dedicated binary instead: it wall-clock-times the `hot_path` bench's
//! workloads (the threaded blocking batch at 1/2/4/8 workers plus the
//! reset-per-trial scheduling rows) with min-of-N repetitions and writes a
//! JSON report.
//!
//! Usage: `bench_smoke [--telemetry <path>] [--replicas <n>] <out.json>
//! [baseline.json]`
//!
//! Raw seconds are not comparable across machines, so every row also
//! carries a *normalized* time: row seconds divided by the seconds of a
//! fixed single-core integer calibration loop measured in the same process.
//! When a baseline file is given, the gate fails (exit 1) if any row's
//! normalized time regresses more than 25 % over the baseline's — slow CI
//! hardware cancels out of the ratio, real hot-path regressions do not.
//!
//! Six contracts are asserted on the way:
//!
//! * determinism — every thread count must produce bit-identical blocking
//!   statistics;
//! * replicated determinism — `run_replicated` over `--replicas` replicas
//!   (default 4) must produce bit-identical merged statistics at 1, 2, and
//!   8 worker threads;
//! * zero-overhead-when-off telemetry — the `NoopProbe` observed scheduling
//!   row must stay within the regression limit of the unobserved row,
//!   in-process (no baseline needed);
//! * parallel efficiency — when the baseline carries a
//!   `min_parallel_speedup` and the machine has ≥ 4 cores, the 4-thread
//!   blocking row must beat the 1-thread row by at least that factor;
//! * scheduler-pool efficiency — when the baseline carries a
//!   `min_pool_speedup` and the machine has ≥ 4 cores, the four-scheduler
//!   comparison table run on per-scheduler pools
//!   (`compare_schedulers_pools`) must beat the serial row-after-row table
//!   by at least that factor (max-of-rows vs. sum-of-rows wall-clock). On
//!   smaller machines both per-core gates print a skip note instead;
//! * sharded hierarchy — the hierarchical two-stage scheduler on a 4-shard
//!   composition must produce bit-identical statistics at every
//!   thread/shard-pool width, never allocate more than the flat Theorem-2
//!   oracle on the same snapshots, and (when the baseline carries a
//!   `min_shard_speedup` and the machine has ≥ 4 cores) beat the flat
//!   single-solver fresh solve by at least that factor.
//!
//! `--telemetry <path>` additionally runs the observed hot path under a live
//! `rsin_obs::Telemetry` sink and writes its JSON report.

use rsin_core::model::ScheduleProblem;
use rsin_core::scheduler::IncrementalScheduler;
use rsin_core::scheduler::InterShardPolicy;
use rsin_core::scheduler::{
    IncrementalBackend, MaxFlowScheduler, MinCostScheduler, ScheduleScratch, Scheduler,
    StreamDecision,
};
use rsin_flow::graph::{FlowNetwork, NodeId};
use rsin_flow::max_flow::Algorithm;
use rsin_flow::{max_flow, min_cost, SolveScratch};
use rsin_obs::{FlightRecorder, NoopProbe, Probe, Telemetry};
use rsin_sim::blocking::{
    compare_schedulers_pools, compare_schedulers_threads, run_blocking_threads, BlockingConfig,
};
use rsin_sim::replicate::run_replicated;
use rsin_sim::sharded::{
    run_flat_trials, run_paired_trials, run_sharded_trials, ShardedTrialConfig,
};
use rsin_sim::stream::{generate_commands, replay_batch, replay_incremental, StreamCommand};
use rsin_sim::system::{DynamicConfig, SystemSim};
use rsin_sim::workload::{random_snapshot, trial_rng};
use rsin_topology::builders::omega;
use rsin_topology::{GlobalTopology, Network, ShardedNetwork, ShardedSpec};
use std::hint::black_box;
use std::time::Instant;

const THREAD_ROWS: [usize; 4] = [1, 2, 4, 8];
const REPS: usize = 5;
const BATCH_TRIALS: u64 = 64;
const REGRESSION_LIMIT: f64 = 1.25;

struct Row {
    name: String,
    secs: f64,
    normalized: f64,
}

/// Fixed single-core integer workload whose wall time anchors the
/// normalization (xorshift64*, enough iterations to dominate timer noise).
fn calibration_secs() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0u64;
        for _ in 0..20_000_000u64 {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            acc = acc.wrapping_add(x.wrapping_mul(0x2545_F491_4F6C_DD1D));
        }
        black_box(acc);
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Min-of-reps wall time of a workload.
fn time_min<F: FnMut()>(mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// The `hot_path` bench's reset-per-trial batch: schedule a fixed snapshot
/// stream through a reused scratch.
fn reset_batch(net: &Network, scheduler: &dyn Scheduler, scratch: &mut ScheduleScratch) -> usize {
    let mut total = 0;
    for trial in 0..BATCH_TRIALS {
        let mut rng = trial_rng(41, trial);
        let snap = random_snapshot(net, 8, 8, 2, &mut rng);
        let problem = ScheduleProblem::homogeneous(&snap.circuits, &snap.requesting, &snap.free);
        total += scheduler.schedule_reusing(&problem, scratch).allocated();
    }
    total
}

/// [`reset_batch`] through the observed scheduling entry point — with
/// `NoopProbe` this times the zero-overhead-when-off claim, with a live
/// `Telemetry` it produces the exported report.
fn reset_batch_observed(
    net: &Network,
    scheduler: &dyn Scheduler,
    scratch: &mut ScheduleScratch,
    probe: &dyn Probe,
) -> usize {
    let mut total = 0;
    for trial in 0..BATCH_TRIALS {
        let mut rng = trial_rng(41, trial);
        let snap = random_snapshot(net, 8, 8, 2, &mut rng);
        let problem = ScheduleProblem::homogeneous(&snap.circuits, &snap.requesting, &snap.free);
        total += scheduler
            .try_schedule_observed(&problem, scratch, probe)
            .expect("well-formed snapshot")
            .allocated();
    }
    total
}

/// The streaming replay through the observed entry points — with a live
/// [`FlightRecorder`] as the probe this times the span-recording hot path
/// against the plain `stream_incremental` row.
fn replay_observed(net: &Network, commands: &[StreamCommand], probe: &dyn Probe) -> usize {
    let mut inc = IncrementalScheduler::new(net, IncrementalBackend::MaxFlow);
    let mut decisions = 0usize;
    for c in commands {
        match *c {
            StreamCommand::Request { processor } => inc.request_observed(processor, probe),
            StreamCommand::Release { processor } => inc.release_observed(processor, probe),
            StreamCommand::Stats => continue,
        }
        .expect("valid stream");
        decisions += 1;
    }
    decisions
}

/// Deterministic layered DAG exercising the solver core's adjacency walk:
/// `layers` ranks of `width` nodes, each node wired to `degree`
/// pseudo-random nodes of the next rank (xorshift64*, fixed seed), with
/// small mixed capacities and costs. Big enough that adjacency-list cache
/// behaviour — the quantity the CSR rows gate — dominates the solve.
fn csr_network(width: usize, layers: usize, degree: usize) -> (FlowNetwork, NodeId, NodeId) {
    let mut g = FlowNetwork::with_capacity(width * layers + 2, width * layers * degree);
    let s = g.add_node("s");
    let t = g.add_node("t");
    let mut ranks: Vec<Vec<NodeId>> = Vec::with_capacity(layers);
    for l in 0..layers {
        ranks.push(
            (0..width)
                .map(|i| g.add_node(format!("n{l}_{i}")))
                .collect(),
        );
    }
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    for &u in &ranks[0] {
        g.add_arc(s, u, 2, 0);
    }
    for l in 0..layers - 1 {
        for &u in &ranks[l] {
            for _ in 0..degree {
                let v = ranks[l + 1][(next() as usize) % width];
                g.add_arc(u, v, 1 + (next() % 3) as i64, 1 + (next() % 2) as i64);
            }
        }
    }
    for &u in &ranks[layers - 1] {
        g.add_arc(u, t, 2, 0);
    }
    (g, s, t)
}

/// The `csr_dinic` row body: repeated reset + scratch Dinic solves on one
/// retained solver-core network (the zero-rebuild hot path, minus the
/// transformation layer, so the row isolates the adjacency walk itself).
fn csr_dinic_batch(g: &mut FlowNetwork, s: NodeId, t: NodeId, scratch: &mut SolveScratch) -> i64 {
    let mut total = 0;
    for _ in 0..12 {
        g.reset();
        total += max_flow::solve_with(g, s, t, Algorithm::Dinic, scratch).value;
    }
    total
}

/// The `csr_min_cost` row body: repeated reset + scratch cycle-canceling
/// solves to the full flow value. Cycle canceling spends nearly all of its
/// time in Bellman–Ford negative-cycle sweeps — node-by-node adjacency
/// walks with one compare-and-relax per arc — so of the min-cost solvers
/// it is the one whose running time is the adjacency walk the CSR layout
/// flattens (SSP hides the walk behind Dijkstra heap traffic).
fn csr_min_cost_batch(
    g: &mut FlowNetwork,
    s: NodeId,
    t: NodeId,
    target: i64,
    scratch: &mut SolveScratch,
) -> i64 {
    let mut total = 0;
    for _ in 0..3 {
        g.reset();
        total += min_cost::solve_with(
            g,
            s,
            t,
            target,
            min_cost::Algorithm::CycleCanceling,
            scratch,
        )
        .cost;
    }
    total
}

fn emit_json(path: &str, calib: f64, rows: &[Row]) -> std::io::Result<()> {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"hot_path_smoke\",\n");
    s.push_str(&format!("  \"reps\": {REPS},\n"));
    s.push_str(&format!("  \"calibration_secs\": {calib:.6},\n"));
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"secs\": {:.6}, \"normalized\": {:.6}}}{}\n",
            r.name,
            r.secs,
            r.normalized,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s)
}

/// Extract `(name, normalized)` pairs from a report produced by
/// [`emit_json`] (fixed format, no general JSON parser needed).
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let mut rows = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.trim().strip_prefix("{\"name\": \"") else {
            continue;
        };
        let Some((name, rest)) = rest.split_once('"') else {
            continue;
        };
        let Some((_, rest)) = rest.split_once("\"normalized\": ") else {
            continue;
        };
        let num: String = rest
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        if let Ok(v) = num.parse::<f64>() {
            rows.push((name.to_string(), v));
        }
    }
    rows
}

/// Extract a top-level named floor (e.g. `min_parallel_speedup`,
/// `min_pool_speedup`) from a baseline file, if present (fixed format, like
/// [`parse_baseline`]).
fn parse_floor(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let idx = text.find(&needle)?;
    let rest = text[idx + needle.len()..].trim_start();
    let num: String = rest
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    num.parse().ok()
}

/// Pop `--flag value` out of `args`; returns the value.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("error: {flag} needs a value");
        std::process::exit(2);
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(v)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let telemetry_path = take_flag(&mut args, "--telemetry");
    let replicas: usize = take_flag(&mut args, "--replicas")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
        .max(1);
    let out_path = args
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_hot_path.json".into());
    let baseline_path = args.get(1).cloned();

    let net = omega(16).unwrap();
    let cfg = BlockingConfig {
        trials: 1024,
        requests: 8,
        resources: 8,
        occupied_circuits: 2,
        seed: 41,
    };
    let max_flow = MaxFlowScheduler::default();
    let min_cost = MinCostScheduler::default();

    println!("bench_smoke: calibrating...");
    let calib = calibration_secs();
    println!("  calibration loop: {calib:.4}s");

    // Determinism contract across the thread rows, checked before timing.
    let reference = run_blocking_threads(&net, &max_flow, &cfg, 1);
    for &t in &THREAD_ROWS[1..] {
        let r = run_blocking_threads(&net, &max_flow, &cfg, t);
        assert_eq!(
            reference.blocking.mean.to_bits(),
            r.blocking.mean.to_bits(),
            "thread count {t} changed the statistics"
        );
    }

    let mut rows = Vec::new();
    for &t in &THREAD_ROWS {
        let secs = time_min(|| {
            black_box(run_blocking_threads(&net, &max_flow, &cfg, t).blocking.mean);
        });
        println!("  blocking_threads_{t}: {secs:.4}s");
        rows.push(Row {
            name: format!("blocking_threads_{t}"),
            secs,
            normalized: secs / calib,
        });
    }
    for (name, s) in [
        ("reset_per_trial_max_flow", &max_flow as &dyn Scheduler),
        ("reset_per_trial_min_cost", &min_cost as &dyn Scheduler),
    ] {
        let mut scratch = ScheduleScratch::new();
        let secs = time_min(|| {
            black_box(reset_batch(&net, s, &mut scratch));
        });
        println!("  {name}: {secs:.4}s");
        rows.push(Row {
            name: name.to_string(),
            secs,
            normalized: secs / calib,
        });
    }

    // Solver-core rows (ISSUE 9): repeated zero-rebuild solves on one big
    // layered DAG, isolating the adjacency walk the CSR layout flattens.
    // Gated against the committed *pre-CSR* observed values in the baseline
    // (`pre_csr_dinic` / `pre_csr_min_cost`) by `min_csr_speedup` below.
    {
        let (mut cg, cs, ct) = csr_network(64, 24, 20);
        let mut scratch = SolveScratch::new();
        let secs = time_min(|| {
            black_box(csr_dinic_batch(&mut cg, cs, ct, &mut scratch));
        });
        println!("  csr_dinic: {secs:.4}s");
        rows.push(Row {
            name: "csr_dinic".to_string(),
            secs,
            normalized: secs / calib,
        });
        // Smaller network for the cycle-canceling row: Bellman–Ford sweeps
        // are O(V·E) per canceled cycle, and the full-value target avoids
        // the (cold-path) overshoot walk.
        let (mut mg, ms, mt) = csr_network(20, 8, 4);
        mg.reset();
        let target = max_flow::solve_with(&mut mg, ms, mt, Algorithm::Dinic, &mut scratch).value;
        let secs = time_min(|| {
            black_box(csr_min_cost_batch(&mut mg, ms, mt, target, &mut scratch));
        });
        println!("  csr_min_cost: {secs:.4}s");
        rows.push(Row {
            name: "csr_min_cost".to_string(),
            secs,
            normalized: secs / calib,
        });
    }

    // Scheduler-pool rows (ROADMAP item 2): the same four-scheduler
    // comparison table run serially row after row vs. on per-scheduler
    // pools. The four max-flow variants cost about the same per trial, so
    // on >= 4 cores the pooled table should approach max-of-rows
    // wall-clock. Bit-identity between the two is asserted first.
    let dinic = MaxFlowScheduler::new(Algorithm::Dinic);
    let edmonds_karp = MaxFlowScheduler::new(Algorithm::EdmondsKarp);
    let push_relabel = MaxFlowScheduler::new(Algorithm::PushRelabel);
    let capacity_scaling = MaxFlowScheduler::new(Algorithm::CapacityScaling);
    let table: [&dyn Scheduler; 4] = [&dinic, &edmonds_karp, &push_relabel, &capacity_scaling];
    let table_cfg = BlockingConfig { trials: 512, ..cfg };
    let serial_table = compare_schedulers_threads(&net, &table, &table_cfg, 1);
    let pooled_table = compare_schedulers_pools(&net, &table, &table_cfg, 1);
    for ((n1, a), (n2, b)) in serial_table.iter().zip(&pooled_table) {
        assert_eq!(n1, n2, "pooled table reordered the rows");
        assert_eq!(
            a.blocking.mean.to_bits(),
            b.blocking.mean.to_bits(),
            "per-scheduler pools changed the statistics for {n1}"
        );
    }
    let serial_secs = time_min(|| {
        black_box(compare_schedulers_threads(&net, &table, &table_cfg, 1));
    });
    println!("  scheduler_table_serial: {serial_secs:.4}s");
    rows.push(Row {
        name: "scheduler_table_serial".to_string(),
        secs: serial_secs,
        normalized: serial_secs / calib,
    });
    let pool_secs = time_min(|| {
        black_box(compare_schedulers_pools(&net, &table, &table_cfg, 1));
    });
    let pool_speedup = serial_secs / pool_secs;
    println!("  scheduler_table_pools: {pool_secs:.4}s (x{pool_speedup:.2} vs serial)");
    rows.push(Row {
        name: "scheduler_table_pools".to_string(),
        secs: pool_secs,
        normalized: pool_secs / calib,
    });

    // Replicated-dynamic rows (ROADMAP item 3): the merged statistics of a
    // replicated single-config dynamic run must be bit-identical at 1, 2,
    // and 8 worker threads, then the run itself is timed at full width.
    let dyn_cfg = DynamicConfig {
        arrival_rate: 0.5,
        sim_time: 150.0,
        warmup: 15.0,
        seed: 41,
        ..DynamicConfig::default()
    };
    let rep_reference = run_replicated(&net, &max_flow, &dyn_cfg, replicas, 1);
    for t in [2usize, 8] {
        let r = run_replicated(&net, &max_flow, &dyn_cfg, replicas, t);
        assert_eq!(
            rep_reference.completed, r.completed,
            "replicated completed drifted at {t} threads"
        );
        assert_eq!(
            rep_reference.cycles, r.cycles,
            "replicated cycles drifted at {t} threads"
        );
        for (name, a, b) in [
            (
                "response.mean",
                rep_reference.response.mean,
                r.response.mean,
            ),
            (
                "response.ci95",
                rep_reference.response.ci95,
                r.response.ci95,
            ),
            ("response.p99", rep_reference.response.p99, r.response.p99),
            (
                "utilization.mean",
                rep_reference.utilization.mean,
                r.utilization.mean,
            ),
            (
                "mean_queue.mean",
                rep_reference.mean_queue.mean,
                r.mean_queue.mean,
            ),
        ] {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "replicated {name} drifted at {t} threads"
            );
        }
    }
    let rep_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rep_secs = time_min(|| {
        black_box(
            run_replicated(&net, &max_flow, &dyn_cfg, replicas, rep_threads)
                .response
                .mean,
        );
    });
    println!("  replicated_dynamic: {rep_secs:.4}s ({replicas} replicas, {rep_threads} threads)");
    rows.push(Row {
        name: "replicated_dynamic".to_string(),
        secs: rep_secs,
        normalized: rep_secs / calib,
    });

    // Heavy-traffic row (ISSUE 9): the dynamic model past saturation —
    // bursty batch-4 arrivals against 32-deep bounded queues at a
    // utilization target well past critical (rho 1.5, so the short bench
    // horizon still drives the bound into overflow; the near-critical
    // rho = {0.9..1.05} ladder lives in the `dynamic --heavy` sweep where
    // horizons are long). The regime's invariants are asserted before
    // timing: a sub-critical run sheds nothing, the overloaded run sheds
    // and carries a backlog to the horizon.
    let heavy_cfg = DynamicConfig {
        rho: 1.5,
        batch_size: 4,
        queue_capacity: 32,
        sim_time: 120.0,
        warmup: 12.0,
        seed: 41,
        ..DynamicConfig::default()
    };
    {
        let calm = SystemSim::new(
            &net,
            DynamicConfig {
                rho: 0.7,
                ..heavy_cfg
            },
        )
        .run(&max_flow);
        assert_eq!(calm.shed_arrivals, 0, "sub-critical run must not shed");
        let hot = SystemSim::new(&net, heavy_cfg).run(&max_flow);
        assert!(hot.shed_arrivals > 0, "rho 1.5 must overflow the bound");
        assert!(hot.final_queue > 0, "rho 1.5 must carry a backlog");
    }
    let heavy_secs = time_min(|| {
        black_box(SystemSim::new(&net, heavy_cfg).run(&max_flow).completed);
    });
    println!("  heavy_traffic: {heavy_secs:.4}s (rho 1.5, batch 4, bound 32)");
    rows.push(Row {
        name: "heavy_traffic".to_string(),
        secs: heavy_secs,
        normalized: heavy_secs / calib,
    });

    // Streaming rows: warm-start incremental decisions vs per-event batch
    // re-solves on the same recorded command stream (the rsin-serve hot
    // path). Allocation-count equivalence on every prefix is asserted
    // before timing; the speedup gate reads `min_stream_speedup` from the
    // baseline. Both sides are single-threaded, so there is no core-count
    // skip — the ratio is meaningful on any machine.
    let stream_cmds = generate_commands(net.num_processors(), 384, 0.8, 41, 0);
    {
        let decisions = replay_incremental(&net, IncrementalBackend::MaxFlow, &stream_cmds)
            .expect("valid stream");
        let batch_counts = replay_batch(&net, &stream_cmds).expect("batch replays");
        let mut allocated = 0usize;
        for (d, &want) in decisions.iter().zip(&batch_counts) {
            match d {
                StreamDecision::Allocated { .. } => allocated += 1,
                StreamDecision::Released { promoted, .. } => {
                    allocated -= 1;
                    if promoted.is_some() {
                        allocated += 1;
                    }
                }
                StreamDecision::Queued { .. } | StreamDecision::Withdrawn { .. } => {}
            }
            assert_eq!(allocated, want, "incremental diverged from batch re-solve");
        }
    }
    let stream_inc_secs = time_min(|| {
        black_box(
            replay_incremental(&net, IncrementalBackend::MaxFlow, &stream_cmds)
                .expect("valid stream")
                .len(),
        );
    });
    println!("  stream_incremental: {stream_inc_secs:.4}s");
    rows.push(Row {
        name: "stream_incremental".to_string(),
        secs: stream_inc_secs,
        normalized: stream_inc_secs / calib,
    });
    let stream_batch_secs = time_min(|| {
        black_box(
            replay_batch(&net, &stream_cmds)
                .expect("batch replays")
                .len(),
        );
    });
    let stream_speedup = stream_batch_secs / stream_inc_secs;
    println!("  stream_batch: {stream_batch_secs:.4}s (incremental x{stream_speedup:.2} faster)");
    rows.push(Row {
        name: "stream_batch".to_string(),
        secs: stream_batch_secs,
        normalized: stream_batch_secs / calib,
    });

    // Tracing overhead gate (ISSUE 8): the same incremental replay with a
    // live flight recorder capturing every lifecycle span must stay within
    // the regression limit of the untraced row, measured in the same
    // process so machine speed cancels exactly. One replay is only tens of
    // microseconds, so each rep times a 32-replay loop — and the two sides
    // run back-to-back inside every rep with the gate taking the best
    // paired ratio, so a load spike hitting one phase but not the other
    // (the usual CI flake) inflates both or neither.
    const TRACE_GATE_LOOPS: usize = 64;
    let recorder = FlightRecorder::new(1 << 16);
    let mut trace_overhead = f64::INFINITY;
    let mut traced_loop_secs = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        for _ in 0..TRACE_GATE_LOOPS {
            black_box(
                replay_incremental(&net, IncrementalBackend::MaxFlow, &stream_cmds)
                    .expect("valid stream")
                    .len(),
            );
        }
        let untraced = start.elapsed().as_secs_f64();
        let start = Instant::now();
        for _ in 0..TRACE_GATE_LOOPS {
            black_box(replay_observed(&net, &stream_cmds, &recorder));
        }
        let traced = start.elapsed().as_secs_f64();
        trace_overhead = trace_overhead.min(traced / untraced);
        traced_loop_secs = traced_loop_secs.min(traced);
    }
    let stream_traced_secs = traced_loop_secs / TRACE_GATE_LOOPS as f64;
    println!(
        "  stream_incremental_traced: {stream_traced_secs:.4}s (x{trace_overhead:.3} of untraced)"
    );
    rows.push(Row {
        name: "stream_incremental_traced".to_string(),
        secs: stream_traced_secs,
        normalized: stream_traced_secs / calib,
    });
    if trace_overhead > REGRESSION_LIMIT {
        eprintln!(
            "bench_smoke: traced streaming replay is x{trace_overhead:.3} of the untraced one \
             (limit {REGRESSION_LIMIT}) — span recording is too hot for the request path"
        );
        std::process::exit(1);
    }

    // Sharded-hierarchy rows (ISSUE 7): the two-stage scheduler on a
    // 4-shard × omega-16 composition vs the flat Theorem-2 fresh solve on
    // the flattened fabric, over the same (seed, trial) snapshots. Three
    // contracts come first: thread/shard-pool invariance of every
    // statistic, per-shard rebuilds() == 1, and per-trial hier ≤ flat
    // conformance; then the hierarchical row runs with pooled trials while
    // the flat row stays single-solver — the gate below reads
    // `min_shard_speedup` from the baseline.
    let snet = ShardedNetwork::new(ShardedSpec::new(4, 16, GlobalTopology::Crossbar))
        .expect("4x16 crossbar composition is well-formed");
    let sflat = snet.flatten().expect("composition flattens");
    let scfg = ShardedTrialConfig {
        trials: 128,
        requests: 32,
        free: 32,
        seed: 41,
    };
    let sref = run_sharded_trials(&snet, InterShardPolicy::TokenRing, &scfg, 1, 1);
    assert!(
        sref.rebuilds_ok,
        "a shard rebuilt its transformation graph mid-run"
    );
    for (t, p) in [(4usize, 1usize), (1, 4), (8, 2)] {
        let r = run_sharded_trials(&snet, InterShardPolicy::TokenRing, &scfg, t, p);
        for (name, a, b) in [
            ("blocking.mean", sref.blocking.mean, r.blocking.mean),
            ("allocated.mean", sref.allocated.mean, r.allocated.mean),
            ("remote.mean", sref.remote.mean, r.remote.mean),
            (
                "stage1_blocked.mean",
                sref.stage1_blocked.mean,
                r.stage1_blocked.mean,
            ),
        ] {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "sharded {name} drifted at {t} threads / shard pool {p}"
            );
        }
    }
    for (trial, (hier, flat)) in run_paired_trials(
        &snet,
        &sflat,
        InterShardPolicy::TokenRing,
        &scfg,
        rep_threads,
    )
    .iter()
    .enumerate()
    {
        assert!(
            hier <= flat,
            "trial {trial}: hierarchical allocated {hier}, above the flat oracle's {flat}"
        );
    }
    let hier_secs = time_min(|| {
        black_box(
            run_sharded_trials(&snet, InterShardPolicy::TokenRing, &scfg, 4, 1)
                .allocated
                .mean,
        );
    });
    println!("  sharded_hier: {hier_secs:.4}s");
    rows.push(Row {
        name: "sharded_hier".to_string(),
        secs: hier_secs,
        normalized: hier_secs / calib,
    });
    let flat_secs = time_min(|| {
        black_box(run_flat_trials(&sflat, &scfg, 1).allocated.mean);
    });
    let shard_speedup = flat_secs / hier_secs;
    println!("  sharded_flat: {flat_secs:.4}s (hierarchical x{shard_speedup:.2} faster)");
    rows.push(Row {
        name: "sharded_flat".to_string(),
        secs: flat_secs,
        normalized: flat_secs / calib,
    });

    // Zero-overhead-when-off gate: the observed hot path under NoopProbe
    // must stay within the regression limit of the plain one. Each rep
    // times the plain and observed batches back to back and the gate takes
    // the min of the per-rep ratios, so slow phases of a shared machine hit
    // both sides of at least one rep equally and cancel out of the ratio.
    let (observed_secs, overhead) = {
        let mut scratch = ScheduleScratch::new();
        let mut best_ratio = f64::INFINITY;
        let mut best_secs = f64::INFINITY;
        for _ in 0..REPS {
            let start = Instant::now();
            black_box(reset_batch(&net, &max_flow, &mut scratch));
            let plain = start.elapsed().as_secs_f64();
            let start = Instant::now();
            black_box(reset_batch_observed(
                &net,
                &max_flow,
                &mut scratch,
                &NoopProbe,
            ));
            let observed = start.elapsed().as_secs_f64();
            best_ratio = best_ratio.min(observed / plain);
            best_secs = best_secs.min(observed);
        }
        (best_secs, best_ratio)
    };
    println!("  reset_per_trial_max_flow_observed: {observed_secs:.4}s (x{overhead:.3} of plain)");
    rows.push(Row {
        name: "reset_per_trial_max_flow_observed".to_string(),
        secs: observed_secs,
        normalized: observed_secs / calib,
    });
    if overhead > REGRESSION_LIMIT {
        eprintln!(
            "bench_smoke: NoopProbe observed path is x{overhead:.3} of the plain path \
             (limit {REGRESSION_LIMIT}) — telemetry is not zero-overhead-when-off"
        );
        std::process::exit(1);
    }

    if let Err(e) = emit_json(&out_path, calib, &rows) {
        eprintln!("error: could not write {out_path}: {e}");
        std::process::exit(2);
    }
    println!("report written to {out_path}");

    if let Some(path) = &telemetry_path {
        let telemetry = Telemetry::new();
        let mut scratch = ScheduleScratch::new();
        reset_batch_observed(&net, &max_flow, &mut scratch, &telemetry);
        reset_batch_observed(&net, &min_cost, &mut scratch, &telemetry);
        if let Err(e) = std::fs::write(path, telemetry.report().to_json("bench_smoke")) {
            eprintln!("error: could not write telemetry {path}: {e}");
            std::process::exit(2);
        }
        println!("telemetry written to {path}");
    }

    let Some(baseline_path) = baseline_path else {
        return;
    };
    let text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: could not read baseline {baseline_path}: {e}");
            std::process::exit(2);
        }
    };
    let baseline = parse_baseline(&text);
    if baseline.is_empty() {
        eprintln!("error: baseline {baseline_path} has no rows");
        std::process::exit(2);
    }
    let mut failed = false;
    for row in &rows {
        let Some((_, base)) = baseline.iter().find(|(n, _)| *n == row.name) else {
            println!("  {}: no baseline row, skipping", row.name);
            continue;
        };
        let ratio = row.normalized / base;
        let verdict = if ratio > REGRESSION_LIMIT {
            failed = true;
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "  {}: normalized {:.4} vs baseline {:.4} (x{:.2}) {}",
            row.name, row.normalized, base, ratio, verdict
        );
    }
    // Parallel-efficiency gate (ROADMAP item): with enough cores, the
    // 4-thread blocking row must actually outrun the 1-thread row. The
    // in-process secs ratio is machine-independent; the floor comes from
    // the baseline file so CI hardware changes tune one number, not code.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if let Some(min_speedup) = parse_floor(&text, "min_parallel_speedup") {
        if cores >= 4 {
            let t1 = rows.iter().find(|r| r.name == "blocking_threads_1");
            let t4 = rows.iter().find(|r| r.name == "blocking_threads_4");
            if let (Some(t1), Some(t4)) = (t1, t4) {
                let speedup = t1.secs / t4.secs;
                println!(
                    "  parallel efficiency: 4-thread speedup x{speedup:.2} (floor x{min_speedup})"
                );
                if speedup < min_speedup {
                    eprintln!(
                        "bench_smoke: 4-thread speedup x{speedup:.2} below floor x{min_speedup}"
                    );
                    failed = true;
                }
            }
        } else {
            println!("  parallel efficiency: skipped ({cores} core(s) available, gate needs >= 4)");
        }
    }
    // Scheduler-pool efficiency gate (ROADMAP item 2): per-scheduler pools
    // must turn the comparison table's sum-of-rows into roughly
    // max-of-rows. Same skip rule as above — the pooled table cannot beat
    // serial without free cores.
    if let Some(min_pool) = parse_floor(&text, "min_pool_speedup") {
        if cores >= 4 {
            let serial = rows.iter().find(|r| r.name == "scheduler_table_serial");
            let pooled = rows.iter().find(|r| r.name == "scheduler_table_pools");
            if let (Some(serial), Some(pooled)) = (serial, pooled) {
                let speedup = serial.secs / pooled.secs;
                println!(
                    "  scheduler-pool efficiency: table speedup x{speedup:.2} (floor x{min_pool})"
                );
                if speedup < min_pool {
                    eprintln!(
                        "bench_smoke: scheduler-pool table speedup x{speedup:.2} below floor \
                         x{min_pool}"
                    );
                    failed = true;
                }
            }
        } else {
            println!(
                "  scheduler-pool efficiency: skipped ({cores} core(s) available, gate needs >= 4)"
            );
        }
    }

    // Streaming warm-start gate (ISSUE 6 acceptance): incremental decisions
    // must beat per-event batch re-solves by the baseline floor. Both sides
    // are single-threaded, so unlike the two gates above there is no
    // core-count skip — the in-process ratio holds on any machine.
    if let Some(min_stream) = parse_floor(&text, "min_stream_speedup") {
        let inc = rows.iter().find(|r| r.name == "stream_incremental");
        let batch = rows.iter().find(|r| r.name == "stream_batch");
        if let (Some(inc), Some(batch)) = (inc, batch) {
            let speedup = batch.secs / inc.secs;
            println!(
                "  streaming warm-start: incremental speedup x{speedup:.2} (floor x{min_stream})"
            );
            if speedup < min_stream {
                eprintln!(
                    "bench_smoke: streaming incremental speedup x{speedup:.2} below floor \
                     x{min_stream}"
                );
                failed = true;
            }
        }
    }

    // CSR data-layout gate (ISSUE 9 acceptance): the flattened hot-lane
    // solver core must beat the committed **pre-CSR** observed rows
    // (`pre_csr_dinic` / `pre_csr_min_cost`, normalized measurements of
    // the nested `Vec<Vec<ArcId>>` + arc-struct layout on the identical
    // workload) by the baseline floor. Both sides are normalized by the
    // calibration loop, so machine speed cancels like the per-row
    // regression check above.
    if let Some(min_csr) = parse_floor(&text, "min_csr_speedup") {
        for (row_name, pre_name) in [
            ("csr_dinic", "pre_csr_dinic"),
            ("csr_min_cost", "pre_csr_min_cost"),
        ] {
            let cur = rows.iter().find(|r| r.name == row_name);
            let pre = baseline.iter().find(|(n, _)| n == pre_name);
            if let (Some(cur), Some((_, pre_norm))) = (cur, pre) {
                let speedup = pre_norm / cur.normalized;
                println!(
                    "  csr layout: {row_name} x{speedup:.2} vs pre-CSR reference (floor x{min_csr})"
                );
                if speedup < min_csr {
                    eprintln!(
                        "bench_smoke: {row_name} is only x{speedup:.2} faster than the pre-CSR \
                         layout, below floor x{min_csr}"
                    );
                    failed = true;
                }
            }
        }
    }

    // Sharded-hierarchy gate (ISSUE 7 acceptance): the hierarchical
    // scheduler with pooled trials must beat the flat single-solver fresh
    // solve by the baseline floor. The hierarchical row uses 4 worker
    // threads, so the gate keeps the same ≥ 4-core skip rule as the other
    // parallel gates.
    if let Some(min_shard) = parse_floor(&text, "min_shard_speedup") {
        if cores >= 4 {
            let hier = rows.iter().find(|r| r.name == "sharded_hier");
            let flat = rows.iter().find(|r| r.name == "sharded_flat");
            if let (Some(hier), Some(flat)) = (hier, flat) {
                let speedup = flat.secs / hier.secs;
                println!(
                    "  sharded hierarchy: hierarchical speedup x{speedup:.2} (floor x{min_shard})"
                );
                if speedup < min_shard {
                    eprintln!(
                        "bench_smoke: sharded hierarchical speedup x{speedup:.2} below floor \
                         x{min_shard}"
                    );
                    failed = true;
                }
            }
        } else {
            println!("  sharded hierarchy: skipped ({cores} core(s) available, gate needs >= 4)");
        }
    }

    if failed {
        eprintln!("bench_smoke: normalized regression over {REGRESSION_LIMIT}x detected");
        std::process::exit(1);
    }
    println!("bench_smoke: within {REGRESSION_LIMIT}x of baseline");
}
