//! FAULTS — graceful degradation under a live fail/repair process.
//!
//! Section IV prefers the distributed implementation "for reasons such as
//! fault tolerance and modularity". This experiment quantifies that claim
//! dynamically: each trial runs the full Section II system model while a
//! seed-derived [`rsin_topology::FaultPlan`] fails and repairs links
//! mid-run. The reusable
//! transformation absorbs every toggle as an incremental capacity patch
//! (never a rebuild — asserted below), blocked requests are retried over
//! alternate paths before being shed, and the report compares allocations
//! against the fault-free baseline of the *same* arrival stream.
//!
//! Usage: `faults [--policy none|bfs|priced]
//! [--fault-model independent|correlated|byzantine]
//! [--topology legacy|omega|extra-stage|3dp|diversity] [--telemetry <path>]
//! [--trace <path>] [--json <path>] [--replicas <n>] [--threads <n>]
//! [trials] [threads] [json-path]`
//!
//! `--policy` selects how blocked requests are handled during faulty
//! cycles (default `bfs`): shed immediately (`none`), BFS-retried to any
//! type-compatible alternate (`bfs`), or recovered by a residual
//! Transformation-2 min-cost solve that fills degraded capacity
//! preference-first (`priced`; see
//! `Scheduler::try_schedule_degraded_priced`). The report's
//! `recovery_cost` column prices the recoveries either retry made.
//!
//! `--fault-model` selects the fault process (DESIGN §15; default
//! `independent`, the historical per-link renewal streams). `correlated`
//! keeps the independent model's aggregate outage-event rate (`rate ×
//! num_links`, spread uniformly over the interior power domains) but each
//! event takes a whole domain down at once — same event frequency,
//! domain-sized blast radius — so the sweep isolates how well a topology
//! *masks* a regional outage; `byzantine` turns the rates into per-box
//! misrouting-onset rates — boxes lie instead of dying, and the
//! differential conformance detector's misrouted/flagged/detection-latency
//! columns report how fast the liars are caught.
//!
//! `--topology` selects the network column (default `legacy`, the
//! historical omega-8 + baseline-8 pair). `diversity` sweeps the
//! path-diversity ladder omega-8 → omega-8+1 (extra-stage) → 3dp-omega-8
//! (three disjoint planes) — the EXPERIMENTS.md PATH-DIVERSITY table.
//!
//! Trials follow the `(seed, trial)` RNG-stream convention shared with the
//! `blocking` and `dynamic` experiments, and per-trial results merge
//! sequentially in trial order ([`merge_faulted`]), so every number — and
//! every byte of the JSON report, which deliberately records no thread
//! count — is bit-identical for any `--threads` value; the CI determinism
//! job diffs the file across thread counts. `--replicas` is a synonym for
//! the trial count (each trial *is* an independent `(seed, replica)`
//! replication). The JSON report goes to `--json`/`json-path` (default
//! `faults_report.json`).
//!
//! With `--telemetry <path>`, one bounded probed capture (omega-8,
//! max-flow, rate 0.005) re-runs after the sweep under a live
//! `rsin_obs::Telemetry` sink and its JSON report — per-solver phase
//! counters, cycle-latency histograms, and the fault/repair event trace —
//! is written to the given path. With `--trace <path>`, the same capture
//! configuration re-runs one trial under a flight recorder and the
//! per-request lifecycle (submit/allocate/release spans plus shed and
//! recovered markers) is exported as Chrome trace-event JSON for Perfetto.
//! Probes (the recorder is one) only observe, so the sweep's numbers are
//! unaffected.

use rsin_bench::{emit_table, network_by_name};
use rsin_core::scheduler::{
    AddressMappedScheduler, GreedyScheduler, MaxFlowScheduler, RequestOrder, Scheduler,
};
use rsin_obs::{FlightRecorder, Telemetry};
use rsin_sim::replicate::merge_faulted;
use rsin_sim::system::{
    fault_plan_seed, run_faulted_trials_model, run_faulted_trials_policy_probed, DegradedPolicy,
    DynamicConfig, FaultModel, FaultedStats, SystemSim,
};
use rsin_topology::{FaultPlan, FaultPlanConfig};

const SEED: u64 = 42;
const SIM_TIME: f64 = 400.0;
const WARMUP: f64 = 40.0;
const MEAN_REPAIR: f64 = 25.0;
const RATES: [f64; 5] = [0.0, 0.001, 0.002, 0.005, 0.01];
/// The correlated sweep keeps the same aggregate outage-event rate as the
/// independent model, but each event downs a whole domain — roughly an
/// order of magnitude more damage per event — so its meaningful operating
/// envelope (degraded-but-alive rather than saturated) sits an order of
/// magnitude lower in rate.
const CORRELATED_RATES: [f64; 5] = [0.0, 0.0001, 0.00025, 0.0004, 0.0005];
/// Adjacent switching boxes per correlated power domain (half an omega
/// stage; always within one 3dp plane).
const DOMAIN_BOXES: usize = 2;

struct Row {
    network: String,
    scheduler: &'static str,
    rate: f64,
    survival: f64,
    completed: u64,
    baseline_completed: u64,
    blocking: f64,
    shed: u64,
    recovered: u64,
    failures: u64,
    repairs: u64,
    mean_recovery: f64,
    recoveries_observed: u64,
    transform_rebuilds: u64,
    recovery_cost: i64,
    misrouted: u64,
    byz_flagged: u64,
    byz_false_positives: u64,
    mean_detection_cycles: f64,
}

fn aggregate(
    network: &str,
    scheduler: &'static str,
    rate: f64,
    trials: &[FaultedStats],
    baseline: &[FaultedStats],
) -> Row {
    // The shared replica merge: sums, plus the recovery mean weighted by
    // each trial's observed recoveries, all in trial order.
    let m = merge_faulted(trials);
    let b = merge_faulted(baseline);
    Row {
        network: network.to_string(),
        scheduler,
        rate,
        survival: if b.stats.completed > 0 {
            m.stats.completed as f64 / b.stats.completed as f64
        } else {
            1.0
        },
        completed: m.stats.completed,
        baseline_completed: b.stats.completed,
        blocking: m.stats.mean_blocking.mean,
        shed: m.shed_total,
        recovered: m.recovered_total,
        failures: m.failures,
        repairs: m.repairs,
        mean_recovery: m.mean_recovery,
        recoveries_observed: m.recoveries_observed,
        transform_rebuilds: m.transform_rebuilds,
        recovery_cost: m.recovery_cost,
        misrouted: m.misrouted,
        byz_flagged: m.byz_flagged,
        byz_false_positives: m.byz_false_positives,
        mean_detection_cycles: m.mean_detection_cycles,
    }
}

/// The fault-plan configuration for one sweep rate under the chosen model:
/// fail-stop models read `rate` as the per-link hazard, the Byzantine model
/// as the per-box misrouting-onset hazard.
fn fault_cfg_for(model: FaultModel, rate: f64) -> FaultPlanConfig {
    match model {
        FaultModel::Independent | FaultModel::Correlated { .. } => {
            FaultPlanConfig::links(rate, MEAN_REPAIR, SIM_TIME)
        }
        FaultModel::Byzantine => FaultPlanConfig {
            link_failure_rate: 0.0,
            box_failure_rate: rate,
            mean_repair: MEAN_REPAIR,
            horizon: SIM_TIME,
        },
    }
}

// Deliberately no thread count in the report: it must be byte-identical
// however many workers produced it (the CI determinism job diffs it).
fn json_report(rows: &[Row], trials: usize, policy: DegradedPolicy, model: FaultModel) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"experiment\": \"faults\",\n");
    s.push_str(&format!("  \"policy\": \"{}\",\n", policy.name()));
    s.push_str(&format!("  \"fault_model\": \"{}\",\n", model.name()));
    s.push_str(&format!("  \"seed\": {SEED},\n"));
    s.push_str(&format!("  \"trials\": {trials},\n"));
    s.push_str(&format!("  \"sim_time\": {SIM_TIME},\n"));
    s.push_str(&format!("  \"warmup\": {WARMUP},\n"));
    s.push_str(&format!("  \"mean_repair\": {MEAN_REPAIR},\n"));
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"network\": \"{}\", \"scheduler\": \"{}\", \"failure_rate\": {}, \
             \"survival\": {:.6}, \"completed\": {}, \"baseline_completed\": {}, \
             \"blocking\": {:.6}, \
             \"shed\": {}, \"recovered\": {}, \"recovery_cost\": {}, \"failures\": {}, \
             \"repairs\": {}, \"mean_recovery\": {:.6}, \"recoveries_observed\": {}, \
             \"transform_rebuilds\": {}, \"misrouted\": {}, \"byz_flagged\": {}, \
             \"byz_false_positives\": {}, \"mean_detection_cycles\": {:.6}}}{}\n",
            r.network,
            r.scheduler,
            r.rate,
            r.survival,
            r.completed,
            r.baseline_completed,
            r.blocking,
            r.shed,
            r.recovered,
            r.recovery_cost,
            r.failures,
            r.repairs,
            r.mean_recovery,
            r.recoveries_observed,
            r.transform_rebuilds,
            r.misrouted,
            r.byz_flagged,
            r.byz_false_positives,
            r.mean_detection_cycles,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    s
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
    let policy = match take_flag(&mut args, "--policy").as_deref() {
        None | Some("bfs") => DegradedPolicy::Bfs,
        Some("none") => DegradedPolicy::None,
        Some("priced") => DegradedPolicy::Priced,
        Some(other) => {
            eprintln!("error: unknown --policy {other} (expected none|bfs|priced)");
            std::process::exit(2);
        }
    };
    let model = match take_flag(&mut args, "--fault-model").as_deref() {
        None | Some("independent") => FaultModel::Independent,
        Some("correlated") => FaultModel::Correlated {
            domain_boxes: DOMAIN_BOXES,
        },
        Some("byzantine") => FaultModel::Byzantine,
        Some(other) => {
            eprintln!(
                "error: unknown --fault-model {other} (expected independent|correlated|byzantine)"
            );
            std::process::exit(2);
        }
    };
    let networks: Vec<&'static str> = match take_flag(&mut args, "--topology").as_deref() {
        None | Some("legacy") => vec!["omega-8", "baseline-8"],
        Some("omega") => vec!["omega-8"],
        Some("extra-stage") => vec!["omega-8+1"],
        Some("3dp") => vec!["3dp-omega-8"],
        // The path-diversity ladder, least to most redundant.
        Some("diversity") => vec!["omega-8", "omega-8+1", "3dp-omega-8"],
        Some(other) => {
            eprintln!(
                "error: unknown --topology {other} (expected legacy|omega|extra-stage|3dp|diversity)"
            );
            std::process::exit(2);
        }
    };
    let telemetry_path = take_flag(&mut args, "--telemetry");
    let trace_path = take_flag(&mut args, "--trace");
    let replicas_flag: Option<usize> =
        take_flag(&mut args, "--replicas").and_then(|v| v.parse().ok());
    let threads_flag: Option<usize> =
        take_flag(&mut args, "--threads").and_then(|v| v.parse().ok());
    let json_flag = take_flag(&mut args, "--json");
    let trials: usize = replicas_flag
        .or_else(|| args.first().and_then(|a| a.parse().ok()))
        .unwrap_or(6);
    let threads = threads_flag
        .or_else(|| args.get(1).and_then(|a| a.parse().ok()))
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let json_path = json_flag
        .or_else(|| args.get(2).cloned())
        .unwrap_or_else(|| "faults_report.json".into());
    let optimal = MaxFlowScheduler::default();
    let greedy = GreedyScheduler::new(RequestOrder::Shuffled(17));
    // Address-mapped binds a resource *before* routing, so dead links under
    // its blind bindings are exactly what the degraded retry rescues.
    let addr = AddressMappedScheduler::new(SEED);
    let schedulers: [(&'static str, &dyn Scheduler); 3] = [
        ("max-flow", &optimal),
        ("greedy", &greedy),
        ("addr-map", &addr),
    ];
    let cfg = DynamicConfig {
        arrival_rate: 0.5,
        mean_transmission: 0.2,
        mean_service: 1.0,
        sim_time: SIM_TIME,
        warmup: WARMUP,
        seed: SEED,
        types: 1,
        // Four levels give the degraded retries a non-trivial cost surface
        // (priority/preference are deterministic in the index, so the
        // max-flow and heuristic disciplines' decisions are unchanged —
        // only the cost accounting and the priced recovery's choice of
        // alternate depend on it).
        priority_levels: 4,
        ..DynamicConfig::default()
    };
    println!(
        "FAULTS — dynamic fail/repair sweep ({} trials, horizon {SIM_TIME}, mean repair \
         {MEAN_REPAIR}, policy {}, fault model {}, {threads} worker thread(s))\n",
        trials,
        policy.name(),
        model.name()
    );
    let mut rows = Vec::new();
    for name in &networks {
        let net = network_by_name(name).unwrap();
        for (sname, scheduler) in schedulers {
            // Rate 0 is the fault-free baseline of the same arrival streams
            // (an empty plan under every model).
            let baseline = run_faulted_trials_model(
                &net,
                scheduler,
                &cfg,
                &fault_cfg_for(model, 0.0),
                trials,
                threads,
                policy,
                model,
            );
            let rates: &[f64] = if matches!(model, FaultModel::Correlated { .. }) {
                &CORRELATED_RATES
            } else {
                &RATES
            };
            for &rate in rates {
                let fcfg = fault_cfg_for(model, rate);
                let stats = run_faulted_trials_model(
                    &net, scheduler, &cfg, &fcfg, trials, threads, policy, model,
                );
                // PR invariant: faults are capacity patches, never rebuilds
                // — correlated domain events expand to member toggles on
                // the same patch path, and Byzantine onsets touch no link
                // state at all. The flow-based scheduler builds its
                // Transformation-1 graph exactly once per trial and never
                // touches the min-cost shape (its priced override skips the
                // residual — Theorem 2 makes recovery impossible). A
                // heuristic builds nothing under none/bfs; under the priced
                // policy it lazily builds the residual Transformation-2
                // graph at most once, on the first faulty cycle with
                // blockage.
                let ok = |t: &FaultedStats| match (sname, policy) {
                    ("max-flow", _) => t.transform_rebuilds == 1,
                    (_, DegradedPolicy::Priced) => t.transform_rebuilds <= 1,
                    _ => t.transform_rebuilds == 0,
                };
                assert!(
                    stats.iter().all(ok),
                    "{name}/{sname}: fault toggles must not rebuild the transform"
                );
                rows.push(aggregate(name, sname, rate, &stats, &baseline));
            }
        }
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.network.clone(),
                r.scheduler.to_string(),
                format!("{:.4}", r.rate),
                format!("{:.3}", r.survival),
                format!("{:.4}", r.blocking),
                r.shed.to_string(),
                r.recovered.to_string(),
                r.recovery_cost.to_string(),
                r.failures.to_string(),
                format!("{:.2}", r.mean_recovery),
                r.transform_rebuilds.to_string(),
                r.misrouted.to_string(),
                r.byz_flagged.to_string(),
                format!("{:.1}", r.mean_detection_cycles),
            ]
        })
        .collect();
    emit_table(
        "faults",
        &[
            "network",
            "scheduler",
            "fail rate",
            "survival",
            "blocking",
            "shed",
            "recovered",
            "recovery cost",
            "failures",
            "mean recovery",
            "rebuilds",
            "misrouted",
            "flagged",
            "detect cyc",
        ],
        &table,
    );
    let report = json_report(&rows, trials, policy, model);
    if let Err(e) = std::fs::write(&json_path, &report) {
        eprintln!("warning: could not write {json_path}: {e}");
    } else {
        println!("\nJSON report written to {json_path}");
    }
    if let Some(tpath) = telemetry_path {
        // One bounded probed capture at a rate that reliably produces both
        // failures and repairs within the horizon; the sweep above already
        // ran unprobed, so this re-run only feeds the telemetry sink.
        let telemetry = Telemetry::new();
        let net = network_by_name("omega-8").unwrap();
        let fcfg = FaultPlanConfig::links(0.005, MEAN_REPAIR, SIM_TIME);
        let _ = run_faulted_trials_policy_probed(
            &net, &optimal, &cfg, &fcfg, trials, threads, policy, &telemetry,
        );
        let json = telemetry.report().to_json("faults");
        if let Err(e) = std::fs::write(&tpath, &json) {
            eprintln!("warning: could not write {tpath}: {e}");
        } else {
            println!("telemetry written to {tpath} (omega-8 / max-flow / rate 0.005)");
        }
    }
    if let Some(tpath) = trace_path {
        // One traced trial of the telemetry capture's configuration: the
        // request lifecycle of a faulted run, Perfetto-loadable.
        let recorder = FlightRecorder::new(1 << 20);
        let net = network_by_name("omega-8").unwrap();
        let fcfg = FaultPlanConfig::links(0.005, MEAN_REPAIR, SIM_TIME);
        let plan = FaultPlan::generate(&net, &fcfg, fault_plan_seed(cfg.seed, 0));
        let sim = SystemSim::new(&net, cfg);
        sim.try_run_faulted_trial_policy_probed(&optimal, &plan, 0, policy, &recorder)
            .expect("traced capture trial");
        let snap = recorder.snapshot();
        let json = snap.to_chrome_json("faults/omega-8/max-flow");
        if let Err(e) = std::fs::write(&tpath, &json) {
            eprintln!("warning: could not write {tpath}: {e}");
        } else {
            println!(
                "lifecycle trace written to {tpath} ({} spans, {} dropped)",
                snap.events.len(),
                snap.dropped
            );
        }
    }
    println!(
        "\nshape: survival stays near 1.0 at low failure rates and degrades\n\
         gracefully as rates rise; the retry pass rescues part of the greedy\n\
         scheduler's blockages, and every fault toggle is an incremental\n\
         capacity patch (max-flow rebuilds == trials per row: one initial\n\
         build per trial, none on faults)."
    );
}
