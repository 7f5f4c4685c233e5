//! The campaign workloads: sharded certification campaigns measured end to
//! end through `run_sharded_campaign`, and the same scenarios replayed
//! stage by stage for the traced ledger.

use crate::report::{median, op_counts, peak_rss_mb, quantile, ratio, secs, timed, Run};
use campaign::{
    compare_scenario, execute_scenario_with, plan_shards, result_fingerprint, run_sharded_campaign,
    CampaignConfig, CampaignSummary, EnvelopeGain, FaultDraw, FaultMode, FaultOutcome,
    FaultSummary, FaultValidation, PbooCheck, Scenario, ScenarioOutcome, ScenarioResult,
    ScenarioSpace, ShardedCampaignConfig, ShardedReport, StreamAggregate, ViolationReport,
};
use netcalc::EnvelopeModel;
use netsim::Simulator;
use rtswitch_core::{
    analyze_degraded_with, analyze_multi_hop_with, validation_from_bound_lookup, AnalysisError,
};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread;
use std::time::Instant;

/// Worker threads of every end-to-end campaign.
const THREADS: usize = 2;
/// Seed-range shards per campaign.
const SHARDS: usize = 4;
/// Scenarios of the warm-up campaign run during set-up.
const WARMUP_SCENARIOS: usize = 8 * THREADS;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;
/// A timed phase never starts another pass after this many seconds.
const MAX_TIMED_SECONDS: f64 = 120.0;

/// One campaign workload.
pub struct Workload {
    pub name: &'static str,
    pub envelope_override: Option<EnvelopeModel>,
    pub faults: FaultMode,
    pub with_1553: bool,
    /// Scenarios per campaign.
    pub scenarios: usize,
    /// Campaigns per pass; each draws its own master seed.
    pub campaigns: usize,
    /// The campaign CLI flags that select this workload's dimensions.
    pub cli_flags: &'static str,
}

/// Every dimension sweeping: the certification job, dominated by
/// staircase multi-hop analysis.
pub const MIXED: Workload = Workload {
    name: "campaign_mixed",
    envelope_override: None,
    faults: FaultMode::Off,
    with_1553: false,
    scenarios: 400,
    campaigns: 5,
    cli_flags: "",
};

/// Closed-form envelopes with the fault and 1553 stages: no min-plus
/// operator runs, so curve-engine changes must leave it alone.
pub const CLOSED_FORM_FAULTS: Workload = Workload {
    name: "campaign_closed_form_faults",
    envelope_override: Some(EnvelopeModel::TokenBucket),
    faults: FaultMode::Sweep,
    with_1553: true,
    scenarios: 500,
    campaigns: 32,
    cli_flags: "--envelope token-bucket --faults sweep --with-1553",
};

/// The master seed of campaign `k` of a run seeded with `seed`.
fn master_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(k as u64)
}

impl Workload {
    fn config(&self, master_seed: u64, scenarios: usize, threads: usize) -> ShardedCampaignConfig {
        ShardedCampaignConfig {
            base: CampaignConfig {
                scenarios,
                master_seed,
                threads,
                with_1553: self.with_1553,
                envelope_override: self.envelope_override,
                policy_override: None,
                faults: self.faults,
            },
            shards: SHARDS,
            state_dir: None,
            resume: false,
        }
    }

    fn space(&self, master_seed: u64) -> ScenarioSpace {
        ScenarioSpace::new(master_seed).with_faults(self.faults == FaultMode::Sweep)
    }

    /// A one-line command that reruns scenario `id` of campaign `master`.
    fn reproducer(&self, master: u64, id: usize) -> String {
        format!(
            "campaign --seed {master} --scenarios {} --threads 1 --shards 1 {}(scenario id {id})",
            id + 1,
            if self.cli_flags.is_empty() {
                String::new()
            } else {
                format!("{} ", self.cli_flags)
            }
        )
    }
}

/// Runs one sharded campaign, turning a panic into an error.
fn run_campaign(config: &ShardedCampaignConfig) -> Result<ShardedReport, String> {
    match catch_unwind(AssertUnwindSafe(|| run_sharded_campaign(config))) {
        Ok(Ok(report)) => Ok(report),
        Ok(Err(error)) => Err(error.to_string()),
        Err(_) => Err("the campaign panicked".to_string()),
    }
}

/// Scenarios of a finished campaign that failed a soundness check in any
/// stage (capped at the campaign size).
fn unsound_scenarios(report: &ShardedReport) -> usize {
    let outcome = &report.outcome;
    let summary = &outcome.summary;
    let mut unsound = summary.validated - summary.sound_scenarios;
    if let Some(faults) = &outcome.fault_summary {
        unsound += faults.validated - faults.sound_scenarios;
    }
    if let Some(comparison) = &summary.comparison {
        unsound += comparison.feasible - comparison.sound_scenarios;
    }
    unsound.min(outcome.scenarios)
}

/// The soundness checks every campaign must pass.
fn check_campaign(run: &mut Run, label: &str, report: &ShardedReport, expected: usize) {
    let outcome = &report.outcome;
    run.check(outcome.scenarios == expected, || {
        format!(
            "{label}: {} scenarios, expected {expected}",
            outcome.scenarios
        )
    });
    run.check(outcome.summary.all_sound(), || {
        format!("{label}: bound violations {:?}", outcome.summary.violations)
    });
    if let Some(faults) = &outcome.fault_summary {
        run.check(faults.all_sound(), || {
            format!("{label}: degraded-bound violations {:?}", faults.violations)
        });
    }
    if let Some(comparison) = &outcome.summary.comparison {
        run.check(comparison.all_sound(), || {
            format!("{label}: 1553 bound violations {:?}", comparison.violations)
        });
    }
}

/// Fingerprints and min-plus counts of every campaign run so far, so that
/// each repeat of a campaign is checked against its first run.
#[derive(Default)]
struct Repeats {
    first: BTreeMap<(u64, usize), (u64, BTreeMap<String, u64>)>,
    /// Per counter: whether it has repeated exactly on every repeat.
    exact: BTreeMap<String, bool>,
}

impl Repeats {
    /// Runs one campaign, checks it, and returns its wall time (`None`
    /// when it failed to complete).
    fn campaign(
        &mut self,
        run: &mut Run,
        workload: &Workload,
        master: u64,
        scenarios: usize,
    ) -> Option<f64> {
        let label = format!("campaign seed {master} ({scenarios} scenarios)");
        let config = workload.config(master, scenarios, THREADS);
        let (report, wall) = timed(|| run_campaign(&config));
        run.attempted += scenarios as u64;
        let report = match report {
            Ok(report) => report,
            Err(error) => {
                run.failed += scenarios as u64;
                run.problem(format!("{label}: {error}"));
                return None;
            }
        };
        check_campaign(run, &label, &report, scenarios);
        run.failed += unsound_scenarios(&report) as u64;
        let ops = op_counts(&report.runtime.ops);
        let fingerprint = report.outcome.fingerprint;
        match self.first.get(&(master, scenarios)) {
            None => {
                self.first.insert((master, scenarios), (fingerprint, ops));
            }
            Some((first, first_ops)) => {
                run.check(*first == fingerprint, || {
                    format!("{label}: fingerprint {fingerprint:#018x} differs from its first run {first:#018x}")
                });
                for (name, count) in &ops {
                    let same = first_ops.get(name) == Some(count);
                    *self.exact.entry(name.clone()).or_insert(true) &= same;
                }
            }
        }
        Some(wall)
    }
}

/// The end-to-end run.  Set-up runs a small warm-up campaign
/// `SETUP_REPEATS` times (each repeat must reproduce the first one's
/// fingerprint); the timed phase then makes whole passes over the
/// workload's campaigns while another pass still fits in `seconds`.
pub fn run_end_to_end(workload: &Workload, seed: u64, seconds: f64) -> Run {
    let mut run = Run::default();
    let mut repeats = Repeats::default();

    let setup: Vec<f64> = (0..SETUP_REPEATS)
        .filter_map(|_| {
            repeats.campaign(&mut run, workload, master_seed(seed, 0), WARMUP_SCENARIOS)
        })
        .collect();

    let mut walls: Vec<f64> = Vec::new();
    let started = Instant::now();
    let mut passes = 0usize;
    loop {
        let pass_start = Instant::now();
        for k in 0..workload.campaigns {
            let master = master_seed(seed, k);
            walls.extend(repeats.campaign(&mut run, workload, master, workload.scenarios));
        }
        passes += 1;
        let elapsed = secs(started);
        if elapsed + secs(pass_start) > seconds || elapsed > MAX_TIMED_SECONDS {
            break;
        }
    }

    let timed_total: f64 = walls.iter().sum();
    let completed = walls.len() * workload.scenarios;
    run.set("throughput_per_s", ratio(completed as f64, timed_total));
    run.set("latency_p50_ms", 1e3 * median(&walls));
    run.set("setup_s", median(&setup));

    println!(
        "{}: {passes} timed passes x {} campaigns x {} scenarios on {THREADS} threads, \
         {SHARDS} shards; campaign latency over {} samples",
        workload.name,
        workload.campaigns,
        workload.scenarios,
        walls.len()
    );
    // Reported but not gated: both swing with which heavy scenarios a
    // seed draws and with thread interleaving (see benchmark/README.md).
    // Too few campaigns for a tail percentile with ten samples beyond it.
    println!(
        "  campaign latency max {:.3} ms; peak RSS {:.1} MB",
        1e3 * walls.iter().copied().fold(0.0, f64::max),
        peak_rss_mb()
    );
    let (exact, varying): (Vec<_>, Vec<_>) = repeats.exact.iter().partition(|(_, same)| **same);
    println!(
        "  min-plus counts repeating exactly on repeated campaigns: [{}]; varying: [{}]",
        exact
            .iter()
            .map(|(n, _)| n.as_str())
            .collect::<Vec<_>>()
            .join(", "),
        varying
            .iter()
            .map(|(n, _)| n.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );
    run
}

/// Per-stage wall time of the traced pipeline, in seconds.
#[derive(Default)]
struct Ledger {
    draw: f64,
    build: f64,
    token_bucket: f64,
    staircase: f64,
    degraded: f64,
    sim: f64,
    faulty_sim: f64,
    validation: f64,
    comparison: f64,
    fold: f64,
    frames: u64,
    /// Staircase analysis time of each scenario that ran it.
    staircase_per_scenario: Vec<f64>,
    /// `(seconds, master seed, scenario id)` of every traced scenario.
    scenarios: Vec<(f64, u64, usize)>,
}

impl Ledger {
    fn stages(&self) -> [(&'static str, f64); 10] {
        [
            ("campaign.space.draw_s", self.draw),
            ("campaign.build_s", self.build),
            ("core.multi_hop.token_bucket_s", self.token_bucket),
            ("core.multi_hop.staircase_s", self.staircase),
            ("core.degraded_s", self.degraded),
            ("netsim.sim_s", self.sim),
            ("netsim.faulty_sim_s", self.faulty_sim),
            ("core.validation_s", self.validation),
            ("campaign.comparison_1553_s", self.comparison),
            ("campaign.shard.fold_s", self.fold),
        ]
    }

    fn merge(&mut self, other: Ledger) {
        self.draw += other.draw;
        self.build += other.build;
        self.token_bucket += other.token_bucket;
        self.staircase += other.staircase;
        self.degraded += other.degraded;
        self.sim += other.sim;
        self.faulty_sim += other.faulty_sim;
        self.validation += other.validation;
        self.comparison += other.comparison;
        self.fold += other.fold;
        self.frames += other.frames;
        self.staircase_per_scenario
            .extend(other.staircase_per_scenario);
        self.scenarios.extend(other.scenarios);
    }
}

/// `execute_scenario_with`, rebuilt from the same public calls in the same
/// order, with every call timed into `ledger`.
fn traced_scenario(
    scenario: Scenario,
    with_1553: bool,
    envelope_override: Option<EnvelopeModel>,
    ledger: &mut Ledger,
) -> ScenarioResult {
    let ((workload, fabric, config), dt) = timed(|| {
        let workload = scenario.build_workload();
        let fabric = scenario.build_fabric(&workload);
        let config = scenario.network_config();
        (workload, fabric, config)
    });
    ledger.build += dt;
    let model = envelope_override.unwrap_or(scenario.envelope);
    let fault = scenario
        .faults
        .map(|draw| traced_fault_stage(&scenario, draw, model, ledger));
    let (token_bucket, dt) = timed(|| {
        analyze_multi_hop_with(
            &workload,
            &config,
            scenario.approach,
            &fabric,
            EnvelopeModel::TokenBucket,
        )
    });
    ledger.token_bucket += dt;
    match token_bucket {
        Err(AnalysisError::Stage { stage, .. }) => {
            let (comparison, dt) = timed(|| {
                with_1553
                    .then(|| compare_scenario(&workload, |_| None, scenario.horizon, scenario.seed))
            });
            ledger.comparison += dt;
            ScenarioResult {
                scenario,
                outcome: ScenarioOutcome::AnalysisInfeasible { stage },
                comparison,
                fault,
            }
        }
        Ok(tb_analysis) => {
            let staircase_analysis =
                (envelope_override != Some(EnvelopeModel::TokenBucket)).then(|| {
                    let (report, dt) = timed(|| {
                        analyze_multi_hop_with(
                            &workload,
                            &config,
                            scenario.approach,
                            &fabric,
                            EnvelopeModel::Staircase,
                        )
                        .expect("staircase stage bounds are minima that include the closed form")
                    });
                    ledger.staircase += dt;
                    ledger.staircase_per_scenario.push(dt);
                    report
                });
            let envelope_gain = staircase_analysis
                .as_ref()
                .map(|st| EnvelopeGain::from_reports(&tb_analysis, st));
            let analysis = match (model, staircase_analysis) {
                (EnvelopeModel::Staircase, Some(st)) => st,
                _ => tb_analysis,
            };
            let deadline_misses = analysis.violations().len();
            let pboo = PbooCheck {
                cascaded: fabric.switch_count() > 1,
                consistent: analysis.pboo_consistent(),
                max_gain: analysis.max_pboo_gain(),
            };
            let (comparison, dt) = timed(|| {
                with_1553.then(|| {
                    compare_scenario(
                        &workload,
                        |id| analysis.bound_for(id).map(|b| b.total_bound),
                        scenario.horizon,
                        scenario.seed,
                    )
                })
            });
            ledger.comparison += dt;
            let (simulation, dt) = timed(|| {
                Simulator::with_fabric(workload.clone(), scenario.sim_config(), fabric).run()
            });
            ledger.sim += dt;
            ledger.frames += simulation.total_generated;
            let (result, dt) = timed(|| {
                let validation = validation_from_bound_lookup(
                    &workload,
                    |id| analysis.bound_for(id).map(|b| b.total_bound),
                    simulation,
                );
                ScenarioResult::from_validation(
                    scenario,
                    analysis.envelope,
                    envelope_gain,
                    deadline_misses,
                    pboo,
                    &validation,
                )
            });
            ledger.validation += dt;
            result.with_comparison(comparison).with_fault(fault)
        }
    }
}

/// The campaign's degraded stage, rebuilt and timed like
/// [`traced_scenario`].
fn traced_fault_stage(
    scenario: &Scenario,
    draw: FaultDraw,
    model: EnvelopeModel,
    ledger: &mut Ledger,
) -> FaultOutcome {
    let ((workload, fabric, config, faults), dt) = timed(|| {
        let workload = scenario.build_workload();
        let fabric = scenario.build_fabric(&workload);
        let config = scenario.network_config();
        let faults = draw.expand(workload.stations.len(), &fabric, scenario.horizon);
        (workload, fabric, config, faults)
    });
    ledger.build += dt;
    let (degraded, dt) = timed(|| {
        analyze_degraded_with(
            &workload,
            &config,
            scenario.approach,
            &fabric,
            model,
            &faults,
        )
    });
    ledger.degraded += dt;
    match degraded {
        Err(AnalysisError::Stage { stage, .. }) => FaultOutcome::AnalysisInfeasible { stage },
        Ok(degraded) => {
            let (simulation, dt) = timed(|| {
                Simulator::with_fabric(workload.clone(), scenario.sim_config(), fabric)
                    .with_faults(faults.clone())
                    .run()
            });
            ledger.faulty_sim += dt;
            ledger.frames += simulation.total_generated;
            let (outcome, dt) = timed(|| {
                let validation = validation_from_bound_lookup(
                    &workload,
                    |id| degraded.bound_for(id),
                    simulation,
                );
                let violations: Vec<ViolationReport> = validation
                    .violations()
                    .into_iter()
                    .map(|entry| ViolationReport {
                        message: entry.name.clone(),
                        bound: entry.bound,
                        observed: entry.observed_worst,
                    })
                    .collect();
                let report = validation.simulation.faults.clone().unwrap_or_default();
                FaultOutcome::Validated(FaultValidation {
                    fault_count: faults.fault_count(),
                    failover: faults.failover.is_some(),
                    messages: validation.entries.len(),
                    sound: violations.is_empty(),
                    violations,
                    bounds_hold: degraded.bounds_hold,
                    max_inflation: degraded.max_inflation(),
                    babble_emitted: report.babble_emitted,
                    corrupted: report.corrupted,
                    lost_on_failover: report.lost_on_failover,
                    isolated_stations: report.isolated_stations.len(),
                })
            });
            ledger.validation += dt;
            outcome
        }
    }
}

/// One traced campaign: every shard on a fresh single worker thread with
/// the curve cache enabled, as the sharded executor's workers run, folded
/// into the campaign aggregate.  Returns the per-scenario fingerprints and
/// the aggregate's summary JSON.
fn traced_campaign(workload: &Workload, master: u64, ledger: &mut Ledger) -> (Vec<u64>, String) {
    let (scenarios, dt) = timed(|| workload.space(master).scenarios(workload.scenarios));
    ledger.draw += dt;
    let mut fingerprints = Vec::with_capacity(scenarios.len());
    let mut merged = StreamAggregate::new();
    for (start, end) in plan_shards(scenarios.len(), SHARDS) {
        let shard = &scenarios[start..end];
        let (shard_ledger, shard_fingerprints, aggregate) = thread::scope(|scope| {
            scope
                .spawn(|| {
                    // The sharded executor's workers enable the per-thread
                    // curve cache for the shard's lifetime; so does this one.
                    netcalc::cache::enable_thread_cache();
                    let mut ledger = Ledger::default();
                    let mut aggregate = StreamAggregate::new();
                    let mut fingerprints = Vec::with_capacity(shard.len());
                    for &scenario in shard {
                        let started = Instant::now();
                        let result = traced_scenario(
                            scenario,
                            workload.with_1553,
                            workload.envelope_override,
                            &mut ledger,
                        );
                        let (fingerprint, dt) = timed(|| {
                            let fingerprint = result_fingerprint(&result);
                            aggregate.fold(&result);
                            fingerprint
                        });
                        ledger.fold += dt;
                        fingerprints.push(fingerprint);
                        ledger.scenarios.push((secs(started), master, scenario.id));
                    }
                    (ledger, fingerprints, aggregate)
                })
                .join()
                .expect("traced shard worker")
        });
        ledger.merge(shard_ledger);
        fingerprints.extend(shard_fingerprints);
        merged.merge(&aggregate);
    }
    let (summary, fault_summary) = merged.finish();
    (fingerprints, summaries_json(&summary, &fault_summary))
}

/// The campaign and fault summaries as one JSON string, for comparison.
fn summaries_json(summary: &CampaignSummary, fault_summary: &Option<FaultSummary>) -> String {
    serde_json::to_string(summary).expect("summary serializes")
        + &serde_json::to_string(fault_summary).expect("fault summary serializes")
}

/// The program's own per-scenario fingerprints of one campaign, from
/// `execute_scenario_with` on `THREADS` separate threads (untimed, and
/// their curve cache state never touches the traced thread's).
fn program_fingerprints(workload: &Workload, master: u64) -> Vec<u64> {
    let scenarios = workload.space(master).scenarios(workload.scenarios);
    let chunk = scenarios.len().div_ceil(THREADS).max(1);
    thread::scope(|scope| {
        let workers: Vec<_> = scenarios
            .chunks(chunk)
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&scenario| {
                            result_fingerprint(&execute_scenario_with(
                                scenario,
                                workload.with_1553,
                                workload.envelope_override,
                            ))
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| worker.join().expect("reference worker"))
            .collect()
    })
}

/// The traced run: one pass over the workload's campaigns.
///
/// 1. Reference: `run_sharded_campaign` on one thread per campaign — the
///    untraced time, the fingerprint and the min-plus operator counts.
/// 2. Traced: the rebuilt pipeline over the same scenarios, timed stage by
///    stage.
/// 3. Fidelity gate: every traced scenario's fingerprint must equal the
///    program's (`execute_scenario_with`), their sum the reference
///    campaign fingerprint, and the traced fold the reference summary.
pub fn run_traced(workload: &Workload, seed: u64) -> Run {
    let mut run = Run::default();
    let mut ops: BTreeMap<String, u64> = BTreeMap::new();
    let mut untraced = 0.0;
    let mut references = Vec::new();
    for k in 0..workload.campaigns {
        let master = master_seed(seed, k);
        let (report, wall) =
            timed(|| run_campaign(&workload.config(master, workload.scenarios, 1)));
        untraced += wall;
        run.attempted += workload.scenarios as u64;
        match report {
            Ok(report) => {
                check_campaign(
                    &mut run,
                    &format!("reference campaign seed {master}"),
                    &report,
                    workload.scenarios,
                );
                run.failed += unsound_scenarios(&report) as u64;
                for (name, count) in op_counts(&report.runtime.ops) {
                    *ops.entry(name).or_insert(0) += count;
                }
                let outcome = &report.outcome;
                let summary = summaries_json(&outcome.summary, &outcome.fault_summary);
                references.push(Some((outcome.fingerprint, summary)));
            }
            Err(error) => {
                run.failed += workload.scenarios as u64;
                run.problem(format!("reference campaign seed {master}: {error}"));
                references.push(None);
            }
        }
    }

    let mut ledger = Ledger::default();
    let mut traced = Vec::new();
    let (_, traced_total) = timed(|| {
        for k in 0..workload.campaigns {
            traced.push(traced_campaign(workload, master_seed(seed, k), &mut ledger));
        }
    });

    for (k, ((fingerprints, summary_json), reference)) in traced.iter().zip(&references).enumerate()
    {
        let master = master_seed(seed, k);
        let program = program_fingerprints(workload, master);
        let mismatched: Vec<usize> = (0..program.len())
            .filter(|&i| fingerprints.get(i) != Some(&program[i]))
            .collect();
        run.check(
            mismatched.is_empty() && fingerprints.len() == program.len(),
            || {
                format!(
                    "fidelity: campaign seed {master}: traced fingerprints differ from \
                 execute_scenario_with at scenario ids {mismatched:?}"
                )
            },
        );
        if let Some((fingerprint, reference_summary)) = reference {
            let sum = fingerprints
                .iter()
                .fold(0u64, |acc, f| acc.wrapping_add(*f));
            run.check(sum == *fingerprint, || {
                format!(
                    "fidelity: campaign seed {master}: traced fingerprint {sum:#018x}, \
                     run_sharded_campaign {fingerprint:#018x}"
                )
            });
            run.check(summary_json == reference_summary, || {
                format!("fidelity: campaign seed {master}: traced summary differs from run_sharded_campaign")
            });
        }
    }

    println!(
        "{} traced: {} campaigns x {} scenarios on one thread, against \
         run_sharded_campaign on one thread",
        workload.name, workload.campaigns, workload.scenarios
    );
    run.ledger(&ledger.stages(), traced_total, untraced);
    run.set(
        "core.multi_hop.staircase_p99_ms",
        1e3 * quantile(&ledger.staircase_per_scenario, 0.99),
    );
    run.set("netsim.frames", ledger.frames as f64);
    run.set(
        "netsim.ns_per_frame",
        1e9 * ratio(ledger.sim + ledger.faulty_sim, ledger.frames as f64),
    );
    for (name, count) in &ops {
        run.set(&format!("netcalc.ops.{name}"), *count as f64);
    }
    run.set(
        "trace.units",
        (workload.campaigns * workload.scenarios) as f64,
    );
    let nonzero: Vec<String> = ops
        .iter()
        .filter(|(_, n)| **n > 0)
        .map(|(name, n)| format!("{name}={n}"))
        .collect();
    println!("  min-plus operator counts: [{}]", nonzero.join(", "));
    let mut slowest = ledger.scenarios.clone();
    slowest.sort_by(|a, b| b.0.total_cmp(&a.0));
    println!("  slowest scenarios:");
    for (seconds, master, id) in slowest.iter().take(5) {
        println!(
            "    {:>9.3} ms  {}",
            1e3 * seconds,
            workload.reproducer(*master, *id)
        );
    }
    run
}
