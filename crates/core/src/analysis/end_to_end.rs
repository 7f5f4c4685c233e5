//! End-to-end composition over the paper's architecture.

use crate::analysis::stage::{analyze_stage, class_aggregates, StageFlow};
use crate::analysis::Approach;
use crate::config::NetworkConfig;
use crate::verdict::ClassSummary;
use netcalc::{Envelope, EnvelopeModel, NcError};
use serde::{Deserialize, Serialize};
use shaping::TrafficClass;
use std::collections::HashMap;
use units::Duration;
use workload::{MessageId, StationId, Workload};

/// Errors the end-to-end analysis can produce.
///
/// Carries `serde` derives so services (e.g. the admission engine) can ship
/// structured failure verdicts over the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AnalysisError {
    /// A multiplexing stage has no finite bound (overload) or was
    /// mis-configured; the string identifies the stage.
    Stage {
        /// Which stage failed ("station s3 uplink", "switch port to s0", …).
        stage: String,
        /// The underlying Network-Calculus error.
        source: NcError,
    },
}

impl core::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AnalysisError::Stage { stage, source } => {
                write!(f, "analysis of {stage} failed: {source}")
            }
        }
    }
}

impl std::error::Error for AnalysisError {}

/// The end-to-end bound of one message stream.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MessageBound {
    /// The message stream.
    pub message: MessageId,
    /// Message name.
    pub name: String,
    /// The paper's traffic class.
    pub class: TrafficClass,
    /// Source station.
    pub source: StationId,
    /// Destination station.
    pub destination: StationId,
    /// Application deadline (maximal response time).
    pub deadline: Duration,
    /// Worst-case delay through the source station's multiplexer and uplink.
    pub source_bound: Duration,
    /// Worst-case delay through the switch output port (including
    /// `t_techno`).
    pub switch_bound: Duration,
    /// End-to-end worst-case delay (source + switch + propagation).
    pub total_bound: Duration,
    /// `true` if the bound meets the deadline.
    pub meets_deadline: bool,
}

impl MessageBound {
    /// The slack between the deadline and the bound (zero when violated).
    pub fn slack(&self) -> Duration {
        self.deadline.saturating_sub(self.total_bound)
    }
}

/// The complete result of analysing a workload under one approach.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// Which multiplexing approach was analysed.
    pub approach: Approach,
    /// The network parameters used.
    pub config: NetworkConfig,
    /// Per-message bounds, in workload message order.
    pub messages: Vec<MessageBound>,
}

impl AnalysisReport {
    /// The bound of one message.
    pub fn bound_for(&self, message: MessageId) -> Option<&MessageBound> {
        self.messages.iter().find(|m| m.message == message)
    }

    /// `true` when every message meets its deadline.
    pub fn all_deadlines_met(&self) -> bool {
        self.messages.iter().all(|m| m.meets_deadline)
    }

    /// The messages whose deadline is violated.
    pub fn violations(&self) -> Vec<&MessageBound> {
        self.messages.iter().filter(|m| !m.meets_deadline).collect()
    }

    /// The worst end-to-end bound among messages of a class.
    pub fn worst_bound_of_class(&self, class: TrafficClass) -> Option<Duration> {
        self.messages
            .iter()
            .filter(|m| m.class == class)
            .map(|m| m.total_bound)
            .max()
    }

    /// Per-class summaries (the rows of the paper's Figure 1).
    pub fn class_summaries(&self) -> Vec<ClassSummary> {
        ClassSummary::from_bounds(&self.messages)
    }
}

/// Analyses every message of `workload` over the paper's single-switch
/// architecture under the given approach.
///
/// The end-to-end bound of a message is composed of:
///
/// 1. the bound of its **source station multiplexer** (all flows the station
///    emits share the uplink; an end system has no relaying latency, so this
///    stage uses `t_techno = 0`);
/// 2. the bound of the **switch output port** towards its destination (all
///    flows converging on that station, each described by its *output
///    envelope* after stage 1 — burstiness inflated by the stage-1 delay —
///    with the switch's `t_techno`);
/// 3. two link propagation delays.
///
/// Flows are described by their token-bucket envelopes (the paper's
/// configuration) — see [`analyze_with_envelope`] for the staircase
/// generalization.
pub fn analyze(
    workload: &Workload,
    config: &NetworkConfig,
    approach: Approach,
) -> Result<AnalysisReport, AnalysisError> {
    analyze_with_envelope(workload, config, approach, EnvelopeModel::TokenBucket)
}

/// [`analyze`] with an explicit arrival-envelope model.
///
/// Under [`EnvelopeModel::TokenBucket`] this reproduces the paper's
/// closed-form pipeline bit for bit.  Under [`EnvelopeModel::Staircase`]
/// every flow carries the staircase of its release pattern alongside the
/// token-bucket summary; each stage reports the minimum of the closed-form
/// and curve-aggregate bounds, and output envelopes propagate the
/// staircase shifted by the stage delay — so bounds can only tighten.
pub fn analyze_with_envelope(
    workload: &Workload,
    config: &NetworkConfig,
    approach: Approach,
    model: EnvelopeModel,
) -> Result<AnalysisReport, AnalysisError> {
    let policy = approach.scheduling_policy(config.priority_levels);
    let source_envelope =
        |spec: &workload::MessageSpec| spec.arrival_envelope(model, config.link_rate);

    // Stage 1: one multiplexer per source station.
    let mut stage1: HashMap<MessageId, (Duration, Envelope)> = HashMap::new();
    for station in &workload.stations {
        let flows: Vec<StageFlow> = workload
            .messages_from(station.id)
            .into_iter()
            .map(|spec| StageFlow {
                message: spec.id,
                envelope: source_envelope(spec),
                priority: spec.priority(),
                frame: spec.frame_size(),
            })
            .collect();
        if flows.is_empty() {
            continue;
        }
        let aggregates = class_aggregates(&flows, &policy);
        let bounds = analyze_stage(
            &flows,
            &aggregates,
            &policy,
            config.link_rate,
            Duration::ZERO,
        )
        .map_err(|source| AnalysisError::Stage {
            stage: format!("station {} ({}) uplink", station.id, station.name),
            source,
        })?;
        for (message, bound) in bounds {
            stage1.insert(message, (bound.delay, bound.output));
        }
    }

    // Stage 2: one multiplexer per switch output port (destination station).
    let mut stage2: HashMap<MessageId, Duration> = HashMap::new();
    for station in &workload.stations {
        let flows: Vec<StageFlow> = workload
            .messages_to(station.id)
            .into_iter()
            .map(|spec| {
                let (_, output) = stage1
                    .get(&spec.id)
                    .cloned()
                    .expect("stage 1 covered every message");
                StageFlow {
                    message: spec.id,
                    envelope: output,
                    priority: spec.priority(),
                    frame: spec.frame_size(),
                }
            })
            .collect();
        if flows.is_empty() {
            continue;
        }
        let aggregates = class_aggregates(&flows, &policy);
        let bounds = analyze_stage(
            &flows,
            &aggregates,
            &policy,
            config.link_rate,
            config.ttechno,
        )
        .map_err(|source| AnalysisError::Stage {
            stage: format!("switch port to {} ({})", station.id, station.name),
            source,
        })?;
        for (message, bound) in bounds {
            stage2.insert(message, bound.delay);
        }
    }

    // Compose.
    let messages = workload
        .messages
        .iter()
        .map(|spec| {
            let (source_bound, _) = stage1[&spec.id];
            let switch_bound = stage2[&spec.id];
            let total_bound = source_bound + switch_bound + config.propagation + config.propagation;
            MessageBound {
                message: spec.id,
                name: spec.name.clone(),
                class: spec.traffic_class(),
                source: spec.source,
                destination: spec.destination,
                deadline: spec.deadline,
                source_bound,
                switch_bound,
                total_bound,
                meets_deadline: total_bound <= spec.deadline,
            }
        })
        .collect();

    Ok(AnalysisReport {
        approach,
        config: *config,
        messages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use units::{DataRate, DataSize};
    use workload::case_study::case_study;
    use workload::Arrival;

    fn tiny_workload() -> Workload {
        let mut w = Workload::new();
        let mc = w.add_station("mission-computer");
        let a = w.add_station("sensor-a");
        let b = w.add_station("sensor-b");
        for (i, s) in [a, b].into_iter().enumerate() {
            w.add_message(
                format!("urgent-{i}"),
                s,
                mc,
                DataSize::from_bytes(32),
                Arrival::Sporadic {
                    min_interarrival: Duration::from_millis(20),
                },
                Duration::from_millis(3),
            );
            w.add_message(
                format!("state-{i}"),
                s,
                mc,
                DataSize::from_bytes(64),
                Arrival::Periodic {
                    period: Duration::from_millis(40),
                },
                Duration::from_millis(40),
            );
            w.add_message(
                format!("bulk-{i}"),
                s,
                mc,
                DataSize::from_bytes(1024),
                Arrival::Sporadic {
                    min_interarrival: Duration::from_millis(160),
                },
                Duration::from_millis(500),
            );
        }
        w
    }

    #[test]
    fn bounds_compose_source_switch_and_propagation() {
        let w = tiny_workload();
        let cfg = NetworkConfig::paper_default().with_propagation(Duration::from_nanos(500));
        let report = analyze(&w, &cfg, Approach::StrictPriority).unwrap();
        for bound in &report.messages {
            assert_eq!(
                bound.total_bound,
                bound.source_bound + bound.switch_bound + Duration::from_nanos(1000)
            );
            assert!(bound.source_bound > Duration::ZERO);
            assert!(bound.switch_bound > bound.source_bound - bound.source_bound);
            // > 0
        }
    }

    #[test]
    fn priority_bounds_dominate_fcfs_for_the_urgent_class() {
        let w = tiny_workload();
        let cfg = NetworkConfig::paper_default();
        let fcfs = analyze(&w, &cfg, Approach::Fcfs).unwrap();
        let prio = analyze(&w, &cfg, Approach::StrictPriority).unwrap();
        let urgent_fcfs = fcfs
            .worst_bound_of_class(TrafficClass::UrgentSporadic)
            .unwrap();
        let urgent_prio = prio
            .worst_bound_of_class(TrafficClass::UrgentSporadic)
            .unwrap();
        assert!(urgent_prio < urgent_fcfs);
        // The periodic class also improves (the paper's second observation).
        let periodic_fcfs = fcfs.worst_bound_of_class(TrafficClass::Periodic).unwrap();
        let periodic_prio = prio.worst_bound_of_class(TrafficClass::Periodic).unwrap();
        assert!(periodic_prio <= periodic_fcfs);
    }

    #[test]
    fn fcfs_bound_matches_hand_calculation_on_the_tiny_workload() {
        // Frame sizes: urgent 68 B, state 86 B, bulk 1046 B.
        // Stage 1 (per station, ttechno = 0): (68+86+1046)*8 / 10 Mbps = 960 us.
        // Stage 2 output bursts: b + r·D1 — r is tens of kbps, D1 is under a
        // millisecond, so the inflation is at most a few dozen bits per flow.
        // Stage 2 ≈ 2 * 1200 bytes... exactly: sum over 6 flows of inflated
        // bursts / C + 16 us.  We verify the bound lands in the expected
        // window rather than reproducing every bit of the inflation here.
        let w = tiny_workload();
        let cfg = NetworkConfig::paper_default();
        let report = analyze(&w, &cfg, Approach::Fcfs).unwrap();
        let urgent = report.bound_for(MessageId(0)).unwrap();
        assert_eq!(urgent.source_bound, Duration::from_micros(960));
        let expected_switch_min = Duration::from_micros(1920 + 16);
        let expected_switch_max = Duration::from_micros(1920 + 16 + 25);
        assert!(
            urgent.switch_bound >= expected_switch_min
                && urgent.switch_bound <= expected_switch_max,
            "switch bound {} outside [{expected_switch_min}, {expected_switch_max}]",
            urgent.switch_bound
        );
    }

    #[test]
    fn case_study_reproduces_figure_one_verdicts() {
        let w = case_study();
        let cfg = NetworkConfig::paper_default();
        let fcfs = analyze(&w, &cfg, Approach::Fcfs).unwrap();
        let prio = analyze(&w, &cfg, Approach::StrictPriority).unwrap();
        // FCFS at 10 Mbps violates the 3 ms urgent deadline.
        assert!(!fcfs.all_deadlines_met());
        assert!(fcfs
            .violations()
            .iter()
            .any(|m| m.class == TrafficClass::UrgentSporadic));
        // Strict priority meets every deadline.
        assert!(
            prio.all_deadlines_met(),
            "violations: {:?}",
            prio.violations()
                .iter()
                .map(|m| (&m.name, m.total_bound, m.deadline))
                .collect::<Vec<_>>()
        );
        // And the urgent bound is below 3 ms by construction.
        assert!(
            prio.worst_bound_of_class(TrafficClass::UrgentSporadic)
                .unwrap()
                < Duration::from_millis(3)
        );
    }

    #[test]
    fn overload_produces_a_stage_error() {
        let mut w = Workload::new();
        let mc = w.add_station("mission-computer");
        let s = w.add_station("firehose");
        // ~12 Mbps of sustained traffic on a 10 Mbps link.
        w.add_message(
            "flood",
            s,
            mc,
            DataSize::from_bytes(1500),
            Arrival::Periodic {
                period: Duration::from_millis(1),
            },
            Duration::from_millis(10),
        );
        let err = analyze(&w, &NetworkConfig::paper_default(), Approach::Fcfs).unwrap_err();
        let AnalysisError::Stage { stage, source } = err;
        assert!(stage.contains("firehose"));
        assert!(matches!(source, NcError::Unstable { .. }));
    }

    #[test]
    fn slack_and_lookup_helpers() {
        let w = tiny_workload();
        let report = analyze(
            &w,
            &NetworkConfig::paper_default(),
            Approach::StrictPriority,
        )
        .unwrap();
        let urgent = report.bound_for(MessageId(0)).unwrap();
        assert!(urgent.meets_deadline);
        assert!(urgent.slack() > Duration::ZERO);
        assert_eq!(urgent.slack(), urgent.deadline - urgent.total_bound);
        assert!(report.bound_for(MessageId(999)).is_none());
        assert_eq!(report.class_summaries().len(), 4);
    }

    #[test]
    fn higher_rate_shrinks_bounds() {
        let w = case_study();
        let slow = analyze(&w, &NetworkConfig::paper_default(), Approach::Fcfs).unwrap();
        let fast = analyze(
            &w,
            &NetworkConfig::paper_default().with_link_rate(DataRate::from_mbps(100)),
            Approach::Fcfs,
        )
        .unwrap();
        for (a, b) in slow.messages.iter().zip(fast.messages.iter()) {
            assert!(b.total_bound < a.total_bound);
        }
    }
}
