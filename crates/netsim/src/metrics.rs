//! Per-flow and per-port statistics of a simulation run.

use serde::{Deserialize, Serialize};
use shaping::TrafficClass;
use units::{DataSize, Duration};
use workload::MessageId;

/// Latency and loss statistics of one message stream.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowStats {
    /// The message stream.
    pub message: MessageId,
    /// Message name (copied from the workload for readable reports).
    pub name: String,
    /// The paper's traffic class of the stream.
    pub class: TrafficClass,
    /// Number of instances generated within the horizon.
    pub generated: u64,
    /// Number of instances delivered to the destination within the horizon.
    pub delivered: u64,
    /// Number of instances dropped (buffer overflow or non-conforming).
    pub dropped: u64,
    /// Smallest observed end-to-end delay.
    pub min_delay: Duration,
    /// Largest observed end-to-end delay.
    pub max_delay: Duration,
    /// Mean observed end-to-end delay.
    pub mean_delay: Duration,
    /// Observed jitter (max − min).
    pub jitter: Duration,
}

impl FlowStats {
    /// `true` if every generated instance within the horizon was delivered
    /// (instances still in flight when the horizon ends are not counted as
    /// lost).
    pub fn lossless(&self) -> bool {
        self.dropped == 0
    }
}

/// Occupancy statistics of one output port.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PortStats {
    /// Human-readable port name.
    pub name: String,
    /// Largest queue backlog observed (bits across all priority levels).
    pub max_backlog: DataSize,
    /// Frames dropped at this port because a bounded buffer was full.
    pub dropped: u64,
    /// Frames transmitted by this port.
    pub transmitted: u64,
    /// Fraction of the horizon the port spent transmitting.
    pub utilization: f64,
}

/// What the injected faults did during a run.
///
/// Babbled frames are adversarial, outside the workload: they are counted
/// here and never in the per-flow or total frame counters.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultReport {
    /// Adversarial frames emitted by babbling talkers.
    pub babble_emitted: u64,
    /// Adversarial frames that reached their destination.
    pub babble_delivered: u64,
    /// Adversarial frames lost anywhere (buffer overflow, corruption,
    /// failover, isolation).
    pub babble_lost: u64,
    /// Frames (workload or babble) corrupted by link error bursts.
    pub corrupted: u64,
    /// Frames queued on the failed trunk and lost at the failover instant.
    pub lost_on_failover: u64,
    /// Frames refused at an isolated station's uplink by the health
    /// monitor (babble and legitimate traffic alike).
    pub dropped_after_isolation: u64,
    /// Stations the health monitor isolated within the horizon.
    pub isolated_stations: Vec<usize>,
    /// `true` once the scheduled trunk failover fired within the horizon.
    pub failover_applied: bool,
}

/// The complete result of a simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Per-flow statistics, in message order.
    pub flows: Vec<FlowStats>,
    /// Per-port statistics (station uplinks first, then switch output
    /// ports).
    pub ports: Vec<PortStats>,
    /// Total frames generated.
    pub total_generated: u64,
    /// Total frames delivered.
    pub total_delivered: u64,
    /// Total frames dropped anywhere.
    pub total_dropped: u64,
    /// The simulated horizon.
    pub horizon: Duration,
    /// Fault statistics; present only when faults were injected, so healthy
    /// reports keep their exact pre-fault JSON shape (the field is omitted
    /// entirely when `None`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub faults: Option<FaultReport>,
}

impl SimReport {
    /// The statistics of one message stream.
    pub fn flow(&self, message: MessageId) -> Option<&FlowStats> {
        self.flows.iter().find(|f| f.message == message)
    }

    /// The worst observed delay across flows of a class.
    pub fn worst_delay_of_class(&self, class: TrafficClass) -> Duration {
        self.flows
            .iter()
            .filter(|f| f.class == class && f.delivered > 0)
            .map(|f| f.max_delay)
            .fold(Duration::ZERO, Duration::max)
    }

    /// The worst observed jitter across flows of a class.
    pub fn worst_jitter_of_class(&self, class: TrafficClass) -> Duration {
        self.flows
            .iter()
            .filter(|f| f.class == class && f.delivered > 0)
            .map(|f| f.jitter)
            .fold(Duration::ZERO, Duration::max)
    }

    /// `true` if no frame was dropped anywhere.
    pub fn lossless(&self) -> bool {
        self.total_dropped == 0
    }

    /// The largest backlog observed at any switch output port (station
    /// delivery ports and switch-to-switch trunk ports alike).
    pub fn peak_switch_backlog(&self) -> DataSize {
        self.ports
            .iter()
            .filter(|p| p.name.starts_with("switch-out") || p.name.starts_with("trunk"))
            .map(|p| p.max_backlog)
            .fold(DataSize::ZERO, DataSize::max)
    }
}

/// Running accumulator used by the engine while the simulation executes.
#[derive(Debug, Clone, Default)]
pub(crate) struct DelayAccumulator {
    pub count: u64,
    pub min: Option<Duration>,
    pub max: Duration,
    pub sum_ns: u128,
}

impl DelayAccumulator {
    pub fn record(&mut self, delay: Duration) {
        self.count += 1;
        self.min = Some(self.min.map_or(delay, |m| m.min(delay)));
        self.max = self.max.max(delay);
        self.sum_ns += delay.as_nanos() as u128;
    }

    pub fn min(&self) -> Duration {
        self.min.unwrap_or(Duration::ZERO)
    }

    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos((self.sum_ns / self.count as u128) as u64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(message: usize, class: TrafficClass, max_ms: u64, jitter_ms: u64) -> FlowStats {
        FlowStats {
            message: MessageId(message),
            name: format!("flow-{message}"),
            class,
            generated: 10,
            delivered: 10,
            dropped: 0,
            min_delay: Duration::from_millis(max_ms.saturating_sub(jitter_ms)),
            max_delay: Duration::from_millis(max_ms),
            mean_delay: Duration::from_millis(max_ms),
            jitter: Duration::from_millis(jitter_ms),
        }
    }

    fn report(flows: Vec<FlowStats>) -> SimReport {
        SimReport {
            flows,
            ports: vec![
                PortStats {
                    name: "uplink[s1]".into(),
                    max_backlog: DataSize::from_bytes(100),
                    dropped: 0,
                    transmitted: 5,
                    utilization: 0.1,
                },
                PortStats {
                    name: "switch-out[s0]".into(),
                    max_backlog: DataSize::from_bytes(5000),
                    dropped: 0,
                    transmitted: 20,
                    utilization: 0.4,
                },
            ],
            total_generated: 20,
            total_delivered: 20,
            total_dropped: 0,
            horizon: Duration::from_millis(160),
            faults: None,
        }
    }

    #[test]
    fn healthy_reports_omit_the_fault_section() {
        let r = report(vec![flow(0, TrafficClass::Periodic, 2, 1)]);
        let json = serde_json::to_string(&r).expect("serializes");
        assert!(!json.contains("faults"));
        let mut faulty = r.clone();
        faulty.faults = Some(FaultReport {
            babble_emitted: 3,
            isolated_stations: vec![1],
            ..FaultReport::default()
        });
        let json = serde_json::to_string(&faulty).expect("serializes");
        assert!(json.contains("babble_emitted"));
        let back: SimReport = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, faulty);
    }

    #[test]
    fn class_aggregations() {
        let r = report(vec![
            flow(0, TrafficClass::UrgentSporadic, 2, 1),
            flow(1, TrafficClass::UrgentSporadic, 3, 2),
            flow(2, TrafficClass::Periodic, 8, 4),
        ]);
        assert_eq!(
            r.worst_delay_of_class(TrafficClass::UrgentSporadic),
            Duration::from_millis(3)
        );
        assert_eq!(
            r.worst_jitter_of_class(TrafficClass::UrgentSporadic),
            Duration::from_millis(2)
        );
        assert_eq!(
            r.worst_delay_of_class(TrafficClass::Background),
            Duration::ZERO
        );
        assert!(r.lossless());
        assert_eq!(r.peak_switch_backlog(), DataSize::from_bytes(5000));
        assert!(r.flow(MessageId(1)).is_some());
        assert!(r.flow(MessageId(9)).is_none());
        assert!(r.flows[0].lossless());
    }

    #[test]
    fn delay_accumulator() {
        let mut acc = DelayAccumulator::default();
        assert_eq!(acc.mean(), Duration::ZERO);
        assert_eq!(acc.min(), Duration::ZERO);
        acc.record(Duration::from_millis(2));
        acc.record(Duration::from_millis(4));
        acc.record(Duration::from_millis(6));
        assert_eq!(acc.count, 3);
        assert_eq!(acc.min(), Duration::from_millis(2));
        assert_eq!(acc.max, Duration::from_millis(6));
        assert_eq!(acc.mean(), Duration::from_millis(4));
    }
}
