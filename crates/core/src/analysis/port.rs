//! Per-port analysis: everything the multi-hop walk derives at one output
//! port, behind one entry point.
//!
//! [`analyze_multi_hop_with`](crate::analyze_multi_hop_with) visits every
//! port of the fabric exactly once, in topological order, and derives the
//! same per-flow quantities at each: the stage (multiplexer) bound, the
//! packetizer-corrected left-over service, and — under the staircase model
//! — the general left-over curve.  Those derivations are *port-local*: they
//! depend only on the ordered set of flows crossing the port and their
//! arrival envelopes at that port, never on global analysis state.
//!
//! Each port builds one service table: its multiplexer ([`stage_mux`]) is
//! built once, and the arrival curves are aggregated once per class
//! ([`class_aggregates`]).  The stage bound reads both; each class's
//! left-over base ([`netcalc::Mux::leftover_base`]) is read off the same
//! multiplexer once, and a flow's cross traffic is its class aggregate
//! minus its own envelope — so the closed-form left-over and the general
//! left-over curve carve the same base, and no policy is matched here.
//!
//! [`analyze_port`] packages that port-local computation as a reusable unit
//! so incremental callers (the `admission` engine's per-port curve cache)
//! run the *same code path* as the from-scratch analysis — equivalence of
//! cached and recomputed bounds holds by construction, bit for bit, rather
//! than by parallel maintenance of two implementations.

use crate::analysis::end_to_end::AnalysisError;
use crate::analysis::stage::{analyze_stage, class_aggregates, stage_mux, StageFlow};
use crate::config::NetworkConfig;
use ethernet::SchedulingPolicy;
use netcalc::{
    delay_bound, minplus, Curve, Envelope, EnvelopeModel, NcError, RateLatency, ServiceBound,
    TokenBucket,
};
use units::Duration;
use workload::MessageId;

/// Everything one flow accrues at one port of its path.
#[derive(Debug, Clone, PartialEq)]
pub struct PortFlowAnalysis {
    /// The message stream (positional id within the analysed flow set).
    pub message: MessageId,
    /// The paper's multiplexer bound at this port (the stage-sum term).
    pub stage_delay: Duration,
    /// The flow's own delay through its packetizer-corrected left-over
    /// service at this port (the per-hop-sum term).
    pub flow_delay: Duration,
    /// The flow's arrival envelope *after* the port — the envelope it
    /// presents to the next hop.
    pub output: Envelope,
    /// The packetizer-corrected left-over rate-latency service curve.
    pub leftover: RateLatency,
    /// The packetizer-corrected general left-over curve (staircase model
    /// only; `None` under the token-bucket model).
    pub leftover_curve: Option<Curve>,
}

/// The complete analysis of one port: per-flow results in input order plus
/// the port's aggregate token-bucket arrival envelope (the quantity the
/// admission engine caches and reports as port occupancy).
#[derive(Debug, Clone, PartialEq)]
pub struct PortAnalysis {
    /// Aggregate token-bucket arrival envelope of every flow at the port.
    pub aggregate: TokenBucket,
    /// Per-flow results, in the same order as the input `flows`.
    pub flows: Vec<PortFlowAnalysis>,
}

/// Analyses one output port under the given policy and envelope model.
///
/// `flows` are the flows crossing the port in deterministic (workload)
/// order, each carrying its arrival envelope *at this port*; `last_hop[i]`
/// says whether the port is flow `i`'s final hop (the store-and-forward
/// packetizer correction `[β − l]⁺` applies to every non-final hop);
/// `ttechno` is the port's relaying latency (zero at station uplinks);
/// `port_name` labels errors.
///
/// This is the single code path behind both the from-scratch multi-hop walk
/// and the admission engine's cache misses, so incremental re-analysis is
/// byte-identical to a fresh
/// [`analyze_multi_hop_with`](crate::analyze_multi_hop_with) by
/// construction.
pub fn analyze_port(
    flows: &[StageFlow],
    last_hop: &[bool],
    policy: &SchedulingPolicy,
    config: &NetworkConfig,
    ttechno: Duration,
    model: EnvelopeModel,
    port_name: &str,
) -> Result<PortAnalysis, AnalysisError> {
    assert_eq!(flows.len(), last_hop.len(), "one last-hop flag per flow");
    let stage = |source| AnalysisError::Stage {
        stage: port_name.to_string(),
        source,
    };
    let aggregates = class_aggregates(flows, policy);
    let mux = stage_mux(flows, policy, config.link_rate, ttechno).map_err(&stage)?;
    let stage_bounds = analyze_stage(flows, &aggregates, &mux).map_err(&stage)?;
    let class_of = |f: &StageFlow| f.priority.min(aggregates.len() - 1);
    // The service each class is blind-multiplexed on, read once per class.
    let bases = (0..aggregates.len())
        .map(|class| mux.leftover_base(class))
        .collect::<Result<Vec<_>, _>>()
        .map_err(&stage)?;
    // The general left-over curves of this port, one per flow (staircase
    // model only; the token-bucket model keeps the closed-form path).  A
    // flow's cross traffic is its class aggregate minus its own envelope
    // ([`Curve::sub_envelope`]); where a class carries no extra constraint
    // the aggregate curve is the summed token bucket, bitwise the sum of
    // the members' affine curves.
    let port_curves = match model {
        EnvelopeModel::TokenBucket => None,
        EnvelopeModel::Staircase => {
            let base_curves: Vec<Curve> = bases.iter().map(RateLatency::curve).collect();
            let curves = flows.iter().map(|f| {
                let class = class_of(f);
                let cross = aggregates[class]
                    .effective_curve()
                    .sub_envelope(&f.envelope.effective_curve());
                minplus::leftover(&base_curves[class], &cross)
            });
            Some(curves.collect::<Result<Vec<_>, _>>().map_err(&stage)?)
        }
    };

    let mut results = Vec::with_capacity(flows.len());
    for (i, flow) in flows.iter().enumerate() {
        let unstable_port = || AnalysisError::Stage {
            stage: port_name.to_string(),
            source: NcError::Unstable {
                context: format!("left-over service of {} at {port_name}", flow.message),
                // The saturating quantity is the port's aggregate demand
                // (the interfering traffic plus the flow itself), not the
                // flow's own rate.
                demand_bps: flows
                    .iter()
                    .map(|f| f.envelope.rate())
                    .sum::<units::DataRate>()
                    .bps(),
                capacity_bps: config.link_rate.bps(),
            },
        };
        // Blind multiplexing against the rest of the flow's class aggregate:
        // every other flow (FCFS), the other flows of the same or higher
        // priority (strict priority), the other flows of the class (WRR).
        // Token-bucket sums are integers, so the difference is exact.
        let class = class_of(flow);
        let (class_tb, own) = (
            aggregates[class].token_bucket(),
            flow.envelope.token_bucket(),
        );
        let cross = TokenBucket::new(class_tb.burst() - own.burst(), class_tb.rate() - own.rate());
        let mut leftover = bases[class].leftover(&cross).ok_or_else(unstable_port)?;
        // Store-and-forward packetizer: a frame cannot enter the next hop's
        // service before it is *fully* received, so the fluid left-over
        // curve of every non-final hop must give up one maximum frame of
        // the flow — `[β − l]⁺`, i.e. `l/R` of extra latency (Le Boudec &
        // Thiran §1.7.4).  Without this term the convolved bound would pay
        // the flow's own serialization only once even though
        // store-and-forward pays it per link.
        let is_last = last_hop[i];
        let frame = flow.frame;
        if !is_last {
            leftover = RateLatency::new(
                leftover.rate(),
                leftover.latency() + leftover.rate().transmission_time(frame),
            );
        }
        let (flow_delay, leftover_curve) = match model {
            EnvelopeModel::TokenBucket => (
                delay_bound(&flow.envelope.token_bucket(), &leftover).map_err(&stage)?,
                None,
            ),
            EnvelopeModel::Staircase => {
                // The general blind-multiplexing left-over curve against the
                // staircase cross traffic, same packetizer correction, same
                // candidate-exact deviation.
                let mut lo_curve = port_curves.as_ref().expect("staircase model")[i].clone();
                if !is_last {
                    lo_curve = lo_curve
                        .saturating_sub_const(frame.as_f64_bits())
                        .expect("frame sizes are finite and non-negative");
                }
                let h = minplus::horizontal_deviation(&flow.envelope.effective_curve(), &lo_curve)
                    .map_err(&stage)?;
                (Duration::from_secs_f64_ceil(h), Some(lo_curve))
            }
        };
        let stage_bound = &stage_bounds[i].1;
        results.push(PortFlowAnalysis {
            message: flow.message,
            stage_delay: stage_bound.delay,
            flow_delay,
            output: stage_bound.output.clone(),
            leftover,
            leftover_curve,
        });
    }
    // The aggregate envelope is diagnostic (port occupancy in admission
    // snapshots); it feeds no bound, so deriving it here cannot perturb the
    // byte-identity of the analysis results.
    let aggregate = TokenBucket::aggregate_all(flows.iter().map(|f| f.envelope.token_bucket()));
    Ok(PortAnalysis {
        aggregate,
        flows: results,
    })
}

#[cfg(test)]
mod proptests {
    use super::*;
    use ethernet::{WrrUnit, WrrWeights};
    use netcalc::{WrrAccounting, WrrMux};
    use proptest::prelude::*;
    use units::{DataRate, DataSize};

    /// The left-over rate-latency service curve of flow `index` as the
    /// per-flow derivation computes it, with no port table: one cross
    /// token-bucket fold per flow and, under WRR, one multiplexer per flow.
    /// `None` when the interfering traffic saturates the flow's residual
    /// service.  The reference [`analyze_port`]'s per-class table must
    /// reproduce bit for bit.
    fn leftover_service(
        flows: &[StageFlow],
        index: usize,
        policy: &SchedulingPolicy,
        config: &NetworkConfig,
        ttechno: Duration,
    ) -> Option<RateLatency> {
        let classes = policy.queue_count();
        let clamp = |p: usize| p.min(classes.saturating_sub(1));
        let (base, cross) = match policy {
            SchedulingPolicy::Fcfs => {
                let cross = TokenBucket::aggregate_all(
                    flows
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != index)
                        .map(|(_, f)| f.envelope.token_bucket()),
                );
                (RateLatency::new(config.link_rate, ttechno), cross)
            }
            SchedulingPolicy::StrictPriority { .. } => {
                let own = clamp(flows[index].priority);
                let cross = TokenBucket::aggregate_all(
                    flows
                        .iter()
                        .enumerate()
                        .filter(|&(j, f)| j != index && clamp(f.priority) <= own)
                        .map(|(_, f)| f.envelope.token_bucket()),
                );
                let blocking = flows
                    .iter()
                    .filter(|f| clamp(f.priority) > own)
                    .map(|f| f.envelope.burst())
                    .fold(units::DataSize::ZERO, units::DataSize::max);
                let base = RateLatency::new(
                    config.link_rate,
                    ttechno + config.link_rate.transmission_time(blocking),
                );
                (base, cross)
            }
            SchedulingPolicy::Wrr { weights } => {
                let accounting = match weights.unit {
                    WrrUnit::Frames => WrrAccounting::Frames,
                    WrrUnit::Bytes => WrrAccounting::Bytes,
                };
                let mut mux = WrrMux::new(
                    config.link_rate,
                    ttechno,
                    accounting,
                    &weights.active_quanta(),
                );
                for f in flows {
                    mux.add_flow(clamp(f.priority), f.envelope.token_bucket(), f.frame)
                        .ok()?;
                }
                let own = clamp(flows[index].priority);
                let base = mux.residual_service(own).ok()?;
                let cross = TokenBucket::aggregate_all(
                    flows
                        .iter()
                        .enumerate()
                        .filter(|&(j, f)| j != index && clamp(f.priority) == own)
                        .map(|(_, f)| f.envelope.token_bucket()),
                );
                (base, cross)
            }
        };
        base.leftover(&cross)
    }

    proptest! {
        /// [`analyze_port`]'s per-flow `leftover` is bitwise the per-flow
        /// reference (plus the packetizer correction on non-final hops),
        /// over FCFS, strict priority with 1–5 levels and WRR in frames and
        /// bytes, priorities beyond the class count, envelopes with and
        /// without extra constraints, and both envelope models.  A
        /// saturated reference is an `Unstable` port; an `Unstable` port is
        /// a saturated reference or an unstable multiplexer.
        #[test]
        fn port_table_leftover_matches_the_per_flow_reference(
            specs in proptest::collection::vec((0u8..32, 64u64..1_500, 1u64..50), 1..10),
            last in 0u16..1_024,
            policy_kind in 0u8..4,
            classes in 1usize..6,
            fast_line in 0u8..2,
            staircase in 0u8..2,
        ) {
            let peak = DataRate::from_mbps(if fast_line == 1 { 100 } else { 10 });
            let config = NetworkConfig::paper_default().with_link_rate(peak);
            let ttechno = config.ttechno;
            let flows: Vec<StageFlow> = specs
                .iter()
                .enumerate()
                .map(|(i, &(kind, bytes, period_ms))| {
                    let (length, period) =
                        (DataSize::from_bytes(bytes), Duration::from_millis(period_ms));
                    let envelope = match kind % 3 {
                        0 => Envelope::staircase(length, period, peak),
                        1 => Envelope::staircase(length, period, peak)
                            .delayed(Duration::from_micros(bytes % 700))
                            .unwrap(),
                        _ => Envelope::from(TokenBucket::for_message(length, period)),
                    };
                    StageFlow {
                        message: MessageId(i),
                        envelope,
                        priority: kind as usize / 4,
                        frame: length,
                    }
                })
                .collect();
            let last_hop: Vec<bool> = (0..flows.len()).map(|i| last & (1 << i) != 0).collect();
            let quanta = [4, 2, 1, 1, 3];
            let policy = match policy_kind {
                0 => SchedulingPolicy::Fcfs,
                1 => SchedulingPolicy::StrictPriority { levels: classes },
                2 => SchedulingPolicy::Wrr {
                    weights: WrrWeights::new(&quanta[..classes], WrrUnit::Frames),
                },
                _ => {
                    let bytes: Vec<u32> = quanta[..classes].iter().map(|q| q * 1_500).collect();
                    SchedulingPolicy::Wrr {
                        weights: WrrWeights::new(&bytes, WrrUnit::Bytes),
                    }
                }
            };
            let model = if staircase == 1 {
                EnvelopeModel::Staircase
            } else {
                EnvelopeModel::TokenBucket
            };
            let reference: Vec<Option<RateLatency>> = (0..flows.len())
                .map(|i| leftover_service(&flows, i, &policy, &config, ttechno))
                .collect();
            let saturated = reference.iter().any(Option::is_none);
            match analyze_port(&flows, &last_hop, &policy, &config, ttechno, model, "port") {
                Ok(port) => {
                    prop_assert!(!saturated);
                    for (i, flow) in port.flows.iter().enumerate() {
                        let mut expected = reference[i].unwrap();
                        if !last_hop[i] {
                            expected = RateLatency::new(
                                expected.rate(),
                                expected.latency()
                                    + expected.rate().transmission_time(flows[i].frame),
                            );
                        }
                        prop_assert_eq!(flow.leftover, expected, "flow {} under {:?}", i, policy);
                    }
                }
                Err(AnalysisError::Stage { source: NcError::Unstable { .. }, .. }) => {
                    let mux_unstable =
                        stage_mux(&flows, &policy, config.link_rate, ttechno).is_err();
                    prop_assert!(saturated || mux_unstable);
                }
                Err(e) => prop_assert!(!saturated, "unexpected error {e} under {policy:?}"),
            }
        }
    }
}
