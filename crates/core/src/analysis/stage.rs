//! Analysis of one multiplexing stage (a station uplink or a switch output
//! port), generic over the unified [`SchedulingPolicy`].

use ethernet::{SchedulingPolicy, WrrUnit};
use netcalc::{Envelope, EnvelopeFold, Mux, NcError, WrrAccounting};
use serde::{Deserialize, Serialize};
use units::{DataRate, DataSize, Duration};
use workload::MessageId;

/// One shaped flow entering a multiplexing stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageFlow {
    /// The message stream the flow belongs to.
    pub message: MessageId,
    /// The arrival envelope of the flow *at this stage* (at the source this
    /// is the shaper's `(b_i, r_i)` — possibly carrying a staircase curve —
    /// and at the switch it is the source stage's output envelope).
    pub envelope: Envelope,
    /// Queue index under the class-based policies (ignored by FCFS),
    /// clamped to the policy's queue count like the traffic classifier.
    pub priority: usize,
    /// The flow's maximal physical frame size — unlike the envelope burst
    /// it does not inflate across hops, and the WRR quantum accounting
    /// works on frames.
    pub frame: DataSize,
}

/// Builds the empty policy-generic multiplexer for a stage: the single
/// place that maps the unified [`SchedulingPolicy`] onto the Network-
/// Calculus multiplexers (FCFS, strict priority, WRR).
pub fn mux_for_policy(policy: &SchedulingPolicy, capacity: DataRate, ttechno: Duration) -> Mux {
    match policy {
        SchedulingPolicy::Fcfs => Mux::fcfs(capacity, ttechno),
        SchedulingPolicy::StrictPriority { levels } => {
            Mux::static_priority((*levels).max(1), capacity, ttechno)
        }
        SchedulingPolicy::Wrr { weights } => {
            let accounting = match weights.unit {
                WrrUnit::Frames => WrrAccounting::Frames,
                WrrUnit::Bytes => WrrAccounting::Bytes,
            };
            Mux::wrr(capacity, ttechno, accounting, &weights.active_quanta())
        }
    }
}

/// The per-flow outcome of a stage analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageBound {
    /// Worst-case delay through the stage (queueing + serialization +
    /// relaying latency).
    pub delay: Duration,
    /// The flow's arrival envelope after the stage (token-bucket summary
    /// inflated by the stage delay, extra curve shifted left by it).
    pub output: Envelope,
}

/// The aggregate arrival envelope of every class of a stage, the curves its
/// bounds are computed against: all flows under FCFS (one aggregate), the
/// prefix of levels `q ≤ p` under strict priority, class `p` under WRR (one
/// aggregate per queue, clamped like the classifier).
///
/// One left fold over the flows in input order: each flow's curve is added
/// once, the strict-priority prefixes continue the same fold level by level,
/// and no curve is touched when no flow carries an extra constraint.  Every
/// aggregate is bitwise the [`Envelope::aggregate_all`] of its members in
/// the order the multiplexer queues them: input order within a class, and
/// level by level for a strict-priority prefix.
pub fn class_aggregates(flows: &[StageFlow], policy: &SchedulingPolicy) -> Vec<Envelope> {
    let classes = policy.queue_count();
    let class_of = |f: &StageFlow| f.priority.min(classes - 1);
    let new_fold = || EnvelopeFold::new(flows.iter().any(|f| f.envelope.has_extra()));
    match policy {
        SchedulingPolicy::StrictPriority { .. } => {
            let mut fold = new_fold();
            (0..classes)
                .map(|p| {
                    for f in flows.iter().filter(|f| class_of(f) == p) {
                        fold.push(&f.envelope);
                    }
                    fold.clone().into_aggregate()
                })
                .collect()
        }
        SchedulingPolicy::Fcfs | SchedulingPolicy::Wrr { .. } => {
            let mut folds = vec![new_fold(); classes];
            for f in flows {
                folds[class_of(f)].push(&f.envelope);
            }
            folds
                .into_iter()
                .map(EnvelopeFold::into_aggregate)
                .collect()
        }
    }
}

/// Analyses one stage under the given scheduling policy.
///
/// * `aggregates` — the stage's [`class_aggregates`];
/// * `capacity` — the outgoing link rate `C`;
/// * `ttechno` — the relaying latency of the element (0 for an end system,
///   the switch's `t_techno` for a switch output port).
///
/// The policy selects the residual-service multiplexer through the
/// policy-generic [`Mux`] dispatch, fed the flows' token-bucket summaries;
/// the per-class delay bounds read the already-folded class aggregates and
/// are shared by every flow of the class.
pub fn analyze_stage(
    flows: &[StageFlow],
    aggregates: &[Envelope],
    policy: &SchedulingPolicy,
    capacity: DataRate,
    ttechno: Duration,
) -> Result<Vec<(MessageId, StageBound)>, NcError> {
    let mut mux = mux_for_policy(policy, capacity, ttechno);
    let classes = mux.class_count();
    for flow in flows {
        mux.add_flow(flow.priority, flow.envelope.token_bucket(), flow.frame)?;
    }
    mux.check_stability()?;
    let mut class_delay: Vec<Option<Duration>> = vec![None; classes];
    flows
        .iter()
        .map(|flow| {
            let class = flow.priority.min(classes.saturating_sub(1));
            let delay = match class_delay[class] {
                Some(delay) => delay,
                None => {
                    let delay = mux.delay_bound(class, &aggregates[class])?;
                    class_delay[class] = Some(delay);
                    delay
                }
            };
            let output = flow.envelope.delayed(delay)?;
            Ok((flow.message, StageBound { delay, output }))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethernet::WrrWeights;

    fn flow(id: usize, bytes: u64, period_ms: u64, priority: usize) -> StageFlow {
        StageFlow {
            message: MessageId(id),
            envelope: netcalc::TokenBucket::for_message(
                DataSize::from_bytes(bytes),
                Duration::from_millis(period_ms),
            )
            .into(),
            priority,
            frame: DataSize::from_bytes(bytes),
        }
    }

    /// A stage analysed against its own class aggregates.
    fn stage(
        flows: &[StageFlow],
        policy: &SchedulingPolicy,
        capacity: DataRate,
        ttechno: Duration,
    ) -> Result<Vec<(MessageId, StageBound)>, NcError> {
        analyze_stage(
            flows,
            &class_aggregates(flows, policy),
            policy,
            capacity,
            ttechno,
        )
    }

    fn c10() -> DataRate {
        DataRate::from_mbps(10)
    }

    fn fcfs() -> SchedulingPolicy {
        SchedulingPolicy::Fcfs
    }

    fn sp4() -> SchedulingPolicy {
        SchedulingPolicy::StrictPriority { levels: 4 }
    }

    fn wrr4() -> SchedulingPolicy {
        SchedulingPolicy::Wrr {
            weights: WrrWeights::new(&[4, 2, 1, 1], WrrUnit::Frames),
        }
    }

    #[test]
    fn fcfs_stage_gives_every_flow_the_same_bound() {
        let flows = [
            flow(0, 68, 20, 0),
            flow(1, 86, 40, 1),
            flow(2, 1046, 160, 3),
        ];
        let result = stage(&flows, &fcfs(), c10(), Duration::from_micros(16)).unwrap();
        assert_eq!(result.len(), 3);
        let d0 = result[0].1.delay;
        assert!(result.iter().all(|(_, b)| b.delay == d0));
        // Σ b = (68+86+1046) bytes = 9600 bits -> 960 us + 16 us.
        assert_eq!(d0, Duration::from_micros(976));
        // Output bursts are inflated.
        for (i, (_, bound)) in result.iter().enumerate() {
            assert!(bound.output.burst() >= flows[i].envelope.burst());
            assert_eq!(bound.output.rate(), flows[i].envelope.rate());
        }
    }

    #[test]
    fn priority_stage_orders_bounds_by_priority() {
        let flows = [
            flow(0, 68, 20, 0),
            flow(1, 86, 40, 1),
            flow(2, 1046, 160, 3),
        ];
        let result = stage(&flows, &sp4(), c10(), Duration::from_micros(16)).unwrap();
        assert!(result[0].1.delay <= result[1].1.delay);
        assert!(result[1].1.delay <= result[2].1.delay);
        // The urgent flow's bound beats the FCFS bound for the same stage.
        let fcfs = stage(&flows, &fcfs(), c10(), Duration::from_micros(16)).unwrap();
        assert!(result[0].1.delay < fcfs[0].1.delay);
    }

    #[test]
    fn wrr_stage_bounds_every_class() {
        let flows = [
            flow(0, 68, 20, 0),
            flow(1, 86, 40, 1),
            flow(2, 1046, 160, 3),
        ];
        let result = stage(&flows, &wrr4(), c10(), Duration::from_micros(16)).unwrap();
        assert_eq!(result.len(), 3);
        for (i, (_, bound)) in result.iter().enumerate() {
            assert!(bound.delay > Duration::ZERO);
            assert!(bound.output.burst() >= flows[i].envelope.burst());
        }
    }

    #[test]
    fn single_class_wrr_stage_equals_fcfs_stage() {
        let flows = [
            flow(0, 68, 20, 0),
            flow(1, 86, 40, 1),
            flow(2, 1046, 160, 3),
        ];
        let single = SchedulingPolicy::Wrr {
            weights: WrrWeights::new(&[2], WrrUnit::Frames),
        };
        let wrr = stage(&flows, &single, c10(), Duration::from_micros(16)).unwrap();
        let fcfs = stage(&flows, &fcfs(), c10(), Duration::from_micros(16)).unwrap();
        assert_eq!(wrr, fcfs);
    }

    #[test]
    fn priority_indices_above_the_class_count_are_clamped() {
        for policy in [sp4(), wrr4()] {
            let flows = [flow(0, 68, 20, 9)];
            let result = stage(&flows, &policy, c10(), Duration::ZERO).unwrap();
            assert_eq!(result.len(), 1);
            assert!(result[0].1.delay > Duration::ZERO);
        }
    }

    #[test]
    fn empty_stage_is_fine() {
        for policy in [fcfs(), sp4(), wrr4()] {
            assert!(stage(&[], &policy, c10(), Duration::ZERO)
                .unwrap()
                .is_empty());
        }
    }

    #[test]
    fn overload_is_reported() {
        // 1518 bytes every 1 ms ≈ 12 Mbps > 10 Mbps.
        let flows = [flow(0, 1518, 1, 0)];
        for policy in [fcfs(), sp4(), wrr4()] {
            assert!(stage(&flows, &policy, c10(), Duration::ZERO).is_err());
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use ethernet::WrrWeights;
    use netcalc::{Curve, TokenBucket};
    use proptest::prelude::*;

    /// A curve's exact bit pattern: breakpoints and final slope.
    fn bits(curve: &Curve) -> (Vec<(u64, u64)>, u64) {
        let points = curve.points().iter();
        let points = points.map(|&(x, y)| (x.to_bits(), y.to_bits())).collect();
        (points, curve.final_slope().to_bits())
    }

    proptest! {
        /// The two fold equalities that let one aggregation per port serve
        /// both the stage bound and the left-over curves, over the three
        /// policies and flows with and without extra constraints:
        ///
        /// * every class aggregate of [`class_aggregates`] is bitwise the
        ///   [`Envelope::aggregate_all`] of that class (or strict-priority
        ///   prefix), token-bucket-only exactly when no member carries an
        ///   extra;
        /// * the aggregate's effective curve is bitwise a
        ///   `Curve::zero()`-seeded [`Curve::add`] fold over the members'
        ///   effective curves.
        #[test]
        fn class_aggregates_match_aggregate_all_and_zero_seeded_folds(
            specs in proptest::collection::vec((0u8..32, 64u64..1_500, 1u64..50), 1..12),
            policy_kind in 0u8..3,
            classes in 1usize..6,
            fast_line in 0u8..2,
        ) {
            let peak = DataRate::from_mbps(if fast_line == 1 { 100 } else { 10 });
            let flows: Vec<StageFlow> = specs
                .iter()
                .enumerate()
                .map(|(i, &(kind, bytes, period_ms))| {
                    let (length, period) =
                        (DataSize::from_bytes(bytes), Duration::from_millis(period_ms));
                    let tb = TokenBucket::for_message(length, period);
                    let envelope = match kind % 4 {
                        0 => Envelope::staircase(length, period, peak),
                        1 => Envelope::staircase(length, period, peak)
                            .delayed(Duration::from_micros(bytes % 700))
                            .unwrap(),
                        2 => {
                            let extra = Curve::staircase(
                                length.as_f64_bits(),
                                period.as_secs_f64(),
                                4,
                                peak.as_f64_bps(),
                            )
                            .unwrap();
                            Envelope::with_extra(tb, extra)
                        }
                        _ => Envelope::from(tb),
                    };
                    StageFlow {
                        message: MessageId(i),
                        envelope,
                        priority: kind as usize / 4,
                        frame: length,
                    }
                })
                .collect();
            let policy = match policy_kind {
                0 => SchedulingPolicy::Fcfs,
                1 => SchedulingPolicy::StrictPriority { levels: classes },
                _ => SchedulingPolicy::Wrr {
                    weights: WrrWeights::new(&[4, 2, 1, 1, 3][..classes], WrrUnit::Frames),
                },
            };
            let count = policy.queue_count();
            let class_of = |f: &StageFlow| f.priority.min(count - 1);
            let aggregates = class_aggregates(&flows, &policy);
            prop_assert_eq!(aggregates.len(), count);
            for (class, aggregate) in aggregates.iter().enumerate() {
                // The members in the order the multiplexer folds them:
                // strict-priority prefixes are level-major.
                let members: Vec<&Envelope> = match policy {
                    SchedulingPolicy::Fcfs => flows.iter().map(|f| &f.envelope).collect(),
                    SchedulingPolicy::StrictPriority { .. } => (0..=class)
                        .flat_map(|p| flows.iter().filter(move |f| class_of(f) == p))
                        .map(|f| &f.envelope)
                        .collect(),
                    SchedulingPolicy::Wrr { .. } => flows
                        .iter()
                        .filter(|f| class_of(f) == class)
                        .map(|f| &f.envelope)
                        .collect(),
                };
                let expected = Envelope::aggregate_all(members.iter().copied());
                prop_assert_eq!(aggregate.token_bucket(), expected.token_bucket());
                prop_assert_eq!(aggregate.extra().map(bits), expected.extra().map(bits));
                if members.is_empty() {
                    continue;
                }
                let zero_seeded = members.iter().fold(Curve::zero(), |acc, e| {
                    acc.add(&e.effective_curve())
                });
                prop_assert_eq!(
                    bits(&aggregate.effective_curve()),
                    bits(&zero_seeded),
                    "class {} of {:?}",
                    class,
                    policy
                );
            }
        }
    }
}
