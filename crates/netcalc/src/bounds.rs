//! Worst-case delay, backlog and output bounds from arrival/service curves.

use crate::arrival::{ArrivalBound, TokenBucket};
use crate::minplus::{self, horizontal_deviation_into, vertical_deviation_into};
use crate::scratch::with_scratch;
use crate::service::{RateLatency, ServiceBound};
use crate::NcError;
use units::{DataSize, Duration};

/// The worst-case delay of a flow with arrival bound `alpha` through an
/// element offering service bound `beta`: the horizontal deviation
/// `h(α, β)`, rounded **up** to the next nanosecond.
///
/// For the token-bucket / rate-latency pair used throughout the paper this
/// equals the closed form `T + b / R`.  Runs the deviation kernel directly,
/// so it does not count as a min-plus operator call.
pub fn delay_bound<A: ArrivalBound + ?Sized, S: ServiceBound + ?Sized>(
    alpha: &A,
    beta: &S,
) -> Result<Duration, NcError> {
    let (alpha, beta) = (alpha.curve(), beta.curve());
    let h = with_scratch(|s| horizontal_deviation_into(&alpha, &beta, &mut s.candidates))?;
    Ok(Duration::from_secs_f64_ceil(h))
}

/// The worst-case backlog of a flow with arrival bound `alpha` through an
/// element offering service bound `beta`: the vertical deviation `v(α, β)`,
/// rounded **up** to the next bit.
///
/// For the token-bucket / rate-latency pair this equals `b + r·T`.  Like
/// [`delay_bound`], it runs the kernel uncounted.
pub fn backlog_bound<A: ArrivalBound + ?Sized, S: ServiceBound + ?Sized>(
    alpha: &A,
    beta: &S,
) -> Result<DataSize, NcError> {
    let (alpha, beta) = (alpha.curve(), beta.curve());
    let v = with_scratch(|s| vertical_deviation_into(&alpha, &beta, &mut s.candidates))?;
    Ok(DataSize::from_bits(v.ceil() as u64))
}

/// The arrival envelope of a token-bucket flow **after** it has traversed a
/// rate-latency server (min-plus deconvolution `α ⊘ β`): the rate is
/// unchanged and the burst grows to `b + r·T`.
///
/// This is how burstiness propagates from the shaped end system through the
/// switch to downstream elements.
pub fn output_burst(flow: &TokenBucket, service: &RateLatency) -> Result<TokenBucket, NcError> {
    let burst = minplus::output_burst_token_bucket(
        flow.burst().as_f64_bits(),
        flow.rate().as_f64_bps(),
        service.rate().as_f64_bps(),
        service.latency().as_secs_f64(),
    )?;
    Ok(TokenBucket::new(
        DataSize::from_bits(burst.ceil() as u64),
        flow.rate(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use units::DataRate;

    fn flow() -> TokenBucket {
        // 10_000 bits burst, 1 Mbps sustained.
        TokenBucket::new(DataSize::from_bits(10_000), DataRate::from_mbps(1))
    }

    fn server() -> RateLatency {
        RateLatency::new(DataRate::from_mbps(10), Duration::from_micros(16))
    }

    #[test]
    fn delay_bound_closed_form() {
        // T + b/R = 16 us + 10_000/10^7 s = 16 us + 1 ms.
        let d = delay_bound(&flow(), &server()).unwrap();
        assert_eq!(d, Duration::from_micros(1_016));
    }

    #[test]
    fn backlog_bound_closed_form() {
        // b + r·T = 10_000 + 10^6 · 16e-6 = 10_016 bits.
        let q = backlog_bound(&flow(), &server()).unwrap();
        assert_eq!(q, DataSize::from_bits(10_016));
    }

    #[test]
    fn output_burst_grows_by_rate_times_latency() {
        let out = output_burst(&flow(), &server()).unwrap();
        assert_eq!(out.burst(), DataSize::from_bits(10_016));
        assert_eq!(out.rate(), DataRate::from_mbps(1));
    }

    #[test]
    fn unstable_flow_is_rejected() {
        let fat = TokenBucket::new(DataSize::from_bits(1), DataRate::from_mbps(20));
        assert!(delay_bound(&fat, &server()).is_err());
        assert!(backlog_bound(&fat, &server()).is_err());
        assert!(output_burst(&fat, &server()).is_err());
    }

    #[test]
    fn zero_burst_flow_has_latency_only_delay() {
        let thin = TokenBucket::new(DataSize::ZERO, DataRate::from_kbps(1));
        let d = delay_bound(&thin, &server()).unwrap();
        assert_eq!(d, Duration::from_micros(16));
    }
}
