//! Deterministic open-loop arrival process: exponential (Poisson-process)
//! inter-arrival times sampled by inverse CDF, in **pure integer math** so
//! the request trace is byte-identical on every host.
//!
//! The inverse CDF of the exponential is `t = -ln(U) * mean` for uniform
//! `U` in (0, 1]. We compute `-log2(U)` in Q32.32 fixed point — integer
//! part from the leading-zero count, 32 fractional bits by the classic
//! iterated-squaring digit recurrence — and scale by `ln 2` in Q32.32.
//! No floats anywhere, so there is no host-dependent rounding to leak
//! into the trace.

use sst_mem::Cycle;
use sst_prng::Prng;

/// `ln 2` in Q32.32: `round(0.6931471805599453 * 2^32)`.
const LN2_Q32: u64 = 2_977_044_472;

/// `-log2(u)` in Q32.32 for `u = (bits + 1) / 2^64` (so `u` is uniform on
/// (0, 1] and the log is finite). Exact integer part; 32 fractional bits
/// computed by squaring: `log2(x)`'s next binary digit is 1 iff `x^2 >= 2`.
fn neg_log2_q32(bits: u64) -> u64 {
    if bits == u64::MAX {
        return 0; // u = 1 exactly
    }
    let v = bits + 1; // numerator of u over 2^64; v >= 1
    let lz = v.leading_zeros() as u64;
    let msb = 63 - lz; // log2(v) integer part
                       // Normalized mantissa m/2^63 in [1, 2).
    let mut m = v << lz;
    let mut frac: u64 = 0;
    for _ in 0..32 {
        // x <- x^2; digit is the resulting integer bit.
        let sq = ((m as u128) * (m as u128)) >> 63;
        frac <<= 1;
        if sq >= 1u128 << 64 {
            frac |= 1;
            m = (sq >> 1) as u64;
        } else {
            m = sq as u64;
        }
    }
    // -log2(v / 2^64) = 64 - log2(v).
    (64u64 << 32) - ((msb << 32) | frac)
}

/// One exponential sample with the given mean, in cycles (floor-rounded;
/// the mean of the generated stream converges to `mean_interarrival` to
/// within the sub-cycle truncation).
fn exp_sample(prng: &mut Prng, mean_interarrival: u64) -> u64 {
    let nl2 = neg_log2_q32(prng.next_u64());
    // nl2 (Q32.32) * LN2_Q32 (Q32.32) = -ln(u) in Q64.64; times the mean,
    // then drop the 64 fractional bits. Max ~2^38 * 2^31.5 * mean fits
    // u128 for any plausible mean.
    (((nl2 as u128) * (LN2_Q32 as u128) * (mean_interarrival as u128)) >> 64) as u64
}

/// The full request trace: `count` cumulative arrival cycles of a Poisson
/// process with the given mean inter-arrival time. Deterministic in
/// `seed` alone — independent of host, thread count, and batching.
pub fn arrival_cycles(seed: u64, mean_interarrival: u64, count: u64) -> Vec<Cycle> {
    let mut prng = Prng::seed_from_u64(seed);
    let mut now: Cycle = 0;
    let mut out = Vec::with_capacity(count as usize);
    for _ in 0..count {
        now += exp_sample(&mut prng, mean_interarrival);
        out.push(now);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neg_log2_is_exact_on_powers_of_two() {
        // u = 2^-k  =>  -log2(u) = k exactly.
        for k in 1..40u64 {
            let bits = (1u64 << (64 - k)) - 1; // v = 2^(64-k)
            assert_eq!(neg_log2_q32(bits), k << 32, "k={k}");
        }
        assert_eq!(neg_log2_q32(u64::MAX), 0);
    }

    #[test]
    fn neg_log2_is_monotone_nonincreasing_in_u() {
        let mut prev = u64::MAX;
        for bits in (0..64u64).map(|k| (1u64 << k).wrapping_sub(1)) {
            let nl = neg_log2_q32(bits);
            assert!(nl <= prev, "bits={bits}");
            prev = nl;
        }
    }

    #[test]
    fn trace_is_deterministic_and_independent_of_batching() {
        let a = arrival_cycles(42, 1000, 500);
        let b = arrival_cycles(42, 1000, 500);
        assert_eq!(a, b);
        // A longer trace extends, never perturbs, a shorter one.
        let c = arrival_cycles(42, 1000, 200);
        assert_eq!(&a[..200], &c[..]);
        assert_ne!(a, arrival_cycles(43, 1000, 500));
    }

    #[test]
    fn empirical_mean_matches_requested_mean() {
        // Truncation costs ~0.5 cycles/sample; allow 3% + that.
        for mean in [100u64, 1000, 25_000] {
            let n = 40_000u64;
            let trace = arrival_cycles(7, mean, n);
            let total = *trace.last().unwrap();
            let emp = total / n;
            let lo = mean - mean / 25 - 1;
            let hi = mean + mean / 25 + 1;
            assert!(
                (lo..=hi).contains(&emp),
                "mean {mean}: empirical {emp} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn arrivals_are_nondecreasing() {
        let trace = arrival_cycles(9, 50, 2_000);
        for w in trace.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }
}
