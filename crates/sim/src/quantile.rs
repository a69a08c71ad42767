//! Streaming quantile estimation with the P² algorithm.
//!
//! Mean response time is the paper's objective, but real deployments (the
//! ML-inference example in Section 1.3) care about tails. Storing every
//! response time of a 10⁷-departure run just to read P99 is wasteful; the
//! P² algorithm (Jain & Chlamtac, CACM 1985) maintains a five-marker
//! parabolic approximation of the quantile in O(1) space and O(1) time per
//! observation, accurate to a fraction of a percent for smooth
//! distributions.

/// Streaming estimator of a single quantile `p ∈ (0, 1)`.
///
/// Equality compares the full marker state bit for bit — two estimators
/// are equal exactly when they observed the same values in the same
/// order (the P² update is order-dependent, which is also why sketches
/// from different shards cannot be merged; merged quantiles come from
/// the mergeable histograms in `eirs_obs`).
#[derive(Debug, Clone, PartialEq)]
pub struct P2Quantile {
    p: f64,
    /// Marker heights (estimates of the quantile curve).
    q: [f64; 5],
    /// Marker positions (1-based ranks).
    n: [f64; 5],
    /// Desired marker positions.
    np: [f64; 5],
    /// Desired position increments per observation.
    dn: [f64; 5],
    count: u64,
    /// First five observations, before the markers initialize.
    warmup: Vec<f64>,
}

impl P2Quantile {
    /// An estimator for quantile `p` (e.g. `0.99` for P99).
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "quantile must be in (0,1), got {p}");
        Self {
            p,
            q: [0.0; 5],
            n: [1.0, 2.0, 3.0, 4.0, 5.0],
            np: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            dn: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            count: 0,
            warmup: Vec::with_capacity(5),
        }
    }

    /// The tracked quantile parameter.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        if self.count <= 5 {
            self.warmup.push(x);
            if self.count == 5 {
                self.warmup
                    .sort_by(|a, b| a.partial_cmp(b).expect("finite observations"));
                for (i, &v) in self.warmup.iter().enumerate() {
                    self.q[i] = v;
                }
            }
            return;
        }

        // Locate the cell containing x and update extreme markers.
        let kcell = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x < self.q[1] {
            0
        } else if x < self.q[2] {
            1
        } else if x < self.q[3] {
            2
        } else if x <= self.q[4] {
            3
        } else {
            self.q[4] = x;
            3
        };

        for marker in self.n.iter_mut().skip(kcell + 1) {
            *marker += 1.0;
        }
        for (npi, dni) in self.np.iter_mut().zip(&self.dn) {
            *npi += dni;
        }

        // Adjust the three interior markers with parabolic interpolation.
        for i in 1..4 {
            let d = self.np[i] - self.n[i];
            if (d >= 1.0 && self.n[i + 1] - self.n[i] > 1.0)
                || (d <= -1.0 && self.n[i - 1] - self.n[i] < -1.0)
            {
                let d = d.signum();
                let qp = self.parabolic(i, d);
                self.q[i] = if self.q[i - 1] < qp && qp < self.q[i + 1] {
                    qp
                } else {
                    self.linear(i, d)
                };
                self.n[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (qm, q0, qp) = (self.q[i - 1], self.q[i], self.q[i + 1]);
        let (nm, n0, np) = (self.n[i - 1], self.n[i], self.n[i + 1]);
        q0 + d / (np - nm)
            * ((n0 - nm + d) * (qp - q0) / (np - n0) + (np - n0 - d) * (q0 - qm) / (n0 - nm))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.q[i] + d * (self.q[j] - self.q[i]) / (self.n[j] - self.n[i])
    }

    /// The current quantile estimate. With fewer than five observations the
    /// exact empirical quantile of the warm-up buffer is returned.
    pub fn estimate(&self) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        if self.count < 5 {
            let mut buf = self.warmup.clone();
            buf.sort_by(|a, b| a.partial_cmp(b).expect("finite observations"));
            let rank = (self.p * (buf.len() as f64 - 1.0)).round() as usize;
            return buf[rank.min(buf.len() - 1)];
        }
        self.q[2]
    }
}

/// A bundle of the quantiles operators usually watch.
#[derive(Debug, Clone, PartialEq)]
pub struct TailStats {
    p50: P2Quantile,
    p95: P2Quantile,
    p99: P2Quantile,
}

impl TailStats {
    /// Fresh P50/P95/P99 trackers.
    pub fn new() -> Self {
        Self {
            p50: P2Quantile::new(0.5),
            p95: P2Quantile::new(0.95),
            p99: P2Quantile::new(0.99),
        }
    }

    /// Adds one observation to all trackers.
    pub fn push(&mut self, x: f64) {
        self.p50.push(x);
        self.p95.push(x);
        self.p99.push(x);
    }

    /// `(P50, P95, P99)` estimates.
    pub fn estimates(&self) -> (f64, f64, f64) {
        (
            self.p50.estimate(),
            self.p95.estimate(),
            self.p99.estimate(),
        )
    }

    /// Observations seen.
    pub fn count(&self) -> u64 {
        self.p50.count()
    }
}

impl Default for TailStats {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn exact_quantile(sorted: &[f64], p: f64) -> f64 {
        let rank = (p * (sorted.len() as f64 - 1.0)).round() as usize;
        sorted[rank]
    }

    #[test]
    fn uniform_quantiles_are_accurate() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut est = P2Quantile::new(0.5);
        let mut all = Vec::new();
        for _ in 0..100_000 {
            let x: f64 = rng.random();
            est.push(x);
            all.push(x);
        }
        all.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let exact = exact_quantile(&all, 0.5);
        assert!(
            (est.estimate() - exact).abs() < 0.01,
            "{} vs {exact}",
            est.estimate()
        );
    }

    #[test]
    fn exponential_p99_is_accurate() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut est = P2Quantile::new(0.99);
        let mut all = Vec::new();
        for _ in 0..200_000 {
            let u: f64 = rng.random();
            let x = -(1.0 - u).ln();
            est.push(x);
            all.push(x);
        }
        all.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let exact = exact_quantile(&all, 0.99);
        // Theoretical P99 of Exp(1) is ln(100) ≈ 4.605.
        assert!(
            (est.estimate() - exact).abs() / exact < 0.05,
            "{} vs {exact}",
            est.estimate()
        );
    }

    #[test]
    fn small_samples_fall_back_to_exact() {
        let mut est = P2Quantile::new(0.5);
        est.push(3.0);
        est.push(1.0);
        est.push(2.0);
        assert_eq!(est.estimate(), 2.0);
    }

    #[test]
    fn empty_estimator_is_nan() {
        assert!(P2Quantile::new(0.9).estimate().is_nan());
    }

    #[test]
    fn estimates_are_monotone_across_p() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut tails = TailStats::new();
        for _ in 0..50_000 {
            let u: f64 = rng.random();
            tails.push(-(1.0 - u).ln() * 2.0);
        }
        let (p50, p95, p99) = tails.estimates();
        assert!(p50 < p95 && p95 < p99, "({p50}, {p95}, {p99})");
        assert_eq!(tails.count(), 50_000);
    }

    #[test]
    fn constant_stream_converges_to_the_constant() {
        let mut est = P2Quantile::new(0.95);
        for _ in 0..100 {
            est.push(7.0);
        }
        assert!((est.estimate() - 7.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "quantile must be in (0,1)")]
    fn rejects_out_of_range_p() {
        P2Quantile::new(1.0);
    }
}
