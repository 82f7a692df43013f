//! Reduce-tree degree selection (§3.4.2, Eq. 1, and Appendix B of the paper).
//!
//! Reducing `n` objects of size `S` over links with one-way latency `L` and per-node
//! bandwidth `B` using a `d`-ary tree costs approximately
//!
//! ```text
//! T(1) = n·L + S/B                  (a chain; pipelining pays the payload only once)
//! T(d) = L·log_d(n) + d·S/B         (1 < d < n)
//! T(n) = L + n·S/B                  (a star rooted at the receiver)
//! ```
//!
//! The paper restricts the candidate set to `{1, 2, n}` because those already cover the
//! optimum across the sizes it evaluates (§4); a reduce coordinator chooses from
//! [`DEGREE_CANDIDATES`] with [`DegreeModel::paper_testbed`]. The Appendix-B ablation
//! sweeps other degrees by forcing one per reduce (`ClientOp::Reduce::degree`).

use crate::time::Duration;

/// A candidate degree: a concrete `d`, where `0` denotes `n` (star).
pub type DegreeCandidate = usize;

/// The degrees a reduce coordinator chooses from: chain, binary tree, star (§4).
pub const DEGREE_CANDIDATES: [DegreeCandidate; 3] = [1, 2, 0];

/// Network/topology parameters fed to the cost model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegreeModel {
    /// One-way message latency between two nodes.
    pub latency: Duration,
    /// Per-node NIC bandwidth in bytes/second (uplink == downlink, per the paper's
    /// uniform-network assumption, §6).
    pub bandwidth: f64,
}

impl DegreeModel {
    /// Model with the paper's testbed characteristics (10 Gbps, ~170 µs RPC latency);
    /// the one every reduce coordinator uses.
    pub fn paper_testbed() -> Self {
        DegreeModel { latency: Duration::from_micros(170), bandwidth: 1.25e9 }
    }

    /// Predicted completion time of reducing `n` objects of `object_size` bytes with a
    /// `d`-ary tree (`d == 0` or `d >= n` means a star).
    pub fn predict(&self, degree: DegreeCandidate, n: usize, object_size: u64) -> Duration {
        let n = n.max(1);
        let l = self.latency.as_secs_f64();
        let transfer = object_size as f64 / self.bandwidth;
        let d = if degree == 0 || degree >= n { n } else { degree };
        let secs = if n == 1 {
            // A single object: the "reduce" is a no-op plus one transfer to the caller.
            l + transfer
        } else if d == 1 {
            n as f64 * l + transfer
        } else if d >= n {
            l + n as f64 * transfer
        } else {
            let depth = (n as f64).ln() / (d as f64).ln();
            l * depth + d as f64 * transfer
        };
        Duration::from_secs_f64(secs)
    }

    /// Choose the candidate with the lowest predicted completion time. Candidates use
    /// `0` to denote `n`; the returned value is the *resolved* degree (so `n`, not 0).
    /// Ties favour the earlier candidate, matching the paper's preference order
    /// `{1, 2, n}`.
    pub fn choose(&self, candidates: &[DegreeCandidate], n: usize, object_size: u64) -> usize {
        let n = n.max(1);
        let mut best: Option<(usize, Duration)> = None;
        for &c in candidates {
            let resolved = if c == 0 || c >= n { n } else { c };
            let t = self.predict(c, n, object_size);
            match best {
                Some((_, bt)) if t >= bt => {}
                _ => best = Some((resolved, t)),
            }
        }
        best.map(|(d, _)| d).unwrap_or(n).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KB: u64 = 1024;
    const MB: u64 = 1024 * 1024;

    fn model() -> DegreeModel {
        DegreeModel::paper_testbed()
    }

    #[test]
    fn small_objects_prefer_star() {
        // 4 KB over 16 nodes: latency dominates, so the star (d = n) wins (Appendix B).
        let d = model().choose(&[1, 2, 0], 16, 4 * KB);
        assert_eq!(d, 16);
    }

    #[test]
    fn large_objects_prefer_chain() {
        // 32 MB over 16 nodes: bandwidth dominates, so the chain (d = 1) wins.
        let d = model().choose(&[1, 2, 0], 16, 32 * MB);
        assert_eq!(d, 1);
    }

    #[test]
    fn medium_objects_can_prefer_binary_tree() {
        // Around a few MB with many participants the binary tree can win: latency term
        // of the chain (n·L) exceeds the extra bandwidth term of d = 2.
        let m = DegreeModel { latency: Duration::from_micros(500), bandwidth: 1.25e9 };
        let d = m.choose(&[1, 2, 0], 64, 4 * MB);
        assert_eq!(d, 2);
    }

    #[test]
    fn prediction_matches_formula() {
        let m = DegreeModel { latency: Duration::from_millis(1), bandwidth: 1e9 };
        let n = 8;
        let s = 100 * MB;
        let chain = m.predict(1, n, s).as_secs_f64();
        assert!((chain - (8.0 * 0.001 + s as f64 / 1e9)).abs() < 1e-6);
        let star = m.predict(0, n, s).as_secs_f64();
        assert!((star - (0.001 + 8.0 * s as f64 / 1e9)).abs() < 1e-6);
        let binary = m.predict(2, n, s).as_secs_f64();
        assert!((binary - (0.001 * 3.0 + 2.0 * s as f64 / 1e9)).abs() < 1e-6);
    }

    #[test]
    fn single_object_degenerate_case() {
        let d = model().choose(&[1, 2, 0], 1, MB);
        assert_eq!(d, 1);
        assert!(model().predict(2, 1, MB) > Duration::ZERO);
    }

    #[test]
    fn choose_never_returns_zero() {
        for n in 1..20 {
            for size in [1u64, KB, MB, 64 * MB] {
                let d = model().choose(&[1, 2, 0], n, size);
                assert!(d >= 1 && d <= n.max(1));
            }
        }
    }
}
