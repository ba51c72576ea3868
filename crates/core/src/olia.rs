//! OLIA — the opportunistic linked-increases algorithm (the paper's
//! contribution, §IV).
//!
//! Per ACK on path `r`, the window grows by (Eq. 5)
//!
//! ```text
//!      w_r / rtt_r²           α_r
//!   ───────────────────  +   ─────
//!   (Σ_p w_p / rtt_p)²        w_r
//! ```
//!
//! The first term is a TCP-compatible adaptation of Kelly and Voice's
//! algorithm and provides Pareto-optimality. The second term moves window
//! between paths: α_r is positive on *presumably best* paths that do not yet
//! hold the largest window, negative on maximum-window paths when a better
//! path exists, and zero otherwise (Eq. 6). Σ_r α_r = 0, so α only
//! redistributes growth; it never adds aggregate aggressiveness.
//!
//! Path quality is estimated from ℓ_r, the number of bytes transmitted
//! between losses: `1/ℓ_r` estimates the loss probability, so
//! `ℓ_r / rtt_r²` ranks paths exactly as `√(2ℓ_r)/rtt_r` (the rate a regular
//! TCP would achieve) does.

use crate::cc::MultipathCc;
use crate::path::{num_established, total_rate, PathView};

/// Relative tolerance for membership in the argmax sets `M(t)` and `B(t)`.
///
/// Windows and ℓ values are continuous quantities here (the kernel works in
/// integers); a small relative band makes the symmetric case (identical
/// paths) behave like the kernel's integer ties instead of flapping on
/// 1-ulp differences.
const ARGMAX_REL_TOL: f64 = 1e-9;

/// The opportunistic linked-increases algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct Olia;

impl Olia {
    /// Create an OLIA controller.
    pub fn new() -> Self {
        Olia
    }

    /// The Kelly–Voice-derived first term of Eq. (5) for path `idx`.
    pub fn first_term(paths: &[PathView], idx: usize) -> f64 {
        let denom = total_rate(paths);
        if denom <= 0.0 {
            return 0.0;
        }
        paths[idx].rate_over_rtt() / (denom * denom)
    }
}

/// Indices of paths in `M(t)`: established paths whose window is within
/// tolerance of the maximum window (Eq. 3).
pub fn max_window_paths(paths: &[PathView]) -> Vec<usize> {
    argmax_set(paths, |p| p.cwnd)
}

/// Indices of paths in `B(t)`: established paths whose quality
/// `ℓ_p / rtt_p²` is within tolerance of the maximum (Eq. 4).
pub fn best_paths(paths: &[PathView]) -> Vec<usize> {
    argmax_set(paths, |p| p.quality())
}

fn argmax_set(paths: &[PathView], key: impl Fn(&PathView) -> f64) -> Vec<usize> {
    let Some(cut) = argmax_cutoff(paths, &key) else {
        return Vec::new();
    };
    paths
        .iter()
        .enumerate()
        .filter(|(_, p)| p.established && key(p) >= cut)
        .map(|(i, _)| i)
        .collect()
}

/// Membership cutoff for the argmax sets: a path with `key(p) >= cutoff`
/// (and established) is in the set. `None` when no established path exists.
fn argmax_cutoff(paths: &[PathView], key: impl Fn(&PathView) -> f64) -> Option<f64> {
    let max = paths
        .iter()
        .filter(|p| p.established)
        .map(&key)
        .fold(f64::NEG_INFINITY, f64::max);
    if !max.is_finite() {
        return None;
    }
    Some(max - ARGMAX_REL_TOL * max.abs().max(1.0))
}

/// α_r for a single path (Eq. 6) without materializing the sets — the
/// allocation-free form of `alpha_values(paths)[idx]` used on the per-ACK
/// hot path. Agrees bit-for-bit with the set-based construction: cutoffs,
/// counts, and the final divisions are computed exactly as above.
pub fn alpha_for(paths: &[PathView], idx: usize) -> f64 {
    let n = num_established(paths);
    if n == 0 {
        return 0.0;
    }
    let w_cut = argmax_cutoff(paths, |p| p.cwnd);
    let q_cut = argmax_cutoff(paths, |p| p.quality());
    let mut m_count = 0usize;
    let mut bm_count = 0usize;
    let mut idx_in_m = false;
    let mut idx_in_bm = false;
    for (i, p) in paths.iter().enumerate() {
        if !p.established {
            continue;
        }
        let in_m = w_cut.is_some_and(|c| p.cwnd >= c);
        if in_m {
            m_count += 1;
            idx_in_m |= i == idx;
        } else if q_cut.is_some_and(|c| p.quality() >= c) {
            bm_count += 1;
            idx_in_bm |= i == idx;
        }
    }
    if bm_count == 0 {
        0.0
    } else if idx_in_bm {
        1.0 / (n as f64 * bm_count as f64)
    } else if idx_in_m {
        -1.0 / (n as f64 * m_count as f64)
    } else {
        0.0
    }
}

/// Compute α_r for every path per Eq. (6).
///
/// * `B \ M ≠ ∅` (some presumably-best path lacks the max window):
///   `α_r = 1/(|R_u|·|B\M|)` for `r ∈ B\M`, `α_r = −1/(|R_u|·|M|)` for
///   `r ∈ M`, `0` otherwise.
/// * `B \ M = ∅`: all α are zero — the best paths already hold the largest
///   windows, so no traffic needs re-forwarding.
///
/// The returned vector always sums to zero (up to rounding) and has one
/// entry per input path (zero for unestablished paths).
pub fn alpha_values(paths: &[PathView]) -> Vec<f64> {
    let n = num_established(paths);
    let mut alpha = vec![0.0; paths.len()];
    if n == 0 {
        return alpha;
    }
    let m_set = max_window_paths(paths);
    let b_set = best_paths(paths);
    let b_minus_m: Vec<usize> = b_set
        .iter()
        .copied()
        .filter(|i| !m_set.contains(i))
        .collect();
    if b_minus_m.is_empty() {
        return alpha;
    }
    let up = 1.0 / (n as f64 * b_minus_m.len() as f64);
    let down = -1.0 / (n as f64 * m_set.len() as f64);
    for &i in &b_minus_m {
        alpha[i] = up;
    }
    for &i in &m_set {
        alpha[i] = down;
    }
    alpha
}

impl MultipathCc for Olia {
    fn name(&self) -> &'static str {
        "olia"
    }

    fn on_ack(&mut self, paths: &[PathView], idx: usize) -> f64 {
        let me = &paths[idx];
        debug_assert!(me.is_valid());
        if !me.established || me.cwnd <= 0.0 {
            return 0.0;
        }
        let alpha = alpha_for(paths, idx);
        Olia::first_term(paths, idx) + alpha / me.cwnd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(cwnd: f64, ell: f64) -> PathView {
        PathView {
            cwnd,
            rtt: 0.15,
            ell,
            established: true,
        }
    }

    #[test]
    fn single_path_reduces_to_reno() {
        // One path: first term = 1/w, α = 0 (B = M = {0}).
        let mut olia = Olia::new();
        let paths = [p(10.0, 100.0)];
        assert!((olia.on_ack(&paths, 0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn alpha_zero_when_best_has_max_window() {
        // Path 0 is both best (largest ℓ) and has the max window: B\M = ∅.
        let paths = [p(20.0, 500.0), p(5.0, 50.0)];
        assert_eq!(alpha_values(&paths), vec![0.0, 0.0]);
    }

    #[test]
    fn alpha_moves_window_toward_underused_best_path() {
        // Path 1 is best (largest ℓ) but path 0 holds the max window:
        // α_1 = +1/(2·1), α_0 = −1/(2·1).
        let paths = [p(20.0, 50.0), p(5.0, 500.0)];
        let a = alpha_values(&paths);
        assert!((a[1] - 0.5).abs() < 1e-12);
        assert!((a[0] + 0.5).abs() < 1e-12);
        assert!((a.iter().sum::<f64>()).abs() < 1e-12);
    }

    #[test]
    fn alpha_splits_among_multiple_best_paths() {
        // Three paths; paths 1 and 2 tie for best quality, path 0 holds the
        // max window: α_1 = α_2 = 1/(3·2), α_0 = −1/(3·1).
        let paths = [p(30.0, 10.0), p(5.0, 600.0), p(7.0, 600.0)];
        let a = alpha_values(&paths);
        assert!((a[1] - 1.0 / 6.0).abs() < 1e-12);
        assert!((a[2] - 1.0 / 6.0).abs() < 1e-12);
        assert!((a[0] + 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn symmetric_paths_have_zero_alpha() {
        // Identical paths: every path is in both B and M, so B\M = ∅ and no
        // window is re-forwarded — OLIA is non-flappy in the symmetric
        // scenario of Fig. 6(a)/Fig. 7.
        let paths = [p(10.0, 100.0), p(10.0, 100.0)];
        assert_eq!(alpha_values(&paths), vec![0.0, 0.0]);
    }

    #[test]
    fn near_ties_within_tolerance_count_as_ties() {
        // 1-ulp-ish differences must not create a spurious B\M.
        let w = 10.0;
        let paths = [p(w, 100.0), p(w * (1.0 + 1e-13), 100.0 * (1.0 - 1e-13))];
        assert_eq!(alpha_values(&paths), vec![0.0, 0.0]);
    }

    #[test]
    fn increase_matches_eq5_by_hand() {
        // Hand-computed Eq. (5): w = [4, 2], rtt = 0.15, ℓ = [9, 900].
        // Path 1 is best-not-max: α = [−1/2, 1/2].
        let paths = [p(4.0, 9.0), p(2.0, 900.0)];
        let denom = (4.0 / 0.15 + 2.0 / 0.15_f64).powi(2);
        let mut olia = Olia::new();
        let inc0 = olia.on_ack(&paths, 0);
        let inc1 = olia.on_ack(&paths, 1);
        assert!((inc0 - (4.0 / 0.0225 / denom - 0.5 / 4.0)).abs() < 1e-12);
        assert!((inc1 - (2.0 / 0.0225 / denom + 0.5 / 2.0)).abs() < 1e-12);
        // Net effect: congested max-window path can shrink, best path grows
        // faster — the re-forwarding behaviour of §IV-A.
        assert!(inc1 > inc0);
    }

    #[test]
    fn congested_path_gets_negative_increase() {
        // Asymmetric scenario of Fig. 8: the congested path holds the max
        // window but the other path is far better; OLIA drains it. The net
        // increase on the max-window path is negative when
        // α/w_r > w_r/rtt²/(Σw/rtt)², i.e. (Σw)²/w_r² > |R|·|M| — true here:
        // (9/5)² = 3.24 > 2.
        let paths = [p(5.0, 10.0), p(4.0, 2000.0)];
        let mut olia = Olia::new();
        assert!(olia.on_ack(&paths, 0) < 0.0);
        assert!(olia.on_ack(&paths, 1) > 0.0);
    }

    #[test]
    fn unestablished_paths_excluded_everywhere() {
        let mut paths = [p(10.0, 100.0), p(50.0, 5000.0)];
        paths[1].established = false;
        assert_eq!(max_window_paths(&paths), vec![0]);
        assert_eq!(best_paths(&paths), vec![0]);
        assert_eq!(alpha_values(&paths), vec![0.0, 0.0]);
        let mut olia = Olia::new();
        assert!((olia.on_ack(&paths, 0) - 0.1).abs() < 1e-12);
        assert_eq!(olia.on_ack(&paths, 1), 0.0);
    }

    #[test]
    fn no_paths_is_safe() {
        let paths: [PathView; 0] = [];
        assert!(alpha_values(&paths).is_empty());
        assert!(max_window_paths(&paths).is_empty());
    }

    #[test]
    fn fresh_paths_all_best() {
        // ℓ = 0 everywhere (no losses yet): every path ties for best.
        let paths = [p(1.0, 0.0), p(1.0, 0.0), p(1.0, 0.0)];
        assert_eq!(best_paths(&paths), vec![0, 1, 2]);
        assert_eq!(alpha_values(&paths), vec![0.0, 0.0, 0.0]);
    }

    proptest! {
        /// Σ_r α_r = 0 for arbitrary path states (Eq. 6's defining property).
        #[test]
        fn prop_alpha_sums_to_zero(
            ws in proptest::collection::vec(1.0_f64..100.0, 1..6),
            ells in proptest::collection::vec(0.0_f64..1e4, 1..6),
        ) {
            let n = ws.len().min(ells.len());
            let paths: Vec<PathView> =
                (0..n).map(|i| p(ws[i], ells[i])).collect();
            let a = alpha_values(&paths);
            prop_assert!(a.iter().sum::<f64>().abs() < 1e-9);
        }

        /// α is bounded by ±1/|R_u| elementwise.
        #[test]
        fn prop_alpha_bounded(
            ws in proptest::collection::vec(1.0_f64..100.0, 2..6),
            ells in proptest::collection::vec(0.0_f64..1e4, 2..6),
        ) {
            let n = ws.len().min(ells.len());
            let paths: Vec<PathView> =
                (0..n).map(|i| p(ws[i], ells[i])).collect();
            let bound = 1.0 / n as f64 + 1e-12;
            for a in alpha_values(&paths) {
                prop_assert!(a.abs() <= bound);
            }
        }

        /// The aggregate increase Σ_r w_r·Δ_r... more precisely: summing
        /// Eq. (5) across paths, the α parts cancel in the Σ α_r/w_r *scaled
        /// by w_r* sense used in the fluid model: Σ_r (α_r) = 0. Here we
        /// check the first terms alone never exceed regular-TCP growth of the
        /// total window when RTTs are equal: Σ_r first_term(r) = 1/Σw.
        #[test]
        fn prop_first_terms_sum_to_reno_on_total_window(
            ws in proptest::collection::vec(1.0_f64..100.0, 1..6),
        ) {
            let paths: Vec<PathView> = ws.iter().map(|&w| p(w, 1.0)).collect();
            let total: f64 = ws.iter().sum();
            let s: f64 = (0..paths.len())
                .map(|i| Olia::first_term(&paths, i))
                .sum();
            prop_assert!((s - 1.0 / total).abs() < 1e-9 / total);
        }

        /// The allocation-free per-path form agrees bit-for-bit with the
        /// set-based construction on every index.
        #[test]
        fn prop_alpha_for_matches_alpha_values(
            ws in proptest::collection::vec(1.0_f64..100.0, 1..6),
            ells in proptest::collection::vec(0.0_f64..1e4, 1..6),
            dead in proptest::collection::vec(0u8..2, 1..6),
        ) {
            let n = ws.len().min(ells.len()).min(dead.len());
            let paths: Vec<PathView> = (0..n)
                .map(|i| PathView { established: dead[i] == 0, ..p(ws[i], ells[i]) })
                .collect();
            let a = alpha_values(&paths);
            for (i, &ai) in a.iter().enumerate() {
                prop_assert_eq!(ai, alpha_for(&paths, i));
            }
        }

        /// B and M always contain at least one established path.
        #[test]
        fn prop_sets_nonempty(
            ws in proptest::collection::vec(1.0_f64..100.0, 1..6),
        ) {
            let paths: Vec<PathView> =
                ws.iter().enumerate().map(|(i, &w)| p(w, i as f64 * 3.0)).collect();
            prop_assert!(!max_window_paths(&paths).is_empty());
            prop_assert!(!best_paths(&paths).is_empty());
        }
    }
}
