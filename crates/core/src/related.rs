//! Related-work baselines discussed in §II: EWTCP and the semi-coupled
//! algorithm.
//!
//! * **EWTCP** (Honda et al. [20]): uncoupled TCP per subflow, but each
//!   subflow's increase is weighted by `a² = 1/n` so the *aggregate*
//!   aggressiveness of an `n`-path user matches one TCP. Equal windows on
//!   every path regardless of congestion — responsive and non-flappy but no
//!   congestion balancing at all.
//! * **Semi-coupled** (Wischik et al., the precursor design to LIA): per
//!   ACK on path `r`, increase `a/w_total` — the total window grows like one
//!   TCP, and each path's share is proportional to its ACK rate. Balances
//!   congestion partially; LIA refines it with the `max` numerator and the
//!   `1/w_r` cap.
//!
//! Both keep regular TCP's halving on loss.

use crate::cc::MultipathCc;
use crate::path::{num_established, PathView};

/// Equally-weighted TCP (EWTCP): per-ACK increase `1/(n·w_r)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ewtcp;

impl Ewtcp {
    /// Create an EWTCP controller.
    pub fn new() -> Self {
        Ewtcp
    }
}

impl MultipathCc for Ewtcp {
    fn name(&self) -> &'static str {
        "ewtcp"
    }

    fn on_ack(&mut self, paths: &[PathView], idx: usize) -> f64 {
        let me = &paths[idx];
        debug_assert!(me.is_valid());
        if !me.established || me.cwnd <= 0.0 {
            return 0.0;
        }
        let n = num_established(paths);
        if n == 0 {
            return 0.0;
        }
        1.0 / (n as f64 * me.cwnd)
    }
}

/// The semi-coupled algorithm: per-ACK increase `1/Σ_p w_p`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SemiCoupled;

impl SemiCoupled {
    /// Create a semi-coupled controller.
    pub fn new() -> Self {
        SemiCoupled
    }
}

impl MultipathCc for SemiCoupled {
    fn name(&self) -> &'static str {
        "semicoupled"
    }

    fn on_ack(&mut self, paths: &[PathView], idx: usize) -> f64 {
        let me = &paths[idx];
        debug_assert!(me.is_valid());
        if !me.established || me.cwnd <= 0.0 {
            return 0.0;
        }
        let total: f64 = paths.iter().filter(|p| p.established).map(|p| p.cwnd).sum();
        if total <= 0.0 {
            return 0.0;
        }
        1.0 / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(cwnd: f64) -> PathView {
        PathView {
            cwnd,
            rtt: 0.15,
            ell: 10.0,
            established: true,
        }
    }

    #[test]
    fn ewtcp_weights_by_path_count() {
        let mut e = Ewtcp::new();
        let one = [p(10.0)];
        let two = [p(10.0), p(10.0)];
        assert!((e.on_ack(&one, 0) - 0.1).abs() < 1e-12);
        assert!((e.on_ack(&two, 0) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn semicoupled_total_window_grows_like_one_tcp() {
        // Σ increase across paths per round = n paths · acks · 1/Σw; with
        // per-path ack counts proportional to w_r, total growth per RTT is
        // Σ_r w_r · (1/Σw) = 1 MSS — exactly Reno on the total window.
        let mut s = SemiCoupled::new();
        let paths = [p(6.0), p(4.0)];
        let per_ack = s.on_ack(&paths, 0);
        assert!((per_ack - 0.1).abs() < 1e-12);
        assert_eq!(per_ack, s.on_ack(&paths, 1));
        let growth_per_round = 6.0 * per_ack + 4.0 * per_ack;
        assert!((growth_per_round - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_path_both_reduce_to_reno() {
        let mut e = Ewtcp::new();
        let mut s = SemiCoupled::new();
        let one = [p(8.0)];
        assert!((e.on_ack(&one, 0) - 0.125).abs() < 1e-12);
        assert!((s.on_ack(&one, 0) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn unestablished_paths_ignored() {
        let mut e = Ewtcp::new();
        let mut s = SemiCoupled::new();
        let mut paths = [p(10.0), p(10.0)];
        paths[1].established = false;
        assert!((e.on_ack(&paths, 0) - 0.1).abs() < 1e-12);
        assert!((s.on_ack(&paths, 0) - 0.1).abs() < 1e-12);
        assert_eq!(e.on_ack(&paths, 1), 0.0);
        assert_eq!(s.on_ack(&paths, 1), 0.0);
    }

    proptest! {
        /// EWTCP's aggregate aggressiveness equals one TCP on each path's
        /// window scale; semi-coupled's equals one TCP on the total.
        #[test]
        fn prop_aggressiveness(
            ws in proptest::collection::vec(1.0_f64..100.0, 1..5),
        ) {
            let paths: Vec<PathView> = ws.iter().map(|&w| p(w)).collect();
            let total: f64 = ws.iter().sum();
            let mut e = Ewtcp::new();
            let mut s = SemiCoupled::new();
            let n = ws.len() as f64;
            for (i, &w) in ws.iter().enumerate() {
                prop_assert!((e.on_ack(&paths, i) - 1.0 / (n * w)).abs() < 1e-12);
                prop_assert!((s.on_ack(&paths, i) - 1.0 / total).abs() < 1e-12);
            }
        }
    }
}
