//! Delta-debugging shrinker: minimize a failing case.
//!
//! Given a case whose execution violates an oracle, produce the smallest
//! case — fewest clauses, then shortest horizon — that still violates an
//! oracle of the *same category* (the coarse label before the first `:` in
//! the violation message, e.g. `"re-probe backoff exceeds cap"`). Keeping
//! the category rather than the exact message lets the violation move in
//! time as clauses disappear without letting the shrink wander onto an
//! unrelated failure.
//!
//! The algorithm is greedy ddmin to a fixpoint: repeatedly try removing
//! each clause (first to last) and keep any removal that preserves the
//! violation; then walk the horizon down to the earliest whole second past
//! the violation that still reproduces it. Every step is a pure function
//! of the input case, so the same failing case always shrinks to the
//! byte-identical minimal repro — the property the determinism tests pin.

use tcpsim::TcpConfig;

use crate::case::ChaosCase;
use crate::run::{run_case_with, Verdict};

/// A minimized failing case plus bookkeeping about the search.
#[derive(Debug, Clone)]
pub struct Shrunk {
    /// The minimal case (replay this).
    pub case: ChaosCase,
    /// Verdict of the minimal case's execution.
    pub verdict: Verdict,
    /// Clause count before shrinking.
    pub original_clauses: usize,
    /// Case executions spent searching.
    pub executions: u32,
}

/// Does `v` still exhibit a violation of `category`?
fn still_fails(v: &Verdict, category: &str) -> bool {
    v.violations
        .iter()
        .any(|viol| viol.what.split(':').next().unwrap_or(&viol.what) == category)
}

/// Shrink `case` (whose run under `tcp` must violate an oracle) to a
/// minimal reproduction. Returns `None` if the case does not actually fail.
pub fn shrink(case: &ChaosCase, tcp: TcpConfig) -> Option<Shrunk> {
    let mut executions = 1;
    let baseline = run_case_with(case, tcp);
    let category = baseline.category()?.to_string();

    let mut best = case.clone();
    let mut verdict = baseline;

    // Phase 1: drop clauses to a fixpoint.
    'outer: loop {
        for i in 0..best.clauses.len() {
            let mut candidate = best.clone();
            candidate.clauses.remove(i);
            let v = run_case_with(&candidate, tcp);
            executions += 1;
            if still_fails(&v, &category) {
                best = candidate;
                verdict = v;
                continue 'outer;
            }
        }
        break;
    }

    // Phase 2: walk the horizon down. The violation needs a little room
    // after it fires (end-of-run oracles fire *at* the horizon), so scan
    // whole-second horizons from just past the earliest matching violation
    // up to the current horizon and keep the first that reproduces.
    let t_first = verdict
        .violations
        .iter()
        .find(|v| v.what.split(':').next().unwrap_or(&v.what) == category)
        .map(|v| v.t.as_secs_f64())
        .unwrap_or(best.horizon_s);
    let mut h = t_first.floor() + 1.0;
    while h < best.horizon_s {
        let mut candidate = best.clone();
        candidate.horizon_s = h;
        let v = run_case_with(&candidate, tcp);
        executions += 1;
        if still_fails(&v, &category) {
            best = candidate;
            verdict = v;
            break;
        }
        h += 1.0;
    }

    Some(Shrunk {
        case: best,
        verdict,
        original_clauses: case.clauses.len(),
        executions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::Clause;
    use eventsim::SimDuration;

    /// A case that fails under a raised re-probe cap (the injected bug) and
    /// carries decoy clauses the shrinker must strip.
    fn failing_case() -> ChaosCase {
        ChaosCase {
            seed: 3,
            algorithm: "lia".to_string(),
            rate_mbps: [8.0, 8.0],
            delay_ms: [40.0, 40.0],
            horizon_s: 45.0,
            clauses: vec![
                Clause::LossBurst {
                    path: 1,
                    from_s: 2.0,
                    p: 0.1,
                    dur_s: 1.0,
                },
                Clause::Outage {
                    path: 0,
                    from_s: 5.0,
                    dur_s: 18.0,
                },
                Clause::RateStep {
                    path: 1,
                    at_s: 30.0,
                    rate_mbps: 4.0,
                },
                Clause::LatencyStep {
                    path: 1,
                    at_s: 31.0,
                    delay_ms: 15.0,
                },
            ],
        }
    }

    fn buggy_tcp() -> TcpConfig {
        TcpConfig {
            reprobe_max: SimDuration::from_secs(16),
            ..TcpConfig::default()
        }
    }

    #[test]
    fn shrinks_to_the_single_guilty_clause() {
        let shrunk = shrink(&failing_case(), buggy_tcp()).expect("case must fail");
        assert_eq!(
            shrunk.case.clauses.len(),
            1,
            "only the long outage is needed: {:?}",
            shrunk.case.clauses
        );
        assert_eq!(shrunk.case.clauses[0].kind(), "outage");
        assert!(shrunk.case.horizon_s < 45.0, "horizon was not shrunk");
        assert_eq!(
            shrunk.verdict.category(),
            Some("re-probe backoff exceeds cap")
        );
        assert_eq!(shrunk.original_clauses, 4);
    }

    #[test]
    fn shrinking_is_deterministic() {
        let a = shrink(&failing_case(), buggy_tcp()).expect("fails");
        let b = shrink(&failing_case(), buggy_tcp()).expect("fails");
        assert_eq!(a.case, b.case);
        assert_eq!(
            a.case.to_json().render_pretty(),
            b.case.to_json().render_pretty(),
            "minimal repro must serialize byte-identically"
        );
        assert_eq!(a.verdict.digest, b.verdict.digest);
        assert_eq!(a.executions, b.executions);
    }

    #[test]
    fn clean_case_does_not_shrink() {
        let mut case = failing_case();
        case.clauses.remove(1); // drop the guilty outage
        assert!(shrink(&case, buggy_tcp()).is_none());
    }
}
