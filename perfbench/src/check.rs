//! Output checks: a result digest over each unit's public outputs, and the
//! goldens recorded per workload, seed and unit in `goldens.txt`.
//!
//! A unit (one simulation of the workload, see [`crate::unit_seed`]) is
//! correct when
//!
//! * its result digest equals the golden recorded for its workload, seed and
//!   unit, when one is recorded;
//! * in the traced run, the traced unit's digest equals the untraced one's;
//! * `Simulation::check_packet_conservation` holds (packet workloads);
//! * every planned flow was started, and (on `dc_churn`) exactly the
//!   connections not yet retired are still installed.
//!
//! The packet digest folds each connection's `FlowStats`, the events
//! dispatched and every queue's counters; the flow digest folds the
//! started/completed/peak-active flow counts, the events and recomputes,
//! each resident flow's delivered packets and every link's loss
//! probability.

use eventsim::SimDuration;
use netsim::{QueueConfig, QueueId, Simulation};
use tcpsim::FlowHandle;
use trace::Digest64;

use crate::Counts;

/// FNV-1a digest of a run's outputs.
#[derive(Debug, Clone, Default)]
pub struct ResultDigest(Digest64);

impl ResultDigest {
    /// Absorb an integer.
    pub fn u64(&mut self, v: u64) {
        self.0.update(&v.to_le_bytes());
    }

    /// Absorb a float bit-exactly.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// Fold one connection's observable state into `d` and its ACK/timeout
/// totals into `counts`.
pub fn fold_flow(d: &mut ResultDigest, counts: &mut Counts, handle: &FlowHandle) {
    handle.read(|s| {
        d.u64(s.delivered_packets);
        d.u64(s.app_delivered_packets);
        d.u64(s.max_reorder_buffer);
        d.u64(s.started_at.map_or(u64::MAX, |t| t.as_nanos()));
        d.u64(s.completed_at.map_or(u64::MAX, |t| t.as_nanos()));
        for sf in &s.subflows {
            d.f64(sf.cwnd);
            d.f64(sf.srtt);
            d.u64(sf.acked_packets);
            d.u64(u64::from(sf.loss_events));
            d.u64(u64::from(sf.timeouts));
            d.u64(u64::from(sf.failures));
            d.u64(u64::from(sf.reprobes));
            counts.acked_pkts += sf.acked_packets;
            counts.timeouts += u64::from(sf.timeouts);
        }
    });
}

/// The id of the first queue of any simulation. Queue ids are dense
/// indices handed out from zero, and `QueueId` offers no constructor, so
/// the first id is taken from a throwaway one-queue simulation.
fn first_queue() -> QueueId {
    Simulation::new(0).add_queue(QueueConfig::drop_tail(1e6, SimDuration::ZERO, 1))
}

/// Fold the event count and every queue's counters into `d`, and the
/// engine's counters into `counts`.
pub fn fold_engine(d: &mut ResultDigest, counts: &mut Counts, sim: &Simulation) {
    d.u64(sim.events_processed());
    let q0 = first_queue();
    for i in 0..sim.queue_count() {
        let s = sim.queue_stats(q0.offset(i));
        for v in [
            s.arrived,
            s.dropped,
            s.marked,
            s.forwarded,
            s.forwarded_bytes,
            s.busy_ns,
        ] {
            d.u64(v);
        }
        counts.arrived += s.arrived;
        counts.drops += s.dropped;
        counts.marks += s.marked;
    }
    let ls = sim.loop_stats();
    counts.events += sim.events_processed();
    counts.peak_heap = counts.peak_heap.max(ls.peak_heap as u64);
    counts.peak_timers = counts.peak_timers.max(ls.peak_timers as u64);
    counts.stale_drains += ls.stale_timer_drains;
    counts.pkts += ls.arena_inserts;
}

/// A recorded golden: workload, seed, unit, digest.
type Golden<'a> = (&'a str, u64, u64, u64);

/// The golden digest recorded for unit `unit` of `workload` at `seed`, if
/// any.
pub fn golden(workload: &str, seed: u64, unit: u64) -> Option<u64> {
    parse_goldens(GOLDENS)
        .into_iter()
        .find(|g| g.0 == workload && g.1 == seed && g.2 == unit)
        .map(|g| g.3)
}

const GOLDENS: &str = include_str!("../goldens.txt");

/// Parse `workload seed unit digest-hex` lines; `#` starts a comment.
fn parse_goldens(text: &str) -> Vec<Golden<'_>> {
    text.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f.len(), 4, "goldens.txt: bad line {l:?}");
            let seed = f[1].parse().expect("goldens.txt: seed is an integer");
            let unit = f[2].parse().expect("goldens.txt: unit is an integer");
            let digest = u64::from_str_radix(f[3], 16).expect("goldens.txt: digest is hex");
            (f[0], seed, unit, digest)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goldens_parse() {
        let g = parse_goldens("# c\npaper_isp 3 1 00ff # note\n\n");
        assert_eq!(g, vec![("paper_isp", 3, 1, 0xff)]);
    }

    #[test]
    fn every_workload_has_goldens_for_at_least_two_seeds() {
        for w in crate::Workload::ALL {
            let mut seeds: Vec<u64> = parse_goldens(GOLDENS)
                .into_iter()
                .filter(|g| g.0 == w.name())
                .map(|g| g.1)
                .collect();
            seeds.dedup();
            assert!(
                seeds.len() >= 2,
                "{}: goldens for seeds {seeds:?}",
                w.name()
            );
        }
    }

    #[test]
    fn first_queue_is_index_zero() {
        assert_eq!(first_queue().index(), 0);
    }
}
