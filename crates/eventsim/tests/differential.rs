//! Differential property tests: the optimized event core (4-ary packed-key
//! [`EventQueue`] + generational [`TimerSlab`] with lazy cancellation)
//! against a deliberately naive reference implementation.
//!
//! The reference is a `std::collections::BinaryHeap` of `Reverse((time,
//! seq))` entries plus, for the timer model, a cancelled-ID set that is
//! filtered at pop — the textbook way to write a DES queue. Every interleaving
//! of schedules, cancellations, and pops must dispatch the *exact* same
//! `(time, id)` sequence from both sides, including FIFO ordering of
//! simultaneous events and the invisibility of cancelled timers. The time
//! range is kept tiny so collisions (ties) are common rather than incidental.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use eventsim::{EventQueue, SimDuration, TimerHandle, TimerSlab};
use proptest::prelude::*;

/// One step of the differential schedule/cancel/pop interleaving.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule an event `dt` nanoseconds from the current clock.
    Schedule(u64),
    /// Cancel the k-th (mod live count) still-armed timer.
    Cancel(u8),
    /// Pop and dispatch the next live event from both sides.
    Pop,
}

/// One side's dispatch as `(time ns, id)`, `None` once drained.
type Popped = Option<(u64, u64)>;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..50).prop_map(Op::Schedule),
        2 => any::<u8>().prop_map(Op::Cancel),
        3 => Just(Op::Pop),
    ]
}

/// Pop the optimized side until a live timer dispatches: cancelled handles
/// drain silently, exactly as `netsim`'s event loop treats them.
fn pop_optimized(q: &mut EventQueue<TimerHandle>, slab: &mut TimerSlab<u64>) -> Option<(u64, u64)> {
    while let Some((t, h)) = q.pop() {
        if let Some(id) = slab.claim(h) {
            return Some((t.as_nanos(), id));
        }
    }
    None
}

/// Pop the reference side: skip entries whose ID was cancelled.
fn pop_reference(
    heap: &mut BinaryHeap<Reverse<(u64, u64, u64)>>,
    cancelled: &mut BTreeSet<u64>,
) -> Option<(u64, u64)> {
    while let Some(Reverse((t, _seq, id))) = heap.pop() {
        if cancelled.remove(&id) {
            continue;
        }
        return Some((t, id));
    }
    None
}

proptest! {
    /// Schedules interleaved with pops (no cancellation): the 4-ary packed
    /// heap pops the identical sequence as the reference binary heap, ties
    /// included.
    #[test]
    fn pop_order_matches_reference_heap(
        ops in proptest::collection::vec(prop_oneof![
            2 => (0u64..20).prop_map(Op::Schedule),
            1 => Just(Op::Pop),
        ], 1..400),
    ) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
        let mut next_id = 0u64;
        let drive = |q: &mut EventQueue<u64>,
                     heap: &mut BinaryHeap<Reverse<(u64, u64, u64)>>|
         -> (Popped, Popped) {
            (
                q.pop().map(|(t, id)| (t.as_nanos(), id)),
                heap.pop().map(|Reverse((t, seq, id))| {
                    // seq doubles as the reference's FIFO tie-break.
                    let _ = seq;
                    (t, id)
                }),
            )
        };
        for op in ops {
            match op {
                Op::Schedule(dt) => {
                    let at = q.now() + SimDuration::from_nanos(dt);
                    let id = next_id;
                    next_id += 1;
                    heap.push(Reverse((at.as_nanos(), id, id)));
                    q.schedule(at, id);
                }
                Op::Pop | Op::Cancel(_) => {
                    let (a, b) = drive(&mut q, &mut heap);
                    prop_assert_eq!(a, b);
                }
            }
        }
        loop {
            let (a, b) = drive(&mut q, &mut heap);
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Full timer model: arm / cancel / pop in arbitrary interleavings. The
    /// slab's lazy cancellation (stale handles drained at pop) must be
    /// observationally identical to the reference's cancelled-ID filter.
    #[test]
    fn timer_cancellation_matches_reference(
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        let mut q: EventQueue<TimerHandle> = EventQueue::new();
        let mut slab: TimerSlab<u64> = TimerSlab::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
        let mut cancelled: BTreeSet<u64> = BTreeSet::new();
        let mut live: Vec<(TimerHandle, u64)> = Vec::new();
        let mut next_id = 0u64;
        let mut ref_seq = 0u64;
        for op in ops {
            match op {
                Op::Schedule(dt) => {
                    let at = q.now() + SimDuration::from_nanos(dt);
                    let id = next_id;
                    next_id += 1;
                    let h = slab.arm(id);
                    q.schedule(at, h);
                    heap.push(Reverse((at.as_nanos(), ref_seq, id)));
                    ref_seq += 1;
                    live.push((h, id));
                }
                Op::Cancel(k) => {
                    if !live.is_empty() {
                        let (h, id) = live.remove(k as usize % live.len());
                        prop_assert_eq!(slab.cancel(h), Some(id));
                        // Double-cancel through the same handle must be inert.
                        prop_assert_eq!(slab.cancel(h), None);
                        cancelled.insert(id);
                    }
                }
                Op::Pop => {
                    let a = pop_optimized(&mut q, &mut slab);
                    let b = pop_reference(&mut heap, &mut cancelled);
                    prop_assert_eq!(a, b);
                    if let Some((_, id)) = a {
                        live.retain(|&(_, i)| i != id);
                    }
                }
            }
        }
        // Drain to empty: the tails must agree too.
        loop {
            let a = pop_optimized(&mut q, &mut slab);
            let b = pop_reference(&mut heap, &mut cancelled);
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        prop_assert_eq!(slab.live(), 0);
    }
}
