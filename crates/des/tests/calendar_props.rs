//! Property oracle for the calendar queue: arbitrary schedule/pop
//! interleavings must pop in an order bit-identical to the original
//! `BinaryHeap` event queue's (earliest `(time, seq)` first).
//!
//! The reference is the exact structure `Sim` used before the calendar
//! queue: a max-heap over `Reverse<(time, seq)>`. Because `(time, seq)`
//! is a total order (the insertion counter is unique), both structures
//! have exactly one legal pop sequence — so equality here proves the
//! replacement changes no observable simulation behavior.
//!
//! Pushed `seq`s are unique but **not monotone** — a random rank above
//! the push counter — because `Sim::at_slot` pushes reserved sequence
//! numbers long after later ones are queued; the contract is `(time,
//! seq)` order for any unique `seq`, not only for an insertion counter.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use shs_des::{CalendarQueue, SimTime};

const HORIZON: u64 = CalendarQueue::<u32>::BUCKET_NS * 256;

/// One step of an interleaving: schedule an event `delta` ns after the
/// current watermark (the largest time popped so far, mirroring the
/// simulator's monotone clock) under a `seq` of the given random rank,
/// or pop one event from both structures.
#[derive(Debug, Clone)]
enum Op {
    Push(u64, u8),
    Pop,
}

fn push(delta: std::ops::Range<u64>) -> impl Strategy<Value = Op> {
    // Few distinct ranks, so equal-time entries meet in either order of
    // rank and push counter.
    (delta, 0u8..4).prop_map(|(delta, rank)| Op::Push(delta, rank))
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Near-future: inside one bucket, and exact duplicates (delta 0
        // collides with the watermark; repeated small deltas collide
        // with each other).
        4 => push(0u64..4096),
        // Mid-range: a few buckets out.
        2 => push(4096u64..HORIZON),
        // Far-future: past the ring horizon (overflow), including
        // multi-lap distances that force wraparound migration.
        2 => push(HORIZON..20 * HORIZON),
        3 => Just(Op::Pop),
    ]
}

proptest! {
    #[test]
    fn pop_order_is_bit_identical_to_the_binary_heap(
        ops in prop::collection::vec(op_strategy(), 1..400)
    ) {
        let mut cal = CalendarQueue::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut pushed = 0u64;
        let mut watermark = 0u64; // largest popped time = the sim clock
        for op in ops {
            match op {
                Op::Push(delta, rank) => {
                    let t = watermark + delta;
                    // Unique by the counter, ordered by the rank first.
                    let seq = (rank as u64) << 32 | pushed;
                    cal.push(SimTime::from_nanos(t), seq, seq);
                    heap.push(Reverse((t, seq)));
                    pushed += 1;
                }
                Op::Pop => {
                    let expect = heap.pop();
                    let got = cal.pop().map(|e| (e.time.as_nanos(), e.seq));
                    prop_assert_eq!(got, expect.map(|Reverse(k)| k));
                    if let Some((t, _)) = got {
                        watermark = watermark.max(t);
                    }
                }
            }
        }
        // Drain both completely: the tail must agree too (this is where
        // overflow events cross the ring wraparound).
        loop {
            let expect = heap.pop().map(|Reverse(k)| k);
            let got = cal.pop().map(|e| (e.time.as_nanos(), e.seq));
            prop_assert_eq!(got, expect);
            if got.is_none() {
                break;
            }
        }
        prop_assert!(cal.is_empty());
    }
}
