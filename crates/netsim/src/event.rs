//! The discrete-event core: a deterministic priority queue of timestamped
//! events.
//!
//! Events at the same timestamp are executed in insertion order (a
//! monotonically increasing sequence number breaks ties), so a run is a pure
//! function of the network configuration and the RNG seed.
//!
//! Internally the queue is a calendar queue (hierarchical timing wheel with
//! a single level plus an overflow heap) rather than one big binary heap:
//! the common case — scheduling a few microseconds ahead — is an O(1) push
//! into an unsorted bucket, and only events inside the current ~1 µs bucket
//! ever touch a comparison-sorted heap. Far-future timers (retransmission
//! backoff, watchdog restores) land in the overflow heap and migrate into
//! the wheel as the cursor approaches them. Pop order is exactly the old
//! heap's `(time, insertion-seq)` order; see DESIGN.md for the argument.

use crate::slab::PacketRef;
use crate::units::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Index of a node (host or switch) in the network's node table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// Index of a port within a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub usize);

/// Index of a link in the network's link table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(pub usize);

/// Kinds of timers a host can arm. The payload disambiguates per-flow timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// A congestion-control timer; `id` is interpreted by the CC algorithm.
    Cc {
        /// Local flow index on the host.
        flow: usize,
        /// Algorithm-defined timer id.
        id: u32,
    },
    /// Go-back-N retransmission timeout for a flow.
    Retransmit {
        /// Local flow index on the host.
        flow: usize,
    },
    /// The NIC asked to be woken when the earliest flow becomes eligible.
    NicWakeup,
    /// A new message is injected into a flow's send queue (workload arrival).
    MessageArrival {
        /// Local flow index on the host.
        flow: usize,
        /// Message size in bytes.
        bytes: u64,
    },
    /// Reset an idle flow's congestion state back to line rate.
    IdleReset {
        /// Local flow index on the host.
        flow: usize,
    },
}

/// A simulation event.
#[derive(Debug)]
pub enum Event {
    /// A packet finishes arriving at `node` (entering through `port`).
    /// The packet body lives in the network's [`crate::slab::PacketPool`]
    /// and is reclaimed when the event is dispatched.
    Deliver {
        /// Receiving node.
        node: NodeId,
        /// Ingress port on that node.
        port: PortId,
        /// Handle to the arriving packet in the packet pool.
        pkt: PacketRef,
    },
    /// `node`'s transmitter on `port` finished serializing a packet.
    TxDone {
        /// Transmitting node.
        node: NodeId,
        /// The port whose transmitter became free.
        port: PortId,
    },
    /// A host timer fires.
    Timer {
        /// The host owning the timer.
        node: NodeId,
        /// Which timer.
        kind: TimerKind,
    },
    /// Periodic statistics sampling tick.
    Sample,
    /// A user-registered control hook (used by experiments to start flows or
    /// change configuration mid-run). The id indexes the network's hook table.
    Hook {
        /// Index into the network's hook table.
        id: usize,
    },
    /// A scheduled fault-plan action fires (see [`crate::faults`]).
    Fault {
        /// What breaks (or heals).
        action: crate::faults::FaultAction,
    },
    /// A switch's PFC storm watchdog fires for one (port, class): either a
    /// paused-too-long check or the post-trip restore.
    Watchdog {
        /// The switch owning the watchdog.
        node: NodeId,
        /// The watched port.
        port: PortId,
        /// The watched priority class.
        class: usize,
        /// False: check whether the class has been paused beyond the
        /// threshold. True: restore PAUSE honoring after the recovery
        /// interval.
        restore: bool,
    },
}

struct Scheduled {
    at: Time,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Bucket width as a power-of-two of picoseconds: 2^17 ps ≈ 131 ns,
/// finer than one packet serialization at 40 G, so consecutive link
/// events usually land in *different* buckets and each bucket drains as
/// one small sorted cohort.
const BUCKET_SHIFT: u32 = 17;
/// Number of wheel buckets (must be a power of two). 4096 buckets at
/// ~131 ns each give a ~537 µs horizon; CC timers (≤ 55 µs), PFC pause
/// timeouts and sampling ticks all fit, while RTO backoff (≥ 16 ms) and
/// watchdog restores overflow — exactly what the overflow heap is for.
const NUM_BUCKETS: u64 = 4096;
const BUCKET_MASK: u64 = NUM_BUCKETS - 1;
/// Occupancy bitmap words (64 buckets per `u64`).
const NUM_WORDS: usize = (NUM_BUCKETS / 64) as usize;

#[inline]
fn tick_of(at: Time) -> u64 {
    at.0 >> BUCKET_SHIFT
}

/// Deterministic event queue. Pops events in `(time, insertion order)` order.
pub struct EventQueue {
    /// The due cohort: every pending event whose bucket tick is ≤
    /// `cursor_tick`, sorted *descending* by `(time, seq)` so the global
    /// minimum is at the back and `pop` is a plain `Vec::pop`.
    near: Vec<Scheduled>,
    /// Unsorted buckets for ticks in `(cursor_tick, cursor_tick + NUM_BUCKETS)`,
    /// indexed by `tick & BUCKET_MASK`.
    wheel: Vec<Vec<Scheduled>>,
    /// Bitmap of non-empty wheel buckets, so advancing the cursor skips
    /// runs of empty buckets with a couple of word scans.
    occupied: [u64; NUM_WORDS],
    /// Total events parked in `wheel` (kept so `pop` can jump the cursor
    /// straight to the overflow heap when the wheel is empty).
    wheel_len: usize,
    /// Events beyond the wheel horizon, ordered; migrated inward as the
    /// cursor advances.
    overflow: BinaryHeap<Reverse<Scheduled>>,
    /// Highest bucket tick whose events have been promoted into `near`.
    cursor_tick: u64,
    seq: u64,
    now: Time,
    popped: u64,
}

impl Default for EventQueue {
    fn default() -> EventQueue {
        EventQueue::new()
    }
}

impl EventQueue {
    /// Creates an empty queue at time zero.
    pub fn new() -> EventQueue {
        EventQueue {
            near: Vec::new(),
            wheel: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; NUM_WORDS],
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            cursor_tick: 0,
            seq: 0,
            now: Time::ZERO,
            popped: 0,
        }
    }

    /// The current simulation time (time of the last popped event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.popped
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.near.len() + self.wheel_len + self.overflow.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past: the simulator never time-travels.
    pub fn schedule(&mut self, at: Time, event: Event) {
        assert!(
            at >= self.now,
            "scheduled event at {at} before current time {}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        let s = Scheduled { at, seq, event };
        let tick = tick_of(at);
        if tick <= self.cursor_tick {
            // Into the due cohort, keeping it sorted. New events carry the
            // highest seq, so among equal times they belong closest to the
            // front-of-equal-run in the descending layout — which is where
            // `partition_point` on strict `>` lands them.
            let idx = self.near.partition_point(|x| (x.at, x.seq) > (at, seq));
            self.near.insert(idx, s);
        } else if tick < self.cursor_tick + NUM_BUCKETS {
            let slot = (tick & BUCKET_MASK) as usize;
            self.occupied[slot / 64] |= 1 << (slot % 64);
            self.wheel[slot].push(s);
            self.wheel_len += 1;
        } else {
            self.overflow.push(Reverse(s));
        }
    }

    /// Moves overflow events that now fall inside the wheel horizon into
    /// their buckets (or into `near` — unsorted; the caller sorts — if
    /// already due).
    fn migrate_overflow(&mut self) {
        let horizon = self.cursor_tick + NUM_BUCKETS;
        while let Some(Reverse(s)) = self.overflow.peek() {
            let tick = tick_of(s.at);
            if tick >= horizon {
                break;
            }
            let Some(Reverse(s)) = self.overflow.pop() else {
                debug_assert!(false, "peek saw an overflow event");
                break;
            };
            if tick <= self.cursor_tick {
                self.near.push(s);
            } else {
                let slot = (tick & BUCKET_MASK) as usize;
                self.occupied[slot / 64] |= 1 << (slot % 64);
                self.wheel[slot].push(s);
                self.wheel_len += 1;
            }
        }
    }

    /// First occupied wheel tick after `cursor_tick`. Caller guarantees
    /// `wheel_len > 0`. Two's-complement word scans over the occupancy
    /// bitmap: O(NUM_WORDS) worst case, usually one or two reads.
    fn next_occupied_tick(&self) -> u64 {
        let start = ((self.cursor_tick + 1) & BUCKET_MASK) as usize;
        let mut word = start / 64;
        // Bits below `start` in its word belong to already-drained slots
        // (or slots a full lap ahead); mask them off for the first read.
        let mut bits = self.occupied[word] & (!0u64 << (start % 64));
        for _ in 0..=NUM_WORDS {
            if bits != 0 {
                let slot = word * 64 + bits.trailing_zeros() as usize;
                let dist = (slot + NUM_BUCKETS as usize - start) & BUCKET_MASK as usize;
                return self.cursor_tick + 1 + dist as u64;
            }
            word = (word + 1) % NUM_WORDS;
            bits = self.occupied[word];
        }
        unreachable!("wheel_len > 0 but occupancy bitmap is empty");
    }

    /// Advances the cursor until `near` holds the earliest pending event,
    /// or returns `false` when the queue is empty. The cursor is untouched
    /// in the empty case.
    fn promote(&mut self) -> bool {
        while self.near.is_empty() {
            if self.wheel_len == 0 {
                // Nothing inside the horizon: jump straight to the first
                // overflow tick (if any) and pull its cohort in.
                let Some(Reverse(s)) = self.overflow.peek() else {
                    return false;
                };
                self.cursor_tick = tick_of(s.at);
                self.migrate_overflow();
            } else {
                // Skip straight to the next occupied bucket. No overflow
                // event can be earlier: occupied ticks are < cursor +
                // NUM_BUCKETS ≤ every overflow tick.
                self.cursor_tick = self.next_occupied_tick();
                let slot = (self.cursor_tick & BUCKET_MASK) as usize;
                self.occupied[slot / 64] &= !(1 << (slot % 64));
                // Swap the bucket's allocation into `near` (empty here),
                // so bucket capacity is recycled instead of reallocated.
                std::mem::swap(&mut self.near, &mut self.wheel[slot]);
                self.wheel_len -= self.near.len();
                // The cursor moved: newly in-horizon overflow events must
                // enter the wheel before anything else is scheduled.
                self.migrate_overflow();
            }
            self.near.sort_unstable_by_key(|s| Reverse((s.at, s.seq)));
        }
        true
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, Event)> {
        if !self.promote() {
            return None;
        }
        let Some(s) = self.near.pop() else {
            debug_assert!(false, "promote() returned true on an empty queue");
            return None;
        };
        debug_assert!(s.at >= self.now);
        self.now = s.at;
        self.popped += 1;
        Some((s.at, s.event))
    }

    /// Pops the entire cohort of events sharing the earliest pending
    /// timestamp (if that timestamp is ≤ `until`) into `out`, in exact
    /// `(time, seq)` order, and returns the cohort's timestamp. The clock
    /// advances to it. Equivalent to repeated `pop` while the head time is
    /// unchanged — batching only skips re-entering the scheduler between
    /// same-timestamp events, which cannot reorder anything because events
    /// scheduled *during* their dispatch always carry higher seqs.
    pub fn pop_batch(&mut self, until: Time, out: &mut Vec<Event>) -> Option<Time> {
        if !self.promote() {
            return None;
        }
        let Some(t) = self.near.last().map(|s| s.at) else {
            debug_assert!(false, "promote() returned true on an empty queue");
            return None;
        };
        if t > until {
            return None;
        }
        self.now = t;
        while self.near.last().is_some_and(|s| s.at == t) {
            let Some(s) = self.near.pop() else { break };
            self.popped += 1;
            out.push(s.event);
        }
        Some(t)
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        if let Some(s) = self.near.last() {
            return Some(s.at);
        }
        if self.wheel_len > 0 {
            // The first occupied bucket holds the earliest tick; every
            // event in it shares that tick, so its min is the global min.
            let slot = (self.next_occupied_tick() & BUCKET_MASK) as usize;
            return self.wheel[slot].iter().map(|s| s.at).min();
        }
        self.overflow.peek().map(|Reverse(s)| s.at)
    }

    /// Advances the clock to `to` without popping anything, so a drained
    /// horizon leaves `now()` at the horizon itself rather than at the
    /// last popped event. Never moves the clock backwards, and must not
    /// jump past a pending event (that would let `pop` run time in
    /// reverse).
    pub fn advance_clock(&mut self, to: Time) {
        debug_assert!(
            self.peek_time().is_none_or(|t| t >= to),
            "advance_clock({to}) would skip past a pending event"
        );
        self.now = self.now.max(to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Duration;

    fn hook(id: usize) -> Event {
        Event::Hook { id }
    }

    fn drain_ids(q: &mut EventQueue) -> Vec<usize> {
        std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Hook { id } => id,
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_micros(3), hook(3));
        q.schedule(Time::from_micros(1), hook(1));
        q.schedule(Time::from_micros(2), hook(2));
        assert_eq!(drain_ids(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = Time::from_micros(7);
        for id in 0..100 {
            q.schedule(t, hook(id));
        }
        assert_eq!(drain_ids(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_micros(5), hook(0));
        q.schedule(Time::from_micros(5), hook(1));
        q.schedule(Time::from_micros(9), hook(2));
        let mut last = Time::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            assert_eq!(q.now(), t);
        }
        assert_eq!(last, Time::from_micros(9));
        assert_eq!(q.events_executed(), 3);
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_micros(5), hook(0));
        q.pop();
        q.schedule(Time::from_micros(1), hook(1));
    }

    #[test]
    fn schedule_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_micros(5), hook(0));
        q.pop();
        q.schedule(q.now(), hook(1));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, Time::from_micros(5));
        assert_eq!(t + Duration::ZERO, t);
    }

    #[test]
    fn far_future_events_take_the_overflow_path() {
        let mut q = EventQueue::new();
        // Well beyond the ~2.1 ms wheel horizon: a 16 ms RTO and a 320 ms
        // watchdog restore, interleaved with near events.
        q.schedule(Time::from_millis(320), hook(3));
        q.schedule(Time::from_micros(2), hook(0));
        q.schedule(Time::from_millis(16), hook(2));
        q.schedule(Time::from_millis(1), hook(1));
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(Time::from_micros(2)));
        assert_eq!(drain_ids(&mut q), vec![0, 1, 2, 3]);
        assert_eq!(q.now(), Time::from_millis(320));
    }

    #[test]
    fn peek_time_sees_wheel_and_overflow_without_advancing() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_millis(100), hook(1));
        assert_eq!(q.peek_time(), Some(Time::from_millis(100)));
        q.schedule(Time::from_micros(900), hook(0));
        assert_eq!(q.peek_time(), Some(Time::from_micros(900)));
        // Peeking must not have advanced the clock.
        assert_eq!(q.now(), Time::ZERO);
        assert_eq!(drain_ids(&mut q), vec![0, 1]);
    }

    #[test]
    fn cohorts_spanning_buckets_interleave_correctly() {
        let mut q = EventQueue::new();
        // Schedule across many buckets in scrambled order, with ties.
        let mut expect = Vec::new();
        for i in 0..50usize {
            let t = Time(((i * 7919) % 50) as u64 * 100_000_000);
            q.schedule(t, hook(i));
            expect.push((t, i));
        }
        expect.sort_by_key(|&(t, i)| (t, i));
        let got: Vec<(Time, usize)> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| match e {
                Event::Hook { id } => (t, id),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn pop_batch_drains_exactly_one_timestamp() {
        let mut q = EventQueue::new();
        let t = Time::from_micros(5);
        q.schedule(t, hook(0));
        q.schedule(t, hook(1));
        q.schedule(Time::from_micros(6), hook(2));
        let mut out = Vec::new();
        let popped = q.pop_batch(Time::from_millis(1), &mut out);
        assert_eq!(popped, Some(t));
        assert_eq!(out.len(), 2);
        assert_eq!(q.now(), t);
        assert_eq!(q.len(), 1);
        // Respecting `until`: the next cohort is past the bound.
        out.clear();
        assert_eq!(q.pop_batch(t, &mut out), None);
        assert!(out.is_empty());
        assert_eq!(q.events_executed(), 2);
    }
}
