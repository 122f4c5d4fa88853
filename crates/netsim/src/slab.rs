//! Pooled storage for in-flight packets.
//!
//! A packet spends its wire time inside a [`Event::Deliver`] entry in the
//! event queue. Storing the `Packet` inline there made every event-queue
//! slot packet-sized and forced a move of ~64 bytes per hop; storing a
//! `Box<Packet>` would cost an alloc/free pair per packet per hop. The
//! pool splits the difference: packets park in a slab indexed by a 4-byte
//! [`PacketRef`], slots are recycled through a free list, and steady-state
//! simulation performs **zero** packet allocations — the slab grows to the
//! in-flight high-water mark and stays there.
//!
//! [`Event::Deliver`]: crate::event::Event::Deliver

use crate::packet::Packet;

/// Handle to a packet parked in a [`PacketPool`].
///
/// Holding a `PacketRef` is a claim of ownership: exactly one `take` must
/// follow each `insert`. The event dispatcher upholds this by reclaiming
/// the slot when the `Deliver` event fires (or when a fault drops it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketRef(u32);

/// Free-list slab of in-flight packets. See the module docs.
#[derive(Default)]
pub struct PacketPool {
    slots: Vec<Packet>,
    free: Vec<u32>,
}

impl PacketPool {
    /// Creates an empty pool.
    pub fn new() -> PacketPool {
        PacketPool::default()
    }

    /// Parks `pkt` in the pool, returning its handle.
    pub fn insert(&mut self, pkt: Packet) -> PacketRef {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = pkt;
                PacketRef(i)
            }
            None => {
                // > 4 billion concurrently-live packets cannot happen on
                // any simulable topology; the debug assert documents the
                // limit without a release-mode branch.
                debug_assert!(
                    self.slots.len() < u32::MAX as usize,
                    "pool exceeds u32 slots"
                );
                let i = self.slots.len() as u32;
                self.slots.push(pkt);
                PacketRef(i)
            }
        }
    }

    /// Takes the packet back out, recycling its slot.
    pub fn take(&mut self, r: PacketRef) -> Packet {
        debug_assert!(
            !self.free.contains(&r.0),
            "double take of packet slot {}",
            r.0
        );
        let pkt = self.slots[r.0 as usize];
        self.free.push(r.0);
        pkt
    }

    /// Read-only view of a parked packet.
    pub fn get(&self, r: PacketRef) -> &Packet {
        &self.slots[r.0 as usize]
    }

    /// Number of packets currently parked.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Total slots ever allocated (the in-flight high-water mark).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NodeId;
    use crate::packet::{FlowId, Packet, PacketKind};

    fn pkt(psn: u64) -> Packet {
        Packet::data(NodeId(0), NodeId(1), FlowId(0), 3, psn, 1000)
    }

    fn psn_of(p: &Packet) -> u64 {
        match p.kind {
            PacketKind::Data { psn, .. } => psn,
            _ => unreachable!(),
        }
    }

    #[test]
    fn insert_take_roundtrips() {
        let mut pool = PacketPool::new();
        let a = pool.insert(pkt(1));
        let b = pool.insert(pkt(2));
        assert_eq!(pool.live(), 2);
        assert_eq!(psn_of(pool.get(a)), 1);
        assert_eq!(psn_of(&pool.take(a)), 1);
        assert_eq!(psn_of(&pool.take(b)), 2);
        assert_eq!(pool.live(), 0);
    }

    #[test]
    fn slots_are_recycled_not_grown() {
        let mut pool = PacketPool::new();
        for round in 0..100u64 {
            let r = pool.insert(pkt(round));
            assert_eq!(psn_of(&pool.take(r)), round);
        }
        // One packet in flight at a time: the slab never grew past 1 slot.
        assert_eq!(pool.capacity(), 1);
    }
}
