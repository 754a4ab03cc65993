//! Slot interning for the sampled levels of a computation graph: each
//! distinct temporal node `(v, t)` of a level is stored once, and a repeat
//! maps to the slot of its first occurrence.

use tg_graph::{NodeId, Time};

/// End of a chain.
const NONE: u32 = u32::MAX;

/// A per-node table that interns temporal nodes into a slot list.
///
/// `head[v]` starts the chain of `v`'s slots, newest first, and `older`
/// links each slot to the previous slot of the same node. A chain is only
/// as long as the number of timestamps at which `v` occurs in the level,
/// so a lookup compares a few `t`s. Entries carry the stamp of the level
/// that wrote them: [`SlotTable::reset`] bumps the stamp instead of
/// clearing `n` entries. Slot order is the caller's push order alone, so
/// the table holds no hash state that could reach seeded output.
pub(crate) struct SlotTable {
    /// Per node: the stamp that wrote the entry, and the newest slot.
    head: Vec<(u32, u32)>,
    /// Per slot: the previous slot of the same node, or [`NONE`].
    older: Vec<u32>,
    stamp: u32,
}

impl SlotTable {
    /// An empty table over nodes `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        SlotTable {
            head: vec![(0, NONE); n],
            older: Vec::new(),
            stamp: 1,
        }
    }

    /// Forget every slot, for a new, empty slot list.
    pub(crate) fn reset(&mut self) {
        self.stamp += 1;
        self.older.clear();
    }

    /// The slot of `(v, t)` in `slots`, if it was interned since the last
    /// reset.
    fn find(&self, (v, t): (NodeId, Time), slots: &[(NodeId, Time)]) -> Option<u32> {
        let (stamp, mut slot) = self.head[v as usize];
        if stamp != self.stamp {
            return None;
        }
        while slot != NONE {
            if slots[slot as usize].1 == t {
                return Some(slot);
            }
            slot = self.older[slot as usize];
        }
        None
    }

    /// Append `occ`, which [`SlotTable::find`] does not know, to `slots`
    /// and return its slot.
    fn insert(&mut self, occ: (NodeId, Time), slots: &mut Vec<(NodeId, Time)>) -> u32 {
        let slot = slots.len() as u32;
        let head = &mut self.head[occ.0 as usize];
        self.older
            .push(if head.0 == self.stamp { head.1 } else { NONE });
        *head = (self.stamp, slot);
        slots.push(occ);
        slot
    }

    /// The slot of `occ`, appending it to `slots` if it is new.
    pub(crate) fn intern(&mut self, occ: (NodeId, Time), slots: &mut Vec<(NodeId, Time)>) -> u32 {
        match self.find(occ, slots) {
            Some(slot) => slot,
            None => self.insert(occ, slots),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interns_per_level_and_resets_by_stamp() {
        let mut table = SlotTable::new(4);
        let mut slots = Vec::new();
        assert_eq!(table.intern((2, 5), &mut slots), 0);
        assert_eq!(table.intern((2, 7), &mut slots), 1);
        assert_eq!(table.intern((0, 5), &mut slots), 2);
        assert_eq!(table.intern((2, 5), &mut slots), 0);
        assert_eq!(table.intern((2, 7), &mut slots), 1);
        assert_eq!(slots, vec![(2, 5), (2, 7), (0, 5)]);

        table.reset();
        let mut next = Vec::new();
        assert_eq!(table.find((2, 5), &next), None);
        assert_eq!(table.intern((2, 7), &mut next), 0);
        assert_eq!(table.intern((2, 5), &mut next), 1);
        assert_eq!(table.find((2, 7), &next), Some(0));
        assert_eq!(table.find((0, 5), &next), None);
    }
}
