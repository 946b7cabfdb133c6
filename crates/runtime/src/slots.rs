//! Dense id-indexed storage for records whose ids are handed out
//! densely and in ascending order, as [`RequestId`]s are.
//!
//! `slots[i]` holds the record of id `base + i`; a removed record leaves
//! a hole until the holes at either end are trimmed. The table therefore
//! spans only the oldest live id to the newest, so its memory follows
//! concurrency, not the number of ids ever issued, and every lookup is
//! one subtraction and one index.

use std::collections::VecDeque;
use std::ops::{Index, IndexMut};

use crate::request::RequestId;

/// Id-indexed table of live records.
#[derive(Debug)]
pub struct SlotTable<T> {
    /// Id of `slots[0]`.
    base: RequestId,
    slots: VecDeque<Option<T>>,
    live: usize,
}

impl<T> Default for SlotTable<T> {
    fn default() -> Self {
        Self {
            base: 0,
            slots: VecDeque::new(),
            live: 0,
        }
    }
}

impl<T> SlotTable<T> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert the record of `id`, which must be newer than every id the
    /// table holds.
    pub fn insert(&mut self, id: RequestId, value: T) {
        if self.slots.is_empty() {
            self.base = id;
        }
        let end = self.base + self.slots.len() as RequestId;
        assert!(id >= end, "slot ids must ascend: {id} after {end}");
        for _ in end..id {
            self.slots.push_back(None);
        }
        self.slots.push_back(Some(value));
        self.live += 1;
    }

    fn index(&self, id: RequestId) -> Option<usize> {
        let offset = usize::try_from(id.checked_sub(self.base)?).ok()?;
        (offset < self.slots.len()).then_some(offset)
    }

    pub fn get(&self, id: RequestId) -> Option<&T> {
        self.slots[self.index(id)?].as_ref()
    }

    pub fn get_mut(&mut self, id: RequestId) -> Option<&mut T> {
        let i = self.index(id)?;
        self.slots[i].as_mut()
    }

    /// Take the record of `id` out, trimming the holes this leaves at
    /// either end of the table.
    pub fn remove(&mut self, id: RequestId) -> Option<T> {
        let i = self.index(id)?;
        let value = self.slots[i].take()?;
        self.live -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        while let Some(None) = self.slots.back() {
            self.slots.pop_back();
        }
        Some(value)
    }

    /// Live records.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slots held, holes included: `newest - oldest + 1` over the live
    /// ids, 0 when none is live.
    pub fn span(&self) -> usize {
        self.slots.len()
    }

    /// Consume the table, yielding live records in ascending id order.
    pub fn into_values(self) -> impl Iterator<Item = T> {
        self.slots.into_iter().flatten()
    }
}

/// Indexing a missing id panics, as slice indexing out of bounds does.
impl<T> Index<RequestId> for SlotTable<T> {
    type Output = T;

    fn index(&self, id: RequestId) -> &T {
        // lint:allow(no-panic-in-lib) -- Index contract: a missing id is a caller bug, as an out-of-bounds slice index is
        self.get(id).expect("no live record for id")
    }
}

impl<T> IndexMut<RequestId> for SlotTable<T> {
    fn index_mut(&mut self, id: RequestId) -> &mut T {
        // lint:allow(no-panic-in-lib) -- Index contract: a missing id is a caller bug, as an out-of-bounds slice index is
        self.get_mut(id).expect("no live record for id")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_follow_ids_across_trims() {
        let mut t = SlotTable::new();
        for id in 5..10u64 {
            t.insert(id, id * 10);
        }
        assert_eq!(t.get(7), Some(&70));
        assert_eq!(t[6], 60);
        assert_eq!(t.get(4), None);
        assert_eq!(t.get(10), None);
        assert_eq!(t.remove(7), Some(70));
        assert_eq!(t.remove(7), None, "double remove");
        assert_eq!(t.span(), 5, "interior hole is kept");
        assert_eq!(t.remove(5), Some(50));
        assert_eq!(t.span(), 4);
        assert_eq!(t.remove(6), Some(60));
        assert_eq!(t.span(), 2, "front trims through the hole at 7");
        assert_eq!(t.remove(9), Some(90));
        assert_eq!(t.span(), 1, "back trims too");
        *t.get_mut(8).unwrap() += 1;
        assert_eq!(t.len(), 1);
        assert_eq!(t.into_values().collect::<Vec<_>>(), vec![81]);
    }

    #[test]
    fn reinsert_after_emptying_and_gaps() {
        let mut t = SlotTable::new();
        t.insert(0, 'a');
        t.remove(0);
        assert!(t.is_empty());
        assert_eq!(t.span(), 0);
        t.insert(3, 'b');
        t.insert(6, 'c');
        assert_eq!(t.span(), 4);
        assert_eq!(t.get(3), Some(&'b'));
        assert_eq!(t.get(6), Some(&'c'));
        assert_eq!(t.into_values().collect::<String>(), "bc");
    }

    #[test]
    #[should_panic(expected = "slot ids must ascend")]
    fn descending_insert_panics() {
        let mut t = SlotTable::new();
        t.insert(4, ());
        t.insert(2, ());
    }
}
