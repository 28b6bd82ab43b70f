//! A table indexed by the integer ids the simulator mints.
//!
//! Process ids, VM object ids, vmspace ids, VAS ids, segment ids and VAS
//! handles come from counters that start at 1 and only go up, so the id
//! itself can be the slot index: a lookup is one bounds check and one
//! load, with no hashing. Ids are never reused, so a table holds one slot
//! per id ever minted in its kernel (each benchmark round boots a fresh
//! one), and a removed id's slot stays empty. Iteration runs in
//! ascending id order, so callers that want sorted ids need not sort.

use std::marker::PhantomData;

/// A key of an [`IdTable`]: an id whose value is its slot index.
pub trait TableId: Copy {
    /// The slot this id occupies.
    fn index(self) -> usize;
    /// The id occupying `index`.
    fn from_index(index: usize) -> Self;
}

/// Implements [`TableId`] for newtypes of the form `struct Id(pub u64)`.
#[macro_export]
macro_rules! table_id {
    ($($id:ty),+ $(,)?) => {$(
        impl $crate::TableId for $id {
            #[inline]
            fn index(self) -> usize {
                self.0 as usize
            }

            #[inline]
            fn from_index(index: usize) -> Self {
                Self(index as u64)
            }
        }
    )+};
}

/// A map from minted ids to values, stored as a vector of slots.
///
/// It offers the `HashMap` calls the simulator's tables use, with keys
/// passed by reference as there, but iterators yield keys by value.
/// Inserting an id allocates a slot for every smaller id, so keys must be
/// minted ids, not arbitrary integers.
pub struct IdTable<K, V> {
    slots: Vec<Option<V>>,
    len: usize,
    key: PhantomData<fn(K) -> K>,
}

impl<K, V> Default for IdTable<K, V> {
    fn default() -> Self {
        IdTable {
            slots: Vec::new(),
            len: 0,
            key: PhantomData,
        }
    }
}

impl<K: TableId + std::fmt::Debug, V: std::fmt::Debug> std::fmt::Debug for IdTable<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: TableId, V> IdTable<K, V> {
    /// Number of ids present.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no id is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value of `id`, if present.
    #[inline]
    pub fn get(&self, id: &K) -> Option<&V> {
        self.slots.get(id.index())?.as_ref()
    }

    /// The value of `id` for writing, if present.
    #[inline]
    pub fn get_mut(&mut self, id: &K) -> Option<&mut V> {
        self.slots.get_mut(id.index())?.as_mut()
    }

    /// Whether `id` is present.
    #[inline]
    pub fn contains_key(&self, id: &K) -> bool {
        self.get(id).is_some()
    }

    /// Stores `value` under `id`, returning the value it replaces.
    pub fn insert(&mut self, id: K, value: V) -> Option<V> {
        let i = self.grow_to(id);
        let old = self.slots[i].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes `id`, returning its value.
    pub fn remove(&mut self, id: &K) -> Option<V> {
        let old = self.slots.get_mut(id.index())?.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// The value of `id`, inserting `make()` first if it is absent (the
    /// `entry(id).or_insert_with(make)` of a `HashMap`).
    pub fn get_or_insert_with(&mut self, id: K, make: impl FnOnce() -> V) -> &mut V {
        let i = self.grow_to(id);
        if self.slots[i].is_none() {
            self.len += 1;
        }
        self.slots[i].get_or_insert_with(make)
    }

    /// Present ids, ascending.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// Present values, in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.slots.iter().flatten()
    }

    /// Present values for writing, in ascending id order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> + '_ {
        self.slots.iter_mut().flatten()
    }

    /// Present ids with their values, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| Some((K::from_index(i), slot.as_ref()?)))
    }

    /// The slot index of `id`, growing the table to hold it.
    fn grow_to(&mut self, id: K) -> usize {
        let i = id.index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Id(u64);
    crate::table_id!(Id);

    #[test]
    fn get_misses_ids_never_minted_and_ids_removed() {
        let mut t: IdTable<Id, &str> = IdTable::default();
        assert_eq!(t.get(&Id(0)), None);
        assert_eq!(t.get(&Id(u64::MAX)), None, "far past the end");
        t.insert(Id(3), "three");
        assert_eq!(t.get(&Id(2)), None, "a hole below a present id");
        assert_eq!(t.get(&Id(4)), None, "past the end");
        assert_eq!(t.get(&Id(3)), Some(&"three"));
        assert_eq!(t.remove(&Id(3)), Some("three"));
        assert_eq!(t.get(&Id(3)), None);
        assert!(!t.contains_key(&Id(3)));
        assert_eq!(t.get_mut(&Id(3)), None);
        assert_eq!(t.remove(&Id(3)), None, "removed twice");
        assert_eq!(t.remove(&Id(u64::MAX)), None);
    }

    #[test]
    fn len_follows_insert_replace_and_remove() {
        let mut t: IdTable<Id, u32> = IdTable::default();
        assert!(t.is_empty());
        assert_eq!(t.insert(Id(1), 10), None);
        assert_eq!(t.insert(Id(5), 50), None);
        assert_eq!(t.len(), 2);
        assert_eq!(t.insert(Id(5), 55), Some(50), "replace");
        assert_eq!(t.len(), 2);
        *t.get_or_insert_with(Id(5), || 0) += 1;
        assert_eq!(t.len(), 2);
        *t.get_or_insert_with(Id(2), || 0) += 1;
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(&Id(5)), Some(&56));
        assert_eq!(t.get(&Id(2)), Some(&1));
        assert_eq!(t.remove(&Id(1)), Some(10));
        assert_eq!(t.remove(&Id(1)), None);
        assert_eq!(t.len(), 2);
        t.remove(&Id(2));
        t.remove(&Id(5));
        assert!(t.is_empty());
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn iterates_in_ascending_id_order() {
        let mut t: IdTable<Id, u64> = IdTable::default();
        for id in [9, 2, 7, 4, 1, 8] {
            t.insert(Id(id), id * 10);
        }
        t.remove(&Id(7));
        let ids = [1, 2, 4, 8, 9];
        assert_eq!(t.keys().map(|k| k.0).collect::<Vec<_>>(), ids);
        assert_eq!(t.values().copied().collect::<Vec<_>>(), ids.map(|i| i * 10));
        assert_eq!(
            t.iter().map(|(k, v)| (k.0, *v)).collect::<Vec<_>>(),
            ids.map(|i| (i, i * 10))
        );
        for v in t.values_mut() {
            *v += 1;
        }
        assert_eq!(t.get(&Id(8)), Some(&81));
    }
}
