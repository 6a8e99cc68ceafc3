//! The open-addressed `(hash tag, index)` table behind the [`Interner`]
//! and the [`Graph`]'s membership test.
//!
//! Both structures keep their keys elsewhere — strings back to back in one
//! buffer, triples in the log — and need only "which index holds this
//! key". A slot is 8 bytes: the key's 32-bit hash and `index + 1` (0 marks
//! an empty slot). Probing is linear from a home slot taken from the tag's
//! top bits, and a candidate's key is read only when its tag matches, so a
//! lookup touches the key storage about once. Because the home slot is a
//! function of the stored tag, growing re-places every entry without
//! reading a key. Entries are never removed; the owners overwrite an
//! entry's index instead ([`TagTable::set_index`]).
//!
//! [`Interner`]: crate::Interner
//! [`Graph`]: crate::Graph

use crate::fxhash::FxHasher;
use std::hash::Hasher;

/// Fold an Fx state to the 32-bit tag. The multiplicative rounds leave
/// their entropy in the high bits (a difference in the last byte of a word
/// reaches only the top eight), so one xor-shift-multiply spreads it before
/// the top half is taken.
#[inline]
pub(crate) fn finish_tag(hasher: &FxHasher) -> u32 {
    let h = hasher.finish();
    ((h ^ (h >> 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as u32
}

/// Where a probe ended.
pub(crate) enum Probe {
    /// The slot holding the key.
    Found(usize),
    /// The empty slot the key would take.
    Vacant(usize),
}

/// Open-addressed table of `(tag, index)` pairs at no more than half load.
#[derive(Debug, Default, Clone)]
pub(crate) struct TagTable {
    slots: Vec<u64>,
    len: usize,
}

impl TagTable {
    /// A table that takes `entries` entries without growing.
    pub(crate) fn with_capacity(entries: usize) -> Self {
        Self {
            slots: vec![0; slot_count(entries)],
            len: 0,
        }
    }

    /// Heap bytes of the slot array.
    pub(crate) fn heap_bytes(&self) -> usize {
        s3pg_obs::mem::vec_bytes(&self.slots)
    }

    #[inline]
    fn home(&self, tag: u32) -> usize {
        // `slots.len()` is a power of two, so this is the tag's top bits.
        ((tag as u64 * self.slots.len() as u64) >> 32) as usize
    }

    /// Probe for the entry with `tag` whose index satisfies `is_key`.
    /// An empty table has no slot to offer: `Vacant(0)`, which
    /// [`TagTable::occupy`] accepts because it grows first.
    #[inline]
    pub(crate) fn probe(&self, tag: u32, mut is_key: impl FnMut(u32) -> bool) -> Probe {
        if self.slots.is_empty() {
            return Probe::Vacant(0);
        }
        let mask = self.slots.len() - 1;
        let mut at = self.home(tag);
        loop {
            let slot = self.slots[at];
            if slot == 0 {
                return Probe::Vacant(at);
            }
            if (slot >> 32) as u32 == tag && is_key(slot as u32 - 1) {
                return Probe::Found(at);
            }
            at = (at + 1) & mask;
        }
    }

    /// The index stored in an occupied slot.
    #[inline]
    pub(crate) fn index_at(&self, slot: usize) -> u32 {
        self.slots[slot] as u32 - 1
    }

    /// Point an occupied slot at another index holding the same key.
    #[inline]
    pub(crate) fn set_index(&mut self, slot: usize, index: u32) {
        self.slots[slot] = (self.slots[slot] & !0xffff_ffff) | entry_index(index);
    }

    /// Fill the vacant slot a [`TagTable::probe`] with the same `tag` just
    /// returned, growing (and re-placing) when that would pass half load.
    #[inline]
    pub(crate) fn occupy(&mut self, vacant: usize, tag: u32, index: u32) {
        self.len += 1;
        let entry = (tag as u64) << 32 | entry_index(index);
        if self.len * 2 > self.slots.len() {
            self.grow_to(self.len);
            self.place(entry);
        } else {
            self.slots[vacant] = entry;
        }
    }

    /// Make room for `additional` more entries without growing again.
    pub(crate) fn reserve(&mut self, additional: usize) {
        if slot_count(self.len + additional) > self.slots.len() {
            self.grow_to(self.len + additional);
        }
    }

    fn grow_to(&mut self, entries: usize) {
        let old = std::mem::replace(&mut self.slots, vec![0; slot_count(entries)]);
        for entry in old.into_iter().filter(|&e| e != 0) {
            self.place(entry);
        }
    }

    fn place(&mut self, entry: u64) {
        let mask = self.slots.len() - 1;
        let mut at = self.home((entry >> 32) as u32);
        while self.slots[at] != 0 {
            at = (at + 1) & mask;
        }
        self.slots[at] = entry;
    }
}

#[inline]
fn entry_index(index: u32) -> u64 {
    index
        .checked_add(1)
        .expect("table index exceeds u32::MAX - 1") as u64
}

/// Slot-array length for `entries` entries: a power of two at no more than
/// half load, empty for none.
fn slot_count(entries: usize) -> usize {
    if entries == 0 {
        0
    } else {
        (entries * 2).next_power_of_two().max(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_occupy_and_grow_keep_every_entry() {
        let keys: Vec<u32> = (0..5000u32)
            .map(|k| k.wrapping_mul(2_654_435_761))
            .collect();
        let mut table = TagTable::default();
        for (i, &k) in keys.iter().enumerate() {
            // Only 64 distinct tags, so most probes walk past equal tags.
            let tag = k % 64;
            match table.probe(tag, |j| keys[j as usize] == k) {
                Probe::Vacant(at) => table.occupy(at, tag, i as u32),
                Probe::Found(_) => panic!("key {k} found before insertion"),
            }
            for (j, &earlier) in keys[..=i].iter().enumerate().step_by(97) {
                match table.probe(earlier % 64, |x| keys[x as usize] == earlier) {
                    Probe::Found(at) => assert_eq!(table.index_at(at) as usize, j),
                    Probe::Vacant(_) => panic!("key {earlier} lost after {i} insertions"),
                }
            }
        }
        assert!(table.slots.len() >= 2 * keys.len());
    }

    #[test]
    fn set_index_keeps_the_tag() {
        let mut table = TagTable::default();
        let Probe::Vacant(at) = table.probe(7, |_| false) else {
            panic!("empty table found a key");
        };
        table.occupy(at, 7, 0);
        let Probe::Found(at) = table.probe(7, |i| i == 0) else {
            panic!("entry lost");
        };
        table.set_index(at, 41);
        assert!(matches!(table.probe(7, |i| i == 41), Probe::Found(_)));
        assert!(matches!(table.probe(7, |i| i == 0), Probe::Vacant(_)));
    }
}
