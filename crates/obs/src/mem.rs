//! Deep-size estimation helpers for memory accounting gauges.
//!
//! The store crates implement `deep_size_bytes()` for their structures
//! (interner, triple indexes, property graph) out of these building
//! blocks. The estimates count owned heap allocations at their
//! *capacity* (what the allocator handed out, not just what is filled)
//! plus the inline size of the root value, so the gauges track resident
//! footprint rather than logical content size. Hash-map overhead is
//! approximated with the control-byte-per-slot layout used by
//! SwissTable-style maps, which is what the workspace's FxHashMap
//! aliases resolve to.

/// Heap bytes owned by a `Vec`: capacity × element size. Excludes any
/// heap the elements themselves own — add that separately.
pub fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Heap bytes owned by a `String`: its capacity.
pub fn string_bytes(s: &str) -> usize {
    s.len()
}

/// Heap bytes owned by a `Box<[T]>`: length × element size (boxed slices
/// have no spare capacity). Excludes element-owned heap.
pub fn boxed_slice_bytes<T>(s: &[T]) -> usize {
    std::mem::size_of_val(s)
}

/// Approximate heap bytes of a hash map with `capacity` slots for
/// `(K, V)` entries: one entry plus one control byte per slot.
pub fn map_bytes<K, V>(capacity: usize) -> usize {
    capacity * (std::mem::size_of::<(K, V)>() + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_bytes_tracks_capacity_not_len() {
        let mut v: Vec<u64> = Vec::with_capacity(100);
        v.push(1);
        assert_eq!(vec_bytes(&v), 100 * 8);
        let empty: Vec<u64> = Vec::new();
        assert_eq!(vec_bytes(&empty), 0);
    }

    #[test]
    fn map_bytes_counts_entries_and_control_bytes() {
        assert_eq!(map_bytes::<u32, u32>(8), 8 * (8 + 1));
    }
}
