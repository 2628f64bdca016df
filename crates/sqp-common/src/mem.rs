//! Approximate heap-size accounting.
//!
//! Table VII of the paper compares the resident memory footprint of each
//! trained model. Rust has no reflective heap profiler in-process, so models
//! implement [`HeapSize`] with explicit accounting: owned containers sum the
//! sizes of their elements plus per-entry bookkeeping. The estimates are
//! intentionally conservative and, most importantly, *consistent across
//! models*, which is all the comparison needs.

/// Approximate number of heap bytes owned by a value (excluding the inline
/// `size_of::<Self>()` bytes of the value itself).
pub trait HeapSize {
    /// Estimated owned heap bytes.
    fn heap_size_bytes(&self) -> usize;
}

/// Per-entry overhead charged for hash-table entries (control bytes, load
/// factor slack). A SwissTable-style map stores ~1.14×(K,V) plus 1 control
/// byte per slot; 16 bytes is a round, defensible charge.
pub const HASH_ENTRY_OVERHEAD: usize = 16;

impl<T> HeapSize for Vec<T> {
    fn heap_size_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
    }
}

impl<T> HeapSize for Box<[T]> {
    fn heap_size_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<T>()
    }
}

impl HeapSize for String {
    fn heap_size_bytes(&self) -> usize {
        self.capacity()
    }
}

impl HeapSize for Box<str> {
    fn heap_size_bytes(&self) -> usize {
        self.len()
    }
}

impl<K, V, S> HeapSize for std::collections::HashMap<K, V, S> {
    fn heap_size_bytes(&self) -> usize {
        self.len() * (std::mem::size_of::<K>() + std::mem::size_of::<V>() + HASH_ENTRY_OVERHEAD)
    }
}

impl<T, S> HeapSize for std::collections::HashSet<T, S> {
    fn heap_size_bytes(&self) -> usize {
        self.len() * (std::mem::size_of::<T>() + HASH_ENTRY_OVERHEAD)
    }
}

/// Render a byte count the way Table VII does (megabytes, one decimal).
pub fn format_megabytes(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_accounts_capacity() {
        let v: Vec<u64> = Vec::with_capacity(100);
        assert_eq!(v.heap_size_bytes(), 800);
    }

    #[test]
    fn boxed_slice_accounts_len() {
        let b: Box<[u32]> = vec![1, 2, 3].into_boxed_slice();
        assert_eq!(b.heap_size_bytes(), 12);
    }

    #[test]
    fn string_accounts_capacity() {
        let mut s = String::with_capacity(32);
        s.push('x');
        assert_eq!(s.heap_size_bytes(), 32);
    }

    #[test]
    fn megabyte_formatting() {
        assert_eq!(format_megabytes(0), "0.0");
        assert_eq!(format_megabytes(1024 * 1024), "1.0");
        assert_eq!(format_megabytes(1024 * 1024 * 3 / 2), "1.5");
    }
}
