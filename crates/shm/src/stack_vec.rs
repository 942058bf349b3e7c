//! A vector whose first few items live inline: the handful of slices one
//! frame is sent or received as, or the windows of a mapped message,
//! gathered without an allocation per frame.

use std::mem::MaybeUninit;
use std::ops::{Deref, DerefMut};

/// Up to `N` items inline and the rest on the heap.
pub struct StackVec<T, const N: usize> {
    /// How many `inline` slots hold an item; 0 once the items spilled.
    len: usize,
    inline: [MaybeUninit<T>; N],
    spilled: Vec<T>,
}

impl<T, const N: usize> StackVec<T, N> {
    /// Empty, with nothing on the heap.
    pub fn new() -> Self {
        StackVec { len: 0, inline: [const { MaybeUninit::uninit() }; N], spilled: Vec::new() }
    }

    /// Append an item, moving every item to the heap when the inline
    /// slots run out.
    pub fn push(&mut self, item: T) {
        if self.spilled.is_empty() {
            if self.len < N {
                self.inline[self.len].write(item);
                self.len += 1;
                return;
            }
            // `len` is zeroed first, so each item is moved out exactly once.
            let n = std::mem::take(&mut self.len);
            self.spilled.reserve(n + 1);
            // SAFETY: the first `n` inline slots hold items, read here once
            // and never again (`len` is 0 from now on).
            self.spilled.extend(self.inline[..n].iter().map(|s| unsafe { s.assume_init_read() }));
        }
        self.spilled.push(item);
    }
}

impl<T, const N: usize> Default for StackVec<T, N> {
    fn default() -> Self {
        StackVec::new()
    }
}

/// Collects inline, or into one allocation when the iterator promises
/// more items than fit inline.
impl<T, const N: usize> FromIterator<T> for StackVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        let items = items.into_iter();
        let mut v = StackVec::new();
        if items.size_hint().0 > N {
            v.spilled.extend(items);
        } else {
            items.for_each(|item| v.push(item));
        }
        v
    }
}

impl<T, const N: usize> Deref for StackVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        if self.spilled.is_empty() {
            // SAFETY: the first `len` inline slots hold items.
            unsafe { std::slice::from_raw_parts(self.inline.as_ptr().cast::<T>(), self.len) }
        } else {
            &self.spilled
        }
    }
}

impl<T, const N: usize> DerefMut for StackVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        if self.spilled.is_empty() {
            // SAFETY: the first `len` inline slots hold items, borrowed
            // exclusively through `self`.
            unsafe {
                std::slice::from_raw_parts_mut(self.inline.as_mut_ptr().cast::<T>(), self.len)
            }
        } else {
            &mut self.spilled
        }
    }
}

impl<T, const N: usize> Drop for StackVec<T, N> {
    fn drop(&mut self) {
        let inline =
            std::ptr::slice_from_raw_parts_mut(self.inline.as_mut_ptr().cast::<T>(), self.len);
        // SAFETY: the first `len` inline slots hold items, dropped here
        // once; spilled items are the vector's to drop.
        unsafe { std::ptr::drop_in_place(inline) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn items_that_own_memory_are_dropped_once_inline_or_spilled() {
        let item = Arc::new(7u64);
        for count in [0, 1, 3, 4, 9] {
            let mut v: StackVec<Arc<u64>, 3> = StackVec::new();
            (0..count).for_each(|_| v.push(Arc::clone(&item)));
            assert_eq!(v.len(), count);
            assert_eq!(Arc::strong_count(&item), count + 1);
            v.iter().for_each(|a| assert_eq!(**a, 7));
            drop(v);
            assert_eq!(Arc::strong_count(&item), 1, "{count} items");
            let collected: StackVec<Arc<u64>, 3> = (0..count).map(|_| Arc::clone(&item)).collect();
            assert_eq!(collected.len(), count);
            drop(collected);
            assert_eq!(Arc::strong_count(&item), 1, "{count} items collected");
        }
    }
}
