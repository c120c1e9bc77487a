//! Structures allocate a node only once a search shows the insert may
//! publish it, through `Guard::alloc`, so the scheme's allocation hook
//! runs once per inserted node and never for a key already present.
//!
//! The counting scheme counts its handle's hook calls and can run one
//! interfering operation from inside the hook — between an insert's
//! search and its CAS — which makes that CAS fail on purpose. The
//! counting allocator counts the calling thread's allocations and frees
//! only, so the harness's own threads cannot show up. Both live in this
//! test binary alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::sync::Arc;

use ts_smr::{DropFn, Smr, SmrHandle};
use ts_structures::{ConcurrentSet, HarrisList, LazyList, SkipList, SplitOrderedSet};

struct CountingAlloc;

thread_local! {
    /// Allocations and frees made by this thread. Const-initialized and
    /// `Drop`-free, so the allocator can bump them without allocating.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static FREES: Cell<usize> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<usize>>) {
    // `try_with`: a thread being torn down may still allocate.
    let _ = counter.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded to `System` unchanged; counting touches
// only const-initialized thread-local cells.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCATIONS);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCATIONS);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCATIONS);
        bump(&FREES);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(allocations, frees)` the calling thread makes inside `f`.
fn heap_traffic(f: impl FnOnce()) -> (usize, usize) {
    let before = (ALLOCATIONS.with(Cell::get), FREES.with(Cell::get));
    f();
    (
        ALLOCATIONS.with(Cell::get) - before.0,
        FREES.with(Cell::get) - before.1,
    )
}

/// A scheme that frees nothing (no test here removes a key) and counts
/// its handles' allocation hooks.
struct Counting;

#[derive(Default)]
struct CountingHandle {
    hooks: Cell<usize>,
    /// Run once, from inside the next hook call.
    interfere: RefCell<Option<Box<dyn FnOnce()>>>,
}

impl Smr for Counting {
    type Handle = CountingHandle;

    fn register(&self) -> CountingHandle {
        CountingHandle::default()
    }

    fn name(&self) -> &'static str {
        "counting"
    }
}

impl SmrHandle for CountingHandle {
    fn before_alloc(&self) {
        self.hooks.set(self.hooks.get() + 1);
        let interfere = self.interfere.borrow_mut().take();
        if let Some(interfere) = interfere {
            interfere();
        }
    }

    unsafe fn retire(&self, _addr: usize, _size: usize, _drop_fn: DropFn) {
        unreachable!("these tests remove nothing");
    }
}

const KEY: u64 = 1_000;

/// Keys spread over both buckets of a 2-bucket table, so some land in
/// `KEY`'s bucket; in a list they all sort before `KEY`.
const INTERFERING_KEYS: [u64; 16] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16];

/// Arms `handle` so that its next hook call inserts `keys` through a
/// second handle: the insert that called the hook, between its search
/// and its CAS, then finds the CAS target changed.
fn interfere<T>(set: &Arc<T>, handle: &CountingHandle, keys: &'static [u64])
where
    T: ConcurrentSet<Counting> + 'static,
{
    let set = Arc::clone(set);
    *handle.interfere.borrow_mut() = Some(Box::new(move || {
        let other = Counting.register();
        for &key in keys {
            assert!(set.insert(&other, key));
        }
        assert_eq!(other.hooks.get(), keys.len());
    }));
}

/// The structure's type, for failure messages.
fn name<T>() -> &'static str {
    std::any::type_name::<T>()
}

fn present_key_insert_calls_no_hook_and_allocates_nothing<T>(set: T)
where
    T: ConcurrentSet<Counting>,
{
    let handle = Counting.register();
    assert!(set.insert(&handle, KEY));
    assert_eq!(handle.hooks.get(), 1);
    let traffic = heap_traffic(|| assert!(!set.insert(&handle, KEY)));
    assert_eq!(traffic, (0, 0), "{}", name::<T>());
    assert_eq!(handle.hooks.get(), 1, "{}", name::<T>());
}

fn successful_insert_calls_the_hook_once_across_cas_retries<T>(set: T)
where
    T: ConcurrentSet<Counting> + 'static,
{
    let set = Arc::new(set);
    let handle = Counting.register();
    interfere(&set, &handle, &INTERFERING_KEYS);
    assert!(set.insert(&handle, KEY), "{}", name::<T>());
    assert!(handle.interfere.borrow().is_none(), "the interference ran");
    assert_eq!(handle.hooks.get(), 1, "{}", name::<T>());
    for key in INTERFERING_KEYS.into_iter().chain([KEY]) {
        assert!(set.contains(&handle, key), "{} lost {key}", name::<T>());
    }
}

fn lost_race_frees_the_unpublished_node<T>(set: T)
where
    T: ConcurrentSet<Counting> + 'static,
{
    let set = Arc::new(set);
    let handle = Counting.register();
    // Warms this thread's allocations outside the measured insert.
    assert!(set.insert(&handle, KEY));
    interfere(&set, &handle, &[KEY + 1]);
    let (allocations, frees) = heap_traffic(|| {
        assert!(!set.insert(&handle, KEY + 1), "{}", name::<T>());
    });
    assert_eq!(handle.hooks.get(), 2, "{}", name::<T>());
    // Allocated: our node and the winner's. Freed: our node, and the
    // interfering closure once it has run. The winner's stays published.
    assert_eq!((allocations, frees), (2, 2), "{}", name::<T>());
    assert!(set.contains(&handle, KEY + 1));
}

fn harris() -> HarrisList<Counting> {
    HarrisList::new()
}

/// Two buckets that never split: no insert here threads a new bucket.
fn split_ordered() -> SplitOrderedSet<Counting> {
    SplitOrderedSet::with_buckets(2).with_load_factor(usize::MAX)
}

#[test]
fn harris_present_key_insert_calls_no_hook_and_allocates_nothing() {
    present_key_insert_calls_no_hook_and_allocates_nothing(harris());
}

#[test]
fn split_ordered_present_key_insert_calls_no_hook_and_allocates_nothing() {
    present_key_insert_calls_no_hook_and_allocates_nothing(split_ordered());
}

/// The lock-based engine at both tower heights. Only this test applies:
/// an insert calls the hook holding its pred locks, where the other tests'
/// interfering inserts would wait for them forever.
#[test]
fn skiplist_present_key_insert_calls_no_hook_and_allocates_nothing() {
    present_key_insert_calls_no_hook_and_allocates_nothing(SkipList::<Counting>::new());
}

#[test]
fn lazy_list_present_key_insert_calls_no_hook_and_allocates_nothing() {
    present_key_insert_calls_no_hook_and_allocates_nothing(LazyList::<Counting>::new());
}

#[test]
fn harris_successful_insert_calls_the_hook_once_across_cas_retries() {
    successful_insert_calls_the_hook_once_across_cas_retries(harris());
}

#[test]
fn split_ordered_successful_insert_calls_the_hook_once_across_cas_retries() {
    successful_insert_calls_the_hook_once_across_cas_retries(split_ordered());
}

#[test]
fn harris_lost_race_frees_the_unpublished_node() {
    lost_race_frees_the_unpublished_node(harris());
}

#[test]
fn split_ordered_lost_race_frees_the_unpublished_node() {
    lost_race_frees_the_unpublished_node(split_ordered());
}
