//! # ts-structures — the data structures from the ThreadScan evaluation
//!
//! Three concurrent integer sets, written once against the `ts-smr`
//! reclamation trait and therefore runnable under all five schemes the
//! paper compares (§6 "Data Structures"):
//!
//! 1. [`HarrisList`] — Harris' lock-free linked list, 16-byte nodes
//!    (the paper pads them to 172; Figure 3, left).
//! 2. [`LockFreeHashTable`] — Synchrobench-style fixed bucket array of
//!    Harris lists, expected bucket length 32 (Figure 3, middle).
//! 3. [`SkipList`] — lock-based optimistic (lazy) skip list with a
//!    lock-free, unsynchronized `contains` (Figure 3, right).
//!
//! Plus [`LazyList`], the introduction's motivating structure (§1:
//! fine-grained locks on the two adjacent nodes for updates, lock-ignoring
//! traversals): the [`SkipList`]'s own code at tower height 1. Its
//! Figure-1 pattern — a traversal racing a disconnect + free — is exactly
//! the `remove`/`contains` race all four structures exhibit; the
//! integration tests drive it under real signal-based reclamation.
//!
//! Beyond the evaluation's three structures, two more of the
//! unsynchronized-traversal structures the introduction cites:
//!
//! * [`PriorityQueue`] — Shavit–Lotan skiplist priority queue (cite
//!   \[43\]): the [`SkipList`] plus a per-node claim flag, sharing its
//!   search, locking and removal step;
//! * [`SplitOrderedSet`] — Shalev–Shavit split-ordered-list hash table
//!   with lock-free dynamic resizing over an unbounded
//!   [`GrowableDirectory`] (cite \[42\]): one Harris list with bucket
//!   dummies threaded in, searched, inserted into and removed from by
//!   [`HarrisList`]'s own code, started at a bucket dummy.
//!
//! So the six kinds run on two algorithms: Harris' lock-free list under
//! the list, the hash table and the split-ordered table, and the lazy
//! lock-based skip list under the skip list, the lazy list and the queue.
//! The harness drives every structure, the queue included, as a
//! `dyn ConcurrentSet<S>` object over one concrete scheme `S`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod growable_dir;
pub mod harris_list;
pub mod hash_table;
pub mod lazy_list;
pub mod priority_queue;
pub mod set_trait;
mod skiplist;
pub mod split_ordered;
pub mod tagged;

pub use growable_dir::GrowableDirectory;
pub use harris_list::HarrisList;
pub use hash_table::LockFreeHashTable;
pub use lazy_list::LazyList;
pub use priority_queue::PriorityQueue;
pub use set_trait::ConcurrentSet;
pub use skiplist::{SkipList, MAX_HEIGHT, REQUIRED_SLOTS};
pub use split_ordered::{SplitOrderedSet, DEFAULT_LOAD_FACTOR};
