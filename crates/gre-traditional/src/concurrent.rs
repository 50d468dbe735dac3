//! Concurrent derivatives of the traditional indexes.
//!
//! The paper evaluates B+TreeOLC, ART-OLC, HOT-ROWEX, Masstree and Wormhole
//! in its multi-threaded experiments (§4.2). The original C++ implementations
//! synchronize with optimistic lock coupling (OLC) or ROWEX protocols over
//! shared node memory. In safe Rust each is a [`gre_core::Partitioned`]
//! adapter over the single-threaded index, whose module doc states the
//! substitution: OLC and ROWEX become range-partitioned reader-writer locks,
//! and Wormhole's single inner-layer lock, whose write bottleneck the paper
//! highlights (Figures 5 and 11), is the one-partition case.

use crate::art::Art;
use crate::btree::BPlusTree;
use crate::hot::Hot;
use crate::masstree::Masstree;
use crate::wormhole::Wormhole;
use gre_core::{Key, Partitioned, DEFAULT_PARTITIONS};

/// B+TreeOLC: the concurrent B+-tree with leaf side-links (§3.1).
pub fn btree_olc<K: Key>() -> Partitioned<K, BPlusTree<K>> {
    Partitioned::new(DEFAULT_PARTITIONS, "B+treeOLC")
}

/// ART-OLC: ART with optimistic lock coupling and epoch reclamation (§3.1).
pub fn art_olc<K: Key>() -> Partitioned<K, Art<K>> {
    Partitioned::new(DEFAULT_PARTITIONS, "ART-OLC")
}

/// HOT-ROWEX: HOT with read-optimised write exclusion (§3.1).
pub fn hot_rowex<K: Key>() -> Partitioned<K, Hot<K>> {
    Partitioned::new(DEFAULT_PARTITIONS, "HOT-ROWEX")
}

/// The concurrent Masstree.
pub fn masstree_concurrent<K: Key>() -> Partitioned<K, Masstree<K>> {
    Partitioned::new(DEFAULT_PARTITIONS, "Masstree")
}

/// The concurrent Wormhole with its single inner-layer lock.
pub fn wormhole_concurrent<K: Key>() -> Partitioned<K, Wormhole<K>> {
    Partitioned::new(1, "Wormhole")
}
