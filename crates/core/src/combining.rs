//! CRCW packet combining: pending tables with reply fan-out.
//!
//! Theorem 2.6 upgrades the EREW emulation to CRCW by "combining all
//! incoming packets having the same destination into one packet and
//! storing log d direction bits … to make sure each requesting processor
//! receives a reply" (footnote 3: any number of same-destination arrivals
//! combine in unit time).
//!
//! We realise this with one *pending table* for the whole network, keyed
//! by `(node, address, trail)`: the first read request for a key at a
//! node is forwarded and opens an entry; later requests for the same key
//! at that node are absorbed, appending their arrival direction to the
//! entry's fan-out list (those are the direction bits). The read reply
//! retraces the request tree in reverse: at each node it takes the entry
//! and emits one copy per recorded direction, in registration order, plus
//! a local delivery if this node's own processor requested the cell.
//!
//! The table is flat so that a PRAM step allocates nothing once it has
//! warmed up: an index from key to entry slot (hashed by a small
//! deterministic integer hasher), a slot vector, and one arena holding
//! every entry's fan-out and chain lists as append-order linked lists.
//! [`PendingTables::take`] hands back a `Copy` [`Pending`] handle whose
//! lists the caller walks with [`PendingTables::next`];
//! [`PendingTables::reset`] empties all three buffers and keeps their
//! capacity.
//!
//! Correctness rests on the routes being *memoryless and convergent*:
//! once two requests for the same key meet at a node, their remaining
//! paths coincide (true for the unique-path phase of leveled networks,
//! for the greedy star route, and for the deterministic legs of the mesh
//! algorithm), so the absorbed request's reply is guaranteed to pass back
//! through the absorbing node.
//!
//! The `trail` component of the key is 0 when combining is enabled; with
//! combining disabled (ablation A4) it is the requesting processor id, so
//! every request keeps a private trail and nothing merges.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Where a pending request came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The processor co-located with this node issued it.
    Local,
    /// It arrived from this neighboring node.
    FromNode(u32),
    /// It continues another pending trail *at this same node* — used where
    /// a private random-phase trail joins the shared convergent-phase tree
    /// (the star/mesh emulators; see the deadlock discussion below). When
    /// the reply consumes this entry it immediately processes the chained
    /// trail's entry at the same node.
    Chain(u32),
}

/// A taken pending read: where its reply goes. The lists are walked with
/// [`PendingTables::next`] and stay readable until the next
/// [`PendingTables::reset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pending {
    /// Deliver to this node's own processor too?
    pub local: bool,
    /// Neighbor nodes to copy the reply to, in registration order.
    pub fanout: Cursor,
    /// Trails to continue at this same node (see [`Source::Chain`]), in
    /// registration order.
    pub chains: Cursor,
}

/// A position in one of a [`Pending`] entry's lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cursor(u32);

/// End of a list in the link arena.
const NIL: u32 = u32::MAX;

/// An append-order list in the link arena.
#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

impl List {
    const EMPTY: List = List {
        head: NIL,
        tail: NIL,
    };
}

/// One list element in the link arena.
#[derive(Debug, Clone, Copy)]
struct Link {
    value: u32,
    next: u32,
}

/// One pending read.
#[derive(Debug, Clone, Copy)]
struct Slot {
    fanout: List,
    chains: List,
    local: bool,
}

/// `(node, addr, trail)`, hashed as two words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    addr: u64,
    /// `node << 32 | trail`.
    node_trail: u64,
}

impl Key {
    fn new(node: usize, addr: u64, trail: u32) -> Self {
        Key {
            addr,
            node_trail: (node as u64) << 32 | u64::from(trail),
        }
    }
}

/// Multiply-xor hasher for [`Key`]: deterministic (no random state) and
/// a few cycles per key, where the default SipHash costs tens.
#[derive(Debug, Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    /// Fold the well-mixed high half into the low bits the table indexes by.
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// The pending-read table of every node of the emulating network.
#[derive(Debug, Clone)]
pub struct PendingTables {
    nodes: usize,
    /// Key → index into `slots`, for entries not yet taken.
    index: HashMap<Key, u32, BuildHasherDefault<KeyHasher>>,
    slots: Vec<Slot>,
    links: Vec<Link>,
    combined: u32,
}

impl PendingTables {
    /// Tables for a network of `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        PendingTables {
            nodes,
            index: HashMap::default(),
            slots: Vec::new(),
            links: Vec::new(),
            combined: 0,
        }
    }

    /// Register a read request for `(addr, trail)` arriving at `node` from
    /// `source`. Returns `true` when this is the first request for the key
    /// here — the caller must forward the packet. `false` means absorbed
    /// (a combining event).
    pub fn register(&mut self, node: usize, addr: u64, trail: u32, source: Source) -> bool {
        assert!(node < self.nodes, "register at a node outside the network");
        let fresh = self.slots.len() as u32;
        let (slot, first) = match self.index.entry(Key::new(node, addr, trail)) {
            Entry::Occupied(e) => (*e.get(), false),
            Entry::Vacant(e) => {
                e.insert(fresh);
                self.slots.push(Slot {
                    fanout: List::EMPTY,
                    chains: List::EMPTY,
                    local: false,
                });
                (fresh, true)
            }
        };
        let slot = &mut self.slots[slot as usize];
        match source {
            Source::Local => {
                debug_assert!(!slot.local, "one op per processor per step");
                slot.local = true;
            }
            Source::FromNode(u) => append(&mut self.links, &mut slot.fanout, u),
            Source::Chain(t) => append(&mut self.links, &mut slot.chains, t),
        }
        if !first {
            self.combined += 1;
        }
        first
    }

    /// Remove the entry for `(addr, trail)` at `node` and return its
    /// handle — called when the reply passes through. Panics if no entry
    /// exists (a reply must always follow a registered request path).
    pub fn take(&mut self, node: usize, addr: u64, trail: u32) -> Pending {
        let slot = self
            .index
            .remove(&Key::new(node, addr, trail))
            .unwrap_or_else(|| {
                panic!("reply at node {node} for ({addr},{trail}) with no pending entry")
            });
        let s = self.slots[slot as usize];
        Pending {
            local: s.local,
            fanout: Cursor(s.fanout.head),
            chains: Cursor(s.chains.head),
        }
    }

    /// The list element at `cursor`, advancing it; `None` at the end.
    pub fn next(&self, cursor: &mut Cursor) -> Option<u32> {
        if cursor.0 == NIL {
            return None;
        }
        let link = self.links[cursor.0 as usize];
        cursor.0 = link.next;
        Some(link.value)
    }

    /// Combining events since construction or the last [`Self::reset`].
    pub fn combined(&self) -> u32 {
        self.combined
    }

    /// Clear all entries and the combining counter (start of a PRAM step
    /// or after a rehash), keeping the buffers' capacity.
    pub fn reset(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.links.clear();
        self.combined = 0;
    }

    /// Are all entries taken? (After a completed reply phase they must
    /// be — asserted by the emulators in debug builds.)
    pub fn all_clear(&self) -> bool {
        self.index.is_empty()
    }
}

/// Append `value` to `list`, keeping registration order.
fn append(links: &mut Vec<Link>, list: &mut List, value: u32) {
    let at = links.len() as u32;
    links.push(Link { value, next: NIL });
    if list.head == NIL {
        list.head = at;
    } else {
        links[list.tail as usize].next = at;
    }
    list.tail = at;
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnpram_math::rng::SeedSeq;
    use proptest::prelude::*;
    use rand::Rng;
    use std::collections::BTreeMap;

    /// Every element of the list at `cursor`.
    fn walk(pt: &PendingTables, mut cursor: Cursor) -> Vec<u32> {
        std::iter::from_fn(|| pt.next(&mut cursor)).collect()
    }

    #[test]
    fn first_registration_forwards_rest_absorb() {
        let mut pt = PendingTables::new(4);
        assert!(pt.register(2, 100, 0, Source::Local));
        assert!(!pt.register(2, 100, 0, Source::FromNode(1)));
        assert!(!pt.register(2, 100, 0, Source::FromNode(3)));
        assert_eq!(pt.combined(), 2);
        let e = pt.take(2, 100, 0);
        assert!(e.local);
        assert_eq!(walk(&pt, e.fanout), vec![1, 3]);
        assert!(pt.all_clear());
    }

    #[test]
    fn distinct_trails_do_not_merge() {
        let mut pt = PendingTables::new(2);
        assert!(pt.register(0, 100, 7, Source::Local));
        assert!(pt.register(0, 100, 8, Source::FromNode(1)));
        assert_eq!(pt.combined(), 0);
    }

    #[test]
    fn distinct_addresses_do_not_merge() {
        let mut pt = PendingTables::new(2);
        assert!(pt.register(1, 5, 0, Source::Local));
        assert!(pt.register(1, 6, 0, Source::Local));
        assert_eq!(pt.combined(), 0);
    }

    #[test]
    fn per_node_isolation() {
        let mut pt = PendingTables::new(3);
        assert!(pt.register(0, 9, 0, Source::Local));
        assert!(pt.register(1, 9, 0, Source::FromNode(0)));
        assert_eq!(pt.combined(), 0);
        let e = pt.take(1, 9, 0);
        assert_eq!(walk(&pt, e.fanout), vec![0]);
        assert!(!pt.all_clear());
        pt.take(0, 9, 0);
        assert!(pt.all_clear());
    }

    #[test]
    fn chained_trails_count_as_combining() {
        let mut pt = PendingTables::new(2);
        assert!(pt.register(0, 4, 0, Source::Chain(7)));
        assert!(!pt.register(0, 4, 0, Source::Chain(9)));
        assert_eq!(pt.combined(), 1);
        let e = pt.take(0, 4, 0);
        assert_eq!(walk(&pt, e.chains), vec![7, 9]);
        assert!(walk(&pt, e.fanout).is_empty());
    }

    #[test]
    #[should_panic(expected = "no pending entry")]
    fn reply_without_request_panics() {
        let mut pt = PendingTables::new(1);
        pt.take(0, 1, 0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut pt = PendingTables::new(2);
        pt.register(0, 1, 0, Source::Local);
        pt.register(0, 1, 0, Source::FromNode(1));
        pt.reset();
        assert!(pt.all_clear());
        assert_eq!(pt.combined(), 0);
    }

    #[test]
    fn handles_stay_readable_after_later_takes() {
        let mut pt = PendingTables::new(2);
        pt.register(0, 1, 0, Source::FromNode(1));
        pt.register(0, 1, 0, Source::FromNode(5));
        pt.register(1, 1, 0, Source::Chain(3));
        let a = pt.take(0, 1, 0);
        let b = pt.take(1, 1, 0);
        assert_eq!(walk(&pt, a.fanout), vec![1, 5]);
        assert_eq!(walk(&pt, b.chains), vec![3]);
    }

    /// The naive model: one owned entry per live key, in a `BTreeMap`.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    struct PendingEntry {
        fanout: Vec<u32>,
        chains: Vec<u32>,
        local: bool,
    }

    proptest! {
        /// The flat table against the naive model on random interleaved
        /// register/take/reset sequences over a few nodes, addresses and
        /// trails (so keys collide, absorb and reopen after a take).
        #[test]
        fn prop_flat_table_matches_btreemap_model(seed: u64, ops in 1usize..400) {
            let mut rng = SeedSeq::new(seed).rng();
            let nodes = rng.gen_range(1..6usize);
            let mut pt = PendingTables::new(nodes);
            let mut model: BTreeMap<(usize, u64, u32), PendingEntry> = BTreeMap::new();
            let mut combined = 0u32;
            for _ in 0..ops {
                let key = (
                    rng.gen_range(0..nodes),
                    rng.gen_range(0..4u64),
                    rng.gen_range(0..3u32),
                );
                let (node, addr, trail) = key;
                match rng.gen_range(0..20) {
                    0 => {
                        pt.reset();
                        model.clear();
                        combined = 0;
                    }
                    1..=6 => {
                        let Some(want) = model.remove(&key) else {
                            continue;
                        };
                        let got = pt.take(node, addr, trail);
                        prop_assert_eq!(got.local, want.local);
                        prop_assert_eq!(walk(&pt, got.fanout), want.fanout);
                        prop_assert_eq!(walk(&pt, got.chains), want.chains);
                    }
                    _ => {
                        let source = match rng.gen_range(0..3) {
                            0 if !model.get(&key).is_some_and(|e| e.local) => Source::Local,
                            1 => Source::Chain(rng.gen_range(0..50)),
                            _ => Source::FromNode(rng.gen_range(0..50)),
                        };
                        let entry = model.entry(key).or_default();
                        let first = entry == &PendingEntry::default();
                        match source {
                            Source::Local => entry.local = true,
                            Source::FromNode(u) => entry.fanout.push(u),
                            Source::Chain(t) => entry.chains.push(t),
                        }
                        combined += u32::from(!first);
                        prop_assert_eq!(pt.register(node, addr, trail, source), first);
                    }
                }
                prop_assert_eq!(pt.combined(), combined);
                prop_assert_eq!(pt.all_clear(), model.is_empty());
            }
        }
    }
}
