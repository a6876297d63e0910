//! CRCW packet combining: pending tables with reply fan-out.
//!
//! Theorem 2.6 upgrades the EREW emulation to CRCW by "combining all
//! incoming packets having the same destination into one packet and
//! storing log d direction bits … to make sure each requesting processor
//! receives a reply" (footnote 3: any number of same-destination arrivals
//! combine in unit time).
//!
//! **Entries and handles.** Every node a read request passes through
//! holds a *pending entry* for it, addressed by a [`Handle`] (its slot
//! index). The first request for an address at a node opens an entry and
//! is forwarded carrying that handle; a later request for the same
//! address at that node is absorbed into the entry. Each arrival appends
//! its [`Source`] to the entry: a local mark, a fan-out element `(reply
//! port, child handle)` naming the link back to the sender and the
//! sender's own entry (those are the paper's direction bits), or a chain
//! to another entry at the same node.
//!
//! **The reply** carries the handle of the entry it is about to unwind,
//! so it does no lookups: [`PendingTables::take`] is an array index, and
//! the reply leaves on every recorded port, in registration order, with
//! the child handle as its new tag, plus a local delivery if this node's
//! own processor asked. The module-column entry's handle is the read's
//! `trail` in [`crate::memory::ModuleRequest::Read`], so the reply
//! injected for it starts with the right handle.
//!
//! **Only shared addresses are indexed.** Finding the entry an arriving
//! request joins needs an index keyed by `(node, address)`. A request can
//! only join another request's entry when some other read of the step
//! reads the same address, so [`SharedReads`] marks those reads once per
//! step (one hash operation per read), and only they go through the
//! index ([`PendingTables::register`]). Every other entry is appended
//! without one ([`PendingTables::open`]): reads of an address nobody else
//! reads, every request when combining is off (ablation A4, where every
//! request keeps a private trail), and the star's private phase-0 trails
//! (`star_emulator`). Such an entry could never have found a partner, so
//! forwarding, absorption and every list are what an indexed entry would
//! have had.
//!
//! The table is flat so that a PRAM step allocates nothing once it has
//! warmed up: the index (hashed by a small deterministic integer
//! hasher), a slot vector, and one arena holding every entry's fan-out
//! and chain lists as append-order linked lists. [`PendingTables::take`]
//! hands back a `Copy` [`Pending`] whose lists the caller walks with
//! [`PendingTables::next`]; [`PendingTables::reset`] empties all three
//! buffers and keeps their capacity.
//!
//! Correctness rests on the routes being *memoryless and convergent*:
//! once two requests for the same address meet at a node, their remaining
//! paths coincide (true for the unique-path phase of leveled networks and
//! for the greedy star route), so the absorbed request's reply is
//! guaranteed to pass back through the absorbing node.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A pending entry's address in [`PendingTables`]: its slot index, valid
/// until the next [`PendingTables::reset`]. Packets carry it in a `u32`
/// field.
pub type Handle = u32;

/// Where a pending request came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The processor co-located with this node issued it.
    Local,
    /// It arrived over a link. The reply leaves on `port` (this node's
    /// port back to the sender) and continues at the sender's entry
    /// `child`.
    Neighbor {
        /// Reply-network port toward the sender.
        port: u32,
        /// The sender's pending entry for this request.
        child: Handle,
    },
    /// It continues the entry `child` *at this same node* — used where
    /// a private random-phase trail joins the shared convergent-phase tree
    /// (the star emulator; see its module docs for the deadlock argument).
    /// When the reply takes this entry it immediately takes `child` too.
    Chain(Handle),
}

/// A taken pending read: where its reply goes. The lists are walked with
/// [`PendingTables::next`] and stay readable until the next
/// [`PendingTables::reset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pending {
    /// Deliver to this node's own processor too?
    pub local: bool,
    /// `(reply port, child handle)` per sender, in registration order.
    pub fanout: Cursor,
    /// Entries to continue at this same node (see [`Source::Chain`]), in
    /// registration order; their ports are unused.
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
    port: u32,
    child: Handle,
    next: u32,
}

/// One pending read.
#[derive(Debug, Clone, Copy)]
struct Slot {
    fanout: List,
    chains: List,
    local: bool,
    taken: bool,
}

impl Slot {
    const EMPTY: Slot = Slot {
        fanout: List::EMPTY,
        chains: List::EMPTY,
        local: false,
        taken: false,
    };
}

/// `(node, addr)`, hashed as two words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    addr: u64,
    node: u64,
}

/// Multiply-xor hasher for [`Key`] and addresses: deterministic (no
/// random state) and a few cycles per key, where the default SipHash
/// costs tens.
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

type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// The pending-read table of every node of the emulating network.
#[derive(Debug, Clone)]
pub struct PendingTables {
    nodes: usize,
    /// `(node, addr)` → the entry a shared read there joins. An entry
    /// stays indexed after it is taken; a later registration of its key
    /// opens a fresh one.
    index: KeyMap<Key, Handle>,
    slots: Vec<Slot>,
    links: Vec<Link>,
    combined: u32,
    taken: u32,
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
            taken: 0,
        }
    }

    /// Open a fresh entry that no later request can join, recording
    /// `source`. The caller forwards the request with the returned handle.
    pub fn open(&mut self, source: Source) -> Handle {
        let handle = self.slots.len() as Handle;
        self.slots.push(Slot::EMPTY);
        self.attach(handle, source);
        handle
    }

    /// Register a read of `addr` arriving at `node` from `source`, joining
    /// the entry an earlier read of `addr` opened here. Returns the
    /// entry's handle and `true` when this is the first read of the key
    /// here — the caller must forward the packet. `false` means absorbed
    /// (a combining event).
    pub fn register(&mut self, node: usize, addr: u64, source: Source) -> (Handle, bool) {
        assert!(node < self.nodes, "register at a node outside the network");
        let fresh = self.slots.len() as Handle;
        let key = Key {
            addr,
            node: node as u64,
        };
        let (handle, first) = match self.index.entry(key) {
            Entry::Occupied(e) if !self.slots[*e.get() as usize].taken => (*e.get(), false),
            Entry::Occupied(mut e) => {
                e.insert(fresh);
                (fresh, true)
            }
            Entry::Vacant(e) => {
                e.insert(fresh);
                (fresh, true)
            }
        };
        if first {
            self.slots.push(Slot::EMPTY);
        } else {
            self.combined += 1;
        }
        self.attach(handle, source);
        (handle, first)
    }

    /// Record `source` on entry `handle`.
    fn attach(&mut self, handle: Handle, source: Source) {
        let slot = &mut self.slots[handle as usize];
        match source {
            Source::Local => {
                debug_assert!(!slot.local, "one op per processor per step");
                slot.local = true;
            }
            Source::Neighbor { port, child } => {
                append(&mut self.links, &mut slot.fanout, port, child);
            }
            Source::Chain(child) => append(&mut self.links, &mut slot.chains, NIL, child),
        }
    }

    /// Take entry `handle` — called when the reply passes through. Panics
    /// if the handle was never issued or is already taken (a reply must
    /// follow a registered request path exactly once).
    pub fn take(&mut self, handle: Handle) -> Pending {
        let slot = self
            .slots
            .get_mut(handle as usize)
            .filter(|s| !s.taken)
            .unwrap_or_else(|| panic!("reply for handle {handle} with no pending entry"));
        slot.taken = true;
        self.taken += 1;
        Pending {
            local: slot.local,
            fanout: Cursor(slot.fanout.head),
            chains: Cursor(slot.chains.head),
        }
    }

    /// The `(port, child)` list element at `cursor`, advancing it; `None`
    /// at the end.
    pub fn next(&self, cursor: &mut Cursor) -> Option<(u32, Handle)> {
        if cursor.0 == NIL {
            return None;
        }
        let link = self.links[cursor.0 as usize];
        cursor.0 = link.next;
        Some((link.port, link.child))
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
        self.taken = 0;
    }

    /// Are all entries taken? (After a completed reply phase they must
    /// be — asserted by the emulators in debug builds.)
    pub fn all_clear(&self) -> bool {
        self.taken as usize == self.slots.len()
    }

    /// The address of every indexed key, in no particular order.
    #[cfg(test)]
    pub(crate) fn indexed_addrs(&self) -> impl Iterator<Item = u64> + '_ {
        self.index.keys().map(|k| k.addr)
    }
}

/// Append `(port, child)` to `list`, keeping registration order.
fn append(links: &mut Vec<Link>, list: &mut List, port: u32, child: Handle) {
    let at = links.len() as u32;
    links.push(Link {
        port,
        child,
        next: NIL,
    });
    if list.head == NIL {
        list.head = at;
    } else {
        links[list.tail as usize].next = at;
    }
    list.tail = at;
}

/// Which of a step's requests are reads that can combine: a read whose
/// address no other read of the step reads never meets a partner, so its
/// entries need no index. Buffers are reused from step to step.
#[derive(Debug, Clone, Default)]
pub struct SharedReads {
    /// Address → the first request reading it.
    first: KeyMap<u64, u32>,
    shared: Vec<bool>,
}

impl SharedReads {
    /// Recompute from one step's requests in request-id order: `Some(addr)`
    /// for a read that may combine, `None` for any other request (every
    /// request, when combining is off).
    pub fn mark(&mut self, reads: impl IntoIterator<Item = Option<u64>>) {
        self.first.clear();
        self.shared.clear();
        for (id, addr) in reads.into_iter().enumerate() {
            self.shared.push(false);
            let Some(addr) = addr else { continue };
            match self.first.entry(addr) {
                Entry::Vacant(e) => {
                    e.insert(id as u32);
                }
                Entry::Occupied(e) => {
                    self.shared[*e.get() as usize] = true;
                    self.shared[id] = true;
                }
            }
        }
    }

    /// Does request `id` read an address another read of the step reads?
    pub fn get(&self, id: u32) -> bool {
        self.shared[id as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnpram_math::rng::SeedSeq;
    use proptest::prelude::*;
    use rand::Rng;
    use std::collections::BTreeMap;

    /// Every `(port, child)` of the list at `cursor`.
    fn walk(pt: &PendingTables, mut cursor: Cursor) -> Vec<(u32, Handle)> {
        std::iter::from_fn(|| pt.next(&mut cursor)).collect()
    }

    fn ports(pt: &PendingTables, cursor: Cursor) -> Vec<u32> {
        walk(pt, cursor).into_iter().map(|(p, _)| p).collect()
    }

    fn children(pt: &PendingTables, cursor: Cursor) -> Vec<Handle> {
        walk(pt, cursor).into_iter().map(|(_, c)| c).collect()
    }

    fn from(port: u32, child: Handle) -> Source {
        Source::Neighbor { port, child }
    }

    #[test]
    fn first_registration_forwards_rest_absorb() {
        let mut pt = PendingTables::new(4);
        let (h, first) = pt.register(2, 100, Source::Local);
        assert!(first);
        assert_eq!(pt.register(2, 100, from(1, 11)), (h, false));
        assert_eq!(pt.register(2, 100, from(3, 13)), (h, false));
        assert_eq!(pt.combined(), 2);
        let e = pt.take(h);
        assert!(e.local);
        assert_eq!(ports(&pt, e.fanout), vec![1, 3]);
        assert_eq!(children(&pt, e.fanout), vec![11, 13]);
        assert!(pt.all_clear());
    }

    #[test]
    fn distinct_trails_do_not_merge() {
        // Private trails are opened, never indexed: two of them for one
        // address at one node stay apart, and a shared read of the same
        // address does not find them.
        let mut pt = PendingTables::new(2);
        let a = pt.open(Source::Local);
        let b = pt.open(from(1, 0));
        assert_ne!(a, b);
        assert!(pt.register(0, 100, from(1, 0)).1);
        assert_eq!(pt.combined(), 0);
    }

    #[test]
    fn distinct_addresses_do_not_merge() {
        let mut pt = PendingTables::new(2);
        assert!(pt.register(1, 5, Source::Local).1);
        assert!(pt.register(1, 6, Source::Local).1);
        assert_eq!(pt.combined(), 0);
    }

    #[test]
    fn per_node_isolation() {
        let mut pt = PendingTables::new(3);
        let (h0, first0) = pt.register(0, 9, Source::Local);
        let (h1, first1) = pt.register(1, 9, from(0, h0));
        assert!(first0 && first1);
        assert_eq!(pt.combined(), 0);
        let e = pt.take(h1);
        assert_eq!(walk(&pt, e.fanout), vec![(0, h0)]);
        assert!(!pt.all_clear());
        pt.take(h0);
        assert!(pt.all_clear());
    }

    #[test]
    fn chained_trails_count_as_combining() {
        let mut pt = PendingTables::new(2);
        let (h, first) = pt.register(0, 4, Source::Chain(7));
        assert!(first);
        assert!(!pt.register(0, 4, Source::Chain(9)).1);
        assert_eq!(pt.combined(), 1);
        let e = pt.take(h);
        assert_eq!(children(&pt, e.chains), vec![7, 9]);
        assert!(walk(&pt, e.fanout).is_empty());
    }

    #[test]
    #[should_panic(expected = "no pending entry")]
    fn reply_without_request_panics() {
        let mut pt = PendingTables::new(1);
        pt.take(0);
    }

    #[test]
    #[should_panic(expected = "no pending entry")]
    fn second_reply_for_one_entry_panics() {
        let mut pt = PendingTables::new(1);
        let h = pt.open(Source::Local);
        pt.take(h);
        pt.take(h);
    }

    #[test]
    fn taken_key_reopens_on_register() {
        let mut pt = PendingTables::new(1);
        let (a, _) = pt.register(0, 3, Source::Local);
        pt.take(a);
        let (b, first) = pt.register(0, 3, from(2, 5));
        assert!(first);
        assert_ne!(a, b);
        assert_eq!(pt.combined(), 0);
        assert!(!pt.all_clear());
    }

    #[test]
    fn reset_clears_everything() {
        let mut pt = PendingTables::new(2);
        pt.register(0, 1, Source::Local);
        pt.register(0, 1, from(1, 0));
        pt.open(Source::Local);
        pt.reset();
        assert!(pt.all_clear());
        assert_eq!(pt.combined(), 0);
        assert_eq!(pt.indexed_addrs().count(), 0);
        assert!(pt.register(0, 1, Source::Local).1);
    }

    #[test]
    fn handles_stay_readable_after_later_takes() {
        let mut pt = PendingTables::new(2);
        let (a, _) = pt.register(0, 1, from(1, 10));
        pt.register(0, 1, from(5, 50));
        let b = pt.open(Source::Chain(3));
        let a = pt.take(a);
        let b = pt.take(b);
        assert_eq!(walk(&pt, a.fanout), vec![(1, 10), (5, 50)]);
        assert_eq!(children(&pt, b.chains), vec![3]);
    }

    #[test]
    fn shared_reads_marks_every_reader_of_a_repeated_address() {
        let mut sr = SharedReads::default();
        sr.mark([Some(4), None, Some(7), Some(4), Some(9), None, Some(4)]);
        let got: Vec<bool> = (0..7).map(|id| sr.get(id)).collect();
        assert_eq!(got, [true, false, false, true, false, false, true]);
        // Buffers are reused: a step of distinct reads marks nothing.
        sr.mark([Some(4), Some(7)]);
        assert!(!sr.get(0) && !sr.get(1));
    }

    /// The naive model: one owned entry per issued handle.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    struct PendingEntry {
        fanout: Vec<(u32, Handle)>,
        chains: Vec<Handle>,
        local: bool,
    }

    proptest! {
        /// The flat table against the naive model on random interleaved
        /// register/open/take/reset sequences over a few nodes and
        /// addresses (so keys collide, absorb and reopen after a take).
        /// `None` in `entries` marks a taken handle.
        #[test]
        fn prop_flat_table_matches_btreemap_model(seed: u64, ops in 1usize..400) {
            let mut rng = SeedSeq::new(seed).rng();
            let nodes = rng.gen_range(1..6usize);
            let mut pt = PendingTables::new(nodes);
            let mut entries: Vec<Option<PendingEntry>> = Vec::new();
            let mut index: BTreeMap<(usize, u64), Handle> = BTreeMap::new();
            let mut combined = 0u32;
            for _ in 0..ops {
                let key = (rng.gen_range(0..nodes), rng.gen_range(0..4u64));
                match rng.gen_range(0..20) {
                    0 => {
                        pt.reset();
                        entries.clear();
                        index.clear();
                        combined = 0;
                    }
                    1..=6 => {
                        let live: Vec<usize> =
                            (0..entries.len()).filter(|&h| entries[h].is_some()).collect();
                        if live.is_empty() {
                            continue;
                        }
                        let h = live[rng.gen_range(0..live.len())];
                        let want = entries[h].take().unwrap();
                        let got = pt.take(h as Handle);
                        prop_assert_eq!(got.local, want.local);
                        prop_assert_eq!(walk(&pt, got.fanout), want.fanout);
                        prop_assert_eq!(children(&pt, got.chains), want.chains);
                    }
                    step => {
                        let open = step < 10;
                        // The handle this request joins or opens, per the model.
                        let joined = if open {
                            None
                        } else {
                            index
                                .get(&key)
                                .copied()
                                .filter(|&h| entries[h as usize].is_some())
                        };
                        let (handle, first) =
                            joined.map_or((entries.len() as Handle, true), |h| (h, false));
                        if first {
                            entries.push(Some(PendingEntry::default()));
                            if !open {
                                index.insert(key, handle);
                            }
                        }
                        let entry = entries[handle as usize].as_mut().unwrap();
                        let source = match rng.gen_range(0..3) {
                            0 if !entry.local => Source::Local,
                            1 => Source::Chain(rng.gen_range(0..50)),
                            _ => from(rng.gen_range(0..8), rng.gen_range(0..50)),
                        };
                        match source {
                            Source::Local => entry.local = true,
                            Source::Neighbor { port, child } => entry.fanout.push((port, child)),
                            Source::Chain(child) => entry.chains.push(child),
                        }
                        combined += u32::from(!first);
                        if open {
                            prop_assert_eq!(pt.open(source), handle);
                        } else {
                            prop_assert_eq!(pt.register(key.0, key.1, source), (handle, first));
                        }
                    }
                }
                prop_assert_eq!(pt.combined(), combined);
                prop_assert_eq!(pt.all_clear(), entries.iter().all(Option::is_none));
            }
        }
    }
}
