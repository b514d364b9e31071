//! Connection tracking with a fixed-capacity slot pool and LRU eviction.
//!
//! The slot arena's memory is reserved at construction — no per-packet
//! allocation, mirroring the kernel's conntrack slab + the safe-ext
//! pool-allocator discipline. Slots are handed out in index order and
//! never freed singly (eviction reuses the victim's slot), so the arena
//! grows by one initialised slot per new flow until it is full: building
//! a table initialises no slot.
//! Entries live in the slot arena threaded onto two intrusive
//! doubly-linked lists by index: the LRU list of every entry, and the
//! `Closed` list of the `Closed` entries only, kept in the same recency
//! order. A `HashMap` maps flow keys to slot indices. When the arena is
//! full, eviction takes the least-recently-used `Closed` entry (the
//! `Closed` list's tail) and falls back to the LRU tail: O(1) either way.
//! The flow log is a vector of fixed-size records, formatted only when
//! [`Conntrack::flow_log_fingerprint`] is asked for.
//!
//! # Determinism contract
//!
//! Every mutation is driven solely by the observed packet sequence — no
//! wall-clock reads, no randomness. Two tables fed the same packets in
//! the same order are bit-identical, and the timestamp-free
//! [`Conntrack::flow_log_fingerprint`] is the cross-framework comparison
//! point: the interpreter, the JIT, and the safe-ext runtime charge
//! different virtual-clock costs, so raw audit timestamps differ across
//! them, but the state-transition sequence must not.

use std::collections::HashMap;
use std::fmt::{self, Write as _};

use parking_lot::Mutex;

use super::packet::{FlowKey, IPPROTO_TCP, TCP_ACK, TCP_FIN, TCP_RST, TCP_SYN};

/// Connection-tracking state of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtState {
    /// First SYN seen; handshake incomplete (half-open).
    SynSent,
    /// Handshake complete (or non-TCP flow).
    Established,
    /// A FIN was seen; connection draining.
    FinWait,
    /// Connection finished (FIN handshake done or RST seen).
    Closed,
}

impl CtState {
    /// Stable numeric code used at the helper ABI boundary.
    pub fn code(self) -> u8 {
        match self {
            CtState::SynSent => 1,
            CtState::Established => 2,
            CtState::FinWait => 3,
            CtState::Closed => 4,
        }
    }

    /// Inverse of [`CtState::code`].
    pub fn from_code(code: u8) -> Option<CtState> {
        match code {
            1 => Some(CtState::SynSent),
            2 => Some(CtState::Established),
            3 => Some(CtState::FinWait),
            4 => Some(CtState::Closed),
            _ => None,
        }
    }

    /// Short name used in the flow log.
    pub fn name(self) -> &'static str {
        match self {
            CtState::SynSent => "syn-sent",
            CtState::Established => "established",
            CtState::FinWait => "fin-wait",
            CtState::Closed => "closed",
        }
    }
}

/// One tracked connection.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: FlowKey,
    state: CtState,
    packets: u64,
    bytes: u64,
}

const NIL: usize = usize::MAX;

/// Index into [`Slot::links`] and [`Inner::lists`]: the list of every
/// entry, most recently used first.
const LRU: usize = 0;
/// The list of `Closed` entries only. Every state change comes with a
/// move to the LRU front, so this list is the LRU order restricted to
/// `Closed` entries and its tail is the oldest `Closed` entry.
const CLOSED: usize = 1;

#[derive(Debug, Clone, Copy)]
struct Link {
    /// More-recently-used neighbour (towards the head).
    prev: usize,
    /// Less-recently-used neighbour (towards the tail).
    next: usize,
}

const UNLINKED: Link = Link {
    prev: NIL,
    next: NIL,
};

#[derive(Debug, Clone, Copy)]
struct List {
    head: usize,
    tail: usize,
}

const EMPTY: List = List {
    head: NIL,
    tail: NIL,
};

#[derive(Debug, Clone, Copy)]
struct Slot {
    entry: Option<Entry>,
    /// This slot's place in the [`LRU`] and [`CLOSED`] lists.
    links: [Link; 2],
}

const NEW_SLOT: Slot = Slot {
    entry: None,
    links: [UNLINKED; 2],
};

/// One flow-log line, kept unformatted until a fingerprint is asked for.
#[derive(Debug, Clone, Copy)]
enum FlowRecord {
    /// A new flow (`prev == None`) or a state change.
    Transition {
        key: FlowKey,
        prev: Option<CtState>,
        next: CtState,
    },
    /// The flow was evicted to admit another.
    Evicted(FlowKey),
}

impl fmt::Display for FlowRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let key = match *self {
            FlowRecord::Transition { key, .. } | FlowRecord::Evicted(key) => key,
        };
        write!(
            f,
            "{:08x}:{}>{:08x}:{}/{} ",
            key.src_ip, key.src_port, key.dst_ip, key.dst_port, key.proto
        )?;
        match *self {
            FlowRecord::Transition { prev, next, .. } => {
                write!(f, "{}->{}", prev.map_or("new", CtState::name), next.name())
            }
            FlowRecord::Evicted(_) => f.write_str("evicted"),
        }
    }
}

/// Counters describing table behaviour; snapshot with [`Conntrack::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtStats {
    /// Entries created.
    pub inserted: u64,
    /// Entries evicted to make room.
    pub evicted: u64,
    /// Lookups or observations that found an existing entry.
    pub hits: u64,
    /// Observations that created a new entry.
    pub misses: u64,
}

/// Result of observing one packet against the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observation {
    /// State before this packet (`None` for a brand-new flow).
    pub prev: Option<CtState>,
    /// State after this packet.
    pub state: CtState,
    /// Whether an entry was evicted to admit this flow.
    pub evicted: bool,
}

impl Observation {
    /// Packs the observation into the helper ABI return value:
    /// `prev_code << 8 | new_code`, with `prev_code == 0` for new flows.
    pub fn packed(self) -> u64 {
        let prev = self.prev.map_or(0, |s| s.code() as u64);
        (prev << 8) | self.state.code() as u64
    }
}

struct Inner {
    slots: Vec<Slot>,
    index: HashMap<FlowKey, usize>,
    /// Ends of the [`LRU`] and [`CLOSED`] lists.
    lists: [List; 2],
    stats: CtStats,
    flow_log: Vec<FlowRecord>,
}

/// A deterministic connection-tracking table.
///
/// # Examples
///
/// ```
/// use kernel_sim::net::conntrack::{Conntrack, CtState};
/// use kernel_sim::net::packet::{FlowKey, IPPROTO_TCP, TCP_SYN, TCP_ACK};
///
/// let ct = Conntrack::new(16);
/// let key = FlowKey { src_ip: 1, dst_ip: 2, src_port: 3, dst_port: 4, proto: IPPROTO_TCP };
/// let obs = ct.observe(key, TCP_SYN, 60);
/// assert_eq!(obs.state, CtState::SynSent);
/// let obs = ct.observe(key, TCP_ACK, 52);
/// assert_eq!(obs.state, CtState::Established);
/// assert_eq!(ct.lookup(key), Some(CtState::Established));
/// ```
pub struct Conntrack {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl std::fmt::Debug for Conntrack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Conntrack")
            .field("capacity", &self.capacity)
            .field("len", &inner.index.len())
            .field("stats", &inner.stats)
            .finish()
    }
}

impl Conntrack {
    /// Creates a table with room for `capacity` slots reserved.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Conntrack {
            inner: Mutex::new(Inner {
                slots: Vec::with_capacity(capacity),
                index: HashMap::with_capacity(capacity),
                lists: [EMPTY; 2],
                stats: CtStats::default(),
                flow_log: Vec::new(),
            }),
            capacity,
        }
    }

    /// Maximum number of tracked flows.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of tracked flows.
    pub fn len(&self) -> usize {
        self.inner.lock().index.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-mutating state lookup (does not touch LRU order or stats).
    pub fn lookup(&self, key: FlowKey) -> Option<CtState> {
        let inner = self.inner.lock();
        let &slot = inner.index.get(&key)?;
        inner.slots[slot].entry.map(|e| e.state)
    }

    /// Observes one packet of `key` with TCP `flags` (0 for UDP) and
    /// frame length `len`, advancing the flow's state machine:
    ///
    /// * new flow: bare SYN → `SynSent`, anything else → `Established`
    /// * `SynSent` + ACK → `Established`
    /// * FIN → `FinWait`; `FinWait` + ACK/FIN → `Closed`
    /// * RST → `Closed` from any state; `Closed` + SYN → reopen (`SynSent`)
    pub fn observe(&self, key: FlowKey, flags: u8, len: u64) -> Observation {
        let mut inner = self.inner.lock();
        if let Some(&slot) = inner.index.get(&key) {
            inner.stats.hits += 1;
            let prev = inner.slots[slot]
                .entry
                .map(|e| e.state)
                .expect("indexed slot is occupied");
            let next = transition(prev, key.proto, flags);
            {
                let entry = inner.slots[slot].entry.as_mut().expect("occupied");
                entry.state = next;
                entry.packets += 1;
                entry.bytes += len;
            }
            inner.touch(slot);
            if prev == CtState::Closed {
                inner.unlink(CLOSED, slot);
            }
            if next == CtState::Closed {
                inner.push_front(CLOSED, slot);
            }
            if next != prev {
                inner.flow_log.push(FlowRecord::Transition {
                    key,
                    prev: Some(prev),
                    next,
                });
            }
            return Observation {
                prev: Some(prev),
                state: next,
                evicted: false,
            };
        }

        inner.stats.misses += 1;
        let state = initial_state(key.proto, flags);
        let (slot, evicted) = inner.allocate_slot(self.capacity);
        inner.slots[slot].entry = Some(Entry {
            key,
            state,
            packets: 1,
            bytes: len,
        });
        inner.index.insert(key, slot);
        inner.push_front(LRU, slot);
        inner.stats.inserted += 1;
        inner.flow_log.push(FlowRecord::Transition {
            key,
            prev: None,
            next: state,
        });
        Observation {
            prev: None,
            state,
            evicted,
        }
    }

    /// Snapshot of the behaviour counters.
    pub fn stats(&self) -> CtStats {
        self.inner.lock().stats
    }

    /// The timestamp-free flow log: one line per state transition, in
    /// observation order. Identical across the interpreter, the JIT and
    /// the safe-ext runtime when the same packets are observed.
    pub fn flow_log_fingerprint(&self) -> String {
        let inner = self.inner.lock();
        let mut out = String::with_capacity(inner.flow_log.len() * 48);
        for record in &inner.flow_log {
            writeln!(out, "{record}").expect("writing to a String cannot fail");
        }
        out
    }

    /// Clears entries, stats, and the flow log.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.slots.clear();
        inner.index.clear();
        inner.lists = [EMPTY; 2];
        inner.stats = CtStats::default();
        inner.flow_log.clear();
    }
}

/// State for the first packet of a flow.
fn initial_state(proto: u8, flags: u8) -> CtState {
    if proto == IPPROTO_TCP && flags & TCP_SYN != 0 && flags & TCP_ACK == 0 {
        CtState::SynSent
    } else {
        CtState::Established
    }
}

/// One step of the per-flow state machine.
fn transition(prev: CtState, proto: u8, flags: u8) -> CtState {
    if proto != IPPROTO_TCP {
        return prev;
    }
    if flags & TCP_RST != 0 {
        return CtState::Closed;
    }
    match prev {
        CtState::SynSent => {
            if flags & TCP_FIN != 0 {
                CtState::FinWait
            } else if flags & TCP_ACK != 0 {
                CtState::Established
            } else {
                CtState::SynSent
            }
        }
        CtState::Established => {
            if flags & TCP_FIN != 0 {
                CtState::FinWait
            } else {
                CtState::Established
            }
        }
        CtState::FinWait => {
            if flags & (TCP_ACK | TCP_FIN) != 0 {
                CtState::Closed
            } else {
                CtState::FinWait
            }
        }
        CtState::Closed => {
            if flags & TCP_SYN != 0 && flags & TCP_ACK == 0 {
                CtState::SynSent
            } else {
                CtState::Closed
            }
        }
    }
}

impl Inner {
    /// Unlinks `slot` from `list`.
    fn unlink(&mut self, list: usize, slot: usize) {
        let Link { prev, next } = self.slots[slot].links[list];
        if prev != NIL {
            self.slots[prev].links[list].next = next;
        } else {
            self.lists[list].head = next;
        }
        if next != NIL {
            self.slots[next].links[list].prev = prev;
        } else {
            self.lists[list].tail = prev;
        }
        self.slots[slot].links[list] = UNLINKED;
    }

    /// Links `slot` at the most-recently-used end of `list`.
    fn push_front(&mut self, list: usize, slot: usize) {
        let head = self.lists[list].head;
        self.slots[slot].links[list] = Link {
            prev: NIL,
            next: head,
        };
        if head != NIL {
            self.slots[head].links[list].prev = slot;
        }
        self.lists[list].head = slot;
        if self.lists[list].tail == NIL {
            self.lists[list].tail = slot;
        }
    }

    /// Moves `slot` to the most-recently-used end of the LRU list.
    fn touch(&mut self, slot: usize) {
        if self.lists[LRU].head == slot {
            return;
        }
        self.unlink(LRU, slot);
        self.push_front(LRU, slot);
    }

    /// Returns an empty slot, growing the arena up to `capacity` and
    /// evicting once it is full. Eviction takes the least-recently-used
    /// `Closed` entry, else the LRU tail.
    fn allocate_slot(&mut self, capacity: usize) -> (usize, bool) {
        if self.slots.len() < capacity {
            self.slots.push(NEW_SLOT);
            return (self.slots.len() - 1, false);
        }
        let victim = match self.lists[CLOSED].tail {
            NIL => self.lists[LRU].tail,
            closed => closed,
        };
        debug_assert_ne!(victim, NIL, "full table must have a tail");
        let entry = self.slots[victim].entry.expect("occupied");
        self.index.remove(&entry.key);
        self.unlink(LRU, victim);
        if entry.state == CtState::Closed {
            self.unlink(CLOSED, victim);
        }
        self.slots[victim].entry = None;
        self.stats.evicted += 1;
        self.flow_log.push(FlowRecord::Evicted(entry.key));
        (victim, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::packet::IPPROTO_UDP;

    fn tcp_key(n: u16) -> FlowKey {
        FlowKey {
            src_ip: 0x0a00_0000 | n as u32,
            dst_ip: 0x0a01_0001,
            src_port: 10_000 + n,
            dst_port: 80,
            proto: IPPROTO_TCP,
        }
    }

    #[test]
    fn tcp_lifecycle() {
        let ct = Conntrack::new(8);
        let k = tcp_key(1);
        assert_eq!(ct.observe(k, TCP_SYN, 60).state, CtState::SynSent);
        assert_eq!(
            ct.observe(k, TCP_SYN | TCP_ACK, 60).state,
            CtState::Established
        );
        assert_eq!(ct.observe(k, TCP_ACK, 52).state, CtState::Established);
        assert_eq!(ct.observe(k, TCP_FIN | TCP_ACK, 52).state, CtState::FinWait);
        assert_eq!(ct.observe(k, TCP_ACK, 52).state, CtState::Closed);
        // Reopen after close.
        assert_eq!(ct.observe(k, TCP_SYN, 60).state, CtState::SynSent);
        let stats = ct.stats();
        assert_eq!(stats.inserted, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 5);
    }

    #[test]
    fn rst_closes_from_any_state() {
        let ct = Conntrack::new(8);
        let k = tcp_key(2);
        ct.observe(k, TCP_SYN, 60);
        assert_eq!(ct.observe(k, TCP_RST, 40).state, CtState::Closed);
    }

    #[test]
    fn udp_is_established_and_stays() {
        let ct = Conntrack::new(8);
        let k = FlowKey {
            proto: IPPROTO_UDP,
            ..tcp_key(3)
        };
        assert_eq!(ct.observe(k, 0, 120).state, CtState::Established);
        assert_eq!(ct.observe(k, 0, 120).state, CtState::Established);
    }

    #[test]
    fn lru_eviction_prefers_closed() {
        let ct = Conntrack::new(2);
        let (a, b, c) = (tcp_key(1), tcp_key(2), tcp_key(3));
        ct.observe(a, TCP_SYN, 60);
        ct.observe(b, TCP_SYN, 60);
        // `a` is older, but close `b`: eviction should pick closed `b`
        // even though `b` is more recently used.
        ct.observe(b, TCP_RST, 40);
        let obs = ct.observe(c, TCP_SYN, 60);
        assert!(obs.evicted);
        assert_eq!(ct.lookup(a), Some(CtState::SynSent));
        assert_eq!(ct.lookup(b), None);
        assert_eq!(ct.lookup(c), Some(CtState::SynSent));
        assert_eq!(ct.stats().evicted, 1);
    }

    #[test]
    fn lru_eviction_falls_back_to_tail() {
        let ct = Conntrack::new(2);
        let (a, b, c) = (tcp_key(1), tcp_key(2), tcp_key(3));
        ct.observe(a, TCP_SYN, 60);
        ct.observe(b, TCP_SYN, 60);
        ct.observe(a, TCP_ACK, 52); // refresh `a`; tail is now `b`
        ct.observe(c, TCP_SYN, 60);
        assert_eq!(ct.lookup(b), None, "LRU tail evicted");
        assert_eq!(ct.lookup(a), Some(CtState::Established));
    }

    #[test]
    fn flow_log_is_timestamp_free_and_deterministic() {
        let run = || {
            let ct = Conntrack::new(8);
            let k = tcp_key(9);
            ct.observe(k, TCP_SYN, 60);
            ct.observe(k, TCP_ACK, 52);
            ct.observe(k, TCP_FIN, 52);
            ct.flow_log_fingerprint()
        };
        let log = run();
        assert_eq!(log, run());
        assert!(log.contains("new->syn-sent"));
        assert!(log.contains("syn-sent->established"));
        assert!(log.contains("established->fin-wait"));
    }

    #[test]
    fn packed_observation_abi() {
        let obs = Observation {
            prev: Some(CtState::SynSent),
            state: CtState::Established,
            evicted: false,
        };
        assert_eq!(obs.packed(), (1 << 8) | 2);
        let fresh = Observation {
            prev: None,
            state: CtState::SynSent,
            evicted: false,
        };
        assert_eq!(fresh.packed(), 1);
    }

    #[test]
    fn clear_resets_everything() {
        let ct = Conntrack::new(4);
        ct.observe(tcp_key(1), TCP_SYN, 60);
        ct.clear();
        assert!(ct.is_empty());
        assert_eq!(ct.stats(), CtStats::default());
        assert!(ct.flow_log_fingerprint().is_empty());
        // Table remains usable at full capacity after clear.
        for n in 0..4 {
            ct.observe(tcp_key(n), TCP_SYN, 60);
        }
        assert_eq!(ct.len(), 4);
    }
}
