//! Conntrack LRU behaviour at the default (4096-slot) capacity edge,
//! re-insertion after eviction, and TCP state transitions under
//! out-of-order teardown segments — coverage the unit tests' tiny
//! 2-slot tables cannot give. The table is also checked against a naive
//! reference model (a recency-ordered `Vec` whose victim is found by a
//! linear walk) on random packet sequences and on the eviction-heavy
//! generated traffic mix.

use proptest::prelude::*;

use kernel_sim::net::conntrack::{Conntrack, CtState, CtStats, Observation};
use kernel_sim::net::packet::{
    parse_frame, FlowKey, IPPROTO_TCP, IPPROTO_UDP, TCP_ACK, TCP_FIN, TCP_RST, TCP_SYN,
};
use kernel_sim::net::traffic::{generate, TrafficConfig};
use kernel_sim::net::{NetStack, DEFAULT_CONNTRACK_CAPACITY};

fn key(n: u32) -> FlowKey {
    FlowKey {
        src_ip: 0x0a00_0000 | (n >> 16),
        dst_ip: 0x0a01_0001,
        src_port: (n & 0xffff) as u16,
        dst_port: 443,
        proto: IPPROTO_TCP,
    }
}

#[test]
fn eviction_starts_at_exactly_default_capacity() {
    assert_eq!(DEFAULT_CONNTRACK_CAPACITY, 4096);
    let ct = Conntrack::new(DEFAULT_CONNTRACK_CAPACITY);
    // Fill every slot: no evictions yet, not even on the last insert.
    for n in 0..DEFAULT_CONNTRACK_CAPACITY as u32 {
        let obs = ct.observe(key(n), TCP_SYN, 60);
        assert!(!obs.evicted, "flow {n} evicted before the table was full");
    }
    assert_eq!(ct.len(), DEFAULT_CONNTRACK_CAPACITY);
    assert_eq!(ct.stats().evicted, 0);
    // Entry 4097 must evict exactly one flow — the LRU tail (flow 0).
    let obs = ct.observe(key(DEFAULT_CONNTRACK_CAPACITY as u32), TCP_SYN, 60);
    assert!(obs.evicted);
    assert_eq!(ct.len(), DEFAULT_CONNTRACK_CAPACITY);
    assert_eq!(ct.stats().evicted, 1);
    assert_eq!(ct.lookup(key(0)), None, "LRU victim must be the oldest");
    assert_eq!(ct.lookup(key(1)), Some(CtState::SynSent));
}

#[test]
fn reinsert_after_eviction_is_a_fresh_flow() {
    let ct = Conntrack::new(DEFAULT_CONNTRACK_CAPACITY);
    for n in 0..=DEFAULT_CONNTRACK_CAPACITY as u32 {
        ct.observe(key(n), TCP_SYN, 60);
    }
    // Flow 0 was just evicted; observing it again re-inserts from
    // scratch (prev == None), evicting the new LRU tail (flow 1).
    let obs = ct.observe(key(0), TCP_ACK, 52);
    assert_eq!(obs.prev, None, "evicted flow must restart its lifecycle");
    assert!(obs.evicted);
    // A bare ACK on an untracked flow is a mid-stream pickup:
    // conntrack adopts it as established, not half-open.
    assert_eq!(obs.state, CtState::Established);
    assert_eq!(ct.lookup(key(1)), None);
    let stats = ct.stats();
    assert_eq!(stats.inserted, DEFAULT_CONNTRACK_CAPACITY as u64 + 2);
    assert_eq!(stats.evicted, 2);
    assert_eq!(ct.len(), DEFAULT_CONNTRACK_CAPACITY);
}

#[test]
fn full_table_keeps_fixed_size_under_churn() {
    let ct = Conntrack::new(DEFAULT_CONNTRACK_CAPACITY);
    let churn = DEFAULT_CONNTRACK_CAPACITY as u32 * 2;
    for n in 0..churn {
        ct.observe(key(n), TCP_SYN, 60);
    }
    assert_eq!(ct.len(), DEFAULT_CONNTRACK_CAPACITY);
    let stats = ct.stats();
    assert_eq!(stats.inserted, churn as u64);
    assert_eq!(stats.evicted, DEFAULT_CONNTRACK_CAPACITY as u64);
    // Exactly the newest `capacity` flows survive.
    assert_eq!(ct.lookup(key(DEFAULT_CONNTRACK_CAPACITY as u32 - 1)), None);
    assert_eq!(
        ct.lookup(key(DEFAULT_CONNTRACK_CAPACITY as u32)),
        Some(CtState::SynSent)
    );
}

#[test]
fn out_of_order_fin_before_handshake_completes() {
    // FIN arriving while still SynSent (reordered teardown): the flow
    // drains instead of establishing, and a late ACK then closes it.
    let ct = Conntrack::new(8);
    let k = key(1);
    assert_eq!(ct.observe(k, TCP_SYN, 60).state, CtState::SynSent);
    assert_eq!(ct.observe(k, TCP_FIN, 52).state, CtState::FinWait);
    assert_eq!(ct.observe(k, TCP_ACK, 52).state, CtState::Closed);
    // Packets after close leave the flow closed (no resurrection by ACK).
    assert_eq!(ct.observe(k, TCP_ACK, 52).state, CtState::Closed);
}

#[test]
fn rst_closes_immediately_from_every_state() {
    let ct = Conntrack::new(8);
    // From SynSent.
    let k1 = key(1);
    ct.observe(k1, TCP_SYN, 60);
    assert_eq!(ct.observe(k1, TCP_RST, 40).state, CtState::Closed);
    // From Established.
    let k2 = key(2);
    ct.observe(k2, TCP_SYN, 60);
    ct.observe(k2, TCP_ACK, 52);
    assert_eq!(ct.observe(k2, TCP_RST, 40).state, CtState::Closed);
    // From FinWait — and RST wins even when FIN is set in the same
    // segment.
    let k3 = key(3);
    ct.observe(k3, TCP_SYN, 60);
    ct.observe(k3, TCP_FIN, 52);
    assert_eq!(ct.observe(k3, TCP_RST | TCP_FIN, 40).state, CtState::Closed);
    // RST on an already-closed flow stays closed.
    assert_eq!(ct.observe(k3, TCP_RST, 40).state, CtState::Closed);
}

#[test]
fn syn_reopens_closed_flow_but_syn_ack_does_not() {
    let ct = Conntrack::new(8);
    let k = key(7);
    ct.observe(k, TCP_SYN, 60);
    ct.observe(k, TCP_RST, 40);
    // SYN|ACK is not a fresh handshake — the flow stays closed.
    assert_eq!(ct.observe(k, TCP_SYN | TCP_ACK, 60).state, CtState::Closed);
    // A bare SYN reopens.
    assert_eq!(ct.observe(k, TCP_SYN, 60).state, CtState::SynSent);
}

#[test]
fn netstack_default_uses_default_capacity() {
    let net = NetStack::default();
    assert_eq!(net.conntrack.capacity(), DEFAULT_CONNTRACK_CAPACITY);
    assert!(net.conntrack.is_empty());
}

/// The reference model: entries in a `Vec`, oldest first. A hit moves the
/// entry to the back; a miss on a full table evicts the oldest `Closed`
/// entry, else the oldest entry, found by walking from the front.
struct Model {
    capacity: usize,
    entries: Vec<(FlowKey, CtState)>,
    stats: CtStats,
    log: String,
}

fn model_state_after(prev: Option<CtState>, key: FlowKey, flags: u8) -> CtState {
    let syn_only = flags & TCP_SYN != 0 && flags & TCP_ACK == 0;
    let Some(prev) = prev else {
        return if key.proto == IPPROTO_TCP && syn_only {
            CtState::SynSent
        } else {
            CtState::Established
        };
    };
    if key.proto != IPPROTO_TCP {
        return prev;
    }
    if flags & TCP_RST != 0 {
        return CtState::Closed;
    }
    match prev {
        CtState::SynSent if flags & TCP_FIN != 0 => CtState::FinWait,
        CtState::SynSent if flags & TCP_ACK != 0 => CtState::Established,
        CtState::Established if flags & TCP_FIN != 0 => CtState::FinWait,
        CtState::FinWait if flags & (TCP_ACK | TCP_FIN) != 0 => CtState::Closed,
        CtState::Closed if syn_only => CtState::SynSent,
        same => same,
    }
}

fn model_label(key: FlowKey) -> String {
    format!(
        "{:08x}:{}>{:08x}:{}/{}",
        key.src_ip, key.src_port, key.dst_ip, key.dst_port, key.proto
    )
}

impl Model {
    fn new(capacity: usize) -> Self {
        Model {
            capacity,
            entries: Vec::new(),
            stats: CtStats::default(),
            log: String::new(),
        }
    }

    fn observe(&mut self, key: FlowKey, flags: u8) -> Observation {
        if let Some(i) = self.entries.iter().position(|&(k, _)| k == key) {
            self.stats.hits += 1;
            let (_, prev) = self.entries.remove(i);
            let state = model_state_after(Some(prev), key, flags);
            self.entries.push((key, state));
            if state != prev {
                self.log += &format!("{} {}->{}\n", model_label(key), prev.name(), state.name());
            }
            return Observation {
                prev: Some(prev),
                state,
                evicted: false,
            };
        }
        self.stats.misses += 1;
        let evicted = self.entries.len() == self.capacity;
        if evicted {
            let victim = self
                .entries
                .iter()
                .position(|&(_, s)| s == CtState::Closed)
                .unwrap_or(0);
            let (gone, _) = self.entries.remove(victim);
            self.stats.evicted += 1;
            self.log += &format!("{} evicted\n", model_label(gone));
        }
        let state = model_state_after(None, key, flags);
        self.entries.push((key, state));
        self.stats.inserted += 1;
        self.log += &format!("{} new->{}\n", model_label(key), state.name());
        Observation {
            prev: None,
            state,
            evicted,
        }
    }

    fn lookup(&self, key: FlowKey) -> Option<CtState> {
        self.entries
            .iter()
            .find(|&&(k, _)| k == key)
            .map(|&(_, s)| s)
    }
}

/// Key `n` of the small property-test key space; every fifth is UDP.
fn small_key(n: u8) -> FlowKey {
    FlowKey {
        src_ip: 0x0a00_0000 | n as u32,
        dst_ip: 0x0a01_0001,
        src_port: 1_000 + n as u16,
        dst_port: 443,
        proto: if n % 5 == 4 { IPPROTO_UDP } else { IPPROTO_TCP },
    }
}

const KEY_SPACE: u8 = 24;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every observation, the counters, every key's state and the flow
    /// log agree with the reference model, whatever the packet sequence
    /// and however small the table.
    #[test]
    fn table_matches_reference_model(
        capacity in 1usize..=16,
        packets in prop::collection::vec(
            (
                0..KEY_SPACE,
                prop::sample::select(vec![
                    TCP_SYN,
                    TCP_SYN | TCP_ACK,
                    TCP_ACK,
                    TCP_FIN,
                    TCP_FIN | TCP_ACK,
                    TCP_RST,
                    0,
                ]),
            ),
            0..160,
        ),
    ) {
        let ct = Conntrack::new(capacity);
        let mut model = Model::new(capacity);
        for (i, &(n, flags)) in packets.iter().enumerate() {
            let key = small_key(n);
            let flags = if key.proto == IPPROTO_UDP { 0 } else { flags };
            let got = ct.observe(key, flags, 60);
            let want = model.observe(key, flags);
            prop_assert_eq!(got, want, "packet {} ({:?}, flags {:#x})", i, key, flags);
            prop_assert_eq!(ct.stats(), model.stats);
        }
        for n in 0..KEY_SPACE {
            prop_assert_eq!(ct.lookup(small_key(n)), model.lookup(small_key(n)));
        }
        prop_assert_eq!(ct.len(), model.entries.len());
        prop_assert_eq!(ct.flow_log_fingerprint(), model.log);
    }
}

/// The extbench `xdp` traffic mix through one default-size table: the
/// SYN flood overflows it thousands of times, and every victim, counter
/// and flow-log line matches the reference model.
#[test]
fn generated_flood_evicts_the_same_victims_as_the_model() {
    let cfg = TrafficConfig {
        elephants: 16,
        elephant_packets: 1024,
        mice: 1024,
        flood_frames: 10_240,
        malformed_frames: 128,
    };
    let ct = Conntrack::new(DEFAULT_CONNTRACK_CAPACITY);
    let mut model = Model::new(DEFAULT_CONNTRACK_CAPACITY);
    let mut keys = Vec::new();
    for (i, frame) in generate(&cfg, 1).iter().enumerate() {
        let Ok(pkt) = parse_frame(&frame.bytes) else {
            continue;
        };
        let (key, flags) = (pkt.flow_key(), pkt.tcp_flags());
        let got = ct.observe(key, flags, frame.bytes.len() as u64);
        assert_eq!(got, model.observe(key, flags), "frame {i}");
        keys.push(key);
    }
    let stats = ct.stats();
    assert_eq!(stats, model.stats);
    assert!(stats.evicted >= 7_000, "only {} evictions", stats.evicted);
    for key in keys {
        assert_eq!(ct.lookup(key), model.lookup(key));
    }
    assert_eq!(ct.flow_log_fingerprint(), model.log);
}
