//! Differential oracle for `FaultyPlane`'s dense queue table.
//!
//! `MapFaultyPlane` below is the chaos transport as it was first written:
//! one `BTreeMap` per `(link, direction)` keyed by `(due_tick, sequence)`,
//! plus a `BTreeMap` of per-queue delivery high-water marks. It draws its
//! fault decisions from the same seeded RNG in the same order, so under
//! the same scenario and call sequence the two planes must agree on every
//! delivered batch, RPC fate, crash and counter — which the property
//! checks after every step of random call sequences under scenarios that
//! drop, duplicate, delay, burst-stall, crash and overflow small queues.

use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use ulc_hierarchy::plane::{
    DeliveryBatch, Direction, FaultScenario, FaultyPlane, LinkFaults, Message, MessagePlane,
    PlaneAccounting, RpcFate,
};
use ulc_trace::BlockId;

/// The ordered-map chaos transport: the reference model.
#[derive(Debug)]
struct MapFaultyPlane {
    scenario: FaultScenario,
    rng: StdRng,
    now: u64,
    next_seq: u64,
    queues: BTreeMap<(usize, Direction), BTreeMap<(u64, u64), Message>>,
    delivered_high: BTreeMap<(usize, Direction), u64>,
    crash_cursor: usize,
    acct: PlaneAccounting,
}

impl MapFaultyPlane {
    fn new(mut scenario: FaultScenario) -> Self {
        scenario.crashes.sort_by_key(|c| c.at);
        MapFaultyPlane {
            rng: StdRng::seed_from_u64(scenario.seed),
            now: 0,
            next_seq: 0,
            queues: BTreeMap::new(),
            delivered_high: BTreeMap::new(),
            crash_cursor: 0,
            acct: PlaneAccounting::default(),
            scenario,
        }
    }

    fn due_time(&mut self, faults: &LinkFaults) -> u64 {
        let mut due = self.now;
        if faults.burst_period > 0 && faults.burst_len > 0 {
            let phase = self.now % faults.burst_period;
            if phase < faults.burst_len {
                due = self.now - phase + faults.burst_len;
            }
        }
        if faults.delay > 0.0 && faults.max_delay > 0 && self.rng.gen_bool(faults.delay) {
            due += 1 + self.rng.gen_range(0..faults.max_delay);
        }
        if due > self.now {
            self.acct.delayed += 1;
        }
        due
    }

    fn enqueue(&mut self, link: usize, dir: Direction, due: u64, msg: Message) {
        let q = self.queues.entry((link, dir)).or_default();
        if q.len() >= self.scenario.queue_bound {
            self.acct.overflow_drops += 1;
            self.acct.dropped += 1;
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        q.insert((due, seq), msg);
    }
}

impl MessagePlane for MapFaultyPlane {
    fn tick(&mut self) {
        self.now += 1;
    }

    fn now(&self) -> u64 {
        self.now
    }

    fn take_crashes_into(&mut self, out: &mut Vec<usize>) {
        out.clear();
        while let Some(ev) = self.scenario.crashes.get(self.crash_cursor) {
            if ev.at > self.now {
                break;
            }
            out.push(ev.level);
            self.crash_cursor += 1;
            self.acct.crashes += 1;
        }
    }

    fn send(&mut self, link: usize, dir: Direction, msg: Message) {
        self.acct.sent += 1;
        let faults = self.scenario.faults_for(link);
        if faults.drop > 0.0 && self.rng.gen_bool(faults.drop) {
            self.acct.dropped += 1;
            return;
        }
        let due = self.due_time(&faults);
        self.enqueue(link, dir, due, msg);
        if faults.duplicate > 0.0 && self.rng.gen_bool(faults.duplicate) {
            self.acct.duplicated += 1;
            let dup_due = self.due_time(&faults);
            self.enqueue(link, dir, dup_due, msg);
        }
    }

    fn deliver_into(&mut self, link: usize, dir: Direction, out: &mut DeliveryBatch) {
        out.clear();
        let Some(q) = self.queues.get_mut(&(link, dir)) else {
            return;
        };
        let high = self.delivered_high.entry((link, dir)).or_insert(0);
        while let Some(entry) = q.first_entry() {
            let (due, seq) = *entry.key();
            if due > self.now {
                break;
            }
            let msg = entry.remove();
            if seq < *high {
                self.acct.reordered += 1;
            }
            *high = (*high).max(seq);
            self.acct.delivered += 1;
            out.push(msg);
        }
        if !out.is_empty() {
            self.acct.delivery_batches += 1;
        }
    }

    fn queued(&self, link: usize, dir: Direction) -> Vec<Message> {
        self.queues
            .get(&(link, dir))
            .map(|q| q.values().copied().collect())
            .unwrap_or_default()
    }

    fn queued_len(&self, link: usize, dir: Direction) -> usize {
        self.queues.get(&(link, dir)).map_or(0, BTreeMap::len)
    }

    fn rpc(&mut self, link: usize) -> RpcFate {
        self.acct.rpcs += 1;
        let faults = self.scenario.faults_for(link);
        if faults.drop > 0.0 {
            if self.rng.gen_bool(faults.drop) {
                self.acct.rpc_failures += 1;
                return RpcFate::RequestLost;
            }
            if self.rng.gen_bool(faults.drop) {
                self.acct.rpc_failures += 1;
                return RpcFate::ReplyLost;
            }
        }
        RpcFate::Delivered
    }

    fn purge_link(&mut self, link: usize) {
        for dir in [Direction::Down, Direction::Up] {
            if let Some(q) = self.queues.get_mut(&(link, dir)) {
                self.acct.dropped += q.len() as u64;
                q.clear();
            }
        }
    }

    fn in_flight(&self) -> usize {
        self.queues.values().map(BTreeMap::len).sum()
    }

    fn lossy(&self) -> bool {
        self.scenario.lossy()
    }

    fn accounting(&self) -> PlaneAccounting {
        self.acct
    }
}

/// Links the sequences touch; one more than any op addresses, so the
/// per-step comparison also covers a link that never sees traffic.
const LINKS: usize = 4;

/// One plane call.
#[derive(Clone, Debug)]
enum Op {
    Send(usize, Direction, u64),
    Tick,
    Deliver(usize, Direction),
    Rpc(usize),
    Purge(usize),
    TakeCrashes,
}

fn direction() -> impl Strategy<Value = Direction> {
    any::<bool>().prop_map(|up| if up { Direction::Up } else { Direction::Down })
}

fn op() -> impl Strategy<Value = Op> {
    // Sends and ticks dominate, so queues fill past the bound and delayed
    // entries fall due; weights are expressed by repeating arms.
    let send = || (0..LINKS - 1, direction(), 0u64..64).prop_map(|(l, d, b)| Op::Send(l, d, b));
    let tick = || any::<bool>().prop_map(|_| Op::Tick);
    prop_oneof![
        send(),
        send(),
        send(),
        tick(),
        tick(),
        (0..LINKS - 1, direction()).prop_map(|(l, d)| Op::Deliver(l, d)),
        (0..LINKS - 1, direction()).prop_map(|(l, d)| Op::Deliver(l, d)),
        (0..LINKS - 1).prop_map(Op::Rpc),
        (0..LINKS - 1).prop_map(Op::Purge),
        any::<bool>().prop_map(|_| Op::TakeCrashes),
    ]
}

/// A message of each kind the protocols send, chosen by `b`.
fn message(b: u64) -> Message {
    let block = BlockId::new(b);
    match b % 4 {
        0 => Message::Demote {
            block,
            mru: b.is_multiple_of(8),
            owner: (b % 3) as u32,
        },
        1 => Message::CacheRequest {
            block,
            requester: (b % 5) as u32,
        },
        2 => Message::EvictNotice { block },
        _ => Message::Reload { block },
    }
}

/// A scenario with every fault class switched on: rates in per-mille,
/// `max_delay` of at least 8, a burst stall, a small queue bound so
/// overflow fires, a crash schedule, and a per-link override on link 1.
fn scenario() -> impl Strategy<Value = FaultScenario> {
    (
        (any::<u64>(), 1u32..300, 1u32..300, 1u32..700),
        (8u64..24, 4u64..20, 1u64..4, 2usize..8),
        vec((1u64..60, 0usize..2), 0..4),
        (0u32..500, any::<bool>()),
    )
        .prop_map(
            |(
                (seed, drop, dup, delay),
                (max_delay, burst_period, burst_len, queue_bound),
                crashes,
                (override_drop, override_on),
            )| {
                let per_mille = |p: u32| f64::from(p) / 1000.0;
                let mut s = FaultScenario::zero(seed)
                    .with_drop(per_mille(drop))
                    .with_duplicate(per_mille(dup))
                    .with_delay(per_mille(delay), max_delay);
                s.faults.burst_period = burst_period;
                s.faults.burst_len = burst_len;
                s.queue_bound = queue_bound;
                for (at, level) in crashes {
                    s = s.with_crash(at, level);
                }
                if override_on {
                    let link = LinkFaults {
                        drop: per_mille(override_drop),
                        ..s.faults
                    };
                    s = s.with_link(1, link);
                }
                s
            },
        )
}

fn assert_same_state(dense: &FaultyPlane, map: &MapFaultyPlane, step: usize) {
    for link in 0..LINKS {
        for dir in [Direction::Down, Direction::Up] {
            assert_eq!(
                dense.queued(link, dir),
                map.queued(link, dir),
                "step {step}: queued({link}, {dir:?})"
            );
            assert_eq!(
                dense.queued_len(link, dir),
                map.queued_len(link, dir),
                "step {step}: queued_len({link}, {dir:?})"
            );
        }
    }
    assert_eq!(dense.in_flight(), map.in_flight(), "step {step}: in_flight");
    assert_eq!(
        dense.accounting(),
        map.accounting(),
        "step {step}: accounting"
    );
    assert_eq!(dense.now(), map.now(), "step {step}: now");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The dense-table plane and the ordered-map model agree after every
    /// call of any mixed sequence under any fully faulty scenario.
    #[test]
    fn dense_queues_match_ordered_map_model(
        scenario in scenario(),
        ops in vec(op(), 1..300),
    ) {
        let mut dense = FaultyPlane::new(scenario.clone());
        let mut map = MapFaultyPlane::new(scenario);
        prop_assert_eq!(dense.lossy(), map.lossy());
        let (mut got, mut want) = (DeliveryBatch::new(), DeliveryBatch::new());
        let (mut got_crashes, mut want_crashes) = (Vec::new(), Vec::new());
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Send(link, dir, b) => {
                    dense.send(link, dir, message(b));
                    map.send(link, dir, message(b));
                }
                Op::Tick => {
                    dense.tick();
                    map.tick();
                }
                Op::Deliver(link, dir) => {
                    dense.deliver_into(link, dir, &mut got);
                    map.deliver_into(link, dir, &mut want);
                    prop_assert_eq!(got.as_slice(), want.as_slice(), "step {}: batch", step);
                }
                Op::Rpc(link) => {
                    prop_assert_eq!(dense.rpc(link), map.rpc(link), "step {}: rpc", step);
                }
                Op::Purge(link) => {
                    dense.purge_link(link);
                    map.purge_link(link);
                }
                Op::TakeCrashes => {
                    dense.take_crashes_into(&mut got_crashes);
                    map.take_crashes_into(&mut want_crashes);
                    prop_assert_eq!(&got_crashes, &want_crashes, "step {}: crashes", step);
                }
            }
            assert_same_state(&dense, &map, step);
        }
    }
}

/// The property's scenarios really exercise the sorted-insert and
/// overflow paths: over a fixed long sequence, delays reorder deliveries
/// and the small bound drops sends.
#[test]
fn oracle_sequences_reach_reorder_and_overflow() {
    let mut s = FaultScenario::zero(3)
        .with_drop(0.05)
        .with_duplicate(0.1)
        .with_delay(0.5, 8);
    s.queue_bound = 4;
    let mut dense = FaultyPlane::new(s.clone());
    let mut map = MapFaultyPlane::new(s);
    let (mut got, mut want) = (DeliveryBatch::new(), DeliveryBatch::new());
    for step in 0..2_000usize {
        let link = step % 3;
        dense.send(link, Direction::Down, message(step as u64));
        map.send(link, Direction::Down, message(step as u64));
        if step % 2 == 0 {
            dense.tick();
            map.tick();
        }
        dense.deliver_into(link, Direction::Down, &mut got);
        map.deliver_into(link, Direction::Down, &mut want);
        assert_eq!(got.as_slice(), want.as_slice(), "step {step}");
        assert_same_state(&dense, &map, step);
    }
    let acct = dense.accounting();
    assert!(acct.reordered > 0, "{acct:?}");
    assert!(acct.overflow_drops > 0, "{acct:?}");
}
