//! Property tests for the tagged-matching engine: libfabric ignore-mask
//! semantics, FIFO ordering, and conservation of messages (every
//! delivered message is either matched exactly once or parked in the
//! unexpected queue — none lost, none duplicated).
//!
//! The completion queue has its own oracle: [`NaiveCq`] is the queue as
//! it was before it was kept in visibility order — insertion order,
//! and a scan for the first earliest entry on every read — and
//! [`NaiveEp`] the matching engine that feeds it. Random scripts drive
//! both beside a real endpoint and every read must agree.

use std::collections::{HashMap, VecDeque};

use proptest::prelude::*;
use shs_cassini::{CassiniNic, CassiniParams};
use shs_cxi::{CxiDevice, CxiDriver, CxiServiceDesc};
use shs_des::{DetRng, SimDur, SimTime};
use shs_fabric::{Fabric, NicAddr, TrafficClass, Vni};
use shs_ofi::{CompKind, Completion, OfiEp, OfiParams};
use shs_oslinux::{Gid, Host, Pid, Uid};

struct Rig {
    host_a: Host,
    host_b: Host,
    pid_a: Pid,
    pid_b: Pid,
    dev_a: CxiDevice,
    dev_b: CxiDevice,
    fabric: Fabric,
}

fn rig(seed: u64) -> Rig {
    let mut host_a = Host::new("pa");
    let mut host_b = Host::new("pb");
    let rng = DetRng::new(seed);
    let mut fabric = Fabric::new(4);
    let mut dev_a = CxiDevice::new(
        CxiDriver::extended(),
        CassiniNic::new(NicAddr(1), CassiniParams::default(), rng.derive("a")),
    );
    let mut dev_b = CxiDevice::new(
        CxiDriver::extended(),
        CassiniNic::new(NicAddr(2), CassiniParams::default(), rng.derive("b")),
    );
    fabric.attach(NicAddr(1));
    fabric.attach(NicAddr(2));
    fabric.grant_vni(NicAddr(1), Vni::GLOBAL).unwrap();
    fabric.grant_vni(NicAddr(2), Vni::GLOBAL).unwrap();
    let ra = host_a.credentials(Pid(1)).unwrap();
    let rb = host_b.credentials(Pid(1)).unwrap();
    dev_a.alloc_svc(&ra, CxiServiceDesc::default_service()).unwrap();
    dev_b.alloc_svc(&rb, CxiServiceDesc::default_service()).unwrap();
    let pid_a = host_a.spawn_detached("a", Uid(1), Gid(1));
    let pid_b = host_b.spawn_detached("b", Uid(1), Gid(1));
    Rig { host_a, host_b, pid_a, pid_b, dev_a, dev_b, fabric }
}

fn open_pair(r: &mut Rig) -> (OfiEp, OfiEp) {
    let a = OfiEp::open(&r.host_a, &mut r.dev_a, r.pid_a, Vni::GLOBAL, TrafficClass::Dedicated);
    let b = OfiEp::open(&r.host_b, &mut r.dev_b, r.pid_b, Vni::GLOBAL, TrafficClass::Dedicated);
    (a.unwrap(), b.unwrap())
}

/// The completion queue before it was sorted: completions in the order
/// they were produced, the next one found by scanning for the first
/// minimum `at`. The two reads are the deleted `OfiEp::cq_read` /
/// `OfiEp::cq_wait` bodies, verbatim.
struct NaiveCq {
    cq: VecDeque<Completion>,
    params: OfiParams,
}

impl NaiveCq {
    fn cq_read(&mut self, now: SimTime) -> (SimTime, Option<Completion>) {
        let t = now + self.params.cq_read;
        // Completions become visible in `at` order; find earliest.
        let earliest = self
            .cq
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.at)
            .map(|(i, c)| (i, c.at));
        match earliest {
            Some((i, at)) if at <= t => (t, self.cq.remove(i)),
            _ => (t, None),
        }
    }

    fn cq_wait(&mut self, now: SimTime) -> Option<(SimTime, Completion)> {
        let earliest = self
            .cq
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.at)
            .map(|(i, c)| (i, c.at))?;
        let (i, at) = earliest;
        let t = now.max(at) + self.params.cq_read;
        let c = self.cq.remove(i).expect("index valid");
        Some((t, c))
    }
}

/// Reference matching engine in front of a [`NaiveCq`]: FIFO over the
/// posted receives a message matches, FIFO over the unexpected
/// messages a receive matches, completion at the later of arrival and
/// post.
struct NaiveEp {
    /// `(tag, ignore, ctx, posted_at)`.
    posted: Vec<(u64, u64, u64, SimTime)>,
    /// `(tag, len, delivered_at)`.
    unexpected: Vec<(u64, u64, SimTime)>,
    cq: NaiveCq,
    pushed: usize,
}

impl NaiveEp {
    fn push(&mut self, c: Completion) {
        self.cq.cq.push_back(c);
        self.pushed += 1;
    }

    fn trecv(&mut self, done: SimTime, tag: u64, ignore: u64, ctx: u64) {
        match self.unexpected.iter().position(|m| (m.0 ^ tag) & !ignore == 0) {
            Some(pos) => {
                let (tag, len, delivered_at) = self.unexpected.remove(pos);
                let at = delivered_at.max(done);
                self.push(Completion { kind: CompKind::Recv, tag, len, ctx, at });
            }
            None => self.posted.push((tag, ignore, ctx, done)),
        }
    }

    fn deliver(&mut self, tag: u64, len: u64, delivered_at: SimTime) {
        match self.posted.iter().position(|p| (tag ^ p.0) & !p.1 == 0) {
            Some(pos) => {
                let (_, _, ctx, posted_at) = self.posted.remove(pos);
                let at = delivered_at.max(posted_at);
                self.push(Completion { kind: CompKind::Recv, tag, len, ctx, at });
            }
            None => self.unexpected.push((tag, len, delivered_at)),
        }
    }
}

/// One step of a completion-queue script, on endpoint `b`.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `b` posts a receive (`wild`: match any tag).
    Post { tag: u64, wild: bool },
    /// `a` sends to `b`: a receive completion on `b`, now or later.
    Incoming { tag: u64, size: usize },
    /// `b` sends to `a`: a send completion on `b` at its local
    /// completion.
    Outgoing { size: usize },
    /// `b.cq_read(now)`.
    Read,
    /// `b.cq_wait(now)`.
    Wait,
}

/// Payloads: zero-byte messages tie on `at`, 1 MiB ones complete long
/// after the small ones queued behind them.
const SIZES: [u64; 3] = [0, 8, 1 << 20];

/// Script-clock advances: none (equal instants), inside and beyond a
/// small message's flight, beyond a 1 MiB message's.
const ADVANCE_NS: [u64; 4] = [0, 300, 3_000, 60_000];

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => (0u64..3, 0u32..6).prop_map(|(tag, w)| Step::Post { tag, wild: w == 0 }),
        3 => (0u64..3, 0usize..3).prop_map(|(tag, size)| Step::Incoming { tag, size }),
        2 => (0usize..3).prop_map(|size| Step::Outgoing { size }),
        2 => Just(Step::Read),
        2 => Just(Step::Wait),
    ]
}

const OUT_TAG: u64 = 9;

/// Run `script` on a fresh rig. `send_at` maps an `Outgoing` step's ctx
/// to its local-completion instant (not observable from `tsend`'s
/// return); with `None` the reads are skipped and the map is learnt by
/// draining `b` at the end — reads touch nothing but the queue, so both
/// passes see the same NIC and fabric timing.
fn run_cq_script(
    seed: u64,
    script: &[(Step, usize)],
    send_at: Option<&HashMap<u64, SimTime>>,
) -> Result<HashMap<u64, SimTime>, TestCaseError> {
    let mut r = rig(seed);
    let (mut a, mut b) = open_pair(&mut r);
    let mut model = NaiveEp {
        posted: Vec::new(),
        unexpected: Vec::new(),
        cq: NaiveCq { cq: VecDeque::new(), params: *b.params() },
        pushed: 0,
    };
    let mut now = SimTime::ZERO;
    let mut read = 0usize;
    for (ctx, &(step, advance)) in script.iter().enumerate() {
        let ctx = ctx as u64;
        now += SimDur::from_nanos(ADVANCE_NS[advance]);
        match step {
            Step::Post { tag, wild } => {
                let ignore = if wild { u64::MAX } else { 0 };
                let done = b.trecv(now, tag, ignore, ctx);
                model.trecv(done, tag, ignore, ctx);
            }
            Step::Incoming { tag, size } => {
                let len = SIZES[size];
                let (_, msg) = a.tsend(now, &mut r.dev_a, &mut r.fabric, b.addr, tag, len, ctx);
                let msg = msg.expect("global VNI is routed");
                model.deliver(msg.rx.tag, msg.rx.len, msg.rx.delivered_at);
                b.deliver(&mut r.dev_b, msg);
            }
            Step::Outgoing { size } => {
                let len = SIZES[size];
                let (_, msg) =
                    b.tsend(now, &mut r.dev_b, &mut r.fabric, a.addr, OUT_TAG, len, ctx);
                a.deliver(&mut r.dev_a, msg.expect("global VNI is routed"));
                if let Some(send_at) = send_at {
                    let at = send_at[&ctx];
                    model.push(Completion { kind: CompKind::Send, tag: OUT_TAG, len, ctx, at });
                }
            }
            Step::Read if send_at.is_some() => {
                let depth = model.cq.cq.len();
                let want = model.cq.cq_read(now);
                prop_assert_eq!(b.cq_read(now), want, "cq_read at step {}", ctx);
                if want.1.is_none() {
                    prop_assert_eq!(model.cq.cq.len(), depth, "a refused read consumes nothing");
                }
                read += usize::from(want.1.is_some());
            }
            Step::Wait if send_at.is_some() => {
                let want = model.cq.cq_wait(now);
                prop_assert_eq!(b.cq_wait(now), want, "cq_wait at step {}", ctx);
                read += usize::from(want.is_some());
            }
            Step::Read | Step::Wait => {}
        }
    }
    // Drain: whatever is left comes out in the same order, and every
    // completion produced is read exactly once.
    let mut learnt = HashMap::new();
    loop {
        let got = b.cq_wait(now);
        if send_at.is_some() {
            prop_assert_eq!(got, model.cq.cq_wait(now), "drain");
        }
        let Some((_, c)) = got else { break };
        if c.kind == CompKind::Send {
            learnt.insert(c.ctx, c.at);
        }
        read += 1;
    }
    if send_at.is_some() {
        prop_assert_eq!(read, model.pushed, "completions conserved");
        prop_assert_eq!(b.posted_depth(), model.posted.len());
        prop_assert_eq!(b.unexpected_depth(), model.unexpected.len());
    }
    Ok(learnt)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The sorted completion queue is indistinguishable from the
    /// scanned one: same completion, same cursor, on every read of
    /// every script — send and receive completions interleaved out of
    /// `at` order, ties, reads before and after the pending instants.
    #[test]
    fn completion_queue_matches_the_first_minimum_scan(
        seed in 1u64..500,
        script in prop::collection::vec((step(), 0usize..4), 1..80),
    ) {
        let send_at = run_cq_script(seed, &script, None)?;
        run_cq_script(seed, &script, Some(&send_at))?;
    }

    /// Conservation: for arbitrary interleavings of posts and sends with
    /// small tag spaces (forcing collisions), every send is eventually
    /// accounted for: matched completions + unexpected + unmatched posts
    /// balance exactly.
    #[test]
    fn messages_are_conserved(
        seed in 1u64..500,
        // (is_post, tag) sequence; tags drawn from a tiny space.
        script in prop::collection::vec((any::<bool>(), 0u64..4), 1..60),
    ) {
        let mut r = rig(seed);
        let (mut a, mut b) = open_pair(&mut r);
        let mut now = SimTime::ZERO;
        let mut sends = 0usize;
        let mut posts = 0usize;
        for (is_post, tag) in script {
            if is_post {
                now = b.trecv(now, tag, 0, tag);
                posts += 1;
            } else {
                let (t, msg) = a.tsend(now, &mut r.dev_a, &mut r.fabric, b.addr, tag, 8, tag);
                now = t;
                if let Some(m) = msg {
                    b.deliver(&mut r.dev_b, m);
                    sends += 1;
                }
            }
        }
        // Drain all receive completions far in the future.
        let far = SimTime::from_nanos(u64::MAX / 2);
        let mut matched = 0usize;
        loop {
            let (_, c) = b.cq_read(far);
            match c {
                Some(c) => {
                    prop_assert_eq!(c.kind, CompKind::Recv);
                    matched += 1;
                }
                None => break,
            }
        }
        prop_assert_eq!(matched + b.unexpected_depth(), sends, "sends conserved");
        prop_assert_eq!(matched + b.posted_depth(), posts, "posts conserved");
    }

    /// FIFO per matching tag: with a single tag value, completion contexts
    /// arrive in post order and payload lengths in send order.
    #[test]
    fn fifo_order_within_a_tag(n in 1usize..20, seed in 1u64..200) {
        let mut r = rig(seed);
        let (mut a, mut b) = open_pair(&mut r);
        let mut now = SimTime::ZERO;
        for i in 0..n {
            now = b.trecv(now, 7, 0, i as u64);
        }
        for i in 0..n {
            let (t, msg) = a.tsend(now, &mut r.dev_a, &mut r.fabric, b.addr, 7, (i + 1) as u64, 0);
            now = t;
            b.deliver(&mut r.dev_b, msg.unwrap());
        }
        let far = SimTime::from_nanos(u64::MAX / 2);
        for i in 0..n {
            let (_, c) = b.cq_read(far);
            let c = c.expect("completion");
            prop_assert_eq!(c.ctx, i as u64, "post order");
            prop_assert_eq!(c.len, (i + 1) as u64, "send order");
        }
    }

    /// Ignore-mask algebra: a receive with mask M matches exactly the
    /// tags t where (t ^ posted) & !M == 0 — checked against a direct
    /// evaluation for random masks.
    #[test]
    fn ignore_mask_semantics(
        posted_tag in any::<u64>(),
        mask in any::<u64>(),
        incoming in any::<u64>(),
        seed in 1u64..200,
    ) {
        let mut r = rig(seed);
        let (mut a, mut b) = open_pair(&mut r);
        let now = b.trecv(SimTime::ZERO, posted_tag, mask, 1);
        let (_, msg) = a.tsend(now, &mut r.dev_a, &mut r.fabric, b.addr, incoming, 8, 0);
        b.deliver(&mut r.dev_b, msg.unwrap());
        let should_match = (incoming ^ posted_tag) & !mask == 0;
        let far = SimTime::from_nanos(u64::MAX / 2);
        let (_, c) = b.cq_read(far);
        prop_assert_eq!(c.is_some(), should_match);
        prop_assert_eq!(b.unexpected_depth(), usize::from(!should_match));
    }
}
