//! Serving machinery shared by the workloads: the generator loop that
//! packs and dispatches frames, the drain and probe loops, the checker
//! that compares served verdict counts with an offline reference, and the
//! statistics the metrics are reduced with.

use crate::sys::ThreadClock;
use crate::trace::Spans;
use bytes::Bytes;
use p4guard_fleet::FleetGateway;
use p4guard_gateway::Gateway;
use p4guard_packet::arena::DEFAULT_CHUNK_CAPACITY;
use p4guard_packet::{FrameArena, FrameBatch};
use std::time::{Duration, Instant};

/// Frames per ingest batch on the batched workloads.
pub const BATCH: usize = 256;

/// Times each probe unit is sent per round; the verdict latency is the
/// median over units and rounds of each unit's fastest probe.
pub const PROBE_GROUP: usize = 8;

/// A drain that takes longer than this means the gateway lost frames.
const DRAIN_DEADLINE: Duration = Duration::from_secs(20);

/// The verdict a frame must get, computed apart from the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Forward,
    Drop,
    Reject,
}

/// The frames a workload serves, with the tenant each belongs to, the
/// verdict the offline reference gives it and its ground-truth label.
pub struct Traffic {
    pub frames: Vec<Bytes>,
    pub tenant: Vec<usize>,
    pub expect: Vec<Expect>,
    pub attack: Vec<bool>,
    pub tenants: usize,
}

impl Traffic {
    /// Expected verdict counts for the frames at `indices`.
    pub fn expected(&self, indices: &[usize]) -> Counts {
        let mut c = Counts::new(self.tenants);
        for &i in indices {
            let t = &mut c.per_tenant[self.tenant[i]];
            t[RECEIVED] += 1;
            t[match self.expect[i] {
                Expect::Forward => FORWARDED,
                Expect::Drop => DROPPED,
                Expect::Reject => REJECTED,
            }] += 1;
        }
        c
    }

    pub fn attack_share(&self) -> f64 {
        self.attack.iter().filter(|&&a| a).count() as f64 / self.frames.len() as f64
    }
}

pub const RECEIVED: usize = 0;
pub const FORWARDED: usize = 1;
pub const DROPPED: usize = 2;
pub const REJECTED: usize = 3;

/// Verdict counters as the gateway reports them, per tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    /// `[received, forwarded, dropped, parser-rejected]` per tenant.
    pub per_tenant: Vec<[u64; 4]>,
    pub unknown_tenant: u64,
    pub backpressure: u64,
}

impl Counts {
    pub fn new(tenants: usize) -> Self {
        Counts {
            per_tenant: vec![[0; 4]; tenants],
            unknown_tenant: 0,
            backpressure: 0,
        }
    }

    pub fn received(&self) -> u64 {
        self.per_tenant.iter().map(|t| t[RECEIVED]).sum::<u64>() + self.unknown_tenant
    }

    /// Every received frame got exactly one verdict.
    pub fn conserved(&self) -> bool {
        self.per_tenant
            .iter()
            .all(|t| t[RECEIVED] == t[FORWARDED] + t[DROPPED] + t[REJECTED])
    }

    fn minus(&self, earlier: &Counts) -> Counts {
        Counts {
            per_tenant: self
                .per_tenant
                .iter()
                .zip(&earlier.per_tenant)
                .map(|(a, b)| std::array::from_fn(|k| a[k] - b[k]))
                .collect(),
            unknown_tenant: self.unknown_tenant - earlier.unknown_tenant,
            backpressure: self.backpressure - earlier.backpressure,
        }
    }

    /// A lower bound on the wrong verdicts among the frames these counts
    /// cover: per tenant, the largest gap in any one counter, plus every
    /// frame of unknown tenant or lost to backpressure.
    fn wrong_against(&self, expected: &Counts) -> u64 {
        let per_tenant: u64 = self
            .per_tenant
            .iter()
            .zip(&expected.per_tenant)
            .map(|(got, want)| (0..4).map(|k| got[k].abs_diff(want[k])).max().unwrap_or(0))
            .sum();
        per_tenant + self.unknown_tenant + self.backpressure
    }
}

/// The serving front the generator talks to: the single-tenant
/// [`Gateway`] or the multi-tenant [`FleetGateway`].
pub trait Served {
    fn dispatch(&self, frame: Bytes);
    fn dispatch_batch(&self, batch: FrameBatch);
    fn counts(&self) -> Counts;
    /// `(frames processed, worker drains)` summed over shards.
    fn drains(&self) -> (u64, u64);
    /// Name of shard 0's worker thread.
    fn worker_name(&self) -> &'static str;
}

impl Served for Gateway {
    fn dispatch(&self, frame: Bytes) {
        Gateway::dispatch(self, frame);
    }
    fn dispatch_batch(&self, batch: FrameBatch) {
        Gateway::dispatch_batch(self, batch);
    }
    fn counts(&self) -> Counts {
        let s = self.snapshot();
        let t = &s.totals;
        Counts {
            per_tenant: vec![[t.received, t.forwarded, t.dropped, t.parser_rejected]],
            unknown_tenant: 0,
            backpressure: s.dropped_backpressure,
        }
    }
    fn drains(&self) -> (u64, u64) {
        let s = self.snapshot();
        s.shards
            .iter()
            .fold((0, 0), |(p, b), sh| (p + sh.processed, b + sh.batches))
    }
    fn worker_name(&self) -> &'static str {
        "p4guard-shard-0"
    }
}

impl Served for FleetGateway {
    fn dispatch(&self, frame: Bytes) {
        FleetGateway::dispatch(self, frame);
    }
    fn dispatch_batch(&self, batch: FrameBatch) {
        FleetGateway::dispatch_batch(self, batch);
    }
    fn counts(&self) -> Counts {
        let s = self.snapshot();
        Counts {
            per_tenant: s
                .per_tenant
                .iter()
                .map(|t| [t.received, t.forwarded, t.dropped, t.parser_rejected])
                .collect(),
            unknown_tenant: s.unknown_tenant,
            backpressure: s.dropped_backpressure,
        }
    }
    fn drains(&self) -> (u64, u64) {
        let s = self.snapshot();
        s.shards
            .iter()
            .fold((0, 0), |(p, b), sh| (p + sh.processed, b + sh.batches))
    }
    fn worker_name(&self) -> &'static str {
        "p4guard-fleet-0"
    }
}

/// How frames enter the gateway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingest {
    /// Arena-packed batches of this many frames through `dispatch_batch`.
    Batched(usize),
    /// One frame per `dispatch` call.
    PerFrame,
}

impl Ingest {
    pub fn unit(self) -> usize {
        match self {
            Ingest::Batched(n) => n,
            Ingest::PerFrame => 1,
        }
    }
}

/// What one closed-loop pass did.
pub struct Step {
    pub elapsed: Duration,
    pub frames: usize,
    /// CPU time the generator and the shard worker ran during the pass.
    pub generator_cpu: Duration,
    pub worker_cpu: Duration,
}

/// The generator side of a serving run: it cycles through the traffic,
/// packs and dispatches it, waits for verdicts and checks them.
pub struct Serving<'a, G: Served> {
    gw: &'a G,
    traffic: &'a Traffic,
    ingest: Ingest,
    arena: FrameArena,
    generator: ThreadClock,
    worker: ThreadClock,
    cursor: usize,
    sent: u64,
    seen: Counts,
    /// Frames dispatched plus updates issued.
    pub attempted: u64,
    /// Wrong verdicts plus failed updates.
    pub failed: u64,
    /// Ground truth against verdicts, over every frame dispatched:
    /// `[true pos, false pos, false neg, true neg]`.
    pub confusion: [u64; 4],
}

impl<'a, G: Served> Serving<'a, G> {
    pub fn new(gw: &'a G, traffic: &'a Traffic, ingest: Ingest) -> Self {
        Serving {
            gw,
            traffic,
            ingest,
            arena: FrameArena::new(DEFAULT_CHUNK_CAPACITY),
            generator: ThreadClock::current(),
            worker: ThreadClock::named(gw.worker_name())
                .expect("the shard worker thread is running"),
            cursor: 0,
            sent: 0,
            seen: gw.counts(),
            attempted: 0,
            failed: 0,
            confusion: [0; 4],
        }
    }

    /// Dispatches the next `frames` frames closed-loop (blocking ingest)
    /// and returns once every one of them has a verdict. `between` runs on
    /// the generator thread after each ingest unit with the frames sent so
    /// far in this pass; it is how a workload issues updates while
    /// serving. With `spans`, the arena packing and the dispatch calls are
    /// recorded (one span per unit, or per `BATCH` frames per-frame).
    pub fn pass(
        &mut self,
        frames: usize,
        mut spans: Option<&mut Spans>,
        between: &mut dyn FnMut(usize),
    ) -> Step {
        let n = self.traffic.frames.len();
        let indices: Vec<usize> = (0..frames).map(|k| (self.cursor + k) % n).collect();
        let started = Instant::now();
        let generator0 = self.generator.now();
        let worker0 = self.worker.now();
        let mut done = 0usize;
        match self.ingest {
            Ingest::Batched(size) => {
                while done < frames {
                    let take = size.min(frames - done);
                    let t0 = spans.as_ref().map(|_| Instant::now());
                    for k in 0..take {
                        self.arena.push(&self.traffic.frames[(self.cursor + k) % n]);
                    }
                    let batch = self.arena.seal_batch();
                    let t1 = spans.as_ref().map(|_| Instant::now());
                    self.gw.dispatch_batch(batch);
                    if let (Some(s), Some(t0), Some(t1)) = (spans.as_deref_mut(), t0, t1) {
                        let t2 = Instant::now();
                        s.leaf("packet.arena_pack", t0, t1, take);
                        s.leaf("gateway.dispatch", t1, t2, take);
                        s.sample("packet.arena_pack", per_frame_ns(t1 - t0, take));
                        s.sample("gateway.dispatch", per_frame_ns(t2 - t1, take));
                    }
                    self.cursor = (self.cursor + take) % n;
                    done += take;
                    between(done);
                }
            }
            Ingest::PerFrame => {
                while done < frames {
                    let take = BATCH.min(frames - done);
                    let t0 = spans.as_ref().map(|_| Instant::now());
                    for k in 0..take {
                        self.gw
                            .dispatch(self.traffic.frames[(self.cursor + k) % n].clone());
                    }
                    if let (Some(s), Some(t0)) = (spans.as_deref_mut(), t0) {
                        let t1 = Instant::now();
                        s.leaf("gateway.dispatch", t0, t1, take);
                        s.sample("gateway.dispatch", per_frame_ns(t1 - t0, take));
                    }
                    self.cursor = (self.cursor + take) % n;
                    done += take;
                    between(done);
                }
            }
        }
        self.sent += frames as u64;
        // Sleep between polls, so the generator's CPU time is its work.
        self.wait_drained(|| std::thread::sleep(Duration::from_micros(20)));
        let elapsed = started.elapsed();
        let generator_cpu = self.generator.now() - generator0;
        let worker_cpu = self.worker.now() - worker0;
        self.check(&indices);
        Step {
            elapsed,
            frames,
            generator_cpu,
            worker_cpu,
        }
    }

    /// Dispatches probe unit `unit` with nothing else outstanding and
    /// returns the time until its verdicts show in the gateway snapshot.
    /// A batch unit samples the traffic evenly: every `n / size`-th frame
    /// from a start of `unit` modulo that stride, so the units are a fixed
    /// set that each carry the traffic's mix. A single-frame unit is frame
    /// `unit` modulo `n`.
    pub fn probe(&mut self, unit: usize) -> Duration {
        let n = self.traffic.frames.len();
        let indices: Vec<usize> = match self.ingest {
            Ingest::Batched(size) => {
                let stride = (n / size).max(1);
                (0..size)
                    .map(|j| (unit % stride + j * stride) % n)
                    .collect()
            }
            Ingest::PerFrame => vec![unit % n],
        };
        let elapsed = match self.ingest {
            Ingest::Batched(_) => {
                for &i in &indices {
                    self.arena.push(&self.traffic.frames[i]);
                }
                let batch = self.arena.seal_batch();
                let t0 = Instant::now();
                self.gw.dispatch_batch(batch);
                self.sent += indices.len() as u64;
                self.wait_drained(std::hint::spin_loop);
                t0.elapsed()
            }
            Ingest::PerFrame => {
                let frame = self.traffic.frames[indices[0]].clone();
                let t0 = Instant::now();
                self.gw.dispatch(frame);
                self.sent += 1;
                self.wait_drained(std::hint::spin_loop);
                t0.elapsed()
            }
        };
        self.check(&indices);
        elapsed
    }

    /// Counts one ruleset update: `ok` is whether it succeeded with a
    /// version above the last one.
    pub fn update_done(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    fn wait_drained(&self, mut pause: impl FnMut()) {
        let deadline = Instant::now() + DRAIN_DEADLINE;
        while self.gw.counts().received() < self.sent {
            assert!(
                Instant::now() < deadline,
                "gateway did not deliver every verdict within {DRAIN_DEADLINE:?}"
            );
            pause();
        }
    }

    /// Compares the counters' movement since the last check with the
    /// reference for the frames dispatched in between.
    fn check(&mut self, indices: &[usize]) {
        let now = self.gw.counts();
        let delta = now.minus(&self.seen);
        self.failed += delta.wrong_against(&self.traffic.expected(indices));
        self.attempted += indices.len() as u64;
        self.seen = now;
        for &i in indices {
            let dropped = self.traffic.expect[i] != Expect::Forward;
            let slot = match (self.traffic.attack[i], dropped) {
                (true, true) => 0,
                (false, true) => 1,
                (true, false) => 2,
                (false, false) => 3,
            };
            self.confusion[slot] += 1;
        }
    }

    /// Final conservation checks: every frame sent was received, got one
    /// verdict, and none was shed to backpressure.
    pub fn invariants_hold(&self) -> bool {
        let c = self.gw.counts();
        c.received() == self.sent && c.conserved() && c.backpressure == 0 && c.unknown_tenant == 0
    }

    pub fn f1(&self) -> f64 {
        let [tp, fp, fn_, _] = self.confusion.map(|v| v as f64);
        2.0 * tp / (2.0 * tp + fp + fn_)
    }
}

/// Mean of the values between the first and third quartile of `values`
/// (which it sorts). Unlike the median it moves in proportion when the
/// host's speed shifts for part of a run, and unlike the mean it ignores
/// the outliers of either tail.
pub fn central_mean(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "central mean of no samples");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let (lo, hi) = (n / 4, n - n / 4);
    values[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// Median of `values` (which it sorts).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` of `values` (which it sorts).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn per_frame_ns(d: Duration, frames: usize) -> f64 {
    d.as_nanos() as f64 / frames.max(1) as f64
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs a set-up once more, timed by the calling thread's CPU clock, and
/// tears its product down outside the timed span. Returns seconds.
pub fn time_setup<T>(setup: &mut impl FnMut(bool) -> T, teardown: impl FnOnce(T)) -> f64 {
    let clock = ThreadClock::current();
    let t0 = clock.now();
    let built = setup(false);
    let took = clock.now() - t0;
    teardown(built);
    took.as_secs_f64()
}
