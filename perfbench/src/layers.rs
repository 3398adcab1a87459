//! Single-thread passes that time the dataplane's layers one at a time:
//! the parser, key extraction and table lookup that the frame kernel
//! chains, the kernel itself, the telemetry sink, the flow hash and the
//! tenant classifier. Each layer runs as its own loop over the same
//! frames, so its span holds that layer's work and nothing else; the
//! kernel minus the three layers is the residual they leave unexplained.
//! Every call leaves one span and one ns-per-frame sample.

use crate::harness::per_frame_ns;
use crate::trace::Spans;
use bytes::Bytes;
use p4guard_dataplane::action::Action;
use p4guard_dataplane::switch::SwitchCounters;
use p4guard_dataplane::{
    BatchScratch, KeyLayout, LookupOutcome, ParserSpec, ReadPipeline, Verdict,
};
use p4guard_fleet::TenantClassifier;
use p4guard_gateway::shard_for;
use p4guard_packet::FrameBatch;
use p4guard_telemetry::{RegistrySink, TelemetrySink};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frames the layer passes have run, and table lookups they made.
#[derive(Default)]
pub struct LayerCounts {
    pub frames: u64,
    pub lookups: u64,
}

impl LayerCounts {
    pub fn lookups_per_frame(&self) -> f64 {
        self.lookups as f64 / self.frames.max(1) as f64
    }
}

/// Reusable buffers for the layer passes.
#[derive(Default)]
pub struct Scratch {
    alive: Vec<u32>,
    keys: Vec<u8>,
    probe: Vec<u8>,
    out: Vec<(Action, LookupOutcome)>,
    attack: Vec<u16>,
    benign: Vec<u16>,
    kernel: BatchScratch,
    verdicts: Vec<Verdict>,
    counters: SwitchCounters,
}

/// Times `f` as one span named `name` over `frames` frames.
fn timed<R>(
    spans: &mut Spans,
    name: &'static str,
    frames: usize,
    f: impl FnOnce() -> R,
) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    let t1 = Instant::now();
    spans.leaf(name, t0, t1, frames);
    (r, t1 - t0)
}

/// Times parse, key extraction and lookup on `batch` the way the batched
/// kernel stages them (lookups only for frames still alive, under the
/// pipeline's own early-exit or first-drop rule), then the kernel
/// (`process_batch_into`) on the same batch. Returns the kernel's time.
pub fn batched(
    pipeline: &ReadPipeline,
    parser: &ParserSpec,
    batch: &FrameBatch,
    s: &mut Scratch,
    spans: &mut Spans,
    counts: &mut LayerCounts,
) -> Duration {
    let n = batch.len();
    let (_, parse) = timed(spans, "dataplane.parse", n, || {
        s.alive.clear();
        for i in 0..n {
            if parser.accepts(batch.frame(i)) {
                s.alive.push(i as u32);
            }
        }
    });

    let exit = pipeline.vote().and_then(|v| v.early_exit);
    let voting = pipeline.vote().is_some();
    s.attack.clear();
    s.attack.resize(n, 0);
    s.benign.clear();
    s.benign.resize(n, 0);
    let (mut key, mut lookup) = (Duration::ZERO, Duration::ZERO);
    for table in pipeline.stages() {
        if s.alive.is_empty() {
            break;
        }
        let width = table.key().width();
        let m = s.alive.len();
        s.keys.clear();
        s.keys.resize(m * width, 0);
        let (alive, keys) = (&s.alive, &mut s.keys);
        key += timed(spans, "dataplane.key_extract", m, || {
            for (j, &i) in alive.iter().enumerate() {
                table.key().build_key_into(
                    batch.frame(i as usize),
                    &mut keys[j * width..(j + 1) * width],
                );
            }
        })
        .1;
        if s.probe.len() < width {
            s.probe.resize(width, 0);
        }
        s.out.clear();
        s.out.resize(m, (Action::NoOp, LookupOutcome::Miss));
        let (keys, probe, out) = (&s.keys, &mut s.probe, &mut s.out);
        lookup += timed(spans, "dataplane.lookup", m, || {
            table.lookup_batch(keys, width, probe, out)
        })
        .1;
        counts.lookups += m as u64;
        // Which frames go on to the next stage (untimed: the kernel's
        // apply and vote steps belong to the residual).
        let mut kept = 0;
        for j in 0..m {
            let i = s.alive[j] as usize;
            let (action, outcome) = s.out[j];
            let leaves = if voting {
                if matches!(outcome, LookupOutcome::Hit(_)) {
                    s.attack[i] += 1;
                } else {
                    s.benign[i] += 1;
                }
                exit.is_some_and(|e| e.decided(s.attack[i].into(), s.benign[i].into()))
            } else {
                action == Action::Drop
            };
            if !leaves {
                s.alive[kept] = i as u32;
                kept += 1;
            }
        }
        s.alive.truncate(kept);
    }
    black_box(&s.alive);

    let (_, kernel) = timed(spans, "dataplane.kernel", n, || {
        s.verdicts.clear();
        pipeline.process_batch_into(
            batch.data(),
            batch.spans(),
            &mut s.counters,
            &mut s.kernel,
            &mut s.verdicts,
        )
    });
    spans.sample("dataplane.parse", per_frame_ns(parse, n));
    spans.sample("dataplane.key_extract", per_frame_ns(key, n));
    spans.sample("dataplane.lookup", per_frame_ns(lookup, n));
    spans.sample("dataplane.kernel", per_frame_ns(kernel, n));
    counts.frames += n as u64;
    kernel
}

/// The kernel on `batch` with a registry telemetry sink, flushed once per
/// batch as a shard worker flushes it; samples its cost over `kernel`,
/// the same batch without a sink.
pub fn with_sink(
    pipeline: &ReadPipeline,
    batch: &FrameBatch,
    kernel: Duration,
    sink: &mut RegistrySink,
    s: &mut Scratch,
    spans: &mut Spans,
) {
    let n = batch.len();
    let (_, took) = timed(spans, "telemetry.kernel_with_sink", n, || {
        s.verdicts.clear();
        pipeline.process_batch_with(
            batch.data(),
            batch.spans(),
            &mut s.counters,
            &mut s.kernel,
            &mut s.verdicts,
            sink,
        );
        sink.batch_end();
    });
    spans.sample(
        "telemetry.sink",
        per_frame_ns(took, n) - per_frame_ns(kernel, n),
    );
}

/// Times the flow hash the gateway computes per dispatched frame.
pub fn flow_hash<'f>(
    frames: impl ExactSizeIterator<Item = &'f [u8]>,
    shards: usize,
    spans: &mut Spans,
) {
    let n = frames.len();
    let (_, took) = timed(spans, "gateway.flow_hash", n, || {
        for f in frames {
            black_box(shard_for(black_box(f), shards));
        }
    });
    spans.sample("gateway.flow_hash", per_frame_ns(took, n));
}

/// The fleet worker's per-frame path, layer by layer, over `frames`:
/// tenant classification, then parse, key extraction and lookup in the
/// tenant's pipeline, then the kernel (`process_into`) per frame.
#[allow(clippy::too_many_arguments)]
pub fn per_frame(
    pipelines: &[Arc<ReadPipeline>],
    classifier: &TenantClassifier,
    parser: &ParserSpec,
    key: &KeyLayout,
    frames: &[Bytes],
    s: &mut Scratch,
    spans: &mut Spans,
    counts: &mut LayerCounts,
) {
    let n = frames.len();
    let width = key.width();
    let (tenants, classify) = timed(spans, "fleet.classify", n, || {
        frames
            .iter()
            .map(|f| classifier.resolve(f).unwrap_or(0))
            .collect::<Vec<usize>>()
    });
    let alive = &mut s.alive;
    let (_, parse) = timed(spans, "dataplane.parse", n, || {
        alive.clear();
        for (i, f) in frames.iter().enumerate() {
            if parser.accepts(f) {
                alive.push(i as u32);
            }
        }
    });
    let m = s.alive.len();
    s.keys.clear();
    s.keys.resize(m * width, 0);
    let (alive, keys) = (&s.alive, &mut s.keys);
    let (_, extract) = timed(spans, "dataplane.key_extract", m, || {
        for (j, &i) in alive.iter().enumerate() {
            key.build_key_into(&frames[i as usize], &mut keys[j * width..(j + 1) * width]);
        }
    });
    if s.probe.len() < width {
        s.probe.resize(width, 0);
    }
    let (keys, probe) = (&s.keys, &mut s.probe);
    let (lookups, lookup) = timed(spans, "dataplane.lookup", m, || {
        let mut lookups = 0u64;
        for (j, &i) in alive.iter().enumerate() {
            for table in pipelines[tenants[i as usize]].stages() {
                black_box(table.lookup(&keys[j * width..(j + 1) * width], probe));
                lookups += 1;
            }
        }
        lookups
    });
    let mut scratch = Vec::new();
    let counters = &mut s.counters;
    let (_, kernel) = timed(spans, "dataplane.kernel", n, || {
        for (f, &t) in frames.iter().zip(&tenants) {
            black_box(pipelines[t].process_into(f, counters, &mut scratch));
        }
    });
    spans.sample("fleet.classify", per_frame_ns(classify, n));
    spans.sample("dataplane.parse", per_frame_ns(parse, n));
    spans.sample("dataplane.key_extract", per_frame_ns(extract, n));
    spans.sample("dataplane.lookup", per_frame_ns(lookup, n));
    spans.sample("dataplane.kernel", per_frame_ns(kernel, n));
    counts.lookups += lookups;
    counts.frames += n as u64;
}
