//! `learned-tree`: the ruleset the two-stage pipeline learns, served by a
//! one-shard gateway with a telemetry bundle attached, batched ingest, and
//! a swap to the `optimize()`d ruleset (and back) once per round.

use crate::harness::{time_setup, Expect, Ingest, Traffic, BATCH};
use crate::layers::{self, LayerCounts, Scratch};
use crate::reference::{self, key_of};
use crate::serve::{serve, time_update, Laps, Plan, Update, Workload};
use crate::trace::Spans;
use crate::{sys, Params, RunResult};
use p4guard::config::GuardConfig;
use p4guard::pipeline::{TrainedGuard, TwoStagePipeline};
use p4guard_dataplane::action::Action;
use p4guard_dataplane::{ControlPlane, ParserSpec};
use p4guard_gateway::{Gateway, GatewayConfig};
use p4guard_packet::arena::DEFAULT_CHUNK_CAPACITY;
use p4guard_packet::{FrameArena, FrameBatch, Trace};
use p4guard_rules::RuleSet;
use p4guard_telemetry::{RegistrySink, Telemetry, TelemetryConfig};
use p4guard_traffic::scenario::Scenario;
use p4guard_traffic::split_temporal;
use std::sync::Arc;

/// Seed of the labelled trace the deployed model is learned from: the
/// repository's standard mixed-scenario split. The run's `--seed` draws
/// the traffic that model serves.
pub const TRAIN_SEED: u64 = 0xbe9c;

/// Timed set-ups per run, after one warm-up.
const SETUP_REPS: usize = 10;

/// The training split of the standard mixed scenario, and the test split
/// of the mixed scenario drawn from `seed`, which is served.
pub fn inputs(seed: u64) -> (Trace, Trace) {
    let generate = |s| {
        Scenario::mixed_default(s)
            .generate()
            .expect("mixed scenario generates")
    };
    let (train, _) = split_temporal(&generate(TRAIN_SEED), 0.6);
    let (_, test) = split_temporal(&generate(seed), 0.6);
    (train, test)
}

pub fn train(train: &Trace, laps: &mut Laps) -> TrainedGuard {
    let guard = TwoStagePipeline::new(GuardConfig::fast())
        .train(train)
        .expect("the standard split trains");
    let t = guard.timings;
    laps.add("nn.stage1_train", t.stage1_train);
    laps.add("features.select", t.selection);
    laps.add("nn.stage2_train", t.stage2_train);
    laps.add("rules.tree_fit", t.tree_fit);
    laps.add("rules.compile", t.compile);
    laps.mark("train");
    guard
}

/// Packs `frames` once into batches for the single-thread layer passes.
pub fn pack(frames: &[bytes::Bytes]) -> Vec<FrameBatch> {
    let mut arena = FrameArena::new(DEFAULT_CHUNK_CAPACITY);
    frames
        .chunks(BATCH)
        .map(|chunk| {
            for f in chunk {
                arena.push(f);
            }
            arena.seal_batch()
        })
        .collect()
}

struct Deployed {
    control: ControlPlane,
    gateway: Gateway,
}

struct Learned<'a> {
    control: &'a ControlPlane,
    gateway: &'a Gateway,
    /// The served ruleset and its `optimize()`d form; updates alternate.
    rulesets: [RuleSet; 2],
    next: usize,
    version: u64,
    parser: ParserSpec,
    batches: Vec<FrameBatch>,
    sink: RegistrySink,
    scratch: Scratch,
    counts: LayerCounts,
}

impl Workload for Learned<'_> {
    fn after_round(&mut self) -> Option<Update> {
        let kind = self.next;
        self.next ^= 1;
        let (control, rs) = (self.control, &self.rulesets[kind]);
        let (installed, report, timing) = time_update(
            || {
                control
                    .clear_stage(0)
                    .and_then(|()| control.install_ruleset(0, rs, Action::Drop))
            },
            || control.publish(),
        );
        let ok = installed.is_ok() && report.version > self.version;
        self.version = report.version;
        Some(Update {
            ok,
            kind,
            timing,
            stages_recompiled: Some(report.stages_recompiled),
            names: ("control.install", "control.publish"),
        })
    }

    fn layers(&mut self, spans: &mut Spans) {
        let pipeline = self.gateway.cells()[0].load();
        for batch in &self.batches {
            let kernel = layers::batched(
                &pipeline,
                &self.parser,
                batch,
                &mut self.scratch,
                spans,
                &mut self.counts,
            );
            layers::with_sink(
                &pipeline,
                batch,
                kernel,
                &mut self.sink,
                &mut self.scratch,
                spans,
            );
        }
    }
}

pub fn run(p: &Params) -> RunResult {
    let (train_split, test) = inputs(p.seed);
    let reference = TwoStagePipeline::new(GuardConfig::fast())
        .train(&train_split)
        .expect("the standard split trains");
    let offsets = reference.selection.offsets.clone();
    let keys: Vec<Vec<u8>> = test.iter().map(|r| key_of(&r.frame, &offsets)).collect();
    let served_rules = if p.sabotage {
        let (entry, flips) = reference::most_live_entry(&reference.compiled.ternary, &keys);
        assert!(flips > 0, "some entry decides a served frame");
        reference::without_rule(&reference.compiled.ternary, &entry)
    } else {
        reference.compiled.ternary.clone()
    };
    let traffic = Traffic {
        frames: test.iter().map(|r| r.frame.clone()).collect(),
        tenant: vec![0; test.len()],
        expect: test
            .iter()
            .map(|r| reference::expect(&r.frame, || reference.classify_frame(&r.frame)))
            .collect(),
        attack: test.iter().map(|r| r.label.is_attack()).collect(),
        tenants: 1,
    };

    let mut laps = Laps::default();
    let mut ready_rss_mb = 0.0;
    let mut setup = |warm: bool| {
        laps.start(!warm);
        let mut guard = train(&train_split, &mut laps);
        if p.sabotage {
            guard.compiled.ternary = served_rules.clone();
        }
        assert!(
            guard.compiled.ternary.entries() == served_rules.entries(),
            "training is deterministic"
        );
        let capacity = (served_rules.len() * 2).max(64);
        let control = guard.deploy(capacity).expect("the ruleset fits its table");
        laps.mark("core.deploy");
        control.publish();
        laps.mark("control.publish");
        let telemetry = Arc::new(Telemetry::new(TelemetryConfig::default()));
        let gateway =
            Gateway::start_with_telemetry(&control, GatewayConfig::with_shards(1), Some(telemetry));
        laps.mark("gateway.start");
        laps.finish_run();
        if warm {
            sys::release_free_memory();
            ready_rss_mb = sys::rss_mb();
        }
        Deployed { control, gateway }
    };
    let deployed = setup(true);

    let mut optimized = served_rules.clone();
    optimized.optimize();
    let resources = deployed.control.with_switch(|s| s.resources());
    let mut work = Learned {
        control: &deployed.control,
        gateway: &deployed.gateway,
        rulesets: [optimized, served_rules.clone()],
        next: 0,
        version: 0,
        parser: ParserSpec::raw_window(reference.config.window, reference::MIN_FRAME),
        batches: pack(&traffic.frames),
        sink: Telemetry::new(TelemetryConfig::default()).shard_sink(0),
        scratch: Scratch::default(),
        counts: LayerCounts::default(),
    };
    let plan = Plan {
        ingest: Ingest::Batched(BATCH),
        pass_frames: traffic.frames.len(),
        passes: 4,
        // Every one of the fixed probe batches.
        setups: SETUP_REPS,
        probe_units: (traffic.frames.len() / BATCH).max(1),
    };
    let mut spans = p.traced.then(Spans::new);
    let mut timed_setup = || {
        time_setup(&mut setup, |d: Deployed| {
            d.gateway.finish();
        })
    };
    let samples = serve(
        &deployed.gateway,
        &traffic,
        &plan,
        &mut work,
        &mut timed_setup,
        p.seconds,
        spans.as_mut(),
    );
    let pipeline = deployed.gateway.cells()[0].load();
    let counts = std::mem::take(&mut work.counts);
    drop(work);
    let final_counts = deployed.gateway.finish();
    RunResult {
        workload: "learned-tree",
        samples,
        ready_rss_mb,
        resources,
        scan_stages: pipeline
            .stages()
            .iter()
            .filter(|s| s.strategy() == "scan")
            .count(),
        laps,
        spans,
        counts,
        served_frames: final_counts.totals.received,
        describe: vec![
            format!(
                "training: standard mixed split (seed {TRAIN_SEED:#x}), {} frames",
                train_split.len()
            ),
            format!(
                "served: {} test frames of seed {}, {:.1}% attack, cycled",
                traffic.frames.len(),
                p.seed,
                100.0 * traffic.attack_share()
            ),
            describe_stages(&pipeline),
            format!(
                "expected verdicts: {} drop / {} forward / {} reject per cycle",
                traffic
                    .expect
                    .iter()
                    .filter(|e| **e == Expect::Drop)
                    .count(),
                traffic
                    .expect
                    .iter()
                    .filter(|e| **e == Expect::Forward)
                    .count(),
                traffic
                    .expect
                    .iter()
                    .filter(|e| **e == Expect::Reject)
                    .count(),
            ),
        ],
    }
}

pub fn describe_stages(pipeline: &p4guard_dataplane::ReadPipeline) -> String {
    let stages: Vec<String> = pipeline
        .stages()
        .iter()
        .map(|s| {
            format!(
                "{}: {} entries ({} minimized) on {}",
                s.name(),
                s.len(),
                s.minimized_len(),
                s.strategy()
            )
        })
        .collect();
    format!("stages: {}", stages.join("; "))
}
