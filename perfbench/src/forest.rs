//! `forest3-churn`: a 3-tree random forest over the guard's selected
//! bytes, one ternary stage per tree voting with the sound early exit,
//! batched ingest and no telemetry. Halfway through each pass over the
//! served frames the generator adds or removes one entry in one tree and
//! publishes without draining, so recompilation competes with serving.
//! The entry matches no served frame, so no verdict changes.

use crate::harness::{time_setup, Expect, Ingest, Traffic, BATCH};
use crate::layers::{self, LayerCounts, Scratch};
use crate::learned::{describe_stages, inputs, pack, train};
use crate::reference::{self, key_of};
use crate::serve::{serve, time_update, Laps, Plan, Update, Workload};
use crate::trace::Spans;
use crate::{sys, Params, RunResult};
use p4guard::config::GuardConfig;
use p4guard_dataplane::action::Action;
use p4guard_dataplane::table::{MatchKind, MatchSpec, Table};
use p4guard_dataplane::vote::{EarlyExit, VoteStage};
use p4guard_dataplane::{ControlPlane, KeyLayout, ParserSpec, Switch};
use p4guard_features::extract::ByteDataset;
use p4guard_gateway::{Gateway, GatewayConfig};
use p4guard_packet::FrameBatch;
use p4guard_rules::forest::{ForestConfig, RandomForest};
use p4guard_rules::{CompileConfig, RuleSet, RuleSetDiff, TernaryEntry, TreeConfig};

const TREES: usize = 3;
const SETUP_REPS: usize = 10;
/// Candidate bytes per split, of the guard's eight: the trees differ,
/// and stay near the single tree's size.
const MAX_FEATURES: usize = 7;

/// The regularized bagging recipe of the repository's forest experiments,
/// with per-split feature subsampling: bootstrap resampling alone fits
/// three trees that compile to one ruleset, so the vote never disagrees
/// and no frame needs the third lookup.
fn forest_config() -> ForestConfig {
    let base = GuardConfig::fast();
    ForestConfig {
        trees: TREES,
        tree: TreeConfig {
            min_samples_leaf: base.tree.min_samples_leaf.max(16),
            min_samples_split: base.tree.min_samples_split.max(64),
            ..base.tree
        },
        max_features: Some(MAX_FEATURES),
        bootstrap: true,
        seed: base.seed ^ 0xf0_5e_57,
    }
}

/// The vote-mode switch: one ternary stage per tree on `offsets`, with
/// room for the churn entry.
fn forest_switch(rulesets: &[&RuleSet], window: usize, offsets: &[usize]) -> Switch {
    let mut sw = Switch::new(
        "perfbench-forest",
        ParserSpec::raw_window(window, reference::MIN_FRAME),
        1,
    );
    for (t, rs) in rulesets.iter().enumerate() {
        let mut table = Table::new(
            format!("tree{t}"),
            MatchKind::Ternary,
            KeyLayout::new(offsets.to_vec()),
            rs.len() + 16,
            Action::NoOp,
        );
        for e in rs.entries() {
            table
                .insert(
                    MatchSpec::Ternary {
                        value: e.value.clone(),
                        mask: e.mask.clone(),
                    },
                    Action::Drop,
                    e.priority,
                )
                .expect("the table has room for its tree");
        }
        sw.add_stage(table);
    }
    sw.set_vote(Some(VoteStage::with_early_exit(EarlyExit::sound_majority(
        TREES,
    ))));
    sw
}

/// How many of `rulesets` differ from every earlier one.
fn distinct_rulesets(rulesets: &[&RuleSet]) -> usize {
    (0..rulesets.len())
        .filter(|&i| rulesets[..i].iter().all(|r| *r != rulesets[i]))
        .count()
}

struct Deployed {
    control: ControlPlane,
    gateway: Gateway,
}

struct Forest<'a> {
    control: &'a ControlPlane,
    gateway: &'a Gateway,
    churn: TernaryEntry,
    /// Updates issued so far: even ones add the churn entry to tree
    /// `n / 2 % TREES`, odd ones remove it again.
    issued: usize,
    pass_frames: usize,
    due: bool,
    last_sent: usize,
    version: u64,
    parser: ParserSpec,
    batches: Vec<FrameBatch>,
    scratch: Scratch,
    counts: LayerCounts,
}

impl Workload for Forest<'_> {
    fn during_pass(&mut self, sent: usize) -> Option<Update> {
        // One update per pass, issued halfway through it.
        if sent < self.last_sent {
            self.due = true;
        }
        self.last_sent = sent;
        if !self.due || sent < self.pass_frames / 2 {
            return None;
        }
        self.due = false;
        let kind = self.issued % (2 * TREES);
        let stage = self.issued / 2 % TREES;
        let mut diff = RuleSetDiff::default();
        if self.issued.is_multiple_of(2) {
            diff.added.push(self.churn.clone());
        } else {
            diff.removed.push(self.churn.clone());
        }
        self.issued += 1;
        let control = self.control;
        let (applied, report, timing) = time_update(
            || control.apply_ruleset_diff(stage, &diff, Action::Drop),
            || control.publish(),
        );
        let ok = applied.is_ok_and(|(removed, added)| removed + added == 1)
            && report.version > self.version;
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
            layers::batched(
                &pipeline,
                &self.parser,
                batch,
                &mut self.scratch,
                spans,
                &mut self.counts,
            );
        }
    }
}

pub fn run(p: &Params) -> RunResult {
    let (train_split, test) = inputs(p.seed);
    let window = GuardConfig::fast().window;
    // Set-up: the guard learns which bytes to key on, the forest is fitted
    // on those bytes and compiled to one ruleset per tree.
    let fit = |laps: &mut Laps| {
        let guard = train(&train_split, laps);
        let offsets = guard.selection.offsets.clone();
        let bytes = ByteDataset::from_trace(&train_split, window).project(&offsets);
        let flat: Vec<u8> = (0..bytes.len())
            .flat_map(|i| bytes.sample(i).to_vec())
            .collect();
        let forest = RandomForest::fit(offsets.len(), &flat, bytes.labels(), forest_config());
        laps.mark("rules.forest_fit");
        let compiled = forest
            .compile(&CompileConfig::default())
            .expect("forest trees stay below the entry cap");
        laps.mark("rules.compile");
        (offsets, forest, compiled)
    };
    let (offsets, forest, compiled) = fit(&mut Laps::default());
    let keys: Vec<Vec<u8>> = test.iter().map(|r| key_of(&r.frame, &offsets)).collect();
    let mut served: Vec<RuleSet> = compiled.rulesets().into_iter().cloned().collect();
    if p.sabotage {
        let trees: Vec<&RuleSet> = served.iter().collect();
        let (rule, flips) = reference::most_live_forest_entry(&trees, &keys);
        assert!(flips > 0, "some rule decides a served vote");
        served = served
            .iter()
            .map(|rs| reference::without_rule(rs, &rule))
            .collect();
    }
    let traffic = Traffic {
        frames: test.iter().map(|r| r.frame.clone()).collect(),
        tenant: vec![0; test.len()],
        expect: test
            .iter()
            .zip(&keys)
            .map(|(r, k)| reference::expect(&r.frame, || forest.predict(k)))
            .collect(),
        attack: test.iter().map(|r| r.label.is_attack()).collect(),
        tenants: 1,
    };

    let mut laps = Laps::default();
    let mut ready_rss_mb = 0.0;
    let mut setup = |warm: bool| {
        laps.start(!warm);
        let (_, _, rebuilt) = fit(&mut laps);
        assert!(
            rebuilt.rulesets() == compiled.rulesets(),
            "forest training is deterministic"
        );
        let trees: Vec<&RuleSet> = if p.sabotage {
            served.iter().collect()
        } else {
            rebuilt.rulesets()
        };
        let control = ControlPlane::new(forest_switch(&trees, window, &offsets));
        laps.mark("control.deploy");
        control.publish();
        laps.mark("control.publish");
        let gateway = Gateway::start(&control, GatewayConfig::with_shards(1));
        laps.mark("gateway.start");
        laps.finish_run();
        if warm {
            sys::release_free_memory();
            ready_rss_mb = sys::rss_mb();
        }
        Deployed { control, gateway }
    };
    let deployed = setup(true);

    let resources = deployed.control.with_switch(|s| s.resources());
    let mut work = Forest {
        control: &deployed.control,
        gateway: &deployed.gateway,
        churn: reference::unmatched_entry(&keys, offsets.len(), p.seed),
        issued: 0,
        pass_frames: traffic.frames.len(),
        due: true,
        last_sent: 0,
        version: 0,
        parser: ParserSpec::raw_window(window, reference::MIN_FRAME),
        batches: pack(&traffic.frames),
        scratch: Scratch::default(),
        counts: LayerCounts::default(),
    };
    let plan = Plan {
        ingest: Ingest::Batched(BATCH),
        pass_frames: traffic.frames.len(),
        // One update per pass, so every round issues each of the
        // `2 * TREES` updates once and the passes' mix of update costs is
        // the same in every run.
        passes: 2 * TREES,
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
    let churn = work.churn.clone();
    drop(work);
    let final_counts = deployed.gateway.finish();
    RunResult {
        workload: "forest3-churn",
        samples,
        ready_rss_mb,
        resources,
        scan_stages: pipeline.stages().iter().filter(|s| s.strategy() == "scan").count(),
        laps,
        spans,
        counts,
        served_frames: final_counts.totals.received,
        describe: vec![
            format!(
                "training: standard mixed split, {} frames; {TREES} trees on bytes {offsets:?}",
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
                "distinct tree rulesets: {} of {TREES}",
                distinct_rulesets(&compiled.rulesets())
            ),
            format!(
                "expected verdicts: {} drop / {} forward / {} reject per cycle",
                traffic.expect.iter().filter(|e| **e == Expect::Drop).count(),
                traffic.expect.iter().filter(|e| **e == Expect::Forward).count(),
                traffic.expect.iter().filter(|e| **e == Expect::Reject).count(),
            ),
            format!(
                "churn entry: exact key {:02x?}, one update halfway through each pass, matches no served frame",
                churn.value
            ),
        ],
    }
}
