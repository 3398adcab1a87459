//! `fleet4-frames`: simulated traffic of four device-class tenants through
//! the fleet gateway, one frame per dispatch. Each tenant serves a tree
//! ACL learned from its own training trace; once per round one tenant
//! republishes its ACL, with or without an entry that matches no served
//! frame, through the registry's budget admission.

use crate::harness::{time_setup, Ingest, Traffic};
use crate::layers::{self, LayerCounts, Scratch};
use crate::reference::{self, key_of};
use crate::serve::{serve, time_update, Laps, Plan, Update, Workload};
use crate::trace::Spans;
use crate::{sys, Params, RunResult};
use bytes::Bytes;
use p4guard_dataplane::{KeyLayout, ParserSpec, SwitchResources};
use p4guard_features::extract::ByteDataset;
use p4guard_fleet::{
    AclLayout, AdmitPolicy, BudgetConfig, FleetGateway, FleetSim, FleetSimConfig, SimFrame,
    TenantClassifier, TenantRegistry, TenantShare, TenantSpec,
};
use p4guard_gateway::GatewayConfig;
use p4guard_packet::Trace;
use p4guard_rules::compile::{compile_tree, CompileConfig};
use p4guard_rules::tree::{DecisionTree, TreeConfig};
use p4guard_rules::{RuleSet, TernaryEntry};

const TENANTS: usize = 4;
/// Simulated devices across the four tenants.
const DEVICES: u64 = 100_000;
/// Training frames drawn per tenant (as in the fleet experiment).
const TRAIN_FRAMES: usize = 12_000;
const SETUP_REPS: usize = 30;
/// Frames served, sampled evenly from the simulated day.
const SERVED: usize = 8192;
/// Frames per group in the layer passes.
const GROUP: usize = 256;

/// Fits one tenant's tree on its training trace and compiles it over the
/// fleet ACL layout.
fn learn(trace: &Trace, layout: &AclLayout, laps: &mut Laps) -> RuleSet {
    let dataset = ByteDataset::from_trace(trace, layout.window).project(&layout.offsets);
    let flat: Vec<u8> = (0..dataset.len())
        .flat_map(|i| dataset.sample(i).to_vec())
        .collect();
    laps.mark("features.project");
    let tree = DecisionTree::fit(
        layout.offsets.len(),
        &flat,
        dataset.labels(),
        TreeConfig::default(),
    );
    laps.mark("rules.tree_fit");
    let rs = compile_tree(&tree, &CompileConfig::default())
        .expect("tenant trees compile within the entry budget")
        .ternary;
    laps.mark("rules.compile");
    rs
}

fn registry(config: &FleetSimConfig, layout: &AclLayout) -> TenantRegistry {
    let specs = config
        .tenants
        .iter()
        .map(|t| TenantSpec {
            name: t.name.clone(),
            share: TenantShare {
                weight: t.devices.max(1),
                min_tcam_bits: 8 * 1024,
                min_sram_bits: 8 * 1024,
            },
        })
        .collect();
    TenantRegistry::new(specs, BudgetConfig::default(), layout.clone())
        .expect("the demo tenants' guarantees fit the default budget")
}

struct Deployed {
    registry: TenantRegistry,
    gateway: FleetGateway,
}

struct Fleet<'a> {
    registry: &'a mut TenantRegistry,
    gateway: &'a FleetGateway,
    /// Each tenant's served ACL without and with the unmatched entry.
    rulesets: Vec<[RuleSet; 2]>,
    with_extra: Vec<bool>,
    issued: usize,
    versions: Vec<u64>,
    classifier: TenantClassifier,
    parser: ParserSpec,
    key: KeyLayout,
    groups: Vec<Vec<Bytes>>,
    scratch: Scratch,
    counts: LayerCounts,
}

impl Workload for Fleet<'_> {
    fn after_round(&mut self) -> Option<Update> {
        let tenant = self.issued % TENANTS;
        self.issued += 1;
        self.with_extra[tenant] ^= true;
        let kind = 2 * tenant + usize::from(self.with_extra[tenant]);
        let rs = &self.rulesets[tenant][usize::from(self.with_extra[tenant])];
        let registry = &mut *self.registry;
        let ((), published, timing) =
            time_update(|| (), || registry.publish(tenant, rs, AdmitPolicy::Reject));
        let ok = published.is_ok_and(|p| {
            let rising = p.version > self.versions[tenant];
            self.versions[tenant] = p.version;
            rising && p.trimmed == 0
        });
        Some(Update {
            ok,
            kind,
            timing,
            stages_recompiled: None,
            names: ("", "fleet.publish"),
        })
    }

    fn layers(&mut self, spans: &mut Spans) {
        let pipelines: Vec<_> = (0..TENANTS)
            .map(|t| self.gateway.tenant_cells(t)[0].load())
            .collect();
        for group in &self.groups {
            layers::per_frame(
                &pipelines,
                &self.classifier,
                &self.parser,
                &self.key,
                group,
                &mut self.scratch,
                spans,
                &mut self.counts,
            );
            layers::flow_hash(group.iter().map(|f| &f[..]), 1, spans);
        }
    }
}

pub fn run(p: &Params) -> RunResult {
    let config = FleetSimConfig::demo(TENANTS, DEVICES, p.seed);
    let layout = AclLayout::default();
    let mut sim = FleetSim::new(config.clone());
    let day = sim.run();
    let day_frames = day.len();
    // An even sample of the simulated day, so every pass sees its whole
    // load curve and every attack wave. The sampled frames are copied out
    // and the day dropped before set-up, so that `ready_rss_mb` is not
    // mostly the day's frames, nor the heap pages they are scattered over.
    let frames: Vec<SimFrame> = day
        .iter()
        .step_by(day_frames / SERVED)
        .take(SERVED)
        .map(|f| SimFrame {
            frame: Bytes::from(f.frame.to_vec()),
            ..f.clone()
        })
        .collect();
    drop(day);
    let training: Vec<Trace> = (0..TENANTS)
        .map(|t| sim.training_trace(t, TRAIN_FRAMES))
        .collect();
    let learned: Vec<RuleSet> = training
        .iter()
        .map(|trace| learn(trace, &layout, &mut Laps::default()))
        .collect();
    let keys: Vec<Vec<u8>> = frames
        .iter()
        .map(|f| key_of(&f.frame, &layout.offsets))
        .collect();
    let mut served = learned.clone();
    if p.sabotage {
        let (tenant, entry, flips) = (0..TENANTS)
            .map(|t| {
                let own: Vec<Vec<u8>> = frames
                    .iter()
                    .zip(&keys)
                    .filter(|(f, _)| f.tenant == t)
                    .map(|(_, k)| k.clone())
                    .collect();
                let (entry, flips) = reference::most_live_entry(&learned[t], &own);
                (t, entry, flips)
            })
            .max_by_key(|(_, _, flips)| *flips)
            .expect("four tenants");
        assert!(flips > 0, "some entry decides a served frame");
        served[tenant] = reference::without_rule(&learned[tenant], &entry);
    }
    let traffic = Traffic {
        frames: frames.iter().map(|f| f.frame.clone()).collect(),
        tenant: frames.iter().map(|f| f.tenant).collect(),
        expect: frames
            .iter()
            .zip(&keys)
            .map(|(f, k)| reference::expect(&f.frame, || learned[f.tenant].classify(k)))
            .collect(),
        attack: frames.iter().map(|f| f.label.is_attack()).collect(),
        tenants: TENANTS,
    };

    let mut laps = Laps::default();
    let mut ready_rss_mb = 0.0;
    let mut setup = |warm: bool| {
        laps.start(!warm);
        let mut registry = registry(&config, &layout);
        for (t, trace) in training.iter().enumerate() {
            let rs = learn(trace, &layout, &mut laps);
            assert!(rs == learned[t], "tree fitting is deterministic");
            let rs = if p.sabotage { &served[t] } else { &rs };
            registry
                .publish(t, rs, AdmitPolicy::Reject)
                .expect("a learned ACL fits its tenant's share");
            laps.mark("fleet.initial_publish");
        }
        let gateway = FleetGateway::start(&registry, GatewayConfig::with_shards(1), None);
        laps.mark("gateway.start");
        laps.finish_run();
        if warm {
            sys::release_free_memory();
            ready_rss_mb = sys::rss_mb();
        }
        Deployed { registry, gateway }
    };
    let mut deployed = setup(true);

    let tables: Vec<_> = (0..TENANTS)
        .flat_map(|t| {
            let control = deployed.registry.control(t).expect("tenant exists");
            control.with_switch(|s| {
                (0..s.stage_count())
                    .map(|i| s.stage(i).clone())
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let resources = SwitchResources::of(&tables);
    let extra: TernaryEntry = reference::unmatched_entry(&keys, layout.offsets.len(), p.seed);
    let rulesets = served
        .iter()
        .map(|rs| {
            let mut with = rs.clone();
            with.push(extra.clone());
            [rs.clone(), with]
        })
        .collect();
    let stride = (traffic.frames.len() / 32).max(GROUP);
    let groups = (0..traffic.frames.len().saturating_sub(GROUP))
        .step_by(stride)
        .map(|s| traffic.frames[s..s + GROUP].to_vec())
        .collect();
    let classifier = deployed.registry.classifier();
    let Deployed { registry, gateway } = &mut deployed;
    let gateway: &FleetGateway = gateway;
    let mut work = Fleet {
        registry,
        gateway,
        rulesets,
        with_extra: vec![false; TENANTS],
        issued: 0,
        versions: vec![0; TENANTS],
        classifier,
        parser: ParserSpec::raw_window(layout.window, reference::MIN_FRAME),
        key: KeyLayout::new(layout.offsets.clone()),
        groups,
        scratch: Scratch::default(),
        counts: LayerCounts::default(),
    };
    let plan = Plan {
        ingest: Ingest::PerFrame,
        pass_frames: traffic.frames.len(),
        passes: 2,
        setups: SETUP_REPS,
        probe_units: 32,
    };
    let mut spans = p.traced.then(Spans::new);
    let mut timed_setup = || {
        time_setup(&mut setup, |d: Deployed| {
            d.gateway.finish();
        })
    };
    let samples = serve(
        gateway,
        &traffic,
        &plan,
        &mut work,
        &mut timed_setup,
        p.seconds,
        spans.as_mut(),
    );
    let counts = std::mem::take(&mut work.counts);
    drop(work);
    let stages: Vec<String> = (0..TENANTS)
        .map(|t| {
            let p = deployed.gateway.tenant_cells(t)[0].load();
            let s = &p.stages()[0];
            format!(
                "tenant {t}: {} learned entries on {}",
                learned[t].len(),
                s.strategy()
            )
        })
        .collect();
    let scan_stages = (0..TENANTS)
        .map(|t| {
            let p = deployed.gateway.tenant_cells(t)[0].load();
            p.stages().iter().filter(|s| s.strategy() == "scan").count()
        })
        .sum();
    let final_counts = deployed.gateway.finish();
    RunResult {
        workload: "fleet4-frames",
        samples,
        ready_rss_mb,
        resources,
        scan_stages,
        laps,
        spans,
        counts,
        served_frames: final_counts.totals.received,
        describe: vec![
            format!(
                "fleet: FleetSimConfig::demo({TENANTS}, {DEVICES}, seed {}), {TRAIN_FRAMES} training frames per tenant",
                p.seed
            ),
            format!(
                "served: {} of the day's {} frames, evenly sampled, {:.1}% attack, one frame per dispatch",
                traffic.frames.len(),
                day_frames,
                100.0 * traffic.attack_share()
            ),
            format!("stages: {}", stages.join("; ")),
            format!(
                "update entry: exact key {:02x?}, matches no served frame",
                extra.value
            ),
        ],
    }
}
