//! The serving loop every workload runs: whole rounds of short
//! closed-loop passes, a train of latency probes and the round's ruleset
//! update, until the run's time is up. With tracing on, each round also
//! runs traced passes beside the untraced ones, and the single-thread
//! layer passes.

use crate::harness::{
    central_mean, median, ms, quantile, Ingest, Served, Serving, Traffic, PROBE_GROUP,
};
use crate::sys::{self, ThreadClock};
use crate::trace::Spans;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Rounds every run makes, however short its time; the first is warm-up.
const MIN_ROUNDS: usize = 4;
/// The percentile of the per-pass pps that `pps` reports.
const PPS_QUANTILE: f64 = 0.1;

/// How a workload sizes its rounds.
pub struct Plan {
    pub ingest: Ingest,
    /// Frames in one closed-loop pass.
    pub pass_frames: usize,
    /// Passes per round.
    pub passes: usize,
    /// Distinct probe units per round; each is sent `PROBE_GROUP` times,
    /// interleaved with the others.
    pub probe_units: usize,
    /// Timed set-ups per run, spread evenly over it.
    pub setups: usize,
}

/// One ruleset update as the workload timed it.
pub struct Update {
    /// Succeeded, with a version above the previous one.
    pub ok: bool,
    /// Which of the workload's repeating updates this is; each kind is
    /// reduced to its own median.
    pub kind: usize,
    pub timing: UpdateTiming,
    /// Stages the publish re-lowered, where the control plane reports it.
    pub stages_recompiled: Option<usize>,
    /// Span names of the install step (empty: no separate step) and the
    /// publish step.
    pub names: (&'static str, &'static str),
}

/// When an update's steps ran, and the CPU time each took on the
/// updating thread.
pub struct UpdateTiming {
    pub start: Instant,
    pub installed: Instant,
    pub end: Instant,
    pub install_cpu: Duration,
    pub publish_cpu: Duration,
}

/// Runs an update's install step, then its publish step, on the calling
/// thread, timing both.
pub fn time_update<A, B>(
    install: impl FnOnce() -> A,
    publish: impl FnOnce() -> B,
) -> (A, B, UpdateTiming) {
    let clock = ThreadClock::current();
    let (start, cpu0) = (Instant::now(), clock.now());
    let a = install();
    let (installed, cpu1) = (Instant::now(), clock.now());
    let b = publish();
    let (end, cpu2) = (Instant::now(), clock.now());
    let timing = UpdateTiming {
        start,
        installed,
        end,
        install_cpu: cpu1 - cpu0,
        publish_cpu: cpu2 - cpu1,
    };
    (a, b, timing)
}

/// What a workload does besides serving frames.
pub trait Workload {
    /// Called on the generator thread after each ingest unit of a pass,
    /// with the frames sent so far in that pass.
    fn during_pass(&mut self, _sent: usize) -> Option<Update> {
        None
    }
    /// Called once per round with the gateway drained.
    fn after_round(&mut self) -> Option<Update> {
        None
    }
    /// The single-thread layer passes of a traced round.
    fn layers(&mut self, spans: &mut Spans);
}

/// Samples gathered while serving, warm-up round excluded.
#[derive(Default)]
pub struct Samples {
    /// Frames per second of the pass's critical path, per untraced and
    /// traced pass: the generator's CPU time, or the worker's plus that of
    /// the updates issued during the pass, whichever is longer.
    pub pass_pps: Vec<f64>,
    pub traced_pps: Vec<f64>,
    /// Frames per wall-clock second, per untraced and traced pass.
    pub wall_pps: Vec<f64>,
    pub traced_wall_pps: Vec<f64>,
    pub probe_us: Vec<f64>,
    /// Each unit's fastest probe in each round.
    pub probe_fastest_us: Vec<f64>,
    /// CPU seconds of each timed set-up.
    pub setup_s: Vec<f64>,
    /// Update CPU times by update kind.
    pub updates: BTreeMap<usize, Vec<f64>>,
    /// Install and publish step times by span name.
    pub steps: BTreeMap<&'static str, Vec<f64>>,
    pub recompiled: Vec<f64>,
    pub rounds: usize,
    pub attempted: u64,
    pub failed: u64,
    pub invariants: bool,
    pub f1: f64,
    /// CPU ns of the generator and worker threads, wall ns and frames,
    /// over the passes after warm-up.
    pub generator_cpu_ns: u64,
    pub worker_cpu_ns: u64,
    /// CPU ns of the updates issued during those passes.
    pub pass_update_cpu_ns: u64,
    pub pass_wall_ns: u64,
    pub pass_frames: u64,
    pub batch_fill: f64,
    pub steal_ticks: u64,
}

pub fn serve<G: Served, W: Workload>(
    gw: &G,
    traffic: &Traffic,
    plan: &Plan,
    work: &mut W,
    setup: &mut dyn FnMut() -> f64,
    seconds: f64,
    mut spans: Option<&mut Spans>,
) -> Samples {
    let mut out = Samples::default();
    let mut serving = Serving::new(gw, traffic, plan.ingest);
    let steal0 = sys::steal_ticks();
    let drains0 = gw.drains();
    let started = Instant::now();
    let mut updates: Vec<Update> = Vec::new();
    let mut round = 0usize;
    while round < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds {
        let warm = round == 0;
        // Set-ups are timed between rounds, spread over the run so that
        // they meet the host in all its moods.
        let due = (started.elapsed().as_secs_f64() / seconds * plan.setups as f64).ceil();
        while !warm && (out.setup_s.len() as f64) < due.min(plan.setups as f64) {
            out.setup_s.push(setup());
        }
        if let Some(s) = spans.as_deref_mut() {
            s.set_trace(round as u32);
        }
        for pass in 0..plan.passes {
            // With tracing, traced and untraced passes alternate.
            let traced = spans.is_some() && pass % 2 == 1;
            let issued = updates.len();
            let step = if traced {
                let s = spans.as_deref_mut().expect("traced run");
                let open = s.open("pass");
                let step = serving.pass(plan.pass_frames, Some(&mut *s), &mut |sent| {
                    updates.extend(work.during_pass(sent));
                });
                s.close(open, step.frames);
                step
            } else {
                serving.pass(plan.pass_frames, None, &mut |sent| {
                    updates.extend(work.during_pass(sent));
                })
            };
            if warm {
                continue;
            }
            // An update issued during the pass runs on the generator
            // thread while the worker waits for the next unit, so its CPU
            // time is on the pass's critical path beside the worker's.
            let update_cpu: Duration = updates[issued..]
                .iter()
                .map(|u| u.timing.install_cpu + u.timing.publish_cpu)
                .sum();
            let busy = step.generator_cpu.max(step.worker_cpu + update_cpu);
            let pps = step.frames as f64 / busy.as_secs_f64();
            if traced {
                out.traced_pps.push(pps);
                out.traced_wall_pps
                    .push(step.frames as f64 / step.elapsed.as_secs_f64());
            } else {
                out.pass_pps.push(pps);
                out.wall_pps
                    .push(step.frames as f64 / step.elapsed.as_secs_f64());
            }
            out.generator_cpu_ns += step.generator_cpu.as_nanos() as u64;
            out.worker_cpu_ns += step.worker_cpu.as_nanos() as u64;
            out.pass_update_cpu_ns += update_cpu.as_nanos() as u64;
            out.pass_wall_ns += step.elapsed.as_nanos() as u64;
            out.pass_frames += step.frames as u64;
        }
        let open = spans.as_deref_mut().map(|s| s.open("probes"));
        let base = round * plan.probe_units;
        let mut fastest = vec![f64::INFINITY; plan.probe_units];
        for _ in 0..PROBE_GROUP {
            for (u, best) in fastest.iter_mut().enumerate() {
                let us = serving.probe(base + u).as_secs_f64() * 1e6;
                *best = best.min(us);
                if !warm {
                    out.probe_us.push(us);
                }
            }
        }
        if !warm {
            out.probe_fastest_us.extend(fastest);
        }
        if let (Some(s), Some(open)) = (spans.as_deref_mut(), open) {
            s.close(open, PROBE_GROUP * plan.probe_units * plan.ingest.unit());
        }
        updates.extend(work.after_round());
        for u in updates.drain(..) {
            serving.update_done(u.ok);
            let t = &u.timing;
            if let Some(s) = spans.as_deref_mut() {
                if !u.names.0.is_empty() {
                    s.leaf(u.names.0, t.start, t.installed, 0);
                }
                s.leaf(u.names.1, t.installed, t.end, 0);
            }
            if !warm {
                out.updates
                    .entry(u.kind)
                    .or_default()
                    .push(ms(t.install_cpu + t.publish_cpu));
                if !u.names.0.is_empty() {
                    out.steps
                        .entry(u.names.0)
                        .or_default()
                        .push(ms(t.install_cpu));
                }
                out.steps
                    .entry(u.names.1)
                    .or_default()
                    .push(ms(t.publish_cpu));
                out.recompiled.extend(u.stages_recompiled.map(|r| r as f64));
            }
        }
        if let Some(s) = spans.as_deref_mut() {
            let open = s.open("layers");
            work.layers(s);
            s.close(open, 0);
        }
        round += 1;
    }
    while out.setup_s.len() < plan.setups {
        out.setup_s.push(setup());
    }
    let drains1 = gw.drains();
    out.batch_fill = (drains1.0 - drains0.0) as f64 / (drains1.1 - drains0.1).max(1) as f64;
    out.steal_ticks = sys::steal_ticks() - steal0;
    out.rounds = round;
    out.attempted = serving.attempted;
    out.failed = serving.failed;
    out.invariants = serving.invariants_hold();
    out.f1 = serving.f1();
    out
}

impl Samples {
    /// The 10th percentile of the passes' pps. Passes run at two speeds
    /// on the machine the reference figures come from, the slower one
    /// nearly always and the faster for a share of the run that changes
    /// from run to run; the low percentile stays in the slower one, so
    /// the share does not move it, while a slower program moves it in
    /// proportion.
    pub fn pps(&self) -> f64 {
        quantile(&mut self.pass_pps.clone(), PPS_QUANTILE)
    }
    /// The verdict latency: the central mean, over probe units and
    /// rounds, of the unit's fastest probe in the round. A unit's fastest probe is
    /// the one the host disturbed least, so the figure holds while host
    /// steal comes and goes.
    pub fn verdict_us(&self) -> f64 {
        central_mean(&mut self.probe_fastest_us.clone())
    }
    pub fn verdict_p50_us(&self) -> f64 {
        median(&mut self.probe_us.clone())
    }
    pub fn verdict_p99_us(&self) -> f64 {
        quantile(&mut self.probe_us.clone(), 0.99)
    }
    /// The central mean of the timed set-ups' CPU seconds.
    pub fn setup_s(&self) -> f64 {
        central_mean(&mut self.setup_s.clone())
    }
    /// The mean over update kinds of each kind's median CPU time, so that
    /// kinds of different cost (an add and a remove, two rulesets of
    /// different size) weigh the same in every run.
    pub fn update_ms(&self) -> f64 {
        let medians: Vec<f64> = self
            .updates
            .values()
            .map(|v| median(&mut v.clone()))
            .collect();
        medians.iter().sum::<f64>() / medians.len().max(1) as f64
    }
    pub fn step_ms(&self, name: &str) -> f64 {
        self.steps.get(name).map_or(0.0, |v| median(&mut v.clone()))
    }
    /// Nanoseconds per frame of the untraced and traced passes, as `pps`
    /// counts them.
    pub fn frame_ns(&self) -> (f64, f64) {
        (
            1e9 / self.pps(),
            1e9 / quantile(&mut self.traced_pps.clone(), PPS_QUANTILE),
        )
    }
}

/// Times of the named steps of a set-up, one sample per timed run.
#[derive(Default)]
pub struct Laps {
    last: Option<Duration>,
    enabled: bool,
    run: BTreeMap<&'static str, f64>,
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Laps {
    /// Starts a set-up run; a run that is not `recorded` (the warm-up)
    /// leaves no samples.
    pub fn start(&mut self, recorded: bool) {
        self.enabled = recorded;
        self.run.clear();
        self.last = Some(ThreadClock::current().now());
    }

    /// Adds the calling thread's CPU time since the previous mark to step
    /// `name`.
    pub fn mark(&mut self, name: &'static str) {
        let now = ThreadClock::current().now();
        let last = self.last.replace(now).unwrap_or(now);
        self.add(name, now - last);
    }

    /// Adds a duration the program measured itself to step `name`.
    pub fn add(&mut self, name: &'static str, d: Duration) {
        if self.enabled {
            *self.run.entry(name).or_default() += ms(d);
        }
    }

    /// Ends the run: each step's summed time becomes one sample.
    pub fn finish_run(&mut self) {
        for (name, v) in std::mem::take(&mut self.run) {
            self.samples.entry(name).or_default().push(v);
        }
    }

    /// Median milliseconds of step `name` per run; 0 when the set-up has
    /// no such step.
    pub fn median_ms(&self, name: &str) -> f64 {
        self.samples
            .get(name)
            .map_or(0.0, |v| median(&mut v.clone()))
    }
}
