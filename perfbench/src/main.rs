//! End-to-end and per-layer benchmark of p4guard's serving path:
//! train → compile → publish → gateway → verdict, on three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload learned-tree --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.

mod fleet;
mod forest;
mod harness;
mod layers;
mod learned;
mod reference;
mod serve;
mod sys;
mod trace;

use harness::median;
use p4guard_dataplane::SwitchResources;
use serve::{Laps, Samples};
use std::path::Path;
use std::process::ExitCode;
use trace::Spans;

/// A metric's name and value.
type Metric = (&'static str, f64);
/// A metric's name and unit.
type Unit = (&'static str, &'static str);

pub const WORKLOADS: [&str; 3] = ["learned-tree", "forest3-churn", "fleet4-frames"];

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [Unit; 7] = [
    ("pps", "1/s"),
    ("verdict_us", "us"),
    ("setup_s", "s"),
    ("update_ms", "ms"),
    ("ready_rss_mb", "MB"),
    ("tcam_bits", "bit"),
    ("detect_f1", "ratio"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer a workload does
/// not call reads 0.
pub const PER_LAYER: [Unit; 41] = [
    ("packet.arena_pack_ns", "ns"),
    ("gateway.flow_hash_ns", "ns"),
    ("gateway.dispatch_ns", "ns"),
    ("gateway.batch_fill", "frames"),
    ("gateway.generator_cpu_ns", "ns"),
    ("gateway.worker_cpu_ns", "ns"),
    ("gateway.worker_busy", "ratio"),
    ("gateway.worker_residual_ns", "ns"),
    ("gateway.wall_pps", "1/s"),
    ("gateway.verdict_p50_us", "us"),
    ("gateway.verdict_p99_us", "us"),
    ("fleet.classify_ns", "ns"),
    ("fleet.publish_ms", "ms"),
    ("dataplane.parse_ns", "ns"),
    ("dataplane.key_extract_ns", "ns"),
    ("dataplane.lookup_ns", "ns"),
    ("dataplane.scan_stages", "count"),
    ("dataplane.lookups_per_frame", "count"),
    ("dataplane.kernel_ns", "ns"),
    ("dataplane.residual_ns", "ns"),
    ("dataplane.minimized_entries", "count"),
    ("dataplane.sram_bits", "bit"),
    ("telemetry.sink_ns", "ns"),
    ("control.install_ms", "ms"),
    ("control.publish_ms", "ms"),
    ("control.stages_recompiled", "count"),
    ("rules.tree_fit_ms", "ms"),
    ("rules.forest_fit_ms", "ms"),
    ("rules.compile_ms", "ms"),
    ("nn.stage1_train_ms", "ms"),
    ("features.select_ms", "ms"),
    ("nn.stage2_train_ms", "ms"),
    ("core.deploy_ms", "ms"),
    ("setup.gateway_start_ms", "ms"),
    ("trace.frame_ns", "ns"),
    ("trace.untraced_frame_ns", "ns"),
    ("trace.overhead_pct", "%"),
    ("gateway.generator_residual_ns", "ns"),
    ("trace.residual_ns", "ns"),
    ("trace.spans", "count"),
    ("run.steal_ticks", "count"),
];

pub struct Params {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Serve a ruleset with one live entry removed, against the intact
    /// reference (the checker's self-test).
    pub sabotage: bool,
}

/// Everything one workload run measured.
pub struct RunResult {
    pub workload: &'static str,
    pub samples: Samples,
    pub ready_rss_mb: f64,
    pub resources: SwitchResources,
    pub scan_stages: usize,
    pub laps: Laps,
    pub spans: Option<Spans>,
    pub counts: layers::LayerCounts,
    pub served_frames: u64,
    pub describe: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.samples.failed == 0 && self.samples.invariants
    }

    fn end_to_end(&self) -> Vec<Metric> {
        let s = &self.samples;
        vec![
            ("pps", s.pps()),
            ("verdict_us", s.verdict_us()),
            ("setup_s", s.setup_s()),
            ("update_ms", s.update_ms()),
            ("ready_rss_mb", self.ready_rss_mb),
            ("tcam_bits", self.resources.tcam_bits_minimized as f64),
            ("detect_f1", s.f1),
        ]
    }

    fn per_layer(&self) -> Vec<Metric> {
        let sp = self
            .spans
            .as_ref()
            .expect("per-layer metrics come from a traced run");
        let s = &self.samples;
        // Layer passes: medians of per-batch (per-group) ns per frame.
        let parse = sp.median("dataplane.parse");
        let key = sp.median("dataplane.key_extract");
        let lookup = sp.median("dataplane.lookup");
        let kernel = sp.median("dataplane.kernel");
        let classify = sp.median("fleet.classify");
        // Serving passes: CPU of each thread per frame served.
        let served = s.pass_frames.max(1) as f64;
        let worker = s.worker_cpu_ns as f64 / served;
        let (untraced_ns, traced_ns) = s.frame_ns();
        let traced_wall_ns = 1e9 / median(&mut s.traced_wall_pps.clone());
        let pack = sp.median("packet.arena_pack");
        let dispatch = sp.median("gateway.dispatch");
        let recompiled = if s.recompiled.is_empty() {
            0.0
        } else {
            s.recompiled.iter().sum::<f64>() / s.recompiled.len() as f64
        };
        let generator = s.generator_cpu_ns as f64 / served;
        let sink = sp.median("telemetry.sink");
        // Updates issued during a pass, on its critical path beside the
        // worker.
        let updates = s.pass_update_cpu_ns as f64 / served;
        // What the named layers explain of the untraced cost per frame, on
        // the thread that bounds it.
        let explained = if worker + updates >= generator {
            parse + key + lookup + classify + sink + updates
        } else {
            pack + dispatch
        };
        vec![
            ("packet.arena_pack_ns", pack),
            ("gateway.flow_hash_ns", sp.median("gateway.flow_hash")),
            ("gateway.dispatch_ns", dispatch),
            ("gateway.batch_fill", s.batch_fill),
            ("gateway.generator_cpu_ns", generator),
            ("gateway.worker_cpu_ns", worker),
            (
                "gateway.worker_busy",
                s.worker_cpu_ns as f64 / s.pass_wall_ns.max(1) as f64,
            ),
            ("gateway.worker_residual_ns", worker - kernel - classify),
            ("gateway.wall_pps", median(&mut s.wall_pps.clone())),
            ("gateway.verdict_p50_us", s.verdict_p50_us()),
            ("gateway.verdict_p99_us", s.verdict_p99_us()),
            ("fleet.classify_ns", classify),
            ("fleet.publish_ms", s.step_ms("fleet.publish")),
            ("dataplane.parse_ns", parse),
            ("dataplane.key_extract_ns", key),
            ("dataplane.lookup_ns", lookup),
            ("dataplane.scan_stages", self.scan_stages as f64),
            (
                "dataplane.lookups_per_frame",
                self.counts.lookups_per_frame(),
            ),
            ("dataplane.kernel_ns", kernel),
            ("dataplane.residual_ns", kernel - parse - key - lookup),
            (
                "dataplane.minimized_entries",
                self.resources.tcam_entries_minimized as f64,
            ),
            ("dataplane.sram_bits", self.resources.sram_bits as f64),
            ("telemetry.sink_ns", sink),
            ("control.install_ms", s.step_ms("control.install")),
            ("control.publish_ms", s.step_ms("control.publish")),
            ("control.stages_recompiled", recompiled),
            ("rules.tree_fit_ms", self.laps.median_ms("rules.tree_fit")),
            (
                "rules.forest_fit_ms",
                self.laps.median_ms("rules.forest_fit"),
            ),
            ("rules.compile_ms", self.laps.median_ms("rules.compile")),
            ("nn.stage1_train_ms", self.laps.median_ms("nn.stage1_train")),
            ("features.select_ms", self.laps.median_ms("features.select")),
            ("nn.stage2_train_ms", self.laps.median_ms("nn.stage2_train")),
            ("core.deploy_ms", self.laps.median_ms("core.deploy")),
            (
                "setup.gateway_start_ms",
                self.laps.median_ms("gateway.start"),
            ),
            ("trace.frame_ns", traced_ns),
            ("trace.untraced_frame_ns", untraced_ns),
            (
                "trace.overhead_pct",
                (traced_ns - untraced_ns) / untraced_ns * 100.0,
            ),
            (
                "gateway.generator_residual_ns",
                traced_wall_ns - pack - dispatch,
            ),
            // Against the bounding thread's mean CPU per frame, which the
            // layer medians estimate, rather than `pps`'s low percentile.
            (
                "trace.residual_ns",
                (worker + updates).max(generator) - explained,
            ),
            ("trace.spans", sp.recorded() as f64),
            ("run.steal_ticks", s.steal_ticks as f64),
        ]
    }
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Params, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Params {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        traced: traced.ok_or("missing --trace")?,
        sabotage: false,
    })
}

pub fn run(p: &Params) -> RunResult {
    match p.workload.as_str() {
        "learned-tree" => learned::run(p),
        "forest3-churn" => forest::run(p),
        "fleet4-frames" => fleet::run(p),
        other => unreachable!("workload {other} was validated"),
    }
}

fn json_string(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// Prints the spread of a run's samples, so a noisy run shows itself.
fn print_quantiles(label: &str, values: &[f64]) {
    if values.is_empty() {
        return;
    }
    let q = |x| harness::quantile(&mut values.to_vec(), x);
    println!(
        "# {label}: p10 {:.1} p25 {:.1} p50 {:.1} p75 {:.1} p90 {:.1} over {} samples",
        q(0.1),
        q(0.25),
        q(0.5),
        q(0.75),
        q(0.9),
        values.len()
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let params = match parse_args(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let steal0 = sys::steal_ticks();
    let result = run(&params);
    let steal = sys::steal_ticks() - steal0;

    for line in &result.describe {
        println!("# {line}");
    }
    let (metrics, units): (Vec<Metric>, &[Unit]) = if params.traced {
        (result.per_layer(), &PER_LAYER)
    } else {
        (result.end_to_end(), &END_TO_END)
    };
    assert_eq!(
        metrics.iter().map(|m| m.0).collect::<Vec<_>>(),
        units.iter().map(|u| u.0).collect::<Vec<_>>(),
        "metrics follow the declared list"
    );
    for ((name, value), (_, unit)) in metrics.iter().zip(units) {
        println!("# {name:<30} {value:>16.4} {unit}");
    }
    if let Some(spans) = &result.spans {
        let path = Path::new("perfbench/out").join(format!(
            "spans-{}-seed{}.jsonl",
            result.workload, params.seed
        ));
        match spans.write(&path) {
            Ok(()) => println!(
                "# spans: {} written to {}",
                spans.recorded(),
                path.display()
            ),
            Err(e) => println!("# spans: not written to {}: {e}", path.display()),
        }
    }
    let s = &result.samples;
    print_quantiles("verdict latency (us), every probe", &s.probe_us);
    print_quantiles("pps per pass, CPU time", &s.pass_pps);
    print_quantiles("pps per pass, wall clock", &s.wall_pps);
    println!(
        "# meta {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"nproc\": {}, \"cpu_model\": {}, \"git_sha\": {}, \"steal_ticks\": {steal}, \"wall_pps\": {:.0}, \"rounds\": {}, \"attempted\": {}, \"failed\": {}, \"frames_served\": {}, \"invariants\": {}}}",
        json_string(result.workload),
        params.seed,
        u8::from(params.traced),
        sys::nproc(),
        json_string(&sys::cpu_model()),
        json_string(&sys::git_sha()),
        harness::median(&mut s.wall_pps.clone()),
        s.rounds,
        s.attempted,
        s.failed,
        result.served_frames,
        s.invariants,
    );
    let body: Vec<String> = metrics
        .iter()
        .zip(units)
        .map(|((name, value), (_, unit))| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct(),
        s.attempted,
        s.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs share the machine and find their shard worker by thread
    /// name, so the tests that serve run one at a time.
    static SERVING: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn params(workload: &str, seed: u64, sabotage: bool) -> Params {
        Params {
            workload: workload.to_owned(),
            seed,
            seconds: 0.5,
            traced: false,
            sabotage,
        }
    }

    /// The checker must count the wrong verdicts of a ruleset missing one
    /// live entry; a checker that cannot fail proves nothing.
    #[test]
    fn checker_counts_wrong_verdicts() {
        let _serial = SERVING.lock().unwrap_or_else(|e| e.into_inner());
        for w in WORKLOADS {
            let r = run(&params(w, 1, true));
            assert!(
                r.samples.failed > 0,
                "{w}: sabotaged ruleset went unnoticed"
            );
            assert!(!r.correct(), "{w}: sabotaged run reported correct");
        }
    }

    /// Every workload serves without a failed operation on two seeds.
    #[test]
    fn clean_runs_pass_their_checks() {
        let _serial = SERVING.lock().unwrap_or_else(|e| e.into_inner());
        for w in WORKLOADS {
            for seed in [1, 7] {
                let mut p = params(w, seed, false);
                p.traced = seed == 7;
                let r = run(&p);
                assert_eq!(r.samples.failed, 0, "{w} seed {seed}");
                assert!(r.correct(), "{w} seed {seed}");
                assert!(r.samples.attempted > 0);
            }
        }
    }

    /// The metric lists the program prints are the ones BENCHMARK.json
    /// declares, with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = json.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "{name} [{unit}] missing");
        }
        for w in WORKLOADS {
            assert!(
                compact.contains(&format!("{{\"name\":\"{w}\"")),
                "{w} missing"
            );
        }
        let names = compact.matches("{\"name\":").count();
        assert_eq!(names, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn bad_arguments_are_refused() {
        let args = |s: &str| s.split(' ').map(str::to_owned).collect::<Vec<_>>();
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&args(
            "--workload fleet4-frames --seed 1 --seconds 0 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&args(
            "--workload fleet4-frames --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&args("--workload fleet4-frames --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&args(
            "--workload fleet4-frames --seed 1 --seconds 1 --trace 1"
        ))
        .is_ok());
    }
}
