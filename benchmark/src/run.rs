//! One run of one workload, inside its own process: set up (several
//! times, for a steady set-up time), measure pass after pass over the
//! workload's rounds for the given number of seconds, check, report.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics, every
//! timing at the fastest of its replays (see [`crate::workloads`]). A
//! traced run (`--trace 1`) reports the per-layer metrics: it first
//! measures a quarter of the time untraced, as the reference for
//! `trace_overhead_share`, then starts again from round 0 through the
//! probes; no end-to-end number is ever taken from it.

use crate::host;
use crate::metrics::{Report, Values, END_TO_END, PER_LAYER};
use crate::stats::{fastest_replays, median, percentile, tail_percentile, LatencyHist};
use crate::trace::{layer_self_secs, root_range, total_secs, Tracer};
use crate::workloads::episodes::{EpisodeSpec, Episodes};
use crate::workloads::exp::{Exp, ExpSpec};
use crate::workloads::fleet::{Fleet, FleetSpec};
use crate::workloads::train::{TrainIter, TrainIterSpec};
use crate::workloads::{Round, Workload};
use std::time::Instant;

/// Set-ups per run; `setup_s` is the fastest. A set-up that takes
/// milliseconds is repeated until [`CHEAP_SETUP_S`] seconds have gone
/// into set-ups or [`MAX_SETUPS`] are done, so that it is as steady as
/// a set-up that takes a second.
pub const MIN_SETUPS: usize = 5;
/// See [`MIN_SETUPS`].
pub const MAX_SETUPS: usize = 25;
/// See [`MIN_SETUPS`].
pub const CHEAP_SETUP_S: f64 = 0.25;

/// Arguments of a run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Workload name (one of [`crate::metrics::WORKLOADS`]).
    pub workload: String,
    /// Base seed of every generated input.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
}

/// What a run prints: lines for people, then the result line.
pub struct RunOutput {
    /// Human-readable lines (every metric by name with its unit).
    pub lines: Vec<String>,
    /// The machine-readable report.
    pub report: Report,
}

/// Runs passes over the workload's rounds (0, 1, …, 0, 1, …) until
/// `seconds` have passed (at least `min_rounds` rounds).
fn measure<W: Workload>(
    w: &mut W,
    tr: &mut Tracer,
    vals: &mut Values,
    seconds: f64,
    min_rounds: usize,
) -> Vec<Round> {
    let pass = w.count_rounds().max(1);
    let t0 = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < min_rounds || t0.elapsed().as_secs_f64() < seconds {
        rounds.push(w.round((rounds.len() % pass) as u64, tr, vals));
    }
    rounds
}

/// Rounds whose deterministic outputs differ from those of the round
/// they replay (the same round of the first pass).
fn replays_differing(rounds: &[Round], pass: usize) -> u64 {
    rounds
        .iter()
        .enumerate()
        .skip(pass)
        .filter(|(i, r)| r.fingerprint != rounds[i % pass].fingerprint)
        .count() as u64
}

/// Set-up, measurement and report for one workload; `setup` builds it
/// (from generated inputs, at whatever size) each time it is called.
pub fn run_workload<W: Workload>(
    args: &RunArgs,
    mut setup: impl FnMut(&mut Tracer, &mut Values) -> W,
) -> RunOutput {
    let mut vals = Values::default();
    let mut tr = Tracer::new(args.trace);
    let mut off = Tracer::new(false);

    // Set-up, several times over; only the last is traced and kept.
    let mut setups = Vec::new();
    while setups.len() + 1 < MIN_SETUPS
        || (setups.len() + 1 < MAX_SETUPS && setups.iter().sum::<f64>() < CHEAP_SETUP_S)
    {
        let t0 = Instant::now();
        let discarded = setup(&mut off, &mut Values::default());
        setups.push(t0.elapsed().as_secs_f64());
        drop(discarded);
    }
    let t0 = Instant::now();
    let mut w = tr.span("bench.setup", 0, |tr| setup(tr, &mut vals));
    setups.push(t0.elapsed().as_secs_f64());
    let rss_after_setup = host::rss_mb();

    // An untraced run makes at least two passes, so that every round
    // is replayed. A traced run measures a reference untraced, then the
    // same rounds again through the probes, so each traced round has an
    // untraced twin: the pair gives the probes' overhead, and must
    // agree on every output.
    let pass = w.count_rounds().max(1);
    let (reference, rounds) = if args.trace {
        let reference = measure(&mut w, &mut off, &mut vals, args.seconds * 0.25, 2);
        let min_rounds = pass.max(reference.len());
        let rounds = tr.span("bench.measure", 0, |tr| {
            measure(&mut w, tr, &mut vals, args.seconds * 0.75, min_rounds)
        });
        (reference, rounds)
    } else {
        let rounds = measure(&mut w, &mut off, &mut vals, args.seconds, 2 * pass);
        (Vec::new(), rounds)
    };
    let peak_after_rounds = host::peak_rss_mb();
    if args.trace {
        w.layers(&mut tr, &mut vals);
    }

    // Checks: no failed operation, and replayed rounds agree.
    let attempted: u64 = reference.iter().chain(&rounds).map(|r| r.attempted).sum();
    let failed: u64 = reference
        .iter()
        .chain(&rounds)
        .map(|r| r.failed)
        .sum::<u64>()
        + replays_differing(&reference, pass)
        + replays_differing(&rounds, pass)
        + reference
            .iter()
            .zip(&rounds)
            .filter(|(a, b)| a.fingerprint != b.fingerprint)
            .count() as u64;

    // Counts and completion times over one pass: they are pure
    // functions of the seed, whatever number of passes fitted in.
    let counted = &rounds[..pass.min(rounds.len())];
    let decisions: u64 = counted.iter().map(|r| r.decisions).sum();
    let events: u64 = counted.iter().map(|r| r.events).sum();
    let jobs_completed: u64 = counted.iter().map(|r| r.jobs_completed).sum();
    let jct_n: u64 = counted.iter().map(|r| r.jct_n).sum();
    let avg_jct = counted.iter().map(|r| r.jct_sum).sum::<f64>() / (jct_n as f64).max(1.0);

    // Every round as it went, for people; and each round of the pass at
    // the fastest its calls went in any replay, for the metrics.
    let walls: Vec<f64> = rounds.iter().map(Round::wall_s).collect();
    let rates: Vec<f64> = rounds
        .iter()
        .map(|r| r.decisions as f64 / r.wall_s().max(1e-12))
        .collect();
    let fastest: Vec<f64> = (0..counted.len())
        .map(|i| fastest_replays(rounds.iter().skip(i).step_by(pass).map(|r| &r.calls[..])))
        .collect();
    let mut lines = vec![
        format!("workload {}  seed {}  trace {}", args.workload, args.seed, args.trace as u8),
        format!(
            "  rounds {} (+{} untraced twins)  attempted {attempted}  failed {failed}  failed_share {}",
            rounds.len(),
            reference.len(),
            failed as f64 / (attempted as f64).max(1.0)
        ),
        format!(
            "  exact counts over a pass of {} round(s): decisions {decisions}  events {events}  jobs_completed {jobs_completed}",
            counted.len()
        ),
        format!(
            "  set-ups: median {:.6}  fastest {:.6}  max {:.6}  n {}",
            median(&setups),
            setups.iter().copied().fold(f64::INFINITY, f64::min),
            setups.iter().copied().fold(0.0, f64::max),
            setups.len()
        ),
        format!(
            "  round wall_s: median {:.6}  min {:.6}  max {:.6}  p90 {:.6}  n {}",
            median(&walls),
            walls.iter().copied().fold(f64::INFINITY, f64::min),
            walls.iter().copied().fold(0.0, f64::max),
            percentile(&walls, 90.0),
            walls.len()
        ),
        format!(
            "  round decisions_per_s: median {:.1}  min {:.1}  max {:.1}  total/total {:.1}",
            median(&rates),
            rates.iter().copied().fold(f64::INFINITY, f64::min),
            rates.iter().copied().fold(0.0, f64::max),
            rounds.iter().map(|r| r.decisions).sum::<u64>() as f64 / walls.iter().sum::<f64>()
        ),
        format!(
            "  round wall_s at the fastest of {:.1} replays: mean {:.6}  min {:.6}  max {:.6}",
            rounds.len() as f64 / pass as f64,
            fastest.iter().sum::<f64>() / fastest.len() as f64,
            fastest.iter().copied().fold(f64::INFINITY, f64::min),
            fastest.iter().copied().fold(0.0, f64::max)
        ),
    ];
    if let Some((layer, hist)) = w.decide_hist() {
        lines.push(decide_line(layer, hist));
    }

    let mut accounted = true;
    let metrics = if args.trace {
        let ref_walls: Vec<f64> = reference.iter().map(Round::wall_s).collect();
        vals.set(
            "trace_overhead_share",
            median(&walls[..ref_walls.len()]) / median(&ref_walls) - 1.0,
        );
        vals.set("sim.decisions", decisions as f64);
        vals.set("sim.events", events as f64);
        vals.set("sim.jobs_completed", jobs_completed as f64);
        vals.set(
            "sim.rss_growth_mb",
            (peak_after_rounds - rss_after_setup).max(0.0),
        );
        vals.set("_wall_p50", median(&walls));
        vals.set("_wall_p90", percentile(&walls, 90.0));
        vals.set("_rounds", rounds.len() as f64);
        vals.set("_count_rounds", counted.len() as f64);
        // A trace that cannot say where a tenth of its own wall went, or
        // that was not written, is a failed check.
        accounted = publish_layers(&tr, w.decide_hist(), &mut vals, &mut lines)
            && write_trace(&args.workload, &tr, &mut lines);
        PER_LAYER
            .iter()
            .map(|d| (d.name, vals.get(d.name), d.unit))
            .collect()
    } else {
        let fastest_s: f64 = fastest.iter().sum();
        let e2e = [
            setups.iter().copied().fold(f64::INFINITY, f64::min),
            fastest_s / fastest.len() as f64,
            decisions as f64 / fastest_s,
            host::peak_rss_mb(),
            avg_jct,
        ];
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|(d, v)| (d.name, v, d.unit))
            .collect()
    };
    let report = Report {
        correct: failed == 0 && attempted > 0 && accounted,
        attempted,
        failed,
        metrics,
    };
    for (name, value, unit) in &report.metrics {
        lines.push(format!("  {name:<36} {value:>18.6} {unit}"));
    }
    RunOutput { lines, report }
}

fn decide_line(layer: &str, hist: &LatencyHist) -> String {
    let tail = tail_percentile(hist.len()).unwrap_or(50.0);
    format!(
        "  {layer}.decide (client stopwatch): p50 {:.3} us  p{tail} {:.3} us  n {}",
        hist.percentile_ns(50.0) * 1e-3,
        hist.percentile_ns(tail) * 1e-3,
        hist.len()
    )
}

/// Turns the spans and working sums of a traced run into the published
/// per-layer metrics; `false` when less than 90 % of the traced wall is
/// some named layer's self time.
fn publish_layers(
    tr: &Tracer,
    decide: Option<(&'static str, &LatencyHist)>,
    vals: &mut Values,
    lines: &mut Vec<String>,
) -> bool {
    let spans = tr.spans();
    let setup = root_range(spans, "bench.setup");
    let measure = root_range(spans, "bench.measure");

    // Set-up layers.
    vals.set(
        "workload.build_s",
        total_secs(spans, setup.clone(), "workload.build").0,
    );
    vals.set("sim.new_s", total_secs(spans, setup.clone(), "sim.new").0);
    vals.set(
        "policy.pack_s",
        total_secs(spans, setup.clone(), "policy.pack").0,
    );

    // Engine and scheduler, from the stopwatch.
    let decide_s = vals.get("_decide_ns") * 1e-9;
    let run_s = vals.get("_run_s");
    let engine_s = (run_s - decide_s).max(0.0);
    let (events, decisions) = (vals.get("_events"), vals.get("_decisions"));
    if run_s > 0.0 {
        vals.set("sim.engine_self_s", engine_s);
        vals.set("sim.engine_ns_per_event", engine_s * 1e9 / events.max(1.0));
        vals.set(
            "sim.engine_ns_per_decision",
            engine_s * 1e9 / decisions.max(1.0),
        );
        vals.set("sim.events_per_decision", events / decisions.max(1.0));
        vals.set(
            "sim.wasted_action_share",
            vals.ratio("_wasted", "_decisions"),
        );
        vals.set("sim.obs_jobs_mean", vals.ratio("_obs_jobs", "_obs_samples"));
        vals.set(
            "sim.obs_nodes_mean",
            vals.ratio("_obs_nodes", "_obs_samples"),
        );
        vals.set(
            "sim.obs_schedulable_mean",
            vals.ratio("_obs_schedulable", "_obs_samples"),
        );
    }
    match decide {
        Some(("baselines", hist)) => {
            vals.set("baselines.decide_s", decide_s);
            vals.set("baselines.decide_share", decide_s / run_s.max(1e-12));
            vals.set("baselines.decide_ns_p50", hist.percentile_ns(50.0));
            vals.set("baselines.decide_ns_p99", hist.percentile_ns(99.0));
        }
        Some((_, hist)) => {
            vals.set("policy.decide_s", decide_s);
            vals.set("policy.decide_share", decide_s / run_s.max(1e-12));
            vals.set("policy.decide_p50_us", hist.percentile_ns(50.0) * 1e-3);
            vals.set("policy.decide_p99_us", hist.percentile_ns(99.0) * 1e-3);
        }
        None => {}
    }

    // Training: the rebuilt iterations, per iteration.
    let rebuilt = vals.get("_rebuilt");
    if rebuilt > 0.0 {
        vals.set("rl.iter_s_p50", vals.get("_wall_p50"));
        vals.set("rl.iter_s_p90", vals.get("_wall_p90"));
        vals.set(
            "rl.rollout_decide_share",
            vals.get("_rollout_decide_ns") * 1e-9 / vals.get("rl.rollout_s").max(1e-12),
        );
        for key in [
            "rl.rollout_s",
            "rl.baseline_s",
            "rl.gradient_s",
            "nn.merge_grads_s",
            "nn.adam_step_s",
        ] {
            vals.set(key, vals.get(key) / rebuilt);
        }
        let serial = vals.get("rl.rollout_s") + vals.get("rl.gradient_s");
        let lanes = host::nproc().min(8) as f64;
        vals.set(
            "rl.parallel_efficiency",
            serial / (vals.get("rl.iter_s_p50") * lanes).max(1e-12),
        );
        vals.set(
            "rl.decisions_per_iter",
            vals.ratio("sim.decisions", "_count_rounds"),
        );
    }

    // The fleet driver: per round.
    let rounds = vals.get("_rounds").max(1.0);
    for (metric, span) in [
        ("bench.fleet.route_s", "bench.fleet.route"),
        ("bench.fleet.pool_run_s", "bench.fleet.pool_run"),
        ("bench.fleet.aggregate_s", "bench.fleet.aggregate"),
    ] {
        vals.set(metric, total_secs(spans, measure.clone(), span).0 / rounds);
    }
    let pool_s = vals.get("bench.fleet.pool_run_s");
    if pool_s > 0.0 {
        vals.set(
            "bench.fleet.parallel_efficiency",
            vals.get("bench.fleet.shard_serial_s_sum") / (vals.get("_pool_workers") * pool_s),
        );
    }

    // The experiment runner: per round.
    let runs = vals.get("_scenario_runs");
    if runs > 0.0 {
        for key in [
            "bench.runner.scenario_s.fig09a",
            "bench.runner.scenario_s.fleet",
            "bench.runner.scenario_s.drift",
        ] {
            vals.set(key, vals.get(key) / runs);
        }
    }

    // Accounting: how much of the traced wall has a layer's name on it.
    let own = layer_self_secs(spans, measure.clone());
    let wall = spans
        .get(measure.start)
        .map_or(0.0, |s| s.len_ns() as f64 * 1e-9);
    let unattributed = own.get("bench.measure").copied().unwrap_or(0.0) / wall.max(1e-12);
    vals.set("unattributed_share", unattributed);
    lines.push(format!("  traced wall {wall:.3} s, self time by layer:"));
    for (name, secs) in &own {
        lines.push(format!(
            "    {name:<34} {secs:>10.4} s  {:>6.2} %",
            100.0 * secs / wall.max(1e-12)
        ));
    }
    if unattributed > 0.10 {
        lines.push(format!(
            "  FAILED: {:.1} % of the traced wall is unattributed (limit 10 %)",
            unattributed * 100.0
        ));
    }
    unattributed <= 0.10
}

/// Writes the span file; `false` when it could not be written.
fn write_trace(workload: &str, tr: &Tracer, lines: &mut Vec<String>) -> bool {
    let dir = host::out_dir();
    let path = dir.join(format!("{workload}.trace.json"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.to_json())) {
        Ok(()) => {
            lines.push(format!(
                "  [trace] {} ({} spans)",
                path.display(),
                tr.spans().len()
            ));
            true
        }
        Err(e) => {
            lines.push(format!("  FAILED: could not write {}: {e}", path.display()));
            false
        }
    }
}

/// Runs `args.workload`; `Err` names an unknown workload.
pub fn run(args: &RunArgs) -> Result<RunOutput, String> {
    let seed = args.seed;
    let episodes = |spec: EpisodeSpec| {
        run_workload(args, move |tr, vals| {
            Episodes::setup(spec.clone(), seed, tr, vals)
        })
    };
    Ok(match args.workload.as_str() {
        "sim_batch_large" => episodes(EpisodeSpec::sim_batch_large()),
        "sim_stream_long" => episodes(EpisodeSpec::sim_stream_long()),
        "serve_f32_steady" => episodes(EpisodeSpec::serve_f32_steady()),
        "serve_f32_backlog" => episodes(EpisodeSpec::serve_f32_backlog()),
        "fleet_f32" => run_workload(args, |tr, vals| {
            Fleet::setup(FleetSpec::fleet_f32(), seed, tr, vals)
        }),
        "train_iter" => run_workload(args, |tr, vals| {
            TrainIter::setup(TrainIterSpec::train_iter(), seed, tr, vals)
        }),
        "exp_e2e" => run_workload(args, |tr, vals| {
            Exp::setup(ExpSpec::exp_e2e(), seed, &host::out_dir(), tr, vals)
        }),
        other => return Err(format!("unknown workload '{other}'")),
    })
}
