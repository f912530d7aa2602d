//! The names the benchmark emits — workloads, end-to-end metrics and
//! per-layer metrics — and the report a run prints.
//!
//! `../BENCHMARK.json` lists the same names; `tests/names.rs` holds the
//! two in step.

use std::collections::BTreeMap;

/// The seven workloads, in the order a full run executes them.
pub const WORKLOADS: [&str; 7] = [
    "sim_batch_large",
    "sim_stream_long",
    "serve_f32_steady",
    "serve_f32_backlog",
    "fleet_f32",
    "train_iter",
    "exp_e2e",
];

/// A metric's name and unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics: measured with tracing off, on every workload.
pub const END_TO_END: [MetricDef; 5] = [
    m("setup_s", "s"),
    m("wall_s", "s"),
    m("decisions_per_s", "1/s"),
    m("peak_rss_mb", "MB"),
    m("avg_jct_sim_s", "s"),
];

/// Per-layer metrics: taken in the traced run. A layer a workload does
/// not exercise reads 0 there.
pub const PER_LAYER: [MetricDef; 74] = [
    // Set-up.
    m("workload.build_s", "s"),
    m("workload.jobs", "count"),
    m("sim.new_s", "s"),
    m("policy.pack_s", "s"),
    m("nn.pack_s", "s"),
    m("bench.fleet.agent_build_s", "s"),
    // Exact counts of one pass.
    m("sim.decisions", "count"),
    m("sim.events", "count"),
    m("sim.jobs_completed", "count"),
    // The engine.
    m("sim.engine_self_s", "s"),
    m("sim.engine_ns_per_event", "ns"),
    m("sim.engine_ns_per_decision", "ns"),
    m("sim.events_per_decision", "ratio"),
    m("sim.obs_jobs_mean", "count"),
    m("sim.obs_nodes_mean", "count"),
    m("sim.obs_schedulable_mean", "count"),
    m("sim.live_jobs_peak", "count"),
    m("sim.slots_hwm", "count"),
    m("sim.retired_jobs", "count"),
    m("sim.event_queue_hwm", "count"),
    m("sim.rss_growth_mb", "MB"),
    m("sim.wasted_action_share", "ratio"),
    // Heuristic schedulers.
    m("baselines.decide_s", "s"),
    m("baselines.decide_ns_p50", "ns"),
    m("baselines.decide_ns_p99", "ns"),
    m("baselines.decide_share", "ratio"),
    // The policy's decision, as the engine thread sees it.
    m("policy.decide_s", "s"),
    m("policy.decide_share", "ratio"),
    m("policy.decide_p50_us", "us"),
    m("policy.decide_p99_us", "us"),
    m("policy.candidates_mean", "count"),
    m("policy.limit_values_mean", "count"),
    // Inside a policy decision (sampled observations, re-scored).
    m("gnn.features_us", "us"),
    m("gnn.structure_build_us", "us"),
    m("gnn.structure_rebuild_share", "ratio"),
    m("gnn.infer_forward_us", "us"),
    m("gnn.infer_ns_per_node", "ns"),
    m("gnn.nodes_mean", "count"),
    m("gnn.levels_mean", "count"),
    m("policy.heads_us", "us"),
    m("nn.f32_mlp_us", "us"),
    // Training.
    m("rl.iter_s_p50", "s"),
    m("rl.iter_s_p90", "s"),
    m("rl.rollout_s", "s"),
    m("rl.rollout_decide_share", "ratio"),
    m("rl.baseline_s", "s"),
    m("rl.gradient_s", "s"),
    m("nn.merge_grads_s", "s"),
    m("nn.adam_step_s", "s"),
    m("rl.decisions_per_iter", "count"),
    m("gnn.tape_forward_us", "us"),
    m("policy.forward_nodes_us", "us"),
    m("policy.forward_limits_us", "us"),
    m("policy.replay_write_us", "us"),
    m("rl.parallel_efficiency", "ratio"),
    // The fleet driver.
    m("bench.fleet.route_s", "s"),
    m("bench.fleet.pool_run_s", "s"),
    m("bench.fleet.aggregate_s", "s"),
    m("bench.fleet.shard_serial_s_sum", "s"),
    m("bench.fleet.shard_serial_s_max", "s"),
    m("bench.fleet.imbalance", "ratio"),
    m("bench.fleet.parallel_efficiency", "ratio"),
    // The experiment runner.
    m("bench.runner.scenario_s.fig09a", "s"),
    m("bench.runner.scenario_s.fleet", "s"),
    m("bench.runner.scenario_s.drift", "s"),
    m("bench.runner.train_s", "s"),
    m("bench.runner.eval_s", "s"),
    m("bench.report.render_s", "s"),
    m("bench.json.parse_s", "s"),
    m("rl.checkpoint_save_s", "s"),
    m("rl.checkpoint_load_s", "s"),
    m("rl.checkpoint_bytes", "count"),
    // Trace accounting.
    m("unattributed_share", "ratio"),
    m("trace_overhead_share", "ratio"),
];

/// Named values a run accumulates: raw sums under working keys while
/// it measures, published per-layer metrics at the end.
#[derive(Default, Debug)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Adds `v` to `key` (starting from 0).
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.0.entry(key).or_insert(0.0) += v;
    }

    /// Raises `key` to at least `v`.
    pub fn max(&mut self, key: &'static str, v: f64) {
        let slot = self.0.entry(key).or_insert(v);
        *slot = slot.max(v);
    }

    /// Sets `key`.
    pub fn set(&mut self, key: &'static str, v: f64) {
        self.0.insert(key, v);
    }

    /// The value of `key`, 0 when never written.
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// `num / den`, 0 when the denominator is 0.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.get(den);
        if d > 0.0 {
            self.get(num) / d
        } else {
            0.0
        }
    }
}

/// What one run of one workload reports.
#[derive(Debug)]
pub struct Report {
    /// Every operation's output passed its checks.
    pub correct: bool,
    /// Operations attempted (episodes, shard episodes, iterations,
    /// scenarios).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// `(name, value, unit)`, in catalog order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// The contract's result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
