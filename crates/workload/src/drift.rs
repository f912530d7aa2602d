//! Non-stationary workload drift.
//!
//! Decima's evaluation draws every episode from one fixed distribution,
//! but the deployments that motivate the paper see diurnal load cycles,
//! workload-mix shifts, and flash crowds. [`DriftSpec`] describes those
//! regimes declaratively; [`WorkloadSpec::build_drifting`] materializes
//! them deterministically.
//!
//! Determinism contract:
//!
//! * **Drift off is free.** `build_drifting(&DriftSpec::off(), seed)`
//!   delegates to [`WorkloadSpec::build`] and is bit-identical to it —
//!   no RNG draw, no reordering, nothing.
//! * **Drift is decorrelated.** Drifting builds draw from a dedicated
//!   `SmallRng` seeded with `seed ^ DRIFT_SEED_SALT`, so enabling drift
//!   never perturbs any other seeded stream.
//! * **Rate profiles use Lewis–Shedler thinning.** Ramp, diurnal, and
//!   flash-crowd arrivals come from a non-homogeneous Poisson process
//!   sampled by thinning against the profile's peak rate, which keeps
//!   the construction exact (no time discretization) and a pure
//!   function of `(spec, seed)`.

use crate::alibaba::{alibaba_job, AlibabaConfig};
use crate::arrivals::{generate, tpch_body, ArrivalProcess};
use crate::spec::{WorkloadSource, WorkloadSpec};
use decima_core::{ClusterSpec, JobSpec, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Salt XORed into the workload seed before seeding the drift RNG, so a
/// drifting build never consumes draws from (or reuses draws of) the
/// stationary generators.
pub const DRIFT_SEED_SALT: u64 = 0xd21f_7a5e_0b5c_u64 ^ 0x9e37_79b9_7f4a_7c15;

/// One non-stationary workload regime. All parameters are in seconds
/// (times, periods, interarrival times) except the dimensionless
/// `amplitude` and `burst_factor`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DriftProfile {
    /// Stationary — the spec's own arrival process, untouched.
    Off,
    /// Arrival rate ramps linearly from `1/start_iat` to `1/end_iat`
    /// over `ramp_secs`, then holds.
    Ramp {
        /// Mean interarrival time at `t = 0`.
        start_iat: f64,
        /// Mean interarrival time at `t ≥ ramp_secs`.
        end_iat: f64,
        /// Ramp duration.
        ramp_secs: f64,
    },
    /// Sinusoidal day/night cycle: `rate(t) = (1 + amplitude ·
    /// sin(2πt/period)) / base_iat`.
    Diurnal {
        /// Mean interarrival time of the cycle's midline.
        base_iat: f64,
        /// Relative swing in `[0, 1)`.
        amplitude: f64,
        /// Cycle length.
        period: f64,
    },
    /// Mid-episode workload-mix shift: jobs arriving before `shift_at`
    /// are TPC-H, jobs at or after it are Alibaba-like (the paper's
    /// §7.2 → §7.3 handoff inside one episode).
    MixShift {
        /// Time of the mix boundary.
        shift_at: f64,
    },
    /// Flash crowd: `burst_factor ×` the base rate inside
    /// `[burst_at, burst_at + burst_secs)`, the base rate elsewhere.
    FlashCrowd {
        /// Mean interarrival time outside the burst.
        base_iat: f64,
        /// Burst start.
        burst_at: f64,
        /// Burst duration.
        burst_secs: f64,
        /// Rate multiplier inside the burst.
        burst_factor: f64,
    },
}

/// Serializable drift description carried by experiment specs. The
/// default is [`DriftSpec::off`], under which every build path is
/// bit-identical to the stationary engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DriftSpec {
    /// The drift regime episodes run under.
    pub profile: DriftProfile,
}

impl Default for DriftSpec {
    fn default() -> Self {
        DriftSpec::off()
    }
}

/// Named preset profiles, in the order the `drift` scenario sweeps them.
pub const DRIFT_PROFILE_NAMES: [&str; 4] = ["ramp", "diurnal", "mixshift", "flash"];

impl DriftSpec {
    /// Stationary (no drift).
    pub fn off() -> Self {
        DriftSpec {
            profile: DriftProfile::Off,
        }
    }

    /// Whether any drift is active.
    pub fn enabled(&self) -> bool {
        self.profile != DriftProfile::Off
    }

    /// The named preset profiles: `off`, `ramp` (load climbs 40 s →
    /// 12 s IAT over 600 s), `diurnal` (25 s IAT midline, ±60% over a
    /// 500 s cycle), `mixshift` (TPC-H → Alibaba at 300 s), and `flash`
    /// (4× burst for 120 s starting at 200 s).
    pub fn preset(name: &str) -> Option<Self> {
        let profile = match name {
            "off" => DriftProfile::Off,
            "ramp" => DriftProfile::Ramp {
                start_iat: 40.0,
                end_iat: 12.0,
                ramp_secs: 600.0,
            },
            "diurnal" => DriftProfile::Diurnal {
                base_iat: 25.0,
                amplitude: 0.6,
                period: 500.0,
            },
            "mixshift" => DriftProfile::MixShift { shift_at: 300.0 },
            "flash" => DriftProfile::FlashCrowd {
                base_iat: 30.0,
                burst_at: 200.0,
                burst_secs: 120.0,
                burst_factor: 4.0,
            },
            _ => return None,
        };
        Some(DriftSpec { profile })
    }

    /// The preset's name, when the spec matches one shape (used for CSV
    /// labels; parameter values are not required to match the preset).
    pub fn profile_name(&self) -> &'static str {
        match self.profile {
            DriftProfile::Off => "off",
            DriftProfile::Ramp { .. } => "ramp",
            DriftProfile::Diurnal { .. } => "diurnal",
            DriftProfile::MixShift { .. } => "mixshift",
            DriftProfile::FlashCrowd { .. } => "flash",
        }
    }

    /// Phase boundaries (strictly increasing times) the simulator turns
    /// into `PhaseBoundary` events; `k` boundaries split an episode into
    /// `k + 1` phases for per-phase accounting. Empty when drift is off.
    pub fn phase_boundaries(&self) -> Vec<f64> {
        match self.profile {
            DriftProfile::Off => Vec::new(),
            DriftProfile::Ramp { ramp_secs, .. } => vec![ramp_secs * 0.5, ramp_secs],
            DriftProfile::Diurnal { period, .. } => {
                vec![period * 0.5, period, period * 1.5, period * 2.0]
            }
            DriftProfile::MixShift { shift_at } => vec![shift_at],
            DriftProfile::FlashCrowd {
                burst_at,
                burst_secs,
                ..
            } => vec![burst_at, burst_at + burst_secs],
        }
    }

    /// Instantaneous arrival rate λ(t) in jobs/second, for the
    /// rate-modulated profiles (0 for `Off` and `MixShift`, which keep
    /// the spec's own arrival process).
    pub fn rate(&self, t: f64) -> f64 {
        match self.profile {
            DriftProfile::Off | DriftProfile::MixShift { .. } => 0.0,
            DriftProfile::Ramp {
                start_iat,
                end_iat,
                ramp_secs,
            } => {
                let frac = (t / ramp_secs.max(1e-9)).clamp(0.0, 1.0);
                let iat = start_iat + (end_iat - start_iat) * frac;
                1.0 / iat.max(1e-9)
            }
            DriftProfile::Diurnal {
                base_iat,
                amplitude,
                period,
            } => {
                let phase = std::f64::consts::TAU * t / period.max(1e-9);
                (1.0 + amplitude * phase.sin()).max(0.0) / base_iat.max(1e-9)
            }
            DriftProfile::FlashCrowd {
                base_iat,
                burst_at,
                burst_secs,
                burst_factor,
            } => {
                let factor = if t >= burst_at && t < burst_at + burst_secs {
                    burst_factor
                } else {
                    1.0
                };
                factor / base_iat.max(1e-9)
            }
        }
    }

    /// Upper bound on λ(t) over all t — the thinning envelope.
    pub fn rate_max(&self) -> f64 {
        match self.profile {
            DriftProfile::Off | DriftProfile::MixShift { .. } => 0.0,
            DriftProfile::Ramp {
                start_iat, end_iat, ..
            } => 1.0 / start_iat.min(end_iat).max(1e-9),
            DriftProfile::Diurnal {
                base_iat,
                amplitude,
                ..
            } => (1.0 + amplitude.abs()) / base_iat.max(1e-9),
            DriftProfile::FlashCrowd {
                base_iat,
                burst_factor,
                ..
            } => burst_factor.max(1.0) / base_iat.max(1e-9),
        }
    }

    /// Samples `n` arrival times of the non-homogeneous Poisson process
    /// λ(t) by Lewis–Shedler thinning: propose from the homogeneous
    /// envelope `rate_max()`, accept each proposal with probability
    /// `λ(t)/λ_max`. Exact (no time grid) and deterministic in `rng`.
    pub fn thinned_arrivals(&self, n: usize, rng: &mut impl Rng) -> Vec<SimTime> {
        let lam_max = self.rate_max();
        assert!(
            lam_max > 0.0,
            "thinned_arrivals requires a rate-modulated profile"
        );
        let mut t = 0.0;
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let u: f64 = rng.gen();
            t += -(1.0 - u).max(1e-12).ln() / lam_max;
            if rng.gen::<f64>() * lam_max <= self.rate(t) {
                out.push(SimTime::from_secs(t));
            }
        }
        out
    }
}

impl WorkloadSpec {
    /// [`WorkloadSpec::build`] under a drift regime. With drift off this
    /// *is* `build(seed)` — same code path, bit-identical output. With a
    /// rate profile (`ramp`/`diurnal`/`flash`) the arrival times are
    /// resampled from the non-homogeneous process and the job bodies are
    /// redrawn from the drift RNG; with `mixshift` the job family flips
    /// from TPC-H to Alibaba at the boundary. Only plain TPC-H Poisson
    /// streams and Alibaba streams drift. Every other source falls back
    /// to the stationary build: TPC-H batches, TPC-H streams with
    /// `random_memory`, mixed-IAT streams, single queries, the 22-query
    /// suite and the appendix DAG.
    pub fn build_drifting(&self, drift: &DriftSpec, seed: u64) -> (ClusterSpec, Vec<JobSpec>) {
        if !drift.enabled() {
            return self.build(seed);
        }
        let (num_jobs, mean_iat, task_scale) = match &self.source {
            WorkloadSource::Tpch {
                num_jobs,
                arrivals: ArrivalProcess::Poisson { mean_iat },
                task_scale,
                random_memory: false,
            } => (*num_jobs, *mean_iat, *task_scale),
            WorkloadSource::Alibaba {
                num_jobs, mean_iat, ..
            } => (*num_jobs, *mean_iat, 8.0),
            _ => return self.build(seed),
        };
        let mut rng = SmallRng::seed_from_u64(seed ^ DRIFT_SEED_SALT);
        let mut tpch = tpch_body(task_scale);
        let jobs = match (drift.profile, &self.source) {
            // The spec's own (stationary) arrival process; only the job
            // family changes at the boundary.
            (DriftProfile::MixShift { shift_at }, _) => {
                let times = ArrivalProcess::Poisson { mean_iat }.sample(num_jobs, &mut rng);
                let small = AlibabaConfig::small();
                generate(times, &mut rng, |id, t, rng| {
                    if t.as_secs() < shift_at {
                        tpch(id, t, rng)
                    } else {
                        alibaba_job(&small, id, t, rng)
                    }
                })
            }
            // Rate-modulated profiles: thinned arrivals, then the
            // source's own bodies.
            (_, WorkloadSource::Alibaba { gen, .. }) => {
                let times = drift.thinned_arrivals(num_jobs, &mut rng);
                generate(times, &mut rng, |id, t, rng| alibaba_job(gen, id, t, rng))
            }
            _ => {
                let times = drift.thinned_arrivals(num_jobs, &mut rng);
                generate(times, &mut rng, tpch)
            }
        };
        (self.cluster(), jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_spec() -> WorkloadSpec {
        WorkloadSpec::tpch_stream(40, 10, 25.0)
    }

    #[test]
    fn off_build_is_bit_identical() {
        let spec = stream_spec();
        let (c0, j0) = spec.build(7);
        let (c1, j1) = spec.build_drifting(&DriftSpec::off(), 7);
        assert_eq!(c0, c1);
        assert_eq!(j0, j1);
    }

    #[test]
    fn drifting_build_is_deterministic() {
        let spec = stream_spec();
        for name in DRIFT_PROFILE_NAMES {
            let drift = DriftSpec::preset(name).unwrap();
            let (c0, j0) = spec.build_drifting(&drift, 3);
            let (c1, j1) = spec.build_drifting(&drift, 3);
            assert_eq!(c0, c1, "{name}");
            assert_eq!(j0, j1, "{name}");
            assert_eq!(j0.len(), spec.num_jobs(), "{name}");
        }
    }

    #[test]
    fn drift_rng_is_decorrelated_from_stationary() {
        let spec = stream_spec();
        let (_, stationary) = spec.build(3);
        let (_, drifted) = spec.build_drifting(&DriftSpec::preset("diurnal").unwrap(), 3);
        assert_ne!(stationary, drifted);
    }

    #[test]
    fn ramp_compresses_late_interarrivals() {
        let drift = DriftSpec::preset("ramp").unwrap();
        let mut rng = SmallRng::seed_from_u64(11);
        let times = drift.thinned_arrivals(400, &mut rng);
        let secs: Vec<f64> = times.iter().map(|t| t.as_secs()).collect();
        let mid = secs.len() / 2;
        let early = secs[mid] / mid as f64;
        let late = (secs[secs.len() - 1] - secs[mid]) / (secs.len() - 1 - mid) as f64;
        assert!(
            late < early,
            "late mean IAT {late:.2} should beat early {early:.2}"
        );
        for w in secs.windows(2) {
            assert!(w[1] >= w[0], "arrivals sorted");
        }
    }

    #[test]
    fn flash_burst_concentrates_arrivals() {
        let drift = DriftSpec::preset("flash").unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let times = drift.thinned_arrivals(600, &mut rng);
        let in_burst = times
            .iter()
            .filter(|t| t.as_secs() >= 200.0 && t.as_secs() < 320.0)
            .count() as f64;
        let before = times.iter().filter(|t| t.as_secs() < 120.0).count() as f64;
        // 4× rate over an equal-length window ⇒ clearly denser.
        assert!(
            in_burst > 2.0 * before.max(1.0),
            "burst {in_burst} vs pre-burst {before}"
        );
    }

    #[test]
    fn mixshift_flips_job_family_at_boundary() {
        let spec = stream_spec();
        let (_, jobs) = spec.build_drifting(&DriftSpec::preset("mixshift").unwrap(), 9);
        let (mut tpch, mut ali) = (0, 0);
        for j in &jobs {
            // Alibaba jobs always carry memory demands; plain TPC-H
            // jobs never do.
            let has_mem = j.stages.iter().any(|s| s.mem_demand > 0.0);
            if j.arrival.as_secs() < 300.0 {
                assert!(!has_mem, "pre-shift job {:?} should be TPC-H", j.id);
                tpch += 1;
            } else {
                assert!(has_mem, "post-shift job {:?} should be Alibaba", j.id);
                ali += 1;
            }
        }
        assert!(
            tpch > 0 && ali > 0,
            "shift straddled: {tpch} tpch, {ali} ali"
        );
        assert_eq!(tpch + ali, spec.num_jobs());
    }

    #[test]
    fn presets_and_names_round_trip() {
        assert!(!DriftSpec::preset("off").unwrap().enabled());
        assert!(DriftSpec::preset("nope").is_none());
        for name in DRIFT_PROFILE_NAMES {
            let d = DriftSpec::preset(name).unwrap();
            assert!(d.enabled(), "{name}");
            assert_eq!(d.profile_name(), name);
            assert!(!d.phase_boundaries().is_empty(), "{name}");
            let b = d.phase_boundaries();
            for w in b.windows(2) {
                assert!(w[1] > w[0], "{name} boundaries increase");
            }
        }
    }

    #[test]
    fn diurnal_rate_oscillates_within_envelope() {
        let d = DriftSpec::preset("diurnal").unwrap();
        let lam_max = d.rate_max();
        let mut lo = f64::INFINITY;
        let mut hi = 0.0_f64;
        for i in 0..500 {
            let r = d.rate(i as f64);
            assert!(r <= lam_max + 1e-12);
            lo = lo.min(r);
            hi = hi.max(r);
        }
        assert!(hi > 1.5 * lo, "oscillation visible: {lo:.4}..{hi:.4}");
    }

    #[test]
    fn unsupported_sources_fall_back_to_stationary() {
        // Every source but a plain TPC-H Poisson stream and an Alibaba
        // stream, under every preset.
        let mut memory = stream_spec();
        if let WorkloadSource::Tpch { random_memory, .. } = &mut memory.source {
            *random_memory = true;
        }
        let spec = |source| WorkloadSpec {
            source,
            executors: 8,
            move_delay: 1.0,
        };
        let fallbacks = [
            WorkloadSpec::tpch_batch(5, 8),
            memory,
            spec(WorkloadSource::TpchMixedIat {
                num_jobs: 5,
                lo_iat: 10.0,
                hi_iat: 40.0,
                task_scale: 8.0,
            }),
            spec(WorkloadSource::SingleTpch {
                query: 3,
                gb: 10.0,
                task_scale: 8.0,
            }),
            spec(WorkloadSource::TpchSuite {
                gb: 2.0,
                task_scale: 8.0,
            }),
            WorkloadSpec::appendix_dag(),
        ];
        for spec in &fallbacks {
            for name in DRIFT_PROFILE_NAMES {
                let drift = DriftSpec::preset(name).unwrap();
                assert_eq!(
                    spec.build_drifting(&drift, 2),
                    spec.build(2),
                    "{name} on {:?}",
                    spec.source
                );
            }
        }
        // The two sources that drift do move.
        for spec in [stream_spec(), WorkloadSpec::alibaba_small(5, 8, 20.0)] {
            for name in DRIFT_PROFILE_NAMES {
                let drift = DriftSpec::preset(name).unwrap();
                assert_ne!(spec.build_drifting(&drift, 2), spec.build(2), "{name}");
            }
        }
    }
}
