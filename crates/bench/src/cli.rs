//! Command-line entry point: the unified `decima-exp` runner.
//!
//! ```text
//! decima-exp --list
//! decima-exp --scenario fig09a
//! decima-exp --scenario fig09a --set execs=30 --seeds 0..40 --threads 8 --json
//! ```

use crate::registry::ScenarioRegistry;
use crate::runner::{run_scenario, run_training, RunOptions, Scenario, TrainOptions};
use crate::scenario::{in_range, settable_keys, COUNT, POSITIVE};
use crate::Args;
use decima_sim::DynamicsSpec;

/// Scenario-mode flags that take a value.
const SCENARIO_VALUED: &[&str] = &["scenario", "set", "seeds", "threads"];
/// Scenario-mode flags that stand alone.
const SCENARIO_BARE: &[&str] = &["json"];

/// `--train` flags that take a value, beside one per
/// [`DynamicsSpec::KNOBS`] key.
const TRAIN_VALUED: &[&str] = &[
    "recipe",
    "iters",
    "jobs",
    "execs",
    "iat",
    "seed",
    "checkpoint-dir",
    "checkpoint-every",
    "train-log",
];
/// `--train` flags that stand alone.
const TRAIN_BARE: &[&str] = &["train", "resume"];

/// A mode accepts exactly its documented flags; a misspelt one must
/// not silently run the default configuration.
fn check_flags(
    args: &Args,
    valued: &[&str],
    bare: &[&str],
    hint: impl Fn(&str) -> String,
) -> Result<(), String> {
    match args.first_unknown(valued, bare) {
        None => Ok(()),
        Some(arg) => Err(match arg.strip_prefix("--") {
            Some(key) => format!("unknown flag '{arg}' ({})", hint(key)),
            None => format!("unexpected argument '{arg}'"),
        }),
    }
}

fn check_scenario_flags(args: &Args) -> Result<(), String> {
    check_flags(args, SCENARIO_VALUED, SCENARIO_BARE, |key| {
        format!("did you mean --set {key}=…?")
    })
}

/// `--train` mode: exactly its documented flags, every numeric value
/// must parse and lie in its accepted range — a typo must not silently
/// train the defaults, nor an empty cluster train on `jct NaN`.
fn train_options(args: &Args) -> Result<TrainOptions, String> {
    let knobs = DynamicsSpec::KNOBS.iter().map(|k| k.key);
    let valued: Vec<&str> = TRAIN_VALUED.iter().copied().chain(knobs).collect();
    check_flags(args, &valued, TRAIN_BARE, |_| {
        "not a --train flag, see --help".to_string()
    })?;
    let d = TrainOptions::default();
    let mut opts = TrainOptions {
        recipe: args.value("recipe").unwrap_or("standard").to_string(),
        iters: args.parsed("iters")?.unwrap_or(d.iters),
        jobs: args.parsed("jobs")?.unwrap_or(d.jobs),
        execs: args.parsed("execs")?.unwrap_or(d.execs),
        iat: args.parsed("iat")?,
        seed: args.parsed("seed")?.unwrap_or(d.seed),
        checkpoint_dir: args
            .value("checkpoint-dir")
            .map_or(d.checkpoint_dir, std::path::PathBuf::from),
        checkpoint_every: args
            .parsed("checkpoint-every")?
            .unwrap_or(d.checkpoint_every),
        resume: args.has("resume"),
        log_path: args.value("train-log").map(std::path::PathBuf::from),
        dynamics: d.dynamics,
    };
    in_range("--jobs", opts.jobs as f64, COUNT)?;
    in_range("--execs", opts.execs as f64, COUNT)?;
    let most = decima_rl::checkpoint::MAX_COUNT;
    if opts.execs > most {
        // The run's checkpoint has to load again.
        return Err(format!(
            "--execs must be at most {most}, got {}",
            opts.execs
        ));
    }
    if let Some(iat) = opts.iat {
        in_range("--iat", iat, POSITIVE)?;
    }
    for knob in &DynamicsSpec::KNOBS {
        if let Some(v) = args.parsed(knob.key)? {
            knob.set(&mut opts.dynamics, v)?;
        }
    }
    Ok(opts)
}

/// The `--help` text: the flags, then one line per settable key from
/// the same rows docs/ARCHITECTURE.md tabulates.
fn usage() -> String {
    let keys: Vec<String> = settable_keys()
        .iter()
        .map(|[key, on, accepts, doc]| format!("  {key:<17} {on}: {doc} ({accepts})\n"))
        .collect();
    format!(
        "decima-exp — unified experiment runner for the Decima reproduction

USAGE:
  decima-exp --list
  decima-exp --scenario <name> [--set key=value]... [--seeds a..b]
             [--threads N] [--json]
  decima-exp --train [--recipe standard|stream|tuned] [--iters N]
             [--jobs J] [--execs E] [--iat S] [--seed K]
             [--checkpoint-dir DIR] [--checkpoint-every N]
             [--resume] [--train-log PATH] [--<dynamics key> V]...

FLAGS:
  --list            list registered scenarios and exit
  --scenario NAME   which scenario to run (see --list)
  --set KEY=VALUE   override a spec field or parameter (repeatable)
  --seeds A..B      evaluation seed range (or a bare count)
  --threads N       worker threads (default: available parallelism)
  --json            also print the structured JSON result to stdout
  --train           run a standalone checkpointed training run
  --recipe NAME     training recipe: standard | stream | tuned
  --checkpoint-dir DIR   where checkpoint.txt lives (out/checkpoints)
  --checkpoint-every N   checkpoint cadence in iterations (10)
  --resume          continue bit-exactly from DIR/checkpoint.txt
                    (refuses mismatched --jobs/--execs/--iat)
  --train-log PATH  JSONL log path (out/train_<recipe>.jsonl)

KEYS for --set (a value outside what its key accepts, or a key the
scenario does not take, is exit 2 before anything runs):
{}  plus each scenario's own parameters: the \"params\" of its spec echo
  (out/<scenario>.json), each held to the kind of its default.
  Cluster dynamics (docs/ROBUSTNESS.md): the 'every scenario' keys from
  churn on are also --train flags (--churn 240 --fail 0.05), to train a
  policy under perturbation; --jobs, --execs at least 1, --iat > 0.

Results: terminal report, out/<scenario>.csv, out/<scenario>.json;
training: DIR/checkpoint.txt + one JSONL record per iteration.
Throughput and memory are measured by the repo benchmark
  (benchmark/README.md, BENCHMARK.json), not by this binary.
",
        keys.concat()
    )
}

fn list(reg: &ScenarioRegistry) {
    println!("{} registered scenarios:\n", reg.len());
    println!("{:<10} {:<22} title", "name", "paper");
    for sc in reg.iter() {
        println!(
            "{:<10} {:<22} {}",
            sc.spec.name, sc.spec.paper_ref, sc.spec.title
        );
    }
    println!("\nRun one with: decima-exp --scenario <name>");
}

/// Applies CLI arguments (`--set k=v` overrides, `--seeds`,
/// `--threads`, `--json`) to a scenario fetched from the registry,
/// returning the run options alongside.
fn configure(sc: &Scenario, args: &Args) -> Result<(Scenario, RunOptions), String> {
    let mut sc = sc.clone();
    for (key, value) in args.sets()? {
        sc.spec.set(&key, &value)?;
    }
    if let Some(range) = args.value("seeds") {
        sc.spec.seeds = sc.spec.seeds.parse(range)?;
    }
    let mut opts = RunOptions::default();
    if let Some(threads) = args.value("threads") {
        opts.threads = threads
            .parse::<usize>()
            .map_err(|_| format!("--threads needs a positive integer, got '{threads}'"))?
            .max(1);
    }
    opts.dump_json = args.has("json");
    Ok((sc, opts))
}

fn run(name: &str, args: &Args) -> Result<(), String> {
    let reg = ScenarioRegistry::standard();
    let sc = reg
        .get(name)
        .ok_or_else(|| format!("unknown scenario '{name}' (try --list)"))?;
    let (sc, opts) = configure(sc, args)?;
    run_scenario(&sc, &opts);
    Ok(())
}

/// Entry point of the `decima-exp` binary.
pub fn exp_main() {
    let args = Args::new();
    if args.has("help") {
        print!("{}", usage());
        return;
    }
    if args.has("list") {
        list(&ScenarioRegistry::standard());
        return;
    }
    if args.has("train") {
        let opts = train_options(&args).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
        if let Err(e) = run_training(&opts) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    let Some(name) = args.value("scenario").map(str::to_string) else {
        print!("{}", usage());
        std::process::exit(2);
    };
    // Every error before the run starts is bad input: exit 2, nothing
    // written.
    if let Err(e) = check_scenario_flags(&args).and_then(|()| run(&name, &args)) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Args {
        Args::from_vec(parts.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn set_flags_parse() {
        let args = argv(&["--set", "execs=30", "--set", "iters=2"]);
        assert_eq!(
            args.sets().unwrap(),
            vec![
                ("execs".to_string(), "30".to_string()),
                ("iters".to_string(), "2".to_string())
            ]
        );
        assert!(argv(&["--set"]).sets().is_err());
        assert!(argv(&["--set", "no-equals"]).sets().is_err());
    }

    #[test]
    fn scenario_flags_are_checked_against_the_documented_set() {
        let ok = argv(&[
            "--scenario",
            "fig09a",
            "--set",
            "jobs=5",
            "--seeds",
            "0..4",
            "--threads",
            "4",
            "--json",
        ]);
        assert_eq!(check_scenario_flags(&ok), Ok(()));
        assert_eq!(
            check_scenario_flags(&argv(&["--scenario", "fig09a", "--thread", "4"])),
            Err("unknown flag '--thread' (did you mean --set thread=…?)".to_string())
        );
        // The old per-binary override style is no longer a second syntax.
        assert!(check_scenario_flags(&argv(&["--scenario", "fig09a", "--execs", "30"])).is_err());
        assert_eq!(
            check_scenario_flags(&argv(&["--scenario", "fig09a", "--json", "yes"])),
            Err("unexpected argument 'yes'".to_string())
        );
        // Removed flags are unknown like any other.
        for flag in ["--no-fast-infer", "--bench", "--quick"] {
            let err = check_scenario_flags(&argv(&["--scenario", "fig09a", flag])).unwrap_err();
            assert!(err.starts_with("unknown flag"), "{flag}: {err}");
        }
    }

    #[test]
    fn train_flags_are_checked_and_numbers_must_parse() {
        let line = "--train --iters 2 --jobs 4 --execs 5 --iat 40 --fail 0.1 --retries 3 --resume";
        let ok = train_options(&argv(&line.split(' ').collect::<Vec<_>>())).unwrap();
        assert_eq!((ok.iters, ok.jobs, ok.execs), (2, 4, 5));
        assert_eq!(ok.iat, Some(40.0));
        assert_eq!((ok.dynamics.fail_prob, ok.dynamics.max_retries), (0.1, 3));
        assert!(ok.resume);
        let defaults = train_options(&argv(&["--train"])).unwrap();
        assert_eq!(defaults.iters, TrainOptions::default().iters);
        assert_eq!(defaults.iat, None);

        let cases: &[(&[&str], &str)] = &[
            (&["--iters", "ten"], "--iters needs a number, got 'ten'"),
            (&["--iat", "4O"], "--iat needs a number, got '4O'"),
            (&["--churn", "often"], "--churn needs a number, got 'often'"),
            (&["--jobs"], "--jobs needs a value"),
            (
                &["--iter", "5"],
                "unknown flag '--iter' (not a --train flag, see --help)",
            ),
            (
                &["--threads", "4"],
                "unknown flag '--threads' (not a --train flag, see --help)",
            ),
            (&["extra"], "unexpected argument 'extra'"),
            // In-range checks: `--fail 2` used to train on `jct NaN`.
            (&["--fail", "2"], "dynamics 'fail' must be in [0, 1], got 2"),
            (&["--execs", "0"], "--execs must be at least 1, got 0"),
            (&["--jobs", "0"], "--jobs must be at least 1, got 0"),
            (
                &["--execs", "1000001"],
                "--execs must be at most 1000000, got 1000001",
            ),
            (&["--iat", "-4"], "--iat must be > 0, got -4"),
            (
                &["--straggle-factor", "0"],
                "dynamics 'straggle-factor' must be >= 1, got 0",
            ),
        ];
        for (extra, want) in cases {
            let mut parts = vec!["--train"];
            parts.extend_from_slice(extra);
            assert_eq!(
                train_options(&argv(&parts)).err().as_deref(),
                Some(*want),
                "{extra:?}"
            );
        }
    }

    /// One case per [`KEYS`] row and per dynamics knob: a documented
    /// value is taken, a value outside the row's kind or range is
    /// refused with exactly this message — and for a knob, `--set` and
    /// the `--train` flag agree on both.
    #[test]
    fn every_settable_key_takes_its_kind_and_refuses_the_rest() {
        use crate::scenario::KEYS;
        let reg = ScenarioRegistry::standard();
        let levels = "off, low, med, high, all or custom";
        let scheds = "fifo, sjf-cp, fair, naive-weighted-fair, weighted-fair, opt-weighted-fair, \
                      tetris, graphene, random, decima, decima-untrained, decima-ckpt:PATH";
        #[rustfmt::skip]
        let rows: &[(&str, &str, &str, &str, String)] = &[
            ("scale", "execs", "8,64", "8,0", "'execs' must be at least 1, got 0".into()),
            ("fig09a", "executors", "30", "0", "'executors' must be at least 1, got 0".into()),
            ("scale", "jobs", "500,5000", "5,x", "'jobs' needs a number or comma list, got '5,x'".into()),
            ("fig09a", "jobs", "8", "-3", "'jobs' must be at least 1, got -3".into()),
            ("fleet", "shards", "1,2,4", "0", "'shards' must be at least 1, got 0".into()),
            ("fleet", "rates", "1,2.5", "-1", "'rates' must be > 0, got -1".into()),
            ("fig09b", "iat", "25", "0", "'iat' must be > 0, got 0".into()),
            ("fig09a", "task-scale", "4", "0", "'task-scale' must be > 0, got 0".into()),
            ("fig09a", "move-delay", "0", "-1", "'move-delay' must be >= 0, got -1".into()),
            ("robust", "level", "high", "dire", format!("unknown dynamics level 'dire' (expected {levels})")),
            ("drift", "profile", "flash", "x", "unknown drift profile 'x' (expected off, ramp, diurnal, mixshift, flash or all)".into()),
            ("fig09a", "runs", "5", "0", "seed range '0' selects no seed".into()),
            ("fig09a", "seed-start", "7", "-1", "'seed-start' must be a non-negative integer, got -1".into()),
            ("fig09a", "iters", "0", "-5", "'iters' must be a non-negative integer, got -5".into()),
            ("fig09a", "checkpoint", "out/m.ckpt", "", String::new()),
            ("fleet", "router", "least-loaded", "foo", "unknown router 'foo' (valid: rr, jsq, least-loaded)".into()),
            ("fleet", "sched", "random:7", "nope", format!("unknown scheduler 'nope' (valid: {scheds})")),
        ];
        let mut walked = Vec::new();
        for (scenario, key, good, bad, want) in rows {
            let sc = reg.get(scenario).unwrap();
            let on = |r: &&crate::scenario::Key| r.only.is_empty() || r.only.contains(scenario);
            walked.push(KEYS.iter().position(|r| r.names.contains(key) && on(&r)));
            let mut spec = sc.spec.clone();
            assert_eq!(spec.set(key, good), Ok(()), "{scenario}: {key}={good}");
            if !want.is_empty() {
                let before = spec.clone();
                let got = spec.set(key, bad);
                assert_eq!(got.as_ref(), Err(want), "{scenario}: {key}={bad}");
                assert_eq!(spec, before, "{key}={bad} must change nothing");
            }
        }
        let all: Vec<_> = (0..KEYS.len()).map(Some).collect();
        assert_eq!(walked, all, "one case per KEYS row, in table order");

        #[rustfmt::skip]
        let knobs = [
            ("churn", "120", "-5", "dynamics 'churn' must be >= 0, got -5"),
            ("outage", "0", "inf", "dynamics 'outage' must be >= 0, got inf"),
            ("fail", "1", "2", "dynamics 'fail' must be in [0, 1], got 2"),
            ("retries", "0", "-1", "dynamics 'retries' must be a non-negative integer, got -1"),
            ("straggle", "0.5", "NaN", "dynamics 'straggle' must be in [0, 1], got NaN"),
            ("straggle-factor", "1", "0.5", "dynamics 'straggle-factor' must be >= 1, got 0.5"),
        ];
        let keys: Vec<&str> = DynamicsSpec::KNOBS.iter().map(|k| k.key).collect();
        assert_eq!(
            keys,
            knobs.map(|k| k.0),
            "one case per knob, in table order"
        );
        for (key, good, bad, want) in knobs {
            let flag = format!("--{key}");
            let mut spec = reg.get("fig09a").unwrap().spec.clone();
            assert_eq!(spec.set(key, good), Ok(()), "{key}={good}");
            let trained = train_options(&argv(&["--train", &flag, good])).unwrap();
            assert_eq!(trained.dynamics, spec.sim.dynamics, "{key}={good}");
            assert_eq!(spec.set(key, bad), Err(want.to_string()), "{key}={bad}");
            let err = train_options(&argv(&["--train", &flag, bad])).err();
            assert_eq!(err.as_deref(), Some(want), "{flag} {bad}");
        }
    }

    /// `--help` carries every row docs/ARCHITECTURE.md is held to.
    #[test]
    fn help_lists_the_settable_keys() {
        let help = usage();
        for [key, on, accepts, doc] in settable_keys() {
            let row = format!("  {key:<17} {on}: {doc} ({accepts})\n");
            assert!(help.contains(&row), "--help lacks {row}");
        }
    }

    #[test]
    fn configure_applies_everything() {
        let reg = ScenarioRegistry::standard();
        let sc = reg.get("fig09a").unwrap();
        let args = argv(&[
            "--set",
            "execs=30",
            "--set",
            "iters=2",
            "--seeds",
            "0..40",
            "--threads",
            "3",
            "--json",
        ]);
        let (sc, opts) = configure(sc, &args).unwrap();
        assert_eq!(sc.spec.workload.as_ref().unwrap().executors, 30);
        assert_eq!(sc.spec.seeds.seeds().len(), 40);
        assert_eq!(sc.spec.seeds.start, 0);
        assert_eq!(opts.threads, 3);
        assert!(opts.dump_json);
        match &sc.spec.lineup.last().unwrap().sched {
            crate::scenario::SchedulerSpec::Decima { train } => assert_eq!(train.iters, 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn runs_override_reshapes_seed_plan() {
        let reg = ScenarioRegistry::standard();
        let sc = reg.get("fig09a").unwrap();
        let (sc, _) = configure(sc, &argv(&["--set", "runs=5"])).unwrap();
        assert_eq!(sc.spec.seeds.count, 5);
        assert_eq!(sc.spec.seeds.start, 1000);
    }

    #[test]
    fn configure_rejects_bad_input() {
        let reg = ScenarioRegistry::standard();
        let sc = reg.get("fig09a").unwrap();
        assert!(configure(sc, &argv(&["--seeds", "bad"])).is_err());
        assert!(configure(sc, &argv(&["--set", "execs=abc"])).is_err());
        assert!(configure(sc, &argv(&["--threads", "x"])).is_err());
        // Out-of-range cluster/dynamics values used to panic the engine
        // (execs=0 + churn) or print an all-NaN table with exit 0.
        let cases = [
            ("execs=0", "'execs' must be at least 1, got 0"),
            ("execs=-3", "'execs' must be at least 1, got -3"),
            ("jobs=0", "'jobs' must be at least 1, got 0"),
            ("execs=inf", "'execs' must be at least 1, got inf"),
            ("iat=0", "'iat' must be > 0, got 0"),
            ("iat=NaN", "'iat' must be > 0, got NaN"),
            ("move-delay=-1", "'move-delay' must be >= 0, got -1"),
            ("fail=2", "dynamics 'fail' must be in [0, 1], got 2"),
            ("churn=-5", "dynamics 'churn' must be >= 0, got -5"),
            ("outage=-1", "dynamics 'outage' must be >= 0, got -1"),
            (
                "straggle=1.5",
                "dynamics 'straggle' must be in [0, 1], got 1.5",
            ),
            (
                "straggle-factor=0.5",
                "dynamics 'straggle-factor' must be >= 1, got 0.5",
            ),
        ];
        for (set, want) in cases {
            let got = configure(sc, &argv(&["--set", "churn=5", "--set", set]));
            assert_eq!(got.err().as_deref(), Some(want), "{set}");
        }
        // The scale scenario keeps `execs`/`jobs` as sweep lists: every
        // entry is held to the same rule (it used to panic in the sweep).
        let got = configure(reg.get("scale").unwrap(), &argv(&["--set", "execs=8,0"]));
        let want = "'execs' must be at least 1, got 0";
        assert_eq!(got.err().as_deref(), Some(want));
        // So does the fleet scenario with `shards`/`rates` (all four
        // used to panic in the sweep, exit 101).
        let fleet = reg.get("fleet").unwrap();
        let cases = [
            ("shards=0", "'shards' must be at least 1, got 0"),
            ("rates=-1", "'rates' must be > 0, got -1"),
            ("shards=x", "'shards' needs a number or comma list, got 'x'"),
            ("rates=", "'rates' needs a number or comma list, got ''"),
        ];
        for (set, want) in cases {
            let got = configure(fleet, &argv(&["--set", set]));
            assert_eq!(got.err().as_deref(), Some(want), "{set}");
        }
    }
}
