//! Command-line entry point: the unified `decima-exp` runner.
//!
//! ```text
//! decima-exp --list
//! decima-exp --scenario fig09a
//! decima-exp --scenario fig09a --set execs=30 --seeds 0..40 --threads 8 --json
//! ```

use crate::registry::ScenarioRegistry;
use crate::runner::{run_scenario, run_training, RunOptions, Scenario, TrainOptions};
use crate::scenario::{count_arg, ranged};
use crate::Args;

/// Scenario-mode flags that take a value.
const SCENARIO_VALUED: &[&str] = &["scenario", "set", "seeds", "threads"];
/// Scenario-mode flags that stand alone.
const SCENARIO_BARE: &[&str] = &["json"];

/// `--train` flags that take a value.
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
    "churn",
    "outage",
    "fail",
    "retries",
    "straggle",
    "straggle-factor",
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
    check_flags(args, TRAIN_VALUED, TRAIN_BARE, |_| {
        "not a --train flag, see --help".to_string()
    })?;
    let d = TrainOptions::default();
    let off = d.dynamics;
    let opts = TrainOptions {
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
        dynamics: decima_sim::DynamicsSpec {
            churn_iat: args.parsed("churn")?.unwrap_or(off.churn_iat),
            outage_mean: args.parsed("outage")?.unwrap_or(off.outage_mean),
            fail_prob: args.parsed("fail")?.unwrap_or(off.fail_prob),
            max_retries: args.parsed("retries")?.unwrap_or(off.max_retries),
            straggler_prob: args.parsed("straggle")?.unwrap_or(off.straggler_prob),
            straggler_factor: args
                .parsed("straggle-factor")?
                .unwrap_or(off.straggler_factor),
        },
    };
    count_arg("--jobs", opts.jobs as f64)?;
    count_arg("--execs", opts.execs as f64)?;
    if let Some(iat) = opts.iat {
        ranged("--iat", iat, iat > 0.0, "> 0")?;
    }
    opts.dynamics.validate()?;
    Ok(opts)
}

fn usage() {
    println!("decima-exp — unified experiment runner for the Decima reproduction");
    println!();
    println!("USAGE:");
    println!("  decima-exp --list");
    println!("  decima-exp --scenario <name> [--set key=value]... [--seeds a..b]");
    println!("             [--threads N] [--json]");
    println!("  decima-exp --train [--recipe standard|stream|tuned] [--iters N]");
    println!("             [--jobs J] [--execs E] [--iat S] [--seed K]");
    println!("             [--checkpoint-dir DIR] [--checkpoint-every N]");
    println!("             [--resume] [--train-log PATH]");
    println!("             [--churn S] [--outage S] [--fail P] [--retries N]");
    println!("             [--straggle P] [--straggle-factor F]");
    println!();
    println!("FLAGS:");
    println!("  --list            list registered scenarios and exit");
    println!("  --scenario NAME   which scenario to run (see --list)");
    println!("  --set KEY=VALUE   override a spec field or parameter (repeatable)");
    println!("  --seeds A..B      evaluation seed range (or a bare count)");
    println!("  --threads N       worker threads (default: available parallelism)");
    println!("  --json            also print the structured JSON result to stdout");
    println!("  --train           run a standalone checkpointed training run");
    println!("  --recipe NAME     training recipe: standard | stream | tuned");
    println!("  --checkpoint-dir DIR   where checkpoint.txt lives (out/checkpoints)");
    println!("  --checkpoint-every N   checkpoint cadence in iterations (10)");
    println!("  --resume          continue bit-exactly from DIR/checkpoint.txt");
    println!("                    (refuses mismatched --jobs/--execs/--iat)");
    println!("  --train-log PATH  JSONL log path (out/train_<recipe>.jsonl)");
    println!("  --churn S         train under executor churn (mean secs between");
    println!("                    outages, each lasting --outage S on average);");
    println!("                    --fail P / --straggle P likewise set task-failure");
    println!("                    (at most --retries N) / straggler probabilities");
    println!("                    (slowdown --straggle-factor F)");
    println!();
    println!("Cluster dynamics (docs/ROBUSTNESS.md): every scenario accepts");
    println!("  --set churn=S --set fail=P --set straggle=P (plus outage=S,");
    println!("  retries=N, straggle-factor=F, level=off|low|med|high), and the");
    println!("  'robust' scenario sweeps escalating perturbation levels.");
    println!("  Accepted ranges, here and under --train (else exit 2): churn,");
    println!("  outage >= 0 (seconds; churn 0 = off); fail, straggle in [0, 1];");
    println!("  straggle-factor >= 1; execs, jobs >= 1; iat > 0; move-delay >= 0.");
    println!();
    println!("Results: terminal report, out/<scenario>.csv, out/<scenario>.json;");
    println!("training: DIR/checkpoint.txt + one JSONL record per iteration.");
    println!("Evaluate a saved model in any scenario lineup with");
    println!("  --set checkpoint=PATH (train once, reuse everywhere).");
    println!("Throughput and memory are measured by the repo benchmark");
    println!("  (benchmark/README.md, BENCHMARK.json), not by this binary.");
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
        usage();
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
        usage();
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
