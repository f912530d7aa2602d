//! Command-line entry point: the unified `decima-exp` runner.
//!
//! ```text
//! decima-exp --list
//! decima-exp --scenario fig09a
//! decima-exp --scenario fig09a --set execs=30 --seeds 0..40 --threads 8 --json
//! decima-exp --scenario train --set recipe=stream --set iters=200
//! ```
//!
//! One dialect: a scenario name and `--set key=value` overrides.
//! Whatever is wrong with the command line itself — a flag, a key, a
//! value, two keys that contradict each other — is one `error:` line
//! and exit 2 before anything runs; a run that fails on a file it was
//! pointed at (a missing, damaged or wrong-sized checkpoint) is one
//! `error:` line and exit 1.

use crate::registry::ScenarioRegistry;
use crate::runner::{try_run_scenario, RunOptions, Scenario};
use crate::scenario::settable_keys;
use crate::Args;

/// Flags that take a value.
const SCENARIO_VALUED: &[&str] = &["scenario", "set", "seeds", "threads"];
/// Flags that stand alone.
const SCENARIO_BARE: &[&str] = &["json"];

/// Exactly the documented flags: a misspelt one — or one of the
/// removed `--train` dialect — must not silently run the default
/// configuration.
fn check_scenario_flags(args: &Args) -> Result<(), String> {
    match args.first_unknown(SCENARIO_VALUED, SCENARIO_BARE) {
        None => Ok(()),
        Some(arg) => Err(match arg.strip_prefix("--") {
            Some("train") => format!(
                "unknown flag '{arg}' (training is a scenario: --scenario train --set key=value, \
                 docs/TRAINING.md)"
            ),
            Some(key) => format!("unknown flag '{arg}' (did you mean --set {key}=…?)"),
            None => format!("unexpected argument '{arg}'"),
        }),
    }
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
  decima-exp --scenario train [--set recipe=standard|stream|tuned]
             [--set iters=N] [--set checkpoint=PATH] [--set resume=true]...

FLAGS:
  --list            list registered scenarios and exit
  --scenario NAME   which scenario to run (see --list)
  --set KEY=VALUE   override a spec field or parameter (repeatable)
  --seeds A..B      evaluation seed range (or a bare count)
  --threads N       worker threads (default: available parallelism)
  --json            also print the structured JSON result to stdout

KEYS for --set (a value outside what its key accepts, or a key the
scenario does not take, is exit 2 before anything runs):
{}  plus each scenario's own parameters: the \"params\" of its spec echo
  (out/<scenario>.json), each held to the kind of its default.
  The train scenario's (docs/TRAINING.md): recipe=standard|stream|tuned,
  seed=K, checkpoint-every=N (10), resume=true to continue checkpoint=
  bit-exactly (it refuses another jobs=/execs=/iat=/dynamics than the
  file echoes), train-log=PATH (out/train_<recipe>.jsonl); the 'every
  scenario' keys from churn on train a policy under perturbation.

Results: terminal report, out/<scenario>.csv, out/<scenario>.json;
train: the checkpoint= file + one JSONL record per iteration.
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
    sc.spec.check()?;
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

/// Everything that can be wrong before the run starts.
fn prepare(args: &Args) -> Result<Option<(Scenario, RunOptions)>, String> {
    check_scenario_flags(args)?;
    let Some(name) = args.value("scenario") else {
        return Ok(None);
    };
    let reg = ScenarioRegistry::standard();
    let sc = reg
        .get(name)
        .ok_or_else(|| format!("unknown scenario '{name}' (try --list)"))?;
    configure(sc, args).map(Some)
}

/// A reader that stops early (`decima-exp --list | head -1`) ends the
/// run with exit 0 and nothing on stderr. Rust ignores `SIGPIPE`, so a
/// write to the closed pipe fails with `BrokenPipe`, and `print!` turns
/// that failure into a panic; restoring the signal would take `unsafe`.
/// So the panic hook looks at the failed print: when a write to stdout
/// fails with `BrokenPipe` again, the reader is gone and the process
/// exits 0; every other panic is reported as before.
fn stop_quietly_when_stdout_closes() {
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let failed_print = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("failed printing to stdout"));
        if failed_print && stdout_is_closed() {
            std::process::exit(0);
        }
        report(info)
    }));
}

/// Whether a write to stdout fails because its reader has gone.
fn stdout_is_closed() -> bool {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    let probe = out.write_all(b"\n").and_then(|()| out.flush());
    probe.is_err_and(|e| e.kind() == std::io::ErrorKind::BrokenPipe)
}

fn fail(error: &str, code: i32) -> ! {
    eprintln!("error: {error}");
    std::process::exit(code)
}

/// Entry point of the `decima-exp` binary.
pub fn exp_main() {
    stop_quietly_when_stdout_closes();
    let args = Args::new();
    if args.has("help") {
        print!("{}", usage());
        return;
    }
    if args.has("list") {
        list(&ScenarioRegistry::standard());
        return;
    }
    // Every error before the run starts is bad input: exit 2, nothing
    // written. One from the run itself is a model it could not use.
    match prepare(&args) {
        Err(e) => fail(&e, 2),
        Ok(None) => {
            print!("{}", usage());
            std::process::exit(2);
        }
        Ok(Some((sc, opts))) => {
            if let Err(e) = try_run_scenario(&sc, &opts) {
                fail(&e, 1);
            }
        }
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

    /// The `train` scenario takes what `--train` took, as keys: the
    /// numbers must parse and lie in range, a typo is refused, and the
    /// flag dialect itself is gone.
    #[test]
    fn train_takes_its_keys_and_the_flag_dialect_is_gone() {
        let reg = ScenarioRegistry::standard();
        let train = reg.get("train").unwrap();
        let sets = |pairs: &[&str]| {
            let parts: Vec<&str> = pairs.iter().flat_map(|p| ["--set", p]).collect();
            configure(train, &argv(&parts))
        };
        let line = "iters=2 jobs=4 execs=5 iat=40 fail=0.1 retries=3 resume=true recipe=tuned \
                    seed=7 checkpoint=/tmp/m.ckpt checkpoint-every=1 train-log=/tmp/t.jsonl";
        let (ok, _) = sets(&line.split_whitespace().collect::<Vec<_>>()).unwrap();
        let spec = &ok.spec;
        let w = spec.workload.as_ref().unwrap();
        assert_eq!((w.num_jobs(), w.executors), (4, 5));
        assert_eq!(spec.num_param("iat"), 40.0);
        let d = spec.sim.dynamics;
        assert_eq!((d.fail_prob, d.max_retries), (0.1, 3));
        assert!(spec.flag_param("resume"));
        assert_eq!(spec.usize_param("seed"), 7);
        let train_spec = crate::scenarios::first_train(spec);
        assert_eq!(train_spec.iters, 2);
        assert_eq!(train_spec.checkpoint.as_deref(), Some("/tmp/m.ckpt"));
        let (defaults, _) = sets(&[]).unwrap();
        assert_eq!(crate::scenarios::first_train(&defaults.spec).iters, 50);
        assert_eq!(defaults.spec.param("iat"), None);

        let cases: &[(&str, &str)] = &[
            ("iters=ten", "'iters' needs a numeric value, got 'ten'"),
            ("iat=4O", "'iat' needs a numeric value, got '4O'"),
            ("churn=often", "'churn' needs a numeric value, got 'often'"),
            ("fail=2", "dynamics 'fail' must be in [0, 1], got 2"),
            (
                "execs=0",
                "'execs' must be at least 1 (whole, up to 1000000), got 0",
            ),
            (
                "jobs=0",
                "'jobs' must be at least 1 (whole, up to 100000000), got 0",
            ),
            (
                "execs=1000001",
                "'execs' must be at least 1 (whole, up to 1000000), got 1000001",
            ),
            ("iat=-4", "'iat' must be > 0, got -4"),
            (
                "straggle-factor=0",
                "dynamics 'straggle-factor' must be >= 1, got 0",
            ),
            ("resume=yes", "'resume' needs true or false, got 'yes'"),
            (
                "recipe=fast",
                "unknown recipe 'fast' (expected standard, stream, or tuned)",
            ),
        ];
        for (set, want) in cases {
            assert_eq!(sets(&[set]).err().as_deref(), Some(*want), "{set}");
        }
        let err = sets(&["iter=5"]).err().unwrap();
        assert!(
            err.starts_with("unknown key 'iter' for scenario 'train'"),
            "{err}"
        );
        for flags in [
            &["--train"][..],
            &["--train", "--iters", "5"],
            &["--resume"],
        ] {
            let err = prepare(&argv(flags)).err().unwrap();
            assert!(err.starts_with("unknown flag '--"), "{flags:?}: {err}");
        }
    }

    /// One case per [`KEYS`] row and per dynamics knob: a documented
    /// value is taken, a value outside the row's kind or range is
    /// refused with exactly this message.
    #[test]
    fn every_settable_key_takes_its_kind_and_refuses_the_rest() {
        use crate::scenario::KEYS;
        let reg = ScenarioRegistry::standard();
        let levels = "off, low, med, high, all or custom";
        let scheds = "fifo, sjf-cp, fair, naive-weighted-fair, weighted-fair, opt-weighted-fair, \
                      tetris, graphene, random, decima, decima-untrained, decima-ckpt:PATH, \
                      fine-tuned:PATH";
        #[rustfmt::skip]
        let rows: &[(&str, &str, &str, &str, String)] = &[
            ("scale", "execs", "8,64", "8,0", "'execs' must be at least 1 (whole, up to 1000000), got 0".into()),
            ("fig09a", "executors", "30", "0", "'executors' must be at least 1 (whole, up to 1000000), got 0".into()),
            ("scale", "jobs", "500,5000", "5,x", "'jobs' needs a number or comma list, got '5,x'".into()),
            ("fig09a", "jobs", "8", "-3", "'jobs' must be at least 1 (whole, up to 100000000), got -3".into()),
            ("fleet", "shards", "1,2,4", "0", "'shards' must be at least 1 (whole, up to 1000000), got 0".into()),
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
        let keys: Vec<&str> = decima_sim::DynamicsSpec::KNOBS
            .iter()
            .map(|k| k.key)
            .collect();
        assert_eq!(
            keys,
            knobs.map(|k| k.0),
            "one case per knob, in table order"
        );
        for (key, good, bad, want) in knobs {
            let mut spec = reg.get("fig09a").unwrap().spec.clone();
            assert_eq!(spec.set(key, good), Ok(()), "{key}={good}");
            assert_eq!(spec.set(key, bad), Err(want.to_string()), "{key}={bad}");
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
            (
                "execs=0",
                "'execs' must be at least 1 (whole, up to 1000000), got 0",
            ),
            (
                "execs=-3",
                "'execs' must be at least 1 (whole, up to 1000000), got -3",
            ),
            (
                "jobs=0",
                "'jobs' must be at least 1 (whole, up to 100000000), got 0",
            ),
            (
                "execs=inf",
                "'execs' must be at least 1 (whole, up to 1000000), got inf",
            ),
            // A count is a whole number (3.7 jobs used to run 4), small
            // enough to build (1e9 executors used to abort on allocation).
            (
                "jobs=3.7",
                "'jobs' must be at least 1 (whole, up to 100000000), got 3.7",
            ),
            (
                "execs=1e9",
                "'execs' must be at least 1 (whole, up to 1000000), got 1000000000",
            ),
            (
                "jobs=1e12",
                "'jobs' must be at least 1 (whole, up to 100000000), got 1000000000000",
            ),
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
        let want = "'execs' must be at least 1 (whole, up to 1000000), got 0";
        assert_eq!(got.err().as_deref(), Some(want));
        // So does the fleet scenario with `shards`/`rates` (all four
        // used to panic in the sweep, exit 101).
        let fleet = reg.get("fleet").unwrap();
        let cases = [
            (
                "shards=0",
                "'shards' must be at least 1 (whole, up to 1000000), got 0",
            ),
            (
                "shards=2.5",
                "'shards' must be at least 1 (whole, up to 1000000), got 2.5",
            ),
            ("rates=-1", "'rates' must be > 0, got -1"),
            ("shards=x", "'shards' needs a number or comma list, got 'x'"),
            ("rates=", "'rates' needs a number or comma list, got ''"),
            (
                "sched=weighted-fair:abc",
                "scheduler 'weighted-fair' takes a finite exponent after ':', got 'weighted-fair:abc'",
            ),
        ];
        for (set, want) in cases {
            let got = configure(fleet, &argv(&["--set", set]));
            assert_eq!(got.err().as_deref(), Some(want), "{set}");
        }
    }
}
