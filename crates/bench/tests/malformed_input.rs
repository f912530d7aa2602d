//! Input from outside the program is an `Err` or an `Ok`, never a
//! panic, an abort or a hang: arbitrary bytes and damaged valid
//! documents into `Json::parse`, arbitrary `--set` pairs into
//! `ScenarioSpec::set` on every registered scenario.

use decima_bench::json::Json;
use decima_bench::registry::ScenarioRegistry;
use decima_bench::scenario::KEYS;
use proptest::collection::vec;
use proptest::prelude::*;
use std::time::Duration;

/// Runs `f` on its own thread and fails the case if it has not
/// returned after ten seconds (a panic inside `f` fails it too).
fn within_ten_seconds<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    rx.recv_timeout(Duration::from_secs(10))
        .expect("the case panicked or did not finish within 10 s")
}

/// A valid document with everything the writer can emit.
fn valid_document() -> String {
    let reg = ScenarioRegistry::standard();
    reg.get("table2").unwrap().spec.to_json().render()
}

/// Values chosen to sit on the edges of every kind a key can have.
const HOSTILE: [&str; 16] = [
    "",
    "0",
    "-1",
    "-0",
    "0.5",
    "1e309",
    "-1e309",
    "NaN",
    "inf",
    "99999999999999999999",
    "true",
    "1,2,,3",
    ",",
    "0..0",
    "18446744073709551615..0",
    "9..3",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn json_parse_survives_arbitrary_bytes(bytes in vec(0u8..=255, 0..400)) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        within_ten_seconds(move || Json::parse(&text).is_ok());
    }

    #[test]
    fn json_parse_survives_damaged_documents(
        cut in 0usize..4000,
        len in 0usize..40,
        splice in vec(0u8..=255, 0..12),
        nest in 0usize..200_000,
    ) {
        let doc = valid_document().into_bytes();
        let at = cut % doc.len();
        let end = (at + len).min(doc.len());
        let mut damaged = doc[..at].to_vec();
        damaged.extend_from_slice(&splice);
        damaged.extend(std::iter::repeat(b'[').take(nest));
        damaged.extend_from_slice(&doc[end..]);
        let text = String::from_utf8_lossy(&damaged).into_owned();
        within_ten_seconds(move || {
            // Whatever still parses renders and parses again.
            if let Ok(v) = Json::parse(&text) {
                assert_eq!(Json::parse(&v.render()), Ok(v));
            }
        });
    }

    #[test]
    fn set_survives_arbitrary_pairs(
        scenario in 0usize..1000,
        key in 0usize..1000,
        hostile in 0usize..HOSTILE.len(),
        noise in vec(0u8..=255, 0..12),
        use_noise in 0u32..3,
    ) {
        let reg = ScenarioRegistry::standard();
        let sc = reg.iter().nth(scenario % reg.len()).unwrap();
        // A table key, one of the scenario's own parameters, or noise.
        let mut keys: Vec<String> = KEYS.iter().flat_map(|r| r.names).map(|n| n.to_string()).collect();
        keys.extend(decima_sim::DynamicsSpec::KNOBS.iter().map(|k| k.key.to_string()));
        keys.extend(sc.spec.params.iter().map(|(k, _)| k.clone()));
        keys.push(String::from_utf8_lossy(&noise).into_owned());
        let key = keys[key % keys.len()].clone();
        let value = match use_noise {
            0 => String::from_utf8_lossy(&noise).into_owned(),
            _ => HOSTILE[hostile].to_string(),
        };
        let mut spec = sc.spec.clone();
        within_ten_seconds(move || {
            let before = spec.clone();
            match spec.set(&key, &value) {
                // What was accepted is a spec the echo can describe.
                Ok(()) => assert!(Json::parse(&spec.to_json().render()).is_ok()),
                Err(e) => {
                    assert!(!e.is_empty());
                    assert_eq!(spec, before, "a refused '{key}={value}' changed the spec");
                }
            }
        });
    }
}
