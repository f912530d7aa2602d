//! One seeded violation per rule of the determinism contract
//! (docs/DETERMINISM.md), compiled only under `--cfg contract_canary`.
//! `tests/contract.rs` runs clippy over it and requires a failure that
//! names all four lints — the proof that the lint tables still bite.

/// Nothing calls this.
pub fn seeded() -> u8 {
    let unordered = std::collections::HashMap::from([(1u8, 2u8)]);
    let _clock = std::time::Instant::now();
    let first = unordered.get(&1).unwrap();
    unsafe { *std::ptr::from_ref(first) }
}
