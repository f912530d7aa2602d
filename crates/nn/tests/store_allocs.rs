//! A `ParamStore` clone — one per rollout and per gradient task —
//! shares the store's names and values: it allocates the two vectors it
//! owns and one buffer per gradient tensor, and copies no name. Counted
//! by the workspace's counting `#[global_allocator]`
//! (`tests/support/counting_alloc.rs`), on the test's own thread
//! only.

use decima_nn::{ParamStore, Tensor};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

#[test]
fn a_clone_allocates_its_gradients_and_copies_no_name() {
    // The small policy's shape: 54 tensors under dotted names.
    let mut store = ParamStore::new();
    for i in 0..54 {
        store.add(
            format!("policy.head{}.layer{}.w", i / 6, i % 6),
            Tensor::zeros(8, 16),
        );
    }
    let before = allocations();
    let clone = store.clone();
    let made = allocations() - before;
    assert_eq!(
        made,
        store.len() as u64 + 2,
        "a clone made {made} allocations"
    );
    assert_eq!(clone.name(53), store.name(53));
    assert_eq!(clone.to_text(), store.to_text());
}
