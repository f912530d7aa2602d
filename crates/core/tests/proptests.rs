//! Property-based tests over the core data structures.

use decima_core::{Cdf, DagTopology, InflationCurve, Summary};
use proptest::prelude::*;

/// Strategy: a random DAG as (n, forward edges) — acyclic by construction
/// since every edge points from a lower to a higher index.
fn dag_strategy() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..20).prop_flat_map(|n| {
        let edges =
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..n * 2).prop_map(move |raw| {
                let mut seen = std::collections::BTreeSet::new();
                raw.into_iter()
                    .filter_map(|(a, b)| {
                        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                        (lo != hi && seen.insert((lo, hi))).then_some((lo, hi))
                    })
                    .collect::<Vec<_>>()
            });
        (Just(n), edges)
    })
}

proptest! {
    #[test]
    fn forward_edge_graphs_always_build((n, edges) in dag_strategy()) {
        let dag = DagTopology::new(n, &edges).expect("forward edges are acyclic");
        prop_assert_eq!(dag.len(), n);
        prop_assert_eq!(dag.num_edges(), edges.len());
    }

    #[test]
    fn topo_order_respects_all_edges((n, edges) in dag_strategy()) {
        let dag = DagTopology::new(n, &edges).unwrap();
        let mut pos = vec![0usize; n];
        for (i, &v) in dag.topo_order().iter().enumerate() {
            pos[v as usize] = i;
        }
        for (p, c) in dag.edges() {
            prop_assert!(pos[p as usize] < pos[c as usize]);
        }
    }

    #[test]
    fn levels_strictly_decrease_along_edges((n, edges) in dag_strategy()) {
        let dag = DagTopology::new(n, &edges).unwrap();
        for (p, c) in dag.edges() {
            prop_assert!(dag.level(p as usize) > dag.level(c as usize));
        }
        // Leaves are exactly level 0.
        for leaf in dag.leaves() {
            prop_assert_eq!(dag.level(leaf as usize), 0);
        }
    }

    #[test]
    fn critical_path_dominates_own_work((n, edges) in dag_strategy(),
                                        seed in 0u64..1000) {
        let dag = DagTopology::new(n, &edges).unwrap();
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let work: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..10.0)).collect();
        let cp = dag.critical_path(&work);
        let total: f64 = work.iter().sum();
        for v in 0..n {
            // cp(v) ≥ work(v), cp(v) ≥ cp(child), and cp ≤ total work.
            prop_assert!(cp[v] >= work[v] - 1e-12);
            prop_assert!(cp[v] <= total + 1e-9);
            for &c in dag.children(v) {
                prop_assert!(cp[v] >= cp[c as usize]);
            }
        }
    }

    #[test]
    fn descendants_are_closed((n, edges) in dag_strategy()) {
        let dag = DagTopology::new(n, &edges).unwrap();
        for v in 0..n {
            let desc = dag.descendants(v);
            // Every child is a descendant, and descendants of descendants
            // are included.
            for &c in dag.children(v) {
                prop_assert!(desc.contains(&c));
                for &cc in dag.children(c as usize) {
                    prop_assert!(desc.contains(&cc));
                }
            }
            prop_assert!(!desc.contains(&(v as u32)));
        }
    }

    #[test]
    fn summary_bounds(values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let s = Summary::of(&values);
        prop_assert!(s.min <= s.p50 + 1e-9);
        prop_assert!(s.p50 <= s.p95 + 1e-9);
        prop_assert!(s.p95 <= s.max + 1e-9);
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
        prop_assert!(s.std >= 0.0);
    }

    #[test]
    fn cdf_is_monotone_and_complete(values in proptest::collection::vec(-1e3f64..1e3, 1..100)) {
        let c = Cdf::of(&values);
        prop_assert_eq!(c.points.len(), values.len());
        prop_assert!((c.points.last().unwrap().1 - 1.0).abs() < 1e-12);
        for w in c.points.windows(2) {
            prop_assert!(w[0].0 <= w[1].0 && w[0].1 <= w[1].1);
        }
        // Queries agree with definition.
        let max = values.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!((c.at(max) - 1.0).abs() < 1e-12);
        prop_assert_eq!(c.at(max + 1.0), 1.0);
    }

    #[test]
    fn inflation_curve_monotone(gamma in 0.0f64..3.0, p_ref in 1.0f64..50.0,
                                knee in 0.0f64..50.0) {
        let c = InflationCurve { gamma, p_ref, knee };
        let mut prev = 0.0;
        for p in 1..=128 {
            let f = c.factor(p);
            prop_assert!(f >= 1.0);
            prop_assert!(f >= prev);
            prev = f;
        }
    }
}
