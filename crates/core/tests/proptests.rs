//! Property-based tests over the core data structures.

use decima_core::{DagError, DagTopology, InflationCurve, Summary};
use proptest::prelude::*;

/// What [`DagTopology::new`] computes, written the obvious way: one `Vec`
/// of parents and one of children per node, checked edge by edge; Kahn's
/// algorithm over a stack seeded with the roots in ascending order; and
/// levels in reverse topological order.
struct Reference {
    parents: Vec<Vec<u32>>,
    children: Vec<Vec<u32>>,
    topo: Vec<u32>,
    level: Vec<u32>,
}

fn reference(n: usize, edges: &[(u32, u32)]) -> Result<Reference, DagError> {
    if n == 0 {
        return Err(DagError::Empty);
    }
    let mut parents = vec![Vec::new(); n];
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &(p, c) in edges {
        for index in [p, c] {
            if index as usize >= n {
                return Err(DagError::NodeOutOfRange {
                    index,
                    num_nodes: n,
                });
            }
        }
        if p == c {
            return Err(DagError::SelfLoop { node: p });
        }
        if children[p as usize].contains(&c) {
            return Err(DagError::DuplicateEdge {
                parent: p,
                child: c,
            });
        }
        children[p as usize].push(c);
        parents[c as usize].push(p);
    }
    let mut indeg: Vec<usize> = parents.iter().map(Vec::len).collect();
    let mut stack: Vec<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
    let mut topo = Vec::new();
    while let Some(v) = stack.pop() {
        topo.push(v);
        for &c in &children[v as usize] {
            indeg[c as usize] -= 1;
            if indeg[c as usize] == 0 {
                stack.push(c);
            }
        }
    }
    if topo.len() != n {
        return Err(DagError::Cycle);
    }
    let mut level = vec![0u32; n];
    for &v in topo.iter().rev() {
        for &c in &children[v as usize] {
            level[v as usize] = level[v as usize].max(level[c as usize] + 1);
        }
    }
    Ok(Reference {
        parents,
        children,
        topo,
        level,
    })
}

/// Strategy: any edge list over `n < 12` nodes (`n = 0` included). `mix`
/// picks distinct forward edges only, distinct forward and back edges
/// (cycles), or every kind: self-loops, repeats of an earlier edge, and
/// endpoints `n..n+3` on either side.
fn edge_list_strategy() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (0usize..12, 0usize..3).prop_flat_map(|(n, mix)| {
        let kinds = [14u32, 16, 20][mix];
        let m = n.max(1) as u32;
        proptest::collection::vec((0..kinds, 0..m, 0..m), 0..2 * n + 2).prop_map(move |raw| {
            let beyond = n as u32;
            let mut edges: Vec<(u32, u32)> = Vec::new();
            for (kind, a, b) in raw {
                let (lo, hi) = (a.min(b), a.max(b));
                let edge = match kind {
                    0..=13 if lo != hi => (lo, hi),
                    14 | 15 if lo != hi => (hi, lo),
                    16 => (a, a),
                    17 if !edges.is_empty() => edges[a as usize % edges.len()],
                    18 => (a, beyond + b % 3),
                    19 => (beyond + b % 3, a),
                    _ => continue,
                };
                if kind < 16 && edges.contains(&edge) {
                    continue;
                }
                edges.push(edge);
            }
            (n, edges)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn dag_matches_the_naive_reference((n, edges) in edge_list_strategy(), seed in 0u64..1000) {
        let built = DagTopology::new(n, &edges);
        let want = match reference(n, &edges) {
            Err(e) => {
                prop_assert_eq!(built.unwrap_err(), e);
                return Ok(());
            }
            Ok(want) => want,
        };
        let dag = built.unwrap();
        prop_assert_eq!(dag.len(), n);
        for v in 0..n {
            prop_assert_eq!(dag.parents(v), &want.parents[v][..]);
            prop_assert_eq!(dag.children(v), &want.children[v][..]);
            prop_assert_eq!(dag.level(v), want.level[v]);
        }
        prop_assert_eq!(dag.topo_order(), &want.topo[..]);
        prop_assert_eq!(dag.num_edges(), edges.len());
        let parent_major: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|p| want.children[p as usize].iter().map(move |&c| (p, c)))
            .collect();
        prop_assert_eq!(dag.edges(), parent_major);
        prop_assert_eq!(dag.depth(), want.level.iter().copied().max().unwrap_or(0));

        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let work: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..10.0)).collect();
        let mut cp = vec![0.0; n];
        for &v in want.topo.iter().rev() {
            let down = want.children[v as usize]
                .iter()
                .map(|&c| cp[c as usize])
                .fold(0.0_f64, f64::max);
            cp[v as usize] = work[v as usize] + down;
        }
        prop_assert_eq!(dag.critical_path(&work), cp);
    }
}

/// The first faulty edge decides the error, whatever its kind.
#[test]
fn the_earliest_fault_in_edge_order_is_reported() {
    // A duplicate at edge 2, a self-loop at edge 5.
    let edges = [(0, 1), (1, 2), (0, 1), (2, 3), (3, 4), (4, 4)];
    assert_eq!(
        DagTopology::new(6, &edges).unwrap_err(),
        DagError::DuplicateEdge {
            parent: 0,
            child: 1
        }
    );
    // An endpoint out of range at edge 1, a duplicate at edge 3.
    let edges = [(0, 1), (1, 9), (1, 2), (0, 1)];
    assert_eq!(
        DagTopology::new(4, &edges).unwrap_err(),
        DagError::NodeOutOfRange {
            index: 9,
            num_nodes: 4
        }
    );
    // Faults before a cycle win over it; the parent is checked first.
    let edges = [(0, 1), (1, 0), (7, 8)];
    assert_eq!(
        DagTopology::new(2, &edges).unwrap_err(),
        DagError::NodeOutOfRange {
            index: 7,
            num_nodes: 2
        }
    );
}

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
        for v in (0..n).filter(|&v| dag.children(v).is_empty()) {
            prop_assert_eq!(dag.level(v), 0);
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
    fn summary_bounds(values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let s = Summary::of(&values);
        prop_assert!(s.min <= s.p50 + 1e-9);
        prop_assert!(s.p50 <= s.p95 + 1e-9);
        prop_assert!(s.p95 <= s.max + 1e-9);
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
        prop_assert!(s.std >= 0.0);
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
