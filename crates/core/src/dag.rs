//! DAG topology: the dependency structure of a job's stages.
//!
//! A [`DagTopology`] is an immutable, validated directed acyclic graph over
//! dense node indices `0..n`. Edges point from *parent* (upstream producer)
//! to *child* (downstream consumer); a stage becomes runnable once all its
//! parents completed (§3 of the paper).
//!
//! Besides adjacency, the topology pre-computes a topological order and the
//! leaf-depth levels used by the graph neural network's bottom-up message
//! passing sweep (§5.1), and offers critical-path computation
//! (`cp(v) = work(v) + max_{u∈children(v)} cp(u)`, Appendix A footnote 5).
//!
//! A topology is one heap block of `u32`s, compressed sparse rows both
//! ways, for `n` nodes and `e` edges:
//!
//! ```text
//! [ parent offsets (n+1) | child offsets (n+1) | parents (e) | children (e) | topo (n) | level (n) ]
//! ```
//!
//! An offset is an absolute position in the block, so a node's parents or
//! children are the slice between its offset and the next one, in the
//! order their edges were given; `topo` is Kahn's order (a stack seeded
//! with the roots in ascending order). [`DagTopology::new`] counts
//! degrees, prefix-sums the offsets and fills both lists in edge order
//! inside the block, so a job's DAG costs one allocation however many
//! stages it has, and cloning it costs one more.

use std::fmt;

/// Errors raised when constructing an invalid DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// An edge endpoint was `>= num_nodes`.
    NodeOutOfRange {
        /// The offending endpoint.
        index: u32,
        /// Number of nodes in the DAG.
        num_nodes: usize,
    },
    /// An edge `(v, v)` was supplied.
    SelfLoop {
        /// The node with the self-loop.
        node: u32,
    },
    /// The same edge was supplied twice.
    DuplicateEdge {
        /// Edge source.
        parent: u32,
        /// Edge target.
        child: u32,
    },
    /// The edge set contains a cycle.
    Cycle,
    /// A DAG must have at least one node.
    Empty,
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::NodeOutOfRange { index, num_nodes } => {
                write!(f, "edge endpoint {index} out of range (n={num_nodes})")
            }
            DagError::SelfLoop { node } => write!(f, "self-loop on node {node}"),
            DagError::DuplicateEdge { parent, child } => {
                write!(f, "duplicate edge {parent}->{child}")
            }
            DagError::Cycle => write!(f, "edge set contains a cycle"),
            DagError::Empty => write!(f, "DAG must have at least one node"),
        }
    }
}

impl std::error::Error for DagError {}

/// Immutable, validated DAG over nodes `0..num_nodes`.
///
/// Everything lives in one buffer of `4n + 2 + 2e` words, laid out as
/// the module docs show: `v`'s parents are `buf[buf[v]..buf[v + 1]]` and
/// its children `buf[buf[n + 1 + v]..buf[n + 2 + v]]`.
#[derive(Clone, PartialEq)]
pub struct DagTopology {
    num_nodes: usize,
    buf: Box<[u32]>,
}

impl DagTopology {
    /// Builds and validates a topology from an edge list.
    ///
    /// The first faulty edge decides the error: an endpoint out of range
    /// (parent checked first), a self-loop, or a repeat of an earlier
    /// edge. Only a fault-free edge list can be a [`DagError::Cycle`].
    pub fn new(num_nodes: usize, edges: &[(u32, u32)]) -> Result<Self, DagError> {
        let n = num_nodes;
        if n == 0 {
            return Err(DagError::Empty);
        }
        // Edges before the first endpoint fault are laid out; a repeat
        // among them is found while filling, and comes earlier.
        let fault = edges
            .iter()
            .position(|&(p, c)| p as usize >= n || c as usize >= n || p == c);
        let laid = &edges[..fault.unwrap_or(edges.len())];
        let e = laid.len();
        // Where each region of the buffer starts (module docs).
        let child_offsets = n + 1;
        let parents = 2 * n + 2;
        let children = parents + e;
        let topo = children + e;
        let level = topo + n;
        assert!(
            level + n <= u32::MAX as usize,
            "a DAG's buffer positions are u32: {n} nodes and {e} edges do not fit"
        );
        let mut buf = vec![0u32; level + n];

        // Degrees, prefix-summed into absolute positions.
        for &(p, c) in laid {
            buf[c as usize + 1] += 1;
            buf[child_offsets + p as usize + 1] += 1;
        }
        buf[0] = parents as u32;
        buf[child_offsets] = children as u32;
        for v in 0..n {
            buf[v + 1] += buf[v];
            buf[child_offsets + v + 1] += buf[child_offsets + v];
        }

        // Adjacency in edge order. Until Kahn's algorithm runs, the topo
        // region holds each node's next parent slot and the level region
        // its next child slot.
        buf.copy_within(0..n, topo);
        buf.copy_within(child_offsets..child_offsets + n, level);
        for &(p, c) in laid {
            let (pi, ci) = (p as usize, c as usize);
            let slot = buf[level + pi] as usize;
            if buf[buf[child_offsets + pi] as usize..slot].contains(&c) {
                return Err(DagError::DuplicateEdge {
                    parent: p,
                    child: c,
                });
            }
            buf[slot] = c;
            buf[level + pi] += 1;
            let slot = buf[topo + ci] as usize;
            buf[slot] = p;
            buf[topo + ci] += 1;
        }
        if let Some(at) = fault {
            let (p, c) = edges[at];
            return Err(match [p, c].into_iter().find(|&v| v as usize >= n) {
                Some(index) => DagError::NodeOutOfRange {
                    index,
                    num_nodes: n,
                },
                None => DagError::SelfLoop { node: p },
            });
        }

        // Kahn's algorithm: topological order + cycle detection. The
        // level region holds the remaining in-degrees, all zero once
        // every node is ordered.
        for v in 0..n {
            buf[level + v] = buf[v + 1] - buf[v];
        }
        let mut stack: Vec<u32> = (0..n as u32)
            .filter(|&v| buf[level + v as usize] == 0)
            .collect();
        let mut ordered = 0;
        while let Some(v) = stack.pop() {
            buf[topo + ordered] = v;
            ordered += 1;
            let v = child_offsets + v as usize;
            for at in buf[v] as usize..buf[v + 1] as usize {
                let c = buf[at] as usize;
                buf[level + c] -= 1;
                if buf[level + c] == 0 {
                    stack.push(c as u32);
                }
            }
        }
        if ordered != n {
            return Err(DagError::Cycle);
        }

        // Leaf depth, computed in reverse topological order.
        for t in (topo..level).rev() {
            let v = buf[t] as usize;
            let kids = buf[child_offsets + v] as usize..buf[child_offsets + v + 1] as usize;
            buf[level + v] = buf[kids]
                .iter()
                .map(|&c| buf[level + c as usize] + 1)
                .max()
                .unwrap_or(0);
        }

        Ok(DagTopology {
            num_nodes: n,
            buf: buf.into_boxed_slice(),
        })
    }

    /// A single-node DAG (one stage, no dependencies).
    #[expect(
        clippy::expect_used,
        reason = "one node and no edges has no edge to reject and no cycle"
    )]
    pub fn single() -> Self {
        DagTopology::new(1, &[]).expect("single-node DAG is valid")
    }

    /// A linear chain `0 -> 1 -> ... -> n-1`.
    pub fn chain(n: usize) -> Result<Self, DagError> {
        let edges: Vec<(u32, u32)> = (0..n.saturating_sub(1))
            .map(|i| (i as u32, i as u32 + 1))
            .collect();
        DagTopology::new(n, &edges)
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.num_nodes
    }

    /// True when the DAG has exactly zero nodes (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_nodes == 0
    }

    /// The adjacency list whose offset pair starts at buffer position `at`.
    #[inline]
    fn adjacency(&self, at: usize) -> &[u32] {
        &self.buf[self.buf[at] as usize..self.buf[at + 1] as usize]
    }

    /// Upstream dependencies of `v`, in edge-list order.
    #[inline]
    pub fn parents(&self, v: usize) -> &[u32] {
        self.adjacency(v)
    }

    /// Downstream consumers of `v`, in edge-list order.
    #[inline]
    pub fn children(&self, v: usize) -> &[u32] {
        self.adjacency(self.num_nodes + 1 + v)
    }

    /// A topological order (each parent precedes its children).
    #[inline]
    pub fn topo_order(&self) -> &[u32] {
        let end = self.buf.len() - self.num_nodes;
        &self.buf[end - self.num_nodes..end]
    }

    /// `levels()[v]` is `level(v)`.
    #[inline]
    fn levels(&self) -> &[u32] {
        &self.buf[self.buf.len() - self.num_nodes..]
    }

    /// Longest hop-distance from `v` down to a leaf (leaves = 0).
    #[inline]
    pub fn level(&self, v: usize) -> u32 {
        self.levels()[v]
    }

    /// Maximum level in the DAG (its depth).
    pub fn depth(&self) -> u32 {
        self.levels().iter().copied().max().unwrap_or(0)
    }

    /// Nodes without parents (initially runnable).
    pub fn roots(&self) -> Vec<u32> {
        (0..self.num_nodes as u32)
            .filter(|&v| self.parents(v as usize).is_empty())
            .collect()
    }

    /// Nodes without children (the GNN message-passing frontier).
    pub fn leaves(&self) -> Vec<u32> {
        (0..self.num_nodes as u32)
            .filter(|&v| self.children(v as usize).is_empty())
            .collect()
    }

    /// Total number of edges.
    pub fn num_edges(&self) -> usize {
        (self.buf.len() - 4 * self.num_nodes - 2) / 2
    }

    /// Critical-path value from each node: `cp(v) = work[v] + max cp(child)`.
    ///
    /// `work.len()` must equal `len()`. This is the quantity the paper's
    /// graph neural network must be able to express (Appendix E).
    pub fn critical_path(&self, work: &[f64]) -> Vec<f64> {
        assert_eq!(work.len(), self.num_nodes, "work vector length mismatch");
        let mut cp = vec![0.0; self.num_nodes];
        for &v in self.topo_order().iter().rev() {
            let down = self
                .children(v as usize)
                .iter()
                .map(|&c| cp[c as usize])
                .fold(0.0_f64, f64::max);
            cp[v as usize] = work[v as usize] + down;
        }
        cp
    }

    /// Length of the overall critical path (max over nodes).
    pub fn critical_path_len(&self, work: &[f64]) -> f64 {
        self.critical_path(work).into_iter().fold(0.0_f64, f64::max)
    }

    /// All nodes reachable (strictly) downstream of `v`.
    pub fn descendants(&self, v: usize) -> Vec<u32> {
        let mut seen = vec![false; self.num_nodes];
        let mut stack: Vec<u32> = self.children(v).to_vec();
        let mut out = Vec::new();
        while let Some(u) = stack.pop() {
            if !seen[u as usize] {
                seen[u as usize] = true;
                out.push(u);
                stack.extend_from_slice(self.children(u as usize));
            }
        }
        out.sort_unstable();
        out
    }

    /// Edge list (parent, child), in parent-major order.
    pub fn edges(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.num_edges());
        for p in 0..self.num_nodes {
            out.extend(self.children(p).iter().map(|&c| (p as u32, c)));
        }
        out
    }
}

impl fmt::Debug for DagTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DagTopology(n={}, e={}, depth={})",
            self.num_nodes,
            self.num_edges(),
            self.depth()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DagTopology {
        // 0 -> {1, 2} -> 3
        DagTopology::new(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn builds_diamond() {
        let d = diamond();
        assert_eq!(d.len(), 4);
        assert_eq!(d.num_edges(), 4);
        assert_eq!(d.roots(), vec![0]);
        assert_eq!(d.leaves(), vec![3]);
        assert_eq!(d.parents(3), &[1, 2]);
        assert_eq!(d.depth(), 2);
        assert_eq!(d.level(3), 0);
        assert_eq!(d.level(0), 2);
    }

    #[test]
    fn topo_order_is_valid() {
        let d = diamond();
        let topo = d.topo_order();
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (i, &v) in topo.iter().enumerate() {
                p[v as usize] = i;
            }
            p
        };
        for (p, c) in d.edges() {
            assert!(pos[p as usize] < pos[c as usize]);
        }
    }

    #[test]
    fn rejects_cycle() {
        assert_eq!(
            DagTopology::new(2, &[(0, 1), (1, 0)]).unwrap_err(),
            DagError::Cycle
        );
    }

    #[test]
    fn rejects_self_loop_dup_and_range() {
        assert_eq!(
            DagTopology::new(2, &[(0, 0)]).unwrap_err(),
            DagError::SelfLoop { node: 0 }
        );
        assert_eq!(
            DagTopology::new(2, &[(0, 1), (0, 1)]).unwrap_err(),
            DagError::DuplicateEdge {
                parent: 0,
                child: 1
            }
        );
        assert!(matches!(
            DagTopology::new(2, &[(0, 5)]).unwrap_err(),
            DagError::NodeOutOfRange { .. }
        ));
        assert_eq!(DagTopology::new(0, &[]).unwrap_err(), DagError::Empty);
    }

    #[test]
    fn critical_path_diamond() {
        let d = diamond();
        // work: 1, 10, 2, 5
        let cp = d.critical_path(&[1.0, 10.0, 2.0, 5.0]);
        assert_eq!(cp[3], 5.0);
        assert_eq!(cp[1], 15.0);
        assert_eq!(cp[2], 7.0);
        assert_eq!(cp[0], 16.0);
        assert_eq!(d.critical_path_len(&[1.0, 10.0, 2.0, 5.0]), 16.0);
    }

    #[test]
    fn descendants_and_chain() {
        let c = DagTopology::chain(4).unwrap();
        assert_eq!(c.descendants(0), vec![1, 2, 3]);
        assert_eq!(c.descendants(3), Vec::<u32>::new());
        assert_eq!(c.depth(), 3);
        let s = DagTopology::single();
        assert_eq!(s.len(), 1);
        assert_eq!(s.roots(), vec![0]);
    }
}
