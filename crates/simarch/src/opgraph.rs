//! Operation-dependency graphs and critical-path analysis (Fig. 4).
//!
//! Fig. 4 of the paper analyzes operator dependencies: in the pipelined
//! workloads (NVSA, VSAIT, PrAE) the symbolic stage *depends on* the
//! neural stage's output and therefore sits on the critical path; in the
//! compiled workloads (LNN, LTN, NLM, ZeroC) symbolic knowledge is
//! compiled into the neural structure and the phases interleave.
//! [`OpGraph`] is a DAG of operator nodes with durations; its analysis
//! yields critical-path length, per-phase critical-path share, and the
//! available parallelism (total work over critical path).

use nsai_core::taxonomy::Phase;
use serde::{Deserialize, Serialize};

/// Node identifier within an [`OpGraph`].
pub type NodeId = usize;

/// One operator (or fused stage) in the graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpNode {
    /// Display name.
    pub name: String,
    /// Phase attribution.
    pub phase: Phase,
    /// Execution time in seconds.
    pub duration_s: f64,
}

/// A DAG of operators with explicit dependencies.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OpGraph {
    nodes: Vec<OpNode>,
    /// Edges as (from, to): `to` cannot start before `from` finishes.
    edges: Vec<(NodeId, NodeId)>,
}

/// Results of analyzing an [`OpGraph`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpGraphStats {
    /// Length of the critical path in seconds.
    pub critical_path_s: f64,
    /// Sum of all node durations (serial work).
    pub total_work_s: f64,
    /// Seconds of the critical path spent in symbolic nodes.
    pub critical_symbolic_s: f64,
    /// Node names along the critical path, in order.
    pub critical_path: Vec<String>,
    /// Available parallelism: `total_work / critical_path` (≥ 1).
    pub parallelism: f64,
}

impl OpGraphStats {
    /// Fraction of the critical path spent in symbolic nodes, in `[0, 1]`.
    pub fn symbolic_critical_fraction(&self) -> f64 {
        if self.critical_path_s <= 0.0 {
            0.0
        } else {
            self.critical_symbolic_s / self.critical_path_s
        }
    }
}

impl OpGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node, returning its id.
    pub fn add_node(&mut self, name: impl Into<String>, phase: Phase, duration_s: f64) -> NodeId {
        self.nodes.push(OpNode {
            name: name.into(),
            phase,
            duration_s: duration_s.max(0.0),
        });
        self.nodes.len() - 1
    }

    /// Add a dependency edge `from → to`.
    ///
    /// # Panics
    ///
    /// Panics when either id is out of range or the edge is a self-loop.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) {
        assert!(
            from < self.nodes.len() && to < self.nodes.len(),
            "node id out of range"
        );
        assert_ne!(from, to, "self-loops are not allowed");
        self.edges.push((from, to));
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Topological order of node ids.
    ///
    /// # Panics
    ///
    /// Panics if the graph contains a cycle (construction via `add_edge`
    /// with increasing ids cannot create one).
    fn topo_order(&self) -> Vec<NodeId> {
        let n = self.nodes.len();
        let mut indegree = vec![0usize; n];
        let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for &(from, to) in &self.edges {
            indegree[to] += 1;
            adj[from].push(to);
        }
        let mut queue: Vec<NodeId> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = queue.pop() {
            order.push(u);
            for &v in &adj[u] {
                indegree[v] -= 1;
                if indegree[v] == 0 {
                    queue.push(v);
                }
            }
        }
        assert_eq!(order.len(), n, "operation graph contains a cycle");
        order
    }

    /// Longest-path (critical-path) analysis.
    pub fn analyze(&self) -> OpGraphStats {
        if self.nodes.is_empty() {
            return OpGraphStats {
                critical_path_s: 0.0,
                total_work_s: 0.0,
                critical_symbolic_s: 0.0,
                critical_path: Vec::new(),
                parallelism: 1.0,
            };
        }
        let n = self.nodes.len();
        let order = self.topo_order();
        // finish[v] = earliest finish time; pred[v] = predecessor on the
        // longest path.
        let mut finish = vec![0.0f64; n];
        let mut pred: Vec<Option<NodeId>> = vec![None; n];
        let mut preds_of: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for &(from, to) in &self.edges {
            preds_of[to].push(from);
        }
        for &v in &order {
            let mut start = 0.0f64;
            for &p in &preds_of[v] {
                if finish[p] > start {
                    start = finish[p];
                    pred[v] = Some(p);
                }
            }
            finish[v] = start + self.nodes[v].duration_s;
        }
        let (mut end, mut best) = (0usize, f64::NEG_INFINITY);
        for (v, &f) in finish.iter().enumerate() {
            if f > best {
                best = f;
                end = v;
            }
        }
        // Walk the path back.
        let mut path_ids = vec![end];
        while let Some(p) = pred[*path_ids.last().expect("non-empty")] {
            path_ids.push(p);
        }
        path_ids.reverse();
        let critical_symbolic_s = path_ids
            .iter()
            .filter(|&&v| self.nodes[v].phase == Phase::Symbolic)
            .map(|&v| self.nodes[v].duration_s)
            .sum();
        let total_work_s: f64 = self.nodes.iter().map(|nd| nd.duration_s).sum();
        OpGraphStats {
            critical_path_s: best,
            total_work_s,
            critical_symbolic_s,
            critical_path: path_ids
                .iter()
                .map(|&v| self.nodes[v].name.clone())
                .collect(),
            parallelism: if best > 0.0 { total_work_s / best } else { 1.0 },
        }
    }

    /// Build the canonical **pipelined** structure (NVSA/VSAIT/PrAE):
    /// neural stage, a host-to-device style transfer, then a chain of
    /// sequential symbolic stages — the symbolic chain depends on the
    /// neural result (Takeaway 5).
    pub fn pipelined(neural_s: f64, transfer_s: f64, symbolic_stages: &[(&str, f64)]) -> OpGraph {
        let mut g = OpGraph::new();
        let neural = g.add_node("neural_frontend", Phase::Neural, neural_s);
        let xfer = g.add_node("stage_transfer", Phase::Symbolic, transfer_s);
        g.add_edge(neural, xfer);
        let mut prev = xfer;
        for (name, dur) in symbolic_stages {
            let node = g.add_node(*name, Phase::Symbolic, *dur);
            g.add_edge(prev, node);
            prev = node;
        }
        g
    }

    /// Build the canonical **compiled-in** structure (LNN/LTN/NLM/ZeroC):
    /// alternating neural/symbolic layers where each symbolic step is
    /// compiled against the matching neural step's output.
    pub fn compiled(layers: &[(f64, f64)]) -> OpGraph {
        let mut g = OpGraph::new();
        let mut prev: Option<NodeId> = None;
        for (i, &(neural_s, symbolic_s)) in layers.iter().enumerate() {
            let nn = g.add_node(format!("neural_layer_{i}"), Phase::Neural, neural_s);
            if let Some(p) = prev {
                g.add_edge(p, nn);
            }
            let sy = g.add_node(format!("symbolic_layer_{i}"), Phase::Symbolic, symbolic_s);
            g.add_edge(nn, sy);
            prev = Some(sy);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_stats() {
        let mut g = OpGraph::new();
        g.add_node("only", Phase::Neural, 2.0);
        let s = g.analyze();
        assert_eq!(s.critical_path_s, 2.0);
        assert_eq!(s.total_work_s, 2.0);
        assert_eq!(s.parallelism, 1.0);
        assert_eq!(s.critical_path, vec!["only"]);
    }

    #[test]
    fn diamond_takes_longest_branch() {
        let mut g = OpGraph::new();
        let a = g.add_node("a", Phase::Neural, 1.0);
        let fast = g.add_node("fast", Phase::Neural, 1.0);
        let slow = g.add_node("slow", Phase::Symbolic, 5.0);
        let d = g.add_node("d", Phase::Symbolic, 1.0);
        g.add_edge(a, fast);
        g.add_edge(a, slow);
        g.add_edge(fast, d);
        g.add_edge(slow, d);
        let s = g.analyze();
        assert_eq!(s.critical_path_s, 7.0);
        assert_eq!(s.critical_path, vec!["a", "slow", "d"]);
        assert!((s.parallelism - 8.0 / 7.0).abs() < 1e-12);
        assert!((s.symbolic_critical_fraction() - 6.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn pipelined_graph_is_fully_serial() {
        let g = OpGraph::pipelined(1.0, 0.5, &[("scene_infer", 2.0), ("rule_detect", 4.0)]);
        let s = g.analyze();
        assert!((s.critical_path_s - 7.5).abs() < 1e-12);
        // No parallelism: symbolic depends on neural.
        assert!((s.parallelism - 1.0).abs() < 1e-12);
        // Symbolic dominates the critical path.
        assert!(s.symbolic_critical_fraction() > 0.8);
    }

    #[test]
    fn compiled_graph_interleaves_phases() {
        let g = OpGraph::compiled(&[(1.0, 0.5), (1.0, 0.5)]);
        let s = g.analyze();
        assert!((s.critical_path_s - 3.0).abs() < 1e-12);
        assert_eq!(g.len(), 4);
        assert!((s.symbolic_critical_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_is_benign() {
        let s = OpGraph::new().analyze();
        assert_eq!(s.critical_path_s, 0.0);
        assert_eq!(s.symbolic_critical_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let mut g = OpGraph::new();
        let a = g.add_node("a", Phase::Neural, 1.0);
        g.add_edge(a, a);
    }

    #[test]
    fn negative_durations_clamp_to_zero() {
        let mut g = OpGraph::new();
        g.add_node("weird", Phase::Neural, -3.0);
        assert_eq!(g.analyze().total_work_s, 0.0);
    }
}
