//! Placement discovery, process ordering and execution planning
//! (paper §3.3.3–3.3.4, Tables 3.2 and 3.3).
//!
//! DMetabench cannot influence where MPI started its processes; it can only
//! *discover* the slot → node mapping, choose a master, order the workers
//! round-robin across nodes, and derive which (nodes × processes-per-node)
//! combinations are testable.

/// The process slots an MPI-style launcher provided: `slots[rank]` is the
/// hostname that rank runs on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MpiWorld {
    slots: Vec<String>,
}

impl MpiWorld {
    /// Build a world from per-rank hostnames.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is empty — at least a master and one worker are
    /// required for any benchmark, and one slot for the master alone.
    pub fn new(slots: Vec<String>) -> Self {
        assert!(!slots.is_empty(), "an MPI world needs at least one slot");
        MpiWorld { slots }
    }

    /// Convenience: `n` nodes named `nodeN` with `ppn` slots each — the
    /// `mpirun -np N` + hostfile idiom of listing 3.2.
    pub fn uniform(nodes: usize, ppn: usize) -> Self {
        let mut slots = Vec::with_capacity(nodes * ppn);
        for p in 0..ppn {
            for n in 0..nodes {
                let _ = p;
                slots.push(format!("node{n}"));
            }
        }
        MpiWorld { slots }
    }

    /// Per-rank hostnames.
    pub fn slots(&self) -> &[String] {
        &self.slots
    }

    /// Number of slots (MPI size).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` if the world has no slots (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// The discovered placement: master slot, nodes, and per-node worker ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Rank hosting the master process.
    pub master_rank: usize,
    /// Node names, in first-appearance order.
    pub node_names: Vec<String>,
    /// Worker ranks per node (same order as `node_names`), ascending.
    pub workers_by_node: Vec<Vec<usize>>,
}

impl Placement {
    /// Discover the placement from an MPI world.
    ///
    /// The master is placed on a node with the largest slot count (so the
    /// maximum per-node worker count is preserved, §3.3.4); all other slots
    /// become workers.
    pub fn discover(world: &MpiWorld) -> Placement {
        let mut node_names: Vec<String> = Vec::new();
        let mut slots_by_node: Vec<Vec<usize>> = Vec::new();
        for (rank, host) in world.slots().iter().enumerate() {
            match node_names.iter().position(|n| n == host) {
                Some(i) => slots_by_node[i].push(rank),
                None => {
                    node_names.push(host.clone());
                    slots_by_node.push(vec![rank]);
                }
            }
        }
        // master goes on (the first of) the node(s) with the most slots
        let busiest = slots_by_node
            .iter()
            .enumerate()
            .max_by_key(|(i, s)| (s.len(), usize::MAX - i))
            .map(|(i, _)| i)
            .expect("world is non-empty");
        let master_rank = slots_by_node[busiest][0];
        let workers_by_node: Vec<Vec<usize>> = slots_by_node
            .into_iter()
            .map(|ranks| ranks.into_iter().filter(|&r| r != master_rank).collect())
            .collect();
        Placement {
            master_rank,
            node_names,
            workers_by_node,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Largest number of workers available on any single node.
    pub fn max_ppn(&self) -> usize {
        self.workers_by_node.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The global worker order of Fig. 3.9: first one worker from each node
    /// (iterating nodes), then the second from each node, and so on. This
    /// order also matches per-process path lists to processes (§3.3.6).
    pub fn ordered_workers(&self) -> Vec<(usize, usize)> {
        // returns (rank, node_index)
        let mut out = Vec::new();
        let max = self.max_ppn();
        for round in 0..max {
            for (node, workers) in self.workers_by_node.iter().enumerate() {
                if let Some(&rank) = workers.get(round) {
                    out.push((rank, node));
                }
            }
        }
        out
    }

    /// Workers chosen for a `(nodes, ppn)` combination: the first `ppn`
    /// workers on each of the first `nodes` nodes that have at least `ppn`
    /// workers (Table 3.3). `None` if the combination is not satisfiable.
    pub fn select(&self, nodes: usize, ppn: usize) -> Option<Vec<(usize, usize)>> {
        let eligible: Vec<usize> = (0..self.node_count())
            .filter(|&n| self.workers_by_node[n].len() >= ppn)
            .collect();
        if eligible.len() < nodes || ppn == 0 || nodes == 0 {
            return None;
        }
        let mut out = Vec::with_capacity(nodes * ppn);
        for &n in eligible.iter().take(nodes) {
            for &rank in self.workers_by_node[n].iter().take(ppn) {
                out.push((rank, n));
            }
        }
        Some(out)
    }
}

/// One benchmark iteration of the master's nested loops (§3.3.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSpec {
    /// Number of nodes used.
    pub nodes: usize,
    /// Processes per node.
    pub ppn: usize,
    /// The participating `(rank, node_index)` pairs.
    pub workers: Vec<(usize, usize)>,
}

impl RunSpec {
    /// Total process count.
    pub fn total_processes(&self) -> usize {
        self.workers.len()
    }
}

/// Derive the execution plan — all testable `(ppn, nodes)` combinations,
/// honouring the step parameters of Table 3.4.
///
/// `node_step`/`ppn_step` of 1 test every value; a step of 5 tests
/// 1, 5, 10, 15, … (the paper's convention keeps 1 and then multiples of
/// the step).
///
/// # Panics
///
/// Panics if either step is zero.
pub fn execution_plan(placement: &Placement, node_step: usize, ppn_step: usize) -> Vec<RunSpec> {
    assert!(node_step > 0 && ppn_step > 0, "steps must be positive");
    let stepped = |max: usize, step: usize| -> Vec<usize> {
        let mut vals: Vec<usize> = Vec::new();
        let mut v = 1;
        while v <= max {
            vals.push(v);
            v = if v == 1 && step > 1 { step } else { v + step };
        }
        vals
    };
    let mut runs = Vec::new();
    for ppn in stepped(placement.max_ppn(), ppn_step) {
        let max_nodes = (0..placement.node_count())
            .filter(|&n| placement.workers_by_node[n].len() >= ppn)
            .count();
        for nodes in stepped(max_nodes, node_step) {
            if let Some(workers) = placement.select(nodes, ppn) {
                runs.push(RunSpec {
                    nodes,
                    ppn,
                    workers,
                });
            }
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sample configuration of Tables 3.2/3.3: nine processes, nodes
    /// A(2 workers after master), B(3), C(3).
    fn paper_world() -> MpiWorld {
        MpiWorld::new(vec![
            "B".into(), // rank 0 → master candidate: B has most slots
            "A".into(), // 1
            "A".into(), // 2
            "B".into(), // 3
            "B".into(), // 4
            "B".into(), // 5
            "C".into(), // 6
            "C".into(), // 7
            "C".into(), // 8
        ])
    }

    #[test]
    fn master_on_busiest_node() {
        let p = Placement::discover(&paper_world());
        // B has 4 slots — the most — and hosts rank 0, which becomes master
        assert_eq!(p.master_rank, 0);
        assert_eq!(p.node_names, vec!["B", "A", "C"]);
        assert_eq!(p.workers_by_node[0], vec![3, 4, 5]); // B
        assert_eq!(p.workers_by_node[1], vec![1, 2]); // A
        assert_eq!(p.workers_by_node[2], vec![6, 7, 8]); // C
        assert_eq!(p.max_ppn(), 3);
    }

    #[test]
    fn worker_ordering_round_robins_nodes() {
        let p = Placement::discover(&paper_world());
        let order: Vec<usize> = p.ordered_workers().iter().map(|&(r, _)| r).collect();
        // one from each node (B, A, C), then the next...
        assert_eq!(order, vec![3, 1, 6, 4, 2, 7, 5, 8]);
    }

    #[test]
    fn select_matches_table_3_3() {
        let p = Placement::discover(&paper_world());
        // Table 3.3 shape: 1 ppn on 1/2/3 nodes; 2 ppn on 1/2/3; 3 ppn on 1/2.
        let one_two = p.select(2, 1).unwrap();
        assert_eq!(one_two.len(), 2);
        let three_two = p.select(2, 3).unwrap();
        assert_eq!(three_two.len(), 6);
        // 3 ppn on 3 nodes is impossible (A has only 2 workers)
        assert_eq!(p.select(3, 3), None);
    }

    #[test]
    fn execution_plan_covers_all_combinations() {
        let p = Placement::discover(&paper_world());
        let plan = execution_plan(&p, 1, 1);
        let combos: Vec<(usize, usize)> = plan.iter().map(|r| (r.ppn, r.nodes)).collect();
        assert_eq!(
            combos,
            vec![
                (1, 1),
                (1, 2),
                (1, 3),
                (2, 1),
                (2, 2),
                (2, 3),
                (3, 1),
                (3, 2)
            ],
            "the eight combinations of Table 3.3"
        );
        for r in &plan {
            assert_eq!(r.total_processes(), r.nodes * r.ppn);
        }
    }

    #[test]
    fn step_parameters_reduce_combinations() {
        let w = MpiWorld::uniform(16, 1);
        // rank layout: all nodes 1 slot; master consumes one node's slot
        let p = Placement::discover(&w);
        let plan = execution_plan(&p, 5, 1);
        let node_counts: Vec<usize> = plan.iter().map(|r| r.nodes).collect();
        assert_eq!(node_counts, vec![1, 5, 10, 15], "1,5,10,15 as in §3.3.5");
    }

    #[test]
    fn uniform_world_layout() {
        let w = MpiWorld::uniform(3, 2);
        assert_eq!(w.len(), 6);
        let p = Placement::discover(&w);
        assert_eq!(p.node_count(), 3);
        // master took one slot of node0
        assert_eq!(p.max_ppn(), 2);
        let total: usize = p.workers_by_node.iter().map(Vec::len).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn single_slot_world_has_no_workers() {
        let w = MpiWorld::new(vec!["solo".into()]);
        let p = Placement::discover(&w);
        assert_eq!(p.master_rank, 0);
        assert_eq!(p.max_ppn(), 0);
        assert!(execution_plan(&p, 1, 1).is_empty());
    }
}
