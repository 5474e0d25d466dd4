//! Per-rank communication-volume graph and its evaluation under a
//! node grouping.
//!
//! The graph of a run is a view of what its ranks bound: every message
//! of every rank's exchange plans, as `(destination, payload bytes)`
//! ([`CommGraph::from_sends`]) — whatever the method and however many
//! messages it cuts its halo into. A model-side sweep that runs nothing builds the same
//! graph from decomp adjacency plus a layout's schedule instead: every
//! rank sends the same per-direction message runs (the torus is
//! translation-invariant), so the whole graph is determined by one
//! rank's [`DirLoad`] table — `(direction, messages, bytes)` per
//! neighbor offset — replicated through the Cartesian topology
//! ([`CommGraph::from_dir_loads`]). Edges are *directed sends* on
//! **cartesian** ranks; a mapping permutation is evaluated against the
//! graph, never baked into it.

use layout::{all_regions, SurfaceLayout};
use netsim::hier::{HierarchicalNetworkModel, NodeShape};
use netsim::CartTopo;

/// One neighbor direction's share of a rank's exchange schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirLoad {
    /// Per-axis offset to the receiving neighbor (`-1`/`0`/`+1`).
    pub trits: Vec<i8>,
    /// Messages sent to that neighbor per exchange.
    pub msgs: u64,
    /// Payload bytes sent to that neighbor per exchange.
    pub bytes: u64,
}

/// Exchange-schedule loads induced by `layout` on a subdomain of
/// `extents` elements per axis with `ghost`-deep ghost zones: one
/// [`DirLoad`] per neighbor direction, messages = contiguous runs,
/// bytes = sent region volumes.
pub fn schedule_loads(
    layout: &SurfaceLayout,
    extents: &[usize],
    ghost: usize,
    elem_bytes: u64,
) -> Vec<DirLoad> {
    let d = layout.dims();
    assert_eq!(extents.len(), d, "one extent per layout dimension");
    all_regions(d)
        .into_iter()
        .map(|s| {
            let msgs = layout.runs_for_neighbor(&s).len() as u64;
            let bytes: u64 = layout
                .send_set(&s)
                .into_iter()
                .map(|t| {
                    (0..d)
                        .map(|a| if t.axis(a) != 0 { ghost as u64 } else { extents[a] as u64 })
                        .product::<u64>()
                        * elem_bytes
                })
                .sum();
            DirLoad { trits: s.offsets(d), msgs, bytes }
        })
        .collect()
}

/// Directed communication-volume graph over cartesian ranks.
#[derive(Clone, Debug)]
pub struct CommGraph {
    ranks: usize,
    /// Per cartesian rank: `(peer cart rank, bytes, msgs)`, self-edges
    /// excluded (loopbacks stay on-node under every mapping, so they
    /// cannot distinguish mappings).
    adj: Vec<Vec<(usize, u64, u64)>>,
}

/// On-node vs off-node split of the graph's traffic under one mapping.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficSplit {
    /// Bytes whose endpoints share a node.
    pub on_bytes: u64,
    /// Bytes crossing the fabric.
    pub off_bytes: u64,
    /// Messages whose endpoints share a node.
    pub on_msgs: u64,
    /// Messages crossing the fabric.
    pub off_msgs: u64,
}

impl TrafficSplit {
    /// Fraction of bytes kept on-node (`0.0` when the graph is empty).
    pub fn on_node_fraction(&self) -> f64 {
        let total = self.on_bytes + self.off_bytes;
        if total == 0 {
            return 0.0;
        }
        self.on_bytes as f64 / total as f64
    }
}

impl CommGraph {
    /// Replicate one rank's per-direction loads through `topo`
    /// (unpermuted: the graph lives on cartesian ranks). Directions
    /// that cross a non-periodic boundary or loop back to the sender
    /// contribute nothing.
    pub fn from_dir_loads(topo: &CartTopo, loads: &[DirLoad]) -> CommGraph {
        assert!(!topo.is_permuted(), "comm graph is extracted on cartesian ranks");
        let ranks = topo.size();
        let mut adj = vec![Vec::with_capacity(loads.len()); ranks];
        for (r, edges) in adj.iter_mut().enumerate() {
            for l in loads {
                if l.msgs == 0 && l.bytes == 0 {
                    continue;
                }
                match topo.neighbor(r, &l.trits) {
                    Some(p) if p != r => edges.push((p, l.bytes, l.msgs)),
                    _ => {}
                }
            }
        }
        CommGraph { ranks, adj }
    }

    /// The graph a run bound: `sent[p]` lists the `(destination, payload
    /// bytes)` of every message physical rank `p` sends per exchange,
    /// destinations physical too, under the mapping `perm[cartesian rank]
    /// = physical rank` the run used. Self-sends contribute nothing, as
    /// in [`CommGraph::from_dir_loads`].
    pub fn from_sends(perm: &[usize], sent: &[Vec<(usize, u64)>]) -> CommGraph {
        assert_eq!(perm.len(), sent.len(), "one send list per rank");
        let mut cart_of = vec![0usize; perm.len()];
        for (cart, &phys) in perm.iter().enumerate() {
            cart_of[phys] = cart;
        }
        let row = |&phys: &usize| {
            let peers = sent[phys].iter().filter(|&&(dest, _)| dest != phys);
            peers.map(|&(dest, bytes)| (cart_of[dest], bytes, 1)).collect()
        };
        CommGraph { ranks: perm.len(), adj: perm.iter().map(row).collect() }
    }

    /// Number of ranks (graph vertices).
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Total directed traffic volume between `a` and `b` (both ways).
    #[cfg(test)]
    pub fn volume_between(&self, a: usize, b: usize) -> u64 {
        let one = |u: usize, v: usize| {
            self.adj[u].iter().filter(|&&(p, _, _)| p == v).map(|&(_, b, _)| b).sum::<u64>()
        };
        one(a, b) + one(b, a)
    }

    /// Per-rank total send volume in bytes.
    #[cfg(test)]
    pub fn send_volume(&self, rank: usize) -> u64 {
        self.adj[rank].iter().map(|&(_, b, _)| b).sum()
    }

    /// Split the traffic by node locality under `perm`
    /// (`perm[cart] = phys`) and the `node` grouping.
    pub fn split(&self, perm: &[usize], node: &NodeShape) -> TrafficSplit {
        assert_eq!(perm.len(), self.ranks);
        let mut s = TrafficSplit::default();
        for (u, edges) in self.adj.iter().enumerate() {
            for &(v, bytes, msgs) in edges {
                if node.same_node(perm[u], perm[v]) {
                    s.on_bytes += bytes;
                    s.on_msgs += msgs;
                } else {
                    s.off_bytes += bytes;
                    s.off_msgs += msgs;
                }
            }
        }
        s
    }

    /// Modeled bottleneck exchange time under `perm` and the
    /// hierarchical model: each rank posts its sends and waits on both
    /// tiers (mirroring `RankCtx` epoch billing); the slowest rank is
    /// the exchange.
    pub fn modeled_time(&self, perm: &[usize], hier: &HierarchicalNetworkModel) -> f64 {
        assert_eq!(perm.len(), self.ranks);
        let mut worst = 0.0f64;
        for (u, edges) in self.adj.iter().enumerate() {
            let (mut m_on, mut b_on, mut m_off, mut b_off) = (0usize, 0usize, 0usize, 0usize);
            for &(v, bytes, msgs) in edges {
                if hier.node.same_node(perm[u], perm[v]) {
                    m_on += msgs as usize;
                    b_on += bytes as usize;
                } else {
                    m_off += msgs as usize;
                    b_off += bytes as usize;
                }
            }
            let t = hier.intra.exchange_time(m_on, b_on) + hier.inter.exchange_time(m_off, b_off);
            worst = worst.max(t);
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star_loads() -> Vec<DirLoad> {
        // Face neighbors only, 1 message x 100 bytes each.
        let mut loads = Vec::new();
        for axis in 0..3 {
            for sign in [-1i8, 1] {
                let mut trits = vec![0i8; 3];
                trits[axis] = sign;
                loads.push(DirLoad { trits, msgs: 1, bytes: 100 });
            }
        }
        loads
    }

    #[test]
    fn schedule_loads_match_layout_counts() {
        let l = layout::surface3d();
        let loads = schedule_loads(&l, &[16; 3], 1, 8);
        assert_eq!(loads.len(), 26);
        let msgs: u64 = loads.iter().map(|l| l.msgs).sum();
        assert_eq!(msgs, l.message_count());
        // Total bytes = every region counted once per neighbor it goes
        // to; a face region (one signed axis) has volume 16*16*1.
        let face = loads
            .iter()
            .find(|l| l.trits.iter().filter(|&&t| t != 0).count() == 1)
            .unwrap();
        assert!(face.bytes >= 16 * 16 * 8, "face load includes its 256-elem region");
    }

    #[test]
    fn graph_replicates_loads_over_the_torus() {
        let topo = CartTopo::new(&[2, 2, 2], true);
        let g = CommGraph::from_dir_loads(&topo, &star_loads());
        assert_eq!(g.ranks(), 8);
        // Extent-2 periodic axes: +1 and -1 reach the same peer, so
        // each rank sends 6 messages to 3 distinct peers.
        assert_eq!(g.send_volume(0), 600);
        assert_eq!(g.volume_between(0, 1), 400, "two sends each way along axis 0");
    }

    #[test]
    fn extent_one_axes_drop_self_edges() {
        let topo = CartTopo::new(&[1, 1, 1], true);
        let g = CommGraph::from_dir_loads(&topo, &star_loads());
        assert_eq!(g.send_volume(0), 0, "pure loopback traffic is mapping-blind");
    }

    /// A graph built from what ranks bound, under a permutation, is the
    /// graph of the same traffic on cartesian ranks.
    #[test]
    fn bound_sends_under_a_permutation_give_the_cartesian_graph() {
        let topo = CartTopo::new(&[4], true);
        let loads = vec![
            DirLoad { trits: vec![1], msgs: 1, bytes: 10 },
            DirLoad { trits: vec![-1], msgs: 1, bytes: 30 },
        ];
        let want = CommGraph::from_dir_loads(&topo, &loads);
        // perm[cart] = phys; each physical rank sends what its cartesian
        // position sends, to the physical ranks of the neighbours, plus a
        // self-send the graph must ignore.
        let perm = [2usize, 0, 3, 1];
        let mut sent = vec![Vec::new(); 4];
        for cart in 0..4 {
            let phys = perm[cart];
            sent[phys] = vec![(perm[(cart + 1) % 4], 10), (perm[(cart + 3) % 4], 30), (phys, 7)];
        }
        let got = CommGraph::from_sends(&perm, &sent);
        for a in 0..4 {
            assert_eq!(got.send_volume(a), 40);
            for b in 0..4 {
                assert_eq!(got.volume_between(a, b), want.volume_between(a, b), "{a} <-> {b}");
            }
        }
        let node = NodeShape::new(2);
        assert_eq!(got.split(&perm, &node), want.split(&perm, &node));
    }

    #[test]
    fn split_counts_locality_under_a_permutation() {
        let topo = CartTopo::new(&[4], true);
        let loads = vec![
            DirLoad { trits: vec![1], msgs: 1, bytes: 10 },
            DirLoad { trits: vec![-1], msgs: 1, bytes: 10 },
        ];
        let g = CommGraph::from_dir_loads(&topo, &loads);
        let node = NodeShape::new(2);
        // Identity: nodes {0,1},{2,3}; ring edges 0-1 and 2-3 on-node,
        // 1-2 and 3-0 off-node; each undirected pair carries 2 sends.
        let id: Vec<usize> = (0..4).collect();
        let s = g.split(&id, &node);
        assert_eq!(s.on_bytes, 40);
        assert_eq!(s.off_bytes, 40);
        assert_eq!(s.on_msgs + s.off_msgs, 8);
        // Swapping ranks 1 and 2 makes the grouping {0,2},{1,3}: every
        // ring edge now crosses nodes.
        let s2 = g.split(&[0, 2, 1, 3], &node);
        assert_eq!(s2.on_bytes, 0);
        assert_eq!(s2.off_bytes, 80);
        assert!(s.on_node_fraction() > s2.on_node_fraction());
    }

    #[test]
    fn modeled_time_rewards_on_node_traffic() {
        let topo = CartTopo::new(&[4], true);
        let loads = vec![
            DirLoad { trits: vec![1], msgs: 2, bytes: 1 << 16 },
            DirLoad { trits: vec![-1], msgs: 2, bytes: 1 << 16 },
        ];
        let g = CommGraph::from_dir_loads(&topo, &loads);
        let hier = HierarchicalNetworkModel::dragonfly(2);
        let id: Vec<usize> = (0..4).collect();
        let good = g.modeled_time(&id, &hier);
        let bad = g.modeled_time(&[0, 2, 1, 3], &hier);
        assert!(good < bad, "keeping ring neighbors on-node must be faster");
        // And both beat nothing: a flat model ignores the mapping.
        let flat = HierarchicalNetworkModel::flat(netsim::NetworkModel::theta_aries());
        assert_eq!(g.modeled_time(&id, &flat), g.modeled_time(&[0, 2, 1, 3], &flat));
    }
}
