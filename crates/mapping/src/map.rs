//! Rank-permutation mappers: the lexicographic baseline and geometric
//! recursive bisection (arXiv 2005.09521's grouping strategy).
//!
//! All mappers return `perm[cartesian rank] = physical rank`; physical
//! ranks `[k·r, (k+1)·r)` share node `k` (see
//! [`netsim::hier::NodeShape`]). Feed the permutation to
//! [`netsim::CartTopo::with_permutation`] to remap a run.

use netsim::hier::NodeShape;
use netsim::CartTopo;

/// Which mapper a run uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MappingPolicy {
    /// Identity: cartesian rank `r` runs as physical rank `r` — MPI's
    /// default placement and the paper's baseline.
    #[default]
    Lex,
    /// Geometric recursive bisection into node-sized boxes.
    Bisect,
}

impl MappingPolicy {
    /// CLI/report label.
    pub fn label(&self) -> &'static str {
        match self {
            MappingPolicy::Lex => "lex",
            MappingPolicy::Bisect => "bisect",
        }
    }

    /// Parse a CLI argument.
    pub fn parse(s: &str) -> Option<MappingPolicy> {
        match s {
            "lex" => Some(MappingPolicy::Lex),
            "bisect" => Some(MappingPolicy::Bisect),
            _ => None,
        }
    }
}

/// The identity (lexicographic) mapping over `ranks` ranks.
pub fn lexicographic(ranks: usize) -> Vec<usize> {
    (0..ranks).collect()
}

/// Geometric recursive bisection: cut the cartesian grid along its
/// longest axis into two contiguous boxes (cut position rounded to a
/// node-capacity multiple so no node straddles the cut), recurse until
/// every part fits on one node, then number the parts in emission
/// order. Nearby grid positions land on the same node, so the node
/// surface — and with it the off-node byte volume — shrinks versus the
/// lexicographic slab grouping.
pub fn recursive_bisection(topo: &CartTopo, node: &NodeShape) -> Vec<usize> {
    let n = topo.size();
    let rpn = node.ranks_per_node();
    // (coords, cart rank) of every grid position.
    let cells: Vec<(Vec<usize>, usize)> = (0..n).map(|r| (topo.coords(r), r)).collect();
    let mut perm = vec![0usize; n];
    let mut next = 0usize;
    bisect(cells, rpn, &mut perm, &mut next);
    perm
}

fn bisect(mut cells: Vec<(Vec<usize>, usize)>, rpn: usize, perm: &mut [usize], next: &mut usize) {
    if cells.len() <= rpn {
        // One node's worth: order within the node is irrelevant to the
        // on/off-node split; keep cartesian order for determinism.
        cells.sort_by_key(|(_, r)| *r);
        for (_, r) in cells {
            perm[r] = *next;
            *next += 1;
        }
        return;
    }
    // Longest axis of this part's bounding box.
    let d = cells[0].0.len();
    let axis = (0..d)
        .max_by_key(|&a| {
            let lo = cells.iter().map(|(c, _)| c[a]).min().unwrap_or(0);
            let hi = cells.iter().map(|(c, _)| c[a]).max().unwrap_or(0);
            hi - lo
        })
        .unwrap_or(0);
    cells.sort_by(|(ca, ra), (cb, rb)| ca[axis].cmp(&cb[axis]).then(ra.cmp(rb)));
    // Balanced cut, snapped to a node-capacity multiple when possible.
    let half = cells.len() / 2;
    let mut cut = (half / rpn) * rpn;
    if cut == 0 {
        cut = half.max(1);
    }
    let rest = cells.split_off(cut);
    bisect(cells, rpn, perm, next);
    bisect(rest, rpn, perm, next);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{CommGraph, DirLoad};

    fn star_loads(d: usize) -> Vec<DirLoad> {
        let mut loads = Vec::new();
        for axis in 0..d {
            for sign in [-1i8, 1] {
                let mut trits = vec![0i8; d];
                trits[axis] = sign;
                loads.push(DirLoad { trits, msgs: 1, bytes: 1000 });
            }
        }
        loads
    }

    fn is_bijection(perm: &[usize]) -> bool {
        let mut seen = vec![false; perm.len()];
        perm.iter().all(|&p| {
            if p >= seen.len() || seen[p] {
                return false;
            }
            seen[p] = true;
            true
        })
    }

    #[test]
    fn policies_parse_and_label() {
        for p in [MappingPolicy::Lex, MappingPolicy::Bisect] {
            assert_eq!(MappingPolicy::parse(p.label()), Some(p));
        }
        assert_eq!(MappingPolicy::parse("magic"), None);
        assert_eq!(MappingPolicy::default(), MappingPolicy::Lex);
    }

    #[test]
    fn bisection_builds_compact_nodes() {
        // 8x8x8 torus, 8 ranks/node: lexicographic nodes are 8x1x1
        // rows (2 on-node face neighbors per cell, both along the
        // wrapped x axis); bisection finds 2x2x2 cubes (3 per cell).
        let topo = CartTopo::new(&[8, 8, 8], true);
        let node = NodeShape::new(8);
        let g = CommGraph::from_dir_loads(&topo, &star_loads(3));
        let bisect = recursive_bisection(&topo, &node);
        assert!(is_bijection(&bisect));
        let lex = lexicographic(512);
        let s_lex = g.split(&lex, &node);
        let s_bis = g.split(&bisect, &node);
        assert!(
            s_bis.off_bytes < s_lex.off_bytes,
            "bisection {} must beat lex {}",
            s_bis.off_bytes,
            s_lex.off_bytes
        );
        assert_eq!(s_bis.on_bytes, 512 * 3 * 1000);
        assert_eq!(s_lex.on_bytes, 512 * 2 * 1000);
    }

    #[test]
    fn bisection_handles_ragged_node_sizes() {
        let topo = CartTopo::new(&[3, 3], true);
        let node = NodeShape::new(4);
        let perm = recursive_bisection(&topo, &node);
        assert!(is_bijection(&perm));
    }
}
