//! The diffusion load balancer: each rank compares its harvested window
//! load against its ring neighbors and proposes to offload bricks until
//! the pairwise surplus is (at most) halved — the classic first-order
//! diffusion scheme, which needs only neighbor loads, no global view,
//! and provably converges geometrically on a ring.
//!
//! Everything here is pure: the proposal is a deterministic function of
//! the load signal, so two runs (or one run replayed through recovery)
//! that see the same windows propose the same moves.

/// One proposed migration: this rank hands `brick` to `dest`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Move {
    /// Global brick id to hand over.
    pub brick: u32,
    /// Receiving rank.
    pub dest: u32,
}

/// Propose bricks to offload to under-loaded ring neighbors.
///
/// `neighbors` is the ordered candidate list (right neighbor first,
/// then left; the caller deduplicates for tiny rings) with each
/// neighbor's own window load. `owned` carries `(brick, window cost)`
/// for every brick this rank owns. For each neighbor in order, if this
/// rank's remaining load exceeds the neighbor's by more than
/// `min_gain` (relative), bricks are picked costliest-first (ties by
/// ascending id — determinism) while the moved total stays within half
/// the surplus, so a pair never flips its imbalance by overshooting.
pub fn propose_moves(
    my_load: f64,
    neighbors: &[(u32, f64)],
    owned: &[(u32, f64)],
    min_gain: f64,
) -> Vec<Move> {
    let mut pool: Vec<(u32, f64)> =
        owned.iter().copied().filter(|&(_, c)| c > 0.0).collect();
    // Costliest first; brick id breaks ties so the order never depends
    // on map iteration quirks.
    pool.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0)));
    let mut moves = Vec::new();
    let mut load = my_load;
    for &(dest, nb_load) in neighbors {
        let surplus = load - nb_load;
        if surplus <= min_gain * load.max(f64::MIN_POSITIVE) {
            continue;
        }
        let budget = surplus / 2.0;
        let mut moved = 0.0;
        pool.retain(|&(brick, cost)| {
            if moved + cost <= budget {
                moved += cost;
                moves.push(Move { brick, dest });
                false
            } else {
                true
            }
        });
        load -= moved;
    }
    moves
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_ranks_propose_nothing() {
        let owned = [(0u32, 1.0), (1, 1.0)];
        assert!(propose_moves(2.0, &[(1, 2.0), (2, 2.0)], &owned, 0.05).is_empty());
    }

    #[test]
    fn surplus_moves_at_most_half_costliest_first() {
        // My load 8, neighbor 0: surplus 8, budget 4. Bricks cost
        // 3, 2, 2, 1 — greedy takes the 3, skips both 2s (3+2 > 4),
        // and tops up with the 1 to land exactly on the budget.
        let owned = [(10u32, 3.0), (11, 2.0), (12, 2.0), (13, 1.0)];
        let moves = propose_moves(8.0, &[(1, 0.0)], &owned, 0.05);
        assert_eq!(
            moves,
            vec![Move { brick: 10, dest: 1 }, Move { brick: 13, dest: 1 }]
        );
    }

    #[test]
    fn second_neighbor_sees_the_reduced_load() {
        // After shedding 4 to the right (load 8 → 4), the left neighbor
        // at 4 presents no surplus — nothing more moves.
        let owned = [(0u32, 4.0), (1, 4.0)];
        let moves = propose_moves(8.0, &[(1, 0.0), (2, 4.0)], &owned, 0.05);
        assert_eq!(moves, vec![Move { brick: 0, dest: 1 }]);
    }

    #[test]
    fn zero_cost_bricks_never_migrate() {
        let owned = [(0u32, 0.0), (1, 1.0), (2, 1.0), (3, 1.0)];
        let moves = propose_moves(3.0, &[(1, 0.0)], &owned, 0.05);
        // Surplus 3, budget 1.5: one unit brick moves; the idle brick 0
        // is never a candidate even though it is the lowest id.
        assert_eq!(moves, vec![Move { brick: 1, dest: 1 }]);
    }

    #[test]
    fn min_gain_suppresses_marginal_churn() {
        let owned = [(0u32, 1.0); 1];
        // Surplus 0.05 on load 1.0 is within the 10% dead band.
        assert!(propose_moves(1.0, &[(1, 0.95)], &owned, 0.1).is_empty());
    }
}
