//! Grid choices used by the baseline algorithms.

use crate::grid::{Grid, Problem};

/// 2D grid for SUMMA: `pr × pc` with `pr·pc` as large as possible (≤ P) and
/// minimizing the per-rank panel traffic `k·(m/pr + n/pc)`.
///
/// Returns `(pr, pc)`.
pub fn summa_grid(prob: &Problem) -> (usize, usize) {
    let p = prob.p;
    // For each pr use the largest pc = ⌊p/pr⌋; like ScaLAPACK, SUMMA wastes
    // P − pr·pc processes when P is awkward. Minimize per-rank panel
    // traffic m/pr + n/pc; break ties toward more active processes, then
    // deterministically toward smaller pr.
    let mut best: Option<(f64, std::cmp::Reverse<usize>, usize, usize)> = None;
    for pr in 1..=p {
        let pc = p / pr;
        if pc == 0 {
            break;
        }
        let cost = prob.m as f64 / pr as f64 + prob.n as f64 / pc as f64;
        let cand = (cost, std::cmp::Reverse(pr * pc), pr, pc);
        if best.is_none() || cand < best.unwrap() {
            best = Some(cand);
        }
    }
    let (_, _, pr, pc) = best.expect("P >= 1 always yields a grid");
    (pr, pc)
}

/// The original 3D algorithm (Agarwal et al. \[15\]) requires a cuboidal grid;
/// the classic formulation uses `q × q × q` with `q = ⌊P^(1/3)⌋` and leaves
/// the remaining processes idle.
pub fn cube_grid(p: usize) -> Grid {
    let mut q = (p as f64).cbrt().round() as usize;
    while q.pow(3) > p {
        q -= 1;
    }
    let q = q.max(1);
    Grid::new(q, q, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summa_square_matrix_gets_square_grid() {
        let (pr, pc) = summa_grid(&Problem::new(1000, 1000, 1000, 16));
        assert_eq!((pr, pc), (4, 4));
    }

    #[test]
    fn summa_tall_matrix_gets_tall_grid() {
        let (pr, pc) = summa_grid(&Problem::new(100_000, 100, 100, 16));
        assert!(pr > pc, "tall matrix should get tall grid: {pr}x{pc}");
    }

    #[test]
    fn summa_uses_at_most_p() {
        for p in 1..=30 {
            let (pr, pc) = summa_grid(&Problem::new(512, 512, 512, p));
            assert!(pr * pc <= p);
            assert!(pr * pc >= 1);
        }
    }

    #[test]
    fn cube_grid_floors() {
        assert_eq!(cube_grid(8), Grid::new(2, 2, 2));
        assert_eq!(cube_grid(27), Grid::new(3, 3, 3));
        assert_eq!(cube_grid(26), Grid::new(2, 2, 2));
        assert_eq!(cube_grid(1), Grid::new(1, 1, 1));
        assert_eq!(cube_grid(63), Grid::new(3, 3, 3));
        assert_eq!(cube_grid(64), Grid::new(4, 4, 4));
    }
}
