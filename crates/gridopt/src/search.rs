//! The CA3DMM / COSMA grid searches.

use crate::grid::{Grid, GridChoice, Problem};

/// The paper's default utilization floor `l = 0.95` (eq. 5): at least 95 %
/// of processes must be active.
pub const DEFAULT_UTILIZATION_FLOOR: f64 = 0.95;

/// The feasible `pk` values for a fixed `(pm, pn)`: `pk` must keep the
/// product within `[floor(l·P), P]`. The whole (short) range is scanned; it
/// is at most `~(1-l)·P/(pm·pn)+1` values.
///
/// Floor (not ceiling) semantics on `l·P` match the paper's own Example 3:
/// with `P = 17` and `l = 0.95`, the chosen grid uses 16 processes even
/// though `16 < ⌈0.95·17⌉ = 17`.
fn feasible_pk(p: usize, floor: f64, pm: usize, pn: usize) -> std::ops::RangeInclusive<usize> {
    let base = pm * pn;
    let hi = p / base;
    let lo_target = (floor * p as f64).floor() as usize;
    let lo = lo_target.div_ceil(base.max(1)).max(1);
    lo..=hi // empty when lo > hi
}

/// Enumerates the feasible `(pm, pn)` pairs and hands each feasible grid to
/// `consider`.
fn enumerate(p: usize, floor: f64, require_cannon: bool, mut consider: impl FnMut(Grid)) {
    for pm in 1..=p {
        let mut visit = |pn: usize| {
            for pk in feasible_pk(p, floor, pm, pn) {
                consider(Grid::new(pm, pn, pk));
            }
        };
        if require_cannon {
            // pn must be a multiple of pm …
            let mut pn = pm;
            while pm * pn <= p {
                visit(pn);
                pn += pm;
            }
            // … or a proper divisor of pm (eq. 7), found in O(√pm).
            let mut d = 1;
            while d * d <= pm {
                if pm % d == 0 {
                    if d < pm && pm * d <= p {
                        visit(d);
                    }
                    let q = pm / d;
                    if q < pm && q != d && pm * q <= p {
                        visit(q);
                    }
                }
                d += 1;
            }
        } else {
            for pn in 1..=p / pm {
                visit(pn);
            }
        }
    }
}

/// Two-pass search implementing the paper's objectives as the artifact
/// applies them.
///
/// The paper states: minimize eq. 4 subject to eq. 5 (+ eq. 7 for CA3DMM),
/// with eq. 6 (maximize utilization) at lower priority. Applied literally,
/// that contradicts the artifact's observed choices: at `P = 2048`,
/// `m=n=k=50000`, the grid `13×13×12` (2028 active, surface ∝ 38) beats the
/// reported `8×16×16` (2048 active, surface ∝ 40). The behaviour consistent
/// with *all* of the paper's data points (Examples 1–3 and both Table II
/// process counts) is: find the minimum surface `S*` over the feasible set,
/// then among grids with `S_total ≤ S*/l` (surface may be traded for
/// utilization by the same factor `l` that bounds idle processes) pick the
/// one maximizing active processes, breaking ties by smaller surface. See
/// DESIGN.md.
fn search(prob: &Problem, floor: f64, require_cannon: bool) -> GridChoice {
    let p = prob.p;
    assert!(p >= 1, "need at least one process");
    assert!(
        (0.0..=1.0).contains(&floor),
        "utilization floor must be in [0,1]"
    );
    // Pass 1: minimum surface over the feasible set.
    let mut s_min: Option<u128> = None;
    enumerate(p, floor, require_cannon, |g| {
        let s = g.surface(prob.m, prob.n, prob.k);
        s_min = Some(s_min.map_or(s, |cur| cur.min(s)));
    });
    let s_min = s_min.expect("grid search found no feasible grid");
    // Threshold S*/l, computed in integer arithmetic to stay exact:
    // accept s when s * l <= s_min, i.e. s * (l_num) <= s_min * l_den with
    // l = l_num/l_den approximated at 1e-9 resolution.
    let l_num = (floor * 1e9).round() as u128;
    let l_den = 1_000_000_000u128;
    let within = |s: u128| {
        if floor <= 0.0 {
            true
        } else {
            s.saturating_mul(l_num) <= s_min.saturating_mul(l_den)
        }
    };
    // Pass 2: maximize utilization among surfaces within the threshold.
    let mut best: Option<(u128, Grid)> = None;
    enumerate(p, floor, require_cannon, |g| {
        let s = g.surface(prob.m, prob.n, prob.k);
        if !within(s) {
            return;
        }
        let cand = (s, g);
        let replace = match &best {
            None => true,
            Some(cur) => {
                let (sb, gb) = cur;
                // utilization first, then surface, then deterministic ties
                (std::cmp::Reverse(g.active()), s, g.pk, g.pm)
                    < (std::cmp::Reverse(gb.active()), *sb, gb.pk, gb.pm)
            }
        };
        if replace {
            best = Some(cand);
        }
    });
    let (s_total, grid) = best.expect("grid search found no feasible grid");
    GridChoice { grid, s_total }
}

/// The CA3DMM grid (Algorithm 1 step 1): minimizes eq. 4 under eq. 5 and the
/// Cannon constraint eq. 7, maximizing utilization (eq. 6) among equals.
pub fn ca3dmm_grid(prob: &Problem, floor: f64) -> GridChoice {
    search(prob, floor, true)
}

/// The grid the COSMA source code uses (§III-C): the same search *without*
/// the Cannon constraint.
pub fn cosma_grid(prob: &Problem, floor: f64) -> GridChoice {
    search(prob, floor, false)
}

/// Exhaustive reference search over *all* triples with `pm·pn·pk ≤ P` —
/// exponentially simpler to audit, used by property tests to validate
/// [`ca3dmm_grid`] / [`cosma_grid`]. Only usable for small `P`.
pub fn brute_force_grid(prob: &Problem, floor: f64, require_cannon: bool) -> GridChoice {
    let p = prob.p;
    let lo = ((floor * p as f64).floor() as usize).max(1);
    let mut feasible: Vec<(u128, Grid)> = Vec::new();
    for pm in 1..=p {
        for pn in 1..=p / pm {
            for pk in 1..=p / (pm * pn) {
                let g = Grid::new(pm, pn, pk);
                if g.active() < lo {
                    continue;
                }
                if require_cannon && !g.cannon_compatible() {
                    continue;
                }
                feasible.push((g.surface(prob.m, prob.n, prob.k), g));
            }
        }
    }
    let s_min = feasible
        .iter()
        .map(|&(s, _)| s)
        .min()
        .expect("brute force found no feasible grid");
    let l_num = (floor * 1e9).round() as u128;
    let mut best: Option<(u128, Grid)> = None;
    for cand in feasible {
        let (s, g) = cand;
        if floor > 0.0 && s.saturating_mul(l_num) > s_min.saturating_mul(1_000_000_000) {
            continue;
        }
        let replace = match &best {
            None => true,
            Some((sb, gb)) => {
                (std::cmp::Reverse(g.active()), s, g.pk, g.pm)
                    < (std::cmp::Reverse(gb.active()), *sb, gb.pk, gb.pm)
            }
        };
        if replace {
            best = Some(cand);
        }
    }
    let (s_total, grid) = best.expect("brute force found no feasible grid");
    GridChoice { grid, s_total }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_of(m: usize, n: usize, k: usize, p: usize) -> Grid {
        ca3dmm_grid(&Problem::new(m, n, k, p), DEFAULT_UTILIZATION_FLOOR).grid
    }

    #[test]
    fn paper_example_1() {
        // m=32, k=16, n=64, P=8 -> pm=2, pk=1, pn=4 (§III-B Example 1)
        assert_eq!(grid_of(32, 64, 16, 8), Grid::new(2, 4, 1));
    }

    #[test]
    fn paper_example_2() {
        // m=n=32, k=64, P=16 -> pm=pn=2, pk=4 (§III-B Example 2)
        assert_eq!(grid_of(32, 32, 64, 16), Grid::new(2, 2, 4));
    }

    #[test]
    fn paper_example_3_idle_process() {
        // m=n=32, k=64, P=17 -> same grid as P=16; one process idle
        let choice = ca3dmm_grid(&Problem::new(32, 32, 64, 17), DEFAULT_UTILIZATION_FLOOR);
        assert_eq!(choice.grid, Grid::new(2, 2, 4));
        assert!(choice.utilization(17) < 1.0);
        assert!(choice.utilization(17) >= 0.94);
    }

    #[test]
    fn degenerate_shapes_fall_back_to_1d_or_2d() {
        // k=1 (rank-1 update): no k parallelism wanted
        let g = grid_of(64, 64, 1, 16);
        assert_eq!(g.pk, 1);
        // n=1 (matrix-vector): pn must be 1
        let g = grid_of(4096, 1, 4096, 8);
        assert_eq!(g.pn, 1);
        // m=n=1 (inner product): 1D k-partition
        let g = grid_of(1, 1, 65536, 8);
        assert_eq!((g.pm, g.pn, g.pk), (1, 1, 8));
    }

    #[test]
    fn tall_skinny_uses_1d() {
        // large-K: m=n << k -> mostly pk
        let g = grid_of(600, 600, 120_000, 64);
        assert!(g.pk >= 16, "large-K should parallelize k: {g:?}");
        // large-M: m >> n=k -> mostly pm
        let g = grid_of(120_000, 600, 600, 64);
        assert!(g.pm >= 16, "large-M should parallelize m: {g:?}");
    }

    #[test]
    fn square_uses_balanced_3d() {
        let g = grid_of(4096, 4096, 4096, 64);
        assert_eq!((g.pm, g.pn, g.pk), (4, 4, 4));
    }

    #[test]
    fn single_process() {
        assert_eq!(grid_of(100, 100, 100, 1), Grid::new(1, 1, 1));
    }

    #[test]
    fn prime_process_count_leaves_idle() {
        let choice = ca3dmm_grid(
            &Problem::new(1000, 1000, 1000, 13),
            DEFAULT_UTILIZATION_FLOOR,
        );
        // 13 is prime; a good 3D grid can't use all 13
        assert!(choice.grid.active() <= 13);
        assert!(choice.grid.active() >= 13 - 1); // floor 0.95*13 = 12.35 -> >= 13? ceil = 13
    }

    #[test]
    fn always_satisfies_constraints() {
        for p in 1..=40 {
            for &(m, n, k) in &[(64, 64, 64), (1000, 10, 10), (7, 1000, 13)] {
                let choice = ca3dmm_grid(&Problem::new(m, n, k, p), DEFAULT_UTILIZATION_FLOOR);
                let g = choice.grid;
                assert!(g.cannon_compatible(), "eq.7 violated for p={p} {g:?}");
                assert!(g.active() <= p, "too many active for p={p}");
                assert!(
                    g.active() >= (0.95 * p as f64).floor() as usize,
                    "utilization too low for p={p}: {g:?}"
                );
            }
        }
    }

    #[test]
    fn matches_brute_force_small() {
        for p in [1usize, 2, 3, 6, 8, 12, 16, 17, 24] {
            for &(m, n, k) in &[(32, 64, 16), (50, 50, 50), (6, 6, 1200), (100, 100, 5)] {
                let prob = Problem::new(m, n, k, p);
                let fast = ca3dmm_grid(&prob, DEFAULT_UTILIZATION_FLOOR);
                let slow = brute_force_grid(&prob, DEFAULT_UTILIZATION_FLOOR, true);
                assert_eq!(fast.grid, slow.grid, "p={p} m={m} n={n} k={k}");
                let fast = cosma_grid(&prob, DEFAULT_UTILIZATION_FLOOR);
                let slow = brute_force_grid(&prob, DEFAULT_UTILIZATION_FLOOR, false);
                assert_eq!(fast.grid, slow.grid, "cosma p={p} m={m} n={n} k={k}");
            }
        }
    }

    #[test]
    fn cosma_grid_never_worse_than_ca3dmm() {
        // Dropping constraint (7) can only improve (or match) S_total.
        for p in [4usize, 12, 18, 23, 48] {
            for &(m, n, k) in &[(50, 50, 50), (6, 6, 1200), (100, 100, 5), (31, 17, 97)] {
                let prob = Problem::new(m, n, k, p);
                let with = ca3dmm_grid(&prob, DEFAULT_UTILIZATION_FLOOR);
                let without = cosma_grid(&prob, DEFAULT_UTILIZATION_FLOOR);
                assert!(without.s_total <= with.s_total);
            }
        }
    }

    #[test]
    fn utilization_floor_tradeoff() {
        // The chosen grid's surface is always within 1/l of the best
        // feasible surface (the documented threshold rule).
        let prob = Problem::new(500, 500, 500, 23);
        for l in [0.85, 0.95, 0.99] {
            let choice = ca3dmm_grid(&prob, l);
            let best = brute_force_grid(&prob, l, true);
            assert_eq!(choice.grid, best.grid, "l={l}");
            assert!(choice.s_total as f64 * l <= best.s_total as f64 / l * 1.0001);
        }
    }

    #[test]
    fn table2_square_2048_grid() {
        // Table II: 50k^3 on 2048 cores -> 8x16x16 (pm,pn,pk) for both
        // libraries. Our search may find any permutation-equivalent grid
        // with the same S_total; for m=n=k surface depends only on the sum,
        // so assert the multiset and the sum.
        let choice = ca3dmm_grid(&Problem::new(50_000, 50_000, 50_000, 2048), 0.95);
        let g = choice.grid;
        let mut dims = [g.pm, g.pn, g.pk];
        dims.sort_unstable();
        assert_eq!(dims, [8, 16, 16]);
    }

    #[test]
    fn feasible_pk_bounds() {
        // P=16, l=0.95 -> lo_target = floor(15.2) = 15; pm=pn=2 -> pk=4..=4
        assert_eq!(feasible_pk(16, 0.95, 2, 2), 4..=4);
        // floor 0 admits pk from 1
        assert_eq!(feasible_pk(16, 0.0, 2, 2), 1..=4);
        // infeasible when base > P
        assert!(feasible_pk(4, 0.95, 3, 3).is_empty());
    }

    #[test]
    fn table2_square_3072_grid() {
        // Table II: 50k^3 on 3072 cores -> CA3DMM default {16,16,12}.
        let choice = ca3dmm_grid(&Problem::new(50_000, 50_000, 50_000, 3072), 0.95);
        let g = choice.grid;
        let mut dims = [g.pm, g.pn, g.pk];
        dims.sort_unstable();
        assert_eq!(dims, [12, 16, 16]);
        assert_eq!(g.active(), 3072);
    }

    #[test]
    fn table2_large_k_2048_grid() {
        // Table II: 6k,6k,1.2M on 2048 cores -> 2,2,512 for both libraries.
        let choice = ca3dmm_grid(&Problem::new(6_000, 6_000, 1_200_000, 2048), 0.95);
        assert_eq!(choice.grid, Grid::new(2, 2, 512));
        // and the flat problem -> 32,32,2
        let choice = ca3dmm_grid(&Problem::new(100_000, 100_000, 5_000, 2048), 0.95);
        assert_eq!(choice.grid, Grid::new(32, 32, 2));
    }
}
