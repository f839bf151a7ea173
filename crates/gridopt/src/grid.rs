//! Grid and problem descriptions shared across the workspace.

/// The dimensions of one PGEMM, `C = op(A)·op(B)` with `op(A): m×k`,
/// `op(B): k×n`, `C: m×n` (paper eq. 1), plus the process count `P`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Problem {
    /// Rows of C.
    pub m: usize,
    /// Columns of C.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
    /// Number of processes available (`mpirun -np P`).
    pub p: usize,
}

impl Problem {
    /// Convenience constructor.
    pub const fn new(m: usize, n: usize, k: usize, p: usize) -> Self {
        Self { m, n, k, p }
    }

    /// Total multiply-add count `m·n·k` (the cuboid volume of §III-A).
    pub fn volume(&self) -> u128 {
        self.m as u128 * self.n as u128 * self.k as u128
    }

    /// The per-process communication lower bound in *elements*,
    /// `Q = 3·(mnk/P)^(2/3)` (paper eq. 9).
    pub fn comm_lower_bound(&self) -> f64 {
        3.0 * ((self.volume() as f64) / self.p as f64).powf(2.0 / 3.0)
    }
}

jsonlite::record! {
    /// A 3D process grid `pm × pn × pk` (paper notation: `pm × pk × pn`; we
    /// order fields m, n, k for readability).
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    pub struct Grid {
        /// Processes along the m-dimension.
        pub pm: usize as jsonlite::Positive,
        /// Processes along the n-dimension.
        pub pn: usize as jsonlite::Positive,
        /// Processes along the k-dimension (number of k-task groups).
        pub pk: usize as jsonlite::Positive,
    }
}

impl Grid {
    /// Convenience constructor.
    pub const fn new(pm: usize, pn: usize, pk: usize) -> Self {
        Self { pm, pn, pk }
    }

    /// Number of active processes `pm·pn·pk`.
    pub const fn active(&self) -> usize {
        self.pm * self.pn * self.pk
    }

    /// The paper's eq. 4: total surface area
    /// `S_total = 2(pm·k·n + pn·m·k + pk·m·n)` in elements.
    pub fn surface(&self, m: usize, n: usize, k: usize) -> u128 {
        2 * (self.pm as u128 * (k as u128 * n as u128)
            + self.pn as u128 * (m as u128 * k as u128)
            + self.pk as u128 * (m as u128 * n as u128))
    }

    /// Whether the Cannon-group constraint (eq. 7) holds:
    /// `mod(max(pm,pn), min(pm,pn)) = 0`.
    pub const fn cannon_compatible(&self) -> bool {
        let mx = if self.pm > self.pn { self.pm } else { self.pn };
        let mn = if self.pm > self.pn { self.pn } else { self.pm };
        mx % mn == 0
    }

    /// The replication factor `c = max(pm,pn)/min(pm,pn)` (eq. 8).
    ///
    /// # Panics
    /// If the grid is not Cannon-compatible.
    pub fn cannon_c(&self) -> usize {
        assert!(self.cannon_compatible(), "grid violates eq. 7: {self:?}");
        self.pm.max(self.pn) / self.pm.min(self.pn)
    }

    /// The Cannon-group side `s = min(pm, pn)`.
    pub const fn cannon_s(&self) -> usize {
        if self.pm < self.pn {
            self.pm
        } else {
            self.pn
        }
    }
}

/// The outcome of a grid search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GridChoice {
    /// The chosen grid.
    pub grid: Grid,
    /// Its `S_total` (eq. 4), in elements.
    pub s_total: u128,
}

impl GridChoice {
    /// Fraction of the `P` processes that are active (the artifact's
    /// "Process utilization" output line).
    pub fn utilization(&self, p: usize) -> f64 {
        self.grid.active() as f64 / p as f64
    }

    /// The artifact's "Comm. volume / lower bound" report line: the chosen
    /// grid's per-active-process transferred elements — half the surface
    /// sum (each element of every subdomain face is either loaded or
    /// updated once) over the active processes — divided by eq. 9
    /// evaluated with the *active* process count.
    pub fn volume_ratio(&self, prob: &Problem) -> f64 {
        let active = Problem {
            p: self.grid.active(),
            ..*prob
        };
        let per_process =
            (self.grid.surface(prob.m, prob.n, prob.k) as f64) / 2.0 / self.grid.active() as f64;
        per_process / active.comm_lower_bound()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surface_formula() {
        let g = Grid::new(2, 4, 1);
        // 2(pm*kn + pn*mk + pk*mn) with m=32,n=64,k=16
        let s = g.surface(32, 64, 16);
        assert_eq!(s, 2 * (2 * 16 * 64 + 4 * 32 * 16 + 32 * 64));
    }

    #[test]
    fn cannon_constraint() {
        assert!(Grid::new(2, 4, 1).cannon_compatible());
        assert!(Grid::new(4, 2, 3).cannon_compatible());
        assert!(Grid::new(3, 3, 5).cannon_compatible());
        assert!(!Grid::new(2, 3, 1).cannon_compatible());
        assert_eq!(Grid::new(2, 4, 1).cannon_c(), 2);
        assert_eq!(Grid::new(4, 2, 3).cannon_c(), 2);
        assert_eq!(Grid::new(3, 3, 5).cannon_c(), 1);
        assert_eq!(Grid::new(6, 2, 1).cannon_s(), 2);
    }

    #[test]
    #[should_panic(expected = "violates eq. 7")]
    fn cannon_c_panics_on_bad_grid() {
        let _ = Grid::new(2, 3, 1).cannon_c();
    }

    #[test]
    fn lower_bound_square() {
        // m=n=k=N, P: Q = 3 N^2 / P^(2/3)
        let p = Problem::new(100, 100, 100, 8);
        let q = p.comm_lower_bound();
        assert!((q - 3.0 * (1e6_f64 / 8.0).powf(2.0 / 3.0)).abs() < 1e-6);
    }

    #[test]
    fn utilization_and_ratio() {
        let prob = Problem::new(32, 32, 64, 17);
        let choice = GridChoice {
            grid: Grid::new(2, 2, 4),
            s_total: Grid::new(2, 2, 4).surface(32, 32, 64),
        };
        assert!((choice.utilization(17) - 16.0 / 17.0).abs() < 1e-12);
        assert!(choice.volume_ratio(&prob) >= 0.99);
    }

    #[test]
    fn problem_volume() {
        assert_eq!(Problem::new(2, 3, 4, 1).volume(), 24);
    }
}
