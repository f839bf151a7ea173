//! 3D process-grid selection for PGEMM (paper §III-A/§III-B).
//!
//! The paper chooses a process grid `pm × pk × pn` by enumerating all
//! possibilities and minimizing the total surface area of the work
//! subdomains,
//!
//! ```text
//! S_total = 2 (pm·k·n + pn·m·k + pk·m·n)            (eq. 4)
//! ```
//!
//! subject to the utilization constraint `l·P ≤ pm·pk·pn ≤ P` (eq. 5), the
//! Cannon-group divisibility constraint
//! `mod(max(pm,pn), min(pm,pn)) = 0` (eq. 7), and a lower-priority
//! sub-target of maximizing `pm·pk·pn` (eq. 6). The paper runs every
//! experiment at `l = 0.95` ([`DEFAULT_UTILIZATION_FLOOR`]), and so do the
//! algorithms here; the searches take `l` as an argument so the `ablation_l`
//! study can sweep it.
//!
//! This crate implements that search ([`ca3dmm_grid`]) plus the grid choices
//! of the baselines: [`cosma_grid`] (same search without eq. 7 — what the
//! COSMA source does per §III-C), [`summa_grid`] (2D) and [`cube_grid`]
//! (original 3D algorithm); the 2.5D baseline searches its own `s × s × c`
//! grid. A brute-force reference ([`brute_force_grid`]) backs the property
//! tests.

mod baselines;
mod grid;
mod search;

pub use baselines::{cube_grid, summa_grid};
pub use grid::{Grid, GridChoice, Problem};
pub use search::{brute_force_grid, ca3dmm_grid, cosma_grid, DEFAULT_UTILIZATION_FLOOR};
