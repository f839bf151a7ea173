//! Grid explorer: how CA3DMM and COSMA choose 3D process grids across the
//! paper's four problem classes and process counts — a console companion
//! to Table II and the reasoning of §III-A/§IV-B.
//!
//! For each shape and P it prints both searches' grids, the process
//! utilization, the communication-volume-to-lower-bound ratio, and the
//! modeled runtime on the paper's cluster (pure MPI placement). The table
//! is the `grid_explorer` entry of `bench::paper`, which `paper --out
//! results` writes to `results/grid_explorer.txt`.
//!
//! ```text
//! cargo run --release --example grid_explorer
//! ```

fn main() {
    let entry = bench::paper::entry("grid_explorer").expect("a registered entry");
    print!("{}", entry.table());
}
