//! Grid explorer: how CA3DMM and COSMA choose 3D process grids across the
//! paper's four problem classes and process counts — a console companion
//! to Table II and the reasoning of §III-A/§IV-B.
//!
//! For each shape and P it prints both searches' grids, the process
//! utilization, the communication-volume-to-lower-bound ratio, and the
//! modeled runtime on the paper's cluster (pure MPI placement). The table
//! is `bench::grid_explorer::table`.
//!
//! ```text
//! cargo run --release --example grid_explorer
//! ```

fn main() {
    print!("{}", bench::grid_explorer::table());
}
