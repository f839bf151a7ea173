//! The committed analytic tables and figures are what this build produces.
//!
//! fig3 / fig4 / fig5 (default mode), tables I–III, `ablation_l` and
//! `ablation_design` evaluate the grid search and the cost model only — no
//! wall time enters their stdout or their CSVs — so each binary's stdout
//! and every CSV it writes are compared byte for byte with `results/`.
//! `./regen_results.sh` regenerates them.

use std::path::Path;
use std::process::Command;

/// Each binary, by name (its stdout is `results/<name>.txt`).
const BINS: [(&str, &str); 8] = [
    (
        "fig3_strong_scaling",
        env!("CARGO_BIN_EXE_fig3_strong_scaling"),
    ),
    ("fig4_hybrid", env!("CARGO_BIN_EXE_fig4_hybrid")),
    ("fig5_breakdown", env!("CARGO_BIN_EXE_fig5_breakdown")),
    ("table1_memory", env!("CARGO_BIN_EXE_table1_memory")),
    ("table2_grids", env!("CARGO_BIN_EXE_table2_grids")),
    ("table3_gpu", env!("CARGO_BIN_EXE_table3_gpu")),
    ("ablation_l", env!("CARGO_BIN_EXE_ablation_l")),
    ("ablation_design", env!("CARGO_BIN_EXE_ablation_design")),
];

#[test]
fn analytic_binaries_reproduce_committed_results() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let committed = |file: &str| {
        std::fs::read(results.join(file)).unwrap_or_else(|e| panic!("results/{file}: {e}"))
    };
    let csv_dir = std::env::temp_dir().join(format!("committed_tables_{}", std::process::id()));
    std::fs::create_dir_all(&csv_dir).expect("CSV dir");
    let mut drifted = Vec::new();
    for (name, exe) in BINS {
        let out = Command::new(exe)
            .env("BENCH_CSV_DIR", &csv_dir)
            .output()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            out.status.success(),
            "{name} exited {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        let txt = format!("{name}.txt");
        if out.stdout != committed(&txt) {
            drifted.push(txt);
        }
    }
    let mut csvs: Vec<String> = std::fs::read_dir(&csv_dir)
        .expect("CSV dir")
        .map(|e| {
            e.expect("CSV entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    csvs.sort();
    assert_eq!(csvs, ["fig3.csv", "fig4.csv"]);
    for csv in csvs {
        if std::fs::read(csv_dir.join(&csv)).expect("written CSV") != committed(&csv) {
            drifted.push(csv);
        }
    }
    std::fs::remove_dir_all(&csv_dir).expect("remove CSV dir");
    assert!(
        drifted.is_empty(),
        "results/{drifted:?} drifted from this build; run ./regen_results.sh"
    );
}
