//! The paper's analytic tables and figures (§IV), from the [`bench::paper`]
//! registry: Figs. 3–5, Tables I–III, the l-sweep, the design ablations
//! and the grid explorer.
//!
//! ```text
//! cargo run --release -p bench --bin paper [--out DIR] [NAME ...]
//! ```
//!
//! Without `--out` it prints the named entries' tables (every entry's when
//! none is named) to stdout; with `--out DIR` it writes each entry's files
//! — its table `NAME.txt` and any CSV — into DIR. `paper --out results`
//! regenerates the committed copies.

use bench::paper::{entry, Entry, ENTRIES};
use std::path::PathBuf;

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut out, mut selected) = (None::<PathBuf>, Vec::<&Entry>::new());
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = Some(args.next().expect("--out requires a value").into()),
            name => selected.push(entry(name).unwrap_or_else(|| {
                let names: Vec<&str> = ENTRIES.iter().map(|e| e.name).collect();
                panic!("unknown entry {name:?}; known: {}", names.join(" "))
            })),
        }
    }
    if selected.is_empty() {
        selected = ENTRIES.iter().collect();
    }
    for e in selected {
        match &out {
            Some(dir) => bench::write_files(dir, &(e.files)()),
            None => print!("{}", e.table()),
        }
    }
}
