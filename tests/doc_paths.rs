//! Every `crates/<crate>/src/….rs` path that README.md, DESIGN.md and
//! EXPERIMENTS.md name exists, so a moved or deleted module cannot leave
//! the docs pointing at nothing.

use std::path::Path;

#[test]
fn source_paths_named_in_the_docs_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (mut named, mut missing) = (0, Vec::new());
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        let text = std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for (at, _) in text.match_indices("crates/") {
            let path: String = text[at..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || "_/.-".contains(*c))
                .collect();
            let path = path.trim_end_matches('.');
            if path.contains("/src/") && path.ends_with(".rs") {
                named += 1;
                if !root.join(path).is_file() {
                    missing.push(format!("{doc}: {path}"));
                }
            }
        }
    }
    assert!(named > 0, "no source path found: the scan is broken");
    assert!(
        missing.is_empty(),
        "the docs name missing files: {missing:?}"
    );
}
