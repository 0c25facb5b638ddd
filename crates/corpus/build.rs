//! Embeds the rule files under `rules/` into the crate: writes
//! `$OUT_DIR/rule_files.rs`, the `(path, text)` table `all_rules()` parses.
//! Datasets come in a fixed order (literature, calcite, extensions, bugs)
//! and each dataset's files by name. Any other entry under `rules/` — an
//! unknown dataset directory or a non-`.sql` file — fails the build, so no
//! rule file can silently drop out of the corpus.

use std::fmt::Write;
use std::path::Path;
use std::{env, fs};

const DATASETS: [&str; 4] = ["literature", "calcite", "extensions", "bugs"];

fn main() {
    println!("cargo:rerun-if-changed=rules");
    let root = Path::new(&env::var("CARGO_MANIFEST_DIR").unwrap()).join("rules");
    for entry in fs::read_dir(&root).expect("read rules/") {
        let name = entry.unwrap().file_name();
        let name = name.to_string_lossy();
        assert!(
            DATASETS.contains(&name.as_ref()),
            "rules/{name}: not a dataset directory (expected one of {DATASETS:?})"
        );
    }
    let mut table = String::from("static RULE_FILES: &[(&str, &str)] = &[\n");
    for dataset in DATASETS {
        let dir = root.join(dataset);
        let mut files: Vec<String> = fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("read rules/{dataset}: {e}"))
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        for file in files {
            let path = dir.join(&file);
            assert!(
                file.ends_with(".sql") && path.is_file(),
                "rules/{dataset}/{file}: not a `.sql` rule file"
            );
            let key = format!("rules/{dataset}/{file}");
            writeln!(table, "    ({key:?}, include_str!({path:?})),").unwrap();
        }
    }
    table.push_str("];\n");
    let out = Path::new(&env::var("OUT_DIR").unwrap()).join("rule_files.rs");
    fs::write(out, table).expect("write rule_files.rs");
}
