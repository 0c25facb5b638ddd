//! The registry is the directory: walking `rules/` from disk, independently
//! of the build script, finds exactly the rules `all_rules()` embeds, with
//! the same texts, in dataset order and then by file name.

use std::fs;
use std::path::PathBuf;

#[test]
fn registry_holds_one_rule_per_rule_file_in_dataset_then_name_order() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("rules");
    let datasets = ["literature", "calcite", "extensions", "bugs"];
    let mut dirs: Vec<String> = fs::read_dir(&root)
        .expect("rules directory exists")
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    dirs.sort();
    let mut expected = datasets.map(String::from).to_vec();
    expected.sort();
    assert_eq!(dirs, expected, "`rules/` holds exactly the four datasets");

    let mut texts = Vec::new();
    for dataset in datasets {
        let mut files: Vec<PathBuf> = fs::read_dir(root.join(dataset))
            .expect("dataset directory exists")
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|e| e == "sql"))
            .collect();
        files.sort();
        texts.extend(files.iter().map(|f| fs::read_to_string(f).unwrap()));
    }
    let rules = udp_corpus::all_rules();
    assert_eq!(rules.len(), texts.len(), "one rule per `.sql` file");
    for (i, (rule, text)) in rules.iter().zip(&texts).enumerate() {
        assert_eq!(&rule.text, text, "rule {i} (`{}`) text or order", rule.name);
    }
}
