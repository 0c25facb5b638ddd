//! Every rule file under `crates/corpus/rules/`, embedded at compile time.
//! The table is the directory itself: `build.rs` lists the four dataset
//! directories, so adding a rule means dropping a file with the metadata
//! header into one of them — there is no list to edit. An unknown
//! directory or a non-`.sql` file under `rules/` fails the build.

use crate::{parse_rule, Rule};

/// All corpus rules, parsed from the embedded rule files. Panics on a
/// malformed header (checked by the test suite).
pub fn all_rules() -> Vec<Rule> {
    RULE_FILES
        .iter()
        .map(|(path, text)| parse_rule(path, text).expect("corpus rule header"))
        .collect()
}

include!(concat!(env!("OUT_DIR"), "/rule_files.rs"));
