//! `Name` compares, orders, hashes and prints exactly as its text does, so
//! replacing owned strings by shared names cannot move a sort, a witness
//! tie-break, a rendering or a fingerprint.

use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use udp_core::name::Name;

/// Names the prover builds itself (aggregate class tokens, the colouring
/// mark, anonymous schemas) next to ordinary identifiers and prefixes of
/// one another.
const FIXED: [&str; 10] = [
    "", "a", "ab", "b", "agg·0", "agg·1", "agg·10", "§", "a§b", "$anon0",
];

fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

fn pick(i: usize, drawn: String) -> String {
    FIXED.get(i).map_or(drawn, |s| s.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn name_agrees_with_its_text(
        i in 0usize..14,
        j in 0usize..14,
        x in ".{0,8}",
        y in ".{0,8}",
    ) {
        let (a, b) = (pick(i, x), pick(j, y));
        let (na, nb) = (Name::from(a.as_str()), Name::from(b.clone()));
        prop_assert_eq!(na == nb, a == b);
        prop_assert_eq!(na.cmp(&nb), a.as_str().cmp(b.as_str()));
        prop_assert_eq!(na.partial_cmp(&nb), a.partial_cmp(&b));
        prop_assert_eq!(hash_of(&na), hash_of(a.as_str()));
        prop_assert_eq!(hash_of(&na.clone()), hash_of(&na));
        prop_assert_eq!(na.to_string(), a.clone());
        prop_assert_eq!(format!("{na:?}"), format!("{a:?}"));
        prop_assert!(na == *a.as_str() && na == a);
    }
}
