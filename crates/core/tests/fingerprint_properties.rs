//! Canonical-fingerprint properties, the invariants the `udp-service`
//! verdict cache is built on:
//!
//! * **invariance** — alias renaming, conjunct reordering, and FROM-order
//!   swaps leave the canonical form (hence fingerprint) unchanged;
//! * **discrimination** — semantically distinct corpus pairs (the Bugs
//!   dataset and other expected-NotProved rules) fingerprint differently.

use udp_core::fingerprint::{canonical_form, fingerprint};

/// Lower both sides of the first goal of `program` and return their
/// canonical forms and fingerprints.
fn forms_of(program: &str) -> Vec<(String, udp_core::Fingerprint)> {
    forms_of_in(program, udp_sql::Dialect::Paper)
}

fn forms_of_in(program: &str, dialect: udp_sql::Dialect) -> Vec<(String, udp_core::Fingerprint)> {
    let mut fe = udp_sql::prepare_program_in(program, dialect).unwrap();
    let goals = fe.goals.clone();
    let mut out = Vec::new();
    for goal in &goals {
        let (q1, q2) = udp_sql::lower_goal(&mut fe, goal).unwrap();
        for q in [q1, q2] {
            out.push((
                canonical_form(&fe.catalog, &q),
                fingerprint(&fe.catalog, &q),
            ));
        }
    }
    out
}

const DDL: &str = "schema s0(k:int, a:int, b:int);\ntable r(s0);\ntable s(s0);\nkey r(k);\n";

#[test]
fn alias_renaming_is_fingerprint_invariant() {
    let variants = [
        "SELECT x.a AS p FROM r x, s y WHERE x.k = y.k AND x.b = 2",
        "SELECT u.a AS p FROM r u, s w WHERE u.k = w.k AND u.b = 2",
        "SELECT zz.a AS p FROM r zz, s qq WHERE zz.k = qq.k AND zz.b = 2",
    ];
    let mut forms = Vec::new();
    for v in variants {
        let program = format!("{DDL}verify {v} == {v};");
        forms.push(forms_of(&program)[0].clone());
    }
    for (form, fp) in &forms[1..] {
        assert_eq!(
            form, &forms[0].0,
            "alias renaming changed the canonical form"
        );
        assert_eq!(fp, &forms[0].1);
    }
}

#[test]
fn conjunct_and_join_order_are_fingerprint_invariant() {
    let variants = [
        "SELECT x.a AS p FROM r x, s y WHERE x.k = y.k AND x.b = 2 AND y.a = 1",
        "SELECT x.a AS p FROM r x, s y WHERE y.a = 1 AND x.b = 2 AND x.k = y.k",
        "SELECT x.a AS p FROM s y, r x WHERE x.b = 2 AND (x.k = y.k AND y.a = 1)",
    ];
    let mut forms = Vec::new();
    for v in variants {
        let program = format!("{DDL}verify {v} == {v};");
        forms.push(forms_of(&program)[0].clone());
    }
    for (form, fp) in &forms[1..] {
        assert_eq!(
            form, &forms[0].0,
            "conjunct/join reordering changed the canonical form"
        );
        assert_eq!(fp, &forms[0].1);
    }
}

#[test]
fn correlated_exists_rename_is_fingerprint_invariant() {
    let variants = [
        "SELECT x.a AS p FROM r x WHERE EXISTS (SELECT * FROM s y WHERE y.k = x.k)",
        "SELECT q.a AS p FROM r q WHERE EXISTS (SELECT * FROM s z WHERE z.k = q.k)",
    ];
    let mut forms = Vec::new();
    for v in variants {
        let program = format!("{DDL}verify {v} == {v};");
        forms.push(forms_of(&program)[0].clone());
    }
    assert_eq!(forms[0], forms[1]);
}

/// Every corpus rule the prover is expected to *refute or fail* (NotProved:
/// buggy rewrites and genuinely inequivalent pairs) must fingerprint its
/// two sides differently — a collision would let the service cache conflate
/// them. Proved rules whose two sides canonize identically are exactly the
/// cache's fast path, so we also count those as a sanity signal.
#[test]
fn inequivalent_corpus_pairs_fingerprint_differently() {
    let mut inequivalent_checked = 0usize;
    let mut identical_proved = 0usize;
    for rule in udp_corpus::all_rules() {
        let Ok(mut fe) = udp_sql::prepare_program_in(&rule.text, rule.dialect) else {
            continue; // unsupported-feature exemplars
        };
        let goals = fe.goals.clone();
        let Some(goal) = goals.first() else { continue };
        let Ok((q1, q2)) = udp_sql::lower_goal(&mut fe, goal) else {
            continue;
        };
        let f1 = fingerprint(&fe.catalog, &q1);
        let f2 = fingerprint(&fe.catalog, &q2);
        match rule.expect {
            udp_corpus::Expectation::NotProved => {
                assert_ne!(
                    f1, f2,
                    "{}: expected-NotProved pair fingerprints identically",
                    rule.name
                );
                inequivalent_checked += 1;
            }
            udp_corpus::Expectation::Proved => {
                if f1 == f2 {
                    identical_proved += 1;
                }
            }
            _ => {}
        }
    }
    // The corpus currently carries 8 expected-NotProved rules (3 Bugs + 5
    // literature/calcite non-theorems); keep a floor of 5 so the check
    // cannot silently go vacuous.
    assert!(
        inequivalent_checked >= 5,
        "only {inequivalent_checked} NotProved corpus pairs reached the fingerprint check"
    );
    assert!(
        identical_proved >= 5,
        "only {identical_proved} proved corpus pairs canonize identically — \
         the cache fast path looks dead"
    );
}

/// The canonical form must also be *stable* across repeated lowerings of
/// the same program (fresh frontends, fresh variable generators).
#[test]
fn fingerprints_are_stable_across_lowerings() {
    let program = format!(
        "{DDL}verify SELECT DISTINCT x.a AS p FROM r x, s y WHERE x.k = y.k \
         == SELECT DISTINCT u.a AS p FROM r u, s w WHERE u.k = w.k;"
    );
    let a = forms_of(&program);
    let b = forms_of(&program);
    assert_eq!(a, b);
    // And the two sides of this alias-renamed goal agree with each other.
    assert_eq!(a[0], a[1]);
}

/// Sanity: identical fingerprints on the two sides imply the prover agrees
/// (the cache's soundness direction on a concrete example).
#[test]
fn identical_fingerprints_are_proved_equivalent() {
    let program = format!(
        "{DDL}verify SELECT x.a AS p FROM r x WHERE x.b = 1 \
         == SELECT y.a AS p FROM r y WHERE y.b = 1;"
    );
    let forms = forms_of(&program);
    assert_eq!(forms[0], forms[1]);
    let mut fe = udp_sql::prepare_program(&program).unwrap();
    let goal = fe.goals[0].clone();
    let (q1, q2) = udp_sql::lower_goal(&mut fe, &goal).unwrap();
    let verdict = udp_core::decide(&fe.catalog, &fe.constraints, &q1, &q2);
    assert!(verdict.decision.is_proved());
}
