//! U-semiring models (Def 3.1) and an executable axiom checker.
//!
//! The paper gives four example U-semirings (Sec 3.1): the naturals ℕ (valid
//! when summation domains are finite), its closure ℕ̄ = ℕ ∪ {∞}, the
//! univalent types of HoTT (not implementable here), and the cardinals. We
//! provide ℕ, ℕ̄, the Booleans 𝔹 (set semantics; a U-semiring as well), and
//! the diagonal 2×2 matrices over ℕ̄ — the paper's counter-model showing that
//! the rejected conditional axiom "x ≠ 0 ⇒ ‖x‖ = 1" does *not* follow from
//! the chosen axioms.
//!
//! Beyond the paper's list, two more models demonstrate the reach of
//! Def 4.6's "for any U-semiring" quantifier: [`BoolProv`], the Boolean
//! provenance algebra of the K-relations lineage work (evaluate a query
//! under it and each output row's annotation names the input tuples it
//! depends on), and [`Fuzzy`], the Gödel fuzzy-logic semiring (U-equivalent
//! queries return identical membership degrees over fuzzy relations).
//!
//! [`check_axioms`] verifies every identity of Def 3.1 (plus the predicate
//! axioms that are model-independent) on supplied sample values; the test
//! suites instantiate it for all models, which is our executable counterpart
//! of the paper's soundness argument.

use std::fmt;

/// An unbounded semiring. Summation over *finite* index sets is derived from
/// `add`; genuinely unbounded domains only arise symbolically in the decision
/// procedure, never during concrete evaluation.
pub trait USemiring: Clone + PartialEq + fmt::Debug {
    /// Additive identity `0`.
    fn zero() -> Self;
    /// Multiplicative identity `1`.
    fn one() -> Self;
    /// `x + y`.
    fn add(&self, other: &Self) -> Self;
    /// `x × y`.
    fn mul(&self, other: &Self) -> Self;
    /// Squash `‖·‖`, axioms (1)–(6).
    fn squash(&self) -> Self;
    /// Negation `not(·)`.
    fn not(&self) -> Self;

    /// Finite summation `Σ`, derived. Axioms (7)–(10) hold by construction
    /// for finite sums in a commutative semiring.
    fn sum(items: impl IntoIterator<Item = Self>) -> Self {
        items.into_iter().fold(Self::zero(), |acc, x| acc.add(&x))
    }

    /// Lift a boolean: `[b]` is `1` or `0` (the standard interpretation of
    /// predicates; only `[b] = ‖[b]‖` is required axiomatically).
    fn from_bool(b: bool) -> Self {
        if b {
            Self::one()
        } else {
            Self::zero()
        }
    }
}

/// ℕ with saturating arithmetic; a U-semiring when all summation domains are
/// finite. Saturating (rather than wrapping) keeps the semiring laws on the
/// value ranges exercised by tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Nat(pub u64);

impl USemiring for Nat {
    fn zero() -> Self {
        Nat(0)
    }
    fn one() -> Self {
        Nat(1)
    }
    fn add(&self, other: &Self) -> Self {
        Nat(self.0.saturating_add(other.0))
    }
    fn mul(&self, other: &Self) -> Self {
        Nat(self.0.saturating_mul(other.0))
    }
    fn squash(&self) -> Self {
        Nat(u64::from(self.0 != 0))
    }
    fn not(&self) -> Self {
        Nat(u64::from(self.0 == 0))
    }
}

impl fmt::Display for Nat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// ℕ̄ = ℕ ∪ {∞}: the closure of ℕ, a U-semiring over arbitrary summation
/// domains (footnote 4 of the paper: `x + ∞ = ∞`, `0 × ∞ = 0`,
/// `x × ∞ = ∞` for `x ≠ 0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NatInf {
    /// A finite natural.
    Fin(u64),
    /// The absorbing element `∞`.
    Inf,
}

impl USemiring for NatInf {
    fn zero() -> Self {
        NatInf::Fin(0)
    }
    fn one() -> Self {
        NatInf::Fin(1)
    }
    fn add(&self, other: &Self) -> Self {
        match (self, other) {
            (NatInf::Fin(a), NatInf::Fin(b)) => NatInf::Fin(a.saturating_add(*b)),
            _ => NatInf::Inf,
        }
    }
    fn mul(&self, other: &Self) -> Self {
        match (self, other) {
            (NatInf::Fin(0), _) | (_, NatInf::Fin(0)) => NatInf::Fin(0),
            (NatInf::Fin(a), NatInf::Fin(b)) => NatInf::Fin(a.saturating_mul(*b)),
            _ => NatInf::Inf,
        }
    }
    fn squash(&self) -> Self {
        match self {
            NatInf::Fin(0) => NatInf::Fin(0),
            _ => NatInf::Fin(1),
        }
    }
    fn not(&self) -> Self {
        match self {
            NatInf::Fin(0) => NatInf::Fin(1),
            _ => NatInf::Fin(0),
        }
    }
}

impl fmt::Display for NatInf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NatInf::Fin(n) => write!(f, "{n}"),
            NatInf::Inf => write!(f, "∞"),
        }
    }
}

/// 𝔹: relations under set semantics are 𝔹-relations (Sec 2). Squash is the
/// identity, `not` is boolean negation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Bools(pub bool);

impl USemiring for Bools {
    fn zero() -> Self {
        Bools(false)
    }
    fn one() -> Self {
        Bools(true)
    }
    fn add(&self, other: &Self) -> Self {
        Bools(self.0 || other.0)
    }
    fn mul(&self, other: &Self) -> Self {
        Bools(self.0 && other.0)
    }
    fn squash(&self) -> Self {
        *self
    }
    fn not(&self) -> Self {
        Bools(!self.0)
    }
}

/// Diagonal 2×2 matrices `diag(a, b)` over ℕ̄ with componentwise operations
/// (Sec 3.1). In this model `‖x‖` ranges over `diag(0,0)`, `diag(0,1)`,
/// `diag(1,0)`, `diag(1,1)`, demonstrating why the conditional identity
/// "`x ≠ 0 ⇒ ‖x‖ = 1`" was (correctly) excluded from the axioms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Diag2(pub NatInf, pub NatInf);

impl USemiring for Diag2 {
    fn zero() -> Self {
        Diag2(NatInf::zero(), NatInf::zero())
    }
    fn one() -> Self {
        Diag2(NatInf::one(), NatInf::one())
    }
    fn add(&self, other: &Self) -> Self {
        Diag2(self.0.add(&other.0), self.1.add(&other.1))
    }
    fn mul(&self, other: &Self) -> Self {
        Diag2(self.0.mul(&other.0), self.1.mul(&other.1))
    }
    fn squash(&self) -> Self {
        Diag2(self.0.squash(), self.1.squash())
    }
    fn not(&self) -> Self {
        Diag2(self.0.not(), self.1.not())
    }
}

/// Boolean provenance **B(X)**: the free Boolean algebra over
/// [`BoolProv::VARS`] source variables, represented as a truth table over
/// all 2⁵ = 32 valuations (one bit per valuation).
///
/// This is the lineage semiring of the K-relations line of work the paper
/// builds on (Green et al. \[35\]): tag each base tuple with its own variable
/// `x_i`, evaluate the query under [`crate::interp::Interp`], and the result
/// annotation records *which* input tuples each output row depends on —
/// joins AND their inputs' tags, unions OR them. Every element is
/// multiplicatively idempotent (`x ∧ x = x`), so axiom (6) forces squash to
/// be the identity, and `not` is Boolean complement. All Def 3.1 axioms
/// hold: B(X) is a U-semiring, generalizing [`Bools`] (the case of zero
/// variables).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BoolProv(pub u32);

impl BoolProv {
    /// Number of provenance variables.
    pub const VARS: usize = 5;

    /// The provenance variable `x_i` (truth table of the `i`-th projection).
    pub fn var(i: usize) -> BoolProv {
        assert!(i < Self::VARS, "variable index out of range");
        let mut bits = 0u32;
        for row in 0..32u32 {
            if row & (1 << i) != 0 {
                bits |= 1 << row;
            }
        }
        BoolProv(bits)
    }

    /// Does this provenance expression evaluate to true when exactly the
    /// variables in `present` are true? (`present` is a bitmask of variable
    /// indices.) Used to read lineage back out: an output row survives
    /// deleting input tuple `i` iff `eval_at` is still true with bit `i`
    /// cleared.
    pub fn eval_at(self, present: u32) -> bool {
        self.0 & (1 << (present & 31)) != 0
    }

    /// Is `self` implied by `other` (i.e. `other ⇒ self` as Boolean
    /// functions)?
    pub fn implied_by(self, other: BoolProv) -> bool {
        other.0 & !self.0 == 0
    }
}

impl USemiring for BoolProv {
    fn zero() -> Self {
        BoolProv(0)
    }
    fn one() -> Self {
        BoolProv(u32::MAX)
    }
    fn add(&self, other: &Self) -> Self {
        BoolProv(self.0 | other.0)
    }
    fn mul(&self, other: &Self) -> Self {
        BoolProv(self.0 & other.0)
    }
    fn squash(&self) -> Self {
        *self
    }
    fn not(&self) -> Self {
        BoolProv(!self.0)
    }
}

impl fmt::Display for BoolProv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B({:#010x})", self.0)
    }
}

/// The Gödel fuzzy semiring on `{0, 1/100, …, 1}`: `+` is max, `×` is min,
/// `not(x) = 1 − x`. A distributive lattice with involutive negation; every
/// element is multiplicatively idempotent, so axiom (6) again forces squash
/// to be the identity, and all Def 3.1 axioms hold (De Morgan for the `not`
/// laws, lattice distributivity for the semiring laws).
///
/// Fuzzy relations assign membership degrees to tuples; because `Fuzzy` is a
/// U-semiring, every U-equivalence the prover establishes also holds for
/// query evaluation under fuzzy-set semantics — a "free" transfer the
/// axiomatic method buys (Def 4.6 quantifies over *all* U-semirings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Fuzzy(u8);

impl Fuzzy {
    /// Membership degree in percent, clamped to `0..=100`.
    pub fn new(percent: u8) -> Fuzzy {
        Fuzzy(percent.min(100))
    }

    /// The raw degree in percent.
    pub fn percent(self) -> u8 {
        self.0
    }
}

impl USemiring for Fuzzy {
    fn zero() -> Self {
        Fuzzy(0)
    }
    fn one() -> Self {
        Fuzzy(100)
    }
    fn add(&self, other: &Self) -> Self {
        Fuzzy(self.0.max(other.0))
    }
    fn mul(&self, other: &Self) -> Self {
        Fuzzy(self.0.min(other.0))
    }
    fn squash(&self) -> Self {
        *self
    }
    fn not(&self) -> Self {
        Fuzzy(100 - self.0)
    }
}

impl fmt::Display for Fuzzy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}%", self.0)
    }
}

/// Which axioms to check. *Reproduction note*: the paper asserts (Sec 3.1)
/// that ℕ̄ = ℕ ∪ {∞} is a U-semiring, but axiom (6) `x² = x ⇒ ‖x‖ = x` fails
/// at `x = ∞` (since `∞² = ∞` while `‖∞‖ = 1`), and is in direct tension with
/// axiom (1) `‖1 + x‖ = 1` which forces `‖∞‖ = 1`. ℕ̄ and the diagonal
/// matrices are models of every axiom *except* (6) at infinite elements;
/// `Finite` checks everything, `WithoutIdempotentSquash` omits (6). The tests
/// pin down exactly this discrepancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AxiomSet {
    /// All axioms of Def 3.1, including (6).
    Full,
    /// All axioms except (6) `x² = x ⇒ ‖x‖ = x` (satisfied by ℕ̄ only on
    /// finite elements).
    WithoutIdempotentSquash,
}

/// Check every U-semiring identity of Def 3.1 on all (unary through ternary)
/// combinations of `samples`. Returns the first violated law, if any.
pub fn check_axioms<S: USemiring>(samples: &[S]) -> Result<(), String> {
    check_axiom_set(samples, AxiomSet::Full)
}

/// See [`check_axioms`]; `which` selects the axiom subset.
pub fn check_axiom_set<S: USemiring>(samples: &[S], which: AxiomSet) -> Result<(), String> {
    let zero = S::zero();
    let one = S::one();
    let fail = |law: &str| Err::<(), String>(format!("violated: {law}"));

    // -- commutative semiring laws --------------------------------------
    for x in samples {
        if x.add(&zero) != *x {
            return fail("x + 0 = x");
        }
        if x.mul(&one) != *x {
            return fail("x × 1 = x");
        }
        if x.mul(&zero) != zero {
            return fail("x × 0 = 0");
        }
        // squash axioms (1)-(5)
        if zero.squash() != zero {
            return fail("‖0‖ = 0");
        }
        if one.add(x).squash() != one {
            return fail("‖1 + x‖ = 1");
        }
        if x.squash().mul(&x.squash()) != x.squash() {
            return fail("‖x‖ × ‖x‖ = ‖x‖ (4)");
        }
        if x.mul(&x.squash()) != *x {
            return fail("x × ‖x‖ = x (5)");
        }
        // axiom (6): x² = x ⇒ ‖x‖ = x
        if which == AxiomSet::Full && x.mul(x) == *x && x.squash() != *x {
            return fail("x² = x ⇒ ‖x‖ = x (6)");
        }
        // not axioms
        if zero.not() != one {
            return fail("not(0) = 1");
        }
        if x.squash().not() != x.not() || x.not().squash() != x.not() {
            return fail("not(‖x‖) = ‖not(x)‖ = not(x)");
        }
    }
    for x in samples {
        for y in samples {
            if x.add(y) != y.add(x) {
                return fail("x + y = y + x");
            }
            if x.mul(y) != y.mul(x) {
                return fail("x × y = y × x");
            }
            // squash axioms (2)-(3)
            if x.squash().add(y).squash() != x.add(y).squash() {
                return fail("‖‖x‖ + y‖ = ‖x + y‖ (2)");
            }
            if x.squash().mul(&y.squash()) != x.mul(y).squash() {
                return fail("‖x‖ × ‖y‖ = ‖x × y‖ (3)");
            }
            // not laws
            if x.mul(y).not() != x.not().add(&y.not()).squash() {
                return fail("not(x × y) = ‖not(x) + not(y)‖");
            }
            if x.add(y).not() != x.not().mul(&y.not()) {
                return fail("not(x + y) = not(x) × not(y)");
            }
        }
    }
    for x in samples {
        for y in samples {
            for z in samples {
                if x.add(&y.add(z)) != x.add(y).add(z) {
                    return fail("(x+y)+z assoc");
                }
                if x.mul(&y.mul(z)) != x.mul(y).mul(z) {
                    return fail("(xy)z assoc");
                }
                if x.mul(&y.add(z)) != x.mul(y).add(&x.mul(z)) {
                    return fail("x(y+z) = xy + xz");
                }
            }
        }
    }
    // -- finite-summation axioms (7)-(10) over small explicit domains ----
    for x in samples {
        for a in samples {
            for b in samples {
                let dom = [a.clone(), b.clone()];
                // (7) Σ (f1 + f2) = Σ f1 + Σ f2, with f1 = id, f2 = const x
                let lhs = S::sum(dom.iter().map(|t| t.add(x)));
                let rhs = S::sum(dom.iter().cloned()).add(&S::sum(dom.iter().map(|_| x.clone())));
                if lhs != rhs {
                    return fail("Σ(f1+f2) = Σf1 + Σf2 (7)");
                }
                // (9) x × Σ f = Σ x×f
                let lhs = x.mul(&S::sum(dom.iter().cloned()));
                let rhs = S::sum(dom.iter().map(|t| x.mul(t)));
                if lhs != rhs {
                    return fail("x × Σf = Σ x×f (9)");
                }
                // (10) ‖Σ f‖ = ‖Σ ‖f‖‖
                let lhs = S::sum(dom.iter().cloned()).squash();
                let rhs = S::sum(dom.iter().map(S::squash)).squash();
                if lhs != rhs {
                    return fail("‖Σf‖ = ‖Σ‖f‖‖ (10)");
                }
            }
        }
    }
    // (8) Σ_t1 Σ_t2 f = Σ_t2 Σ_t1 f — trivial for derived finite sums over
    // commutative +; checked on a 2×2 grid anyway.
    if samples.len() >= 2 {
        let grid = |i: usize, j: usize| samples[i].mul(&samples[j]);
        let lhs = S::sum((0..2).map(|i| S::sum((0..2).map(|j| grid(i, j)))));
        let rhs = S::sum((0..2).map(|j| S::sum((0..2).map(|i| grid(i, j)))));
        if lhs != rhs {
            return fail("ΣΣ swap (8)");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nat_samples() -> Vec<Nat> {
        (0..6).map(Nat).collect()
    }

    fn natinf_samples() -> Vec<NatInf> {
        let mut v: Vec<NatInf> = (0..5).map(NatInf::Fin).collect();
        v.push(NatInf::Inf);
        v
    }

    #[test]
    fn nat_satisfies_axioms() {
        check_axioms(&nat_samples()).unwrap();
    }

    #[test]
    fn natinf_satisfies_axioms_without_6() {
        check_axiom_set(&natinf_samples(), AxiomSet::WithoutIdempotentSquash).unwrap();
        // Finite elements satisfy everything, including (6).
        let finite: Vec<NatInf> = (0..6).map(NatInf::Fin).collect();
        check_axioms(&finite).unwrap();
    }

    /// Reproduction note (see [`AxiomSet`]): the paper's claim that ℕ̄ is a
    /// U-semiring conflicts with axiom (6) at ∞. We pin the exact violation.
    #[test]
    fn natinf_violates_axiom_6_at_infinity() {
        let err = check_axioms(&natinf_samples()).unwrap_err();
        assert!(
            err.contains("(6)"),
            "expected axiom (6) violation, got: {err}"
        );
        assert_eq!(NatInf::Inf.mul(&NatInf::Inf), NatInf::Inf);
        assert_eq!(NatInf::Inf.squash(), NatInf::Fin(1));
    }

    #[test]
    fn bools_satisfy_axioms() {
        check_axioms(&[Bools(false), Bools(true)]).unwrap();
    }

    #[test]
    fn diag2_satisfies_axioms_on_finite_entries() {
        let mut samples = vec![];
        for a in 0..4 {
            for b in 0..4 {
                samples.push(Diag2(NatInf::Fin(a), NatInf::Fin(b)));
            }
        }
        check_axioms(&samples).unwrap();
        // With ∞ entries, only the reduced axiom set holds.
        let mut with_inf = samples;
        with_inf.push(Diag2(NatInf::Inf, NatInf::Fin(1)));
        check_axiom_set(&with_inf, AxiomSet::WithoutIdempotentSquash).unwrap();
    }

    /// The conditional identity "x ≠ 0 ⇒ ‖x‖ = 1" was deliberately excluded
    /// from Def 3.1; Diag2 is the paper's witness that it is independent.
    #[test]
    fn diag2_refutes_conditional_squash_axiom() {
        let x = Diag2(NatInf::Fin(0), NatInf::Fin(3));
        assert_ne!(x, Diag2::zero());
        assert_ne!(x.squash(), Diag2::one());
        assert_eq!(x.squash(), Diag2(NatInf::Fin(0), NatInf::Fin(1)));
    }

    #[test]
    fn natinf_infinity_arithmetic() {
        use NatInf::*;
        assert_eq!(Fin(3).add(&Inf), Inf);
        assert_eq!(Fin(0).mul(&Inf), Fin(0));
        assert_eq!(Fin(2).mul(&Inf), Inf);
        assert_eq!(Inf.squash(), Fin(1));
        assert_eq!(Inf.not(), Fin(0));
    }

    #[test]
    fn derived_sum_matches_repeated_add() {
        let s = Nat::sum(vec![Nat(1), Nat(2), Nat(3)]);
        assert_eq!(s, Nat(6));
        assert_eq!(Nat::sum(std::iter::empty::<Nat>()), Nat(0));
    }

    #[test]
    fn from_bool_is_zero_one() {
        assert_eq!(Nat::from_bool(true), Nat(1));
        assert_eq!(Nat::from_bool(false), Nat(0));
        assert_eq!(Bools::from_bool(true), Bools(true));
    }

    #[test]
    fn boolprov_satisfies_all_axioms() {
        // Variables, their complements, extremes, and a few combinations.
        let mut samples = vec![BoolProv::zero(), BoolProv::one()];
        for i in 0..BoolProv::VARS {
            samples.push(BoolProv::var(i));
            samples.push(BoolProv::var(i).not());
        }
        samples.push(BoolProv::var(0).mul(&BoolProv::var(1)));
        samples.push(BoolProv::var(2).add(&BoolProv::var(3)));
        check_axioms(&samples).unwrap();
    }

    #[test]
    fn boolprov_variables_are_independent() {
        let x = BoolProv::var(0);
        let y = BoolProv::var(1);
        assert_ne!(x, y);
        assert_ne!(x.mul(&y), BoolProv::zero());
        assert_ne!(x.add(&y), BoolProv::one());
        // x ∧ ¬x = 0, x ∨ ¬x = 1 (Boolean algebra, not just a lattice).
        assert_eq!(x.mul(&x.not()), BoolProv::zero());
        assert_eq!(x.add(&x.not()), BoolProv::one());
    }

    #[test]
    fn boolprov_reads_lineage() {
        // Lineage x0 ∧ x1: true only when both source tuples are present.
        let lin = BoolProv::var(0).mul(&BoolProv::var(1));
        assert!(lin.eval_at(0b00011));
        assert!(!lin.eval_at(0b00001));
        assert!(!lin.eval_at(0b00010));
        // x0 implies x0 ∨ x1.
        assert!(BoolProv::var(0)
            .add(&BoolProv::var(1))
            .implied_by(BoolProv::var(0)));
        assert!(!BoolProv::var(0).implied_by(BoolProv::var(1)));
    }

    #[test]
    fn fuzzy_satisfies_all_axioms() {
        let samples: Vec<Fuzzy> = [0u8, 10, 30, 50, 70, 100].map(Fuzzy::new).to_vec();
        check_axioms(&samples).unwrap();
    }

    #[test]
    fn fuzzy_is_goedel_logic_with_involutive_negation() {
        let a = Fuzzy::new(30);
        let b = Fuzzy::new(70);
        assert_eq!(a.add(&b), b, "+ is max");
        assert_eq!(a.mul(&b), a, "× is min");
        assert_eq!(a.not(), b, "not is 1 − x");
        assert_eq!(a.not().not(), a, "negation is involutive");
        assert_eq!(Fuzzy::new(200), Fuzzy::new(100), "degrees clamp at 1");
    }
}
