//! Shared state threaded through the decision procedures.

use crate::budget::Budget;
use crate::constraints::ConstraintSet;
use crate::expr::{AggBody, Pred, VarGen, VarId};
use crate::schema::{Catalog, SchemaId};
use crate::trace::Trace;
use std::collections::HashMap;

/// Memo key for semantic aggregate comparisons: aggregate name, the two
/// bodies' alpha-normal forms ([`AggBody::alpha`], shared with the bodies
/// and hashed by their cached content hash), and the ambient predicate
/// context.
pub type AggKey = (String, AggBody, AggBody, Vec<Pred>);

/// Feature switches. Defaults reproduce the full algorithm; the ablation
/// table of the `experiments` binary toggles individual phases off to
/// quantify their contribution.
#[derive(Debug, Clone)]
pub struct Options {
    /// Run `canonize` (Alg 1) at all. Off = pure SPNF + matching.
    pub canonize: bool,
    /// Use congruence closure for predicate equivalence (Sec 5.2). Off =
    /// syntactic predicate matching (orientation + exact equality).
    pub congruence: bool,
    /// Use key / foreign-key identities (Sec 4). Off = ignore constraints.
    pub use_constraints: bool,
    /// Apply the generalized Theorem 4.3 squash introduction.
    pub squash_intro: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            canonize: true,
            congruence: true,
            use_constraints: true,
            squash_intro: true,
        }
    }
}

/// Mutable context for one `decide` invocation.
pub struct Ctx<'a> {
    /// Declared schemas and relations.
    pub catalog: &'a Catalog,
    /// Integrity constraints in scope.
    pub cs: &'a ConstraintSet,
    /// Fresh-variable source (seeded above all problem variables).
    pub gen: VarGen,
    /// Step / wall-clock budget, decremented by every search tick.
    pub budget: Budget,
    /// Proof-trace sink (disabled unless requested).
    pub trace: Trace,
    /// Stage-metrics sink for the nested canonize-core / congruence spans
    /// (disabled — and free — unless requested).
    pub recorder: udp_obs::Recorder,
    /// Feature switches (ablations).
    pub opts: Options,
    /// Memoized verdicts of semantic aggregate-body comparisons.
    pub agg_cache: HashMap<AggKey, bool>,
    /// Schemas of the variables free in the (sub)problem currently being
    /// decided: the output tuple at the top level, plus enclosing binders
    /// when the procedures descend into squash / negation factors. The
    /// homomorphism search uses this to soundly map a bound pattern variable
    /// onto a free variable of the same schema (see `hom::Matcher`).
    pub free_schemas: HashMap<VarId, SchemaId>,
}

impl<'a> Ctx<'a> {
    /// A context with default budget, options, and no tracing.
    pub fn new(catalog: &'a Catalog, cs: &'a ConstraintSet) -> Self {
        Ctx {
            catalog,
            cs,
            gen: VarGen::new(),
            budget: Budget::standard(),
            trace: Trace::disabled(),
            recorder: udp_obs::Recorder::disabled(),
            opts: Options::default(),
            agg_cache: HashMap::new(),
            free_schemas: HashMap::new(),
        }
    }

    /// Declare the schema of a free variable (see [`Ctx::free_schemas`]).
    pub fn declare_free(&mut self, v: VarId, schema: SchemaId) {
        self.free_schemas.insert(v, schema);
    }

    /// Replace the budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Replace the option switches.
    pub fn with_options(mut self, opts: Options) -> Self {
        self.opts = opts;
        self
    }

    /// Enable proof-trace recording.
    pub fn with_trace(mut self) -> Self {
        self.trace = Trace::enabled();
        self
    }

    /// Attach a stage-metrics recorder (see [`udp_obs::Recorder`]).
    pub fn with_recorder(mut self, recorder: udp_obs::Recorder) -> Self {
        self.recorder = recorder;
        self
    }
}
