//! Random query generation over a fixed catalog.
//!
//! Every query this module emits is, by construction:
//!
//! * inside the **paper dialect** (Fig 2) — so it parses back after pretty
//!   printing without the extended dialect;
//! * **resolvable** — every column reference is alias-qualified and names an
//!   attribute its alias actually has, so lowering cannot fail;
//! * **evaluable** — no scalar subqueries (whose cardinality can make the
//!   concrete evaluator inconclusive), aggregates only in the grouped shape
//!   the evaluator supports.
//!
//! Aliases are globally fresh (`x0`, `x1`, …) even across nesting levels, so
//! correlated `EXISTS` subqueries never shadow the outer alias they
//! reference.

use rand::rngs::StdRng;
use rand::RngExt;
use udp_core::name::Name;
use udp_sql::ast::{
    AggArg, CmpOp, FromItem, OuterJoin, OuterKind, PredExpr, Query, ScalarExpr, Select, SelectItem,
    TableRef,
};
use udp_sql::Frontend;

/// Shape parameters for random queries.
#[derive(Debug, Clone)]
pub struct GenProfile {
    /// Maximum FROM items per SELECT block.
    pub max_from: usize,
    /// Maximum nesting depth (UNION ALL arms, FROM subqueries, EXISTS).
    pub max_depth: usize,
    /// Probability of a `UNION ALL` at the current level (depth permitting).
    pub union_prob: f64,
    /// Probability a FROM item is a derived-table subquery.
    pub subquery_prob: f64,
    /// Probability a predicate leaf position grows an `EXISTS`.
    pub exists_prob: f64,
    /// Probability of `SELECT DISTINCT`.
    pub distinct_prob: f64,
    /// Probability of a grouped-aggregate block.
    pub agg_prob: f64,
    /// Probability of a WHERE clause.
    pub where_prob: f64,
    /// Probability a no-constraint projection is a bare `*`.
    pub star_prob: f64,
    /// Probability a predicate leaf is `IS [NOT] NULL` or a NULL-literal
    /// comparison (full dialect; `0.0` keeps the paper fragment).
    pub null_pred_prob: f64,
    /// Probability a two-table FROM becomes an outer join (full dialect;
    /// `0.0` keeps the paper fragment).
    pub outer_prob: f64,
}

impl Default for GenProfile {
    fn default() -> Self {
        GenProfile {
            max_from: 2,
            max_depth: 2,
            union_prob: 0.15,
            subquery_prob: 0.2,
            exists_prob: 0.15,
            distinct_prob: 0.25,
            agg_prob: 0.15,
            where_prob: 0.8,
            star_prob: 0.25,
            null_pred_prob: 0.0,
            outer_prob: 0.0,
        }
    }
}

impl GenProfile {
    /// The full-dialect profile: NULL predicates and outer joins enabled
    /// (pairs generated under it must go through a `Dialect::Full` session,
    /// which desugars via udp-ext before proving).
    pub fn full() -> Self {
        GenProfile {
            null_pred_prob: 0.2,
            outer_prob: 0.35,
            ..GenProfile::default()
        }
    }
}

/// Random query generator bound to one catalog.
pub struct QueryGen<'a> {
    fe: &'a Frontend,
    profile: GenProfile,
    /// Table name → attribute names, precomputed for cheap random access.
    tables: Vec<(Name, Vec<Name>)>,
}

/// What a generated scope can see: `(alias, columns)` per FROM item.
type Scope = Vec<(Name, Vec<Name>)>;

impl<'a> QueryGen<'a> {
    /// Build a generator over the frontend's base tables.
    pub fn new(fe: &'a Frontend, profile: GenProfile) -> QueryGen<'a> {
        let tables = fe
            .catalog
            .relations()
            .map(|(id, rel)| {
                let schema = fe.catalog.relation_schema(id);
                let attrs = schema.attrs.iter().map(|(n, _)| n.clone()).collect();
                (rel.name.clone(), attrs)
            })
            .collect();
        QueryGen {
            fe,
            profile,
            tables,
        }
    }

    /// The frontend the generator draws tables from.
    pub fn frontend(&self) -> &Frontend {
        self.fe
    }

    /// Generate one random query.
    pub fn query(&self, rng: &mut StdRng) -> Query {
        let mut next_alias = 0usize;
        self.gen_query(rng, self.profile.max_depth, None, &mut next_alias)
    }

    fn gen_query(
        &self,
        rng: &mut StdRng,
        depth: usize,
        want: Option<&[Name]>,
        next_alias: &mut usize,
    ) -> Query {
        if depth > 0 && rng.random_bool(self.profile.union_prob) {
            // UNION ALL arms must agree on output arity and names: fix a
            // signature up front and generate both arms against it.
            let names: Vec<Name> = match want {
                Some(w) => w.to_vec(),
                None => {
                    let arity = rng.random_range(1..=2usize);
                    (0..arity).map(|i| Name::from(format!("u{i}"))).collect()
                }
            };
            let a = self.gen_query(rng, depth - 1, Some(&names), next_alias);
            let b = self.gen_query(rng, depth - 1, Some(&names), next_alias);
            Query::UnionAll(Box::new(a), Box::new(b))
        } else {
            Query::Select(self.gen_select(rng, depth, want, next_alias))
        }
    }

    fn gen_select(
        &self,
        rng: &mut StdRng,
        depth: usize,
        want: Option<&[Name]>,
        next_alias: &mut usize,
    ) -> Select {
        let n_from = rng.random_range(1..=self.profile.max_from.max(1));
        let mut from = Vec::with_capacity(n_from);
        let mut scope: Scope = Vec::with_capacity(n_from);
        let mut all_tables = true;
        for _ in 0..n_from {
            let alias = Name::from(format!("x{}", *next_alias));
            *next_alias += 1;
            if depth > 0 && rng.random_bool(self.profile.subquery_prob) {
                let arity = rng.random_range(1..=2usize);
                let names: Vec<Name> = (0..arity).map(|i| Name::from(format!("c{i}"))).collect();
                let sub = self.gen_query(rng, depth - 1, Some(&names), next_alias);
                from.push(FromItem {
                    source: TableRef::Subquery(Box::new(sub)),
                    alias: alias.clone(),
                });
                scope.push((alias, names));
                all_tables = false;
            } else {
                let (table, attrs) = self.tables[rng.random_range(0..self.tables.len())].clone();
                from.push(FromItem {
                    source: TableRef::Table(table),
                    alias: alias.clone(),
                });
                scope.push((alias, attrs));
            }
        }

        // Outer join between two adjacent base-table items (full profile):
        // a random flavor with an equality ON over the pair's columns.
        // Aggregates over outer joins are outside the udp-ext encoding, so
        // the grouped path is skipped whenever a spec was emitted.
        let mut outer: Vec<OuterJoin> = Vec::new();
        if from.len() == 2 && all_tables && rng.random_bool(self.profile.outer_prob) {
            let kind =
                [OuterKind::Left, OuterKind::Right, OuterKind::Full][rng.random_range(0..3usize)];
            let (la, lcols) = &scope[0];
            let (ra, rcols) = &scope[1];
            let on = PredExpr::Cmp(
                CmpOp::Eq,
                ScalarExpr::col(la.clone(), lcols[rng.random_range(0..lcols.len())].clone()),
                ScalarExpr::col(ra.clone(), rcols[rng.random_range(0..rcols.len())].clone()),
            );
            outer.push(OuterJoin {
                kind,
                left: la.clone(),
                right: ra.clone(),
                on,
            });
        }

        let where_clause = if rng.random_bool(self.profile.where_prob) {
            Some(self.gen_pred(rng, depth, &scope, 2, next_alias))
        } else {
            None
        };

        if outer.is_empty() && rng.random_bool(self.profile.agg_prob) {
            return self.finish_grouped(rng, from, scope, where_clause, want);
        }

        // Bare `*` needs a single base table: with two FROM items the shared
        // `k` attribute would be a duplicate star column, which lowering
        // rejects.
        let star_ok = all_tables && from.len() == 1;
        let projection = match want {
            None if star_ok && rng.random_bool(self.profile.star_prob) => {
                vec![SelectItem::Star]
            }
            _ => {
                let names: Vec<Name> = match want {
                    Some(w) => w.to_vec(),
                    None => {
                        let arity = rng.random_range(1..=3usize);
                        (0..arity).map(|i| Name::from(format!("p{i}"))).collect()
                    }
                };
                names
                    .iter()
                    .map(|name| {
                        let expr = if rng.random_bool(0.85) {
                            self.random_col(rng, &scope)
                        } else {
                            ScalarExpr::Int(rng.random_range(0..4))
                        };
                        SelectItem::Expr {
                            expr,
                            alias: Some(name.clone()),
                        }
                    })
                    .collect()
            }
        };

        Select {
            distinct: rng.random_bool(self.profile.distinct_prob),
            projection,
            from,
            where_clause,
            group_by: vec![],
            having: None,
            natural: vec![],
            outer,
        }
    }

    /// A grouped-aggregate block: `SELECT g AS …, agg(…) AS … FROM … GROUP
    /// BY g [HAVING COUNT(*) > 1]`. With a single requested output column
    /// the group key is still present in GROUP BY but only the aggregate is
    /// projected.
    fn finish_grouped(
        &self,
        rng: &mut StdRng,
        from: Vec<FromItem>,
        scope: Scope,
        where_clause: Option<PredExpr>,
        want: Option<&[Name]>,
    ) -> Select {
        let group_col = self.random_col(rng, &scope);
        let names: Vec<Name> = match want {
            Some(w) => w.to_vec(),
            None => vec!["g".into(), "v".into()],
        };
        let mut projection = Vec::with_capacity(names.len());
        for (i, name) in names.iter().enumerate() {
            let expr = if i == 0 && names.len() > 1 {
                group_col.clone()
            } else {
                self.random_agg(rng, &scope)
            };
            projection.push(SelectItem::Expr {
                expr,
                alias: Some(name.clone()),
            });
        }
        let having = if rng.random_bool(0.3) {
            Some(PredExpr::Cmp(
                CmpOp::Gt,
                ScalarExpr::Agg {
                    func: "count".into(),
                    arg: AggArg::Star,
                    distinct: false,
                },
                ScalarExpr::Int(1),
            ))
        } else {
            None
        };
        Select {
            distinct: false,
            projection,
            from,
            where_clause,
            group_by: vec![group_col],
            having,
            natural: vec![],
            outer: vec![],
        }
    }

    fn random_agg(&self, rng: &mut StdRng, scope: &Scope) -> ScalarExpr {
        let func = ["count", "sum", "min", "max"][rng.random_range(0..4usize)];
        let arg = if func == "count" && rng.random_bool(0.4) {
            AggArg::Star
        } else {
            AggArg::Expr(Box::new(self.random_col(rng, scope)))
        };
        ScalarExpr::Agg {
            func: func.into(),
            arg,
            distinct: false,
        }
    }

    fn random_col(&self, rng: &mut StdRng, scope: &Scope) -> ScalarExpr {
        let (alias, cols) = &scope[rng.random_range(0..scope.len())];
        let col = &cols[rng.random_range(0..cols.len())];
        ScalarExpr::col(alias.clone(), col.clone())
    }

    fn gen_pred(
        &self,
        rng: &mut StdRng,
        depth: usize,
        scope: &Scope,
        fuel: usize,
        next_alias: &mut usize,
    ) -> PredExpr {
        if fuel > 0 {
            let roll = rng.random_range(0..100u32);
            if roll < 35 {
                return PredExpr::And(
                    Box::new(self.gen_pred(rng, depth, scope, fuel - 1, next_alias)),
                    Box::new(self.gen_pred(rng, depth, scope, fuel - 1, next_alias)),
                );
            } else if roll < 50 {
                return PredExpr::Or(
                    Box::new(self.gen_pred(rng, depth, scope, fuel - 1, next_alias)),
                    Box::new(self.gen_pred(rng, depth, scope, fuel - 1, next_alias)),
                );
            } else if roll < 58 {
                return PredExpr::Not(Box::new(self.gen_pred(
                    rng,
                    depth,
                    scope,
                    fuel - 1,
                    next_alias,
                )));
            }
        }
        if depth > 0 && rng.random_bool(self.profile.exists_prob) {
            return self.gen_exists(rng, scope, next_alias);
        }
        // NULL-predicate leaves (full profile): IS [NOT] NULL and the
        // always-UNKNOWN NULL-literal comparison.
        if self.profile.null_pred_prob > 0.0 && rng.random_bool(self.profile.null_pred_prob) {
            let c = self.random_col(rng, scope);
            return match rng.random_range(0..3u32) {
                0 => PredExpr::IsNull(Box::new(c)),
                1 => PredExpr::Not(Box::new(PredExpr::IsNull(Box::new(c)))),
                _ => PredExpr::Cmp(CmpOp::Eq, c, ScalarExpr::Null),
            };
        }
        // Comparison leaf: mostly equalities (the interpreted operator the
        // prover reasons about), occasionally an uninterpreted ordering.
        let op = if rng.random_bool(0.7) {
            CmpOp::Eq
        } else {
            [CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][rng.random_range(0..5usize)]
        };
        let lhs = self.random_col(rng, scope);
        let rhs = if rng.random_bool(0.5) {
            self.random_col(rng, scope)
        } else {
            ScalarExpr::Int(rng.random_range(0..4))
        };
        PredExpr::Cmp(op, lhs, rhs)
    }

    /// A correlated existential: `EXISTS (SELECT * FROM t y WHERE y.col =
    /// outer.col)`.
    fn gen_exists(&self, rng: &mut StdRng, scope: &Scope, next_alias: &mut usize) -> PredExpr {
        let (table, attrs) = self.tables[rng.random_range(0..self.tables.len())].clone();
        let alias = Name::from(format!("x{}", *next_alias));
        *next_alias += 1;
        let inner_col = ScalarExpr::col(
            alias.clone(),
            attrs[rng.random_range(0..attrs.len())].clone(),
        );
        let outer_col = self.random_col(rng, scope);
        let inner = Select {
            distinct: false,
            projection: vec![SelectItem::Star],
            from: vec![FromItem {
                source: TableRef::Table(table),
                alias,
            }],
            where_clause: Some(PredExpr::Cmp(CmpOp::Eq, inner_col, outer_col)),
            group_by: vec![],
            having: None,
            natural: vec![],
            outer: vec![],
        };
        PredExpr::Exists(Box::new(Query::Select(inner)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{random_frontend, SchemaProfile};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use udp_sql::pretty::query_to_sql;

    #[test]
    fn generated_queries_lower_and_round_trip() {
        for seed in 0..150 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (_, fe) = random_frontend(&mut rng, &SchemaProfile::default());
            let qg = QueryGen::new(&fe, GenProfile::default());
            let q = qg.query(&mut rng);
            let sql = query_to_sql(&q);
            let back = udp_sql::parse_query(&sql)
                .unwrap_or_else(|e| panic!("seed {seed}: unparseable `{sql}`: {e}"));
            assert_eq!(q, back, "seed {seed}: round trip changed `{sql}`");
            let mut fe2 = fe.clone();
            let mut gen = udp_core::expr::VarGen::new();
            udp_sql::lower_query(&mut fe2, &mut gen, &q)
                .unwrap_or_else(|e| panic!("seed {seed}: `{sql}` failed to lower: {e}"));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let mut r1 = StdRng::seed_from_u64(3);
        let mut r2 = StdRng::seed_from_u64(3);
        let (_, fe1) = random_frontend(&mut r1, &SchemaProfile::default());
        let (_, fe2) = random_frontend(&mut r2, &SchemaProfile::default());
        let g1 = QueryGen::new(&fe1, GenProfile::default());
        let g2 = QueryGen::new(&fe2, GenProfile::default());
        assert_eq!(g1.query(&mut r1), g2.query(&mut r2));
    }
}
