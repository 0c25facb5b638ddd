-- Fixed workload behind the CI perf-regression gate and the trace smoke.
--
-- The goal mix mirrors the throughput bench's corpus-shaped workload:
-- predicate pushdown through a join, EXISTS-to-join under DISTINCT,
-- GROUP BY alias renames, UNION ALL commutation, and a sprinkle of
-- non-theorems so both exit kinds of both backends appear. Deterministic
-- counters over this file are byte-identical run to run; CI diffs them
-- against ci/baseline-metrics.json with udp-prof-diff. Regenerate the
-- baseline with the same udp-verify invocation CI uses (see
-- .github/workflows/ci.yml) whenever the profile legitimately shifts.
schema rs(k:int, a:int, b:int);
schema ss(k2:int, c:int);
table r(rs);
table r2(rs);
table s(ss);
key r(k);

verify
SELECT x.a AS a, y.c AS c FROM r x, s y WHERE x.k = y.k2 AND x.a = 1
==
SELECT x.a AS a, y.c AS c FROM (SELECT * FROM r x2 WHERE x2.a = 1) x, s y WHERE x.k = y.k2;

verify
SELECT x.a AS a, y.c AS c FROM r x, s y WHERE x.k = y.k2 AND x.a = 2
==
SELECT x.a AS a, y.c AS c FROM (SELECT * FROM r x2 WHERE x2.a = 2) x, s y WHERE x.k = y.k2;

verify
SELECT u.a AS a, w.c AS c FROM r u, s w WHERE u.k = w.k2 AND u.a = 3
==
SELECT u.a AS a, w.c AS c FROM (SELECT * FROM r v WHERE v.a = 3) u, s w WHERE u.k = w.k2;

verify
SELECT DISTINCT x.a AS a FROM r x WHERE EXISTS (SELECT * FROM s y WHERE y.k2 = x.k) AND x.b = 4
==
SELECT DISTINCT x.a AS a FROM r x, s y WHERE y.k2 = x.k AND x.b = 4;

verify
SELECT DISTINCT x.a AS a FROM r x WHERE EXISTS (SELECT * FROM s y WHERE y.k2 = x.k) AND x.b = 5
==
SELECT DISTINCT x.a AS a FROM r x, s y WHERE y.k2 = x.k AND x.b = 5;

verify
SELECT x.k AS k, SUM(x.a) AS t FROM r x WHERE x.b = 6 GROUP BY x.k
==
SELECT q.k AS k, SUM(q.a) AS t FROM r q WHERE q.b = 6 GROUP BY q.k;

verify
SELECT x.k AS k, SUM(x.a) AS t FROM r x WHERE x.b = 7 GROUP BY x.k
==
SELECT q.k AS k, SUM(q.a) AS t FROM r q WHERE q.b = 7 GROUP BY q.k;

verify
SELECT x.a AS v FROM r x WHERE x.a = 8 UNION ALL SELECT z.a AS v FROM r2 z
==
SELECT z.a AS v FROM r2 z UNION ALL SELECT x.a AS v FROM r x WHERE x.a = 8;

verify
SELECT x.a AS v FROM r x WHERE x.a = 9 UNION ALL SELECT z.a AS v FROM r2 z
==
SELECT z.a AS v FROM r2 z UNION ALL SELECT x.a AS v FROM r x WHERE x.a = 9;

verify
SELECT x.a AS a FROM r x WHERE x.k = 10
==
SELECT x.a AS a FROM r x WHERE x.k = 10;

verify
SELECT x.a AS a FROM r x WHERE x.a = 11 AND x.b = 12
==
SELECT y.a AS a FROM r y WHERE y.b = 12 AND y.a = 11;

verify
SELECT x.a AS a FROM r x WHERE x.a = 13
==
SELECT y.a AS a FROM r y WHERE y.a = 400;

verify
SELECT x.a AS a FROM r x WHERE x.b = 14
==
SELECT y.a AS a FROM r y WHERE y.b = 401;

verify
SELECT DISTINCT x.a AS a FROM r x
==
SELECT DISTINCT y.a AS a FROM (SELECT * FROM r z) y;

verify
SELECT x.a AS a, x.b AS b FROM r x WHERE x.a = 15
==
SELECT y.a AS a, y.b AS b FROM r y WHERE y.a = 15 AND y.a = 15;

verify
SELECT x.a AS a FROM r x, r2 z WHERE x.k = z.k AND x.a = 16
==
SELECT x.a AS a FROM r2 z, r x WHERE z.k = x.k AND x.a = 16;

-- Cyclic self-joins (edges x_i.a = x_{i+1}.k over the keyless r2): a
-- renamed rotation, and a split into two 3-cycles. Both exercise the
-- colour-refined isomorphism search.
verify
SELECT x1.b AS b FROM r2 x1, r2 x2, r2 x3, r2 x4, r2 x5, r2 x6
WHERE x1.a = x2.k AND x2.a = x3.k AND x3.a = x4.k AND x4.a = x5.k AND x5.a = x6.k AND x6.a = x1.k
==
SELECT y4.b AS b FROM r2 y1, r2 y2, r2 y3, r2 y4, r2 y5, r2 y6
WHERE y1.k = y6.a AND y5.a = y6.k AND y4.a = y5.k AND y2.a = y3.k AND y1.a = y2.k AND y3.a = y4.k;

verify
SELECT x1.b AS b FROM r2 x1, r2 x2, r2 x3, r2 x4, r2 x5, r2 x6
WHERE x1.a = x2.k AND x2.a = x3.k AND x3.a = x4.k AND x4.a = x5.k AND x5.a = x6.k AND x6.a = x1.k
==
SELECT y1.b AS b FROM r2 y1, r2 y2, r2 y3, r2 y4, r2 y5, r2 y6
WHERE y1.a = y2.k AND y2.a = y3.k AND y3.a = y1.k AND y4.a = y5.k AND y5.a = y6.k AND y6.a = y4.k;

-- Grouped aggregates with a HAVING count: a join reorder plus a tautology
-- under a correlated EXISTS, and a table wrapped in SELECT *. Both keep
-- aggregate bodies alive through canonization and the isomorphism search,
-- so the gate covers the aggregate path.
verify
SELECT x.k AS g, MAX(x.a) AS v FROM r x, s y WHERE x.k = y.k2 AND EXISTS (SELECT * FROM r2 z WHERE z.b = x.a) GROUP BY x.k HAVING COUNT(*) > 1
==
SELECT x.k AS g, MAX(x.a) AS v FROM s y, r x WHERE y.k2 = x.k AND EXISTS (SELECT * FROM r2 z WHERE z.b = x.a) AND 1 = 1 GROUP BY x.k HAVING COUNT(*) > 1;

verify
SELECT x.k AS g, SUM(x.a) AS v FROM r x, s y WHERE x.k = y.k2 GROUP BY x.k HAVING COUNT(*) > 1
==
SELECT x.k AS g, SUM(x.a) AS v FROM (SELECT * FROM r x2) x, s y WHERE x.k = y.k2 GROUP BY x.k HAVING COUNT(*) > 1;

-- The fingerprint path: an aggregate body holding a UNION ALL of two joins
-- (commuted, with the join operands swapped) under GROUP BY … HAVING
-- COUNT(*) > 1. Its body renders in several colouring contexts per form.
verify
SELECT u.k AS g, COUNT(*) AS n FROM (SELECT x.k AS k FROM r x, s y WHERE x.k = y.k2 UNION ALL SELECT z.k AS k FROM r2 z, s w WHERE z.a = w.k2) u GROUP BY u.k HAVING COUNT(*) > 1
==
SELECT u.k AS g, COUNT(*) AS n FROM (SELECT z.k AS k FROM s w, r2 z WHERE w.k2 = z.a UNION ALL SELECT x.k AS k FROM s y, r x WHERE y.k2 = x.k) u GROUP BY u.k HAVING COUNT(*) > 1;
