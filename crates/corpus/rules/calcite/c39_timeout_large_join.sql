-- name: calcite/timeout-large-join
-- source: calcite
-- categories: ucq
-- expect: not-proved
-- cosette: expressible
-- note: Two 9-way cyclic self-joins, one equated on deptno and one on empno. The paper reports a timeout (no result after 30 minutes); colour refinement of the equality classes rules out every bijection before any search, so the verdict is NotProved(NoProofFound) — no proof found, which is not a refutation.
schema emp_s(empno:int, deptno:int, sal:int);
schema dept_s(deptno:int, dname:string);
table emp(emp_s);
table dept(dept_s);
verify
SELECT a1.sal AS v FROM emp a1, emp a2, emp a3, emp a4, emp a5, emp a6, emp a7, emp a8, emp a9
WHERE a1.deptno = a2.deptno AND a2.deptno = a3.deptno AND a3.deptno = a4.deptno
  AND a4.deptno = a5.deptno AND a5.deptno = a6.deptno AND a6.deptno = a7.deptno
  AND a7.deptno = a8.deptno AND a8.deptno = a9.deptno AND a9.deptno = a1.deptno
==
SELECT b1.sal AS v FROM emp b1, emp b2, emp b3, emp b4, emp b5, emp b6, emp b7, emp b8, emp b9
WHERE b1.empno = b2.empno AND b2.empno = b3.empno AND b3.empno = b4.empno
  AND b4.empno = b5.empno AND b5.empno = b6.empno AND b6.empno = b7.empno
  AND b7.empno = b8.empno AND b8.empno = b9.empno AND b9.empno = b1.empno;
