//! Positive relational algebra over pc-tables with lineage composition.
//!
//! In the provenance-semiring style (Green–Karvounarakis–Tannen, extended
//! with events): selection keeps lineage, join conjoins it, projection and
//! union disjoin the lineage of collapsing duplicates.

use crate::pctable::PcTable;
use crate::relation::{Datum, DatumKey, Schema};
use enframe_core::Event;
use std::collections::HashMap;
use std::rc::Rc;

/// A row view with access by column name.
pub struct Row<'a> {
    schema: &'a Schema,
    data: &'a [Datum],
}

impl<'a> Row<'a> {
    /// The value of a column.
    ///
    /// # Panics
    /// Panics on unknown columns.
    pub fn get(&self, col: &str) -> &Datum {
        let i = self
            .schema
            .col(col)
            .unwrap_or_else(|| panic!("unknown column `{col}`"));
        &self.data[i]
    }
}

/// An eagerly evaluated positive relational algebra query.
#[derive(Debug, Clone)]
pub struct Query {
    table: PcTable,
}

impl Query {
    /// Starts a query from a base pc-table.
    pub fn scan(table: &PcTable) -> Query {
        Query {
            table: table.clone(),
        }
    }

    /// Selection σ: keeps tuples satisfying the predicate; lineage is
    /// unchanged.
    pub fn select(self, pred: impl Fn(&Row<'_>) -> bool) -> Query {
        let mut out = PcTable::new(self.table.schema.clone());
        for (t, phi) in self.table.rows() {
            let row = Row {
                schema: &self.table.schema,
                data: t,
            };
            if pred(&row) {
                out.insert(t.clone(), phi.clone());
            }
        }
        Query { table: out }
    }

    /// Projection π with duplicate elimination: collapsing tuples disjoin
    /// their lineage (`∨`).
    ///
    /// # Panics
    /// Panics on unknown columns.
    pub fn project(self, cols: &[&str]) -> Query {
        let idx: Vec<usize> = cols
            .iter()
            .map(|c| {
                self.table
                    .schema
                    .col(c)
                    .unwrap_or_else(|| panic!("unknown column `{c}`"))
            })
            .collect();
        let schema = Schema::new(cols);
        let mut groups: Vec<(Vec<Datum>, Vec<Rc<Event>>)> = Vec::new();
        let mut index: HashMap<Vec<DatumKey>, usize> = HashMap::new();
        for (t, phi) in self.table.rows() {
            let proj: Vec<Datum> = idx.iter().map(|&i| t[i].clone()).collect();
            let key: Vec<DatumKey> = proj.iter().map(Datum::key).collect();
            match index.get(&key) {
                Some(&g) => groups[g].1.push(phi.clone()),
                None => {
                    index.insert(key, groups.len());
                    groups.push((proj, vec![phi.clone()]));
                }
            }
        }
        let mut out = PcTable::new(schema);
        for (t, phis) in groups {
            out.insert(t, Event::or(phis));
        }
        Query { table: out }
    }

    /// Natural join ⋈ on all shared columns: matching tuples conjoin their
    /// lineage (`∧`). Disjoint schemas degrade to a cross product.
    pub fn join(self, other: &Query) -> Query {
        let left = &self.table;
        let right = &other.table;
        let shared = left.schema.shared(&right.schema);
        let l_idx: Vec<usize> = shared.iter().map(|c| left.schema.col(c).unwrap()).collect();
        let r_idx: Vec<usize> = shared
            .iter()
            .map(|c| right.schema.col(c).unwrap())
            .collect();
        let r_extra: Vec<usize> = (0..right.schema.arity())
            .filter(|i| !r_idx.contains(i))
            .collect();
        let mut out_cols: Vec<&str> = left.schema.cols().iter().map(String::as_str).collect();
        let right_cols = right.schema.cols();
        for &i in &r_extra {
            out_cols.push(right_cols[i].as_str());
        }
        let schema = Schema::new(&out_cols);
        // Hash join on the shared columns.
        let mut build: HashMap<Vec<DatumKey>, Vec<usize>> = HashMap::new();
        for (rid, (t, _)) in right.rows().iter().enumerate() {
            let key: Vec<DatumKey> = r_idx.iter().map(|&i| t[i].key()).collect();
            build.entry(key).or_default().push(rid);
        }
        let mut out = PcTable::new(schema);
        for (lt, lphi) in left.rows() {
            let key: Vec<DatumKey> = l_idx.iter().map(|&i| lt[i].key()).collect();
            if let Some(matches) = build.get(&key) {
                for &rid in matches {
                    let (rt, rphi) = &right.rows()[rid];
                    let mut tuple = lt.clone();
                    for &i in &r_extra {
                        tuple.push(rt[i].clone());
                    }
                    out.insert(tuple, Event::and([lphi.clone(), rphi.clone()]));
                }
            }
        }
        Query { table: out }
    }

    /// Union ∪ with duplicate elimination (`∨` on collapsing tuples).
    ///
    /// # Panics
    /// Panics if the schemas differ.
    pub fn union(self, other: &Query) -> Query {
        assert_eq!(
            self.table.schema, other.table.schema,
            "union requires identical schemas"
        );
        let mut combined = self.table.clone();
        for (t, phi) in other.table.rows() {
            combined.insert(t.clone(), phi.clone());
        }
        let cols: Vec<String> = combined.schema.cols().to_vec();
        let cols: Vec<&str> = cols.iter().map(String::as_str).collect();
        Query { table: combined }.project(&cols)
    }

    /// Finishes the query, returning the result pc-table.
    pub fn result(self) -> PcTable {
        self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enframe_core::{space, Program, Valuation, Var, VarTable};

    /// Sensors(id, substation, pd) and Substations(substation, region).
    fn fixtures() -> (PcTable, PcTable) {
        let mut s = PcTable::new(Schema::new(&["id", "substation", "pd"]));
        s.insert_var(
            vec![Datum::Int(0), Datum::Str("A".into()), Datum::Float(3.0)],
            Var(0),
        );
        s.insert_var(
            vec![Datum::Int(1), Datum::Str("A".into()), Datum::Float(9.0)],
            Var(1),
        );
        s.insert_var(
            vec![Datum::Int(2), Datum::Str("B".into()), Datum::Float(4.0)],
            Var(2),
        );
        let mut t = PcTable::new(Schema::new(&["substation", "region"]));
        t.insert_certain(vec![Datum::Str("A".into()), Datum::Str("north".into())]);
        t.insert_var(
            vec![Datum::Str("B".into()), Datum::Str("south".into())],
            Var(3),
        );
        (s, t)
    }

    #[test]
    fn selection_filters_without_touching_lineage() {
        let (s, _) = fixtures();
        let q = Query::scan(&s)
            .select(|r| r.get("pd").as_f64().unwrap() > 3.5)
            .result();
        assert_eq!(q.len(), 2);
        assert!(matches!(*q.rows()[0].1, Event::Var(Var(1))));
    }

    #[test]
    fn projection_disjoins_duplicates() {
        let (s, _) = fixtures();
        let q = Query::scan(&s).project(&["substation"]).result();
        assert_eq!(q.len(), 2);
        // Substation A exists iff sensor 0 or sensor 1 exists.
        let a_lineage = &q.rows()[0].1;
        let nu = Valuation::from_bits(vec![false, true, false, false]);
        assert!(a_lineage.eval_closed(&nu).unwrap());
        let nu2 = Valuation::from_bits(vec![false, false, false, false]);
        assert!(!a_lineage.eval_closed(&nu2).unwrap());
    }

    #[test]
    fn join_conjoins_lineage() {
        let (s, t) = fixtures();
        let q = Query::scan(&s).join(&Query::scan(&t)).result();
        assert_eq!(q.schema.cols(), &["id", "substation", "pd", "region"]);
        assert_eq!(q.len(), 3);
        // Sensor 2 in region south requires x2 ∧ x3.
        let row2 = &q.rows()[2];
        let nu = Valuation::from_bits(vec![false, false, true, false]);
        assert!(!row2.1.eval_closed(&nu).unwrap());
        let nu2 = Valuation::from_bits(vec![false, false, true, true]);
        assert!(row2.1.eval_closed(&nu2).unwrap());
    }

    #[test]
    fn union_dedups_across_operands() {
        let (s, _) = fixtures();
        let a = Query::scan(&s).project(&["substation"]);
        let b = Query::scan(&s).project(&["substation"]);
        let u = a.union(&b).result();
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn query_probability_via_core() {
        // P(substation A appears in the projection) = P(x0 ∨ x1).
        let (s, _) = fixtures();
        let q = Query::scan(&s).project(&["substation"]).result();
        let lineage = q.rows()[0].1.clone();
        let mut p = Program::new();
        for _ in 0..4 {
            p.fresh_var();
        }
        let id = p.declare_event("Q", lineage);
        p.add_target(id);
        let g = p.ground().unwrap();
        let vt = VarTable::new(vec![0.5, 0.5, 0.5, 0.5]);
        let got = space::target_probabilities(&g, &vt)[0];
        assert!((got - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "identical schemas")]
    fn union_schema_mismatch_panics() {
        let (s, t) = fixtures();
        let _ = Query::scan(&s).union(&Query::scan(&t));
    }

    #[test]
    fn join_disjoint_schemas_is_cross_product() {
        let mut a = PcTable::new(Schema::new(&["x"]));
        a.insert_certain(vec![Datum::Int(1)]);
        a.insert_certain(vec![Datum::Int(2)]);
        let mut b = PcTable::new(Schema::new(&["y"]));
        b.insert_certain(vec![Datum::Int(10)]);
        let q = Query::scan(&a).join(&Query::scan(&b)).result();
        assert_eq!(q.len(), 2);
        assert_eq!(q.schema.cols(), &["x", "y"]);
    }
}
