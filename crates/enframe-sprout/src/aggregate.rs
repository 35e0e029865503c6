//! Aggregation over pc-tables, producing conditional values.
//!
//! Following Fink–Han–Olteanu \[14\], the aggregate of an uncertain relation
//! is not a number but a *random variable*, encoded as a c-value:
//! `SUM(col) = Σᵢ Φᵢ ⊗ vᵢ`, `COUNT(*) = Σᵢ Φᵢ ⊗ 1`, and
//! `AVG(col) = COUNT(*)⁻¹ · SUM(col)`. These expressions plug directly into
//! ENFrame event programs (this is what `loadData()` receives when it
//! issues an aggregate query).

use crate::pctable::PcTable;
use enframe_core::{CVal, Value};
use std::rc::Rc;

/// Supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// `Σᵢ Φᵢ ⊗ vᵢ`
    Sum,
    /// `Σᵢ Φᵢ ⊗ 1`
    Count,
    /// `COUNT⁻¹ · SUM`
    Avg,
}

/// Builds the aggregate c-value of `col` over the whole table.
///
/// # Panics
/// Panics if `col` is missing (except for `Count`, where it is ignored)
/// or non-numeric.
pub fn aggregate_cval(table: &PcTable, col: &str, kind: AggKind) -> Rc<CVal> {
    let sum = |col: &str| -> Rc<CVal> {
        let i = table
            .schema
            .col(col)
            .unwrap_or_else(|| panic!("unknown column `{col}`"));
        Rc::new(CVal::Sum(
            table
                .rows()
                .iter()
                .map(|(t, phi)| {
                    let v = t[i]
                        .as_f64()
                        .unwrap_or_else(|| panic!("column `{col}` is not numeric"));
                    CVal::cond(phi.clone(), Value::Num(v))
                })
                .collect(),
        ))
    };
    let count = || -> Rc<CVal> {
        Rc::new(CVal::Sum(
            table
                .rows()
                .iter()
                .map(|(_, phi)| CVal::cond(phi.clone(), Value::Num(1.0)))
                .collect(),
        ))
    };
    match kind {
        AggKind::Sum => sum(col),
        AggKind::Count => count(),
        AggKind::Avg => Rc::new(CVal::Prod(vec![Rc::new(CVal::Inv(count())), sum(col)])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Schema;
    use crate::relation::{Datum, DatumKey};
    use enframe_core::Event;
    use enframe_core::{Valuation, Var};
    use std::collections::HashMap;

    /// Group-by aggregation: returns, per group key, the group's existence
    /// lineage (`∨` of member lineage) and the aggregate c-value over its
    /// members.
    fn group_aggregate(
        table: &PcTable,
        group_cols: &[&str],
        col: &str,
        kind: AggKind,
    ) -> Vec<(Vec<Datum>, Rc<Event>, Rc<CVal>)> {
        let g_idx: Vec<usize> = group_cols
            .iter()
            .map(|c| {
                table
                    .schema
                    .col(c)
                    .unwrap_or_else(|| panic!("unknown column `{c}`"))
            })
            .collect();
        let v_idx = if kind == AggKind::Count {
            usize::MAX
        } else {
            table
                .schema
                .col(col)
                .unwrap_or_else(|| panic!("unknown column `{col}`"))
        };
        let mut order: Vec<Vec<Datum>> = Vec::new();
        let mut groups: HashMap<Vec<DatumKey>, usize> = HashMap::new();
        let mut members: Vec<Vec<(f64, Rc<Event>)>> = Vec::new();
        for (t, phi) in table.rows() {
            let key_data: Vec<Datum> = g_idx.iter().map(|&i| t[i].clone()).collect();
            let key: Vec<DatumKey> = key_data.iter().map(Datum::key).collect();
            let gi = *groups.entry(key).or_insert_with(|| {
                order.push(key_data);
                members.push(Vec::new());
                order.len() - 1
            });
            let v = if v_idx == usize::MAX {
                1.0
            } else {
                t[v_idx]
                    .as_f64()
                    .unwrap_or_else(|| panic!("column `{col}` is not numeric"))
            };
            members[gi].push((v, phi.clone()));
        }
        order
            .into_iter()
            .enumerate()
            .map(|(gi, key)| {
                let ms = &members[gi];
                let lineage = Event::or(ms.iter().map(|(_, phi)| phi.clone()));
                let sum = Rc::new(CVal::Sum(
                    ms.iter()
                        .map(|(v, phi)| CVal::cond(phi.clone(), Value::Num(*v)))
                        .collect(),
                ));
                let count = Rc::new(CVal::Sum(
                    ms.iter()
                        .map(|(_, phi)| CVal::cond(phi.clone(), Value::Num(1.0)))
                        .collect(),
                ));
                let agg = match kind {
                    AggKind::Sum => sum,
                    AggKind::Count => count,
                    AggKind::Avg => Rc::new(CVal::Prod(vec![Rc::new(CVal::Inv(count)), sum])),
                };
                (key, lineage, agg)
            })
            .collect()
    }

    fn table() -> PcTable {
        let mut t = PcTable::new(Schema::new(&["grp", "v"]));
        t.insert_var(vec![Datum::Str("a".into()), Datum::Float(2.0)], Var(0));
        t.insert_var(vec![Datum::Str("a".into()), Datum::Float(3.0)], Var(1));
        t.insert_var(vec![Datum::Str("b".into()), Datum::Float(10.0)], Var(2));
        t
    }

    #[test]
    fn sum_distribution() {
        let t = table();
        let c = aggregate_cval(&t, "v", AggKind::Sum);
        // World x0=1, x1=1, x2=0 → 5; none → undefined.
        let nu = Valuation::from_bits(vec![true, true, false]);
        assert_eq!(c.eval_closed(&nu).unwrap(), Value::Num(5.0));
        let none = Valuation::from_bits(vec![false, false, false]);
        assert!(c.eval_closed(&none).unwrap().is_undef());
    }

    #[test]
    fn count_and_avg() {
        let t = table();
        let cnt = aggregate_cval(&t, "v", AggKind::Count);
        let avg = aggregate_cval(&t, "v", AggKind::Avg);
        let nu = Valuation::from_bits(vec![true, true, true]);
        assert_eq!(cnt.eval_closed(&nu).unwrap(), Value::Num(3.0));
        assert_eq!(avg.eval_closed(&nu).unwrap(), Value::Num(5.0));
        // Single present tuple: avg = its value.
        let one = Valuation::from_bits(vec![false, true, false]);
        assert_eq!(avg.eval_closed(&one).unwrap(), Value::Num(3.0));
    }

    #[test]
    fn group_aggregate_splits_groups() {
        let t = table();
        let gs = group_aggregate(&t, &["grp"], "v", AggKind::Sum);
        assert_eq!(gs.len(), 2);
        let (key, lineage, agg) = &gs[0];
        assert_eq!(key[0], Datum::Str("a".into()));
        // Group a exists iff x0 ∨ x1.
        let nu = Valuation::from_bits(vec![false, true, false]);
        assert!(lineage.eval_closed(&nu).unwrap());
        assert_eq!(agg.eval_closed(&nu).unwrap(), Value::Num(3.0));
    }

    #[test]
    fn group_count_ignores_value_column() {
        let t = table();
        let gs = group_aggregate(&t, &["grp"], "ignored", AggKind::Count);
        let nu = Valuation::from_bits(vec![true, true, true]);
        assert_eq!(gs[0].2.eval_closed(&nu).unwrap(), Value::Num(2.0));
        assert_eq!(gs[1].2.eval_closed(&nu).unwrap(), Value::Num(1.0));
    }

    #[test]
    #[should_panic(expected = "unknown column")]
    fn unknown_column_panics() {
        aggregate_cval(&table(), "nope", AggKind::Sum);
    }
}
