//! The SPROUT path: `loadData()` backed by a positive relational algebra
//! query over pc-tables. Sensor readings and substation metadata live in
//! uncertain relations; a select–join query with lineage composition
//! produces the uncertain objects that ENFrame clusters, and an aggregate
//! query produces a c-value whose distribution we tabulate.
//!
//! Run with: `cargo run --example probabilistic_queries`

use enframe::core::space;
use enframe::prelude::*;
use enframe::sprout::{aggregate_cval, AggKind, Datum};
use enframe::translate::targets;

fn main() {
    // Readings(sensor, substation, pd, load) — tuple-level uncertainty:
    // each reading exists with some probability (sensor glitches).
    let mut readings = PcTable::new(Schema::new(&["sensor", "substation", "pd", "load"]));
    let mut vars = 0u32;
    let mut fresh = || {
        let v = Var(vars);
        vars += 1;
        v
    };
    let rows = [
        (0, "A", 1.5, 40.0),
        (1, "A", 2.5, 45.0),
        (2, "B", 18.0, 62.0),
        (3, "B", 21.0, 58.0),
        (4, "C", 3.0, 75.0),
    ];
    let mut row_vars = Vec::new();
    for (id, sub, pd, load) in rows {
        let v = fresh();
        row_vars.push(v);
        readings.insert_var(
            vec![
                Datum::Int(id),
                Datum::Str(sub.into()),
                Datum::Float(pd),
                Datum::Float(load),
            ],
            v,
        );
    }
    // Substations(substation, monitored) — certain metadata.
    let mut subs = PcTable::new(Schema::new(&["substation", "monitored"]));
    for (s, m) in [("A", true), ("B", true), ("C", false)] {
        subs.insert_certain(vec![Datum::Str(s.into()), Datum::Bool(m)]);
    }

    // Query: readings from monitored substations.
    let monitored = Query::scan(&readings)
        .join(&Query::scan(&subs))
        .select(|r| matches!(r.get("monitored"), Datum::Bool(true)))
        .project(&["sensor", "substation", "pd", "load"])
        .result();
    println!(
        "query returned {} possible tuples (of {} readings)",
        monitored.len(),
        readings.len()
    );

    // Aggregate: the SUM of pd over the query result is a c-value — a
    // random variable over the induced probability space.
    let total_pd = aggregate_cval(&monitored, "pd", AggKind::Sum);
    let mut prog = Program::new();
    for _ in 0..vars {
        prog.fresh_var();
    }
    // Tabulate its distribution by brute force (5 variables only).
    let vt = VarTable::uniform(vars as usize, 0.8);
    let id = prog.declare_cval("TotalPD", total_pd);
    let g = prog.ground().unwrap();
    let dist = space::cval_distribution(&g, id.def(), &vt).unwrap();
    println!("\ndistribution of SUM(pd) over monitored substations:");
    for (value, p) in &dist {
        println!("  P[{}] = {:.4}", value.0, p);
    }

    // Feed the query result into k-medoids: the lineage flows through.
    let objects = monitored.to_objects(&["pd", "load"]);
    let (points, lineage): (Vec<_>, Vec<_>) = objects.into_iter().unzip();
    let env = enframe::translate::env::clustering_env(
        ProbObjects::new(points, lineage),
        2,
        2,
        vec![0, 2],
        vars,
    );
    let ast = parse(programs::K_MEDOIDS).unwrap();
    let mut tr = translate(&ast, &env).unwrap();
    targets::add_same_cluster_target(&mut tr, "InCl", 2, 2, 3);
    let net = Network::build(&tr.ground().unwrap()).unwrap();
    let res = compile(&net, &vt, Options::exact());
    println!(
        "\nP[the two high-PD readings land in the same cluster] = {:.4}",
        res.estimate(0)
    );
}
