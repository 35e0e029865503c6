//! Helpers for registering compilation targets on translated programs.
//!
//! "Selected events represent the probabilistic program output, e.g. in
//! case of clustering: the probability that a data point is a medoid, or
//! the probability that two data points are assigned to the same cluster"
//! (paper §1). These helpers turn final program slots into such targets.

use crate::translate::{check_lineage, Slot, Translated};
use enframe_core::{Event, EventId, Program};
use enframe_lang::RtValue;
use std::rc::Rc;

/// Targets the constant event standing for a concrete Boolean entry:
/// `{var}_const[path] ≡ ⊤/⊥` (`name` is `{var}_const`), so that target
/// indices stay aligned with array positions. An entry registered again —
/// by either helper, in any order — targets the declaration it already
/// has.
fn const_target(program: &mut Program, name: &str, path: &[i64], value: bool) -> EventId {
    let id = program.event_at(name, path).unwrap_or_else(|| {
        let rhs = Rc::new(if value { Event::Tru } else { Event::Fls });
        program.declare_event_at(name, path, rhs)
    });
    program.add_target(id);
    id
}

/// Adds every Boolean entry of the (possibly nested) final array `var` as a
/// compilation target. Concrete entries are declared as constant events so
/// that target indices stay aligned with array positions. Returns the
/// number of targets added.
pub fn add_all_bool_targets(t: &mut Translated, var: &str) -> usize {
    let Translated { program, slots, .. } = t;
    let Some(slot) = slots.get(var) else {
        return 0;
    };
    let name = format!("{var}_const");
    let mut count = 0;
    add_rec(program, &name, slot, &mut Vec::new(), &mut count);
    count
}

fn add_rec(
    program: &mut Program,
    const_name: &str,
    slot: &Slot,
    path: &mut Vec<i64>,
    count: &mut usize,
) {
    match slot {
        Slot::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                path.push(i as i64);
                add_rec(program, const_name, item, path, count);
                path.pop();
            }
        }
        Slot::Event(e) => {
            if let Some(id) = ref_target(program, e) {
                program.add_target(id);
                *count += 1;
            }
        }
        Slot::Concrete(RtValue::Bool(b)) => {
            const_target(program, const_name, path, *b);
            *count += 1;
        }
        _ => {}
    }
}

/// The declared event an event slot refers to, if it is a reference.
fn ref_target(program: &Program, e: &Event) -> Option<EventId> {
    match *e {
        Event::Ref(d) => program.event_id(d),
        _ => None,
    }
}

/// `∨_i (var[i][l1] ∧ var[i][l2])` over the first `k` rows of `var`.
fn same_cluster(t: &Translated, var: &str, k: usize, l1: usize, l2: usize) -> Option<Rc<Event>> {
    let mut disjuncts = Vec::with_capacity(k);
    for i in 0..k {
        let a = bool_event(t, var, &[i, l1])?;
        let b = bool_event(t, var, &[i, l2])?;
        disjuncts.push(Event::and([a, b]));
    }
    Some(Event::or(disjuncts))
}

/// Declares and targets the co-occurrence event "objects `l1` and `l2` are
/// in the same cluster", i.e. `∨_i (InCl[i][l1] ∧ InCl[i][l2])` over the
/// final cluster-membership array `var` with `k` clusters.
pub fn add_same_cluster_target(
    t: &mut Translated,
    var: &str,
    k: usize,
    l1: usize,
    l2: usize,
) -> Option<EventId> {
    let rhs = same_cluster(t, var, k, l1, l2)?;
    let id = t
        .program
        .declare_event_at("SameCluster", &[l1 as i64, l2 as i64], rhs);
    t.program.add_target(id);
    Some(id)
}

/// Declares and targets the *existence-conjoined* co-occurrence event
/// "objects `l1` and `l2` both exist **and** are in the same cluster":
/// `Φ(o_l1) ∧ Φ(o_l2) ∧ ∨_i (InCl[i][l1] ∧ InCl[i][l2])`.
///
/// This is the query behind the paper's motivating example: two mutually
/// exclusive readings have *no* world in which they co-exist, so this
/// event must have probability 0 — whereas the plain
/// [`add_same_cluster_target`] is vacuously true for absent objects
/// (comparisons with undefined values hold by §3.2). `lineage` supplies
/// `Φ(o_l1)` and `Φ(o_l2)` (propositional formulas over input variables,
/// e.g. from `ProbObjects::lineage`).
pub fn add_coexist_same_cluster_target(
    t: &mut Translated,
    var: &str,
    k: usize,
    (l1, phi1): (usize, &Rc<Event>),
    (l2, phi2): (usize, &Rc<Event>),
) -> Option<EventId> {
    let same = same_cluster(t, var, k, l1, l2)?;
    check_lineage([phi1, phi2]).ok()?;
    let rhs = Event::and([phi1.clone(), phi2.clone(), same]);
    let id = t
        .program
        .declare_event_at("CoexistSameCluster", &[l1 as i64, l2 as i64], rhs);
    t.program.add_target(id);
    Some(id)
}

fn bool_event(t: &Translated, var: &str, idx: &[usize]) -> Option<Rc<Event>> {
    match t.slot_at(var, idx)? {
        Slot::Event(e) => Some(e.clone()),
        Slot::Concrete(RtValue::Bool(b)) => Some(Rc::new(if *b { Event::Tru } else { Event::Fls })),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{clustering_env, ProbObjects};
    use crate::translate::translate;
    use enframe_core::{space, Var, VarTable};
    use enframe_lang::{parse, programs};

    /// Adds the single Boolean entry `var[idx...]` as a target, returning its
    /// handle (constants are declared as constant events).
    fn add_bool_target_at(t: &mut Translated, var: &str, idx: &[usize]) -> Option<EventId> {
        match t.slot_at(var, idx)? {
            Slot::Event(e) => {
                let id = ref_target(&t.program, e)?;
                t.program.add_target(id);
                Some(id)
            }
            &Slot::Concrete(RtValue::Bool(b)) => {
                let path: Vec<i64> = idx.iter().map(|&i| i as i64).collect();
                let name = format!("{var}_const");
                Some(const_target(&mut t.program, &name, &path, b))
            }
            _ => None,
        }
    }

    fn translated() -> Translated {
        let objs = ProbObjects::new(
            vec![vec![0.0], vec![1.0], vec![5.0], vec![6.0]],
            vec![
                Rc::new(Event::Tru),
                Event::var(Var(0)),
                Event::var(Var(1)),
                Rc::new(Event::Tru),
            ],
        );
        let env = clustering_env(objs, 2, 2, vec![0, 3], 2);
        let ast = parse(programs::K_MEDOIDS).unwrap();
        translate(&ast, &env).unwrap()
    }

    #[test]
    fn all_bool_targets_cover_matrix() {
        let mut t = translated();
        let n = add_all_bool_targets(&mut t, "InCl");
        assert_eq!(n, 8, "2 clusters × 4 objects");
        let g = t.ground().unwrap();
        assert_eq!(g.targets.len(), 8);
        // Probabilities are well-defined and in [0,1].
        let vt = VarTable::uniform(2, 0.6);
        let p = space::target_probabilities(&g, &vt);
        assert!(p.iter().all(|&x| (0.0..=1.0 + 1e-12).contains(&x)));
        // Column sums: every object is in exactly one cluster in every
        // world, so P(InCl[0][l]) + P(InCl[1][l]) = 1.
        for l in 0..4 {
            let s = p[l] + p[4 + l];
            assert!((s - 1.0).abs() < 1e-9, "object {l}: column sum {s}");
        }
    }

    #[test]
    fn same_cluster_event_probability() {
        let mut t = translated();
        add_same_cluster_target(&mut t, "InCl", 2, 0, 1).unwrap();
        let g = t.ground().unwrap();
        let vt = VarTable::uniform(2, 0.5);
        let p = space::target_probabilities(&g, &vt)[0];
        // Objects 0 and 1 are close together; in every world where o1
        // exists they share cluster 0; when o1 is absent its comparisons
        // are vacuously true so it lands in cluster 0 regardless. Verify
        // against brute force world reasoning: probability is 1.
        assert!((p - 1.0).abs() < 1e-9, "got {p}");
    }

    #[test]
    fn coexist_same_cluster_respects_mutual_exclusion() {
        // o1 exists iff x0, o2 exists iff ¬x0: mutually exclusive. The
        // paper's motivating claim — "there is no possible world and thus
        // no cluster containing both points" — requires this target to
        // have probability 0, while the plain same-cluster event is
        // vacuously positive.
        let phi1 = Event::var(Var(0));
        let phi2 = Event::nvar(Var(0));
        let objs = ProbObjects::new(
            vec![vec![0.0], vec![1.0], vec![1.2], vec![6.0]],
            vec![
                Rc::new(Event::Tru),
                phi1.clone(),
                phi2.clone(),
                Rc::new(Event::Tru),
            ],
        );
        let env = clustering_env(objs, 2, 2, vec![0, 3], 1);
        let ast = parse(programs::K_MEDOIDS).unwrap();
        let mut t = translate(&ast, &env).unwrap();
        add_coexist_same_cluster_target(&mut t, "InCl", 2, (1, &phi1), (2, &phi2)).unwrap();
        add_same_cluster_target(&mut t, "InCl", 2, 1, 2).unwrap();
        let g = t.ground().unwrap();
        let vt = VarTable::uniform(1, 0.5);
        let p = space::target_probabilities(&g, &vt);
        assert!(
            p[0].abs() < 1e-12,
            "mutually exclusive points never co-cluster"
        );
        assert!(p[1] > 0.0, "the unconjoined event is vacuously satisfied");
    }

    #[test]
    fn coexist_same_cluster_tracks_world_semantics() {
        // Geometry 0, 1, 5, 6 with uncertain middle points (o1 iff x0,
        // o2 iff x1) and seeds o0/o3. Worlds where a low-index object is
        // ABSENT exhibit the documented §3.2 vacuous-truth behaviour: the
        // absent object's Centre event holds vacuously, the tie-breaker
        // elects it as medoid, the medoid is undefined, and every object
        // collapses into cluster 0. Expected probabilities (uniform 0.5):
        //   world (x0=1, x1=1): two proper clusters — o0, o3 apart;
        //   worlds (x0=0, *) and (1, 0): collapse — o0, o3 together.
        let tru: Rc<Event> = Rc::new(Event::Tru);
        let objs = ProbObjects::new(
            vec![vec![0.0], vec![1.0], vec![5.0], vec![6.0]],
            vec![
                tru.clone(),
                Event::var(Var(0)),
                Event::var(Var(1)),
                tru.clone(),
            ],
        );
        let env = clustering_env(objs, 2, 2, vec![0, 3], 2);
        let ast = parse(programs::K_MEDOIDS).unwrap();
        let mut t = translate(&ast, &env).unwrap();
        add_coexist_same_cluster_target(&mut t, "InCl", 2, (0, &tru), (3, &tru)).unwrap();
        add_coexist_same_cluster_target(&mut t, "InCl", 2, (0, &tru), (1, &Event::var(Var(0))))
            .unwrap();
        let g = t.ground().unwrap();
        let vt = VarTable::uniform(2, 0.5);
        let p = space::target_probabilities(&g, &vt);
        // Far pair: together exactly in the three collapse worlds.
        assert!((p[0] - 0.75).abs() < 1e-9, "got {}", p[0]);
        // Near pair needs o1 to exist (x0): both x0-worlds co-cluster.
        assert!((p[1] - 0.5).abs() < 1e-9, "got {}", p[1]);
    }

    #[test]
    fn single_target_at_index() {
        let mut t = translated();
        let si = add_bool_target_at(&mut t, "Centre", &[0, 0]).unwrap();
        let g = t.ground().unwrap();
        assert_eq!(g.targets.len(), 1);
        let _ = si;
    }

    /// Certain data: every `Centre` entry is a concrete Boolean, so every
    /// target is a `Centre_const` event.
    fn translated_certain() -> Translated {
        let objs = ProbObjects::certain(vec![vec![0.0], vec![1.0], vec![5.0], vec![6.0]]);
        let env = clustering_env(objs, 2, 2, vec![1, 3], 0);
        let ast = parse(programs::K_MEDOIDS).unwrap();
        translate(&ast, &env).unwrap()
    }

    #[test]
    fn constant_targets_are_idempotent() {
        // Registering a concrete entry twice used to declare its constant
        // event twice, and `ground()` failed with `Redeclaration`.
        let mut t = translated_certain();
        assert_eq!(add_all_bool_targets(&mut t, "Centre"), 8);
        assert_eq!(add_all_bool_targets(&mut t, "Centre"), 8);
        let g = t.ground().unwrap();
        assert_eq!(g.len(), 8, "one constant event per entry");
        assert_eq!(g.targets.len(), 16);
        assert_eq!(g.targets[..8], g.targets[8..]);

        let mut t = translated_certain();
        let first = add_bool_target_at(&mut t, "Centre", &[1, 2]).unwrap();
        let again = add_bool_target_at(&mut t, "Centre", &[1, 2]).unwrap();
        assert_eq!(first, again);
        let g = t.ground().unwrap();
        assert_eq!((g.len(), g.targets.len()), (1, 2));

        // Either helper after the other reuses the declaration too.
        let mut t = translated_certain();
        add_all_bool_targets(&mut t, "Centre");
        let single = add_bool_target_at(&mut t, "Centre", &[1, 2]).unwrap();
        let g = t.ground().unwrap();
        assert_eq!((g.len(), g.targets.len()), (8, 9));
        assert_eq!(g.name_of(g.targets[8]), "Centre_const[1][2]");
        assert_eq!(g.targets[8], g.targets[4 + 2]);
        assert_eq!(g.targets[8], single.def());
        let mut t = translated_certain();
        let first = add_bool_target_at(&mut t, "Centre", &[1, 2]).unwrap();
        add_all_bool_targets(&mut t, "Centre");
        let g = t.ground().unwrap();
        assert_eq!((g.len(), g.targets.len()), (8, 9));
        assert_eq!(g.targets[0], first.def());
        assert_eq!(g.name_of(first.def()), "Centre_const[1][2]");
        // The values are the entries' own.
        let p = space::target_probabilities(&g, &VarTable::new(vec![]));
        assert_eq!(p[0], p[1 + 4 + 2]);
        assert_eq!(p.iter().filter(|&&x| x == 1.0).count(), 1 + 2);
    }

    #[test]
    fn missing_variable_yields_zero_targets() {
        let mut t = translated();
        assert_eq!(add_all_bool_targets(&mut t, "Nope"), 0);
        assert!(add_bool_target_at(&mut t, "Nope", &[0]).is_none());
    }
}
