//! The benchmark's own model of the served object base, used to check the
//! final states the server reached without trusting its engine.
//!
//! The model knows the two semantic types the workloads use (counters and
//! accounts) and interprets the benchmark's own submitted transaction
//! bodies against it. Their operations commute, so the replay order cannot
//! matter and the model reduces to "initial state plus the sum of the
//! committed deltas". The check pass still replays the committed
//! transactions in an order the serialisation graph admits.

use obase_core::ids::ObjectId;
use obase_core::value::Value;
use obase_exec::{ObjectBaseDef, Program};
use std::collections::BTreeMap;

/// An object's state as the model holds it: a counter's value or an
/// account's balance.
fn int_state(v: &Value) -> Result<i64, String> {
    v.as_int()
        .ok_or_else(|| format!("the model holds no state like {v:?}"))
}

/// Applies one operation to an integer state.
fn apply(state: &mut i64, op: &str, args: &[Value]) -> Result<(), String> {
    match op {
        "Get" | "Balance" => {}
        "Add" | "Deposit" => {
            let delta = args
                .first()
                .and_then(Value::as_int)
                .ok_or_else(|| format!("{op} needs an integer argument"))?;
            *state = state.wrapping_add(delta);
        }
        op => return Err(format!("the model has no {op}")),
    }
    Ok(())
}

/// The model's object base: every object's state, starting from the
/// served world's initial states.
pub struct Model<'a> {
    def: &'a ObjectBaseDef,
    pub states: BTreeMap<ObjectId, i64>,
}

impl<'a> Model<'a> {
    pub fn new(def: &'a ObjectBaseDef) -> Result<Model<'a>, String> {
        let states = def
            .base()
            .iter()
            .map(|spec| Ok((spec.id, int_state(&spec.initial_state)?)))
            .collect::<Result<_, String>>()?;
        Ok(Model { def, states })
    }

    /// Runs one transaction body to completion against the model.
    pub fn run(&mut self, body: &Program) -> Result<(), String> {
        self.exec(body, None, &[])
    }

    fn exec(&mut self, p: &Program, this: Option<ObjectId>, args: &[Value]) -> Result<(), String> {
        match p {
            Program::Local { op, args: exprs } => {
                let this = this.ok_or_else(|| format!("local {op} outside any object"))?;
                let vals: Vec<Value> = exprs.iter().map(|e| e.eval(args)).collect();
                let state = self
                    .states
                    .get_mut(&this)
                    .ok_or_else(|| format!("unknown object {}", this.0))?;
                apply(state, op, &vals)
            }
            Program::Invoke {
                object,
                method,
                args: exprs,
            } => {
                let o = object.resolve(args);
                let vals: Vec<Value> = exprs.iter().map(|e| e.eval(args)).collect();
                let m = self
                    .def
                    .method(o, method)
                    .ok_or_else(|| format!("object {} has no method {method}", o.0))?;
                self.exec(&m.body, Some(o), &vals)
            }
            // Counter and account operations commute, so program order
            // will do for the branches of a `Par`.
            Program::Seq(ps) | Program::Par(ps) => {
                ps.iter().try_for_each(|p| self.exec(p, this, args))
            }
        }
    }

    /// Compares the model with the final states the program reached
    /// (`finals` lacks the objects no committed step touched). Returns the
    /// first object that differs.
    pub fn compare(&self, finals: &BTreeMap<ObjectId, Value>) -> Result<(), String> {
        for spec in self.def.base().iter() {
            let actual = finals.get(&spec.id).unwrap_or(&spec.initial_state);
            let actual = int_state(actual)?;
            let expected = self.states[&spec.id];
            if actual != expected {
                return Err(format!(
                    "object {} ({}) ended as {actual:?}, the model expects {expected:?}",
                    spec.id.0, spec.name
                ));
            }
        }
        Ok(())
    }
}

/// Returns `finals` with one object's state made wrong — the planted fault
/// the model check must catch.
pub fn plant_wrong_state(
    def: &ObjectBaseDef,
    finals: &BTreeMap<ObjectId, Value>,
) -> BTreeMap<ObjectId, Value> {
    let mut planted = finals.clone();
    let spec = def.base().iter().next().expect("a non-empty object base");
    let state = planted
        .entry(spec.id)
        .or_insert_with(|| spec.initial_state.clone());
    match state {
        Value::Int(n) => *n += 1,
        other => *other = Value::Unit,
    }
    planted
}

#[cfg(test)]
mod tests {
    use super::*;
    use obase_core::ids::ObjectId;

    fn world(json: &str) -> ObjectBaseDef {
        obase_scenario::Scenario::parse(json)
            .expect("test scenario")
            .compile_def()
    }

    const COUNTERS: &str = r#"{"name": "t", "seed": 3, "transactions": 4, "clients": 1,
        "retries": 4, "groups": [{"name": "c", "adt": "counter", "objects": 2, "keys": 0}],
        "mix": [{"name": "bump", "weight": 1, "group": "c", "ops": 2, "read_fraction": 0.0,
                 "dist": {"kind": "uniform"}, "nesting": {"depth": 1, "width": 1, "parallel": false}}],
        "faults": {"doom_rate": 0.0, "storm": null, "stall_rate": 0.0, "stall_ticks": 0,
                   "deadline_ms": null},
        "specs": [{"kind": "n2pl", "granularity": "operation"}]}"#;

    #[test]
    fn counters_end_at_initial_plus_committed_deltas() {
        let def = world(COUNTERS);
        let mut model = Model::new(&def).expect("model");
        let body = Program::Invoke {
            object: obase_exec::ObjRef::Const(ObjectId(0)),
            method: "w0_0".into(),
            args: vec![
                obase_exec::Expr::Const(Value::Int(0)),
                obase_exec::Expr::Const(Value::Int(5)),
            ],
        };
        model.run(&body).expect("run");
        // read_fraction 0: both operations of the leaf body are Adds.
        assert_eq!(model.states[&ObjectId(0)], 10);
        assert_eq!(model.states[&ObjectId(1)], 0);
        let finals = BTreeMap::from([(ObjectId(0), Value::Int(10))]);
        model
            .compare(&finals)
            .expect("the right final state passes");
    }

    #[test]
    fn a_planted_wrong_final_state_is_rejected() {
        let def = world(COUNTERS);
        let model = Model::new(&def).expect("model");
        let finals = BTreeMap::new();
        model
            .compare(&finals)
            .expect("untouched objects keep their initial state");
        let planted = plant_wrong_state(&def, &finals);
        let err = model
            .compare(&planted)
            .expect_err("a planted state must be caught");
        assert!(err.contains("object 0"), "{err}");
    }
}
