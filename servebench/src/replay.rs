//! The traced layer replay: the workload's own transaction stream run the
//! way the server runs it — in batches of the size the served phase
//! showed, with the server's scheduler, workers, retries and mvcc setting,
//! carrying committed state from batch to batch — with a span around every
//! public call. The server times none of these stages itself, so this is
//! where the per-batch layers get their numbers.

use crate::trace::{timed, Tracer};
use obase_core::ids::ObjectId;
use obase_core::object::ObjectBase;
use obase_core::value::Value;
use obase_exec::{ObjectBaseDef, TxnSpec, WorkloadSpec};
use obase_runtime::{ExecutionBackend, Observe, Runtime, Verify};
use obase_serve::ServeConfig;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counts the replay gathered besides its spans.
pub struct Replay {
    pub batches: u64,
    pub txns: u64,
    pub sg_edges: u64,
    pub failures: Vec<String>,
}

/// A restatement of the server's private per-batch world rebuild: the same
/// objects with `finals` as their new initial states, every method
/// re-attached. Its spans are named `restated.*`: they time this copy, so
/// a change to the server's own rebuild does not move them.
fn advance_def(def: &ObjectBaseDef, finals: &BTreeMap<ObjectId, Value>) -> ObjectBaseDef {
    let mut base = ObjectBase::new();
    for spec in def.base().iter() {
        let state = finals
            .get(&spec.id)
            .cloned()
            .unwrap_or_else(|| spec.initial_state.clone());
        base.add_object_with_state(spec.name.clone(), spec.ty.clone(), state);
    }
    let mut next = ObjectBaseDef::new(Arc::new(base));
    for (object, method) in def.methods() {
        next.define_method(object, method.clone());
    }
    next
}

/// Replays `stream` from its start in batches of `batch` until `budget`
/// has passed (and at least three batches ran).
pub fn replay(
    def: ObjectBaseDef,
    config: &ServeConfig,
    stream: &[TxnSpec],
    batch: usize,
    budget: Duration,
    tracer: &Tracer,
) -> Replay {
    let batch = batch.max(1);
    let started = Instant::now();
    let mut def = def;
    let mut out = Replay {
        batches: 0,
        txns: 0,
        sg_edges: 0,
        failures: Vec::new(),
    };
    let mut next = 0usize;
    while out.batches < 3 || started.elapsed() < budget {
        let span = tracer.begin("replay.batch", None);
        let parent = span.map(|s| s.id());
        let transactions: Vec<TxnSpec> = (0..batch)
            .map(|i| {
                let idx = (next + i) % stream.len();
                TxnSpec {
                    name: format!("t{idx}#r{}", out.batches),
                    body: stream[idx].body.clone(),
                }
            })
            .collect();
        next += batch;
        let workload = WorkloadSpec {
            def: timed(tracer, "carry.def_clone", parent, || def.clone()),
            transactions,
        };
        let runtime = timed(tracer, "runtime.build", parent, || {
            Runtime::builder()
                .scheduler(config.scheduler.clone())
                .backend(ExecutionBackend::Parallel {
                    workers: config.workers,
                })
                .retries(config.retries)
                .mvcc(config.mvcc)
                .seed(out.batches)
                .verify(Verify::None)
                .observe(Observe::Latency)
                .build()
        });
        let report = match runtime.map_err(|e| e.to_string()).and_then(|rt| {
            timed(tracer, "runtime.run", parent, || rt.run(&workload)).map_err(|e| e.to_string())
        }) {
            Ok(report) => report,
            Err(e) => {
                out.failures
                    .push(format!("replay batch {}: {e}", out.batches));
                tracer.end(span);
                break;
            }
        };
        let h = &report.history;
        if let Err(e) = timed(tracer, "verify.legal", parent, || {
            obase_core::legality::check_legal(h)
        }) {
            out.failures
                .push(format!("replay batch {} is not legal: {e}", out.batches));
        }
        let (edges, acyclic) = timed(tracer, "verify.sg", parent, || {
            let sg = obase_core::sg::serialisation_graph(h);
            (sg.edge_count(), sg.is_acyclic())
        });
        if !acyclic {
            out.failures
                .push(format!("replay batch {} has an SG cycle", out.batches));
        }
        let finals = timed(tracer, "carry.final_states", parent, || {
            obase_core::replay::final_states(h)
        });
        let old = match finals {
            Ok(finals) => {
                let next = timed(tracer, "restated.advance_def", parent, || {
                    advance_def(&workload.def, &finals)
                });
                Some(std::mem::replace(&mut def, next))
            }
            Err(e) => {
                out.failures
                    .push(format!("replay batch {} final states: {e}", out.batches));
                None
            }
        };
        // Dropping a large world is part of the per-batch carry-forward
        // cost the server pays too.
        timed(tracer, "restated.drop", parent, move || {
            drop((old, workload, report))
        });
        tracer.end(span);
        out.batches += 1;
        out.txns += batch as u64;
        out.sg_edges += edges as u64;
    }
    out
}
