//! Correctness checks: the accounting every run holds its server to, and
//! the untimed check pass that keeps the merged history and holds it to
//! the serialisability oracle and to the benchmark's own model.

use crate::conn::{self, Answer};
use crate::load::Tally;
use crate::model::{self, Model};
use crate::trace::Tracer;
use obase_exec::TxnSpec;
use obase_scenario::Scenario;
use obase_serve::{check_admitted, ServeConfig, ServeSummary, Server};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Accounting a shut-down server must agree with: every submission was
/// acked, none was rejected or gave up, the server admitted exactly what
/// the clients hold acks for, settled everything it admitted, and never
/// failed its own per-batch theory checks.
pub fn accounting(tally: &Tally, summary: &ServeSummary) -> Vec<String> {
    let mut failures = Vec::new();
    if tally.acked() + tally.rejected != tally.sent {
        failures.push(format!(
            "{} submissions sent but {} answered",
            tally.sent,
            tally.acked() + tally.rejected
        ));
    }
    if tally.rejected > 0 {
        failures.push(format!("{} submissions rejected", tally.rejected));
    }
    if tally.gave_up > 0 {
        failures.push(format!("{} transactions gave up", tally.gave_up));
    }
    if summary.admitted != tally.acked() {
        failures.push(format!(
            "server admitted {} but clients hold {} acks",
            summary.admitted,
            tally.acked()
        ));
    }
    if summary.committed + summary.gave_up != summary.admitted {
        failures.push(format!(
            "server settled {} + {} of {} admitted",
            summary.committed, summary.gave_up, summary.admitted
        ));
    }
    if summary.oracle_failures > 0 {
        failures.push(format!(
            "{} batches failed their theory checks",
            summary.oracle_failures
        ));
    }
    failures
}

/// What the check pass found.
pub struct CheckPass {
    pub tally: Tally,
    pub failures: Vec<String>,
}

/// Submits the first `count` transactions of `stream` to a server that
/// keeps its history, then checks: the accounting; the merged history
/// with `check_admitted`; that the serialisation graph orders exactly the
/// committed submissions; and the final states against the model, which
/// must also reject a planted wrong state.
pub fn check_pass(
    scenario: &Scenario,
    config: ServeConfig,
    stream: &[TxnSpec],
    count: usize,
) -> Result<CheckPass, String> {
    let count = count.min(stream.len());
    let server = Server::for_scenario(scenario, config, "127.0.0.1:0")
        .map_err(|e| format!("check server: {e}"))?;
    let mut tally = Tally::default();
    let mut committed: BTreeSet<usize> = BTreeSet::new();
    {
        let (mut tx, mut rx) = conn::connect(server.addr(), "check", &Tracer::off())?;
        let mut in_flight: HashMap<u64, usize> = HashMap::new();
        let mut next = 0;
        while next < count || !in_flight.is_empty() {
            while next < count && in_flight.len() < crate::load::OUTSTANDING_PER_CONN {
                let id = next as u64 + 1;
                in_flight.insert(id, next);
                tx.submit(id, format!("t{next}"), &stream[next].body, None)?;
                next += 1;
            }
            match rx.next_answer(|_| None)? {
                Answer::Result {
                    id, committed: c, ..
                } => {
                    let idx = in_flight
                        .remove(&id)
                        .ok_or_else(|| format!("answer for unknown submission {id}"))?;
                    if c {
                        tally.committed += 1;
                        committed.insert(idx);
                    } else {
                        tally.gave_up += 1;
                    }
                }
                Answer::Reject { id, .. } => {
                    in_flight.remove(&id);
                    tally.rejected += 1;
                }
            }
        }
        tally.sent = tx.submits;
        tx.goodbye()?;
        rx.closed()?;
    }
    let summary = server.shutdown();
    let mut failures = accounting(&tally, &summary);
    let history = summary
        .history
        .ok_or_else(|| "a keep_history server returned no history".to_owned())?;
    if let Err(e) = check_admitted(&history) {
        failures.push(format!("check_admitted: {e}"));
        return Ok(CheckPass { tally, failures });
    }

    // The committed submissions in an order the serialisation graph
    // admits. The server names each transaction "<client name>#s<session>x<id>".
    let sg = obase_core::sg::serialisation_graph(&history);
    let order = sg
        .topological_order()
        .ok_or_else(|| "serialisation graph has a cycle".to_owned())?;
    let mut serial: Vec<usize> = Vec::new();
    for e in order {
        let exec = history.exec(e);
        if !exec.is_top_level() || exec.aborted {
            continue;
        }
        let idx = exec
            .method
            .strip_prefix('t')
            .and_then(|rest| rest.split('#').next())
            .and_then(|n| n.parse::<usize>().ok())
            .ok_or_else(|| format!("unexpected transaction name {:?}", exec.method))?;
        serial.push(idx);
    }
    let ordered: BTreeSet<usize> = serial.iter().copied().collect();
    if ordered.len() != serial.len() || ordered != committed {
        failures.push(format!(
            "the serialisation graph orders {} transactions ({} distinct), the clients hold {} commits",
            serial.len(),
            ordered.len(),
            committed.len()
        ));
    }

    let def = scenario.compile_def();
    let mut model = Model::new(&def)?;
    for &idx in &serial {
        model.run(&stream[idx].body)?;
    }
    let finals: BTreeMap<_, _> = obase_core::replay::final_states(&history)
        .map_err(|e| format!("final states do not replay: {e}"))?;
    if let Err(e) = model.compare(&finals) {
        failures.push(format!("model check: {e}"));
    }
    if model
        .compare(&model::plant_wrong_state(&def, &finals))
        .is_ok()
    {
        failures.push("the model check accepted a planted wrong final state".to_owned());
    }
    Ok(CheckPass { tally, failures })
}
