//! `offline-bert`: one caller runs 128-token sequences back to back through
//! an auto-planned BERT-base encoder chain.  Kernels do almost all the work.

use crate::kernels::{payload_batch, prune_chain, BERT};
use crate::metrics::{percentile, Values};
use crate::trace::Tracer;
use crate::{repeat_setup, Outcome};
use std::time::{Duration, Instant};
use tilewise::{AutoPlanner, Backend, InferenceSession, KernelRegistry, TileWiseMatrix};
use tw_tensor::{approx_eq, Matrix, DEFAULT_TOL};

/// Distinct input sequences, cycled; each output is checked against the
/// dense reference of its own input.
const POOL: usize = 4;
/// Set-ups per run; the median is reported.
pub const SETUPS: usize = 5;

struct Ready {
    tiles: Vec<TileWiseMatrix>,
    session: InferenceSession,
    inputs: Vec<Matrix>,
}

/// Input generation, pruning and auto-planning; returns the host seconds
/// of those steps (the clone kept for the reference is not counted).
fn setup(seed: u64, tracer: &mut Tracer) -> (f64, Ready) {
    let t0 = Instant::now();
    let inputs: Vec<Matrix> = tracer.time("traffic.schedule", None, None, || {
        (0..POOL as u64)
            .map(|i| payload_batch(BERT.dims[0], BERT.batch, seed.wrapping_mul(31).wrapping_add(i)))
            .collect()
    });
    let tiles = prune_chain(&BERT, seed, tracer);
    let mut spent = t0.elapsed();
    let kept = tiles.clone();
    let t1 = Instant::now();
    let plan = vec![Backend::Auto; tiles.len()];
    let session = tracer.time("planner.plan", None, None, || {
        InferenceSession::with_plan_in(
            tiles,
            &plan,
            &KernelRegistry::standard(),
            &AutoPlanner::v100(BERT.batch),
        )
    });
    spent += t1.elapsed();
    (spent.as_secs_f64(), Ready { tiles: kept, session, inputs })
}

pub fn bench(seed: u64, seconds: f64, setups: usize, tracer: &mut Tracer) -> (f64, Outcome) {
    let (setup_s, ready) = repeat_setup(setups, || setup(seed, tracer), drop);
    (setup_s, run(ready, seconds, tracer))
}

fn run(ready: Ready, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let Ready { tiles, session, inputs } = ready;
    let plan = vec![Backend::Dense; tiles.len()];
    let reference = InferenceSession::with_plan(tiles.clone(), &plan);
    let expected: Vec<Matrix> = inputs.iter().map(|x| reference.forward_batch(x)).collect();
    drop(reference);

    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut call_s = Vec::new();
    let mut wrong_rows = 0u64;
    while start.elapsed() < budget || call_s.is_empty() {
        let call = call_s.len();
        let input = &inputs[call % POOL];
        let t0 = Instant::now();
        let out = session.forward_batch(input);
        let t1 = Instant::now();
        tracer.record("tilewise.forward_batch", t0, t1, None, Some(call as u64));
        call_s.push((t1 - t0).as_secs_f64());
        let want = &expected[call % POOL];
        wrong_rows += (0..out.rows())
            .filter(|&r| {
                !out.row(r).iter().zip(want.row(r)).all(|(a, b)| approx_eq(*a, *b, DEFAULT_TOL))
            })
            .count() as u64;
    }

    // A 20 s run makes 700 to 1400 calls, 7 to 14 of them beyond p99.
    let rows = (call_s.len() * BERT.batch) as u64;
    let busy_s: f64 = call_s.iter().sum();
    let mut latency_ms: Vec<f64> = call_s.iter().map(|s| s * 1e3).collect();
    let p99 = percentile(&mut latency_ms, 0.99);
    let mut e2e = Values::new();
    e2e.insert("rows_per_s".into(), rows as f64 / busy_s);
    e2e.insert("p50_ms".into(), percentile(&mut latency_ms, 0.50));
    e2e.insert("p99_ms".into(), p99);
    // The one caller is the interactive user here.
    e2e.insert("interactive_p99_ms".into(), p99);
    let device_s = session.simulated_batch_seconds(BERT.batch) / BERT.batch as f64;
    e2e.insert("device_us_per_req".into(), device_s * 1e6);

    let mut layer = Values::new();
    layer.insert("gpu_sim.kernel_us_per_req".into(), device_s * 1e6);
    Outcome {
        attempted: rows,
        failed: wrong_rows,
        wrong: wrong_rows,
        e2e,
        layer,
        shape: &BERT,
        plan: session.layer_backends(),
        tiles,
    }
}
