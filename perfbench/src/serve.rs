//! `serve-steady`: open-loop Poisson traffic into one auto-planned server
//! with one worker, well below its capacity.

use crate::kernels::{prune_chain, SERVED};
use crate::metrics::{percentile, ratio, Values};
use crate::trace::{SpanId, Tracer};
use crate::{pace, repeat_setup, Outcome};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tilewise::{AutoPlanner, Backend, InferenceSession, KernelRegistry, TileWiseMatrix};
use tw_models::{Arrival, TrafficSpec};
use tw_serve::{
    Admission, AdmissionConfig, ClassPolicy, InferenceResponse, ServeConfig, ServeReport, Server,
};
use tw_tensor::batch::stack_payloads;
use tw_tensor::{approx_eq, Matrix, DEFAULT_TOL};

/// Offered load, requests per second.
const RATE: f64 = 1000.0;
/// Deadline of the interactive class (30% of arrivals).
const SLO: Duration = Duration::from_millis(10);
/// Set-ups per run; the median is reported.
pub const SETUPS: usize = 9;

struct Ready {
    tiles: Vec<TileWiseMatrix>,
    server: Server,
    schedule: Vec<Arrival>,
}

fn config(schedule_classes: Vec<ClassPolicy>) -> ServeConfig {
    ServeConfig {
        max_batch_size: SERVED.batch,
        max_batch_wait: Duration::from_millis(2),
        workers: 1,
        queue_capacity: 8192,
        gpu_dwell: None,
        classes: schedule_classes,
        // Any active knob makes submission non-blocking, as an open loop
        // needs; the depth cap only sheds if the server falls far behind.
        admission: AdmissionConfig { max_queue_depth: Some(8192), ..AdmissionConfig::default() },
        memory: None,
    }
}

fn setup(seed: u64, seconds: f64, tracer: &mut Tracer) -> (f64, Ready) {
    let t0 = Instant::now();
    let spec = TrafficSpec::steady(RATE, SLO, (RATE * seconds) as usize, SERVED.dims[0], seed);
    let schedule = tracer.time("traffic.schedule", None, None, || spec.schedule());
    let tiles = prune_chain(&SERVED, seed, tracer);
    let mut spent = t0.elapsed();
    let kept = tiles.clone();
    let t1 = Instant::now();
    let plan = vec![Backend::Auto; tiles.len()];
    let session = tracer.time("planner.plan", None, None, || {
        InferenceSession::with_plan_in(
            tiles,
            &plan,
            &KernelRegistry::standard(),
            &AutoPlanner::v100(SERVED.batch),
        )
    });
    let classes = ClassPolicy::from_traffic(&spec.classes);
    let server = tracer
        .time("serve.start", None, None, || Server::start(Arc::new(session), config(classes)));
    spent += t1.elapsed();
    (spent.as_secs_f64(), Ready { tiles: kept, server, schedule })
}

pub fn bench(seed: u64, seconds: f64, setups: usize, tracer: &mut Tracer) -> (f64, Outcome) {
    let (setup_s, ready) = repeat_setup(
        setups,
        || setup(seed, seconds, tracer),
        |r| {
            r.server.shutdown();
        },
    );
    (setup_s, run(ready, tracer))
}

/// Dense-plan outputs for every arrival, from the same tiles.
fn reference(tiles: &[TileWiseMatrix], schedule: &[Arrival]) -> Vec<Matrix> {
    let plan = vec![Backend::Dense; tiles.len()];
    let dense = InferenceSession::with_plan(tiles.to_vec(), &plan);
    schedule
        .chunks(256)
        .map(|chunk| {
            let payloads: Vec<Vec<f32>> = chunk.iter().map(|a| a.payload.clone()).collect();
            dense.forward_batch(&stack_payloads(&payloads))
        })
        .collect()
}

/// What the open loop recorded for each arrival.
struct Sent {
    due: Instant,
    submitted: Instant,
    class: usize,
    span: Option<SpanId>,
}

struct Tally {
    /// Latency from the due time, infinite for shed, lost or wrong.
    latency_s: Vec<f64>,
    /// Submit-to-complete latency of every completion.
    served_latency_s: Vec<f64>,
    wrong: u64,
    last_done: Option<Instant>,
}

fn run(ready: Ready, tracer: &mut Tracer) -> Outcome {
    let Ready { tiles, server, mut schedule } = ready;
    let expected = reference(&tiles, &schedule);
    let n = schedule.len();
    let mut sent: Vec<Sent> = Vec::with_capacity(n);
    let mut arrival_of_id: Vec<usize> = vec![usize::MAX; n];
    let mut tally = Tally {
        latency_s: vec![f64::INFINITY; n],
        served_latency_s: Vec::with_capacity(n),
        wrong: 0,
        last_done: None,
    };
    let mut lateness_s = Vec::with_capacity(n);
    let mut shed = 0u64;

    let complete = |responses: Vec<InferenceResponse>,
                    sent: &[Sent],
                    arrival_of_id: &[usize],
                    tally: &mut Tally,
                    tracer: &mut Tracer| {
        for r in responses {
            let i = arrival_of_id[r.id as usize];
            let s = &sent[i];
            let done = s.submitted + r.latency;
            let want = expected[i / 256].row(i % 256);
            let ok = r.output.len() == want.len()
                && r.output.iter().zip(want).all(|(a, b)| approx_eq(*a, *b, DEFAULT_TOL));
            if ok {
                tally.latency_s[i] = (done - s.due).as_secs_f64();
            } else {
                tally.wrong += 1;
            }
            tally.served_latency_s.push(r.latency.as_secs_f64());
            tally.last_done = tally.last_done.max(Some(done));
            tracer.close(s.span, done);
        }
    };

    let start = Instant::now();
    for (i, arrival) in schedule.iter_mut().enumerate() {
        let due = start + arrival.at;
        pace(due, || {
            let drained = server.drain_responses();
            complete(drained, &sent, &arrival_of_id, &mut tally, tracer);
        });
        let t0 = Instant::now();
        let span = tracer.open("request", due, None, Some(i as u64));
        tracer.record("traffic.send", due, t0, span, Some(i as u64));
        let payload = std::mem::take(&mut arrival.payload);
        let admission =
            server.submit_to(arrival.class, payload).expect("server runs until shutdown");
        tracer.record("serve.submit_to", t0, Instant::now(), span, Some(i as u64));
        lateness_s.push(t0.saturating_duration_since(due).as_secs_f64());
        sent.push(Sent { due, submitted: t0, class: arrival.class, span });
        match admission {
            Admission::Admitted(id) => arrival_of_id[id as usize] = i,
            Admission::Shed(_) => {
                shed += 1;
                tracer.close(span, t0);
            }
        }
    }
    let plan = server.session().layer_backends();
    let t0 = Instant::now();
    let (report, rest) = server.shutdown();
    tracer.record("serve.shutdown", t0, Instant::now(), None, None);
    complete(rest, &sent, &arrival_of_id, &mut tally, tracer);

    let completed = report.completed as u64;
    let lost = n as u64 - completed - shed;
    let run_s = tally.last_done.map_or(0.0, |d| (d - start).as_secs_f64());
    let mut interactive: Vec<f64> = sent
        .iter()
        .zip(&tally.latency_s)
        .filter(|(s, _)| s.class == 0)
        .map(|(_, l)| l * 1e3)
        .collect();
    let mut latency_ms: Vec<f64> = tally.latency_s.iter().map(|l| l * 1e3).collect();
    let mut e2e = Values::new();
    e2e.insert("p50_ms".into(), percentile(&mut latency_ms, 0.50));
    e2e.insert("p99_ms".into(), percentile(&mut latency_ms, 0.99));
    e2e.insert("interactive_p99_ms".into(), percentile(&mut interactive, 0.99));
    e2e.insert("rows_per_s".into(), ratio((completed - tally.wrong) as f64, run_s));
    let device_s = ratio(report.sim_gpu_s + report.transfer_sim_s, completed as f64);
    e2e.insert("device_us_per_req".into(), device_s * 1e6);

    let mut layer = serve_layer_metrics(&report, &mut tally.served_latency_s, run_s);
    layer.insert("traffic.lateness_p99_ms".into(), percentile(&mut lateness_s, 0.99) * 1e3);
    Outcome {
        attempted: n as u64,
        failed: shed + lost + tally.wrong,
        wrong: tally.wrong,
        e2e,
        layer,
        shape: &SERVED,
        plan,
        tiles,
    }
}

/// `serve.*` and `gpu_sim.*` metrics of one server's report.
/// `served_latency_s` holds every completion's submit-to-complete latency.
fn serve_layer_metrics(report: &ServeReport, served_latency_s: &mut [f64], run_s: f64) -> Values {
    let completed = report.completed as f64;
    let busy_s: f64 = report.workers.iter().map(|w| w.cpu_busy.as_secs_f64()).sum();
    let exec_s = ratio(busy_s, report.batches as f64);
    let p50_s = percentile(served_latency_s, 0.50);
    let mut m = Values::new();
    m.insert("serve.latency_p50_ms".into(), p50_s * 1e3);
    m.insert("serve.latency_p99_ms".into(), percentile(served_latency_s, 0.99) * 1e3);
    m.insert("serve.wait_ms_p50".into(), (p50_s - exec_s) * 1e3);
    m.insert("serve.mean_batch".into(), ratio(completed, report.batches as f64));
    m.insert("serve.exec_ms_per_batch".into(), exec_s * 1e3);
    m.insert("serve.worker_busy_frac".into(), ratio(busy_s, report.workers.len() as f64 * run_s));
    m.insert("serve.shed".into(), report.shed as f64);
    m.insert("gpu_sim.kernel_us_per_req".into(), ratio(report.sim_gpu_s, completed) * 1e6);
    m
}
