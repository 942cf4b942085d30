//! `fleet-paging`: bursty open-loop traffic for three models into two
//! single-worker replicas whose VRAM holds about one and a half models, so
//! weight tiles page in and out.  The plan is fixed to tile-wise.
//!
//! `ClusterReport` exposes no per-request outputs or completion times, so
//! this workload checks id conservation instead of outputs, and its
//! latencies are the report's submit-to-complete percentiles.

use crate::kernels::{prune_chain, SERVED};
use crate::metrics::{percentile, ratio, Values};
use crate::trace::Tracer;
use crate::{pace, repeat_setup, Outcome};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tilewise::{Backend, InferenceSession, TileWiseMatrix};
use tw_cluster::{BalancerKind, Cluster, ClusterConfig, ClusterReport, ReplicaSpec};
use tw_gpu_sim::{GpuDevice, TransferCost};
use tw_memory::{MemoryPool, ModelRegistry, PolicyKind, TileCache, WeightTile};
use tw_models::{Arrival, ArrivalProcess, TrafficClass, TrafficSpec};
use tw_serve::{Admission, AdmissionConfig, ClassPolicy, MemoryConfig};

const MODELS: usize = 3;
const REPLICAS: usize = 2;
/// Mean offered load, requests per second; bursts run at 3.7 times this.
const RATE: f64 = 1500.0;
const SLO: Duration = Duration::from_millis(20);
/// VRAM per replica, in units of one model's resident weights.
const VRAM_MODELS: f64 = 1.5;
/// Mean length of a run of arrivals for one model.
const MODEL_RUN: u64 = 8;
pub const SETUPS: usize = 7;

struct Ready {
    cluster: Cluster,
    schedule: Vec<Arrival>,
    models: Vec<usize>,
    /// Model 0's tiles (for the kernel table's regret).
    tiles: Vec<TileWiseMatrix>,
    /// Each model's pageable tiles, for the standalone cache replay.
    pages: Vec<Vec<WeightTile>>,
    vram: u64,
}

/// ON/OFF bursts short enough that a run holds hundreds of them, so the
/// length of a schedule varies little between seeds: 20 ms at 3.7x the mean
/// rate, then 60 ms at 0.1x.
fn traffic(seconds: f64, seed: u64) -> TrafficSpec {
    TrafficSpec {
        process: ArrivalProcess::BurstyOnOff {
            on_rate: RATE * 3.7,
            off_rate: RATE * 0.1,
            mean_on: Duration::from_millis(20),
            mean_off: Duration::from_millis(60),
        },
        classes: vec![TrafficClass::interactive(0.3, SLO), TrafficClass::batch(0.7)],
        requests: (RATE * seconds) as usize,
        input_dim: SERVED.dims[0],
        seed,
    }
}

/// The target model of every arrival: runs of one model, a new uniformly
/// random model starting with probability `1 / MODEL_RUN` at each arrival
/// (splitmix64 of the seed), as when each client sends several requests.
fn model_sequence(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed ^ 0x6a09_e667_f3bc_c909;
    let mut below = |bound: u64| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % bound
    };
    let mut model = below(MODELS as u64) as usize;
    (0..n)
        .map(|_| {
            if below(MODEL_RUN) == 0 {
                model = below(MODELS as u64) as usize;
            }
            model
        })
        .collect()
}

fn setup(seed: u64, seconds: f64, tracer: &mut Tracer) -> (f64, Ready) {
    let t0 = Instant::now();
    let spec = traffic(seconds, seed);
    let (schedule, models) = tracer.time("traffic.schedule", None, None, || {
        (spec.schedule(), model_sequence(spec.requests, seed))
    });
    let weights: Vec<(String, Vec<TileWiseMatrix>)> = (0..MODELS)
        .map(|m| {
            (format!("m{m}"), prune_chain(&SERVED, seed.wrapping_add(7919 * m as u64), tracer))
        })
        .collect();
    let mut spent = t0.elapsed();

    // The replicas build these same tile-wise sessions inside
    // `Cluster::start_models`; building them here too gives the VRAM budget
    // and the pages the cache replay needs.
    let mut registry = ModelRegistry::new();
    for (name, tiles) in &weights {
        let plan = vec![Backend::TileWise; tiles.len()];
        let session = tracer
            .time("planner.plan", None, None, || InferenceSession::with_plan(tiles.clone(), &plan));
        registry.register(name.clone(), 1, Arc::new(session));
    }
    let vram = (registry.get(0).footprint() as f64 * VRAM_MODELS) as u64;
    let pages = (0..MODELS).map(|m| registry.get(m).tiles().to_vec()).collect();

    let config = ClusterConfig {
        max_batch_size: SERVED.batch,
        max_batch_wait: Duration::from_millis(2),
        queue_capacity: 8192,
        classes: ClassPolicy::from_traffic(&spec.classes),
        admission: AdmissionConfig { max_queue_depth: Some(8192), ..AdmissionConfig::default() },
        balancer: BalancerKind::ResidencyAware,
        balancer_seed: seed,
        autoscaler: None,
        memory: Some(MemoryConfig { vram_bytes: Some(vram), ..MemoryConfig::default() }),
    };
    let specs: Vec<ReplicaSpec> = (0..REPLICAS)
        .map(|r| ReplicaSpec::v100(format!("r{r}"), 1, Backend::TileWise, 0.0))
        .collect();
    let tiles = weights[0].1.clone();
    let t1 = Instant::now();
    let cluster =
        tracer.time("cluster.start", None, None, || Cluster::start_models(weights, specs, config));
    spent += t1.elapsed();
    (spent.as_secs_f64(), Ready { cluster, schedule, models, tiles, pages, vram })
}

pub fn bench(seed: u64, seconds: f64, setups: usize, tracer: &mut Tracer) -> (f64, Outcome) {
    let (setup_s, ready) = repeat_setup(
        setups,
        || setup(seed, seconds, tracer),
        |r| {
            r.cluster.shutdown();
        },
    );
    (setup_s, run(ready, tracer))
}

fn run(ready: Ready, tracer: &mut Tracer) -> Outcome {
    let Ready { mut cluster, mut schedule, models, tiles, pages, vram } = ready;
    let n = schedule.len();
    let mut routed = [0usize; REPLICAS];
    // Per replica, the model of every admitted request, in routing order.
    let mut admitted_models: Vec<Vec<usize>> = vec![Vec::new(); REPLICAS];
    let mut lateness_s = Vec::with_capacity(n);
    let start = Instant::now();
    for (i, arrival) in schedule.iter_mut().enumerate() {
        let req = Some(i as u64);
        let due = start + arrival.at;
        pace(due, || {});
        let t0 = Instant::now();
        let span = tracer.open("request", due, None, req);
        tracer.record("traffic.send", due, t0, span, req);
        let payload = std::mem::take(&mut arrival.payload);
        let (replica, admission) = cluster
            .submit_model(models[i], arrival.class, payload)
            .expect("cluster runs until shutdown");
        let t1 = Instant::now();
        tracer.record("cluster.submit_model", t0, t1, span, req);
        tracer.close(span, t1);
        lateness_s.push(t0.saturating_duration_since(due).as_secs_f64());
        routed[replica] += 1;
        if let Admission::Admitted(_) = admission {
            admitted_models[replica].push(models[i]);
        }
    }
    let t0 = Instant::now();
    let report = cluster.shutdown();
    let end = Instant::now();
    tracer.record("cluster.shutdown", t0, end, None, None);

    // Id conservation, per replica and for the fleet.
    let mut lost = 0u64;
    for (replica, count) in report.replicas.iter().zip(routed) {
        let accounted = replica.report.completed + replica.report.shed;
        lost += count.abs_diff(accounted) as u64 + replica.routed.abs_diff(count) as u64;
    }
    lost += n.abs_diff(report.completed + report.shed) as u64;

    let completed = report.completed as f64;
    let run_s = (end - start).as_secs_f64();
    let mut e2e = Values::new();
    e2e.insert("rows_per_s".into(), completed / run_s);
    e2e.insert("p50_ms".into(), report.latency.p50_s * 1e3);
    e2e.insert("p99_ms".into(), report.latency.p99_s * 1e3);
    e2e.insert("interactive_p99_ms".into(), report.classes[0].latency.p99_s * 1e3);
    let device_s = ratio(report.sim_gpu_s() + report.transfer_sim_s(), completed);
    e2e.insert("device_us_per_req".into(), device_s * 1e6);
    let mut layer = fleet_layer_metrics(&report, run_s);
    layer.extend(replay_cache(&admitted_models, &pages, vram, tracer));
    layer.insert("traffic.lateness_p99_ms".into(), percentile(&mut lateness_s, 0.99) * 1e3);
    Outcome {
        attempted: n as u64,
        failed: report.shed as u64 + lost,
        wrong: 0,
        e2e,
        layer,
        shape: &SERVED,
        plan: vec![Backend::TileWise.as_str(); tiles.len()],
        tiles,
    }
}

fn fleet_layer_metrics(report: &ClusterReport, run_s: f64) -> Values {
    let completed = report.completed as f64;
    let batches = report.batches() as f64;
    let workers: Vec<_> = report.replicas.iter().flat_map(|r| &r.report.workers).collect();
    let busy_s: f64 = workers.iter().map(|w| w.cpu_busy.as_secs_f64()).sum();
    let hits: u64 = report.models.iter().map(|m| m.tile_hits).sum();
    let misses: u64 = report.models.iter().map(|m| m.tile_misses).sum();
    let cold: usize = report.models.iter().map(|m| m.cold).sum();
    let sim_gpu_s = report.sim_gpu_s();

    let mut m = Values::new();
    m.insert("serve.latency_p50_ms".into(), report.latency.p50_s * 1e3);
    m.insert("serve.latency_p99_ms".into(), report.latency.p99_s * 1e3);
    m.insert("serve.wait_ms_p50".into(), (report.latency.p50_s - ratio(busy_s, batches)) * 1e3);
    m.insert("serve.mean_batch".into(), report.mean_batch_size());
    m.insert("serve.exec_ms_per_batch".into(), ratio(busy_s, batches) * 1e3);
    m.insert("serve.worker_busy_frac".into(), ratio(busy_s, workers.len() as f64 * run_s));
    m.insert("serve.shed".into(), report.shed as f64);
    m.insert("memory.tile_hit_rate".into(), ratio(hits as f64, (hits + misses) as f64));
    m.insert("memory.bytes_paged_mb".into(), report.bytes_paged() as f64 / (1u64 << 20) as f64);
    m.insert("memory.cold_req_frac".into(), ratio(cold as f64, completed));
    m.insert("memory.transfer_us_per_req".into(), ratio(report.transfer_sim_s(), completed) * 1e6);
    m.insert("cluster.balance_skew".into(), report.balance_skew());
    for (r, replica) in report.replicas.iter().enumerate() {
        m.insert(format!("cluster.replica_p99_ms.r{r}"), replica.report.latency.p99_s * 1e3);
    }
    m.insert("gpu_sim.kernel_us_per_req".into(), ratio(sim_gpu_s, completed) * 1e6);
    m
}

/// Replays each replica's admitted model sequence, one acquire and release
/// per request, on a standalone tile cache with the run's capacity, policy
/// and page sizes, and times the calls.  The run's own cache sits behind
/// the cluster's public API, so its evictions are counted here too.
fn replay_cache(
    admitted_models: &[Vec<usize>],
    pages: &[Vec<WeightTile>],
    vram: u64,
    tracer: &mut Tracer,
) -> Values {
    let mut call_us = Vec::new();
    let mut evictions = 0u64;
    for (replica, sequence) in admitted_models.iter().enumerate() {
        let mut cache = TileCache::new(
            MemoryPool::new(vram),
            TransferCost::of(&GpuDevice::v100()),
            PolicyKind::Lru.build(),
        );
        for &model in sequence {
            let t0 = Instant::now();
            cache.acquire(&pages[model]);
            cache.release(&pages[model]);
            let t1 = Instant::now();
            tracer.record("memory.acquire_release", t0, t1, None, Some(replica as u64));
            call_us.push((t1 - t0).as_secs_f64() * 1e6);
        }
        evictions += cache.stats().evictions;
    }
    let mut m = Values::new();
    m.insert("memory.evictions".into(), evictions as f64);
    m.insert("memory.acquire_us_p50".into(), percentile(&mut call_us, 0.50));
    m.insert("memory.acquire_us_p99".into(), percentile(&mut call_us, 0.99));
    m
}
