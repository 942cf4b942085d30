//! The repository benchmark: three workloads, each driving the layers only
//! through their public calls, all latency on the host clock.
//!
//! ```text
//! perfbench --workload offline-bert|serve-steady|fleet-paging
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Every metric is printed as a `metric` line with its unit and clock, and
//! the last line is one JSON object: `correct`, `attempted`, `failed` and
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`).  A traced run first repeats the untraced run, so it can
//! report tracing overhead, then runs the workload again with spans around
//! every layer call and times every kernel family.  Wrong outputs make the
//! exit status 1.  See `README.md` for the workloads and metrics.

mod fleet;
mod kernels;
mod metrics;
mod offline;
mod serve;
mod trace;

use kernels::{family_table, plan_efficiency, prune_chain, table_metrics, Shape, BERT, SERVED};
use metrics::{
    assemble, assert_catalogued, end_to_end, end_to_end_unbounded, per_layer, percentile,
    print_lines, result_json, Clock, Metric, Spec, Values,
};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use tilewise::TileWiseMatrix;
use trace::Tracer;

/// What one measured pass of a workload produced.
pub struct Outcome {
    /// Requests (rows on `offline-bert`) sent.
    pub attempted: u64,
    /// Shed, lost or wrong.
    pub failed: u64,
    /// Outputs that differ from the dense reference.
    pub wrong: u64,
    /// End-to-end values except `setup_s` and `peak_rss_mb`.
    pub e2e: Values,
    /// The per-layer values this workload measures directly.
    pub layer: Values,
    /// The shape the workload serves (model 0's, for a fleet).
    pub shape: &'static Shape,
    pub tiles: Vec<TileWiseMatrix>,
    /// The kernel family bound to each layer.
    pub plan: Vec<&'static str>,
}

/// Sleeps until `due`, first running `idle` if there is time to spare.  An
/// open loop sends on schedule; how late it ran is measured by the caller.
pub fn pace(due: Instant, mut idle: impl FnMut()) {
    if Instant::now() < due {
        idle();
    }
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Runs `setup` `setups` times, hands every set-up but the last to
/// `retire`, and returns the median set-up seconds with the last set-up.
pub fn repeat_setup<R>(
    setups: usize,
    mut setup: impl FnMut() -> (f64, R),
    mut retire: impl FnMut(R),
) -> (f64, R) {
    let mut seconds = Vec::with_capacity(setups);
    let mut kept = None;
    for _ in 0..setups {
        let (s, ready) = setup();
        seconds.push(s);
        if let Some(old) = kept.replace(ready) {
            retire(old);
        }
    }
    (metrics::median(&mut seconds), kept.expect("at least one set-up"))
}

#[derive(Clone, Copy, Debug)]
enum Workload {
    OfflineBert,
    ServeSteady,
    FleetPaging,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "offline-bert" => Some(Self::OfflineBert),
            "serve-steady" => Some(Self::ServeSteady),
            "fleet-paging" => Some(Self::FleetPaging),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::OfflineBert => "offline-bert",
            Self::ServeSteady => "serve-steady",
            Self::FleetPaging => "fleet-paging",
        }
    }

    /// Set-ups per untraced run; `setup_s` is their median.
    fn setups(self) -> usize {
        match self {
            Self::OfflineBert => offline::SETUPS,
            Self::ServeSteady => serve::SETUPS,
            Self::FleetPaging => fleet::SETUPS,
        }
    }

    fn bench(self, seed: u64, seconds: f64, setups: usize, tracer: &mut Tracer) -> (f64, Outcome) {
        match self {
            Self::OfflineBert => offline::bench(seed, seconds, setups, tracer),
            Self::ServeSteady => serve::bench(seed, seconds, setups, tracer),
            Self::FleetPaging => fleet::bench(seed, seconds, setups, tracer),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload offline-bert|serve-steady|fleet-paging \
--seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|_| format!("bad seed {value:?}"))?)
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;

    let (setup_s, base) = w.bench(args.seed, args.seconds, w.setups(), &mut Tracer::new(false));
    let mut values = base.e2e.clone();
    values.insert("setup_s".into(), setup_s);
    values.insert("peak_rss_mb".into(), metrics::peak_rss_mb());
    let catalogue: Vec<Spec> = end_to_end().into_iter().chain(end_to_end_unbounded()).collect();
    assert_catalogued(&values, &catalogue);
    let e2e = assemble(end_to_end(), &values, None);
    println!("# workload {} seed {} plan {}", w.name(), args.seed, base.plan.join(","));
    print_lines("end_to_end", &e2e);
    print_lines("end_to_end", &assemble(end_to_end_unbounded(), &values, None));
    let failed_frac = Metric {
        spec: Spec { name: "failed_frac".into(), unit: "ratio", clock: Clock::Count },
        value: base.failed as f64 / base.attempted as f64,
    };
    print_lines("end_to_end", std::slice::from_ref(&failed_frac));

    let (correct, attempted, failed, result) = if args.trace {
        let (layer, traced) = traced_run(&args, &base);
        print_lines("per_layer", &layer);
        (
            base.wrong + traced.wrong == 0,
            base.attempted + traced.attempted,
            base.failed + traced.failed,
            layer,
        )
    } else {
        (base.wrong == 0, base.attempted, base.failed, e2e)
    };
    println!("{}", result_json(correct, attempted, failed, &result));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: outputs differ from the dense reference");
        ExitCode::from(1)
    }
}

/// Runs the workload again with spans on, times every kernel family at
/// both shape sets, and returns the per-layer metrics.
fn traced_run(args: &Args, base: &Outcome) -> (Vec<Metric>, Outcome) {
    let mut tracer = Tracer::new(true);
    let (_, traced) = args.workload.bench(args.seed, args.seconds, 1, &mut tracer);
    let mut layer = traced.layer.clone();
    let durations_us = |name: &str| -> Vec<f64> {
        tracer.durations_s(name).into_iter().map(|s| s * 1e6).collect()
    };
    let mut submit_us = durations_us("serve.submit_to");
    let mut route_us = durations_us("cluster.submit_model");
    layer.insert("serve.submit_us_p50".into(), percentile(&mut submit_us, 0.50));
    layer.insert("serve.submit_us_p99".into(), percentile(&mut submit_us, 0.99));
    layer.insert("cluster.route_us_p50".into(), percentile(&mut route_us, 0.50));
    layer.insert("cluster.route_us_p99".into(), percentile(&mut route_us, 0.99));
    layer.insert("traffic.schedule_s".into(), tracer.total_s("traffic.schedule"));
    layer.insert("pruning.host_s".into(), tracer.total_s("pruning.prune"));
    layer.insert("planner.host_s".into(), tracer.total_s("planner.plan"));
    let overhead = traced.e2e["p50_ms"] / base.e2e["p50_ms"] - 1.0;
    layer.insert("trace.overhead_frac".into(), overhead);
    println!("# tracing overhead on p50_ms: {:+.2}% ({} spans)", overhead * 100.0, tracer.len());

    for shape in [&SERVED, &BERT] {
        let tiles = if shape.label == traced.shape.label {
            traced.tiles.clone()
        } else {
            prune_chain(shape, args.seed, &mut Tracer::new(false))
        };
        let cells = family_table(shape, &tiles, args.seed, &mut tracer);
        if shape.label == traced.shape.label {
            let (regret, gflops) = plan_efficiency(shape, &tiles, &traced.plan, &cells);
            println!(
                "# plan {} takes {regret:.2}x the host time of the fastest family on every layer",
                traced.plan.join(",")
            );
            layer.insert("planner.host_regret".into(), regret);
            layer.insert("kernels.gflops".into(), gflops);
        }
        layer.extend(table_metrics(shape, &cells));
    }

    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}.trace.jsonl", args.workload.name()));
    match tracer.write_jsonl(&path) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
    assert_catalogued(&layer, &per_layer());
    (assemble(per_layer(), &layer, Some(0.0)), traced)
}
