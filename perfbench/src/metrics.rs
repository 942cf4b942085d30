//! The metric catalogue (every name with its unit and clock), and the lines
//! and result object the benchmark prints.

use crate::kernels::{BERT, SERVED};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use tilewise::KernelRegistry;

/// Metric values by name, as a workload measured them.
pub type Values = BTreeMap<String, f64>;

/// Which clock a number was read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Wall time of real kernels and threads on this CPU.
    Host,
    /// The `tw-gpu-sim` V100 cost model; never slept.
    Modelled,
    /// A count or a ratio of counts.
    Count,
}

impl Clock {
    pub fn as_str(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Modelled => "modelled",
            Clock::Count => "count",
        }
    }
}

/// A metric's name, unit and clock.
pub struct Spec {
    pub name: String,
    pub unit: &'static str,
    pub clock: Clock,
}

fn spec(name: impl Into<String>, unit: &'static str, clock: Clock) -> Spec {
    Spec { name: name.into(), unit, clock }
}

/// The end-to-end metrics of the result object on untraced runs, with a
/// bound in `BENCHMARK.json`.  Every workload measures all of them.
pub fn end_to_end() -> Vec<Spec> {
    use Clock::*;
    vec![
        spec("setup_s", "s", Host),
        spec("rows_per_s", "rows/s", Host),
        spec("device_us_per_req", "us", Modelled),
        spec("peak_rss_mb", "MiB", Host),
    ]
}

/// End-to-end metrics that are printed but carry no bound.  On a shared
/// 2-core virtual machine the host switched between a fast and a slow state
/// and stalled in bursts, and these percentiles moved between runs by more
/// than the largest bound allowed (see `README.md`).
pub fn end_to_end_unbounded() -> Vec<Spec> {
    use Clock::*;
    vec![
        spec("p50_ms", "ms", Host),
        spec("p99_ms", "ms", Host),
        spec("interactive_p99_ms", "ms", Host),
    ]
}

/// The per-layer metrics, printed on traced runs.  A layer a workload does
/// not use reads 0.
pub fn per_layer() -> Vec<Spec> {
    use Clock::*;
    let mut specs = vec![
        spec("traffic.lateness_p99_ms", "ms", Host),
        spec("traffic.schedule_s", "s", Host),
        spec("pruning.host_s", "s", Host),
        spec("planner.host_s", "s", Host),
        spec("planner.host_regret", "ratio", Host),
        spec("kernels.gflops", "GFLOP/s", Host),
        spec("serve.submit_us_p50", "us", Host),
        spec("serve.submit_us_p99", "us", Host),
        spec("serve.latency_p50_ms", "ms", Host),
        spec("serve.latency_p99_ms", "ms", Host),
        spec("serve.wait_ms_p50", "ms", Host),
        spec("serve.mean_batch", "req", Count),
        spec("serve.exec_ms_per_batch", "ms", Host),
        spec("serve.worker_busy_frac", "ratio", Host),
        spec("serve.shed", "req", Count),
        spec("memory.tile_hit_rate", "ratio", Count),
        spec("memory.bytes_paged_mb", "MiB", Count),
        spec("memory.evictions", "count", Count),
        spec("memory.cold_req_frac", "ratio", Count),
        spec("memory.transfer_us_per_req", "us", Modelled),
        spec("memory.acquire_us_p50", "us", Host),
        spec("memory.acquire_us_p99", "us", Host),
        spec("cluster.route_us_p50", "us", Host),
        spec("cluster.route_us_p99", "us", Host),
        spec("cluster.balance_skew", "ratio", Count),
        spec("cluster.replica_p99_ms.r0", "ms", Host),
        spec("cluster.replica_p99_ms.r1", "ms", Host),
        spec("gpu_sim.kernel_us_per_req", "us", Modelled),
        spec("trace.overhead_frac", "ratio", Host),
    ];
    for shape in [&SERVED, &BERT] {
        for layer in 0..shape.dims.len() - 1 {
            for family in KernelRegistry::standard().names() {
                let cell = format!("{}.L{layer}.{family}", shape.label);
                specs.push(spec(format!("planner.{cell}.modelled_us"), "us", Modelled));
                specs.push(spec(format!("kernels.{cell}.host_us"), "us", Host));
                specs.push(spec(format!("kernels.{cell}.resident_kb"), "kB", Count));
            }
        }
    }
    specs
}

/// One measured metric.
pub struct Metric {
    pub spec: Spec,
    pub value: f64,
}

/// Panics if `values` holds a name outside `catalogue`: a misspelt metric
/// would otherwise read 0 silently.
pub fn assert_catalogued(values: &Values, catalogue: &[Spec]) {
    for name in values.keys() {
        assert!(
            catalogue.iter().any(|s| &s.name == name),
            "metric {name:?} is not in the catalogue"
        );
    }
}

/// Pairs every entry of `specs` with its value; `missing` supplies the
/// value of a metric the workload did not measure, or `None` to refuse.
///
/// # Panics
/// Panics if `missing` refuses.
pub fn assemble(specs: Vec<Spec>, values: &Values, missing: Option<f64>) -> Vec<Metric> {
    specs
        .into_iter()
        .map(|spec| {
            let value = values
                .get(&spec.name)
                .copied()
                .or(missing)
                .unwrap_or_else(|| panic!("workload did not measure {}", spec.name));
            Metric { spec, value }
        })
        .collect()
}

/// Nearest-rank percentile of `samples` (sorted in place); 0 for an empty
/// set, which only happens for a layer the workload does not use.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    tw_serve::stats::percentile(samples, q)
}

/// Median of `samples` (sorted in place).
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// JSON has no infinity: a latency made infinite by a failed request is
/// printed as this finite stand-in (and the run counts the failure).
const JSON_INFINITY: f64 = 1e300;

fn json_number(value: f64) -> String {
    if value.is_nan() {
        "null".to_string()
    } else if value.is_finite() {
        format!("{value}")
    } else {
        format!("{}", JSON_INFINITY.copysign(value))
    }
}

/// One tab-separated `metric <set> <name> <value> <unit> <clock>` line per
/// metric.
pub fn print_lines(set: &str, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "metric\t{set}\t{}\t{}\t{}\t{}",
            m.spec.name,
            json_number(m.value),
            m.spec.unit,
            m.spec.clock.as_str()
        );
    }
}

/// The result object the benchmark prints as its last line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.spec.name,
            json_number(m.value),
            m.spec.unit
        );
    }
    out.push_str("}}");
    out
}
