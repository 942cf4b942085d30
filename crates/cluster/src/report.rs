//! Aggregated outcome of one cluster run: global and per-class percentiles
//! over every replica's completions, shed accounting, goodput and balance
//! skew, plus each replica's own `ServeReport`.

use crate::replica::RetiredReplica;
use std::time::Duration;
use tw_memory::ModelPagingStats;
use tw_serve::stats::per_second;
use tw_serve::{ClassPolicy, ClassStats, LatencySummary, ModelStats, RunObservation, ServeReport};

/// One replica's slice of the cluster report.
#[derive(Clone, Debug)]
pub struct ReplicaReport {
    /// Replica name from its spec.
    pub name: String,
    /// Device slug the replica priced batches on (`v100`, `a100`, ...).
    pub device: String,
    /// Worker threads the replica ran.
    pub workers: usize,
    /// Resolved per-layer kernel plan.
    pub plan: Vec<String>,
    /// Submissions the balancer routed here (admitted + shed).
    pub routed: usize,
    /// The replica's own serving report.
    pub report: ServeReport,
}

/// The outcome of one multi-replica serving run.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// Routing policy that produced this run.
    pub balancer: String,
    /// Submissions the cluster issued an id for (sum of replica `routed`).
    pub issued: usize,
    /// Requests completed across all replicas.
    pub completed: usize,
    /// Requests shed across all replicas.
    pub shed: usize,
    /// Wall-clock span from cluster start to shutdown.
    pub wall: Duration,
    /// Global latency order statistics over every replica's completions.
    pub latency: LatencySummary,
    /// Per-class breakdowns aggregated across replicas, in priority order.
    pub classes: Vec<ClassStats>,
    /// Per-model cold-start breakdowns aggregated across replicas, in model
    /// id order: fleet-wide tile hit rates, bytes paged and true cold/warm
    /// latency order statistics.  Empty when no replica paged (single
    /// model, no memory management).
    pub models: Vec<ModelStats>,
    /// Per-replica reports, in start order (drained replicas included).
    pub replicas: Vec<ReplicaReport>,
    /// Autoscaler decisions, in decision order (empty without autoscaling).
    pub scale_events: Vec<String>,
}

impl ClusterReport {
    /// Aggregates retired replicas into the cluster-wide view.  The
    /// latency, per-class and per-model rows come from
    /// [`ServeReport::from_observations`] over the union of every replica's
    /// observations, so the cluster percentiles are true order statistics,
    /// not averages of per-replica percentiles; shed counts and tile
    /// counters are summed over the replicas' own rows.
    pub fn aggregate(
        balancer: String,
        classes: &[ClassPolicy],
        retired: Vec<RetiredReplica>,
        scale_events: Vec<String>,
        wall: Duration,
    ) -> Self {
        let observations: Vec<RunObservation> =
            retired.iter().flat_map(|r| r.observations.iter().copied()).collect();
        let num_models = retired.iter().map(|r| r.report.models.len()).max().unwrap_or(0);
        let mut paging = vec![(String::new(), ModelPagingStats::default()); num_models];
        let mut shed = vec![0; classes.len()];
        for report in retired.iter().map(|r| &r.report) {
            for row in &report.classes {
                shed[row.class] += row.shed;
            }
            for row in &report.models {
                let (name, sum) = &mut paging[row.model];
                name.clone_from(&row.name);
                sum.hits += row.tile_hits;
                sum.misses += row.tile_misses;
                sum.bytes_transferred += row.bytes_paged;
                sum.transfer_seconds += row.transfer_sim_s;
            }
        }
        let fleet = ServeReport::from_observations(
            &observations,
            &shed,
            classes,
            &paging,
            wall,
            Vec::new(),
        );
        let replicas: Vec<ReplicaReport> = retired
            .into_iter()
            .map(|r| ReplicaReport {
                name: r.spec.name,
                device: r.spec.device.to_string(),
                workers: r.spec.workers,
                plan: r.report.backend_plan.clone(),
                routed: r.routed,
                report: r.report,
            })
            .collect();
        Self {
            balancer,
            issued: replicas.iter().map(|r| r.routed).sum(),
            completed: fleet.completed,
            shed: fleet.shed,
            wall,
            latency: fleet.latency,
            classes: fleet.classes,
            models: fleet.models,
            replicas,
            scale_events,
        }
    }

    /// Completed requests per wall-clock second, fleet-wide.
    pub fn throughput_rps(&self) -> f64 {
        per_second(self.completed, self.wall)
    }

    /// Completions within their class SLO per second (best-effort
    /// completions all count), fleet-wide.
    pub fn goodput_rps(&self) -> f64 {
        if self.classes.is_empty() {
            return self.throughput_rps();
        }
        per_second(self.classes.iter().map(|c| c.good).sum(), self.wall)
    }

    /// Fraction of issued submissions shed.
    pub fn shed_rate(&self) -> f64 {
        if self.issued == 0 {
            return 0.0;
        }
        self.shed as f64 / self.issued as f64
    }

    /// Total simulated device seconds across the fleet.
    pub fn sim_gpu_s(&self) -> f64 {
        self.replicas.iter().map(|r| r.report.sim_gpu_s).sum()
    }

    /// Total bytes paged host→device across the fleet.
    pub fn bytes_paged(&self) -> u64 {
        self.replicas.iter().map(|r| r.report.bytes_paged).sum()
    }

    /// Total simulated PCIe seconds across the fleet.
    pub fn transfer_sim_s(&self) -> f64 {
        self.replicas.iter().map(|r| r.report.transfer_sim_s).sum()
    }

    /// Total batches executed across the fleet.
    pub fn batches(&self) -> usize {
        self.replicas.iter().map(|r| r.report.batches).sum()
    }

    /// Mean requests fused per batch, fleet-wide.
    pub fn mean_batch_size(&self) -> f64 {
        let batches = self.batches();
        if batches == 0 {
            return 0.0;
        }
        self.completed as f64 / batches as f64
    }

    /// Routing imbalance: the busiest replica's routed count over the
    /// per-replica mean.  `1.0` is perfectly balanced (what round-robin
    /// produces on a fixed fleet); informed policies on heterogeneous
    /// fleets *should* skew toward the fast replicas.
    pub fn balance_skew(&self) -> f64 {
        if self.issued == 0 || self.replicas.is_empty() {
            return 1.0;
        }
        let mean = self.issued as f64 / self.replicas.len() as f64;
        let max = self.replicas.iter().map(|r| r.routed).max().unwrap_or(0);
        max as f64 / mean
    }

    /// One human-readable summary line for the whole run.
    pub fn summary(&self) -> String {
        let shed = if self.shed > 0 {
            format!(" | shed {} ({:.1}%)", self.shed, self.shed_rate() * 100.0)
        } else {
            String::new()
        };
        let scaled = if self.scale_events.is_empty() {
            String::new()
        } else {
            format!(" | {} scale event(s)", self.scale_events.len())
        };
        format!(
            "[{}] {} replicas, {} issued in {:.3}s | {:.1} req/s ({:.1} good) | p50 {:.2}ms p99 {:.2}ms | skew {:.2}{shed}{scaled}",
            self.balancer,
            self.replicas.len(),
            self.issued,
            self.wall.as_secs_f64(),
            self.throughput_rps(),
            self.goodput_rps(),
            self.latency.p50_s * 1e3,
            self.latency.p99_s * 1e3,
            self.balance_skew(),
        )
    }

    /// One line per replica: where traffic went and how each copy fared.
    pub fn replica_summary(&self) -> Vec<String> {
        self.replicas
            .iter()
            .map(|r| {
                format!(
                    "replica {} ({}, {} worker(s), plan [{}]): routed {}, completed {}, shed {}, p99 {:.2}ms",
                    r.name,
                    r.device,
                    r.workers,
                    r.plan.join(","),
                    r.routed,
                    r.report.completed,
                    r.report.shed,
                    r.report.latency.p99_s * 1e3,
                )
            })
            .collect()
    }

    /// One line per model, aggregated fleet-wide: the cold-start view
    /// (same [`ModelStats::summary_line`] format as single-server reports).
    pub fn model_summary(&self) -> Vec<String> {
        self.models.iter().map(ModelStats::summary_line).collect()
    }

    /// One line per class, aggregated fleet-wide (same
    /// [`ClassStats::summary_line`] format as single-server reports).
    pub fn class_summary(&self) -> Vec<String> {
        self.classes.iter().map(ClassStats::summary_line).collect()
    }
}
