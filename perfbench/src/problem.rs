//! One problem the benchmark runs: a spec in the shared `spec` vocabulary
//! plus an instance count, with the public entry points of each layer
//! that can execute it.

use std::collections::BTreeMap;
use std::sync::Arc;

use smache::arch::kernel::AverageKernel;
use smache::functional::golden::golden_run;
use smache::spec::{seeded_input, ProblemSpec};
use smache::system::{ControlSchedule, RunReport};
use smache::{CoreError, PipelineConfig, TemporalPipeline};
use smache_sim::Json;

#[derive(Debug, Clone)]
pub struct Problem {
    /// The spec exactly as a client spells it (the `spec` object of a
    /// request line).
    pub pairs: Vec<(String, String)>,
    pub spec: ProblemSpec,
    /// Grid updates (work-instances); a multiple of `timesteps` when the
    /// spec is pipelined.
    pub instances: u64,
}

impl Problem {
    pub fn new(pairs: &[(&str, &str)], instances: u64) -> Problem {
        let pairs: Vec<(String, String)> = pairs
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let map: BTreeMap<String, String> = pairs.iter().cloned().collect();
        let spec = ProblemSpec::from_source(&map).expect("benchmark specs are valid");
        Problem {
            pairs,
            spec,
            instances,
        }
    }

    pub fn cells(&self) -> u64 {
        self.spec.grid.len() as u64
    }

    /// Host grid-cell updates one run performs.
    pub fn updates(&self) -> u64 {
        self.cells() * self.instances
    }

    pub fn input(&self, seed: u64) -> Vec<u64> {
        seeded_input(self.spec.grid.len(), seed)
    }

    /// A `simulate` request line for this problem.
    pub fn request_line(&self, id: &str, seed: u64) -> String {
        let spec = Json::Obj(
            self.pairs
                .iter()
                .map(|(k, v)| (k.clone(), Json::str(v.clone())))
                .collect(),
        );
        Json::obj(vec![
            ("id", Json::str(id)),
            ("cmd", Json::str("simulate")),
            ("spec", spec),
            ("seed", Json::Int(seed as i64)),
            ("instances", Json::Int(self.instances as i64)),
        ])
        .compact()
    }

    /// The software reference output for `input`.
    pub fn golden(&self, input: &[u64]) -> Vec<u64> {
        golden_run(
            &self.spec.grid,
            &self.spec.bounds,
            &self.spec.shape,
            &AverageKernel,
            input,
            self.instances,
        )
        .expect("golden reference runs")
    }

    fn pipeline(&self) -> Result<TemporalPipeline, CoreError> {
        let plan = self.spec.builder().plan()?;
        let config = PipelineConfig {
            depth: self.spec.timesteps as usize,
            channels: self.spec.channels,
            ..Default::default()
        };
        TemporalPipeline::new(plan, Box::new(AverageKernel), config)
    }

    /// Full cycle-accurate run: `SmacheSystem::run`, or
    /// `TemporalPipeline::run` for a pipelined spec.
    pub fn run(&self, input: &[u64]) -> Result<RunReport, CoreError> {
        if self.spec.pipelined() {
            return self
                .pipeline()?
                .run(input, self.instances / self.spec.timesteps);
        }
        self.spec.builder().build()?.run(input, self.instances)
    }

    /// Full run with the control recorder attached (`run_captured`).
    pub fn capture(&self, input: &[u64]) -> Result<(RunReport, Arc<ControlSchedule>), CoreError> {
        if self.spec.pipelined() {
            return self
                .pipeline()?
                .run_captured(input, self.instances / self.spec.timesteps);
        }
        self.spec
            .builder()
            .build()?
            .run_captured(input, self.instances)
    }
}

/// A report's JSON text with `output` and `engine` removed: what must be
/// identical between a replayed and a fully simulated run of one spec,
/// whatever the data.
pub fn report_shape(report: &Json) -> String {
    match report {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| k != "output" && k != "engine")
                .cloned()
                .collect(),
        )
        .compact(),
        other => other.compact(),
    }
}

/// The `output` array of a report as words.
pub fn report_output(report: &Json) -> Option<Vec<u64>> {
    report
        .get("output")?
        .as_arr()?
        .iter()
        .map(Json::as_u64)
        .collect()
}
