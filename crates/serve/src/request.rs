//! Request classes: the unit of arrival in the serving loop.
//!
//! A request class is a job template — phases, eligibility, a relative
//! deadline — plus a sampling weight. The arrival process draws classes by
//! weight and stamps each draw with a unique id and an arrival cycle,
//! producing an ordinary `pccs-sched` [`Job`] the placement policies
//! already understand.
//!
//! [`Job`]: pccs_sched::Job

use pccs_sched::job::Job;
use pccs_soc::pu::PuKind;
use pccs_workloads::layers::LayerGraph;
use pccs_workloads::RodiniaBenchmark;

/// Work per background `srad` request, in lines — a bandwidth hog long
/// enough (~660k cycles) that the CPU keeps near-constant pressure on the
/// bus at moderate arrival rates, which is what springs the DLA trap.
const SRAD_REQUEST_LINES: f64 = 240_000.0;

/// Inferences' worth of traffic per `alexnet` request. FC-heavy: the DLA
/// and GPU are nearly tied standalone, but the DLA collapses under CPU
/// bandwidth pressure — the placement trap PCCS sees and greedy does not.
const ALEXNET_REQUEST_SCALE: f64 = 0.02;

/// Inferences' worth of traffic per `mnist` request (tiny network; the
/// scale batches many inferences into one request). On Xavier the DLA
/// edges out the GPU standalone but slows ~1.7x under CPU bandwidth
/// pressure while the GPU barely moves — the placement trap PCCS sees
/// and the oblivious greedy walks into.
const MNIST_REQUEST_SCALE: f64 = 2.0;

/// Relative deadline of an `alexnet` request, cycles after arrival.
const ALEXNET_DEADLINE: u64 = 200_000;

/// Relative deadline of an `mnist` request, cycles after arrival.
const MNIST_DEADLINE: u64 = 170_000;

/// A weighted request template the arrival process draws from.
#[derive(Debug, Clone)]
pub struct RequestClass {
    /// Class name, used in SLO accounting and trace replay.
    pub name: String,
    /// The job template; its `id` and `arrival` are placeholders
    /// overwritten by [`RequestClass::request`].
    pub template: Job,
    /// Deadline relative to arrival, if the class has an SLO.
    pub relative_deadline: Option<u64>,
    /// Sampling weight among classes (need not sum to 1).
    pub weight: f64,
}

impl RequestClass {
    /// A class from a job template.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not positive.
    pub fn new(
        name: impl Into<String>,
        template: Job,
        relative_deadline: Option<u64>,
        weight: f64,
    ) -> Self {
        assert!(weight > 0.0, "class weight must be positive");
        Self {
            name: name.into(),
            template,
            relative_deadline,
            weight,
        }
    }

    /// Stamps one concrete request from the template.
    pub fn request(&self, id: usize, arrival: u64) -> Job {
        let mut job = self.template.clone();
        job.id = id;
        job.arrival = arrival;
        job.deadline = self.relative_deadline.map(|d| arrival + d);
        job
    }

    /// Whether the class can run on a PU of class `kind`.
    pub fn runs_on(&self, kind: PuKind) -> bool {
        self.template.runs_on(kind)
    }
}

/// The contended serving workload, mirroring the `contended` scheduling
/// mix at request granularity: a CPU-pinned `srad` bandwidth hog, an
/// FC-heavy `alexnet` class whose best placement flips under pressure,
/// and a latency-sensitive `mnist` class whose best placement flips under
/// pressure.
pub fn contended_classes() -> Vec<RequestClass> {
    vec![
        RequestClass::new(
            "srad",
            Job::rodinia(0, RodiniaBenchmark::Srad, 0, SRAD_REQUEST_LINES)
                .with_eligible(vec![PuKind::Cpu]),
            None,
            0.2,
        ),
        RequestClass::new(
            "alexnet",
            Job::dnn(0, &LayerGraph::alexnet(), 0, ALEXNET_REQUEST_SCALE),
            Some(ALEXNET_DEADLINE),
            0.4,
        ),
        RequestClass::new(
            "mnist",
            Job::dnn(0, &LayerGraph::mnist(), 0, MNIST_REQUEST_SCALE),
            Some(MNIST_DEADLINE),
            0.4,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamped_requests_carry_absolute_deadlines() {
        let classes = contended_classes();
        let alexnet = classes.iter().find(|c| c.name == "alexnet").unwrap();
        let job = alexnet.request(17, 1_000);
        assert_eq!(job.id, 17);
        assert_eq!(job.arrival, 1_000);
        assert_eq!(job.deadline, Some(1_000 + ALEXNET_DEADLINE));
        assert_eq!(job.name, alexnet.template.name);
    }

    #[test]
    fn contended_classes_cover_the_trap() {
        let classes = contended_classes();
        assert_eq!(classes.len(), 3);
        let srad = &classes[0];
        assert!(srad.runs_on(PuKind::Cpu));
        assert!(!srad.runs_on(PuKind::Dla));
        assert!(srad.relative_deadline.is_none());
        let alexnet = &classes[1];
        assert!(alexnet.runs_on(PuKind::Dla) && alexnet.runs_on(PuKind::Gpu));
        assert!(alexnet.relative_deadline.is_some());
    }
}
