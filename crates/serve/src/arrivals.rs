//! Open-loop arrival processes: who shows up, and when.
//!
//! The serving loop is *open-loop* — arrivals do not wait for completions
//! — so the whole arrival stream can be generated up front from a seed.
//! That is what makes runs reproducible: the stream depends only on the
//! process, the classes, the duration, and the seed, never on scheduling
//! timing or worker count.

use crate::error::ServeError;
use crate::request::RequestClass;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One arrival: a request class drawn at a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrivalEvent {
    /// Arrival cycle.
    pub at: u64,
    /// Index into the run's class list.
    pub class_idx: usize,
}

/// An open-loop arrival process.
#[derive(Debug, Clone)]
pub enum ArrivalProcess {
    /// Poisson arrivals: exponential inter-arrival times at a constant
    /// rate, classes drawn by weight.
    Poisson {
        /// Mean arrivals per million cycles.
        rate_per_mcycle: f64,
    },
    /// Bursty arrivals: a two-state Markov-modulated Poisson process that
    /// alternates between a calm phase at the base rate and bursts at
    /// `burst_factor` times the base rate.
    Bursty {
        /// Mean arrivals per million cycles in the calm phase.
        rate_per_mcycle: f64,
        /// Rate multiplier during bursts (> 1).
        burst_factor: f64,
        /// Mean calm-phase sojourn in cycles.
        calm_cycles: f64,
        /// Mean burst-phase sojourn in cycles.
        burst_cycles: f64,
    },
    /// Replay of an explicit `(cycle, class name)` trace.
    Trace {
        /// The trace events, in file order.
        events: Vec<(u64, String)>,
    },
}

impl ArrivalProcess {
    /// A bursty preset: 4× bursts, calm 200k cycles, bursting 50k.
    pub fn bursty(rate_per_mcycle: f64) -> Self {
        Self::Bursty {
            rate_per_mcycle,
            burst_factor: 4.0,
            calm_cycles: 200_000.0,
            burst_cycles: 50_000.0,
        }
    }

    /// A one-line description for reports (`"poisson(8/Mcycle)"`).
    pub fn describe(&self) -> String {
        match self {
            Self::Poisson { rate_per_mcycle } => format!("poisson({rate_per_mcycle}/Mcycle)"),
            Self::Bursty {
                rate_per_mcycle,
                burst_factor,
                ..
            } => format!("bursty({rate_per_mcycle}/Mcycle x{burst_factor})"),
            Self::Trace { events } => format!("trace({} events)", events.len()),
        }
    }

    /// Generates the full arrival stream for `classes` over `duration`
    /// cycles, deterministically from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for a rate, burst factor or
    /// sojourn that is not finite and positive (or a burst factor not above
    /// 1), and
    /// [`ServeError::UnknownTraceClass`] when a trace event names a class
    /// not in `classes`.
    pub fn generate(
        &self,
        classes: &[RequestClass],
        duration: u64,
        seed: u64,
    ) -> Result<Vec<ArrivalEvent>, ServeError> {
        let mut rng = SmallRng::seed_from_u64(seed);
        match self {
            Self::Poisson { rate_per_mcycle } => {
                let lambda = per_cycle_rate(*rate_per_mcycle)?;
                let mut events = Vec::new();
                let mut t = exp_sample(&mut rng, lambda);
                while (t as u64) < duration {
                    events.push(ArrivalEvent {
                        at: t as u64,
                        class_idx: draw_class(&mut rng, classes),
                    });
                    t += exp_sample(&mut rng, lambda);
                }
                Ok(events)
            }
            Self::Bursty {
                rate_per_mcycle,
                burst_factor,
                calm_cycles,
                burst_cycles,
            } => {
                let base = per_cycle_rate(*rate_per_mcycle)?;
                if !(burst_factor.is_finite() && *burst_factor > 1.0) {
                    return Err(ServeError::BadConfig {
                        detail: format!(
                            "burst factor must be finite and exceed 1 (got {burst_factor})"
                        ),
                    });
                }
                finite_positive("calm sojourn", *calm_cycles)?;
                finite_positive("burst sojourn", *burst_cycles)?;
                let mut events = Vec::new();
                let mut t = 0.0_f64;
                let mut bursting = false;
                // Next phase switch; exponential sojourns keep the process
                // memoryless within each phase.
                let mut switch_at = exp_sample(&mut rng, 1.0 / calm_cycles);
                loop {
                    let rate = if bursting { base * burst_factor } else { base };
                    let next = t + exp_sample(&mut rng, rate);
                    if next < switch_at {
                        t = next;
                        if (t as u64) >= duration {
                            break;
                        }
                        events.push(ArrivalEvent {
                            at: t as u64,
                            class_idx: draw_class(&mut rng, classes),
                        });
                    } else {
                        t = switch_at;
                        if (t as u64) >= duration {
                            break;
                        }
                        bursting = !bursting;
                        let mean = if bursting {
                            *burst_cycles
                        } else {
                            *calm_cycles
                        };
                        switch_at = t + exp_sample(&mut rng, 1.0 / mean);
                    }
                }
                Ok(events)
            }
            Self::Trace { events } => {
                let mut out = Vec::with_capacity(events.len());
                for (at, name) in events {
                    let Some(class_idx) = classes.iter().position(|c| &c.name == name) else {
                        return Err(ServeError::UnknownTraceClass {
                            class: name.clone(),
                            available: classes.iter().map(|c| c.name.clone()).collect(),
                        });
                    };
                    if *at < duration {
                        out.push(ArrivalEvent { at: *at, class_idx });
                    }
                }
                out.sort_by_key(|e| e.at);
                Ok(out)
            }
        }
    }
}

/// Parses a trace file body: one `<cycle> <class>` pair per line, `#`
/// comments and blank lines ignored.
///
/// # Errors
///
/// Returns [`ServeError::BadTrace`] naming the first malformed line.
pub fn parse_trace(text: &str) -> Result<ArrivalProcess, ServeError> {
    let mut events = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(cycle), Some(class)) = (parts.next(), parts.next()) else {
            return Err(ServeError::BadTrace {
                line: i + 1,
                detail: format!("expected '<cycle> <class>', got '{line}'"),
            });
        };
        let at: u64 = cycle.parse().map_err(|_| ServeError::BadTrace {
            line: i + 1,
            detail: format!("bad cycle count '{cycle}'"),
        })?;
        events.push((at, class.to_owned()));
    }
    Ok(ArrivalProcess::Trace { events })
}

/// Converts a per-Mcycle rate to a per-cycle rate, validating it. A NaN
/// or infinite rate would make every inter-arrival sample 0 or NaN and
/// the generator loop forever.
fn per_cycle_rate(rate_per_mcycle: f64) -> Result<f64, ServeError> {
    finite_positive("arrival rate", rate_per_mcycle)?;
    Ok(rate_per_mcycle / 1.0e6)
}

/// Checks that the parameter `what` is finite and positive.
fn finite_positive(what: &str, value: f64) -> Result<(), ServeError> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(ServeError::BadConfig {
            detail: format!("{what} must be finite and positive (got {value})"),
        })
    }
}

/// An exponential inter-arrival sample with rate `lambda` per cycle.
fn exp_sample(rng: &mut SmallRng, lambda: f64) -> f64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    -(1.0 - u).ln() / lambda
}

/// Draws a class index by weight.
fn draw_class(rng: &mut SmallRng, classes: &[RequestClass]) -> usize {
    let total: f64 = classes.iter().map(|c| c.weight).sum();
    let mut pick: f64 = rng.gen_range(0.0..total);
    for (i, class) in classes.iter().enumerate() {
        pick -= class.weight;
        if pick < 0.0 {
            return i;
        }
    }
    classes.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::contended_classes;

    #[test]
    fn poisson_rate_is_roughly_honoured() {
        let classes = contended_classes();
        let p = ArrivalProcess::Poisson {
            rate_per_mcycle: 50.0,
        };
        let events = p.generate(&classes, 10_000_000, 7).unwrap();
        // Expect ~500 arrivals; a Poisson count is within ±20% w.h.p.
        assert!(
            (400..=600).contains(&events.len()),
            "got {} arrivals",
            events.len()
        );
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let classes = contended_classes();
        let p = ArrivalProcess::bursty(40.0);
        let a = p.generate(&classes, 2_000_000, 42).unwrap();
        let b = p.generate(&classes, 2_000_000, 42).unwrap();
        let c = p.generate(&classes, 2_000_000, 43).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_empty());
    }

    #[test]
    fn class_weights_bias_the_draw() {
        let classes = contended_classes();
        let p = ArrivalProcess::Poisson {
            rate_per_mcycle: 100.0,
        };
        let events = p.generate(&classes, 10_000_000, 3).unwrap();
        let srad = events.iter().filter(|e| e.class_idx == 0).count();
        // srad weighs 0.2 of 1.0: expect ~20% of draws.
        let frac = srad as f64 / events.len() as f64;
        assert!((0.1..0.35).contains(&frac), "srad fraction {frac}");
    }

    #[test]
    fn trace_parses_and_validates_class_names() {
        let classes = contended_classes();
        let trace = parse_trace("# demo\n100 mnist\n50 alexnet\n\n900 srad\n").unwrap();
        let events = trace.generate(&classes, 1_000, 0).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].at, 50); // sorted by cycle
        let bad = parse_trace("100 resnet").unwrap();
        let err = bad.generate(&classes, 1_000, 0).unwrap_err();
        assert!(matches!(err, ServeError::UnknownTraceClass { .. }));
    }

    #[test]
    fn malformed_traces_are_rejected_with_line_numbers() {
        let err = parse_trace("100 mnist\nnonsense").unwrap_err();
        assert!(matches!(err, ServeError::BadTrace { line: 2, .. }));
        let err = parse_trace("x mnist").unwrap_err();
        assert!(matches!(err, ServeError::BadTrace { line: 1, .. }));
    }

    #[test]
    fn non_finite_rates_are_typed_errors() {
        let classes = contended_classes();
        for rate in [f64::NAN, f64::INFINITY, -1.0] {
            let p = ArrivalProcess::Poisson {
                rate_per_mcycle: rate,
            };
            assert!(
                matches!(
                    p.generate(&classes, 1_000, 0),
                    Err(ServeError::BadConfig { .. })
                ),
                "poisson rate {rate}"
            );
            assert!(
                matches!(
                    ArrivalProcess::bursty(rate).generate(&classes, 1_000, 0),
                    Err(ServeError::BadConfig { .. })
                ),
                "bursty rate {rate}"
            );
        }
    }

    #[test]
    fn bad_burst_parameters_are_typed_errors() {
        let classes = contended_classes();
        let bursty = |burst_factor, calm_cycles, burst_cycles| ArrivalProcess::Bursty {
            rate_per_mcycle: 10.0,
            burst_factor,
            calm_cycles,
            burst_cycles,
        };
        for p in [
            bursty(f64::NAN, 1e5, 1e4),
            bursty(f64::INFINITY, 1e5, 1e4),
            bursty(1.0, 1e5, 1e4),
            bursty(4.0, f64::NAN, 1e4),
            bursty(4.0, 1e5, f64::INFINITY),
            bursty(4.0, 0.0, 1e4),
        ] {
            let err = p.generate(&classes, 1_000, 0).unwrap_err();
            assert!(matches!(err, ServeError::BadConfig { .. }), "{p:?}");
        }
        assert!(bursty(4.0, 1e5, 1e4).generate(&classes, 1_000, 0).is_ok());
    }

    #[test]
    fn zero_rate_is_a_typed_error() {
        let classes = contended_classes();
        let p = ArrivalProcess::Poisson {
            rate_per_mcycle: 0.0,
        };
        assert!(matches!(
            p.generate(&classes, 1_000, 0),
            Err(ServeError::BadConfig { .. })
        ));
    }
}
