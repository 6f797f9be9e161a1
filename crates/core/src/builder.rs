//! Model construction from calibration measurements (Section 3.2).
//!
//! The processor-centric construction runs calibrator kernels of increasing
//! standalone bandwidth demand on the target PU while other PUs generate
//! increasing external demand, filling a matrix `rela[i][j]` — the achieved
//! relative speed (percent) of the `i`-th smallest kernel under the `j`-th
//! smallest external demand. [`ModelBuilder`] then extracts the model
//! parameters following the paper's five steps:
//!
//! 1. the normal-region boundary and MRMC from the last column,
//! 2. TBWDC from where the boundary row starts dropping,
//! 3. the intensive-region boundary from the first column,
//! 4. CBP from where the normal rows flatten,
//! 5. `rate_n` from the dropping phase of the normal rows.
//!
//! Steps 2, 4 and 5 are realized as a joint piecewise-linear fit
//! (flat → linear drop → flat) per normal-region row, which is exactly the
//! curve shape the paper's prose detects with thresholds but with sub-grid
//! precision and robustness to simulation noise; each row contributes a
//! breakpoint pair and a slope, and the averages across rows give TBWDC,
//! CBP and `rate_n` — precisely the quantities the prose steps compute.

use crate::error::ModelBuildError;
use crate::model::PccsModel;
use serde::{Deserialize, Serialize};

/// The calibration sweep of one PU: standalone demands × external demands →
/// achieved relative speed (percent).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrationData {
    /// Standalone bandwidth demand of each calibrator, ascending (GB/s).
    pub std_bw: Vec<f64>,
    /// External demand levels, ascending (GB/s).
    pub ext_bw: Vec<f64>,
    /// `rela[i][j]`: achieved relative speed (%) of calibrator `i` under
    /// external demand `j`.
    pub rela: Vec<Vec<f64>>,
    /// Peak bandwidth of the SoC (GB/s).
    pub peak_bw: f64,
}

impl CalibrationData {
    /// Validates and wraps a calibration sweep.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelBuildError`] when the matrix is too small or ragged,
    /// an axis is not strictly increasing, a sample is outside `(0, 105]`
    /// (5 % measurement headroom above 100), or the peak bandwidth is not
    /// positive.
    pub fn new(
        std_bw: Vec<f64>,
        ext_bw: Vec<f64>,
        rela: Vec<Vec<f64>>,
        peak_bw: f64,
    ) -> Result<Self, ModelBuildError> {
        let rows = std_bw.len();
        let cols = ext_bw.len();
        if rows < 2 || cols < 2 || rela.len() != rows {
            return Err(ModelBuildError::TooFewSamples {
                rows: rela.len().min(rows),
                cols,
            });
        }
        for (i, row) in rela.iter().enumerate() {
            if row.len() != cols {
                return Err(ModelBuildError::RaggedMatrix {
                    row: i,
                    len: row.len(),
                    expected: cols,
                });
            }
            for (j, &v) in row.iter().enumerate() {
                if !v.is_finite() || v <= 0.0 || v > 105.0 {
                    return Err(ModelBuildError::InvalidRelativeSpeed {
                        row: i,
                        col: j,
                        value: v,
                    });
                }
            }
        }
        if std_bw.windows(2).any(|w| w[1] <= w[0]) {
            return Err(ModelBuildError::NonMonotonicAxis { axis: "standalone" });
        }
        if ext_bw.windows(2).any(|w| w[1] <= w[0]) {
            return Err(ModelBuildError::NonMonotonicAxis { axis: "external" });
        }
        if peak_bw <= 0.0 || !peak_bw.is_finite() {
            return Err(ModelBuildError::InvalidPeakBandwidth { value: peak_bw });
        }
        Ok(Self {
            std_bw,
            ext_bw,
            rela,
            peak_bw,
        })
    }

    /// Number of calibrator rows.
    pub fn rows(&self) -> usize {
        self.std_bw.len()
    }

    /// Number of external-pressure columns.
    pub fn cols(&self) -> usize {
        self.ext_bw.len()
    }

    fn reduction(&self, i: usize, j: usize) -> f64 {
        (100.0 - self.rela[i][j]).max(0.0)
    }

    /// The worst reduction calibrator `i` suffers anywhere in the sweep.
    /// Classification uses this rather than the last column alone: on
    /// substrates where fairness control lets a victim *recover* at extreme
    /// pressure, the last column can hide a mid-range collapse.
    fn max_reduction(&self, i: usize) -> f64 {
        (0..self.cols())
            .map(|j| self.reduction(i, j))
            .fold(0.0, f64::max)
    }
}

/// The result of fitting one row to flat → linear drop → flat.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RowFit {
    /// External demand where the drop begins.
    y_start: f64,
    /// External demand where the curve flattens (the row's balance point).
    y_end: f64,
    /// Positive slope of the dropping segment, % per GB/s.
    slope: f64,
    /// Number of samples inside the linear segment (fit confidence weight).
    support: usize,
}

/// Extracts a [`PccsModel`] from a [`CalibrationData`] sweep.
#[derive(Debug, Clone)]
pub struct ModelBuilder {
    data: CalibrationData,
    /// Absolute noise floor (percent) under which a reduction is never
    /// considered "notable", guarding the paper's 2× rules against
    /// near-zero baselines.
    pub noise_floor_pct: f64,
    /// Fallback "notable reduction" threshold (percent) when the PU has no
    /// minor region and therefore no MRMC to double.
    pub fallback_notable_pct: f64,
}

impl ModelBuilder {
    /// Creates a builder with the default thresholds.
    pub fn new(data: CalibrationData) -> Self {
        Self {
            data,
            noise_floor_pct: 3.0,
            fallback_notable_pct: 5.0,
        }
    }

    /// Runs the extraction and returns the model.
    ///
    /// # Errors
    ///
    /// Currently infallible once the data validated, but returns `Result`
    /// so stricter future extractions can fail without breaking callers.
    pub fn build(&self) -> Result<PccsModel, ModelBuildError> {
        let d = &self.data;
        let n = d.rows();
        let m = d.cols();
        let last = m - 1;
        let mut span = pccs_telemetry::Profiler::scope("builder.build");
        span.counter("rows", n as f64);
        span.counter("cols", m as f64);

        // Step 1 — normal-region boundary and MRMC: the first row whose
        // worst-case reduction is notable relative to row 0's starts the
        // normal region; the previous row's worst reduction is MRMC. (The
        // paper's prose reads the last column; we take each row's maximum,
        // which coincides on monotone silicon curves and stays correct when
        // fairness control lets victims recover at extreme pressure.) A
        // row 0 that already drops at the *smallest* pressure — or whose
        // worst loss is far beyond a "minimal effect" — signals a PU
        // without a minor region (the paper's DLA: Normal BW = 0,
        // MRMC = NA).
        let base_red = d.max_reduction(0);
        let step1_threshold = (2.0 * base_red).max(self.noise_floor_pct);
        let no_minor_region = d.reduction(0, 0) > self.fallback_notable_pct
            || base_red > 3.0 * self.fallback_notable_pct;
        let k_boundary = if no_minor_region {
            Some(0)
        } else {
            (0..n).find(|&i| d.max_reduction(i) > step1_threshold)
        };

        let (normal_bw, mrmc, k_norm) = match k_boundary {
            Some(0) => (0.0, None, 0),
            Some(k) => {
                // Midpoint between the last minor row and the first normal
                // row; using the normal row's own demand (as the prose says)
                // would classify that row back into the minor region under
                // Equation 1's `<=`.
                let boundary = 0.5 * (d.std_bw[k - 1] + d.std_bw[k]);
                (boundary, Some(d.max_reduction(k - 1)), k)
            }
            None => {
                // No row ever shows notable reduction: the whole sweep is
                // minor-region; degenerate but valid model.
                let mrmc = d.max_reduction(n - 1);
                let nb = d.std_bw[n - 1];
                return Ok(PccsModel::from_parameters(
                    nb,
                    nb * 1.001 + 1.0,
                    Some(mrmc.clamp(0.0, 100.0)),
                    d.ext_bw[last].max(1.0),
                    d.std_bw[n - 1] + d.ext_bw[last],
                    0.0,
                    d.peak_bw,
                ));
            }
        };

        let notable = match mrmc {
            Some(mv) => (2.0 * mv).max(self.noise_floor_pct),
            None => self.fallback_notable_pct,
        };

        // Step 3 — intensive-region boundary from the first column: the
        // first row already showing a notable reduction at the smallest
        // pressure is intensive.
        let k_intensive = (k_norm..n).find(|&i| d.reduction(i, 0) > notable);
        let intensive_bw = match k_intensive {
            Some(i) if i > 0 => 0.5 * (d.std_bw[i - 1] + d.std_bw[i]),
            Some(_) => d.std_bw[0] * 0.5,
            None => d.std_bw[n - 1] * 1.05,
        }
        .max(normal_bw);
        let k_int = k_intensive.unwrap_or(n);

        // Steps 2, 4, 5 — piecewise fit of every normal-region row.
        let mut fits: Vec<(f64, RowFit)> = Vec::new(); // (std_bw, fit)
        {
            let mut fit_span = pccs_telemetry::Profiler::scope("builder.fit_rows");
            for i in k_norm..k_int.max(k_norm + 1).min(n) {
                if let Some(fit) = self.fit_row(i) {
                    fits.push((d.std_bw[i], fit));
                }
            }
            fit_span.counter("fitted_rows", fits.len() as f64);
        }

        let (tbwdc, cbp, rate_n) = if fits.is_empty() {
            // Normal rows never dropped within the sweep: the drop must
            // start just beyond it.
            (
                d.std_bw[k_int.min(n - 1)] + d.ext_bw[last],
                d.ext_bw[last],
                0.0,
            )
        } else {
            let wsum: f64 = fits.iter().map(|(_, f)| f.support as f64).sum();
            let tbwdc = fits
                .iter()
                .map(|(x, f)| (x + f.y_start) * f.support as f64)
                .sum::<f64>()
                / wsum;
            let cbp = fits
                .iter()
                .map(|(_, f)| f.y_end * f.support as f64)
                .sum::<f64>()
                / wsum;
            let rate_n = fits
                .iter()
                .map(|(_, f)| f.slope * f.support as f64)
                .sum::<f64>()
                / wsum;
            (tbwdc, cbp, rate_n)
        };

        Ok(PccsModel::from_parameters(
            normal_bw,
            intensive_bw,
            mrmc,
            cbp.max(f64::MIN_POSITIVE),
            tbwdc.max(0.0),
            rate_n.max(0.0),
            d.peak_bw,
        ))
    }

    /// Fits row `i` to flat → linear drop → flat over the external-demand
    /// axis, with *continuous* breakpoints: for candidate breakpoints
    /// `(y1, y2)` the two plateau levels have a closed-form least-squares
    /// solution, so a coarse-to-fine grid search over the breakpoints
    /// recovers the curve with sub-grid precision. Returns `None` when the
    /// row never drops by more than the noise floor.
    fn fit_row(&self, i: usize) -> Option<RowFit> {
        let d = &self.data;
        let m = d.cols();
        let ys = &d.ext_bw;
        let rs: &[f64] = &d.rela[i];

        let min_rs = rs.iter().cloned().fold(f64::MAX, f64::min);
        if rs[0] - min_rs < self.noise_floor_pct {
            return None;
        }

        let span = ys[m - 1] - ys[0];
        let lo = ys[0] - span / m as f64; // the drop may begin before the sweep
        let hi = ys[m - 1] + span / m as f64;

        // Coarse pass, then a refinement pass around the best breakpoints.
        let coarse = Self::search_breakpoints(ys, rs, lo, hi, lo, hi, 40);
        let (mut y1, mut y2, _) = coarse?;
        let step = (hi - lo) / 40.0;
        if let Some((ry1, ry2, _)) =
            Self::search_breakpoints(ys, rs, y1 - step, y1 + step, y2 - step, y2 + step, 24)
        {
            y1 = ry1;
            y2 = ry2;
        }

        let (l1, l2) = Self::plateau_levels(ys, rs, y1, y2)?;
        if l1 - l2 < self.noise_floor_pct * 0.5 {
            return None;
        }
        let slope = (l1 - l2) / (y2 - y1);
        let support = ys.iter().filter(|&&y| y > y1 && y < y2).count() + 2;
        Some(RowFit {
            y_start: y1,
            y_end: y2,
            slope,
            support,
        })
    }

    /// Grid-searches breakpoints `(y1, y2)` within the given windows,
    /// returning the pair (and SSE) minimizing the three-segment residual.
    ///
    /// When no sample falls strictly between `y1` and `y2`, the SSE is
    /// independent of the gap width and the slope is unconstrained by the
    /// data; among (near-)tied fits the *widest* gap — the gentlest slope —
    /// is preferred, so an unresolved cliff between two adjacent samples is
    /// modelled as a drop spanning that whole interval rather than an
    /// arbitrarily steep spike.
    fn search_breakpoints(
        ys: &[f64],
        rs: &[f64],
        lo1: f64,
        hi1: f64,
        lo2: f64,
        hi2: f64,
        steps: usize,
    ) -> Option<(f64, f64, f64)> {
        let mut best: Option<(f64, f64, f64)> = None;
        let mut best_gap = 0.0f64;
        for a in 0..=steps {
            let y1 = lo1 + (hi1 - lo1) * a as f64 / steps as f64;
            for b in 0..=steps {
                let y2 = lo2 + (hi2 - lo2) * b as f64 / steps as f64;
                if y2 <= y1 + 1e-9 {
                    continue;
                }
                let Some((l1, l2)) = Self::plateau_levels(ys, rs, y1, y2) else {
                    continue;
                };
                if l2 >= l1 {
                    continue; // must be a drop
                }
                let sse: f64 = ys
                    .iter()
                    .zip(rs)
                    .map(|(&y, &r)| {
                        let pred = piecewise(y, y1, y2, l1, l2);
                        (r - pred).powi(2)
                    })
                    .sum();
                let gap = y2 - y1;
                let improved = match best {
                    None => true,
                    Some((.., s)) => {
                        let tol = s * 1e-3 + 1e-9;
                        sse + tol < s || (sse <= s + tol && gap > best_gap)
                    }
                };
                if improved {
                    best = Some((y1, y2, sse));
                    best_gap = gap;
                }
            }
        }
        best
    }

    /// Closed-form least-squares plateau levels for fixed breakpoints: the
    /// curve is linear in `(L1, L2)` through the basis
    /// `φ1(y) = clamp((y2 − y)/(y2 − y1), 0, 1)`, `φ2 = 1 − φ1`.
    fn plateau_levels(ys: &[f64], rs: &[f64], y1: f64, y2: f64) -> Option<(f64, f64)> {
        let (mut a11, mut a12, mut a22, mut b1, mut b2) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for (&y, &r) in ys.iter().zip(rs) {
            let p1 = phi1(y, y1, y2);
            let p2 = 1.0 - p1;
            a11 += p1 * p1;
            a12 += p1 * p2;
            a22 += p2 * p2;
            b1 += r * p1;
            b2 += r * p2;
        }
        let det = a11 * a22 - a12 * a12;
        if det.abs() < 1e-12 {
            return None;
        }
        let l1 = (b1 * a22 - b2 * a12) / det;
        let l2 = (a11 * b2 - a12 * b1) / det;
        Some((l1, l2))
    }
}

fn phi1(y: f64, y1: f64, y2: f64) -> f64 {
    ((y2 - y) / (y2 - y1)).clamp(0.0, 1.0)
}

fn piecewise(y: f64, y1: f64, y2: f64, l1: f64, l2: f64) -> f64 {
    l1 * phi1(y, y1, y2) + l2 * (1.0 - phi1(y, y1, y2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::Region;

    /// Generates a synthetic calibration sweep from a ground-truth model —
    /// construction should then recover parameters close to it.
    fn synthetic_sweep(model: &PccsModel) -> CalibrationData {
        let std_bw: Vec<f64> = (1..=10).map(|i| i as f64 * 12.0).collect();
        let ext_bw: Vec<f64> = (1..=10).map(|j| j as f64 * 13.0).collect();
        let rela = std_bw
            .iter()
            .map(|&x| {
                ext_bw
                    .iter()
                    .map(|&y| model.predict(x, y).max(1.0))
                    .collect()
            })
            .collect();
        CalibrationData::new(std_bw, ext_bw, rela, model.peak_bw).unwrap()
    }

    #[test]
    fn recovers_parameters_from_synthetic_model() {
        let truth = PccsModel::xavier_gpu_paper();
        let data = synthetic_sweep(&truth);
        let built = ModelBuilder::new(data).build().unwrap();

        assert!(
            (built.normal_bw - truth.normal_bw).abs() < 18.0,
            "normal_bw {} vs {}",
            built.normal_bw,
            truth.normal_bw
        );
        assert!(
            (built.intensive_bw - truth.intensive_bw).abs() < 15.0,
            "intensive_bw {} vs {}",
            built.intensive_bw,
            truth.intensive_bw
        );
        assert!(
            (built.rate_n - truth.rate_n).abs() < 0.25,
            "rate_n {} vs {}",
            built.rate_n,
            truth.rate_n
        );
        assert!(
            (built.cbp - truth.cbp).abs() < 15.0,
            "cbp {} vs {}",
            built.cbp,
            truth.cbp
        );
        assert!(
            (built.tbwdc - truth.tbwdc).abs() < 12.0,
            "tbwdc {} vs {}",
            built.tbwdc,
            truth.tbwdc
        );
    }

    #[test]
    fn built_model_predicts_close_to_truth() {
        let truth = PccsModel::xavier_cpu_paper();
        let data = synthetic_sweep(&truth);
        let built = ModelBuilder::new(data).build().unwrap();
        let mut worst: f64 = 0.0;
        for x in [20.0, 50.0, 60.0, 100.0] {
            for y in [10.0, 40.0, 70.0, 110.0] {
                let err = (built.predict(x, y) - truth.predict(x, y)).abs();
                worst = worst.max(err);
            }
        }
        assert!(worst < 12.0, "worst self-reconstruction error {worst:.1}%");
    }

    #[test]
    fn flat_sweep_yields_all_minor_model() {
        let std_bw = vec![10.0, 20.0, 30.0];
        let ext_bw = vec![25.0, 50.0, 75.0];
        let rela = vec![vec![99.0; 3]; 3];
        let data = CalibrationData::new(std_bw, ext_bw, rela, 100.0).unwrap();
        let model = ModelBuilder::new(data).build().unwrap();
        assert_eq!(model.region(25.0), Region::Minor);
        assert!(model.predict(25.0, 70.0) > 95.0);
    }

    #[test]
    fn dla_like_sweep_has_no_minor_region() {
        // Every row shows large reduction even at the smallest pressure.
        let std_bw = vec![10.0, 20.0, 30.0];
        let ext_bw = vec![25.0, 50.0, 75.0];
        let rela = vec![
            vec![80.0, 65.0, 60.0],
            vec![75.0, 60.0, 55.0],
            vec![70.0, 55.0, 50.0],
        ];
        let data = CalibrationData::new(std_bw, ext_bw, rela, 100.0).unwrap();
        let model = ModelBuilder::new(data).build().unwrap();
        assert_eq!(model.normal_bw, 0.0);
        assert_eq!(model.mrmc, None);
    }

    #[test]
    fn validation_rejects_ragged_matrix() {
        let err = CalibrationData::new(
            vec![1.0, 2.0],
            vec![1.0, 2.0],
            vec![vec![90.0, 80.0], vec![90.0]],
            100.0,
        )
        .unwrap_err();
        assert!(matches!(err, ModelBuildError::RaggedMatrix { row: 1, .. }));
    }

    #[test]
    fn validation_rejects_non_monotonic_axis() {
        let err = CalibrationData::new(
            vec![2.0, 1.0],
            vec![1.0, 2.0],
            vec![vec![90.0, 80.0], vec![90.0, 80.0]],
            100.0,
        )
        .unwrap_err();
        assert_eq!(
            err,
            ModelBuildError::NonMonotonicAxis { axis: "standalone" }
        );
    }

    #[test]
    fn validation_rejects_out_of_range_speed() {
        let err = CalibrationData::new(
            vec![1.0, 2.0],
            vec![1.0, 2.0],
            vec![vec![90.0, 120.0], vec![90.0, 80.0]],
            100.0,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ModelBuildError::InvalidRelativeSpeed { row: 0, col: 1, .. }
        ));
    }

    #[test]
    fn validation_rejects_tiny_matrix() {
        let err = CalibrationData::new(vec![1.0], vec![1.0], vec![vec![90.0]], 100.0).unwrap_err();
        assert!(matches!(err, ModelBuildError::TooFewSamples { .. }));
    }

    #[test]
    fn validation_rejects_bad_peak() {
        let err = CalibrationData::new(
            vec![1.0, 2.0],
            vec![1.0, 2.0],
            vec![vec![90.0, 80.0], vec![90.0, 80.0]],
            0.0,
        )
        .unwrap_err();
        assert!(matches!(err, ModelBuildError::InvalidPeakBandwidth { .. }));
    }

    #[test]
    fn noisy_sweep_still_builds_a_sane_model() {
        // Add deterministic pseudo-noise to the synthetic sweep and check
        // the built model still predicts within a loose envelope.
        let truth = PccsModel::xavier_gpu_paper();
        let mut data = synthetic_sweep(&truth);
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        for row in &mut data.rela {
            for v in row.iter_mut() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let noise = ((state % 2000) as f64 / 1000.0 - 1.0) * 1.5; // ±1.5 %
                *v = (*v + noise).clamp(1.0, 100.0);
            }
        }
        let built = ModelBuilder::new(data).build().unwrap();
        let mut worst: f64 = 0.0;
        for x in [20.0, 60.0, 110.0] {
            for y in [20.0, 60.0, 100.0] {
                worst = worst.max((built.predict(x, y) - truth.predict(x, y)).abs());
            }
        }
        assert!(worst < 18.0, "worst error under noise {worst:.1}%");
    }
}
