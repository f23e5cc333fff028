//! Zero-crossing search (the paper's Equation (9) binary search).
//!
//! For a fixed probe position, a filter's non-zero output count is a
//! piecewise-constant function of the probe value `x`; it steps exactly
//! where some output pixel's pre-activation crosses the pruning threshold
//! (`Σ w·x + b = 0` for plain ReLU). The search samples a sign-symmetric
//! geometric grid and bisects every step to locate the crossing points.

/// One located step of the count function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crossing {
    /// Probe value at the step (midpoint of the final bracket).
    pub x: f64,
    /// Count change when moving from below `x` to above (can be negative).
    pub delta: i64,
}

/// Search configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchConfig {
    /// Largest probe magnitude searched.
    pub x_max: f32,
    /// Smallest probe magnitude on the geometric grid.
    pub x_min: f32,
    /// Grid points per sign (geometric between `x_min` and `x_max`).
    pub grid: usize,
    /// Bisection iteration cap per step.
    pub max_iters: u32,
    /// Stop when the bracket is narrower than this absolutely ...
    pub x_tol: f64,
    /// ... or narrower than this relative width (with `1/x` also localized
    /// to within `inv_tol`, which drives the paper's `< 2^-10` accuracy on
    /// `w/b = -1/x`).
    pub x_rel_tol: f64,
    /// Required `1/x` localization.
    pub inv_tol: f64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            x_max: 4096.0,
            x_min: 1e-4,
            grid: 48,
            max_iters: 96,
            x_tol: 1e-7,
            x_rel_tol: 1e-6,
            inv_tol: 2f64.powi(-13),
        }
    }
}

impl SearchConfig {
    /// Whether `[lo, hi]` is as narrow as the bisection refines a step.
    pub(crate) fn bracket_converged(&self, lo: f64, hi: f64) -> bool {
        let width = hi - lo;
        if width < self.x_tol {
            return true;
        }
        // lint:allow(float-eq): guards a division by the exact bracket
        // endpoints; any nonzero value, however small, is safe to divide by.
        if lo != 0.0 && hi != 0.0 && lo.signum() == hi.signum() {
            width < self.x_rel_tol * lo.abs().max(hi.abs())
                && (1.0 / lo - 1.0 / hi).abs() < self.inv_tol
        } else {
            false
        }
    }
}

/// Finds all steps of `count(x)` for `x` over both signs of the configured
/// range. `count` must be deterministic.
pub fn find_crossings(mut count: impl FnMut(f32) -> u64, cfg: &SearchConfig) -> Vec<Crossing> {
    let mut xs: Vec<f64> = Vec::with_capacity(2 * cfg.grid + 1);
    let ratio = (f64::from(cfg.x_max) / f64::from(cfg.x_min)).powf(1.0 / (cfg.grid - 1) as f64);
    for i in (0..cfg.grid).rev() {
        xs.push(-f64::from(cfg.x_min) * ratio.powi(i as i32));
    }
    xs.push(0.0);
    for i in 0..cfg.grid {
        xs.push(f64::from(cfg.x_min) * ratio.powi(i as i32));
    }

    // No span here: crossing searches run from pool workers during the
    // parallel weights attack, and per-search span events would interleave
    // nondeterministically in the profile stream. The `weights.search.*`
    // counters below are atomic sums, so they stay schedule-independent;
    // the enclosing `attack.weights` span carries the wall-clock story.
    let counts: Vec<u64> = xs.iter().map(|&x| count(x as f32)).collect();
    let mut crossings = Vec::new();
    let mut steps = 0u64;
    for w in 0..xs.len() - 1 {
        refine(
            &mut count,
            xs[w],
            xs[w + 1],
            counts[w],
            counts[w + 1],
            cfg,
            cfg.max_iters,
            &mut crossings,
            &mut steps,
        );
    }
    if cnnre_obs::enabled() {
        let reg = cnnre_obs::global();
        reg.counter("weights.search.grid_probes")
            .add(xs.len() as u64);
        reg.counter("weights.search.refine_steps").add(steps);
        reg.counter("weights.search.crossings")
            .add(crossings.len() as u64);
    }
    crossings
}

/// Recursively splits `[lo, hi]` until every step is bracketed to
/// tolerance, so a cell hiding several crossings yields them all. (Pairs
/// that cancel exactly between two probe points remain invisible — the
/// geometric grid keeps that unlikely.)
#[allow(clippy::too_many_arguments)]
fn refine(
    count: &mut impl FnMut(f32) -> u64,
    lo: f64,
    hi: f64,
    c_lo: u64,
    c_hi: u64,
    cfg: &SearchConfig,
    depth: u32,
    out: &mut Vec<Crossing>,
    steps: &mut u64,
) {
    if c_lo == c_hi {
        return;
    }
    *steps += 1;
    if depth == 0 || cfg.bracket_converged(lo, hi) {
        out.push(Crossing {
            x: 0.5 * (lo + hi),
            delta: c_hi as i64 - c_lo as i64,
        });
        return;
    }
    let mid = 0.5 * (lo + hi);
    let c_mid = count(mid as f32);
    refine(count, lo, mid, c_lo, c_mid, cfg, depth - 1, out, steps);
    refine(count, mid, hi, c_mid, c_hi, cfg, depth - 1, out, steps);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locates_single_step() {
        // count = 1 when 2x + 1 > 0 (crossing at x = -0.5).
        let cfg = SearchConfig::default();
        let crossings = find_crossings(|x| u64::from(2.0 * x + 1.0 > 0.0), &cfg);
        assert_eq!(crossings.len(), 1);
        assert!((crossings[0].x + 0.5).abs() < 1e-4, "{crossings:?}");
        assert_eq!(crossings[0].delta, 1);
    }

    #[test]
    fn locates_steps_on_both_signs() {
        // Two pixels: w=+2 (crossing at -0.5) and w=-0.25 (crossing at +4).
        let cfg = SearchConfig::default();
        let f = |x: f32| u64::from(2.0 * x + 1.0 > 0.0) + u64::from(-0.25 * x + 1.0 > 0.0);
        let crossings = find_crossings(f, &cfg);
        assert_eq!(crossings.len(), 2, "{crossings:?}");
        assert!((crossings[0].x + 0.5).abs() < 1e-4);
        assert!((crossings[1].x - 4.0).abs() < 1e-3);
        assert_eq!(crossings[0].delta, 1);
        assert_eq!(crossings[1].delta, -1);
    }

    #[test]
    fn zero_weight_has_no_crossing() {
        let cfg = SearchConfig::default();
        let crossings = find_crossings(|_| 5u64, &cfg);
        assert!(crossings.is_empty());
    }

    #[test]
    fn inverse_precision_meets_paper_bound() {
        // w/b = -1/x*: for a strong weight (|x*| small), the located
        // crossing must give w/b to < 2^-10 as the paper reports.
        let cfg = SearchConfig::default();
        for &wb in &[1000.0f64, -37.5, 3.0, 0.01] {
            let x_true = -1.0 / wb;
            let crossings = find_crossings(|x| u64::from(f64::from(x) * wb + 1.0 > 0.0), &cfg);
            assert_eq!(crossings.len(), 1, "w/b = {wb}");
            let wb_est = -1.0 / crossings[0].x;
            assert!(
                (wb_est - wb).abs() < 2f64.powi(-10) * wb.abs().max(1.0),
                "w/b {wb}: est {wb_est} (x_true {x_true}, x_est {})",
                crossings[0].x
            );
        }
    }

    #[test]
    fn magnitude_range_is_covered() {
        // Crossings just inside both ends of the range are found.
        let cfg = SearchConfig::default();
        for &x_true in &[-4000.0f64, -2e-4, 2e-4, 4000.0] {
            let crossings = find_crossings(|x| u64::from(f64::from(x) > x_true), &cfg);
            assert_eq!(crossings.len(), 1, "x_true {x_true}: {crossings:?}");
            let rel = (crossings[0].x - x_true).abs() / x_true.abs().max(1e-6);
            assert!(rel < 1e-2 || (crossings[0].x - x_true).abs() < 1e-4);
        }
    }
}
