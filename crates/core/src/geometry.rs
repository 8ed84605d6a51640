//! Pure simplex geometry: the transformation operations of §2.1 and the
//! size/contraction-level bookkeeping of §2.2.
//!
//! All functions here are deterministic and allocation-explicit; the
//! stochastic decision logic lives in the per-algorithm modules. The
//! vertex-set functions take any `P: AsRef<[f64]>`, so the engine passes
//! its slots in place instead of copying the points out.

/// Nelder–Mead transformation coefficients (§2.1). The paper's optimal
/// settings are `α = 1` (reflection), `β = 0.5` (contraction), `γ = 2`
/// (expansion).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coefficients {
    /// Reflection coefficient `α`.
    pub alpha: f64,
    /// Contraction coefficient `β ∈ (0, 1)`.
    pub beta: f64,
    /// Expansion coefficient `γ > 1`.
    pub gamma: f64,
}

impl Default for Coefficients {
    fn default() -> Self {
        Coefficients {
            alpha: 1.0,
            beta: 0.5,
            gamma: 2.0,
        }
    }
}

impl Coefficients {
    /// Dimension-adaptive coefficients (Gao & Han 2012): in high dimensions
    /// the classical expansion/contraction factors make the simplex degrade
    /// — relevant to the paper's d = 20/50/100 scale-up runs. `α = 1`,
    /// `γ = 1 + 2/d`, `β = (3/4) − 1/(2d)` (their shrink factor is handled
    /// by the collapse path).
    pub fn adaptive(d: usize) -> Self {
        assert!(d >= 2, "adaptive coefficients need d >= 2");
        let df = d as f64;
        Coefficients {
            alpha: 1.0,
            beta: 0.75 - 1.0 / (2.0 * df),
            gamma: 1.0 + 2.0 / df,
        }
    }

    /// Validate the classical constraints (`α > 0`, `0 < β < 1`, `γ > 1`).
    pub fn validate(&self) -> Result<(), String> {
        if self.alpha <= 0.0 || self.alpha.is_nan() {
            return Err(format!("alpha must be > 0, got {}", self.alpha));
        }
        if !(self.beta > 0.0 && self.beta < 1.0) || self.beta.is_nan() {
            return Err(format!("beta must be in (0,1), got {}", self.beta));
        }
        if self.gamma <= 1.0 || self.gamma.is_nan() {
            return Err(format!("gamma must be > 1, got {}", self.gamma));
        }
        Ok(())
    }
}

/// Centroid of `points`, excluding index `exclude`.
pub fn centroid_excluding<P: AsRef<[f64]>>(points: &[P], exclude: usize) -> Vec<f64> {
    let d = points[0].as_ref().len();
    let n = points.len() - 1;
    assert!(n >= 1, "need at least two points");
    let mut c = vec![0.0; d];
    for (i, p) in points.iter().enumerate() {
        if i == exclude {
            continue;
        }
        for (cj, pj) in c.iter_mut().zip(p.as_ref()) {
            *cj += pj;
        }
    }
    for cj in &mut c {
        *cj /= n as f64;
    }
    c
}

/// Reflection: `θ_ref = (1 + α)·θ_cent − α·θ_max` (with `α = 1`:
/// `2·θ_cent − θ_max`).
pub fn reflect(centroid: &[f64], worst: &[f64], alpha: f64) -> Vec<f64> {
    centroid
        .iter()
        .zip(worst)
        .map(|(&c, &w)| (1.0 + alpha) * c - alpha * w)
        .collect()
}

/// Expansion: `θ_exp = γ·θ_ref − (γ − 1)·θ_cent` (with `γ = 2`:
/// `2·θ_ref − θ_cent`).
pub fn expand(centroid: &[f64], reflected: &[f64], gamma: f64) -> Vec<f64> {
    centroid
        .iter()
        .zip(reflected)
        .map(|(&c, &r)| gamma * r - (gamma - 1.0) * c)
        .collect()
}

/// Contraction: `θ_con = β·θ_max + (1 − β)·θ_cent` (with `β = 0.5`: the
/// midpoint of worst and centroid).
pub fn contract(centroid: &[f64], worst: &[f64], beta: f64) -> Vec<f64> {
    centroid
        .iter()
        .zip(worst)
        .map(|(&c, &w)| beta * w + (1.0 - beta) * c)
        .collect()
}

/// Collapse every point (except `keep`) halfway towards point `keep`:
/// `θ_i ← β·θ_i + (1 − β)·θ_min`.
pub fn collapse_towards<P: AsMut<[f64]>>(points: &mut [P], keep: usize, beta: f64) {
    let (before, rest) = points.split_at_mut(keep);
    let (towards, after) = rest.split_first_mut().expect("keep is a point index");
    let towards = towards.as_mut();
    for p in before.iter_mut().chain(after) {
        for (pj, tj) in p.as_mut().iter_mut().zip(&*towards) {
            *pj = beta * *pj + (1.0 - beta) * tj;
        }
    }
}

/// Euclidean distance between two points.
pub fn distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Simplex "diameter" per Eq. 2.2: the maximum pairwise vertex distance.
pub fn diameter<P: AsRef<[f64]>>(points: &[P]) -> f64 {
    let mut d = 0.0f64;
    for i in 0..points.len() {
        for j in i + 1..points.len() {
            d = d.max(distance(points[i].as_ref(), points[j].as_ref()));
        }
    }
    d
}

/// The pairwise distances of a vertex set and their maximum, kept up to
/// date as single vertices move: a moved vertex costs O(n·d) for its row
/// and O(n²) for the maximum, where [`diameter`] costs O(n²·d). Each pair
/// is computed as [`diameter`] computes it, and the maximum is taken in
/// the same order, so the two agree bit for bit.
#[derive(Debug, Default)]
pub(crate) struct PairDistances {
    n: usize,
    /// The upper triangle, row by row: `(0, 1), (0, 2), …, (1, 2), …`,
    /// the order in which [`diameter`] visits the pairs.
    pairs: Vec<f64>,
    diameter: f64,
}

impl PairDistances {
    /// The distances between every pair of `points`.
    pub(crate) fn new<P: AsRef<[f64]>>(points: &[P]) -> Self {
        let mut d = PairDistances::default();
        d.rebuild(points);
        d
    }

    /// Recompute every pair, after all the points moved. Reuses the
    /// storage when the number of points is unchanged.
    pub(crate) fn rebuild<P: AsRef<[f64]>>(&mut self, points: &[P]) {
        let n = points.len();
        self.n = n;
        self.pairs.clear();
        for i in 0..n {
            for j in i + 1..n {
                self.pairs
                    .push(distance(points[i].as_ref(), points[j].as_ref()));
            }
        }
        self.update_diameter();
    }

    /// Recompute the pairs of point `v`, the only one that moved.
    pub(crate) fn refresh<P: AsRef<[f64]>>(&mut self, points: &[P], v: usize) {
        assert_eq!(points.len(), self.n, "the point count changed");
        for j in (0..self.n).filter(|&j| j != v) {
            let (a, b) = (v.min(j), v.max(j));
            let at = self.index(a, b);
            self.pairs[at] = distance(points[a].as_ref(), points[b].as_ref());
        }
        self.update_diameter();
    }

    /// The largest pairwise distance: [`diameter`] of the points.
    pub(crate) fn diameter(&self) -> f64 {
        self.diameter
    }

    /// Where pair `(i, j)`, `i < j`, sits in `pairs`.
    fn index(&self, i: usize, j: usize) -> usize {
        i * (2 * self.n - i - 1) / 2 + (j - i - 1)
    }

    fn update_diameter(&mut self) {
        self.diameter = self.pairs.iter().fold(0.0f64, |d, &pair| d.max(pair));
    }
}

/// Contraction-level bookkeeping (§2.2): the simplex size is always
/// `2^{-l}` times the initial size. Contraction increments `l`, expansion
/// decrements it, reflection leaves it unchanged, collapse adds `d`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ContractionLevel(pub i64);

impl ContractionLevel {
    /// Record a contraction step (size halves).
    pub fn on_contract(&mut self) {
        self.0 += 1;
    }
    /// Record an expansion step (size doubles).
    pub fn on_expand(&mut self) {
        self.0 -= 1;
    }
    /// Record a collapse in a `d`-dimensional space (paper: `l += d`).
    pub fn on_collapse(&mut self, d: usize) {
        self.0 += d as i64;
    }
    /// The size multiplier `2^{-l}` relative to the initial simplex.
    pub fn size_factor(&self) -> f64 {
        2f64.powi(-(self.0.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32))
    }
}

/// Rank the vertices by observed value: indices of the highest (`max`),
/// second-highest (`smax`), and lowest (`min`) objective values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ordering {
    /// Index of the worst (highest) vertex.
    pub max: usize,
    /// Index of the second-worst vertex.
    pub smax: usize,
    /// Index of the best (lowest) vertex.
    pub min: usize,
}

/// Compute the [`Ordering`] from per-vertex observed values.
///
/// Ties are broken by index for determinism. Requires at least two values.
pub fn order(values: &[f64]) -> Ordering {
    order_by(values.len(), |i| values[i])
}

/// [`order`] over `n` values read through `value(i)`, each once, in one
/// pass: vertices rank by `(value, index)`, so among equal values (`-0.0`
/// equals `0.0`) the higher index ranks higher.
///
/// # Panics
/// If `n < 2`, or with `"NaN objective value"` if any value is NaN.
pub fn order_by(n: usize, value: impl Fn(usize) -> f64) -> Ordering {
    assert!(n >= 2, "simplex needs >= 2 vertices");
    // Whether a later vertex valued `later` ranks above an earlier one
    // valued `earlier`. Every value meets this test at least once.
    let above = |later: f64, earlier: f64| {
        later.partial_cmp(&earlier).expect("NaN objective value") != std::cmp::Ordering::Less
    };
    let (v0, v1) = (value(0), value(1));
    let ((lo, v_lo), (hi, v_hi)) = if above(v1, v0) {
        ((0, v0), (1, v1))
    } else {
        ((1, v1), (0, v0))
    };
    let mut o = Ordering {
        min: lo,
        smax: lo,
        max: hi,
    };
    let (mut v_min, mut v_smax, mut v_max) = (v_lo, v_lo, v_hi);
    for i in 2..n {
        let v = value(i);
        if above(v, v_max) {
            (o.smax, v_smax) = (o.max, v_max);
            (o.max, v_max) = (i, v);
        } else if above(v, v_smax) {
            (o.smax, v_smax) = (i, v);
        } else if v < v_min {
            (o.min, v_min) = (i, v);
        }
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_coefficients_are_the_papers() {
        let c = Coefficients::default();
        assert_eq!((c.alpha, c.beta, c.gamma), (1.0, 0.5, 2.0));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn adaptive_coefficients_shrink_with_dimension() {
        let c2 = Coefficients::adaptive(2);
        assert!(c2.validate().is_ok());
        assert_eq!(c2.gamma, 2.0);
        assert_eq!(c2.beta, 0.5);
        let c100 = Coefficients::adaptive(100);
        assert!(c100.validate().is_ok());
        assert!(c100.gamma < c2.gamma && c100.gamma > 1.0);
        assert!(c100.beta > c2.beta && c100.beta < 1.0);
    }

    #[test]
    fn coefficient_validation_rejects_bad_values() {
        assert!(Coefficients {
            alpha: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(Coefficients {
            beta: 1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(Coefficients {
            gamma: 1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn centroid_excludes_worst() {
        let pts = vec![vec![0.0, 0.0], vec![2.0, 0.0], vec![0.0, 2.0]];
        assert_eq!(centroid_excluding(&pts, 0), vec![1.0, 1.0]);
        assert_eq!(centroid_excluding(&pts, 2), vec![1.0, 0.0]);
    }

    #[test]
    fn reflect_matches_algorithm_1_line_3() {
        // ref = 2*cent - max for alpha = 1.
        let r = reflect(&[1.0, 1.0], &[3.0, 0.0], 1.0);
        assert_eq!(r, vec![-1.0, 2.0]);
    }

    #[test]
    fn expand_matches_algorithm_1_line_5() {
        // exp = 2*ref - cent for gamma = 2.
        let e = expand(&[1.0, 1.0], &[-1.0, 2.0], 2.0);
        assert_eq!(e, vec![-3.0, 3.0]);
    }

    #[test]
    fn contract_is_midpoint_for_beta_half() {
        let c = contract(&[1.0, 1.0], &[3.0, 0.0], 0.5);
        assert_eq!(c, vec![2.0, 0.5]);
    }

    #[test]
    fn collapse_halves_towards_min() {
        let mut pts = vec![vec![0.0, 0.0], vec![4.0, 0.0], vec![0.0, 4.0]];
        collapse_towards(&mut pts, 0, 0.5);
        assert_eq!(pts[0], vec![0.0, 0.0]);
        assert_eq!(pts[1], vec![2.0, 0.0]);
        assert_eq!(pts[2], vec![0.0, 2.0]);
    }

    #[test]
    fn reflection_preserves_diameter_scale() {
        // A reflection replaces the worst vertex with its mirror image, so
        // distances to the centroid are preserved for that vertex.
        let pts = vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0]];
        let cent = centroid_excluding(&pts, 2);
        let r = reflect(&cent, &pts[2], 1.0);
        assert!((distance(&cent, &r) - distance(&cent, &pts[2])).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn pair_distances_track_every_moved_point(
            pts in collection::vec(collection::vec(-1e3f64..1e3, 3), 2..8),
            moves in collection::vec((0usize..8, collection::vec(-1e3f64..1e3, 3)), 0..12),
        ) {
            let mut pts = pts;
            let mut pairs = PairDistances::new(&pts);
            prop_assert_eq!(pairs.diameter().to_bits(), diameter(&pts).to_bits());
            for (v, to) in moves {
                let v = v % pts.len();
                pts[v] = to;
                pairs.refresh(&pts, v);
                prop_assert_eq!(pairs.diameter().to_bits(), diameter(&pts).to_bits());
            }
            for p in &mut pts {
                p[0] *= 0.5;
            }
            pairs.rebuild(&pts);
            prop_assert_eq!(pairs.diameter().to_bits(), diameter(&pts).to_bits());
        }
    }

    #[test]
    fn diameter_of_unit_right_triangle() {
        let pts = vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0]];
        assert!((diameter(&pts) - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn contraction_level_tracks_size() {
        let mut l = ContractionLevel::default();
        assert_eq!(l.size_factor(), 1.0);
        l.on_contract();
        assert_eq!(l.size_factor(), 0.5);
        l.on_expand();
        l.on_expand();
        assert_eq!(l.size_factor(), 2.0);
        l.on_collapse(3);
        assert_eq!(l.0, 2);
        assert_eq!(l.size_factor(), 0.25);
    }

    #[test]
    fn ordering_identifies_max_smax_min() {
        let o = order(&[3.0, 1.0, 7.0, 5.0]);
        assert_eq!(o.max, 2);
        assert_eq!(o.smax, 3);
        assert_eq!(o.min, 1);
    }

    #[test]
    fn ordering_breaks_ties_by_index() {
        let o = order(&[1.0, 1.0, 1.0]);
        assert_eq!(o.min, 0);
        assert_eq!(o.smax, 1);
        assert_eq!(o.max, 2);
    }

    /// The sort-based ranking `order_by` replaced, kept as its oracle.
    fn sorted_order(values: &[f64]) -> Ordering {
        let mut idx: Vec<usize> = (0..values.len()).collect();
        idx.sort_by(|&a, &b| {
            values[a]
                .partial_cmp(&values[b])
                .expect("NaN objective value")
                .then(a.cmp(&b))
        });
        Ordering {
            min: idx[0],
            smax: idx[idx.len() - 2],
            max: idx[idx.len() - 1],
        }
    }

    /// Values drawn from a small palette, so ties, infinities and both
    /// zeros are common.
    const PALETTE: [f64; 8] = [
        f64::NEG_INFINITY,
        -1.0,
        -0.0,
        0.0,
        1.0,
        2.5,
        1e300,
        f64::INFINITY,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn one_pass_order_matches_the_sort(picks in collection::vec(0usize..8, 2..12)) {
            let values: Vec<f64> = picks.iter().map(|&p| PALETTE[p]).collect();
            let want = sorted_order(&values);
            prop_assert_eq!(order(&values), want, "{:?}", values);
            prop_assert_eq!(order_by(values.len(), |i| values[i]), want);
        }

        #[test]
        fn nan_anywhere_panics_as_before(
            picks in collection::vec(0usize..8, 2..12),
            at in 0usize..12,
        ) {
            let mut values: Vec<f64> = picks.iter().map(|&p| PALETTE[p]).collect();
            let at = at % values.len();
            values[at] = f64::NAN;
            for rank in [order, sorted_order] {
                let err = std::panic::catch_unwind(|| rank(&values)).expect_err("NaN must panic");
                let msg = err
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| err.downcast_ref::<&str>().copied());
                prop_assert!(msg.is_some_and(|m| m.contains("NaN objective value")), "{:?}", msg);
            }
        }
    }

    #[test]
    fn collapse_then_diameter_halves() {
        let mut pts = vec![vec![0.0, 0.0], vec![2.0, 0.0], vec![0.0, 2.0]];
        let d0 = diameter(&pts);
        collapse_towards(&mut pts, 0, 0.5);
        assert!((diameter(&pts) - d0 / 2.0).abs() < 1e-12);
    }
}
